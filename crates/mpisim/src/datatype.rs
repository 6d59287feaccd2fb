//! MPI datatypes and the canonical wire representation.
//!
//! The paper's cluster is heterogeneous: PowerPC-based PPEs (big-endian,
//! 16-byte `long double`) next to x86-64 Xeons (little-endian, 80-bit
//! `long double`). MPI's job — which Pilot leans on — is to make a
//! `PI_Write("%100Lf", …)` on one architecture arrive intact on another.
//! We reproduce that by defining one canonical big-endian wire format per
//! datatype; every rank encodes/decodes through it, so a transfer between
//! ranks of different word lengths or endianness is exercised on every
//! message. `long double` travels as the PPE's 16-byte format (the paper's
//! 1600-byte array is 100 of these).

use std::fmt;

/// An MPI element type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Datatype {
    /// Raw byte (Pilot `%b`).
    Byte,
    /// Character (Pilot `%c`).
    Char,
    /// 16-bit signed integer (Pilot `%hd`).
    Int16,
    /// 32-bit signed integer (Pilot `%d`).
    Int32,
    /// 32-bit unsigned integer (Pilot `%u`).
    UInt32,
    /// 64-bit signed integer (Pilot `%ld`).
    Int64,
    /// 32-bit float (Pilot `%f`).
    Float32,
    /// 64-bit double (Pilot `%lf`).
    Float64,
    /// 128-bit long double (Pilot `%Lf`), 16 bytes on the wire.
    LongDouble,
}

impl Datatype {
    /// Bytes one element occupies on the wire.
    pub fn wire_size(self) -> usize {
        match self {
            Datatype::Byte | Datatype::Char => 1,
            Datatype::Int16 => 2,
            Datatype::Int32 | Datatype::UInt32 | Datatype::Float32 => 4,
            Datatype::Int64 | Datatype::Float64 => 8,
            Datatype::LongDouble => 16,
        }
    }

    /// All datatypes (for exhaustive tests/benches — each row of the
    /// paper's latency experiment covers "each data type supported").
    pub const ALL: [Datatype; 9] = [
        Datatype::Byte,
        Datatype::Char,
        Datatype::Int16,
        Datatype::Int32,
        Datatype::UInt32,
        Datatype::Int64,
        Datatype::Float32,
        Datatype::Float64,
        Datatype::LongDouble,
    ];
}

impl fmt::Display for Datatype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Datatype::Byte => "byte",
            Datatype::Char => "char",
            Datatype::Int16 => "int16",
            Datatype::Int32 => "int32",
            Datatype::UInt32 => "uint32",
            Datatype::Int64 => "int64",
            Datatype::Float32 => "float32",
            Datatype::Float64 => "float64",
            Datatype::LongDouble => "longdouble",
        };
        f.write_str(s)
    }
}

/// A scalar that can travel as an MPI element.
pub trait MpiScalar: Copy + PartialEq + fmt::Debug + Send + 'static {
    /// The matching [`Datatype`].
    const DATATYPE: Datatype;
    /// Write this value's canonical wire bytes into `out`, which is
    /// exactly one element's wire size long.
    fn encode(&self, out: &mut [u8]);
    /// Decode one value from its canonical wire bytes.
    fn decode(bytes: &[u8]) -> Self;
}

macro_rules! scalar_impl {
    ($t:ty, $dt:expr) => {
        impl MpiScalar for $t {
            const DATATYPE: Datatype = $dt;
            fn encode(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_be_bytes());
            }
            fn decode(bytes: &[u8]) -> Self {
                Self::from_be_bytes(bytes.try_into().expect("wire size"))
            }
        }
    };
}

scalar_impl!(u8, Datatype::Byte);
scalar_impl!(i16, Datatype::Int16);
scalar_impl!(i32, Datatype::Int32);
scalar_impl!(u32, Datatype::UInt32);
scalar_impl!(i64, Datatype::Int64);
scalar_impl!(f32, Datatype::Float32);
scalar_impl!(f64, Datatype::Float64);

/// A 128-bit `long double` as the PPE represents it: we carry the value in
/// an `f64` plus explicit padding, but it occupies the full 16 wire bytes
/// (the paper's `%100Lf` array is 1600 bytes for this reason).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LongDouble(pub f64);

impl MpiScalar for LongDouble {
    const DATATYPE: Datatype = Datatype::LongDouble;
    fn encode(&self, out: &mut [u8]) {
        // IBM long double is head+tail doubles; we canonicalize as the head
        // double followed by a zero tail.
        let (head, tail) = out.split_at_mut(8);
        head.copy_from_slice(&self.0.to_be_bytes());
        tail.fill(0);
    }
    fn decode(bytes: &[u8]) -> Self {
        LongDouble(f64::from_be_bytes(
            bytes[..8].try_into().expect("wire size"),
        ))
    }
}

/// Encode a slice of scalars into canonical wire bytes.
pub fn encode_slice<T: MpiScalar>(vals: &[T]) -> Vec<u8> {
    let mut out = vec![0; vals.len() * T::DATATYPE.wire_size()];
    encode_slice_into(vals, &mut out);
    out
}

/// Encode a slice of scalars into `out`, which is exactly their wire size
/// long. Panics otherwise.
pub fn encode_slice_into<T: MpiScalar>(vals: &[T], out: &mut [u8]) {
    let sz = T::DATATYPE.wire_size();
    assert_eq!(
        out.len(),
        vals.len() * sz,
        "wire size of {} {}",
        vals.len(),
        T::DATATYPE
    );
    for (v, bytes) in vals.iter().zip(out.chunks_exact_mut(sz)) {
        v.encode(bytes);
    }
}

/// Decode canonical wire bytes into scalars. Panics if `bytes` is not a
/// whole number of elements (callers validate counts first).
pub fn decode_slice<T: MpiScalar>(bytes: &[u8]) -> Vec<T> {
    let sz = T::DATATYPE.wire_size();
    assert!(
        bytes.len().is_multiple_of(sz),
        "byte length {} not a multiple of {} ({})",
        bytes.len(),
        sz,
        T::DATATYPE
    );
    bytes.chunks_exact(sz).map(T::decode).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        assert_eq!(Datatype::Byte.wire_size(), 1);
        assert_eq!(Datatype::Int32.wire_size(), 4);
        assert_eq!(Datatype::LongDouble.wire_size(), 16);
        // The paper's array case: 100 long doubles = 1600 bytes.
        assert_eq!(100 * Datatype::LongDouble.wire_size(), 1600);
    }

    #[test]
    fn roundtrip_every_scalar() {
        assert_eq!(
            decode_slice::<i32>(&encode_slice(&[1i32, -5, 7])),
            vec![1, -5, 7]
        );
        assert_eq!(decode_slice::<u8>(&encode_slice(&[0u8, 255])), vec![0, 255]);
        assert_eq!(decode_slice::<i16>(&encode_slice(&[-300i16])), vec![-300]);
        assert_eq!(
            decode_slice::<i64>(&encode_slice(&[i64::MIN])),
            vec![i64::MIN]
        );
        assert_eq!(
            decode_slice::<u32>(&encode_slice(&[u32::MAX])),
            vec![u32::MAX]
        );
        assert_eq!(decode_slice::<f32>(&encode_slice(&[1.5f32])), vec![1.5]);
        assert_eq!(decode_slice::<f64>(&encode_slice(&[-2.25f64])), vec![-2.25]);
        let lds = [LongDouble(3.125), LongDouble(-0.5)];
        assert_eq!(
            decode_slice::<LongDouble>(&encode_slice(&lds)),
            lds.to_vec()
        );
    }

    #[test]
    fn wire_format_is_big_endian() {
        assert_eq!(encode_slice(&[0x01020304i32]), vec![1, 2, 3, 4]);
    }

    #[test]
    fn long_double_occupies_16_bytes() {
        let b = encode_slice(&[LongDouble(1.0)]);
        assert_eq!(b.len(), 16);
        assert_eq!(&b[8..], &[0u8; 8]);
    }

    #[test]
    fn display_covers_all_datatypes() {
        let names: Vec<String> = Datatype::ALL.iter().map(|d| d.to_string()).collect();
        assert_eq!(names.len(), 9);
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), 9, "names must be distinct: {names:?}");
        assert!(names.contains(&"longdouble".to_string()));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_decode_panics() {
        let _ = decode_slice::<i32>(&[1, 2, 3]);
    }
}
