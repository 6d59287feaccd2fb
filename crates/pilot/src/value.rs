//! Typed argument values for `PI_Write`/`PI_Read` and the channel wire
//! format.
//!
//! A Pilot message is the concatenation of the segments described by the
//! write format. On the wire each segment carries its datatype and element
//! count, so the reading side can verify its own format agrees — Pilot's
//! run-time architecture enforcement extends to data descriptions, turning
//! "process A sent doubles, process B read ints" into a diagnostic instead
//! of corrupted data.

use crate::fmt::{Conversion, CountSpec};
use cp_mpisim::{decode_slice, encode_slice_into, Datatype, LongDouble};
use std::fmt;

/// One typed argument passed to a write, or returned from a read.
#[derive(Debug, Clone, PartialEq)]
pub enum PiValue {
    /// `%b`
    Byte(Vec<u8>),
    /// `%c` (ASCII)
    Char(Vec<u8>),
    /// `%hd`
    Int16(Vec<i16>),
    /// `%d`
    Int32(Vec<i32>),
    /// `%u`
    UInt32(Vec<u32>),
    /// `%ld`
    Int64(Vec<i64>),
    /// `%f`
    Float32(Vec<f32>),
    /// `%lf`
    Float64(Vec<f64>),
    /// `%Lf`
    LongDouble(Vec<LongDouble>),
}

impl PiValue {
    /// The matching datatype.
    pub fn dtype(&self) -> Datatype {
        match self {
            PiValue::Byte(_) => Datatype::Byte,
            PiValue::Char(_) => Datatype::Char,
            PiValue::Int16(_) => Datatype::Int16,
            PiValue::Int32(_) => Datatype::Int32,
            PiValue::UInt32(_) => Datatype::UInt32,
            PiValue::Int64(_) => Datatype::Int64,
            PiValue::Float32(_) => Datatype::Float32,
            PiValue::Float64(_) => Datatype::Float64,
            PiValue::LongDouble(_) => Datatype::LongDouble,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            PiValue::Byte(v) => v.len(),
            PiValue::Char(v) => v.len(),
            PiValue::Int16(v) => v.len(),
            PiValue::Int32(v) => v.len(),
            PiValue::UInt32(v) => v.len(),
            PiValue::Int64(v) => v.len(),
            PiValue::Float32(v) => v.len(),
            PiValue::Float64(v) => v.len(),
            PiValue::LongDouble(v) => v.len(),
        }
    }

    /// True if the value holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the elements occupy on the wire.
    fn wire_len(&self) -> usize {
        self.len() * self.dtype().wire_size()
    }

    /// Write the elements' canonical wire bytes into `out`, which is
    /// exactly [`PiValue::wire_len`] long.
    fn encode_into(&self, out: &mut [u8]) {
        match self {
            PiValue::Byte(v) | PiValue::Char(v) => out.copy_from_slice(v),
            PiValue::Int16(v) => encode_slice_into(v, out),
            PiValue::Int32(v) => encode_slice_into(v, out),
            PiValue::UInt32(v) => encode_slice_into(v, out),
            PiValue::Int64(v) => encode_slice_into(v, out),
            PiValue::Float32(v) => encode_slice_into(v, out),
            PiValue::Float64(v) => encode_slice_into(v, out),
            PiValue::LongDouble(v) => encode_slice_into(v, out),
        }
    }

    /// Decode elements of `dtype` from wire bytes.
    pub fn decode(dtype: Datatype, bytes: &[u8]) -> PiValue {
        match dtype {
            Datatype::Byte => PiValue::Byte(bytes.to_vec()),
            Datatype::Char => PiValue::Char(bytes.to_vec()),
            Datatype::Int16 => PiValue::Int16(decode_slice(bytes)),
            Datatype::Int32 => PiValue::Int32(decode_slice(bytes)),
            Datatype::UInt32 => PiValue::UInt32(decode_slice(bytes)),
            Datatype::Int64 => PiValue::Int64(decode_slice(bytes)),
            Datatype::Float32 => PiValue::Float32(decode_slice(bytes)),
            Datatype::Float64 => PiValue::Float64(decode_slice(bytes)),
            Datatype::LongDouble => PiValue::LongDouble(decode_slice(bytes)),
        }
    }
}

macro_rules! from_vec {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<Vec<$t>> for PiValue {
            fn from(v: Vec<$t>) -> PiValue { PiValue::$variant(v) }
        }
        impl From<&[$t]> for PiValue {
            fn from(v: &[$t]) -> PiValue { PiValue::$variant(v.to_vec()) }
        }
        impl From<$t> for PiValue {
            fn from(v: $t) -> PiValue { PiValue::$variant(vec![v]) }
        }
    )*};
}

from_vec!(i16 => Int16, i32 => Int32, u32 => UInt32, i64 => Int64,
          f32 => Float32, f64 => Float64, LongDouble => LongDouble, u8 => Byte);

/// A Rust scalar usable with the typed channel helpers
/// ([`Pilot::write_slice`]/[`Pilot::read_vec`]): each implementor maps to
/// one [`PiValue`] variant and the Pilot format conversion describing it.
///
/// [`Pilot::write_slice`]: crate::Pilot::write_slice
/// [`Pilot::read_vec`]: crate::Pilot::read_vec
pub trait PiScalar: Copy + Send + 'static {
    /// The conversion character(s) of a `%N<conv>` format segment for this
    /// type (`"d"` for `i32`, `"lf"` for `f64`, …).
    const CONV: &'static str;
    /// Wrap a vector as the matching [`PiValue`] variant.
    fn wrap(v: Vec<Self>) -> PiValue;
    /// Unwrap the matching variant; `None` on a variant mismatch.
    fn unwrap(v: PiValue) -> Option<Vec<Self>>;
}

macro_rules! pi_scalar {
    ($($t:ty => $variant:ident, $conv:literal;)*) => {$(
        impl PiScalar for $t {
            const CONV: &'static str = $conv;
            fn wrap(v: Vec<$t>) -> PiValue { PiValue::$variant(v) }
            fn unwrap(v: PiValue) -> Option<Vec<$t>> {
                match v { PiValue::$variant(v) => Some(v), _ => None }
            }
        }
    )*};
}

pi_scalar! {
    u8 => Byte, "b";
    i16 => Int16, "hd";
    i32 => Int32, "d";
    u32 => UInt32, "u";
    i64 => Int64, "ld";
    f32 => Float32, "f";
    f64 => Float64, "lf";
    LongDouble => LongDouble, "Lf";
}

/// Why a value list does not satisfy a format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// Fewer/more values than conversions.
    ArgCount {
        /// Conversions in the format.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A value's type disagrees with its conversion.
    TypeMismatch {
        /// Zero-based conversion index.
        index: usize,
        /// Type the format demands.
        expected: Datatype,
        /// Type the value holds.
        got: Datatype,
    },
    /// A fixed-count conversion got a different element count.
    CountMismatch {
        /// Zero-based conversion index.
        index: usize,
        /// Count the format demands.
        expected: usize,
        /// Count the value holds.
        got: usize,
    },
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::ArgCount { expected, got } => {
                write!(
                    f,
                    "format has {expected} conversions but {got} values supplied"
                )
            }
            MatchError::TypeMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "conversion #{index} expects {expected} but value holds {got}"
            ),
            MatchError::CountMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "conversion #{index} expects {expected} elements but value holds {got}"
            ),
        }
    }
}

impl std::error::Error for MatchError {}

/// Check that `values` satisfy the parsed `conversions`: a writer's
/// values, or those a reader unpacked (`%*` conversions accept any
/// length).
pub fn check_against_format(
    conversions: &[Conversion],
    values: &[PiValue],
) -> Result<(), MatchError> {
    check_segments(conversions, values.iter().map(|v| (v.dtype(), v.len())))
}

/// Check that an incoming message's segments satisfy the *reader's*
/// conversions (a read-side check; `%*` accepts the sender's count).
pub fn check_read_format(
    conversions: &[Conversion],
    segments: &[(Datatype, usize)],
) -> Result<(), MatchError> {
    check_segments(conversions, segments.iter().copied())
}

/// Check `(datatype, count)` segments against `conversions`: the same
/// number, each of the conversion's type, and of its count if fixed.
fn check_segments(
    conversions: &[Conversion],
    segments: impl ExactSizeIterator<Item = (Datatype, usize)>,
) -> Result<(), MatchError> {
    if conversions.len() != segments.len() {
        return Err(MatchError::ArgCount {
            expected: conversions.len(),
            got: segments.len(),
        });
    }
    for (index, (c, (dtype, count))) in conversions.iter().zip(segments).enumerate() {
        if c.dtype != dtype {
            return Err(MatchError::TypeMismatch {
                index,
                expected: c.dtype,
                got: dtype,
            });
        }
        if let CountSpec::Fixed(n) = c.count {
            if count != n {
                return Err(MatchError::CountMismatch {
                    index,
                    expected: n,
                    got: count,
                });
            }
        }
    }
    Ok(())
}

// --- Wire format: [u32 nsegs] ([u8 dtype][u32 count][bytes])* ---

fn dtype_code(d: Datatype) -> u8 {
    match d {
        Datatype::Byte => 0,
        Datatype::Char => 1,
        Datatype::Int16 => 2,
        Datatype::Int32 => 3,
        Datatype::UInt32 => 4,
        Datatype::Int64 => 5,
        Datatype::Float32 => 6,
        Datatype::Float64 => 7,
        Datatype::LongDouble => 8,
    }
}

fn code_dtype(c: u8) -> Option<Datatype> {
    Some(match c {
        0 => Datatype::Byte,
        1 => Datatype::Char,
        2 => Datatype::Int16,
        3 => Datatype::Int32,
        4 => Datatype::UInt32,
        5 => Datatype::Int64,
        6 => Datatype::Float32,
        7 => Datatype::Float64,
        8 => Datatype::LongDouble,
        _ => return None,
    })
}

/// Bytes one channel message of `values` occupies: the segment count,
/// then per segment a 5-byte header and the elements.
pub fn packed_len(values: &[PiValue]) -> usize {
    4 + values.iter().map(|v| 5 + v.wire_len()).sum::<usize>()
}

/// Serialize values into one channel message.
pub fn pack_message(values: &[PiValue]) -> Vec<u8> {
    let mut out = vec![0; packed_len(values)];
    pack_message_into(values, &mut out);
    out
}

/// Serialize values into one channel message in place: `out` is exactly
/// [`packed_len`] bytes long (panics otherwise), and every byte of it is
/// written.
pub fn pack_message_into(values: &[PiValue], out: &mut [u8]) {
    assert_eq!(out.len(), packed_len(values), "buffer of the packed length");
    let (count, mut rest) = out.split_at_mut(4);
    count.copy_from_slice(&(values.len() as u32).to_be_bytes());
    for v in values {
        let (header, tail) = rest.split_at_mut(5);
        header[0] = dtype_code(v.dtype());
        header[1..].copy_from_slice(&(v.len() as u32).to_be_bytes());
        let (elements, tail) = tail.split_at_mut(v.wire_len());
        v.encode_into(elements);
        rest = tail;
    }
}

/// Deserialize a channel message into its values. Returns `None` on a
/// malformed payload (which would indicate a library bug, not user error).
pub fn unpack_message(bytes: &[u8]) -> Option<Vec<PiValue>> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        if *pos + n <= bytes.len() {
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Some(s)
        } else {
            None
        }
    };
    let nsegs = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
    let mut out = Vec::with_capacity(nsegs);
    for _ in 0..nsegs {
        let code = take(&mut pos, 1)?[0];
        let dtype = code_dtype(code)?;
        let count = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let data = take(&mut pos, count * dtype.wire_size())?;
        out.push(PiValue::decode(dtype, data));
    }
    if pos == bytes.len() {
        Some(out)
    } else {
        None
    }
}

/// Total payload bytes the values occupy on the wire (excluding headers) —
/// the quantity the latency model charges for.
pub fn payload_bytes(values: &[PiValue]) -> usize {
    values.iter().map(PiValue::wire_len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fmt::parse_format;

    #[test]
    fn pack_unpack_roundtrip() {
        let vals = vec![
            PiValue::Int32(vec![1, -2, 3]),
            PiValue::Byte(vec![9]),
            PiValue::LongDouble(vec![LongDouble(2.5); 100]),
            PiValue::Char(b"hello".to_vec()),
        ];
        let bytes = pack_message(&vals);
        assert_eq!(unpack_message(&bytes).unwrap(), vals);
    }

    #[test]
    fn payload_bytes_matches_paper_array() {
        let vals = vec![PiValue::LongDouble(vec![LongDouble(0.0); 100])];
        assert_eq!(payload_bytes(&vals), 1600);
        let one = vec![PiValue::Byte(vec![0])];
        assert_eq!(payload_bytes(&one), 1);
    }

    #[test]
    fn write_check_catches_type_and_count() {
        let conv = parse_format("%d %10f").unwrap();
        let ok = vec![PiValue::Int32(vec![1]), PiValue::Float32(vec![0.0; 10])];
        assert!(check_against_format(&conv, &ok).is_ok());
        let wrong_type = vec![PiValue::Float64(vec![1.0]), PiValue::Float32(vec![0.0; 10])];
        assert!(matches!(
            check_against_format(&conv, &wrong_type),
            Err(MatchError::TypeMismatch { index: 0, .. })
        ));
        let wrong_count = vec![PiValue::Int32(vec![1]), PiValue::Float32(vec![0.0; 9])];
        assert!(matches!(
            check_against_format(&conv, &wrong_count),
            Err(MatchError::CountMismatch {
                index: 1,
                expected: 10,
                got: 9
            })
        ));
        assert!(matches!(
            check_against_format(&conv, &ok[..1]),
            Err(MatchError::ArgCount {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn star_accepts_any_length() {
        let conv = parse_format("%*d").unwrap();
        for n in [0usize, 1, 100] {
            let vals = vec![PiValue::Int32(vec![0; n])];
            assert!(check_against_format(&conv, &vals).is_ok(), "n={n}");
        }
    }

    #[test]
    fn read_check_against_segments() {
        let conv = parse_format("%*d").unwrap();
        assert!(check_read_format(&conv, &[(Datatype::Int32, 100)]).is_ok());
        assert!(check_read_format(&conv, &[(Datatype::Float32, 100)]).is_err());
        let fixed = parse_format("%100d").unwrap();
        assert!(check_read_format(&fixed, &[(Datatype::Int32, 99)]).is_err());
    }

    #[test]
    fn malformed_wire_rejected() {
        assert!(unpack_message(&[]).is_none());
        assert!(
            unpack_message(&[0, 0, 0, 1, 200, 0, 0, 0, 0]).is_none(),
            "bad dtype code"
        );
        let mut ok = pack_message(&[PiValue::Byte(vec![1])]);
        ok.push(0); // trailing garbage
        assert!(unpack_message(&ok).is_none());
    }

    #[test]
    fn from_conversions() {
        assert_eq!(PiValue::from(5i32), PiValue::Int32(vec![5]));
        assert_eq!(PiValue::from(vec![1u8, 2]), PiValue::Byte(vec![1, 2]));
        let s: &[f64] = &[1.0];
        assert_eq!(PiValue::from(s), PiValue::Float64(vec![1.0]));
    }
}
