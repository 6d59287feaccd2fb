//! Property tests for the Pilot data layer: format parsing, message
//! packing, and format/value agreement.

use cp_mpisim::{encode_slice, Datatype, LongDouble};
use cp_pilot::value::{
    check_against_format, check_read_format, pack_message, pack_message_into, packed_len,
    payload_bytes, unpack_message,
};
use cp_pilot::{parse_format, CountSpec, PiValue};
use proptest::prelude::*;

/// A strategy producing an arbitrary `PiValue` with 0..64 elements.
fn arb_value() -> impl Strategy<Value = PiValue> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(PiValue::Byte),
        proptest::collection::vec(0x20u8..0x7F, 0..64).prop_map(PiValue::Char),
        proptest::collection::vec(any::<i16>(), 0..64).prop_map(PiValue::Int16),
        proptest::collection::vec(any::<i32>(), 0..64).prop_map(PiValue::Int32),
        proptest::collection::vec(any::<u32>(), 0..64).prop_map(PiValue::UInt32),
        proptest::collection::vec(any::<i64>(), 0..64).prop_map(PiValue::Int64),
        proptest::collection::vec(any::<f32>(), 0..64).prop_map(PiValue::Float32),
        proptest::collection::vec(any::<f64>(), 0..64).prop_map(PiValue::Float64),
        proptest::collection::vec(any::<f64>(), 0..64)
            .prop_map(|v| PiValue::LongDouble(v.into_iter().map(LongDouble).collect())),
    ]
}

fn conv_letter(d: Datatype) -> &'static str {
    match d {
        Datatype::Byte => "b",
        Datatype::Char => "c",
        Datatype::Int16 => "hd",
        Datatype::Int32 => "d",
        Datatype::UInt32 => "u",
        Datatype::Int64 => "ld",
        Datatype::Float32 => "f",
        Datatype::Float64 => "lf",
        Datatype::LongDouble => "Lf",
    }
}

/// The wire format written out longhand: the segment count, then per
/// segment its datatype code (the datatype's place in `Datatype::ALL`),
/// its element count and its elements, all big-endian.
fn reference_pack(values: &[PiValue]) -> Vec<u8> {
    let mut out = (values.len() as u32).to_be_bytes().to_vec();
    for v in values {
        let code = Datatype::ALL.iter().position(|&d| d == v.dtype()).unwrap();
        out.push(code as u8);
        out.extend_from_slice(&(v.len() as u32).to_be_bytes());
        out.extend(match v {
            PiValue::Byte(e) | PiValue::Char(e) => e.clone(),
            PiValue::Int16(e) => encode_slice(e),
            PiValue::Int32(e) => encode_slice(e),
            PiValue::UInt32(e) => encode_slice(e),
            PiValue::Int64(e) => encode_slice(e),
            PiValue::Float32(e) => encode_slice(e),
            PiValue::Float64(e) => encode_slice(e),
            PiValue::LongDouble(e) => encode_slice(e),
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// pack → unpack is the identity for any value list, and both packers
    /// write the wire format byte for byte: `pack_message`, and
    /// `pack_message_into` over a buffer of `packed_len` bytes whatever it
    /// held before.
    #[test]
    fn pack_unpack_roundtrip(values in proptest::collection::vec(arb_value(), 0..8),
                             fill in any::<u8>()) {
        let bytes = pack_message(&values);
        prop_assert_eq!(&bytes, &reference_pack(&values));
        prop_assert_eq!(packed_len(&values), bytes.len());
        let mut in_place = vec![fill; packed_len(&values)];
        pack_message_into(&values, &mut in_place);
        prop_assert_eq!(&in_place, &bytes);
        // NaN breaks PartialEq; compare on the wire instead.
        let back = unpack_message(&bytes).expect("own wire format parses");
        prop_assert_eq!(pack_message(&back), bytes);
        prop_assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            prop_assert_eq!(a.dtype(), b.dtype());
            prop_assert_eq!(a.len(), b.len());
        }
    }

    /// A format synthesized from the values always accepts them, on both
    /// the write side and the read side.
    #[test]
    fn synthesized_format_matches(values in proptest::collection::vec(arb_value(), 1..8),
                                  use_star in any::<bool>()) {
        let fmt: String = values
            .iter()
            .map(|v| {
                if use_star {
                    format!("%*{}", conv_letter(v.dtype()))
                } else if v.len() == 1 {
                    format!("%{}", conv_letter(v.dtype()))
                } else {
                    format!("%{}{}", v.len().max(1), conv_letter(v.dtype()))
                }
            })
            .collect::<Vec<_>>()
            .join(" ");
        // Fixed-count formats can't express empty segments; star always can.
        let any_empty = values.iter().any(|v| v.is_empty());
        prop_assume!(use_star || !any_empty);
        let conv = parse_format(&fmt).unwrap();
        prop_assert!(check_against_format(&conv, &values).is_ok(), "fmt={fmt}");
        let segs: Vec<(Datatype, usize)> = values.iter().map(|v| (v.dtype(), v.len())).collect();
        prop_assert!(check_read_format(&conv, &segs).is_ok());
    }

    /// Payload bytes equal element count times wire size, summed.
    #[test]
    fn payload_bytes_is_sum(values in proptest::collection::vec(arb_value(), 0..8)) {
        let expected: usize = values.iter().map(|v| v.len() * v.dtype().wire_size()).sum();
        prop_assert_eq!(payload_bytes(&values), expected);
    }

    /// Parsing never panics on arbitrary input, and accepted formats
    /// contain only valid conversions.
    #[test]
    fn parser_is_total(s in "\\PC*") {
        match parse_format(&s) {
            Ok(convs) => {
                prop_assert!(!convs.is_empty());
                for c in convs {
                    if let CountSpec::Fixed(n) = c.count {
                        prop_assert!(n >= 1);
                    }
                }
            }
            Err(e) => {
                prop_assert!(e.at <= s.len());
            }
        }
    }

    /// Truncating a packed message always makes it unparseable (no silent
    /// partial reads).
    #[test]
    fn truncated_wire_rejected(values in proptest::collection::vec(arb_value(), 1..4),
                               cut in 1usize..16) {
        let bytes = pack_message(&values);
        prop_assume!(cut < bytes.len());
        let truncated = &bytes[..bytes.len() - cut];
        prop_assert!(unpack_message(truncated).is_none());
    }
}
