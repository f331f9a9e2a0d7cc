//! Byte-level tuple encoding.
//!
//! Storage pages, spill files and network messages all carry tuples in this
//! encoding, so the simulated I/O and network volumes follow real byte
//! counts. The format is deliberately simple (no varints, no compression):
//!
//! ```text
//! tuple   := arity:u16  value*
//! value   := tag:u8 payload
//! payload := ε            (tag 0, NULL)
//!          | i64 LE       (tag 1, Int)
//!          | f64-bits LE  (tag 2, Float)
//!          | len:u32 LE bytes  (tag 3, Str)
//! ```

use crate::error::ModelError;
use crate::value::Value;

const TAG_NULL: u8 = 0;
/// The tag byte of an `Int` cell.
pub const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;

/// Encoded size of a value slice, including the arity header.
pub fn encoded_len(values: &[Value]) -> usize {
    2 + values
        .iter()
        .map(|v| 1 + v.encoded_payload_len())
        .sum::<usize>()
}

/// Append the encoding of `values` to `out`. Returns the number of bytes
/// written. Panics if arity exceeds `u16::MAX` (tuples here have ≤ dozens
/// of columns).
pub fn encode_tuple(values: &[Value], out: &mut Vec<u8>) -> usize {
    let start = out.len();
    let arity = u16::try_from(values.len()).expect("tuple arity exceeds u16");
    out.extend_from_slice(&arity.to_le_bytes());
    for v in values {
        encode_value(v, out);
    }
    out.len() - start
}

/// Append one value's `tag payload` encoding to `out` (the per-cell body
/// of [`encode_tuple`]; column-strip pages re-encode row-major through
/// this when they hit the wire or disk).
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            let len = u32::try_from(s.len()).expect("string exceeds u32 length");
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Decode one tuple from the front of `buf` into a caller-owned scratch
/// vector (cleared first), reusing its allocation across tuples. Returns
/// the number of bytes consumed.
pub fn decode_tuple_into(buf: &[u8], out: &mut Vec<Value>) -> Result<usize, ModelError> {
    out.clear();
    let mut pos = 0usize;

    let take = |pos: &mut usize, n: usize| -> Result<&[u8], ModelError> {
        let end = pos
            .checked_add(n)
            .filter(|&e| e <= buf.len())
            .ok_or(ModelError::Corrupt("truncated tuple"))?;
        let s = &buf[*pos..end];
        *pos = end;
        Ok(s)
    };

    let arity_bytes = take(&mut pos, 2)?;
    let arity = u16::from_le_bytes([arity_bytes[0], arity_bytes[1]]) as usize;
    out.reserve(arity);
    for _ in 0..arity {
        let tag = take(&mut pos, 1)?[0];
        let v = match tag {
            TAG_NULL => Value::Null,
            TAG_INT => {
                let b: [u8; 8] = take(&mut pos, 8)?.try_into().unwrap();
                Value::Int(i64::from_le_bytes(b))
            }
            TAG_FLOAT => {
                let b: [u8; 8] = take(&mut pos, 8)?.try_into().unwrap();
                Value::Float(f64::from_bits(u64::from_le_bytes(b)))
            }
            TAG_STR => {
                let lb: [u8; 4] = take(&mut pos, 4)?.try_into().unwrap();
                let len = u32::from_le_bytes(lb) as usize;
                let s = std::str::from_utf8(take(&mut pos, len)?)
                    .map_err(|_| ModelError::Corrupt("non-UTF8 string payload"))?;
                Value::Str(s.into())
            }
            _ => return Err(ModelError::Corrupt("unknown value tag")),
        };
        out.push(v);
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tuple from the front of `buf`, and the bytes it took.
    pub(super) fn decode_tuple(buf: &[u8]) -> Result<(Vec<Value>, usize), ModelError> {
        let mut values = Vec::new();
        let used = decode_tuple_into(buf, &mut values)?;
        Ok((values, used))
    }

    fn round_trip(values: Vec<Value>) {
        let mut buf = Vec::new();
        let n = encode_tuple(&values, &mut buf);
        assert_eq!(n, buf.len());
        assert_eq!(n, encoded_len(&values), "encoded_len must match actual bytes");
        let (decoded, consumed) = decode_tuple(&buf).unwrap();
        assert_eq!(consumed, n);
        assert_eq!(decoded, values);
    }

    #[test]
    fn round_trips_all_types() {
        round_trip(vec![]);
        round_trip(vec![Value::Null]);
        round_trip(vec![Value::Int(i64::MIN), Value::Int(i64::MAX)]);
        round_trip(vec![Value::Float(-0.0), Value::Float(f64::INFINITY)]);
        round_trip(vec![Value::Str("".into()), Value::Str("héllo ✓".into())]);
        round_trip(vec![
            Value::Int(1),
            Value::Null,
            Value::Float(2.5),
            Value::Str("mixed".into()),
        ]);
    }

    #[test]
    fn decode_into_reuses_scratch_and_matches_decode() {
        let a = vec![Value::Int(7), Value::Str("abc".into()), Value::Null];
        let b = vec![Value::Float(1.5)];
        let mut buf = Vec::new();
        encode_tuple(&a, &mut buf);
        encode_tuple(&b, &mut buf);
        let mut scratch = Vec::new();
        let used = decode_tuple_into(&buf, &mut scratch).unwrap();
        assert_eq!(scratch, a);
        let used2 = decode_tuple_into(&buf[used..], &mut scratch).unwrap();
        assert_eq!(scratch, b, "scratch is cleared between tuples");
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn nan_round_trips_bit_exactly() {
        let mut buf = Vec::new();
        encode_tuple(&[Value::Float(f64::NAN)], &mut buf);
        let (vals, _) = decode_tuple(&buf).unwrap();
        match vals[0] {
            Value::Float(f) => assert!(f.is_nan()),
            _ => panic!("wrong type"),
        }
    }

    #[test]
    fn consecutive_tuples_in_one_buffer() {
        let a = vec![Value::Int(1)];
        let b = vec![Value::Str("two".into()), Value::Null];
        let mut buf = Vec::new();
        encode_tuple(&a, &mut buf);
        encode_tuple(&b, &mut buf);
        let (da, used) = decode_tuple(&buf).unwrap();
        let (db, used2) = decode_tuple(&buf[used..]).unwrap();
        assert_eq!(da, a);
        assert_eq!(db, b);
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        encode_tuple(&[Value::Int(12345), Value::Str("abcdef".into())], &mut buf);
        for cut in 0..buf.len() {
            assert!(
                decode_tuple(&buf[..cut]).is_err(),
                "truncation at {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn unknown_tag_is_detected() {
        let buf = [1u8, 0, 9]; // arity 1, tag 9
        assert_eq!(
            decode_tuple(&buf),
            Err(ModelError::Corrupt("unknown value tag"))
        );
    }

    #[test]
    fn invalid_utf8_is_detected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.push(super::TAG_STR);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            decode_tuple(&buf),
            Err(ModelError::Corrupt("non-UTF8 string payload"))
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::decode_tuple;
    use super::*;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            ".{0,40}".prop_map(|s: String| Value::Str(s.into_boxed_str())),
        ]
    }

    proptest! {
        #[test]
        fn prop_round_trip(values in proptest::collection::vec(arb_value(), 0..10)) {
            let mut buf = Vec::new();
            let n = encode_tuple(&values, &mut buf);
            prop_assert_eq!(n, encoded_len(&values));
            let (decoded, used) = decode_tuple(&buf).unwrap();
            prop_assert_eq!(used, n);
            // Compare via Value's Eq (handles NaN identity).
            prop_assert_eq!(decoded, values);
        }

        #[test]
        fn prop_random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = decode_tuple(&bytes); // must not panic, error is fine
        }
    }
}
