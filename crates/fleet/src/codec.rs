//! Binary codec for write-ahead-log records.
//!
//! The WAL is written on the hot path, millions of records per run, so it
//! uses a compact, allocation-light binary encoding. Snapshots used to be
//! the odd one out (line-oriented text, `ocasta_ttkv::codec`); since
//! `ocasta-ttkv binary v2` they use the same value-tag space (0x00–0x06)
//! and the same FNV-1a checksum family as these frames — text survives
//! only as a write-only export (`Ttkv::save_text`, `ocasta export`) that
//! nothing reads back:
//!
//! ```text
//! op    := 0x01 u64:timestamp_ms key value      -- write
//!        | 0x02 u64:timestamp_ms key            -- delete (tombstone)
//!        | 0x03 key u64:count                   -- aggregated reads
//! key   := u32:len bytes (UTF-8)
//! value := 0x00                                 -- null
//!        | 0x01 | 0x02                          -- bool false / true
//!        | 0x03 i64                             -- int
//!        | 0x04 u64:bits                        -- float (bit-exact)
//!        | 0x05 u32:len bytes                   -- string
//!        | 0x06 u32:count value*                -- list
//! ```
//!
//! All integers are little-endian. Floats round-trip bit-exactly (NaN
//! payloads included), matching the text codec's `f<hex bits>` guarantee.

use ocasta_trace::{AccessEvent, Mutation, TraceOp};
use ocasta_ttkv::{Key, Timestamp, Value};

/// Op tag: write.
const OP_WRITE: u8 = 0x01;
/// Op tag: delete.
const OP_DELETE: u8 = 0x02;
/// Op tag: aggregated reads.
const OP_READS: u8 = 0x03;

const VAL_NULL: u8 = 0x00;
const VAL_FALSE: u8 = 0x01;
const VAL_TRUE: u8 = 0x02;
const VAL_INT: u8 = 0x03;
const VAL_FLOAT: u8 = 0x04;
const VAL_STR: u8 = 0x05;
const VAL_LIST: u8 = 0x06;

/// A malformed byte sequence, with a human-readable cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wal codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(message: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(message.into()))
}

/// Appends the encoding of one op to `out`.
pub fn encode_op(op: &TraceOp, out: &mut Vec<u8>) {
    match op {
        TraceOp::Mutation(event) => match &event.mutation {
            Mutation::Write(value) => {
                out.push(OP_WRITE);
                out.extend_from_slice(&event.timestamp.as_millis().to_le_bytes());
                encode_key(&event.key, out);
                encode_value(value, out);
            }
            Mutation::Delete => {
                out.push(OP_DELETE);
                out.extend_from_slice(&event.timestamp.as_millis().to_le_bytes());
                encode_key(&event.key, out);
            }
        },
        TraceOp::Reads(key, count) => {
            out.push(OP_READS);
            encode_key(key, out);
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
}

/// Decodes one op from the front of `input`, advancing it.
///
/// # Errors
///
/// Returns [`CodecError`] on truncated or malformed input.
pub fn decode_op(input: &mut &[u8]) -> Result<TraceOp, CodecError> {
    match take_u8(input)? {
        OP_WRITE => {
            let t = Timestamp::from_millis(take_u64(input)?);
            let key = decode_key(input)?;
            let value = decode_value(input, 0)?;
            Ok(TraceOp::Mutation(AccessEvent::write(t, key, value)))
        }
        OP_DELETE => {
            let t = Timestamp::from_millis(take_u64(input)?);
            let key = decode_key(input)?;
            Ok(TraceOp::Mutation(AccessEvent::delete(t, key)))
        }
        OP_READS => {
            let key = decode_key(input)?;
            let count = take_u64(input)?;
            Ok(TraceOp::Reads(key, count))
        }
        other => err(format!("unknown op tag {other:#04x}")),
    }
}

fn encode_key(key: &Key, out: &mut Vec<u8>) {
    let bytes = key.as_str().as_bytes();
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn decode_key(input: &mut &[u8]) -> Result<Key, CodecError> {
    let len = take_u32(input)? as usize;
    let bytes = take_bytes(input, len)?;
    match std::str::from_utf8(bytes) {
        Ok(s) => Ok(Key::new(s)),
        Err(e) => err(format!("key is not UTF-8: {e}")),
    }
}

/// Maximum list nesting the decoder accepts (the trace vocabulary uses
/// shallow lists; a bound keeps corrupt input from recursing unboundedly).
const MAX_VALUE_DEPTH: u32 = 32;

/// Appends the encoding of `value` to `out`.
pub fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(VAL_NULL),
        Value::Bool(false) => out.push(VAL_FALSE),
        Value::Bool(true) => out.push(VAL_TRUE),
        Value::Int(i) => {
            out.push(VAL_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(VAL_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::List(items) => {
            out.push(VAL_LIST);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
    }
}

fn decode_value(input: &mut &[u8], depth: u32) -> Result<Value, CodecError> {
    if depth > MAX_VALUE_DEPTH {
        return err("value nesting too deep");
    }
    match take_u8(input)? {
        VAL_NULL => Ok(Value::Null),
        VAL_FALSE => Ok(Value::Bool(false)),
        VAL_TRUE => Ok(Value::Bool(true)),
        VAL_INT => Ok(Value::Int(i64::from_le_bytes(take_array(input)?))),
        VAL_FLOAT => Ok(Value::Float(f64::from_bits(take_u64(input)?))),
        VAL_STR => {
            let len = take_u32(input)? as usize;
            let bytes = take_bytes(input, len)?;
            match std::str::from_utf8(bytes) {
                Ok(s) => Ok(Value::Str(s.to_owned())),
                Err(e) => err(format!("string is not UTF-8: {e}")),
            }
        }
        VAL_LIST => {
            let count = take_u32(input)? as usize;
            // Bound pre-allocation by the bytes actually available.
            let mut items = Vec::with_capacity(count.min(input.len()));
            for _ in 0..count {
                items.push(decode_value(input, depth + 1)?);
            }
            Ok(Value::List(items))
        }
        other => err(format!("unknown value tag {other:#04x}")),
    }
}

fn take_u8(input: &mut &[u8]) -> Result<u8, CodecError> {
    let (&first, rest) = match input.split_first() {
        Some(split) => split,
        None => return err("unexpected end of input"),
    };
    *input = rest;
    Ok(first)
}

fn take_bytes<'a>(input: &mut &'a [u8], len: usize) -> Result<&'a [u8], CodecError> {
    if input.len() < len {
        return err(format!("need {len} bytes, have {}", input.len()));
    }
    let (taken, rest) = input.split_at(len);
    *input = rest;
    Ok(taken)
}

fn take_array<const N: usize>(input: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let bytes = take_bytes(input, N)?;
    bytes
        .try_into()
        .map_err(|_| CodecError(format!("need {N} bytes, have {}", bytes.len())))
}

fn take_u32(input: &mut &[u8]) -> Result<u32, CodecError> {
    Ok(u32::from_le_bytes(take_array(input)?))
}

fn take_u64(input: &mut &[u8]) -> Result<u64, CodecError> {
    Ok(u64::from_le_bytes(take_array(input)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(op: TraceOp) {
        let mut buf = Vec::new();
        encode_op(&op, &mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(decode_op(&mut slice).unwrap(), op);
        assert!(slice.is_empty(), "decoder must consume the whole op");
    }

    #[test]
    fn ops_roundtrip() {
        roundtrip(TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_millis(123_456),
            "word/mru/item1",
            Value::from("c:\\docs\\report.doc"),
        )));
        roundtrip(TraceOp::Mutation(AccessEvent::delete(
            Timestamp::from_secs(99),
            "word/mru/item9",
        )));
        roundtrip(TraceOp::Reads(Key::new("gedit/view/wrap"), u64::MAX));
        roundtrip(TraceOp::Mutation(AccessEvent::write(
            Timestamp::EPOCH,
            "k",
            Value::List(vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(f64::NAN),
                Value::List(vec![Value::Int(i64::MIN)]),
            ]),
        )));
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for f in [f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE, 1.5e300] {
            let mut buf = Vec::new();
            encode_value(&Value::Float(f), &mut buf);
            let mut slice = buf.as_slice();
            match decode_value(&mut slice, 0).unwrap() {
                Value::Float(g) => assert_eq!(f.to_bits(), g.to_bits()),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn decoder_rejects_garbage() {
        for bad in [
            &[0xFFu8][..],                 // unknown op tag
            &[],                           // empty
            &[OP_WRITE, 1, 2],             // truncated timestamp
            &[OP_READS, 4, 0, 0, 0, b'a'], // truncated key
        ] {
            let mut slice = bad;
            assert!(decode_op(&mut slice).is_err(), "{bad:?}");
        }
        // Non-UTF-8 key bytes.
        let mut buf = vec![OP_READS, 2, 0, 0, 0, 0xC0, 0xC1];
        buf.extend_from_slice(&0u64.to_le_bytes());
        let mut slice = buf.as_slice();
        assert!(decode_op(&mut slice).is_err());
    }

    #[test]
    fn every_truncation_of_a_valid_op_errors_without_panicking() {
        // Regression for the decode path's worker-safety contract: any
        // prefix of a valid encoding must come back as a structured
        // CodecError — never a panic — since the WAL reader runs these
        // bytes on the appender/replay path.
        let op = TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_millis(42),
            "app/key",
            Value::from(7),
        ));
        let mut buf = Vec::new();
        encode_op(&op, &mut buf);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert!(decode_op(&mut slice).is_err(), "prefix of {cut} bytes");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut buf = Vec::new();
        for _ in 0..(MAX_VALUE_DEPTH + 2) {
            buf.push(VAL_LIST);
            buf.extend_from_slice(&1u32.to_le_bytes());
        }
        buf.push(VAL_NULL);
        let mut slice = buf.as_slice();
        assert!(decode_value(&mut slice, 0).is_err());
    }
}
