//! `ocasta-ttkv binary v2` — the checksummed binary segment format.
//!
//! This is the one format [`Ttkv::save`] writes and [`Ttkv::load`] reads,
//! and the one the fleet WAL chain uses for its base/delta snapshot layers;
//! the line-oriented text v1 format (`persist.rs`) is a write-only export
//! for humans. One segment is:
//!
//! ```text
//! segment  := magic section*                  magic = "ocasta-ttkv binary v2\n"
//! section  := tag:u8 len:u32le crc:u32le payload[len]
//!             crc = fnv1a_32(payload); sections appear in the fixed order
//!             'K' (key-intern table), 'R' (records), 'E' (end marker, empty)
//! 'K'      := count:uv  (len:uv utf8-bytes)*        keys in store order;
//!                                                   intern id = position
//! 'R'      := count:uv  record*
//! record   := key_id:uv reads:uv writes:uv deletes:uv flags:u8
//!             [baseline: ts_ms:uv [value]]          flags bit0 = baseline
//!             hist_len:uv version*                  flags bit1 = dead baseline
//! version  := kind:u8 ts_ms:uv [value]              kind 0 = write (value
//!                                                   follows), 1 = tombstone
//! value    := 0x00 | 0x01 | 0x02                    null / false / true
//!           | 0x03 zigzag:uv                        int
//!           | 0x04 bits:u64le                       float (bit-exact)
//!           | 0x05 len:uv utf8-bytes                string
//!           | 0x06 count:uv value*                  list (depth ≤ 32)
//! uv       := LEB128 unsigned varint, ≤ 10 bytes
//! ```
//!
//! Design notes:
//!
//! * **Torn writes are always detectable.** Every payload byte is covered by
//!   its section checksum, every section header states its length, and the
//!   empty `'E'` end marker must be present and final. A segment cut at any
//!   byte offset therefore fails with a structured [`TtkvError::Corrupt`] —
//!   either a short header/payload, a checksum mismatch, or a missing end
//!   marker — never a panic and never a silently partial store.
//! * **Deterministic bytes.** The store iterates its `BTreeMap` in key
//!   order, so equal stores serialise to identical bytes — the property the
//!   deterministic simulation (vopr) and the layered-replay equivalence
//!   tests lean on.
//! * **One decoder.** Input without the magic prefix — a text v1 export
//!   included — fails with [`TtkvError::Corrupt`] at offset 0.
//!
//! The checksum is the same FNV-1a the fleet WAL frames use
//! ([`crate::hash::fnv1a_32`]) — snapshots and the WAL share one seam.

use std::io::{BufRead, Write};

use crate::error::TtkvError;
use crate::hash::fnv1a_32;
use crate::record::KeyRecord;
use crate::store::Ttkv;
use crate::time::Timestamp;
use crate::value::Value;
use crate::{Key, Version};

/// Magic prefix of an `ocasta-ttkv binary v2` segment, newline included.
pub const BINARY_MAGIC: &[u8] = b"ocasta-ttkv binary v2\n";

/// Section tag for the key-intern table.
const TAG_KEYS: u8 = b'K';
/// Section tag for the record bodies.
const TAG_RECORDS: u8 = b'R';
/// Section tag for the (empty) end marker.
const TAG_END: u8 = b'E';

/// Value tags, shared layout family with the fleet WAL op codec.
const VAL_NULL: u8 = 0x00;
const VAL_FALSE: u8 = 0x01;
const VAL_TRUE: u8 = 0x02;
const VAL_INT: u8 = 0x03;
const VAL_FLOAT: u8 = 0x04;
const VAL_STR: u8 = 0x05;
const VAL_LIST: u8 = 0x06;

/// Record flags.
const FLAG_BASELINE: u8 = 0b0000_0001;
const FLAG_BASELINE_DEAD: u8 = 0b0000_0010;

/// Version kinds.
const KIND_WRITE: u8 = 0x00;
const KIND_TOMBSTONE: u8 = 0x01;

/// Maximum nesting depth accepted when decoding list values (matches the
/// fleet WAL op codec's bound).
const MAX_VALUE_DEPTH: u32 = 32;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Appends an LEB128 unsigned varint.
fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a zigzag-encoded signed varint.
fn put_iv(out: &mut Vec<u8>, v: i64) {
    put_uv(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends one encoded value.
fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(VAL_NULL),
        Value::Bool(false) => out.push(VAL_FALSE),
        Value::Bool(true) => out.push(VAL_TRUE),
        Value::Int(i) => {
            out.push(VAL_INT);
            put_iv(out, *i);
        }
        Value::Float(f) => {
            out.push(VAL_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            put_uv(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::List(items) => {
            out.push(VAL_LIST);
            put_uv(out, items.len() as u64);
            for item in items {
                put_value(out, item);
            }
        }
    }
}

/// Appends one version (history entry).
fn put_version(out: &mut Vec<u8>, version: &Version) {
    match &version.value {
        Some(value) => {
            out.push(KIND_WRITE);
            put_uv(out, version.timestamp.as_millis());
            put_value(out, value);
        }
        None => {
            out.push(KIND_TOMBSTONE);
            put_uv(out, version.timestamp.as_millis());
        }
    }
}

/// Writes one framed section: tag, length, FNV-1a checksum, payload.
fn write_section<W: Write>(writer: &mut W, tag: u8, payload: &[u8]) -> Result<(), TtkvError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| TtkvError::corrupt(0, format!("section 0x{tag:02x} exceeds 4 GiB")))?;
    writer.write_all(&[tag])?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(&fnv1a_32(payload).to_le_bytes())?;
    writer.write_all(payload)?;
    Ok(())
}

impl Ttkv {
    /// Serialises the store as an `ocasta-ttkv binary v2` segment.
    ///
    /// Equal stores serialise to identical bytes (iteration is key-ordered).
    /// For the human-readable text form, use [`Ttkv::save_text`].
    ///
    /// # Errors
    ///
    /// Returns [`TtkvError::Io`] if the writer fails, and
    /// [`TtkvError::Corrupt`] in the degenerate case of a section payload
    /// exceeding the `u32` length field.
    pub fn save<W: Write>(&self, mut writer: W) -> Result<(), TtkvError> {
        writer.write_all(BINARY_MAGIC)?;

        // 'K': intern table. Intern ids are positions in store (key) order.
        let mut keys = Vec::new();
        put_uv(&mut keys, self.len() as u64);
        for (key, _) in self.iter() {
            let name = key.as_str();
            put_uv(&mut keys, name.len() as u64);
            keys.extend_from_slice(name.as_bytes());
        }
        write_section(&mut writer, TAG_KEYS, &keys)?;

        // 'R': record bodies, referencing keys by intern id.
        let mut records = Vec::new();
        put_uv(&mut records, self.len() as u64);
        for (id, (_, record)) in self.iter().enumerate() {
            put_uv(&mut records, id as u64);
            put_uv(&mut records, record.reads);
            put_uv(&mut records, record.writes);
            put_uv(&mut records, record.deletes);
            let mut flags = 0u8;
            if let Some(baseline) = record.baseline() {
                flags |= FLAG_BASELINE;
                if baseline.is_tombstone() {
                    flags |= FLAG_BASELINE_DEAD;
                }
            }
            records.push(flags);
            if let Some(baseline) = record.baseline() {
                put_uv(&mut records, baseline.timestamp.as_millis());
                if let Some(value) = &baseline.value {
                    put_value(&mut records, value);
                }
            }
            put_uv(&mut records, record.history().len() as u64);
            for version in record.history() {
                put_version(&mut records, version);
            }
        }
        write_section(&mut writer, TAG_RECORDS, &records)?;

        // 'E': empty end marker — its presence is the commit point that makes
        // every truncation detectable.
        write_section(&mut writer, TAG_END, &[])?;
        writer.flush()?;
        Ok(())
    }

    /// Reads a store written by [`Ttkv::save`].
    ///
    /// # Errors
    ///
    /// Returns [`TtkvError::Io`] if the reader fails, and
    /// [`TtkvError::Corrupt`] if the input is not a binary v2 segment or is
    /// torn or corrupt.
    pub fn load<R: BufRead>(mut reader: R) -> Result<Ttkv, TtkvError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Ttkv::load_from_bytes(&bytes)
    }

    /// Decodes a store from bytes already in memory (for example a whole
    /// file from [`std::fs::read`]), like [`Ttkv::load`] but without
    /// copying the input.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ttkv::load`], minus reader failures.
    pub fn load_from_bytes(bytes: &[u8]) -> Result<Ttkv, TtkvError> {
        decode_segment(bytes)
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Byte-slice reader that tracks its absolute offset for error reporting.
struct Reader<'a> {
    buf: &'a [u8],
    /// Absolute offset of `buf[pos]` within the segment file.
    base: usize,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], base: usize) -> Self {
        Reader { buf, base, pos: 0 }
    }

    /// Absolute offset of the next unread byte.
    fn offset(&self) -> usize {
        self.base + self.pos
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TtkvError> {
        let rest = self.buf.get(self.pos..).unwrap_or(&[]);
        if rest.len() < n {
            return Err(TtkvError::corrupt(
                self.offset(),
                format!("truncated {what}: need {n} bytes, have {}", rest.len()),
            ));
        }
        let (taken, _) = rest.split_at(n);
        self.pos += n;
        Ok(taken)
    }

    fn u8(&mut self, what: &str) -> Result<u8, TtkvError> {
        let bytes = self.take(1, what)?;
        match bytes.first() {
            Some(&b) => Ok(b),
            None => Err(TtkvError::corrupt(self.offset(), format!("missing {what}"))),
        }
    }

    fn u32_le(&mut self, what: &str) -> Result<u32, TtkvError> {
        let bytes = self.take(4, what)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(bytes);
        Ok(u32::from_le_bytes(arr))
    }

    fn u64_le(&mut self, what: &str) -> Result<u64, TtkvError> {
        let bytes = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads an LEB128 unsigned varint (≤ 10 bytes).
    fn uv(&mut self, what: &str) -> Result<u64, TtkvError> {
        let start = self.offset();
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(what)?;
            let payload = u64::from(byte & 0x7F);
            if shift >= 64 || (shift == 63 && payload > 1) {
                return Err(TtkvError::corrupt(
                    start,
                    format!("varint {what} overflows u64"),
                ));
            }
            value |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a varint and narrows it to a count bounded by the bytes that
    /// could possibly back it, rejecting absurd values early.
    fn count(&mut self, what: &str) -> Result<usize, TtkvError> {
        let start = self.offset();
        let raw = self.uv(what)?;
        let remaining = self.buf.len().saturating_sub(self.pos) as u64;
        if raw > remaining {
            return Err(TtkvError::corrupt(
                start,
                format!("{what} {raw} exceeds remaining payload ({remaining} bytes)"),
            ));
        }
        usize::try_from(raw)
            .map_err(|_| TtkvError::corrupt(start, format!("{what} {raw} does not fit usize")))
    }
}

/// Reads one zigzag-encoded signed varint.
fn get_iv(r: &mut Reader<'_>, what: &str) -> Result<i64, TtkvError> {
    let raw = r.uv(what)?;
    Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
}

/// Reads one encoded value.
fn get_value(r: &mut Reader<'_>, depth: u32) -> Result<Value, TtkvError> {
    if depth > MAX_VALUE_DEPTH {
        return Err(TtkvError::corrupt(
            r.offset(),
            format!("value nesting exceeds depth {MAX_VALUE_DEPTH}"),
        ));
    }
    let start = r.offset();
    let tag = r.u8("value tag")?;
    match tag {
        VAL_NULL => Ok(Value::Null),
        VAL_FALSE => Ok(Value::Bool(false)),
        VAL_TRUE => Ok(Value::Bool(true)),
        VAL_INT => Ok(Value::Int(get_iv(r, "int value")?)),
        VAL_FLOAT => Ok(Value::Float(f64::from_bits(r.u64_le("float value")?))),
        VAL_STR => {
            let len = r.count("string length")?;
            let bytes = r.take(len, "string value")?;
            let s = std::str::from_utf8(bytes)
                .map_err(|e| TtkvError::corrupt(start, format!("string value not UTF-8: {e}")))?;
            Ok(Value::Str(s.to_owned()))
        }
        VAL_LIST => {
            let count = r.count("list length")?;
            let mut items = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                items.push(get_value(r, depth + 1)?);
            }
            Ok(Value::List(items))
        }
        other => Err(TtkvError::corrupt(
            start,
            format!("unknown value tag 0x{other:02x}"),
        )),
    }
}

/// Reads one framed section, verifying tag and checksum, and returns the
/// payload together with its absolute offset.
fn read_section<'a>(r: &mut Reader<'a>, expect_tag: u8) -> Result<(Reader<'a>, usize), TtkvError> {
    let start = r.offset();
    let tag = r.u8("section tag")?;
    if tag != expect_tag {
        return Err(TtkvError::corrupt(
            start,
            format!(
                "expected section '{}', found 0x{tag:02x}",
                expect_tag as char
            ),
        ));
    }
    let len = r.u32_le("section length")? as usize;
    let crc = r.u32_le("section checksum")?;
    let payload_at = r.offset();
    let payload = r.take(len, "section payload")?;
    let actual = fnv1a_32(payload);
    if actual != crc {
        return Err(TtkvError::corrupt(
            payload_at,
            format!(
                "section '{}' checksum mismatch: stored {crc:08x}, computed {actual:08x}",
                expect_tag as char
            ),
        ));
    }
    Ok((Reader::new(payload, payload_at), payload_at))
}

/// Decodes a full binary v2 segment, magic first.
fn decode_segment(bytes: &[u8]) -> Result<Ttkv, TtkvError> {
    if !bytes.starts_with(BINARY_MAGIC) {
        return Err(TtkvError::corrupt(0, "missing binary v2 magic"));
    }
    let mut r = Reader::new(bytes, 0);
    r.take(BINARY_MAGIC.len(), "magic")?;

    // 'K': intern table.
    let (mut keys_r, _) = read_section(&mut r, TAG_KEYS)?;
    let key_count = keys_r.count("key count")?;
    let mut keys = Vec::with_capacity(key_count.min(65_536));
    let mut prev: Option<&str> = None;
    for _ in 0..key_count {
        let at = keys_r.offset();
        let len = keys_r.count("key length")?;
        let raw = keys_r.take(len, "key name")?;
        let name = std::str::from_utf8(raw)
            .map_err(|e| TtkvError::corrupt(at, format!("key name not UTF-8: {e}")))?;
        if let Some(p) = prev {
            if name <= p {
                return Err(TtkvError::corrupt(
                    at,
                    format!("intern table not strictly sorted: {name:?} after {p:?}"),
                ));
            }
        }
        prev = Some(name);
        keys.push(name);
    }
    if !keys_r.is_empty() {
        return Err(TtkvError::corrupt(
            keys_r.offset(),
            "trailing bytes in intern table",
        ));
    }

    // 'R': records.
    let (mut rec_r, _) = read_section(&mut r, TAG_RECORDS)?;
    let record_count = rec_r.count("record count")?;
    if record_count != keys.len() {
        return Err(TtkvError::corrupt(
            rec_r.offset(),
            format!(
                "record count {record_count} does not match intern table ({})",
                keys.len()
            ),
        ));
    }
    let mut store = Ttkv::new();
    for expect_id in 0..record_count {
        let at = rec_r.offset();
        let id = rec_r.uv("key id")?;
        if id != expect_id as u64 {
            return Err(TtkvError::corrupt(
                at,
                format!("key id {id} out of order (expected {expect_id})"),
            ));
        }
        let name = keys
            .get(expect_id)
            .ok_or_else(|| TtkvError::corrupt(at, format!("key id {id} not in intern table")))?;
        let reads = rec_r.uv("reads counter")?;
        let writes = rec_r.uv("writes counter")?;
        let deletes = rec_r.uv("deletes counter")?;
        let flags_at = rec_r.offset();
        let flags = rec_r.u8("record flags")?;
        if flags & !(FLAG_BASELINE | FLAG_BASELINE_DEAD) != 0 {
            return Err(TtkvError::corrupt(
                flags_at,
                format!("unknown record flags 0x{flags:02x}"),
            ));
        }
        if flags & FLAG_BASELINE_DEAD != 0 && flags & FLAG_BASELINE == 0 {
            return Err(TtkvError::corrupt(
                flags_at,
                "dead-baseline flag without baseline flag",
            ));
        }
        let mut record = KeyRecord::new();
        if flags & FLAG_BASELINE != 0 {
            let ts = Timestamp::from_millis(rec_r.uv("baseline timestamp")?);
            if flags & FLAG_BASELINE_DEAD != 0 {
                record.set_baseline(Version::tombstone(ts));
            } else {
                let value = get_value(&mut rec_r, 0)?;
                record.set_baseline(Version::write(ts, value));
            }
        }
        let hist_len = rec_r.count("history length")?;
        for _ in 0..hist_len {
            let kind_at = rec_r.offset();
            let kind = rec_r.u8("version kind")?;
            let ts = Timestamp::from_millis(rec_r.uv("version timestamp")?);
            match kind {
                KIND_WRITE => {
                    let value = get_value(&mut rec_r, 0)?;
                    record.record_mutation(Version::write(ts, value));
                }
                KIND_TOMBSTONE => record.record_mutation(Version::tombstone(ts)),
                other => {
                    return Err(TtkvError::corrupt(
                        kind_at,
                        format!("unknown version kind 0x{other:02x}"),
                    ));
                }
            }
        }
        record.set_counters(reads, writes, deletes);
        store.insert_record(Key::new(*name), record);
    }
    if !rec_r.is_empty() {
        return Err(TtkvError::corrupt(
            rec_r.offset(),
            "trailing bytes in record section",
        ));
    }

    // 'E': end marker — must be present, empty, and final.
    let (end_r, end_at) = read_section(&mut r, TAG_END)?;
    if !end_r.is_empty() {
        return Err(TtkvError::corrupt(end_at, "end marker is not empty"));
    }
    if !r.is_empty() {
        return Err(TtkvError::corrupt(
            r.offset(),
            "trailing bytes after end marker",
        ));
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimeDelta;

    fn sample_store() -> Ttkv {
        let mut store = Ttkv::new();
        let t0 = Timestamp::from_secs(100);
        store.read("app/a key with spaces");
        store.write(t0, "app/a key with spaces", Value::from("hello world"));
        store.write(t0 + TimeDelta::from_secs(5), "app/count", Value::from(42));
        store.write(
            t0 + TimeDelta::from_secs(6),
            "app/ratio",
            Value::Float(-0.25),
        );
        store.write(
            t0 + TimeDelta::from_secs(7),
            "app/list",
            Value::List(vec![Value::from("a b"), Value::from(-1), Value::Null]),
        );
        store.delete(t0 + TimeDelta::from_secs(9), "app/count");
        store.write(t0 + TimeDelta::from_secs(10), "app/flag", Value::from(true));
        store
    }

    fn to_v2(store: &Ttkv) -> Vec<u8> {
        let mut bytes = Vec::new();
        store.save(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn binary_roundtrip_preserves_store() {
        let store = sample_store();
        let loaded = Ttkv::load(to_v2(&store).as_slice()).unwrap();
        assert_eq!(store, loaded);
    }

    #[test]
    fn binary_roundtrip_preserves_pruned_store() {
        let mut store = sample_store();
        store.write(Timestamp::from_secs(200), "app/flag", Value::from(false));
        store.prune_before(Timestamp::from_secs(150));
        let loaded = Ttkv::load(to_v2(&store).as_slice()).unwrap();
        assert_eq!(store, loaded);
        assert_eq!(loaded.stats().writes, store.stats().writes);
    }

    #[test]
    fn binary_roundtrip_preserves_special_floats() {
        let mut store = Ttkv::new();
        for (i, f) in [f64::NAN, f64::INFINITY, -0.0, 1e-300].iter().enumerate() {
            store.write(
                Timestamp::from_secs(i as u64),
                Key::new(format!("f/{i}")),
                Value::Float(*f),
            );
        }
        let loaded = Ttkv::load(to_v2(&store).as_slice()).unwrap();
        assert_eq!(store, loaded);
    }

    #[test]
    fn empty_store_roundtrips() {
        let loaded = Ttkv::load(to_v2(&Ttkv::new()).as_slice()).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn save_is_byte_deterministic() {
        let a = to_v2(&sample_store());
        let b = to_v2(&sample_store());
        assert_eq!(a, b);
    }

    #[test]
    fn load_rejects_text_v1_at_offset_zero() {
        let mut text = Vec::new();
        sample_store().save_text(&mut text).unwrap();
        match Ttkv::load(text.as_slice()) {
            Err(TtkvError::Corrupt { offset: 0, .. }) => {}
            other => panic!("text v1 must not load: {other:?}"),
        }
    }

    #[test]
    fn every_strict_prefix_fails_structured() {
        // Tentpole invariant 3, ttkv half: a torn segment never loads as a
        // partial store and never panics — it errors at every cut point.
        let bytes = to_v2(&sample_store());
        for cut in 0..bytes.len() {
            let prefix = bytes.get(..cut).unwrap();
            let err = Ttkv::load(prefix).expect_err("prefix must not load");
            match err {
                TtkvError::Corrupt { .. } => {}
                other => panic!("cut {cut}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_byte_flip_fails() {
        let bytes = to_v2(&sample_store());
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x01;
            assert!(
                Ttkv::load(mutated.as_slice()).is_err(),
                "flip at byte {i} loaded silently"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = to_v2(&sample_store());
        bytes.push(0x00);
        let err = Ttkv::load(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn unsorted_intern_table_is_rejected() {
        // Handcraft a segment whose intern table is out of order.
        let mut keys = Vec::new();
        put_uv(&mut keys, 2);
        for name in ["b", "a"] {
            put_uv(&mut keys, name.len() as u64);
            keys.extend_from_slice(name.as_bytes());
        }
        let mut records = Vec::new();
        put_uv(&mut records, 2);
        for id in 0..2u64 {
            put_uv(&mut records, id);
            put_uv(&mut records, 0);
            put_uv(&mut records, 0);
            put_uv(&mut records, 0);
            records.push(0);
            put_uv(&mut records, 0);
        }
        let mut bytes = BINARY_MAGIC.to_vec();
        write_section(&mut bytes, TAG_KEYS, &keys).unwrap();
        write_section(&mut bytes, TAG_RECORDS, &records).unwrap();
        write_section(&mut bytes, TAG_END, &[]).unwrap();
        let err = Ttkv::load(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("not strictly sorted"), "{err}");
    }

    #[test]
    fn varint_overflow_is_rejected() {
        let mut r = Reader::new(&[0xFF; 11], 0);
        let err = r.uv("test").unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456_789] {
            let mut buf = Vec::new();
            put_iv(&mut buf, v);
            let mut r = Reader::new(&buf, 0);
            assert_eq!(get_iv(&mut r, "test").unwrap(), v);
        }
    }

    #[test]
    fn binary_is_smaller_than_text_on_a_representative_store() {
        let mut store = Ttkv::new();
        for day in 0..200u64 {
            let t = Timestamp::from_secs(day * 86_400);
            store.write(t, "app/path", Value::from("c:\\docs\\report.doc"));
            store.write(t, "app/flag", Value::from(day % 2 == 0));
            store.write(t, "app/ratio", Value::Float(day as f64 / 7.0));
            store.write(t, "app/count", Value::from(day as i64 * 37));
        }
        let v2 = to_v2(&store);
        let mut v1 = Vec::new();
        store.save_text(&mut v1).unwrap();
        assert!(
            v2.len() < v1.len(),
            "v2 {} bytes not below v1 {} bytes",
            v2.len(),
            v1.len()
        );
    }
}
