//! Text (v1) persistence for the TTKV — a read-only import path plus an
//! explicit export.
//!
//! Since the binary v2 format landed (`persist_v2.rs`), [`Ttkv::save`] writes
//! checksummed binary segments and this module's writer is only reached
//! through [`Ttkv::save_text`] / [`Ttkv::save_to_string`] (the `ocasta
//! export` path). [`Ttkv::load`] sniffs the magic line and still accepts v1
//! files, so stores written before v2 keep loading unchanged.
//!
//! The store serialises to a line-oriented UTF-8 format so recorded histories
//! can be saved between sessions, shipped between machines (the paper merges
//! per-user traces from several lab computers) and inspected with ordinary
//! text tools:
//!
//! ```text
//! ocasta-ttkv v1
//! k word/mru/max_display reads=12 writes=3 deletes=1
//! b 500 i3
//! w 1000 i25
//! w 86400000 i9
//! d 90000000
//! ```
//!
//! Values use a compact token encoding (`n`, `b0`/`b1`, `i<dec>`,
//! `f<hex bits>`, `s<escaped>`, `l<count> <tokens…>`); strings escape
//! whitespace so every token is space-delimited.
//!
//! The `writes=`/`deletes=` fields and the `b`/`bd` (prune-baseline,
//! live/dead) records are retention additions: a pruned store's lifetime
//! counters exceed what its surviving history implies, and the collapsed
//! pre-horizon state is a baseline, not a mutation. All are optional on
//! load, so files written before retention existed still parse (their
//! counters are derived from the history lines, which is exact for
//! unpruned stores).

use std::io::{BufRead, Write};

use crate::codec::{decode_value, encode_value, escape, unescape};
use crate::error::TtkvError;
use crate::record::KeyRecord;
use crate::store::Ttkv;
use crate::time::Timestamp;
#[cfg(test)]
use crate::value::Value;

const MAGIC: &str = "ocasta-ttkv v1";

impl Ttkv {
    /// Serialises the store to a writer in the line-oriented text v1 format.
    ///
    /// This is the human-readable export form (`ocasta export`); the default
    /// on-disk form is the binary v2 segment written by [`Ttkv::save`].
    ///
    /// # Errors
    ///
    /// Returns [`TtkvError::Io`] if the writer fails.
    pub fn save_text<W: Write>(&self, mut writer: W) -> Result<(), TtkvError> {
        writeln!(writer, "{MAGIC}")?;
        for (key, record) in self.iter() {
            writeln!(
                writer,
                "k {} reads={} writes={} deletes={}",
                escape(key.as_str()),
                record.reads,
                record.writes,
                record.deletes,
            )?;
            if let Some(baseline) = record.baseline() {
                match &baseline.value {
                    Some(value) => {
                        let mut encoded = String::new();
                        encode_value(value, &mut encoded);
                        writeln!(writer, "b {} {}", baseline.timestamp.as_millis(), encoded)?;
                    }
                    // A dead-at-horizon baseline: the collapsed tombstone.
                    None => writeln!(writer, "bd {}", baseline.timestamp.as_millis())?,
                }
            }
            for version in record.history() {
                match &version.value {
                    Some(value) => {
                        let mut encoded = String::new();
                        encode_value(value, &mut encoded);
                        writeln!(writer, "w {} {}", version.timestamp.as_millis(), encoded)?;
                    }
                    None => writeln!(writer, "d {}", version.timestamp.as_millis())?,
                }
            }
        }
        Ok(())
    }

    /// Serialises the store to an in-memory string in the text v1 format.
    pub fn save_to_string(&self) -> String {
        let mut buf = Vec::new();
        self.save_text(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("text persist format is UTF-8")
    }

    /// Reads a store from the line-oriented text v1 format.
    ///
    /// Callers normally go through [`Ttkv::load`], which sniffs the magic and
    /// dispatches here for v1 files. Reads are restored as counters on the
    /// key they belong to; per-read timestamps are not persisted (matching
    /// what the deployed system kept).
    ///
    /// # Errors
    ///
    /// Returns [`TtkvError::Io`] if the reader fails and [`TtkvError::Parse`]
    /// if the content is not valid TTKV text data.
    pub(crate) fn load_text<R: BufRead>(reader: R) -> Result<Ttkv, TtkvError> {
        /// One key's record being assembled from consecutive lines.
        struct Pending {
            key: crate::Key,
            record: KeyRecord,
            reads: u64,
            /// Explicit `writes=`/`deletes=` from the `k` line; derived
            /// from the history lines when absent (pre-retention files).
            counters: Option<(u64, u64)>,
        }
        fn finish(store: &mut Ttkv, pending: Option<Pending>) {
            if let Some(p) = pending {
                let mut record = p.record;
                let (writes, deletes) = p.counters.unwrap_or((record.writes, record.deletes));
                record.set_counters(p.reads, writes, deletes);
                store.insert_record(p.key, record);
            }
        }

        let mut store = Ttkv::new();
        let mut pending: Option<Pending> = None;
        let mut lines = reader.lines();
        let first = lines
            .next()
            .transpose()?
            .ok_or_else(|| TtkvError::parse(1, "empty input"))?;
        if first.trim_end() != MAGIC {
            return Err(TtkvError::parse(1, format!("bad magic {first:?}")));
        }
        for (idx, line) in lines.enumerate() {
            let lineno = idx + 2;
            let line = line?;
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let mut tokens = line.split(' ');
            match tokens.next() {
                Some("k") => {
                    finish(&mut store, pending.take());
                    let raw = tokens
                        .next()
                        .ok_or_else(|| TtkvError::parse(lineno, "missing key name"))?;
                    let name = unescape(raw).map_err(|e| TtkvError::parse(lineno, e))?;
                    let mut reads = None;
                    let mut writes = None;
                    let mut deletes = None;
                    for token in tokens {
                        let (field, slot) = if let Some(v) = token.strip_prefix("reads=") {
                            (v, &mut reads)
                        } else if let Some(v) = token.strip_prefix("writes=") {
                            (v, &mut writes)
                        } else if let Some(v) = token.strip_prefix("deletes=") {
                            (v, &mut deletes)
                        } else {
                            return Err(TtkvError::parse(
                                lineno,
                                format!("unknown key field {token:?}"),
                            ));
                        };
                        *slot =
                            Some(field.parse::<u64>().map_err(|e| {
                                TtkvError::parse(lineno, format!("bad counter: {e}"))
                            })?);
                    }
                    let reads =
                        reads.ok_or_else(|| TtkvError::parse(lineno, "missing reads= field"))?;
                    pending = Some(Pending {
                        key: crate::Key::new(name),
                        record: KeyRecord::new(),
                        reads,
                        counters: match (writes, deletes) {
                            (Some(w), Some(d)) => Some((w, d)),
                            _ => None,
                        },
                    });
                }
                Some(op @ ("w" | "d" | "b" | "bd")) => {
                    let entry = pending
                        .as_mut()
                        .ok_or_else(|| TtkvError::parse(lineno, "mutation before any key"))?;
                    let ts = tokens
                        .next()
                        .ok_or_else(|| TtkvError::parse(lineno, "missing timestamp"))?
                        .parse::<u64>()
                        .map_err(|e| TtkvError::parse(lineno, format!("bad timestamp: {e}")))?;
                    let t = Timestamp::from_millis(ts);
                    match op {
                        "w" => {
                            let value = decode_value(&mut tokens)
                                .map_err(|e| TtkvError::parse(lineno, e))?;
                            entry
                                .record
                                .record_mutation(crate::Version::write(t, value));
                        }
                        "d" => entry.record.record_mutation(crate::Version::tombstone(t)),
                        "b" => {
                            let value = decode_value(&mut tokens)
                                .map_err(|e| TtkvError::parse(lineno, e))?;
                            entry.record.set_baseline(crate::Version::write(t, value));
                        }
                        _ => entry.record.set_baseline(crate::Version::tombstone(t)),
                    }
                }
                Some(other) => {
                    return Err(TtkvError::parse(
                        lineno,
                        format!("unknown record {other:?}"),
                    ));
                }
                None => unreachable!("split always yields at least one token"),
            }
        }
        finish(&mut store, pending);
        Ok(store)
    }

    /// Reads a store from an in-memory string (text v1; binary v2 segments
    /// are not valid UTF-8 and arrive via [`Ttkv::load_from_bytes`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ttkv::load`].
    pub fn load_from_str(data: &str) -> Result<Ttkv, TtkvError> {
        Ttkv::load_from_bytes(data.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Key, TimeDelta};

    fn sample_store() -> Ttkv {
        let mut store = Ttkv::new();
        let t0 = Timestamp::from_secs(100);
        store.read("app/a key with spaces");
        store.write(t0, "app/a key with spaces", Value::from("hello world"));
        store.write(t0 + TimeDelta::from_secs(5), "app/count", Value::from(42));
        store.write(t0 + TimeDelta::from_secs(6), "app/ratio", Value::from(0.25));
        store.write(
            t0 + TimeDelta::from_secs(7),
            "app/list",
            Value::List(vec![Value::from("a b"), Value::from(1), Value::Null]),
        );
        store.delete(t0 + TimeDelta::from_secs(9), "app/count");
        store.write(t0 + TimeDelta::from_secs(10), "app/flag", Value::from(true));
        store
    }

    #[test]
    fn roundtrip_preserves_store() {
        let store = sample_store();
        let text = store.save_to_string();
        let loaded = Ttkv::load_from_str(&text).unwrap();
        assert_eq!(store, loaded);
    }

    #[test]
    fn roundtrip_preserves_special_floats() {
        let mut store = Ttkv::new();
        for (i, f) in [f64::NAN, f64::INFINITY, -0.0, 1e-300].iter().enumerate() {
            store.write(
                Timestamp::from_secs(i as u64),
                Key::new(format!("f/{i}")),
                Value::Float(*f),
            );
        }
        let loaded = Ttkv::load_from_str(&store.save_to_string()).unwrap();
        assert_eq!(store, loaded);
    }

    #[test]
    fn escaping_handles_tricky_strings() {
        let tricky = "line1\nline2\ttab \\slash space";
        assert_eq!(unescape(&escape(tricky)).unwrap(), tricky);
        let mut store = Ttkv::new();
        store.write(Timestamp::EPOCH, Key::new(tricky), Value::from(tricky));
        let loaded = Ttkv::load_from_str(&store.save_to_string()).unwrap();
        assert_eq!(store, loaded);
    }

    #[test]
    fn pruned_store_roundtrips_baseline_and_counters() {
        let mut store = sample_store();
        store.write(Timestamp::from_secs(200), "app/flag", Value::from(false));
        store.prune_before(Timestamp::from_secs(150));
        let text = store.save_to_string();
        assert!(text.contains("\nb "), "live baseline emitted: {text}");
        // `app/count` ended in a pre-horizon tombstone: dead baseline.
        assert!(text.contains("\nbd "), "dead baseline emitted: {text}");
        let loaded = Ttkv::load_from_str(&text).unwrap();
        assert_eq!(store, loaded);
        // Lifetime counters survived even where history was collapsed.
        assert_eq!(loaded.stats().writes, store.stats().writes);
        assert_eq!(
            loaded.value_at("app/ratio", Timestamp::from_secs(150)),
            Some(&Value::from(0.25)),
        );
    }

    #[test]
    fn pre_retention_files_without_counter_fields_still_load() {
        let text = "ocasta-ttkv v1\nk app/a reads=2\nw 1000 i7\nd 2000\n";
        let store = Ttkv::load_from_str(text).unwrap();
        let record = store.record("app/a").unwrap();
        assert_eq!(record.reads, 2);
        assert_eq!(record.writes, 1, "derived from history");
        assert_eq!(record.deletes, 1);
        assert_eq!(store.stats().reads, 2);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = Ttkv::load_from_str("not-a-ttkv\n").unwrap_err();
        assert!(matches!(err, TtkvError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_mutation_before_key() {
        let err = Ttkv::load_from_str("ocasta-ttkv v1\nw 5 i1\n").unwrap_err();
        assert!(matches!(err, TtkvError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_truncated_list() {
        let err = Ttkv::load_from_str("ocasta-ttkv v1\nk a reads=0\nw 5 l3 i1 i2\n").unwrap_err();
        assert!(err.to_string().contains("missing value token"));
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = Ttkv::new();
        let loaded = Ttkv::load_from_str(&store.save_to_string()).unwrap();
        assert!(loaded.is_empty());
    }
}
