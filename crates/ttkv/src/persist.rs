//! Text (v1) export for the TTKV: a write-only, human-readable dump.
//!
//! [`Ttkv::save`] writes checksummed binary v2 segments (`persist_v2.rs`),
//! and [`Ttkv::load`] reads only those. This module's writer is reached
//! through [`Ttkv::save_text`] / [`Ttkv::save_to_string`] (the `ocasta
//! export` path), so a recorded history can be inspected with ordinary text
//! tools. Nothing reads the format back.
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
//! live/dead) records carry retention state: a pruned store's lifetime
//! counters exceed what its surviving history implies, and the collapsed
//! pre-horizon state is a baseline, not a mutation.

use std::io::Write;

use crate::codec::{encode_value, escape};
use crate::error::TtkvError;
use crate::store::Ttkv;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_value, unescape};
    use crate::time::Timestamp;
    use crate::value::Value;
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

    /// Reads `store`'s export back beside the store itself: each key line
    /// unescapes to its key and carries its counters, and each history line
    /// decodes, through the token codec the trace loader shares, to its
    /// version. Unpruned stores only; the golden below pins baselines.
    fn assert_export_reads_back(store: &Ttkv) {
        let text = store.save_to_string();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(MAGIC));
        for (key, record) in store.iter() {
            assert!(record.baseline().is_none(), "unpruned stores only");
            let mut tokens = lines.next().expect("key line").split(' ');
            assert_eq!(tokens.next(), Some("k"));
            assert_eq!(unescape(tokens.next().unwrap()).unwrap(), key.as_str());
            let counters = format!(
                "reads={} writes={} deletes={}",
                record.reads, record.writes, record.deletes
            );
            assert_eq!(tokens.collect::<Vec<_>>().join(" "), counters);
            for version in record.history() {
                let mut tokens = lines.next().expect("history line").split(' ');
                let op = if version.value.is_some() { "w" } else { "d" };
                assert_eq!(tokens.next(), Some(op));
                let millis = tokens.next().unwrap().parse::<u64>().unwrap();
                assert_eq!(millis, version.timestamp.as_millis());
                if let Some(value) = &version.value {
                    assert_eq!(&decode_value(&mut tokens).unwrap(), value);
                }
                assert_eq!(tokens.next(), None, "trailing tokens");
            }
        }
        assert_eq!(lines.next(), None, "lines past the last key");
    }

    #[test]
    fn roundtrip_preserves_store() {
        assert_export_reads_back(&sample_store());
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
        assert_export_reads_back(&store);
    }

    #[test]
    fn escaping_handles_tricky_strings() {
        let tricky = "line1\nline2\ttab \\slash space";
        assert_eq!(unescape(&escape(tricky)).unwrap(), tricky);
    }

    /// The writer's fidelity check: a pruned store with live and dead
    /// baselines, an escaped key, a list and floats renders exactly as
    /// below.
    #[test]
    fn pruned_store_text_matches_golden() {
        let t = Timestamp::from_secs;
        let mut store = Ttkv::new();
        store.read("app/a key with spaces");
        store.write(t(100), "app/a key with spaces", Value::from("hello world"));
        store.write(t(300), "app/a key with spaces", Value::from("tab\there"));
        store.write(t(105), "app/count", Value::from(42));
        store.delete(t(109), "app/count");
        store.write(t(106), "app/ratio", Value::from(0.25));
        store.write(t(250), "app/ratio", Value::Float(-1.5));
        store.write(
            t(260),
            "app/list",
            Value::List(vec![Value::from("a b"), Value::from(1), Value::Null]),
        );
        store.write(t(110), "app/flag", Value::from(true));
        store.write(t(200), "app/flag", Value::from(false));
        store.delete(t(400), "app/flag");
        store.prune_before(t(150));
        let golden = "\
ocasta-ttkv v1
k app/a\\skey\\swith\\sspaces reads=1 writes=2 deletes=0
b 100000 shello\\sworld
w 300000 stab\\there
k app/count reads=0 writes=1 deletes=1
bd 109000
k app/flag reads=0 writes=2 deletes=1
b 110000 b1
w 200000 b0
d 400000
k app/list reads=0 writes=1 deletes=0
w 260000 l3 sa\\sb i1 n
k app/ratio reads=0 writes=2 deletes=0
b 106000 f3fd0000000000000
w 250000 fbff8000000000000
";
        assert_eq!(store.save_to_string(), golden);
    }

    #[test]
    fn empty_store_roundtrips() {
        assert_eq!(Ttkv::new().save_to_string(), format!("{MAGIC}\n"));
        assert_export_reads_back(&Ttkv::new());
    }
}
