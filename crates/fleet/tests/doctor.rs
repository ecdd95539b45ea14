//! Injection corpus for the offline doctor: every damage class the WAL
//! layer defends against must be *flagged* by [`diagnose`], and every
//! healthy directory — never compacted, mid-epoch or freshly compacted —
//! must come back with **zero** findings. The corpus mirrors
//! `tests/torn_tail.rs`: exhaustive byte-offset log truncation, mid-write
//! delta truncation, manifest-temp cuts, stale logs, plus manifest-level
//! damage (bad magic, epoch/horizon inversions, non-bare names, missing
//! layers) the recovery tests cannot reach because `Wal::open` refuses
//! such directories outright.

use std::path::PathBuf;

use ocasta_fleet::{diagnose, Severity, Wal, WalWriter, WAL_MAGIC};
use ocasta_trace::{AccessEvent, TraceOp};
use ocasta_ttkv::{TimePrecision, Timestamp, Ttkv, Value};

/// Three batches exercising every op kind (mirrors `torn_tail.rs`).
fn batches() -> Vec<Vec<TraceOp>> {
    vec![
        vec![
            TraceOp::Mutation(AccessEvent::write(
                Timestamp::from_millis(1_000),
                "app/alpha",
                Value::from(42),
            )),
            TraceOp::Reads(ocasta_ttkv::Key::new("app/alpha"), 17),
        ],
        vec![
            TraceOp::Mutation(AccessEvent::write(
                Timestamp::from_millis(2_500),
                "app/beta",
                Value::from("doctor torture"),
            )),
            TraceOp::Mutation(AccessEvent::delete(
                Timestamp::from_millis(3_000),
                "app/alpha",
            )),
        ],
        vec![TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_millis(4_000),
            "app/gamma",
            Value::List(vec![Value::from(true), Value::from(2.5)]),
        ))],
    ]
}

/// A complete healthy framed log as raw bytes.
fn encoded() -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = WalWriter::new(&mut bytes).unwrap();
    for batch in batches() {
        writer.append(&batch).unwrap();
    }
    writer.flush().unwrap();
    bytes
}

/// Frame end offsets of the complete log.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut reader = ocasta_fleet::WalReader::new(bytes).unwrap();
    let mut ends = Vec::new();
    while reader.next_batch().unwrap().is_some() {
        ends.push(reader.clean_bytes() as usize);
    }
    ends
}

/// Fresh scratch directory named after the test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ocasta-doctor-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A layered directory: one pruned compaction behind it, fresh frames in
/// the current epoch log (same construction as `torn_tail.rs`).
fn layered_dir(name: &str) -> PathBuf {
    let dir = scratch(name);
    let mut wal = Wal::open(&dir).unwrap();
    wal.append(&batches()[0]).unwrap();
    wal.compact_pruned(TimePrecision::Milliseconds, Timestamp::from_millis(1_500))
        .unwrap();
    wal.append(&batches()[1]).unwrap();
    wal.append(&batches()[2]).unwrap();
    wal.flush().unwrap();
    dir
}

fn checks(report: &ocasta_fleet::DoctorReport, severity: Severity) -> Vec<&'static str> {
    report
        .findings
        .iter()
        .filter(|f| f.severity == severity)
        .map(|f| f.check)
        .collect()
}

#[test]
fn healthy_layered_directory_has_zero_findings() {
    let dir = layered_dir("healthy-layered");
    let report = diagnose(&dir);
    assert!(report.findings.is_empty(), "{report}");
    assert!(report.is_healthy() && !report.has_errors());
    assert!(report.frames_verified >= 2, "{report}");
    assert!(report.layers_verified >= 1, "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthy_multi_delta_chain_has_zero_findings() {
    let dir = scratch("healthy-chain");
    let mut wal = Wal::open(&dir).unwrap();
    for (i, batch) in batches().into_iter().enumerate() {
        wal.append(&batch).unwrap();
        wal.compact_pruned(
            TimePrecision::Milliseconds,
            Timestamp::from_millis(500 + i as u64 * 1_000),
        )
        .unwrap();
    }
    let report = diagnose(&dir);
    assert!(report.findings.is_empty(), "{report}");
    assert!(report.layers_verified >= 2, "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every byte-offset truncation of a never-compacted directory's log:
/// frame-boundary cuts have zero findings, all other cuts are exactly one
/// `log-torn` warning — never an error, never a second finding.
#[test]
fn every_log_truncation_is_flagged_as_torn_and_nothing_else() {
    let bytes = encoded();
    let boundaries = frame_boundaries(&bytes);
    let dir = scratch("log-cuts");
    let log = dir.join("wal-0.log");

    for cut in 0..=bytes.len() {
        std::fs::write(&log, &bytes[..cut]).unwrap();
        let report = diagnose(&dir);
        assert!(!report.has_errors(), "cut {cut}: {report}");
        let clean = cut >= WAL_MAGIC.len() && (cut == WAL_MAGIC.len() || boundaries.contains(&cut));
        if clean {
            assert!(report.findings.is_empty(), "cut {cut}: {report}");
        } else {
            assert_eq!(
                checks(&report, Severity::Warning),
                vec!["log-torn"],
                "cut {cut}: {report}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped byte inside a *complete* frame is corruption, not a torn
/// tail: checksum verification must catch it as an error.
#[test]
fn checksum_flip_in_a_complete_frame_is_a_corruption_error() {
    let mut bytes = encoded();
    // A payload byte of frame 0: past the magic and the 8-byte header.
    let offset = WAL_MAGIC.len() + 8 + 2;
    bytes[offset] ^= 0xFF;
    let dir = scratch("checksum-flip");
    std::fs::write(dir.join("wal-0.log"), &bytes).unwrap();

    let report = diagnose(&dir);
    assert!(report.has_errors(), "{report}");
    assert_eq!(checks(&report, Severity::Error), vec!["log-corrupt"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The mid-write-delta corpus from `torn_tail.rs`: a torn (or complete but
/// uncommitted) delta next to an intact manifest is an orphan — a warning,
/// never an error, at *every* truncation offset.
#[test]
fn every_mid_write_delta_truncation_is_an_orphan_warning() {
    let pre = layered_dir("orphan-pre");
    let post = scratch("orphan-post");
    for entry in std::fs::read_dir(&pre).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), post.join(entry.file_name())).unwrap();
    }
    let delta_name = {
        let mut wal = Wal::open(&post).unwrap();
        wal.compact_pruned(TimePrecision::Milliseconds, Timestamp::from_millis(3_200))
            .unwrap();
        std::fs::read_dir(&post)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .find(|n| n.starts_with("delta-") && !pre.join(n).exists())
            .expect("the compaction wrote a new delta layer")
    };
    let delta_bytes = std::fs::read(post.join(&delta_name)).unwrap();

    for cut in 0..=delta_bytes.len() {
        std::fs::write(pre.join(&delta_name), &delta_bytes[..cut]).unwrap();
        let report = diagnose(&pre);
        assert!(!report.has_errors(), "delta cut {cut}: {report}");
        assert!(
            checks(&report, Severity::Warning).contains(&"layer-orphan"),
            "delta cut {cut}: {report}"
        );
    }
    std::fs::remove_dir_all(&pre).ok();
    std::fs::remove_dir_all(&post).ok();
}

/// Manifest temp-file cuts (an interrupted commit): a warning that names
/// the pending commit, nothing else.
#[test]
fn manifest_tmp_cuts_warn_about_the_interrupted_commit() {
    let dir = layered_dir("manifest-tmp");
    let manifest = std::fs::read(dir.join("wal.manifest")).unwrap();
    for cut in [0, 1, manifest.len() / 2, manifest.len()] {
        std::fs::write(dir.join("wal.manifest.tmp"), &manifest[..cut]).unwrap();
        let report = diagnose(&dir);
        assert!(!report.has_errors(), "tmp cut {cut}: {report}");
        assert_eq!(
            checks(&report, Severity::Warning),
            vec!["tmp"],
            "tmp cut {cut}: {report}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A log superseded by a committed compaction (the post-commit crash
/// window of `torn_tail.rs`) is stale — swept on open, warned on doctor.
#[test]
fn stale_superseded_log_is_a_warning() {
    let dir = layered_dir("stale-log");
    // The layered dir is at epoch 1 with wal-1.log; plant a pre-compaction
    // leftover.
    std::fs::write(dir.join("wal-0.log"), encoded()).unwrap();
    let report = diagnose(&dir);
    assert!(!report.has_errors(), "{report}");
    assert_eq!(checks(&report, Severity::Warning), vec!["log-stale"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_referenced_layer_is_an_error() {
    let dir = layered_dir("missing-layer");
    let layer = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .find(|n| n.ends_with(".ttkv"))
        .expect("the layered dir has a snapshot layer");
    std::fs::remove_file(dir.join(&layer)).unwrap();
    let report = diagnose(&dir);
    assert!(report.has_errors(), "{report}");
    assert_eq!(checks(&report, Severity::Error), vec!["layer-missing"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_referenced_layer_is_an_error() {
    let dir = layered_dir("corrupt-layer");
    let layer = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .find(|n| n.ends_with(".ttkv"))
        .expect("the layered dir has a snapshot layer");
    std::fs::write(dir.join(&layer), b"not a ttkv snapshot\n").unwrap();
    let report = diagnose(&dir);
    assert!(report.has_errors(), "{report}");
    assert_eq!(checks(&report, Severity::Error), vec!["layer-corrupt"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_manifest_magic_is_an_error() {
    let dir = layered_dir("bad-magic");
    std::fs::write(dir.join("wal.manifest"), "not-a-manifest v9\n").unwrap();
    let report = diagnose(&dir);
    assert!(report.has_errors(), "{report}");
    assert_eq!(checks(&report, Severity::Error), vec!["manifest-magic"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_record_and_name_damage_is_localised() {
    let dir = layered_dir("bad-records");
    let manifest = std::fs::read_to_string(dir.join("wal.manifest")).unwrap();

    // An unparsable record and a path-traversal layer name, injected into
    // an otherwise valid manifest: one finding each, both errors.
    let hacked = format!("{manifest}frobnicate 12\ndelta ../evil.ttkv 99\n");
    std::fs::write(dir.join("wal.manifest"), hacked).unwrap();
    let report = diagnose(&dir);
    assert!(report.has_errors(), "{report}");
    let errors = checks(&report, Severity::Error);
    assert!(errors.contains(&"manifest-record"), "{report}");
    assert!(errors.contains(&"manifest-layer-name"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn epoch_and_horizon_inversions_are_errors() {
    // A hand-written manifest whose delta chain runs backwards in both
    // epoch and horizon, and references a layer from a future epoch.
    let dir = scratch("inversions");
    std::fs::write(
        dir.join("wal.manifest"),
        "ocasta-wal-manifest v1\nepoch 3\nhorizon 5000\n\
         delta delta-9.ttkv 4000\ndelta delta-2.ttkv 9000\n",
    )
    .unwrap();
    let report = diagnose(&dir);
    assert!(report.has_errors(), "{report}");
    let errors = checks(&report, Severity::Error);
    // delta-9 is newer than epoch 3; the chain 9 -> 2 decreases; the
    // horizons 4000 -> 9000 are fine per-pair but 9000 exceeds the
    // manifest horizon 5000; both layers are missing on disk.
    assert!(errors.contains(&"manifest-epoch"), "{report}");
    assert!(errors.contains(&"manifest-horizon"), "{report}");
    assert!(errors.contains(&"layer-missing"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Segment-generation monotonicity: a manifest whose base layer sits at
/// or above a delta's epoch is folding generations out of seal order.
#[test]
fn base_epoch_at_or_above_a_delta_epoch_is_a_segment_generation_error() {
    let dir = scratch("segment-generation");
    std::fs::write(
        dir.join("wal.manifest"),
        "ocasta-wal-manifest v1\nepoch 5\nhorizon 5000\n\
         base base-3.ttkv\ndelta delta-3.ttkv 4000\ndelta delta-4.ttkv 5000\n",
    )
    .unwrap();
    let report = diagnose(&dir);
    assert!(report.has_errors(), "{report}");
    assert!(
        checks(&report, Severity::Error).contains(&"segment-generation"),
        "{report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An unreferenced sealed layer two generations past the manifest cannot
/// be a single-crash orphan: a committed rebase failed to sweep it.
#[test]
fn orphan_two_generations_past_the_manifest_is_an_error() {
    // The layered dir's manifest is at epoch 1; epoch 2 is the one
    // generation a lone crash can orphan, epoch 3 is beyond it.
    let dir = layered_dir("segment-orphan");
    std::fs::write(dir.join("delta-3.ttkv"), b"whatever").unwrap();
    let report = diagnose(&dir);
    assert!(report.has_errors(), "{report}");
    assert_eq!(checks(&report, Severity::Error), vec!["segment-orphan"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The single-crash window (manifest epoch + 1) stays a warning — the
/// next `Wal::open` sweeps it, exactly as before.
#[test]
fn orphan_one_generation_past_the_manifest_stays_a_warning() {
    let dir = layered_dir("crash-orphan");
    std::fs::write(dir.join("delta-2.ttkv"), b"whatever").unwrap();
    let report = diagnose(&dir);
    assert!(!report.has_errors(), "{report}");
    assert_eq!(checks(&report, Severity::Warning), vec!["layer-orphan"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Without a manifest the directory is the epoch-0 state, so a layer from
/// epoch 1 is what a first compaction that crashed before its commit
/// leaves: a warning, and `Wal::open` sweeps it.
#[test]
fn epoch_one_orphan_without_a_manifest_warns_and_is_swept_on_open() {
    let dir = scratch("no-manifest-orphan");
    std::fs::write(dir.join("wal-0.log"), encoded()).unwrap();
    std::fs::write(dir.join("delta-1.ttkv"), b"whatever").unwrap();
    let report = diagnose(&dir);
    assert!(!report.has_errors(), "{report}");
    assert_eq!(checks(&report, Severity::Warning), vec!["layer-orphan"]);

    drop(Wal::open(&dir).unwrap());
    assert!(!dir.join("delta-1.ttkv").exists(), "swept on open");
    let report = diagnose(&dir);
    assert!(report.findings.is_empty(), "{report}");
    assert_eq!(report.frames_verified, 3, "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthy_v2_layers_verify_sections() {
    // Fresh layered directories write binary v2 layers; the doctor's
    // independent structural scan must verify their sections (magic, frame
    // walk, checksums, intern table, end marker) without a single finding.
    let dir = layered_dir("v2-sections");
    let layer = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .find(|n| n.ends_with(".ttkv"))
        .expect("the layered dir has a snapshot layer");
    let bytes = std::fs::read(dir.join(&layer)).unwrap();
    assert!(
        bytes.starts_with(ocasta_ttkv::BINARY_MAGIC),
        "layers are binary v2 segments"
    );
    let report = diagnose(&dir);
    assert!(report.findings.is_empty(), "{report}");
    // 'K' + 'R' + 'E' per layer.
    assert_eq!(report.sections_verified, 3 * report.layers_verified as u64);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_byte_in_v2_layer_is_a_checksum_error() {
    let dir = layered_dir("v2-flip");
    let layer = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .find(|n| n.ends_with(".ttkv"))
        .expect("the layered dir has a snapshot layer");
    let mut bytes = std::fs::read(dir.join(&layer)).unwrap();
    // Flip one payload byte past the magic and the first section header:
    // the section checksum must catch it.
    let at = ocasta_ttkv::BINARY_MAGIC.len() + 9;
    bytes[at] ^= 0x40;
    std::fs::write(dir.join(&layer), bytes).unwrap();
    let report = diagnose(&dir);
    assert!(report.has_errors(), "{report}");
    assert_eq!(checks(&report, Severity::Error), vec!["layer-corrupt"]);
    let finding = report.with_check("layer-corrupt").next().unwrap();
    assert!(
        finding.detail.contains("checksum mismatch"),
        "{}",
        finding.detail
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn text_v1_referenced_layer_is_corrupt() {
    // Only binary v2 segments load: a text v1 export in a manifest chain is
    // a layer replay cannot read.
    let dir = layered_dir("v1-layer");
    let layer = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .find(|n| n.ends_with(".ttkv"))
        .expect("the layered dir has a snapshot layer");
    let store = Ttkv::load(std::fs::read(dir.join(&layer)).unwrap().as_slice()).unwrap();
    std::fs::write(dir.join(&layer), store.save_to_string()).unwrap();
    let report = diagnose(&dir);
    assert!(report.has_errors(), "{report}");
    assert_eq!(checks(&report, Severity::Error), vec!["layer-corrupt"]);
    std::fs::remove_dir_all(&dir).ok();
}
