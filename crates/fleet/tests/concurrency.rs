//! Concurrency equivalence: N-thread sharded ingestion merges to the same
//! store as sequential single-threaded ingestion.

use ocasta_fleet::{
    ingest_live, ingest_sequential, FleetConfig, FleetReport, IngestOptions, KeyPlacement,
    MachineSpec, ShardedTtkv, Wal, WalReader,
};
use ocasta_trace::{KeySpec, NoiseKey, SettingGroup, TraceOp, ValueKind, WorkloadSpec};
use ocasta_ttkv::{TimePrecision, Ttkv};

fn app_spec(app: &str) -> WorkloadSpec {
    let mut spec = WorkloadSpec::new(app);
    spec.sessions_per_day = 2.0;
    spec.reads_per_session = 32;
    spec.static_keys = 12;
    spec.churn_keys = 4;
    spec.churn_writes_per_day = 0.6;
    spec.groups.push(SettingGroup::new(
        "pair",
        vec![
            KeySpec::new("flag", ValueKind::Toggle { initial: false }),
            KeySpec::new("level", ValueKind::IntRange { min: 1, max: 9 }),
        ],
        0.4,
    ));
    spec.noise.push(NoiseKey::new(
        KeySpec::new(
            "geometry",
            ValueKind::IntRange {
                min: 100,
                max: 2000,
            },
        ),
        2.0,
    ));
    spec
}

/// The paper's topology: 29 machines, a few apps each.
fn fleet(machines: usize, days: u64) -> Vec<MachineSpec> {
    (0..machines)
        .map(|i| {
            let apps = vec![app_spec(&format!("app{}", i % 4)), app_spec("shared")];
            MachineSpec::new(format!("m{i:02}"), days, 40_000 + i as u64 * 7, apps)
        })
        .collect()
}

/// Ingests into a fresh store sized from `config`, then merges it.
fn ingest_merged(
    machines: &[MachineSpec],
    config: &FleetConfig,
    options: IngestOptions<'_>,
) -> (Ttkv, FleetReport) {
    let sharded = ShardedTtkv::with_seal_threshold(config.shards, config.seal_threshold);
    let report = ingest_live(machines, config, &sharded, options).expect("ingest runs");
    (sharded.into_ttkv(), report)
}

/// Per-machine placement keeps key spaces disjoint, so parallel ingestion
/// must be *exactly* equal to sequential ingestion — regardless of thread
/// interleavings.
#[test]
fn threaded_ingestion_equals_sequential_disjoint_keys() {
    let machines = fleet(8, 12);
    for threads in [2, 4, 8] {
        for shards in [1, 4, 16] {
            let config = FleetConfig {
                shards,
                ingest_threads: threads,
                batch_size: 64,
                precision: TimePrecision::Seconds,
                placement: KeyPlacement::PerMachine,
                retention: None,
                // Small enough that shards seal mid-run: the equality
                // below also covers the segment fold.
                seal_threshold: 256,
            };
            let sequential = ingest_sequential(&machines, &config);
            let (parallel, report) = ingest_merged(&machines, &config, IngestOptions::default());
            assert_eq!(
                parallel, sequential,
                "threads={threads} shards={shards} must match sequential"
            );
            assert_eq!(report.threads, threads);
            assert_eq!(
                report.mutations,
                sequential.stats().writes + sequential.stats().deletes
            );
        }
    }
}

/// Merged placement: machines share the `shared/...` key subtree. The
/// seeded workload below has no cross-machine (key, quantised-timestamp)
/// collision — asserted explicitly — so the merge is still deterministic
/// and must equal sequential ingestion exactly.
#[test]
fn threaded_ingestion_equals_sequential_merged_keys() {
    let machines = fleet(6, 10);
    let config = FleetConfig {
        shards: 8,
        ingest_threads: 4,
        batch_size: 32,
        precision: TimePrecision::Milliseconds,
        placement: KeyPlacement::Merged,
        retention: None,
        seal_threshold: 128,
    };

    // Guard: verify the fixture has no cross-machine (key, ts) collisions.
    // If it ever does (e.g. after generator changes), pick different seeds
    // rather than weakening the equality below.
    let mut seen: std::collections::HashMap<(String, u64), usize> =
        std::collections::HashMap::new();
    for (idx, machine) in machines.iter().enumerate() {
        for op in machine.stream() {
            if let TraceOp::Mutation(event) = op {
                let slot = (event.key.as_str().to_owned(), event.timestamp.as_millis());
                if let Some(&owner) = seen.get(&slot) {
                    assert_eq!(owner, idx, "cross-machine collision on {slot:?}");
                } else {
                    seen.insert(slot, idx);
                }
            }
        }
    }

    let sequential = ingest_sequential(&machines, &config);
    let (parallel, _) = ingest_merged(&machines, &config, IngestOptions::default());
    assert_eq!(parallel, sequential);
    // Machines genuinely share keys: the shared subtree exists once.
    let shared_prefix = ocasta_ttkv::Key::new("shared");
    let shared: Vec<_> = parallel.keys_under(&shared_prefix).collect();
    assert!(!shared.is_empty(), "fixture must exercise shared keys");
}

/// The WAL lane observes every op the store applies: replaying the WAL
/// reproduces the ingested store exactly, even with many workers racing.
#[test]
fn wal_replay_matches_concurrent_ingestion() {
    let dir = std::env::temp_dir().join(format!("ocasta-fleet-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let machines = fleet(5, 8);
    let config = FleetConfig {
        shards: 8,
        ingest_threads: 4,
        batch_size: 48,
        precision: TimePrecision::Seconds,
        placement: KeyPlacement::PerMachine,
        retention: None,
        seal_threshold: 192,
    };
    let mut wal = Wal::open(&dir).unwrap();
    let options = IngestOptions {
        wal: Some(&mut wal),
        ..IngestOptions::default()
    };
    let (store, report) = ingest_merged(&machines, &config, options);
    assert!(report.mutations > 0);

    // Precision was already applied at ingestion time, so replay at full
    // precision reproduces the store bit-for-bit.
    let replayed = wal.replay(TimePrecision::Milliseconds).unwrap();
    assert_eq!(replayed, store);

    // Compaction preserves the state and empties the log.
    let compacted = wal.compact(TimePrecision::Milliseconds).unwrap();
    assert_eq!(compacted, store);
    assert_eq!(wal.log_bytes(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A WAL written through the engine is a valid frame stream end to end.
#[test]
fn engine_wal_is_a_clean_frame_stream() {
    let dir = std::env::temp_dir().join(format!("ocasta-fleet-frames-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let machines = fleet(3, 5);
    let mut wal = Wal::open(&dir).unwrap();
    let options = IngestOptions {
        wal: Some(&mut wal),
        ..IngestOptions::default()
    };
    let (_, report) = ingest_merged(&machines, &FleetConfig::default(), options);
    drop(wal);

    let file = std::fs::File::open(dir.join("wal-0.log")).unwrap();
    let mut reader = WalReader::new(std::io::BufReader::new(file)).unwrap();
    let ops = reader.read_all().unwrap();
    assert!(!reader.torn_tail());
    let mutations = ops.iter().filter(|op| op.is_mutation()).count() as u64;
    assert_eq!(mutations, report.mutations);
    std::fs::remove_dir_all(&dir).ok();
}
