//! `fleet-ingest`: the paper's 29-machine deployment streamed into the
//! sharded store with the durable lanes on — WAL appends, retention
//! sweeps, delta compactions and rebases — then restarted from disk.
//!
//! Each round ingests the whole fleet (full 11-app catalog, per-machine
//! key placement, two ingest workers) into a fresh WAL directory with
//! `ingest_live`, folds the live store, replays the WAL once (it must
//! equal the live store), then times `RESTARTS` restarts through
//! `Wal::open` + `replay`. Rounds repeat the same seeded fleet, so
//! `store_bytes` and `disk_bytes` repeat exactly. Nothing is clustered or
//! repaired.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ocasta::fleet::{fleet_machines, FleetRunConfig};
use ocasta::{
    FleetConfig, FleetMetrics, IngestOptions, KeyPlacement, MachineSpec, Registry, RetentionPolicy,
    ShardedTtkv, TimePrecision, Ttkv, Wal,
};
use ocasta_fleet::DEFAULT_SEAL_THRESHOLD;

use crate::report::Report;
use crate::stats::{ms, overhead_pct_higher, ratio, us, Samples, P90_SAMPLES};
use crate::{save_and_load, traced_halves, Outcome, Plan};

/// The paper's deployment: 29 machines.
const MACHINES: usize = 29;
/// Simulated days per machine.
const DAYS: u64 = 4;
/// Trace time the retention policy keeps behind the ingest frontier.
const RETAIN_DAYS: u64 = 1;
const SHARDS: usize = 16;
const INGEST_THREADS: usize = 2;
/// Restarts per round; `latency_ms_*` are restart times.
const RESTARTS: usize = 5;
/// Rounds an untraced phase completes, deadline or not: enough restarts
/// for a p90 with ten samples beyond it.
const MIN_ROUNDS: usize = P90_SAMPLES.div_ceil(RESTARTS);
/// Rounds each half of a traced run completes.
const MIN_TRACED_ROUNDS: usize = 3;
const SETUP_REPEATS: usize = 5;
/// Fleet seed of the warm-up round (outside every run's fleets).
const WARM_UP_SEED: u64 = 1 << 40;
const PRECISION: TimePrecision = TimePrecision::Seconds;

struct Fleet {
    machines: Vec<MachineSpec>,
    engine: FleetConfig,
    scratch: PathBuf,
}

fn engine(retention: bool) -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        ingest_threads: INGEST_THREADS,
        placement: KeyPlacement::PerMachine,
        precision: PRECISION,
        retention: retention.then(|| RetentionPolicy::keep_days(RETAIN_DAYS)),
        seal_threshold: DEFAULT_SEAL_THRESHOLD,
        ..FleetConfig::default()
    }
}

fn machines(seed: u64, count: usize, days: u64) -> Result<Vec<MachineSpec>, String> {
    fleet_machines(&FleetRunConfig {
        machines: count,
        days,
        seed: seed * 1_000,
        apps: Vec::new(),
        ..FleetRunConfig::default()
    })
}

/// Machine specs, the scratch directory and a two-machine warm-up round
/// (the same warm-up fleet for every run seed).
fn setup(seed: u64, scratch: &Path) -> Result<(Fleet, Duration), String> {
    let started = Instant::now();
    let fleet = Fleet {
        machines: machines(seed, MACHINES, DAYS)?,
        engine: engine(true),
        scratch: scratch.to_path_buf(),
    };
    std::fs::create_dir_all(scratch).map_err(|e| format!("scratch dir: {e}"))?;
    // No retention in the warm-up: its rebase fsyncs, and disk latency
    // would swamp the set-up time.
    let warm = Fleet {
        machines: machines(WARM_UP_SEED, 2, 2)?,
        engine: engine(false),
        scratch: scratch.to_path_buf(),
    };
    std::hint::black_box(round(&warm, usize::MAX, None)?.ingest_s);
    Ok((fleet, started.elapsed()))
}

/// What one round measured.
struct RoundRun {
    mutations: u64,
    ingest_s: f64,
    sweeps: u64,
    build_us: f64,
    restart_ms: Vec<f64>,
    replay_equal: bool,
    store: Ttkv,
    disk_bytes: u64,
}

fn round(fleet: &Fleet, index: usize, metrics: Option<&FleetMetrics>) -> Result<RoundRun, String> {
    let dir = fleet.scratch.join(format!("round-{index}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wal = Wal::open(&dir).map_err(|e| format!("wal open: {e}"))?;
    let sharded =
        ShardedTtkv::with_seal_threshold(fleet.engine.shards, fleet.engine.seal_threshold);
    let started = Instant::now();
    let report = ocasta::fleet_ingest_live(
        &fleet.machines,
        &fleet.engine,
        &sharded,
        IngestOptions {
            wal: Some(&mut wal),
            metrics,
            ..IngestOptions::default()
        },
    )
    .map_err(|e| format!("ingest: {e}"))?;
    let ingest_s = started.elapsed().as_secs_f64();
    drop(wal);
    let folded = Instant::now();
    let store = sharded.into_ttkv();
    let build_us = us(folded.elapsed());
    let disk_bytes = dir_bytes(&dir)?;

    // The first replay is the untimed equality check. It also leaves the
    // WAL files cached and the allocator warm, so every timed restart
    // after it measures the same steady state rather than a cold/warm mix.
    let replay_equal = Wal::open(&dir)
        .and_then(|mut wal| wal.replay(PRECISION))
        .map_err(|e| format!("replay: {e}"))?
        == store;
    let mut restart_ms = Vec::with_capacity(RESTARTS);
    for _ in 0..RESTARTS {
        let started = Instant::now();
        let mut wal = Wal::open(&dir).map_err(|e| format!("restart open: {e}"))?;
        let replayed = wal.replay(PRECISION).map_err(|e| format!("replay: {e}"))?;
        restart_ms.push(ms(started.elapsed()));
        std::hint::black_box(replayed);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(RoundRun {
        mutations: report.mutations,
        ingest_s,
        sweeps: report.retention.map_or(0, |r| r.sweeps),
        build_us,
        restart_ms,
        replay_equal,
        store,
        disk_bytes,
    })
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read wal dir: {e}"))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("stat wal file: {e}"))?;
        total += meta.len();
    }
    Ok(total)
}

#[derive(Default)]
struct Phase {
    rounds: usize,
    /// Totals over every round: the rate is their ratio, which a host
    /// that runs fast in some rounds and slow in others moves less than a
    /// median of per-round rates.
    mutations: u64,
    ingest_s: f64,
    restart_ms: Samples,
    store_bytes: Samples,
    disk_bytes: Samples,
    sweeps: Samples,
    equal: usize,
    generate: Samples,
    build: Samples,
    save: Samples,
    load: Samples,
    segment: Samples,
}

impl Phase {
    fn events_per_s(&self) -> f64 {
        ratio(self.mutations as f64, self.ingest_s)
    }
}

fn measure(
    fleet: &Fleet,
    plan: &Plan,
    min_rounds: usize,
    metrics: Option<&FleetMetrics>,
    report: &mut Report,
) -> Result<Phase, String> {
    let deadline = plan.deadline();
    let mut phase = Phase::default();
    while phase.rounds < min_rounds || Instant::now() < deadline {
        report.calibrate();
        if metrics.is_some() {
            // Each machine's generator drained outside the product.
            let started = Instant::now();
            let ops: usize = fleet.machines.iter().map(|m| m.stream().count()).sum();
            phase.generate.push(us(started.elapsed()));
            std::hint::black_box(ops);
        }
        let run = round(fleet, phase.rounds, metrics)?;
        report.attempt((!run.replay_equal).then(|| {
            format!(
                "round {}: WAL replay differs from the live store",
                phase.rounds
            )
        }));
        phase.rounds += 1;
        phase.mutations += run.mutations;
        phase.ingest_s += run.ingest_s;
        for t in &run.restart_ms {
            phase.restart_ms.push(*t);
        }
        phase.store_bytes.push(run.store.approx_bytes() as f64);
        phase.disk_bytes.push(run.disk_bytes as f64);
        phase.sweeps.push(run.sweeps as f64);
        if run.replay_equal {
            phase.equal += 1;
        }
        if metrics.is_some() {
            phase.build.push(run.build_us);
            let (save, load, bytes, same) = save_and_load(&run.store);
            phase.save.push(save);
            phase.load.push(load);
            phase.segment.push(bytes as f64);
            report
                .attempt((!same).then(|| "settled store save/load round trip differs".to_owned()));
        }
    }
    Ok(phase)
}

/// Mutations per second of the same fleet with no WAL and no retention:
/// the reference the durable lanes' throughput drop is read against.
fn plain_events_per_s(fleet: &Fleet) -> Result<f64, String> {
    let config = engine(false);
    let sharded = ShardedTtkv::with_seal_threshold(config.shards, config.seal_threshold);
    let started = Instant::now();
    let report =
        ocasta::fleet_ingest_live(&fleet.machines, &config, &sharded, IngestOptions::default())
            .map_err(|e| format!("plain ingest: {e}"))?;
    Ok(ratio(
        report.mutations as f64,
        started.elapsed().as_secs_f64(),
    ))
}

pub fn run(seed: u64, seconds: Duration, traced: bool) -> Outcome {
    let scratch =
        PathBuf::from(".bench_scratch").join(format!("fleet-ingest-{}", std::process::id()));
    let result = run_in(seed, seconds, traced, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_scratch");
    result
}

fn run_in(seed: u64, seconds: Duration, traced: bool, scratch: &Path) -> Outcome {
    let mut report = Report::new(traced);
    let mut setups = Samples::default();
    let mut fleet = None;
    for _ in 0..SETUP_REPEATS {
        report.calibrate();
        let (built, took) = setup(seed, scratch)?;
        setups.push(took.as_secs_f64());
        fleet = Some(built);
    }
    let fleet = fleet.expect("at least one setup");

    let (reference, traced_phase) = if traced {
        let (untraced_plan, traced_plan) = traced_halves(seed, seconds);
        let reference = measure(&fleet, &untraced_plan, MIN_TRACED_ROUNDS, None, &mut report)?;
        let registry = Registry::new();
        let metrics = FleetMetrics::register(&registry);
        let phase = measure(
            &fleet,
            &traced_plan,
            MIN_TRACED_ROUNDS,
            Some(&metrics),
            &mut report,
        )?;
        let plain = plain_events_per_s(&fleet)?;
        (reference, Some((phase, metrics, plain)))
    } else {
        let plan = Plan {
            seed,
            budget: seconds,
        };
        (measure(&fleet, &plan, MIN_ROUNDS, None, &mut report)?, None)
    };

    report.set("setup_s", setups.median());
    report.set("latency_ms_p50", reference.restart_ms.median());
    report.set("latency_ms_p90", reference.restart_ms.quantile(0.9));
    report.set("ingest_events_per_s", reference.events_per_s());
    report.set(
        "ok_frac",
        ratio(reference.equal as f64, reference.rounds as f64),
    );
    report.set("store_bytes", reference.store_bytes.median());
    report.set("disk_bytes", reference.disk_bytes.median());

    report.info_text(
        "size",
        &format!(
            "{MACHINES} machines x {DAYS} days, 11 apps, per-machine placement, \
             {INGEST_THREADS} ingest workers, {SHARDS} shards, WAL + keep {RETAIN_DAYS} days, \
             {RESTARTS} restarts per round"
        ),
    );
    report.info_number("rounds", reference.rounds as f64);
    report.info_number("latency_samples", reference.restart_ms.len() as f64);
    report.info_number(
        "latency_tail_percentile",
        reference.restart_ms.tail_percentile() as f64,
    );
    report.info_number("p90_min_samples", P90_SAMPLES as f64);
    report.info_number("sweeps_per_round", reference.sweeps.median());

    if let Some((phase, m, plain)) = traced_phase {
        let rounds = phase.rounds as f64;
        let per_round = |sum_us: u64| sum_us as f64 / rounds;
        let rounds_n = phase.rounds as u64;
        report.info_number("traced_rounds", rounds);
        report.set_layer("trace.generate_us", phase.generate.mean(), rounds_n);
        report.set_layer("ttkv.build_us", phase.build.mean(), rounds_n);
        report.set_layer("ttkv.save_us", phase.save.mean(), rounds_n);
        report.set_layer("ttkv.load_us", phase.load.mean(), rounds_n);
        report.set_layer("ttkv.segment_bytes", phase.segment.mean(), rounds_n);
        report.set_layer(
            "fleet.shard.lock_wait_us",
            per_round(m.lock_wait.sum_us()),
            m.lock_wait.count(),
        );
        report.set_layer(
            "fleet.shard.batch_apply_us",
            per_round(m.batch_apply.sum_us()),
            m.batch_apply.count(),
        );
        report.set_layer(
            "fleet.shard.seal_us",
            per_round(m.seal_stall.sum_us()),
            m.seal_stall.count(),
        );
        report.set_layer("fleet.shard.seals", per_round(m.seals.get()), rounds_n);
        report.set_layer(
            "fleet.wal.append_us",
            per_round(m.wal_append.sum_us()),
            m.wal_append.count(),
        );
        report.set_layer("fleet.wal.frames", per_round(m.wal_frames.get()), rounds_n);
        report.set_layer(
            "fleet.wal.compact_us",
            per_round(m.wal_compact.sum_us()),
            m.wal_compact.count(),
        );
        report.set_layer(
            "fleet.wal.rebase_us",
            per_round(m.wal_rebase.sum_us()),
            m.wal_rebase.count(),
        );
        report.set_layer(
            "fleet.sweep.stall_us",
            per_round(m.sweep_stall.sum_us()),
            m.sweep_stall.count(),
        );
        report.set_layer("fleet.sweep.count", per_round(m.sweeps.get()), rounds_n);
        report.set_layer(
            "fleet.sweep.reclaimed_versions",
            per_round(m.sweep_reclaimed_versions.get()),
            rounds_n,
        );
        report.set_layer(
            "fleet.sweep.pin_clamps",
            per_round(m.pin_clamps.get()),
            rounds_n,
        );
        let sweep_and_compaction =
            (m.sweep_stall.sum_us() + m.wal_compact.sum_us() + m.wal_rebase.sum_us()) as f64;
        report.set_layer(
            "fleet.sweep.share_pct",
            100.0 * ratio(sweep_and_compaction, phase.ingest_s * 1e6),
            rounds_n,
        );
        report.set_layer("fleet.ingest.plain_events_per_s", plain, rounds_n);
        report.set_layer(
            "obs.overhead_pct",
            overhead_pct_higher(reference.events_per_s(), phase.events_per_s()),
            rounds_n,
        );
    }
    Ok(report)
}
