//! `ocasta vopr` — the deterministic fault-scenario matrix.
//!
//! A VOPR run drives the whole fleet — concurrent ingestion, the WAL
//! lane, the streaming clustering, the retention sweeper and the repair
//! search — through one named adversarial scenario, then checks **all
//! four standing invariants** of the system against what actually
//! happened:
//!
//! 1. **replay-matches-store** — replaying the WAL reproduces the live
//!    store (exactly, or as a strict prefix when the scenario killed the
//!    appender lane);
//! 2. **stream-equals-batch** — the streaming clustering equals the batch
//!    clustering over the same mutations (`DESIGN.md §5.7`);
//! 3. **retention-equivalence** — the retained store equals the unbounded
//!    reference pruned once at the final horizon (and shell-GC'd when the
//!    run GC'd), exact [`Ttkv`] equality (`DESIGN.md §5.9`);
//! 4. **parallel-equals-sequential** — the parallel rollback search
//!    reports the sequential search's outcome field for field
//!    (`DESIGN.md §5.8`).
//!
//! Every scenario is one row of the `SCENARIOS` table, which holds
//! everything the scenario varies. A *feed* row perturbs a deterministic
//! single-threaded delivery of the fleet's op stream: an op edit (clock
//! skew, key churn), the delivery order, retention sweeps, repair pins
//! held against them, the seal threshold and a crashed compaction. An
//! *engine* row runs the real concurrent engine with a [`FaultPlan`]
//! injected (a killed ingest worker, a silently dead WAL appender, a
//! sweeper stopped mid-flight), optionally churning epoch pins meanwhile.
//! One runner per class executes every row, and each check a row adds
//! after the standing four follows from the row feature that needs it —
//! never from the scenario's name.
//!
//! **The determinism rule:** same scenario + same seed ⇒ byte-identical
//! verdict report. Reports therefore carry only deterministic facts —
//! scenario, seed, fleet shape, op counts, per-check verdicts — never
//! timings, paths or thread counts observed at runtime. Shuffles come
//! from an in-module xorshift generator seeded from the run's seed.
//!
//! A reproducing seed is a permanent asset: when a scenario fails, its
//! `vopr --scenario <name> --seed <n>` line goes into `failing_seeds/`
//! *before* the fix, and the tier-1 suite replays every entry forever
//! (see `failing_seeds/README.md`).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ocasta_fleet::{
    ingest_live, ingest_sequential, lane_events, EpochSnapshot, FaultPlan, FleetConfig,
    IngestError, IngestOptions, KeyPlacement, MachineSpec, RetentionPolicy, ShardedTtkv, Wal,
    WriteLanes, DEFAULT_SEAL_THRESHOLD,
};
use ocasta_repair::{
    parallel_search, search, FixOracle, Screenshot, SearchConfig, SearchOutcome, SearchStrategy,
    Trial,
};
use ocasta_trace::{AccessEvent, TraceOp};
use ocasta_ttkv::{
    HorizonGuard, HorizonPin, TimeDelta, TimePrecision, Timestamp, Ttkv, TtkvStats, Value,
};

use crate::fleet::{fleet_machines, FleetRunConfig};
use crate::pipeline::{Clustering, Ocasta};
use crate::stream::OcastaStream;

/// Timestamp quantisation every VOPR run ingests at (the fleet default).
const PRECISION: TimePrecision = TimePrecision::Seconds;

/// Ops per delivered feed chunk (the feed-driven unit of interleaving).
const CHUNK: usize = 64;

/// The fleet shape of every feed scenario: machines, days.
const FEED_FLEET: (usize, u64) = (3, 4);

/// One scenario: everything it varies, in one row.
enum Scenario {
    /// Deterministic single-threaded delivery of the fleet's op stream.
    Feed(Feed),
    /// The real concurrent engine with a fault plan injected.
    Engine(Engine),
}

impl Scenario {
    fn name(&self) -> &'static str {
        match self {
            Scenario::Feed(feed) => feed.name,
            Scenario::Engine(engine) => engine.name,
        }
    }
}

/// What a feed scenario varies.
struct Feed {
    name: &'static str,
    /// An edit to the per-machine op streams before delivery.
    edit: Option<Edit>,
    /// The order in which the chunked streams are delivered.
    delivery: Delivery,
    /// Sweep every 8th chunk to this much history behind the frontier,
    /// then sweep, collect dead shells and rebase once at the end.
    retain: Option<TimeDelta>,
    /// Repair pins held against those sweeps.
    pins: Option<Pins>,
    /// The tail size at which the store's shards seal a segment.
    seal_threshold: usize,
    /// After the run, plant what a compaction that died before its
    /// manifest rename leaves behind, and reopen the WAL.
    rebase_crash: bool,
}

/// An edit to the per-machine op streams.
enum Edit {
    /// `machine`'s clock runs `skew` fast: every mutation it reports lands
    /// ahead of the rest of the fleet.
    ClockSkew { machine: usize, skew: TimeDelta },
    /// `machine` also writes, reads and deletes `keys` short-lived keys
    /// within the first day — all reclaimed by the final horizon, leaving
    /// counter-only shells unless GC runs.
    KeyChurn { machine: usize, keys: u64 },
}

/// How the chunked per-machine streams reach the consumers.
enum Delivery {
    /// Round-robin, one chunk per machine in turn — the deterministic
    /// stand-in for concurrent machine delivery.
    RoundRobin,
    /// Machine 0's whole stream arrives only after everyone else finished
    /// — a straggler re-sending its backlog at the end.
    StragglerLast,
    /// Round-robin, then shuffled by the seed.
    Shuffled,
    /// Round-robin, with every ninth chunk delivered twice (an
    /// at-least-once transport retrying): all consumers see the duplicate.
    Duplicated,
}

/// Repair pins a feed holds against its retention sweeps.
enum Pins {
    /// One session pins the sweep target a third of the way through the
    /// feed and releases it two thirds through, with a sweep at once.
    SweepVsPin,
    /// Short sessions open every 5th chunk and close ~7 chunks later, each
    /// holding a retention pin and an epoch pin with its pin-time
    /// materialization as the oracle; a few stay open across the final
    /// sweep, shell GC and rebase.
    Churn,
}

/// What an engine scenario varies.
struct Engine {
    name: &'static str,
    /// Machines, days.
    fleet: (usize, u64),
    config: FleetConfig,
    faults: FaultPlan,
    /// Epoch pins the calling thread takes while the engine ingests.
    pin_churn: usize,
}

/// The baseline row, which every other feed row edits.
const BASELINE: Feed = Feed {
    name: "baseline",
    edit: None,
    delivery: Delivery::RoundRobin,
    retain: None,
    pins: None,
    seal_threshold: DEFAULT_SEAL_THRESHOLD,
    rebase_crash: false,
};

/// One day of retained history.
const ONE_DAY: Option<TimeDelta> = Some(TimeDelta::from_days(1));

/// The engine configuration every engine scenario starts from.
const ENGINE: FleetConfig = FleetConfig {
    shards: 4,
    ingest_threads: 2,
    batch_size: 64,
    precision: PRECISION,
    // Per-machine keyspace, so a killed machine's absence is visible in
    // the store itself, and two workers never race same-timestamp writes
    // to one key (an order the sequential reference cannot predict,
    // failing_seeds/006).
    placement: KeyPlacement::PerMachine,
    retention: None,
    seal_threshold: 256,
};

/// A fault plan that injects nothing.
const NO_FAULTS: FaultPlan = FaultPlan {
    kill_worker_at_machine: None,
    wal_crash_after_frames: None,
    sweeper_stop_after: None,
};

/// The scenario catalog, in canonical order.
const SCENARIOS: &[Scenario] = &[
    Scenario::Feed(BASELINE),
    Scenario::Feed(Feed {
        name: "straggler-machine",
        delivery: Delivery::StragglerLast,
        ..BASELINE
    }),
    Scenario::Feed(Feed {
        name: "clock-skew",
        edit: Some(Edit::ClockSkew {
            machine: 1,
            skew: TimeDelta::from_secs(6 * 3600),
        }),
        ..BASELINE
    }),
    Scenario::Feed(Feed {
        name: "duplicate-feed",
        delivery: Delivery::Duplicated,
        ..BASELINE
    }),
    Scenario::Feed(Feed {
        name: "reorder-feed",
        delivery: Delivery::Shuffled,
        ..BASELINE
    }),
    Scenario::Feed(Feed {
        name: "dead-shell-churn",
        edit: Some(Edit::KeyChurn {
            machine: 0,
            keys: 48,
        }),
        retain: ONE_DAY,
        ..BASELINE
    }),
    Scenario::Feed(Feed {
        name: "sweep-vs-pin",
        retain: ONE_DAY,
        pins: Some(Pins::SweepVsPin),
        ..BASELINE
    }),
    Scenario::Feed(Feed {
        name: "pin-churn",
        retain: ONE_DAY,
        pins: Some(Pins::Churn),
        // Seal aggressively so the sessions' epoch pins reference real
        // sealed segments, not just tail clones.
        seal_threshold: 128,
        ..BASELINE
    }),
    Scenario::Engine(Engine {
        name: "kill-ingest-worker",
        fleet: (4, 3),
        config: ENGINE,
        faults: FaultPlan {
            kill_worker_at_machine: Some(1),
            ..NO_FAULTS
        },
        pin_churn: 0,
    }),
    Scenario::Engine(Engine {
        name: "wal-appender-crash",
        fleet: (2, 3),
        config: FleetConfig {
            ingest_threads: 1,
            batch_size: 32,
            placement: KeyPlacement::Merged,
            ..ENGINE
        },
        faults: FaultPlan {
            wal_crash_after_frames: Some(5),
            ..NO_FAULTS
        },
        pin_churn: 0,
    }),
    Scenario::Engine(Engine {
        name: "crash-mid-sweep",
        fleet: (3, 6),
        config: FleetConfig {
            retention: Some(RetentionPolicy::keep_days(2)),
            ..ENGINE
        },
        faults: FaultPlan {
            sweeper_stop_after: Some(0),
            ..NO_FAULTS
        },
        pin_churn: 0,
    }),
    Scenario::Feed(Feed {
        name: "crash-mid-rebase",
        rebase_crash: true,
        ..BASELINE
    }),
    Scenario::Engine(Engine {
        name: "killed-worker-amid-pin-churn",
        fleet: (4, 3),
        config: FleetConfig {
            // Small enough that pins land mid-seal, not just between
            // quiescent segments.
            seal_threshold: 192,
            ..ENGINE
        },
        faults: FaultPlan {
            kill_worker_at_machine: Some(1),
            ..NO_FAULTS
        },
        pin_churn: 32,
    }),
];

/// Every scenario name `vopr` accepts, in canonical order.
pub fn vopr_scenario_names() -> Vec<&'static str> {
    SCENARIOS.iter().map(Scenario::name).collect()
}

/// One invariant check's verdict inside a VOPR run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoprCheck {
    /// Stable check name (appears in the verdict report).
    pub name: &'static str,
    /// `true` if the invariant held.
    pub passed: bool,
    /// Deterministic supporting detail (shown on failure).
    pub detail: String,
}

/// What one VOPR run did: scenario, seed, and every check's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoprOutcome {
    /// The scenario that ran.
    pub scenario: &'static str,
    /// The seed it ran with.
    pub seed: u64,
    /// Simulated machines in the fleet.
    pub machines: usize,
    /// Simulated days per machine.
    pub days: u64,
    /// Mutations the live store ended up holding.
    pub mutations: u64,
    /// Read accesses the live store ended up holding.
    pub reads: u64,
    /// Every check, standing invariants first, scenario extras after.
    pub checks: Vec<VoprCheck>,
}

impl VoprOutcome {
    /// `true` if every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The deterministic verdict report: same scenario + seed ⇒
    /// byte-identical text (no timings, paths or machine-local state).
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "vopr scenario={} seed={}", self.scenario, self.seed);
        let _ = writeln!(
            out,
            "fleet: {} machines x {} days",
            self.machines, self.days
        );
        let _ = writeln!(
            out,
            "ops: {} mutations, {} reads",
            self.mutations, self.reads
        );
        let failures = self.checks.iter().filter(|c| !c.passed).count();
        for check in &self.checks {
            if check.passed {
                let _ = writeln!(out, "check {}: PASS", check.name);
            } else {
                let _ = writeln!(out, "check {}: FAIL - {}", check.name, check.detail);
            }
        }
        let _ = writeln!(
            out,
            "verdict: {} ({} checks, {} failures)",
            if failures == 0 { "PASS" } else { "FAIL" },
            self.checks.len(),
            failures,
        );
        out
    }
}

/// How a WAL replay must relate to the live store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplayRelation {
    /// Replay reproduces the store exactly (every healthy-lane scenario).
    Equal,
    /// Replay is a strict prefix: strictly fewer mutations, and no key
    /// counter exceeding the live store's (a silently dead appender lane
    /// loses batches but never invents or reorders them).
    StrictPrefix,
}

/// Standing invariant 1: replaying the WAL reproduces the live store.
fn check_replay_matches_store(replayed: &Ttkv, live: &Ttkv, relation: ReplayRelation) -> VoprCheck {
    let (r, l) = (replayed.stats(), live.stats());
    let passed = match relation {
        ReplayRelation::Equal => replayed == live,
        ReplayRelation::StrictPrefix => {
            let fewer = r.writes + r.deletes < l.writes + l.deletes;
            let subset = replayed.iter().all(|(key, rec)| {
                live.record(key.as_str()).is_some_and(|full| {
                    rec.writes <= full.writes
                        && rec.deletes <= full.deletes
                        && rec.reads <= full.reads
                })
            });
            fewer && subset
        }
    };
    VoprCheck {
        name: "replay-matches-store",
        passed,
        detail: format!(
            "replayed {} writes / {} deletes / {} keys vs live {} / {} / {} ({relation:?})",
            r.writes,
            r.deletes,
            replayed.len(),
            l.writes,
            l.deletes,
            live.len(),
        ),
    }
}

/// Standing invariant 2: the streaming clustering equals the batch
/// clustering computed over the same mutations.
fn check_stream_equals_batch(live: &Clustering, batch: &Clustering) -> VoprCheck {
    VoprCheck {
        name: "stream-equals-batch",
        passed: live == batch,
        detail: format!(
            "streamed {} clusters vs batch {} clusters",
            live.len(),
            batch.len(),
        ),
    }
}

/// Standing invariant 3: the retained store equals the unbounded
/// reference pruned **once** at the final horizon — shell-GC'd too when
/// the run GC'd — as exact [`Ttkv`] equality.
fn check_retention_equivalence(
    retained: &Ttkv,
    unbounded: &Ttkv,
    horizon: Timestamp,
    final_gc: bool,
) -> VoprCheck {
    let mut expected = unbounded.clone();
    if horizon > Timestamp::EPOCH {
        expected.prune_before(horizon);
    }
    let shells = if final_gc {
        expected.gc_dead_shells()
    } else {
        0
    };
    VoprCheck {
        name: "retention-equivalence",
        passed: *retained == expected,
        detail: format!(
            "retained {} keys / {} writes vs expected {} keys / {} writes \
             (horizon {}ms, {} shells gc'd)",
            retained.len(),
            retained.stats().writes,
            expected.len(),
            expected.stats().writes,
            horizon.as_millis(),
            shells,
        ),
    }
}

/// Standing invariant 4: the parallel rollback search's outcome equals
/// the sequential search's, field for field.
fn check_parallel_equals_sequential(
    sequential: &SearchOutcome,
    parallel: &SearchOutcome,
) -> VoprCheck {
    VoprCheck {
        name: "parallel-equals-sequential",
        passed: sequential == parallel,
        detail: format!(
            "sequential trials_to_fix={:?} screenshots_to_fix={} vs parallel \
             trials_to_fix={:?} screenshots_to_fix={}",
            sequential.trials_to_fix,
            sequential.screenshots_to_fix,
            parallel.trials_to_fix,
            parallel.screenshots_to_fix,
        ),
    }
}

/// Pin-churn invariant: an epoch-pinned snapshot equals the legacy
/// clone-under-lock snapshot taken at the same quiescent moment, as exact
/// [`Ttkv`] equality (`DESIGN.md §5.13`).
fn check_epoch_equals_clone(epoch: &Ttkv, clone: &Ttkv) -> VoprCheck {
    VoprCheck {
        name: "epoch-matches-clone",
        passed: epoch == clone,
        detail: format!(
            "epoch pin {} keys / {} writes vs clone {} keys / {} writes",
            epoch.len(),
            epoch.stats().writes,
            clone.len(),
            clone.stats().writes,
        ),
    }
}

/// Pin-churn invariant: every short-lived session's pinned view survived
/// the sweeper unchanged. `checked` is how many sessions re-materialized
/// their pin and compared it against the materialization taken at pin
/// time; `diverged` is how many differed. The check demands at least one
/// session actually churned (a scenario that never pins proves nothing).
fn check_pin_churn_sessions(checked: u64, diverged: u64) -> VoprCheck {
    VoprCheck {
        name: "pins-survive-sweeps",
        passed: checked > 0 && diverged == 0,
        detail: format!("{checked} pinned sessions checked, {diverged} diverged"),
    }
}

/// Pin-churn invariant: pins taken in sequence observe a non-decreasing
/// mutation total — a later pin can never see *less* history than an
/// earlier one. The detail reports only the pin count and inversion
/// count, never the raw totals, so engine scenarios (where totals depend
/// on thread timing) keep byte-deterministic reports.
fn check_pin_monotonicity(mutation_totals: &[u64]) -> VoprCheck {
    let inversions = mutation_totals.windows(2).filter(|w| w[1] < w[0]).count();
    VoprCheck {
        name: "pins-monotone",
        passed: inversions == 0,
        detail: format!(
            "{} pins taken in sequence, {inversions} ordering inversions",
            mutation_totals.len(),
        ),
    }
}

/// Runs one scenario under one seed and reports every check's verdict.
///
/// Same scenario + same seed ⇒ the returned
/// [`VoprOutcome::report`] is byte-identical across runs and machines.
///
/// # Errors
///
/// Unknown scenario names, or environmental failures (scratch-directory
/// I/O) that prevent the scenario from running at all. Invariant
/// *violations* are not errors — they come back as failed checks.
pub fn run_vopr(scenario: &str, seed: u64) -> Result<VoprOutcome, String> {
    let row = SCENARIOS
        .iter()
        .find(|row| row.name() == scenario)
        .ok_or_else(|| {
            format!(
                "unknown scenario `{scenario}` (try: {})",
                vopr_scenario_names().join(", ")
            )
        })?;
    let dir = scratch_dir(row.name(), seed);
    let _ = std::fs::remove_dir_all(&dir);
    let ((machines, days), result) = match row {
        Scenario::Feed(feed) => (FEED_FLEET, run_feed(feed, seed, &dir)),
        Scenario::Engine(engine) => (engine.fleet, run_engine(engine, seed, &dir)),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let (stats, checks) = result?;
    Ok(VoprOutcome {
        scenario: row.name(),
        seed,
        machines,
        days,
        mutations: stats.modifications(),
        reads: stats.reads,
        checks,
    })
}

/// A unique scratch WAL directory per run. The counter keeps concurrent
/// runs of the *same* scenario + seed (e.g. parallel test threads in one
/// process) from colliding; the path never appears in a verdict report.
fn scratch_dir(scenario: &str, seed: u64) -> PathBuf {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ocasta-vopr-{scenario}-{seed}-{}-{run}",
        std::process::id()
    ))
}

/// The gedit + evolution fleet of one shape (machines, days).
fn fleet((machines, days): (usize, u64), seed: u64) -> Result<Vec<MachineSpec>, String> {
    fleet_machines(&FleetRunConfig {
        machines,
        days,
        seed,
        apps: vec!["gedit".into(), "evolution".into()],
        ..FleetRunConfig::default()
    })
}

// ---------------------------------------------------------------------
// Deterministic randomness (no `rand` dependency, no wall clock).
// ---------------------------------------------------------------------

/// Spreads a user seed into a non-zero xorshift state.
fn mix_seed(seed: u64) -> u64 {
    let state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    if state == 0 {
        1
    } else {
        state
    }
}

/// xorshift64: deterministic, dependency-free shuffle source.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// In-place Fisher–Yates driven by [`xorshift`].
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (xorshift(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

// ---------------------------------------------------------------------
// Feed scenarios.
// ---------------------------------------------------------------------

/// Quantises a trace op the way the ingest engine would.
fn quantize(op: TraceOp) -> TraceOp {
    match op {
        TraceOp::Mutation(mut event) => {
            event.timestamp = PRECISION.apply(event.timestamp);
            TraceOp::Mutation(event)
        }
        reads => reads,
    }
}

/// Chunks each machine's ops and interleaves the chunks round-robin in
/// machine order.
fn interleave(per_machine: &[Vec<TraceOp>]) -> Vec<Vec<TraceOp>> {
    let mut queues: Vec<_> = per_machine
        .iter()
        .map(|ops| ops.chunks(CHUNK).map(<[TraceOp]>::to_vec))
        .collect();
    let mut feed = Vec::new();
    loop {
        let round: Vec<Vec<TraceOp>> = queues.iter_mut().filter_map(Iterator::next).collect();
        if round.is_empty() {
            return feed;
        }
        feed.extend(round);
    }
}

/// The chunk sequence a feed row delivers: each machine's quantised op
/// stream, edited, chunked and delivered in the row's order.
fn feed_chunks(feed: &Feed, seed: u64) -> Result<Vec<Vec<TraceOp>>, String> {
    let mut per_machine: Vec<Vec<TraceOp>> = fleet(FEED_FLEET, seed)?
        .iter()
        .map(|machine| machine.stream().map(quantize).collect())
        .collect();
    match feed.edit {
        None => {}
        Some(Edit::ClockSkew { machine, skew }) => {
            for op in &mut per_machine[machine] {
                if let TraceOp::Mutation(event) = op {
                    event.timestamp += skew;
                }
            }
        }
        Some(Edit::KeyChurn { machine, keys }) => {
            for i in 0..keys {
                let born = Timestamp::from_secs(3_600 + i * 120);
                let key = format!("churn/k{i:02}");
                per_machine[machine].extend([
                    TraceOp::Mutation(AccessEvent::write(born, key.clone(), Value::from(i as i64))),
                    TraceOp::Reads(key.clone().into(), 3),
                    TraceOp::Mutation(AccessEvent::delete(born + TimeDelta::from_mins(30), key)),
                ]);
            }
        }
    }
    Ok(match feed.delivery {
        Delivery::RoundRobin => interleave(&per_machine),
        Delivery::StragglerLast => {
            let mut chunks = interleave(&per_machine[1..]);
            chunks.extend(interleave(&per_machine[..1]));
            chunks
        }
        Delivery::Shuffled => {
            let mut chunks = interleave(&per_machine);
            shuffle(&mut chunks, &mut mix_seed(seed));
            chunks
        }
        Delivery::Duplicated => interleave(&per_machine)
            .into_iter()
            .enumerate()
            .flat_map(|(i, chunk)| std::iter::repeat_n(chunk, if i % 9 == 4 { 2 } else { 1 }))
            .collect(),
    })
}

/// One pin-churn session: when it opened, its retention pin, its epoch
/// pin, and that pin's materialization at pin time.
type Session<'g> = (usize, HorizonPin<'g>, EpochSnapshot, Ttkv);

/// Runs one feed row: single-threaded deterministic delivery of its chunk
/// sequence into WAL + sharded store + streaming clustering, with the
/// row's sweeps, pins and surgery, then the four standing checks plus the
/// checks its features call for.
fn run_feed(feed: &Feed, seed: u64, dir: &Path) -> Result<(TtkvStats, Vec<VoprCheck>), String> {
    let chunks = feed_chunks(feed, seed)?;
    let engine = Ocasta::default();
    let mut stream = OcastaStream::new(&engine);
    let sharded = ShardedTtkv::with_seal_threshold(4, feed.seal_threshold);
    let mut reference = Ttkv::new();
    let guard = HorizonGuard::new();
    let mut wal = Wal::open(dir).map_err(|e| format!("open scratch wal: {e}"))?;
    // The sweep target: `retain` behind the latest applied mutation.
    let target = |retain: TimeDelta| {
        sharded
            .last_mutation_time()
            .unwrap_or(Timestamp::EPOCH)
            .saturating_sub(retain)
    };
    // One mid-run sweep, clamped by the live pins: (target, granted).
    let sweep = |wal: &mut Wal, retain: TimeDelta| -> Result<(Timestamp, Timestamp), String> {
        let wanted = target(retain);
        let granted = guard.clamp(wanted);
        if granted > Timestamp::EPOCH {
            sharded.prune_before(granted);
            wal.compact_pruned(PRECISION, granted)
                .map_err(|e| format!("wal compact: {e}"))?;
        }
        Ok((wanted, granted))
    };

    // Pins::SweepVsPin: the pin, where it registered, how many sweeps it
    // clamped, and the horizon of the sweep right after its release.
    let mut pin: Option<HorizonPin<'_>> = None;
    let mut pin_at = Timestamp::EPOCH;
    let mut clamped_while_pinned = 0u64;
    let mut released_to = Timestamp::EPOCH;
    // Pins::Churn: the open sessions, and whether each closed session's
    // epoch pin still materialized its pin-time oracle.
    let mut sessions: Vec<Session<'_>> = Vec::new();
    let mut survived: Vec<bool> = Vec::new();
    let close = |(_, _retention_pin, epoch, oracle): Session<'_>| epoch.materialize() == oracle;

    let total = chunks.len();
    for (i, chunk) in chunks.iter().enumerate() {
        wal.append(chunk).map_err(|e| format!("wal append: {e}"))?;
        for op in chunk {
            // Ops are pre-quantised; milliseconds = apply verbatim.
            op.clone()
                .apply(&mut reference, TimePrecision::Milliseconds);
        }
        stream.absorb_batch(lane_events(chunk));
        sharded.append_routed(chunk.clone());

        let Some(retain) = feed.retain else {
            continue;
        };
        match feed.pins {
            None => {}
            Some(Pins::Churn) => {
                if i % 5 == 2 {
                    let retention_pin = guard.pin(target(retain));
                    let epoch = sharded.pin_epoch();
                    let oracle = epoch.materialize();
                    sessions.push((i, retention_pin, epoch, oracle));
                }
                while sessions
                    .first()
                    .is_some_and(|(opened, ..)| i >= opened + 7 && sessions.len() > 2)
                {
                    survived.push(close(sessions.remove(0)));
                }
            }
            Some(Pins::SweepVsPin) => {
                if pin.is_none() && i + 1 == total / 3 {
                    pin_at = target(retain);
                    pin = Some(guard.pin(pin_at));
                }
                if i + 1 == (2 * total) / 3 {
                    // The session's epoch pin now holds its history, as in
                    // the repair service: it releases its retention pin
                    // (dropped at the end of this statement), and the very
                    // next sweep passes the old pin.
                    let released = pin.take().is_some();
                    if released {
                        released_to = sweep(&mut wal, retain)?.1;
                    }
                    continue;
                }
            }
        }
        if i % 8 == 7 {
            let (wanted, granted) = sweep(&mut wal, retain)?;
            if pin.is_some() && granted < wanted {
                clamped_while_pinned += 1;
            }
        }
    }
    stream.seal();
    drop(pin);

    // The final sweep, shell GC and rebase of a retention feed.
    let mut final_sweep = None;
    let mut shells = 0u64;
    if let Some(retain) = feed.retain {
        let granted = guard.clamp(target(retain));
        sharded.prune_before(granted);
        shells = sharded.gc_dead_shells();
        wal.flush().map_err(|e| format!("wal flush: {e}"))?;
        wal.compact_pruned_rebased(PRECISION, granted)
            .map_err(|e| format!("wal rebase: {e}"))?;
        final_sweep = Some(granted);
    }
    wal.flush().map_err(|e| format!("wal flush: {e}"))?;
    // The sessions still open were pinned *before* the final sweep, shell
    // GC and rebase — each must still materialize its pin-time oracle.
    survived.extend(sessions.drain(..).map(close));

    let mut orphans_swept = true;
    if feed.rebase_crash {
        // Commit a manifest, then leave behind exactly what a compaction
        // that died between its temp writes and the manifest rename
        // would: an unreferenced base layer and a torn manifest temp.
        wal.compact_pruned_rebased(PRECISION, Timestamp::EPOCH)
            .map_err(|e| format!("wal rebase: {e}"))?;
        let orphan = dir.join("base-9999.ttkv");
        let torn = dir.join("wal.manifest.tmp");
        std::fs::write(&orphan, b"interrupted rebase layer")
            .map_err(|e| format!("plant orphan: {e}"))?;
        std::fs::write(&torn, b"torn manifest write")
            .map_err(|e| format!("plant torn manifest: {e}"))?;
        drop(wal);
        wal = Wal::open(dir).map_err(|e| format!("reopen wal: {e}"))?;
        orphans_swept = !orphan.exists() && !torn.exists();
    }

    let snapshot = sharded.snapshot_store();
    let replayed = wal
        .replay(PRECISION)
        .map_err(|e| format!("wal replay: {e}"))?;
    let mut checks = standing_checks(
        &engine,
        &replayed,
        &snapshot,
        ReplayRelation::Equal,
        &stream.clustering().clustering,
        &reference,
        final_sweep,
    );
    if let Some(Edit::KeyChurn { keys, .. }) = feed.edit {
        // The churned keys died before the horizon; GC must have
        // collected their shells, and none may remain afterwards.
        let remaining = snapshot.clone().gc_dead_shells();
        checks.push(VoprCheck {
            name: "no-dead-shells",
            passed: shells >= keys && remaining == 0,
            detail: format!("{shells} shells collected, {remaining} left after GC"),
        });
    }
    match feed.pins {
        None => {}
        Some(Pins::SweepVsPin) => {
            let final_horizon = final_sweep.unwrap_or(Timestamp::EPOCH);
            checks.push(VoprCheck {
                name: "pin-respected-then-advanced",
                passed: clamped_while_pinned >= 1
                    && released_to > pin_at
                    && final_horizon >= released_to,
                detail: format!(
                    "{clamped_while_pinned} sweeps clamped at pin {}ms, \
                     post-release horizon {}ms, final {}ms",
                    pin_at.as_millis(),
                    released_to.as_millis(),
                    final_horizon.as_millis(),
                ),
            });
        }
        Some(Pins::Churn) => {
            let diverged = survived.iter().filter(|same| !**same).count() as u64;
            checks.push(check_pin_churn_sessions(survived.len() as u64, diverged));
            checks.push(check_epoch_equals_clone(
                &snapshot,
                &sharded.snapshot_store_cloned(),
            ));
        }
    }
    if feed.rebase_crash {
        checks.push(VoprCheck {
            name: "orphans-swept",
            passed: orphans_swept,
            detail: "reopen removes the orphan layer and the torn manifest temp".into(),
        });
    }
    Ok((snapshot.stats(), checks))
}

// ---------------------------------------------------------------------
// Engine scenarios: the real concurrent engine with a fault plan.
// ---------------------------------------------------------------------

/// Runs one engine row: `ingest_live` with the row's [`FaultPlan`],
/// analytics tapped through [`WriteLanes`] and the row's epoch pins taken
/// meanwhile, then the standing checks plus one check per injected fault.
fn run_engine(row: &Engine, seed: u64, dir: &Path) -> Result<(TtkvStats, Vec<VoprCheck>), String> {
    let fleet = fleet(row.fleet, seed)?;
    let mut wal = Wal::open(dir).map_err(|e| format!("open scratch wal: {e}"))?;
    let engine = Ocasta::default();
    let sharded = ShardedTtkv::with_seal_threshold(row.config.shards, row.config.seal_threshold);
    let lanes = WriteLanes::new(row.config.shards);
    let guard = HorizonGuard::new();
    // Epoch pins taken while the fault fires: each pin's immediate
    // materialization is its own oracle, re-checked after ingestion
    // settles.
    let mut pins: Vec<(EpochSnapshot, Ttkv)> = Vec::new();
    let wal_ref = &mut wal;
    let result = std::thread::scope(|scope| {
        let ingest = scope.spawn(|| {
            let options = IngestOptions {
                wal: Some(wal_ref),
                tap: Some(&lanes),
                guard: Some(&guard),
                metrics: None,
                faults: Some(&row.faults),
            };
            ingest_live(&fleet, &row.config, &sharded, options)
        });
        for _ in 0..row.pin_churn {
            let pin = sharded.pin_epoch();
            let oracle = pin.materialize();
            pins.push((pin, oracle));
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        ingest.join().expect("ingest driver panicked")
    });
    let mut stream = OcastaStream::new(&engine);
    stream.drain_lanes(&lanes);
    stream.seal();
    let snapshot = sharded.snapshot_store();

    // The unbounded deterministic reference: sequential ingestion of the
    // machines that actually contributed, retention off.
    let killed = row.faults.kill_worker_at_machine;
    let survivors: Vec<MachineSpec> = fleet
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != killed)
        .map(|(_, machine)| machine.clone())
        .collect();
    let reference_config = FleetConfig {
        retention: None,
        ..row.config.clone()
    };
    let reference = ingest_sequential(&survivors, &reference_config);

    let replayed = wal
        .replay(PRECISION)
        .map_err(|e| format!("wal replay: {e}"))?;
    // A dead appender lane loses every batch after its crash.
    let relation = if row.faults.wal_crash_after_frames.is_some() {
        ReplayRelation::StrictPrefix
    } else {
        ReplayRelation::Equal
    };
    let mut checks = standing_checks(
        &engine,
        &replayed,
        &snapshot,
        relation,
        &stream.clustering().clustering,
        &reference,
        None,
    );
    if let Some(killed) = killed {
        let name = &fleet[killed].name;
        let holds = |machine: &str| {
            snapshot.keys().any(|key| {
                key.as_str()
                    .strip_prefix(machine)
                    .is_some_and(|rest| rest.starts_with('/'))
            })
        };
        let named_right = matches!(
            &result,
            Err(IngestError::WorkerPanicked {
                machine: Some(machine),
                ..
            }) if machine == name
        );
        let killed_absent = !holds(name);
        let survivors_present = survivors.iter().all(|machine| holds(&machine.name));
        checks.push(VoprCheck {
            name: "killed-machine-excluded",
            passed: named_right && killed_absent && survivors_present,
            detail: format!(
                "error names {name}: {named_right}, {name} keys absent: {killed_absent}, \
                 survivors present: {survivors_present}"
            ),
        });
    }
    if row.pin_churn > 0 {
        let diverged = pins
            .iter()
            .filter(|(pin, oracle)| &pin.materialize() != oracle)
            .count() as u64;
        let totals: Vec<u64> = pins
            .iter()
            .map(|(_, oracle)| oracle.stats().modifications())
            .collect();
        checks.push(check_pin_churn_sessions(pins.len() as u64, diverged));
        checks.push(check_pin_monotonicity(&totals));
        checks.push(check_epoch_equals_clone(
            &snapshot,
            &sharded.snapshot_store_cloned(),
        ));
    }
    if row.faults.wal_crash_after_frames.is_some() {
        let kept = replayed.stats().modifications();
        let applied = snapshot.stats().modifications();
        checks.push(VoprCheck {
            name: "wal-lane-died-silently",
            passed: result.is_ok() && kept < applied,
            detail: format!(
                "ingest ok: {}, replayed {kept} of {applied} mutations",
                result.is_ok(),
            ),
        });
    }
    if let Some(stop) = row.faults.sweeper_stop_after {
        // Stopped before sweep `stop + 1`: at most `stop` sweeps ran, the
        // report's horizon is the last one's, and the final collect pass
        // never ran.
        let retention = result.as_ref().ok().and_then(|r| r.retention.as_ref());
        let stopped_clean = retention.is_some_and(|r| {
            r.sweeps <= stop && r.horizon.is_some() == (r.sweeps > 0) && r.shells == 0
        });
        checks.push(VoprCheck {
            name: "sweeper-stopped-clean",
            passed: stopped_clean,
            detail: format!(
                "retention report: {:?}",
                retention.map(|r| (r.sweeps, r.horizon, r.shells)),
            ),
        });
    }
    Ok((snapshot.stats(), checks))
}

// ---------------------------------------------------------------------
// The standing four, shared by both scenario classes.
// ---------------------------------------------------------------------

/// Runs the four standing invariant checks in canonical order.
/// `final_sweep` is the horizon of the run's final sweep and shell GC, if
/// it ran one.
fn standing_checks(
    engine: &Ocasta,
    replayed: &Ttkv,
    snapshot: &Ttkv,
    relation: ReplayRelation,
    live_clustering: &Clustering,
    reference: &Ttkv,
    final_sweep: Option<Timestamp>,
) -> Vec<VoprCheck> {
    let batch = engine.cluster_store(reference);
    let (sequential, parallel) = search_both_ways(engine, snapshot);
    let horizon = final_sweep.unwrap_or(Timestamp::EPOCH);
    vec![
        check_replay_matches_store(replayed, snapshot, relation),
        check_stream_equals_batch(live_clustering, &batch),
        check_retention_equivalence(snapshot, reference, horizon, final_sweep.is_some()),
        check_parallel_equals_sequential(&sequential, &parallel),
    ]
}

/// Runs the repair search over the final snapshot twice — sequentially
/// and with three concurrent trial executors — with a never-satisfied
/// oracle, so both sides walk the whole bounded plan.
fn search_both_ways(engine: &Ocasta, snapshot: &Ttkv) -> (SearchOutcome, SearchOutcome) {
    let clusters = ocasta_repair::singleton_clusters(snapshot);
    let frontier = snapshot.last_mutation_time().unwrap_or(Timestamp::EPOCH);
    let config = SearchConfig {
        strategy: SearchStrategy::Dfs,
        window: TimeDelta::from_millis(engine.params().window_ms),
        start_time: Some(frontier.saturating_sub(TimeDelta::from_days(1))),
        ..SearchConfig::default()
    };
    let trial = Trial::new("vopr-probe", |state| {
        let mut shot = Screenshot::new();
        shot.add_if(!state.is_empty(), "populated");
        shot.add("frame");
        shot
    });
    let oracle = FixOracle::element_visible("never-rendered");
    let sequential = search(snapshot, &clusters, &trial, &oracle, &config);
    let parallel = parallel_search(snapshot, &clusters, &trial, &oracle, &config, 3);
    (sequential, parallel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocasta_ttkv::Key;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn small_store() -> Ttkv {
        let mut store = Ttkv::new();
        store.write(ts(10), "app/a", Value::from(1));
        store.write(ts(20), "app/b", Value::from(2));
        store.delete(ts(30), "app/a");
        store.add_reads(Key::new("app/b"), 4);
        store
    }

    #[test]
    fn scenario_names_are_stable_and_unknown_names_rejected() {
        assert_eq!(vopr_scenario_names().len(), 13);
        assert!(vopr_scenario_names().contains(&"pin-churn"));
        assert!(vopr_scenario_names().contains(&"killed-worker-amid-pin-churn"));
        assert!(vopr_scenario_names().contains(&"baseline"));
        let err = run_vopr("warp-core-breach", 7).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        assert!(err.contains("baseline"), "lists valid names: {err}");
    }

    // Satellite: mutation-style tests — every checker must FAIL when fed
    // deliberately broken input, or a regressed invariant would sail
    // through as a green verdict.

    #[test]
    fn replay_check_fails_on_divergence() {
        let live = small_store();
        assert!(check_replay_matches_store(&live.clone(), &live, ReplayRelation::Equal).passed);

        let mut diverged = live.clone();
        diverged.write(ts(99), "app/extra", Value::from(true));
        assert!(
            !check_replay_matches_store(&diverged, &live, ReplayRelation::Equal).passed,
            "an extra replayed write must fail the equality check"
        );

        // Strict prefix: a true prefix passes…
        let mut prefix = Ttkv::new();
        prefix.write(ts(10), "app/a", Value::from(1));
        assert!(check_replay_matches_store(&prefix, &live, ReplayRelation::StrictPrefix).passed);
        // …an identical store is not *strict*…
        assert!(
            !check_replay_matches_store(&live.clone(), &live, ReplayRelation::StrictPrefix).passed
        );
        // …and a replay holding a key the live store lacks must fail.
        let mut superset = Ttkv::new();
        superset.write(ts(10), "app/ghost", Value::from(1));
        assert!(!check_replay_matches_store(&superset, &live, ReplayRelation::StrictPrefix).passed);
    }

    #[test]
    fn stream_check_fails_on_divergent_clusterings() {
        let engine = Ocasta::default();
        let store = small_store();
        let same = engine.cluster_store(&store);
        assert!(check_stream_equals_batch(&same, &engine.cluster_store(&store)).passed);

        let mut other_store = store.clone();
        other_store.write(ts(10), "app/c", Value::from(3));
        let other = engine.cluster_store(&other_store);
        assert!(
            !check_stream_equals_batch(&same, &other).passed,
            "a clustering missing a key must fail"
        );
    }

    #[test]
    fn retention_check_fails_on_wrong_horizon_or_skipped_gc() {
        // Unbounded reference with a key that dies before the horizon.
        let mut unbounded = Ttkv::new();
        unbounded.write(ts(10), "app/doomed", Value::from(1));
        unbounded.delete(ts(20), "app/doomed");
        unbounded.write(ts(1_000), "app/alive", Value::from(2));

        let mut retained = unbounded.clone();
        retained.prune_before(ts(500));
        let collected = retained.gc_dead_shells();
        assert_eq!(collected, 1);
        assert!(check_retention_equivalence(&retained, &unbounded, ts(500), true).passed);

        // Mutations: wrong horizon, and GC flag that does not match the run.
        assert!(!check_retention_equivalence(&retained, &unbounded, ts(5), true).passed);
        assert!(
            !check_retention_equivalence(&retained, &unbounded, ts(500), false).passed,
            "a run that GC'd must not verify against an un-GC'd expectation"
        );
    }

    #[test]
    fn search_check_fails_on_perturbed_outcome() {
        let engine = Ocasta::default();
        let store = small_store();
        let (sequential, parallel) = search_both_ways(&engine, &store);
        assert!(check_parallel_equals_sequential(&sequential, &parallel).passed);

        let mut skewed = parallel.clone();
        skewed.total_trials += 1;
        assert!(
            !check_parallel_equals_sequential(&sequential, &skewed).passed,
            "one extra trial must fail the field-for-field comparison"
        );
    }

    #[test]
    fn epoch_clone_check_fails_on_divergence() {
        let store = small_store();
        assert!(check_epoch_equals_clone(&store, &store.clone()).passed);

        let mut diverged = store.clone();
        diverged.write(ts(99), "app/extra", Value::from(true));
        assert!(
            !check_epoch_equals_clone(&store, &diverged).passed,
            "an epoch pin that drifted from the clone oracle must fail"
        );
    }

    #[test]
    fn pin_churn_check_fails_on_divergence_or_empty_run() {
        assert!(check_pin_churn_sessions(12, 0).passed);
        assert!(
            !check_pin_churn_sessions(12, 1).passed,
            "one diverged session must fail the check"
        );
        assert!(
            !check_pin_churn_sessions(0, 0).passed,
            "a run that opened no sessions proves nothing and must fail"
        );
    }

    #[test]
    fn pin_monotonicity_check_detects_inversions() {
        assert!(check_pin_monotonicity(&[1, 5, 5, 9]).passed);
        assert!(check_pin_monotonicity(&[]).passed, "vacuously monotone");
        assert!(
            !check_pin_monotonicity(&[1, 9, 5]).passed,
            "a later pin with fewer mutations than an earlier one is an inversion"
        );
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        let mut a: Vec<u32> = (0..32).collect();
        let mut b: Vec<u32> = (0..32).collect();
        let mut sa = mix_seed(42);
        let mut sb = mix_seed(42);
        shuffle(&mut a, &mut sa);
        shuffle(&mut b, &mut sb);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..32).collect();
        let mut sc = mix_seed(43);
        shuffle(&mut c, &mut sc);
        assert_ne!(a, c, "different seeds shuffle differently");
    }

    #[test]
    fn report_renders_failures_with_detail() {
        let outcome = VoprOutcome {
            scenario: "baseline",
            seed: 7,
            machines: 3,
            days: 4,
            mutations: 100,
            reads: 200,
            checks: vec![
                VoprCheck {
                    name: "replay-matches-store",
                    passed: true,
                    detail: "irrelevant".into(),
                },
                VoprCheck {
                    name: "retention-equivalence",
                    passed: false,
                    detail: "retained 1 keys vs expected 2 keys".into(),
                },
            ],
        };
        assert!(!outcome.passed());
        let report = outcome.report();
        assert!(report.contains("vopr scenario=baseline seed=7"));
        assert!(report.contains("check replay-matches-store: PASS"));
        assert!(report.contains("check retention-equivalence: FAIL - retained 1 keys"));
        assert!(report.contains("verdict: FAIL (2 checks, 1 failures)"));
    }
}
