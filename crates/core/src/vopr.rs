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
//! Scenarios fall in two classes. *Feed-driven* scenarios perturb a
//! deterministic single-threaded delivery of the fleet's op stream
//! (stragglers, clock skew, duplicates, reordering, churn, pinned
//! sweeps); *engine* scenarios run the real concurrent engine with a
//! [`FaultPlan`] injected (a killed ingest worker, a silently dead WAL
//! appender, a sweeper stopped mid-flight) or crash the WAL's compaction
//! by hand and reopen. Each scenario may append extra scenario-specific
//! checks after the standing four.
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
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ocasta_fleet::{
    ingest_live, ingest_sequential, EpochSnapshot, FaultPlan, FleetConfig, IngestError,
    IngestOptions, KeyPlacement, MachineSpec, RetentionPolicy, ShardedTtkv, Wal, WriteLanes,
};
use ocasta_repair::{
    parallel_search, search, FixOracle, Screenshot, SearchConfig, SearchOutcome, SearchStrategy,
    Trial,
};
use ocasta_trace::{AccessEvent, TraceOp};
use ocasta_ttkv::{HorizonGuard, HorizonPin, TimeDelta, TimePrecision, Timestamp, Ttkv, Value};

use crate::fleet::{fleet_machines, FleetRunConfig};
use crate::pipeline::{Clustering, Ocasta};
use crate::stream::OcastaStream;

/// Timestamp quantisation every VOPR run ingests at (the fleet default).
const PRECISION: TimePrecision = TimePrecision::Seconds;

/// Ops per delivered feed chunk (the feed-driven unit of interleaving).
const CHUNK: usize = 64;

/// The scenario catalog, in canonical order.
const SCENARIOS: &[&str] = &[
    "baseline",
    "straggler-machine",
    "clock-skew",
    "duplicate-feed",
    "reorder-feed",
    "dead-shell-churn",
    "sweep-vs-pin",
    "pin-churn",
    "kill-ingest-worker",
    "wal-appender-crash",
    "crash-mid-sweep",
    "crash-mid-rebase",
    "killed-worker-amid-pin-churn",
];

/// Every scenario name `vopr` accepts, in canonical order.
pub fn vopr_scenario_names() -> &'static [&'static str] {
    SCENARIOS
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
pub enum ReplayRelation {
    /// Replay reproduces the store exactly (every healthy-lane scenario).
    Equal,
    /// Replay is a strict prefix: strictly fewer mutations, and no key
    /// counter exceeding the live store's (a silently dead appender lane
    /// loses batches but never invents or reorders them).
    StrictPrefix,
}

/// Standing invariant 1: replaying the WAL reproduces the live store.
pub fn check_replay_matches_store(
    replayed: &Ttkv,
    live: &Ttkv,
    relation: ReplayRelation,
) -> VoprCheck {
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
pub fn check_stream_equals_batch(live: &Clustering, batch: &Clustering) -> VoprCheck {
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
pub fn check_retention_equivalence(
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
pub fn check_parallel_equals_sequential(
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
pub fn check_epoch_equals_clone(epoch: &Ttkv, clone: &Ttkv) -> VoprCheck {
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
pub fn check_pin_churn_sessions(checked: u64, diverged: u64) -> VoprCheck {
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
pub fn check_pin_monotonicity(mutation_totals: &[u64]) -> VoprCheck {
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
    let scenario = SCENARIOS
        .iter()
        .copied()
        .find(|s| *s == scenario)
        .ok_or_else(|| {
            format!(
                "unknown scenario `{scenario}` (try: {})",
                SCENARIOS.join(", ")
            )
        })?;
    let dir = scratch_dir(scenario, seed);
    let _ = std::fs::remove_dir_all(&dir);
    let result = match scenario {
        "kill-ingest-worker"
        | "wal-appender-crash"
        | "crash-mid-sweep"
        | "killed-worker-amid-pin-churn" => run_engine_scenario(scenario, seed, &dir),
        _ => run_feed_scenario(scenario, seed, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
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
// Feed-driven scenarios.
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

/// The mutation event a chunked op contributes to the analytics stream
/// (reads carry no co-modification signal), mirroring the fleet tap.
fn lane_event(op: &TraceOp) -> Option<(ocasta_ttkv::Key, Timestamp)> {
    match op {
        TraceOp::Mutation(event) => Some((event.key.clone(), event.timestamp)),
        TraceOp::Reads(..) => None,
    }
}

/// Builds the per-machine quantised op streams for a feed scenario,
/// including scenario-specific op edits (clock skew, churn injection).
fn feed_machine_ops(
    scenario: &str,
    seed: u64,
    machines: usize,
    days: u64,
) -> Result<Vec<Vec<TraceOp>>, String> {
    let config = FleetRunConfig {
        machines,
        days,
        seed,
        apps: vec!["gedit".into(), "evolution".into()],
        ..FleetRunConfig::default()
    };
    let specs = fleet_machines(&config)?;
    let mut per_machine: Vec<Vec<TraceOp>> = specs
        .iter()
        .map(|machine| machine.stream().map(quantize).collect())
        .collect();
    match scenario {
        "clock-skew" => {
            // Machine 1's clock runs six hours fast: every mutation it
            // reports lands ahead of the rest of the fleet.
            let skew = TimeDelta::from_secs(6 * 3600);
            for op in &mut per_machine[1] {
                if let TraceOp::Mutation(event) = op {
                    event.timestamp += skew;
                }
            }
        }
        "dead-shell-churn" => {
            // Machine 0 additionally churns short-lived keys: written,
            // read, deleted within the first day — all reclaimed by the
            // final horizon, leaving counter-only shells unless GC runs.
            for i in 0..48u64 {
                let born = Timestamp::from_secs(3_600 + i * 120);
                let key = format!("churn/k{i:02}");
                per_machine[0].push(TraceOp::Mutation(AccessEvent::write(
                    born,
                    key.clone(),
                    Value::from(i as i64),
                )));
                per_machine[0].push(TraceOp::Reads(key.clone().into(), 3));
                per_machine[0].push(TraceOp::Mutation(AccessEvent::delete(
                    born + TimeDelta::from_mins(30),
                    key,
                )));
            }
        }
        _ => {}
    }
    Ok(per_machine)
}

/// Chunks each machine's ops and interleaves the chunks round-robin —
/// the deterministic stand-in for concurrent machine delivery.
fn interleave(per_machine: Vec<Vec<TraceOp>>, order: &[usize]) -> Vec<Vec<TraceOp>> {
    let mut queues: Vec<std::collections::VecDeque<Vec<TraceOp>>> = per_machine
        .into_iter()
        .map(|ops| {
            let mut chunks = std::collections::VecDeque::new();
            let mut ops = ops.into_iter().peekable();
            while ops.peek().is_some() {
                chunks.push_back(ops.by_ref().take(CHUNK).collect());
            }
            chunks
        })
        .collect();
    let mut feed = Vec::new();
    let mut drained = false;
    while !drained {
        drained = true;
        for &machine in order {
            if let Some(chunk) = queues[machine].pop_front() {
                feed.push(chunk);
                drained = false;
            }
        }
    }
    feed
}

/// Builds the delivered chunk sequence for a feed scenario.
fn feed_chunks(
    scenario: &str,
    seed: u64,
    machines: usize,
    days: u64,
) -> Result<Vec<Vec<TraceOp>>, String> {
    let per_machine = feed_machine_ops(scenario, seed, machines, days)?;
    let mut chunks = match scenario {
        // Machine 0's whole stream arrives only after everyone else
        // finished — a straggler re-sending its backlog at the end.
        "straggler-machine" => {
            let mut rest: Vec<Vec<TraceOp>> = per_machine.clone();
            let straggler = rest.remove(0);
            let mut feed = interleave(rest, &[0, 1]);
            feed.extend(interleave(vec![straggler], &[0]));
            feed
        }
        _ => {
            let order: Vec<usize> = (0..per_machine.len()).collect();
            interleave(per_machine, &order)
        }
    };
    match scenario {
        "reorder-feed" => {
            let mut state = mix_seed(seed);
            shuffle(&mut chunks, &mut state);
        }
        "duplicate-feed" => {
            // Every ninth chunk is delivered twice (an at-least-once
            // transport retrying): all consumers see the duplicate.
            let mut duplicated = Vec::with_capacity(chunks.len() + chunks.len() / 9 + 1);
            for (i, chunk) in chunks.into_iter().enumerate() {
                let again = i % 9 == 4;
                duplicated.push(chunk.clone());
                if again {
                    duplicated.push(chunk);
                }
            }
            chunks = duplicated;
        }
        _ => {}
    }
    Ok(chunks)
}

/// Runs one feed-driven scenario: single-threaded deterministic delivery
/// of the chunk sequence into WAL + sharded store + streaming clustering,
/// with scenario-driven retention sweeps, then the four standing checks
/// plus the scenario's extras.
fn run_feed_scenario(
    scenario: &'static str,
    seed: u64,
    dir: &std::path::Path,
) -> Result<VoprOutcome, String> {
    let (machines, days) = (3usize, 4u64);
    let chunks = feed_chunks(scenario, seed, machines, days)?;
    let retain = matches!(scenario, "dead-shell-churn" | "sweep-vs-pin" | "pin-churn")
        .then(|| TimeDelta::from_days(1));

    let engine = Ocasta::default();
    let mut stream = OcastaStream::new(&engine);
    // pin-churn seals aggressively so the sessions' epoch pins reference
    // real sealed segments, not just tail clones.
    let sharded = if scenario == "pin-churn" {
        ShardedTtkv::with_seal_threshold(4, 128)
    } else {
        ShardedTtkv::new(4)
    };
    let mut reference = Ttkv::new();
    let guard = HorizonGuard::new();
    let mut wal = Wal::open(dir).map_err(|e| format!("open scratch wal: {e}"))?;

    // sweep-vs-pin bookkeeping: where the pin registered, how many sweeps
    // it clamped, and the horizon of the first sweep after its release.
    let mut pin: Option<HorizonPin<'_>> = None;
    let mut pin_at = Timestamp::EPOCH;
    let mut clamped_while_pinned = 0u64;
    let mut post_release_horizon: Option<Timestamp> = None;

    // pin-churn bookkeeping: short-lived sessions, each holding a
    // retention pin (so sweeps clamp around it, composing with the
    // HorizonGuard registry) plus an epoch pin with its pin-time
    // materialization as the oracle. Sessions open every 5th chunk and
    // close ~7 chunks later; a few stay open across the final
    // sweep + shell-GC + rebase to prove a pinned generation outlives
    // even the rebase.
    let mut churn_sessions: Vec<(usize, HorizonPin<'_>, EpochSnapshot, Ttkv)> = Vec::new();
    let mut sessions_checked = 0u64;
    let mut sessions_diverged = 0u64;
    fn close_session(
        session: (usize, HorizonPin<'_>, EpochSnapshot, Ttkv),
        checked: &mut u64,
        diverged: &mut u64,
    ) {
        let (_, _retention_pin, epoch, oracle) = session;
        *checked += 1;
        if epoch.materialize() != oracle {
            *diverged += 1;
        }
        // `_retention_pin` drops here: the sweeper may pass this point now.
    }

    let total = chunks.len();
    for (i, chunk) in chunks.iter().enumerate() {
        wal.append(chunk).map_err(|e| format!("wal append: {e}"))?;
        for op in chunk {
            // Ops are pre-quantised; milliseconds = apply verbatim.
            op.clone()
                .apply(&mut reference, TimePrecision::Milliseconds);
        }
        stream.absorb_batch(chunk.iter().filter_map(lane_event));
        sharded.append_routed(chunk.clone());

        if scenario == "pin-churn" {
            if let Some(retain) = retain {
                // Open a short session every 5th chunk: retention pin at
                // frontier − retain, epoch pin, pin-time oracle.
                if i % 5 == 2 {
                    let frontier = sharded.last_mutation_time().unwrap_or(Timestamp::EPOCH);
                    let retention_pin = guard.pin(frontier.saturating_sub(retain));
                    let epoch = sharded.pin_epoch();
                    let oracle = epoch.materialize();
                    churn_sessions.push((i, retention_pin, epoch, oracle));
                }
                // Close (and verify) sessions open for ~7 chunks — except
                // a straggler cohort held across the run's end.
                while churn_sessions
                    .first()
                    .is_some_and(|(opened, ..)| i >= opened + 7 && churn_sessions.len() > 2)
                {
                    close_session(
                        churn_sessions.remove(0),
                        &mut sessions_checked,
                        &mut sessions_diverged,
                    );
                }
            }
        }
        if scenario == "sweep-vs-pin" && pin.is_none() && i + 1 == total / 3 {
            // A repair session registers needing history from the current
            // sweep target onwards: as the frontier moves on, every later
            // sweep wants to pass this pin and must be clamped.
            if let Some(retain) = retain {
                let frontier = sharded.last_mutation_time().unwrap_or(Timestamp::EPOCH);
                pin_at = frontier.saturating_sub(retain);
                pin = Some(guard.pin(pin_at));
            }
        }
        let release_now = scenario == "sweep-vs-pin" && i + 1 == (2 * total) / 3;
        if release_now {
            // The session's epoch pin now holds its history, as in the
            // repair service: it releases its retention pin, and the very
            // next sweep passes the old pin. The pin drops at the end of
            // this statement, before the sweep asks for its horizon.
            let released = pin.take().is_some();
            if let (true, Some(retain)) = (released, retain) {
                let frontier = sharded.last_mutation_time().unwrap_or(Timestamp::EPOCH);
                let granted = guard.clamp(frontier.saturating_sub(retain));
                if granted > Timestamp::EPOCH {
                    sharded.prune_before(granted);
                    wal.compact_pruned(PRECISION, granted)
                        .map_err(|e| format!("wal compact: {e}"))?;
                }
                post_release_horizon = Some(granted);
            }
        } else if let Some(retain) = retain {
            if i % 8 == 7 {
                let frontier = sharded.last_mutation_time().unwrap_or(Timestamp::EPOCH);
                let target = frontier.saturating_sub(retain);
                let granted = guard.clamp(target);
                if pin.is_some() && granted < target {
                    clamped_while_pinned += 1;
                }
                if granted > Timestamp::EPOCH {
                    sharded.prune_before(granted);
                    wal.compact_pruned(PRECISION, granted)
                        .map_err(|e| format!("wal compact: {e}"))?;
                }
            }
        }
    }
    stream.seal();
    drop(pin);

    // Finish: final sweep + shell GC (retention scenarios), or the
    // crash-mid-rebase surgery, or nothing.
    let mut final_horizon = Timestamp::EPOCH;
    let mut did_gc = false;
    let mut shells = 0u64;
    if let Some(retain) = retain {
        let frontier = sharded.last_mutation_time().unwrap_or(Timestamp::EPOCH);
        let granted = guard.clamp(frontier.saturating_sub(retain));
        final_horizon = granted;
        sharded.prune_before(granted);
        shells = sharded.gc_dead_shells();
        did_gc = true;
        wal.flush().map_err(|e| format!("wal flush: {e}"))?;
        wal.compact_pruned_rebased(PRECISION, granted)
            .map_err(|e| format!("wal rebase: {e}"))?;
    }
    wal.flush().map_err(|e| format!("wal flush: {e}"))?;

    // pin-churn stragglers: their epochs were pinned *before* the final
    // sweep, shell-GC and rebase — each must still materialize its
    // pin-time oracle exactly.
    for session in churn_sessions.drain(..) {
        close_session(session, &mut sessions_checked, &mut sessions_diverged);
    }

    let mut orphans_swept = true;
    if scenario == "crash-mid-rebase" {
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
    let live_clustering = stream.clustering();

    let mut checks = standing_checks(
        &engine,
        &replayed,
        &snapshot,
        ReplayRelation::Equal,
        &live_clustering.clustering,
        &reference,
        final_horizon,
        did_gc,
    );
    match scenario {
        "dead-shell-churn" => {
            // The churned keys died before the horizon; GC must have
            // collected their shells, and none may remain afterwards.
            let mut probe = snapshot.clone();
            let remaining = probe.gc_dead_shells();
            checks.push(VoprCheck {
                name: "no-dead-shells",
                passed: shells >= 48 && remaining == 0,
                detail: format!("{shells} shells collected, {remaining} left after GC"),
            });
        }
        "sweep-vs-pin" => {
            let released = post_release_horizon.unwrap_or(Timestamp::EPOCH);
            checks.push(VoprCheck {
                name: "pin-respected-then-advanced",
                passed: clamped_while_pinned >= 1 && released > pin_at && final_horizon >= released,
                detail: format!(
                    "{clamped_while_pinned} sweeps clamped at pin {}ms, \
                     post-release horizon {}ms, final {}ms",
                    pin_at.as_millis(),
                    released.as_millis(),
                    final_horizon.as_millis(),
                ),
            });
        }
        "pin-churn" => {
            checks.push(check_pin_churn_sessions(
                sessions_checked,
                sessions_diverged,
            ));
            checks.push(check_epoch_equals_clone(
                &snapshot,
                &sharded.snapshot_store_cloned(),
            ));
        }
        "crash-mid-rebase" => {
            checks.push(VoprCheck {
                name: "orphans-swept",
                passed: orphans_swept,
                detail: "reopen removes the orphan layer and the torn manifest temp".into(),
            });
        }
        _ => {}
    }

    let stats = snapshot.stats();
    Ok(VoprOutcome {
        scenario,
        seed,
        machines,
        days,
        mutations: stats.writes + stats.deletes,
        reads: stats.reads,
        checks,
    })
}

// ---------------------------------------------------------------------
// Engine scenarios: the real concurrent engine with a fault plan.
// ---------------------------------------------------------------------

/// Runs one engine scenario: `ingest_live` with an injected [`FaultPlan`],
/// analytics tapped through [`WriteLanes`], then the standing checks plus
/// the scenario's extras.
fn run_engine_scenario(
    scenario: &'static str,
    seed: u64,
    dir: &std::path::Path,
) -> Result<VoprOutcome, String> {
    let (machines_n, days, config, faults) = match scenario {
        "kill-ingest-worker" => (
            4usize,
            3u64,
            FleetConfig {
                shards: 4,
                ingest_threads: 2,
                batch_size: 64,
                precision: PRECISION,
                // Per-machine keyspace so the killed machine's absence is
                // visible in the store itself.
                placement: KeyPlacement::PerMachine,
                retention: None,
                seal_threshold: 256,
            },
            FaultPlan {
                kill_worker_at_machine: Some(1),
                ..FaultPlan::default()
            },
        ),
        "wal-appender-crash" => (
            2usize,
            3u64,
            FleetConfig {
                shards: 4,
                ingest_threads: 1,
                batch_size: 32,
                precision: PRECISION,
                placement: KeyPlacement::Merged,
                retention: None,
                seal_threshold: 256,
            },
            FaultPlan {
                wal_crash_after_frames: Some(5),
                ..FaultPlan::default()
            },
        ),
        "killed-worker-amid-pin-churn" => (
            4usize,
            3u64,
            FleetConfig {
                shards: 4,
                ingest_threads: 2,
                batch_size: 64,
                precision: PRECISION,
                // Per-machine keyspace so the killed machine's absence is
                // visible in the store itself.
                placement: KeyPlacement::PerMachine,
                retention: None,
                // Small enough that pins land mid-seal, not just between
                // quiescent segments.
                seal_threshold: 192,
            },
            FaultPlan {
                kill_worker_at_machine: Some(1),
                ..FaultPlan::default()
            },
        ),
        "crash-mid-sweep" => (
            3usize,
            6u64,
            FleetConfig {
                shards: 4,
                ingest_threads: 2,
                batch_size: 64,
                precision: PRECISION,
                // Per-machine keyspace: with merged keys the two workers
                // race to apply two machines' same-timestamp writes to one
                // key, an order the sequential reference cannot predict
                // (failing_seeds/006).
                placement: KeyPlacement::PerMachine,
                retention: Some(RetentionPolicy::keep_days(2)),
                seal_threshold: 256,
            },
            FaultPlan {
                sweeper_stop_after: Some(0),
                ..FaultPlan::default()
            },
        ),
        other => return Err(format!("`{other}` is not an engine scenario")),
    };
    let run_config = FleetRunConfig {
        machines: machines_n,
        days,
        seed,
        apps: vec!["gedit".into(), "evolution".into()],
        engine: config.clone(),
        wal_dir: None,
    };
    let machines = fleet_machines(&run_config)?;
    let mut wal = Wal::open(dir).map_err(|e| format!("open scratch wal: {e}"))?;
    let engine = Ocasta::default();
    let sharded = ShardedTtkv::with_seal_threshold(config.shards, config.seal_threshold);
    let lanes = WriteLanes::new(config.shards);
    let guard = HorizonGuard::new();
    // Epoch pins churned *while* the fault fires (killed-worker-amid-
    // pin-churn only): each pin's immediate materialization is its own
    // oracle, re-checked after ingestion settles.
    let mut churned_pins: Vec<(EpochSnapshot, Ttkv)> = Vec::new();
    let result = if scenario == "killed-worker-amid-pin-churn" {
        let (wal_ref, pins_ref) = (&mut wal, &mut churned_pins);
        std::thread::scope(|scope| {
            let ingest = scope.spawn(|| {
                ingest_live(
                    &machines,
                    &config,
                    &sharded,
                    IngestOptions {
                        wal: Some(wal_ref),
                        tap: Some(&lanes),
                        guard: Some(&guard),
                        metrics: None,
                        faults: Some(&faults),
                    },
                )
            });
            for _ in 0..32 {
                let pin = sharded.pin_epoch();
                let oracle = pin.materialize();
                pins_ref.push((pin, oracle));
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            ingest.join().expect("ingest driver panicked")
        })
    } else {
        ingest_live(
            &machines,
            &config,
            &sharded,
            IngestOptions {
                wal: Some(&mut wal),
                tap: Some(&lanes),
                guard: Some(&guard),
                metrics: None,
                faults: Some(&faults),
            },
        )
    };
    let mut stream = OcastaStream::new(&engine);
    stream.drain_lanes(&lanes);
    stream.seal();
    let snapshot = sharded.snapshot_store();

    // The unbounded deterministic reference: sequential ingestion of the
    // machines that actually contributed, retention off.
    let surviving: Vec<MachineSpec> = match scenario {
        "kill-ingest-worker" | "killed-worker-amid-pin-churn" => machines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, m)| m.clone())
            .collect(),
        _ => machines.clone(),
    };
    let reference_config = FleetConfig {
        retention: None,
        ..config.clone()
    };
    let reference = ingest_sequential(&surviving, &reference_config);

    let replayed = wal
        .replay(PRECISION)
        .map_err(|e| format!("wal replay: {e}"))?;
    let relation = if scenario == "wal-appender-crash" {
        ReplayRelation::StrictPrefix
    } else {
        ReplayRelation::Equal
    };
    let live_clustering = stream.clustering();
    let mut checks = standing_checks(
        &engine,
        &replayed,
        &snapshot,
        relation,
        &live_clustering.clustering,
        &reference,
        Timestamp::EPOCH,
        false,
    );
    match scenario {
        "kill-ingest-worker" | "killed-worker-amid-pin-churn" => {
            let named_right = matches!(
                &result,
                Err(IngestError::WorkerPanicked {
                    machine: Some(name),
                    ..
                }) if name == "m001"
            );
            let killed_absent = snapshot.keys().all(|k| !k.as_str().starts_with("m001/"));
            let survivors_present = snapshot.keys().any(|k| k.as_str().starts_with("m000/"))
                && snapshot.keys().any(|k| k.as_str().starts_with("m003/"));
            checks.push(VoprCheck {
                name: "killed-machine-excluded",
                passed: named_right && killed_absent && survivors_present,
                detail: format!(
                    "error names m001: {named_right}, m001 keys absent: {killed_absent}, \
                     survivors present: {survivors_present}"
                ),
            });
            if scenario == "killed-worker-amid-pin-churn" {
                let diverged = churned_pins
                    .iter()
                    .filter(|(pin, oracle)| &pin.materialize() != oracle)
                    .count() as u64;
                let totals: Vec<u64> = churned_pins
                    .iter()
                    .map(|(_, oracle)| {
                        let s = oracle.stats();
                        s.writes + s.deletes
                    })
                    .collect();
                checks.push(check_pin_churn_sessions(
                    churned_pins.len() as u64,
                    diverged,
                ));
                checks.push(check_pin_monotonicity(&totals));
                checks.push(check_epoch_equals_clone(
                    &snapshot,
                    &sharded.snapshot_store_cloned(),
                ));
            }
        }
        "wal-appender-crash" => {
            let (r, l) = (replayed.stats(), snapshot.stats());
            checks.push(VoprCheck {
                name: "wal-lane-died-silently",
                passed: result.is_ok() && r.writes + r.deletes < l.writes + l.deletes,
                detail: format!(
                    "ingest ok: {}, replayed {} of {} mutations",
                    result.is_ok(),
                    r.writes + r.deletes,
                    l.writes + l.deletes,
                ),
            });
        }
        "crash-mid-sweep" => {
            let retention = result.as_ref().ok().and_then(|r| r.retention.as_ref());
            let stopped_clean =
                retention.is_some_and(|r| r.sweeps == 0 && r.horizon.is_none() && r.shells == 0);
            checks.push(VoprCheck {
                name: "sweeper-stopped-clean",
                passed: stopped_clean,
                detail: format!(
                    "retention report: {:?}",
                    retention.map(|r| (r.sweeps, r.horizon, r.shells)),
                ),
            });
        }
        _ => {}
    }

    let stats = snapshot.stats();
    Ok(VoprOutcome {
        scenario,
        seed,
        machines: machines_n,
        days,
        mutations: stats.writes + stats.deletes,
        reads: stats.reads,
        checks,
    })
}

// ---------------------------------------------------------------------
// The standing four, shared by both scenario classes.
// ---------------------------------------------------------------------

/// Runs the four standing invariant checks in canonical order.
#[allow(clippy::too_many_arguments)]
fn standing_checks(
    engine: &Ocasta,
    replayed: &Ttkv,
    snapshot: &Ttkv,
    relation: ReplayRelation,
    live_clustering: &Clustering,
    reference: &Ttkv,
    final_horizon: Timestamp,
    did_gc: bool,
) -> Vec<VoprCheck> {
    let batch = engine.cluster_store(reference);
    let (sequential, parallel) = search_both_ways(engine, snapshot);
    vec![
        check_replay_matches_store(replayed, snapshot, relation),
        check_stream_equals_batch(live_clustering, &batch),
        check_retention_equivalence(snapshot, reference, final_horizon, did_gc),
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
