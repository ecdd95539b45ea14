//! Rollback-search cost versus history size and trial-executor threads.
//!
//! The repair search's cost is dominated by trial execution: every
//! candidate rollback is patched into the executor's one sandbox, rendered,
//! and undone again. The sweep grows one scenario's recorded history
//! (`ocasta repair`'s inputs get bigger as a deployment ages — more
//! transactions per cluster means more candidates) and runs the search to
//! exhaustion sequentially and with 2/4 concurrent trial executors, via
//! `cargo run -p ocasta-bench --bin repair --release`.
//!
//! Every parallel outcome is asserted equal to the sequential one — the
//! sweep doubles as an equivalence check (the same invariant the property
//! suite in `crates/repair/tests/prop.rs` covers on random histories), so
//! a regression cannot produce a plausible-looking table.
//!
//! A second sweep times *session open*: a repair session pins a
//! consistent point-in-time store before searching, and since the
//! sealed-segment refactor that pin is O(shards) (`pin_epoch`) instead of
//! O(live state) (the clone-under-lock yardstick, kept for comparison and
//! asserted equivalent at every size). The `session_open_us` figure is
//! gated against `baselines/BENCH_repair.json` by `bench-compare`.

use std::time::Instant;

use ocasta::{parallel_search, prepare_store, search, ScenarioConfig};
use ocasta::{Ocasta, SearchConfig, SearchOutcome, TimeDelta};

use crate::render_table;

/// The Table III error the sweep repairs (Chrome's missing bookmark bar —
/// a long trace with steady churn).
pub const SCENARIO_ID: usize = 13;
/// Trace lengths (days) the history grows through. (The shortest trace
/// must exceed the scenario's 14-day injection age, or the injection
/// saturates to the epoch and rolls back onto itself.)
pub const DAYS: [u64; 4] = [21, 42, 63, 84];
/// Trial-executor thread counts the sweep compares.
pub const THREADS: [usize; 2] = [2, 4];
/// Live-state sizes (mutations) the session-open sweep grows through.
pub const SESSION_STATE_OPS: [usize; 3] = [10_000, 40_000, 160_000];
/// Sessions opened (and timed) per state size.
pub const SESSION_OPENS: usize = 64;

/// One row of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Trace length in days.
    pub days: u64,
    /// Mutation events in the prepared store.
    pub events: u64,
    /// Trials the exhaustive search executed.
    pub trials: usize,
    /// Sequential search wall-clock, milliseconds.
    pub sequential_ms: f64,
    /// Parallel search wall-clock per thread count, milliseconds
    /// (same order as [`THREADS`]).
    pub parallel_ms: Vec<f64>,
}

/// Runs the sweep.
///
/// # Panics
///
/// Panics if any parallel outcome differs from the sequential one.
pub fn sweep(days: &[u64], threads: &[usize]) -> Vec<Sample> {
    let all = ocasta::scenarios();
    let base = all
        .iter()
        .find(|s| s.id == SCENARIO_ID)
        .expect("scenario exists");
    let mut samples = Vec::new();
    for &d in days {
        let mut scenario = base.clone();
        scenario.trace_days = d;
        let config = ScenarioConfig {
            // Search the whole history so cost scales with its size.
            start_bound_days: None,
            ..ScenarioConfig::default()
        };
        let (store, _inject_at) = prepare_store(&scenario, &config);
        let clusters = Ocasta::new(config.params).cluster_store(&store);
        let search_config = SearchConfig {
            window: TimeDelta::from_millis(config.params.window_ms),
            trial_cost: scenario.trial_cost,
            ..SearchConfig::default()
        };
        let trial = scenario.trial();
        let oracle = scenario.oracle();

        let started = Instant::now();
        let sequential = search(&store, clusters.clusters(), &trial, &oracle, &search_config);
        let sequential_ms = started.elapsed().as_secs_f64() * 1e3;
        assert!(sequential.is_fixed(), "scenario must be repairable");

        let mut parallel_ms = Vec::new();
        for &n in threads {
            let started = Instant::now();
            let parallel = parallel_search(
                &store,
                clusters.clusters(),
                &trial,
                &oracle,
                &search_config,
                n,
            );
            parallel_ms.push(started.elapsed().as_secs_f64() * 1e3);
            assert_outcomes_equal(&sequential, &parallel, d, n);
        }

        samples.push(Sample {
            days: d,
            events: store.stats().writes + store.stats().deletes,
            trials: sequential.total_trials,
            sequential_ms,
            parallel_ms,
        });
    }
    samples
}

fn assert_outcomes_equal(sequential: &SearchOutcome, parallel: &SearchOutcome, d: u64, n: usize) {
    assert_eq!(
        sequential, parallel,
        "parallel({n}) != sequential at {d} days"
    );
}

/// One session-open measurement at one live-state size: the epoch-pin
/// open (`pin_epoch`, O(shards)) next to the clone-under-lock yardstick
/// (`snapshot_store_cloned`, O(live state)) that repair sessions paid
/// before epoch pins.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSample {
    /// Mutations resident in the sharded store.
    pub ops: usize,
    /// Median epoch-pin session open, microseconds.
    pub pin_us: f64,
    /// Median clone-under-lock open, microseconds.
    pub clone_us: f64,
}

/// Measures repair-session open latency against live-state size.
///
/// A repair session needs a consistent point-in-time store. The old path
/// deep-cloned every shard under its lock (cost grows with live state);
/// the epoch-pin path grabs `Arc`s to the sealed segments plus a small
/// tail copy (cost grows with shard count only). The sweep times both on
/// the same quiesced store, and double-checks at every size that the
/// pinned epoch materializes into *exactly* the cloned store.
///
/// # Panics
///
/// Panics if an epoch pin and the clone yardstick ever disagree.
pub fn session_open_sweep(sizes: &[usize], opens: usize) -> Vec<SessionSample> {
    use ocasta::{AccessEvent, ShardedTtkv, Timestamp, TraceOp, Value};
    let mut samples = Vec::new();
    for &ops in sizes {
        let sharded = ShardedTtkv::new(8);
        let batch: Vec<TraceOp> = (0..ops)
            .map(|i| {
                TraceOp::Mutation(AccessEvent::write(
                    Timestamp::from_millis(i as u64),
                    format!("app/k{:05}", i % 4096),
                    Value::from(i as i64),
                ))
            })
            .collect();
        sharded.append_routed(batch);

        let mut pin_us: Vec<f64> = (0..opens)
            .map(|_| {
                let started = Instant::now();
                let pin = sharded.pin_epoch();
                let us = started.elapsed().as_secs_f64() * 1e6;
                drop(pin);
                us
            })
            .collect();
        let mut clone_us: Vec<f64> = (0..opens)
            .map(|_| {
                let started = Instant::now();
                let store = sharded.snapshot_store_cloned();
                let us = started.elapsed().as_secs_f64() * 1e6;
                drop(store);
                us
            })
            .collect();
        assert_eq!(
            sharded.pin_epoch().materialize(),
            sharded.snapshot_store_cloned(),
            "epoch pin and clone yardstick disagree at {ops} ops"
        );
        samples.push(SessionSample {
            ops,
            pin_us: median(&mut pin_us),
            clone_us: median(&mut clone_us),
        });
    }
    samples
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Serialises the sweep as machine-readable JSON (`BENCH_repair.json`),
/// flat top-level numbers for `bench-compare` to gate on. All figures come
/// from the largest history (the last sample), where cost differences are
/// most visible.
pub fn to_json(samples: &[Sample], sessions: &[SessionSample]) -> String {
    let last = samples.last().expect("sweep is non-empty");
    let open = sessions.last().expect("session sweep is non-empty");
    let best_parallel = last
        .parallel_ms
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    format!(
        "{{\n  \"bench\": \"repair\",\n  \"scenario_id\": {SCENARIO_ID},\n  \"days\": {},\n  \
         \"events\": {},\n  \"trials\": {},\n  \"sequential_ms\": {:.3},\n  \
         \"best_parallel_ms\": {:.3},\n  \"session_state_ops\": {},\n  \
         \"session_open_us\": {:.3},\n  \"session_clone_us\": {:.3}\n}}\n",
        last.days,
        last.events,
        last.trials,
        last.sequential_ms,
        best_parallel,
        open.ops,
        open.pin_us,
        open.clone_us,
    )
}

/// Renders the sweep and the verdict. Returns `(human table, machine
/// JSON)`.
pub fn run() -> (String, String) {
    let samples = sweep(&DAYS, &THREADS);

    let mut headers = vec!["Days", "Events", "Trials", "Seq ms"];
    let thread_headers: Vec<String> = THREADS.iter().map(|n| format!("{n}thr ms")).collect();
    headers.extend(thread_headers.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            let mut row = vec![
                s.days.to_string(),
                s.events.to_string(),
                s.trials.to_string(),
                format!("{:.2}", s.sequential_ms),
            ];
            row.extend(s.parallel_ms.iter().map(|ms| format!("{ms:.2}")));
            row
        })
        .collect();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "Rollback-search cost vs history size and trial threads \
         (error #{SCENARIO_ID}, exhaustive search, {cores} core(s))\n\n",
    );
    out.push_str(&render_table(&headers, &rows));

    let first = samples.first().expect("sweep is non-empty");
    let last = samples.last().expect("sweep is non-empty");
    let best_parallel = last
        .parallel_ms
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    out.push_str(&format!(
        "\nparallel == sequential at every size and thread count: ok\n\
         search cost grew {:.1}x while history grew {:.1}x ({} -> {} trials)\n\
         at {} days: sequential {:.2} ms, best parallel {:.2} ms ({:.2}x)\n",
        last.sequential_ms / first.sequential_ms.max(f64::MIN_POSITIVE),
        last.events as f64 / first.events.max(1) as f64,
        first.trials,
        last.trials,
        last.days,
        last.sequential_ms,
        best_parallel,
        last.sequential_ms / best_parallel.max(f64::MIN_POSITIVE),
    ));
    if cores == 1 {
        out.push_str(
            "note: single-core host — thread scaling cannot appear; the \
             table still verifies outcome equivalence per configuration\n",
        );
    }

    // The compute above renders screenshots in microseconds; a *real* trial
    // replays a GUI script in a sandbox (Table IV charges seconds per
    // trial). At that cost the parallel search divides user-facing
    // wall-clock by the executor count:
    let all = ocasta::scenarios();
    let trial_cost = all
        .iter()
        .find(|s| s.id == SCENARIO_ID)
        .expect("scenario exists")
        .trial_cost;
    let max_threads = THREADS.iter().copied().max().unwrap_or(1);
    let modeled_seq = trial_cost.scale(last.trials as u64);
    let modeled_par = trial_cost.scale(last.trials.div_ceil(max_threads) as u64);
    out.push_str(&format!(
        "modeled exhaustive repair at {} days ({}ms/trial, Table IV): \
         sequential {}, {} executors {}\n",
        last.days,
        trial_cost.as_millis(),
        modeled_seq.as_mmss(),
        max_threads,
        modeled_par.as_mmss(),
    ));

    // Session-open latency: the epoch-pin open must stay flat while the
    // clone-under-lock yardstick grows with live state.
    let sessions = session_open_sweep(&SESSION_STATE_OPS, SESSION_OPENS);
    out.push_str(&format!(
        "\nRepair-session open vs live state (8 shards, {SESSION_OPENS} opens, medians)\n\n"
    ));
    let session_rows: Vec<Vec<String>> = sessions
        .iter()
        .map(|s| {
            vec![
                s.ops.to_string(),
                format!("{:.1}", s.pin_us),
                format!("{:.1}", s.clone_us),
                format!("{:.1}x", s.clone_us / s.pin_us.max(f64::MIN_POSITIVE)),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["Live ops", "Pin us", "Clone us", "Clone/Pin"],
        &session_rows,
    ));
    let (first_s, last_s) = (
        sessions.first().expect("session sweep is non-empty"),
        sessions.last().expect("session sweep is non-empty"),
    );
    out.push_str(&format!(
        "\nepoch-pin open: {:.1} us -> {:.1} us across a {:.0}x state growth \
         (clone yardstick: {:.1} us -> {:.1} us, {:.1}x)\n",
        first_s.pin_us,
        last_s.pin_us,
        last_s.ops as f64 / first_s.ops.max(1) as f64,
        first_s.clone_us,
        last_s.clone_us,
        last_s.clone_us / first_s.clone_us.max(f64::MIN_POSITIVE),
    ));
    let json = to_json(&samples, &sessions);
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_asserts_equivalence_and_covers_sizes() {
        // A short prefix keeps the unit test quick; the binary runs the
        // full sweep (equivalence asserted inside `sweep` either way).
        let samples = sweep(&[21, 28], &[2]);
        assert_eq!(samples.len(), 2);
        assert!(samples[0].events < samples[1].events);
        assert!(samples.iter().all(|s| s.trials > 0));
        assert!(samples.iter().all(|s| s.parallel_ms.len() == 1));

        let sessions = session_open_sweep(&[2_000, 8_000], 9);
        assert_eq!(sessions.len(), 2);
        assert!(sessions.iter().all(|s| s.pin_us > 0.0 && s.clone_us > 0.0));

        let json = to_json(&samples, &sessions);
        assert!(json.contains("\"bench\": \"repair\""), "{json}");
        assert!(json.contains("\"best_parallel_ms\""), "{json}");
        assert!(json.contains("\"session_open_us\""), "{json}");
        assert!(json.contains("\"session_clone_us\""), "{json}");
    }
}
