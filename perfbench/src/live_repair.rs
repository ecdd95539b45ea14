//! `live-repair`: reads beside writes, in the repair service's shape.
//!
//! One ingest worker streams a merged-placement fleet (the applications
//! of errors 13, 15, 11 and 12) into a live sharded store with the
//! analytics tap on and retention clamped by a `HorizonGuard`. The session
//! thread keeps the streaming clustering fed from the tap and runs repair
//! sessions back to back while ingestion continues: guard pin → catalog
//! (`OcastaStream::clustering`) → `pin_epoch` → `materialize` → inject →
//! `RepairSession::run` with two trial executors. A round ends with the
//! first session that starts after ingestion finished. Each round draws a
//! fresh fleet from the run seed, so a run's medians span many fleets.

use std::time::{Duration, Instant};

use ocasta::fleet::{fleet_machines, FleetRunConfig};
use ocasta::{
    scenarios, ClusterParams, ErrorScenario, FixOracle, FleetConfig, FleetMetrics, HorizonGuard,
    IngestOptions, Key, KeyPlacement, MachineSpec, Ocasta, OcastaStream, Registry, RepairSession,
    RetentionPolicy, SearchConfig, SearchOutcome, SearchStrategy, ShardedTtkv, TimeDelta,
    TimePrecision, Timestamp, Trial, Ttkv, WriteLanes,
};

use crate::report::Report;
use crate::stats::{ms, overhead_pct_lower, ratio, us, Samples, P90_SAMPLES};
use crate::{save_and_load, traced_halves, Outcome, Plan};

/// The repair service's default error mix.
const SCENARIO_IDS: [usize; 4] = [13, 15, 11, 12];
const MACHINES: usize = 8;
const DAYS: u64 = 30;
const RETAIN_DAYS: u64 = 4;
/// The user's "error appeared after" bound, days before the pinned end.
const START_BOUND_DAYS: u64 = 1;
const SHARDS: usize = 16;
const INGEST_THREADS: usize = 1;
const SEARCH_THREADS: usize = 2;
/// Mutations the live clustering absorbs before the first session pins.
const MIN_CATALOG_EVENTS: u64 = 2_000;
/// Sessions per untraced phase, deadline or not: a p90 with ten samples
/// beyond it.
const MIN_SESSIONS: usize = P90_SAMPLES;
/// Sessions each half of a traced run completes.
const MIN_TRACED_SESSIONS: usize = 20;
const SETUP_REPEATS: usize = 5;
/// Fleet seed of the warm-up round (outside every run's fleets).
const WARM_UP_SEED: u64 = 1 << 40;

struct Service {
    seed: u64,
    machines: usize,
    days: u64,
    apps: Vec<String>,
    engine: FleetConfig,
    params: ClusterParams,
    errors: Vec<Error>,
}

/// One Table III error a session injects, with its reusable trial.
struct Error {
    scenario: ErrorScenario,
    trial: Trial,
    oracle: FixOracle,
    offending: Vec<Key>,
}

fn service(seed: u64, machines: usize, days: u64) -> Result<Service, String> {
    let all = scenarios();
    let errors: Vec<Error> = SCENARIO_IDS
        .iter()
        .map(|id| {
            let scenario = all
                .iter()
                .find(|s| s.id == *id)
                .cloned()
                .ok_or_else(|| format!("no Table III error {id}"))?;
            Ok(Error {
                trial: scenario.trial(),
                oracle: scenario.oracle(),
                offending: scenario.offending_keys(),
                scenario,
            })
        })
        .collect::<Result<_, String>>()?;
    let mut apps: Vec<String> = Vec::new();
    for e in &errors {
        if !apps.iter().any(|a| a == e.scenario.app) {
            apps.push(e.scenario.app.to_owned());
        }
    }
    Ok(Service {
        seed,
        machines,
        days,
        apps,
        engine: FleetConfig {
            shards: SHARDS,
            ingest_threads: INGEST_THREADS,
            placement: KeyPlacement::Merged,
            precision: TimePrecision::Seconds,
            retention: Some(RetentionPolicy::keep_days(RETAIN_DAYS)),
            ..FleetConfig::default()
        },
        params: ClusterParams::default(),
        errors,
    })
}

impl Service {
    /// Round `index`'s fleet: every round draws fresh machines from the
    /// run seed, so a run's medians cover many fleets rather than one.
    fn fleet(&self, index: usize) -> Result<Vec<MachineSpec>, String> {
        fleet_machines(&FleetRunConfig {
            machines: self.machines,
            days: self.days,
            seed: (self.seed * 100_000 + index as u64) * 100,
            apps: self.apps.clone(),
            ..FleetRunConfig::default()
        })
    }
}

/// Specs, trials and one small warm-up round (the same warm-up fleet for
/// every run seed).
fn setup(seed: u64) -> Result<(Service, Duration), String> {
    let started = Instant::now();
    let built = service(seed, MACHINES, DAYS)?;
    warm_up(&service(WARM_UP_SEED, 1, 3)?)?;
    Ok((built, started.elapsed()))
}

/// Ingests a small fleet to completion on this thread, then runs one
/// session against it: the same code paths as a round, with no waiting on
/// another thread's progress.
fn warm_up(svc: &Service) -> Result<(), String> {
    let sharded = ShardedTtkv::with_seal_threshold(svc.engine.shards, svc.engine.seal_threshold);
    let lanes = WriteLanes::new(svc.engine.shards);
    let guard = HorizonGuard::new();
    let options = IngestOptions {
        tap: Some(&lanes),
        guard: Some(&guard),
        ..IngestOptions::default()
    };
    ocasta::fleet_ingest_live(&svc.fleet(0)?, &svc.engine, &sharded, options)
        .map_err(|e| format!("warm-up ingest: {e}"))?;
    let mut stream = OcastaStream::new(&Ocasta::new(svc.params));
    stream.drain_lanes(&lanes);
    let run = session(
        svc,
        &svc.errors[0],
        0,
        &sharded,
        &guard,
        &stream,
        None,
        &|| false,
        &mut Phase::default(),
    );
    std::hint::black_box(run.ms);
    Ok(())
}

/// Everything one measurement phase gathered.
#[derive(Default)]
struct Phase {
    rounds: usize,
    sessions: usize,
    fixed: usize,
    mid_ingest: usize,
    session_ms: Samples,
    /// Ingest totals over every round; the rate is their ratio.
    mutations: u64,
    ingest_s: f64,
    store_bytes: Samples,
    disk_bytes: Samples,
    trials: Samples,
    trials_to_fix: Samples,
    screenshots_to_fix: Samples,
    search: Samples,
    search_seq: Samples,
    pin: Samples,
    pin_preseal: Samples,
    materialize: Samples,
    clustering: Samples,
    keys: Samples,
    absorb: Samples,
    round_generate: Samples,
    build: Samples,
    save: Samples,
    load: Samples,
    segment: Samples,
}

/// One repair session's measurements.
struct SessionRun<'a> {
    ms: f64,
    fixed: bool,
    mid_ingest: bool,
    failure: Option<String>,
    /// Traced runs keep the session for the sequential re-run.
    replay: Option<Replay<'a>>,
}

/// A traced session kept for its one-executor re-run.
struct Replay<'a> {
    session: RepairSession,
    error: &'a Error,
    parallel: SearchOutcome,
}

/// Drives one round: ingest on a worker thread, sessions on this one.
fn round(
    svc: &Service,
    machines: &[MachineSpec],
    metrics: Option<&FleetMetrics>,
    phase: &mut Phase,
    report: &mut Report,
) -> Result<(), String> {
    let sharded = ShardedTtkv::with_seal_threshold(svc.engine.shards, svc.engine.seal_threshold);
    let lanes = WriteLanes::new(svc.engine.shards);
    let guard = HorizonGuard::new();
    let engine = Ocasta::new(svc.params);
    let mut stream = OcastaStream::new(&engine);
    let traced = metrics.is_some();

    let ingested = std::thread::scope(|scope| {
        let ingest = scope.spawn(|| {
            let started = Instant::now();
            let result = ocasta::fleet_ingest_live(
                machines,
                &svc.engine,
                &sharded,
                IngestOptions {
                    tap: Some(&lanes),
                    guard: Some(&guard),
                    metrics,
                    ..IngestOptions::default()
                },
            );
            result.map(|r| (r.mutations, started.elapsed().as_secs_f64()))
        });
        let mut sessions_this_round = 0usize;
        let mut replays = Vec::new();
        loop {
            let started = Instant::now();
            let absorbed = stream.drain_lanes(&lanes);
            if traced && absorbed > 0 {
                phase.absorb.push(us(started.elapsed()));
            }
            let finished = ingest.is_finished();
            if !finished && stream.horizon().events < MIN_CATALOG_EVENTS {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            if finished && sessions_this_round > 0 {
                break;
            }
            let user = phase.sessions;
            let error = &svc.errors[user % svc.errors.len()];
            let run = session(
                svc,
                error,
                user,
                &sharded,
                &guard,
                &stream,
                metrics,
                &|| !ingest.is_finished(),
                phase,
            );
            report.attempt(run.failure);
            phase.sessions += 1;
            sessions_this_round += 1;
            phase.session_ms.push(run.ms);
            phase.fixed += usize::from(run.fixed);
            phase.mid_ingest += usize::from(run.mid_ingest);
            replays.extend(run.replay);
            if finished {
                break;
            }
        }
        stream.drain_lanes(&lanes);
        let ingested = ingest
            .join()
            .map_err(|_| "ingest thread panicked".to_owned())?
            .map_err(|e| format!("ingest: {e}"));
        rerun_sequential(replays, phase, report);
        ingested
    })?;
    let (mutations, ingest_s) = ingested;
    phase.rounds += 1;
    phase.mutations += mutations;
    phase.ingest_s += ingest_s;
    let folded = Instant::now();
    let store = sharded.into_ttkv();
    let build_us = us(folded.elapsed());
    phase.store_bytes.push(store.approx_bytes() as f64);
    let (save, load, bytes, same) = save_and_load(&store);
    phase.disk_bytes.push(bytes as f64);
    if traced {
        phase.build.push(build_us);
        phase.save.push(save);
        phase.load.push(load);
        phase.segment.push(bytes as f64);
    }
    report.attempt((!same).then(|| "final store save/load round trip differs".to_owned()));
    Ok(())
}

/// One repair session against the live store, timed from the guard pin to
/// the end of the search.
#[allow(clippy::too_many_arguments)]
fn session<'a>(
    svc: &Service,
    error: &'a Error,
    user: usize,
    sharded: &ShardedTtkv,
    guard: &HorizonGuard,
    stream: &OcastaStream,
    metrics: Option<&FleetMetrics>,
    ingesting: &dyn Fn() -> bool,
    phase: &mut Phase,
) -> SessionRun<'a> {
    let traced = metrics.is_some();
    let window = TimeDelta::from_millis(svc.params.window_ms);
    let started = Instant::now();

    // 1. Retention pin for the oldest history the bounded search can need.
    let frontier = sharded.last_mutation_time().unwrap_or(Timestamp::EPOCH);
    let oldest_needed = SearchConfig {
        start_time: Some(frontier.saturating_sub(TimeDelta::from_days(START_BOUND_DAYS))),
        window,
        ..SearchConfig::default()
    }
    .oldest_history_needed();
    let pin = guard.pin(oldest_needed);
    let session_pin = pin.timestamp();

    // 2. Catalog from the live stream.
    let t = Instant::now();
    let live = stream.clustering();
    let clustering_us = us(t.elapsed());
    let mut catalog = live.catalog();
    for key in &error.offending {
        catalog.ensure_singleton(key);
    }

    // 3. Epoch pin, 4. materialize.
    let sealed_before = metrics.map(|m| m.seals.get());
    let t = Instant::now();
    let epoch = sharded.pin_epoch();
    let pin_us = us(t.elapsed());
    let mid_ingest = ingesting();
    let t = Instant::now();
    let mut store = epoch.materialize();
    let materialize_us = us(t.elapsed());
    drop(epoch);

    // 5. Inject the error after the pinned end.
    let end = store.last_mutation_time().unwrap_or(Timestamp::EPOCH);
    let inject_at = end + TimeDelta::from_mins(5);
    error.scenario.inject(&mut store, inject_at);
    let mut config = SearchConfig {
        strategy: SearchStrategy::Dfs,
        window,
        start_time: Some(inject_at.saturating_sub(TimeDelta::from_days(START_BOUND_DAYS))),
        end_time: None,
        trial_cost: error.scenario.trial_cost,
    };
    // History below a clamped-up pin may be gone fleet-wide.
    config.start_time = config
        .start_time
        .map(|wanted| wanted.max(config.earliest_safe_start(session_pin)));

    // 6. Parallel rollback search.
    let session = RepairSession::new(format!("user{user:03}"), store, catalog, config)
        .with_threads(SEARCH_THREADS);
    let t = Instant::now();
    let report = session.run(&error.trial, &error.oracle);
    let search_us = us(t.elapsed());
    let session_ms = ms(started.elapsed());

    let failure = check_session(error, &report.outcome, &session, session_pin, guard);
    drop(pin);

    if traced {
        phase.search.push(search_us);
        phase.pin.push(pin_us);
        if sealed_before == Some(0) {
            phase.pin_preseal.push(pin_us);
        }
        phase.materialize.push(materialize_us);
        phase.clustering.push(clustering_us);
        phase.keys.push(stream.key_count() as f64);
        phase.trials.push(report.outcome.total_trials as f64);
        if let Some(n) = report.outcome.trials_to_fix {
            phase.trials_to_fix.push(n as f64);
            phase
                .screenshots_to_fix
                .push(report.outcome.screenshots_to_fix as f64);
        }
    }
    SessionRun {
        ms: session_ms,
        fixed: report.outcome.is_fixed(),
        mid_ingest,
        failure,
        replay: traced.then_some(Replay {
            session,
            error,
            parallel: report.outcome,
        }),
    }
}

/// Re-runs traced sessions with one trial executor once the round's
/// ingestion is over, so the re-runs never shift where later sessions
/// pin. The outcome must equal the parallel one.
fn rerun_sequential(replays: Vec<Replay<'_>>, phase: &mut Phase, report: &mut Report) {
    for Replay {
        session,
        error,
        parallel,
    } in replays
    {
        let t = Instant::now();
        let sequential = session.with_threads(1).run(&error.trial, &error.oracle);
        phase.search_seq.push(us(t.elapsed()));
        report.attempt((sequential.outcome != parallel).then(|| {
            format!(
                "error {}: parallel and sequential search differ",
                error.scenario.id
            )
        }));
    }
}

/// While the session's pin is live, no sweep may have pruned past it: the
/// guard's granted-horizon high-water mark stays at or below the pin, and
/// the pinned history holds no prune baseline at or after it. A claimed
/// fix must roll back an offending key.
fn check_session(
    error: &Error,
    outcome: &SearchOutcome,
    session: &RepairSession,
    session_pin: Timestamp,
    guard: &HorizonGuard,
) -> Option<String> {
    let id = error.scenario.id;
    let floor = guard.floor();
    if floor > session_pin {
        return Some(format!(
            "error {id}: sweep horizon {floor} passed the session pin {session_pin}"
        ));
    }
    if let Some((key, _)) = store_baselines_at_or_after(session.store(), session_pin) {
        return Some(format!(
            "error {id}: key {key} was pruned past the session pin"
        ));
    }
    if let Some(fix) = &outcome.fix {
        if !error.offending.iter().any(|k| fix.keys.contains(k)) {
            return Some(format!("error {id}: fix cluster holds no offending key"));
        }
    }
    None
}

fn store_baselines_at_or_after(store: &Ttkv, pin: Timestamp) -> Option<(Key, Timestamp)> {
    store.iter().find_map(|(key, record)| {
        record
            .baseline()
            .filter(|b| b.timestamp >= pin)
            .map(|b| (key.clone(), b.timestamp))
    })
}

fn measure(
    svc: &Service,
    plan: &Plan,
    min_sessions: usize,
    metrics: Option<&FleetMetrics>,
    report: &mut Report,
) -> Result<Phase, String> {
    let deadline = plan.deadline();
    let mut phase = Phase::default();
    while phase.sessions < min_sessions || Instant::now() < deadline {
        report.calibrate();
        let machines = svc.fleet(phase.rounds)?;
        if metrics.is_some() {
            let started = Instant::now();
            let ops: usize = machines.iter().map(|m| m.stream().count()).sum();
            phase.round_generate.push(us(started.elapsed()));
            std::hint::black_box(ops);
        }
        round(svc, &machines, metrics, &mut phase, report)?;
    }
    Ok(phase)
}

pub fn run(seed: u64, seconds: Duration, traced: bool) -> Outcome {
    let mut report = Report::new(traced);
    let mut setups = Samples::default();
    let mut svc = None;
    for _ in 0..SETUP_REPEATS {
        report.calibrate();
        let (built, took) = setup(seed)?;
        setups.push(took.as_secs_f64());
        svc = Some(built);
    }
    let svc = svc.expect("at least one setup");

    let (reference, traced_phase) = if traced {
        let (untraced_plan, traced_plan) = traced_halves(seed, seconds);
        let reference = measure(&svc, &untraced_plan, MIN_TRACED_SESSIONS, None, &mut report)?;
        let registry = Registry::new();
        let metrics = FleetMetrics::register(&registry);
        let phase = measure(
            &svc,
            &traced_plan,
            MIN_TRACED_SESSIONS,
            Some(&metrics),
            &mut report,
        )?;
        (reference, Some((phase, metrics)))
    } else {
        let plan = Plan {
            seed,
            budget: seconds,
        };
        (measure(&svc, &plan, MIN_SESSIONS, None, &mut report)?, None)
    };

    report.set("setup_s", setups.median());
    report.set("latency_ms_p50", reference.session_ms.median());
    report.set("latency_ms_p90", reference.session_ms.quantile(0.9));
    report.set(
        "ingest_events_per_s",
        ratio(reference.mutations as f64, reference.ingest_s),
    );
    report.set(
        "ok_frac",
        ratio(reference.fixed as f64, reference.sessions as f64),
    );
    report.set("store_bytes", reference.store_bytes.median());
    report.set("disk_bytes", reference.disk_bytes.median());

    report.info_text(
        "size",
        &format!(
            "{MACHINES} machines x {DAYS} days, errors {SCENARIO_IDS:?}, merged placement, \
             {INGEST_THREADS} ingest worker + tap, keep {RETAIN_DAYS} days under a HorizonGuard, \
             {SEARCH_THREADS} trial executors, search bound {START_BOUND_DAYS} day"
        ),
    );
    report.info_number("rounds", reference.rounds as f64);
    report.info_number("sessions", reference.sessions as f64);
    report.info_number("latency_samples", reference.session_ms.len() as f64);
    report.info_number(
        "latency_tail_percentile",
        reference.session_ms.tail_percentile() as f64,
    );
    report.info_number("p90_min_samples", P90_SAMPLES as f64);
    report.info_number(
        "mid_ingest_frac",
        ratio(reference.mid_ingest as f64, reference.sessions as f64),
    );

    if let Some((phase, m)) = traced_phase {
        let rounds = phase.rounds as f64;
        let per_round = |sum_us: u64| sum_us as f64 / rounds;
        let rounds_n = phase.rounds as u64;
        let sessions_n = phase.sessions as u64;
        report.info_number("traced_rounds", rounds);
        report.info_number("traced_sessions", phase.sessions as f64);
        report.info_number("preseal_pins", phase.pin_preseal.len() as f64);
        report.set_layer("trace.generate_us", phase.round_generate.mean(), rounds_n);
        report.set_layer("ttkv.build_us", phase.build.mean(), rounds_n);
        report.set_layer("ttkv.save_us", phase.save.mean(), rounds_n);
        report.set_layer("ttkv.load_us", phase.load.mean(), rounds_n);
        report.set_layer("ttkv.segment_bytes", phase.segment.mean(), rounds_n);
        report.set_layer("cluster.keys", phase.keys.mean(), sessions_n);
        report.set_layer("repair.search_us", phase.search.mean(), sessions_n);
        report.set_layer(
            "repair.search_seq_us",
            phase.search_seq.mean(),
            phase.search_seq.len() as u64,
        );
        report.set_layer("repair.trials", phase.trials.mean(), sessions_n);
        report.set_layer(
            "repair.us_per_trial",
            ratio(phase.search.sum(), phase.trials.sum()),
            sessions_n,
        );
        report.set_layer(
            "repair.useful_trial_frac",
            ratio(phase.trials_to_fix.sum(), phase.trials.sum()),
            sessions_n,
        );
        report.set_layer(
            "repair.trials_to_fix_mean",
            phase.trials_to_fix.mean(),
            sessions_n,
        );
        report.set_layer(
            "repair.screenshots_to_fix_mean",
            phase.screenshots_to_fix.mean(),
            sessions_n,
        );
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
        report.set_layer("fleet.snapshot.pin_us", phase.pin.median(), sessions_n);
        report.set_layer(
            "fleet.snapshot.pin_preseal_us",
            phase.pin_preseal.median(),
            phase.pin_preseal.len() as u64,
        );
        report.set_layer(
            "fleet.snapshot.materialize_us",
            phase.materialize.mean(),
            sessions_n,
        );
        report.set_layer(
            "stream.absorb_us",
            phase.absorb.mean(),
            phase.absorb.len() as u64,
        );
        report.set_layer("stream.clustering_us", phase.clustering.mean(), sessions_n);
        report.set_layer(
            "live.mid_ingest_frac",
            ratio(phase.mid_ingest as f64, phase.sessions as f64),
            sessions_n,
        );
        report.set_layer(
            "obs.overhead_pct",
            overhead_pct_lower(reference.session_ms.median(), phase.session_ms.median()),
            sessions_n,
        );
    }
    Ok(report)
}
