//! `paper-repair`: the paper's own critical path, one Table III case at a
//! time — trace → TTKV (`prepare_store`) → batch clustering
//! (`Ocasta::cluster_store`) → sequential rollback `search` — plus the
//! Table II accuracy pass over the 11 applications.
//!
//! A closed loop on one thread: each pass runs the 16 errors in Table III
//! order at one scenario seed, the next pass at the next seed. Pass `p` of
//! run seed `s` uses scenario seed `s * SEED_STRIDE + p`, so seed 0's
//! first pass is the paper's own configuration (all 16 errors fixed). No
//! fleet, WAL or stream is involved.

use std::time::{Duration, Instant};

use ocasta::{
    evaluate_model, prepare_store, scenarios, search, AccuracySummary, AppModel, ClusterParams,
    ErrorScenario, FixOracle, Key, Ocasta, ScenarioConfig, SearchConfig, SearchOutcome, TimeDelta,
    Timestamp, Trial,
};

use crate::report::Report;
use crate::stats::{ms, overhead_pct_lower, ratio, us, Samples, P90_SAMPLES};
use crate::{save_and_load, segment_bytes, traced_halves, Outcome, Plan};

/// Scenario seeds per run seed: passes of different run seeds never share
/// inputs.
const SEED_STRIDE: u64 = 1_000;
/// Passes every phase completes, deadline or not: 128 cases, enough for a
/// p90 with ten samples beyond it. Behavioural metrics are taken over
/// exactly these passes, so they depend on the seed alone.
const MIN_PASSES: u64 = 8;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Scenario seed of the warm-up case (outside every run's pass seeds).
const WARM_UP_SEED: u64 = u64::MAX / 2;
/// Table II evaluation length (as the `table2` artifact uses).
const TABLE2_DAYS: u64 = 45;
/// The paper's overall Table II accuracy and the tolerance the check allows.
const PAPER_ACCURACY_PCT: f64 = 88.6;
const ACCURACY_TOLERANCE_PCT: f64 = 2.0;
/// Largest gap allowed between a traced case's wall time and the sum of
/// its stage spans, as a share of the case time.
const STAGE_SUM_TOLERANCE: f64 = 0.05;

/// One Table III error with everything its runs reuse.
struct Case {
    scenario: ErrorScenario,
    model: AppModel,
    params: ClusterParams,
    trial: Trial,
    oracle: FixOracle,
    offending: Vec<Key>,
}

fn build_cases() -> Vec<Case> {
    scenarios()
        .into_iter()
        .map(|scenario| Case {
            model: scenario.model(),
            // The paper's tuned parameters for errors #2 and #4.
            params: if scenario.needs_tuning {
                ScenarioConfig::tuned_for(&scenario)
            } else {
                ClusterParams::default()
            },
            trial: scenario.trial(),
            oracle: scenario.oracle(),
            offending: scenario.offending_keys(),
            scenario,
        })
        .collect()
}

/// Spans of one traced case (microseconds).
#[derive(Default)]
struct Spans {
    generate: f64,
    prepare: f64,
    cluster: f64,
    search: f64,
    keys: f64,
    save: f64,
    load: f64,
    segment_bytes: f64,
    roundtrip_ok: bool,
}

/// What one case run produced.
struct CaseRun {
    case_ms: f64,
    prepare_s: f64,
    mutations: u64,
    outcome: SearchOutcome,
    store_bytes: u64,
    disk_bytes: u64,
    spans: Option<Spans>,
    failure: Option<String>,
}

fn run_case(case: &Case, seed: u64, traced: bool, measure_bytes: bool) -> CaseRun {
    let config = ScenarioConfig {
        params: case.params,
        seed,
        ..ScenarioConfig::default()
    };
    let mut spans = traced.then(Spans::default);
    if let Some(spans) = spans.as_mut() {
        // The same trace `prepare_store` generates, drained outside it.
        let started = Instant::now();
        let trace = case.model.generate_trace(
            case.scenario.trace_days,
            100 + case.scenario.id as u64 + seed,
        );
        spans.generate = us(started.elapsed());
        std::hint::black_box(trace);
    }

    // Every stage gets its own clock reads, so glue between stages shows
    // up as a gap between the case time and the sum of its stages.
    let started = Instant::now();
    let (store, _inject_at) = prepare_store(&case.scenario, &config);
    let prepare = started.elapsed();
    let t = Instant::now();
    let clustering = Ocasta::new(config.params).cluster_store(&store);
    let cluster = t.elapsed();
    let end = store.last_mutation_time().unwrap_or(Timestamp::EPOCH);
    let window = TimeDelta::from_millis(config.params.window_ms);
    let search_config = SearchConfig {
        strategy: config.strategy,
        window,
        start_time: config
            .start_bound_days
            .map(|days| end.saturating_sub(TimeDelta::from_days(days))),
        end_time: None,
        trial_cost: case.scenario.trial_cost,
    };
    let t = Instant::now();
    let outcome = search(
        &store,
        clustering.clusters(),
        &case.trial,
        &case.oracle,
        &search_config,
    );
    let search_took = t.elapsed();
    let case_took = started.elapsed();

    if let Some(spans) = spans.as_mut() {
        spans.prepare = us(prepare);
        spans.cluster = us(cluster);
        spans.search = us(search_took);
        spans.keys = clustering.clusters().iter().map(Vec::len).sum::<usize>() as f64;
        let (save, load, bytes, same) = save_and_load(&store);
        spans.save = save;
        spans.load = load;
        spans.segment_bytes = bytes as f64;
        spans.roundtrip_ok = same;
    }
    let stats = store.stats();
    let (store_bytes, disk_bytes) = if measure_bytes {
        (stats.approx_bytes, segment_bytes(&store))
    } else {
        (0, 0)
    };
    let mut failure = check_case(case, &outcome);
    if failure.is_none() && seed == 0 && !outcome.is_fixed() {
        failure = Some(format!(
            "case {} unfixed at the paper seed",
            case.scenario.id
        ));
    }
    if failure.is_none() && spans.as_ref().is_some_and(|s| !s.roundtrip_ok) {
        failure = Some(format!(
            "case {}: save/load round trip differs",
            case.scenario.id
        ));
    }
    CaseRun {
        case_ms: ms(case_took),
        prepare_s: prepare.as_secs_f64(),
        mutations: stats.writes + stats.deletes,
        outcome,
        store_bytes,
        disk_bytes,
        spans,
        failure,
    }
}

/// A claimed fix must roll back the injected error itself: its cluster
/// holds every offending key. (The undone transaction may predate the
/// injection — rolling a cluster back to any healthy state clears it.)
fn check_case(case: &Case, outcome: &SearchOutcome) -> Option<String> {
    let id = case.scenario.id;
    if outcome.trials_to_fix.is_some() != outcome.is_fixed() {
        return Some(format!("case {id}: trials_to_fix disagrees with the fix"));
    }
    let fix = outcome.fix.as_ref()?;
    if let Some(key) = case.offending.iter().find(|k| !fix.keys.contains(k)) {
        return Some(format!("case {id}: fix cluster lacks offending key {key}"));
    }
    if outcome.trials_to_fix > Some(outcome.total_trials) {
        return Some(format!("case {id}: more trials to fix than trials run"));
    }
    None
}

/// Everything one measurement phase gathered.
#[derive(Default)]
struct Phase {
    passes: u64,
    case_ms: Samples,
    prepare_s: f64,
    mutations: u64,
    /// Over the first `MIN_PASSES` passes only.
    fixed: u64,
    counted: u64,
    store_bytes: Samples,
    disk_bytes: Samples,
    trials_to_fix: Samples,
    screenshots_to_fix: Samples,
    total_trials: Samples,
    generate: Samples,
    build: Samples,
    cluster: Samples,
    keys: Samples,
    search: Samples,
    save: Samples,
    load: Samples,
    segment: Samples,
}

fn measure(cases: &[Case], plan: &Plan, traced: bool, report: &mut Report) -> Phase {
    let deadline = plan.deadline();
    let mut phase = Phase::default();
    while phase.passes < MIN_PASSES || Instant::now() < deadline {
        let seed = plan.seed * SEED_STRIDE + phase.passes;
        let counted = phase.passes < MIN_PASSES;
        report.calibrate();
        for case in cases {
            let run = run_case(case, seed, traced, counted);
            report.attempt(run.failure);
            phase.case_ms.push(run.case_ms);
            phase.prepare_s += run.prepare_s;
            phase.mutations += run.mutations;
            if counted {
                phase.counted += 1;
                phase.store_bytes.push(run.store_bytes as f64);
                phase.disk_bytes.push(run.disk_bytes as f64);
                if run.outcome.is_fixed() {
                    phase.fixed += 1;
                }
            }
            phase.total_trials.push(run.outcome.total_trials as f64);
            if let Some(n) = run.outcome.trials_to_fix {
                phase.trials_to_fix.push(n as f64);
                phase
                    .screenshots_to_fix
                    .push(run.outcome.screenshots_to_fix as f64);
            }
            if let Some(s) = run.spans {
                phase.generate.push(s.generate);
                phase.build.push(s.prepare - s.generate);
                phase.cluster.push(s.cluster);
                phase.keys.push(s.keys);
                phase.search.push(s.search);
                phase.save.push(s.save);
                phase.load.push(s.load);
                phase.segment.push(s.segment_bytes);
            }
        }
        phase.passes += 1;
    }
    phase
}

/// The Table II pass: overall multi-setting cluster accuracy over the 11
/// applications. Seed 0 reproduces the `table2` artifact exactly.
fn accuracy_pct(seed: u64) -> f64 {
    let apps: Vec<_> = ocasta::all_models()
        .iter()
        .enumerate()
        .map(|(i, model)| {
            evaluate_model(
                model,
                TABLE2_DAYS,
                1000 + i as u64 + seed * SEED_STRIDE,
                &ClusterParams::default(),
            )
        })
        .collect();
    AccuracySummary::from_apps(&apps).overall_accuracy()
}

/// Scenario list, per-case trials and oracles, and one warm-up case. The
/// warm-up input is the same for every run seed, so `setup_s` measures
/// set-up work, not the seed.
fn setup() -> (Vec<Case>, Duration) {
    let started = Instant::now();
    let cases = build_cases();
    let smallest = cases
        .iter()
        .min_by_key(|c| c.scenario.trace_days)
        .expect("Table III has 16 cases");
    std::hint::black_box(run_case(smallest, WARM_UP_SEED, false, false).case_ms);
    (cases, started.elapsed())
}

pub fn run(seed: u64, seconds: Duration, traced: bool) -> Outcome {
    let mut report = Report::new(traced);
    let mut setups = Samples::default();
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPEATS {
        report.calibrate();
        let (built, took) = setup();
        setups.push(took.as_secs_f64());
        cases = built;
    }

    let accuracy = accuracy_pct(seed);
    report.attempt(
        ((accuracy - PAPER_ACCURACY_PCT).abs() > ACCURACY_TOLERANCE_PCT).then(|| {
            format!("Table II accuracy {accuracy:.2}% is outside {PAPER_ACCURACY_PCT}±{ACCURACY_TOLERANCE_PCT}")
        }),
    );

    let (reference, traced_phase) = if traced {
        let (untraced_plan, traced_plan) = traced_halves(seed, seconds);
        let reference = measure(&cases, &untraced_plan, false, &mut report);
        let phase = measure(&cases, &traced_plan, true, &mut report);
        (reference, Some(phase))
    } else {
        let plan = Plan {
            seed,
            budget: seconds,
        };
        (measure(&cases, &plan, false, &mut report), None)
    };

    report.set("setup_s", setups.median());
    report.set("latency_ms_p50", reference.case_ms.median());
    report.set("latency_ms_p90", reference.case_ms.quantile(0.9));
    report.set(
        "ingest_events_per_s",
        ratio(reference.mutations as f64, reference.prepare_s),
    );
    report.set(
        "ok_frac",
        ratio(reference.fixed as f64, reference.counted as f64),
    );
    report.set("store_bytes", reference.store_bytes.mean());
    report.set("disk_bytes", reference.disk_bytes.mean());

    report.info_text(
        "size",
        "16 Table III cases per pass, 1 thread; Table II over 11 apps x 45 days",
    );
    report.info_number("passes", reference.passes as f64);
    report.info_number("cases", reference.case_ms.len() as f64);
    report.info_number("latency_samples", reference.case_ms.len() as f64);
    report.info_number(
        "latency_tail_percentile",
        reference.case_ms.tail_percentile() as f64,
    );
    report.info_number("p90_min_samples", P90_SAMPLES as f64);
    report.info_number("fixed", reference.fixed as f64);
    report.info_number("fixed_of", reference.counted as f64);
    report.info_number("accuracy_pct", accuracy);
    report.info_number("trials_to_fix_mean", reference.trials_to_fix.mean());
    report.info_number(
        "screenshots_to_fix_mean",
        reference.screenshots_to_fix.mean(),
    );

    if let Some(phase) = traced_phase {
        let stages =
            phase.generate.sum() + phase.build.sum() + phase.cluster.sum() + phase.search.sum();
        let cases_us = phase.case_ms.sum() * 1e3;
        let gap = ratio((stages - cases_us).abs(), cases_us);
        report.attempt(
            (gap > STAGE_SUM_TOLERANCE).then(|| {
                format!("stage spans sum to {stages:.0}us against {cases_us:.0}us of cases")
            }),
        );
        report.info_number("traced_cases", phase.case_ms.len() as f64);
        report.info_number("stage_sum_gap_frac", gap);
        let n = phase.case_ms.len() as u64;
        report.set_layer("trace.generate_us", phase.generate.mean(), n);
        report.set_layer("ttkv.build_us", phase.build.mean(), n);
        report.set_layer("ttkv.save_us", phase.save.mean(), n);
        report.set_layer("ttkv.load_us", phase.load.mean(), n);
        report.set_layer("ttkv.segment_bytes", phase.segment.mean(), n);
        report.set_layer("cluster.cluster_events_us", phase.cluster.mean(), n);
        report.set_layer("cluster.keys", phase.keys.mean(), n);
        report.set_layer("cluster.accuracy_pct", accuracy, n);
        report.set_layer("repair.search_us", phase.search.mean(), n);
        // The paper path's search is the sequential one.
        report.set_layer("repair.search_seq_us", phase.search.mean(), n);
        report.set_layer("repair.trials", phase.total_trials.mean(), n);
        report.set_layer(
            "repair.us_per_trial",
            ratio(phase.search.sum(), phase.total_trials.sum()),
            n,
        );
        report.set_layer(
            "repair.useful_trial_frac",
            ratio(phase.trials_to_fix.sum(), phase.total_trials.sum()),
            n,
        );
        report.set_layer("repair.trials_to_fix_mean", phase.trials_to_fix.mean(), n);
        report.set_layer(
            "repair.screenshots_to_fix_mean",
            phase.screenshots_to_fix.mean(),
            n,
        );
        report.set_layer(
            "obs.overhead_pct",
            overhead_pct_lower(reference.case_ms.median(), phase.case_ms.median()),
            n,
        );
    }
    Ok(report)
}
