//! Table IV integration: all 16 real-world errors end to end.

use ocasta::{
    parallel_search, prepare_store, run_noclust, run_scenario, scenarios, search, ClusterParams,
    Ocasta, ScenarioConfig, SearchConfig, SearchStrategy, TimeDelta,
};

fn config_for(scenario: &ocasta::ErrorScenario) -> ScenarioConfig {
    let params = if scenario.needs_tuning {
        ScenarioConfig::tuned_for(scenario)
    } else {
        ClusterParams::default()
    };
    ScenarioConfig {
        params,
        ..ScenarioConfig::default()
    }
}

#[test]
fn ocasta_fixes_all_16_errors() {
    for scenario in scenarios() {
        let outcome = run_scenario(&scenario, &config_for(&scenario));
        assert!(
            outcome.is_fixed(),
            "error #{} should be fixed: {:?}",
            scenario.id,
            outcome.search
        );
        assert_eq!(
            outcome.fixed_cluster_size,
            Some(scenario.paper_cluster_size),
            "error #{}: fixed-cluster size should match Table IV",
            scenario.id
        );
        assert!(
            outcome.search.screenshots_to_fix <= 11,
            "error #{}: user effort stays modest (paper max: 11)",
            scenario.id
        );
    }
}

/// Table IV's 16/16 across scenario seeds 0–19. Open: at seeds 2, 3, 12
/// and 17 an offending key's last version before the injection already
/// holds the injected value, so no rollback within the search bound
/// restores a healthy configuration (`failing_seeds/007`). Run with
/// `cargo test --release --test repair_scenarios -- --ignored`.
#[test]
#[ignore = "open: failing_seeds/007"]
fn ocasta_fixes_all_16_errors_at_scenario_seeds_0_to_19() {
    let mut misses = Vec::new();
    for seed in 0..20 {
        for scenario in scenarios() {
            let config = ScenarioConfig {
                seed,
                ..config_for(&scenario)
            };
            if !run_scenario(&scenario, &config).is_fixed() {
                misses.push((seed, scenario.id));
            }
        }
    }
    assert!(misses.is_empty(), "(seed, case) misses: {misses:?}");
}

#[test]
fn noclust_fails_exactly_the_five_multi_key_errors() {
    let mut failed = Vec::new();
    for scenario in scenarios() {
        let outcome = run_noclust(&scenario, &config_for(&scenario));
        if !outcome.is_fixed() {
            failed.push(scenario.id);
        }
        assert_eq!(
            outcome.is_fixed(),
            scenario.paper_noclust_fixes,
            "error #{}: NoClust outcome should match Table IV",
            scenario.id
        );
    }
    failed.sort_unstable();
    assert_eq!(failed, vec![2, 4, 6, 7, 9]);
}

#[test]
fn errors_2_and_4_defeat_default_parameters() {
    for id in [2usize, 4] {
        let scenario = scenarios().into_iter().find(|s| s.id == id).unwrap();
        let default_outcome = run_scenario(&scenario, &ScenarioConfig::default());
        assert!(
            !default_outcome.is_fixed(),
            "error #{id} should require tuning (§VI-B)"
        );
    }
}

#[test]
fn bfs_also_fixes_a_sample_of_errors() {
    for id in [1usize, 7, 13] {
        let scenario = scenarios().into_iter().find(|s| s.id == id).unwrap();
        let config = ScenarioConfig {
            strategy: SearchStrategy::Bfs,
            ..config_for(&scenario)
        };
        let outcome = run_scenario(&scenario, &config);
        assert!(outcome.is_fixed(), "error #{id} under BFS");
    }
}

#[test]
fn sort_beats_exhaustive_search_on_average() {
    // The paper: the modification-count sort finds the offending cluster
    // ~78% faster than searching everything.
    let mut savings = Vec::new();
    for scenario in scenarios() {
        let outcome = run_scenario(&scenario, &config_for(&scenario));
        if let Some(found) = outcome.search.trials_to_fix {
            let total = outcome.search.total_trials.max(1);
            savings.push(1.0 - found as f64 / total as f64);
        }
    }
    let mean = savings.iter().sum::<f64>() / savings.len() as f64;
    assert!(
        mean > 0.5,
        "mean saving {mean:.2} should be well above half (paper: 0.78)"
    );
}

#[test]
fn injection_age_affects_search_depth() {
    // Figure 2a's trend is a mean over the 16 errors: older errors are
    // buried under more newer versions. Individual cases may move either
    // way, so compare the population means.
    let mean_trials = |age: u64| -> f64 {
        let mut trials = Vec::new();
        for scenario in scenarios() {
            let outcome = run_scenario(
                &scenario,
                &ScenarioConfig {
                    injection_age_days: age,
                    ..config_for(&scenario)
                },
            );
            assert!(outcome.is_fixed(), "error #{} at age {age}", scenario.id);
            trials.push(outcome.search.trials_to_fix.unwrap() as f64);
        }
        trials.iter().sum::<f64>() / trials.len() as f64
    };
    let fresh = mean_trials(2);
    let old = mean_trials(14);
    assert!(
        old >= fresh,
        "mean trials should grow with injection age: {old:.1} vs {fresh:.1}"
    );
}

#[test]
fn parallel_search_equals_sequential_as_the_history_grows() {
    // Error #13 (Chrome's missing bookmark bar) over ever longer traces,
    // searched exhaustively so the plan grows with the history: every
    // parallel outcome must equal the sequential one as a whole
    // `SearchOutcome`, at 2 and 4 executors. (The shortest trace must
    // exceed the 14-day injection age, or the injection saturates to the
    // epoch and rolls back onto itself.)
    let base = scenarios().into_iter().find(|s| s.id == 13).unwrap();
    let mut shorter_plan = 0;
    for days in [21, 42, 63, 84] {
        let mut scenario = base.clone();
        scenario.trace_days = days;
        let config = ScenarioConfig {
            start_bound_days: None,
            ..ScenarioConfig::default()
        };
        let (store, _) = prepare_store(&scenario, &config);
        let clusters = Ocasta::new(config.params).cluster_store(&store);
        let search_config = SearchConfig {
            window: TimeDelta::from_millis(config.params.window_ms),
            trial_cost: scenario.trial_cost,
            ..SearchConfig::default()
        };
        let (trial, oracle) = (scenario.trial(), scenario.oracle());
        let sequential = search(&store, clusters.clusters(), &trial, &oracle, &search_config);
        assert!(sequential.is_fixed(), "error #13 at {days} days");
        assert!(sequential.total_trials > shorter_plan, "{days} days");
        shorter_plan = sequential.total_trials;
        for executors in [2, 4] {
            let parallel = parallel_search(
                &store,
                clusters.clusters(),
                &trial,
                &oracle,
                &search_config,
                executors,
            );
            assert_eq!(
                parallel, sequential,
                "parallel({executors}) != sequential at {days} days"
            );
        }
    }
}
