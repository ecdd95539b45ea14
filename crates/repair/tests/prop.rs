//! Property-based tests for the repair search.

use proptest::prelude::*;

use ocasta_repair::{
    parallel_search, search, singleton_clusters, sorted_cluster_infos, FixInfo, FixOracle,
    Screenshot, ScreenshotGallery, SearchConfig, SearchOutcome, SearchStrategy, Trial,
};
use ocasta_ttkv::{Key, TimeDelta, Timestamp, Ttkv, Value};

/// A random history over a small key space: each entry is (key, time s,
/// value).
fn history() -> impl Strategy<Value = Vec<(u8, u64, i64)>> {
    prop::collection::vec((0u8..6, 0u64..50_000, 0i64..100), 1..60)
}

fn build_store(entries: &[(u8, u64, i64)]) -> Ttkv {
    let mut ttkv = Ttkv::new();
    for &(k, t, v) in entries {
        ttkv.write(
            Timestamp::from_secs(t),
            Key::new(format!("app/k{k}")),
            Value::from(v),
        );
    }
    ttkv
}

/// A trial that exposes key k0's value on screen.
fn k0_trial() -> Trial {
    Trial::new("probe", |config| {
        let mut shot = Screenshot::new();
        if let Some(v) = config.get_int("app/k0") {
            shot.add(format!("k0:{v}"));
        }
        shot
    })
}

/// A random partition of the 6-key space into clusters: `assignment[k]` is
/// key k's cluster. Produces multi-key clusters as well as singletons.
fn clustering() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..3, 6)
}

fn build_clusters(assignment: &[u8]) -> Vec<Vec<Key>> {
    let groups = 1 + usize::from(*assignment.iter().max().unwrap_or(&0));
    let mut clusters = vec![Vec::new(); groups];
    for (k, &group) in assignment.iter().enumerate() {
        clusters[group as usize].push(Key::new(format!("app/k{k}")));
    }
    clusters.retain(|c| !c.is_empty());
    clusters
}

/// A random history with deletes over a small key and value space: each
/// entry is (key, time s, value), and `None` deletes the key. Few distinct
/// values make duplicate screenshots common.
fn history_with_deletes() -> impl Strategy<Value = Vec<(u8, u64, Option<i64>)>> {
    let entry = (0u8..6, 0u64..50_000, prop::bool::weighted(0.75), 0i64..4)
        .prop_map(|(k, t, write, v)| (k, t, write.then_some(v)));
    prop::collection::vec(entry, 1..60)
}

fn build_store_with_deletes(entries: &[(u8, u64, Option<i64>)]) -> Ttkv {
    let mut ttkv = Ttkv::new();
    for &(k, t, v) in entries {
        let (at, key) = (Timestamp::from_secs(t), Key::new(format!("app/k{k}")));
        match v {
            Some(v) => ttkv.write(at, key, Value::from(v)),
            None => ttkv.delete(at, key),
        }
    }
    ttkv
}

/// A trial that shows every key's value, so a sandbox the undo failed to
/// restore shows up in the next trial's screenshot.
fn all_keys_trial() -> Trial {
    Trial::new("probe all", |config| {
        config
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect::<Screenshot>()
    })
}

/// The clone-per-trial reference search: the plan rebuilt independently,
/// and every trial renders a fresh copy of the base with the rollback
/// patch applied — trial isolation in its most literal form.
fn reference_search(
    ttkv: &Ttkv,
    clusters: &[Vec<Key>],
    trial: &Trial,
    oracle: &FixOracle,
    config: &SearchConfig,
) -> SearchOutcome {
    let infos = sorted_cluster_infos(
        ttkv,
        clusters,
        config.window,
        config.start_time,
        config.end_time,
    );
    let mut plan = Vec::new();
    match config.strategy {
        SearchStrategy::Dfs => {
            for (rank, info) in infos.iter().enumerate() {
                plan.extend(info.versions.iter().map(|&v| (rank, v)));
            }
        }
        SearchStrategy::Bfs => {
            let depth = infos.iter().map(|i| i.versions.len()).max().unwrap_or(0);
            for d in 0..depth {
                for (rank, info) in infos.iter().enumerate() {
                    plan.extend(info.versions.get(d).map(|&v| (rank, v)));
                }
            }
        }
    }

    let base = ttkv.snapshot_latest();
    let mut gallery = ScreenshotGallery::with_baseline(trial.run(&base));
    let (mut fix, mut trials_to_fix, mut screenshots_to_fix) = (None, None, 0);
    for (n, &(rank, version)) in plan.iter().enumerate() {
        let mut sandbox = base.clone();
        for (key, value) in infos[rank].rollback_patch(ttkv, version) {
            match value {
                Some(v) => {
                    sandbox.set(key, v);
                }
                None => {
                    sandbox.remove(key.as_str());
                }
            }
        }
        let shot = trial.run(&sandbox);
        let fixed = oracle.is_fixed(&shot);
        gallery.record(shot);
        if fixed && fix.is_none() {
            fix = Some(FixInfo {
                cluster_rank: rank,
                keys: infos[rank].keys.clone(),
                version,
            });
            trials_to_fix = Some(n + 1);
            screenshots_to_fix = gallery.len();
        }
    }
    SearchOutcome {
        fix,
        trials_to_fix,
        total_trials: plan.len(),
        screenshots_to_fix,
        total_screenshots: gallery.len(),
        time_to_fix: trials_to_fix.map(|n| config.trial_cost.scale(n as u64)),
        total_time: config.trial_cost.scale(plan.len() as u64),
        clusters_searched: infos.iter().filter(|i| !i.versions.is_empty()).count(),
    }
}

proptest! {
    /// The copy-free search equals the clone-per-trial reference field for
    /// field: patching one sandbox in place and undoing the patch after
    /// every trial is indistinguishable from rendering a fresh copy. Deletes
    /// make rollbacks remove keys the undo must re-insert (and re-create
    /// keys it must remove again).
    #[test]
    fn search_equals_clone_per_trial_reference(
        entries in history_with_deletes(),
        assignment in clustering(),
        bfs in any::<bool>(),
        bounded in any::<bool>(),
        start in 0u64..50_000,
        target in 0i64..4,
    ) {
        let ttkv = build_store_with_deletes(&entries);
        let clusters = build_clusters(&assignment);
        let fixed_shows = format!("app/k0={:?}", Value::from(target));
        let oracle = FixOracle::new(move |shot: &Screenshot| shot.contains(&fixed_shows));
        let config = SearchConfig {
            strategy: if bfs { SearchStrategy::Bfs } else { SearchStrategy::Dfs },
            start_time: bounded.then(|| Timestamp::from_secs(start)),
            ..SearchConfig::default()
        };
        let trial = all_keys_trial();
        let reference = reference_search(&ttkv, &clusters, &trial, &oracle, &config);
        prop_assert_eq!(search(&ttkv, &clusters, &trial, &oracle, &config), reference);
    }

    /// The tentpole invariant: the parallel rollback search returns the
    /// same outcome as the sequential search — same fix, same trial count,
    /// same screenshot counts (to the fix and total), same modeled times —
    /// on any history, any clustering, either strategy, any thread count.
    #[test]
    fn parallel_search_equals_sequential(
        entries in history(),
        assignment in clustering(),
        threads in 1usize..6,
        bfs in any::<bool>(),
    ) {
        let ttkv = build_store(&entries);
        let clusters = build_clusters(&assignment);
        let oracle = FixOracle::new(|shot: &Screenshot| shot.contains("k0:0"));
        let config = SearchConfig {
            strategy: if bfs { SearchStrategy::Bfs } else { SearchStrategy::Dfs },
            ..SearchConfig::default()
        };
        let sequential = search(&ttkv, &clusters, &k0_trial(), &oracle, &config);
        let parallel = parallel_search(&ttkv, &clusters, &k0_trial(), &oracle, &config, threads);
        prop_assert_eq!(sequential, parallel);
    }

    /// Equality also holds under time bounds (the service pins a search
    /// window), including degenerate empty windows.
    #[test]
    fn parallel_search_equals_sequential_under_bounds(
        entries in history(),
        assignment in clustering(),
        threads in 2usize..5,
        start in 0u64..50_000,
    ) {
        let ttkv = build_store(&entries);
        let clusters = build_clusters(&assignment);
        let oracle = FixOracle::new(|shot: &Screenshot| shot.contains("k0:0"));
        let config = SearchConfig {
            start_time: Some(Timestamp::from_secs(start)),
            ..SearchConfig::default()
        };
        let sequential = search(&ttkv, &clusters, &k0_trial(), &oracle, &config);
        let parallel = parallel_search(&ttkv, &clusters, &k0_trial(), &oracle, &config, threads);
        prop_assert_eq!(sequential, parallel);
    }

    /// DFS and BFS execute the same number of trials (the same visit set)
    /// and agree on whether the error is fixable.
    #[test]
    fn dfs_bfs_agree_on_fixability(entries in history()) {
        let ttkv = build_store(&entries);
        let clusters = singleton_clusters(&ttkv);
        let oracle = FixOracle::new(|shot: &Screenshot| shot.contains("k0:0"));
        let dfs = search(&ttkv, &clusters, &k0_trial(), &oracle, &SearchConfig::default());
        let bfs = search(
            &ttkv,
            &clusters,
            &k0_trial(),
            &oracle,
            &SearchConfig {
                strategy: SearchStrategy::Bfs,
                ..SearchConfig::default()
            },
        );
        prop_assert_eq!(dfs.total_trials, bfs.total_trials);
        prop_assert_eq!(dfs.is_fixed(), bfs.is_fixed());
        // Both find a fix whose rollback really shows the element.
        for outcome in [&dfs, &bfs] {
            if let (Some(n), Some(t)) = (outcome.trials_to_fix, outcome.time_to_fix) {
                prop_assert!(n <= outcome.total_trials);
                prop_assert_eq!(t, TimeDelta::from_secs(5).scale(n as u64));
            }
        }
    }

    /// If any historical value of k0 was 0 *before its final state*, the
    /// singleton search fixes the "k0 must be 0" error; if k0 never took
    /// value 0 anywhere in history, it cannot.
    #[test]
    fn fixability_matches_history_content(entries in history()) {
        let ttkv = build_store(&entries);
        let clusters = singleton_clusters(&ttkv);
        let oracle = FixOracle::new(|shot: &Screenshot| shot.contains("k0:0"));
        let outcome = search(&ttkv, &clusters, &k0_trial(), &oracle, &SearchConfig::default());

        let k0_values: Vec<i64> = entries
            .iter()
            .filter(|(k, _, _)| *k == 0)
            .map(|&(_, _, v)| v)
            .collect();
        let ever_zero = k0_values.contains(&0);
        if !ever_zero {
            prop_assert!(!outcome.is_fixed(), "no zero in history, yet 'fixed'");
        }
        // When the *current* state is already 0 the baseline equals the
        // target; the oracle still accepts rollbacks that show k0:0.
        let current_zero = {
            let snap = ttkv.snapshot_latest();
            snap.get_int("app/k0") == Some(0)
        };
        if ever_zero && !current_zero {
            // Some rollback reaches a zero state... unless every zero write
            // shares its (1s-quantised) transaction with a later overwrite.
            // We only assert the weaker direction plus internal consistency.
            if outcome.is_fixed() {
                prop_assert!(outcome.trials_to_fix.is_some());
                prop_assert!(outcome.screenshots_to_fix >= 1);
            }
        }
    }

    /// Sorted cluster infos are ordered by ascending modification count.
    #[test]
    fn sort_is_by_modification_count(entries in history()) {
        let ttkv = build_store(&entries);
        let clusters = singleton_clusters(&ttkv);
        let infos = sorted_cluster_infos(&ttkv, &clusters, TimeDelta::from_secs(1), None, None);
        for pair in infos.windows(2) {
            prop_assert!(pair[0].modifications <= pair[1].modifications);
        }
    }

    /// Narrowing the time bounds never increases trial counts.
    #[test]
    fn narrower_bounds_mean_fewer_trials(entries in history(), bound in 0u64..50_000) {
        let ttkv = build_store(&entries);
        let clusters = singleton_clusters(&ttkv);
        let oracle = FixOracle::new(|_: &Screenshot| false);
        let unbounded = search(&ttkv, &clusters, &k0_trial(), &oracle, &SearchConfig::default());
        let bounded = search(
            &ttkv,
            &clusters,
            &k0_trial(),
            &oracle,
            &SearchConfig {
                start_time: Some(Timestamp::from_secs(bound)),
                ..SearchConfig::default()
            },
        );
        prop_assert!(bounded.total_trials <= unbounded.total_trials);
    }
}
