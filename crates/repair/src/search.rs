//! The rollback search: DFS/BFS over cluster version histories.

use ocasta_ttkv::{ConfigState, Key, TimeDelta, Timestamp, Ttkv};

use crate::history::{sorted_cluster_infos, ClusterInfo};
use crate::screenshot::{Screenshot, ScreenshotGallery};
use crate::trial::{FixOracle, Trial};

/// Order in which `(cluster, version)` pairs are tried (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchStrategy {
    /// Exhaust one cluster's versions before moving to the next. Best when
    /// the sort ranks the offending cluster early.
    #[default]
    Dfs,
    /// Try every cluster's latest unexplored version before going one step
    /// deeper anywhere. Less sensitive to sort quality.
    Bfs,
}

impl SearchStrategy {
    /// Human-readable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SearchStrategy::Dfs => "DFS",
            SearchStrategy::Bfs => "BFS",
        }
    }
}

/// Parameters of one repair search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Trial order.
    pub strategy: SearchStrategy,
    /// Co-modification window used to group cluster versions.
    pub window: TimeDelta,
    /// Earliest transaction considered (the user's "error was introduced
    /// after" bound); `None` searches the whole history.
    pub start_time: Option<Timestamp>,
    /// Latest transaction considered (roughly when the error was first
    /// noticed); `None` searches to the end of history.
    pub end_time: Option<Timestamp>,
    /// Simulated wall-clock cost of one trial execution (sandbox reset +
    /// application launch + UI replay + screenshot). Used for the time
    /// columns of Table IV; per-scenario values are calibrated in
    /// `ocasta-apps` (see each `ErrorScenario::trial_cost`).
    pub trial_cost: TimeDelta,
}

impl SearchConfig {
    /// The oldest timestamp a search with this config can possibly touch —
    /// what a session registers with an [`ocasta_ttkv::HorizonGuard`]
    /// **before** snapshotting a live store, so retention sweeps never
    /// prune versions the search might roll back to.
    ///
    /// An unbounded search (`start_time: None`) needs everything, so it
    /// pins the epoch. A bounded one needs `start_time` itself, one
    /// [`SearchConfig::window`] of slack below it (pruning a mutation just
    /// under the horizon can re-anchor a transaction that straddles it,
    /// shifting version start times within one window), and one more
    /// millisecond for the pre-transaction state a rollback patch reads
    /// ([`crate::ClusterInfo::rollback_patch`]). Searches against a store
    /// pruned at or before this timestamp are equivalent to searches
    /// against the unpruned history — regression-tested in this module.
    pub fn oldest_history_needed(&self) -> Timestamp {
        match self.start_time {
            None => Timestamp::EPOCH,
            Some(start) => start
                .saturating_sub(self.window)
                .saturating_sub(TimeDelta::from_millis(1)),
        }
    }

    /// The inverse of [`SearchConfig::oldest_history_needed`]: the
    /// earliest `start_time` this search may safely use when history below
    /// `pin` may already be pruned fleet-wide (a sweep preceded the pin
    /// registration and the guard clamped it up). An epoch pin constrains
    /// nothing. The two methods are the *only* owners of the
    /// window-plus-millisecond slack, so the pin a driver registers and
    /// the bound it later searches with cannot drift apart.
    pub fn earliest_safe_start(&self, pin: Timestamp) -> Timestamp {
        if pin == Timestamp::EPOCH {
            Timestamp::EPOCH
        } else {
            pin + self.window + TimeDelta::from_millis(1)
        }
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            strategy: SearchStrategy::Dfs,
            window: TimeDelta::from_secs(1),
            start_time: None,
            end_time: None,
            trial_cost: TimeDelta::from_secs(5),
        }
    }
}

/// Where the fix was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixInfo {
    /// Position of the offending cluster in the sorted search order.
    pub cluster_rank: usize,
    /// The offending cluster's keys.
    pub keys: Vec<Key>,
    /// The transaction that was undone to fix the error.
    pub version: Timestamp,
}

/// The result of a repair search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The fix, if any rollback cleared the symptom.
    pub fix: Option<FixInfo>,
    /// Trials executed up to and including the fixing one.
    pub trials_to_fix: Option<usize>,
    /// The plan length: trials an exhaustive search of every version of
    /// every cluster would execute. Computed from the plan, not counted —
    /// the search stops at the first fix.
    pub total_trials: usize,
    /// Unique screenshots recorded up to the fix (what the user examines).
    pub screenshots_to_fix: usize,
    /// Modeled wall-clock to the fix (`trials_to_fix × trial_cost`).
    pub time_to_fix: Option<TimeDelta>,
    /// Modeled wall-clock for the exhaustive search (`total_trials ×
    /// trial_cost`), likewise computed rather than run.
    pub total_time: TimeDelta,
    /// Number of clusters that had at least one searchable version.
    pub clusters_searched: usize,
}

impl SearchOutcome {
    /// `true` if the search repaired the error.
    pub fn is_fixed(&self) -> bool {
        self.fix.is_some()
    }
}

/// Runs the repair search over `clusters` against the recorded history in
/// `ttkv`.
///
/// The search sorts clusters by modification count (ascending — settings
/// that change rarely are likely configuration), walks `(cluster, version)`
/// pairs in the configured strategy order, executes the trial on a sandboxed
/// rollback of each version, and asks the oracle (standing in for the human
/// checking the screenshot gallery) whether the symptom is gone. Like the
/// paper's user, who stops once a screenshot shows the error gone, the
/// search stops at the first fix. Table IV's "searched everything" cost is
/// arithmetic — the plan length times the trial cost — so it is reported
/// without running the trials past the fix.
///
/// # Examples
///
/// ```
/// use ocasta_repair::{search, FixOracle, SearchConfig, Trial};
/// use ocasta_ttkv::{Key, Timestamp, Ttkv, Value};
///
/// let mut ttkv = Ttkv::new();
/// ttkv.write(Timestamp::from_secs(10), "app/visible", Value::from(true));
/// ttkv.write(Timestamp::from_secs(99), "app/visible", Value::from(false)); // the error
///
/// let trial = Trial::new("launch app", |config| {
///     let mut shot = ocasta_repair::Screenshot::new();
///     shot.add_if(config.get_bool("app/visible").unwrap_or(false), "panel");
///     shot
/// });
/// let outcome = search(
///     &ttkv,
///     &[vec![Key::new("app/visible")]],
///     &trial,
///     &FixOracle::element_visible("panel"),
///     &SearchConfig::default(),
/// );
/// assert!(outcome.is_fixed());
/// assert_eq!(outcome.trials_to_fix, Some(1));
/// ```
pub fn search(
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
    // The live snapshot doubles as the one sandbox every trial patches and
    // restores.
    let mut sandbox = ttkv.snapshot_latest();
    let mut tally = Tally::new(trial.run(&sandbox));
    let visits = plan(&infos, config.strategy);
    for &(rank, version) in &visits {
        let (shot, fixed) = run_trial(ttkv, &infos[rank], version, &mut sandbox, trial, oracle);
        tally.fold(&infos, rank, version, shot, fixed);
        if fixed {
            break;
        }
    }
    tally.finish(&infos, visits.len(), config)
}

/// One trial: patch the rollback into `sandbox`, render, judge, undo.
pub(crate) fn run_trial(
    ttkv: &Ttkv,
    info: &ClusterInfo,
    version: Timestamp,
    sandbox: &mut ConfigState,
    trial: &Trial,
    oracle: &FixOracle,
) -> (Screenshot, bool) {
    info.with_rollback(ttkv, version, sandbox, |config| {
        let shot = trial.run(config);
        let fixed = oracle.is_fixed(&shot);
        (shot, fixed)
    })
}

/// The search's running state. Trials are folded strictly in plan order,
/// up to and including the first fix, which is what makes every counter —
/// first fix, trials-to-fix, unique screenshots at the fix — independent
/// of how the trials were executed.
#[derive(Debug)]
pub(crate) struct Tally {
    gallery: ScreenshotGallery,
    fix: Option<FixInfo>,
    trials_to_fix: Option<usize>,
    screenshots_to_fix: usize,
    trials: usize,
}

impl Tally {
    /// An empty tally whose gallery dedups against the erroneous baseline.
    pub(crate) fn new(baseline: Screenshot) -> Self {
        Tally {
            gallery: ScreenshotGallery::with_baseline(baseline),
            fix: None,
            trials_to_fix: None,
            screenshots_to_fix: 0,
            trials: 0,
        }
    }

    /// Trials folded so far.
    pub(crate) fn trials(&self) -> usize {
        self.trials
    }

    /// Folds the next trial of the plan: rolling back `infos[rank]` to
    /// `version` rendered `shot`, which the oracle judged `fixed`. The
    /// caller folds nothing after a fix.
    pub(crate) fn fold(
        &mut self,
        infos: &[ClusterInfo],
        rank: usize,
        version: Timestamp,
        shot: Screenshot,
        fixed: bool,
    ) {
        debug_assert!(self.fix.is_none(), "folded a trial past the fix");
        self.trials += 1;
        self.gallery.record(shot);
        if fixed {
            self.fix = Some(FixInfo {
                cluster_rank: rank,
                keys: infos[rank].keys.clone(),
                version,
            });
            self.trials_to_fix = Some(self.trials);
            self.screenshots_to_fix = self.gallery.len();
        }
    }

    /// The outcome of the folded trials over a plan of `plan_len` entries.
    pub(crate) fn finish(
        self,
        infos: &[ClusterInfo],
        plan_len: usize,
        config: &SearchConfig,
    ) -> SearchOutcome {
        SearchOutcome {
            trials_to_fix: self.trials_to_fix,
            total_trials: plan_len,
            screenshots_to_fix: self.screenshots_to_fix,
            time_to_fix: self
                .trials_to_fix
                .map(|n| config.trial_cost.scale(n as u64)),
            total_time: config.trial_cost.scale(plan_len as u64),
            clusters_searched: infos.iter().filter(|i| !i.versions.is_empty()).count(),
            fix: self.fix,
        }
    }
}

/// The `(cluster rank, version timestamp)` visit order for a strategy.
/// Shared with the parallel search, which executes exactly this order
/// (concurrently, folded back in order).
pub(crate) fn plan(infos: &[ClusterInfo], strategy: SearchStrategy) -> Vec<(usize, Timestamp)> {
    let mut out = Vec::new();
    match strategy {
        SearchStrategy::Dfs => {
            for (rank, info) in infos.iter().enumerate() {
                for &version in &info.versions {
                    out.push((rank, version));
                }
            }
        }
        SearchStrategy::Bfs => {
            let max_depth = infos.iter().map(|i| i.versions.len()).max().unwrap_or(0);
            for depth in 0..max_depth {
                for (rank, info) in infos.iter().enumerate() {
                    if let Some(&version) = info.versions.get(depth) {
                        out.push((rank, version));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::singleton_clusters;
    use ocasta_ttkv::Value;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// Two dependent keys: the panel shows iff `enabled` and `mode == "full"`.
    fn dependent_store() -> Ttkv {
        let mut ttkv = Ttkv::new();
        ttkv.write(ts(10), "app/enabled", Value::from(true));
        ttkv.write(ts(10), "app/mode", Value::from("full"));
        // A healthy joint change.
        ttkv.write(ts(1000), "app/enabled", Value::from(true));
        ttkv.write(ts(1000), "app/mode", Value::from("full"));
        // The error: both keys broken together.
        ttkv.write(ts(2000), "app/enabled", Value::from(false));
        ttkv.write(ts(2000), "app/mode", Value::from("compact"));
        // Unrelated churn, modified often (sorts late).
        for i in 0..10 {
            ttkv.write(ts(3000 + i), "app/geometry", Value::from(i as i64));
        }
        ttkv
    }

    fn panel_trial() -> Trial {
        Trial::new("open app", |config| {
            let mut shot = Screenshot::new();
            let on = config.get_bool("app/enabled").unwrap_or(false)
                && config.get_str("app/mode") == Some("full");
            shot.add_if(on, "panel");
            shot.add("window");
            shot
        })
    }

    #[test]
    fn clustered_search_fixes_multi_key_error() {
        let ttkv = dependent_store();
        let clusters = vec![
            vec![Key::new("app/enabled"), Key::new("app/mode")],
            vec![Key::new("app/geometry")],
        ];
        let outcome = search(
            &ttkv,
            &clusters,
            &panel_trial(),
            &FixOracle::element_visible("panel"),
            &SearchConfig::default(),
        );
        assert!(outcome.is_fixed());
        let fix = outcome.fix.unwrap();
        assert_eq!(fix.version, ts(2000));
        assert_eq!(fix.keys.len(), 2);
        // The pair cluster has 6 modifications vs geometry's 10, so it is
        // tried first; the fix is its newest version.
        assert_eq!(outcome.trials_to_fix, Some(1));
        assert!(outcome.total_trials >= 3);
        assert_eq!(outcome.time_to_fix, Some(TimeDelta::from_secs(5)));
    }

    #[test]
    fn noclust_cannot_fix_multi_key_error() {
        let ttkv = dependent_store();
        let outcome = search(
            &ttkv,
            &singleton_clusters(&ttkv),
            &panel_trial(),
            &FixOracle::element_visible("panel"),
            &SearchConfig::default(),
        );
        assert!(
            !outcome.is_fixed(),
            "rolling back one key at a time must not clear a two-key error"
        );
        assert!(outcome.total_trials > 0);
    }

    #[test]
    fn noclust_fixes_single_key_error() {
        let mut ttkv = Ttkv::new();
        ttkv.write(ts(1), "app/enabled", Value::from(true));
        ttkv.write(ts(1), "app/mode", Value::from("full"));
        ttkv.write(ts(500), "app/enabled", Value::from(false)); // only one key broke
        let outcome = search(
            &ttkv,
            &singleton_clusters(&ttkv),
            &panel_trial(),
            &FixOracle::element_visible("panel"),
            &SearchConfig::default(),
        );
        assert!(outcome.is_fixed());
    }

    #[test]
    fn bfs_and_dfs_visit_the_same_pairs() {
        let ttkv = dependent_store();
        let clusters = vec![
            vec![Key::new("app/enabled"), Key::new("app/mode")],
            vec![Key::new("app/geometry")],
        ];
        let infos = sorted_cluster_infos(&ttkv, &clusters, TimeDelta::from_secs(1), None, None);
        let mut dfs = plan(&infos, SearchStrategy::Dfs);
        let mut bfs = plan(&infos, SearchStrategy::Bfs);
        assert_ne!(dfs, bfs, "orders differ");
        dfs.sort();
        bfs.sort();
        assert_eq!(dfs, bfs, "same visit set");
    }

    #[test]
    fn start_bound_limits_search_depth() {
        let ttkv = dependent_store();
        let clusters = vec![vec![Key::new("app/enabled"), Key::new("app/mode")]];
        let bounded = SearchConfig {
            start_time: Some(ts(1500)),
            ..SearchConfig::default()
        };
        let outcome = search(
            &ttkv,
            &clusters,
            &panel_trial(),
            &FixOracle::element_visible("panel"),
            &bounded,
        );
        // Only the t=2000 (error) transaction is in range.
        assert_eq!(outcome.total_trials, 1);
        assert!(outcome.is_fixed());
    }

    #[test]
    fn screenshots_are_deduplicated() {
        let mut ttkv = dependent_store();
        // A rarely modified key sorts ahead of the pair, so its two
        // rollbacks run before the fix.
        ttkv.write(ts(5000), "app/theme", Value::from("dark"));
        ttkv.write(ts(6000), "app/theme", Value::from("light"));
        let clusters = vec![
            vec![Key::new("app/enabled"), Key::new("app/mode")],
            vec![Key::new("app/geometry")],
            vec![Key::new("app/theme")],
        ];
        let outcome = search(
            &ttkv,
            &clusters,
            &panel_trial(),
            &FixOracle::element_visible("panel"),
            &SearchConfig::default(),
        );
        // The theme rollbacks render identically to the erroneous
        // baseline, so the gallery holds just the fixed shot.
        assert_eq!(outcome.trials_to_fix, Some(3));
        assert_eq!(outcome.screenshots_to_fix, 1);
    }

    #[test]
    fn the_search_stops_at_the_first_fix() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let mut ttkv = dependent_store();
        // Ten more geometry versions, one every 10 s, all after the pair's.
        for i in 0..10 {
            ttkv.write(ts(4000 + 10 * i), "app/geometry", Value::from(-1));
        }
        let clusters = vec![
            vec![Key::new("app/enabled"), Key::new("app/mode")],
            vec![Key::new("app/geometry")],
        ];
        let oracle = FixOracle::element_visible("panel");
        let config = SearchConfig::default();
        let renders = Arc::new(AtomicUsize::new(0));
        let counted = {
            let (renders, panel) = (Arc::clone(&renders), panel_trial());
            Trial::new("counted", move |config| {
                renders.fetch_add(1, Ordering::SeqCst);
                panel.run(config)
            })
        };
        let runs: [&dyn Fn() -> SearchOutcome; 2] = [
            &|| search(&ttkv, &clusters, &counted, &oracle, &config),
            &|| crate::parallel_search(&ttkv, &clusters, &counted, &oracle, &config, 1),
        ];
        for run in runs {
            renders.store(0, Ordering::SeqCst);
            let outcome = run();
            assert!(outcome.total_trials >= 10, "{outcome:?}");
            assert_eq!(
                outcome.total_time,
                config.trial_cost.scale(outcome.total_trials as u64)
            );
            // The baseline render, then trials up to and including the fix.
            let trials_to_fix = outcome
                .trials_to_fix
                .expect("the pair's newest version fixes");
            assert_eq!(renders.load(Ordering::SeqCst), trials_to_fix + 1);
        }
    }

    #[test]
    fn oldest_history_needed_bounds() {
        let unbounded = SearchConfig::default();
        assert_eq!(unbounded.oldest_history_needed(), Timestamp::EPOCH);
        let bounded = SearchConfig {
            start_time: Some(ts(1500)),
            window: TimeDelta::from_secs(1),
            ..SearchConfig::default()
        };
        assert_eq!(
            bounded.oldest_history_needed(),
            Timestamp::from_millis(1_498_999),
        );
        // A bound tighter than the window pins the epoch, not underflow.
        let tight = SearchConfig {
            start_time: Some(Timestamp::from_millis(500)),
            ..SearchConfig::default()
        };
        assert_eq!(tight.oldest_history_needed(), Timestamp::EPOCH);
        // earliest_safe_start inverts oldest_history_needed exactly.
        assert_eq!(
            bounded.earliest_safe_start(bounded.oldest_history_needed()),
            ts(1500),
        );
        assert_eq!(
            bounded.earliest_safe_start(Timestamp::EPOCH),
            Timestamp::EPOCH
        );
    }

    #[test]
    fn search_over_a_pinned_prune_equals_search_over_full_history() {
        // The §5.9 contract, at search level: pruning at or before
        // `oldest_history_needed()` must not change a bounded search's
        // outcome — field for field, including tombstone-at-horizon and
        // version-exactly-at-horizon records.
        let mut ttkv = dependent_store();
        ttkv.write(ts(1400), "app/phantom", Value::from("old"));
        ttkv.delete(ts(1450), "app/phantom"); // dead at the horizon
        let config = SearchConfig {
            start_time: Some(ts(1500)),
            ..SearchConfig::default()
        };
        let horizon = config.oldest_history_needed();
        // A mutation exactly at the horizon stays searchable context.
        ttkv.write(horizon, "app/geometry", Value::from(-1));

        let clusters = vec![
            vec![Key::new("app/enabled"), Key::new("app/mode")],
            vec![Key::new("app/geometry")],
            vec![Key::new("app/phantom")],
        ];
        let trial = panel_trial();
        let oracle = FixOracle::element_visible("panel");
        let full = search(&ttkv, &clusters, &trial, &oracle, &config);

        let mut pruned = ttkv.clone();
        let stats = pruned.prune_before(horizon);
        assert!(stats.pruned_versions > 0, "the prune must bite");
        let after_prune = search(&pruned, &clusters, &trial, &oracle, &config);
        assert_eq!(full, after_prune);
        assert!(full.is_fixed());
    }

    #[test]
    fn unfixable_when_history_lacks_a_good_state() {
        let mut ttkv = Ttkv::new();
        // The app was always broken: no historical value shows the panel.
        ttkv.write(ts(1), "app/enabled", Value::from(false));
        ttkv.write(ts(100), "app/enabled", Value::from(false));
        let outcome = search(
            &ttkv,
            &singleton_clusters(&ttkv),
            &panel_trial(),
            &FixOracle::element_visible("panel"),
            &SearchConfig::default(),
        );
        assert!(!outcome.is_fixed());
        assert_eq!(outcome.trials_to_fix, None);
        assert_eq!(outcome.time_to_fix, None);
    }
}
