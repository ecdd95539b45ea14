//! The parallel rollback search: the sequential search's trials, executed
//! concurrently, with the sequential search's answers — exactly.
//!
//! A repair trial is the expensive step of the loop (§III-B: sandbox reset,
//! application launch, UI replay, screenshot — modeled here as patching a
//! rollback into a sandbox, rendering, and undoing the patch). Trials are
//! independent: each one rolls back a candidate version onto the *same*
//! erroneous base state and renders. [`parallel_search`] exploits that
//! with executors that live for the whole search, each owning one sandbox
//! copy of the base: they claim plan positions from a shared cursor and
//! report `(position, screenshot, fixed)` over a channel, while the
//! coordinating thread runs trials too and folds every result **in plan
//! order**. Because every counter the search reports — first fix,
//! trials-to-fix, unique screenshots at the fix — is updated during that
//! in-order fold, the outcome equals [`search`]'s field for field, which the
//! property suite asserts on random histories (`tests/prop.rs`) and
//! `DESIGN.md §5.8` argues structurally.
//!
//! [`search`]: crate::search::search

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use ocasta_ttkv::{Key, Timestamp, Ttkv};

use crate::history::sorted_cluster_infos;
use crate::screenshot::Screenshot;
use crate::search::{plan, run_trial, SearchConfig, SearchOutcome, Tally};
use crate::trial::{FixOracle, Trial};

/// Runs the repair search with up to `threads` concurrent trial executors.
///
/// Semantics are identical to [`search`](crate::search::search) — same
/// visit order, same fix, same trial and screenshot counts — only the
/// wall-clock of executing the trials changes. The calling thread is one of
/// the executors and the other `min(threads, trials) − 1` are spawned once
/// per search, each with its own sandbox copy of the base configuration;
/// `threads == 1` degenerates to the sequential loop with no thread spawns
/// at all.
///
/// # Panics
///
/// If a trial's render or oracle panics, on any executor, the search
/// panics too; it never returns an outcome that is missing a trial.
///
/// # Examples
///
/// ```
/// use ocasta_repair::{parallel_search, search, singleton_clusters};
/// use ocasta_repair::{FixOracle, Screenshot, SearchConfig, Trial};
/// use ocasta_ttkv::{Timestamp, Ttkv, Value};
///
/// let mut ttkv = Ttkv::new();
/// ttkv.write(Timestamp::from_secs(1), "app/toolbar", Value::from(true));
/// ttkv.write(Timestamp::from_secs(90), "app/toolbar", Value::from(false));
/// let trial = Trial::new("launch", |config| {
///     let mut shot = Screenshot::new();
///     shot.add_if(config.get_bool("app/toolbar").unwrap_or(false), "toolbar");
///     shot
/// });
/// let clusters = singleton_clusters(&ttkv);
/// let oracle = FixOracle::element_visible("toolbar");
/// let config = SearchConfig::default();
/// let parallel = parallel_search(&ttkv, &clusters, &trial, &oracle, &config, 4);
/// assert_eq!(parallel, search(&ttkv, &clusters, &trial, &oracle, &config));
/// ```
pub fn parallel_search(
    ttkv: &Ttkv,
    clusters: &[Vec<Key>],
    trial: &Trial,
    oracle: &FixOracle,
    config: &SearchConfig,
    threads: usize,
) -> SearchOutcome {
    parallel_search_observed(ttkv, clusters, trial, oracle, config, threads, |_| {})
}

/// [`parallel_search`] with a progress observer: each time another
/// `threads` trials have been folded (the boundaries of `threads`-wide
/// waves through the plan), `on_progress` receives the oldest history
/// timestamp the **remaining** plan can still touch (via
/// [`SearchConfig::oldest_history_needed`] applied to the oldest surviving
/// candidate version — the single owner of the window-plus-millisecond
/// slack).
///
/// The reported bound is monotone non-decreasing across waves: the plan
/// only shrinks, so its oldest remaining candidate only moves forward. A
/// repair driver holding an [`ocasta_ttkv::HorizonPin`] can therefore feed
/// each report straight into [`ocasta_ttkv::HorizonPin::advance`], letting
/// retention follow the search instead of stalling at the session's
/// starting window for its whole life (the pin-starvation fix,
/// `DESIGN.md §5.9`). Trials still in flight all sit at or past the folded
/// prefix, so the bound covers them too. The observer runs on the
/// coordinating thread; it does not perturb the search — outcomes equal
/// [`parallel_search`]'s (and therefore the sequential search's) field for
/// field.
///
/// When the final trial is folded, the observer is *not* called with an
/// "everything prunable" bound: releasing the last of the protection is the
/// pin drop's job, and the driver may still read the pinned snapshot while
/// assembling its report.
pub fn parallel_search_observed(
    ttkv: &Ttkv,
    clusters: &[Vec<Key>],
    trial: &Trial,
    oracle: &FixOracle,
    config: &SearchConfig,
    threads: usize,
    mut on_progress: impl FnMut(Timestamp),
) -> SearchOutcome {
    let threads = threads.max(1);
    let infos = sorted_cluster_infos(
        ttkv,
        clusters,
        config.window,
        config.start_time,
        config.end_time,
    );
    let visits = plan(&infos, config.strategy);
    // Suffix minima over candidate version timestamps: `oldest_after[i]` is
    // the oldest version any trial from position `i` onward can roll back
    // to — what the remaining plan still needs from history.
    let mut oldest_after = visits
        .iter()
        .map(|&(_, version)| version)
        .collect::<Vec<_>>();
    for i in (1..oldest_after.len()).rev() {
        oldest_after[i - 1] = oldest_after[i - 1].min(oldest_after[i]);
    }

    let base = ttkv.snapshot_latest();
    let mut tally = Tally::new(trial.run(&base));
    // The next unclaimed plan position. `Relaxed` suffices: the cursor only
    // hands out distinct positions, and every result travels back through
    // the channel, which synchronises.
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, Screenshot, bool)>();
        // The coordinator is one of the `threads` executors, so a plan of
        // one trial (and therefore threads == 1) spawns nothing.
        for _ in 1..threads.min(visits.len()) {
            let tx = tx.clone();
            let (infos, visits, base, cursor) = (&infos, &visits, &base, &cursor);
            scope.spawn(move || {
                let mut sandbox = base.clone();
                loop {
                    let position = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(rank, version)) = visits.get(position) else {
                        break;
                    };
                    let (shot, fixed) =
                        run_trial(ttkv, &infos[rank], version, &mut sandbox, trial, oracle);
                    if tx.send((position, shot, fixed)).is_err() {
                        break; // the coordinator is unwinding
                    }
                }
            });
        }
        // Only executors hold senders now: once they have all exited, a
        // wait on `rx` ends instead of blocking forever.
        drop(tx);

        let mut sandbox = base.clone();
        // Results that arrived ahead of the fold, keyed by plan position.
        let mut ahead: BTreeMap<usize, (Screenshot, bool)> = BTreeMap::new();
        while tally.trials() < visits.len() {
            let next = tally.trials();
            let Some((shot, fixed)) = ahead.remove(&next) else {
                // `next` is still running elsewhere: run another trial
                // here, or wait for the executors once every position is
                // claimed. Every sender dropped with a result still
                // missing means an executor panicked mid-trial.
                let position = cursor.fetch_add(1, Ordering::Relaxed);
                if let Some(&(rank, version)) = visits.get(position) {
                    let result =
                        run_trial(ttkv, &infos[rank], version, &mut sandbox, trial, oracle);
                    ahead.insert(position, result);
                } else {
                    let (p, shot, fixed) = rx.recv().expect("trial executor panicked");
                    ahead.insert(p, (shot, fixed));
                }
                ahead.extend(rx.try_iter().map(|(p, shot, fixed)| (p, (shot, fixed))));
                continue;
            };
            let (rank, version) = visits[next];
            tally.fold(&infos, rank, version, shot, fixed);
            // Progress after every `threads` folded trials, never after the
            // last: every trial still running or unclaimed sits at or past
            // `folded`, so the suffix minimum bounds what it can touch.
            let folded = tally.trials();
            if folded.is_multiple_of(threads) && folded < visits.len() {
                let remaining = SearchConfig {
                    start_time: Some(oldest_after[folded]),
                    ..config.clone()
                };
                on_progress(remaining.oldest_history_needed());
            }
        }
    });
    tally.finish(&infos, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::singleton_clusters;
    use crate::search::{search, SearchStrategy};
    use ocasta_ttkv::Value;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// The two-key dependent store from the sequential search's tests.
    fn dependent_store() -> Ttkv {
        let mut ttkv = Ttkv::new();
        ttkv.write(ts(10), "app/enabled", Value::from(true));
        ttkv.write(ts(10), "app/mode", Value::from("full"));
        ttkv.write(ts(1000), "app/enabled", Value::from(true));
        ttkv.write(ts(1000), "app/mode", Value::from("full"));
        ttkv.write(ts(2000), "app/enabled", Value::from(false));
        ttkv.write(ts(2000), "app/mode", Value::from("compact"));
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
    fn every_thread_count_matches_sequential() {
        let ttkv = dependent_store();
        let clusters = vec![
            vec![Key::new("app/enabled"), Key::new("app/mode")],
            vec![Key::new("app/geometry")],
        ];
        let oracle = FixOracle::element_visible("panel");
        for strategy in [SearchStrategy::Dfs, SearchStrategy::Bfs] {
            let config = SearchConfig {
                strategy,
                ..SearchConfig::default()
            };
            let sequential = search(&ttkv, &clusters, &panel_trial(), &oracle, &config);
            for threads in [1, 2, 3, 8, 64] {
                let parallel =
                    parallel_search(&ttkv, &clusters, &panel_trial(), &oracle, &config, threads);
                assert_eq!(parallel, sequential, "threads={threads} {strategy:?}");
            }
            assert!(sequential.is_fixed());
        }
    }

    #[test]
    fn progress_observer_reports_monotone_bounds_without_perturbing_outcome() {
        let ttkv = dependent_store();
        let clusters = vec![
            vec![Key::new("app/enabled"), Key::new("app/mode")],
            vec![Key::new("app/geometry")],
        ];
        let oracle = FixOracle::element_visible("panel");
        let config = SearchConfig::default();
        for threads in [1, 2, 4] {
            let mut reports: Vec<Timestamp> = Vec::new();
            let observed = parallel_search_observed(
                &ttkv,
                &clusters,
                &panel_trial(),
                &oracle,
                &config,
                threads,
                |t| reports.push(t),
            );
            let plain =
                parallel_search(&ttkv, &clusters, &panel_trial(), &oracle, &config, threads);
            assert_eq!(observed, plain, "threads={threads}");
            if threads < observed.total_trials {
                assert!(!reports.is_empty(), "waves reported progress");
            } else {
                // The whole plan fit in one wave, and the final wave never
                // reports: releasing protection is the pin drop's job.
                assert!(reports.is_empty(), "threads={threads}: {reports:?}");
            }
            assert!(
                reports.windows(2).all(|w| w[0] <= w[1]),
                "bounds are monotone: {reports:?}"
            );
            // Every report is a bound the remaining plan honours: it never
            // exceeds what the whole search needed at the start plus the
            // full span of candidate versions.
            let initial = config.oldest_history_needed();
            assert!(reports.iter().all(|&t| t >= initial));
        }
    }

    #[test]
    fn a_panicking_trial_panics_out_of_the_search() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        // Seven trials: one key rewritten at t = 10, 20, …, 70 s. The first
        // trial on every executor waits at a barrier until all `threads`
        // executors hold one, which forces the one trial that panics onto
        // the executor each case names: the coordinator, or a spawned
        // executor whose dropped sender must end the coordinator's wait.
        for threads in [2, 3] {
            for panic_on_coordinator in [None, Some(true), Some(false)] {
                // Search on a watchdog thread: a coordinator stuck waiting
                // for a result that never comes fails the test instead of
                // hanging it.
                let (done_tx, done_rx) = mpsc::channel();
                std::thread::spawn(move || {
                    let mut ttkv = Ttkv::new();
                    for v in 0..7u64 {
                        ttkv.write(ts(10 * (v + 1)), "app/k", Value::from(v as i64));
                    }
                    let coordinator = std::thread::current().id();
                    let barrier = Barrier::new(threads);
                    let (arrived, panicked) = (AtomicUsize::new(0), AtomicBool::new(false));
                    let trial = Trial::new("poisoned", move |config| {
                        let value = config.get_int("app/k");
                        // The baseline render (value 6) precedes every
                        // executor, so it stays out of the barrier.
                        if value != Some(6) && arrived.fetch_add(1, Ordering::SeqCst) < threads {
                            barrier.wait();
                            let here = std::thread::current().id() == coordinator;
                            if panic_on_coordinator == Some(here)
                                && !panicked.swap(true, Ordering::SeqCst)
                            {
                                panic!("render failed on {value:?}");
                            }
                        }
                        Screenshot::from_iter([format!("k:{value:?}")])
                    });
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        parallel_search(
                            &ttkv,
                            &singleton_clusters(&ttkv),
                            &trial,
                            &FixOracle::element_visible("never"),
                            &SearchConfig::default(),
                            threads,
                        )
                    }));
                    let _ = done_tx.send(outcome.map(|o| o.total_trials));
                });
                let case =
                    format!("threads={threads} panic_on_coordinator={panic_on_coordinator:?}");
                match done_rx.recv_timeout(std::time::Duration::from_secs(60)) {
                    Ok(Ok(trials)) if panic_on_coordinator.is_none() => assert_eq!(trials, 7),
                    Ok(Err(_)) if panic_on_coordinator.is_some() => {} // the panic surfaced
                    Ok(result) => panic!("{case}: {result:?}"),
                    Err(_) => panic!("{case}: the search never returned"),
                }
            }
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let ttkv = dependent_store();
        let clusters = singleton_clusters(&ttkv);
        let oracle = FixOracle::element_visible("panel");
        let config = SearchConfig::default();
        let outcome = parallel_search(&ttkv, &clusters, &panel_trial(), &oracle, &config, 0);
        assert_eq!(
            outcome,
            search(&ttkv, &clusters, &panel_trial(), &oracle, &config)
        );
    }

    #[test]
    fn empty_history_yields_empty_outcome() {
        let ttkv = Ttkv::new();
        let outcome = parallel_search(
            &ttkv,
            &[],
            &panel_trial(),
            &FixOracle::element_visible("panel"),
            &SearchConfig::default(),
            4,
        );
        assert!(!outcome.is_fixed());
        assert_eq!(outcome.total_trials, 0);
        assert_eq!(outcome.clusters_searched, 0);
    }
}
