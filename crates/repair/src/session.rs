//! Repair sessions: the service-tier unit of repair work.
//!
//! The paper's repair tool runs on one user's machine over one recorded
//! history. At fleet scale the history lives in a continuously-ingesting
//! sharded store and the cluster catalog is served by the streaming
//! clustering tier, so a repair run must *pin* its inputs: a
//! [`RepairSession`] owns a point-in-time history snapshot plus a
//! [`ClusterCatalog`] stamped with the stream horizon it was taken from
//! ([`CatalogHorizon`]), and searches those while ingestion continues
//! elsewhere. Because the session owns its history, it needs no retention
//! pin while it searches: a driver holds one only until the snapshot is
//! taken, and retention sweeps run freely under the search. The facade
//! crate (`ocasta`) builds sessions from live `ShardedTtkv` epoch pins and
//! `OcastaStream` clusterings; this module keeps the session machinery
//! store-agnostic (see `DESIGN.md §5.8`, §5.9).

use std::time::Duration;

use ocasta_obs::Stopwatch;
use ocasta_ttkv::{Key, Ttkv};

use crate::parallel::parallel_search;
use crate::search::{SearchConfig, SearchOutcome};
use crate::trial::{FixOracle, Trial};

/// The stream horizon a cluster catalog was pinned from: which prefix of
/// the live event stream the clusters describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CatalogHorizon {
    /// Absorption epoch of the stream at pin time.
    pub epoch: u64,
    /// Mutation events the clustering had absorbed at pin time.
    pub events: u64,
    /// Sealed time at pin time (milliseconds; 0 if nothing was sealed).
    pub watermark_ms: u64,
}

/// A pinned cluster catalog: the partition of settings a repair session
/// searches, stamped with the stream horizon it reflects.
///
/// # Examples
///
/// ```
/// use ocasta_repair::{CatalogHorizon, ClusterCatalog};
/// use ocasta_ttkv::Key;
///
/// let mut catalog = ClusterCatalog::new(
///     vec![vec![Key::new("app/a"), Key::new("app/b")]],
///     CatalogHorizon { epoch: 3, events: 128, watermark_ms: 90_000 },
/// );
/// assert!(catalog.covers(&Key::new("app/a")));
/// // A key the stream has not clustered yet falls back to a singleton.
/// assert!(catalog.ensure_singleton(&Key::new("app/new")));
/// assert!(!catalog.ensure_singleton(&Key::new("app/new")), "idempotent");
/// assert_eq!(catalog.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterCatalog {
    clusters: Vec<Vec<Key>>,
    horizon: CatalogHorizon,
}

impl ClusterCatalog {
    /// Creates a catalog from a clustering and the horizon it was pinned at.
    pub fn new(clusters: Vec<Vec<Key>>, horizon: CatalogHorizon) -> Self {
        ClusterCatalog { clusters, horizon }
    }

    /// A catalog from a batch (non-streaming) clustering: no stream ran, so
    /// the horizon stamp is all zeros.
    pub fn from_batch(clusters: Vec<Vec<Key>>) -> Self {
        ClusterCatalog::new(clusters, CatalogHorizon::default())
    }

    /// The clusters the session will search.
    pub fn clusters(&self) -> &[Vec<Key>] {
        &self.clusters
    }

    /// The stream horizon the catalog was pinned from.
    pub fn horizon(&self) -> CatalogHorizon {
        self.horizon
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` if the catalog has no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// `true` if some cluster contains `key`.
    pub fn covers(&self, key: &Key) -> bool {
        self.clusters.iter().any(|c| c.contains(key))
    }

    /// Guarantees `key` is searchable: if no cluster covers it, appends a
    /// singleton cluster (the NoClust fallback for keys the stream had not
    /// observed when the catalog was pinned — e.g. a setting first touched
    /// by the error itself). Returns `true` if a cluster was added.
    pub fn ensure_singleton(&mut self, key: &Key) -> bool {
        if self.covers(key) {
            return false;
        }
        self.clusters.push(vec![key.clone()]);
        true
    }
}

/// One user's repair run against pinned fleet state.
///
/// A session owns its inputs — the history snapshot and the stamped
/// catalog — so any number of sessions run concurrently against one fleet
/// store without synchronising with ingestion, retention or each other.
///
/// # Examples
///
/// ```
/// use ocasta_repair::{ClusterCatalog, FixOracle, RepairSession};
/// use ocasta_repair::{Screenshot, SearchConfig, Trial};
/// use ocasta_ttkv::{Key, Timestamp, Ttkv, Value};
///
/// let mut history = Ttkv::new();
/// history.write(Timestamp::from_secs(1), "app/toolbar", Value::from(true));
/// history.write(Timestamp::from_secs(90), "app/toolbar", Value::from(false));
///
/// let catalog = ClusterCatalog::from_batch(vec![vec![Key::new("app/toolbar")]]);
/// let session = RepairSession::new("alice", history, catalog, SearchConfig::default())
///     .with_threads(2);
/// let trial = Trial::new("launch", |config| {
///     let mut shot = Screenshot::new();
///     shot.add_if(config.get_bool("app/toolbar").unwrap_or(false), "toolbar");
///     shot
/// });
/// let report = session.run(&trial, &FixOracle::element_visible("toolbar"));
/// assert!(report.outcome.is_fixed());
/// assert_eq!(report.user, "alice");
/// ```
#[derive(Debug, Clone)]
pub struct RepairSession {
    user: String,
    store: Ttkv,
    catalog: ClusterCatalog,
    config: SearchConfig,
    threads: usize,
}

impl RepairSession {
    /// Creates a session over a pinned history snapshot and catalog.
    pub fn new(
        user: impl Into<String>,
        store: Ttkv,
        catalog: ClusterCatalog,
        config: SearchConfig,
    ) -> Self {
        RepairSession {
            user: user.into(),
            store,
            catalog,
            config,
            threads: 1,
        }
    }

    /// Sets the number of concurrent trial executors (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The user this session repairs for.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The pinned history snapshot the session searches.
    pub fn store(&self) -> &Ttkv {
        &self.store
    }

    /// The pinned cluster catalog.
    pub fn catalog(&self) -> &ClusterCatalog {
        &self.catalog
    }

    /// Concurrent trial executors the session will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the rollback search until its first fix (or through the whole
    /// plan, if nothing fixes) and reports the outcome.
    pub fn run(&self, trial: &Trial, oracle: &FixOracle) -> SessionReport {
        let started = Stopwatch::start();
        let outcome = parallel_search(
            &self.store,
            self.catalog.clusters(),
            trial,
            oracle,
            &self.config,
            self.threads,
        );
        SessionReport {
            user: self.user.clone(),
            outcome,
            horizon: self.catalog.horizon(),
            threads: self.threads,
            wall: started.elapsed(),
        }
    }
}

/// What one repair session did.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The session's user.
    pub user: String,
    /// The search result (fix, trial counts, screenshot counts, modeled
    /// times).
    pub outcome: SearchOutcome,
    /// The stream horizon the session's catalog was pinned from.
    pub horizon: CatalogHorizon,
    /// Concurrent trial executors used.
    pub threads: usize,
    /// Measured wall-clock of the search (the *compute* cost; the modeled
    /// user-facing cost is `outcome.total_time`).
    pub wall: Duration,
}

impl SessionReport {
    /// `true` if the session repaired the error.
    pub fn is_fixed(&self) -> bool {
        self.outcome.is_fixed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screenshot::Screenshot;
    use ocasta_ttkv::{Timestamp, Value};

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn toolbar_trial() -> Trial {
        Trial::new("launch", |config| {
            let mut shot = Screenshot::new();
            shot.add_if(config.get_bool("app/toolbar").unwrap_or(true), "toolbar");
            shot
        })
    }

    #[test]
    fn session_owns_pinned_inputs_and_fixes() {
        let mut store = Ttkv::new();
        store.write(ts(5), "app/toolbar", Value::from(true));
        store.write(ts(900), "app/toolbar", Value::from(false));
        let catalog = ClusterCatalog::new(
            vec![vec![Key::new("app/toolbar")]],
            CatalogHorizon {
                epoch: 7,
                events: 2,
                watermark_ms: 900_000,
            },
        );
        let session = RepairSession::new("u0", store, catalog, SearchConfig::default());
        assert_eq!(session.user(), "u0");
        assert_eq!(session.threads(), 1);
        assert_eq!(session.catalog().horizon().epoch, 7);
        let report = session.run(&toolbar_trial(), &FixOracle::element_visible("toolbar"));
        assert!(report.is_fixed());
        assert_eq!(report.horizon.epoch, 7);
        assert_eq!(report.threads, 1);
    }

    #[test]
    fn concurrent_sessions_share_nothing() {
        let mut store = Ttkv::new();
        store.write(ts(5), "app/toolbar", Value::from(true));
        store.write(ts(900), "app/toolbar", Value::from(false));
        let catalog = ClusterCatalog::from_batch(vec![vec![Key::new("app/toolbar")]]);
        let reports: Vec<SessionReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|u| {
                    let store = store.clone();
                    let catalog = catalog.clone();
                    scope.spawn(move || {
                        let session = RepairSession::new(
                            format!("u{u}"),
                            store,
                            catalog,
                            SearchConfig::default(),
                        )
                        .with_threads(2);
                        session.run(&toolbar_trial(), &FixOracle::element_visible("toolbar"))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session panicked"))
                .collect()
        });
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(SessionReport::is_fixed));
        // Sessions over identical pinned inputs report identical outcomes.
        assert!(reports.windows(2).all(|w| w[0].outcome == w[1].outcome));
    }

    #[test]
    fn catalog_singleton_fallback_is_idempotent() {
        let mut catalog = ClusterCatalog::from_batch(vec![vec![Key::new("a")]]);
        assert!(!catalog.ensure_singleton(&Key::new("a")));
        assert!(catalog.ensure_singleton(&Key::new("b")));
        assert!(!catalog.ensure_singleton(&Key::new("b")));
        assert_eq!(catalog.len(), 2);
        assert!(!catalog.is_empty());
    }
}
