//! # ocasta-repair — automated configuration-error repair
//!
//! The repair tool of the Ocasta reproduction (*Ocasta: Clustering
//! Configuration Settings for Error Recovery*, Zhen Huang and David Lie,
//! IEEE/IFIP DSN 2014; preprint at
//! [arXiv:1711.04030](https://arxiv.org/abs/1711.04030)) — §III-B and
//! §IV-C of the paper: given a TTKV history, a clustering of the
//! application's settings, a user trial that makes the error's symptom
//! visible, and the user's judgement of screenshots, it searches historical
//! cluster values for a rollback that clears the symptom.
//!
//! * [`ClusterInfo`] — a cluster's version history (co-modification
//!   transactions) and rollback patches, applied to a sandbox in place and
//!   undone after each trial;
//! * [`Trial`] / [`FixOracle`] / [`Screenshot`] — the deterministic stand-in
//!   for GUI replay, pixel screenshots and the human in the loop;
//! * [`search`] — the DFS/BFS rollback search with modification-count
//!   cluster sorting, start/end time bounds and screenshot deduplication;
//! * [`parallel_search`] — the same search with concurrent trial executors
//!   that each patch and restore one sandbox, folded in plan order and
//!   property-tested equal to [`search`] outcome for outcome;
//! * [`RepairSession`] / [`ClusterCatalog`] — the service tier: repair runs
//!   pinned to a live-stream snapshot (epoch/watermark-stamped catalog plus
//!   a point-in-time history view) so sessions proceed while fleet
//!   ingestion continues;
//! * [`HorizonGuard`] (re-exported from `ocasta-ttkv`) — the retention pin
//!   registry: before snapshotting, a driver pins
//!   [`SearchConfig::oldest_history_needed`] so concurrent retention
//!   sweeps never prune versions the search might roll back to, and drops
//!   the pin once the session owns its snapshot (`DESIGN.md §5.9`);
//! * [`singleton_clusters`] — the `Ocasta-NoClust` baseline (roll back one
//!   setting at a time);
//! * [`simulate_case`] — the Figure 4 user-study model.
//!
//! ```
//! use ocasta_repair::{search, singleton_clusters, FixOracle, SearchConfig, Screenshot, Trial};
//! use ocasta_ttkv::{Key, Timestamp, Ttkv, Value};
//!
//! // History: the toolbar flag broke at t=90.
//! let mut ttkv = Ttkv::new();
//! ttkv.write(Timestamp::from_secs(1), "app/toolbar", Value::from(true));
//! ttkv.write(Timestamp::from_secs(90), "app/toolbar", Value::from(false));
//!
//! let trial = Trial::new("launch", |config| {
//!     let mut shot = Screenshot::new();
//!     shot.add_if(config.get_bool("app/toolbar").unwrap_or(false), "toolbar");
//!     shot
//! });
//! let outcome = search(
//!     &ttkv,
//!     &singleton_clusters(&ttkv),
//!     &trial,
//!     &FixOracle::element_visible("toolbar"),
//!     &SearchConfig::default(),
//! );
//! assert!(outcome.is_fixed());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod history;
mod parallel;
mod screenshot;
mod search;
mod session;
mod trial;
mod user_model;

pub use history::{singleton_clusters, sorted_cluster_infos, ClusterInfo};
pub use parallel::parallel_search;
pub use screenshot::{Screenshot, ScreenshotGallery};
pub use search::{search, FixInfo, SearchConfig, SearchOutcome, SearchStrategy};
pub use session::{CatalogHorizon, ClusterCatalog, RepairSession, SessionReport};
pub use trial::{FixOracle, Trial};
pub use user_model::{simulate_case, CaseStudyResult, CaseUserModel, UserStudyParams};

// The retention pin registry lives in the store crate (it is shared with
// the fleet tier's sweeper); repair drivers pin through it before they
// snapshot a session's history, so re-export it here.
pub use ocasta_ttkv::{HorizonGuard, HorizonPin};
