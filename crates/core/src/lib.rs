//! # ocasta — clustering configuration settings for error recovery
//!
//! A from-scratch Rust reproduction of *Ocasta: Clustering Configuration
//! Settings For Error Recovery* (Zhen Huang and David Lie, DSN 2014,
//! [arXiv:1711.04030](https://arxiv.org/abs/1711.04030)).
//!
//! Configuration errors often involve **more than one setting**: Microsoft
//! Word's `Max Display` bounds its `Item N` MRU entries; Evolution's
//! `mark_seen_timeout` only matters while `mark_seen` is on. Ocasta watches
//! an application's accesses to its configuration store (black-box), groups
//! settings that are *modified together* with hierarchical agglomerative
//! clustering, and repairs errors by rolling back whole clusters of
//! historical values until the symptom disappears from the screen.
//!
//! This crate is the facade over the workspace:
//!
//! | Crate | Role |
//! |---|---|
//! | [`ocasta_ttkv`] | time-travel key-value store (the paper used Redis) |
//! | [`ocasta_cluster`] | correlation metric + HAC with threshold pruning |
//! | [`ocasta_parsers`] | JSON/XML/INI/plain/PostScript loggers + flush diff |
//! | [`ocasta_trace`] | access events, trace files, workload generator |
//! | [`ocasta_apps`] | the 11 evaluated applications + 16 real errors |
//! | [`ocasta_repair`] | trials, screenshots, parallel rollback search, repair sessions |
//! | [`ocasta_fleet`] | concurrent multi-machine ingestion: sharded TTKV + WAL |
//!
//! ## Quick start
//!
//! ```
//! use ocasta::{Ocasta, Timestamp, Ttkv, Value};
//!
//! // 1. Record configuration accesses (normally a logger does this).
//! let mut store = Ttkv::new();
//! for day in 0..5u64 {
//!     let t = Timestamp::from_days(day);
//!     store.write(t, "mail/mark_seen", Value::from(day % 2 == 0));
//!     store.write(t, "mail/mark_seen_timeout", Value::from(1500 + day as i64));
//! }
//!
//! // 2. Cluster related settings from co-modification statistics.
//! let clustering = Ocasta::default().cluster_store(&store);
//! assert_eq!(clustering.cluster_of("mail/mark_seen").unwrap().len(), 2);
//! ```
//!
//! See `examples/` for end-to-end repair walkthroughs, and `ocasta-bench`
//! for the binaries that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod accuracy;
pub mod fleet;
mod metrics;
mod pipeline;
mod scenario;
mod service;
mod stream;
mod vopr;

pub use accuracy::{evaluate_all, evaluate_model, score, AccuracySummary, AppAccuracy};
pub use fleet::{run_fleet, run_fleet_observed, FleetRun, FleetRunConfig};
pub use metrics::{ServiceMetrics, StreamMetrics};
pub use pipeline::{Clustering, Ocasta};
pub use scenario::{prepare_store, run_noclust, run_scenario, ScenarioConfig, ScenarioOutcome};
pub use service::{
    run_repair_service, run_repair_service_observed, RepairServiceConfig, RepairServiceRun,
    ServiceObservers, UserRepair,
};
pub use stream::{OcastaStream, StreamClustering, StreamHorizon};
pub use vopr::{
    check_parallel_equals_sequential, check_replay_matches_store, check_retention_equivalence,
    check_stream_equals_batch, run_vopr, vopr_scenario_names, ReplayRelation, VoprCheck,
    VoprOutcome,
};

// Re-export the pieces users need without adding every sub-crate to their
// dependency list.
pub use ocasta_apps::{all_models, model_by_name, scenarios, AppModel, ErrorScenario, LoggerKind};
pub use ocasta_cluster::{
    cluster_correlations, cluster_events, hac, transactions, ClusterParams, Correlations,
    Dendrogram, DistanceMatrix, IncrementalCorrelations, Linkage, PartitionStats,
    TransactionWindow, WriteEvent,
};
pub use ocasta_fleet::{
    diagnose, ingest as fleet_ingest, ingest_into as fleet_ingest_into,
    ingest_live as fleet_ingest_live, ingest_observed as fleet_ingest_observed,
    ingest_tapped as fleet_ingest_tapped, DoctorReport, FaultPlan, Finding, FleetConfig,
    FleetMetrics, FleetReport, IngestError, IngestOptions, IngestTap, KeyPlacement, MachineSpec,
    RetentionPolicy, RetentionReport, Severity, ShardedTtkv, Wal, WalError, WalReader, WalWriter,
    WriteLanes, WAL_MAGIC,
};
pub use ocasta_obs::{Counter, Gauge, Histogram, Registry};
pub use ocasta_parsers::{
    detect_format, diff_flush, parse, write, FlatConfig, FlushChange, Format, Node,
    ParseConfigError,
};
pub use ocasta_repair::{
    parallel_search, search, simulate_case, singleton_clusters, CaseUserModel, CatalogHorizon,
    ClusterCatalog, FixOracle, RepairSession, Screenshot, SearchConfig, SearchOutcome,
    SearchStrategy, SessionReport, Trial, UserStudyParams,
};
pub use ocasta_trace::{
    generate, mutation_feed, AccessEvent, EventStream, GeneratorConfig, MachineProfile, Mutation,
    OsFlavor, Trace, TraceOp, TraceStats, WorkloadSpec, TABLE1_PROFILES,
};
pub use ocasta_ttkv::{
    ConfigState, HorizonGuard, HorizonPin, Key, KeyRecord, PruneStats, TimeDelta, TimePrecision,
    Timestamp, Ttkv, TtkvBuilder, TtkvError, TtkvStats, Value, Version,
};
