//! # ocasta-fleet — concurrent multi-machine trace ingestion
//!
//! The [Ocasta](https://arxiv.org/abs/1711.04030) study deployed loggers on
//! 29 user machines whose configuration-access traces fed a central
//! Redis-backed time-travel store. This crate is that deployment's
//! ingestion tier at simulation scale — and beyond it, to fleets of
//! hundreds of machines:
//!
//! * [`ShardedTtkv`] — the store side: TTKV shards striped by key hash,
//!   each an immutable-sealed-segments + mutable-tail stack behind its own
//!   lock, merged into one consistent [`ocasta_ttkv::Ttkv`]
//!   ([`ShardedTtkv::into_ttkv`]) whenever its owner asks;
//! * [`WalWriter`]/[`WalReader`]/[`Wal`] — an append-only write-ahead log
//!   with a checksummed binary frame format (see [`codec`]), torn-tail
//!   recovery and snapshot compaction;
//! * [`ingest_live`] + [`IngestOptions`] — the engine and its one entry
//!   point: a work queue of machines, N ingest workers driving lazy
//!   [`ocasta_trace::EventStream`]s, per-shard batching into a
//!   caller-owned [`ShardedTtkv`], and, per the options, a WAL appender
//!   lane, a live-analytics tap, a horizon guard, metrics and injected
//!   faults;
//! * [`ShardedTtkv::pin_epoch`] — the live-store read path: the store stays
//!   readable through O(shards) per-shard-atomic epoch pins
//!   ([`EpochSnapshot`]) while workers keep appending — what the repair
//!   service tier pins its sessions to;
//! * [`RetentionPolicy`]/[`ShardedTtkv::prune_before`] — the bounded-memory
//!   path: a retention sweeper prunes live shards and compacts the WAL to
//!   a rolling horizon, clamped to [`ocasta_ttkv::HorizonGuard`] pins so
//!   pinned repair sessions keep every version they registered for;
//! * [`FleetMetrics`] — the observability hooks: pass a bundle through
//!   [`IngestOptions::metrics`] and the engine records batch counts,
//!   stripe-lock waits, WAL append/flush/compact timings and sweep stalls
//!   into lock-free [`ocasta_obs`] primitives, without perturbing the
//!   run;
//! * [`diagnose`] — the offline `doctor` surface: inspects a WAL
//!   directory's manifest chain, layers and framed log for corruption,
//!   orphans and torn tails, reporting severity-ranked [`Finding`]s.
//!
//! ## Quick start
//!
//! ```
//! use ocasta_fleet::{
//!     ingest_live, FleetConfig, IngestOptions, KeyPlacement, MachineSpec, ShardedTtkv,
//! };
//! use ocasta_trace::{KeySpec, SettingGroup, ValueKind, WorkloadSpec};
//!
//! // Two simulated machines running the same app.
//! let mut spec = WorkloadSpec::new("mailer");
//! spec.groups.push(SettingGroup::new(
//!     "mark_seen",
//!     vec![
//!         KeySpec::new("mark_seen", ValueKind::Toggle { initial: true }),
//!         KeySpec::new("timeout", ValueKind::IntRange { min: 500, max: 3000 }),
//!     ],
//!     0.2,
//! ));
//! let machines: Vec<MachineSpec> = (0..2)
//!     .map(|i| MachineSpec::new(format!("m{i}"), 15, 7 + i, vec![spec.clone()]))
//!     .collect();
//!
//! let config = FleetConfig {
//!     shards: 4,
//!     ingest_threads: 2,
//!     placement: KeyPlacement::Merged,
//!     ..FleetConfig::default()
//! };
//! let sharded = ShardedTtkv::with_seal_threshold(config.shards, config.seal_threshold);
//! let report = ingest_live(&machines, &config, &sharded, IngestOptions::default())
//!     .expect("no WAL lane, no fault plan");
//! let store = sharded.into_ttkv();
//! assert_eq!(report.machines, 2);
//! assert!(store.stats().writes > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod hash;

mod doctor;
mod engine;
mod fault;
mod metrics;
mod shard;
mod tap;
mod wal;

pub use doctor::{diagnose, DoctorReport, Finding, Severity};
pub use engine::{
    ingest_live, ingest_sequential, FleetConfig, FleetReport, IngestOptions, KeyPlacement,
    MachineSpec, RetentionPolicy, RetentionReport,
};
pub use fault::{FaultPlan, IngestError};
pub use metrics::FleetMetrics;
pub use shard::{key_hash, EpochSnapshot, ShardedTtkv, DEFAULT_SEAL_THRESHOLD};
pub use tap::{lane_events, LaneEvent, WriteLanes};
pub use wal::{Wal, WalError, WalReader, WalWriter, WAL_MAGIC};
