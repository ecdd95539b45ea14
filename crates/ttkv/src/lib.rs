//! # ocasta-ttkv — time-travel key-value store
//!
//! The storage substrate of the [Ocasta](https://arxiv.org/abs/1711.04030)
//! reproduction: a versioned key-value store that records every access an
//! application makes to its configuration store and can answer point-in-time
//! queries over the recorded history.
//!
//! The paper implements this component on Redis; this crate is a from-scratch
//! native equivalent with the same record shape — per key, the number of
//! reads/writes/deletions plus a timestamped list of historical values in
//! which deletions appear as tombstones.
//!
//! ## Quick start
//!
//! ```
//! use ocasta_ttkv::{Timestamp, Ttkv, Value};
//!
//! let mut store = Ttkv::new();
//! store.write(Timestamp::from_secs(0), "mail/mark_seen", Value::from(true));
//! store.write(Timestamp::from_secs(0), "mail/mark_seen_timeout", Value::from(1500));
//! store.write(Timestamp::from_secs(60), "mail/mark_seen", Value::from(false));
//!
//! // Clustering input: who was modified, when.
//! let modified: Vec<_> = store.modified_keys().collect();
//! assert_eq!(modified.len(), 2);
//!
//! // Rollback input: what was the configuration at minute zero?
//! let snapshot = store.snapshot_at(Timestamp::from_secs(30));
//! assert_eq!(snapshot.get_bool("mail/mark_seen"), Some(true));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod hash;

mod builder;
mod error;
mod key;
mod persist;
mod persist_v2;
mod record;
mod retention;
mod snapshot;
mod stats;
mod store;
mod time;
mod value;

pub use builder::TtkvBuilder;
pub use error::TtkvError;
pub use key::Key;
pub use persist_v2::BINARY_MAGIC;
pub use record::{KeyRecord, Version};
pub use retention::{HorizonGuard, HorizonPin};
pub use snapshot::ConfigState;
pub use stats::{PruneStats, TtkvStats};
pub use store::Ttkv;
pub use time::{TimeDelta, TimePrecision, Timestamp};
pub use value::Value;
