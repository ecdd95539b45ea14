//! Metric bundles for the facade tiers: the repair service and the
//! streaming clustering.
//!
//! Like [`ocasta_fleet::FleetMetrics`], these are **pure observers**: the
//! handles are pre-registered [`ocasta_obs`] primitives that record
//! wall-clock readings and counts, and nothing in any pipeline ever reads
//! them back. Attaching a bundle to a run changes no decision, no
//! ordering, no output byte — the seed-determinism suite holds `-o` output
//! byte-identical with metrics on and off. The architecture (and the
//! fixed-bucket histogram rationale) is `DESIGN.md §5.11`.

use std::sync::Arc;

use ocasta_obs::{Counter, Gauge, Histogram, Registry};

/// Metric handles for the repair service tier (`DESIGN.md §5.8`): the
/// per-session lifecycle latencies and the retention-pin clamp events.
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// `service.session.open_us` — session setup: materializing the epoch
    /// pin into the session's private store, which is most of it, then
    /// scenario injection and search construction.
    pub session_open: Arc<Histogram>,
    /// `service.session.step_us` — the rollback search itself (trial loop
    /// to the first fix, or through the whole plan if nothing fixes).
    pub session_step: Arc<Histogram>,
    /// `service.session.commit_us` — result extraction and report
    /// assembly after the search returns.
    pub session_commit: Arc<Histogram>,
    /// `service.sessions` — repair sessions run.
    pub sessions: Arc<Counter>,
    /// `service.pin_clamps` — sessions whose search bound was clamped up
    /// to the retention pin (history below it was already pruned
    /// fleet-wide before the session registered).
    pub pin_clamps: Arc<Counter>,
}

impl ServiceMetrics {
    /// Registers every service series in `registry` and returns the
    /// bundle of live handles.
    pub fn register(registry: &Registry) -> Self {
        ServiceMetrics {
            session_open: registry.histogram("service.session.open_us"),
            session_step: registry.histogram("service.session.step_us"),
            session_commit: registry.histogram("service.session.commit_us"),
            sessions: registry.counter("service.sessions"),
            pin_clamps: registry.counter("service.pin_clamps"),
        }
    }
}

/// Metric handles for the streaming clustering facade
/// ([`crate::OcastaStream`]).
#[derive(Debug, Clone)]
pub struct StreamMetrics {
    /// `stream.absorb_us` — time spent absorbing one non-empty batch.
    pub absorb: Arc<Histogram>,
    /// `stream.clustering_us` — time to serve one clustering snapshot
    /// (correlation snapshot + HAC).
    pub clustering: Arc<Histogram>,
    /// `stream.absorb.batches` — non-empty batches absorbed.
    pub absorb_batches: Arc<Counter>,
    /// `stream.absorb.events` — mutation events absorbed.
    pub absorb_events: Arc<Counter>,
    /// `stream.epoch` — the stream's current absorption epoch.
    pub epoch: Arc<Gauge>,
}

impl StreamMetrics {
    /// Registers every stream series in `registry` and returns the bundle
    /// of live handles.
    pub fn register(registry: &Registry) -> Self {
        StreamMetrics {
            absorb: registry.histogram("stream.absorb_us"),
            clustering: registry.histogram("stream.clustering_us"),
            absorb_batches: registry.counter("stream.absorb.batches"),
            absorb_events: registry.counter("stream.absorb.events"),
            epoch: registry.gauge("stream.epoch"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_names_every_series_once() {
        let registry = Registry::new();
        let service = ServiceMetrics::register(&registry);
        let stream = StreamMetrics::register(&registry);
        service.sessions.inc();
        stream.epoch.set(3);
        let json = registry.snapshot_json();
        for name in [
            "service.session.open_us",
            "service.session.step_us",
            "service.session.commit_us",
            "service.sessions",
            "service.pin_clamps",
            "stream.absorb_us",
            "stream.clustering_us",
            "stream.absorb.batches",
            "stream.absorb.events",
            "stream.epoch",
        ] {
            assert!(json.contains(&format!("\"{name}\"")), "{name} in {json}");
        }
        // Registering again hands back the same underlying handles.
        let again = ServiceMetrics::register(&registry);
        assert_eq!(again.sessions.get(), 1);
    }
}
