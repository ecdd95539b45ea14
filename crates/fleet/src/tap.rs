//! The ingestion tap: per-shard lanes that observe batches as they land.
//!
//! Live analytics (streaming clustering, monitoring) must see the event
//! flow *while* ingestion runs, without slowing it down. With
//! `IngestOptions::tap` set, every ingest worker hands every accepted
//! batch to [`WriteLanes::on_batch`], on the worker's own thread and
//! **outside the shard lock** — the tap can therefore never extend a
//! stripe's critical section, only the tapping worker's own wall-clock.
//!
//! [`WriteLanes`] is what the streaming clustering facade consumes: one
//! mutex-guarded lane per shard accumulating `(key, timestamp)` mutation
//! pairs. The hot path takes exactly one per-shard lane lock per batch (two
//! workers contend only when they land batches on the same shard at the
//! same moment); the expensive work — key interning, windowing, pair
//! counting — happens at *drain* time, on the analytics thread, amortised
//! over however many events arrived since the last query.

use std::sync::Mutex;

use ocasta_trace::TraceOp;
use ocasta_ttkv::{Key, Timestamp};

/// One buffered mutation observation: which key changed, and when.
pub type LaneEvent = (Key, Timestamp);

/// The lane events of one batch: each mutation's key and time, in batch
/// order, with reads skipped. Each event costs one reference-count bump
/// on its key; no value is copied.
pub fn lane_events(batch: &[TraceOp]) -> Vec<LaneEvent> {
    batch
        .iter()
        .filter_map(TraceOp::as_mutation)
        .map(|event| (event.key.clone(), event.timestamp))
        .collect()
}

/// Per-shard mutation accumulators: the analytics-side half of the tap.
///
/// Ingest workers append mutations to the lane of the shard they just
/// wrote (read ops carry no co-modification signal and are skipped); an
/// analytics thread calls [`WriteLanes::drain`] whenever it wants to fold
/// the backlog into its incremental state.
///
/// # Examples
///
/// ```
/// use ocasta_fleet::{lane_events, WriteLanes};
/// use ocasta_trace::{AccessEvent, TraceOp};
/// use ocasta_ttkv::Timestamp;
///
/// let lanes = WriteLanes::new(4);
/// let op = TraceOp::Mutation(AccessEvent::write(Timestamp::from_secs(1), "app/k", 1));
/// lanes.on_batch(2, lane_events(&[op]));
/// assert_eq!(lanes.buffered(), 1);
/// let drained = lanes.drain();
/// assert_eq!(drained.len(), 1);
/// assert_eq!(drained[0].0.as_str(), "app/k");
/// assert_eq!(lanes.buffered(), 0);
/// ```
#[derive(Debug)]
pub struct WriteLanes {
    lanes: Vec<Mutex<Vec<LaneEvent>>>,
}

impl WriteLanes {
    /// Creates one lane per shard (at least 1).
    pub fn new(shards: usize) -> Self {
        WriteLanes {
            lanes: (0..shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Mutations currently buffered across all lanes (takes each lane lock
    /// briefly; a progress metric, not a synchronisation point).
    pub fn buffered(&self) -> usize {
        self.lanes
            .iter()
            .map(|lane| lane.lock().expect("lane lock poisoned").len())
            .sum()
    }

    /// Takes every buffered mutation, emptying the lanes. Each lane lock is
    /// taken once; ingestion keeps appending to the emptied lanes
    /// concurrently.
    pub fn drain(&self) -> Vec<LaneEvent> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            out.append(&mut lane.lock().expect("lane lock poisoned"));
        }
        out
    }

    /// Observes one batch routed to `shard`: appends its [`lane_events`]
    /// to that shard's lane (an out-of-range `shard` wraps).
    ///
    /// Ingest workers call this concurrently, once per shard batch, after
    /// placement and timestamp quantisation — the lanes see exactly what
    /// the store sees — and after the shard has applied the batch, so a
    /// store snapshot taken after an observation always contains it (the
    /// containment the repair tier's catalog/snapshot pin relies on,
    /// `DESIGN.md §5.8`). Batches arrive in per-machine stream order but
    /// interleave arbitrarily across machines, so order-sensitive consumers
    /// must do their own sequencing (the streaming clustering path reorders
    /// by timestamp behind a watermark).
    pub fn on_batch(&self, shard: usize, mut events: Vec<LaneEvent>) {
        if events.is_empty() {
            return;
        }
        let lane = shard % self.lanes.len();
        self.lanes[lane]
            .lock()
            .expect("lane lock poisoned")
            .append(&mut events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocasta_trace::AccessEvent;
    use ocasta_ttkv::Value;

    fn write_op(key: &str, secs: u64) -> TraceOp {
        TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_secs(secs),
            key,
            Value::from(1),
        ))
    }

    #[test]
    fn reads_are_skipped_mutations_accumulate() {
        let lanes = WriteLanes::new(2);
        lanes.on_batch(
            0,
            lane_events(&[write_op("a/x", 1), TraceOp::Reads(Key::new("a/x"), 99)]),
        );
        lanes.on_batch(1, lane_events(&[write_op("b/y", 2)]));
        assert_eq!(lanes.buffered(), 2);
        let mut keys: Vec<String> = lanes
            .drain()
            .into_iter()
            .map(|(k, _)| k.as_str().to_owned())
            .collect();
        keys.sort();
        assert_eq!(keys, vec!["a/x".to_owned(), "b/y".to_owned()]);
    }

    #[test]
    fn drain_empties_and_ingestion_can_continue() {
        let lanes = WriteLanes::new(1);
        lanes.on_batch(0, lane_events(&[write_op("a/x", 1)]));
        assert_eq!(lanes.drain().len(), 1);
        assert_eq!(lanes.buffered(), 0);
        lanes.on_batch(0, lane_events(&[write_op("a/y", 2)]));
        assert_eq!(lanes.drain().len(), 1);
    }

    #[test]
    fn concurrent_taps_lose_nothing() {
        let lanes = WriteLanes::new(4);
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let lanes = &lanes;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let op = write_op(&format!("w{worker}/k{i}"), i);
                        lanes.on_batch((i % 4) as usize, lane_events(&[op]));
                    }
                });
            }
        });
        assert_eq!(lanes.drain().len(), 4 * 200);
    }

    #[test]
    fn out_of_range_shards_wrap_instead_of_panicking() {
        let lanes = WriteLanes::new(2);
        lanes.on_batch(7, lane_events(&[write_op("a/x", 1)]));
        assert_eq!(lanes.buffered(), 1);
    }
}
