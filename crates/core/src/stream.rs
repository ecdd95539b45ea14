//! The streaming pipeline: clusters that are continuously available while
//! events pour in.
//!
//! The batch pipeline ([`Ocasta::cluster_store`]) stops the world: record a
//! full history, re-read every key's mutations, window, count, cluster.
//! [`OcastaStream`] keeps the analytics *live*: it absorbs mutation events
//! as they arrive (straight from a fleet ingestion via
//! [`ocasta_fleet::WriteLanes`], in batches of `(key, time)` pairs, or one
//! event at a time), maintains the co-modification statistics
//! incrementally, and serves the current clustering at any moment by
//! running HAC over a snapshot of the live correlation state.
//!
//! Every answer names the event horizon it reflects — an epoch counter,
//! the number of absorbed events and the watermark — so a caller can tell
//! *which* prefix of the stream a clustering describes.
//!
//! The invariant that makes this safe to ship, enforced by the equivalence
//! property suites: after absorbing the same mutations, in any batch
//! split, [`OcastaStream::clustering`] equals [`Ocasta::cluster_store`]
//! **exactly** — same keys, same clusters, same order (see
//! `DESIGN.md §5.7`).

use std::collections::HashMap;
use std::sync::Arc;

use ocasta_cluster::WriteEvent;
use ocasta_cluster::{cluster_correlations, IncrementalCorrelations};
use ocasta_fleet::WriteLanes;
use ocasta_obs::Stopwatch;
use ocasta_repair::{CatalogHorizon, ClusterCatalog};
use ocasta_ttkv::{Key, Timestamp};

use crate::metrics::StreamMetrics;
use crate::pipeline::{Clustering, Ocasta};

/// The event horizon a streamed clustering reflects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHorizon {
    /// Absorption epoch: bumped once per non-empty absorbed batch/drain.
    pub epoch: u64,
    /// Mutation events absorbed so far.
    pub events: u64,
    /// Sealed time: results at or below this are final (milliseconds).
    pub watermark_ms: u64,
    /// Latest event time absorbed, if any (milliseconds).
    pub max_time_ms: Option<u64>,
}

/// A clustering served from the live stream, stamped with its horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamClustering {
    /// The partition of every key mutated so far.
    pub clustering: Clustering,
    /// Which prefix of the stream it reflects.
    pub horizon: StreamHorizon,
}

impl StreamClustering {
    /// Pins this live answer as a repair-session catalog: the clusters plus
    /// a [`CatalogHorizon`] stamp naming the stream prefix they reflect.
    /// This is the hand-off point between the streaming tier and the repair
    /// service tier (`DESIGN.md §5.8`).
    pub fn catalog(&self) -> ClusterCatalog {
        ClusterCatalog::new(
            self.clustering.clusters().to_vec(),
            CatalogHorizon {
                epoch: self.horizon.epoch,
                events: self.horizon.events,
                watermark_ms: self.horizon.watermark_ms,
            },
        )
    }
}

/// Online clustering over a live mutation stream.
///
/// # Examples
///
/// ```
/// use ocasta::{Ocasta, OcastaStream, Timestamp};
///
/// let mut stream = OcastaStream::new(&Ocasta::default());
/// for burst in 0..3u64 {
///     let t = Timestamp::from_secs(burst * 1000);
///     stream.absorb_write(&"mail/mark_seen".into(), t);
///     stream.absorb_write(&"mail/mark_seen_timeout".into(), t);
///     stream.seal(); // end of batch: everything so far is final
/// }
/// let live = stream.clustering();
/// assert_eq!(live.clustering.cluster_of("mail/mark_seen").unwrap().len(), 2);
/// assert_eq!(live.horizon.events, 6);
/// ```
#[derive(Debug, Clone)]
pub struct OcastaStream {
    engine: Ocasta,
    /// Keys in arrival order; `index` inverts it.
    keys: Vec<Key>,
    index: HashMap<Key, usize>,
    incremental: IncrementalCorrelations,
    epoch: u64,
    /// Optional observer bundle; purely observational (see
    /// `DESIGN.md §5.11`) — never read back by the pipeline.
    metrics: Option<Arc<StreamMetrics>>,
}

impl OcastaStream {
    /// Creates a stream serving the same parameters (window, threshold,
    /// linkage, precision) as the given batch engine — the pairing the
    /// equivalence tests compare.
    pub fn new(engine: &Ocasta) -> Self {
        OcastaStream {
            engine: engine.clone(),
            keys: Vec::new(),
            index: HashMap::new(),
            incremental: IncrementalCorrelations::new(engine.params().window_ms),
            epoch: 0,
            metrics: None,
        }
    }

    /// Attaches a [`StreamMetrics`] bundle: absorb/query latencies, batch
    /// and event counts, and the epoch gauge get recorded from here on.
    /// Purely observational — answers are identical with or without it.
    pub fn set_metrics(&mut self, metrics: Arc<StreamMetrics>) {
        self.metrics = Some(metrics);
    }

    /// The batch engine this stream mirrors.
    pub fn engine(&self) -> &Ocasta {
        &self.engine
    }

    /// The current event horizon.
    pub fn horizon(&self) -> StreamHorizon {
        StreamHorizon {
            epoch: self.epoch,
            events: self.incremental.events_observed(),
            watermark_ms: self.incremental.watermark_ms(),
            max_time_ms: self.incremental.max_time_ms(),
        }
    }

    /// Distinct keys mutated so far.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Absorbs one mutation: `key` changed at `time`. The timestamp is
    /// quantised to the engine's precision, exactly as the batch path
    /// quantises store histories.
    pub fn absorb_write(&mut self, key: &Key, time: Timestamp) {
        let item = match self.index.get(key) {
            Some(&item) => item,
            None => {
                let item = self.keys.len();
                self.keys.push(key.clone());
                self.index.insert(key.clone(), item);
                item
            }
        };
        let time_ms = self.engine.precision().apply(time).as_millis();
        self.incremental.observe(WriteEvent::new(item, time_ms));
    }

    /// Absorbs a batch of `(key, time)` mutation pairs (the
    /// [`WriteLanes`] vocabulary); a non-empty batch bumps the epoch, so
    /// the epoch counts data arrivals, not poll iterations.
    pub fn absorb_batch<I>(&mut self, batch: I) -> usize
    where
        I: IntoIterator<Item = (Key, Timestamp)>,
    {
        let started = Stopwatch::start_if(self.metrics.is_some());
        let mut absorbed = 0;
        for (key, time) in batch {
            self.absorb_write(&key, time);
            absorbed += 1;
        }
        if absorbed > 0 {
            self.epoch += 1;
            if let (Some(m), Some(started)) = (&self.metrics, started) {
                m.absorb.record_duration(started.elapsed());
                m.absorb_batches.inc();
                m.absorb_events.add(absorbed as u64);
                m.epoch.set(self.epoch);
            }
        }
        absorbed
    }

    /// Drains a fleet ingestion's analytics lanes into the stream; returns
    /// how many mutations were absorbed. Call repeatedly while
    /// [`ocasta_fleet::ingest_tapped`] runs to keep the clustering fresh.
    pub fn drain_lanes(&mut self, lanes: &WriteLanes) -> usize {
        self.absorb_batch(lanes.drain())
    }

    /// Promises that no future event is older than `watermark`: seals the
    /// prefix, keeping per-event work bounded by the open window.
    pub fn advance_watermark(&mut self, watermark: Timestamp) {
        self.incremental
            .advance_watermark(self.engine.precision().apply(watermark).as_millis());
    }

    /// Seals everything absorbed so far (watermark = latest event time):
    /// right after a source reports a batch boundary, or at end of stream.
    pub fn seal(&mut self) {
        if let Some(max) = self.incremental.max_time_ms() {
            self.incremental.advance_watermark(max);
        }
    }

    /// Serves the clustering as of *right now*, stamped with its horizon.
    ///
    /// Cost is O(sealed state + unsealed backlog), plus HAC over the
    /// co-modified pairs alone: the nearest-neighbour chain walks sparse
    /// neighbour rows, so keys that were never written together cost no
    /// `n × n` matrix. Everything at or below the watermark is pre-folded
    /// into sparse counts, so for feeds that seal as they go (a
    /// time-ordered live tail with [`advance_watermark`](Self::advance_watermark),
    /// or [`seal`](Self::seal) at batch boundaries) a query never rescans
    /// history, so its cost stays flat as history grows. A feed that *cannot*
    /// seal mid-run — concurrent fleet machines interleave simulated time
    /// arbitrarily, so no sound mid-run watermark exists — still gets an
    /// exact answer from the optimistic snapshot, paying O(events absorbed
    /// since the last seal) for it.
    pub fn clustering(&self) -> StreamClustering {
        let started = Stopwatch::start_if(self.metrics.is_some());
        // Streaming discovered keys in arrival order; the batch pipeline
        // numbers them in sorted-name order. Relabel onto the batch index
        // space so HAC tie-breaking — and therefore the partition — is
        // identical.
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_by(|&a, &b| self.keys[a].cmp(&self.keys[b]));
        let mut perm = vec![0usize; self.keys.len()];
        for (rank, &arrival) in order.iter().enumerate() {
            perm[arrival] = rank;
        }
        let sorted_keys: Vec<Key> = order.iter().map(|&i| self.keys[i].clone()).collect();

        let correlations = self.incremental.snapshot().relabeled(&perm);
        let partition = cluster_correlations(&correlations, self.engine.params());
        let served = StreamClustering {
            clustering: Clustering::new(sorted_keys, partition),
            horizon: self.horizon(),
        };
        if let (Some(m), Some(started)) = (&self.metrics, started) {
            m.clustering.record_duration(started.elapsed());
        }
        served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocasta_ttkv::{Ttkv, Value};

    /// Writes that exercise pairs, noise and deletes.
    fn sample_mutations() -> Vec<(Key, Timestamp, Option<Value>)> {
        let mut muts = Vec::new();
        for burst in 0..4u64 {
            let t = Timestamp::from_secs(burst * 500);
            muts.push((Key::new("app/a"), t, Some(Value::from(burst as i64))));
            muts.push((Key::new("app/b"), t, Some(Value::from(1))));
        }
        muts.push((
            Key::new("app/noise"),
            Timestamp::from_secs(123),
            Some(Value::from(1)),
        ));
        muts.push((Key::new("app/noise"), Timestamp::from_secs(456), None));
        muts
    }

    fn batch_store() -> Ttkv {
        let mut store = Ttkv::new();
        for (key, t, value) in sample_mutations() {
            match value {
                Some(v) => store.write(t, key, v),
                None => store.delete(t, key),
            }
        }
        store
    }

    #[test]
    fn streaming_equals_batch_on_the_same_input() {
        let engine = Ocasta::default();
        let mut stream = OcastaStream::new(&engine);
        for (key, t, _) in sample_mutations() {
            stream.absorb_write(&key, t);
        }
        let live = stream.clustering();
        let batch = engine.cluster_store(&batch_store());
        assert_eq!(live.clustering, batch);
    }

    /// Streaming == batch at full size: the fleet feed of 12 machines x
    /// 30 days of gedit, evolution and chrome (seed 42), quantised to
    /// seconds. At each of 8 evenly spaced checkpoints, the incremental
    /// state that absorbed only the delta must cluster exactly like a
    /// batch run over the whole prefix.
    #[test]
    fn sweep_checkpoints_cover_the_stream_and_agree() {
        use crate::fleet::{fleet_machines, FleetRunConfig};
        use ocasta_cluster::{cluster_events, ClusterParams};
        use ocasta_ttkv::TimePrecision;

        let machines = fleet_machines(&FleetRunConfig {
            machines: 12,
            days: 30,
            seed: 42,
            apps: vec!["gedit".into(), "evolution".into(), "chrome".into()],
            ..FleetRunConfig::default()
        })
        .expect("catalog names are valid");
        let mut items = HashMap::new();
        let mut events = Vec::new();
        for machine in &machines {
            for (key, t) in ocasta_trace::mutation_feed(machine.stream()) {
                let next = items.len();
                let item = *items.entry(key).or_insert(next);
                events.push(WriteEvent::new(
                    item,
                    TimePrecision::Seconds.apply(t).as_millis(),
                ));
            }
        }
        events.sort_unstable();
        assert_eq!((events.len(), items.len()), (25_045, 148), "the feed");

        let params = ClusterParams::default();
        let mut incremental = IncrementalCorrelations::with_items(items.len(), params.window_ms);
        let checkpoints = 8;
        let mut absorbed = 0;
        for checkpoint in 1..=checkpoints {
            let upto = events.len() * checkpoint / checkpoints;
            for &event in &events[absorbed..upto] {
                incremental.observe(event);
                incremental.advance_watermark(event.time_ms);
            }
            absorbed = upto;
            assert_eq!(
                cluster_correlations(&incremental.snapshot(), &params),
                cluster_events(items.len(), &events[..upto], &params),
                "streaming != batch at checkpoint {checkpoint} ({upto} events)"
            );
        }
        assert_eq!(absorbed, events.len(), "the checkpoints cover the stream");
    }

    #[test]
    fn horizon_tracks_epochs_events_and_watermark() {
        let mut stream = OcastaStream::new(&Ocasta::default());
        assert_eq!(stream.horizon().epoch, 0);
        let batch: Vec<(Key, Timestamp)> = sample_mutations()
            .into_iter()
            .map(|(k, t, _)| (k, t))
            .collect();
        let absorbed = stream.absorb_batch(batch);
        assert_eq!(absorbed, 10);
        let h = stream.horizon();
        assert_eq!(h.epoch, 1);
        assert_eq!(h.events, 10);
        // An empty drain (an idle poll) is not a data arrival.
        assert_eq!(stream.absorb_batch(Vec::new()), 0);
        assert_eq!(stream.horizon().epoch, 1);
        assert_eq!(h.watermark_ms, 0, "nothing sealed yet");
        stream.seal();
        assert_eq!(stream.horizon().watermark_ms, 1_500_000);
    }

    #[test]
    fn sealing_does_not_change_answers_only_finality() {
        let engine = Ocasta::default();
        let mut sealed = OcastaStream::new(&engine);
        let mut unsealed = OcastaStream::new(&engine);
        // Sealing after every event requires a time-ordered feed (the
        // watermark promise); unsealed absorption does not.
        let mut ordered = sample_mutations();
        ordered.sort_by_key(|(_, t, _)| *t);
        for (key, t, _) in ordered {
            sealed.absorb_write(&key, t);
            sealed.seal();
            unsealed.absorb_write(&key, t);
        }
        assert_eq!(
            sealed.clustering().clustering,
            unsealed.clustering().clustering
        );
    }

    #[test]
    fn queries_are_serveable_at_every_prefix() {
        let engine = Ocasta::default();
        let mut stream = OcastaStream::new(&engine);
        let mut store = Ttkv::new();
        for (key, t, value) in sample_mutations() {
            stream.absorb_write(&key, t);
            match value {
                Some(v) => store.write(t, key, v),
                None => store.delete(t, key),
            }
            // At every prefix the stream serves exactly the batch answer
            // over the store so far.
            assert_eq!(stream.clustering().clustering, engine.cluster_store(&store));
        }
    }

    #[test]
    fn catalog_pins_clusters_and_horizon() {
        let mut stream = OcastaStream::new(&Ocasta::default());
        for (key, t, _) in sample_mutations() {
            stream.absorb_write(&key, t);
        }
        stream.seal();
        let live = stream.clustering();
        let catalog = live.catalog();
        assert_eq!(catalog.clusters().len(), live.clustering.len());
        assert!(catalog.covers(&Key::new("app/a")));
        assert_eq!(catalog.horizon().events, live.horizon.events);
        assert_eq!(catalog.horizon().watermark_ms, live.horizon.watermark_ms);
    }

    #[test]
    fn drain_lanes_pulls_from_a_fleet_tap() {
        use ocasta_fleet::IngestTap;
        use ocasta_trace::{AccessEvent, TraceOp};
        let lanes = WriteLanes::new(2);
        let op = TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_secs(5),
            "app/k",
            Value::from(1),
        ));
        lanes.on_batch(0, std::slice::from_ref(&op));
        let mut stream = OcastaStream::new(&Ocasta::default());
        assert_eq!(stream.drain_lanes(&lanes), 1);
        assert_eq!(stream.key_count(), 1);
        assert_eq!(stream.horizon().events, 1);
    }
}
