//! The lock-striped sharded TTKV that concurrent ingestion writes into.
//!
//! Keys are striped across `N` shards by a stable 64-bit FNV-1a hash of the
//! key name, so every mutation of one key always lands in the same shard
//! and per-key history order is a single-shard concern. Each shard is a
//! stack of **immutable sealed segments** plus a small **mutable tail**
//! behind one mutex: producers append whole batches into the tail under
//! the lock (an `O(batch)` memcpy-ish append, not a per-event tree
//! insertion), and when the tail exceeds the seal threshold it is frozen
//! into an `Arc`-shared [`Ttkv`] segment. Because segments never mutate
//! after sealing, a snapshot is an **epoch pin** — [`ShardedTtkv::pin_epoch`]
//! grabs segment `Arc`s plus a tail clone in O(shards + tails), and the
//! expensive fold to a queryable store happens outside every lock, in
//! parallel across shards ([`EpochSnapshot::materialize`]).
//!
//! Retention sweeps prune sealed segments **copy-on-write**: a rewritten
//! segment replaces its `Arc` slot, so a pinned epoch keeps the pre-sweep
//! generation alive until the pin drops. The fold that merges segments is
//! the same demote-baselines-then-fold-oldest→newest recipe the WAL layer
//! chain proved exact ([`Ttkv::fold_layers`], `DESIGN.md §5.10`, `§5.13`).

use std::sync::{Arc, Mutex, MutexGuard};

use ocasta_obs::Stopwatch;
use ocasta_trace::TraceOp;
use ocasta_ttkv::{PruneStats, Timestamp, Ttkv, TtkvBuilder};

use crate::metrics::FleetMetrics;

/// Default mutable-tail size (buffered mutations) at which a shard seals
/// its tail into an immutable segment.
pub const DEFAULT_SEAL_THRESHOLD: usize = 4096;

/// Stable key→shard hash (FNV-1a, 64-bit; see [`crate::hash`]).
pub fn key_hash(key: &str) -> u64 {
    crate::hash::fnv1a_64(key.as_bytes())
}

/// An immutable sealed segment: a built [`Ttkv`] plus the metadata the
/// sweep and fold paths steer by. Never mutated after construction — a
/// sweep that needs to prune one builds a replacement and swaps the `Arc`.
#[derive(Debug, Clone)]
struct Segment {
    /// The sealed store (history + any baselines earlier prunes left).
    store: Ttkv,
    /// Earliest *history* timestamp in the segment (baselines excluded);
    /// `None` once a sweep has collapsed every version into baselines.
    first: Option<Timestamp>,
    /// The horizon this segment was last pruned at, if any. Segments up to
    /// the last pruned index fold via demote-then-re-prune; later segments
    /// (sealed after the last sweep) absorb verbatim.
    pruned_to: Option<Timestamp>,
}

impl Segment {
    fn seal(store: Ttkv, pruned_to: Option<Timestamp>) -> Arc<Segment> {
        Arc::new(Segment {
            first: store.first_mutation_time(),
            store,
            pruned_to,
        })
    }
}

/// One shard: sealed segments (oldest first, in seal order), the mutable
/// tail, and the bookkeeping that makes epoch pins and sweeps exact.
#[derive(Debug)]
struct ShardState {
    segments: Vec<Arc<Segment>>,
    tail: TtkvBuilder,
    /// Standing sweep horizon: the max horizon any sweep applied to this
    /// shard. Monotone, which is what lets the fold re-prune once at the
    /// standing horizon instead of replaying every staged sweep.
    horizon: Option<Timestamp>,
    /// Bumped on every structural change (seal, COW rewrite, rebase), so
    /// doctor-style invariant checks can assert monotonicity.
    generation: u64,
    /// Max mutation timestamp ever sealed out of the tail (the tail's own
    /// frontier is tracked by the builder).
    last_time: Option<Timestamp>,
}

impl ShardState {
    fn new() -> Self {
        ShardState {
            segments: Vec::new(),
            tail: TtkvBuilder::new(),
            horizon: None,
            generation: 0,
            last_time: None,
        }
    }

    /// Freezes the tail (if non-empty) into a sealed segment.
    fn seal_tail(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        if let Some(t) = self.tail.last_time() {
            self.last_time = Some(self.last_time.map_or(t, |prev| prev.max(t)));
        }
        let store = std::mem::replace(&mut self.tail, TtkvBuilder::new()).build();
        self.segments.push(Segment::seal(store, None));
        self.generation += 1;
    }

    /// One retention sweep: seal the tail, COW-prune every segment with
    /// history older than the effective horizon, coalesce fully-collapsed
    /// neighbours. Returns (reclaim stats, segments rewritten).
    fn sweep(&mut self, requested: Timestamp) -> (PruneStats, u64) {
        // The shard horizon is monotone: a retreating request re-applies
        // the standing horizon, which keeps the single-re-prune fold exact.
        let horizon = match self.horizon {
            Some(h) if h > requested => h,
            _ => requested,
        };
        self.seal_tail();
        let mut stats = PruneStats::default();
        let mut rewritten = 0u64;
        for slot in &mut self.segments {
            if slot.first.is_some_and(|f| f < horizon) {
                let mut store = slot.store.clone();
                stats.absorb(store.prune_before(horizon));
                *slot = Segment::seal(store, Some(horizon));
                rewritten += 1;
            }
        }
        self.coalesce_collapsed(horizon);
        self.horizon = Some(horizon);
        if rewritten > 0 {
            self.generation += 1;
        }
        (stats, rewritten)
    }

    /// Merges adjacent runs of fully-collapsed (baseline-only) segments so
    /// repeated seal/sweep cycles leave O(live segments) husks, not one per
    /// seal ever performed. Order is preserved, so the fold is unaffected.
    fn coalesce_collapsed(&mut self, horizon: Timestamp) {
        fn flush(out: &mut Vec<Arc<Segment>>, run: &mut Vec<Arc<Segment>>, horizon: Timestamp) {
            if run.len() > 1 {
                let store = Ttkv::fold_layers(run.drain(..).map(segment_store), Some(horizon));
                out.push(Segment::seal(store, Some(horizon)));
            } else if let Some(only) = run.pop() {
                out.push(only);
            }
        }
        let mut out: Vec<Arc<Segment>> = Vec::with_capacity(self.segments.len());
        let mut run: Vec<Arc<Segment>> = Vec::new();
        for seg in self.segments.drain(..) {
            if seg.first.is_none() && seg.pruned_to.is_some() {
                run.push(seg);
            } else {
                flush(&mut out, &mut run, horizon);
                out.push(seg);
            }
        }
        flush(&mut out, &mut run, horizon);
        self.segments = out;
    }

    /// Folds everything into one store, collects dead shells, and rebases
    /// the shard onto a single segment. Returns removed-shell count.
    fn gc_rebase(&mut self) -> u64 {
        self.seal_tail();
        if self.segments.is_empty() {
            return 0;
        }
        let segments = std::mem::take(&mut self.segments);
        let last_pruned = segments.iter().rposition(|s| s.pruned_to.is_some());
        let layers: Vec<Ttkv> = segments.into_iter().map(segment_store).collect();
        let mut store = fold_shard(layers, last_pruned, self.horizon, TtkvBuilder::new());
        let removed = store.gc_dead_shells();
        // The rebased segment may interleave pruned history with straggler
        // writes that arrived after the last sweep, so it is NOT marked
        // pruned: it folds verbatim as the base layer (exactly the shape a
        // sequential store has after prune + further appends) until the
        // next sweep re-prunes it.
        self.segments.push(Segment::seal(store, None));
        self.generation += 1;
        removed
    }

    /// Consumes the shard into its folded store.
    fn into_store(self) -> Ttkv {
        let ShardState {
            segments,
            tail,
            horizon,
            ..
        } = self;
        let last_pruned = segments.iter().rposition(|s| s.pruned_to.is_some());
        let layers: Vec<Ttkv> = segments.into_iter().map(segment_store).collect();
        fold_shard(layers, last_pruned, horizon, tail)
    }
}

/// Locks a shard stripe, propagating the panic if the stripe is
/// poisoned: poison means a worker died mid-append, so the tail may hold
/// a torn batch, and reading it would break per-key batch atomicity. On
/// engine worker threads this panic is caught by the worker harness's
/// `catch_unwind` and recorded as a cascade of the root failure
/// (`DESIGN.md §5.12`); accepting the poison instead would silently
/// expose torn history.
fn lock_stripe(stripe: &Mutex<ShardState>) -> MutexGuard<'_, ShardState> {
    // lint:allow(panic-in-worker-path): a poisoned stripe implies a possibly-torn tail batch — propagating the panic (caught and recorded by the engine's worker harness) is safer than exposing torn per-key history
    stripe.lock().expect("stripe poisoned by a worker panic")
}

/// Unwraps a segment's store without cloning when this was the last `Arc`.
fn segment_store(seg: Arc<Segment>) -> Ttkv {
    match Arc::try_unwrap(seg) {
        Ok(seg) => seg.store,
        Err(shared) => shared.store.clone(),
    }
}

/// The one shard fold both snapshots and consumption share. Layers up to
/// `last_pruned` (the last swept segment) fold via
/// [`Ttkv::fold_layers`] — demote baselines, absorb oldest→newest, one
/// re-prune at the standing horizon — which PR 5 proved equal to the
/// sequential store that experienced the staged sweeps. Later layers were
/// sealed after the last sweep and absorb verbatim, and the tail (which
/// never holds baselines) builds on top, exactly like live ingestion.
fn fold_shard(
    mut layers: Vec<Ttkv>,
    last_pruned: Option<usize>,
    horizon: Option<Timestamp>,
    tail: TtkvBuilder,
) -> Ttkv {
    let mut store = match last_pruned {
        Some(j) => {
            debug_assert!(
                horizon.is_some(),
                "pruned segments imply a standing horizon"
            );
            let stragglers = layers.split_off(j + 1);
            let mut store = Ttkv::fold_layers(layers, horizon);
            for layer in stragglers {
                store.absorb(layer);
            }
            store
        }
        None => {
            let mut store = Ttkv::new();
            for layer in layers {
                store.absorb(layer);
            }
            store
        }
    };
    tail.build_into(&mut store);
    store
}

/// One pinned shard inside an [`EpochSnapshot`]: shared segment handles
/// plus an owned tail clone.
#[derive(Debug, Clone)]
struct PinnedShard {
    segments: Vec<Arc<Segment>>,
    tail: TtkvBuilder,
    horizon: Option<Timestamp>,
    generation: u64,
}

impl PinnedShard {
    fn fold(&self) -> Ttkv {
        let last_pruned = self.segments.iter().rposition(|s| s.pruned_to.is_some());
        let layers: Vec<Ttkv> = self.segments.iter().map(|s| s.store.clone()).collect();
        fold_shard(layers, last_pruned, self.horizon, self.tail.clone())
    }
}

/// A point-in-time pin of every shard's epoch, taken in O(shards + tails)
/// by [`ShardedTtkv::pin_epoch`].
///
/// The pin holds `Arc`s to immutable sealed segments plus a clone of each
/// mutable tail, so it is a complete, self-contained capture: later
/// appends land in the live tails, and later sweeps *replace* segment
/// `Arc`s copy-on-write rather than mutating them — there is no code path
/// that can alter what a pin references ([`DESIGN.md` §5.13]). Dropping
/// the pin releases the pinned segment generation.
///
/// [`EpochSnapshot::materialize`] folds the pin into a queryable [`Ttkv`],
/// in parallel across shards, outside every shard lock. Materializing the
/// same pin twice — no matter what the live store did in between — yields
/// identical stores.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    shards: Vec<PinnedShard>,
}

impl EpochSnapshot {
    /// Folds the pinned epoch into one consistent [`Ttkv`] (in parallel
    /// across shards; runs outside every shard lock).
    pub fn materialize(&self) -> Ttkv {
        let stores = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| scope.spawn(move || shard.fold()))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(store) => store,
                    // Re-raise the fold thread's panic with its original
                    // payload instead of wrapping it in a new expect.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect::<Vec<Ttkv>>()
        });
        Ttkv::from_shards(stores)
    }

    /// Number of pinned shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard segment generations at pin time (monotone per shard; used
    /// by invariant checks and tests).
    pub fn generations(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.generation).collect()
    }

    /// Total sealed segments the pin references (shared, not copied).
    pub fn segment_count(&self) -> usize {
        self.shards.iter().map(|s| s.segments.len()).sum()
    }

    /// Buffered mutations the pin had to *copy* (the tails) — the pin's
    /// marginal owned state, as opposed to the shared sealed segments.
    pub fn pinned_tail_mutations(&self) -> usize {
        self.shards.iter().map(|s| s.tail.len()).sum()
    }
}

/// A hash-striped set of TTKV shards accepting concurrent batched appends.
///
/// # Examples
///
/// ```
/// use ocasta_fleet::ShardedTtkv;
/// use ocasta_trace::{AccessEvent, TraceOp};
/// use ocasta_ttkv::{Timestamp, Value};
///
/// let sharded = ShardedTtkv::new(4);
/// let op = TraceOp::Mutation(AccessEvent::write(
///     Timestamp::from_secs(1), "app/k", Value::from(1),
/// ));
/// let shard = sharded.shard_of(op.key().as_str());
/// sharded.append_batch(shard, vec![op]);
/// let store = sharded.into_ttkv();
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedTtkv {
    shards: Vec<Mutex<ShardState>>,
    seal_threshold: usize,
}

impl ShardedTtkv {
    /// Creates `shards` empty shards (at least 1) with the default seal
    /// threshold ([`DEFAULT_SEAL_THRESHOLD`]).
    pub fn new(shards: usize) -> Self {
        Self::with_seal_threshold(shards, DEFAULT_SEAL_THRESHOLD)
    }

    /// Creates `shards` empty shards (at least 1) sealing each tail into
    /// an immutable segment once it buffers `seal_threshold` mutations
    /// (clamped to at least 1).
    pub fn with_seal_threshold(shards: usize, seal_threshold: usize) -> Self {
        let shards = shards.max(1);
        ShardedTtkv {
            shards: (0..shards).map(|_| Mutex::new(ShardState::new())).collect(),
            seal_threshold: seal_threshold.max(1),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The tail size at which a shard seals.
    pub fn seal_threshold(&self) -> usize {
        self.seal_threshold
    }

    /// The shard index a key stripes to.
    pub fn shard_of(&self, key: &str) -> usize {
        (key_hash(key) % self.shards.len() as u64) as usize
    }

    /// Appends a batch of ops to one shard. Every op in the batch must
    /// stripe to `shard` (callers batch per shard; debug builds check).
    pub fn append_batch(&self, shard: usize, batch: Vec<TraceOp>) {
        self.append_batch_observed(shard, batch, |_| {}, None);
    }

    /// Like [`ShardedTtkv::append_batch`], invoking `before_apply` on the
    /// batch **under the shard lock**, before it is buffered. This is the
    /// write-ahead hook: because the callback and the apply happen inside
    /// one critical section, an observer fed by the callback (the WAL lane)
    /// sees same-shard batches in exactly the order the shard applies them
    /// — which is what makes WAL replay reproduce the store even when
    /// same-key timestamp ties arrive from different workers.
    ///
    /// When `metrics` is set, the stripe-lock wait, the in-lock apply (WAL
    /// send included), and any tail seal the batch triggers are timed into
    /// the fleet histograms. Timing is observation-only — the lock
    /// discipline, apply order, and seal points are identical with metrics
    /// on or off.
    pub(crate) fn append_batch_observed<F: FnOnce(&[TraceOp])>(
        &self,
        shard: usize,
        batch: Vec<TraceOp>,
        before_apply: F,
        metrics: Option<&FleetMetrics>,
    ) {
        debug_assert!(batch
            .iter()
            .all(|op| self.shard_of(op.key().as_str()) == shard));
        // lint:allow(panic-in-worker-path): public-API caller contract — the engine worker path validates shard indices before reaching here, and an out-of-range index from an external caller is a programming error at the call site
        let stripe = self.shards.get(shard).expect("shard index out of range");
        let wait_started = Stopwatch::start_if(metrics.is_some());
        let mut state = lock_stripe(stripe);
        if let (Some(m), Some(sw)) = (metrics, wait_started) {
            m.lock_wait.record_duration(sw.elapsed());
        }
        let apply_started = Stopwatch::start_if(metrics.is_some());
        before_apply(&batch);
        let ops = batch.len() as u64;
        for op in batch {
            op.buffer(&mut state.tail);
        }
        if state.tail.len() >= self.seal_threshold {
            let seal_started = Stopwatch::start_if(metrics.is_some());
            state.seal_tail();
            if let (Some(m), Some(started)) = (metrics, seal_started) {
                m.seal_stall.record_duration(started.elapsed());
                m.seals.inc();
            }
        }
        drop(state);
        if let (Some(m), Some(started)) = (metrics, apply_started) {
            m.batch_apply.record_duration(started.elapsed());
            m.ingest_batches.inc();
            m.ingest_ops.add(ops);
        }
    }

    /// Appends an un-routed batch, striping each op to its shard.
    pub fn append_routed(&self, batch: Vec<TraceOp>) {
        // Group locally first so each shard lock is taken at most once.
        let mut per_shard: Vec<Vec<TraceOp>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for op in batch {
            let shard = self.shard_of(op.key().as_str());
            if let Some(bucket) = per_shard.get_mut(shard) {
                bucket.push(op);
            }
        }
        for (shard, ops) in per_shard.into_iter().enumerate() {
            if !ops.is_empty() {
                self.append_batch(shard, ops);
            }
        }
    }

    /// The latest applied-or-buffered mutation timestamp across all shards
    /// — the ingest frontier a retention sweep measures its horizon
    /// against. Takes each shard lock briefly; the answer can lag appends
    /// that land while later shards are read, which only makes a horizon
    /// computed from it more conservative.
    pub fn last_mutation_time(&self) -> Option<Timestamp> {
        self.shards
            .iter()
            .filter_map(|s| {
                let state = lock_stripe(s);
                match (state.last_time, state.tail.last_time()) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                }
            })
            .max()
    }

    /// Compacts every shard's history older than `horizon`, returning what
    /// the sweep reclaimed (see [`ocasta_ttkv::Ttkv::prune_before`]).
    ///
    /// Each shard is swept **atomically under its own stripe lock** — the
    /// same per-shard-atomic discipline as [`ShardedTtkv::pin_epoch`] —
    /// and **copy-on-write**: the tail is sealed, then every sealed
    /// segment holding history older than the horizon is cloned, pruned,
    /// and swapped into its `Arc` slot. Live epoch pins keep the pre-sweep
    /// segments alive until released, so a pinned snapshot can never
    /// observe a sweep that ran after it was taken. Fully-collapsed
    /// neighbours coalesce, so husks stay bounded. Concurrent appends
    /// still land entirely before or entirely after the sweep — per-key
    /// history is never torn — and the staged-sweep fold is equal to one
    /// direct prune by construction (`DESIGN.md §5.10`, `§5.13`).
    ///
    /// Callers coordinating with pinned readers must clamp `horizon`
    /// through an [`ocasta_ttkv::HorizonGuard`] first; the engine's
    /// retention sweeper does.
    pub fn prune_before(&self, horizon: Timestamp) -> PruneStats {
        self.prune_before_observed(horizon, None)
    }

    /// [`ShardedTtkv::prune_before`] recording copy-on-write segment
    /// rewrites into the fleet metrics when `metrics` is set.
    pub(crate) fn prune_before_observed(
        &self,
        horizon: Timestamp,
        metrics: Option<&FleetMetrics>,
    ) -> PruneStats {
        let mut stats = PruneStats::default();
        let mut rewritten = 0u64;
        for shard in &self.shards {
            let mut state = lock_stripe(shard);
            let (shard_stats, shard_rewritten) = state.sweep(horizon);
            stats.absorb(shard_stats);
            rewritten += shard_rewritten;
        }
        if let Some(m) = metrics {
            m.cow_segments.add(rewritten);
        }
        stats
    }

    /// Collects dead counter-only shells from every shard, returning how
    /// many keys were removed (see [`ocasta_ttkv::Ttkv::gc_dead_shells`]).
    ///
    /// Each shard is folded, collected, and **rebased onto a single fresh
    /// segment** atomically under its own stripe lock, one after another
    /// (live pins keep the pre-rebase segments alive). The retention
    /// sweeper calls this **only on its final sweep**: while ingestion can
    /// still deliver a straggler rewrite of a pruned key, the shell's
    /// counters are that key's only memory of its lifetime modification
    /// count.
    pub fn gc_dead_shells(&self) -> u64 {
        self.shards.iter().map(|s| lock_stripe(s).gc_rebase()).sum()
    }

    /// Pins the current epoch of every shard in **O(shards + tails)**:
    /// per shard, under its stripe lock, the pin grabs the sealed-segment
    /// `Arc`s (shared, not copied) and clones the small mutable tail.
    ///
    /// Consistency: every key's full applied history is either entirely in
    /// the pin or entirely absent at its tail — a key never stripes across
    /// shards, so per-key history can never be torn. Shards are locked one
    /// after another, not atomically, so the pin is a *per-shard-atomic*
    /// cut of the fleet: exactly the guarantee a repair session pins (see
    /// `DESIGN.md §5.8`, `§5.13`).
    pub fn pin_epoch(&self) -> EpochSnapshot {
        let shards = self
            .shards
            .iter()
            .map(|m| {
                let state = lock_stripe(m);
                PinnedShard {
                    segments: state.segments.clone(),
                    tail: state.tail.clone(),
                    horizon: state.horizon,
                    generation: state.generation,
                }
            })
            .collect();
        EpochSnapshot { shards }
    }

    /// Takes a read-only snapshot of the live store **while ingestion
    /// continues**: an epoch pin ([`ShardedTtkv::pin_epoch`]) immediately
    /// materialized. The in-lock cost is O(shards + tails); the fold to a
    /// queryable store runs outside every lock, in parallel across shards.
    pub fn snapshot_store(&self) -> Ttkv {
        self.pin_epoch().materialize()
    }

    /// The legacy clone-under-lock snapshot: every shard's **entire**
    /// state — sealed segment stores included — is deep-cloned under its
    /// stripe lock (an O(live state) stall), then folded outside. Kept as
    /// the equivalence oracle for [`ShardedTtkv::pin_epoch`]: the property
    /// suite asserts pin == clone at every interleaving it can generate.
    pub fn snapshot_store_cloned(&self) -> Ttkv {
        let shards = self
            .shards
            .iter()
            .map(|m| {
                let state = lock_stripe(m);
                PinnedShard {
                    segments: state
                        .segments
                        .iter()
                        .map(|seg| Arc::new(seg.as_ref().clone()))
                        .collect(),
                    tail: state.tail.clone(),
                    horizon: state.horizon,
                    generation: state.generation,
                }
            })
            .collect();
        EpochSnapshot { shards }.materialize()
    }

    /// Folds every shard (in parallel) and merges them into one consistent
    /// [`Ttkv`]. Shard key sets are disjoint by construction, so the merge
    /// is a pure record move.
    pub fn into_ttkv(self) -> Ttkv {
        let states: Vec<ShardState> = self
            .shards
            .into_iter()
            // lint:allow(panic-in-worker-path): a poisoned stripe implies a possibly-torn tail batch — consuming it would bake torn per-key history into the folded store, so propagating the panic is the safe choice
            .map(|m| m.into_inner().expect("stripe poisoned by a worker panic"))
            .collect();
        let stores = std::thread::scope(|scope| {
            let handles: Vec<_> = states
                .into_iter()
                .map(|state| scope.spawn(move || state.into_store()))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(store) => store,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect::<Vec<Ttkv>>()
        });
        Ttkv::from_shards(stores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocasta_trace::AccessEvent;
    use ocasta_ttkv::{Timestamp, Value};

    fn write_op(key: &str, t: u64, v: i64) -> TraceOp {
        TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_millis(t),
            key,
            Value::from(v),
        ))
    }

    fn direct_store(ops: &[TraceOp]) -> Ttkv {
        let mut direct = Ttkv::new();
        for op in ops {
            op.clone()
                .apply(&mut direct, ocasta_ttkv::TimePrecision::Milliseconds);
        }
        direct
    }

    #[test]
    fn hash_is_stable_and_spreads() {
        assert_eq!(key_hash("app/k"), key_hash("app/k"));
        let sharded = ShardedTtkv::new(8);
        let hit: std::collections::BTreeSet<usize> = (0..200)
            .map(|i| sharded.shard_of(&format!("app/key{i}")))
            .collect();
        assert!(
            hit.len() >= 6,
            "200 keys should touch most of 8 shards: {hit:?}"
        );
    }

    #[test]
    fn routed_append_equals_unsharded_build() {
        let ops: Vec<TraceOp> = (0..100)
            .map(|i| write_op(&format!("app/k{}", i % 17), 1_000 + i, i as i64))
            .chain(std::iter::once(TraceOp::Reads(
                ocasta_ttkv::Key::new("app/k0"),
                42,
            )))
            .collect();
        let sharded = ShardedTtkv::new(5);
        sharded.append_routed(ops.clone());
        let merged = sharded.into_ttkv();
        assert_eq!(merged, direct_store(&ops));
    }

    #[test]
    fn routed_append_equals_unsharded_build_across_seal_thresholds() {
        // Same equality with seals forced mid-stream: thresholds straddle
        // the batch sizes so tails seal at varied points, including
        // exactly at the threshold (the boundary case).
        let ops: Vec<TraceOp> = (0..100)
            .map(|i| write_op(&format!("app/k{}", i % 17), 1_000 + i, i as i64))
            .collect();
        let direct = direct_store(&ops);
        for threshold in [1, 2, 7, 16, 100] {
            let sharded = ShardedTtkv::with_seal_threshold(5, threshold);
            sharded.append_routed(ops.clone());
            assert_eq!(
                sharded.snapshot_store(),
                direct,
                "threshold {threshold}: epoch snapshot"
            );
            assert_eq!(
                sharded.snapshot_store_cloned(),
                direct,
                "threshold {threshold}: clone oracle"
            );
            assert_eq!(sharded.into_ttkv(), direct, "threshold {threshold}: fold");
        }
    }

    #[test]
    fn concurrent_appends_from_many_threads() {
        let sharded = ShardedTtkv::with_seal_threshold(4, 64);
        std::thread::scope(|scope| {
            for worker in 0..8u64 {
                let sharded = &sharded;
                scope.spawn(move || {
                    // Each worker owns a disjoint key space.
                    let ops: Vec<TraceOp> = (0..500)
                        .map(|i| write_op(&format!("w{worker}/k{}", i % 9), i, i as i64))
                        .collect();
                    sharded.append_routed(ops);
                });
            }
        });
        let store = sharded.into_ttkv();
        assert_eq!(store.stats().writes, 8 * 500);
        assert_eq!(store.len(), 8 * 9);
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_appends() {
        let sharded = ShardedTtkv::with_seal_threshold(4, 32);
        // Writers keep appending whole per-key batches; snapshots taken
        // mid-flight must only ever see complete batches per key.
        let snapshots = std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let sharded = &sharded;
                scope.spawn(move || {
                    for round in 0..50u64 {
                        let ops: Vec<TraceOp> = (0..4)
                            .map(|i| write_op(&format!("w{worker}/k"), round * 10 + i, i as i64))
                            .collect();
                        sharded.append_routed(ops);
                    }
                });
            }
            let mut snapshots = Vec::new();
            for _ in 0..5 {
                snapshots.push(sharded.snapshot_store());
            }
            snapshots
        });
        for snap in &snapshots {
            // Each appended batch lands atomically in its key's shard, so
            // every observed per-key write count is a multiple of 4.
            for (_, record) in snap.iter() {
                assert_eq!(record.writes % 4, 0, "torn batch visible");
            }
        }
        // After the writers finish, the snapshot equals the final merge.
        let last = sharded.snapshot_store();
        assert_eq!(last, sharded.into_ttkv());
        assert_eq!(last.stats().writes, 4 * 50 * 4);
    }

    #[test]
    fn prune_bounds_live_shards_and_preserves_post_horizon_queries() {
        let sharded = ShardedTtkv::with_seal_threshold(4, 16);
        let ops: Vec<TraceOp> = (0..400)
            .map(|i| write_op(&format!("app/k{}", i % 8), i * 10, i as i64))
            .collect();
        sharded.append_routed(ops.clone());
        let reference = sharded.snapshot_store();
        assert_eq!(
            sharded.last_mutation_time(),
            Some(Timestamp::from_millis(3_990))
        );

        let horizon = Timestamp::from_millis(2_000);
        let stats = sharded.prune_before(horizon);
        assert!(stats.pruned_versions > 0);
        assert!(stats.reclaimed_bytes > 0);

        let pruned = sharded.snapshot_store();
        assert_eq!(
            pruned,
            sharded.snapshot_store_cloned(),
            "epoch pin == clone oracle after a sweep"
        );
        assert!(pruned.approx_bytes() < reference.approx_bytes());
        for key in reference.keys() {
            for probe in [2_000, 2_005, 3_990] {
                let t = Timestamp::from_millis(probe);
                assert_eq!(
                    pruned.value_at(key.as_str(), t),
                    reference.value_at(key.as_str(), t),
                    "{key} at {t}"
                );
            }
        }
        // Lifetime counters survive the sweep.
        assert_eq!(pruned.stats().writes, reference.stats().writes);

        // The store keeps ingesting after the sweep.
        sharded.append_routed(vec![write_op("app/k0", 9_000, 999)]);
        let after = sharded.into_ttkv();
        assert_eq!(
            after.current("app/k0"),
            Some(&ocasta_ttkv::Value::from(999))
        );
    }

    #[test]
    fn prune_races_concurrent_appends_without_tearing() {
        let sharded = ShardedTtkv::with_seal_threshold(4, 48);
        let total_writes = std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let sharded = &sharded;
                scope.spawn(move || {
                    for round in 0..60u64 {
                        let ops: Vec<TraceOp> = (0..4)
                            .map(|i| write_op(&format!("w{worker}/k"), round * 100 + i, i as i64))
                            .collect();
                        sharded.append_routed(ops);
                    }
                });
            }
            let sweeper = scope.spawn(|| {
                for sweep in 1..=20u64 {
                    sharded.prune_before(Timestamp::from_millis(sweep * 250));
                }
            });
            sweeper.join().expect("sweeper panicked");
            4u64 * 60 * 4
        });
        // One deterministic sweep after the race settles: staged sweeps
        // (however they interleaved with the appends) plus this final
        // prune must equal one direct prune of the complete history — the
        // copy-on-write segment path inherits the staged-sweep property
        // exactly.
        let final_horizon = Timestamp::from_millis(6_000);
        sharded.prune_before(final_horizon);
        let store = sharded.into_ttkv();
        // Counters are prune-invariant, so every concurrent write is
        // accounted for exactly once regardless of sweep interleaving.
        assert_eq!(store.stats().writes, total_writes);
        for (_, record) in store.iter() {
            assert_eq!(record.writes % 4, 0, "torn batch visible");
        }
        let mut direct = Ttkv::new();
        for worker in 0..4u64 {
            for round in 0..60u64 {
                for i in 0..4 {
                    direct.write(
                        Timestamp::from_millis(round * 100 + i),
                        format!("w{worker}/k"),
                        Value::from(i as i64),
                    );
                }
            }
        }
        direct.prune_before(final_horizon);
        assert_eq!(
            store, direct,
            "staged concurrent sweeps == one direct prune"
        );
    }

    #[test]
    fn prune_horizon_exactly_on_segment_boundary_matches_direct_prune() {
        // One shard, threshold 4: ops at 0,10,20,30 seal into segment A
        // and 40..=70 into segment B; 80, 90 remain in the tail. Horizons
        // probing exactly the boundary timestamps (last-of-A, first-of-B)
        // must match a direct sequential store pruned the same way.
        for boundary in [30u64, 40, 70, 80] {
            let sharded = ShardedTtkv::with_seal_threshold(1, 4);
            let ops: Vec<TraceOp> = (0..10)
                .map(|i| write_op("app/k", i * 10, i as i64))
                .collect();
            sharded.append_routed(ops.clone());
            sharded.prune_before(Timestamp::from_millis(boundary));
            let mut direct = direct_store(&ops);
            direct.prune_before(Timestamp::from_millis(boundary));
            assert_eq!(
                sharded.snapshot_store(),
                direct,
                "horizon exactly at {boundary}ms"
            );
            assert_eq!(
                sharded.into_ttkv(),
                direct,
                "fold after horizon at {boundary}ms"
            );
        }
    }

    #[test]
    fn pinned_epoch_is_immutable_under_later_appends_sweeps_and_gc() {
        let sharded = ShardedTtkv::with_seal_threshold(2, 8);
        let ops: Vec<TraceOp> = (0..40)
            .map(|i| write_op(&format!("app/k{}", i % 5), 100 + i * 10, i as i64))
            .collect();
        sharded.append_routed(ops);

        let pin = sharded.pin_epoch();
        let oracle = pin.materialize();
        let generations = pin.generations();

        // Churn the live store: more appends (sealing), a sweep, a rebase.
        sharded.append_routed(
            (0..40)
                .map(|i| write_op(&format!("app/k{}", i % 5), 600 + i * 10, -(i as i64)))
                .collect(),
        );
        sharded.prune_before(Timestamp::from_millis(500));
        sharded.gc_dead_shells();

        assert_eq!(
            pin.materialize(),
            oracle,
            "a pinned epoch can never observe later appends, sweeps, or gc"
        );
        let after = sharded.pin_epoch();
        for (before, now) in generations.iter().zip(after.generations()) {
            assert!(*before <= now, "segment generations are monotone");
        }
        assert!(
            after.generations().iter().sum::<u64>() > generations.iter().sum::<u64>(),
            "seal + sweep + rebase bump generations"
        );
    }

    #[test]
    fn pin_taken_mid_seal_churn_is_exact() {
        // Pins race appends that are constantly sealing (threshold 4).
        // Each pin's immediate materialization is its oracle; after all
        // churn settles, re-materializing must reproduce it exactly, and
        // per-key batch atomicity must hold inside every pin.
        let sharded = ShardedTtkv::with_seal_threshold(4, 4);
        let pins = std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let sharded = &sharded;
                scope.spawn(move || {
                    for round in 0..40u64 {
                        let ops: Vec<TraceOp> = (0..4)
                            .map(|i| write_op(&format!("w{worker}/k"), round * 10 + i, i as i64))
                            .collect();
                        sharded.append_routed(ops);
                    }
                });
            }
            let mut pins = Vec::new();
            for _ in 0..6 {
                let pin = sharded.pin_epoch();
                let oracle = pin.materialize();
                pins.push((pin, oracle));
            }
            pins
        });
        for (pin, oracle) in &pins {
            assert_eq!(&pin.materialize(), oracle, "pin drifted after churn");
            for (_, record) in oracle.iter() {
                assert_eq!(record.writes % 4, 0, "torn batch inside a pin");
            }
        }
        assert_eq!(sharded.snapshot_store(), sharded.snapshot_store_cloned());
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let sharded = ShardedTtkv::new(0);
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.shard_of("anything"), 0);
        assert_eq!(sharded.seal_threshold(), DEFAULT_SEAL_THRESHOLD);
        assert_eq!(ShardedTtkv::with_seal_threshold(2, 0).seal_threshold(), 1);
    }
}
