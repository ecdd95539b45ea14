//! The retention pin registry: what keeps pruning and pinned readers safe.
//!
//! A long-running deployment prunes its stores continuously
//! ([`crate::Ttkv::prune_before`]) while repair sessions and streaming
//! catalogs pin point-in-time views that still need old history. The
//! [`HorizonGuard`] serialises the two: readers register the oldest
//! timestamp they still need **before** snapshotting, and every retention
//! sweep clamps its target horizon to the oldest live pin — so a pinned
//! search can never have history yanked out from under it.
//!
//! Both operations run under one mutex, which gives a total order and the
//! two-way guarantee (`DESIGN.md §5.9`):
//!
//! * pin first → the sweep observes it and prunes no deeper;
//! * sweep first → the pin is clamped **up** to the pruned-to floor, so
//!   the reader learns at registration time that older history is gone
//!   and can bound its queries accordingly.
//!
//! A pin is needed only while the reader still reads the live store. A
//! reader whose view keeps its own history once taken — the repair
//! service's epoch pin of a sharded store — drops its pin as soon as the
//! view exists, so no sweep waits on the searches that follow.

use std::fmt;
use std::sync::Mutex;

use crate::time::Timestamp;

/// Shared registry of retention pins and the pruned-to floor.
///
/// # Examples
///
/// ```
/// use ocasta_ttkv::{HorizonGuard, Timestamp};
///
/// let guard = HorizonGuard::new();
/// let pin = guard.pin(Timestamp::from_secs(100));
/// // A sweep aiming past the pin is clamped to it.
/// assert_eq!(guard.clamp(Timestamp::from_secs(500)), Timestamp::from_secs(100));
/// drop(pin);
/// // With no pins the sweep proceeds, raising the floor...
/// assert_eq!(guard.clamp(Timestamp::from_secs(500)), Timestamp::from_secs(500));
/// // ...and a late pin below the floor is clamped up to it.
/// let late = guard.pin(Timestamp::from_secs(100));
/// assert_eq!(late.timestamp(), Timestamp::from_secs(500));
/// ```
#[derive(Debug, Default)]
pub struct HorizonGuard {
    state: Mutex<GuardState>,
}

#[derive(Debug, Default)]
struct GuardState {
    /// Live pins as `(id, oldest timestamp still needed)`.
    pins: Vec<(u64, Timestamp)>,
    next_id: u64,
    /// High-water mark of granted horizons: history strictly before this
    /// may already be pruned away.
    floor: Timestamp,
}

impl HorizonGuard {
    /// Creates a registry with no pins and an epoch floor.
    pub fn new() -> Self {
        HorizonGuard::default()
    }

    /// Registers a pin for history from `oldest_needed` onward, held until
    /// the returned [`HorizonPin`] drops.
    ///
    /// If a sweep already pruned past `oldest_needed`, the pin is clamped
    /// up to the floor: check [`HorizonPin::timestamp`] — history before it
    /// is not guaranteed to exist anywhere.
    pub fn pin(&self, oldest_needed: Timestamp) -> HorizonPin<'_> {
        let mut state = self.state.lock().expect("horizon guard poisoned");
        let effective = oldest_needed.max(state.floor);
        let id = state.next_id;
        state.next_id += 1;
        state.pins.push((id, effective));
        HorizonPin {
            guard: self,
            id,
            at: effective,
        }
    }

    /// Grants a prune horizon for a sweep that wants to prune up to
    /// `target`: the result is `target` clamped to the oldest live pin, and
    /// the floor rises to it. The caller must prune no deeper than the
    /// returned timestamp.
    pub fn clamp(&self, target: Timestamp) -> Timestamp {
        let mut state = self.state.lock().expect("horizon guard poisoned");
        let oldest_pin = state.pins.iter().map(|(_, at)| *at).min();
        let granted = oldest_pin.map_or(target, |pin| target.min(pin));
        // Sweeps can only move forward: a pin registered after an earlier,
        // deeper sweep must not let the horizon retreat.
        let granted = granted.max(state.floor);
        state.floor = granted;
        granted
    }

    /// The pruned-to high-water mark: history strictly before this may be
    /// gone.
    pub fn floor(&self) -> Timestamp {
        self.state.lock().expect("horizon guard poisoned").floor
    }

    /// The oldest live pin, if any reader is currently registered.
    pub fn oldest_pin(&self) -> Option<Timestamp> {
        self.state
            .lock()
            .expect("horizon guard poisoned")
            .pins
            .iter()
            .map(|(_, at)| *at)
            .min()
    }

    /// Number of live pins.
    pub fn live_pins(&self) -> usize {
        self.state
            .lock()
            .expect("horizon guard poisoned")
            .pins
            .len()
    }

    fn release(&self, id: u64) {
        let mut state = self.state.lock().expect("horizon guard poisoned");
        state.pins.retain(|(pin_id, _)| *pin_id != id);
    }
}

/// A live retention pin; releases on drop.
///
/// The pin stays at its registration timestamp for its whole life. Hold
/// it only until the reader has its view: a view that keeps its own
/// history (an epoch pin) needs no pin after it is taken.
#[must_use = "dropping the pin immediately releases the history it protects"]
pub struct HorizonPin<'g> {
    guard: &'g HorizonGuard,
    id: u64,
    at: Timestamp,
}

impl HorizonPin<'_> {
    /// The effective pin: history from here onward is protected from
    /// pruning while the pin lives. May be later than requested if a sweep
    /// already pruned deeper — bound your queries to it.
    pub fn timestamp(&self) -> Timestamp {
        self.at
    }
}

impl fmt::Debug for HorizonPin<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HorizonPin")
            .field("id", &self.id)
            .field("at", &self.at)
            .finish()
    }
}

impl Drop for HorizonPin<'_> {
    fn drop(&mut self) {
        self.guard.release(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn sweep_is_clamped_to_the_oldest_live_pin() {
        let guard = HorizonGuard::new();
        let old = guard.pin(ts(10));
        let young = guard.pin(ts(50));
        assert_eq!(guard.live_pins(), 2);
        assert_eq!(guard.oldest_pin(), Some(ts(10)));
        assert_eq!(guard.clamp(ts(100)), ts(10));
        drop(old);
        assert_eq!(guard.clamp(ts(100)), ts(50));
        drop(young);
        assert_eq!(guard.clamp(ts(100)), ts(100));
        assert_eq!(guard.floor(), ts(100));
    }

    #[test]
    fn late_pin_is_clamped_up_to_the_floor() {
        let guard = HorizonGuard::new();
        assert_eq!(guard.clamp(ts(40)), ts(40));
        let pin = guard.pin(ts(5));
        assert_eq!(pin.timestamp(), ts(40), "history before 40 is gone");
        // And the late pin still protects from here on.
        assert_eq!(guard.clamp(ts(90)), ts(40));
    }

    #[test]
    fn horizon_never_retreats() {
        let guard = HorizonGuard::new();
        assert_eq!(guard.clamp(ts(60)), ts(60));
        let _pin = guard.pin(ts(60));
        // A sweep with a smaller target cannot roll the floor back.
        assert_eq!(guard.clamp(ts(20)), ts(60));
    }

    #[test]
    fn concurrent_pins_and_sweeps_keep_the_invariant() {
        let guard = HorizonGuard::new();
        std::thread::scope(|scope| {
            for reader in 0..4u64 {
                let guard = &guard;
                scope.spawn(move || {
                    for round in 0..50u64 {
                        let wanted = ts(reader * 100 + round);
                        let pin = guard.pin(wanted);
                        // The guard may clamp up, never down.
                        assert!(pin.timestamp() >= wanted);
                        // While the pin lives, no sweep passes it.
                        assert!(guard.clamp(ts(1_000_000)) <= pin.timestamp());
                    }
                });
            }
        });
        assert_eq!(guard.live_pins(), 0);
    }
}
