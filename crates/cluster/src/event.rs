//! Write events: the clustering engine's only input.
//!
//! Ocasta is black-box — the clustering never sees key names, values or
//! application semantics, only *which* item was written *when*. Items are
//! dense `usize` indices assigned by the caller (the `ocasta` facade maps
//! TTKV keys to indices).

/// One write to one item at one instant.
///
/// Times are plain `u64` milliseconds so the engine stays decoupled from any
/// particular clock; callers pass timestamps from whatever trace they have.
///
/// # Examples
///
/// ```
/// use ocasta_cluster::WriteEvent;
///
/// let e = WriteEvent::new(3, 1_000);
/// assert_eq!(e.item, 3);
/// assert_eq!(e.time_ms, 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WriteEvent {
    /// Milliseconds since the trace epoch. Field order makes the derived
    /// `Ord` sort by time first, which the transaction grouper relies on.
    pub time_ms: u64,
    /// Dense item index (assigned by the caller).
    pub item: usize,
}

impl WriteEvent {
    /// Creates a write event.
    pub fn new(item: usize, time_ms: u64) -> Self {
        WriteEvent { time_ms, item }
    }
}

/// Groups writes into *co-modification transactions* with a sliding time
/// window.
///
/// Writes are sorted by time; a transaction keeps absorbing writes while the
/// gap to the transaction's most recent write is at most `window_ms`. A
/// window of `0` groups only writes with identical timestamps (the leftmost
/// point of the paper's Figure 3a).
///
/// Each returned transaction is the sorted, deduplicated set of items written
/// in it. Transactions are ordered by time.
///
/// # Examples
///
/// ```
/// use ocasta_cluster::{transactions, WriteEvent};
///
/// let events = vec![
///     WriteEvent::new(0, 1_000),
///     WriteEvent::new(1, 1_400),   // within 1s of the previous write
///     WriteEvent::new(2, 10_000),  // far away: new transaction
/// ];
/// let txns = transactions(&events, 1_000);
/// assert_eq!(txns, vec![vec![0, 1], vec![2]]);
/// ```
pub fn transactions(events: &[WriteEvent], window_ms: u64) -> Vec<Vec<usize>> {
    let mut sorted: Vec<WriteEvent> = events.to_vec();
    sorted.sort_unstable();

    let mut window = crate::TransactionWindow::new(window_ms);
    let mut txns: Vec<Vec<usize>> = Vec::new();
    for event in sorted {
        txns.extend(window.push(event));
    }
    txns.extend(window.flush());
    txns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(item: usize, ms: u64) -> WriteEvent {
        WriteEvent::new(item, ms)
    }

    #[test]
    fn empty_input_yields_no_transactions() {
        assert!(transactions(&[], 1000).is_empty());
    }

    #[test]
    fn window_zero_groups_identical_timestamps_only() {
        let events = vec![ev(0, 5), ev(1, 5), ev(2, 6)];
        assert_eq!(transactions(&events, 0), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn sliding_window_chains_nearby_writes() {
        // 0 at t=0, 1 at t=900, 2 at t=1800: each gap ≤ 1000 so all three
        // chain into one transaction even though 0→2 spans 1.8s.
        let events = vec![ev(0, 0), ev(1, 900), ev(2, 1800)];
        assert_eq!(transactions(&events, 1000), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn gap_larger_than_window_splits() {
        // A gap of exactly the window chains; one past it splits.
        let events = vec![ev(0, 0), ev(1, 1000), ev(2, 2001)];
        assert_eq!(transactions(&events, 1000), vec![vec![0, 1], vec![2]]);
        let events = vec![ev(0, 0), ev(1, 1001)];
        assert_eq!(transactions(&events, 1000), vec![vec![0], vec![1]]);
    }

    #[test]
    fn repeated_items_are_deduplicated_within_a_transaction() {
        let events = vec![ev(7, 0), ev(7, 100), ev(3, 200)];
        assert_eq!(transactions(&events, 1000), vec![vec![3, 7]]);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let events = vec![ev(2, 9000), ev(0, 0), ev(1, 500)];
        assert_eq!(transactions(&events, 1000), vec![vec![0, 1], vec![2]]);
    }
}
