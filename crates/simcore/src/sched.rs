//! What the event queue's priority queue holds, and what it counts.
//!
//! [`EventQueue`](crate::EventQueue) keeps the entries that need ordering —
//! cancellable ones, and those at a delay no lane was declared for — in a
//! `std::collections::BinaryHeap` in `(at, seq)` min-order. (Pushes at a
//! declared constant delay, in a simulation nearly all of them, wait in the
//! queue's FIFO lanes and never reach it; see [`crate::event`].) This module
//! has the heap's element, [`Entry`], and its traffic count, [`SchedWork`].

// R5 (DESIGN.md § Static analysis): a per-event path must not abort a run;
// test code is exempt (`clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::time::Time;

/// One pending event: absolute timestamp, tie-breaking sequence number, the
/// cancellation slot (the queue's sentinel for "not cancellable" is
/// `u32::MAX`), and the payload.
#[derive(Debug)]
pub struct Entry<E> {
    /// Absolute due time.
    pub at: Time,
    /// Strictly increasing insertion sequence; ties on `at` pop in `seq`
    /// order.
    pub seq: u64,
    /// Cancellation slot index.
    pub slot: u32,
    /// The event payload.
    pub event: E,
}

impl<E> Entry<E> {
    /// The total-order key the heap sorts by.
    #[inline]
    pub fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// The heap's traffic, as plain counters: the same run always reads the
/// same numbers. Lanes are not in it (see
/// [`EventQueue::lane_pushes`](crate::EventQueue::lane_pushes)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedWork {
    /// Entries pushed.
    pub pushes: u64,
    /// Entries popped, cancelled ones retired at the head included.
    pub pops: u64,
}

impl SchedWork {
    /// Queue operations served.
    pub fn ops(&self) -> u64 {
        self.pushes + self.pops
    }
}

/// Selects nothing: the event queue has one backend. Kept so that code
/// written when there were two still compiles.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedKind {
    /// The only value.
    #[default]
    Calendar,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The heap stores and moves whole `Entry`s during sift-up and
    /// sift-down, so entry size is a direct cost. The header (at, seq, slot)
    /// is 24 bytes; an 8-byte payload must pack into 32 total. Downstream,
    /// `netsim` pins `Entry<Event>` ≤ 40 bytes for the same reason.
    #[test]
    fn entry_header_stays_small() {
        assert_eq!(std::mem::size_of::<Entry<u64>>(), 32);
    }
}
