//! Deterministic event queue.
//!
//! Entries are keyed on `(time, sequence)`: events scheduled for the same
//! instant pop in insertion order, which makes whole simulations
//! reproducible bit-for-bit across runs. The queue keeps them in two kinds
//! of container — FIFO lanes for the pushes that arrive already sorted, and
//! one `std::collections::BinaryHeap` (the *backend*) for the rest — and
//! always pops the smallest key among their heads, so where an entry waits
//! never changes when it pops.
//!
//! # FIFO lanes
//!
//! A link is a constant serialization time plus a constant propagation
//! delay, so nearly every event of a packet simulation is scheduled a
//! *constant* delay after the clock. The clock never runs backwards and
//! `seq` only grows, so the pushes that share one delay `d` arrive already
//! sorted by `(now + d, seq)`: a FIFO ring holds them in pop order and there
//! is nothing for a priority queue to do.
//! [`declare_delay`](EventQueue::declare_delay) gives such a delay a
//! *lane*; a non-cancellable push whose `at − now` equals a declared delay
//! goes to that lane's ring and everything else goes to the backend. The
//! order inside a ring follows from the clock alone, never from what was
//! declared — a declaration is a hint about where pushes will land, and a
//! wrong, missing or refused one costs speed, not correctness.
//!
//! The queue's head is the smallest of the heap's top and the rings'
//! fronts. Each source keeps its head as one dense `u128` key
//! (`at << 64 | seq`, `u128::MAX` when empty), so choosing among them is a
//! tournament of compare-and-select over at most [`MAX_LANES`]` + 1` words —
//! no pointer is followed and no branch depends on the data. It runs once
//! per served event, when the head is popped: every key is known then (a
//! heap pop reads the new top at once), so the answer is ready before the
//! popped event's handler returns and the event loop never waits on it. A
//! push replaces the remembered head only when the new key sorts before it.
//!
//! # Serving
//!
//! Events are served one at a time. [`pop`](EventQueue::pop) and
//! [`pop_before`](EventQueue::pop_before), which stops short of a horizon,
//! share one step: settle the head, compare it with the horizon, advance the
//! clock, take the entry from its lane or the backend. An event pushed for
//! the current instant pops after every entry already there, since its
//! `seq` is larger.
//!
//! # Cancellation
//!
//! Cancellation uses generation-stamped slots instead of a tombstone set:
//! [`schedule_cancellable`](EventQueue::schedule_cancellable) hands out a
//! [`ScheduledId`] naming a slot plus the generation it was issued under, and
//! the backend entry carries the slot index. The pop path checks cancellation
//! with one array index — no hashing, no allocation — and plain
//! [`schedule`](EventQueue::schedule) (the vast majority of traffic) carries
//! a sentinel slot and skips the bookkeeping entirely. A stale id (already
//! fired or already cancelled) fails the generation check and is a no-op, so
//! `len()` can never under-count and no tombstone can leak.
//!
//! Cancelled entries always live in the backend (lanes take only
//! non-cancellable pushes) and are retired *lazily*: they stay there until
//! they reach the queue's head, where [`pop`](EventQueue::pop),
//! [`pop_before`](EventQueue::pop_before) and
//! [`peek_time`](EventQueue::peek_time) discard them.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::hint::select_unpredictable;

use crate::sched::{Entry, SchedKind, SchedWork};
use crate::time::Time;

/// Handle to a cancellable scheduled event.
///
/// Ids are generation-stamped: once the event fires or is cancelled, the id
/// goes stale and later [`EventQueue::cancel`] calls with it are no-ops,
/// even if the underlying slot has been reused for a newer event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ScheduledId {
    slot: u32,
    gen: u32,
}

/// Slot index carried by backend entries that were scheduled without a
/// cancellation handle.
const NO_SLOT: u32 = u32::MAX;

/// Most delays one queue gives a lane. The head scan reads one key per
/// lane, so the cap bounds what a served event can cost; sixteen covers
/// four link classes at two packet sizes, with and without propagation.
pub const MAX_LANES: usize = 16;

/// "The backend" as a head source — lanes are `0..MAX_LANES` — and "no
/// lane" as a push destination.
const BACKEND: usize = MAX_LANES;

/// Head key of an empty source.
const EMPTY: u128 = u128::MAX;

/// The `(at, seq)` order as one integer.
#[inline]
fn key_of(at: Time, seq: u64) -> u128 {
    (at.as_ps() as u128) << 64 | seq as u128
}

/// A key's `(at, seq)`.
#[inline]
fn split_key(key: u128) -> (Time, u64) {
    (Time::from_ps((key >> 64) as u64), key as u64)
}

/// The earlier of two `(key, source)` pairs, as a select: which source
/// holds the head is data a branch predictor cannot learn — a branching
/// scan mispredicts once or twice per event and costs what the lanes save.
/// (`select_unpredictable` because a plain `if` is no promise: LLVM turned
/// three of the four selects of an unrolled scan back into branches.)
#[inline(always)]
fn earlier(a: (u128, usize), b: (u128, usize)) -> (u128, usize) {
    let lt = b.0 < a.0;
    (
        select_unpredictable(lt, b.0, a.0),
        select_unpredictable(lt, b.1, a.1),
    )
}

/// The earliest of lanes `at..at + 4`, as a two-level tournament: the event
/// loop waits on this result, so its depth counts, not only its length.
#[inline(always)]
fn earliest4(keys: &[u128; MAX_LANES], at: usize) -> (u128, usize) {
    earlier(
        earlier((keys[at], at), (keys[at + 1], at + 1)),
        earlier((keys[at + 2], at + 2), (keys[at + 3], at + 3)),
    )
}

/// The index of `delay_ps` among the first `N` of `delays` (the lowest, if
/// several hold it), or [`BACKEND`].
#[inline(always)]
fn find_delay<const N: usize>(delays: &[u64; MAX_LANES], delay_ps: u64) -> usize {
    let mut lane = BACKEND;
    for (i, &d) in delays[..N].iter().enumerate().rev() {
        lane = select_unpredictable(d == delay_ps, i, lane);
    }
    lane
}

/// An [`Entry`] ordered so that `std`'s max-heap pops the smallest
/// `(at, seq)` first.
#[derive(Debug)]
struct Rev<E>(Entry<E>);

impl<E> PartialEq for Rev<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<E> Eq for Rev<E> {}
impl<E> PartialOrd for Rev<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Rev<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

/// Per-slot cancellation state. `gen` advances every time the slot is
/// retired (fire or cancel), invalidating outstanding ids; `live` is false
/// while a cancelled entry is still sitting in the backend.
#[derive(Clone, Copy, Debug)]
struct Slot {
    gen: u32,
    live: bool,
}

/// One lane: a FIFO ring of `(key, event)` pairs, ascending in key, kept as
/// two parallel rings so that the next head key is one aligned load and an
/// event moves in and out as the `Option<E>` the serve path returns —
/// nothing is repacked on the way.
///
/// An entry's slot is its push count modulo the capacity (a power of two,
/// zero before the first push). Slots outside `head..tail` hold `EMPTY` and
/// `None`, so the front key reads `EMPTY` from an empty ring without a test.
#[derive(Debug)]
struct Lane<E> {
    keys: Vec<u128>,
    events: Vec<Option<E>>,
    /// Entries ever popped.
    head: usize,
    /// Entries ever pushed.
    tail: usize,
}

impl<E> Lane<E> {
    fn new() -> Self {
        Lane {
            keys: Vec::new(),
            events: Vec::new(),
            head: 0,
            tail: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.tail - self.head
    }

    #[inline]
    fn push(&mut self, key: u128, event: E) {
        if self.len() == self.keys.len() {
            self.grow();
        }
        let slot = self.tail & (self.keys.len() - 1);
        self.keys[slot] = key;
        self.events[slot] = Some(event);
        self.tail += 1;
    }

    /// Remove the front entry of a ring that has one; returns its event and
    /// the key of the entry behind it (`EMPTY` when there is none).
    #[inline]
    fn pop(&mut self) -> (Option<E>, u128) {
        debug_assert!(self.head != self.tail);
        let mask = self.keys.len() - 1;
        let slot = self.head & mask;
        self.keys[slot] = EMPTY;
        self.head += 1;
        (self.events[slot].take(), self.keys[self.head & mask])
    }

    /// Double a full ring (or give an unused one its first slots). Slots are
    /// push counts modulo the capacity, so an entry either stays or moves up
    /// by the old capacity, into the new half.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let old = self.keys.len();
        let cap = (2 * old).max(MIN_RING);
        self.keys.resize(cap, EMPTY);
        self.events.resize_with(cap, || None);
        for i in self.head..self.tail {
            let (from, to) = (i & (old - 1), i & (cap - 1));
            if from != to {
                self.keys[to] = std::mem::replace(&mut self.keys[from], EMPTY);
                self.events[to] = self.events[from].take();
            }
        }
    }

    /// The stored entries, front to back.
    fn iter(&self) -> impl Iterator<Item = (u128, &E)> {
        let mask = self.keys.len().wrapping_sub(1);
        (self.head..self.tail)
            .filter_map(move |i| Some((self.keys[i & mask], self.events[i & mask].as_ref()?)))
    }
}

/// Slots a lane's ring starts with.
const MIN_RING: usize = 16;

/// A deterministic min-priority event queue.
pub struct EventQueue<E> {
    /// The backend: every entry no lane took, in `(at, seq)` min-order.
    heap: BinaryHeap<Rev<E>>,
    /// Pushes to and pops from `heap`.
    work: SchedWork,
    /// One ring per declared delay, each ascending in `(at, seq)`.
    lanes: Vec<Lane<E>>,
    /// `delays[i]` (ps) is the delay of `lanes[i]`.
    delays: [u64; MAX_LANES],
    /// `lane_keys[i]` is the key of `lanes[i]`'s front, `EMPTY` without one.
    lane_keys: [u128; MAX_LANES],
    /// Key of the heap's top, `EMPTY` without one.
    backend_key: u128,
    /// Key and source of the queue's head: the smallest key stored,
    /// cancelled entries included.
    head: (u128, usize),
    /// Entries stored, backend and lanes together, cancelled ones included.
    stored: usize,
    next_seq: u64,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Entries still in the backend whose slot was cancelled.
    cancelled_in_heap: usize,
    now: Time,
    /// Most entries ever stored at once, cancelled ones included.
    pending_peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            work: SchedWork::default(),
            lanes: Vec::new(),
            delays: [u64::MAX; MAX_LANES],
            lane_keys: [EMPTY; MAX_LANES],
            backend_key: EMPTY,
            head: (EMPTY, BACKEND),
            stored: 0,
            next_seq: 0,
            slots: Vec::new(),
            free_slots: Vec::new(),
            cancelled_in_heap: 0,
            now: Time::ZERO,
            pending_peak: 0,
        }
    }

    /// Selects nothing: the same as [`new`](Self::new).
    #[doc(hidden)]
    pub fn with_sched(_: SchedKind) -> Self {
        Self::new()
    }

    /// Give pushes scheduled exactly `delay` after the clock a FIFO lane
    /// (see the module docs). Returns whether the delay has one: `true` for
    /// a new or an already declared delay, `false` once [`MAX_LANES`] others
    /// are taken — such pushes keep going to the backend. May be called at
    /// any time; entries already stored stay where they are. Pop order never
    /// depends on what was declared.
    pub fn declare_delay(&mut self, delay: Time) -> bool {
        let n = self.lanes.len();
        if self.delays[..n].contains(&delay.as_ps()) {
            return true;
        }
        if n == MAX_LANES {
            return false;
        }
        self.delays[n] = delay.as_ps();
        // Construction time: one (still empty) ring per declared delay.
        self.lanes.push(Lane::new());
        true
    }

    /// Current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Pushes to and pops from the backend. Lanes are not in it: see
    /// [`lane_pushes`](Self::lane_pushes).
    pub fn sched_work(&self) -> SchedWork {
        self.work
    }

    /// Entries ever pushed to a lane instead of the backend. The same run
    /// always reads the same number, so the share of traffic the lanes
    /// carry is an exact count.
    pub fn lane_pushes(&self) -> u64 {
        self.lanes.iter().map(|l| l.tail as u64).sum()
    }

    /// Entries ever popped from a lane.
    pub fn lane_pops(&self) -> u64 {
        self.lanes.iter().map(|l| l.head as u64).sum()
    }

    /// Most entries the queue ever stored at once, cancelled ones awaiting
    /// lazy retirement included — what its memory is sized by.
    pub fn pending_peak(&self) -> usize {
        self.pending_peak
    }

    /// Allocated bytes held by the backend and the lanes, by capacity.
    /// Capacities only grow, so the value at the end of a run is its peak.
    pub fn resident_bytes(&self) -> usize {
        let ring_slots: usize = self.lanes.iter().map(|l| l.keys.capacity()).sum();
        self.heap.capacity() * std::mem::size_of::<Entry<E>>()
            + self.lanes.capacity() * std::mem::size_of::<Lane<E>>()
            + ring_slots * Self::LANE_ENTRY_BYTES
    }

    /// Bytes per ring slot of a lane: the key and the event.
    pub const LANE_ENTRY_BYTES: usize =
        std::mem::size_of::<u128>() + std::mem::size_of::<Option<E>>();

    /// Number of pending (non-cancelled) events.
    #[inline]
    pub fn len(&self) -> usize {
        self.stored - self.cancelled_in_heap
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lane whose delay is `delay_ps`, or [`BACKEND`]. Scanned like the
    /// head keys ([`scan_head`](Self::scan_head)): 4, 8 or all delays as
    /// straight-line selects. An undeclared slot holds `u64::MAX`; a push
    /// that far ahead finds a lane index past the declared ones, which
    /// [`push_entry`](Self::push_entry) treats as the backend.
    #[inline]
    fn lane_for(&self, delay_ps: u64) -> usize {
        match self.lanes.len() {
            0..=4 => find_delay::<4>(&self.delays, delay_ps),
            5..=8 => find_delay::<8>(&self.delays, delay_ps),
            _ => find_delay::<MAX_LANES>(&self.delays, delay_ps),
        }
    }

    #[inline]
    fn push_entry(&mut self, at: Time, slot: u32, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = key_of(at, seq);
        let lane = if slot == NO_SLOT {
            self.lane_for(at.as_ps() - self.now.as_ps())
        } else {
            BACKEND
        };
        let src = match self.lanes.get_mut(lane) {
            Some(ring) => {
                // `at = now + delays[lane]` with `now` and `seq` monotone:
                // the new entry sorts after everything in the ring, so the
                // ring's front key changes only when the ring was empty
                // (`EMPTY`).
                ring.push(key, event);
                self.lane_keys[lane] = self.lane_keys[lane].min(key);
                lane
            }
            None => {
                self.backend_key = self.backend_key.min(key);
                self.work.pushes += 1;
                self.heap.push(Rev(Entry {
                    at,
                    seq,
                    slot,
                    event,
                }));
                BACKEND
            }
        };
        self.head = earlier(self.head, (key, src));
        self.stored += 1;
        self.pending_peak = self.pending_peak.max(self.stored);
    }

    /// Schedule `event` at absolute time `at`. The event cannot be
    /// cancelled; use [`schedule_cancellable`](Self::schedule_cancellable)
    /// when a cancellation handle is needed.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time: simulated causality
    /// must never run backwards.
    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        self.push_entry(at, NO_SLOT, event);
    }

    /// Schedule `event` `delay` after the current time. A zero delay is
    /// legal: the event fires at `now()`, after everything already scheduled
    /// for that instant (sequence order).
    #[inline]
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Schedule `event` at absolute time `at`, returning a handle that can
    /// cancel it until it fires.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_cancellable(&mut self, at: Time, event: E) -> ScheduledId {
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize].live = true;
                s
            }
            None => {
                let s = self.slots.len();
                assert!(s < NO_SLOT as usize, "slot index space exhausted");
                self.slots.push(Slot { gen: 0, live: true });
                s as u32
            }
        };
        self.push_entry(at, slot, event);
        ScheduledId {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Cancel a previously scheduled event. Cancelling an already-fired or
    /// already-cancelled event is a no-op (the stale id fails its generation
    /// check), so `len()` stays accurate.
    pub fn cancel(&mut self, id: ScheduledId) {
        if let Some(slot) = self.slots.get_mut(id.slot as usize) {
            if slot.gen == id.gen && slot.live {
                slot.live = false;
                // Invalidate the id immediately; the backend entry is
                // retired lazily on pop/peek, which recycles the slot.
                slot.gen = slot.gen.wrapping_add(1);
                self.cancelled_in_heap += 1;
            }
        }
    }

    /// Retire the slot of an entry leaving the backend. Returns true when
    /// the entry was live (should be delivered).
    #[inline]
    fn retire(&mut self, slot: u32) -> bool {
        if slot == NO_SLOT {
            return true;
        }
        let s = &mut self.slots[slot as usize];
        if s.live {
            // Fired: invalidate outstanding ids, then recycle.
            s.live = false;
            s.gen = s.gen.wrapping_add(1);
            self.free_slots.push(slot);
            true
        } else {
            // Cancelled earlier; gen was already bumped then.
            self.cancelled_in_heap -= 1;
            self.free_slots.push(slot);
            false
        }
    }

    /// The head scan: the smallest of the heap's top key and the lanes'
    /// front keys. Keys are unique, so ties need no rule. Undeclared lanes
    /// read `EMPTY`, so scanning a few of them is harmless, and the scan is
    /// cut to 4, 8 or all lanes rather than to the declared count: a fixed
    /// count is straight-line selects ([`earliest4`]), where LLVM hands the
    /// selects of a loop that carries its minimum back to the branch
    /// predictor.
    #[inline(always)]
    fn scan_head(&mut self) {
        let keys = &self.lane_keys;
        let lanes = match self.lanes.len() {
            0..=4 => earliest4(keys, 0),
            5..=8 => earlier(earliest4(keys, 0), earliest4(keys, 4)),
            _ => earlier(
                earlier(earliest4(keys, 0), earliest4(keys, 4)),
                earlier(earliest4(keys, 8), earliest4(keys, 12)),
            ),
        };
        self.head = earlier((self.backend_key, BACKEND), lanes);
    }

    /// Remove the heap's top, which is the queue's head, retiring its slot,
    /// and find the next head as [`serve`](Self::serve) does for a lane.
    /// `None` when it had been cancelled. Out of line: a hundredth of the
    /// traffic, and the heap's sift-down is a loop anyway.
    #[inline(never)]
    fn pop_backend(&mut self) -> Option<E> {
        let Rev(entry) = self.heap.pop()?;
        self.work.pops += 1;
        self.stored -= 1;
        self.backend_key = self.heap.peek().map_or(EMPTY, |r| key_of(r.0.at, r.0.seq));
        self.scan_head();
        self.retire(entry.slot).then_some(entry.event)
    }

    /// With the heap's top as the queue's head: discard it if it was
    /// cancelled, and say so.
    #[inline(never)]
    fn retire_cancelled_head(&mut self) -> bool {
        let dead = self
            .heap
            .peek()
            .is_some_and(|r| r.0.slot != NO_SLOT && !self.slots[r.0.slot as usize].live);
        if dead {
            let _cancelled = self.pop_backend();
            debug_assert!(_cancelled.is_none());
        }
        dead
    }

    /// The explicit lazy-skip step: discard cancelled entries at the head,
    /// recycling their slots, and return the timestamp of the live entry
    /// left there (the remembered `head`). After this `peek_time`, `pop`
    /// and `pop_before` necessarily agree on the head. Amortized O(1): each
    /// cancelled entry is discarded exactly once.
    #[inline]
    fn settle_head(&mut self) -> Option<Time> {
        loop {
            let (key, src) = self.head;
            // Only the backend holds cancellable entries, and an empty
            // queue's head reads as the backend's.
            if src == BACKEND {
                if key == EMPTY {
                    return None;
                }
                if self.retire_cancelled_head() {
                    continue;
                }
            }
            return Some(split_key(key).0);
        }
    }

    /// The one serve step: settle the head, stop if it is at or past
    /// `horizon`, advance the clock to it and take it from its lane or the
    /// backend. The settled head is live, so the backend arm never comes
    /// back empty-handed. Taking a lane's front finds the next head at
    /// once: every key is known here, and scanned now the result is ready
    /// by the time the event's handler returns, instead of the event loop
    /// waiting on it. `always`: an event loop that calls both
    /// [`pop`](Self::pop) and [`pop_before`](Self::pop_before) has two call
    /// sites, and with `#[inline]` alone LLVM keeps the step out of line.
    #[inline(always)]
    fn serve(&mut self, horizon: Option<Time>) -> Option<E> {
        let at = self.settle_head()?;
        if horizon.is_some_and(|h| at >= h) {
            return None;
        }
        debug_assert!(at >= self.now);
        self.now = at;
        match self.head.1 {
            BACKEND => self.pop_backend(),
            src => {
                // Returned as the ring hands it over: an `Option` rebuilt
                // on the way is copied field by field.
                let (event, front) = self.lanes[src].pop();
                self.lane_keys[src] = front;
                self.stored -= 1;
                self.scan_head();
                event
            }
        }
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let event = self.serve(None)?;
        Some((self.now, event))
    }

    /// [`pop`](Self::pop), unless the next live event is at or past
    /// `horizon`: then nothing is served, the clock stays, and the result
    /// is `None`. The event's timestamp is [`now`](Self::now) afterwards.
    #[inline]
    pub fn pop_before(&mut self, horizon: Time) -> Option<E> {
        self.serve(Some(horizon))
    }

    /// Timestamp of the next live event without popping it.
    ///
    /// Takes `&mut self` only for the lazy-skip: cancelled entries at the
    /// head are discarded (via `settle_head`) so the peek stays
    /// amortized O(1). The set of live events is unchanged.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.settle_head()
    }

    /// Visit every stored entry — lanes first, then the backend, neither in
    /// time order — as `(at, seq, slot, event)`.
    fn for_each_entry(&self, f: &mut dyn FnMut(Time, u64, u32, &E)) {
        for (key, event) in self.lanes.iter().flat_map(Lane::iter) {
            let (at, seq) = split_key(key);
            f(at, seq, NO_SLOT, event);
        }
        for Rev(e) in &self.heap {
            f(e.at, e.seq, e.slot, &e.event);
        }
    }

    /// Visit every live (non-cancelled) pending event, in storage order
    /// (NOT time order). Used by audit layers that need to account for
    /// resources referenced by in-flight events; O(entries), so callers
    /// should rate-limit it.
    pub fn for_each_live(&self, f: &mut dyn FnMut(&E)) {
        self.for_each_entry(&mut |_, _, slot, event| {
            if slot == NO_SLOT || self.slots[slot as usize].live {
                f(event);
            }
        });
    }

    /// Verify the queue's internal bookkeeping. Used by the audit layer;
    /// O(entries + slots), so callers should rate-limit it.
    ///
    /// Checks: no live entry is scheduled before `now`, the count of dead
    /// backend entries matches `cancelled_in_heap` (so `len()` is exact),
    /// every live slot has exactly one backend entry referring to it, every
    /// lane is ascending in `(at, seq)` with its head key equal to its
    /// front, and the remembered head is the smallest key stored.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_lanes()?;
        let mut dead = 0usize;
        let mut live_refs = vec![0u32; self.slots.len()];
        let mut err = None;
        self.for_each_entry(&mut |at, _, slot, _| {
            let slot_live = slot == NO_SLOT || self.slots[slot as usize].live;
            if slot_live {
                if at < self.now && err.is_none() {
                    err = Some(format!("live event at {at} is before now {}", self.now));
                }
            } else {
                dead += 1;
            }
            if slot != NO_SLOT {
                live_refs[slot as usize] += 1;
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        if dead != self.cancelled_in_heap {
            return Err(format!(
                "cancelled_in_heap {} but {dead} dead entries in backend",
                self.cancelled_in_heap
            ));
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.live && live_refs[i] != 1 {
                return Err(format!(
                    "live slot {i} referenced by {} backend entries (expected 1)",
                    live_refs[i]
                ));
            }
        }
        Ok(())
    }

    /// The lane half of [`check_invariants`](Self::check_invariants): ring
    /// order, head keys, the entry count, and the remembered head against
    /// the true minimum over lanes and backend.
    fn check_lanes(&self) -> Result<(), String> {
        let mut stored = self.heap.len();
        let mut min = EMPTY;
        for (i, lane) in self.lanes.iter().enumerate() {
            let keys = || lane.iter().map(|(key, _)| key);
            if keys().count() != lane.len() {
                return Err(format!("lane {i} has a slot without an event"));
            }
            if !keys().zip(keys().skip(1)).all(|(a, b)| a < b) {
                return Err(format!("lane {i} not ascending in (at, seq)"));
            }
            let front = keys().next().unwrap_or(EMPTY);
            if self.lane_keys[i] != front {
                return Err(format!(
                    "lane {i}: head key {:#x} but the ring's front is {front:#x}",
                    self.lane_keys[i]
                ));
            }
            let vacant = lane.keys.iter().filter(|&&k| k == EMPTY).count();
            if !(lane.keys.is_empty() || lane.keys.len().is_power_of_two())
                || lane.events.len() != lane.keys.len()
                || vacant != lane.keys.len() - lane.len()
            {
                return Err(format!(
                    "lane {i}: ring shape or a stale key in a vacant slot"
                ));
            }
            stored += lane.len();
            min = min.min(front);
        }
        if let Some(i) = (self.lanes.len()..MAX_LANES).find(|&i| self.lane_keys[i] != EMPTY) {
            return Err(format!("undeclared lane {i} has a head key"));
        }
        if stored != self.stored {
            return Err(format!(
                "stored {} but {stored} entries in backend and lanes",
                self.stored
            ));
        }
        let backend_min = self
            .heap
            .iter()
            .map(|Rev(e)| key_of(e.at, e.seq))
            .fold(EMPTY, u128::min);
        if self.backend_key != backend_min {
            return Err(format!(
                "backend head key {:#x} but its smallest entry is {backend_min:#x}",
                self.backend_key
            ));
        }
        let (key, src) = self.head;
        let at_src = match src {
            BACKEND => backend_min,
            lane => self.lane_keys[lane],
        };
        if key != min.min(backend_min) || key != at_src {
            return Err(format!(
                "remembered head {key:#x} (source {src}) but the smallest key stored is {:#x}",
                min.min(backend_min)
            ));
        }
        Ok(())
    }
}

impl<E> EventQueue<E> {
    /// Fold the queue's logical state into a state digest: clock, sequence
    /// counter, the cancellation slot table, and every stored entry,
    /// cancelled ones included. `event` folds one payload as a fixed
    /// sequence of words.
    ///
    /// Container-agnostic without cloning or sorting: each entry is mixed on
    /// its own from `(seq, at, slot, payload)` and the results are summed.
    /// `seq` is unique, so the sum names the *set* of entries, whichever
    /// backend or lane stores them and in whatever order. What was declared,
    /// the head keys derived from the entries, `pending_peak` and the push
    /// counts of the lanes and the backend are diagnostics or functions of
    /// the rest and stay out.
    pub fn fold_digest(&self, fold: &mut impl FnMut(u64), event: impl Fn(&E, &mut dyn FnMut(u64))) {
        let EventQueue {
            heap: _,
            work: _,
            lanes: _,
            delays: _,
            lane_keys: _,
            backend_key: _,
            head: _,
            stored,
            next_seq,
            slots,
            free_slots,
            cancelled_in_heap,
            now,
            pending_peak: _,
        } = self;
        fold(now.as_ps());
        fold(*next_seq);
        fold(*cancelled_in_heap as u64);
        fold(slots.len() as u64);
        for s in slots {
            fold(s.gen as u64 | (s.live as u64) << 32);
        }
        fold(free_slots.len() as u64);
        free_slots.iter().for_each(|&s| fold(s as u64));
        let mut sum = 0u64;
        self.for_each_entry(&mut |at, seq, slot, e| {
            let mut h = seq;
            let mut mix = |w: u64| h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
            mix(at.as_ps());
            mix(slot as u64);
            event(e, &mut mix);
            sum = sum.wrapping_add(h);
        });
        fold(*stored as u64);
        fold(sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The delays [`with_and_without_lanes`] declares: the ones the
    /// scenarios below schedule at from time zero, and the zero delay of a
    /// self-post.
    const DECLARED_US: [u64; 7] = [0, 1, 2, 3, 5, 7, 10];

    /// Run a test body against a fresh queue without lanes and one with
    /// [`DECLARED_US`] declared, so every scenario below pins identical
    /// behavior for entries in the heap and in the lanes.
    fn with_and_without_lanes<E>(f: impl Fn(&mut EventQueue<E>, bool)) {
        for lanes in [false, true] {
            let mut q = EventQueue::new();
            if lanes {
                for us in DECLARED_US {
                    assert!(q.declare_delay(Time::from_us(us)));
                }
            }
            f(&mut q, lanes);
        }
    }

    #[test]
    fn pops_in_time_order() {
        with_and_without_lanes(|q, lanes| {
            q.schedule(Time::from_us(3), "c");
            q.schedule(Time::from_us(1), "a");
            q.schedule(Time::from_us(2), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"], "lanes={lanes}");
        });
    }

    #[test]
    fn ties_break_by_insertion_order() {
        with_and_without_lanes(|q, lanes| {
            let t = Time::from_us(5);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "lanes={lanes}");
        });
    }

    #[test]
    fn mixed_cancellable_ties_break_by_insertion_order() {
        with_and_without_lanes(|q, lanes| {
            let t = Time::from_us(5);
            for i in 0..100 {
                if i % 3 == 0 {
                    let _ = q.schedule_cancellable(t, i);
                } else {
                    q.schedule(t, i);
                }
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "lanes={lanes}");
        });
    }

    #[test]
    fn clock_advances_monotonically() {
        with_and_without_lanes(|q, _| {
            q.schedule(Time::from_us(10), ());
            q.schedule(Time::from_us(10), ());
            q.schedule(Time::from_us(20), ());
            let mut last = Time::ZERO;
            while let Some((t, ())) = q.pop() {
                assert!(t >= last);
                last = t;
                assert_eq!(q.now(), t);
            }
            assert_eq!(last, Time::from_us(20));
        });
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_us(10), ());
        q.pop();
        q.schedule(Time::from_us(5), ());
    }

    #[test]
    fn zero_delay_schedule_in_fires_at_now_after_existing_ties() {
        with_and_without_lanes(|q, lanes| {
            q.schedule(Time::from_us(10), 0);
            q.pop();
            // Zero delay: due at now() exactly, but after events already
            // scheduled for this instant (sequence order).
            q.schedule(q.now(), 1);
            q.schedule_in(Time::ZERO, 2);
            q.schedule_in(Time::from_us(1), 3);
            assert_eq!(q.peek_time(), Some(Time::from_us(10)), "lanes={lanes}");
            assert_eq!(q.pop(), Some((Time::from_us(10), 1)), "lanes={lanes}");
            assert_eq!(q.pop(), Some((Time::from_us(10), 2)), "lanes={lanes}");
            assert_eq!(q.pop(), Some((Time::from_us(11), 3)), "lanes={lanes}");
            assert_eq!(q.now(), Time::from_us(11));
        });
    }

    #[test]
    fn cancellation_skips_events() {
        with_and_without_lanes(|q, lanes| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            q.schedule(Time::from_us(2), "b");
            q.cancel(a);
            assert_eq!(q.len(), 1, "lanes={lanes}");
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"), "lanes={lanes}");
            assert!(q.pop().is_none(), "lanes={lanes}");
        });
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        with_and_without_lanes(|q, _| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            assert!(q.pop().is_some());
            q.cancel(a);
            q.schedule(Time::from_us(2), "b");
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        });
    }

    /// Regression: the old tombstone-set design let `cancel()` on a fired id
    /// insert a never-matching tombstone, making `len()` under-report and
    /// underflow-panic once the heap drained below the tombstone count.
    #[test]
    fn cancel_after_fire_keeps_len_exact() {
        with_and_without_lanes(|q, _| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            q.pop();
            assert_eq!(q.len(), 0);
            q.cancel(a); // stale id: must not disturb the live count
            assert_eq!(q.len(), 0);
            assert!(q.is_empty());
            q.schedule(Time::from_us(2), "b");
            assert_eq!(q.len(), 1); // would panic on underflow before the fix
            q.cancel(a); // still a no-op, even with events pending
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
            assert_eq!(q.len(), 0);
        });
    }

    /// Cancel with a stale id whose slot has been recycled by a *new*
    /// cancellable event after the original was popped: the generation check
    /// must protect the new occupant.
    #[test]
    fn cancel_on_popped_id_after_slot_reuse_is_noop() {
        with_and_without_lanes(|q, lanes| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
            // Slot freed by the pop; this reuses it under a newer gen.
            let b = q.schedule_cancellable(Time::from_us(2), "b");
            q.cancel(a); // stale: must not kill "b"
            assert_eq!(q.len(), 1, "lanes={lanes}");
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"), "lanes={lanes}");
            q.cancel(b); // also stale now (fired)
            assert!(q.is_empty());
            q.check_invariants().unwrap();
        });
    }

    #[test]
    fn double_cancel_is_noop() {
        with_and_without_lanes(|q, _| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            q.schedule(Time::from_us(2), "b");
            q.cancel(a);
            q.cancel(a);
            q.cancel(a);
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
            assert!(q.pop().is_none());
            assert_eq!(q.len(), 0);
        });
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        with_and_without_lanes(|q, _| {
            q.schedule(Time::from_us(10), 0);
            q.pop();
            q.schedule_in(Time::from_us(5), 1);
            assert_eq!(q.pop().map(|(t, _)| t), Some(Time::from_us(15)));
        });
    }

    #[test]
    fn peek_skips_cancelled() {
        with_and_without_lanes(|q, lanes| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            q.schedule(Time::from_us(2), "b");
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(Time::from_us(2)), "lanes={lanes}");
        });
    }

    /// Regression for the lazy-skip contract: when the head entry is
    /// cancelled *between* a peek and the next peek/pop, both must agree on
    /// the new head — the stale peeked time must never be delivered.
    #[test]
    fn peek_and_pop_agree_when_head_cancelled_between_calls() {
        with_and_without_lanes(|q, lanes| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            q.schedule(Time::from_us(2), "b");
            assert_eq!(q.peek_time(), Some(Time::from_us(1)), "lanes={lanes}");
            q.cancel(a); // head dies after it was peeked
            let peeked = q.peek_time();
            assert_eq!(peeked, Some(Time::from_us(2)), "lanes={lanes}");
            let (t, e) = q.pop().unwrap();
            assert_eq!(Some(t), peeked, "lanes={lanes}: peek/pop disagree");
            assert_eq!(e, "b");
            // And with pop first (no intervening peek): same skip.
            let c = q.schedule_cancellable(Time::from_us(3), "c");
            q.schedule(Time::from_us(4), "d");
            q.cancel(c);
            assert_eq!(q.pop(), Some((Time::from_us(4), "d")), "lanes={lanes}");
            q.check_invariants().unwrap();
        });
    }

    #[test]
    fn cancel_interleaved_with_peek() {
        with_and_without_lanes(|q, lanes| {
            let a = q.schedule_cancellable(Time::from_us(1), 1);
            let b = q.schedule_cancellable(Time::from_us(2), 2);
            q.schedule(Time::from_us(3), 3);
            assert_eq!(q.peek_time(), Some(Time::from_us(1)), "lanes={lanes}");
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(Time::from_us(2)), "lanes={lanes}");
            q.cancel(b);
            assert_eq!(q.peek_time(), Some(Time::from_us(3)), "lanes={lanes}");
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((Time::from_us(3), 3)));
            assert_eq!(q.peek_time(), None);
        });
    }

    #[test]
    fn mass_cancel_then_drain() {
        with_and_without_lanes(|q, lanes| {
            let ids: Vec<_> = (0..1000)
                .map(|i| q.schedule_cancellable(Time::from_us(i), i))
                .collect();
            // Keep every 10th event; cancel the rest in scattered order.
            for (i, id) in ids.iter().enumerate() {
                if i % 10 != 0 {
                    q.cancel(*id);
                }
            }
            assert_eq!(q.len(), 100, "lanes={lanes}");
            let survivors: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(survivors, (0..1000).step_by(10).collect::<Vec<_>>());
            assert_eq!(q.len(), 0);
            assert!(q.is_empty());
        });
    }

    #[test]
    fn invariants_hold_through_schedule_cancel_pop_cycles() {
        with_and_without_lanes(|q, _| {
            q.check_invariants().unwrap();
            let mut ids = Vec::new();
            for i in 0..200u64 {
                if i % 2 == 0 {
                    ids.push(q.schedule_cancellable(Time::from_us(i + 1), i));
                } else {
                    q.schedule(Time::from_us(i + 1), i);
                }
                q.check_invariants().unwrap();
            }
            for (k, id) in ids.iter().enumerate() {
                if k % 3 == 0 {
                    q.cancel(*id);
                    q.check_invariants().unwrap();
                }
            }
            while q.pop().is_some() {
                q.check_invariants().unwrap();
            }
            assert!(q.is_empty());
            q.check_invariants().unwrap();
        });
    }

    #[test]
    fn slot_reuse_does_not_resurrect_old_ids() {
        with_and_without_lanes(|q, _| {
            // Run many schedule/fire/cancel-stale cycles through the same
            // slot.
            let mut stale = Vec::new();
            for round in 0..50u64 {
                let id = q.schedule_cancellable(Time::from_us(round + 1), round);
                // Every stale id from prior rounds must be inert against the
                // recycled slot now hosting the current event.
                for old in &stale {
                    q.cancel(*old);
                }
                assert_eq!(q.len(), 1);
                assert_eq!(q.pop().map(|(_, e)| e), Some(round));
                stale.push(id);
            }
            assert!(q.is_empty());
        });
    }

    /// `pop_before` serves the exact `(time, event)` stream `pop` does,
    /// with and without lanes and with scattered cancellations in the mix,
    /// whatever horizons it is given; a horizon at or before the next live
    /// event serves nothing and leaves the clock where it was.
    #[test]
    fn pop_before_matches_pop() {
        with_and_without_lanes(|bounded, lanes| {
            let mut plain = EventQueue::new();
            let mut x = 0x6C62272E07BB0142u64;
            let mut draw = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut ids = Vec::new();
            for i in 0..2000u64 {
                // Coarse grid => many same-timestamp ties.
                let at = Time::from_ns((draw() % 64) * 100);
                if i % 4 == 0 {
                    let a = bounded.schedule_cancellable(at, i);
                    ids.push((a, plain.schedule_cancellable(at, i)));
                } else {
                    bounded.schedule(at, i);
                    plain.schedule(at, i);
                }
            }
            for &(a, b) in ids.iter().step_by(3) {
                bounded.cancel(a);
                plain.cancel(b);
            }
            let mut got = Vec::new();
            while !bounded.is_empty() {
                let (before, horizon) =
                    (bounded.now(), bounded.now() + Time::from_ns(draw() % 300));
                match bounded.pop_before(horizon) {
                    Some(e) => {
                        assert!(bounded.now() < horizon, "lanes={lanes}");
                        got.push((bounded.now(), e));
                    }
                    None => {
                        assert_eq!(bounded.now(), before, "lanes={lanes}: the clock moved");
                        assert!(bounded.peek_time() >= Some(horizon), "lanes={lanes}");
                    }
                }
            }
            bounded.check_invariants().unwrap();
            let want: Vec<_> = std::iter::from_fn(|| plain.pop()).collect();
            assert_eq!(got, want, "lanes={lanes}");
        });
    }

    /// An event cancelled by an earlier event of the same instant is not
    /// delivered: liveness is checked when an entry is served.
    #[test]
    fn same_instant_cancellation_skips_event() {
        with_and_without_lanes(|q, lanes| {
            let t = Time::from_us(7);
            q.schedule(t, 0u64);
            let victim = q.schedule_cancellable(t, 1u64);
            q.schedule(t, 2u64);
            assert_eq!(q.pop(), Some((t, 0)), "lanes={lanes}");
            // "Handler" of event 0 cancels event 1.
            q.cancel(victim);
            assert_eq!(q.pop_before(Time::from_us(8)), Some(2), "lanes={lanes}");
            assert!(q.is_empty(), "lanes={lanes}");
            q.check_invariants().unwrap();
        });
    }

    /// `pop_before` serves only what is strictly before its horizon. What
    /// it leaves stays queued — clock, `len` and `peek_time` untouched —
    /// for the next call or a `pop`, and a cancelled entry ahead of the
    /// horizon does not move the clock.
    #[test]
    fn pop_before_stops_at_the_horizon() {
        with_and_without_lanes(|q, lanes| {
            let us = Time::from_us;
            q.schedule(us(3), 0u64);
            q.schedule(us(3), 1);
            q.schedule(us(5), 99);
            assert_eq!(
                q.pop_before(us(3)),
                None,
                "lanes={lanes}: an event at the horizon"
            );
            assert_eq!((q.now(), q.len()), (Time::ZERO, 3), "lanes={lanes}");
            assert_eq!(q.pop_before(us(5)), Some(0), "lanes={lanes}");
            assert_eq!(q.now(), us(3));
            assert_eq!(q.pop_before(us(5)), Some(1), "lanes={lanes}");
            assert_eq!(q.pop_before(us(5)), None, "lanes={lanes}");
            assert_eq!((q.now(), q.len(), q.peek_time()), (us(3), 1, Some(us(5))));
            q.check_invariants().unwrap();
            assert_eq!(q.pop(), Some((us(5), 99)), "lanes={lanes}");
            let c = q.schedule_cancellable(us(6), 7);
            q.schedule(us(9), 8);
            q.cancel(c);
            assert_eq!(q.pop_before(us(8)), None, "lanes={lanes}");
            assert_eq!(
                q.now(),
                us(5),
                "lanes={lanes}: a cancelled entry moved the clock"
            );
            assert_eq!(q.pop_before(Time::MAX), Some(8), "lanes={lanes}");
            q.check_invariants().unwrap();
        });
    }

    /// The digest names the logical queue: equal whichever container holds
    /// an entry; moved by one more entry, by a cancel, and by a pop.
    #[test]
    fn fold_digest_is_backend_agnostic_and_sees_every_entry() {
        fn digest(q: &EventQueue<u64>) -> Vec<u64> {
            let mut words = Vec::new();
            q.fold_digest(&mut |w| words.push(w), |e, fold| fold(*e));
            words
        }
        let build = |lanes: bool| {
            let mut q = EventQueue::new();
            if lanes {
                for ns in [0, 53, 106, 1_007] {
                    q.declare_delay(Time::from_ns(ns));
                }
            }
            let mut ids = Vec::new();
            for i in 0..300u64 {
                let at = Time::from_ns((i * 53) % 2_000);
                if i % 7 == 0 {
                    ids.push(q.schedule_cancellable(at, i));
                } else {
                    q.schedule(at, i);
                }
            }
            for _ in 0..40 {
                q.pop();
            }
            (q, ids)
        };
        let (mut q, ids) = build(false);
        let base = digest(&q);
        let (laned, _) = build(true);
        assert!(laned.lane_pushes() > 0 && laned.sched_work().pushes < 300);
        assert_eq!(
            base,
            digest(&laned),
            "an entry in a lane digests differently"
        );
        let (mut more, _) = build(false);
        more.schedule(Time::from_ms(5), 7);
        assert_ne!(base, digest(&more), "blind to a new entry");
        let (mut cancelled, _) = build(false);
        cancelled.cancel(*ids.last().unwrap());
        assert_ne!(base, digest(&cancelled), "blind to a cancellation");
        q.pop();
        assert_ne!(base, digest(&q), "blind to a pop");
    }

    /// Declarations are deduplicated, capped at [`MAX_LANES`], and only
    /// route pushes: a refused or a late one changes where entries wait,
    /// never the order they pop in.
    #[test]
    fn declare_delay_dedups_caps_and_never_reorders() {
        with_and_without_lanes(|q: &mut EventQueue<u64>, lanes| {
            let declared = q.lanes.len();
            assert!(q.declare_delay(Time::from_us(40)));
            assert!(
                q.declare_delay(Time::from_us(40)),
                "a repeat is not a new lane"
            );
            assert_eq!(q.lanes.len(), declared + 1);
            // One entry before the declaration (backend), then the same
            // delay again (lane): the backend's pops first, by `seq`.
            let mut plain = EventQueue::new();
            for i in 0..4 {
                if i == 1 {
                    assert!(q.declare_delay(Time::from_us(9)));
                }
                q.schedule(Time::from_us(9), i);
                plain.schedule(Time::from_us(9), i);
            }
            let granted = (0..MAX_LANES as u64)
                .filter(|extra| q.declare_delay(Time::from_us(100 + extra)))
                .count();
            assert_eq!(granted, MAX_LANES - (declared + 2), "lanes={lanes}");
            assert_eq!(q.lanes.len(), MAX_LANES, "lanes={lanes}");
            assert!(
                !q.declare_delay(Time::from_us(999)),
                "lanes={lanes}: a 17th delay is refused"
            );
            assert!(
                q.declare_delay(Time::from_us(40)),
                "lanes={lanes}: a declared one still has its lane"
            );
            q.schedule(Time::from_us(999), 4);
            plain.schedule(Time::from_us(999), 4);
            q.check_invariants().unwrap();
            assert_eq!((q.lane_pushes(), q.len()), (3, 5), "lanes={lanes}");
            let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            let want: Vec<_> = std::iter::from_fn(|| plain.pop()).collect();
            assert_eq!(got, want, "lanes={lanes}");
            assert_eq!(q.lane_pops(), q.lane_pushes(), "lanes={lanes}");
        });
    }

    /// A ring doubles in place while it wraps, and keeps its FIFO order.
    #[test]
    fn lane_ring_grows_while_wrapped() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.declare_delay(Time::from_ns(500));
        let mut next = 0u64;
        let mut want = 0u64;
        // Keep ~3/4 of each push burst pending so head and tail both run
        // well past the capacity before every doubling.
        for round in 0..200u64 {
            for _ in 0..4 {
                q.schedule_in(Time::from_ns(500), next);
                next += 1;
            }
            for _ in 0..1 + round % 3 {
                assert_eq!(q.pop().map(|(_, v)| v), Some(want));
                want += 1;
            }
            q.check_invariants().unwrap();
        }
        assert!(
            q.lanes[0].keys.len() >= 8 * MIN_RING,
            "grew to {}",
            q.lanes[0].keys.len()
        );
        assert_eq!(q.sched_work().pushes, 0, "everything went through the lane");
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(rest, (want..next).collect::<Vec<_>>());
    }

    /// The audit must see lanes: each way their bookkeeping can go wrong is
    /// reported by [`EventQueue::check_invariants`]. (Before it looked, a
    /// queue serving every packet from lanes passed every check.)
    #[test]
    fn check_invariants_reports_broken_lanes() {
        let us = Time::from_us;
        let build = || {
            let mut q: EventQueue<u64> = EventQueue::new();
            assert!(q.declare_delay(us(1)));
            for i in 0..3 {
                q.schedule(us(1), i);
            }
            q.schedule(us(2), 3); // undeclared: the backend's
            assert_eq!(q.lane_pushes(), 3);
            q
        };
        let broken = |what: &str, q: &EventQueue<u64>| {
            let err = q.check_invariants().expect_err(what);
            assert!(err.contains(what), "{what}: reported as {err:?}");
        };
        build().check_invariants().unwrap();

        let mut q = build();
        q.lanes[0].keys.swap(1, 2);
        broken("not ascending", &q);

        let mut q = build();
        q.lane_keys[0] = key_of(us(1), 1);
        broken("head key", &q);

        let mut q = build();
        assert_eq!(q.peek_time(), Some(us(1)));
        q.head = (key_of(us(2), 3), BACKEND);
        broken("remembered head", &q);

        let mut q = build();
        q.backend_key = EMPTY;
        broken("backend head key", &q);

        let mut q = build();
        q.stored += 1;
        broken("stored", &q);

        let mut q = build();
        q.lanes[0].events[1] = None;
        broken("without an event", &q);

        let mut q = build();
        q.lanes[0].keys[7] = 0;
        broken("vacant slot", &q);

        let mut q = build();
        q.now = us(5);
        broken("before now", &q);

        // And what the arena audit relies on: lane entries are visited.
        let mut seen = Vec::new();
        build().for_each_live(&mut |&v| seen.push(v));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    /// A lane slot is the key and the event: 32 bytes for a payload that
    /// packs into 16 with its `Option` (`netsim` pins `Event`'s the same).
    #[test]
    fn lane_slot_stays_small() {
        assert_eq!(EventQueue::<u64>::LANE_ENTRY_BYTES, 32);
    }
}
