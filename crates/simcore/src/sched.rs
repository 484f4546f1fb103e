//! Pluggable event-scheduler backends.
//!
//! [`EventQueue`](crate::EventQueue) separates *policy* — generation-slot
//! cancellation, the monotonic clock, sequence-number tie-breaking,
//! same-timestamp batches — from the ordered container that holds the
//! pending entries which need ordering. (Those that do not — pushes at a
//! declared constant delay, in a simulation nearly all of them — wait in the
//! queue's own FIFO lanes above any backend and never reach one; see
//! [`crate::event`].) The container side is the [`Scheduler`] trait, with two
//! deterministic backends:
//!
//! - [`BinaryHeapSched`]: `std::collections::BinaryHeap` with reversed
//!   ordering — the reference backend the property and golden tests
//!   compare against;
//! - [`CalendarQueue`]: a calendar queue (Brown 1988) whose day width
//!   follows the *measured* gap between pops, with unsorted buckets in one
//!   slab and a sorted current day. O(1) per operation on the populations
//!   the simulator produces — a dense near-term packet cluster (all of it
//!   when arrivals carry a random extra delay, otherwise the odd-sized and
//!   PFC remainder the lanes miss), one far RTO timer per live flow,
//!   pre-registered flow starts, one `End` outlier. The default, and the
//!   backend every `ppbench` workload runs on.
//!
//! # Contract
//!
//! Every backend must behave as a *stable min-queue over `(at, seq)`*:
//!
//! 1. `pop_min` returns the pending entry with the smallest `(at, seq)` key
//!    (keys are unique: the queue assigns strictly increasing `seq`);
//! 2. `peek_min` agrees with what `pop_min` would return next (it takes
//!    `&mut self` so a backend may settle its head lazily; the set of
//!    stored entries never changes);
//! 3. pushes must accept any `entry.at`, including ones earlier than the
//!    last entry popped or peeked: the event queue enforces causality
//!    against its own clock, but it also retires *cancelled* heads early,
//!    and those can carry timestamps ahead of the clock.
//!
//! Rule 1 makes backend choice *unobservable*: any two backends driven with
//! the same pushes produce bit-identical pop sequences, which is what lets
//! `PRIOPLUS_SCHED` flip the backend without perturbing a single golden
//! trace. The differential property test (`simcore/tests/prop_sched.rs`)
//! checks both against a naive sorted-`Vec` model, and the golden-trace
//! suite pins end-to-end digests per backend.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Time;

/// One pending event: absolute timestamp, tie-breaking sequence number, the
/// cancellation slot carried opaquely for [`crate::EventQueue`] (its
/// sentinel for "not cancellable" is `u32::MAX`), and the payload.
/// `Clone` (when `E: Clone`) exists so a whole queue can be cloned — the hot
/// path only ever moves entries.
#[derive(Debug, Clone)]
pub struct Entry<E> {
    /// Absolute due time.
    pub at: Time,
    /// Strictly increasing insertion sequence; ties on `at` pop in `seq`
    /// order.
    pub seq: u64,
    /// Cancellation slot index (opaque to backends).
    pub slot: u32,
    /// The event payload.
    pub event: E,
}

impl<E> Entry<E> {
    /// The total-order key backends sort by.
    #[inline]
    pub fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// A deterministic stable min-queue over `(at, seq)` — the pluggable half
/// of [`crate::EventQueue`]. See the module docs for the exact contract.
pub trait Scheduler<E> {
    /// Insert an entry. `seq` values are unique and strictly increasing
    /// across pushes; `at` may be earlier than the last popped entry (see
    /// the module docs on cancelled-head retirement).
    fn push(&mut self, entry: Entry<E>);

    /// Remove and return the entry with the smallest `(at, seq)`.
    fn pop_min(&mut self) -> Option<Entry<E>>;

    /// The entry `pop_min` would return next, without removing it.
    fn peek_min(&mut self) -> Option<&Entry<E>>;

    /// Number of stored entries (live and cancelled alike — cancellation is
    /// the queue's business, not the backend's).
    fn len(&self) -> usize;

    /// True when no entries are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every stored entry in unspecified order (audit support).
    fn for_each(&self, f: &mut dyn FnMut(&Entry<E>));

    /// Verify backend-internal structure (slab and list shape, index
    /// arrays, sort order, counts). Used by the audit layer on top of the
    /// queue's own checks.
    fn check_backend(&self) -> Result<(), String> {
        Ok(())
    }

    /// Deterministic work profile (all zero for backends that keep none).
    fn work(&self) -> SchedWork {
        SchedWork::default()
    }

    /// Heap bytes the backend holds, by capacity. Capacities only grow, so
    /// the value read at the end of a run is the run's peak.
    fn resident_bytes(&self) -> usize;
}

/// What a backend did, as plain counters: the same run always reads the
/// same numbers, so a cost regression is a failed assertion rather than a
/// stopwatch reading. `touches() / ops()` is the structure's cost per
/// operation in entries, buckets and list nodes handled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedWork {
    /// Entries pushed.
    pub pushes: u64,
    /// Entries popped.
    pub pops: u64,
    /// Entries shifted by a sorted insert, sorted when a day opens, or
    /// flushed back to their buckets by a rewinding push.
    pub entries_moved: u64,
    /// Buckets examined while looking for the next non-empty day.
    pub buckets_scanned: u64,
    /// List nodes visited when a day opens and when a rebuild re-threads.
    pub nodes_walked: u64,
    /// Rebuilds (width retunes and bucket-count changes).
    pub rebuilds: u64,
}

impl SchedWork {
    /// Entries, buckets and nodes handled in total.
    pub fn touches(&self) -> u64 {
        self.entries_moved + self.buckets_scanned + self.nodes_walked
    }

    /// Queue operations served.
    pub fn ops(&self) -> u64 {
        self.pushes + self.pops
    }
}

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

/// Which scheduler backend an [`crate::EventQueue`] uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedKind {
    /// `std` binary heap (the reference backend).
    Binary,
    /// Calendar queue tuned by the measured pop gap (the default).
    #[default]
    Calendar,
}

impl SchedKind {
    /// All backends, in a fixed order (test matrices iterate this).
    pub const ALL: [SchedKind; 2] = [SchedKind::Binary, SchedKind::Calendar];

    /// Canonical lowercase name (also what `PRIOPLUS_SCHED` accepts).
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::Binary => "binary",
            SchedKind::Calendar => "calendar",
        }
    }

    /// Parse a backend name — the inverse of [`SchedKind::name`], ignoring
    /// case and surrounding whitespace; `None` for anything else.
    pub fn parse(s: &str) -> Option<SchedKind> {
        let s = s.trim();
        Self::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Resolve a `PRIOPLUS_SCHED` environment value (`None` = unset) to a
    /// backend: `Ok(Calendar)` when unset, `Ok(kind)` for a known name, and
    /// `Err(value)` for anything else. Pure so the env-var contract is unit
    /// testable without mutating process state.
    pub fn from_env_value(v: Option<&str>) -> Result<SchedKind, String> {
        match v {
            None => Ok(SchedKind::default()),
            Some(s) => SchedKind::parse(s).ok_or_else(|| s.trim().to_string()),
        }
    }

    /// Backend selected by the `PRIOPLUS_SCHED` environment variable, or
    /// [`SchedKind::Calendar`] when unset. An unparsable value warns once on
    /// stderr and falls back to the default rather than aborting a run.
    pub fn from_env() -> SchedKind {
        let v = std::env::var("PRIOPLUS_SCHED").ok();
        Self::from_env_value(v.as_deref()).unwrap_or_else(|bad| {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: PRIOPLUS_SCHED={bad:?} not one of \
                     binary|calendar; using calendar"
                );
            });
            SchedKind::default()
        })
    }
}

/// Enum-dispatched backend: one concrete type the event queue can hold while
/// the kind is chosen at runtime, with static dispatch inside each arm.
#[derive(Clone, Debug)]
pub enum AnySched<E> {
    /// Binary-heap backend.
    Binary(BinaryHeapSched<E>),
    /// Calendar-queue backend.
    Calendar(CalendarQueue<E>),
}

impl<E> AnySched<E> {
    /// Construct an empty backend of the given kind.
    pub fn new(kind: SchedKind) -> Self {
        match kind {
            SchedKind::Binary => AnySched::Binary(BinaryHeapSched::new()),
            SchedKind::Calendar => AnySched::Calendar(CalendarQueue::new()),
        }
    }

    /// Which backend this is.
    pub fn kind(&self) -> SchedKind {
        match self {
            AnySched::Binary(_) => SchedKind::Binary,
            AnySched::Calendar(_) => SchedKind::Calendar,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $b:ident => $body:expr) => {
        match $self {
            AnySched::Binary($b) => $body,
            AnySched::Calendar($b) => $body,
        }
    };
}

impl<E> Scheduler<E> for AnySched<E> {
    #[inline]
    fn push(&mut self, entry: Entry<E>) {
        dispatch!(self, b => b.push(entry))
    }
    #[inline]
    fn pop_min(&mut self) -> Option<Entry<E>> {
        dispatch!(self, b => b.pop_min())
    }
    #[inline]
    fn peek_min(&mut self) -> Option<&Entry<E>> {
        dispatch!(self, b => b.peek_min())
    }
    #[inline]
    fn len(&self) -> usize {
        dispatch!(self, b => b.len())
    }
    fn for_each(&self, f: &mut dyn FnMut(&Entry<E>)) {
        dispatch!(self, b => b.for_each(f))
    }
    fn check_backend(&self) -> Result<(), String> {
        dispatch!(self, b => b.check_backend())
    }
    fn work(&self) -> SchedWork {
        dispatch!(self, b => b.work())
    }
    fn resident_bytes(&self) -> usize {
        dispatch!(self, b => b.resident_bytes())
    }
}

// ---------------------------------------------------------------------------
// Binary heap backend
// ---------------------------------------------------------------------------

/// Reversed-order wrapper so the std max-heap pops the smallest key first.
#[derive(Clone, Debug)]
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

/// The reference backend: `std::collections::BinaryHeap` in min-order.
#[derive(Clone, Debug)]
pub struct BinaryHeapSched<E> {
    heap: BinaryHeap<Rev<E>>,
}

impl<E> BinaryHeapSched<E> {
    /// Empty backend.
    pub fn new() -> Self {
        BinaryHeapSched {
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> Default for BinaryHeapSched<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> for BinaryHeapSched<E> {
    #[inline]
    fn push(&mut self, entry: Entry<E>) {
        self.heap.push(Rev(entry));
    }
    #[inline]
    fn pop_min(&mut self) -> Option<Entry<E>> {
        self.heap.pop().map(|r| r.0)
    }
    #[inline]
    fn peek_min(&mut self) -> Option<&Entry<E>> {
        self.heap.peek().map(|r| &r.0)
    }
    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn for_each(&self, f: &mut dyn FnMut(&Entry<E>)) {
        for r in self.heap.iter() {
            f(&r.0);
        }
    }
    fn resident_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<Entry<E>>()
    }
}

// ---------------------------------------------------------------------------
// Calendar queue backend
// ---------------------------------------------------------------------------

/// Calendar queue (Brown 1988), built for the bimodal populations a packet
/// simulation produces. Time is cut into "days" of `2^shift` ps; day `d`
/// hashes to bucket `d & (nbuckets - 1)`, so a bucket holds one day of every
/// "year".
///
/// - **Buckets are unsorted** intrusive singly-linked lists threaded through
///   one slab (`slab[i].next`), with freed slots reused last-in first-out.
///   A push writes one slot that is still in cache, one `heads` cell and
///   at most one `min_day` cell; nothing is compared or shifted, however far
///   ahead the entry lies, and no bucket owns memory it could retain.
/// - **The current day is sorted.** When the clock reaches a day, one walk
///   of its bucket moves that day's entries into `bottom`, a small ring
///   buffer sorted by `(at, seq)`; other years' entries stay threaded.
///   `peek_min` / `pop_min` are then front operations. A push that
///   lands in the current day is a sorted insert into `bottom`, which
///   shifts whichever side of the ring is shorter — nothing at all for the
///   two patterns a simulation produces in bulk, a tie with the latest
///   entry and an event earlier than everything pending. A push that lands
///   *before* the current day (the event queue retired a cancelled head
///   ahead of its clock, or peeked, and then scheduled something earlier)
///   first hands the later part of `bottom` back to the buckets and rewinds
///   the current day.
/// - **Finding the next day** probes `min_day[bucket] == day` for each day
///   after the current one — a sequential read of a dense `u64` array, no
///   list is touched — and falls back to the minimum over `min_day` when a
///   whole year is empty.
/// - **The width follows the pops.** Every `WINDOW_YEARS * nbuckets` pops
///   the queue compares its width with `3 × Δt / pops` — three mean pop
///   gaps, Brown's rule — and re-threads when it is off by
///   `2^RETUNE_SHIFTS` or more. A width derived from the pending *span*
///   would be set by the `End` event and the RTO timers, not by the packet
///   cluster that is actually being popped. The width is a power of two so
///   a day is `at >> shift` rather than a division on every operation. The
///   window also closes early once its scans and walks exceed
///   `EARLY_WORK_PER_POP` per pop of a full window, which bounds what a
///   dense→sparse switch (thousands of empty days per pop) can cost before
///   the width catches up — and is why a new queue starts at the narrowest
///   width and lets that rule find the first real one.
///
/// The bucket count follows the entry count (`count ≤ 2·nbuckets`, shrinking
/// below `nbuckets / 4`), so lists stay a couple of nodes long. A rebuild
/// re-threads the slab in place in O(count + nbuckets).
///
/// Same-timestamp entries share a day, and `bottom`'s order is total over
/// `(at, seq)`, so the stable-order contract holds exactly.
#[derive(Clone, Debug)]
pub struct CalendarQueue<E> {
    /// Every entry outside the current day, plus free slots; `next` threads
    /// a bucket's list or the free list.
    slab: Vec<Node<E>>,
    /// Head of the free-slot list (`NIL` when every slot is occupied).
    free: u32,
    /// Per bucket: first node of its list, or `NIL`. Length is a power of
    /// two — the bucket count.
    heads: Vec<u32>,
    /// Per bucket: the earliest day among its entries, or `NO_DAY`.
    min_day: Vec<u64>,
    /// Day width is `2^shift` ps.
    shift: u32,
    /// The day `bottom` holds: every stored entry of a day `<= cur_day` is
    /// in `bottom`, every later one is in a bucket.
    cur_day: u64,
    /// The current day's entries, sorted ascending by `(at, seq)`.
    bottom: VecDeque<Entry<E>>,
    count: usize,
    /// Timestamp of the last pop, in ps: the window's clock. (The current
    /// day is not one — a peek may open a day far ahead of the pops.)
    last_ps: u64,
    work: SchedWork,
    /// Where the measurement window began: `work.pops`, scans + walks, and
    /// `last_ps` — or, with nothing popped yet, the start of the day then
    /// opened (`NO_DAY` until the first day opens).
    win_pops: u64,
    win_work: u64,
    win_ps: u64,
}

/// One slab slot: an entry threaded into a bucket's list, or a free slot
/// (`entry` is `None`) threaded into the free list.
#[derive(Clone, Debug)]
struct Node<E> {
    entry: Option<Entry<E>>,
    next: u32,
}

/// End of a list.
const NIL: u32 = u32::MAX;
/// "No entry" in `min_day`; also "no window yet" in `win_ps`.
const NO_DAY: u64 = u64::MAX;
/// Smallest bucket count; also the initial size.
const MIN_BUCKETS: usize = 4;
/// Days are at least 2 ps wide, so every day number is below 2^63: `NO_DAY`
/// is free as a sentinel and `day + nbuckets` cannot overflow. Also the
/// width a queue starts at: too narrow costs a few year-long scans before
/// the work cut-off below measures a real one (pushes cost the same at any
/// width), where too wide would cost a whole window of sorted inserts.
const MIN_SHIFT: u32 = 1;
/// Window length in years (`nbuckets` pops each): long enough that a
/// rebuild's O(nbuckets) pass is amortised to O(1) per pop.
const WINDOW_YEARS: u64 = 2;
/// Retune only when the width is off by 2^2 = 4× or more: rounding to a
/// power of two already moves it by up to 2×, so anything less is noise.
const RETUNE_SHIFTS: u32 = 2;
/// Close the window early once scans + walks exceed this many per pop of a
/// full window: steady state is ~2, so 8 is a regime change, not jitter.
const EARLY_WORK_PER_POP: u64 = 8;

/// `log2` of the day width for a window of `pops` pops over `dt` ps: three
/// mean gaps, rounded up to a power of two.
fn shift_for(dt: u64, pops: u64) -> u32 {
    let width = dt.saturating_mul(3) / pops;
    (u64::BITS - width.saturating_sub(1).leading_zeros()).clamp(MIN_SHIFT, u64::BITS - 1)
}

impl<E> CalendarQueue<E> {
    /// Bytes per slab slot. Every pending entry outside the current day
    /// costs one, so it is pinned next to `Entry`'s size.
    pub const NODE_BYTES: usize = std::mem::size_of::<Node<E>>();

    /// Empty backend.
    pub fn new() -> Self {
        CalendarQueue {
            slab: Vec::new(),
            free: NIL,
            // simlint::allow(hot-path-alloc, construction: the four initial buckets)
            heads: vec![NIL; MIN_BUCKETS],
            // simlint::allow(hot-path-alloc, construction: the four initial buckets)
            min_day: vec![NO_DAY; MIN_BUCKETS],
            shift: MIN_SHIFT,
            cur_day: 0,
            bottom: VecDeque::new(),
            count: 0,
            last_ps: 0,
            work: SchedWork::default(),
            win_pops: 0,
            win_work: 0,
            win_ps: NO_DAY,
        }
    }

    #[inline]
    fn day_of(&self, entry: &Entry<E>) -> u64 {
        entry.at.as_ps() >> self.shift
    }

    /// Thread `entry` (of a day after the current one) into its bucket.
    #[inline]
    fn link(&mut self, entry: Entry<E>) {
        let day = self.day_of(&entry);
        let b = day as usize & (self.heads.len() - 1);
        let node = Node {
            entry: Some(entry),
            next: self.heads[b],
        };
        let i = self.free;
        if i != NIL {
            self.free = self.slab[i as usize].next;
            self.slab[i as usize] = node;
            self.heads[b] = i;
        } else {
            assert!(self.slab.len() < NIL as usize, "calendar slab exhausted");
            self.heads[b] = self.slab.len() as u32;
            // Every slot is occupied: a new peak of pending entries.
            self.slab.push(node);
        }
        if day < self.min_day[b] {
            self.min_day[b] = day;
        }
    }

    /// Sorted insert into the current day; the ring shifts its shorter side.
    fn insert_bottom(&mut self, entry: Entry<E>) {
        let key = entry.key();
        let pos = self.bottom.partition_point(|e| e.key() < key);
        self.work.entries_moved += pos.min(self.bottom.len() - pos) as u64;
        self.bottom.insert(pos, entry);
    }

    /// A push landed before the current day: hand the later part of
    /// `bottom` back to the buckets and make `day` the current one.
    #[cold]
    fn rewind(&mut self, day: u64) {
        self.cur_day = day;
        while self.bottom.back().is_some_and(|e| self.day_of(e) > day) {
            if let Some(entry) = self.bottom.pop_back() {
                self.link(entry);
                self.work.entries_moved += 1;
            }
        }
    }

    /// Move the next non-empty day into `bottom` (which must be empty).
    /// Returns false when nothing is stored.
    fn open_next_day(&mut self) -> bool {
        debug_assert!(self.bottom.is_empty());
        if self.count == 0 {
            return false;
        }
        let nbuckets = self.heads.len() as u64;
        let mask = nbuckets - 1;
        let year_end = self.cur_day + 1 + nbuckets;
        let mut day = self.cur_day + 1;
        while day < year_end && self.min_day[(day & mask) as usize] != day {
            day += 1;
        }
        self.work.buckets_scanned += (day - self.cur_day).min(nbuckets);
        if day == year_end {
            // Nothing due for a year: jump to the earliest day stored.
            day = self.min_day.iter().copied().fold(NO_DAY, u64::min);
            self.work.buckets_scanned += nbuckets;
        }
        debug_assert_ne!(day, NO_DAY, "count > 0 with every bucket empty");
        self.cur_day = day;

        // Split the bucket's list: this day's entries to `bottom`, their
        // slots to the free list, other years' entries re-threaded. An
        // emptied ring keeps its head wherever the pops left it; `clear`
        // starts it over so the fill is one contiguous slice.
        self.bottom.clear();
        let b = (day & mask) as usize;
        let shift = self.shift;
        let (mut kept, mut kept_min) = (NIL, NO_DAY);
        let mut i = self.heads[b];
        while i != NIL {
            let node = &mut self.slab[i as usize];
            let next = node.next;
            let d = node
                .entry
                .as_ref()
                .map_or(NO_DAY, |e| e.at.as_ps() >> shift);
            if d == day {
                if let Some(entry) = node.entry.take() {
                    self.bottom.push_back(entry);
                }
                node.next = self.free;
                self.free = i;
            } else {
                node.next = kept;
                kept = i;
                kept_min = kept_min.min(d);
            }
            self.work.nodes_walked += 1;
            i = next;
        }
        self.heads[b] = kept;
        self.min_day[b] = kept_min;
        self.sort_bottom();
        self.tune();
        true
    }

    fn sort_bottom(&mut self) {
        if self.bottom.len() > 1 {
            self.work.entries_moved += self.bottom.len() as u64;
            self.bottom
                .make_contiguous()
                .sort_unstable_by_key(Entry::key);
        }
    }

    /// Day-boundary upkeep: shrink when the population fell, and close the
    /// measurement window when it is full or over its work budget.
    fn tune(&mut self) {
        let nbuckets = self.heads.len();
        let mut want_buckets = nbuckets;
        if nbuckets > MIN_BUCKETS && 4 * self.count < nbuckets {
            want_buckets = self.count.next_power_of_two().max(MIN_BUCKETS);
        }
        let window = WINDOW_YEARS * nbuckets as u64;
        let pops = self.work.pops - self.win_pops;
        let walked = self.work.buckets_scanned + self.work.nodes_walked;
        let close = self.win_ps == NO_DAY
            || pops >= window
            || walked - self.win_work > EARLY_WORK_PER_POP * window;
        let mut want_shift = self.shift;
        // (`win_ps` is `NO_DAY` before the first window, and can be ahead
        // of the pops after a cancelled head was retired from a far day: no
        // measurement either way.)
        if close && pops > 0 && self.last_ps > self.win_ps {
            let ideal = shift_for(self.last_ps - self.win_ps, pops);
            if ideal.abs_diff(self.shift) >= RETUNE_SHIFTS {
                want_shift = ideal;
            }
        }
        let day_ps = self.cur_day << self.shift;
        if want_buckets != nbuckets || want_shift != self.shift {
            self.rebuild(want_buckets, want_shift);
        }
        if close {
            // The next window runs from the last pop; before any pop, from
            // the day being opened.
            self.win_ps = if self.work.pops == 0 {
                day_ps
            } else {
                self.last_ps
            };
            self.win_pops = self.work.pops;
            // Re-read: a rebuild's own walk is not the next window's work.
            self.win_work = self.work.buckets_scanned + self.work.nodes_walked;
        }
    }

    /// Re-thread every bucket entry for a new bucket count and width, in
    /// place. `bottom` keeps what it has and gains whatever the new width
    /// puts in its day.
    fn rebuild(&mut self, nbuckets: usize, shift: u32) {
        debug_assert!(nbuckets.is_power_of_two());
        // Unthread every list into one chain.
        let mut chain = NIL;
        for head in &self.heads {
            let mut i = *head;
            while i != NIL {
                let node = &mut self.slab[i as usize];
                let next = node.next;
                node.next = chain;
                chain = i;
                i = next;
            }
        }
        // `bottom`'s back is the latest entry of the current day; with it
        // empty the old day's start bounds every bucket entry from below.
        self.cur_day = match self.bottom.back() {
            Some(latest) => latest.at.as_ps() >> shift,
            None => (self.cur_day << self.shift) >> shift,
        };
        self.shift = shift;
        self.heads.clear();
        self.heads.resize(nbuckets, NIL);
        self.min_day.clear();
        self.min_day.resize(nbuckets, NO_DAY);
        let mask = nbuckets - 1;
        let had = self.bottom.len();
        while chain != NIL {
            let node = &mut self.slab[chain as usize];
            let next = node.next;
            let day = node
                .entry
                .as_ref()
                .map_or(NO_DAY, |e| e.at.as_ps() >> shift);
            if day <= self.cur_day {
                self.bottom.extend(node.entry.take());
                node.next = self.free;
                self.free = chain;
            } else {
                let b = day as usize & mask;
                node.next = self.heads[b];
                self.heads[b] = chain;
                self.min_day[b] = self.min_day[b].min(day);
            }
            self.work.nodes_walked += 1;
            chain = next;
        }
        if self.bottom.len() > had {
            self.sort_bottom();
        }
        self.work.rebuilds += 1;
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> for CalendarQueue<E> {
    #[inline]
    fn push(&mut self, entry: Entry<E>) {
        self.work.pushes += 1;
        self.count += 1;
        let day = self.day_of(&entry);
        if day > self.cur_day {
            self.link(entry);
        } else {
            if day < self.cur_day {
                self.rewind(day);
            }
            self.insert_bottom(entry);
        }
        if self.count > 2 * self.heads.len() {
            self.rebuild(self.count.next_power_of_two(), self.shift);
        }
    }

    #[inline]
    fn pop_min(&mut self) -> Option<Entry<E>> {
        if self.bottom.is_empty() && !self.open_next_day() {
            return None;
        }
        let entry = self.bottom.pop_front()?;
        self.count -= 1;
        self.work.pops += 1;
        self.last_ps = entry.at.as_ps();
        Some(entry)
    }

    #[inline]
    fn peek_min(&mut self) -> Option<&Entry<E>> {
        if self.bottom.is_empty() {
            self.open_next_day();
        }
        self.bottom.front()
    }

    #[inline]
    fn len(&self) -> usize {
        self.count
    }

    fn for_each(&self, f: &mut dyn FnMut(&Entry<E>)) {
        self.bottom.iter().for_each(&mut *f);
        self.slab
            .iter()
            .filter_map(|n| n.entry.as_ref())
            .for_each(f);
    }

    fn check_backend(&self) -> Result<(), String> {
        let nbuckets = self.heads.len();
        if !nbuckets.is_power_of_two() || nbuckets < MIN_BUCKETS || self.min_day.len() != nbuckets {
            return Err(format!(
                "calendar shape: {nbuckets} heads, {} min_day cells",
                self.min_day.len()
            ));
        }
        if !(MIN_SHIFT..u64::BITS).contains(&self.shift) {
            return Err(format!("calendar shift {} out of range", self.shift));
        }
        // Bucket lists: occupied nodes of a later day, filed under the
        // right bucket, `min_day` exact, no node reached twice.
        let mut seen = 0usize;
        for (b, &head) in self.heads.iter().enumerate() {
            let mut min = NO_DAY;
            let mut i = head;
            while i != NIL {
                seen += 1;
                let Some(node) = self.slab.get(i as usize) else {
                    return Err(format!("bucket {b} links to slot {i} past the slab"));
                };
                let Some(e) = node.entry.as_ref() else {
                    return Err(format!("bucket {b} links to free slot {i}"));
                };
                let day = self.day_of(e);
                if day as usize & (nbuckets - 1) != b || day <= self.cur_day {
                    return Err(format!(
                        "entry at {} (seq {}, day {day}) misfiled in bucket {b}, current day {}",
                        e.at, e.seq, self.cur_day
                    ));
                }
                if seen > self.slab.len() {
                    return Err(format!("bucket {b}: list cycle"));
                }
                min = min.min(day);
                i = node.next;
            }
            if self.min_day[b] != min {
                return Err(format!(
                    "bucket {b}: min_day {} but earliest entry is day {min}",
                    self.min_day[b]
                ));
            }
        }
        // Free list: empty slots, and with the lists it covers the slab.
        let mut i = self.free;
        while i != NIL {
            seen += 1;
            match self.slab.get(i as usize) {
                Some(node) if node.entry.is_none() && seen <= self.slab.len() => i = node.next,
                _ => return Err(format!("free list broken at slot {i}")),
            }
        }
        if seen != self.slab.len() {
            return Err(format!(
                "{seen} slots on lists, slab has {}",
                self.slab.len()
            ));
        }
        // The current day: sorted, nothing of a later day.
        if !self
            .bottom
            .iter()
            .zip(self.bottom.iter().skip(1))
            .all(|(a, b)| a.key() < b.key())
        {
            return Err("bottom not sorted".into());
        }
        if let Some(latest) = self.bottom.back() {
            if self.day_of(latest) > self.cur_day {
                return Err(format!(
                    "bottom holds an entry at {} past current day {}",
                    latest.at, self.cur_day
                ));
            }
        }
        let listed = self.slab.iter().filter(|n| n.entry.is_some()).count();
        if listed + self.bottom.len() != self.count {
            return Err(format!(
                "calendar count {} but {listed} listed + {} in bottom",
                self.count,
                self.bottom.len()
            ));
        }
        Ok(())
    }

    fn work(&self) -> SchedWork {
        self.work
    }

    fn resident_bytes(&self) -> usize {
        self.slab.capacity() * Self::NODE_BYTES
            + self.heads.capacity() * std::mem::size_of::<u32>()
            + self.min_day.capacity() * std::mem::size_of::<u64>()
            + self.bottom.capacity() * std::mem::size_of::<Entry<E>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stride of the test timestamps: ~1 µs, a link's propagation delay.
    const DAY: u64 = 1 << 20;

    fn entry(at_ps: u64, seq: u64) -> Entry<u64> {
        Entry {
            at: Time::from_ps(at_ps),
            seq,
            slot: u32::MAX,
            event: seq,
        }
    }

    /// Every backend stores and moves whole `Entry`s during sift/percolate,
    /// so entry size is a direct hot-path cost. The header (at, seq, slot)
    /// is 24 bytes; an 8-byte payload must pack into 32 total. Downstream,
    /// `netsim` pins `Entry<Event>` ≤ 40 bytes for the same reason.
    #[test]
    fn entry_header_stays_small() {
        assert_eq!(std::mem::size_of::<Entry<u64>>(), 32);
    }

    /// Drain any backend and assert the pop order is sorted by (at, seq).
    fn drains_sorted(s: &mut dyn Scheduler<u64>) {
        let mut prev: Option<(Time, u64)> = None;
        while let Some(e) = s.pop_min() {
            if let Some(p) = prev {
                assert!(e.key() > p, "pop order regressed: {:?} after {:?}", e.key(), p);
            }
            prev = Some(e.key());
        }
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn env_value_parse_contract() {
        // Unset: the default backend, silently.
        assert_eq!(SchedKind::from_env_value(None), Ok(SchedKind::Calendar));
        // Exactly the names `name()` prints resolve, case-insensitively and
        // whitespace-tolerantly.
        for kind in SchedKind::ALL {
            assert_eq!(SchedKind::from_env_value(Some(kind.name())), Ok(kind));
            let shouty = format!("  {} ", kind.name().to_ascii_uppercase());
            assert_eq!(SchedKind::from_env_value(Some(&shouty)), Ok(kind));
        }
        // No aliases.
        for alias in ["heap", "calq"] {
            assert_eq!(
                SchedKind::from_env_value(Some(alias)),
                Err(alias.to_string())
            );
        }
        // Unknown values are an error carrying the offending (trimmed)
        // value — callers decide whether to warn (library) or abort (CI).
        assert_eq!(
            SchedKind::from_env_value(Some("fibheap")),
            Err("fibheap".to_string())
        );
        assert_eq!(
            SchedKind::from_env_value(Some(" bogus ")),
            Err("bogus".to_string())
        );
        assert_eq!(SchedKind::from_env_value(Some("")), Err(String::new()));
    }

    #[test]
    fn all_backends_sort_scattered_times() {
        for kind in SchedKind::ALL {
            let mut s = AnySched::new(kind);
            let mut x = 0x2545F4914F6CDD1Du64;
            for seq in 0..5000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                s.push(entry(x % 1_000_000_000, seq));
            }
            s.check_backend().unwrap();
            drains_sorted(&mut s);
        }
    }

    #[test]
    fn all_backends_break_ties_by_seq() {
        for kind in SchedKind::ALL {
            let mut s = AnySched::new(kind);
            for seq in 0..100u64 {
                s.push(entry(42_000, seq));
            }
            for want in 0..100u64 {
                assert_eq!(s.peek_min().unwrap().seq, want, "{kind:?}");
                assert_eq!(s.pop_min().unwrap().seq, want, "{kind:?}");
            }
        }
    }

    #[test]
    fn calendar_grows_and_shrinks() {
        let mut s = CalendarQueue::new();
        for seq in 0..1000u64 {
            s.push(entry(seq * DAY / 3, seq));
        }
        assert!(s.heads.len() >= 512, "grew to {}", s.heads.len());
        s.check_backend().unwrap();
        for _ in 0..995 {
            s.pop_min().unwrap();
        }
        assert!(s.heads.len() <= 16, "shrank to {}", s.heads.len());
        s.check_backend().unwrap();
        drains_sorted(&mut s);
    }

    #[test]
    fn calendar_sparse_far_future_event_found_by_direct_search() {
        let mut s = CalendarQueue::new();
        // One event many "years" past the current day: the one-year scan
        // finds nothing and the direct search must locate it.
        s.push(entry(DAY * MIN_BUCKETS as u64 * 1000 + 17, 0));
        assert_eq!(s.peek_min().unwrap().seq, 0);
        assert_eq!(s.pop_min().unwrap().seq, 0);
        assert!(s.pop_min().is_none());
    }

    #[test]
    fn calendar_interleaves_push_pop_across_day_boundaries() {
        let mut s = CalendarQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut prev: Option<(Time, u64)> = None;
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..200 {
            // A burst spanning several days, then drain half.
            for _ in 0..20 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                s.push(entry(now + x % (DAY * 3), seq));
                seq += 1;
            }
            for _ in 0..10 {
                let e = s.pop_min().unwrap();
                if let Some(p) = prev {
                    assert!(e.key() > p);
                }
                prev = Some(e.key());
                now = e.at.as_ps();
            }
            s.check_backend().unwrap();
        }
        drains_sorted(&mut s);
    }
}
