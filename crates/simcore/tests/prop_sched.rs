//! Differential property test for the scheduler backends.
//!
//! Random schedule / schedule_cancellable / cancel / pop / peek streams are
//! driven simultaneously through an [`EventQueue`] on each backend (binary
//! heap, calendar queue) *and* through a naive sorted-`Vec` shadow model. At
//! every step all of them must agree on `len()` and `peek_time()`, and
//! every pop must return the identical `(time, seq, event)` triple — the
//! executable form of the backend contract: scheduler choice is
//! unobservable.
//!
//! Two delay distributions drive it: a broad mix, and the skewed population
//! a lossy simulation produces (the one that collapsed the sorted-bucket
//! calendar into a single sorted `Vec`), on which the backend's structure is
//! verified after *every* operation and the queues are swapped for clones
//! of themselves every few dozen steps.

use proptest::prelude::*;
use simcore::{EventQueue, SchedKind, Time};

/// The obviously-correct reference: every scheduled event with an explicit
/// lifecycle state, popped by scanning for the live minimum.
struct Shadow {
    events: Vec<ShadowEv>,
    now: u64,
}

struct ShadowEv {
    at: u64,
    seq: u64,
    val: u64,
    state: State,
}

#[derive(PartialEq)]
enum State {
    Live,
    Cancelled,
    Popped,
}

impl Shadow {
    fn new() -> Self {
        Shadow {
            events: Vec::new(),
            now: 0,
        }
    }

    /// Schedule; returns the shadow id (index) for cancellation.
    fn schedule(&mut self, at: u64, val: u64) -> usize {
        assert!(at >= self.now);
        let seq = self.events.len() as u64;
        self.events.push(ShadowEv {
            at,
            seq,
            val,
            state: State::Live,
        });
        self.events.len() - 1
    }

    /// Cancel iff still live — popped/cancelled ids are stale no-ops,
    /// mirroring the generation-check semantics.
    fn cancel(&mut self, id: usize) {
        if self.events[id].state == State::Live {
            self.events[id].state = State::Cancelled;
        }
    }

    fn min_live(&self) -> Option<usize> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.state == State::Live)
            .min_by_key(|(_, e)| (e.at, e.seq))
            .map(|(i, _)| i)
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let i = self.min_live()?;
        self.events[i].state = State::Popped;
        self.now = self.events[i].at;
        Some((self.events[i].at, self.events[i].val))
    }

    fn peek(&self) -> Option<u64> {
        self.min_live().map(|i| self.events[i].at)
    }

    fn len(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.state == State::Live)
            .count()
    }
}

/// Decode a delay from an op word: a mix of zero delays (forcing same-time
/// seq ties), sub-µs jitter (dense calendar buckets), ~100 µs timer-like
/// horizons, and rare multi-ms jumps (sparse year-skips + resizes).
fn delay_ps(w: u64) -> u64 {
    match (w >> 3) & 3 {
        0 => 0,
        1 => (w >> 5) % 1_000_000,         // < 1 µs
        2 => (w >> 5) % 200_000_000,       // < 200 µs
        _ => (w >> 5) % 5_000_000_000,     // < 5 ms
    }
}

/// The population a lossy run holds: heavy same-instant ties, a packet
/// cluster tens of ns ahead, RTO-like timers ~1 ms out (the cancellable
/// ones among them become tombstones ahead of the clock, and retiring those
/// makes later pushes land *before* the day the calendar had opened), and
/// a rare `End`-like outlier at 10^4 times the span of everything else.
fn skewed_delay_ps(w: u64) -> u64 {
    match (w >> 3) & 7 {
        0 | 1 => 0,
        2..=4 => (w >> 6) % 100_000,                    // < 100 ns
        5 | 6 => 1_000_000_000 + (w >> 6) % 50_000_000, // 1 ms .. 1.05 ms
        _ if (w >> 6).is_multiple_of(8) => 10_000_000_000_000,   // 10 s
        _ => (w >> 6) % 2_000_000,                      // < 2 µs
    }
}

/// Drive one op stream through every backend plus the shadow, checking
/// agreement after each op. `delay` decodes an op word into a scheduling
/// delay. `thorough` verifies every queue's structure after every op (not
/// every 16th) and, every 48 steps, replaces each queue by a clone of itself
/// — outstanding ids must stay valid across it, and the clone must carry the
/// original's diagnostics.
fn run_differential(
    ops: &[u64],
    delay_ps: fn(u64) -> u64,
    thorough: bool,
) -> Result<(), TestCaseError> {
    let mut queues: Vec<EventQueue<u64>> = SchedKind::ALL
        .iter()
        .map(|&k| EventQueue::with_sched(k))
        .collect();
    let mut shadow = Shadow::new();
    // Parallel id lists: entry j of each queue's list and of `shadow_ids`
    // name the same logical scheduled event.
    let mut ids: Vec<Vec<simcore::ScheduledId>> = vec![Vec::new(); queues.len()];
    let mut shadow_ids: Vec<usize> = Vec::new();

    for (step, &w) in ops.iter().enumerate() {
        let val = step as u64;
        match w & 7 {
            // Plain schedule (weighted heaviest, like real traffic).
            0..=2 => {
                let at = shadow.now + delay_ps(w);
                for q in queues.iter_mut() {
                    q.schedule(Time::from_ps(at), val);
                }
                shadow.schedule(at, val);
            }
            // Cancellable schedule.
            3 => {
                let at = shadow.now + delay_ps(w);
                for (q, idlist) in queues.iter_mut().zip(ids.iter_mut()) {
                    idlist.push(q.schedule_cancellable(Time::from_ps(at), val));
                }
                shadow_ids.push(shadow.schedule(at, val));
            }
            // Pop.
            4 | 5 => {
                let want = shadow.pop();
                for (q, k) in queues.iter_mut().zip(SchedKind::ALL) {
                    let got = q.pop().map(|(t, v)| (t.as_ps(), v));
                    prop_assert_eq!(
                        got, want,
                        "step {}: pop mismatch on {:?}", step, k
                    );
                }
            }
            // Cancel a previously issued id (possibly stale).
            6 => {
                if !shadow_ids.is_empty() {
                    let j = ((w >> 3) as usize) % shadow_ids.len();
                    for (q, idlist) in queues.iter_mut().zip(ids.iter()) {
                        q.cancel(idlist[j]);
                    }
                    shadow.cancel(shadow_ids[j]);
                }
            }
            // Peek.
            _ => {
                let want = shadow.peek();
                for (q, k) in queues.iter_mut().zip(SchedKind::ALL) {
                    prop_assert_eq!(
                        q.peek_time().map(|t| t.as_ps()),
                        want,
                        "step {}: peek mismatch on {:?}", step, k
                    );
                }
            }
        }
        let want_len = shadow.len();
        for (q, k) in queues.iter().zip(SchedKind::ALL) {
            prop_assert_eq!(q.len(), want_len, "step {}: len mismatch on {:?}", step, k);
            prop_assert_eq!(q.is_empty(), want_len == 0, "step {step}: {k:?}");
        }
        if thorough && step % 48 == 47 {
            for q in queues.iter_mut() {
                let clone = q.clone();
                prop_assert_eq!(clone.sched_work(), q.sched_work(), "step {}", step);
                prop_assert_eq!(clone.pending_peak(), q.pending_peak(), "step {}", step);
                *q = clone;
            }
        }
        if thorough || step % 16 == 0 {
            for (q, k) in queues.iter().zip(SchedKind::ALL) {
                if let Err(e) = q.check_invariants() {
                    return Err(TestCaseError::fail(format!(
                        "step {step}: invariants broken on {k:?}: {e}"
                    )));
                }
            }
        }
    }

    // Drain: the full remaining pop sequences must be identical too.
    loop {
        let want = shadow.pop();
        for (q, k) in queues.iter_mut().zip(SchedKind::ALL) {
            let got = q.pop().map(|(t, v)| (t.as_ps(), v));
            prop_assert_eq!(got, want, "drain: pop mismatch on {:?}", k);
        }
        if want.is_none() {
            break;
        }
    }
    for q in &queues {
        prop_assert_eq!(q.len(), 0);
        if let Err(e) = q.check_invariants() {
            return Err(TestCaseError::fail(format!("post-drain: {e}")));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    #[test]
    fn backends_agree_with_shadow_model(ops in proptest::collection::vec(0u64..u64::MAX, 0..400)) {
        run_differential(&ops, delay_ps, false)?;
    }

    /// Long enough for several measurement windows, so the structure check
    /// after every op also runs across width retunes and grow / shrink
    /// rebuilds (the directed test below pins that they do happen).
    #[test]
    fn backends_agree_on_skewed_population(ops in proptest::collection::vec(0u64..u64::MAX, 0..900)) {
        run_differential(&ops, skewed_delay_ps, true)?;
    }
}

/// A directed stream that hammers the calendar queue's weak spots: long
/// same-timestamp tie runs, then a far-future jump (year skip + direct
/// search), then dense sub-width jitter forcing repeated resizes.
#[test]
fn directed_tie_and_jump_stream() {
    let mut ops = Vec::new();
    for i in 0..64u64 {
        ops.push(i << 5); // op 0 in the low bits: 64-way zero-delay tie
    }
    ops.extend(std::iter::repeat_n(4, 32)); // pops through the tie run
    for i in 0..64u64 {
        ops.push((i << 5) | (3 << 3) | 3); // cancellable, multi-ms spread
    }
    for i in 0..48u64 {
        ops.push((i << 3) | 6); // scattered cancels
        ops.push(4);
        ops.push(7); // peeks interleaved
    }
    run_differential(&ops, delay_ps, false).unwrap();
}

/// The skewed population as one fixed stream: push-heavy (the calendar
/// grows), then pop-heavy (it drains across the cluster → timer → outlier
/// gaps and shrinks), with cancels throughout. The calendar must have
/// rebuilt — retuned its width and changed its bucket count — while
/// agreeing with the heap and the model at every step.
#[test]
fn directed_skewed_stream_retunes_and_rebuilds() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut word = |ops: &[u64]| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x & !7) | ops[(x >> 61) as usize % ops.len()]
    };
    let mut ops: Vec<u64> = (0..1500).map(|_| word(&[0, 1, 3, 3, 4, 6, 7])).collect();
    ops.extend((0..1500).map(|_| word(&[0, 3, 4, 4, 5, 5, 6, 7])));
    run_differential(&ops, skewed_delay_ps, true).unwrap();

    // The same pushes and pops on a bare calendar queue, to read its work.
    let mut q: EventQueue<u64> = EventQueue::with_sched(SchedKind::Calendar);
    for (i, &w) in ops.iter().enumerate() {
        match w & 7 {
            0..=3 => q.schedule_in(Time::from_ps(skewed_delay_ps(w)), i as u64),
            4 | 5 => drop(q.pop()),
            _ => {}
        }
    }
    while q.pop().is_some() {}
    // Growing to the peak and shrinking back are three rebuilds each (the
    // bucket count moves 4×); the rest are width retunes.
    let work = q.sched_work();
    assert!(q.pending_peak() > 128, "peak {}", q.pending_peak());
    assert!(work.rebuilds > 6, "no width retune in {work:?}");
}

/// Clone with the calendar mid-day: same-instant entries share a day at any
/// width, so after one of three is popped the other two are in the sorted
/// current day (a non-empty `bottom`), not in a bucket. The clone must serve
/// them, then the rest, exactly as the original does — on every backend.
#[test]
fn snapshot_round_trip_mid_day() {
    for kind in SchedKind::ALL {
        let mut q: EventQueue<u64> = EventQueue::with_sched(kind);
        let t = Time::from_us(3);
        for v in 0..3 {
            q.schedule(t, v);
        }
        let timer = q.schedule_cancellable(Time::from_ms(1), 10);
        q.schedule(Time::from_ns(3_050), 11);
        q.schedule(Time::from_ms(10_000), 12);
        assert_eq!(q.pop(), Some((t, 0)), "{kind:?}");

        let mut r = q.clone();
        r.check_invariants().unwrap();
        assert_eq!(r.len(), q.len(), "{kind:?}");
        assert_eq!(r.sched_work(), q.sched_work(), "{kind:?}");
        assert_eq!(r.pending_peak(), q.pending_peak(), "{kind:?}");
        // An id taken before the clone cancels in both.
        q.cancel(timer);
        r.cancel(timer);
        assert_eq!(r.len(), q.len(), "{kind:?}");
        // A push into the open day, after the clone.
        q.schedule(t, 13);
        r.schedule(t, 13);
        loop {
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b, "{kind:?}");
            if a.is_none() {
                break;
            }
        }
        r.check_invariants().unwrap();
    }
}
