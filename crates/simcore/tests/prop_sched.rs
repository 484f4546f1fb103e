//! Differential property test for the event queue against a model.
//!
//! Random schedule / schedule_cancellable / cancel / pop / peek streams are
//! driven simultaneously through two [`EventQueue`]s — one without lanes,
//! so every entry waits in its binary heap, and one with the generators'
//! constant delays declared, as every simulation runs it — *and* through a
//! naive sorted-`Vec` shadow model. At every step all of them must agree on
//! `len()` and `peek_time()`, and every pop must return the identical
//! `(time, event)` pair.
//!
//! Two delay distributions drive it: a broad mix, and the skewed population
//! a lossy simulation produces, on which the queues' bookkeeping is
//! verified after *every* operation.

use proptest::prelude::*;
use simcore::{EventQueue, Time};

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

/// The constant delays both generators draw from, like a simulation's link
/// delays: zero (a self-post), a 64 B and a 1,048 B packet at 100 Gb/s,
/// and the latter plus 1 µs of propagation. The laned queue declares them.
/// Picked by the word's top two bits, so a directed word below 2^62 is a
/// zero delay.
const LINK_DELAYS: [u64; 4] = [0, 5_120, 83_840, 1_083_840];

fn link_delay_ps(w: u64) -> u64 {
    LINK_DELAYS[(w >> 62) as usize]
}

/// Decode a delay from an op word: a mix of link delays (zero among them,
/// forcing same-time seq ties), sub-µs jitter, ~100 µs timer-like horizons,
/// and rare multi-ms jumps.
fn delay_ps(w: u64) -> u64 {
    match (w >> 3) & 3 {
        0 => link_delay_ps(w),
        1 => (w >> 5) % 1_000_000,     // < 1 µs
        2 => (w >> 5) % 200_000_000,   // < 200 µs
        _ => (w >> 5) % 5_000_000_000, // < 5 ms
    }
}

/// The population a lossy run holds: heavy same-instant ties at the link
/// delays, a packet cluster tens of ns ahead, RTO-like timers ~1 ms out
/// (the cancellable ones among them become tombstones ahead of the clock,
/// and retiring those at the head leaves the heap's top ahead of later
/// pushes), and a rare `End`-like outlier at 10^4 times the span of
/// everything else.
fn skewed_delay_ps(w: u64) -> u64 {
    match (w >> 3) & 7 {
        0 | 1 => link_delay_ps(w),
        2..=4 => (w >> 6) % 100_000,                    // < 100 ns
        5 | 6 => 1_000_000_000 + (w >> 6) % 50_000_000, // 1 ms .. 1.05 ms
        _ if (w >> 6).is_multiple_of(8) => 10_000_000_000_000, // 10 s
        _ => (w >> 6) % 2_000_000,                      // < 2 µs
    }
}

/// Names of the two queues [`run_differential`] drives, in order.
const QUEUES: [&str; 2] = ["plain", "laned"];

/// Drive one op stream through both queues plus the shadow, checking
/// agreement after each op. `delay` decodes an op word into a scheduling
/// delay. `thorough` verifies every queue's bookkeeping after every op (not
/// every 16th).
fn run_differential(
    ops: &[u64],
    delay_ps: fn(u64) -> u64,
    thorough: bool,
) -> Result<(), TestCaseError> {
    let mut laned = EventQueue::new();
    for d in LINK_DELAYS {
        assert!(laned.declare_delay(Time::from_ps(d)));
    }
    let mut queues: Vec<EventQueue<u64>> = vec![EventQueue::new(), laned];
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
                for (q, k) in queues.iter_mut().zip(QUEUES) {
                    let got = q.pop().map(|(t, v)| (t.as_ps(), v));
                    prop_assert_eq!(got, want, "step {}: pop mismatch on {:?}", step, k);
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
                for (q, k) in queues.iter_mut().zip(QUEUES) {
                    prop_assert_eq!(
                        q.peek_time().map(|t| t.as_ps()),
                        want,
                        "step {}: peek mismatch on {:?}",
                        step,
                        k
                    );
                }
            }
        }
        let want_len = shadow.len();
        for (q, k) in queues.iter().zip(QUEUES) {
            prop_assert_eq!(q.len(), want_len, "step {}: len mismatch on {:?}", step, k);
            prop_assert_eq!(q.is_empty(), want_len == 0, "step {step}: {k:?}");
        }
        if thorough || step % 16 == 0 {
            for (q, k) in queues.iter().zip(QUEUES) {
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
        for (q, k) in queues.iter_mut().zip(QUEUES) {
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
    // The lanes did carry traffic (or the stream had little to carry).
    let plain_pushes = ops.iter().filter(|&&w| w & 7 <= 2).count();
    prop_assert!(
        plain_pushes < 64 || queues[1].lane_pushes() > 0,
        "{} plain pushes, none through a lane",
        plain_pushes
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    #[test]
    fn backends_agree_with_shadow_model(ops in proptest::collection::vec(0u64..u64::MAX, 0..400)) {
        run_differential(&ops, delay_ps, false)?;
    }

    /// Long enough for the heap to grow and drain several times, with the
    /// bookkeeping checked after every op.
    #[test]
    fn backends_agree_on_skewed_population(ops in proptest::collection::vec(0u64..u64::MAX, 0..900)) {
        run_differential(&ops, skewed_delay_ps, true)?;
    }
}

/// A directed stream: a long same-timestamp tie run, then cancellable
/// entries spread over milliseconds, then scattered cancels with pops and
/// peeks interleaved.
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

/// The skewed population as one fixed stream: push-heavy (the queue
/// grows), then pop-heavy (it drains across the cluster → timer → outlier
/// gaps), with cancels throughout, agreeing with the model at every step.
#[test]
fn directed_skewed_stream_grows_and_drains() {
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
}
