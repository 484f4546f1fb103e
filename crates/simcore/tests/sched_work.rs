//! Deterministic work profile of the calendar queue.
//!
//! Each population below is a fixed stream of queue operations; the
//! calendar backend counts the entries it moves, the buckets it scans and
//! the list nodes it walks ([`SchedWork`]), and every population must cost
//! at most [`MAX_TOUCHES_PER_OP`] of those per push or pop. The counts are
//! exact and repeat on every run, so a structure that quietly degenerates
//! fails here without a stopwatch: the sorted-`Vec` buckets this queue
//! replaced read 3.9 (uniform), 3 435 (bimodal), 750 (all ties), 302
//! (regime switch) and 13 (rewind) on these five — and 56–77 on the four
//! `ppbench` workloads, where this structure reads 0.9–1.3.

use simcore::{EventQueue, SchedKind, SchedWork, Time};

/// Steady state is ~1–2 touches per operation; 8 leaves room for retunes
/// and regime switches and is still an order of magnitude below the failure
/// it guards against.
const MAX_TOUCHES_PER_OP: f64 = 8.0;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn calendar() -> EventQueue<u64> {
    EventQueue::with_sched(SchedKind::Calendar)
}

/// Drain `q`, checking time order, then assert the work bound.
fn finish(name: &str, mut q: EventQueue<u64>) -> SchedWork {
    let mut last = q.now();
    while let Some((t, _)) = q.pop() {
        assert!(t >= last, "{name}: time ran backwards");
        last = t;
    }
    q.check_invariants().unwrap();
    let w = q.sched_work();
    let per_op = w.touches() as f64 / w.ops() as f64;
    println!("{name}: {per_op:.2} touches per op ({w:?})");
    assert!(per_op <= MAX_TOUCHES_PER_OP, "{name}: over the bound");
    w
}

/// Hold model: a constant population, each pop re-scheduled a uniform
/// increment ahead.
#[test]
fn uniform_population_is_constant_work() {
    let mut q = calendar();
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    for i in 0..2000 {
        q.schedule(Time::from_ps(rng.next() % 2_000_000), i);
    }
    for i in 0..60_000 {
        let (now, _) = q.pop().unwrap();
        q.schedule(now + Time::from_ps(rng.next() % 2_000_000), i);
    }
    finish("uniform", q);
}

/// What a timer cancelled per packet does to the queue (the RTO did, until
/// it became a lazy deadline): a dense cluster of packet events ~10 ns
/// apart, a per-flow timer 1 ms out that every ACK cancels and re-arms (so
/// the far population is mostly tombstones), and one `End` event at 10^4
/// times the span of everything else.
#[test]
fn bimodal_population_is_constant_work() {
    let mut q = calendar();
    let mut rng = XorShift(0xA3C5_9AC2_F103_9EB7);
    let rto = Time::from_ms(1);
    const TIMER: u64 = 1 << 32;
    q.schedule(Time::from_ms(10_000), u64::MAX);
    let mut timers: Vec<_> = (0..256)
        .map(|f| q.schedule_cancellable(rto, TIMER + f))
        .collect();
    for i in 0..200 {
        q.schedule(Time::from_ps(rng.next() % 2_000_000), i);
    }
    let mut served = 0;
    while served < 80_000 {
        let (now, ev) = q.pop().unwrap();
        if ev >= TIMER {
            // An RTO fired on an idle flow: re-arm and carry on.
            let f = ev - TIMER;
            timers[f as usize] = q.schedule_cancellable(now + rto, ev);
            continue;
        }
        served += 1;
        q.schedule(now + Time::from_ps(rng.next() % 4_000_000), served);
        // Every other packet is an ACK: cancel + re-arm its flow's timer.
        if served % 2 == 0 {
            let f = rng.next() % 256;
            q.cancel(timers[f as usize]);
            timers[f as usize] = q.schedule_cancellable(now + rto, TIMER + f);
        }
    }
    let w = finish("bimodal", q);
    assert!(w.rebuilds > 0, "the width must have left its initial value");
}

/// One instant: ties pushed ahead of time, drained as a batch, and every
/// served event posting a zero-delay successor into the open day.
#[test]
fn all_ties_are_constant_work() {
    let mut q = calendar();
    let t = Time::from_us(50);
    for i in 0..3000 {
        q.schedule(t, i);
    }
    let mut posted = 0u64;
    while let Some(now) = q.pop_batch() {
        assert_eq!(now, t);
        while let Some(ev) = q.batch_next() {
            if posted < 6000 {
                q.schedule_in(Time::ZERO, ev);
                posted += 1;
            }
        }
    }
    finish("all-ties", q);
}

/// A packet burst at ~10 ns gaps, then the same population ~100 µs apart
/// (thousands of empty days per pop at the dense width), then dense again:
/// the window's work cut-off must retune long before a full window of
/// year-long scans.
#[test]
fn regime_switch_is_constant_work() {
    let mut q = calendar();
    let mut rng = XorShift(0x6C62_272E_07BB_0142);
    for i in 0..1000 {
        q.schedule(Time::from_ps(rng.next() % 10_000_000), i);
    }
    for (phase, spread_ps) in [10_000_000u64, 100_000_000_000, 10_000_000]
        .into_iter()
        .enumerate()
    {
        for i in 0..20_000 {
            let (now, _) = q.pop().unwrap();
            q.schedule(now + Time::from_ps(rng.next() % spread_ps), i);
        }
        let w = q.sched_work();
        let per_op = w.touches() as f64 / w.ops() as f64;
        assert!(
            per_op <= MAX_TOUCHES_PER_OP,
            "phase {phase}: {per_op:.2} touches per op ({w:?})"
        );
    }
    finish("regime-switch", q);
}

/// The queue retires cancelled heads (and peeks) ahead of its clock, then
/// is handed events earlier than the day it had opened. Those rewinding
/// pushes must not turn the current day into one big sorted vector.
#[test]
fn rewinding_pushes_are_constant_work() {
    let mut q = calendar();
    let mut rng = XorShift(0x0123_4567_89AB_CDEF);
    q.schedule(Time::from_ms(1000), u64::MAX);
    let mut now = Time::ZERO;
    for round in 0..200u64 {
        // A far timer, cancelled: the next peek retires it from the head
        // and opens the far-away day of whatever live entry follows.
        let far = q.schedule_cancellable(now + Time::from_us(500), round);
        q.cancel(far);
        assert!(q.peek_time().is_some());
        // Now a burst that lands well before that day.
        for i in 0..100 {
            q.schedule(now + Time::from_ps(1 + rng.next() % 1_000_000), i);
        }
        for _ in 0..100 {
            now = q.pop().unwrap().0;
        }
        q.check_invariants().unwrap();
    }
    finish("rewind", q);
}
