//! Differential property test: FIFO lanes against the backend alone.
//!
//! [`EventQueue::declare_delay`] only decides *where* an entry waits — in a
//! lane's ring or in the scheduler backend — never when it pops. So a queue
//! with declarations and one without, fed the same operations, must be
//! indistinguishable: the same `(at, event)` from every pop, bounded or
//! not, the same `now()`, `peek_time()` and `len()` after every
//! operation, and the same `fold_digest` at the end (the digest sums
//! per-entry hashes, so it must not depend on which container holds an
//! entry). Both configurations are also checked against a sorted-`Vec`
//! model by `prop_sched`; this fleet pins the lanes to the plain queue over
//! streams that model cannot afford.
//!
//! The streams mix what a simulation does with what it never should have to
//! care about: delays that are declared, undeclared and zero; cancellable
//! entries at declared delays (they must stay in the backend); runs of
//! `pop_before` up to a drawn horizon, stopped short of it or by it;
//! pushes at the served event's own timestamp; a declaration issued
//! mid-stream for a delay already in use; and declarations past the
//! sixteenth, which are refused.

use proptest::prelude::*;
use simcore::{EventQueue, ScheduledId, Time};

/// Delays (ps) the streams draw from. The first four are declared up front
/// on the laned queue, `LATE` is declared by a mid-stream op, the rest never
/// are. 5,120 / 83,840 ps are a 64 B and a 1,048 B packet at 100 Gb/s; the
/// `+ 1 µs` pair adds a propagation delay; 1 ms is an RTO.
const DELAYS: [u64; 8] = [
    0,
    5_120,
    83_840,
    1_005_120,
    LATE,
    1_083_840,
    37_000,
    1_000_000_000,
];
const DECLARED: usize = 4;
const LATE: u64 = 250_000;

/// The two queues, and the ids of the cancellable entries scheduled in both
/// (entry `j` of each list names the same event).
struct Pair {
    laned: EventQueue<u64>,
    plain: EventQueue<u64>,
    ids: Vec<(ScheduledId, ScheduledId)>,
}

impl Pair {
    fn new() -> Self {
        let mut laned = EventQueue::new();
        for &d in &DELAYS[..DECLARED] {
            assert!(laned.declare_delay(Time::from_ps(d)));
        }
        Pair {
            laned,
            plain: EventQueue::new(),
            ids: Vec::new(),
        }
    }

    /// Apply one op to both queues and compare what it returns.
    fn both<T: PartialEq + std::fmt::Debug>(
        &mut self,
        step: usize,
        op: impl Fn(&mut EventQueue<u64>) -> T,
    ) -> Result<T, TestCaseError> {
        let (a, b) = (op(&mut self.laned), op(&mut self.plain));
        prop_assert_eq!(&a, &b, "step {}: laned vs plain", step);
        Ok(a)
    }

    fn agree(&self, step: usize) -> Result<(), TestCaseError> {
        let (a, b) = (&self.laned, &self.plain);
        prop_assert_eq!(a.now(), b.now(), "step {}: now", step);
        prop_assert_eq!(a.len(), b.len(), "step {}: len", step);
        Ok(())
    }

    fn check(&self, step: usize) -> Result<(), TestCaseError> {
        for (name, q) in [("laned", &self.laned), ("plain", &self.plain)] {
            if let Err(e) = q.check_invariants() {
                return Err(TestCaseError::fail(format!("step {step}: {name}: {e}")));
            }
        }
        Ok(())
    }
}

fn digest(q: &EventQueue<u64>) -> Vec<u64> {
    let mut words = Vec::new();
    q.fold_digest(&mut |w| words.push(w), |e, fold| fold(*e));
    words
}

fn run(ops: &[u64]) -> Result<(), TestCaseError> {
    let mut p = Pair::new();
    // `LATE` has a lane; all sixteen are taken.
    let (mut late, mut full) = (false, false);
    for (step, &w) in ops.iter().enumerate() {
        let val = step as u64;
        let delay = Time::from_ps(DELAYS[(w >> 8) as usize % DELAYS.len()]);
        match w & 0xff {
            // Plain schedule: most of the traffic.
            0..=99 => p.both(step, |q| q.schedule_in(delay, val))?,
            // Cancellable, declared delays included: never a lane's.
            100..=119 => {
                let at = p.laned.now() + delay;
                let a = p.laned.schedule_cancellable(at, val);
                let b = p.plain.schedule_cancellable(at, val);
                p.ids.push((a, b));
            }
            // Cancel some id, possibly stale.
            120..=134 => {
                if !p.ids.is_empty() {
                    let (a, b) = p.ids[(w >> 8) as usize % p.ids.len()];
                    p.laned.cancel(a);
                    p.plain.cancel(b);
                }
            }
            135..=164 => {
                p.both(step, |q| q.pop().map(|(t, v)| (t.as_ps(), v)))?;
            }
            // Events up to a horizon a little ahead, served until it stops
            // them or cut off after `limit`; every other served event posts
            // at its own timestamp and one delay ahead, like a handler
            // would. (The limit also ends a stream whose zero-delay posts
            // would keep the clock short of the horizon forever.)
            165..=219 => {
                let limit = match (w >> 8) % 4 {
                    0 => (w >> 10) as usize % 3,
                    _ => 64,
                };
                let horizon = p.laned.now() + Time::from_ps((w >> 18) % 200_000);
                let mut served = 0;
                while served < limit {
                    let Some(ev) = p.both(step, |q| q.pop_before(horizon))? else {
                        break;
                    };
                    prop_assert!(p.laned.now() < horizon, "step {}", step);
                    served += 1;
                    if (ev + w) % 2 == 0 {
                        p.both(step, |q| q.schedule_in(Time::ZERO, val))?;
                        p.both(step, |q| q.schedule_in(delay, val))?;
                    }
                    p.agree(step)?;
                }
            }
            220..=239 => {
                p.both(step, |q| q.peek_time())?;
            }
            // A declaration mid-stream: entries at `LATE` already in
            // the backend stay there, later ones queue in the new lane.
            // (Refused if the cap op below got there first.)
            240..=247 => {
                let granted = p.laned.declare_delay(Time::from_ps(LATE));
                prop_assert_eq!(granted, late || !full, "step {}", step);
                late |= granted;
            }
            // Declarations until the cap, then past it.
            _ => {
                let granted = (0..20)
                    .filter(|i| p.laned.declare_delay(Time::from_ps(7_000_000 + i)))
                    .count();
                prop_assert!(granted <= 16 - DECLARED, "{} lanes granted", granted);
                prop_assert!(!p.laned.declare_delay(Time::from_ps(1)), "a 17th lane");
                prop_assert!(p.laned.declare_delay(Time::from_ps(DELAYS[1])));
                full = true;
            }
        }
        p.agree(step)?;
        if step % 64 == 0 {
            p.check(step)?;
        }
    }
    p.check(ops.len())?;
    prop_assert_eq!(
        digest(&p.laned),
        digest(&p.plain),
        "digest depends on the container"
    );
    // The lanes did carry traffic (or there was none to carry).
    let plain_pushes = ops.iter().filter(|&&w| w & 0xff < 100).count() as u64;
    prop_assert!(
        plain_pushes < 8 || p.laned.lane_pushes() > 0,
        "{} plain pushes, none through a lane",
        plain_pushes
    );
    // Drain: the remaining streams are identical too.
    let mut step = ops.len();
    while p
        .both(step, |q| q.pop().map(|(t, v)| (t.as_ps(), v)))?
        .is_some()
    {
        step += 1;
    }
    p.agree(step)?;
    p.check(step)?;
    prop_assert_eq!(p.laned.lane_pops(), p.laned.lane_pushes());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn lanes_are_unobservable(ops in proptest::collection::vec(0u64..u64::MAX, 0..600)) {
        run(&ops)?;
    }
}
