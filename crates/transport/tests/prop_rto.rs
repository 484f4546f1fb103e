//! Differential property test: the lazy RTO deadline against the eager
//! timer it replaced.
//!
//! [`SenderBase`] keeps one scheduler entry per flow and moves a deadline on
//! every ACK; the entry checks the deadline when it fires and goes back in
//! if it fired early. The reference here ([`EagerTimer`]) is the timer this
//! crate had before: cancel and push on every arm. Random streams of time
//! advances, data ACKs whose delay makes `srtt` — hence `rto()` — rise *and
//! fall*, `Action::Resume`-style arms, `hold` toggles and a final ACK drive
//! one sender of each kind, each with its own queue. They must make the
//! same timeout decisions at the same picoseconds and keep the same
//! data-plane state; the only extra fires the lazy timer is allowed are
//! early ones, which never report a timeout. On the way it checks what the
//! change is for: an ACK whose deadline does not precede the armed entry
//! does not touch the queue.

use netsim::{AckEvent, AckKind, Event, FlowParams, TransportCtx, TrySend};
use proptest::prelude::*;
use simcore::{EventQueue, Rate, ScheduledId, Time};
use transport::sender::{SenderBase, RTO_TOKEN};

/// Never window-limited: `send` always puts the next packet out.
const CWND: f64 = 1e12;
const MTU: u64 = 1000;

/// The timer of the parent commit, on a `SenderBase`'s public state: every
/// arm cancels the pending entry and pushes a new one `rto()` from now.
#[derive(Default)]
struct EagerTimer(Option<ScheduledId>);

impl EagerTimer {
    fn arm(&mut self, base: &SenderBase, ctx: &mut TransportCtx<'_>) {
        if let Some(id) = self.0.take() {
            ctx.cancel_timer(id);
        }
        self.0 = Some(ctx.schedule_timer(ctx.now + base.rto(), RTO_TOKEN));
    }

    fn rearm_after_ack(&mut self, base: &SenderBase, ctx: &mut TransportCtx<'_>) {
        if !base.finished() {
            self.arm(base, ctx);
        } else if let Some(id) = self.0.take() {
            ctx.cancel_timer(id);
        }
    }

    fn on_timer(&mut self, base: &mut SenderBase, hold: bool, ctx: &mut TransportCtx<'_>) -> bool {
        if base.finished() {
            return false;
        }
        let timed_out = !hold
            && ctx.now.saturating_sub(base.last_ack) >= base.rto()
            && !base.outstanding.is_empty();
        if timed_out {
            base.rto_recover();
        }
        self.arm(base, ctx);
        timed_out
    }
}

/// One sender, the queue its timer lives in, and every timer fire so far.
/// `eager: None` runs `SenderBase`'s own timer.
struct Rig {
    base: SenderBase,
    q: EventQueue<Event>,
    eager: Option<EagerTimer>,
    fires: Vec<(Time, bool)>,
}

impl Rig {
    fn new(size: u64, eager: bool) -> Self {
        let params = FlowParams {
            flow: 0,
            size,
            line_rate: Rate::from_gbps(100),
            base_rtt: Time::from_us(12),
            base_rtt_probe: Time::from_us(11),
            mtu: MTU as u32,
            virt_prio: 0,
            seed: 1,
        };
        Rig {
            base: SenderBase::new(params),
            q: EventQueue::new(),
            eager: eager.then(EagerTimer::default),
            fires: Vec::new(),
        }
    }

    fn arm(&mut self, now: Time) {
        let mut ctx = TransportCtx::for_test(&mut self.q, now, 0);
        match &mut self.eager {
            Some(t) => t.arm(&self.base, &mut ctx),
            None => self.base.arm_rto(&mut ctx),
        }
    }

    fn send(&mut self, now: Time) {
        let d = self.base.try_send(CWND, now);
        self.base.on_sent(d, CWND, now);
    }

    fn ack(&mut self, seq: u64, delay: Time, now: Time) {
        let ack = AckEvent {
            kind: AckKind::Data,
            delay,
            cum_bytes: 0,
            acked_seq: seq,
            acked_bytes: (self.base.params.size - seq).min(MTU) as u32,
            ecn_echo: false,
            nack: None,
            int: None,
        };
        self.base.on_ack(&ack, now);
        let mut ctx = TransportCtx::for_test(&mut self.q, now, 0);
        match &mut self.eager {
            Some(t) => t.rearm_after_ack(&self.base, &mut ctx),
            None => self.base.rearm_rto_after_ack(&mut ctx),
        }
    }

    /// Deliver every timer due by `until`, in order.
    fn fire_due(&mut self, until: Time, hold: bool) {
        while self.q.peek_time().is_some_and(|at| at <= until) {
            let (at, ev) = self.q.pop().expect("peeked");
            assert!(
                matches!(
                    ev,
                    Event::FlowTimer {
                        token: RTO_TOKEN,
                        ..
                    }
                ),
                "{ev:?}"
            );
            let mut ctx = TransportCtx::for_test(&mut self.q, at, 0);
            let timed_out = match &mut self.eager {
                Some(t) => t.on_timer(&mut self.base, hold, &mut ctx),
                None => self.base.on_rto_timer(hold, &mut ctx),
            };
            self.fires.push((at, timed_out));
        }
    }

    /// Everything of the sender but its timer.
    fn data_plane(&self) -> impl PartialEq + std::fmt::Debug + '_ {
        let b = &self.base;
        (
            (b.snd_nxt, b.acked, b.inflight, b.retransmits),
            (b.srtt, b.last_ack, b.rto_backoff),
            (&b.outstanding, &b.rtx_queue),
        )
    }
}

/// How often the stream left the fast path, and what the timer decided.
#[derive(Debug, Default)]
struct Paths {
    fast_arms: u64,
    cancel_repush: u64,
    early_fires: u64,
    timeouts: u64,
}

/// A time step: mostly a few µs (ACK clocking), sometimes long enough for
/// the generous RTO (≥ 100 µs, doubling with every backoff) to expire.
fn step_ps(w: u64) -> u64 {
    match (w >> 3) & 7 {
        0..=4 => (w >> 6) % 20_000_000,  // < 20 µs
        5 | 6 => (w >> 6) % 300_000_000, // < 300 µs
        _ => (w >> 6) % 5_000_000_000,   // < 5 ms
    }
}

/// An ACK's delay sample: at base RTT, mildly queued, or deep in a standing
/// queue, so the EWMA climbs and then falls back.
fn delay_ps(w: u64) -> u64 {
    match (w >> 3) & 3 {
        0 | 1 => 12_000_000 + (w >> 5) % 4_000_000, // 12–16 µs
        2 => (w >> 5) % 200_000_000,                // < 200 µs
        _ => (w >> 5) % 3_000_000_000,              // < 3 ms
    }
}

/// Drive a `packets`-packet flow (plus a runt) of each kind through `ops`.
fn run(ops: &[u64], packets: u64) -> Result<Paths, TestCaseError> {
    let size = packets * MTU + 500;
    let (mut lazy, mut eager) = (Rig::new(size, false), Rig::new(size, true));
    let mut paths = Paths::default();
    let (mut now, mut hold) = (Time::ZERO, false);
    // `on_start`.
    lazy.arm(now);
    eager.arm(now);

    for (step, &w) in ops.iter().enumerate() {
        // What the lazy timer has armed, and its queue's push count, before
        // an op that arms: the fast path is judged against them.
        let armed_at = lazy.q.peek_time();
        let before = (lazy.q.sched_work().pushes, lazy.q.len());
        let mut armed = false;
        match w & 7 {
            0 | 1 => {
                now += Time::from_ps(step_ps(w));
                lazy.fire_due(now, hold);
                eager.fire_due(now, hold);
            }
            2 => {
                lazy.send(now);
                eager.send(now);
            }
            // A data ACK: of an outstanding packet when there is one, else
            // of a stale sequence (it still feeds `srtt` and re-arms).
            3..=5 => {
                let pick = (w >> 40) as usize;
                let out = &lazy.base.outstanding;
                let seq = out.iter().nth(pick % out.len().max(1)).copied();
                let (seq, delay) = (seq.unwrap_or(0), Time::from_ps(delay_ps(w)));
                lazy.ack(seq, delay, now);
                eager.ack(seq, delay, now);
                armed = true;
            }
            // `Action::Resume`.
            6 if !lazy.base.finished() => {
                lazy.arm(now);
                eager.arm(now);
                armed = true;
            }
            6 => {}
            _ => hold = !hold,
        }
        if armed && !lazy.base.finished() {
            let after = (lazy.q.sched_work().pushes, lazy.q.len());
            if armed_at.is_some_and(|at| at <= now + lazy.base.rto()) {
                prop_assert_eq!(
                    after,
                    before,
                    "step {}: a fast-path arm touched the queue",
                    step
                );
                paths.fast_arms += 1;
            } else {
                prop_assert_eq!(after, (before.0 + 1, 1), "step {}: slow-path arm", step);
                paths.cancel_repush += 1;
            }
        }
        prop_assert_eq!(lazy.data_plane(), eager.data_plane(), "step {}", step);
        prop_assert!(
            lazy.q.len() <= 1 && eager.q.len() <= 1,
            "step {}: one timer",
            step
        );
        if let Err(e) = lazy.base.check_invariants() {
            return Err(TestCaseError::fail(format!("step {step}: {e}")));
        }
    }

    // The final ACKs: everything left is sent and acknowledged, and the
    // timer goes away with the flow.
    while matches!(lazy.base.try_send(CWND, now), TrySend::Data { .. }) {
        lazy.send(now);
        eager.send(now);
    }
    while let Some(&seq) = lazy.base.outstanding.first() {
        lazy.ack(seq, Time::from_us(12), now);
        eager.ack(seq, Time::from_us(12), now);
    }
    prop_assert!(lazy.base.finished() && eager.base.finished());
    prop_assert_eq!(
        (lazy.q.len(), eager.q.len()),
        (0, 0),
        "a finished flow holds no timer"
    );
    prop_assert_eq!(lazy.data_plane(), eager.data_plane());

    // Same decisions at the same picoseconds; what the lazy timer fired in
    // between was early, and an early fire never reports a timeout.
    let mut early = lazy.fires.clone();
    for fire in &eager.fires {
        let Some(i) = early.iter().position(|f| f == fire) else {
            return Err(TestCaseError::fail(format!(
                "eager fire {fire:?} missing from {:?}",
                lazy.fires
            )));
        };
        early.remove(i);
    }
    prop_assert!(
        early
            .iter()
            .all(|&(at, timed_out)| { !timed_out && eager.fires.iter().all(|&(t, _)| t != at) }),
        "extra lazy fires {:?} against eager {:?}",
        early,
        eager.fires
    );
    paths.early_fires = early.len() as u64;
    paths.timeouts = eager.fires.iter().filter(|f| f.1).count() as u64;
    Ok(paths)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn lazy_deadline_decides_what_the_eager_timer_decided(
        ops in proptest::collection::vec(0u64..u64::MAX, 0..600),
    ) {
        // Few enough packets that some cases finish mid-stream.
        run(&ops, 60)?;
    }
}

/// One fixed stream long enough to take every path, so the property above
/// cannot pass by never leaving the fast path: most arms touch nothing,
/// some find the deadline before the entry and re-push, entries fire early,
/// and real timeouts happen.
#[test]
fn directed_stream_takes_every_path() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let ops: Vec<u64> = (0..4000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let paths = run(&ops, 4000).unwrap();
    assert!(paths.fast_arms > paths.cancel_repush, "{paths:?}");
    assert!(paths.cancel_repush > 0, "{paths:?}");
    assert!(paths.early_fires > 0, "{paths:?}");
    assert!(paths.timeouts > 0, "{paths:?}");
}
