//! End-to-end determinism: the parallel sweep runner must produce results
//! byte-identical to serial execution, regardless of worker count, and
//! per-flow tracing must not change what a run does.

use std::cell::Cell;
use std::rc::Rc;

use experiments::flowsched::{self, FlowSchedConfig, FlowSchedResult};
use experiments::micro::{Micro, MicroEnv};
use experiments::sweep::run_ordered;
use experiments::Scheme;
use netsim::{AckEvent, AckKind, NoiseModel, Transport, TransportCtx, TrySend};
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

/// A quick-but-nontrivial scenario: enough flows to exercise PFC, ECN,
/// retransmit timers and the PrioPlus state machine.
fn quick_cfg(scheme: Scheme, seed: u64) -> FlowSchedConfig {
    let mut cfg = FlowSchedConfig::new(scheme, 4);
    cfg.duration = Time::from_ms(1);
    cfg.seed = seed;
    cfg
}

/// Bit-exact equality for the full result, including every per-flow float.
fn assert_identical(a: &FlowSchedResult, b: &FlowSchedResult, what: &str) {
    assert_eq!(a.pfc_pauses, b.pfc_pauses, "{what}: pfc_pauses differ");
    assert_eq!(a.drops, b.drops, "{what}: drops differ");
    assert_eq!(
        a.completion.to_bits(),
        b.completion.to_bits(),
        "{what}: completion differs"
    );
    assert_eq!(a.flows.len(), b.flows.len(), "{what}: flow count differs");
    for (i, (fa, fb)) in a.flows.iter().zip(&b.flows).enumerate() {
        assert_eq!(fa.size, fb.size, "{what}: flow {i} size");
        assert_eq!(fa.class, fb.class, "{what}: flow {i} class");
        assert_eq!(
            fa.slowdown.map(f64::to_bits),
            fb.slowdown.map(f64::to_bits),
            "{what}: flow {i} slowdown"
        );
        assert_eq!(
            fa.fct_us.map(f64::to_bits),
            fb.fct_us.map(f64::to_bits),
            "{what}: flow {i} fct"
        );
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let cfgs: Vec<FlowSchedConfig> = [
        (Scheme::PrioPlusSwift, 1),
        (Scheme::PrioPlusSwift, 2),
        (Scheme::PhysicalSwift, 1),
        (Scheme::BaselineSwift, 1),
    ]
    .iter()
    .map(|&(s, seed)| quick_cfg(s, seed))
    .collect();

    // Reference: plain serial calls, no sweep machinery at all.
    let serial: Vec<FlowSchedResult> = cfgs.iter().map(flowsched::run).collect();
    // Inline path (jobs <= 1 never spawns threads).
    let inline = run_ordered(&cfgs, 1, &flowsched::run);
    // Threaded path with more workers than configs, forcing every config
    // onto its own worker plus idle workers racing the shared index.
    let threaded = run_ordered(&cfgs, 4, &flowsched::run);

    assert_eq!(serial.len(), inline.len());
    assert_eq!(serial.len(), threaded.len());
    for (i, s) in serial.iter().enumerate() {
        assert_identical(s, &inline[i], &format!("jobs=1 cfg {i}"));
        assert_identical(s, &threaded[i], &format!("jobs=4 cfg {i}"));
    }
}

#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    let cfgs = vec![quick_cfg(Scheme::PrioPlusSwift, 7); 3];
    let a = run_ordered(&cfgs, 4, &flowsched::run);
    let b = run_ordered(&cfgs, 4, &flowsched::run);
    for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert_identical(ra, rb, &format!("rerun cfg {i}"));
        // Identical configs must also yield identical results across slots.
        assert_identical(&a[0], ra, &format!("slot {i} vs slot 0"));
    }
}

/// A transport that counts the ACKs and probe echoes its inner one took.
struct Counted {
    inner: Box<dyn Transport>,
    acks: Rc<Cell<usize>>,
    probe_acks: Rc<Cell<usize>>,
}

impl Transport for Counted {
    fn on_start(&mut self, ctx: &mut TransportCtx<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut TransportCtx<'_>) {
        self.acks.set(self.acks.get() + 1);
        if ack.kind == AckKind::Probe {
            self.probe_acks.set(self.probe_acks.get() + 1);
        }
        self.inner.on_ack(ack, ctx);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut TransportCtx<'_>) {
        self.inner.on_timer(token, ctx);
    }
    fn try_send(&mut self, now: Time) -> TrySend {
        self.inner.try_send(now)
    }
    fn on_sent(&mut self, sent: TrySend, ctx: &mut TransportCtx<'_>) {
        self.inner.on_sent(sent, ctx);
    }
    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
    fn cwnd_bytes(&self) -> f64 {
        self.inner.cwnd_bytes()
    }
    fn retransmits(&self) -> u64 {
        self.inner.retransmits()
    }
}

/// Tracing only observes: a staircase of PrioPlus flows (the first one
/// suspended and probing while the second runs), a plain Swift flow and
/// a blind `NoCc` flow give the same records, counters and end time with
/// `trace_flows` on and off, and a traced flow has exactly one delay and
/// one cwnd point per ACK or probe echo its transport took.
#[test]
fn tracing_only_observes() {
    let outcome = |trace: bool| {
        let mut m = Micro::build(&MicroEnv {
            senders: 4,
            end: Time::from_ms(4),
            trace,
            noise: NoiseModel::testbed(),
            seed: 5,
            ..Default::default()
        });
        let pp = CcSpec::PrioPlusSwift {
            policy: PrioPlusPolicy::paper_default(2),
        };
        let swift = CcSpec::Swift {
            queuing: Time::from_us(4),
            scaling: false,
        };
        let flows = [
            (1, 3_000_000, Time::ZERO, 0, pp),
            (2, 2_000_000, Time::from_us(300), 1, pp),
            (3, 1_000_000, Time::from_us(100), 0, swift),
            (4, 300_000, Time::from_us(1_500), 0, CcSpec::Blast),
        ];
        let mut counts = Vec::new();
        for (sender, size, start, virt, cc) in flows {
            let (acks, probe_acks) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
            counts.push((acks.clone(), probe_acks.clone()));
            m.add_flow_with(sender, size, start, 0, virt, |p| {
                Box::new(Counted {
                    inner: cc.make(p, start),
                    acks,
                    probe_acks,
                })
            });
        }
        let res = m.sim.run();
        let counts: Vec<(usize, usize)> = counts.iter().map(|(a, p)| (a.get(), p.get())).collect();
        (res, counts)
    };
    let (off, off_counts) = outcome(false);
    let (on, on_counts) = outcome(true);
    assert!(off.traces.is_empty());
    assert_eq!(format!("{:?}", on.records), format!("{:?}", off.records));
    assert_eq!(format!("{:?}", on.counters), format!("{:?}", off.counters));
    assert_eq!(on.end_time, off.end_time);
    assert_eq!(on_counts, off_counts);
    assert!(on.records.iter().all(|r| r.finish.is_some()));
    assert!(on_counts[0].1 > 0, "the suspended PrioPlus flow must probe");
    assert_eq!(on.traces.len(), on_counts.len());
    for (flow, &(acks, _)) in on_counts.iter().enumerate() {
        let t = &on.traces[&(flow as u32)];
        assert!(acks > 0, "flow {flow} took no ACK");
        assert_eq!(t.delay.len(), acks, "flow {flow}: delay points");
        assert_eq!(t.cwnd.len(), acks, "flow {flow}: cwnd points");
        assert_eq!(t.delay.t_us, t.cwnd.t_us, "flow {flow}: cwnd times");
        let goodput = t.throughput.total_bytes();
        assert_eq!(goodput, on.records[flow].size, "flow {flow}: goodput");
    }
    // `NoCc`'s window is a constant.
    let blast = &on.traces[&3].cwnd.v;
    assert!(blast.iter().all(|&w| w == blast[0]));
}
