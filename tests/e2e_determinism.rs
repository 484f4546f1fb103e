//! End-to-end determinism: the parallel sweep runner must produce results
//! byte-identical to serial execution, regardless of worker count, and
//! the probe harness (port probes, goodput meters) must not change what a
//! run does, on the micro bottleneck or on a fabric.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use experiments::flowsched::{self, FlowSchedConfig, FlowSchedResult};
use experiments::micro::{DelayLog, Micro, MicroEnv};
use experiments::probe::{self, Probe};
use experiments::sweep::run_ordered;
use experiments::{Scale, Scheme};
use netsim::sim::App;
use netsim::{AckEvent, AckKind, FlowId, NoiseModel, Sim, Transport, TransportCtx, TrySend};
use simcore::stats::TimeSeries;
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

/// Records the state digest at every flow completion.
struct Digests(Rc<RefCell<Vec<u64>>>);

impl App for Digests {
    fn on_flow_complete(&mut self, _: FlowId, sim: &mut Sim) {
        self.0.borrow_mut().push(sim.state_digest());
    }
}

/// Metering only observes: a staircase of PrioPlus flows (the first one
/// suspended and probing while the second runs), a plain Swift flow and
/// a blind `NoCc` flow give the same records, counters, end time and
/// state digest at every completion under `Micro::run`, which steps the
/// run to each 20 µs boundary to meter goodput, as under a plain
/// `Sim::run`. Each flow's meter sums to what it delivered, and
/// `DelayLog` logs exactly one point per ACK or probe echo its transport
/// took.
#[test]
fn metering_only_observes() {
    let outcome = |metered: bool| {
        let mut m = Micro::build(&MicroEnv {
            senders: 4,
            end: Time::from_ms(4),
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
        let (mut counts, mut logs) = (Vec::new(), Vec::new());
        for (sender, size, start, virt, cc) in flows {
            let (acks, probe_acks) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
            let log = Rc::new(RefCell::new(TimeSeries::new()));
            counts.push((acks.clone(), probe_acks.clone()));
            logs.push(log.clone());
            m.add_flow_with(sender, size, start, 0, virt, |p| {
                let counted = Counted {
                    inner: cc.make(p, start),
                    acks,
                    probe_acks,
                };
                Box::new(DelayLog {
                    inner: Box::new(counted),
                    log,
                })
            });
        }
        let digests = Rc::new(RefCell::new(Vec::new()));
        m.sim.set_app(Box::new(Digests(digests.clone())));
        let (res, goodput) = if metered {
            let run = m.run();
            (run.res, run.goodput)
        } else {
            (m.sim.run(), Vec::new())
        };
        let counts: Vec<(usize, usize)> = counts.iter().map(|(a, p)| (a.get(), p.get())).collect();
        let logged: Vec<usize> = logs.iter().map(|l| l.borrow().len()).collect();
        (res, goodput, digests.take(), counts, logged)
    };
    let (plain, none, plain_digests, plain_counts, plain_logged) = outcome(false);
    let (res, goodput, digests, counts, logged) = outcome(true);
    assert!(none.is_empty());
    assert_eq!(format!("{:?}", res.records), format!("{:?}", plain.records));
    assert_eq!(
        format!("{:?}", res.counters),
        format!("{:?}", plain.counters)
    );
    assert_eq!(res.end_time, plain.end_time);
    assert_eq!(digests, plain_digests, "state digest at each completion");
    assert_eq!(digests.len(), 4, "every flow completes");
    assert_eq!((&counts, &logged), (&plain_counts, &plain_logged));
    assert!(counts[0].1 > 0, "the suspended PrioPlus flow must probe");
    assert_eq!(goodput.len(), counts.len());
    for (flow, (&(acks, _), meter)) in counts.iter().zip(&goodput).enumerate() {
        assert!(acks > 0, "flow {flow} took no ACK");
        assert_eq!(logged[flow], acks, "flow {flow}: delay points");
        let delivered = res.records[flow].delivered;
        assert_eq!(meter.total_bytes(), delivered, "flow {flow}: goodput");
        assert_eq!(delivered, res.records[flow].size, "flow {flow}: delivered");
    }
}

/// Probing a fabric run only observes too. A fig11 PrioPlus run at quick
/// scale (8 classes, its seed) under `probe::run`, with a queue and a
/// throughput probe on a ToR uplink and every flow's goodput metered,
/// gives the same records, counters, end time and state digest at every
/// completion as the plain `Sim::run` of the same `flowsched::prepare`.
/// Each flow's meter sums to what it delivered.
#[test]
fn probing_a_fabric_run_only_observes() {
    let cfg = FlowSchedConfig {
        seed: 28,
        ..FlowSchedConfig::at(Scheme::PrioPlusSwift, 8, Scale::Quick)
    };
    let prepared = || {
        let mut sim = flowsched::prepare(&cfg);
        let digests = Rc::new(RefCell::new(Vec::new()));
        sim.set_app(Box::new(Digests(digests.clone())));
        (sim, digests)
    };
    let (sim, plain_digests) = prepared();
    let plain = sim.run();
    let (sim, digests) = prepared();
    // Node 16 is pod 0's first ToR of the k = 4 fat-tree: its ports 0 and
    // 1 face its hosts, 2 and 3 its pod's aggregation switches.
    let (tor, uplink, period) = (16, 2, Time::from_us(50));
    let probes = vec![
        Probe::queue(&sim, tor, uplink, period),
        Probe::throughput(&sim, tor, uplink, period),
    ];
    let run = probe::run(sim, probes);
    let res = &run.res;
    assert_eq!(format!("{:?}", res.records), format!("{:?}", plain.records));
    assert_eq!(
        format!("{:?}", res.counters),
        format!("{:?}", plain.counters)
    );
    assert_eq!(res.end_time, plain.end_time);
    let (digests, plain_digests) = (digests.take(), plain_digests.take());
    let finished = res.records.iter().filter(|r| r.finish.is_some()).count();
    assert_eq!(plain_digests.len(), finished, "a digest per completion");
    assert_eq!(digests, plain_digests, "state digest at each completion");
    let samples = (cfg.duration + cfg.duration).as_ps() / period.as_ps() - 1;
    for series in &run.series {
        assert_eq!(
            series.len() as u64,
            samples,
            "one sample per period below the end"
        );
    }
    assert!(
        run.series[0].v.iter().any(|&q| q > 0.0),
        "the uplink never queued"
    );
    assert!(
        run.series[1].v.iter().any(|&g| g > 0.0),
        "the uplink sent nothing"
    );
    assert_eq!(run.goodput.len(), res.records.len());
    for (flow, (meter, record)) in run.goodput.iter().zip(&res.records).enumerate() {
        assert_eq!(
            meter.total_bytes(),
            record.delivered,
            "flow {flow}: goodput"
        );
    }
}
