//! Layer kernels: each layer driven alone through its public API with a
//! synthetic op stream shaped by the workload (pending-event population,
//! port and queue count, PFC on or off, noise model, topology, generator).
//!
//! A kernel runs `ROUNDS` times and reports the median ns/op. The numbers
//! say what one operation of a layer costs in isolation with warm caches;
//! multiplied by op counts taken from a run they bound the share of the
//! pump a layer can account for (see `runner::attribution`). They are not
//! a replay of the run's event stream — that needs in-program tracing.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use netsim::node::{Admission, EgressPort, Switch};
use netsim::routing::RoutingTable;
use netsim::topology::NodeKind;
use netsim::{
    AckEvent, AckKind, Event, FlowParams, NodeId, NoiseModel, Packet, PacketArena, PacketId,
    SchedKind, SwitchConfig, Topology, Transport, TransportCtx, TrySend,
};
use prioplus::cc::SimpleAimd;
use prioplus::{Action, PrioPlus, PrioPlusConfig};
use simcore::stats::QuantileSketch;
use simcore::{EventQueue, Rate, SimRng, Time};
use transport::{CcSpec, PrioPlusPolicy};
use workloads::{CoflowGen, IncastMix, OpenLoopGen, PoissonArrivals, SizeDist};

use crate::scenarios::Workload;
use crate::stats::median;

/// Timed repetitions per kernel; the median is reported.
const ROUNDS: usize = 5;
/// Operations per repetition at full scale (`div` 1); cheap kernels run
/// four times as many.
const OPS: u64 = 1_000_000;

/// What a workload looks like to a single layer.
struct Shape {
    /// Steady pending-event population of the scheduler.
    pending: u64,
    /// Flows re-arming an RTO timer (the cancel pattern).
    rto_flows: usize,
    /// Packets live in the arena at once.
    arena_live: usize,
    /// Ports per switch.
    ports: usize,
    /// Data queues per port.
    data_queues: u8,
    /// Switch configuration (PFC on or off, lossless priorities).
    switch: SwitchConfig,
    /// Delay-measurement noise model.
    noise: NoiseModel,
    /// Virtual priorities.
    classes: u8,
}

fn shape(w: Workload) -> Shape {
    match w {
        // One switch, a few hundred pending events, one queue.
        Workload::IncastPp => Shape {
            pending: 256,
            rto_flows: 64,
            arena_live: 512,
            ports: 65,
            data_queues: 1,
            switch: SwitchConfig::default(),
            noise: NoiseModel::testbed(),
            classes: 8,
        },
        // k=4 fat-tree, 8 physical queues with per-priority PFC.
        Workload::FattreeFlowsched => Shape {
            pending: 4096,
            rto_flows: 128,
            arena_live: 4096,
            ports: 4,
            data_queues: 8,
            switch: SwitchConfig {
                buffer_bytes: 1_760_000,
                pfc_lossless_prios: 8,
                pfc_headroom_bytes: 50_000,
                ..Default::default()
            },
            noise: NoiseModel::testbed(),
            classes: 8,
        },
        // Leaf–spine, 8 queues, PFC off (tail drop).
        Workload::CoflowLossy => Shape {
            pending: 8192,
            rto_flows: 512,
            arena_live: 8192,
            ports: 12,
            data_queues: 8,
            switch: SwitchConfig {
                pfc_enabled: false,
                pfc_lossless_prios: 0,
                ..Default::default()
            },
            noise: NoiseModel::testbed(),
            classes: 8,
        },
        // k=8 fat-tree: tens of thousands of pending events, one queue.
        Workload::HyperscaleOpenloop => Shape {
            pending: 65_536,
            rto_flows: 2048,
            arena_live: 65_536,
            ports: 8,
            data_queues: 1,
            switch: SwitchConfig::default(),
            noise: NoiseModel::None,
            classes: 4,
        },
    }
}

fn topology(w: Workload) -> Topology {
    let (rate, prop) = (Rate::from_gbps(100), Time::from_us(1));
    match w {
        Workload::IncastPp => Topology::single_switch(64, rate, Time::from_us(3)),
        Workload::FattreeFlowsched => Topology::fat_tree(4, rate, prop),
        Workload::CoflowLossy => Topology::leaf_spine(4, 4, 8, rate, Rate::from_gbps(400), prop),
        Workload::HyperscaleOpenloop => Topology::fat_tree(8, rate, prop),
    }
}

/// Median over `ROUNDS` of `f()`, which returns (elapsed ns, ops).
fn ns_per_op(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (ns, ops) = f();
            ns / ops.max(1) as f64
        })
        .collect();
    median(&samples).expect("ROUNDS > 0")
}

fn timed(f: impl FnOnce() -> u64) -> (f64, u64) {
    let t0 = Instant::now();
    let ops = f();
    (t0.elapsed().as_nanos() as f64, ops)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

// ------------------------------------------------------------- simcore

/// Hold model on the calendar queue: a steady population of `pending`
/// events, each pop replaced by a push uniform in a window of 400 ns per
/// pending event. With `rto_flows`, every op also cancels one flow's
/// pending timer and arms its replacement — the per-ACK RTO pattern,
/// tombstones included.
fn sched_hold(ops: u64, pending: u64, rto_flows: Option<usize>) -> (f64, u64) {
    let window_ps = pending * 400_000;
    let rto = Time::from_us(500);
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut q: EventQueue<u64> = EventQueue::with_sched(SchedKind::Calendar);
    for i in 0..pending {
        q.schedule(Time::from_ps(xorshift(&mut rng) % window_ps + 1), i);
    }
    let mut timers: Vec<_> = (0..rto_flows.unwrap_or(0))
        .map(|i| q.schedule_cancellable(rto, i as u64))
        .collect();
    // Warm up past the first RTO window so tombstones are in steady state.
    let mut step = |q: &mut EventQueue<u64>, i: u64| {
        let (now, v) = q.pop().expect("population is steady");
        q.schedule(now + Time::from_ps(xorshift(&mut rng) % window_ps + 1), v);
        if !timers.is_empty() {
            let slot = (i % timers.len() as u64) as usize;
            q.cancel(timers[slot]);
            timers[slot] = q.schedule_cancellable(now + rto, v);
        }
    };
    for i in 0..ops / 4 {
        step(&mut q, i);
    }
    timed(|| {
        for i in 0..ops {
            step(&mut q, i);
        }
        ops
    })
}

fn sketch_add(ops: u64) -> (f64, u64) {
    let n = 4 * ops;
    let mut rng = 0xD1B5_4A32_D192_ED03u64;
    let mut sk = QuantileSketch::new();
    let out = timed(|| {
        for _ in 0..n {
            // FCT-like: 1 µs .. 10 ms in ps.
            sk.add(1_000_000 + xorshift(&mut rng) % 10_000_000_000);
        }
        n
    });
    black_box(sk.quantile(99.0));
    out
}

// -------------------------------------------------------------- netsim

fn arena_churn(ops: u64, live: usize) -> (f64, u64) {
    let mut arena = PacketArena::new();
    let mk = |i: u64| Packet::data(i as u32 & 1023, 1, 2, 0, 1000, i * 1000, Time::from_ns(i));
    let mut ring: VecDeque<PacketId> = (0..live as u64).map(|i| arena.alloc(mk(i))).collect();
    let out = timed(|| {
        for i in 0..ops {
            let old = ring.pop_front().expect("ring is never empty");
            arena.release(old);
            ring.push_back(arena.alloc(mk(i)));
        }
        ops
    });
    black_box(arena.live_count());
    out
}

/// One switch hop: dequeue from a port + departure accounting, then ECN
/// decision + admission on another port, at a standing depth of 8 packets
/// per port.
fn switch_hop(ops: u64, s: &Shape) -> (f64, u64) {
    let nq = s.data_queues as usize + 1;
    let ports: Vec<EgressPort> = (0..s.ports)
        .map(|p| EgressPort::new(p as NodeId, 0, Rate::from_gbps(100), Time::from_us(1), nq))
        .collect();
    let mut sw = Switch::new(s.switch.clone(), ports, s.data_queues);
    let mut arena = PacketArena::new();
    let mut rng = SimRng::new(0x5117C4);
    let (mut pauses, mut resumes) = (Vec::new(), Vec::new());
    let n_ports = s.ports as u64;
    for i in 0..8 * n_ports {
        let prio = (i % s.data_queues as u64) as u8;
        let id = arena.alloc(Packet::data(i as u32, 1, 2, prio, 1000, 0, Time::ZERO));
        let port = (i % n_ports) as u16;
        let in_port = ((i * 7 + 1) % n_ports) as u16;
        let adm = sw.admit(port, in_port, id, 0, &mut arena, &mut pauses);
        assert!(matches!(adm, Admission::Queued), "prefill fits the buffer");
    }
    let out = timed(|| {
        let mut marks = 0u64;
        for i in 0..ops {
            // Port p loses a packet at op ≡ p and gains one at op ≡ p − 1,
            // so depths stay level.
            let from = (i % n_ports) as usize;
            let to = ((i + 1) % n_ports) as u16;
            let id = sw.ports[from]
                .dequeue(&arena)
                .expect("standing depth keeps every port backlogged");
            sw.on_dequeue(arena.get(id), 0, &mut resumes);
            let (queue, dscp) = {
                let h = arena.get(id);
                (netsim::node::queue_index(h.prio, nq), h.dscp)
            };
            marks += sw.ecn_mark(to, queue, dscp, 0, &mut rng) as u64;
            let adm = sw.admit(to, from as u16, id, 0, &mut arena, &mut pauses);
            debug_assert!(matches!(adm, Admission::Queued));
        }
        black_box(marks);
        ops
    });
    black_box((pauses.len(), resumes.len(), sw.total_buffered));
    out
}

fn routing_lookup(ops: u64, topo: &Topology) -> (f64, u64) {
    let n = 4 * ops;
    let is_host: Vec<bool> = topo.kinds.iter().map(|k| *k == NodeKind::Host).collect();
    let table = RoutingTable::build(&topo.adjacency(), &is_host, 0x9E37_79B9);
    let switches: Vec<NodeId> = (0..topo.num_nodes() as NodeId)
        .filter(|n| !is_host[*n as usize])
        .collect();
    let mut rng = SimRng::new(0xEC3F);
    let queries: Vec<(NodeId, NodeId, u32)> = (0..4096)
        .map(|_| {
            (
                switches[rng.choose_index(switches.len())],
                topo.hosts[rng.choose_index(topo.hosts.len())],
                rng.next_u32() & 0xFFFF,
            )
        })
        .collect();
    timed(|| {
        let mut acc = 0u64;
        for i in 0..n {
            let (node, dst, flow) = queries[(i & 4095) as usize];
            acc += table.port_for(node, dst, flow) as u64;
        }
        black_box(acc);
        n
    })
}

fn noise_sample(ops: u64, noise: NoiseModel) -> (f64, u64) {
    let n = 4 * ops;
    let mut rng = SimRng::new(0x0153);
    timed(|| {
        let mut acc = 0u64;
        for _ in 0..n {
            acc = acc.wrapping_add(noise.sample(&mut rng).as_ps());
        }
        black_box(acc);
        n
    })
}

// ----------------------------------------------------------- transport

fn flow_params(virt_prio: u8) -> FlowParams {
    FlowParams {
        flow: 0,
        // Never finishes within a kernel run.
        size: 1 << 44,
        line_rate: Rate::from_gbps(100),
        base_rtt: Time::from_us(12),
        base_rtt_probe: Time::from_us(11),
        mtu: 1000,
        virt_prio,
        seed: 0x7A57,
    }
}

/// Drive one sender through the ACK path: for each ACK, `on_ack`, then
/// `try_send` + `on_sent` until the window is full again. Timers the
/// transport arms go to a private event queue, which is drained of
/// cancelled entries (and fires live ones) as time advances — the work the
/// simulator's queue does for it in a run.
fn transport_acks(ops: u64, spec: CcSpec, virt_prio: u8, ecn_every: u64) -> (f64, u64) {
    let params = flow_params(virt_prio);
    let base = params.base_rtt;
    let mut tr: Box<dyn Transport> = spec.make(&params, Time::ZERO);
    let mut q: EventQueue<Event> = EventQueue::with_sched(SchedKind::Calendar);
    let mut now = Time::ZERO;
    let mut inflight: VecDeque<(u64, u32)> = VecDeque::new();
    tr.on_start(&mut TransportCtx::for_test(&mut q, now, 0));

    let mut acks = 0u64;
    let mut run = |target: u64, acks: &mut u64| {
        let mut spins = 0u32;
        while *acks < target {
            // Refill the window.
            loop {
                let decision = tr.try_send(now);
                match decision {
                    TrySend::Data { seq, bytes } => {
                        tr.on_sent(decision, &mut TransportCtx::for_test(&mut q, now, 0));
                        inflight.push_back((seq, bytes));
                    }
                    TrySend::Probe => {
                        tr.on_sent(decision, &mut TransportCtx::for_test(&mut q, now, 0));
                        now += base;
                        let echo = AckEvent {
                            kind: AckKind::Probe,
                            delay: base,
                            cum_bytes: 0,
                            acked_seq: 0,
                            acked_bytes: 0,
                            ecn_echo: false,
                            nack: None,
                            int: None,
                        };
                        tr.on_ack(&echo, &mut TransportCtx::for_test(&mut q, now, 0));
                    }
                    TrySend::NotBefore(at) if inflight.is_empty() => now = now.max(at),
                    TrySend::Blocked if inflight.is_empty() => {
                        // Suspended with nothing in flight: only a timer
                        // can wake the sender.
                        let (at, ev) = q.pop().expect("a blocked sender has a timer pending");
                        now = now.max(at);
                        if let Event::FlowTimer { token, .. } = ev {
                            tr.on_timer(token, &mut TransportCtx::for_test(&mut q, now, 0));
                        }
                        spins += 1;
                        assert!(spins < 1_000_000, "transport kernel makes no progress");
                    }
                    TrySend::NotBefore(_) | TrySend::Blocked => break,
                    TrySend::Finished => unreachable!("flow size outlasts the kernel"),
                }
            }
            // Acknowledge the oldest segment, one serialization time later.
            let (seq, bytes) = inflight.pop_front().expect("window refilled above");
            now += Time::from_ns(84);
            let ack = AckEvent {
                kind: AckKind::Data,
                // Hover just under the base target (base + 4 µs).
                delay: base + Time::from_ns(2_500 + (*acks % 4) * 400),
                cum_bytes: seq + bytes as u64,
                acked_seq: seq,
                acked_bytes: bytes,
                ecn_echo: ecn_every != 0 && *acks % ecn_every == 0,
                nack: None,
                int: None,
            };
            tr.on_ack(&ack, &mut TransportCtx::for_test(&mut q, now, 0));
            *acks += 1;
            spins = 0;
            // Let the queue shed cancelled timers that are now due.
            while q.peek_time().is_some_and(|at| at <= now) {
                if let Some((_, Event::FlowTimer { token, .. })) = q.pop() {
                    tr.on_timer(token, &mut TransportCtx::for_test(&mut q, now, 0));
                }
            }
        }
    };
    run(ops / 10, &mut acks); // warm-up: reach a steady window
    let out = timed(|| {
        run(ops / 10 + ops, &mut acks);
        ops
    });
    black_box(tr.cwnd_bytes());
    out
}

fn prioplus_data_ack(ops: u64) -> (f64, u64) {
    let n = 4 * ops;
    let base = Time::from_us(12);
    let cfg = PrioPlusConfig {
        d_target: Time::from_us(32),
        d_limit: Time::from_us_f64(35.2),
        base_rtt: base,
        near_base_eps: Time::from_us_f64(0.8),
        w_ls: 37_500.0,
        line_rate: Rate::from_gbps(100),
        probe_before_start: false,
        mtu: 1000,
        seed: 0x99,
        dual_rtt: true,
    };
    let cc = SimpleAimd::new(cfg.d_target, 1000.0, 37_500.0, 1e9);
    let mut pp = PrioPlus::new(cfg, cc);
    black_box(pp.on_flow_start());
    timed(|| {
        let mut stops = 0u64;
        for i in 0..n {
            let seq = i * 1000;
            let now = Time::from_ns(i * 84);
            // Mostly inside the channel, a lone over-limit sample now and
            // then (filtered as noise, §4.3.1).
            let delay = if i % 64 == 63 {
                Time::from_us(36)
            } else {
                Time::from_ns(30_000 + (i % 8) * 250)
            };
            let action = pp.on_data_ack(delay, seq, seq + 150_000, 1000, now);
            if action != Action::Continue {
                stops += 1;
                black_box(pp.on_probe_ack(base, seq + 150_000));
            }
        }
        black_box(stops);
        n
    })
}

// ----------------------------------------------------------- workloads

/// Generator cost per emitted flow. `incast_pp` has no generator; it
/// reports the WebSearch Poisson generator its neighbours use.
fn generate_flows(div: u64, w: Workload) -> (f64, u64) {
    let rate = Rate::from_gbps(100);
    match w {
        Workload::IncastPp | Workload::FattreeFlowsched => timed(|| {
            PoissonArrivals::new(SizeDist::websearch(), 16, rate, 0.7, Time::ZERO, 0xA221)
                .generate_until(Time::from_ms(2300 / div))
                .len() as u64
        }),
        Workload::CoflowLossy => timed(|| {
            let mut gen = CoflowGen::new(32, 0xC0F);
            let until = Time::from_ms(400 / div);
            let mut all = gen.generate_poisson(rate, 0.35, until);
            all.extend(gen.generate_file_requests(rate, 0.35, 8, 2_000_000, until));
            all.sort_by_key(|c| c.start);
            all.iter().map(|c| c.flows.len() as u64).sum()
        }),
        Workload::HyperscaleOpenloop => timed(|| {
            let horizon = Time::from_ms((40 / div).max(1));
            let mix = IncastMix {
                period: Time::from_us(100),
                fanin: 16,
                bytes: 20_000,
            };
            let mut gen = OpenLoopGen::new(
                SizeDist::websearch(),
                128,
                rate,
                0.4,
                Time::ZERO,
                horizon,
                Some(mix),
                0x09E1,
            );
            let (mut buf, mut flows) = (Vec::new(), 0u64);
            let mut until = Time::from_us(200);
            while gen.peek_start().is_some() {
                buf.clear();
                gen.take_until(until, &mut buf);
                flows += buf.len() as u64;
                until += Time::from_us(200);
            }
            flows
        }),
    }
}

// ----------------------------------------------------------------- all

/// Kernel metric names, in reporting order.
pub const NAMES: [&str; 12] = [
    "simcore.sched.ns_per_push_pop",
    "simcore.sched.ns_per_cancel",
    "simcore.sketch.ns_per_add",
    "netsim.arena.ns_per_alloc_release",
    "netsim.switch.ns_per_hop",
    "netsim.routing.ns_per_lookup",
    "netsim.noise.ns_per_sample",
    "transport.swift.ns_per_ack",
    "transport.dctcp.ns_per_ack",
    "transport.prioplus_swift.ns_per_ack",
    "prioplus.ns_per_data_ack",
    "workloads.ns_per_flow",
];

/// Run every kernel shaped by `w`, with `1/div` of the full op counts
/// (`--check` runs use 10); values are ns/op in [`NAMES`] order.
pub fn run_all(w: Workload, div: u64) -> Vec<(&'static str, f64)> {
    let ops = OPS / div;
    let s = shape(w);
    let topo = topology(w);
    let mid = s.classes / 2;
    // Cancel cost = hold model with the RTO pattern − hold model without,
    // paired round by round so drift cancels.
    let mut plain = Vec::with_capacity(ROUNDS);
    let mut cancel = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let (without, ops) = sched_hold(ops, s.pending, None);
        let (with, _) = sched_hold(ops, s.pending, Some(s.rto_flows));
        plain.push(without / ops as f64);
        cancel.push(((with - without) / ops as f64).max(0.0));
    }
    let values = [
        median(&plain).expect("ROUNDS > 0"),
        median(&cancel).expect("ROUNDS > 0"),
        ns_per_op(|| sketch_add(ops)),
        ns_per_op(|| arena_churn(ops, s.arena_live)),
        ns_per_op(|| switch_hop(ops, &s)),
        ns_per_op(|| routing_lookup(ops, &topo)),
        ns_per_op(|| noise_sample(ops, s.noise)),
        ns_per_op(|| {
            let swift = CcSpec::Swift {
                queuing: Time::from_us(4),
                scaling: false,
            };
            transport_acks(ops, swift, mid, 0)
        }),
        ns_per_op(|| {
            let d2tcp = CcSpec::D2tcp {
                deadline_factor: Some(2.0),
            };
            transport_acks(ops, d2tcp, mid, 16)
        }),
        ns_per_op(|| {
            let policy = PrioPlusPolicy {
                probe: w == Workload::IncastPp,
                ..PrioPlusPolicy::paper_default(s.classes)
            };
            transport_acks(ops, CcSpec::PrioPlusSwift { policy }, mid, 0)
        }),
        ns_per_op(|| prioplus_data_ack(ops)),
        ns_per_op(|| generate_flows(div, w)),
    ];
    NAMES.into_iter().zip(values).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_reports_a_positive_finite_cost() {
        // One workload with PFC on and one with it off cover both switch
        // paths; the transports and generators differ per workload too.
        for w in [Workload::FattreeFlowsched, Workload::CoflowLossy] {
            let got = run_all(w, 20);
            assert_eq!(got.len(), NAMES.len());
            for (name, v) in got {
                assert!(v.is_finite() && v >= 0.0, "{w:?} {name} = {v}");
                if name != "simcore.sched.ns_per_cancel" {
                    assert!(v > 0.0, "{w:?} {name} = {v}");
                }
            }
        }
    }
}
