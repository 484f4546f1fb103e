//! Fluid background-traffic subsystem (hybrid packet/fluid model).
//!
//! Loaded scenarios pay millions of scheduler events for background traffic
//! we only need in aggregate: every background packet is enqueued, ECN-
//! inspected, serialized, and delivered individually. This module models
//! designated *background* flows as piecewise-constant fluid rates instead.
//! Each background flow injects mass into a per-switch-port fluid queue at
//! its access rate (open loop, exactly like a [`crate::transport_api`]
//! blast sender); the port drains the fluid queue at a piecewise-constant
//! service rate. State is recomputed only at **rate-change epochs** — flow
//! arrival, injection end, backlog-empty crossing, flow completion —
//! instead of per packet, so a background flow costs O(1) events
//! regardless of size.
//!
//! # Mass units and determinism
//!
//! All mass accounting is integer: one byte is `8 * PS_PER_SEC` *units*
//! (i.e. one unit is a bit-picosecond-per-second), so a rate of `r` bits
//! per second drains exactly `r` units per picosecond and every segment
//! integral `rate × Δt` is exact in `u128`. There is no floating point
//! anywhere in the solver, no RNG draws during the run (arrival traces are
//! materialized up front from a seed), and per-port iteration is in fixed
//! index order — the subsystem is bit-deterministic and is audited against
//! the mass-conservation invariant
//! `injected == drained + backlog` (per port and globally).
//!
//! # Coupling with the packet simulator
//!
//! Fluid → packet: the projected fluid backlog at a port is added to the
//! queue occupancy the switch uses for ECN marking, and subtracted from the
//! free buffer used for dynamic-threshold admission and PFC pause
//! decisions. Foreground timing uses FIFO emulation: every data-class
//! packet admitted to a fluid-loaded port is stamped with the cumulative
//! injected fluid mass at admission ([`FluidState::push_stamp`]); when it
//! reaches the head of the queue it serializes at line rate behind the
//! stamped mass that has neither drained nor been charged to an earlier
//! packet ([`FluidState::pop_stamp`]) — so foreground packets wait behind
//! standing background backlog exactly as they would in the FIFO shared
//! queue, without per-packet fluid events, and congestion control sees the
//! resulting delay.
//!
//! Packet → fluid: the port's capacity is allocated between the two
//! streams by the same FIFO discipline the real shared queue uses. While
//! foreground packets are queued or serializing, the fluid queue drains
//! *only* through the per-packet charges (the wire is busy with packets
//! and the fluid bytes ahead of them); when the port carries no packets,
//! fluid drains at the full line rate. Each stream therefore gets exactly
//! its arrival-order share of the line — demand-proportional fair sharing
//! emerges from the FIFO interleave without any rate estimation, and the
//! combined model never overcommits the port. A PFC pause of the port's
//! data priority halts fluid service entirely until resume.
//!
//! With `SimConfig::background == None` (or an empty trace) the subsystem
//! is inert: no events are scheduled, every coupling hook adds zero, and
//! packet runs are bit-identical to the pure packet simulator — pinned by
//! the zero-background differential e2e suite.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use simcore::time::PS_PER_SEC;
use simcore::{SimRng, Time};

use crate::packet::{NodeId, HEADER_BYTES};

/// Mass units per byte: one unit is a "bit-picosecond-per-second", so a
/// rate of `r` bits/s drains exactly `r` units per picosecond.
pub const UNITS_PER_BYTE: u128 = 8 * PS_PER_SEC as u128;

/// One background flow in a [`BackgroundLoad`] trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FluidFlowSpec {
    /// Arrival time: the flow starts injecting at this instant.
    pub start: Time,
    /// Flow size in bytes (wire bytes; headers are not modeled separately).
    pub bytes: u64,
    /// Index into [`BackgroundLoad::ports`] of the port this flow loads.
    pub port: u32,
}

/// Specification of open-loop fluid background traffic.
///
/// The spec is a fully materialized arrival trace: sampling happens at
/// construction time (see [`BackgroundLoad::poisson`]) so the running
/// simulation draws no randomness for background traffic at all. The
/// same trace can be replayed through packet-level blast senders to build
/// the reference run a hybrid run is validated against.
#[derive(Clone, Debug, Default)]
pub struct BackgroundLoad {
    /// Switch egress ports carrying fluid background load, as
    /// `(switch node, egress port index)`.
    pub ports: Vec<(NodeId, u16)>,
    /// Arrival trace, grouped implicitly by `FluidFlowSpec::port`. Flows
    /// for each port must be sorted by `start`.
    pub flows: Vec<FluidFlowSpec>,
    /// Access rate (bits/s) at which each flow injects into its port's
    /// fluid queue. `0` means "the port's line rate".
    pub access_bps: u64,
}

impl BackgroundLoad {
    /// Sample a Poisson open-loop arrival trace targeting `load` (0..1)
    /// utilization of `line_bps` on every listed port, with exponentially
    /// distributed flow sizes of mean `mean_bytes`, until `until`.
    ///
    /// Each port gets an independent RNG stream (`seed` split by port
    /// index), so adding a port never perturbs the others' arrivals.
    pub fn poisson(
        ports: Vec<(NodeId, u16)>,
        line_bps: u64,
        load: f64,
        mean_bytes: u64,
        seed: u64,
        until: Time,
    ) -> Self {
        assert!((0.0..1.0).contains(&load), "background load must be in [0,1)");
        assert!(mean_bytes > 0, "background mean flow size must be positive");
        let root = SimRng::new(seed);
        let mut flows = Vec::new();
        for (idx, _) in ports.iter().enumerate() {
            let mut rng = root.split(idx as u64);
            if load == 0.0 {
                continue;
            }
            // flows/sec so that load * line_bps / 8 bytes/sec arrive on
            // average: lambda = line_Bps * load / mean_bytes.
            let lambda = (line_bps as f64 / 8.0) * load / mean_bytes as f64;
            let mean_gap_ps = PS_PER_SEC as f64 / lambda;
            let mut t = Time::ZERO;
            loop {
                let gap = rng.exponential(mean_gap_ps);
                t += Time::from_ps_f64(gap);
                if t >= until {
                    break;
                }
                let bytes = (rng.exponential(mean_bytes as f64) as u64).max(1);
                flows.push(FluidFlowSpec {
                    start: t,
                    bytes,
                    port: idx as u32,
                });
            }
        }
        // Keep the trace sorted by (port, start) so per-port arrival lists
        // build in time order regardless of interleaving above.
        flows.sort_by_key(|f| (f.port, f.start));
        BackgroundLoad {
            ports,
            flows,
            access_bps: 0,
        }
    }

    /// Build a single-port background load from a `(start, payload_bytes)`
    /// arrival trace emitted round-robin by `hosts` packet-level senders
    /// that each own one `access_bps` access link.
    ///
    /// This models what blast senders do with the same trace, so a hybrid
    /// run stays comparable to its packet reference:
    ///
    /// - payloads are chunked into `mtu`-byte packets with
    ///   [`HEADER_BYTES`] of framing each — the fluid queue carries wire
    ///   bytes, like the packet queue does;
    /// - a host can only put one flow on the wire at a time, so a flow
    ///   arriving while its host is still serializing an earlier one is
    ///   deferred until the access link frees. (The real sender would
    ///   interleave the two flows' packets, but the *aggregate* mass
    ///   reaching the switch — access rate for the whole busy period — is
    ///   identical, and the fluid queue only accounts aggregate mass.)
    ///
    /// Without the deferral, overlapping same-host flows would inject at
    /// a multiple of the access rate the packet reference can physically
    /// never reach, over-building fluid backlog and over-delaying the
    /// foreground.
    pub fn from_shared_hosts(
        port: (NodeId, u16),
        trace: &[(Time, u64)],
        hosts: usize,
        access_bps: u64,
        mtu: u32,
    ) -> Self {
        assert!(hosts > 0, "need at least one background host");
        assert!(access_bps > 0 && mtu > 0);
        let mut free = vec![Time::ZERO; hosts];
        let mut flows: Vec<FluidFlowSpec> = trace
            .iter()
            .enumerate()
            .map(|(i, &(start, payload))| {
                let pkts = payload.div_ceil(mtu as u64).max(1);
                let wire = payload + pkts * HEADER_BYTES as u64;
                let h = i % hosts;
                let eff = start.max(free[h]);
                let ser_ps = (wire as u128 * 8 * PS_PER_SEC as u128)
                    .div_ceil(access_bps as u128);
                free[h] = eff + Time::from_ps(ser_ps as u64);
                FluidFlowSpec {
                    start: eff,
                    bytes: wire,
                    port: 0,
                }
            })
            .collect();
        flows.sort_by_key(|f| f.start);
        BackgroundLoad {
            ports: vec![port],
            flows,
            access_bps,
        }
    }

    /// Total bytes across all flows in the trace.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }
}

/// A flow currently injecting into a port's fluid queue.
#[derive(Clone, Copy, Debug)]
struct Injector {
    /// Instant the injection finishes (`start + ceil(bytes / access)`).
    end: Time,
    /// Mass still to be injected, in units.
    remaining: u128,
}

/// Per-port audit snapshot for the mass-conservation invariant.
#[derive(Clone, Copy, Debug)]
pub struct FluidPortAudit {
    /// Switch node carrying this fluid port.
    pub node: NodeId,
    /// Egress port index on that switch.
    pub port: u16,
    /// Cumulative mass injected into the port's fluid queue (units).
    pub injected: u128,
    /// Cumulative mass drained from the port's fluid queue (units).
    pub drained: u128,
    /// Mass currently queued (units).
    pub backlog: u128,
}

/// Snapshot of the whole fluid subsystem for the audit layer.
#[derive(Clone, Debug, Default)]
pub struct FluidAudit {
    /// One entry per fluid-loaded port, in fixed port order.
    pub ports: Vec<FluidPortAudit>,
}

/// Fluid state for one switch egress port.
#[derive(Clone, Debug)]
struct FluidPort {
    node: NodeId,
    port: u16,
    /// Port line rate, bits/s.
    line_bps: u64,
    /// Injection rate per background flow, bits/s.
    access_bps: u64,
    /// Arrival trace for this port, reversed (pop due arrivals from the
    /// back in O(1)).
    arrivals: Vec<(Time, u64)>,
    /// Flows currently injecting.
    injectors: Vec<Injector>,
    /// FIFO completion offsets: a flow whose last unit entered the queue
    /// when `injected == off` completes when `drained >= off`.
    completions: BinaryHeap<Reverse<u128>>,
    /// Mass currently queued, in units.
    backlog: u128,
    /// Cumulative mass injected / drained, in units.
    injected: u128,
    drained: u128,
    /// Current fluid service rate, bits/s (piecewise constant).
    service_bps: u64,
    /// Foreground packets are queued or serializing at this port.
    presence: bool,
    /// The port's data priority is PFC-paused by the downstream peer.
    paused: bool,
    /// FIFO admission stamps: for every foreground data-class packet
    /// queued at this port, the cumulative injected mass (units) at its
    /// admission — the fluid logically ahead of it in FIFO order.
    stamps: VecDeque<u128>,
    /// Fluid mass (units) already charged to some packet's serialization,
    /// monotone — prevents two packets from both paying for the same
    /// fluid bytes.
    charged: u128,
}

impl FluidPort {
    /// Aggregate injection rate of all active injectors, bits/s.
    fn inflow_bps(&self) -> u64 {
        self.access_bps.saturating_mul(self.injectors.len() as u64)
    }

    /// The rate at which `drained` currently grows, bits/s.
    fn drain_bps(&self) -> u64 {
        if self.backlog > 0 {
            self.service_bps
        } else {
            self.inflow_bps().min(self.service_bps)
        }
    }

    /// Project the backlog at `now >= last` without mutating state.
    fn backlog_at(&self, dt_ps: u64) -> u128 {
        let supply = self.backlog + self.injected_at(dt_ps) - self.injected;
        let cap = self.service_bps as u128 * dt_ps as u128;
        supply - supply.min(cap)
    }

    /// Project cumulative injected mass at `last + dt_ps` without mutating
    /// state (injection ends are epochs, so `remaining` bounds are exact).
    fn injected_at(&self, dt_ps: u64) -> u128 {
        let per_injector = self.access_bps as u128 * dt_ps as u128;
        self.injected
            + self
                .injectors
                .iter()
                .map(|f| per_injector.min(f.remaining))
                .sum::<u128>()
    }
}

/// The fluid background-traffic solver.
///
/// Owned by `Sim` when `SimConfig::background` is set; all methods are
/// cheap no-ops once every port's trace is exhausted and drained.
#[derive(Clone, Debug)]
pub struct FluidState {
    ports: Vec<FluidPort>,
    /// `(node, egress port) -> index into ports`.
    lookup: BTreeMap<(NodeId, u16), u32>,
    /// Instant the mass state was last settled to.
    last: Time,
    /// Buggify: leak one byte of drained accounting per settled segment.
    leak: bool,
    /// Counters surfaced into `SimCounters` at end of run.
    flows_started: u64,
    flows_completed: u64,
    epochs: u64,
}

/// Buggify mass-leak size: one byte of drained accounting per segment.
const LEAK_UNITS: u128 = UNITS_PER_BYTE;

impl FluidState {
    /// Build the solver from a background spec.
    ///
    /// `line_rate_of(node, port)` must return the egress line rate in
    /// bits/s; panics if a listed port is unknown (zero rate) or listed
    /// twice. `leak` enables the buggified drained-mass leak used to prove
    /// the audit invariant detects accounting bugs.
    pub fn new(
        bg: &BackgroundLoad,
        mut line_rate_of: impl FnMut(NodeId, u16) -> u64,
        leak: bool,
    ) -> Self {
        let mut ports = Vec::with_capacity(bg.ports.len());
        let mut lookup = BTreeMap::new();
        for (idx, &(node, port)) in bg.ports.iter().enumerate() {
            let line_bps = line_rate_of(node, port);
            assert!(
                line_bps > 0,
                "background port ({node}, {port}) has no egress rate"
            );
            let access_bps = if bg.access_bps == 0 {
                line_bps
            } else {
                bg.access_bps
            };
            let prev = lookup.insert((node, port), idx as u32);
            assert!(prev.is_none(), "background port ({node}, {port}) listed twice");
            let mut arrivals: Vec<(Time, u64)> = bg
                .flows
                .iter()
                .filter(|f| f.port == idx as u32)
                .map(|f| (f.start, f.bytes))
                .collect();
            assert!(
                arrivals.windows(2).all(|w| w[0].0 <= w[1].0),
                "background arrivals for port ({node}, {port}) must be sorted"
            );
            // Reverse so settling pops due arrivals from the back in O(1).
            arrivals.reverse();
            ports.push(FluidPort {
                node,
                port,
                line_bps,
                access_bps,
                arrivals,
                injectors: Vec::new(),
                completions: BinaryHeap::new(),
                backlog: 0,
                injected: 0,
                drained: 0,
                service_bps: 0,
                presence: false,
                paused: false,
                stamps: VecDeque::new(),
                charged: 0,
            });
        }
        FluidState {
            ports,
            lookup,
            last: Time::ZERO,
            leak,
            flows_started: 0,
            flows_completed: 0,
            epochs: 0,
        }
    }

    fn port_index(&self, node: NodeId, port: u16) -> Option<usize> {
        self.lookup.get(&(node, port)).map(|&i| i as usize)
    }

    /// Current fluid service rate at a port, bits/s (0 if not loaded).
    pub fn service_bps(&self, node: NodeId, port: u16) -> u64 {
        match self.port_index(node, port) {
            Some(i) => self.ports[i].service_bps,
            None => 0,
        }
    }

    /// Projected fluid queue occupancy at `now`, in bytes (0 if the port
    /// carries no fluid load). Read-only: projects the piecewise-constant
    /// rates forward from the last settled instant.
    pub fn occupancy_bytes(&self, node: NodeId, port: u16, now: Time) -> u64 {
        let Some(i) = self.port_index(node, port) else {
            return 0;
        };
        let p = &self.ports[i];
        debug_assert!(now >= self.last);
        let units = p.backlog_at(now.as_ps().saturating_sub(self.last.as_ps()));
        (units / UNITS_PER_BYTE) as u64
    }

    /// Stamp a foreground data-class packet admitted to a fluid-loaded
    /// port with its FIFO position: the cumulative injected fluid mass at
    /// admission, i.e. all fluid logically ahead of it in the shared
    /// queue. No-op for unloaded ports. Must be paired with exactly one
    /// [`Self::pop_stamp`] when the packet starts serializing (the data
    /// queue is FIFO, so stamps and packets stay aligned).
    pub fn push_stamp(&mut self, node: NodeId, port: u16, now: Time) {
        let Some(i) = self.port_index(node, port) else {
            return;
        };
        let dt = now.as_ps().saturating_sub(self.last.as_ps());
        let p = &mut self.ports[i];
        let pos = p.injected_at(dt);
        p.stamps.push_back(pos);
    }

    /// Pop the admission stamp of the data-class packet now reaching the
    /// head of a fluid-loaded port and charge it the fluid bytes it owes:
    /// mass injected before its admission that has neither drained nor
    /// been charged to an earlier packet. The packet serializes behind
    /// exactly those bytes at line rate — emulating FIFO interleaving of
    /// the fluid and packet streams without per-packet fluid events — and
    /// the charged mass is drained here (it leaves the wire during the
    /// packet's serialization; accounting it at the start of that interval
    /// keeps the conservation identity exact). Returns 0 for unloaded
    /// ports.
    pub fn pop_stamp(&mut self, node: NodeId, port: u16, now: Time) -> u64 {
        let Some(i) = self.port_index(node, port) else {
            return 0;
        };
        if self.ports[i].stamps.is_empty() {
            return 0;
        }
        self.settle_to(now);
        let mut completed = 0u64;
        let p = &mut self.ports[i];
        let Some(pos) = p.stamps.pop_front() else {
            return 0;
        };
        // Mass physically drained so far, via the conservation identity —
        // immune to the buggified drained-counter leak.
        let drained_true = p.injected - p.backlog;
        let base = p.charged.max(drained_true);
        let charge = pos.saturating_sub(base);
        p.charged = p.charged.max(pos);
        // `pos <= injected`, so `charge <= injected - drained_true ==
        // backlog`: the subtraction cannot underflow.
        p.backlog -= charge;
        p.drained += charge;
        while let Some(&Reverse(off)) = p.completions.peek() {
            if p.drained >= off {
                p.completions.pop();
                completed += 1;
            } else {
                break;
            }
        }
        self.flows_completed += completed;
        (charge / UNITS_PER_BYTE) as u64
    }

    /// Update the foreground-presence flag (packets queued or serializing)
    /// for a port. Returns true if this changed the bandwidth split and
    /// the pending epoch must be rescheduled.
    pub fn set_presence(&mut self, node: NodeId, port: u16, presence: bool, now: Time) -> bool {
        let Some(i) = self.port_index(node, port) else {
            return false;
        };
        if self.ports[i].presence == presence {
            return false;
        }
        self.settle_to(now);
        self.ports[i].presence = presence;
        self.refresh_rates(now);
        true
    }

    /// Update the PFC-paused flag for a port's data priority. Returns true
    /// if the pending epoch must be rescheduled.
    pub fn set_paused(&mut self, node: NodeId, port: u16, paused: bool, now: Time) -> bool {
        let Some(i) = self.port_index(node, port) else {
            return false;
        };
        if self.ports[i].paused == paused {
            return false;
        }
        self.settle_to(now);
        self.ports[i].paused = paused;
        self.refresh_rates(now);
        true
    }

    /// Process a scheduled fluid epoch: settle mass to `now`, refresh the
    /// piecewise-constant rates. The caller reschedules via [`Self::plan`].
    pub fn on_epoch(&mut self, now: Time) {
        self.epochs += 1;
        self.settle_to(now);
        self.refresh_rates(now);
    }

    /// Settle all per-port mass state from `last` to `now` using the
    /// current piecewise-constant rates, then process arrivals, injection
    /// ends, and completions due at or before `now`.
    fn settle_to(&mut self, now: Time) {
        debug_assert!(now >= self.last, "fluid settle must move forward");
        let dt = now.as_ps().saturating_sub(self.last.as_ps());
        for p in &mut self.ports {
            if dt > 0 {
                // Injection: each active injector contributes
                // min(rate·Δt, remaining) — exact, and injection ends are
                // epochs so `remaining` hits zero exactly at `end`.
                let per_injector = p.access_bps as u128 * dt as u128;
                let mut inj = 0u128;
                for f in &mut p.injectors {
                    let seg = per_injector.min(f.remaining);
                    f.remaining -= seg;
                    inj += seg;
                }
                p.injected += inj;
                // Drain: capacity service·Δt against backlog + new mass.
                let supply = p.backlog + inj;
                let mut drained = supply.min(p.service_bps as u128 * dt as u128);
                p.backlog = supply - drained;
                if self.leak && drained >= LEAK_UNITS {
                    // Buggify: under-count drained mass by one byte. The
                    // backlog above already shrank by the true amount, so
                    // injected != drained + backlog from here on — the
                    // audit's fluid-conservation invariant must catch it.
                    drained -= LEAK_UNITS;
                }
                p.drained += drained;
            }
            // Retire injectors whose injection ended (remaining hit 0 at
            // their scheduled end). Record the FIFO completion offset: the
            // flow's last unit drains when cumulative drained mass reaches
            // the cumulative injected mass at its injection end.
            let injected_now = p.injected;
            p.injectors.retain(|f| {
                if f.remaining == 0 {
                    debug_assert!(f.end <= now);
                    p.completions.push(Reverse(injected_now));
                    false
                } else {
                    true
                }
            });
            // Admit arrivals due at or before `now`. In a live Sim the
            // pending epoch is always scheduled at the next arrival, so
            // admission happens exactly at `start`; a late admission (only
            // reachable by driving epochs by hand in tests) simply starts
            // the injection at `now`.
            while let Some(&(start, bytes)) = p.arrivals.last() {
                if start > now {
                    break;
                }
                p.arrivals.pop();
                let mass = bytes as u128 * UNITS_PER_BYTE;
                let ser_ps = mass.div_ceil(p.access_bps as u128) as u64;
                p.injectors.push(Injector {
                    end: now + Time::from_ps(ser_ps),
                    remaining: mass,
                });
                self.flows_started += 1;
            }
            // Pop completed flows.
            while let Some(&Reverse(off)) = p.completions.peek() {
                if p.drained >= off {
                    p.completions.pop();
                    self.flows_completed += 1;
                } else {
                    break;
                }
            }
        }
        self.last = now;
    }

    /// Recompute each port's fluid service rate from the current flags and
    /// backlog. Rates stay constant until the next settle.
    ///
    /// The port is one line-rate FIFO server. While foreground packets are
    /// present the server's capacity is consumed by packet serialization —
    /// including the fluid mass each packet drags along via its admission
    /// stamp, drained in [`Self::pop_stamp`] — so the autonomous fluid
    /// service is zero: draining in parallel would double-spend the wire.
    /// With no packets present the fluid has the whole line.
    fn refresh_rates(&mut self, _now: Time) {
        for p in &mut self.ports {
            if p.paused || p.presence {
                p.service_bps = 0;
                continue;
            }
            // Fluid demand: line rate while backlogged, else the aggregate
            // injection rate.
            let demand = if p.backlog > 0 {
                p.line_bps
            } else {
                p.inflow_bps().min(p.line_bps)
            };
            p.service_bps = demand;
        }
    }

    /// The first arrival across all ports — where `Sim` schedules the
    /// initial fluid epoch (exactly at the arrival instant, unlike
    /// [`Self::plan`] which never schedules at the current instant).
    pub fn first_epoch(&self) -> Option<Time> {
        self.ports
            .iter()
            .filter_map(|p| p.arrivals.last().map(|&(start, _)| start))
            .min()
    }

    /// Earliest instant at which any port's piecewise-constant rates
    /// change: next arrival, injection end, backlog-empty crossing, or
    /// flow completion. `None` once all background traffic is fully
    /// drained.
    pub fn plan(&self, now: Time) -> Option<Time> {
        let mut next = Time::MAX;
        for p in &self.ports {
            if let Some(&(start, _)) = p.arrivals.last() {
                next = next.min(start);
            }
            for f in &p.injectors {
                next = next.min(f.end);
            }
            let drain = p.drain_bps();
            // Backlog-empty crossing: service outpaces inflow.
            let inflow = p.inflow_bps();
            if p.backlog > 0 && p.service_bps > inflow {
                let gap = (p.service_bps - inflow) as u128;
                let dt = p.backlog.div_ceil(gap);
                next = next.min(now + Time::from_ps(dt.min(u64::MAX as u128) as u64));
            }
            // Next FIFO completion at the current drain rate.
            if let Some(&Reverse(off)) = p.completions.peek() {
                if drain > 0 {
                    let dt = (off - p.drained).div_ceil(drain as u128);
                    next = next.min(now + Time::from_ps(dt.min(u64::MAX as u128) as u64));
                }
            }
        }
        if next == Time::MAX {
            None
        } else {
            // Work due exactly at `now` was handled by the settle that
            // preceded this plan; never schedule a same-instant epoch or
            // the solver would spin.
            Some(next.max(now + Time::from_ps(1)))
        }
    }

    /// Audit snapshot of the mass-conservation state.
    pub fn audit_view(&self) -> FluidAudit {
        FluidAudit {
            ports: self
                .ports
                .iter()
                .map(|p| FluidPortAudit {
                    node: p.node,
                    port: p.port,
                    injected: p.injected,
                    drained: p.drained,
                    backlog: p.backlog,
                })
                .collect(),
        }
    }

    /// Background flows that have started injecting.
    pub fn flows_started(&self) -> u64 {
        self.flows_started
    }

    /// Background flows fully drained through their port.
    pub fn flows_completed(&self) -> u64 {
        self.flows_completed
    }

    /// Fluid epochs processed (scheduler events consumed by the solver).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Total mass injected so far across all ports, in bytes.
    pub fn injected_bytes(&self) -> u64 {
        let units: u128 = self.ports.iter().map(|p| p.injected).sum();
        (units / UNITS_PER_BYTE) as u64
    }

    /// Fold every deterministic field of the fluid solver into a state
    /// digest ([`crate::sim::Sim::state_digest`]): per-port mass accounting
    /// (backlog, injected, drained, charged), the piecewise-constant rate
    /// state, injector/stamp queues, and the settle clock.
    pub(crate) fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        fold(self.last.as_ps());
        fold(self.flows_started);
        fold(self.flows_completed);
        fold(self.epochs);
        for p in &self.ports {
            fold(p.node as u64);
            fold(p.port as u64);
            fold(p.backlog as u64);
            fold((p.backlog >> 64) as u64);
            fold(p.injected as u64);
            fold((p.injected >> 64) as u64);
            fold(p.drained as u64);
            fold((p.drained >> 64) as u64);
            fold(p.charged as u64);
            fold((p.charged >> 64) as u64);
            fold(p.service_bps);
            fold(p.presence as u64 | (p.paused as u64) << 1);
            fold(p.arrivals.len() as u64);
            fold(p.injectors.len() as u64);
            for inj in &p.injectors {
                fold(inj.end.as_ps());
                fold(inj.remaining as u64);
            }
            fold(p.stamps.len() as u64);
            for &s in &p.stamps {
                fold(s as u64);
            }
        }
    }

    /// Test hook for the snapshot-completeness fleet: leak one unit of
    /// backlog mass on the first fluid-loaded port. A correct
    /// [`crate::sim::Sim::state_digest`] must notice.
    #[doc(hidden)]
    pub fn tamper_backlog(&mut self) {
        if let Some(p) = self.ports.first_mut() {
            p.backlog += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_port_load(flows: Vec<(u64, u64)>) -> BackgroundLoad {
        BackgroundLoad {
            ports: vec![(9, 0)],
            flows: flows
                .into_iter()
                .map(|(start_ns, bytes)| FluidFlowSpec {
                    start: Time::from_ns(start_ns),
                    bytes,
                    port: 0,
                })
                .collect(),
            access_bps: 0,
        }
    }

    fn drive_to_quiescence(f: &mut FluidState, mut now: Time) -> Time {
        let mut steps = 0;
        while let Some(next) = f.plan(now) {
            now = next;
            f.on_epoch(now);
            steps += 1;
            assert!(steps < 10_000, "fluid solver failed to quiesce");
        }
        now
    }

    fn assert_conserved(f: &FluidState) {
        for p in &f.audit_view().ports {
            assert_eq!(
                p.injected,
                p.drained + p.backlog,
                "mass conservation violated on port ({}, {})",
                p.node,
                p.port
            );
        }
    }

    #[test]
    fn empty_load_is_inert() {
        let bg = single_port_load(vec![]);
        let f = FluidState::new(&bg, |_, _| 100_000_000_000, false);
        assert_eq!(f.plan(Time::ZERO), None);
        assert_eq!(f.occupancy_bytes(9, 0, Time::from_ms(1)), 0);
        assert_eq!(f.service_bps(9, 0), 0);
    }

    #[test]
    fn single_flow_injects_and_drains_exactly() {
        // One 1 MB flow at line rate into an idle port: it injects and
        // drains concurrently, completing exactly when its last unit
        // arrives (FIFO queue never backs up at equal rates).
        let bg = single_port_load(vec![(1000, 1_000_000)]);
        let mut f = FluidState::new(&bg, |_, _| 100_000_000_000, false);
        let end = drive_to_quiescence(&mut f, Time::ZERO);
        assert_eq!(f.flows_started(), 1);
        assert_eq!(f.flows_completed(), 1);
        assert_eq!(f.injected_bytes(), 1_000_000);
        assert_conserved(&f);
        // 1 MB at 100 Gbps serializes in 80 us.
        let expect = Time::from_ns(1000) + Time::from_ps(80_000_000_000 / 1_000);
        assert!(
            end >= expect && end <= expect + Time::from_ns(2),
            "completed at {end:?}, expected ~{expect:?}"
        );
    }

    #[test]
    fn overlapping_flows_build_and_drain_backlog() {
        // Two simultaneous line-rate flows halve each other's effective
        // drain: 2 MB total injected in 80 us, drained in 160 us.
        let bg = single_port_load(vec![(0, 1_000_000), (0, 1_000_000)]);
        let mut f = FluidState::new(&bg, |_, _| 100_000_000_000, false);
        f.on_epoch(Time::from_ps(1));
        // Mid-injection the backlog is growing at line rate.
        let mid = Time::from_us(40);
        f.on_epoch(mid);
        assert_conserved(&f);
        let occ = f.occupancy_bytes(9, 0, mid);
        assert!(occ > 400_000, "expected ~500 KB backlog, got {occ}");
        let end = drive_to_quiescence(&mut f, mid);
        assert_eq!(f.flows_completed(), 2);
        assert_conserved(&f);
        let expect = Time::from_us(160);
        assert!(
            end >= expect - Time::from_ns(2) && end <= expect + Time::from_ns(2),
            "drained at {end:?}, expected ~{expect:?}"
        );
        assert_eq!(f.occupancy_bytes(9, 0, end), 0);
    }

    #[test]
    fn pause_halts_drain_and_resume_restores_it() {
        let bg = single_port_load(vec![(0, 1_000_000)]);
        let mut f = FluidState::new(&bg, |_, _| 100_000_000_000, false);
        f.on_epoch(Time::from_ps(1));
        assert!(f.set_paused(9, 0, true, Time::from_us(10)));
        assert_eq!(f.service_bps(9, 0), 0);
        // While paused the flow keeps injecting: backlog grows.
        f.on_epoch(Time::from_us(40));
        assert_conserved(&f);
        let occ = f.occupancy_bytes(9, 0, Time::from_us(40));
        assert!(occ > 300_000, "paused backlog should accumulate, got {occ}");
        assert!(f.set_paused(9, 0, false, Time::from_us(50)));
        let end = drive_to_quiescence(&mut f, Time::from_us(50));
        assert_eq!(f.flows_completed(), 1);
        assert_conserved(&f);
        // 40 us of pause shifts the ~80 us completion to ~120 us.
        assert!(end >= Time::from_us(118) && end <= Time::from_us(122));
    }

    #[test]
    fn presence_halts_service_and_packets_drain_their_charges() {
        let bg = single_port_load(vec![(0, 10_000_000)]);
        let line = 100_000_000_000u64;
        let mut f = FluidState::new(&bg, |_, _| line, false);
        f.on_epoch(Time::from_ps(1));
        assert_eq!(f.service_bps(9, 0), line);
        // Foreground packets arrive: the single FIFO server is theirs, so
        // autonomous fluid service stops entirely.
        assert!(f.set_presence(9, 0, true, Time::from_us(1)));
        assert_eq!(f.service_bps(9, 0), 0);
        // A packet admitted now is stamped with everything injected so
        // far; when it reaches the head it is charged exactly that mass,
        // which physically drains from the backlog.
        f.push_stamp(9, 0, Time::from_us(2));
        let occ_before = f.occupancy_bytes(9, 0, Time::from_us(3));
        assert!(occ_before > 0);
        let owed = f.pop_stamp(9, 0, Time::from_us(3));
        // 2 us of line-rate injection minus 1 us drained before presence.
        assert!(
            owed > 10_000 && owed <= 25_000,
            "owed {owed} bytes, expected ~12.5 KB"
        );
        assert!(f.occupancy_bytes(9, 0, Time::from_us(3)) < occ_before);
        // A second packet admitted immediately after owes only the fluid
        // injected between the two admissions.
        f.push_stamp(9, 0, Time::from_us(3));
        let owed2 = f.pop_stamp(9, 0, Time::from_us(4));
        assert!(
            owed2 <= 13_000,
            "consecutive packets must not re-charge drained mass, owed {owed2}"
        );
        assert_conserved(&f);
        // Foreground leaves: fluid gets the full line back.
        assert!(f.set_presence(9, 0, false, Time::from_us(5)));
        assert_eq!(f.service_bps(9, 0), line);
        drive_to_quiescence(&mut f, Time::from_us(5));
        assert_eq!(f.flows_completed(), 1);
        assert_conserved(&f);
    }

    #[test]
    fn poisson_trace_is_deterministic_and_hits_target_load() {
        let line = 100_000_000_000u64;
        let until = Time::from_ms(50);
        let a = BackgroundLoad::poisson(vec![(9, 0)], line, 0.5, 1_000_000, 42, until);
        let b = BackgroundLoad::poisson(vec![(9, 0)], line, 0.5, 1_000_000, 42, until);
        assert_eq!(a.flows, b.flows, "same seed must give the same trace");
        let offered = a.total_bytes() as f64 * 8.0 / until.as_secs_f64();
        let target = line as f64 * 0.5;
        assert!(
            (offered / target - 1.0).abs() < 0.25,
            "offered {offered:.3e} bps vs target {target:.3e} bps"
        );
        // A different seed gives a different trace.
        let c = BackgroundLoad::poisson(vec![(9, 0)], line, 0.5, 1_000_000, 43, until);
        assert_ne!(a.flows, c.flows);
    }

    #[test]
    fn buggified_leak_breaks_conservation() {
        let bg = single_port_load(vec![(0, 1_000_000)]);
        let mut f = FluidState::new(&bg, |_, _| 100_000_000_000, true);
        drive_to_quiescence(&mut f, Time::ZERO);
        let v = f.audit_view();
        let p = &v.ports[0];
        assert!(
            p.injected != p.drained + p.backlog,
            "leak buggify must break the conservation identity"
        );
    }

    #[test]
    fn mass_is_conserved_across_random_traces() {
        let line = 100_000_000_000u64;
        for seed in 0..8 {
            let bg = BackgroundLoad::poisson(
                vec![(9, 0), (9, 1)],
                line,
                0.6,
                500_000,
                seed,
                Time::from_ms(5),
            );
            let mut f = FluidState::new(&bg, |_, _| line, false);
            // Interleave pause/presence churn with epochs to stress the
            // piecewise segments.
            let mut now = Time::ZERO;
            let mut step = 0u64;
            while let Some(next) = f.plan(now) {
                now = next;
                f.on_epoch(now);
                step += 1;
                if step % 7 == 0 {
                    f.set_presence(9, 0, step % 14 == 0, now);
                }
                if step % 11 == 0 {
                    f.set_paused(9, 1, step % 22 == 0, now);
                }
                assert!(step < 100_000, "failed to quiesce");
                assert_conserved(&f);
            }
            f.set_paused(9, 1, false, now);
            f.set_presence(9, 0, false, now);
            let end = drive_to_quiescence(&mut f, now);
            assert_conserved(&f);
            assert_eq!(
                f.flows_started(),
                f.flows_completed(),
                "seed {seed}: all background flows must drain by {end:?}"
            );
            assert_eq!(f.injected_bytes(), bg.total_bytes());
        }
    }
}
