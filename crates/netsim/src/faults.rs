//! Deterministic fault-regime subsystem: link flaps, degradation epochs,
//! PFC pause storms, and the CBD-style PFC deadlock monitor.
//!
//! A [`FaultSchedule`] is a plain list of timestamped [`FaultKind`]
//! transitions installed via [`crate::SimConfig::faults`]. The simulator
//! schedules every entry as a first-class `Event::Fault` through the same
//! [`simcore::EventQueue`] as all other events, so fault runs stay
//! bit-identical across repeated runs — fault times are data, never wall
//! clock.
//!
//! This module is the *schedule* only. The state a transition flips lives
//! on the link's two [`crate::node::EgressPort`]s (`down`, `storm`,
//! `degrade`), next to the pause bits and queues it interacts with, and is
//! applied by `State::on_fault` (`fabric.rs`); a state digest of the nodes
//! therefore covers it without knowing faults exist.
//!
//! Three regimes are supported, always applied to **both directions** of
//! the named link (`node`, `port` identifies one attachment; the peer
//! attachment is resolved from the topology):
//!
//! - **link flaps** ([`FaultKind::LinkDown`] / [`FaultKind::LinkUp`]): a
//!   down link transmits nothing (switch dequeue and host NIC pull both
//!   stall, building ordinary backpressure), and any non-PFC packet whose
//!   propagation ends while the link is down is dropped with accounted
//!   loss (`SimCounters::fault_link_drops` / `fault_ctrl_drops`, mirrored
//!   in the audit's conservation tallies). PFC control frames are exempt —
//!   the control plane is modeled as out-of-band and reliable — so pause
//!   state never desynchronizes across a flap;
//! - **degradation epochs** ([`FaultKind::DegradeStart`] /
//!   [`FaultKind::DegradeEnd`]): the link serializes at
//!   `rate × rate_factor` and adds `extra_prop` propagation delay for the
//!   duration of the epoch. Applied at dequeue time, so packets already in
//!   flight are unaffected;
//! - **PFC pause storms** ([`FaultKind::PauseStart`] /
//!   [`FaultKind::PauseEnd`]): the egress pause bit for (port, priority)
//!   is pinned on, and genuine PFC frames for that (port, priority) are
//!   swallowed while the storm lasts. On release the bit is restored from
//!   the pause authority — the peer switch's ingress pause state (hosts
//!   never emit pauses) — so a resume lost "inside" the storm cannot wedge
//!   the port.
//!
//! The deadlock monitor (`audit::detect_pause_cycle`) runs after every
//! audited event whenever a fault schedule is installed. It builds the classic
//! circular-buffer-dependency wait-for graph: vertex `(A, p, q)` for every
//! paused switch egress, and an edge to `(B, p2, q)` when `B` is the peer
//! across link `(A, p)` and `B`'s paused egress queue `(p2, q)` holds at
//! least one packet that entered `B` through the `(A, p)` link — i.e. the
//! resume `A` waits for is itself blocked behind a paused queue. A cycle
//! is a PFC deadlock and is flagged as a structured
//! [`crate::audit::ViolationKind::PfcDeadlock`] violation (latched: one
//! report per deadlock episode, re-armed when the cycle clears).

use simcore::{SimRng, Time};

use crate::packet::NodeId;

/// One fault transition. All variants name a link by one attachment
/// (`node`, `port`); the simulator applies the transition to both
/// directions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The link goes down: nothing serializes onto it, and non-PFC packets
    /// arriving over it are dropped (accounted loss).
    LinkDown {
        /// One attachment of the link.
        node: NodeId,
        /// Port index at `node`.
        port: u16,
    },
    /// The link comes back up; both endpoints are kicked to resume
    /// transmission.
    LinkUp {
        /// One attachment of the link.
        node: NodeId,
        /// Port index at `node`.
        port: u16,
    },
    /// Begin a degradation epoch: the link runs at `rate × rate_factor`
    /// with `extra_prop` added propagation delay.
    DegradeStart {
        /// One attachment of the link.
        node: NodeId,
        /// Port index at `node`.
        port: u16,
        /// Multiplier on the line rate, in `(0, 1]`.
        rate_factor: f64,
        /// Additional one-way propagation delay.
        extra_prop: Time,
    },
    /// End the degradation epoch; the link returns to nominal rate/delay.
    DegradeEnd {
        /// One attachment of the link.
        node: NodeId,
        /// Port index at `node`.
        port: u16,
    },
    /// Begin a pause storm: pin PFC pause on `(node, port, prio)`'s egress
    /// and swallow genuine PFC frames for it until [`FaultKind::PauseEnd`].
    PauseStart {
        /// Node whose egress is force-paused.
        node: NodeId,
        /// Port index at `node`.
        port: u16,
        /// Data priority (queue index) pinned paused.
        prio: u8,
    },
    /// End the pause storm; the pause bit is restored from the peer's
    /// genuine ingress pause state.
    PauseEnd {
        /// Node whose egress was force-paused.
        node: NodeId,
        /// Port index at `node`.
        port: u16,
        /// Data priority (queue index) released.
        prio: u8,
    },
}

impl FaultKind {
    /// The link attachment this fault targets.
    pub fn link(&self) -> (NodeId, u16) {
        match *self {
            FaultKind::LinkDown { node, port }
            | FaultKind::LinkUp { node, port }
            | FaultKind::DegradeStart { node, port, .. }
            | FaultKind::DegradeEnd { node, port }
            | FaultKind::PauseStart { node, port, .. }
            | FaultKind::PauseEnd { node, port, .. } => (node, port),
        }
    }
}

/// One timestamped fault transition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Simulated time the transition applies.
    pub at: Time,
    /// The transition.
    pub kind: FaultKind,
}

/// A deterministic fault schedule: the full list of transitions for one
/// run, fixed before the simulation starts. Entries need not be sorted —
/// the event queue orders them by `(time, insertion seq)` like every other
/// event — but same-time entries apply in list order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// The transitions.
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// New empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// True when the schedule has no transitions.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of transitions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Append one transition.
    pub fn push(&mut self, at: Time, kind: FaultKind) -> &mut Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// One link flap: down at `down_at`, back up at `up_at`.
    pub fn link_flap(&mut self, node: NodeId, port: u16, down_at: Time, up_at: Time) -> &mut Self {
        assert!(down_at < up_at, "flap must come back up after going down");
        self.push(down_at, FaultKind::LinkDown { node, port });
        self.push(up_at, FaultKind::LinkUp { node, port });
        self
    }

    /// One degradation epoch over `[from, to)`.
    pub fn degrade(
        &mut self,
        node: NodeId,
        port: u16,
        from: Time,
        to: Time,
        rate_factor: f64,
        extra_prop: Time,
    ) -> &mut Self {
        assert!(from < to, "degradation epoch must have positive length");
        assert!(
            rate_factor > 0.0 && rate_factor <= 1.0,
            "rate_factor must be in (0, 1]"
        );
        self.push(
            from,
            FaultKind::DegradeStart {
                node,
                port,
                rate_factor,
                extra_prop,
            },
        );
        self.push(to, FaultKind::DegradeEnd { node, port });
        self
    }

    /// One pause storm on `(node, port, prio)` over `[from, to)`.
    pub fn pause_storm(
        &mut self,
        node: NodeId,
        port: u16,
        prio: u8,
        from: Time,
        to: Time,
    ) -> &mut Self {
        assert!(from < to, "pause storm must have positive length");
        self.push(from, FaultKind::PauseStart { node, port, prio });
        self.push(to, FaultKind::PauseEnd { node, port, prio });
        self
    }

    /// Seed-driven random link flaps: each listed link alternates between
    /// exponentially distributed up-holds (mean `mean_up`) and down-holds
    /// (mean `mean_down`) until `horizon`. Each link draws from an
    /// independent split stream of `seed`, so adding links never perturbs
    /// the others' flap times. Every `LinkDown` gets its matching `LinkUp`
    /// (possibly past `horizon`; the run ends first and never applies it).
    pub fn random_flaps(
        links: &[(NodeId, u16)],
        seed: u64,
        horizon: Time,
        mean_up: Time,
        mean_down: Time,
    ) -> FaultSchedule {
        let mut sched = FaultSchedule::new();
        for (i, &(node, port)) in links.iter().enumerate() {
            let mut rng = SimRng::new(seed).split(i as u64);
            let mut t = Time::ZERO;
            loop {
                let up_hold = Time::from_ps_f64(rng.exponential(mean_up.as_ps() as f64));
                t += up_hold.max(Time::from_ps(1));
                if t >= horizon {
                    break;
                }
                let down_hold = Time::from_ps_f64(rng.exponential(mean_down.as_ps() as f64));
                let up_at = t + down_hold.max(Time::from_ps(1));
                sched.link_flap(node, port, t, up_at);
                t = up_at;
            }
        }
        // Global time order keeps same-time application deterministic and
        // independent of the link list's internal interleaving.
        sched.events.sort_by_key(|e| e.at);
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::detect_pause_cycle;
    use crate::config::SwitchConfig;
    use crate::node::{EgressPort, Node, Switch};
    use crate::packet::{Packet, PacketArena};
    use simcore::Rate;
    use std::collections::BTreeSet;

    #[test]
    fn schedule_builders_emit_paired_transitions() {
        let mut s = FaultSchedule::new();
        s.link_flap(1, 0, Time::from_us(10), Time::from_us(20))
            .degrade(
                2,
                1,
                Time::from_us(5),
                Time::from_us(9),
                0.5,
                Time::from_us(1),
            )
            .pause_storm(3, 2, 0, Time::from_us(1), Time::from_us(2));
        assert_eq!(s.len(), 6);
        assert_eq!(s.events[0].kind, FaultKind::LinkDown { node: 1, port: 0 });
        assert_eq!(s.events[1].kind, FaultKind::LinkUp { node: 1, port: 0 });
        assert_eq!(s.events[0].kind.link(), (1, 0));
        assert!(matches!(s.events[2].kind, FaultKind::DegradeStart { .. }));
        assert!(matches!(
            s.events[5].kind,
            FaultKind::PauseEnd { prio: 0, .. }
        ));
    }

    #[test]
    fn random_flaps_are_deterministic_and_paired() {
        let links = [(4u32, 0u16), (5, 1)];
        let mk = || {
            FaultSchedule::random_flaps(
                &links,
                42,
                Time::from_ms(10),
                Time::from_ms(1),
                Time::from_us(100),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b, "same seed must give the identical schedule");
        assert!(!a.is_empty());
        assert_eq!(a.len() % 2, 0, "every down has its matching up");
        // Per link: transitions alternate down/up in time order.
        for &(node, port) in &links {
            let mut down = false;
            for ev in a.events.iter().filter(|e| e.kind.link() == (node, port)) {
                match ev.kind {
                    FaultKind::LinkDown { .. } => {
                        assert!(!down, "double down on ({node},{port})");
                        down = true;
                    }
                    FaultKind::LinkUp { .. } => {
                        assert!(down, "up without down on ({node},{port})");
                        down = false;
                    }
                    FaultKind::DegradeStart { .. }
                    | FaultKind::DegradeEnd { .. }
                    | FaultKind::PauseStart { .. }
                    | FaultKind::PauseEnd { .. } => unreachable!(),
                }
            }
        }
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
        let other = FaultSchedule::random_flaps(
            &links,
            43,
            Time::from_ms(10),
            Time::from_ms(1),
            Time::from_us(100),
        );
        assert_ne!(a, other, "different seeds must differ");
    }

    const MTBF_US: u64 = 200;
    const MTTR_US: u64 = 50;

    /// One link's random flaps as `(down, up)` windows in time order.
    fn flap_windows(
        links: &[(NodeId, u16)],
        link: (NodeId, u16),
        until: Time,
    ) -> Vec<(Time, Time)> {
        let s = FaultSchedule::random_flaps(
            links,
            42,
            until,
            Time::from_us(MTBF_US),
            Time::from_us(MTTR_US),
        );
        let mut out = Vec::new();
        let mut down_at = None;
        for ev in s.events.iter().filter(|e| e.kind.link() == link) {
            match ev.kind {
                FaultKind::LinkDown { .. } => down_at = Some(ev.at),
                FaultKind::LinkUp { .. } => out.push((down_at.take().unwrap(), ev.at)),
                FaultKind::DegradeStart { .. }
                | FaultKind::DegradeEnd { .. }
                | FaultKind::PauseStart { .. }
                | FaultKind::PauseEnd { .. } => unreachable!(),
            }
        }
        out
    }

    #[test]
    fn windows_are_deterministic_per_seed_and_link() {
        let links = [(3, 0), (4, 1)];
        let a = flap_windows(&links, (3, 0), Time::from_ms(10));
        assert_eq!(a, flap_windows(&links, (3, 0), Time::from_ms(10)));
        let other = flap_windows(&links, (4, 1), Time::from_ms(10));
        assert_ne!(a, other, "links must get independent streams");
        // A link's stream does not depend on the links listed after it.
        assert_eq!(a, flap_windows(&[(3, 0)], (3, 0), Time::from_ms(10)));
    }

    #[test]
    fn windows_are_sorted_and_disjoint() {
        let windows = flap_windows(&[(3, 0)], (3, 0), Time::from_ms(10));
        assert!(!windows.is_empty(), "plan must produce outages");
        let mut prev_up = Time::ZERO;
        for &(down, up) in &windows {
            assert!(down < up, "window must have positive length");
            assert!(down >= prev_up, "windows must not overlap");
            prev_up = up;
        }
    }

    #[test]
    fn availability_approximates_the_renewal_ratio() {
        // Long-run unavailability of an alternating renewal process is
        // MTTR / (MTBF + MTTR) = 50/250 = 20 %.
        let until = Time::from_ms(100);
        let windows = flap_windows(&[(0, 0)], (0, 0), until);
        let down_ps: u64 = windows
            .iter()
            .map(|&(d, u)| u.min(until).as_ps().saturating_sub(d.as_ps()))
            .sum();
        let frac = down_ps as f64 / until.as_ps() as f64;
        assert!(
            (0.1..0.3).contains(&frac),
            "down fraction {frac:.3} should be near 0.2"
        );
    }

    /// Build a switch with `nports` ports at 2 data priorities (+control),
    /// wired so port `p` peers with node `peers[p].0` at its port
    /// `peers[p].1`.
    fn mk_switch(peers: &[(NodeId, u16)]) -> Switch {
        let ports = peers
            .iter()
            .map(|&(peer, peer_port)| {
                EgressPort::new(peer, peer_port, Rate::from_gbps(100), Time::from_us(1), 3)
            })
            .collect();
        Switch::new(SwitchConfig::default(), ports, 2)
    }

    /// Queue one data packet with `cur_in_port` set onto `(port, q)`.
    fn seed_pkt(s: &mut Switch, arena: &mut PacketArena, port: usize, q: u8, in_port: u16) {
        let mut pkt = Packet::data(0, 0, 1, q, 1000, 0, Time::ZERO);
        pkt.header.cur_in_port = in_port;
        let pid = arena.alloc(pkt);
        s.ports[port].enqueue(pid, arena);
    }

    /// Three switches in a directed ring, each pausing the next hop's
    /// ingress: a circular buffer dependency the monitor must flag.
    #[test]
    fn detector_flags_constructed_cycle() {
        let mut arena = PacketArena::new();
        // Nodes 0,1,2; port 0 = toward next in ring, port 1 = from previous.
        // Link i -> i+1: (i, port 0) peers (i+1, port 1).
        let mut s0 = mk_switch(&[(1, 1), (2, 0)]);
        let mut s1 = mk_switch(&[(2, 1), (0, 0)]);
        let mut s2 = mk_switch(&[(0, 1), (1, 0)]);
        for s in [&mut s0, &mut s1, &mut s2] {
            s.ports[0].set_paused(0, true);
            // Transit traffic: the paused egress holds a packet that came in
            // from the previous ring link (ingress port 1).
            seed_pkt(s, &mut arena, 0, 0, 1);
        }
        let switches = [s0, s1, s2].map(Node::Switch);
        let cycle = detect_pause_cycle(&switches, &arena).expect("cycle must be flagged");
        assert_eq!(cycle.len(), 3);
        let nodes: BTreeSet<NodeId> = cycle.iter().map(|v| v.0).collect();
        assert_eq!(nodes, BTreeSet::from([0, 1, 2]));
        assert!(cycle.iter().all(|&(_, p, q)| p == 0 && q == 0));
    }

    /// Same pause pattern but the queues hold only locally injected traffic
    /// (ingress from a host-facing port, not the ring): the wait-for graph
    /// has no edges, so no deadlock.
    #[test]
    fn detector_silent_without_transit_packets() {
        let mut arena = PacketArena::new();
        let mut s0 = mk_switch(&[(1, 1), (2, 0)]);
        let mut s1 = mk_switch(&[(2, 1), (0, 0)]);
        let mut s2 = mk_switch(&[(0, 1), (1, 0)]);
        for s in [&mut s0, &mut s1, &mut s2] {
            s.ports[0].set_paused(0, true);
            // cur_in_port 7: not the ring ingress, so the dependency chain
            // breaks at every hop.
            seed_pkt(s, &mut arena, 0, 0, 7);
        }
        let switches = [s0, s1, s2].map(Node::Switch);
        assert!(detect_pause_cycle(&switches, &arena).is_none());
    }

    /// An acyclic pause chain (A waits on B waits on C, C unpaused) must
    /// stay silent even with transit packets everywhere.
    #[test]
    fn detector_silent_on_acyclic_chain() {
        let mut arena = PacketArena::new();
        let mut s0 = mk_switch(&[(1, 1), (2, 0)]);
        let mut s1 = mk_switch(&[(2, 1), (0, 0)]);
        let mut s2 = mk_switch(&[(0, 1), (1, 0)]);
        for s in [&mut s0, &mut s1, &mut s2] {
            seed_pkt(s, &mut arena, 0, 0, 1);
        }
        // Break the ring: only 0 and 1 are paused.
        s0.ports[0].set_paused(0, true);
        s1.ports[0].set_paused(0, true);
        let switches = [s0, s1, s2].map(Node::Switch);
        assert!(detect_pause_cycle(&switches, &arena).is_none());
    }

    /// Pauses on different priorities never form an edge: the wait-for
    /// relation is per-priority (PFC is per-class).
    #[test]
    fn detector_is_per_priority() {
        let mut arena = PacketArena::new();
        let mut s0 = mk_switch(&[(1, 1), (2, 0)]);
        let mut s1 = mk_switch(&[(2, 1), (0, 0)]);
        let mut s2 = mk_switch(&[(0, 1), (1, 0)]);
        for (i, s) in [&mut s0, &mut s1, &mut s2].into_iter().enumerate() {
            // Alternate priorities around the ring.
            let q = (i % 2) as u8;
            s.ports[0].set_paused(q as usize, true);
            seed_pkt(s, &mut arena, 0, q, 1);
        }
        let switches = [s0, s1, s2].map(Node::Switch);
        assert!(detect_pause_cycle(&switches, &arena).is_none());
    }
}
