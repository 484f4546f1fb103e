//! The fabric's event handlers, all `impl State`: the link layer
//! ([`State::transmit`] is the one place a packet goes onto a wire), the
//! switch path (ECN, admission, dequeue, PFC pause/resume) and the fault
//! transitions of [`crate::faults`] on both ports of a link. The state they
//! change is on the nodes of [`crate::node`], but `State` holds the nodes,
//! so the handlers sit one module up: beside the types they would close a
//! module cycle, which simlint's `layering` rule refuses (`host.rs`
//! likewise). That costs nothing: rustc files an inherent method under its
//! `Self` type's module, so every handler shares `state`'s codegen unit
//! with `State::advance`.

// R5 (DESIGN.md § Static analysis): a per-event path must not abort a run;
// test code is exempt (`clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use simcore::Time;

use crate::audit::SwitchArrive;
use crate::config::Buggify;
use crate::event::Event;
use crate::faults::FaultKind;
use crate::node::{queue_index, Admission, Node, Switch};
use crate::packet::{IntHop, NodeId, PacketId};
use crate::sim::Run;
use crate::state::State;

impl State {
    pub(crate) fn on_port_free(&mut self, run: &mut Run, node: NodeId, port: u16, now: Time) {
        self.port_mut(node, port).busy = false;
        self.kick(run, node, port, now);
    }

    /// Give the attachment at `(node, port)` a chance to transmit: the one
    /// re-kick used after a serialization ends, a PFC resume, a link
    /// recovery and a storm release.
    fn kick(&mut self, run: &mut Run, node: NodeId, port: u16, now: Time) {
        match &self.nodes[node as usize] {
            Node::Switch(_) => self.switch_dequeue(run, node, port, now),
            Node::Host(_) => self.host_poke(run, node, now),
        }
    }

    /// The link layer's transmit step — the only place a packet goes onto a
    /// wire. Marks the port busy, counts the bytes, and schedules the end
    /// of serialization ([`Event::PortFree`]) and then the arrival at the
    /// peer, at the link's effective rate and delay (degradation epochs
    /// included). `extra` is extra one-way delay (non-congestive delay),
    /// zero for host NICs.
    pub(crate) fn transmit(
        &mut self,
        node: NodeId,
        port: u16,
        pid: PacketId,
        extra: Time,
        now: Time,
    ) {
        let size = self.arena.get(pid).size as u64;
        let p = self.port_mut(node, port);
        p.busy = true;
        p.tx_bytes += size;
        let (peer, in_port) = (p.peer, p.peer_port);
        let (rate, prop) = p.effective_link();
        let ser = rate.serialize_time(size);
        self.queue
            .schedule(now + ser, Event::PortFree { node, port });
        self.queue.schedule(
            now + ser + prop + extra,
            Event::Arrive {
                node: peer,
                in_port,
                pkt: pid,
            },
        );
    }

    pub(crate) fn on_arrive(
        &mut self,
        run: &mut Run,
        node: NodeId,
        in_port: u16,
        pkt: PacketId,
        now: Time,
    ) {
        if self.port(node, in_port).down {
            // A dead link drops everything in flight on it.
            return self.fault_drop(run, pkt);
        }
        match &self.nodes[node as usize] {
            Node::Switch(_) => self.switch_arrive(run, node, in_port, pkt, now),
            Node::Host(_) => self.host_arrive(run, node, pkt, now),
        }
    }

    /// A PFC frame ([`Event::Pfc`]) reached the MAC of `(node, port)` — a
    /// switch port or a host NIC alike, on a live link or a dead one (the
    /// frames model an out-of-band reliable control plane): sets or clears
    /// the egress pause bit and, on a resume, kicks the attachment.
    pub(crate) fn on_pfc_frame(
        &mut self,
        run: &mut Run,
        node: NodeId,
        port: u16,
        prio: u8,
        pause: bool,
        now: Time,
    ) {
        let p = self.port_mut(node, port);
        if p.is_stormed(prio as usize) {
            // Storm pin holds: genuine frames are swallowed. The peer's
            // pause authority is re-read at storm release (`set_storm`).
            return;
        }
        p.set_paused(prio as usize, pause);
        if !pause {
            self.kick(run, node, port, now);
        }
    }

    fn switch_arrive(
        &mut self,
        run: &mut Run,
        node: NodeId,
        in_port: u16,
        pid: PacketId,
        now: Time,
    ) {
        let (dst, flow, is_data, data_q, dscp) = {
            let pkt = self.arena.get(pid);
            (
                pkt.dst,
                pkt.flow,
                pkt.kind.is_data(),
                pkt.prio as usize,
                pkt.dscp,
            )
        };
        let egress = run.env.routes.port_for(node, dst, flow);
        let Node::Switch(s) = &mut self.nodes[node as usize] else {
            unreachable!()
        };
        let mut ecn_info = None;
        if is_data {
            let q_pre = s.ports[egress as usize].queues[data_q].bytes;
            let marked = s.ecn_mark(egress, data_q, dscp, 0, &mut self.ecn_rng);
            if marked {
                self.arena.get_mut(pid).ecn_ce = true;
                self.counters.ecn_marks += 1;
            }
            ecn_info = Some((q_pre, dscp, marked));
        }
        let mut info = SwitchArrive {
            node,
            in_port,
            egress,
            queue: queue_index(
                self.arena.get(pid).prio,
                s.ports[egress as usize].queues.len(),
            ) as u8,
            wire: self.arena.get(pid).size as u64,
            is_data,
            dropped: false,
            ecn: ecn_info,
        };
        let mut pauses = Vec::new();
        let admission = s.admit(egress, in_port, pid, 0, &mut self.arena, &mut pauses);
        // The `s` borrow ends here so the audit can re-inspect the switch.
        info.dropped = admission == Admission::Dropped;
        run.obs.on_switch_arrive(self, &info);
        match admission {
            Admission::Dropped => {
                self.counters.drops += 1;
            }
            Admission::Queued => {
                self.emit_pfc(run, node, &pauses, true, now);
                self.switch_dequeue(run, node, egress, now);
            }
        }
    }

    /// Try to start transmitting the next packet on a switch egress port.
    fn switch_dequeue(&mut self, run: &mut Run, node: NodeId, port: u16, now: Time) {
        let Node::Switch(s) = &mut self.nodes[node as usize] else {
            return;
        };
        let p = &mut s.ports[port as usize];
        // A dead egress moves nothing until LinkUp kicks this port.
        if p.down || p.busy {
            return;
        }
        let Some(pid) = p.dequeue(&self.arena) else {
            return;
        };
        let mut resumes = Vec::new();
        let pkt = self.arena.get(pid);
        s.on_dequeue(pkt, 0, &mut resumes);
        let (is_data, prio) = (pkt.kind.is_data(), pkt.prio);
        let nc = match &run.env.switch_cfg.nc_delay {
            Some(nc) if is_data => nc.sample(&mut self.nc_rng),
            _ => Time::ZERO,
        };
        self.transmit(node, port, pid, nc, now);
        if run.env.switch_cfg.int_enabled && is_data {
            // Read after the transmit step, so telemetry reports this
            // packet's bytes and the effective (possibly degraded) rate.
            let p = self.port(node, port);
            let rec = IntHop {
                qlen: p.queues[prio as usize].bytes,
                tx_bytes: p.tx_bytes,
                ts: now,
                rate_bps: p.effective_link().0.as_bps(),
            };
            let pushed = self.arena.append_int(pid, rec);
            debug_assert!(
                pushed,
                "INT path saturated at switch {node}: {} hops means a routing loop",
                crate::packet::INT_MAX_HOPS
            );
        }
        self.emit_pfc(run, node, &resumes, false, now);
    }

    /// Send PFC pause/resume frames upstream out-of-band: each reaches the
    /// peer's MAC one propagation delay later as an [`Event::Pfc`].
    fn emit_pfc(
        &mut self,
        run: &mut Run,
        node: NodeId,
        list: &[(u16, u8)],
        pause: bool,
        now: Time,
    ) {
        for &(in_port, prio) in list {
            let p = self.port(node, in_port);
            let (peer, peer_port, prop) = (p.peer, p.peer_port, p.prop);
            if pause {
                self.counters.pfc_pauses += 1;
            } else {
                self.counters.pfc_resumes += 1;
            }
            run.obs.on_pfc_frame(node, in_port, prio, pause);
            self.queue.schedule(
                now + prop,
                Event::Pfc {
                    node: peer,
                    port: peer_port,
                    prio,
                    pause,
                },
            );
        }
    }

    /// Apply fault-schedule transition `idx` at its scheduled time.
    pub(crate) fn on_fault(&mut self, run: &mut Run, idx: u32, now: Time) {
        self.counters.fault_events += 1;
        #[expect(
            clippy::expect_used,
            reason = "Fault events are only scheduled from an installed schedule"
        )]
        let events = &run
            .env
            .cfg
            .faults
            .as_ref()
            .expect("Fault event without a fault schedule")
            .events;
        match events[idx as usize].kind {
            FaultKind::LinkDown { node, port } => self.set_link_down(run, node, port, true, now),
            FaultKind::LinkUp { node, port } => self.set_link_down(run, node, port, false, now),
            FaultKind::DegradeStart {
                node,
                port,
                rate_factor,
                extra_prop,
            } => self.set_degrade(node, port, Some((rate_factor, extra_prop))),
            FaultKind::DegradeEnd { node, port } => self.set_degrade(node, port, None),
            FaultKind::PauseStart { node, port, prio } => {
                self.set_storm(run, node, port, prio, true, now)
            }
            FaultKind::PauseEnd { node, port, prio } => {
                self.set_storm(run, node, port, prio, false, now)
            }
        }
    }

    /// The two directions of the link at `(node, port)`: that attachment
    /// and its peer's.
    fn link_ends(&self, node: NodeId, port: u16) -> [(NodeId, u16); 2] {
        let p = self.port(node, port);
        [(node, port), (p.peer, p.peer_port)]
    }

    /// Take a link (both attachments) down, or bring it back up. While down,
    /// neither attachment serializes and every packet in flight on the link
    /// is dropped at arrival; on recovery both sides are kicked so queued
    /// traffic resumes.
    fn set_link_down(&mut self, run: &mut Run, node: NodeId, port: u16, down: bool, now: Time) {
        let ends = self.link_ends(node, port);
        for (n, p) in ends {
            self.port_mut(n, p).down = down;
        }
        if !down {
            for (n, p) in ends {
                self.kick(run, n, p, now);
            }
        }
    }

    /// Begin (`Some((rate_factor, extra_prop))`) or end (`None`) a
    /// degradation epoch on both directions of the link at `(node, port)`.
    /// Applied at dequeue time, so already-queued packets see the regime
    /// active when they reach the head of line.
    fn set_degrade(&mut self, node: NodeId, port: u16, eff: Option<(f64, Time)>) {
        for (n, p) in self.link_ends(node, port) {
            self.port_mut(n, p).degrade = eff;
        }
    }

    /// Pin (or release) a persistent PFC pause on `node`'s egress
    /// attachment `port` for `prio` — a pause storm. While pinned, genuine
    /// PFC frames addressed to that attachment are swallowed so the pin
    /// holds; on release the pause bit is restored from the peer's real
    /// pause authority (its ingress pause state).
    fn set_storm(&mut self, run: &mut Run, node: NodeId, port: u16, prio: u8, on: bool, now: Time) {
        let [_, (peer, peer_port)] = self.link_ends(node, port);
        let peer_pauses = |ps: &Switch| ps.ingress_paused(peer_port as usize, prio as usize);
        let paused = on
            || self.nodes[peer as usize]
                .as_switch()
                .is_some_and(peer_pauses);
        let p = self.port_mut(node, port);
        p.set_storm(prio as usize, on);
        p.set_paused(prio as usize, paused);
        if !paused {
            self.kick(run, node, port, now);
        }
    }

    /// Retire a packet caught in flight on a dead link. Data losses are
    /// reported to the audit's conservation tallies (unless the
    /// [`Buggify::FaultDropUnaccounted`] self-test suppresses that to prove
    /// the audit notices); control losses are counted in
    /// [`crate::SimCounters::fault_ctrl_drops`] but never audited, since
    /// control packets are not part of the injected tallies.
    fn fault_drop(&mut self, run: &mut Run, pid: PacketId) {
        let pkt = self.arena.get(pid);
        if pkt.kind.is_data() {
            self.counters.fault_link_drops += 1;
            if run.env.switch_cfg.buggify != Some(Buggify::FaultDropUnaccounted) {
                run.obs.on_link_drop(pkt.size as u64);
            }
        } else {
            self.counters.fault_ctrl_drops += 1;
        }
        // `release` also returns a dropped INT carrier's telemetry box to
        // the pool.
        self.arena.release(pid);
    }
}
