//! The host and flow path's event handlers, all `impl State`: a flow's
//! start and timers, the NIC pull loop that turns a transport's sends into
//! packets, reassembly and the ACK at the receiver, and at the sender the
//! delay normalisation, `on_ack` and the release of a finished flow's live
//! state. They change the flow table and slab (`state.rs`) and the host's
//! flow lists ([`crate::node::Host`]), and sit above both for the reason
//! `fabric.rs` gives.

// R5 (DESIGN.md § Static analysis): a per-event path must not abort a run;
// test code is exempt (`clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use simcore::Time;

use crate::config::{AckPriority, Buggify};
use crate::event::Event;
use crate::node::Node;
use crate::packet::{FlowId, NodeId, Packet, PacketId, PktTag};
use crate::sim::Run;
use crate::state::{Env, State};
use crate::transport_api::{AckEvent, AckKind, TransportCtx, TrySend};

impl State {
    pub(crate) fn on_flow_start(&mut self, run: &mut Run, flow: FlowId, now: Time) {
        run.obs.on_flow_touched(flow);
        let f = &mut self.flows[flow as usize];
        let (src, prio) = (f.record.src, f.record.phys_prio);
        f.active = true;
        let live = f.live;
        {
            let mut ctx = TransportCtx::new(&mut self.queue, now, flow);
            self.live.get_mut(live).transport.on_start(&mut ctx);
        }
        if let Node::Host(h) = &mut self.nodes[src as usize] {
            h.activate(prio, flow);
        } else {
            panic!("flow source {src} is not a host");
        }
        self.host_poke(run, src, now);
    }

    pub(crate) fn on_flow_timer(&mut self, run: &mut Run, flow: FlowId, token: u64, now: Time) {
        let f = &self.flows[flow as usize];
        if !f.active {
            return;
        }
        run.obs.on_flow_touched(flow);
        let (live, src) = (f.live, f.record.src);
        {
            let mut ctx = TransportCtx::new(&mut self.queue, now, flow);
            self.live.get_mut(live).transport.on_timer(token, &mut ctx);
        }
        self.host_poke(run, src, now);
    }

    pub(crate) fn host_arrive(&mut self, run: &mut Run, node: NodeId, pid: PacketId, now: Time) {
        match self.arena.get(pid).kind {
            PktTag::Data => {
                self.counters.data_delivered += 1;
                run.obs.on_data_delivered(self.arena.get(pid));
                debug_assert_eq!(self.arena.get(pid).dst, node, "data packet misrouted");
                self.receiver_data(run, pid, now);
            }
            PktTag::Probe => {
                // Probe echoes measure the reverse control path like ACKs.
                debug_assert_eq!(self.arena.get(pid).dst, node, "probe misrouted");
                self.answer(run, pid, 0, false, now);
            }
            PktTag::Ack | PktTag::ProbeAck => {
                debug_assert_eq!(self.arena.get(pid).dst, node, "ack misrouted");
                self.sender_ack(run, node, pid, now);
            }
        }
    }

    /// Receiver-side handling of a data segment: update reassembly state,
    /// record delivery/completion and [`Self::answer`] with a per-packet
    /// ACK, which takes over the data packet's arena slot.
    fn receiver_data(&mut self, run: &mut Run, pid: PacketId, now: Time) {
        let data = *self.arena.get(pid);
        let fid = data.flow;
        let live = self.flows[fid as usize].live;
        let (cum_bytes, nack) = if live == u32::MAX {
            // The sender already finished and its state was reclaimed: this
            // packet is a stale duplicate (a retransmission racing the final
            // ACK). Reproduce exactly the ACK the live path would emit — the
            // receiver had every byte (`cum == size`) and a duplicate below
            // `cum` delivers no new bytes and never NACKs — so the event
            // sequence is bit-identical whether or not reclamation happened.
            (self.flows[fid as usize].record.size, false)
        } else {
            let flow = &mut self.flows[fid as usize];
            let fl = self.live.get_mut(live);
            // Without PFC the fabric drops, and the receiver NACKs gaps.
            let lossy = !run.env.switch_cfg.pfc_enabled;
            let (new_bytes, nack) = fl.recv.on_data(data.seq, data.payload as u64, lossy);
            flow.record.delivered = fl.recv.delivered;
            run.obs.on_goodput(fid, now, new_bytes);
            if !fl.recv.done && fl.recv.cum >= flow.record.size {
                fl.recv.done = true;
                flow.record.finish = Some(now);
                run.obs.on_flow_done(&flow.record, now);
            }
            (fl.recv.cum, nack)
        };
        self.answer(run, pid, cum_bytes, nack, now);
    }

    /// Answer `pid`, a data segment or probe that reached its destination
    /// host, with the ACK or probe echo [`Packet::ack`] builds, queue it on
    /// the host's NIC and kick transmission. The INT record is detached
    /// first (it rides the answer back to the sender), then `pid` is
    /// retired before the answer is allocated, so the answer reuses the
    /// same cache-hot slot.
    fn answer(&mut self, run: &mut Run, pid: PacketId, cum_bytes: u64, nack: bool, now: Time) {
        let of = *self.arena.get(pid);
        let int = self.arena.take_int(pid);
        self.arena.release(pid);
        let cfg = &run.env.cfg;
        let prio = match cfg.ack_prio {
            AckPriority::Control => cfg.num_prios,
            AckPriority::SameAsData => of.prio,
        };
        let ack = Packet::ack(&of, prio, cum_bytes, nack, int);
        let pid = self.arena.alloc(ack);
        let node = of.dst;
        self.nodes[node as usize].ports_mut()[0].enqueue(pid, &self.arena);
        self.host_poke(run, node, now);
    }

    /// Sender-side handling of an ACK or probe echo: the [`AckEvent`] is
    /// read straight off the header (the words the module docs of
    /// [`crate::packet`] list). Consumes the arena slot; the echoed INT box
    /// (if any) returns to the arena's recycle stack after the transport
    /// callback.
    fn sender_ack(&mut self, run: &mut Run, node: NodeId, pid: PacketId, now: Time) {
        let h = *self.arena.get(pid);
        let fid = h.flow;
        if !self.flows[fid as usize].active {
            self.arena.release(pid);
            return;
        }
        run.obs.on_flow_touched(fid);
        let f = &self.flows[fid as usize];
        let live = f.live;
        let kind = match h.kind {
            PktTag::Ack => AckKind::Data,
            PktTag::ProbeAck => AckKind::Probe,
            PktTag::Data | PktTag::Probe => unreachable!("sender_ack dispatched on a non-ack tag"),
        };
        // Retire the slot before the transport runs.
        let int = self.arena.take_int(pid);
        self.arena.release(pid);
        // Normalize the measured delay to the data base RTT: probes have a
        // smaller no-queue RTT, so shift by the difference; then apply
        // measurement noise (additive, §4.3.2).
        let raw = now - h.ts_tx;
        let normalized = match kind {
            AckKind::Data => raw,
            AckKind::Probe => raw + f.probe_gap,
        };
        let noise = run.env.cfg.meas_noise.sample(&mut self.noise_rng);
        let delay = normalized + noise;
        let ack = AckEvent {
            kind,
            delay,
            cum_bytes: h.seq,
            acked_seq: h.ack_seq,
            acked_bytes: h.payload as u32,
            ecn_echo: h.ecn_ce,
            nack: h.nack.then_some((h.seq, h.ack_seq)),
            int,
        };
        {
            let mut ctx = TransportCtx::new(&mut self.queue, now, fid);
            self.live.get_mut(live).transport.on_ack(&ack, &mut ctx);
        }
        // The transport only borrows the AckEvent, so the INT box comes
        // back here — return it to the pool instead of freeing it.
        if let Some(boxed) = ack.int {
            self.arena.recycle_int(boxed);
        }
        let transport = &*self.live.get(live).transport;
        run.obs.on_ack(fid, now, delay, transport);
        if transport.is_finished() {
            let f = &mut self.flows[fid as usize];
            f.active = false;
            let (src, prio) = (f.record.src, f.record.phys_prio);
            if let Node::Host(h) = &mut self.nodes[src as usize] {
                h.deactivate(prio, fid);
            }
            self.release_flow_state(run.env, fid);
        }
        self.host_poke(run, node, now);
    }

    /// Release a finished flow's live-state slab slot, copying the
    /// transport's retransmit count into the record first. The
    /// [`Buggify::FlowReclaimLeak`] self-test skips the release so the audit
    /// deep scan's flow-state sweep can prove it notices the leak.
    fn release_flow_state(&mut self, env: &Env, fid: FlowId) {
        if env.switch_cfg.buggify == Some(Buggify::FlowReclaimLeak) {
            return;
        }
        let f = &mut self.flows[fid as usize];
        if f.live == u32::MAX {
            return;
        }
        let slot = f.live;
        f.live = u32::MAX;
        let fl = self.live.release(slot);
        f.record.retransmits = fl.transport.retransmits();
    }

    /// The host NIC pull loop: if the NIC is idle, select the next packet
    /// (queued control first, then strict-priority pull across flows) and
    /// start transmitting it.
    pub(crate) fn host_poke(&mut self, run: &mut Run, node: NodeId, now: Time) {
        let Node::Host(h) = &mut self.nodes[node as usize] else {
            panic!("host_poke on switch {node}")
        };
        // On a dead NIC link transports stay queued; LinkUp (or the next
        // transport timer after recovery) re-pokes.
        if h.port.down || h.port.busy {
            return;
        }
        let mut min_retry = Time::MAX;
        let mut selected: Option<PacketId> = None;
        let mut finished: Vec<FlowId> = Vec::new();
        let nq = h.port.queues.len();
        'prio: for q in (0..nq).rev() {
            // Queued packets (ACKs, probe echoes) first within priority.
            // The control queue (index nq-1) is never PFC-paused.
            let paused = q < nq - 1 && h.port.is_paused(q);
            if !paused {
                selected = h.port.pop_queue(q, &self.arena);
                if selected.is_some() {
                    break 'prio;
                }
            }
            if q >= h.active.len() || paused {
                continue;
            }
            // Pull from transports at this data priority, round-robin.
            let len = h.active[q].flows.len();
            let first_finished = finished.len();
            // One lap from the round-robin cursor, wrapping by compare: a
            // `%` here is a 64-bit divide per candidate flow.
            let mut idx = h.active[q].rr;
            for _ in 0..len {
                if idx >= len {
                    idx = 0;
                }
                let fid = h.active[q].flows[idx];
                let f = &self.flows[fid as usize];
                let fl = self.live.get_mut(f.live);
                let r = &f.record;
                match fl.transport.try_send(now) {
                    TrySend::Data { seq, bytes } => {
                        let mut ctx = TransportCtx::new(&mut self.queue, now, fid);
                        fl.transport.on_sent(TrySend::Data { seq, bytes }, &mut ctx);
                        let mut pkt = Packet::data(fid, node, r.dst, r.phys_prio, bytes, seq, now);
                        pkt.header.dscp = r.virt_prio;
                        run.obs.on_data_injected(fid, pkt.header.size as u64);
                        h.active[q].rr = if idx + 1 == len { 0 } else { idx + 1 };
                        selected = Some(self.arena.alloc(pkt));
                        break;
                    }
                    TrySend::Probe => {
                        let mut ctx = TransportCtx::new(&mut self.queue, now, fid);
                        fl.transport.on_sent(TrySend::Probe, &mut ctx);
                        self.counters.probes += 1;
                        let pkt = Packet::probe(fid, node, r.dst, r.phys_prio, now);
                        h.active[q].rr = if idx + 1 == len { 0 } else { idx + 1 };
                        selected = Some(self.arena.alloc(pkt));
                        break;
                    }
                    TrySend::NotBefore(t) => {
                        min_retry = min_retry.min(t);
                    }
                    TrySend::Blocked => {}
                    TrySend::Finished => finished.push(fid),
                }
                idx += 1;
            }
            for &fid in &finished[first_finished..] {
                self.flows[fid as usize].active = false;
                h.deactivate(q as u8, fid);
            }
            if selected.is_some() {
                break 'prio;
            }
        }
        if selected.is_none() && min_retry != Time::MAX {
            let at = min_retry.max(now + Time::from_ps(1));
            if at < h.next_poke {
                h.next_poke = at;
                self.queue.schedule(at, Event::HostPoke { node });
            }
        }
        // `h` no longer borrows `self.nodes`; nothing above allocates a slab
        // slot, so releasing here leaves the free list as if done in place.
        for fid in finished {
            self.release_flow_state(run.env, fid);
        }
        if let Some(pid) = selected {
            self.transmit(node, 0, pid, Time::ZERO, now);
        }
    }
}
