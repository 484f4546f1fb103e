//! Simulation snapshot and warm-start.
//!
//! [`Sim::snapshot`] captures the *complete* deterministic state of a
//! running simulation — scheduler queue, packet arena, live flow slab
//! (transports deep-copied via [`Transport::clone_box`]), node/port state
//! (a link's fault state lives on its ports, so it rides along), RNG
//! streams, counters, fluid backlogs, streaming sketches, and the audit
//! mirror — into an owned, `Send + Sync` [`SimSnapshot`]. [`Sim::restore`]
//! rebuilds a simulator that continues bit-identically to the original:
//! the restore-equals-straight-through property is pinned by the
//! `e2e_snapshot` suite across every scheduler backend.
//!
//! The intended use is prefix-sharing parameter sweeps
//! (`experiments::sweep::run_warm`): configs that share a warmup prefix
//! simulate it once, snapshot, then fork per-config instead of replaying
//! the prefix N times.
//!
//! Two design rules keep the snapshot honest:
//!
//! - **The forget-a-field guard**: [`Sim::restore`] builds `Sim` with an
//!   exhaustive struct literal (no `..`). Adding a field to `Sim` without
//!   deciding how it snapshots is a compile error, not a silent divergence.
//! - **Digest completeness**: [`Sim::state_digest`] folds every
//!   deterministic field into one `u64`; the snapshot-completeness fleet
//!   mutates one field class at a time (via [`StateTamper`]) and asserts
//!   the digest notices. A field the digest misses is a field a future
//!   snapshot bug could silently drop.
//!
//! Closed-loop [`crate::sim::App`]s and open-loop
//! [`crate::sim::ArrivalSource`]s hold arbitrary user state behind object
//! traits without a clone hook, so snapshotting is restricted to runs
//! without them (both are asserted `None`). That restriction is what makes
//! `SimSnapshot` automatically `Send + Sync`, which warm-start sweeps rely
//! on to share one snapshot across worker threads.

use simcore::{EventQueue, QueueSnapshot, ScheduledId, SimRng};

use crate::audit::Audit;
use crate::config::{SimConfig, SwitchConfig};
use crate::event::Event;
use crate::fluid::FluidState;
use crate::monitor::Monitor;
use crate::node::Node;
use crate::packet::{FlowId, PacketArena};
use crate::record::{FlowTrace, SimCounters, StreamingStats};
use crate::routing::RoutingTable;
use crate::sim::{Flow, FlowSlab, Sim};
use crate::transport_api::Transport;

use std::collections::BTreeMap;

/// An owned image of a [`Sim`]'s complete deterministic state at one
/// instant. Produced by [`Sim::snapshot`], consumed (any number of times)
/// by [`Sim::restore`]. `Send + Sync` by construction, so sweep workers can
/// fork from a shared snapshot concurrently.
pub struct SimSnapshot {
    cfg: SimConfig,
    switch_cfg: SwitchConfig,
    nodes: Vec<Node>,
    routes: RoutingTable,
    flows: Vec<Flow>,
    live: FlowSlab,
    arena: PacketArena,
    queue: QueueSnapshot<Event>,
    counters: SimCounters,
    monitors: Vec<Monitor>,
    traces: BTreeMap<FlowId, FlowTrace>,
    noise_rng: SimRng,
    ecn_rng: SimRng,
    nc_rng: SimRng,
    lossy: bool,
    streaming: Option<Box<StreamingStats>>,
    completed_buf: Vec<FlowId>,
    fluid: Option<Box<FluidState>>,
    fluid_epoch: Option<ScheduledId>,
    started: bool,
    audit: Option<Box<Audit>>,
}

/// Which class of simulator state a completeness-fleet tamper mutates.
/// One variant per digest-covered field class that a snapshot bug could
/// plausibly drop; the `e2e_snapshot` fleet applies each in turn and
/// asserts [`Sim::state_digest`] diverges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateTamper {
    /// Bump one [`SimCounters`] field.
    Counter,
    /// Advance one RNG stream by a draw.
    Rng,
    /// Fold a sample into the streaming quantile sketch (requires
    /// [`SimConfig::streaming_stats`]).
    Sketch,
    /// Leak one unit of fluid backlog mass (requires a hybrid run with
    /// [`SimConfig::background`]).
    FluidBacklog,
    /// Flip the priority-0 PFC pause bit on node 0's first egress port.
    PortState,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

impl Sim {
    /// Capture the full deterministic state into an owned
    /// [`SimSnapshot`]. Cold path by design: deep-copies the arena, slab,
    /// queue, and node state. Outstanding [`ScheduledId`]s held by
    /// transports stay valid against the restored queue (the cancellation
    /// slot table is captured verbatim).
    ///
    /// # Panics
    /// Panics if a closed-loop [`crate::sim::App`] or an open-loop
    /// [`crate::sim::ArrivalSource`] is installed — both hold arbitrary
    /// user state the snapshot cannot capture.
    pub fn snapshot(&self) -> SimSnapshot {
        assert!(
            self.app.is_none(),
            "snapshot with a closed-loop App installed: App state is not capturable"
        );
        assert!(
            self.arrivals.is_none(),
            "snapshot with an ArrivalSource installed: source state is not capturable"
        );
        SimSnapshot {
            cfg: self.cfg.clone(),
            switch_cfg: self.switch_cfg.clone(),
            nodes: self.nodes.clone(),
            routes: self.routes.clone(),
            flows: self.flows.clone(),
            live: self.live.clone(),
            arena: self.arena.clone(),
            queue: self.queue.snapshot(),
            counters: self.counters.clone(),
            monitors: self.monitors.clone(),
            traces: self.traces.clone(),
            noise_rng: self.noise_rng.clone(),
            ecn_rng: self.ecn_rng.clone(),
            nc_rng: self.nc_rng.clone(),
            lossy: self.lossy,
            streaming: self.streaming.clone(),
            completed_buf: self.completed_buf.clone(),
            fluid: self.fluid.clone(),
            fluid_epoch: self.fluid_epoch,
            started: self.started,
            // The audit mirror MUST be carried over: a fresh audit on the
            // resumed half would recount conservation tallies from zero and
            // flag every pre-snapshot byte as a violation.
            audit: self.audit.clone(),
        }
    }

    /// Rebuild a simulator from `snap`; the result continues bit-identically
    /// to the simulation the snapshot was taken from. May be called any
    /// number of times on the same snapshot (warm-start forks).
    ///
    /// The struct literal below is deliberately exhaustive (no `..`): a new
    /// `Sim` field breaks this function at compile time until its snapshot
    /// story is decided.
    pub fn restore(snap: &SimSnapshot) -> Sim {
        Sim {
            cfg: snap.cfg.clone(),
            switch_cfg: snap.switch_cfg.clone(),
            nodes: snap.nodes.clone(),
            routes: snap.routes.clone(),
            flows: snap.flows.clone(),
            live: snap.live.clone(),
            arena: snap.arena.clone(),
            queue: EventQueue::restore(&snap.queue),
            counters: snap.counters.clone(),
            monitors: snap.monitors.clone(),
            traces: snap.traces.clone(),
            noise_rng: snap.noise_rng.clone(),
            ecn_rng: snap.ecn_rng.clone(),
            nc_rng: snap.nc_rng.clone(),
            lossy: snap.lossy,
            app: None,
            arrivals: None,
            streaming: snap.streaming.clone(),
            completed_buf: snap.completed_buf.clone(),
            fluid: snap.fluid.clone(),
            fluid_epoch: snap.fluid_epoch,
            started: snap.started,
            audit: snap.audit.clone(),
        }
    }

    /// FNV-1a fingerprint of the simulator's complete deterministic state:
    /// scheduler queue (canonical entry order), counters, RNG streams,
    /// packet arena, nodes and their ports (link fault state included), flow
    /// slab, fluid backlogs, and streaming sketches.
    /// Two simulators with equal digests dispatch identically from here on;
    /// the snapshot-completeness fleet pins that every [`StateTamper`]
    /// class moves it.
    pub fn state_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut fold = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };

        // Scheduler queue, in canonical (at, seq) order — backend-agnostic.
        let qs = self.queue.snapshot();
        fold(qs.now().as_ps());
        fold(qs.popped());
        fold(qs.next_seq());
        for e in qs.entries() {
            fold(e.at.as_ps());
            fold(e.seq);
            fold(e.slot as u64);
            e.event.fold_digest(&mut fold);
        }

        // Counters, exhaustively.
        let c = &self.counters;
        for w in [
            c.events,
            c.data_delivered,
            c.pfc_pauses,
            c.pfc_resumes,
            c.drops,
            c.ecn_marks,
            c.probes,
            c.max_buffer_used,
            c.arena_allocs,
            c.arena_slab_slots,
            c.arena_peak_live,
            c.arena_int_allocs,
            c.arena_int_recycled,
            c.fluid_flows_started,
            c.fluid_flows_completed,
            c.fluid_bytes_injected,
            c.fluid_epochs,
            c.fault_events,
            c.fault_link_drops,
            c.fault_ctrl_drops,
            c.flows_total,
            c.flow_live_peak,
            c.flow_slab_slots,
            c.flows_reclaimed,
            c.flow_live_bytes_peak,
            c.sched_pops,
        ] {
            fold(w);
        }

        // RNG streams.
        for rng in [&self.noise_rng, &self.ecn_rng, &self.nc_rng] {
            for w in rng.state() {
                fold(w);
            }
        }

        // Packet arena: free list, stats, live headers + cold shapes.
        self.arena.fold_digest(&mut fold);

        // Nodes: every egress port (pause bits, busy, fault state, queue
        // membership and order) plus switch buffer/ingress accounting and
        // host flow lists.
        for node in &self.nodes {
            node.fold_digest(&mut fold);
        }

        // Flow cores and live state. The transport is a trait object, so it
        // contributes its observable sender state (cwnd, retransmits,
        // finished); the full transport state is exercised by the
        // resume-bit-identity tests rather than the digest.
        fold(self.flows.len() as u64);
        for f in &self.flows {
            fold(f.record.delivered);
            fold(f.record.finish.map_or(0, |t| t.as_ps() + 1));
            fold(f.record.retransmits);
            fold(f.active as u64 | (f.live as u64) << 1);
        }
        fold(self.live.occupancy);
        fold(self.live.free.len() as u64);
        for &s in &self.live.free {
            fold(s as u64);
        }
        for slot in self.live.slots.iter().flatten() {
            fold(slot.recv.cum);
            fold(slot.recv.delivered);
            fold(slot.recv.nack_for_cum | (slot.recv.done as u64) << 63);
            fold(slot.recv.ooo.len() as u64);
            for (&s, &e) in &slot.recv.ooo {
                fold(s);
                fold(e);
            }
            fold(slot.transport.cwnd_bytes().to_bits());
            fold(slot.transport.retransmits());
            fold(slot.transport.is_finished() as u64);
        }

        // Fluid backlogs (hybrid model).
        fold(self.fluid.is_some() as u64);
        if let Some(f) = self.fluid.as_deref() {
            f.fold_digest(&mut fold);
        }

        // Streaming sketches.
        fold(self.streaming.is_some() as u64);
        if let Some(s) = self.streaming.as_deref() {
            fold(s.fingerprint());
        }

        fold(self.started as u64 | (self.lossy as u64) << 1);
        h
    }

    /// Buggify-style hook for the snapshot-completeness fleet: mutate one
    /// class of deterministic state in place. Returns `false` when the run
    /// does not carry that state class (e.g. [`StateTamper::FluidBacklog`]
    /// on a pure packet run), so tests can assert the tamper actually
    /// landed before asserting digest divergence.
    #[doc(hidden)]
    pub fn snap_mutate(&mut self, tamper: StateTamper) -> bool {
        match tamper {
            StateTamper::Counter => {
                self.counters.data_delivered += 1;
                true
            }
            StateTamper::Rng => {
                self.noise_rng.next();
                true
            }
            StateTamper::Sketch => match self.streaming.as_deref_mut() {
                Some(s) => {
                    s.fct_ps.add(1);
                    true
                }
                None => false,
            },
            StateTamper::FluidBacklog => match self.fluid.as_deref_mut() {
                Some(f) => {
                    f.tamper_backlog();
                    true
                }
                None => false,
            },
            StateTamper::PortState => {
                self.nodes[0].ports_mut()[0].paused ^= 1;
                true
            }
        }
    }
}

// Compile-time proof that a snapshot can be shared across sweep workers.
// (Transports are `Send + Sync` by trait bound; everything else is plain
// data. An App/ArrivalSource field would break this, which is exactly why
// snapshot() excludes them.)
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimSnapshot>();
    assert_send_sync::<Box<dyn Transport>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tamper_classes_are_distinct() {
        assert_ne!(StateTamper::Counter, StateTamper::Rng);
        assert_ne!(StateTamper::Sketch, StateTamper::FluidBacklog);
    }
}
