//! Aggregate run counters, split from [`crate::record`] so the audit layer
//! (which cross-checks them against independent tallies) does not import
//! the whole results module while the results embed the audit report —
//! that pair of imports was a module cycle, and the `layering` lint
//! (simlint R9) rejects cycles in sim-state crates.

/// Aggregate counters of a run.
#[derive(Clone, Debug, Default)]
pub struct SimCounters {
    /// Total events processed.
    pub events: u64,
    /// Data packets delivered end-to-end.
    pub data_delivered: u64,
    /// Of those, duplicates: arrivals that added no byte to their flow's
    /// `delivered` (a retransmission of data that had already arrived).
    pub dup_data: u64,
    /// PFC pause frames emitted.
    pub pfc_pauses: u64,
    /// PFC resume frames emitted.
    pub pfc_resumes: u64,
    /// Packets dropped (lossy mode).
    pub drops: u64,
    /// Data packets ECN-marked.
    pub ecn_marks: u64,
    /// Probe packets sent.
    pub probes: u64,
    /// Maximum shared-buffer occupancy observed across switches.
    pub max_buffer_used: u64,
    /// Packet-arena handle allocations over the whole run (slab reuse
    /// included), i.e. total packets that existed.
    pub arena_allocs: u64,
    /// Fresh slab slots the arena ever grew to (== peak live packets; every
    /// other allocation reused a freed slot without touching the heap).
    pub arena_slab_slots: u64,
    /// Peak number of simultaneously live packets.
    pub arena_peak_live: u64,
    /// `IntPath` boxes actually heap-allocated (pool misses). Bounded by the
    /// peak number of in-flight INT-carrying packets, not by packet count.
    pub arena_int_allocs: u64,
    /// `IntPath` boxes served from / returned to the recycle pool.
    pub arena_int_recycled: u64,
    /// Fault-schedule transitions applied ([`crate::faults::FaultSchedule`]).
    pub fault_events: u64,
    /// Data packets dropped because their link was down at arrival.
    pub fault_link_drops: u64,
    /// Control packets (ACKs, probes, probe echoes) dropped because their
    /// link was down at arrival. PFC frames are never dropped (out-of-band
    /// reliable control plane).
    pub fault_ctrl_drops: u64,
    /// Flows registered over the whole run (open-loop injections included).
    /// In streaming mode this is the only total-flow count — `records` is
    /// empty.
    pub flows_total: u64,
    /// Peak number of flows with live state (transport + reassembly)
    /// resident at once. The hyperscale memory budget is proportional to
    /// this, not to the total flow count.
    pub flow_live_peak: u64,
    /// Flows whose live state was reclaimed on completion; the flows that
    /// still hold it number `flows_total − flows_reclaimed`.
    pub flows_reclaimed: u64,
    /// Peak bytes of live flow state (the `FlowLive` box plus the
    /// transport box per flow, `FlowLive::entry_bytes`; the heap buffers
    /// they own are not counted).
    pub flow_live_bytes_peak: u64,
    /// Scheduler interactions: the queue serves one event per pop, so this
    /// equals `events`. Kept for `ppbench`'s `simcore.sched_pops` and
    /// `simcore.batch_avg` (ROADMAP item 3(a) deletes both).
    pub sched_pops: u64,
    /// Entries pushed plus entries popped at the event queue — its FIFO
    /// lanes ([`simcore::EventQueue::declare_delay`]) and its heap
    /// together, so "queue operations per delivered packet" means the same
    /// before and after lanes. With the three counters below: diagnostics
    /// of how the queue stored the run's events, not of the run, so they
    /// are kept out of state digests and golden summaries.
    pub sched_ops: u64,
    /// Of the pushes in `sched_ops`, those a lane took: entries that never
    /// entered the heap. `sched_lane_pushes / pushes` is the share of
    /// traffic scheduled at a declared link delay — an exact count of how
    /// much of a run the lanes serve.
    pub sched_lane_pushes: u64,
    /// Most entries the event queue stored at once, cancelled timers
    /// awaiting lazy retirement included.
    pub sched_pending_peak: u64,
    /// Peak allocated bytes of the event queue (heap + lanes).
    pub sched_bytes_peak: u64,
}

impl SimCounters {
    /// Fold the counters that event handlers bump during the run. The rest
    /// are named and left out, each for a reason given below; the
    /// destructuring has no `..`, so a new counter must pick a side.
    pub(crate) fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        let SimCounters {
            events,
            data_delivered,
            pfc_pauses,
            pfc_resumes,
            drops,
            ecn_marks,
            probes,
            fault_events,
            fault_link_drops,
            fault_ctrl_drops,
            flow_live_peak,
            flows_reclaimed,
            flow_live_bytes_peak,
            // Copied in by `Sim::run` from a live source that the state
            // digest folds where it lives (switches, arena, flow table,
            // event queue); zero until then.
            max_buffer_used: _,
            arena_allocs: _,
            arena_slab_slots: _,
            arena_peak_live: _,
            arena_int_allocs: _,
            arena_int_recycled: _,
            flows_total: _,
            sched_pops: _,
            // A diagnostic no handler reads, so it decides nothing later;
            // left out so that adding it moved no state digest, golden or
            // `ppbench` digest.
            dup_data: _,
            // Diagnostics of where the queue kept an entry, not of the
            // simulation: the digest names the same state whichever
            // container holds an entry.
            sched_ops: _,
            sched_lane_pushes: _,
            sched_pending_peak: _,
            sched_bytes_peak: _,
        } = self;
        for w in [
            events,
            data_delivered,
            pfc_pauses,
            pfc_resumes,
            drops,
            ecn_marks,
            probes,
            fault_events,
            fault_link_drops,
            fault_ctrl_drops,
            flow_live_peak,
            flows_reclaimed,
            flow_live_bytes_peak,
        ] {
            fold(*w);
        }
    }
}
