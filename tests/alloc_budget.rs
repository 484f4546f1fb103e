//! The allocation budget of the simulator, as exact counts. A counting
//! global allocator tallies, on the test's own thread, the allocator calls
//! (`alloc`, `alloc_zeroed`, `realloc`) of two phases:
//!
//! - **Building a network.** `Sim::new` on three fabrics, and the frees
//!   that dropping the result makes. Construction is a fixed handful of
//!   heap blocks per node — a port's queues are one block, a switch's
//!   ingress PFC state two, a host's flow lists one — plus a few for the
//!   routing table and the event queue (DESIGN.md § Performance, *Building
//!   the fabric flat*). A block per queue or per (ingress port, priority)
//!   counter, or a per-node `Vec` grown by pushes, shows up here as a
//!   count that moved.
//! - **Running it.** `Sim::run` on every golden simulation, the link-flap
//!   and pause-storm incasts of `experiments::faults` and one PFC incast
//!   that pauses (no golden run does), in every crate a run touches
//!   (`transport` and `prioplus` included). Forwarding a packet, serving an
//!   event, pausing a port and moving a window allocate nothing. The calls
//!   that remain, by call site (a debug build's backtraces, one per call):
//!   - growth to a new high-water mark, a doubling each: the packet
//!     arena's slab and free list, the event queue's lanes and heap, a
//!     port's queue, a sender's outstanding set, retransmit queue and
//!     retransmit set, a receiver's out-of-order list, the INT record pool;
//!   - a flow start: its host's active-flow list;
//!   - the end of the run: the result's vectors.
//!
//!   Every run here registers its flows before `Sim::run`, so what
//!   `Sim::add_flow` allocates per flow (the transport, the `FlowLive` box
//!   that holds it, the flow table's growth) is not in these counts; a run
//!   whose flows register mid-run (an `ArrivalSource`, an `App`) pays it
//!   inside `Sim::run`.
//!
//!   A per-event `Box`, `Vec` clone or `to_vec` anywhere on the path — a
//!   switch handler or a congestion controller's ACK hook — moves a count
//!   by thousands.
//!
//!   Loss recovery keeps its storage: the retransmit set and the
//!   out-of-order list are sorted `Vec`s, which keep their buffers when
//!   they empty, so no count tracks drops (the nine `cc_matrix` runs,
//!   1,469 to 20,816 drops, lie within 10 %). A `std` B-tree there frees
//!   its last node when it empties and allocates again per loss episode:
//!   `cc_matrix/blast` made 3,823 calls that way. A run that reorders
//!   without loss pays a few calls for it, as the list grows 4, 8, 16, …
//!   ranges (`fig13_nc_delay` made 4 calls more that way than with a
//!   tree's one node per episode). `lossy_dt_incast/small_buffer` is `lossy_dt_incast` with
//!   half the buffer: 2.7× the drops with the same eight flow starts, and
//!   the count differs only by growth, the loss containers' higher marks
//!   (+16) against a lower port queue and arena (−9; measured by
//!   pre-sizing the loss containers).
//!
//! The counts are exact for one `std` and the same in debug and release
//! builds; after a toolchain change, re-measure with `cargo test -p
//! experiments --test alloc_budget -- --nocapture`, which prints every
//! count, and beside each run's its events and drops. Both tests skip
//! under `PRIOPLUS_AUDIT`: the audit adds state and scans of its own.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_macros,
    reason = "a test-only allocator tally that no simulation reads"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use experiments::faults::{FaultCc, FaultRegime};
use experiments::golden;
use experiments::micro::{Micro, MicroEnv};
use netsim::{Sim, SimConfig, SimResult, SwitchConfig, Topology};
use simcore::{Rate, Time};
use transport::CcSpec;

/// Allocator calls and frees seen on one thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Tally {
    allocs: u64,
    frees: u64,
}

thread_local!(static CALLS: Cell<Tally> = const { Cell::new(Tally { allocs: 0, frees: 0 }) });

fn bump(free: bool) {
    // `try_with`: allocations while the thread's locals are torn down go
    // uncounted instead of panicking.
    let _ = CALLS.try_with(|c| {
        let mut t = c.get();
        if free {
            t.frees += 1;
        } else {
            t.allocs += 1;
        }
        c.set(t);
    });
}

/// The system allocator, counting calls on the calling thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(false);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(false);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(false);
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(true);
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn tally() -> Tally {
    CALLS.with(Cell::get)
}

/// Allocator calls of `Sim::new` on `topo`, and frees of dropping the
/// result. The configs are built before counting starts.
fn build_and_drop(topo: &Topology) -> (u64, u64) {
    let (cfg, switch_cfg) = (SimConfig::default(), SwitchConfig::default());
    let before = tally();
    let sim = Sim::new(topo, cfg, switch_cfg);
    let built = tally();
    drop(sim);
    let dropped = tally();
    (built.allocs - before.allocs, dropped.frees - built.frees)
}

#[test]
fn sim_new_allocates_a_handful_of_blocks_per_node() {
    // An audit requested through `PRIOPLUS_AUDIT` adds its own state to
    // every `Sim`; the budget is for unaudited runs. Reading the setting
    // here also fills its one-time cache before anything is counted.
    if netsim::audit::env_enabled() {
        eprintln!("PRIOPLUS_AUDIT is set: the allocation budget covers unaudited runs; skipped");
        return;
    }
    let (r, p) = (Rate::from_gbps(100), Time::from_us(1));
    // One build first, so nothing a first call initializes lands in a count.
    build_and_drop(&Topology::single_switch(1, r, p));
    let mut got = Vec::new();
    for (name, topo) in [
        ("single_switch(64)", Topology::single_switch(64, r, p)),
        ("fat_tree(4)", Topology::fat_tree(4, r, p)),
        ("fat_tree(8)", Topology::fat_tree(8, r, p)),
    ] {
        let (allocs, frees) = build_and_drop(&topo);
        println!(
            "{name}: {} nodes, {} links: Sim::new {allocs} allocator calls, drop {frees} frees",
            topo.num_nodes(),
            topo.links.len()
        );
        got.push((name, allocs, frees));
    }
    assert!(
        got[2].1 <= 1_500,
        "Sim::new on fat_tree(8) made {} allocator calls, budget 1,500",
        got[2].1
    );
    assert_eq!(
        got,
        [
            ("single_switch(64)", 213, 202),
            ("fat_tree(4)", 197, 177),
            ("fat_tree(8)", 1_168, 1_141),
        ]
    );
}

/// Allocator calls of `Sim::run` on a prepared simulation, and its result.
fn run_counted(sim: Sim) -> (u64, SimResult) {
    let before = tally();
    let res = sim.run();
    (tally().allocs - before.allocs, res)
}

/// An uncontrolled incast into a lossless switch whose buffer is small
/// enough for PFC to pause the senders.
fn pfc_incast() -> Sim {
    let mut m = Micro::build(&MicroEnv {
        senders: 8,
        end: Time::from_ms(5),
        switch: SwitchConfig {
            buffer_bytes: 1_000_000,
            pfc_lossless_prios: 1,
            pfc_headroom_bytes: 80_000,
            ..Default::default()
        },
        ..Default::default()
    });
    for s in 1..=8 {
        m.add_flow(s, 500_000, Time::ZERO, 0, 0, &CcSpec::Blast);
    }
    m.sim
}

#[test]
fn sim_run_allocates_per_flow_not_per_drop_or_event() {
    // As above: the audit's own state is not in the budget, and the
    // setting's cache is filled before anything is counted.
    if netsim::audit::env_enabled() {
        eprintln!("PRIOPLUS_AUDIT is set: the allocation pin covers unaudited runs; skipped");
        return;
    }
    let mut runs: Vec<(String, Sim)> = Vec::new();
    for case in golden::cases() {
        for (label, sim) in (case.prepare)() {
            let name = if label.is_empty() {
                case.name.to_string()
            } else {
                format!("{}/{label}", case.name)
            };
            runs.push((name, sim));
        }
    }
    for regime in [FaultRegime::Flap, FaultRegime::Storm] {
        let sim = experiments::faults::prepare(FaultCc::PrioPlus, regime, 1);
        runs.push((format!("faults/{}", regime.name()), sim));
    }
    runs.push(("pfc_incast".into(), pfc_incast()));
    // The golden `lossy_dt_incast` with half its shared buffer: the same
    // eight Swift flows and seed, 2.7× the drops.
    runs.push((
        "lossy_dt_incast/small_buffer".into(),
        golden::lossy_incast_with(100_000),
    ));

    let mut got = Vec::new();
    for (name, sim) in runs {
        let (calls, res) = run_counted(sim);
        let c = &res.counters;
        println!(
            "{name}: Sim::run {calls} allocator calls; {} events, {} drops, {} fault drops, \
             {} PFC pauses",
            c.events,
            c.drops,
            c.fault_link_drops + c.fault_ctrl_drops,
            c.pfc_pauses
        );
        if name == "pfc_incast" {
            assert!(c.pfc_pauses > 0, "the PFC incast did not pause");
        }
        got.push((name, calls));
    }
    let got: Vec<(&str, u64)> = got.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    assert_eq!(
        got,
        [
            ("fig10_staircase", 156),
            ("fig13_nc_delay", 80),
            ("lossy_dt_incast", 287),
            ("cc_matrix/swift", 430),
            ("cc_matrix/prioplus-swift", 407),
            ("cc_matrix/ledbat", 439),
            ("cc_matrix/prioplus-ledbat", 412),
            ("cc_matrix/dctcp", 400),
            ("cc_matrix/d2tcp", 400),
            ("cc_matrix/swift-weighted", 428),
            ("cc_matrix/hpcc", 438),
            ("cc_matrix/blast", 435),
            ("faults/flap", 196),
            ("faults/storm", 164),
            ("pfc_incast", 244),
            ("lossy_dt_incast/small_buffer", 294),
        ]
    );
}
