//! The allocation budget of building a network, as exact counts. A
//! counting global allocator tallies, on the test's own thread, the
//! allocator calls (`alloc`, `alloc_zeroed`, `realloc`) `Sim::new` makes on
//! three fabrics, and the frees that dropping the result makes.
//!
//! Construction is a fixed handful of heap blocks per node — a port's
//! queues are one block, a switch's ingress PFC state two, a host's flow
//! lists one — plus a few for the routing table and the event queue
//! (DESIGN.md § Performance, *Building the fabric flat*). A block per queue
//! or per (ingress port, priority) counter, or a per-node `Vec` grown by
//! pushes, shows up here as a count that moved.
//!
//! The counts are exact for one `std`; after a toolchain change, re-measure
//! with `cargo test -p netsim --test alloc_budget -- --nocapture`, which
//! prints every count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell; // simlint::allow(shared-state, a test-only allocator tally that no simulation reads)

use netsim::{Sim, SimConfig, SwitchConfig, Topology};
use simcore::{Rate, Time};

/// Allocator calls and frees seen on one thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Tally {
    allocs: u64,
    frees: u64,
}

// simlint::allow(shared-state, a test-only allocator tally that no simulation reads)
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
