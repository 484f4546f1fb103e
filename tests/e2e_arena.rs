//! Arena determinism: the packet arena changes how packets are *stored*
//! (slab + `PacketId` handles through the event queue) but must never
//! change what the simulator *computes*. For random flow mixes — in both
//! the lossy (drops) and PFC-on (pauses) regimes — a rerun must produce a
//! bit-identical [`netsim::SimResult`]. The golden-trace
//! corpus (pinned before the arena landed, passing unmodified) anchors
//! these runs to the by-value baseline; this fleet extends that anchor to
//! arbitrary workloads.

use experiments::micro::{Micro, MicroEnv};
use netsim::{NoiseModel, SimResult};
use proptest::prelude::*;
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

/// Build and run one micro incast: `flows` are `(sender, size, start_us,
/// virt_prio)`. `lossy` drops instead of pausing; either way the buffer is
/// squeezed so the congestion machinery (and the arena's release-on-drop /
/// PFC-packet paths) actually fires.
fn run_one(flows: &[(usize, u64, u64, u8)], senders: usize, lossy: bool, seed: u64) -> SimResult {
    let mut env = MicroEnv {
        senders,
        end: Time::from_ms(20),
        trace: false,
        noise: NoiseModel::testbed(),
        seed,
        ..Default::default()
    };
    env.switch.buffer_bytes = 256 * 1024;
    env.switch.pfc_enabled = !lossy;
    let mut m = Micro::build(&env);
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy::paper_default(4),
    };
    for &(s, size, start_us, vp) in flows {
        m.add_flow(s, size, Time::from_us(start_us), 0, vp.min(3), &cc);
    }
    m.sim.run()
}

/// Bit-exact equality over everything a run records, including the arena
/// counters themselves (slab growth is part of the deterministic contract:
/// LIFO reuse means identical allocation order, hence identical ids).
fn assert_results_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.end_time, b.end_time, "{what}: end_time");
    let (ca, cb) = (&a.counters, &b.counters);
    assert_eq!(ca.events, cb.events, "{what}: events");
    assert_eq!(ca.data_delivered, cb.data_delivered, "{what}: delivered");
    assert_eq!(ca.pfc_pauses, cb.pfc_pauses, "{what}: pfc_pauses");
    assert_eq!(ca.pfc_resumes, cb.pfc_resumes, "{what}: pfc_resumes");
    assert_eq!(ca.drops, cb.drops, "{what}: drops");
    assert_eq!(ca.ecn_marks, cb.ecn_marks, "{what}: ecn_marks");
    assert_eq!(ca.probes, cb.probes, "{what}: probes");
    assert_eq!(ca.max_buffer_used, cb.max_buffer_used, "{what}: max_buffer");
    assert_eq!(ca.arena_allocs, cb.arena_allocs, "{what}: arena_allocs");
    assert_eq!(
        ca.arena_slab_slots, cb.arena_slab_slots,
        "{what}: arena_slab_slots"
    );
    assert_eq!(
        ca.arena_peak_live, cb.arena_peak_live,
        "{what}: arena_peak_live"
    );
    assert_eq!(
        ca.arena_int_allocs, cb.arena_int_allocs,
        "{what}: arena_int_allocs"
    );
    assert_eq!(a.records.len(), b.records.len(), "{what}: record count");
    for (ra, rb) in a.records.iter().zip(&b.records) {
        let f = ra.flow;
        assert_eq!(ra.start, rb.start, "{what}: flow {f} start");
        assert_eq!(ra.finish, rb.finish, "{what}: flow {f} finish");
        assert_eq!(ra.delivered, rb.delivered, "{what}: flow {f} delivered");
        assert_eq!(
            ra.retransmits, rb.retransmits,
            "{what}: flow {f} retransmits"
        );
    }
}

/// Maximum arena churn — a 32-flow HPCC incast with INT on, so every data
/// packet carries and recycles an `IntPath` box — pins the zero
/// steady-state-allocation contract: the slab only grows when the live
/// population reaches a new peak, and `IntPath` boxes are bounded by the
/// in-flight population, never by the packet count.
#[test]
fn hpcc_int_churn_reuses_slab_slots_and_int_boxes() {
    let senders = 32;
    let mut env = MicroEnv {
        senders,
        end: Time::from_ms(8),
        trace: false,
        noise: NoiseModel::testbed(),
        seed: 13,
        ..Default::default()
    };
    env.switch.int_enabled = true;
    let mut m = Micro::build(&env);
    for s in 1..=senders {
        m.add_flow(s, 1_000_000, Time::ZERO, 0, 4, &CcSpec::Hpcc);
    }
    let c = m.sim.run().counters;
    assert_eq!(
        c.arena_slab_slots, c.arena_peak_live,
        "arena slab grew without a new live peak"
    );
    assert!(
        c.arena_allocs > 10 * c.arena_slab_slots.max(1),
        "churn too low to demonstrate slot reuse (allocs {} vs slots {})",
        c.arena_allocs,
        c.arena_slab_slots
    );
    assert!(
        c.arena_int_allocs <= c.arena_peak_live.max(1),
        "IntPath boxes ({}) exceeded the in-flight population ({})",
        c.arena_int_allocs,
        c.arena_peak_live
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Random flow mixes, both loss regimes: one `SimResult`, bit for bit,
    /// however often it runs.
    #[test]
    fn backends_agree_bit_identically_on_random_mixes(
        sizes in proptest::collection::vec(5_000u64..800_000, 2..7),
        starts in proptest::collection::vec(0u64..1_500, 7),
        prios in proptest::collection::vec(0u8..4, 7),
        seed in 0u64..10_000,
        lossy_bit in 0u8..2,
    ) {
        let lossy = lossy_bit == 1;
        let senders = sizes.len();
        let flows: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &sz)| (i + 1, sz, starts[i % starts.len()], prios[i % prios.len()]))
            .collect();
        let reference = run_one(&flows, senders, lossy, seed);
        // The run must be big enough to exercise the arena for real:
        // thousands of events and at least one full packet lifecycle.
        prop_assert!(reference.counters.events > 1_000, "degenerate run");
        prop_assert!(reference.counters.arena_allocs > 100, "no packet churn");
        // A re-run must reproduce the run exactly — the arena's LIFO free
        // list leaves no room for id-order drift.
        let again = run_one(&flows, senders, lossy, seed);
        assert_results_identical(&reference, &again, &format!("re-run (lossy={lossy})"));
    }
}
