//! Property-based end-to-end invariants: for arbitrary small workloads the
//! simulator must conserve bytes, never invert causality, and the PrioPlus
//! algorithm must respect its structural invariants.

use experiments::micro::{Micro, MicroEnv};
use netsim::NoiseModel;
use proptest::prelude::*;
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

fn run_micro(
    senders: usize,
    flows: Vec<(usize, u64, u64, u8)>, // (sender, size, start_us, virt_prio)
    cc: CcSpec,
    classes: u8,
    noise: bool,
    seed: u64,
) -> netsim::SimResult {
    let mut m = Micro::build(&MicroEnv {
        senders,
        end: Time::from_ms(50),
        noise: if noise {
            NoiseModel::testbed()
        } else {
            NoiseModel::None
        },
        seed,
        ..Default::default()
    });
    for (s, size, start_us, vp) in flows {
        m.add_flow(
            s,
            size,
            Time::from_us(start_us),
            0,
            vp.min(classes - 1),
            &cc,
        );
    }
    m.sim.run()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Bytes are conserved and every finish time is causal (after start,
    /// not before serialization could possibly complete) under arbitrary
    /// Swift workloads.
    #[test]
    fn swift_conserves_bytes_and_causality(
        sizes in proptest::collection::vec(1_000u64..3_000_000, 1..8),
        starts in proptest::collection::vec(0u64..2_000, 8),
        seed in 0u64..1000,
    ) {
        let senders = sizes.len();
        let flows: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &sz)| (i + 1, sz, starts[i % starts.len()], 0u8))
            .collect();
        let cc = CcSpec::Swift { queuing: Time::from_us(4), scaling: false };
        let res = run_micro(senders, flows.clone(), cc, 1, false, seed);
        prop_assert_eq!(res.counters.drops, 0);
        for (i, r) in res.records.iter().enumerate() {
            let (_, size, start_us, _) = flows[i];
            prop_assert!(r.delivered <= size);
            if let Some(fct) = r.fct() {
                prop_assert_eq!(r.delivered, size);
                // Lower bound: serialization at line rate + one-way path.
                let min_fct = Time::from_ns(size * 8 / 100) // 100 Gbps
                    .as_us_f64();
                prop_assert!(
                    fct.as_us_f64() > min_fct * 0.99,
                    "flow {} finished impossibly fast: {} < {}",
                    i, fct.as_us_f64(), min_fct
                );
                prop_assert!(r.finish.unwrap() >= Time::from_us(start_us));
            }
        }
    }

    /// PrioPlus with arbitrary priority assignments: no drops, bytes
    /// conserved, and when two clearly separated priorities contend, the
    /// higher one is never starved by the lower one.
    #[test]
    fn prioplus_conserves_and_never_starves_high(
        hi_size in 500_000u64..4_000_000,
        lo_size in 500_000u64..4_000_000,
        stagger_us in 0u64..500,
        seed in 0u64..1000,
    ) {
        let cc = CcSpec::PrioPlusSwift { policy: PrioPlusPolicy::paper_default(4) };
        let flows = vec![
            (1usize, lo_size, 0u64, 0u8),
            (2usize, hi_size, stagger_us, 3u8),
        ];
        let res = run_micro(2, flows, cc, 4, true, seed);
        prop_assert_eq!(res.counters.drops, 0);
        let hi = &res.records[1];
        prop_assert!(hi.finish.is_some(), "high priority flow starved");
        let fct = hi.fct().unwrap().as_us_f64();
        // Solo ideal time; strict priority bounds the slowdown to a small
        // constant (probing + channel delays + takeover time).
        let ideal = hi_size as f64 * 8.0 / 100e9 * 1e6 + 12.0;
        prop_assert!(
            fct < ideal * 3.0 + 300.0,
            "high-priority fct {fct}us vs ideal {ideal}us"
        );
    }

    /// Determinism: identical configuration and seed produce identical
    /// results, with noise enabled, for arbitrary mixes.
    #[test]
    fn runs_are_reproducible(
        sizes in proptest::collection::vec(10_000u64..1_000_000, 2..6),
        seed in 0u64..10_000,
    ) {
        let mk = || {
            let flows: Vec<_> = sizes
                .iter()
                .enumerate()
                .map(|(i, &sz)| (i + 1, sz, (i as u64) * 13, (i % 4) as u8))
                .collect();
            let cc = CcSpec::PrioPlusSwift { policy: PrioPlusPolicy::paper_default(4) };
            let res = run_micro(sizes.len(), flows, cc, 4, true, seed);
            res.records
                .iter()
                .map(|r| (r.finish.map(|t| t.as_ps()), r.delivered, r.retransmits))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(mk(), mk());
    }
}
