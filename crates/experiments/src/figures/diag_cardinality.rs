//! Diagnostic (not a paper figure): cardinality-estimate and suspension
//! dynamics of low-priority PrioPlus elephants under bursty higher-priority
//! interruptions — used to validate the stability of the #flow ratchet.

use crate::micro::{goodput_gbps, Micro, MicroEnv};
use crate::{probe::Probed, Cell, Scale, Table};
use netsim::NoiseModel;
use simcore::{SimRng, Time};
use transport::{CcSpec, PrioPlusPolicy};

pub(crate) fn diag_cardinality(_: Scale, _: usize) -> Vec<Table> {
    let mut m = Micro::build(&MicroEnv {
        senders: 12,
        end: Time::from_ms(20),
        noise: NoiseModel::testbed(),
        ..Default::default()
    });
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy {
            probe: false,
            ..PrioPlusPolicy::paper_default(8)
        },
    };
    // 4 class-0 elephants from senders 1..4.
    let elephants: Vec<u32> = (1..=4)
        .map(|s| m.add_flow(s, 100_000_000, Time::ZERO, 0, 0, &cc))
        .collect();
    // Poisson bursts of higher-priority flows (class 1-7), ~40% of link.
    let mut rng = SimRng::new(9);
    let mut t = Time::ZERO;
    let mut count = 0;
    while t < Time::from_ms(18) {
        t += Time::from_ps_f64(rng.exponential(Time::from_us(420).as_ps() as f64));
        let prio = 1 + (rng.below(7) as u8);
        let size = 100_000 + rng.below(4_000_000);
        let sender = 5 + (count % 8);
        m.add_flow(sender, size, t, 0, prio, &cc);
        count += 1;
    }
    let Probed { res, goodput, .. } = m.run();
    let mut table = Table::new(
        "diag_cardinality",
        format!("Diagnostic: 4 class-0 PrioPlus elephants under {count} higher-priority bursts"),
        &[
            "elephant",
            "delivered (MB)",
            "goodput 5-10ms (Gbps)",
            "goodput 10-20ms (Gbps)",
        ],
    );
    for &id in &elephants {
        table.row(vec![
            id.into(),
            Cell::num(res.records[id as usize].delivered as f64 / 1e6, 1, ""),
            Cell::num(goodput_gbps(&goodput, &[id], 5_000.0, 10_000.0), 1, ""),
            Cell::num(goodput_gbps(&goodput, &[id], 10_000.0, 20_000.0), 1, ""),
        ]);
    }
    let hi_bytes: u64 = res
        .records
        .iter()
        .filter(|r| r.virt_prio > 0)
        .map(|r| r.delivered)
        .sum();
    let lo_bytes: u64 = elephants
        .iter()
        .map(|&id| res.records[id as usize].delivered)
        .sum();
    let total = (hi_bytes + lo_bytes) as f64 * 8.0 / 0.02 / 1e9;
    table.note(format!(
        "aggregate utilization: {total:.1} Gbps (hi {hi_bytes} B, lo {lo_bytes} B)"
    ));
    table.note(format!("probes: {}", res.counters.probes));
    vec![table]
}
