//! Quickstart: virtual priority on a single bottleneck in ~40 lines.
//!
//! Two flows share one physical switch queue. The low-priority flow starts
//! first and owns the link; at 1 ms a high-priority flow arrives, and
//! PrioPlus makes the low-priority flow yield *all* bandwidth within tens
//! of microseconds — no switch support, just congestion control.
//!
//! Run with: `cargo run --release --example quickstart`

use experiments::micro::{goodput_gbps, Micro, MicroEnv};
use experiments::probe::Probed;
use netsim::NoiseModel;
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

fn main() {
    let mut m = Micro::build(&MicroEnv {
        senders: 2,
        end: Time::from_ms(6),
        noise: NoiseModel::testbed(), // the paper's measured NIC noise
        ..Default::default()
    });

    // PrioPlus wrapped around Swift, two virtual priorities in ONE queue.
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy::paper_default(2),
    };
    let lo = m.add_flow(
        1,
        50_000_000,
        Time::ZERO,
        /*phys*/ 0,
        /*virt*/ 0,
        &cc,
    );
    let hi = m.add_flow(2, 25_000_000, Time::from_ms(1), 0, 1, &cc);

    // `Micro::run` also meters each flow's goodput in 20 µs buckets.
    let Probed { res, goodput, .. } = m.run();

    println!("flow   prio  start     fct        delivered");
    for (name, id) in [("low", lo), ("high", hi)] {
        let r = &res.records[id as usize];
        println!(
            "{name:<6} {:<5} {:<9} {:<10} {} bytes",
            r.virt_prio,
            format!("{}", r.start),
            r.fct()
                .map(|t| format!("{t}"))
                .unwrap_or("unfinished".into()),
            r.delivered
        );
    }

    // Show the low-priority flow's goodput around the contention window.
    println!("\nlow-priority goodput (Gbps):");
    for (label, from, to) in [
        ("before high-prio (0.3-0.9ms)", 300.0, 900.0),
        ("during high-prio (1.3-2.5ms)", 1300.0, 2500.0),
        ("after  high-prio (3.5-4.5ms)", 3500.0, 4500.0),
    ] {
        println!("  {label}: {:.1}", goodput_gbps(&goodput, &[lo], from, to));
    }
    println!(
        "\nprobes sent while yielding: {} (42 Mbps-class overhead, §4.2.1)",
        res.counters.probes
    );
}
