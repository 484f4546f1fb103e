//! Coflow scheduling with virtual priorities (the paper's §6.2 scenario at
//! demo scale): Facebook-like coflows plus file-request incasts on a
//! leaf–spine fabric, eight priority groups by coflow size, comparing
//! PrioPlus+Swift against the no-priority Swift baseline.
//!
//! Run with: `cargo run --release --example coflow_scheduling`

use experiments::coflowsched::{vs_baseline, CoflowConfig, BANDS};
use experiments::{Cell, Scheme};
use simcore::Time;

fn main() {
    let template = CoflowConfig {
        duration: Time::from_ms(4),
        ..CoflowConfig::new(Scheme::BaselineSwift, 0.5)
    };
    println!("running Swift (no priorities) and PrioPlus+Swift (8 virtual priorities, 1 queue)...");
    let cmp = &vs_baseline(&[template], &[Scheme::PrioPlusSwift], 2)[0];
    let (_, pp) = &cmp.schemes[0];

    println!(
        "\ncoflows: {} | completion: baseline {:.0}%, prioplus {:.0}%",
        cmp.base.coflows.len(),
        cmp.base.completion * 100.0,
        pp.completion * 100.0
    );

    println!("\nCCT speedup of PrioPlus vs baseline (ratio > 1 = faster):");
    let labels = [
        "high priorities (4-7, small coflows)",
        "low priorities  (0-3, large coflows)",
        "overall",
    ];
    for (label, band) in labels.into_iter().zip(BANDS) {
        println!("  {label}: {}", Cell::speedup(cmp.mean(pp, band)));
    }
}
