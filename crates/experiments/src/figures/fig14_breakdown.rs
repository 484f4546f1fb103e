//! Figure 14: FCT by priority band and flow size when *every* priority
//! carries a complete WebSearch workload (no size-based scheduling),
//! 12 priorities at 50 % total load. FCTs are normalized by
//! Physical*+Swift per (band, size) cell.
//!
//! Shows: higher delay thresholds do NOT mean higher experienced delay
//! (§6.3), probe-before-start costs little, and PrioPlus stays within
//! ~21 % of ideal physical priorities everywhere.

use crate::flowsched::{self, bucket_of, fat_tree, register, FlowSchedConfig, FlowSchedResult};
use crate::{Cell, Scale, Scheme, Table};
use simcore::stats::Summary;
use simcore::Time;
use workloads::{PoissonArrivals, SizeDist};

const CLASSES: u8 = 12;

fn run(scheme: Scheme, scale: Scale) -> FlowSchedResult {
    let cfg = FlowSchedConfig {
        seed: 77,
        ..FlowSchedConfig::at(scheme, CLASSES, scale)
    };
    let (mut sim, hosts) = fat_tree(&cfg);

    // Each priority carries a full WebSearch workload at 50%/12 load.
    for prio in 0..CLASSES {
        let mut arr = PoissonArrivals::new(
            SizeDist::websearch(),
            hosts.len(),
            cfg.rate,
            0.5 / CLASSES as f64,
            Time::ZERO,
            1000 + prio as u64,
        );
        // Probe-before-start stays on; D2TCP deadlines run from 12 ideal
        // FCTs at the lowest priority down to 1.5 at the highest.
        let deadline = 1.5 + (12.0 - 1.5) * (CLASSES - 1 - prio) as f64 / (CLASSES - 1) as f64;
        let cc = scheme.cc(CLASSES, true, deadline);
        for a in arr.generate_until(cfg.duration) {
            register(&mut sim, &hosts, &cfg, &a, prio, &cc);
        }
    }
    flowsched::assemble(&sim.run())
}

fn band(prio: u8) -> &'static str {
    match prio {
        11 => "high",
        6..=10 => "middle",
        _ => "low",
    }
}

fn size_class(size: u64) -> &'static str {
    if size <= 12_000 {
        "sub-RTT"
    } else {
        bucket_of(size)
    }
}

fn mean_fct(res: &FlowSchedResult, b: &str, s: &str) -> Option<f64> {
    let in_cell = res
        .flows
        .iter()
        .filter(|f| band(f.class) == b && size_class(f.size) == s);
    in_cell.filter_map(|f| f.fct_us).collect::<Summary>().mean()
}

pub(crate) fn fig14(scale: Scale, jobs: usize) -> Vec<Table> {
    let schemes = [
        Scheme::PrioPlusSwift,
        Scheme::PhysicalStarNoCc,
        Scheme::D2tcp,
    ];
    // The reference and the three schemes are independent runs; fan all
    // four out together (`--jobs N`), results in input order.
    let mut cases = vec![Scheme::PhysicalStarSwift];
    cases.extend(schemes);
    let mut all = crate::sweep::run_ordered(&cases, jobs, &|&scheme| run(scheme, scale));
    let reference = all.remove(0);
    let mut tables = Vec::new();
    for (scheme, res) in schemes.into_iter().zip(all) {
        let mut t = Table::new(
            format!(
                "fig14_{}",
                scheme.label().replace(['*', '+', ' ', '/'], "_")
            ),
            format!(
                "Figure 14 ({}): mean FCT normalized by Physical*+Swift",
                scheme.label()
            ),
            &["priority band", "sub-RTT", "small", "middle", "large"],
        );
        for b in ["high", "middle", "low"] {
            let mut cells = vec![Cell::from(b)];
            for s in ["sub-RTT", "small", "middle", "large"] {
                let norm = match (mean_fct(&res, b, s), mean_fct(&reference, b, s)) {
                    (Some(x), Some(r)) => Some(x / r),
                    _ => None,
                };
                cells.push(norm.into());
            }
            t.row(cells);
        }
        tables.push(t);
    }
    // §6.3 check: absolute FCT of sub-RTT flows at the highest priority.
    let hi_subrtt = mean_fct(&reference, "high", "sub-RTT");
    tables.last_mut().expect("three schemes ran").note(format!(
        "Physical*+Swift high-priority sub-RTT mean FCT: {} us.\n\
         Expected (paper): PrioPlus sub-RTT high-priority FCT ~20.9 us even though\n\
         D_target is 60 us — thresholds don't set experienced delay; PrioPlus within\n\
         ~21% of Physical* across cells; w/o-CC wrecks small flows at low bands.",
        Cell::from(hi_subrtt)
    ));
    tables
}
