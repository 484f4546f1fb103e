//! Fault-regime comparison: PrioPlus vs DCTCP under link flaps and PFC
//! pause storms on the incast bottleneck.
//!
//! Emits the EXPERIMENTS.md "Fault regimes" table: completion, mean/max
//! FCT slowdown, priority-inversion counts and fault-loss counters per
//! (scheme, regime) cell. Seeds are fixed; the run is deterministic.

use crate::faults::{run_cell, FaultCc, FaultRegime};
use crate::report::f3;
use crate::{Scale, Table};

pub(crate) fn fault_regimes(_: Scale, _: usize) -> Vec<Table> {
    let mut t = Table::new(
        "fault_regimes",
        "Fault regimes: 8-sender incast, 4 virtual priorities, 2 MB flows",
        &[
            "cc",
            "regime",
            "done",
            "mean sld",
            "max sld",
            "inversions",
            "pairs",
            "fault ev",
            "fault drops",
        ],
    );
    for cc in FaultCc::ALL {
        for regime in FaultRegime::ALL {
            let out = run_cell(cc, regime, 1);
            t.row(vec![
                cc.name().to_string(),
                regime.name().to_string(),
                format!("{:.0}%", out.completion * 100.0),
                f3(out.mean_slowdown),
                f3(out.max_slowdown),
                out.inversions.to_string(),
                out.pairs.to_string(),
                out.fault_events.to_string(),
                out.fault_drops.to_string(),
            ]);
        }
    }
    vec![t]
}
