//! Fault-regime comparison: PrioPlus vs DCTCP under link flaps and PFC
//! pause storms on the incast bottleneck.
//!
//! Emits the EXPERIMENTS.md "Fault regimes" table: completion, mean/max
//! FCT slowdown, priority-inversion counts and fault-loss counters per
//! (scheme, regime) cell. Seeds are fixed; the run is deterministic.

use crate::faults::{run_cell, FaultCc, FaultRegime};
use crate::{Cell, Scale, Table};

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
                cc.name().into(),
                regime.name().into(),
                Cell::num(out.completion * 100.0, 0, "%"),
                out.mean_slowdown.into(),
                out.max_slowdown.into(),
                out.inversions.into(),
                out.pairs.into(),
                out.fault_events.into(),
                out.fault_drops.into(),
            ]);
        }
    }
    vec![t]
}
