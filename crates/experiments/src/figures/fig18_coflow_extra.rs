//! Figure 18 (Appendix A.4): the coflow scenario at 70 % load with HPCC
//! and with raw physical priorities without any congestion control.
//!
//! Expected: HPCC ~24 % worse than PrioPlus on average CCT (~15 % on p99);
//! physical-without-CC collapses entirely under the congested fabric.

use crate::coflowsched::{vs_baseline, CoflowConfig, OVERALL};
use crate::{Cell, Scale, Scheme, Table};

pub(crate) fn fig18(scale: Scale, jobs: usize) -> Vec<Table> {
    let mut t = Table::new(
        "fig18",
        "Figure 18: coflow speedups at 70% load — HPCC and physical w/o CC",
        &["scheme", "mean speedup", "p99 speedup", "completion"],
    );
    let schemes = [
        Scheme::PrioPlusSwift,
        Scheme::PhysicalStarHpcc,
        Scheme::PhysicalStarNoCc,
    ];
    let template = CoflowConfig::at(Scheme::BaselineSwift, 0.7, scale);
    let cmp = &vs_baseline(&[template], &schemes, jobs)[0];
    for (scheme, r) in &cmp.schemes {
        t.row(vec![
            scheme.label().into(),
            Cell::speedup(cmp.mean(r, OVERALL)),
            Cell::speedup(cmp.tail(r, OVERALL)),
            Cell::num(r.completion, 2, ""),
        ]);
    }
    t.note(
        "Expected (paper): HPCC's average CCT ~24% worse than PrioPlus (p99 ~15%);\n\
         physical w/o CC performs extremely poorly with no control under congestion.",
    );
    vec![t]
}
