//! Figure 16 (Appendix A.3): flow scheduling with HPCC and with PrioPlus*
//! (ACKs sharing the data priority instead of a dedicated control queue).
//!
//! Expected: PrioPlus* within ~10 % of PrioPlus; both beat HPCC (≥15 % on
//! average FCT); HPCC protects small flows at the cost of medium/large.

use crate::flowsched::{self, FlowSchedConfig};
use crate::{Cell, Scale, Scheme, Table};

pub(crate) fn fig16(scale: Scale, jobs: usize) -> Vec<Table> {
    let classes = 8u8;
    let schemes = [
        Scheme::PrioPlusSwift,
        Scheme::PrioPlusSwiftAckData,
        Scheme::PhysicalStarHpcc,
    ];
    let mut t = Table::new(
        "fig16",
        "Figure 16: avg FCT (us) — PrioPlus vs PrioPlus* (in-band ACKs) vs HPCC",
        &["scheme", "total", "small", "middle", "large", "p99 total"],
    );
    let cfgs: Vec<FlowSchedConfig> = schemes
        .iter()
        .map(|&scheme| {
            let mut cfg = FlowSchedConfig::at(scheme, classes, scale);
            cfg.seed = 16;
            cfg
        })
        .collect();
    let results = crate::sweep::run_ordered(&cfgs, jobs, &flowsched::run);
    for (scheme, r) in schemes.into_iter().zip(results) {
        let mut cells = vec![Cell::from(scheme.label())];
        cells.extend(r.mean_fct_us_by_bucket().map(Cell::from));
        cells.push(r.p99_fct_us(|_| true).into());
        t.row(cells);
    }
    t.note(
        "Expected (paper): PrioPlus* <10% worse than PrioPlus; HPCC >=15% worse on\n\
         average and >=11% on p99, with medium/large flows paying for its small-flow\n\
         protection.",
    );
    vec![t]
}
