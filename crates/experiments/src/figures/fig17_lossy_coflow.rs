//! Figure 17 (Appendix A.5): the coflow scenario under a LOSSY fabric —
//! PFC off, drops recovered with IRN-style selective retransmission.
//!
//! Expected: PrioPlus's behavior is nearly identical to the lossless run
//! because its buffer management keeps queues small enough to avoid loss.

use crate::coflowsched::{vs_baseline, CoflowConfig, BANDS};
use crate::{Cell, Scale, Scheme, Table};

pub(crate) fn fig17(scale: Scale, jobs: usize) -> Vec<Table> {
    let mut t = Table::new(
        "fig17",
        "Figure 17: coflow speedups at 70% load, lossy (PFC off + IRN) vs lossless",
        &[
            "scheme",
            "env",
            "high (4-7)",
            "low (0-3)",
            "overall",
            "drops",
            "rtx",
        ],
    );
    // All six (scheme × env) runs are independent: sweep them together.
    let envs = [("lossless", true), ("lossy", false)];
    let templates = envs.map(|(_, lossless)| CoflowConfig {
        lossless,
        ..CoflowConfig::at(Scheme::BaselineSwift, 0.7, scale)
    });
    let schemes = [Scheme::PhysicalSwift, Scheme::PrioPlusSwift];
    for ((env, _), cmp) in envs.iter().zip(vs_baseline(&templates, &schemes, jobs)) {
        for (scheme, r) in &cmp.schemes {
            let mut cells = vec![Cell::from(scheme.label()), Cell::from(*env)];
            cells.extend(BANDS.map(|band| Cell::speedup(cmp.mean(r, band))));
            cells.extend([r.drops.into(), r.retransmits.into()]);
            t.row(cells);
        }
    }
    t.note(
        "Expected (paper): PrioPlus's speedups in the lossy environment are nearly\n\
         the same as lossless — good buffer management avoids packet loss.",
    );
    vec![t]
}
