//! The figure registry: every figure, table and diagnostic this repository
//! regenerates is one [`Figure`] value in [`FIGURES`]. The `repro` binary is
//! a loop over this table; adding an experiment is adding an entry.

use crate::figures::*;
use crate::{Scale, Table};

/// One regenerable experiment.
pub struct Figure {
    /// Name on the `repro` command line. A family shares a prefix
    /// (`fig10a` … `fig10d`), so `repro run fig10` runs all of it.
    pub slug: &'static str,
    /// One line on what the entry shows.
    pub about: &'static str,
    /// Run at `scale`, fanning independent simulations over `jobs` threads.
    /// The tables do not depend on `jobs`.
    pub run: fn(Scale, usize) -> Vec<Table>,
}

/// Every entry, in paper order.
pub static FIGURES: &[Figure] = &[
    Figure {
        slug: "fig02",
        about: "switch buffer/bandwidth ratio by chip generation",
        run: fig02_buffer_ratio::fig02,
    },
    Figure {
        slug: "fig03a",
        about: "D2TCP cannot strictly prioritize the urgent flow",
        run: fig03_motivation::fig03a,
    },
    Figure {
        slug: "fig03b",
        about: "Swift with target scaling converges to weighted sharing",
        run: fig03_motivation::fig03b,
    },
    Figure {
        slug: "fig03c",
        about: "Swift without scaling under many low-priority flows",
        run: fig03_motivation::fig03c,
    },
    Figure {
        slug: "fig03d",
        about: "line-rate start and min-rate trade-offs",
        run: fig03_motivation::fig03d,
    },
    Figure {
        slug: "tab02",
        about: "start strategies: bytes delayed vs extra buffer, Theorem 4.1",
        run: tab02_start_strategies::tab02,
    },
    Figure {
        slug: "fig07",
        about: "CDF of the delay-measurement noise model",
        run: fig07_noise_cdf::fig07,
    },
    Figure {
        slug: "fig08",
        about: "testbed: four virtual priorities yield and reclaim",
        run: fig08_testbed_prios::fig08,
    },
    Figure {
        slug: "fig09",
        about: "fluctuation management by cardinality estimation",
        run: fig09_fluctuation::fig09,
    },
    Figure {
        slug: "fig10a",
        about: "8 virtual priorities x 30 flows, 5 ms staggered",
        run: fig10_micro::fig10a,
    },
    Figure {
        slug: "fig10b",
        about: "300-flow incast held near D_target",
        run: fig10_micro::fig10b,
    },
    Figure {
        slug: "fig10c",
        about: "dual-RTT vs per-RTT adaptive increase",
        run: fig10_micro::fig10c,
    },
    Figure {
        slug: "fig10d",
        about: "channel width needed vs delay-noise scale",
        run: fig10_micro::fig10d,
    },
    Figure {
        slug: "fig11",
        about: "flow scheduling: FCT vs number of priorities",
        run: fig11_flow_scheduling::fig11,
    },
    Figure {
        slug: "fig12_40",
        about: "coflow CCT speedups at 40% load (with Fig 15 tails)",
        run: |scale, jobs| fig12_coflow::coflow_at(0.4, scale, jobs),
    },
    Figure {
        slug: "fig12_70",
        about: "coflow CCT speedups at 70% load (with Fig 15 tails)",
        run: |scale, jobs| fig12_coflow::coflow_at(0.7, scale, jobs),
    },
    Figure {
        slug: "fig12c",
        about: "ResNet/VGG training speedups",
        run: fig12_coflow::fig12c,
    },
    Figure {
        slug: "fig13",
        about: "FCT gap under non-congestive delay",
        run: fig13_noncongestive::fig13,
    },
    Figure {
        slug: "fig14",
        about: "FCT by priority band and flow size, same load per priority",
        run: fig14_breakdown::fig14,
    },
    Figure {
        slug: "fig16",
        about: "flow scheduling with HPCC and in-band ACKs",
        run: fig16_hpcc_ackprio::fig16,
    },
    Figure {
        slug: "fig17",
        about: "coflow speedups on a lossy fabric",
        run: fig17_lossy_coflow::fig17,
    },
    Figure {
        slug: "fig18",
        about: "coflow speedups with HPCC and physical w/o CC",
        run: fig18_coflow_extra::fig18,
    },
    Figure {
        slug: "appb_ecn",
        about: "Appendix B: priority-scaled ECN marking",
        run: appb_ecn_prioplus::appb_ecn,
    },
    Figure {
        slug: "appd_fluctuation",
        about: "Appendix D / Fig 19: Swift fluctuation vs analytic bound",
        run: appd_fluctuation::appd_fluctuation,
    },
    Figure {
        slug: "fig_hyperscale",
        about: "PrioPlus vs DCTCP tails on large fabrics, streamed arrivals",
        run: fig_hyperscale::fig_hyperscale,
    },
    Figure {
        slug: "fault_regimes",
        about: "PrioPlus vs DCTCP under link flaps and PFC pause storms",
        run: fault_regimes::fault_regimes,
    },
    Figure {
        slug: "diag_cardinality",
        about: "diagnostic: cardinality ratchet under bursty interruptions",
        run: diag_cardinality::diag_cardinality,
    },
];

/// The entries `name` selects: every one whose slug it equals or prefixes.
pub fn select(name: &str) -> impl Iterator<Item = &'static Figure> + '_ {
    FIGURES.iter().filter(move |f| f.slug.starts_with(name))
}
