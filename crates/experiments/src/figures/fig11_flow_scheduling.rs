//! Figure 11: the flow-scheduling scenario — average FCT slowdown vs the
//! number of priorities, for Physical+Swift (real PFC headroom costs),
//! Physical*+Swift (ideal), PrioPlus+Swift, and Physical* w/o CC, broken
//! down by flow-size bucket (total / small / middle / large).
//!
//! WebSearch workload at 70 % load on a fat-tree; buffer sized at
//! 4.4 MB/Tbps (Tomahawk4). `--full` runs k = 6 at the paper's duration.
//! Runs fan out across threads (`--jobs N`); output is identical to serial.

use crate::flowsched::{self, FlowSchedConfig, FlowSchedResult};
use crate::{Cell, Scale, Scheme, Table};

pub(crate) fn fig11(scale: Scale, jobs: usize) -> Vec<Table> {
    let prio_counts: Vec<u8> = scale.pick(vec![1, 2, 4, 8, 12], (1..=12).collect());
    let schemes = [
        Scheme::PhysicalSwift,
        Scheme::PhysicalStarSwift,
        Scheme::PrioPlusSwift,
        Scheme::PhysicalStarNoCc,
    ];

    // Physical (real) supports at most 8 priorities (§2.2); those cells stay
    // empty. Every other (classes, scheme) cell is one independent run.
    let runnable = |scheme: Scheme, classes: u8| !(scheme == Scheme::PhysicalSwift && classes > 8);
    let mut cfgs = Vec::new();
    for &classes in &prio_counts {
        for scheme in schemes {
            if !runnable(scheme, classes) {
                continue;
            }
            let mut cfg = FlowSchedConfig::at(scheme, classes, scale);
            cfg.seed = 20 + classes as u64; // same workload across schemes
            cfgs.push(cfg);
        }
    }
    let results = crate::sweep::run_ordered(&cfgs, jobs, &flowsched::run);
    let mut results = results.iter();

    let mut columns = vec!["prios"];
    columns.extend(schemes.iter().map(Scheme::label));
    let mut tables: Vec<Table> = [
        ("a", "total"),
        ("b", "small"),
        ("c", "middle"),
        ("d", "large"),
    ]
    .iter()
    .map(|(sub, bucket)| {
        Table::new(
            format!("fig11{sub}"),
            format!("Figure 11 ({bucket}): avg FCT (us) vs #priorities (WebSearch, 70% load)"),
            &columns,
        )
    })
    .collect();
    let mut tail = Table::new(
        "fig11_p99",
        "Figure 11 (p99, total): p99 FCT (us) vs #priorities",
        &columns,
    );
    let mut pfc = Table::new(
        "fig11_pfc",
        "Figure 11 (diagnostic): PFC pause frames per run",
        &columns,
    );

    for &classes in &prio_counts {
        // One cell per scheme column: its run, or `None` where it has none.
        let runs: Vec<Option<&FlowSchedResult>> = schemes
            .iter()
            .map(|&scheme| {
                runnable(scheme, classes).then(|| results.next().expect("one result per config"))
            })
            .collect();
        let row = |cell: &dyn Fn(&FlowSchedResult) -> Cell| {
            let mut cells = vec![Cell::from(classes)];
            cells.extend(runs.iter().map(|r| r.map(cell).into()));
            cells
        };
        for (bucket, t) in tables.iter_mut().enumerate() {
            t.row(row(&|r| r.mean_fct_us_by_bucket()[bucket].into()));
        }
        tail.row(row(&|r| r.p99_fct_us(|_| true).into()));
        pfc.row(row(&|r| r.pfc_pauses.into()));
    }

    pfc.note(
        "Expected shapes (paper): PrioPlus within ~8-9% of Physical* on total/small/\n\
         middle; 25-41% BETTER on large flows; Physical degrades sharply past 6\n\
         priorities as PFC headroom exhausts the shared buffer.",
    );
    tables.extend([tail, pfc]);
    tables
}
