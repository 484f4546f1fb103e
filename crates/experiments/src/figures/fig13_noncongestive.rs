//! Figure 13: operating under non-congestive delay.
//!
//! The Fig 8a testbed experiment is replayed with uniform non-congestive
//! delay injected at the bottleneck, for tolerable-noise settings B = 10,
//! 20, 30 µs. The metric is the Normalized FCT Gap vs Physical+Swift:
//! `sum(|FCT_pp - FCT_phys| / FCT_phys)` over the flows. Performance should
//! hold until the non-congestive range exceeds the configured tolerance.
//!
//! The (range × B × seed) grid is a sweep of independent cases; `--jobs N`
//! fans it across threads with output identical to a serial run.

use super::fig08_testbed_prios::swift_at_prio_target;
use crate::micro::{add_fig8_flows, testbed_env, Micro};
use crate::sweep::run_ordered;
use crate::{Cell, Scale, Table};
use netsim::NoiseModel;
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

/// FCTs (µs) of the Fig 8 flow set under `range` µs of uniform
/// non-congestive delay at the bottleneck, for one seed. `tol_us` is
/// PrioPlus's noise allowance B; `None` runs the reference instead — Swift
/// in physical priority queues, whose scheduling the in-path delay cannot
/// confuse.
fn run_flows(range: u64, tol_us: Option<u64>, seed: u64) -> Vec<f64> {
    let mut env = testbed_env();
    env.switch.nc_delay = (range != 0).then(|| NoiseModel::Uniform {
        range_ps: Time::from_us(range).as_ps(),
    });
    env.end = Time::from_ms(40);
    env.seed = seed;
    env.num_prios = if tol_us.is_none() { 7 } else { 1 };
    let mut m = Micro::build(&env);
    let flows = add_fig8_flows(&mut m, tol_us.is_none(), |prio| match tol_us {
        None => swift_at_prio_target(prio),
        // Widened channels: noise allowance B = tol.
        Some(tol) => CcSpec::PrioPlusSwift {
            policy: PrioPlusPolicy {
                noise: Time::from_us(tol),
                ..PrioPlusPolicy::paper_default(7)
            },
        },
    });
    let res = m.sim.run();
    flows
        .iter()
        .map(|&(_, id)| {
            res.records[id as usize]
                .fct()
                .map(|t| t.as_us_f64())
                .unwrap_or(40_000.0)
        })
        .collect()
}

pub(crate) fn fig13(_: Scale, jobs: usize) -> Vec<Table> {
    let mut t = Table::new(
        "fig13",
        "Figure 13: Normalized FCT Gap vs non-congestive delay range",
        &["nc range (us)", "B=10us", "B=20us", "B=30us"],
    );
    let ranges: Vec<u64> = vec![0, 6, 10, 14, 18, 24, 28, 32, 40];
    let tols = [10u64, 20, 30];
    // Average the gap over several seeds: the nc-delay draws are random and
    // a single staggered-8-flow run is noisy.
    let seeds = [1u64, 2, 3, 4];
    // The reference depends on (range, seed) only: one run serves every B.
    let mut refs: Vec<(u64, u64)> = Vec::new();
    let mut cases: Vec<(u64, u64, u64)> = Vec::new();
    for &range in &ranges {
        refs.extend(seeds.map(|seed| (range, seed)));
        for &tol in &tols {
            cases.extend(seeds.map(|seed| (range, tol, seed)));
        }
    }
    let phys = run_ordered(&refs, jobs, &|&(range, seed)| run_flows(range, None, seed));
    let pp = run_ordered(&cases, jobs, &|&(range, tol, seed)| {
        run_flows(range, Some(tol), seed)
    });
    let mut pp = pp.iter();
    for (phys, &range) in phys.chunks(seeds.len()).zip(&ranges) {
        let mut cells = vec![Cell::from(range)];
        for _tol in tols {
            let gap_sum: f64 = phys
                .iter()
                .map(|phys_fcts| {
                    let pp_fcts = pp.next().expect("one PrioPlus run per case");
                    let gaps = phys_fcts
                        .iter()
                        .zip(pp_fcts)
                        .map(|(p, q)| (q - p).abs() / p);
                    gaps.sum::<f64>()
                })
                .sum();
            cells.push((gap_sum / seeds.len() as f64).into());
        }
        t.row(cells);
    }
    t.note(
        "Expected (paper): the gap stays flat until the nc-delay range passes the\n\
         tolerance setting (impact thresholds ~14/24/32 us for B = 10/20/30 us),\n\
         then grows — incorporating nc variation into B restores operation.",
    );
    vec![t]
}
