//! Figure 8: the (simulated) testbed experiment — four adjacent virtual
//! priorities (3, 4, 5, 6), two flows each, on the 10 Gbps / ≈13 µs tree.
//! Flows start lowest-priority-first at 4 ms intervals and finish at 4 ms
//! intervals; PrioPlus must show immediate yielding on each start (O1) and
//! quick takeover on each finish (O2). Compared against Swift with the
//! same per-priority targets (no PrioPlus mechanisms).

use crate::micro::{add_fig8_flows, goodput_gbps, ids_at, testbed_env, Micro};
use crate::{Cell, Scale, Table};
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

/// Swift with targets aligned to the PrioPlus `D_target`s, scaling disabled
/// (§5's comparison).
pub(super) fn swift_at_prio_target(prio: u8) -> CcSpec {
    CcSpec::Swift {
        queuing: Time::from_us(4 * (prio as u64 + 1)),
        scaling: false,
    }
}

fn run(cc_name: &str, use_prioplus: bool) -> Table {
    let mut env = testbed_env();
    env.end = Time::from_ms(36);
    env.num_prios = 1;
    let mut m = Micro::build(&env);
    let policy = PrioPlusPolicy::paper_default(7);
    let flows = add_fig8_flows(&mut m, false, |prio| {
        if use_prioplus {
            CcSpec::PrioPlusSwift { policy }
        } else {
            swift_at_prio_target(prio)
        }
    });
    let goodput = m.run().goodput;

    let sub = if use_prioplus { "a" } else { "b" };
    let mut t = Table::new(
        format!("fig08{sub}"),
        format!("Figure 8{sub}: per-priority goodput over time ({cc_name}, 10G testbed)"),
        &[
            "t (ms)",
            "prio3 Gbps",
            "prio4 Gbps",
            "prio5 Gbps",
            "prio6 Gbps",
        ],
    );
    for w in 0..36u32 {
        let (lo, hi) = (w as f64 * 1000.0, w as f64 * 1000.0 + 1000.0);
        let mut cells = vec![Cell::from(w)];
        for p in [3u8, 4, 5, 6] {
            cells.push(goodput_gbps(&goodput, &ids_at(&flows, p), lo, hi).into());
        }
        t.row(cells);
    }
    t
}

pub(crate) fn fig08(_: Scale, _: usize) -> Vec<Table> {
    let a = run("PrioPlus+Swift", true);
    let mut b = run("Swift w/ per-prio targets", false);
    b.note(
        "Expected shape (paper): with PrioPlus, each newly started higher priority\n\
         takes the full 10 Gbps almost immediately and lower priorities drop to ~0;\n\
         on each finish the next priority reclaims the link within ~a few hundred us.\n\
         Plain Swift with per-priority targets yields/reclaims in ~2-3 ms instead.",
    );
    vec![a, b]
}
