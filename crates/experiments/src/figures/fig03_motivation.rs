//! Figure 3: why existing CCs cannot provide virtual priority.
//!
//! - `a`: two D2TCP flows with deadlines 1x and 2x the ideal FCT — ECN
//!   slows both, the urgent flow is not strictly prioritized (O1 violated).
//! - `b`: Swift *with* target scaling, 2 high-target + 2 low-target flows —
//!   scaling converges to weighted sharing, not strict priority.
//! - `c`: Swift *without* scaling, many low-priority flows + 1 high — queue
//!   fluctuations both under-utilize (O2) and push past the high-priority
//!   target (O1).
//! - `d`: Swift without scaling, 2 high then 2 low at 100 µs — shows the
//!   line-rate-start buffer spike and the min-rate signal-frequency
//!   trade-offs (Observation 3).

use crate::micro::{goodput_gbps, Micro, MicroEnv};
use crate::{probe::Probed, Cell, Scale, Table};
use simcore::Time;
use transport::CcSpec;

/// Swift at the high (+15 µs) and the low (+5 µs) priority's delay target.
fn swift_high_low(scaling: bool) -> (CcSpec, CcSpec) {
    let at = |queuing_us| CcSpec::Swift {
        queuing: Time::from_us(queuing_us),
        scaling,
    };
    (at(15), at(5))
}

/// Fig 3a: D2TCP cannot strictly prioritize the urgent flow.
pub(crate) fn fig03a(_: Scale, _: usize) -> Vec<Table> {
    let mut m = Micro::build(&MicroEnv {
        senders: 2,
        end: Time::from_ms(3),
        ..Default::default()
    });
    // 6.25 MB each => ideal FCT 512us alone. Urgent: DDL = 1x ideal;
    // relaxed: DDL = 2x ideal.
    let size = 6_250_000u64;
    let urgent = m.add_flow(
        1,
        size,
        Time::ZERO,
        0,
        1,
        &CcSpec::D2tcp {
            deadline_factor: Some(1.0),
        },
    );
    let relaxed = m.add_flow(
        2,
        size,
        Time::ZERO,
        0,
        0,
        &CcSpec::D2tcp {
            deadline_factor: Some(2.0),
        },
    );
    let Probed { res, goodput, .. } = m.run();
    let ideal_us = size as f64 * 8.0 / 100e9 * 1e6 + 12.0;

    let mut t = Table::new(
        "fig03a",
        "Figure 3a: D2TCP, urgent (DDL=1x ideal) vs relaxed (DDL=2x) flow",
        &["t (us)", "urgent Gbps", "relaxed Gbps"],
    );
    for w in 0..14 {
        let (f, to) = (w as f64 * 100.0, w as f64 * 100.0 + 100.0);
        t.row(vec![
            Cell::num(f, 0, ""),
            goodput_gbps(&goodput, &[urgent], f, to).into(),
            goodput_gbps(&goodput, &[relaxed], f, to).into(),
        ]);
    }
    let fu = res.records[urgent as usize].fct().unwrap().as_us_f64();
    let fr = res.records[relaxed as usize].fct().unwrap().as_us_f64();
    t.note(format!(
        "ideal FCT: {ideal_us:.0}us; urgent FCT {fu:.0}us (DDL {ideal_us:.0}us, met: {});",
        fu <= ideal_us * 1.05
    ));
    t.note(format!(
        "relaxed FCT {fr:.0}us (DDL {:.0}us)",
        2.0 * ideal_us
    ));
    t.note("Expected (paper): both flows slow on ECN; urgent misses strict priority.\n");
    vec![t]
}

/// Fig 3b: Swift with target scaling converges to weighted sharing.
pub(crate) fn fig03b(_: Scale, _: usize) -> Vec<Table> {
    let mut m = Micro::build(&MicroEnv {
        senders: 4,
        end: Time::from_ms(6),
        ..Default::default()
    });
    let (hi_cc, lo_cc) = swift_high_low(true);
    let hi: Vec<u32> = (1..=2)
        .map(|s| m.add_flow(s, 60_000_000, Time::ZERO, 0, 1, &hi_cc))
        .collect();
    let lo: Vec<u32> = (3..=4)
        .map(|s| m.add_flow(s, 60_000_000, Time::ZERO, 0, 0, &lo_cc))
        .collect();
    let goodput = m.run().goodput;
    let mut t = Table::new(
        "fig03b",
        "Figure 3b: Swift WITH target scaling — 2 high (target +15us) vs 2 low (+5us)",
        &["t (ms)", "high total Gbps", "low total Gbps"],
    );
    for w in 0..6u32 {
        let (f, to) = (w as f64 * 1000.0, w as f64 * 1000.0 + 1000.0);
        t.row(vec![
            w.into(),
            goodput_gbps(&goodput, &hi, f, to).into(),
            goodput_gbps(&goodput, &lo, f, to).into(),
        ]);
    }
    let hi_ss = goodput_gbps(&goodput, &hi, 3_000.0, 6_000.0);
    let lo_ss = goodput_gbps(&goodput, &lo, 3_000.0, 6_000.0);
    t.note(format!(
        "steady state: high {hi_ss:.1} Gbps vs low {lo_ss:.1} Gbps — weighted sharing,\n\
         NOT strict priority (low keeps a large share; O1 violated).\n"
    ));
    vec![t]
}

/// Fig 3c: Swift without scaling under many low-priority flows.
pub(crate) fn fig03c(scale: Scale, _: usize) -> Vec<Table> {
    let n_low = scale.pick(100, 300);
    let mut m = Micro::build(&MicroEnv {
        senders: n_low + 1,
        end: Time::from_ms(6),
        ..Default::default()
    });
    m.monitor_bottleneck_queue(Time::from_us(10));
    m.monitor_bottleneck_throughput(Time::from_us(100));
    let (hi_cc, lo_cc) = swift_high_low(false);
    for s in 1..=n_low {
        m.add_flow(s, 50_000_000, Time::ZERO, 0, 0, &lo_cc);
    }
    let hi = m.add_flow(n_low + 1, 50_000_000, Time::from_ms(2), 0, 1, &hi_cc);
    let Probed {
        series, goodput, ..
    } = m.run();
    let q = &series[0];
    let tput = &series[1];
    let mut t = Table::new(
        "fig03c",
        format!("Figure 3c: Swift w/o scaling — {n_low} low flows + 1 high at 2ms"),
        &[
            "t (ms)",
            "bottleneck Gbps",
            "queue mean (KB)",
            "queue max (KB)",
            "high Gbps",
        ],
    );
    for w in 0..6u32 {
        let (f, to) = (w as f64 * 1000.0, w as f64 * 1000.0 + 1000.0);
        t.row(vec![
            w.into(),
            tput.window_mean(f, to).unwrap_or(0.0).into(),
            (q.window_mean(f, to).unwrap_or(0.0) / 1000.0).into(),
            (q.window_max(f, to).unwrap_or(0.0) / 1000.0).into(),
            goodput_gbps(&goodput, &[hi], f, to).into(),
        ]);
    }
    let util = tput.window_mean(500.0, 2_000.0).unwrap_or(0.0);
    let hi_share = goodput_gbps(&goodput, &[hi], 3_000.0, 6_000.0);
    t.note(format!(
        "utilization before the high flow: {util:.1}/100 Gbps; high flow's share after\n\
         joining: {hi_share:.1} Gbps. Expected (paper, 300 flows): queue fluctuations of\n\
         many flows swamp the high flow's higher target, so it decelerates (O1\n\
         violated) and the queue cannot be held near the low-priority target (O2).\n"
    ));
    vec![t]
}

/// Fig 3d: start-rate and min-rate trade-offs.
pub(crate) fn fig03d(_: Scale, _: usize) -> Vec<Table> {
    let mut m = Micro::build(&MicroEnv {
        senders: 4,
        end: Time::from_ms(4),
        ..Default::default()
    });
    m.monitor_bottleneck_queue(Time::from_us(5));
    let (hi_cc, lo_cc) = swift_high_low(false);
    // Two high flows converge first; highs are finite so the lows' slow
    // reclaim is visible; lows start (line-rate!) at 100us.
    let hi: Vec<u32> = (1..=2)
        .map(|s| m.add_flow(s, 12_500_000, Time::ZERO, 0, 1, &hi_cc))
        .collect();
    let lo: Vec<u32> = (3..=4)
        .map(|s| m.add_flow(s, 40_000_000, Time::from_us(100), 0, 0, &lo_cc))
        .collect();
    let Probed {
        series, goodput, ..
    } = m.run();
    let q = &series[0];
    let mut t = Table::new(
        "fig03d",
        "Figure 3d: Swift w/o scaling — 2 high converged, 2 low line-rate start at 100us",
        &[
            "t (us)",
            "high total Gbps",
            "low total Gbps",
            "queue max (KB)",
        ],
    );
    for (f, to) in [
        (0.0, 100.0),
        (100.0, 200.0),
        (200.0, 400.0),
        (400.0, 800.0),
        (800.0, 1600.0),
        (1600.0, 2400.0),
        (2400.0, 3200.0),
        (3200.0, 4000.0),
    ] {
        t.row(vec![
            format!("{f:.0}-{to:.0}").into(),
            goodput_gbps(&goodput, &hi, f, to).into(),
            goodput_gbps(&goodput, &lo, f, to).into(),
            (q.window_max(f, to).unwrap_or(0.0) / 1000.0).into(),
        ]);
    }
    let spike = q.window_max(100.0, 160.0).unwrap_or(0.0);
    t.note(format!(
        "line-rate start of low flows spikes the queue to {:.0} KB (hurts high prio);\n\
         low flows then idle at the min-rate floor — slow signal, slow reclaim (Obs. 3).\n",
        spike / 1000.0
    ));
    vec![t]
}
