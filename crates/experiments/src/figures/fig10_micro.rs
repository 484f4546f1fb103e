//! Figure 10: PrioPlus micro-benchmarks at 100 Gbps / 12 µs RTT.
//!
//! - `a`: 8 priorities × 30 flows, staggered starts/ends at 5 ms — strict
//!   yielding and instant takeover across the whole ladder;
//! - `b`: 300-flow incast at one priority — cardinality estimation holds
//!   the delay near D_target;
//! - `c`: dual-RTT adaptive increase vs the per-RTT ablation — the per-RTT
//!   variant overshoots badly;
//! - `d`: noise tolerance — channel width needed for ≥ 98 % utilization
//!   grows linearly with the noise scale.

use crate::micro::{goodput_gbps, ids_at, prioplus_swift, Micro, MicroEnv};
use crate::{Cell, Scale, Table};
use netsim::NoiseModel;
use prioplus::PrioPlusConfig;
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

/// Fig 10a: the 8-priority staircase.
pub(crate) fn fig10a(scale: Scale, _: usize) -> Vec<Table> {
    let per_prio = scale.pick(6, 30);
    let mut m = Micro::build(&MicroEnv {
        senders: 8 * per_prio,
        end: Time::from_ms(85),
        noise: NoiseModel::testbed(),
        ..Default::default()
    });
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy::paper_default(8),
    };
    // Priority p starts at p*5ms. Sizes chosen so that priority p finishes
    // ~(40 + (7-p)*5)ms: while top, each level gets the full link.
    let mut flows: Vec<(u8, u32)> = Vec::new();
    for p in 0..8u8 {
        let start = Time::from_ms(5 * p as u64);
        // Exclusive window of each priority is 5ms at 100 Gbps shared by
        // per_prio flows.
        let size_each =
            (100e9 / 8.0 * 0.005 * (1.0 + (7 - p) as f64 * 0.04)) as u64 / per_prio as u64;
        for f in 0..per_prio {
            let sender = 1 + (p as usize * per_prio + f);
            let id = m.add_flow(sender, size_each, start, 0, p, &cc);
            flows.push((p, id));
        }
    }
    let goodput = m.run().goodput;
    let mut t = Table::new(
        "fig10a",
        format!("Figure 10a: 8 virtual priorities x {per_prio} flows, 5 ms staggered"),
        &["t (ms)", "p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"],
    );
    for w in (0..80u32).step_by(2) {
        let (lo, hi) = (w as f64 * 1000.0, (w + 2) as f64 * 1000.0);
        let mut cells = vec![Cell::from(w)];
        for p in 0..8u8 {
            let g = goodput_gbps(&goodput, &ids_at(&flows, p), lo, hi);
            cells.push(Cell::num(g, 0, ""));
        }
        t.row(cells);
    }
    t.note(
        "Expected (paper): a diagonal staircase — at any time only the highest\n\
         live priority carries ~full bandwidth (O1 + O2).\n",
    );
    vec![t]
}

/// Fig 10b: 300-flow incast, delay held near D_target = 32 µs.
pub(crate) fn fig10b(scale: Scale, _: usize) -> Vec<Table> {
    let n = scale.pick(150, 300);
    let mut m = Micro::build(&MicroEnv {
        senders: n,
        end: Time::from_ms(10),
        noise: NoiseModel::testbed(),
        ..Default::default()
    });
    m.monitor_bottleneck_queue(Time::from_us(10));
    m.monitor_bottleneck_throughput(Time::from_us(100));
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy::paper_default(8),
    };
    for s in 1..=n {
        // Priority 4: D_target = 32us (20us + 12us base), D_limit = 34.4us.
        m.add_flow(s, 5_000_000, Time::ZERO, 0, 4, &cc);
    }
    let series = m.run().series;
    let q = &series[0];
    let tput = &series[1];
    let mut t = Table::new(
        "fig10b",
        format!("Figure 10b: {n}-flow incast at priority 4 (D_target 32us, D_limit 34.4us)"),
        &[
            "t (ms)",
            "queue-implied delay mean (us)",
            "max (us)",
            "goodput Gbps",
        ],
    );
    for w in 0..10u32 {
        let (lo, hi) = (w as f64 * 1000.0, (w + 1) as f64 * 1000.0);
        let to_us = |b: f64| 12.0 + b * 8.0 / 100e9 * 1e6;
        t.row(vec![
            w.into(),
            to_us(q.window_mean(lo, hi).unwrap_or(0.0)).into(),
            to_us(q.window_max(lo, hi).unwrap_or(0.0)).into(),
            tput.window_mean(lo, hi).unwrap_or(0.0).into(),
        ]);
    }
    t.note(
        "Expected (paper): after the initial excursion past D_limit, cardinality\n\
         estimation pins the delay near 32 us with full goodput.\n",
    );
    vec![t]
}

/// Fig 10c: dual-RTT vs per-RTT adaptive increase.
pub(crate) fn fig10c(_: Scale, _: usize) -> Vec<Table> {
    let mut tables = Vec::new();
    for (label, dual) in [
        ("dual-RTT (PrioPlus)", true),
        ("every-RTT (ablation)", false),
    ] {
        let mut m = Micro::build(&MicroEnv {
            senders: 20,
            end: Time::from_ms(4),
            noise: NoiseModel::testbed(),
            ..Default::default()
        });
        m.monitor_bottleneck_queue(Time::from_us(5));
        let policy = PrioPlusPolicy::paper_default(8);
        // 10 low-priority flows converged, then 10 high-priority at 1 ms.
        let mk = |m: &mut Micro, s: usize, prio: u8, start: Time| {
            m.add_flow_with(s, 60_000_000, start, 0, prio, |params| {
                let pp_cfg = PrioPlusConfig {
                    dual_rtt: dual,
                    ..policy.flow_config(params)
                };
                prioplus_swift(params, pp_cfg, None)
            })
        };
        for s in 1..=10 {
            mk(&mut m, s, 2, Time::ZERO);
        }
        for s in 11..=20 {
            mk(&mut m, s, 6, Time::from_ms(1));
        }
        let series = m.run().series;
        let q = &series[0];
        let mut t = Table::new(
            if dual { "fig10c_dual" } else { "fig10c_every" },
            format!("Figure 10c ({label}): 10 high preempt 10 low at 1 ms"),
            &["t (us)", "queue delay mean (us)", "queue delay max (us)"],
        );
        let to_us = |b: f64| b * 8.0 / 100e9 * 1e6;
        for w in 0..16 {
            let (lo, hi) = (w as f64 * 250.0, (w + 1) as f64 * 250.0);
            t.row(vec![
                Cell::num(lo, 0, ""),
                to_us(q.window_mean(lo, hi).unwrap_or(0.0)).into(),
                to_us(q.window_max(lo, hi).unwrap_or(0.0)).into(),
            ]);
        }
        // High-priority channel: D_target 28us queuing (40us abs - 12us).
        let overshoot = to_us(q.window_max(1_000.0, 2_500.0).unwrap_or(0.0));
        t.note(format!(
            "{label}: max queuing delay during takeover = {overshoot:.1} us (target 28 us)\n"
        ));
        tables.push(t);
    }
    tables.last_mut().expect("two variants ran").note(
        "Expected (paper): the dual-RTT variant raises the delay to the high\n\
         priority's D_target without overshoot; the every-RTT ablation double-\n\
         applies the increase and overshoots severely.\n",
    );
    tables
}

/// Fig 10d: channel width needed for ≥98 % utilization vs noise scale.
pub(crate) fn fig10d(_: Scale, jobs: usize) -> Vec<Table> {
    let mut t = Table::new(
        "fig10d",
        "Figure 10d: channel width for >=98% utilization vs delay-noise scale",
        &[
            "noise scale",
            "width 1x ok?",
            "width 2x",
            "width 4x",
            "width 8x",
            "min width (us)",
        ],
    );
    // The 4x4 (noise scale, channel width) grid is 16 independent runs;
    // sweep them across threads, results in grid order.
    let scales = [1.0, 2.0, 4.0, 8.0];
    let widths = [1.0, 2.0, 4.0, 8.0];
    let grid: Vec<(f64, f64)> = scales
        .iter()
        .flat_map(|&s| widths.iter().map(move |&w| (s, w)))
        .collect();
    let utils = crate::sweep::run_ordered(&grid, jobs, &|&(s, w)| run_noise_case(s, w));
    let mut utils = utils.into_iter();
    for scale in scales {
        let mut row = vec![Cell::from(format!("{scale}x"))];
        let mut min_width = None;
        for wmul in widths {
            let util = utils.next().expect("one result per grid cell");
            let ok = util >= 0.98;
            row.push(Cell::num(util, 3, if ok { "*" } else { "" }));
            if ok && min_width.is_none() {
                min_width = Some(4.0 * wmul);
            }
        }
        row.push(min_width.map_or(">32".into(), |w| Cell::num(w, 0, "")));
        t.row(row);
    }
    t.note(
        "(cells are achieved utilization; * marks >=98%.)\n\
         Expected (paper): the required channel width grows linearly with the\n\
         noise magnitude.",
    );
    vec![t]
}

/// Utilization of 5 same-priority PrioPlus flows under `noise_scale`-scaled
/// measurement noise with channels `width_mul`x the default.
fn run_noise_case(noise_scale: f64, width_mul: f64) -> f64 {
    let mut m = Micro::build(&MicroEnv {
        senders: 5,
        end: Time::from_ms(8),
        noise: NoiseModel::Fitted { scale: noise_scale },
        ..Default::default()
    });
    m.monitor_bottleneck_throughput(Time::from_us(100));
    let policy = PrioPlusPolicy {
        fluct: Time::from_us_f64(3.2 * width_mul),
        noise: Time::from_us_f64(0.8 * width_mul),
        ..PrioPlusPolicy::paper_default(8)
    };
    let cc = CcSpec::PrioPlusSwift { policy };
    for s in 1..=5 {
        m.add_flow(s, 100_000_000, Time::ZERO, 0, 4, &cc);
    }
    let series = m.run().series;
    let tput = &series[0];
    tput.window_mean(2_000.0, 8_000.0).unwrap_or(0.0) / 100.0
}
