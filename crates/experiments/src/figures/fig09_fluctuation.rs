//! Figure 9: delay-fluctuation management on the testbed environment.
//!
//! Four flows with deliberately inflated step sizes emulate the
//! fluctuations of numerous flows: Swift runs with W_AI = 0.75 KB (~5x its
//! recommended value) and PrioPlus with W_LS = 75 KB (half the base BDP).
//! PrioPlus's flow-cardinality estimation reins the aggressiveness in and
//! keeps the observed delay near D_target = 37 µs (priority 6); Swift's
//! delay repeatedly overshoots the same target.

use std::cell::RefCell;
use std::rc::Rc;

use crate::micro::{prioplus_swift, testbed_env, DelayLog, Micro};
use crate::{Scale, Table};
use prioplus::PrioPlusConfig;
use simcore::stats::TimeSeries;
use simcore::Time;
use transport::plain::CcTransport;
use transport::sender::SenderBase;
use transport::swift::{SwiftCc, SwiftConfig};

const D_TARGET_US: f64 = 37.0;
const D_LIMIT_US: f64 = 39.4;
/// Swift's additive-increase step: 0.75 KB, ~5x the recommended value.
const W_AI: f64 = 750.0;

fn run(prioplus: bool) -> (Table, f64, f64) {
    let mut env = testbed_env();
    env.end = Time::from_ms(30);
    let mut m = Micro::build(&env);
    // Observed delay of flow 0 over time.
    let log = Rc::new(RefCell::new(TimeSeries::new()));
    for s in 1..=4 {
        m.add_flow_with(s, 200_000_000, Time::ZERO, 0, 6, |params| {
            // Swift target = 37us absolute (base ~13us + 24us), the paper's
            // priority-6 channel on the testbed.
            let d_target = Time::from_us_f64(D_TARGET_US);
            let transport = if prioplus {
                let pp_cfg = PrioPlusConfig {
                    d_target,
                    d_limit: Time::from_us_f64(D_LIMIT_US),
                    base_rtt: params.base_rtt,
                    near_base_eps: Time::from_us_f64(0.8),
                    // "Half of the base BDP" (§5). The paper quotes 75 KB,
                    // which matches the 100G/12us simulation BDP rather
                    // than the 10G testbed BDP (16.25 KB); we apply the
                    // stated *ratio* to this environment.
                    w_ls: params.base_bdp() / 2.0,
                    line_rate: params.line_rate,
                    probe_before_start: false,
                    mtu: params.mtu,
                    seed: params.seed,
                    dual_rtt: true,
                };
                prioplus_swift(params, pp_cfg, Some(W_AI))
            } else {
                let queuing = d_target - params.base_rtt;
                let mut scfg = SwiftConfig::datacenter(params.base_rtt, queuing, params.mtu);
                scfg.ai = W_AI;
                scfg.init_cwnd = params.base_bdp().max(scfg.min_cwnd);
                Box::new(CcTransport::new(
                    SenderBase::new(params.clone()),
                    SwiftCc::new(scfg),
                ))
            };
            if s == 1 {
                let log = log.clone();
                Box::new(DelayLog {
                    inner: transport,
                    log,
                })
            } else {
                transport
            }
        });
    }
    m.sim.run();
    let delay = &log.take();
    let samples = |lo: f64, hi: f64| {
        let in_window = delay
            .t_us
            .iter()
            .zip(&delay.v)
            .filter(move |(ts, _)| **ts >= lo && **ts < hi);
        in_window.map(|(_, v)| *v)
    };
    let (slug, name) = if prioplus {
        ("fig09_prioplus", "PrioPlus+Swift")
    } else {
        ("fig09_swift", "Swift")
    };
    let mut t = Table::new(
        slug,
        format!("Figure 9 ({name}): delay observed by one flow (W_AI=0.75KB / W_LS=BDP/2)"),
        &[
            "t (ms)",
            "mean delay (us)",
            "max delay (us)",
            "> D_limit (%)",
        ],
    );
    let mut over_total = 0usize;
    let mut n_total = 0usize;
    for w in 0..30u32 {
        let (lo, hi) = (w as f64 * 1000.0, w as f64 * 1000.0 + 1000.0);
        let (Some(mean), Some(max)) = (delay.window_mean(lo, hi), delay.window_max(lo, hi)) else {
            continue;
        };
        let n = samples(lo, hi).count();
        let over = samples(lo, hi).filter(|&d| d > D_LIMIT_US).count();
        if w >= 5 {
            over_total += over;
            n_total += n;
        }
        if w % 3 == 0 {
            t.row(vec![
                w.into(),
                mean.into(),
                max.into(),
                (over as f64 / n as f64 * 100.0).into(),
            ]);
        }
    }
    let over_frac = over_total as f64 / n_total.max(1) as f64 * 100.0;
    // Steady-state mean delay (5ms onward).
    let ss_mean = delay.window_mean(5_000.0, f64::INFINITY).unwrap_or(0.0);
    (t, ss_mean, over_frac)
}

pub(crate) fn fig09(_: Scale, _: usize) -> Vec<Table> {
    let (tp, pp_mean, pp_over) = run(true);
    let (mut ts, sw_mean, sw_over) = run(false);
    ts.note(format!(
        "steady-state (>=5ms): PrioPlus mean delay {pp_mean:.1} us, {pp_over:.2}% above D_limit"
    ));
    ts.note(format!(
        "                      Swift    mean delay {sw_mean:.1} us, {sw_over:.2}% above D_limit"
    ));
    ts.note(format!(
        "Expected (paper): PrioPlus estimates cardinality after the first\n\
         over-limit excursion and then holds the delay near D_target = {D_TARGET_US} us;\n\
         Swift keeps overshooting {D_LIMIT_US} us."
    ));
    vec![tp, ts]
}
