//! Appendix D / Figure 19: Swift's worst-case delay fluctuation under
//! synchronized flows, analytic bound vs simulation.
//!
//! The bound: `n*W_AI/LineRate + max(n*beta*W_AI/(LineRate*Target),
//! max_mdf) * Target`. We run n synchronized Swift flows on the
//! micro-benchmark bottleneck, measure the peak-to-trough delay swing in
//! steady state, and check it stays within the analytic bound (which is a
//! worst case, so measured <= bound).

use crate::micro::{Micro, MicroEnv};
use crate::{Scale, Table};
use prioplus::channel::swift_fluctuation;
use simcore::{Rate, Time};
use transport::CcSpec;

fn measure(n: usize) -> f64 {
    let mut m = Micro::build(&MicroEnv {
        senders: n,
        end: Time::from_ms(10),
        ..Default::default()
    });
    m.monitor_bottleneck_queue(Time::from_us(2));
    let swift = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    for s in 1..=n {
        m.add_flow(s, 100_000_000, Time::ZERO, 0, 0, &swift);
    }
    let series = m.run().series;
    let q = &series[0];
    // Steady-state swing (5..10ms) in delay-microseconds at 100 Gbps.
    let max = q.window_max(5_000.0, 10_000.0).unwrap();
    let min = q
        .t_us
        .iter()
        .zip(&q.v)
        .filter(|(t, _)| **t >= 5_000.0)
        .map(|(_, v)| *v)
        .fold(f64::INFINITY, f64::min);
    (max - min) * 8.0 / 100e9 * 1e6
}

pub(crate) fn appd_fluctuation(_: Scale, _: usize) -> Vec<Table> {
    let rate = Rate::from_gbps(100);
    let target = Time::from_us(16);
    let mut t = Table::new(
        "appd_fluctuation",
        "Appendix D (Fig 19): Swift delay fluctuation — measured vs analytic bound",
        &[
            "flows",
            "measured swing (us)",
            "analytic bound (us)",
            "within bound",
        ],
    );
    for n in [2usize, 4, 8, 16, 32] {
        let measured = measure(n);
        let bound = swift_fluctuation(n, 1000.0, rate, target, 0.8, 0.5).as_us_f64();
        t.row(vec![
            n.into(),
            measured.into(),
            bound.into(),
            (measured <= bound * 1.05).to_string().into(),
        ]);
    }
    t.note(
        "The bound assumes fully synchronized worst-case flows; measured swings\n\
         should sit below it and grow with n (the trend §4.3.2 sizes channels by).",
    );
    vec![t]
}
