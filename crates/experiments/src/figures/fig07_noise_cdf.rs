//! Figure 7: CDF of delay-measurement noise.
//!
//! The paper measures NIC-hardware-timestamp noise on its testbed (TSO on
//! and off): mean ≈ 0.3 µs, < 0.1 % of samples above 1 µs, long tail. We
//! sample our fitted model and print its CDF plus the statistics the paper
//! quotes, including the 99.85th percentile (0.8 µs) used as the channel
//! noise allowance B.

use crate::{Scale, Table};
use netsim::NoiseModel;
use simcore::stats::Summary;
use simcore::SimRng;

pub(crate) fn fig07(_: Scale, _: usize) -> Vec<Table> {
    let model = NoiseModel::testbed();
    let mut rng = SimRng::new(0xF16);
    let mut summary = Summary::new();
    let n = 500_000;
    for _ in 0..n {
        summary.add(model.sample(&mut rng).as_us_f64());
    }

    let mut t = Table::new(
        "fig07",
        "Figure 7: delay noise CDF (fitted to testbed HW timestamping)",
        &["noise (us)", "CDF"],
    );
    for (v, f) in summary.cdf_points(25) {
        t.row(vec![v.into(), f.into()]);
    }
    let mean = summary.mean().unwrap();
    let p9985 = summary.percentile(99.85).unwrap();
    let over_1us = summary.samples().iter().filter(|&&s| s > 1.0).count() as f64 / n as f64;
    t.note(format!("mean noise: {mean:.3} us   (paper: ~0.3 us)"));
    t.note(format!(
        "P(noise > 1us): {:.4}%   (paper: < 0.1%)",
        over_1us * 100.0
    ));
    t.note(format!(
        "p99.85: {p9985:.3} us   (paper picks 0.8 us as allowance B)"
    ));
    vec![t]
}
