//! Table 2 / Figure 5 / Theorem 4.1: start-strategy trade-off between bytes
//! delayed and worst-case extra buffer, for line-rate, exponential, and
//! linear starts — both closed-form and numerically evaluated, plus a
//! verification that the linear ramp minimizes worst-case backlog among a
//! family of alternative ramps (the variational-method theorem).

use crate::{Scale, Table};
use prioplus::linear_start::{
    bytes_delayed_bdp, max_extra_buffer_bdp, table2_closed_form, ExponentialStart, LineRateStart,
    LinearStart, StartStrategy,
};

pub(crate) fn tab02(_: Scale, _: usize) -> Vec<Table> {
    let n = 8;
    let mut t = Table::new(
        "tab02",
        format!("Table 2: start strategies (ramp of n = {n} RTTs; units of BDP)"),
        &[
            "strategy",
            "bytes delayed (sim)",
            "bytes delayed (closed)",
            "max extra buffer (sim)",
            "max extra buffer (closed)",
        ],
    );
    let strategies: Vec<(&str, Box<dyn StartStrategy>)> = vec![
        ("line-rate", Box::new(LineRateStart)),
        ("exponential", Box::new(ExponentialStart { n })),
        ("linear", Box::new(LinearStart { n })),
    ];
    for (name, s) in &strategies {
        let (d_cf, b_cf) = table2_closed_form(name, n);
        t.row(vec![
            (*name).into(),
            bytes_delayed_bdp(s.as_ref()).into(),
            d_cf.into(),
            max_extra_buffer_bdp(s.as_ref()).into(),
            b_cf.into(),
        ]);
    }
    t.note(
        "Paper: line-rate = (0, 1 BDP); exponential = (n-3/2, 0.5 BDP);\n\
         linear = (n/2, 1/(2n) BDP)  [Theorem 4.1: linear is backlog-optimal]",
    );

    // Theorem 4.1 spot check: linear beats power-law ramps of equal length.
    struct Power {
        n: u32,
        p: f64,
    }
    impl StartStrategy for Power {
        fn rate(&self, t: f64) -> f64 {
            (t / self.n as f64).clamp(0.0, 1.0).powf(self.p)
        }
        fn duration(&self) -> f64 {
            self.n as f64
        }
        fn name(&self) -> &'static str {
            "power"
        }
    }
    let mut v = Table::new(
        "tab02_theorem",
        "Theorem 4.1 verification: worst-case backlog by ramp shape (n = 8)",
        &["ramp", "max extra buffer (BDP)"],
    );
    v.row(vec![
        "linear".into(),
        max_extra_buffer_bdp(&LinearStart { n }).into(),
    ]);
    for p in [0.5, 2.0, 4.0] {
        v.row(vec![
            format!("power p={p}").into(),
            max_extra_buffer_bdp(&Power { n, p }).into(),
        ]);
    }
    v.row(vec![
        "exponential".into(),
        max_extra_buffer_bdp(&ExponentialStart { n }).into(),
    ]);
    vec![t, v]
}
