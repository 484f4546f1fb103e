//! `ppbench compare A.json B.json`: the verdict on two result files.
//!
//! Per workload × end-to-end metric: both medians, how much worse B is
//! than A (as a share of A, in the metric's own direction), the bound, and
//! a verdict. A difference past the bound whose interquartile ranges still
//! overlap is `unresolved`, not `worse` or `better`; so is a difference
//! inside the bound when either side's own spread is wider than the bound.
//! A `setup_s` difference below [`SETUP_FLOOR_S`] is always `within`.
//! Exact counts are `same` or `DIFFERENT`.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER, SETUP_FLOOR_S};

/// Verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse or better than the bound, and the spread resolves that.
    Within,
    /// Worse by more than the bound, interquartile ranges apart.
    Worse,
    /// Better by more than the bound, interquartile ranges apart.
    Better,
    /// The spread of the samples does not resolve the difference.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    /// Median over reps.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// Verdict for one metric. Medians closer than `floor` (in the metric's
/// unit) are `within` whatever their ratio.
pub fn verdict(a: Side, b: Side, lower_is_better: bool, bound: f64, floor: f64) -> Verdict {
    if (a.value - b.value).abs() < floor {
        return Verdict::Within;
    }
    let rel = worse_by(a.value, b.value, lower_is_better);
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    let spread = ((a.q3 - a.q1) / a.value).max((b.q3 - b.q1) / b.value);
    if rel.abs() <= bound {
        if spread > bound {
            Verdict::Unresolved
        } else {
            Verdict::Within
        }
    } else if overlap {
        Verdict::Unresolved
    } else if rel > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

/// Absolute difference below which `metric` cannot regress.
fn floor_of(metric: &str) -> f64 {
    if metric == "setup_s" {
        SETUP_FLOOR_S
    } else {
        0.0
    }
}

fn failure_rate(workload: &Json) -> Option<f64> {
    let failed = workload.get("ops_failed")?.as_f64()?;
    let attempted = workload.get("ops_attempted")?.as_f64()?;
    (attempted > 0.0).then(|| failed / attempted)
}

/// Compare two result files; prints the table and returns whether B is
/// acceptable (no `worse`, no rise in the failure rate).
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = |j: &'_ Json| -> Result<Vec<(String, Json)>, String> {
        Ok(j.get("workloads")
            .and_then(Json::as_obj)
            .ok_or("not a ppbench result file: no `workloads`")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut ok = true;
    let mut compared = 0;
    for (name, a) in &wa {
        let Some((_, b)) = wb.iter().find(|(n, _)| n == name) else {
            println!("== {name}: only in A");
            continue;
        };
        println!("== {name}");
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(a, m.name), side(b, m.name)) else {
                continue;
            };
            let lower = m.lower_is_better();
            let (bound, floor) = (m.bound(), floor_of(m.name));
            let v = verdict(sa, sb, lower, bound, floor);
            ok &= v != Verdict::Worse;
            compared += 1;
            println!(
                "  {:<14} A {:>14.6}  B {:>14.6} {:<9} worse by {:>+7.2} %  bound {:>4.1} %  {}",
                m.name,
                sa.value,
                sb.value,
                m.unit,
                100.0 * worse_by(sa.value, sb.value, lower),
                100.0 * bound,
                v.label()
            );
        }
        match (failure_rate(a), failure_rate(b)) {
            (Some(fa), Some(fb)) => {
                let rose = fb > fa;
                ok &= !rose;
                println!(
                    "  ops_failed/ops_attempted  A {fa:.4}  B {fb:.4}  {}",
                    if rose { "ROSE" } else { "no rise" }
                );
            }
            _ => return Err(format!("{name}: missing ops_attempted/ops_failed")),
        }
        let counts = |j: &Json, k: &str| {
            j.get("counts")
                .and_then(|c| c.get(k))
                .and_then(Json::as_f64)
        };
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            if let (Some(ca), Some(cb)) = (counts(a, m.name), counts(b, m.name)) {
                if ca == cb {
                    println!("  {:<30} same       {ca}", m.name);
                } else {
                    println!("  {:<30} DIFFERENT  A {ca}  B {cb}", m.name);
                }
            }
        }
    }
    if compared == 0 {
        return Err("the two files share no workload with end-to-end metrics".into());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, q1: f64, q3: f64) -> Side {
        Side { value, q1, q3 }
    }

    #[test]
    fn direction_follows_the_metric() {
        assert!((worse_by(2.0, 2.2, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(2.0, 2.2, false) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let a = s(1.00, 0.99, 1.01);
        // Inside the bound, tight spread.
        assert_eq!(verdict(a, s(1.03, 1.02, 1.04), true, 0.05, 0.0), Verdict::Within);
        // Past the bound, ranges apart.
        assert_eq!(verdict(a, s(1.10, 1.09, 1.11), true, 0.05, 0.0), Verdict::Worse);
        assert_eq!(verdict(a, s(0.90, 0.89, 0.91), true, 0.05, 0.0), Verdict::Better);
        // The same numbers for a higher-is-better metric flip.
        assert_eq!(
            verdict(a, s(1.10, 1.09, 1.11), false, 0.05, 0.0),
            Verdict::Better
        );
        // Past the bound but the interquartile ranges overlap.
        assert_eq!(
            verdict(s(1.00, 0.90, 1.12), s(1.10, 1.00, 1.20), true, 0.05, 0.0),
            Verdict::Unresolved
        );
        // Inside the bound but one side's spread is wider than the bound.
        assert_eq!(
            verdict(a, s(1.01, 0.95, 1.07), true, 0.05, 0.0),
            Verdict::Unresolved
        );
        // Twice as slow, but both sides under the absolute floor apart.
        let (fast, slow) = (s(0.0004, 0.0004, 0.0004), s(0.0008, 0.0008, 0.0008));
        assert_eq!(verdict(fast, slow, true, 0.25, 0.0), Verdict::Worse);
        assert_eq!(verdict(fast, slow, true, 0.25, 0.001), Verdict::Within);
    }

    fn result(wall: f64, failed: u64, events: u64) -> Json {
        let text = format!(
            r#"{{"workloads": {{"incast_pp": {{
                "ops_attempted": 10, "ops_failed": {failed},
                "end_to_end": {{"wall_s": {{"value": {wall}, "q1": {}, "q3": {}}}}},
                "counts": {{"netsim.events": {events}}}
            }}}}}}"#,
            wall * 0.99,
            wall * 1.01
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn compare_accepts_equal_and_rejects_worse_or_more_failures() {
        let base = result(1.0, 0, 1000);
        assert_eq!(compare(&base, &result(1.02, 0, 1000)), Ok(true));
        assert_eq!(compare(&base, &result(1.5, 0, 1000)), Ok(false));
        assert_eq!(compare(&base, &result(1.0, 1, 1000)), Ok(false));
        // A changed count is reported, not rejected: behaviour may change.
        assert_eq!(compare(&base, &result(1.0, 0, 999)), Ok(true));
        assert!(compare(&base, &Json::parse("{}").unwrap()).is_err());
    }
}
