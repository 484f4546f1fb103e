//! Weighted virtual priority (§7, future work).
//!
//! The paper's PrioPlus provides *strict* priority: higher channels preempt
//! all bandwidth. Its §7 discusses the weighted variant — groups sharing
//! bandwidth in proportion to weights — and notes the classic approach
//! (weight-scaled AIMD, Crowcroft & Oechslin \[32\]) plus its failure mode:
//! *priority inversion*, where enough low-weight flows collectively out-
//! compete a high-weight group.
//!
//! This module implements the weighted-AIMD building block as a [`DelayCc`]
//! adaptor so it can be studied inside the same harness:
//!
//! - additive increase is scaled **up** by the weight (`ai' = w * ai`);
//! - multiplicative decrease is scaled **down** (`cut' = cut / w`);
//!
//! which converges to per-flow bandwidth shares proportional to `w` under
//! a shared congestion signal. The priority-inversion caveat follows
//! directly: shares are per *flow*, so `n` weight-1 flows get `n/(n + w)`
//! of the link against one weight-`w` flow — exactly the effect the paper
//! flags as future work (see `tests/` and the `ablation` bench).

use simcore::Time;

use crate::cc::DelayCc;

/// Weight-scaled AIMD wrapper around any [`DelayCc`].
#[derive(Clone, Debug)]
pub struct WeightedCc<C: DelayCc> {
    inner: C,
    weight: f64,
}

impl<C: DelayCc> WeightedCc<C> {
    /// Wrap `inner` with weight `w > 0`. The inner CC's AI step is scaled
    /// immediately.
    pub fn new(mut inner: C, weight: f64) -> Self {
        assert!(weight > 0.0, "weight must be positive");
        let ai = inner.ai_origin() * weight;
        inner.set_ai(ai);
        WeightedCc { inner, weight }
    }

    /// The flow's weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Borrow the wrapped CC.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: DelayCc> DelayCc for WeightedCc<C> {
    fn on_ack(&mut self, delay: Time, acked_bytes: u32, now: Time) {
        if delay < self.inner.target_delay() {
            self.inner.on_ack(delay, acked_bytes, now);
        } else {
            // Dampen the decrease: let the inner CC cut, then restore a
            // (1 - 1/w) fraction of the loss, which realizes cut/w for any
            // inner multiplicative-decrease rule.
            let before = self.inner.cwnd();
            self.inner.on_ack(delay, acked_bytes, now);
            let after = self.inner.cwnd();
            if after < before && self.weight > 1.0 {
                let cut = before - after;
                let damped = cut / self.weight;
                self.inner.set_cwnd(before - damped);
            }
        }
    }

    fn cwnd(&self) -> f64 {
        self.inner.cwnd()
    }

    fn set_cwnd(&mut self, bytes: f64) {
        self.inner.set_cwnd(bytes);
    }

    fn ai(&self) -> f64 {
        self.inner.ai()
    }

    fn set_ai(&mut self, bytes_per_rtt: f64) {
        // External AI overrides (e.g. PrioPlus cardinality scaling) are
        // themselves weight-scaled so the relative aggressiveness holds.
        self.inner.set_ai(bytes_per_rtt * self.weight);
    }

    fn ai_origin(&self) -> f64 {
        self.inner.ai_origin() * self.weight
    }

    fn target_delay(&self) -> Time {
        self.inner.target_delay()
    }
}

/// Expected steady-state bandwidth share of a flow with weight `w` against
/// `n_others` unit-weight flows under weighted AIMD (per-flow shares are
/// proportional to weights — the priority-inversion formula from §7).
pub fn expected_share(w: f64, n_others: usize) -> f64 {
    w / (w + n_others as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::SimpleAimd;

    fn mk(weight: f64) -> WeightedCc<SimpleAimd> {
        WeightedCc::new(
            SimpleAimd::new(Time::from_us(16), 1000.0, 10_000.0, 1e9),
            weight,
        )
    }

    #[test]
    fn ai_scaled_by_weight() {
        let c = mk(4.0);
        assert_eq!(c.ai(), 4_000.0);
        assert_eq!(c.ai_origin(), 4_000.0);
    }

    #[test]
    fn increase_is_faster_for_heavier_flows() {
        let mut a = mk(1.0);
        let mut b = mk(4.0);
        for i in 0..10 {
            a.on_ack(Time::from_us(12), 1000, Time::from_us(i));
            b.on_ack(Time::from_us(12), 1000, Time::from_us(i));
        }
        let ga = a.cwnd() - 10_000.0;
        let gb = b.cwnd() - 10_000.0;
        // Slightly below 4x because the AI increment is ai*acked/cwnd and
        // the heavier flow's window compounds faster within the burst.
        assert!(
            (3.2..4.2).contains(&(gb / ga)),
            "gain ratio {} should be ~weight ratio",
            gb / ga
        );
    }

    #[test]
    fn decrease_is_damped_for_heavier_flows() {
        let mut a = mk(1.0);
        let mut b = mk(4.0);
        let over = Time::from_us(32);
        a.on_ack(over, 1000, Time::from_us(100));
        b.on_ack(over, 1000, Time::from_us(100));
        let cut_a = 10_000.0 - a.cwnd();
        let cut_b = 10_000.0 - b.cwnd();
        assert!(
            (cut_a / cut_b - 4.0).abs() < 0.2,
            "cut ratio {} should be ~weight ratio",
            cut_a / cut_b
        );
    }

    #[test]
    fn unit_weight_is_transparent() {
        let mut w = mk(1.0);
        let mut plain = SimpleAimd::new(Time::from_us(16), 1000.0, 10_000.0, 1e9);
        for i in 0..20 {
            let d = if i % 3 == 0 {
                Time::from_us(30)
            } else {
                Time::from_us(13)
            };
            w.on_ack(d, 1000, Time::from_us(i * 20));
            plain.on_ack(d, 1000, Time::from_us(i * 20));
        }
        assert!((w.cwnd() - plain.cwnd()).abs() < 1e-6);
    }

    #[test]
    fn inversion_formula() {
        // One weight-8 flow against 32 unit flows: 8/40 = 20% — inverted
        // despite the 8x weight (the §7 caveat).
        assert!((expected_share(8.0, 32) - 0.2).abs() < 1e-9);
        assert!(expected_share(8.0, 1) > 0.88);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        mk(0.0);
    }
}
