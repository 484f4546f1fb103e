//! Coflow and file-request traffic (the coflow-scheduling scenario, §6.2).
//!
//! The paper drives this scenario with coflows from the Facebook Hadoop
//! trace plus "file request" incast traffic (20 random senders → 1 random
//! receiver) at a 1:1 load ratio. The trace itself is not redistributable,
//! so we generate synthetic coflows matched to its published
//! characterization (Chowdhury & Stoica, "Efficient Coflow Scheduling
//! Without Prior Knowledge"): four canonical categories by width × length
//! with heavy-tailed sizes — most coflows are narrow and short, most
//! *bytes* belong to wide, long coflows.

use simcore::{Rate, SimRng, Time};

use crate::websearch::FlowArrival;

/// Expected bytes of one coflow, for load calibration: the mean of 20,000
/// fixed-seed draws of [`CoflowGen::next_coflow`] (20,053,729.258 55…),
/// pinned bit for bit. `tests::mean_coflow_bytes_is_the_monte_carlo_mean`
/// recomputes it; the analytic mean differs in the low bits, and every
/// coflow arrival time hangs on this value.
const MEAN_COFLOW_BYTES: f64 = f64::from_bits(0x4173_1fee_1423_0553);

/// One coflow: a set of flows that complete together (CCT = max flow FCT).
#[derive(Clone, Debug)]
pub struct Coflow {
    /// Coflow id (also used as the flow tag).
    pub id: u64,
    /// Arrival time.
    pub start: Time,
    /// Member flows (src/dst are host indices).
    pub flows: Vec<FlowArrival>,
}

impl Coflow {
    /// Total bytes across member flows.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.size).sum()
    }

    /// Width (number of member flows).
    pub fn width(&self) -> usize {
        self.flows.len()
    }
}

/// Synthetic coflow generator matched to the Facebook Hadoop trace shape.
///
/// Categories (fractions from the published characterization):
/// - **SN** short & narrow: ~52 % of coflows, ≤ 4 flows, ≤ 1 MB per flow;
/// - **LN** long & narrow: ~16 %, ≤ 4 flows, heavy flows (1–50 MB);
/// - **SW** short & wide: ~15 %, many flows, small each;
/// - **LW** long & wide: ~17 %, many flows, heavy each (dominates bytes).
#[derive(Clone, Debug)]
pub struct CoflowGen {
    hosts: usize,
    rng: SimRng,
    next_id: u64,
}

impl CoflowGen {
    /// Generator over `hosts` hosts.
    pub fn new(hosts: usize, seed: u64) -> Self {
        assert!(hosts >= 4);
        CoflowGen {
            hosts,
            rng: SimRng::new(seed),
            next_id: 0,
        }
    }

    fn pick_pair(&mut self) -> (usize, usize) {
        let src = self.rng.choose_index(self.hosts);
        let mut dst = self.rng.choose_index(self.hosts - 1);
        if dst >= src {
            dst += 1;
        }
        (src, dst)
    }

    /// Generate one coflow arriving at `start`.
    pub fn next_coflow(&mut self, start: Time) -> Coflow {
        let id = self.next_id;
        self.next_id += 1;
        let u = self.rng.f64();
        // (width range, per-flow size range) by category. Flow sizes are
        // MB-scale even for "short" coflows, matching the paper's remark
        // that coflow-scenario flows "are almost middle and large flows".
        let (wlo, whi, slo, shi) = if u < 0.52 {
            (1u64, 4, 200_000u64, 4_000_000) // short-narrow
        } else if u < 0.68 {
            (1, 4, 4_000_000, 40_000_000) // long-narrow
        } else if u < 0.83 {
            (5, 12, 100_000, 1_000_000) // short-wide
        } else {
            (5, 12, 2_000_000, 20_000_000) // long-wide
        };
        let width = (wlo + self.rng.below(whi - wlo + 1)) as usize;
        let width = width.min(self.hosts / 2);
        let mut flows = Vec::with_capacity(width);
        for _ in 0..width.max(1) {
            let (src, dst) = self.pick_pair();
            // Log-uniform per-flow size inside the category band.
            let ln = self.rng.range_f64((slo as f64).ln(), (shi as f64).ln());
            flows.push(FlowArrival {
                start,
                size: ln.exp() as u64,
                src,
                dst,
            });
        }
        Coflow { id, start, flows }
    }

    /// Generate Poisson coflow arrivals so that coflow traffic offers
    /// `load` fraction of the aggregate capacity of `hosts * host_rate`
    /// until `until`.
    pub fn generate_poisson(&mut self, host_rate: Rate, load: f64, until: Time) -> Vec<Coflow> {
        let agg = host_rate.as_bps() as f64 / 8.0 * self.hosts as f64;
        let per_sec = agg * load / MEAN_COFLOW_BYTES;
        let mean_gap_ps = 1e12 / per_sec;
        let mut out = Vec::new();
        let mut t = Time::ZERO;
        loop {
            let gap = self.rng.exponential(mean_gap_ps);
            t += Time::from_ps(gap as u64);
            if t >= until {
                break;
            }
            out.push(self.next_coflow(t));
        }
        out
    }

    /// Generate file-request incast arrivals: each request makes `fanin`
    /// random senders each ship `piece_bytes` to one random receiver
    /// (§6.2: "20 random nodes send a piece of data to a randomly selected
    /// node"). Poisson arrivals calibrated to `load`.
    pub fn generate_file_requests(
        &mut self,
        host_rate: Rate,
        load: f64,
        fanin: usize,
        piece_bytes: u64,
        until: Time,
    ) -> Vec<Coflow> {
        let req_bytes = (fanin as u64 * piece_bytes) as f64;
        let agg = host_rate.as_bps() as f64 / 8.0 * self.hosts as f64;
        let per_sec = agg * load / req_bytes;
        let mean_gap_ps = 1e12 / per_sec;
        let mut out = Vec::new();
        let mut t = Time::ZERO;
        loop {
            let gap = self.rng.exponential(mean_gap_ps);
            t += Time::from_ps(gap as u64);
            if t >= until {
                break;
            }
            let id = self.next_id;
            self.next_id += 1;
            let dst = self.rng.choose_index(self.hosts);
            let mut flows = Vec::with_capacity(fanin);
            let mut used = std::collections::BTreeSet::new();
            used.insert(dst);
            while flows.len() < fanin.min(self.hosts - 1) {
                let src = self.rng.choose_index(self.hosts);
                if !used.insert(src) {
                    continue;
                }
                flows.push(FlowArrival {
                    start: t,
                    size: piece_bytes,
                    src,
                    dst,
                });
            }
            out.push(Coflow {
                id,
                start: t,
                flows,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The derivation [`MEAN_COFLOW_BYTES`] pins: a fixed-seed Monte-Carlo
    /// mean over 20,000 coflows.
    fn monte_carlo_mean_coflow_bytes() -> f64 {
        let mut g = CoflowGen::new(64, 0xC0F10);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| g.next_coflow(Time::ZERO).total_bytes() as f64)
            // simlint::allow(float-order, fixed-seed Monte-Carlo constant over a fixed 0..n range; order can never change)
            .sum();
        total / n as f64
    }

    #[test]
    fn mean_coflow_bytes_is_the_monte_carlo_mean() {
        let derived = monte_carlo_mean_coflow_bytes();
        assert_eq!(
            MEAN_COFLOW_BYTES.to_bits(),
            derived.to_bits(),
            "pinned {MEAN_COFLOW_BYTES} vs derived {derived} ({:#018x})",
            derived.to_bits()
        );
    }

    #[test]
    fn coflows_are_heavy_tailed() {
        let mut g = CoflowGen::new(64, 1);
        let sizes: Vec<u64> = (0..5_000)
            .map(|_| g.next_coflow(Time::ZERO).total_bytes())
            .collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let total: u64 = sorted.iter().sum();
        // Top 20% of coflows must carry the majority of bytes.
        let top20: u64 = sorted[sorted.len() * 4 / 5..].iter().sum();
        assert!(
            top20 as f64 / total as f64 > 0.6,
            "top-20% byte share {}",
            top20 as f64 / total as f64
        );
    }

    #[test]
    fn widths_and_sizes_within_bands() {
        let mut g = CoflowGen::new(64, 2);
        for _ in 0..2_000 {
            let c = g.next_coflow(Time::ZERO);
            assert!((1..=12).contains(&c.width()));
            for f in &c.flows {
                assert!(f.size >= 100_000 && f.size <= 40_000_000);
                assert_ne!(f.src, f.dst);
            }
        }
    }

    #[test]
    fn poisson_coflow_load_calibrated() {
        let mut g = CoflowGen::new(32, 3);
        let until = Time::from_ms(200);
        let coflows = g.generate_poisson(Rate::from_gbps(10), 0.4, until);
        let bytes: f64 = coflows.iter().map(|c| c.total_bytes() as f64).sum();
        let load = bytes * 8.0 / until.as_secs_f64() / (32.0 * 10e9);
        assert!((load - 0.4).abs() < 0.1, "load {load}");
    }

    #[test]
    fn file_requests_have_distinct_senders() {
        let mut g = CoflowGen::new(64, 4);
        let reqs =
            g.generate_file_requests(Rate::from_gbps(10), 0.3, 20, 100_000, Time::from_ms(50));
        assert!(!reqs.is_empty());
        for r in &reqs {
            assert_eq!(r.width(), 20);
            let dst = r.flows[0].dst;
            let mut senders = std::collections::BTreeSet::new();
            for f in &r.flows {
                assert_eq!(f.dst, dst);
                assert_ne!(f.src, dst);
                assert!(senders.insert(f.src), "duplicate sender");
            }
        }
    }

    #[test]
    fn ids_are_unique_across_kinds() {
        let mut g = CoflowGen::new(16, 5);
        let a = g.generate_poisson(Rate::from_gbps(10), 0.2, Time::from_ms(10));
        let b = g.generate_file_requests(Rate::from_gbps(10), 0.2, 4, 50_000, Time::from_ms(10));
        let mut ids = std::collections::BTreeSet::new();
        for c in a.iter().chain(b.iter()) {
            assert!(ids.insert(c.id));
        }
    }
}
