//! Lazy open-loop arrival streams for hyperscale scenarios.
//!
//! [`PoissonArrivals`](crate::websearch::PoissonArrivals) materializes a
//! whole trace up front, which is fine for thousands of flows but not for
//! the hyperscale scenarios that sustain millions of flow lifetimes: the
//! trace alone would dominate memory. [`OpenLoopGen`] is the streaming
//! counterpart — an iterator-style generator holding O(1) state that emits
//! arrivals one at a time in nondecreasing start order, merging
//!
//! - a cluster-wide Poisson process with WebSearch-distributed sizes
//!   (random non-self source/destination pairs), and
//! - an optional periodic incast mix: every period, `fanin` random senders
//!   each ship a fixed-size response to one random victim host.
//!
//! The experiment harness wraps a generator in a `netsim` `ArrivalSource`
//! and registers flows chunk-by-chunk during the run, so resident flow
//! state tracks the look-ahead window rather than the trace length.
//! Everything is deterministic given the seed.

use simcore::{Rate, SimRng, Time};

use crate::websearch::{FlowArrival, SizeDist};

/// Periodic incast component of an open-loop mix.
#[derive(Clone, Copy, Debug)]
pub struct IncastMix {
    /// Gap between consecutive incast bursts.
    pub period: Time,
    /// Senders per burst (each ships one flow to the burst's victim).
    pub fanin: usize,
    /// Response size per sender, bytes.
    pub bytes: u64,
}

/// Streaming open-loop arrival generator; see the module docs.
#[derive(Clone, Debug)]
pub struct OpenLoopGen {
    dist: SizeDist,
    hosts: usize,
    mean_gap_ps: f64,
    rng: SimRng,
    /// Start time of the next Poisson arrival (size/pair not yet drawn).
    next_poisson: Time,
    horizon: Time,
    incast: Option<IncastState>,
}

#[derive(Clone, Debug)]
struct IncastState {
    mix: IncastMix,
    rng: SimRng,
    /// Start time of the burst currently being emitted (or the next one).
    at: Time,
    /// Victim host of the current burst; drawn when `emitted == 0`.
    victim: usize,
    /// Senders already emitted for the current burst.
    emitted: usize,
}

impl OpenLoopGen {
    /// Build a generator over `hosts` hosts with `host_rate` NICs offering
    /// `load` (fraction of aggregate NIC capacity, Poisson component only)
    /// in `[start, horizon)`. The incast mix, when present, rides on top of
    /// that load.
    #[expect(
        clippy::too_many_arguments,
        reason = "scenario constructor: each knob is orthogonal"
    )]
    pub fn new(
        dist: SizeDist,
        hosts: usize,
        host_rate: Rate,
        load: f64,
        start: Time,
        horizon: Time,
        incast: Option<IncastMix>,
        seed: u64,
    ) -> Self {
        assert!(hosts >= 2, "need at least two hosts");
        assert!(load > 0.0 && load <= 1.5, "unreasonable load {load}");
        assert!(start < horizon, "empty arrival window");
        let agg_bytes_per_sec = host_rate.as_bps() as f64 / 8.0 * hosts as f64;
        let flows_per_sec = agg_bytes_per_sec * load / dist.mean();
        let mean_gap_ps = 1e12 / flows_per_sec;
        let mut rng = SimRng::new(seed);
        // First Poisson arrival: one exponential gap past the window start,
        // so `start` itself carries no deterministic arrival spike.
        let first = start + Time::from_ps(rng.exponential(mean_gap_ps) as u64);
        let incast = incast.map(|mix| {
            assert!(mix.fanin >= 1 && mix.bytes >= 1, "degenerate incast mix");
            assert!(mix.fanin < hosts, "incast fan-in must leave a victim");
            assert!(mix.period > Time::ZERO, "zero incast period");
            IncastState {
                mix,
                rng: SimRng::new(seed).split(0x1C_A57),
                at: start + mix.period,
                victim: 0,
                emitted: 0,
            }
        });
        OpenLoopGen {
            dist,
            hosts,
            mean_gap_ps,
            rng,
            next_poisson: first,
            horizon,
            incast,
        }
    }

    /// Time of the next arrival without consuming it; `None` when the
    /// stream is exhausted.
    pub fn peek_start(&self) -> Option<Time> {
        let p = (self.next_poisson < self.horizon).then_some(self.next_poisson);
        let i = self
            .incast
            .as_ref()
            .filter(|s| s.at < self.horizon)
            .map(|s| s.at);
        match (p, i) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (x, None) | (None, x) => x,
        }
    }

    /// Emit the next arrival in nondecreasing start order, or `None` once
    /// both component streams passed the horizon.
    pub fn next_arrival(&mut self) -> Option<FlowArrival> {
        let poisson_due = self.next_poisson < self.horizon;
        let incast_due = self
            .incast
            .as_ref()
            .is_some_and(|s| s.at < self.horizon && (!poisson_due || s.at <= self.next_poisson));
        if incast_due {
            let s = self.incast.as_mut().expect("checked");
            if s.emitted == 0 {
                s.victim = s.rng.choose_index(self.hosts);
            }
            let mut src = s.rng.choose_index(self.hosts - 1);
            if src >= s.victim {
                src += 1;
            }
            let a = FlowArrival {
                start: s.at,
                size: s.mix.bytes,
                src,
                dst: s.victim,
            };
            s.emitted += 1;
            if s.emitted == s.mix.fanin {
                s.emitted = 0;
                s.at += s.mix.period;
            }
            return Some(a);
        }
        if !poisson_due {
            return None;
        }
        let start = self.next_poisson;
        let src = self.rng.choose_index(self.hosts);
        let mut dst = self.rng.choose_index(self.hosts - 1);
        if dst >= src {
            dst += 1;
        }
        let size = self.dist.sample(&mut self.rng).max(1);
        let gap = self.rng.exponential(self.mean_gap_ps);
        self.next_poisson = start + Time::from_ps(gap as u64).max(Time::from_ps(1));
        Some(FlowArrival {
            start,
            size,
            src,
            dst,
        })
    }

    /// Emit every arrival with `start < until` (bounded look-ahead chunk).
    pub fn take_until(&mut self, until: Time, out: &mut Vec<FlowArrival>) {
        while self.peek_start().is_some_and(|t| t < until) {
            out.push(self.next_arrival().expect("peeked"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(incast: Option<IncastMix>, horizon: Time) -> OpenLoopGen {
        OpenLoopGen::new(
            SizeDist::websearch(),
            16,
            Rate::from_gbps(100),
            0.5,
            Time::ZERO,
            horizon,
            incast,
            77,
        )
    }

    #[test]
    fn arrivals_are_sorted_and_exclude_self_loops() {
        let mut g = mk(
            Some(IncastMix {
                period: Time::from_us(200),
                fanin: 8,
                bytes: 20_000,
            }),
            Time::from_ms(5),
        );
        let mut prev = Time::ZERO;
        let mut n = 0;
        while let Some(a) = g.next_arrival() {
            assert!(a.start >= prev, "unsorted at arrival {n}");
            assert_ne!(a.src, a.dst);
            assert!(a.src < 16 && a.dst < 16);
            assert!(a.start < Time::from_ms(5));
            prev = a.start;
            n += 1;
        }
        assert!(n > 100, "only {n} arrivals");
        assert!(g.next_arrival().is_none(), "stream must stay exhausted");
    }

    #[test]
    fn incast_bursts_have_fanin_flows_to_one_victim() {
        let mix = IncastMix {
            period: Time::from_us(500),
            fanin: 6,
            bytes: 30_000,
        };
        let mut g = OpenLoopGen::new(
            SizeDist::websearch(),
            16,
            Rate::from_gbps(100),
            0.01, // near-zero poisson so bursts dominate
            Time::ZERO,
            Time::from_ms(4),
            Some(mix),
            3,
        );
        let mut bursts: std::collections::BTreeMap<u64, Vec<FlowArrival>> = Default::default();
        while let Some(a) = g.next_arrival() {
            if a.size == 30_000 {
                bursts.entry(a.start.as_ps()).or_default().push(a);
            }
        }
        assert_eq!(bursts.len(), 7, "one burst per period in [0.5ms, 4ms)");
        for (_, flows) in bursts {
            assert_eq!(flows.len(), 6);
            let victim = flows[0].dst;
            for f in &flows {
                assert_eq!(f.dst, victim);
                assert_ne!(f.src, victim);
            }
        }
    }

    #[test]
    fn lazy_stream_matches_chunked_take_until() {
        let mix = Some(IncastMix {
            period: Time::from_us(300),
            fanin: 4,
            bytes: 10_000,
        });
        let mut all = Vec::new();
        let mut g = mk(mix, Time::from_ms(3));
        while let Some(a) = g.next_arrival() {
            all.push(a);
        }
        let mut chunked = Vec::new();
        let mut g = mk(mix, Time::from_ms(3));
        let mut until = Time::from_us(137);
        loop {
            let before = chunked.len();
            g.take_until(until, &mut chunked);
            if g.peek_start().is_none() {
                break;
            }
            let _ = before;
            until += Time::from_us(137);
        }
        assert_eq!(all, chunked);
    }

    #[test]
    fn poisson_load_is_calibrated() {
        let horizon = Time::from_ms(40);
        let mut g = mk(None, horizon);
        let mut bytes = 0u64;
        while let Some(a) = g.next_arrival() {
            bytes += a.size;
        }
        let offered = bytes as f64 * 8.0 / horizon.as_secs_f64();
        let capacity = 16.0 * 100e9;
        let load = offered / capacity;
        assert!((load - 0.5).abs() < 0.05, "offered load {load}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let mut g = mk(
                Some(IncastMix {
                    period: Time::from_us(250),
                    fanin: 3,
                    bytes: 5_000,
                }),
                Time::from_ms(2),
            );
            let mut v = Vec::new();
            while let Some(a) = g.next_arrival() {
                v.push(a);
            }
            v
        };
        assert_eq!(run(), run());
    }
}
