//! Hyperscale scenario: PrioPlus vs DCTCP tail FCT on large fabrics with
//! open-loop streamed arrivals and streaming-sketch statistics.
//!
//! Quick (default): k=8 fat-tree (128 hosts), 2 ms trace. `--full`: k=16
//! fat-tree (1024 hosts) plus the 3-tier+WAN fabric, 20 ms trace. Both
//! schemes share one physical queue — the comparison isolates what virtual
//! priority buys at scale — and every quantile comes from the streaming
//! sketches; no per-flow record vectors are kept.
//!
//! Also reports the memory-scaling counters: peak live flows vs total flow
//! lifetimes, and the peak resident budget (live flow state + packet arena + event queue).

use crate::hyperscale::{self, HyperScheme, HyperTopo, HyperscaleConfig};
use crate::{Cell, Scale, Table};
use netsim::ThreeTierWanSpec;
use simcore::Time;

pub(crate) fn fig_hyperscale(scale: Scale, jobs: usize) -> Vec<Table> {
    let mut cfgs = Vec::new();
    for scheme in [HyperScheme::PrioPlus, HyperScheme::Dctcp] {
        cfgs.push(match scale {
            Scale::Quick => HyperscaleConfig::quick(scheme),
            Scale::Full => HyperscaleConfig::full(scheme),
        });
        if scale == Scale::Full {
            // Second fabric: a small multi-DC 3-tier+WAN slice (2 DCs,
            // 1024 hosts) exercising the compressed routing mode and the
            // WAN hierarchy with the same trace parameters.
            let spec = ThreeTierWanSpec {
                dcs: 2,
                pods_per_dc: 4,
                tors_per_pod: 8,
                hosts_per_tor: 16,
                aggs_per_pod: 4,
                cores_per_dc: 8,
                wan_routers: 4,
                ..Default::default()
            };
            cfgs.push(HyperscaleConfig {
                topo: HyperTopo::ThreeTierWan(spec),
                duration: Time::from_ms(5),
                ..HyperscaleConfig::full(scheme)
            });
        }
    }
    let results = crate::sweep::run_ordered(&cfgs, jobs, &hyperscale::run);
    let mut t = Table::new(
        "fig_hyperscale",
        "Hyperscale: PrioPlus vs DCTCP, single physical queue, open-loop WebSearch + incast",
        &[
            "cc",
            "topo",
            "flows",
            "done",
            "fct p50us",
            "fct p99us",
            "top-class p99us",
            "sld p99",
            "peak live",
            "peak MB",
        ],
    );
    for (cfg, r) in cfgs.iter().zip(&results) {
        let done = r.finished as f64 / r.flows_total.max(1) as f64;
        t.row(vec![
            cfg.scheme.name().into(),
            cfg.topo.name().into(),
            r.flows_total.into(),
            Cell::num(done * 100.0, 0, "%"),
            r.fct_us.p50.into(),
            r.fct_us.p99.into(),
            r.fct_top_class_us.p99.into(),
            r.slowdown.p99.into(),
            r.flow_live_peak.into(),
            (r.mem_budget_bytes as f64 / 1e6).into(),
        ]);
    }
    vec![t]
}
