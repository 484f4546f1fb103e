//! Figure 12 (and 15): coflow scheduling and ML training.
//!
//! - `fig12_40` / `fig12_70`: coflow CCT speedups vs the no-priority Swift
//!   baseline at 40 % / 70 % load, for Physical+Swift, PrioPlus+Swift and
//!   PrioPlus+LEDBAT, split into high-4 / low-4 priority bands + overall
//!   (Fig 12a,b), plus the p99 tail speedups (Fig 15).
//! - `fig12c`: ResNet/VGG training speedups (Fig 12c).

use crate::coflowsched::{vs_baseline, CoflowConfig, BANDS};
use crate::mltrain::{self, MlConfig};
use crate::{Cell, Scale, Scheme, Table};
use simcore::Time;

pub(crate) fn coflow_at(load: f64, scale: Scale, jobs: usize) -> Vec<Table> {
    let schemes = [
        Scheme::PhysicalSwift,
        Scheme::PrioPlusSwift,
        Scheme::PrioPlusLedbat,
    ];
    let template = CoflowConfig::at(Scheme::BaselineSwift, load, scale);
    let cmp = &vs_baseline(&[template], &schemes, jobs)[0];
    let pct = load * 100.0;
    let columns = ["scheme", "high prios (4-7)", "low prios (0-3)", "overall"];
    let mut t = Table::new(
        format!("fig12_load{pct:.0}"),
        format!("Figure 12 ({pct:.0}% load): mean CCT speedup vs Swift baseline"),
        &columns,
    );
    let mut tail = Table::new(
        format!("fig15_load{pct:.0}"),
        format!("Figure 15 ({pct:.0}% load): p99 CCT speedup vs Swift baseline"),
        &columns,
    );
    for (scheme, r) in &cmp.schemes {
        let mut cells = vec![Cell::from(scheme.label())];
        cells.extend(BANDS.map(|band| Cell::speedup(cmp.mean(r, band))));
        t.row(cells);
        let mut cells = vec![Cell::from(scheme.label())];
        cells.extend(BANDS.map(|band| Cell::speedup(cmp.tail(r, band))));
        tail.row(cells);
    }
    tail.note(
        "Expected (paper, 70%): PrioPlus overall speedup ~21% above Physical's;\n\
         the gap is largest on the low priorities (bandwidth reclaim).\n",
    );
    vec![t, tail]
}

pub(crate) fn fig12c(scale: Scale, jobs: usize) -> Vec<Table> {
    let mk = |scheme| {
        let mut cfg = MlConfig::new(scheme);
        if scale == Scale::Full {
            cfg.model_scale = 0.1;
            cfg.duration = Time::from_ms(300);
        }
        cfg
    };
    let schemes = [Scheme::PhysicalSwift, Scheme::PrioPlusSwift];
    let mut cases = vec![Scheme::BaselineSwift];
    cases.extend(schemes);
    let cfgs: Vec<MlConfig> = cases.iter().map(|&s| mk(s)).collect();
    let mut outs = crate::sweep::run_ordered(&cfgs, jobs, &mltrain::run);
    let base = outs.remove(0);
    let mut t = Table::new(
        "fig12c",
        "Figure 12c: training speedup vs Swift baseline (4 ResNet + 4 VGG)",
        &["scheme", "ResNet", "VGG", "overall"],
    );
    for (scheme, r) in schemes.into_iter().zip(outs) {
        let speed = |fam: &str| {
            let b = base.iterations(fam).max(1) as f64;
            Cell::speedup(Some(r.iterations(fam) as f64 / b))
        };
        t.row(vec![
            scheme.label().into(),
            speed("resnet"),
            speed("vgg"),
            speed("all"),
        ]);
    }
    t.note(
        "Expected (paper): PrioPlus ~1.12x/1.15x (ResNet/VGG), total 1.13x;\n\
         Physical speeds ResNet 1.16x but SLOWS VGG to 0.82x (total 1.09x).",
    );
    vec![t]
}
