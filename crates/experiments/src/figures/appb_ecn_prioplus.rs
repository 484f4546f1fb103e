//! Appendix B: extending virtual priority to ECN-based CCs by scaling the
//! switch's marking threshold with the packet's (DSCP-carried) virtual
//! priority — lower priorities see marks first and yield.
//!
//! Two DCTCP flows share one physical queue. Without the extension, ECN's
//! single-bit signal slows both (the §3.1 failure); with priority-scaled
//! marking, the low-priority flow backs off first and the high-priority
//! flow keeps (most of) the link. As the paper notes, this needs a switch
//! change, so it is a direction, not a deployable PrioPlus feature.

use crate::micro::{goodput_gbps, Micro, MicroEnv};
use crate::{Scale, Table};
use netsim::SwitchConfig;
use simcore::Time;
use transport::CcSpec;

fn run(scaled: bool) -> (f64, f64) {
    let mut m = Micro::build(&MicroEnv {
        senders: 2,
        end: Time::from_ms(6),
        switch: SwitchConfig {
            ecn_kmin: 30_000,
            ecn_kmax: 90_000,
            ecn_pmax: 1.0,
            ecn_prio_scaled: scaled,
            ..Default::default()
        },
        ..Default::default()
    });
    let cc = CcSpec::D2tcp {
        deadline_factor: None, // plain DCTCP
    };
    // virt_prio rides in the DSCP field; both flows share phys queue 0.
    let hi = m.add_flow(1, 60_000_000, Time::ZERO, 0, 6, &cc);
    let lo = m.add_flow(2, 60_000_000, Time::ZERO, 0, 0, &cc);
    let goodput = m.run().goodput;
    let g = |id: u32| goodput_gbps(&goodput, &[id], 2_000.0, 6_000.0);
    (g(hi), g(lo))
}

pub(crate) fn appb_ecn(_: Scale, _: usize) -> Vec<Table> {
    let mut t = Table::new(
        "appb_ecn",
        "Appendix B: DCTCP pair in one queue — plain vs priority-scaled ECN marking",
        &["marking", "high-prio Gbps", "low-prio Gbps", "high share"],
    );
    for scaled in [false, true] {
        let (hi, lo) = run(scaled);
        t.row(vec![
            if scaled { "prio-scaled" } else { "plain" }.into(),
            hi.into(),
            lo.into(),
            (hi / (hi + lo).max(1e-9)).into(),
        ]);
    }
    t.note(
        "Expected: plain marking gives ~fair sharing (the §3.1 failure);\n\
         priority-scaled marking pushes most of the link to the high priority.",
    );
    vec![t]
}
