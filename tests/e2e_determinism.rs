//! End-to-end determinism: the parallel sweep runner must produce results
//! byte-identical to serial execution, regardless of worker count.

use experiments::flowsched::{run, run_many, FlowSchedConfig, FlowSchedResult};
use experiments::{SchedKind, Scheme};
use simcore::Time;

/// A quick-but-nontrivial scenario: enough flows to exercise PFC, ECN,
/// retransmit timers and the PrioPlus state machine.
fn quick_cfg(scheme: Scheme, seed: u64) -> FlowSchedConfig {
    let mut cfg = FlowSchedConfig::new(scheme, 4);
    cfg.duration = Time::from_ms(1);
    cfg.seed = seed;
    cfg
}

/// Bit-exact equality for the full result, including every per-flow float.
fn assert_identical(a: &FlowSchedResult, b: &FlowSchedResult, what: &str) {
    assert_eq!(a.pfc_pauses, b.pfc_pauses, "{what}: pfc_pauses differ");
    assert_eq!(a.drops, b.drops, "{what}: drops differ");
    assert_eq!(
        a.completion.to_bits(),
        b.completion.to_bits(),
        "{what}: completion differs"
    );
    assert_eq!(a.flows.len(), b.flows.len(), "{what}: flow count differs");
    for (i, (fa, fb)) in a.flows.iter().zip(&b.flows).enumerate() {
        assert_eq!(fa.size, fb.size, "{what}: flow {i} size");
        assert_eq!(fa.class, fb.class, "{what}: flow {i} class");
        assert_eq!(
            fa.slowdown.map(f64::to_bits),
            fb.slowdown.map(f64::to_bits),
            "{what}: flow {i} slowdown"
        );
        assert_eq!(
            fa.fct_us.map(f64::to_bits),
            fb.fct_us.map(f64::to_bits),
            "{what}: flow {i} fct"
        );
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let cfgs: Vec<FlowSchedConfig> = [
        (Scheme::PrioPlusSwift, 1),
        (Scheme::PrioPlusSwift, 2),
        (Scheme::PhysicalSwift, 1),
        (Scheme::BaselineSwift, 1),
    ]
    .iter()
    .map(|&(s, seed)| quick_cfg(s, seed))
    .collect();

    // Reference: plain serial calls, no sweep machinery at all.
    let serial: Vec<FlowSchedResult> = cfgs.iter().map(run).collect();
    // Inline path (jobs <= 1 never spawns threads).
    let inline = run_many(&cfgs, 1);
    // Threaded path with more workers than configs, forcing every config
    // onto its own worker plus idle workers racing the shared index.
    let threaded = run_many(&cfgs, 4);

    assert_eq!(serial.len(), inline.len());
    assert_eq!(serial.len(), threaded.len());
    for (i, s) in serial.iter().enumerate() {
        assert_identical(s, &inline[i], &format!("jobs=1 cfg {i}"));
        assert_identical(s, &threaded[i], &format!("jobs=4 cfg {i}"));
    }
}

/// Run every CC scheme under every non-reference scheduler backend and
/// demand bit-identical results to the binary-heap reference. Combined with
/// the sweep tests above, this proves `PRIOPLUS_SCHED` is purely a
/// performance knob across the whole transport matrix (Swift, LEDBAT,
/// DCTCP/D2TCP, HPCC, blast, and the PrioPlus variants), not just the
/// golden scenarios.
#[test]
fn cc_matrix_is_bit_identical_under_calendar_queue() {
    let schemes = [
        Scheme::PrioPlusSwift,
        Scheme::PhysicalSwift,
        Scheme::BaselineSwift,
        Scheme::PrioPlusSwiftAckData,
        Scheme::PrioPlusLedbat,
        Scheme::PhysicalStarNoCc,
        Scheme::PhysicalStarHpcc,
        Scheme::PhysicalStarSwift,
        Scheme::D2tcp,
    ];
    for scheme in schemes {
        let mut cfg = quick_cfg(scheme, 11);
        cfg.sched = SchedKind::Binary;
        let reference = run(&cfg);
        for alt in SchedKind::ALL
            .into_iter()
            .filter(|&k| k != SchedKind::Binary)
        {
            cfg.sched = alt;
            let got = run(&cfg);
            assert_identical(
                &reference,
                &got,
                &format!("{scheme:?} under {}", alt.name()),
            );
        }
    }
}

#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    let cfgs = vec![quick_cfg(Scheme::PrioPlusSwift, 7); 3];
    let a = run_many(&cfgs, 4);
    let b = run_many(&cfgs, 4);
    for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert_identical(ra, rb, &format!("rerun cfg {i}"));
        // Identical configs must also yield identical results across slots.
        assert_identical(&a[0], ra, &format!("slot {i} vs slot 0"));
    }
}
