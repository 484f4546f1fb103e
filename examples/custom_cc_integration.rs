//! Integrating PrioPlus with your own congestion controller.
//!
//! The paper integrates PrioPlus with Swift (79 LoC in DPDK) and LEDBAT.
//! This example shows the Rust equivalent: implement [`prioplus::DelayCc`]
//! for a custom delay-based CC (here, a bare-bones AIMD controller) and it
//! immediately gains virtual-priority capability through
//! [`transport::PrioPlusTransport`].
//!
//! Run with: `cargo run --release --example custom_cc_integration`

use experiments::micro::{goodput_gbps, Micro, MicroEnv};
use experiments::probe::Probed;
use netsim::{FlowSpec, Transport};
use prioplus::{DelayCc, PrioPlusConfig};
use simcore::Time;
use transport::pp_transport::PrioPlusTransport;
use transport::sender::SenderBase;
use transport::PrioPlusPolicy;

/// A deliberately minimal delay-targeting AIMD controller — stand-in for
/// "your CC here". [`DelayCc`] is all it implements.
struct MyCc {
    cwnd: f64,
    ai: f64,
    ai_origin: f64,
    target: Time,
    last_cut: Time,
}

impl MyCc {
    fn new(target: Time, init_cwnd: f64) -> Self {
        MyCc {
            cwnd: init_cwnd,
            ai: 1_000.0,
            ai_origin: 1_000.0,
            target,
            last_cut: Time::ZERO,
        }
    }
}

impl DelayCc for MyCc {
    fn on_ack(&mut self, delay: Time, acked_bytes: u32, now: Time) {
        if delay < self.target {
            self.cwnd += self.ai * acked_bytes as f64 / self.cwnd.max(1_000.0);
        } else if now.saturating_sub(self.last_cut) >= self.target {
            self.cwnd *= 0.7;
            self.last_cut = now;
        }
        self.cwnd = self.cwnd.clamp(150.0, 10_000_000.0);
    }
    fn cwnd(&self) -> f64 {
        self.cwnd
    }
    fn set_cwnd(&mut self, bytes: f64) {
        self.cwnd = bytes.clamp(150.0, 10_000_000.0);
    }
    fn ai(&self) -> f64 {
        self.ai
    }
    fn set_ai(&mut self, v: f64) {
        self.ai = v.max(0.0);
    }
    fn ai_origin(&self) -> f64 {
        self.ai_origin
    }
    fn target_delay(&self) -> Time {
        self.target
    }
}

fn main() {
    let mut m = Micro::build(&MicroEnv {
        senders: 2,
        end: Time::from_ms(6),
        ..Default::default()
    });

    // Wire MyCc into PrioPlus manually (what `CcSpec` does for Swift/LEDBAT).
    let policy = PrioPlusPolicy::paper_default(2);
    let add = |m: &mut Micro, sender: u32, size: u64, start: Time, virt: u8| {
        let spec = FlowSpec {
            src: sender,
            dst: 0,
            size,
            start,
            phys_prio: 0,
            virt_prio: virt,
            tag: virt as u64,
        };
        m.sim.add_flow(spec, |params| {
            let pp_cfg: PrioPlusConfig = policy.flow_config(params);
            let cc = MyCc::new(pp_cfg.d_target, pp_cfg.w_ls);
            Box::new(PrioPlusTransport::new(
                SenderBase::new(params.clone()),
                pp_cfg,
                cc,
            )) as Box<dyn Transport>
        })
    };

    let lo = add(&mut m, 1, 40_000_000, Time::ZERO, 0);
    let hi = add(&mut m, 2, 20_000_000, Time::from_ms(1), 1);
    let Probed { res, goodput, .. } = m.run();

    println!("custom CC + PrioPlus:");
    for (name, id) in [("low ", lo), ("high", hi)] {
        let r = &res.records[id as usize];
        println!(
            "  {name}: fct {}",
            r.fct()
                .map(|t| format!("{t}"))
                .unwrap_or("unfinished".into())
        );
    }
    println!(
        "  low-priority goodput during contention (1.3-2.5ms): {:.1} Gbps",
        goodput_gbps(&goodput, &[lo], 1300.0, 2500.0)
    );
    println!("  (strict yielding with a CC PrioPlus has never seen before)");
}
