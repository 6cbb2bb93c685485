//! Regenerates the **§6.3 security evaluation** as a measurable sweep:
//! sampled multi-fault campaigns (1 to 4 simultaneous faults) against the
//! unprotected FSM, the redundancy baseline, and SCFI at N ∈ {2, 3, 4}.
//!
//! The paper argues FT1/FT2 faults below N flips are always detected and
//! quantifies the in-logic success probability; the sweep shows the shape:
//! the unprotected escape rate is orders of magnitude above both schemes,
//! and SCFI's rate stays flat (probabilistic detection) while matching or
//! beating redundancy as the multiplicity grows.

use scfi_core::{harden, redundancy, ScfiConfig};
use scfi_faultsim::{
    paper_success_probability, try_run_multi_fault, CampaignConfig, RedundancyTarget, RunControl,
    ScfiTarget, UnprotectedTarget,
};
use scfi_fsm::lower_unprotected;

const RUNS: usize = 4000;

fn print_sweep() {
    let bench = scfi_opentitan::by_name("ibex_lsu").expect("suite entry");
    let fsm = &bench.fsm;
    let lowered = lower_unprotected(fsm).expect("lowering");

    println!("\n=== §6.3 security sweep: escape rate vs fault multiplicity (ibex_lsu) ===");
    println!("{RUNS} sampled runs per cell; faults are transient flips on random gate outputs");
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8}",
        "configuration", "1 fault", "2 faults", "3 faults", "4 faults"
    );

    let unprot_target = UnprotectedTarget::new(fsm, &lowered);
    let mut row = format!("{:<22}", "unprotected");
    for m in 1..=4 {
        let r = try_run_multi_fault(
            &unprot_target,
            m,
            RUNS,
            &CampaignConfig::new().seed(100 + m as u64),
            &RunControl::unlimited(),
        )
        .expect("an unlimited campaign completes");
        row.push_str(&format!(" {:>7.2}%", 100.0 * r.hijack_rate()));
    }
    println!("{row}");

    for n in [2usize, 3, 4] {
        let red = redundancy(fsm, n).expect("redundancy");
        let target = RedundancyTarget::new(&red);
        let mut row = format!("{:<22}", format!("redundancy N={n}"));
        for m in 1..=4 {
            let r = try_run_multi_fault(
                &target,
                m,
                RUNS,
                &CampaignConfig::new().seed(200 + (10 * n + m) as u64),
                &RunControl::unlimited(),
            )
            .expect("an unlimited campaign completes");
            row.push_str(&format!(" {:>7.2}%", 100.0 * r.hijack_rate()));
        }
        println!("{row}");
    }

    for n in [2usize, 3, 4] {
        let hardened = harden(fsm, &ScfiConfig::new(n)).expect("harden");
        let target = ScfiTarget::new(&hardened);
        let mut row = format!("{:<22}", format!("SCFI N={n}"));
        for m in 1..=4 {
            let r = try_run_multi_fault(
                &target,
                m,
                RUNS,
                &CampaignConfig::new().seed(300 + (10 * n + m) as u64),
                &RunControl::unlimited(),
            )
            .expect("an unlimited campaign completes");
            row.push_str(&format!(" {:>7.2}%", 100.0 * r.hijack_rate()));
        }
        println!(
            "{row}   (analytic P = {:.2e})",
            paper_success_probability(&hardened)
        );
    }
    println!("shape: unprotected >> redundancy/SCFI; SCFI stays low as multiplicity grows\n");
}

fn main() {
    print_sweep();
}
