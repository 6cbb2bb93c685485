//! Regenerates the **§6.4 formal security analysis**: exhaustive single
//! bit-flips into every gate of the MDS diffusion layer of a hardened FSM
//! with 14 CFG transitions at protection level 2.
//!
//! Paper result: 7644 injected faults, 32 (0.42 %) enable a control-flow
//! hijack. Our netlist and fault space differ in absolute size, but the
//! escape rate must stay well below 1 % and every escape must require
//! landing on a *valid* wrong codeword.

use scfi_bench::synfi_experiment;
use scfi_faultsim::{CampaignConfig, FaultEffect, ScfiTarget, UnprotectedTarget, VulnerabilityMap};
use scfi_fsm::lower_unprotected;

fn print_synfi() {
    let (hardened, report) = synfi_experiment();
    println!("\n=== §6.4 formal fault analysis (SYNFI-style) ===");
    println!(
        "target: {} ({} CFG transitions), protection level 2",
        hardened.fsm().name(),
        hardened.cfg().len()
    );
    println!(
        "fault space: exhaustive transient flips on outputs + input pins of the {} diffusion cells",
        hardened.regions().diffusion.len()
    );
    println!("result:  {report}");
    println!("paper:   7644 injections, 32 hijacks (0.42 % escape rate)");
    println!(
        "analytic success probability (paper formula): {:.3e}",
        scfi_faultsim::paper_success_probability(&hardened)
    );

    // Context: the same fault model against the whole protected module and
    // against the unprotected FSM.
    let full = VulnerabilityMap::analyze(
        &ScfiTarget::new(&hardened),
        &CampaignConfig::new().effects(vec![FaultEffect::Flip]),
    )
    .summary();
    println!("whole protected module, gate-output flips: {full}");
    let fsm = hardened.fsm().clone();
    let lowered = lower_unprotected(&fsm).expect("lowering");
    let unprot = VulnerabilityMap::analyze(
        &UnprotectedTarget::new(&fsm, &lowered),
        &CampaignConfig::new().effects(vec![FaultEffect::Flip]),
    )
    .summary();
    println!("unprotected FSM, same fault model:        {unprot}");
    println!(
        "protection factor: {:.0}x fewer escapes per injection\n",
        unprot.hijack_rate() / full.hijack_rate().max(1e-9)
    );
}

fn main() {
    print_synfi();
}
