//! Secure-boot scenario: the attack the SCFI paper's introduction motivates.
//!
//! Fault attacks on boot controllers (BADFET, laser fault injection on
//! smartphones — refs [5, 22] of the paper) skip signature verification by
//! glitching the boot FSM from `VERIFY` straight into `BOOT`. This example
//! builds such a controller, shows the hijack succeeding on the
//! unprotected netlist, and shows SCFI turning the same fault campaign
//! into alarms.
//!
//! Run with `cargo run --example secure_boot`.

use scfi_repro::core::{harden, ScfiConfig};
use scfi_repro::faultsim::{
    CampaignConfig, FaultEffect, ScfiTarget, UnprotectedTarget, VulnerabilityMap,
};
use scfi_repro::fsm::{lower_unprotected, parse_fsm};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fsm = parse_fsm(
        "fsm secure_boot {
           inputs rom_ok, sig_ok, key_loaded, watchdog;
           outputs boot_granted, halted;
           reset ROM_CHECK;
           state ROM_CHECK  { if rom_ok -> LOAD_KEY; if watchdog -> HALT; }
           state LOAD_KEY   { if key_loaded -> VERIFY; if watchdog -> HALT; }
           state VERIFY     { if sig_ok -> BOOT; if !sig_ok && watchdog -> HALT; }
           state BOOT       { out boot_granted; goto BOOT; }
           state HALT       { out halted; goto HALT; }
         }",
    )?;

    println!("secure-boot controller: {} states", fsm.state_count());
    println!("attack goal: reach BOOT without sig_ok\n");

    // --- Unprotected: single transient flips hijack the flow. -------------
    let lowered = lower_unprotected(&fsm)?;
    let target = UnprotectedTarget::new(&fsm, &lowered);
    let report = VulnerabilityMap::analyze(
        &target,
        &CampaignConfig::new()
            .effects(vec![
                FaultEffect::Flip,
                FaultEffect::Stuck0,
                FaultEffect::Stuck1,
            ])
            .with_register_flips()
            .threads(2),
    )
    .summary();
    println!("unprotected netlist under exhaustive single faults:");
    println!("  {report}");
    println!("  every hijack is silent — nothing in the circuit can notice.\n");

    // --- SCFI at N = 2 and N = 3. -----------------------------------------
    for n in [2usize, 3] {
        let hardened = harden(&fsm, &ScfiConfig::new(n))?;
        hardened.check_all_edges()?;
        let target = ScfiTarget::new(&hardened);
        let report = VulnerabilityMap::analyze(
            &target,
            &CampaignConfig::new()
                .effects(vec![
                    FaultEffect::Flip,
                    FaultEffect::Stuck0,
                    FaultEffect::Stuck1,
                ])
                .with_register_flips()
                .threads(2),
        )
        .summary();
        println!("SCFI (N = {n}) under the same campaign:");
        println!("  {report}");
    }

    println!("\nthe boot FSM now fails into the terminal ERROR state — the chip");
    println!("halts instead of booting unsigned code.");
    Ok(())
}
