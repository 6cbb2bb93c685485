//! Shape-level assertions of the paper's evaluation claims, run against
//! the actual benchmark pipeline. These are the automated versions of the
//! shape checks the `scfi-bench` examples print (README, "Reproducing the
//! paper's artifacts"; area figures use the README's "Datapath profile").

use scfi_repro::core::{harden, PadPolicy, ScfiConfig};
use scfi_repro::faultsim::{
    paper_success_probability, CampaignConfig, FaultEffect, ScfiTarget, UnprotectedTarget,
    VulnerabilityMap,
};
use scfi_repro::fsm::lower_unprotected;
use scfi_repro::netlist::ModuleStats;
use scfi_repro::stdcell::Library;

/// §6.1 / Table 1 (subset for test-time budget): on the FSM-dominated
/// pwrmgr-like module, SCFI must beat redundancy at N = 3 and N = 4; on the
/// datapath-dominated otbn-like module, SCFI may not.
#[test]
fn table1_shape_holds() {
    let lib = Library::nangate45_like();
    let pwrmgr = scfi_opentitan::by_name("pwrmgr_fsm").expect("suite");
    let otbn = scfi_opentitan::by_name("otbn_controller").expect("suite");
    for n in [3usize, 4] {
        let pw_scfi = lib
            .map(
                harden(&pwrmgr.fsm, &ScfiConfig::new(n))
                    .expect("harden")
                    .module(),
            )
            .area_ge();
        let pw_red = lib
            .map(
                scfi_repro::core::redundancy(&pwrmgr.fsm, n)
                    .expect("red")
                    .module(),
            )
            .area_ge();
        assert!(
            pw_scfi < pw_red,
            "N={n}: SCFI {pw_scfi:.0} GE must beat redundancy {pw_red:.0} GE on pwrmgr"
        );
    }
    // otbn: tiny FSM — SCFI's fixed MDS cost keeps it close to or above
    // redundancy at N=2 (the paper's observed crossover).
    let ot_scfi = lib
        .map(
            harden(&otbn.fsm, &ScfiConfig::new(2))
                .expect("harden")
                .module(),
        )
        .area_ge();
    let ot_red = lib
        .map(
            scfi_repro::core::redundancy(&otbn.fsm, 2)
                .expect("red")
                .module(),
        )
        .area_ge();
    assert!(
        ot_scfi > ot_red * 0.8,
        "otbn-like: SCFI {ot_scfi:.0} GE should not beat redundancy {ot_red:.0} GE decisively"
    );
}

/// §6.2: the hardened next-state function adds bounded logic depth — the
/// diffusion layer is a handful of XOR levels plus the error AND, so the
/// protected FSM's depth must stay within a small constant of the
/// unprotected one's.
#[test]
fn timing_depth_shape_holds() {
    let bench = scfi_opentitan::by_name("adc_ctrl_fsm").expect("suite");
    let unprot = lower_unprotected(&bench.fsm).expect("lower");
    let hardened = harden(&bench.fsm, &ScfiConfig::new(3)).expect("harden");
    let d_unprot = ModuleStats::of(unprot.module()).depth();
    let d_scfi = ModuleStats::of(hardened.module()).depth();
    assert!(
        d_scfi <= d_unprot + 14,
        "SCFI depth {d_scfi} vs unprotected {d_unprot}"
    );
    // And the mapped design still meets OpenTitan's 125 MHz (8000 ps).
    let lib = Library::nangate45_like();
    let mut mapped = lib.map(hardened.module());
    let result = mapped.size_for_period(8000.0);
    assert!(result.met, "SCFI must meet 125 MHz: {result:?}");
}

/// §6.4: exhaustive single flips into the MDS diffusion layer of the
/// 14-transition FSM at N = 2 escape at well under 1 % (paper: 0.42 %).
#[test]
fn synfi_escape_rate_shape_holds() {
    let fsm = scfi_opentitan::synfi_formal_fsm();
    let hardened = harden(&fsm, &ScfiConfig::new(2).pad(PadPolicy::Replicate)).expect("harden");
    assert_eq!(
        hardened.cfg().len(),
        14,
        "the paper's FSM has 14 transitions"
    );
    let report = VulnerabilityMap::analyze(
        &ScfiTarget::new(&hardened),
        &CampaignConfig::new()
            .effects(vec![FaultEffect::Flip])
            .region(hardened.regions().diffusion.clone())
            .with_pin_faults()
            .threads(2),
    )
    .summary();
    assert!(report.injections > 1000, "fault space too small: {report}");
    assert!(
        report.hijack_rate() < 0.02,
        "diffusion escape rate must stay ~paper-scale (<2%): {report}"
    );
    // The paper's analytic bound is far smaller than any measured rate.
    assert!(paper_success_probability(&hardened) < 1e-4);
}

/// §6.3: the unprotected FSM is orders of magnitude easier to hijack than
/// the SCFI-protected one under the same fault model.
#[test]
fn protection_gap_shape_holds() {
    let fsm = scfi_opentitan::synfi_formal_fsm();
    let hardened = harden(&fsm, &ScfiConfig::new(2)).expect("harden");
    let lowered = lower_unprotected(&fsm).expect("lower");
    let config = CampaignConfig::new()
        .effects(vec![FaultEffect::Flip])
        .threads(2);
    let scfi = VulnerabilityMap::analyze(&ScfiTarget::new(&hardened), &config).summary();
    let unprot =
        VulnerabilityMap::analyze(&UnprotectedTarget::new(&fsm, &lowered), &config).summary();
    assert!(
        unprot.hijack_rate() > 10.0 * scfi.hijack_rate().max(1e-6),
        "unprotected {:.3} vs SCFI {:.3}",
        unprot.hijack_rate(),
        scfi.hijack_rate()
    );
    // No detection mechanism exists in the unprotected design.
    assert_eq!(unprot.detected, 0);
}
