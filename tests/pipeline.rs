//! End-to-end integration: DSL → hardening → gate-level simulation →
//! technology mapping → fault injection, across protection levels.

use scfi_repro::core::{harden, redundancy, PadPolicy, ScfiConfig, StateDecode};
use scfi_repro::faultsim::{
    CampaignConfig, FaultEffect, RedundancyTarget, ScfiTarget, VulnerabilityMap,
};
use scfi_repro::fsm::{lower_unprotected, parse_fsm, Fsm, FsmSimulator};
use scfi_repro::netlist::{ModuleStats, Simulator};
use scfi_repro::stdcell::Library;

fn elevator() -> Fsm {
    parse_fsm(
        "fsm elevator {
           inputs call_up, call_down, at_floor, door_closed, estop;
           outputs moving, door_open;
           reset IDLE;
           state IDLE    { if estop -> HALT; if call_up && door_closed -> UP; if call_down && door_closed -> DOWN; }
           state UP      { out moving; if estop -> HALT; if at_floor -> ARRIVE; }
           state DOWN    { out moving; if estop -> HALT; if at_floor -> ARRIVE; }
           state ARRIVE  { out door_open; if door_closed -> IDLE; if estop -> HALT; }
           state HALT    { goto HALT; }
         }",
    )
    .expect("valid DSL")
}

#[test]
fn full_pipeline_all_protection_levels() {
    let fsm = elevator();
    let lib = Library::nangate45_like();
    for n in [2usize, 3, 4] {
        let hardened = harden(&fsm, &ScfiConfig::new(n)).expect("harden");
        hardened.check_all_edges().expect("edges");
        hardened.check_equivalence(300, 17).expect("random walk");
        let mapped = lib.map(hardened.module());
        assert!(mapped.area_ge() > 50.0, "N={n}");
        assert!(mapped.min_period_ps() > 0.0);
        // Encoded distances grow with N.
        assert!(hardened.state_code().actual_min_distance() >= n);
        assert!(hardened.cond_code().actual_min_distance() >= n);
        assert!(hardened.state_code().min_weight() >= n);
    }
}

#[test]
fn hardened_area_grows_sublinearly_vs_redundancy() {
    let fsm = elevator();
    let lib = Library::nangate45_like();
    let scfi2 = lib
        .map(harden(&fsm, &ScfiConfig::new(2)).expect("harden").module())
        .area_ge();
    let scfi4 = lib
        .map(harden(&fsm, &ScfiConfig::new(4)).expect("harden").module())
        .area_ge();
    let red2 = lib
        .map(redundancy(&fsm, 2).expect("red").module())
        .area_ge();
    let red4 = lib
        .map(redundancy(&fsm, 4).expect("red").module())
        .area_ge();
    // SCFI's increment from N=2 to N=4 must be flatter than redundancy's —
    // the paper's scalability claim.
    let scfi_growth = scfi4 / scfi2;
    let red_growth = red4 / red2;
    assert!(
        scfi_growth < red_growth,
        "scfi {scfi2:.0}->{scfi4:.0} vs red {red2:.0}->{red4:.0}"
    );
}

#[test]
fn behavioral_gate_level_and_hardened_agree_on_long_runs() {
    let fsm = elevator();
    let lowered = lower_unprotected(&fsm).expect("lower");
    let hardened = harden(&fsm, &ScfiConfig::new(2)).expect("harden");

    let mut gold = FsmSimulator::new(&fsm);
    let mut plain = Simulator::new(lowered.module());
    let mut prot = Simulator::new(hardened.module());

    let mut seed = 0xC0FFEEu64;
    for cycle in 0..1000 {
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        let bits = seed.wrapping_mul(0x2545F4914F6CDD1D);
        let raw: Vec<bool> = (0..5).map(|i| (bits >> i) & 1 == 1).collect();

        let xe: Vec<bool> = hardened
            .encode_condition(gold.state(), &raw)
            .iter()
            .collect();
        let expect = gold.step(&raw);
        plain.step(&raw);
        prot.step(&xe);

        assert_eq!(
            lowered.decode_registers(plain.register_values()),
            Some(expect),
            "plain lowering diverged at cycle {cycle}"
        );
        assert_eq!(
            hardened.decode_registers(prot.register_values()),
            StateDecode::State(expect),
            "hardened netlist diverged at cycle {cycle}"
        );
    }
}

#[test]
fn campaigns_rank_the_three_configurations() {
    let fsm = elevator();
    let hardened = harden(&fsm, &ScfiConfig::new(3)).expect("harden");
    let red = redundancy(&fsm, 3).expect("red");

    let config = CampaignConfig::new()
        .effects(vec![FaultEffect::Flip])
        .threads(2);
    let scfi_report = VulnerabilityMap::analyze(&ScfiTarget::new(&hardened), &config).summary();
    let red_report = VulnerabilityMap::analyze(&RedundancyTarget::new(&red), &config).summary();

    // Both protections keep single-fault escapes rare; coverage among
    // effective faults stays high.
    assert!(scfi_report.hijack_rate() < 0.02, "{scfi_report}");
    assert!(red_report.hijack_rate() < 0.02, "{red_report}");
    assert!(scfi_report.coverage() > 0.9);
    assert!(red_report.coverage() > 0.9);
}

#[test]
fn pad_policies_produce_equivalent_behavior() {
    let fsm = elevator();
    for policy in [PadPolicy::Zero, PadPolicy::Replicate] {
        let hardened = harden(&fsm, &ScfiConfig::new(2).pad(policy)).expect("harden");
        hardened.check_all_edges().expect("edges");
        hardened.check_equivalence(200, 3).expect("walk");
    }
    // Replicate keeps the full matrix: strictly more diffusion cells.
    let zero = harden(&fsm, &ScfiConfig::new(2).pad(PadPolicy::Zero)).expect("harden");
    let repl = harden(&fsm, &ScfiConfig::new(2).pad(PadPolicy::Replicate)).expect("harden");
    assert!(repl.regions().diffusion.len() > zero.regions().diffusion.len());
}

#[test]
fn verilog_and_dot_exports_are_complete() {
    let fsm = elevator();
    let hardened = harden(&fsm, &ScfiConfig::new(2)).expect("harden");
    let verilog = hardened.module().to_verilog();
    assert!(verilog.contains("module elevator_scfi"));
    assert!(verilog.contains("endmodule"));
    // Every flip-flop appears as a reg.
    let regs = hardened.module().registers().len();
    assert_eq!(verilog.matches("always @(posedge clk)").count(), regs);
    let dot = hardened.module().to_dot();
    assert!(dot.contains("digraph"));
}

#[test]
fn stats_reflect_structure() {
    let fsm = elevator();
    let hardened = harden(&fsm, &ScfiConfig::new(2)).expect("harden");
    let stats = ModuleStats::of(hardened.module());
    assert_eq!(stats.register_count(), hardened.state_code().width());
    assert!(stats.count("xor") > 10, "diffusion layer must be present");
    assert!(stats.depth() >= 5);
}
