//! Differential property tests for multi-cycle campaign scenarios: the
//! packed wave engine against the scalar reference over random protocol
//! depths, walk seeds, fault models, transient fault windows and wave
//! widths (64/128/256 lanes), on all three §6.1 target configurations.
//! The scalar engine is the oracle; any divergence in any slot of an
//! exhaustive outcome vector, or in any multi-fault aggregate (including
//! the recorded hijack-example groups), fails the case.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use scfi_core::{harden, redundancy, ScfiConfig};
use scfi_faultsim::{
    enumerate_faults, try_run_multi_fault, Backend, CampaignBackend, CampaignConfig, FaultEffect,
    FaultTarget, FaultTiming, PackedBackend, ProtocolScenario, RedundancyTarget, RunControl,
    ScalarBackend, ScfiTarget, UnprotectedTarget, WorkList,
};
use scfi_fsm::{lower_unprotected, parse_fsm, Fsm};

fn fsm() -> Fsm {
    parse_fsm(
        "fsm walkable { inputs go, halt;
           state A { if go -> B; if halt -> D; }
           state B { if go -> C; }
           state C { if halt -> D; goto A; }
           state D { goto A; } }",
    )
    .expect("valid DSL")
}

/// Campaign config drawn from the case: effect set pick, pin faults,
/// register flips, thread count, wave-width pick, seed.
fn config(
    effects_pick: u8,
    pins: bool,
    regs: bool,
    threads: usize,
    width_pick: u8,
    seed: u64,
) -> CampaignConfig {
    let effects = match effects_pick % 3 {
        0 => vec![FaultEffect::Flip],
        1 => vec![FaultEffect::Stuck0, FaultEffect::Stuck1],
        _ => vec![FaultEffect::Flip, FaultEffect::Stuck0, FaultEffect::Stuck1],
    };
    let mut c = CampaignConfig::new()
        .effects(effects)
        .threads(1 + threads % 3)
        .lane_words(1 << (width_pick % 3)) // 1, 2 or 4 words per wave
        .seed(seed);
    if pins {
        c = c.with_pin_faults();
    }
    if regs {
        c = c.with_register_flips();
    }
    c
}

/// The packed engine returns the scalar reference's outcome for every
/// slot of `work`.
fn engines_agree<T: FaultTarget>(
    target: &T,
    work: &WorkList,
    config: &CampaignConfig,
) -> Result<(), TestCaseError> {
    let control = RunControl::unlimited();
    let packed = PackedBackend.try_execute(target, work, config, &control);
    let scalar = ScalarBackend.try_execute(target, work, config, &control);
    prop_assert_eq!(packed.expect("packed run"), scalar.expect("scalar run"));
    Ok(())
}

/// [`engines_agree`] on the exhaustive work list (every scenario × every
/// enumerated fault, scenario-major).
fn exhaustive_engines_agree<T: FaultTarget>(
    target: &T,
    config: &CampaignConfig,
) -> Result<(), TestCaseError> {
    let faults = enumerate_faults(target.module(), config);
    let mut work = WorkList::with_capacity(target.scenario_count() * faults.len());
    for s in 0..target.scenario_count() {
        for f in &faults {
            work.push(s, std::slice::from_ref(f));
        }
    }
    engines_agree(target, &work, config)
}

/// The seeded multi-fault campaign reports the same on the packed engine
/// and on the scalar reference, fault draw for fault draw.
fn multi_fault_engines_agree<T: FaultTarget>(
    target: &T,
    faults_per_run: usize,
    runs: usize,
    config: &CampaignConfig,
) -> Result<(), TestCaseError> {
    let run = |config: &CampaignConfig| {
        try_run_multi_fault(
            target,
            faults_per_run,
            runs,
            config,
            &RunControl::unlimited(),
        )
        .expect("uninterrupted multi-fault campaign")
    };
    prop_assert_eq!(run(config), run(&config.clone().backend(Backend::Scalar)));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exhaustive protocol campaigns agree packed-vs-scalar on every
    /// target configuration, for random depths and walk seeds.
    #[test]
    fn packed_matches_scalar_on_random_protocol_campaigns(
        depth in 1usize..5,
        walk_seed in any::<u64>(),
        effects_pick in any::<u8>(),
        pins in any::<bool>(),
        regs in any::<bool>(),
        threads in any::<usize>(),
        width_pick in any::<u8>(),
    ) {
        let f = fsm();
        let cfg = config(effects_pick, pins, regs, threads, width_pick, 1);
        let h = harden(&f, &ScfiConfig::new(2)).expect("harden");
        let t = ScfiTarget::with_protocol(&h, depth, walk_seed);
        exhaustive_engines_agree(&t, &cfg)?;

        let r = redundancy(&f, 2).expect("redundancy");
        let t = RedundancyTarget::with_protocol(&r, depth, walk_seed);
        exhaustive_engines_agree(&t, &cfg)?;

        let lowered = lower_unprotected(&f).expect("lowering");
        let t = UnprotectedTarget::with_protocol(&f, &lowered, depth, walk_seed);
        exhaustive_engines_agree(&t, &cfg)?;
    }

    /// Seeded multi-fault sampling over the protocol scenario space agrees
    /// packed-vs-scalar, fault draw for fault draw.
    #[test]
    fn packed_matches_scalar_on_random_multi_fault_protocols(
        depth in 1usize..4,
        walk_seed in any::<u64>(),
        draw_seed in any::<u64>(),
        faults_per_run in 0usize..4,
        runs in 1usize..200,
        width_pick in any::<u8>(),
    ) {
        let f = fsm();
        let cfg = config(0, false, true, 0, width_pick, draw_seed);
        let h = harden(&f, &ScfiConfig::new(2)).expect("harden");
        let t = ScfiTarget::with_protocol(&h, depth, walk_seed);
        multi_fault_engines_agree(&t, faults_per_run, runs, &cfg)?;
    }

    /// Hand-built walks with every fault-window placement (including
    /// `Permanent` over a multi-cycle walk) agree across engines.
    #[test]
    fn packed_matches_scalar_on_explicit_fault_windows(
        len in 1usize..4,
        permanent in any::<bool>(),
        window in any::<usize>(),
        effects_pick in any::<u8>(),
        width_pick in any::<u8>(),
    ) {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).expect("harden");
        let cfg_edges = h.cfg().edges().len();
        // One connected walk per starting edge, stepped greedily.
        let mut scenarios = Vec::new();
        for start in 0..cfg_edges {
            let mut edges = vec![start];
            while edges.len() < len {
                let at = h.cfg().edges()[*edges.last().unwrap()].to;
                edges.push(h.cfg().out_edge_indices(at)[0]);
            }
            let timing = if permanent {
                FaultTiming::Permanent
            } else {
                FaultTiming::Transient(window % len)
            };
            scenarios.push(ProtocolScenario::new(edges, timing));
        }
        let t = ScfiTarget::with_scenarios(&h, scenarios);
        let cfg = config(effects_pick, false, true, 1, width_pick, 1);
        exhaustive_engines_agree(&t, &cfg)?;
    }

    /// Per-fault windows over hand-built walks: every scenario injects
    /// each group of its faults with fault `j` armed in its own random
    /// window (a work-list override), as single faults and as groups of
    /// up to four, and every engine×width×thread combination must agree
    /// with the scalar reference.
    #[test]
    fn packed_matches_scalar_on_per_fault_schedules(
        len in 2usize..5,
        windows in proptest::collection::vec(any::<usize>(), 1..4),
        effects_pick in any::<u8>(),
        regs in any::<bool>(),
        threads in any::<usize>(),
        width_pick in any::<u8>(),
    ) {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).expect("harden");
        let mut scenarios = Vec::new();
        for start in 0..h.cfg().edges().len() {
            let mut edges = vec![start];
            while edges.len() < len {
                let at = h.cfg().edges()[*edges.last().unwrap()].to;
                edges.push(h.cfg().out_edge_indices(at)[0]);
            }
            scenarios.push(ProtocolScenario::new(edges, FaultTiming::Permanent));
        }
        let t = ScfiTarget::with_scenarios(&h, scenarios);
        let cfg = config(effects_pick, false, regs, threads, width_pick, 1);
        let faults = enumerate_faults(t.module(), &cfg);
        let mut work = WorkList::with_capacity(2 * t.scenario_count() * faults.len());
        for group_size in [1, windows.len() + 1] {
            for start in 0..t.scenario_count() {
                for group in faults.chunks(group_size) {
                    let timing: Vec<FaultTiming> = (0..group.len())
                        .map(|j| {
                            let w = windows[j.min(windows.len() - 1)];
                            FaultTiming::Transient((w + j + start) % len)
                        })
                        .collect();
                    work.push_scheduled(start, group, &timing);
                }
            }
        }
        engines_agree(&t, &work, &cfg)?;
    }

    /// Sampled per-fault *window draws* (`with_fault_windows`) and
    /// adversarially fuzzed input schedules (`with_fuzzed_protocol`) agree
    /// packed-vs-scalar on every target configuration, draw for draw.
    #[test]
    fn packed_matches_scalar_on_windowed_fuzzed_campaigns(
        depth in 1usize..5,
        walk_seed in any::<u64>(),
        draw_seed in any::<u64>(),
        faults_per_run in 0usize..4,
        runs in 1usize..150,
        effects_pick in any::<u8>(),
        threads in any::<usize>(),
        width_pick in any::<u8>(),
    ) {
        let f = fsm();
        let cfg = config(effects_pick, false, true, threads, width_pick, draw_seed)
            .with_fault_windows();
        let h = harden(&f, &ScfiConfig::new(2)).expect("harden");
        let t = ScfiTarget::with_fuzzed_protocol(&h, depth, walk_seed);
        exhaustive_engines_agree(&t, &cfg)?;
        multi_fault_engines_agree(&t, faults_per_run, runs, &cfg)?;

        let r = redundancy(&f, 2).expect("redundancy");
        let t = RedundancyTarget::with_fuzzed_protocol(&r, depth, walk_seed);
        multi_fault_engines_agree(&t, faults_per_run, runs, &cfg)?;

        let lowered = lower_unprotected(&f).expect("lowering");
        let t = UnprotectedTarget::with_fuzzed_protocol(&f, &lowered, depth, walk_seed);
        exhaustive_engines_agree(&t, &cfg)?;
        multi_fault_engines_agree(&t, faults_per_run, runs, &cfg)?;
    }
}
