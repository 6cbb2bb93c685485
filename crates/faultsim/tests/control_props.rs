//! Execution-control property tests, driving [`CampaignBackend::try_execute`]
//! directly: interrupted campaigns (cancelled, deadlined, or out of
//! injection budget) must return a partial report whose every completed
//! slot is **byte-identical** to the same slot of an uninterrupted run —
//! at any backend, wave width and thread count — and a worker panic must
//! poison only its own wave, with everything else completing normally.

use proptest::prelude::*;
use scfi_faultsim::{
    CampaignBackend, CampaignConfig, CampaignError, Fault, FaultEffect, FaultSchedule, FaultSite,
    FaultTarget, FaultTiming, Outcome, PackedBackend, RunControl, ScalarBackend, Scenario,
    StopReason, WorkList,
};
use scfi_netlist::{CellId, Module, ModuleBuilder, NetId};
use std::time::Duration;

const N_INPUTS: usize = 3;
const N_SCENARIOS: usize = 12;

/// A small fixed sequential module: enough cells for a fault space that
/// spans several waves even at the 256-lane width.
fn module() -> Module {
    let mut b = ModuleBuilder::new("control_props");
    let inputs: Vec<NetId> = (0..N_INPUTS).map(|i| b.input(format!("i{i}"))).collect();
    let regs: Vec<NetId> = (0..3).map(|i| b.dff_uninit(i % 2 == 0)).collect();
    let mut nets: Vec<NetId> = inputs.iter().chain(&regs).copied().collect();
    for i in 0..24 {
        let a = nets[i % nets.len()];
        let c = nets[(i * 7 + 3) % nets.len()];
        let net = match i % 5 {
            0 => b.and2(a, c),
            1 => b.or2(a, c),
            2 => b.xor2(a, c),
            3 => b.nand2(a, c),
            _ => b.xnor2(a, c),
        };
        nets.push(net);
    }
    for (i, &q) in regs.iter().enumerate() {
        b.set_dff_input(q, nets[nets.len() - 1 - i]);
    }
    b.output("y", *nets.last().expect("nonempty"));
    for (i, &q) in regs.iter().enumerate() {
        b.output(format!("q{i}"), q);
    }
    b.finish().expect("valid module")
}

/// A synthetic target with a deterministic-hash classifier (no wave
/// oracle, so every backend runs per-lane extraction) and an optional
/// poisoned scenario whose classification panics — the deliberately
/// broken target for the panic-isolation tests.
struct SyntheticTarget {
    module: Module,
    scenarios: Vec<Scenario>,
    poison: Option<usize>,
}

impl SyntheticTarget {
    fn new(poison: Option<usize>) -> Self {
        let module = module();
        let n_regs = module.registers().len();
        let scenarios = (0..N_SCENARIOS)
            .map(|s| Scenario {
                regs: (0..n_regs).map(|i| (s >> i) & 1 == 1).collect(),
                inputs: (0..2)
                    .map(|c| (0..N_INPUTS).map(|i| (s + c + i) % 3 == 0).collect())
                    .collect(),
                schedule: FaultSchedule::Uniform(if s % 2 == 0 {
                    FaultTiming::Permanent
                } else {
                    FaultTiming::Transient(s % 2)
                }),
            })
            .collect();
        SyntheticTarget {
            module,
            scenarios,
            poison,
        }
    }
}

impl FaultTarget for SyntheticTarget {
    fn module(&self) -> &Module {
        &self.module
    }

    fn scenario_count(&self) -> usize {
        self.scenarios.len()
    }

    fn scenario(&self, index: usize) -> Scenario {
        self.scenarios[index].clone()
    }

    fn classify(&self, index: usize, cycle: usize, regs: &[bool], outputs: &[bool]) -> Outcome {
        if self.poison == Some(index) {
            panic!("poisoned scenario {index}");
        }
        let mut acc = index.wrapping_mul(11).wrapping_add(cycle);
        for (i, &b) in regs.iter().chain(outputs).enumerate() {
            if b {
                acc = acc.wrapping_add(2 * i + 1);
            }
        }
        match acc % 3 {
            0 => Outcome::Masked,
            1 => Outcome::Detected,
            _ => Outcome::Hijack,
        }
    }
}

/// Every cell-output fault (flip + both stuck-ats) plus register flips:
/// a fault space large enough that scenarios × faults spans multiple
/// waves at every width.
fn fault_space(module: &Module) -> Vec<Fault> {
    let mut faults = Vec::new();
    for c in 0..module.len() {
        for effect in [FaultEffect::Flip, FaultEffect::Stuck0, FaultEffect::Stuck1] {
            faults.push(Fault {
                site: FaultSite::CellOutput(CellId(c as u32)),
                effect,
            });
        }
    }
    for &reg in module.registers() {
        faults.push(Fault {
            site: FaultSite::Register(reg),
            effect: FaultEffect::Flip,
        });
    }
    faults
}

/// Scenario-major exhaustive work list.
fn work_list(target: &SyntheticTarget, faults: &[Fault]) -> WorkList {
    let mut work = WorkList::with_capacity(target.scenario_count() * faults.len());
    for s in 0..target.scenario_count() {
        for fault in faults {
            work.push(s, std::slice::from_ref(fault));
        }
    }
    work
}

/// Backend picks: (label, config patch, wave width in items).
/// Scalar chunks its per-item loop at 64 items; packed waves hold
/// `64 × W` lanes.
const PICKS: usize = 4;

fn pick_config(pick: usize, threads: usize) -> (CampaignConfig, usize, &'static str) {
    let config = CampaignConfig::new().threads(threads);
    match pick {
        0 => (config, 64, "scalar"),
        1 => (config.lane_words(1), 64, "packed W=1"),
        2 => (config.lane_words(2), 128, "packed W=2"),
        _ => (config.lane_words(4), 256, "packed W=4"),
    }
}

fn try_run(
    pick: usize,
    target: &SyntheticTarget,
    work: &WorkList,
    config: &CampaignConfig,
    control: &RunControl,
) -> Result<Vec<Outcome>, CampaignError> {
    match pick {
        0 => ScalarBackend.try_execute(target, work, config, control),
        _ => PackedBackend.try_execute(target, work, config, control),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cancelling a campaign after a random number of waves (via an
    /// injection budget cut at a random wave boundary), on a random
    /// backend with a random thread count, leaves a partial report whose
    /// completed slots are byte-identical to the uninterrupted run's.
    #[test]
    fn interrupted_campaigns_keep_a_byte_identical_completed_prefix(
        pick in 0usize..PICKS,
        threads in 1usize..5,
        budget_waves in 0u64..6,
    ) {
        let target = SyntheticTarget::new(None);
        let faults = fault_space(target.module());
        let work = work_list(&target, &faults);
        let (config, wave_items, label) = pick_config(pick, threads);
        prop_assume!(work.len() > wave_items); // the budget must be able to bite

        let reference = try_run(pick, &target, &work, &config, &RunControl::unlimited())
            .expect("an unlimited run never fails");
        prop_assert_eq!(reference.len(), work.len());

        let control =
            RunControl::unlimited().with_injection_budget(budget_waves * wave_items as u64);
        match try_run(pick, &target, &work, &config, &control) {
            Err(CampaignError::Interrupted { reason, partial }) => {
                prop_assert_eq!(reason, StopReason::InjectionBudgetExhausted, "{}", label);
                prop_assert_eq!(partial.total(), work.len(), "{}", label);
                let some = partial.outcomes.iter().filter(|o| o.is_some()).count();
                prop_assert_eq!(some, partial.completed, "{}", label);
                prop_assert!(
                    partial.completed < work.len(),
                    "{}: an interrupted run cannot have completed everything",
                    label
                );
                for (i, slot) in partial.outcomes.iter().enumerate() {
                    if let Some(outcome) = slot {
                        prop_assert_eq!(
                            *outcome, reference[i],
                            "{}: completed slot {} diverged from the uninterrupted run",
                            label, i
                        );
                    }
                }
            }
            Ok(outcomes) => {
                // The random budget covered the whole campaign.
                prop_assert_eq!(outcomes, reference, "{}", label);
            }
            Err(other) => prop_assert!(false, "{}: unexpected error: {}", label, other),
        }
    }
}

/// A token cancelled before the run starts completes zero waves, on
/// every backend, and still reports the full work-list size.
#[test]
fn pre_cancelled_campaigns_complete_nothing() {
    let target = SyntheticTarget::new(None);
    let faults = fault_space(target.module());
    let work = work_list(&target, &faults);
    for pick in 0..PICKS {
        let (config, _, label) = pick_config(pick, 2);
        let control = RunControl::unlimited();
        control.cancel();
        match try_run(pick, &target, &work, &config, &control) {
            Err(CampaignError::Interrupted { reason, partial }) => {
                assert_eq!(reason, StopReason::Cancelled, "{label}");
                assert_eq!(partial.completed, 0, "{label}");
                assert_eq!(partial.total(), work.len(), "{label}");
                assert!(partial.outcomes.iter().all(Option::is_none), "{label}");
            }
            other => panic!("{label}: expected Interrupted, got {other:?}"),
        }
    }
}

/// An already-expired deadline stops every backend before the first wave.
#[test]
fn expired_deadline_stops_before_the_first_wave() {
    let target = SyntheticTarget::new(None);
    let faults = fault_space(target.module());
    let work = work_list(&target, &faults);
    for pick in 0..PICKS {
        let (config, _, label) = pick_config(pick, 1);
        let control = RunControl::unlimited().with_deadline(Duration::ZERO);
        match try_run(pick, &target, &work, &config, &control) {
            Err(CampaignError::Interrupted { reason, partial }) => {
                assert_eq!(reason, StopReason::DeadlineExpired, "{label}");
                assert_eq!(partial.completed, 0, "{label}");
            }
            other => panic!("{label}: expected Interrupted, got {other:?}"),
        }
    }
}

/// Panic isolation: a target whose classifier panics on one scenario
/// poisons only the waves touching that scenario. Every other wave
/// completes with outcomes byte-identical to a clean run, and the error
/// names a non-empty poisoned item range.
#[test]
fn a_poisoned_scenario_fails_its_waves_and_nothing_else() {
    let poison = N_SCENARIOS / 2;
    let clean = SyntheticTarget::new(None);
    let faults = fault_space(clean.module());
    let work = work_list(&clean, &faults);
    let reference = ScalarBackend
        .try_execute(
            &clean,
            &work,
            &CampaignConfig::new().threads(1),
            &RunControl::unlimited(),
        )
        .expect("a clean target runs to completion");

    let poisoned = SyntheticTarget::new(Some(poison));
    for pick in 0..PICKS {
        for threads in [1, 4] {
            let (config, _, label) = pick_config(pick, threads);
            match try_run(pick, &poisoned, &work, &config, &RunControl::unlimited()) {
                Err(CampaignError::WorkerPanic {
                    item_range,
                    message,
                    partial,
                }) => {
                    assert!(
                        message.contains("poisoned scenario"),
                        "{label}: payload lost: {message}"
                    );
                    assert!(!item_range.is_empty(), "{label}");
                    assert!(partial.completed > 0, "{label}: the rest must complete");
                    for (i, slot) in partial.outcomes.iter().enumerate() {
                        let (scenario, _) = work.item(i);
                        if scenario == poison {
                            assert!(
                                slot.is_none(),
                                "{label}: item {i} of the poisoned scenario reported an outcome"
                            );
                        }
                        if let Some(outcome) = slot {
                            assert_eq!(
                                *outcome, reference[i],
                                "{label}: slot {i} diverged from the clean run"
                            );
                        }
                    }
                }
                other => panic!("{label}: expected WorkerPanic, got {other:?}"),
            }
        }
    }
}
