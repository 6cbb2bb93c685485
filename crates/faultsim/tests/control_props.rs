//! Execution-control property tests, driving [`CampaignBackend::try_execute`]
//! directly: interrupted campaigns (cancelled, deadlined, or out of
//! injection budget) must return a partial report whose every completed
//! slot is **byte-identical** to the same slot of an uninterrupted run —
//! at any backend, wave width and thread count — a budget must complete
//! the same prefix on every backend, at every width and thread count,
//! and a worker panic
//! must poison only its own wave, with everything else completing
//! normally. Both hold for a target without a wave oracle and for a
//! protocol campaign whose packed run shares a scenario table and
//! transition rows between its waves.

use proptest::prelude::*;
use scfi_core::{harden, HardenedFsm, ScfiConfig};
use scfi_faultsim::{
    enumerate_faults, CampaignBackend, CampaignConfig, CampaignError, Fault, FaultEffect,
    FaultSite, FaultTarget, FaultTiming, Outcome, PackedBackend, RunControl, ScalarBackend,
    Scenario, ScfiTarget, StopReason, WaveOracle, WorkList,
};
use scfi_fsm::parse_fsm;
use scfi_netlist::{CellId, Module, ModuleBuilder, NetId};
use std::sync::{Condvar, Mutex};
use std::thread::ThreadId;
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
                timing: if s % 2 == 0 {
                    FaultTiming::Permanent
                } else {
                    FaultTiming::Transient(s % 2)
                },
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

/// A small SCFI-hardened FSM for depth-4 walk campaigns.
fn walk_fsm() -> HardenedFsm {
    let fsm = parse_fsm(
        "fsm m { inputs a, b;
           state S0 { if a -> S1; if b -> S2; }
           state S1 { if b -> S2; }
           state S2 { goto S0; } }",
    )
    .expect("valid DSL");
    harden(&fsm, &ScfiConfig::new(2)).expect("hardens")
}

/// The exhaustive walk campaign of `target`: gate-output and register
/// flips, scenario-major, pushed item by item.
fn walk_work<T: FaultTarget>(target: &T) -> WorkList {
    let faults = enumerate_faults(
        target.module(),
        &CampaignConfig::new().with_register_flips(),
    );
    let mut work = WorkList::with_capacity(target.scenario_count() * faults.len());
    for s in 0..target.scenario_count() {
        for fault in &faults {
            work.push(s, std::slice::from_ref(fault));
        }
    }
    work
}

/// The slots a budget completes: `0..budget / 64 · 64`, or every slot
/// once the budget covers the list.
fn budget_prefix(budget: u64, len: usize) -> usize {
    if budget as usize >= len {
        len
    } else {
        budget as usize / 64 * 64
    }
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

fn try_run<T: FaultTarget>(
    pick: usize,
    target: &T,
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

    /// An injection budget completes exactly the slots
    /// `0..budget / 64 · 64` — every slot when the budget covers the
    /// list — on every backend, at every wave width and at every thread
    /// count from 1 to 4. A budget that is not a whole number of waves
    /// still runs the longest prefix of whole 64-lane words of the wave
    /// it stops in, so the prefix does not depend on the width. Each
    /// completed slot is byte-identical to the uninterrupted run's.
    #[test]
    fn interrupted_campaigns_keep_a_byte_identical_completed_prefix(budget in 0u64..1_500) {
        let target = SyntheticTarget::new(None);
        let faults = fault_space(target.module());
        let work = work_list(&target, &faults);
        prop_assert!(work.len() < 1_500, "the budget must be able to cover the list");
        let prefix = if budget as usize >= work.len() {
            work.len()
        } else {
            budget as usize / 64 * 64
        };
        for pick in 0..PICKS {
            let (config, wave_items, label) = pick_config(pick, 1);
            prop_assert!(work.len() > wave_items, "{}: the budget must be able to bite", label);
            let reference = try_run(pick, &target, &work, &config, &RunControl::unlimited())
                .expect("an unlimited run never fails");
            prop_assert_eq!(reference.len(), work.len());

            for threads in 1..=4 {
                let config = config.clone().threads(threads);
                let control = RunControl::unlimited().with_injection_budget(budget);
                let slots: Vec<Option<Outcome>> =
                    match try_run(pick, &target, &work, &config, &control) {
                        Err(CampaignError::Interrupted { reason, partial }) => {
                            prop_assert_eq!(reason, StopReason::InjectionBudgetExhausted);
                            prop_assert_eq!(partial.total(), work.len());
                            prop_assert_eq!(partial.completed, prefix, "{} at {} threads", label, threads);
                            partial.outcomes
                        }
                        Ok(outcomes) => {
                            // The random budget covered the whole campaign.
                            prop_assert_eq!(prefix, work.len(), "{} at {} threads", label, threads);
                            outcomes.into_iter().map(Some).collect()
                        }
                        Err(other) => {
                            return Err(TestCaseError::fail(format!("{label}: unexpected error: {other}")));
                        }
                    };
                for (i, slot) in slots.iter().enumerate() {
                    prop_assert_eq!(
                        *slot,
                        (i < prefix).then_some(reference[i]),
                        "{} at {} threads: slot {} of a {}-slot prefix",
                        label, threads, i, prefix
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The same prefix contract on a depth-4 walk campaign of a target
    /// with a wave oracle: rows and fault-free runs are built only for
    /// admitted waves, yet every backend completes exactly the slots
    /// `0..budget / 64 · 64` (every slot once the budget covers the list),
    /// at every wave width and at 1–4 threads, each with the scalar
    /// reference's outcome. Budgets range over the whole list.
    #[test]
    fn budgeted_walk_campaigns_complete_the_scalar_prefix(fraction in 0u64..=1_000) {
        let h = walk_fsm();
        let target = ScfiTarget::with_protocol(&h, 4, 0xB007);
        let work = walk_work(&target);
        let budget = fraction * (work.len() as u64 + 64) / 1_000;
        let prefix = budget_prefix(budget, work.len());
        let reference = ScalarBackend
            .try_execute(&target, &work, &CampaignConfig::new().threads(1), &RunControl::unlimited())
            .expect("an unlimited run never fails");
        for pick in 0..PICKS {
            for threads in 1..=4 {
                let (config, _, label) = pick_config(pick, threads);
                let control = RunControl::unlimited().with_injection_budget(budget);
                let slots: Vec<Option<Outcome>> =
                    match try_run(pick, &target, &work, &config, &control) {
                        Err(CampaignError::Interrupted { partial, .. }) => partial.outcomes,
                        Ok(outcomes) => outcomes.into_iter().map(Some).collect(),
                        Err(other) => {
                            return Err(TestCaseError::fail(format!("{label}: unexpected error: {other}")));
                        }
                    };
                for (i, slot) in slots.iter().enumerate() {
                    prop_assert_eq!(
                        *slot,
                        (i < prefix).then_some(reference[i]),
                        "{} at {} threads, budget {}: slot {} of a {}-slot prefix",
                        label, threads, budget, i, prefix
                    );
                }
            }
        }
    }
}

/// How long the first classifying worker of a [`GatedTarget`] waits for
/// another worker before it goes on alone. A guard against a hang only:
/// the result never depends on it.
const GATE_TIMEOUT: Duration = Duration::from_secs(30);

/// A [`SyntheticTarget`] whose first `classify` call blocks until another
/// thread has classified too: the worker holding the first wave stalls
/// until a second worker is running a wave of its own. A scheduler that
/// hands the second worker a wave out of slot order then admits it ahead
/// of the stalled worker's next wave.
struct GatedTarget {
    inner: SyntheticTarget,
    gate: Mutex<Gate>,
    opened: Condvar,
}

/// The thread that classified first, and whether another has since.
#[derive(Default)]
struct Gate {
    first: Option<ThreadId>,
    open: bool,
}

impl FaultTarget for GatedTarget {
    fn module(&self) -> &Module {
        self.inner.module()
    }

    fn scenario_count(&self) -> usize {
        self.inner.scenario_count()
    }

    fn scenario(&self, index: usize) -> Scenario {
        self.inner.scenario(index)
    }

    fn classify(&self, index: usize, cycle: usize, regs: &[bool], outputs: &[bool]) -> Outcome {
        let me = std::thread::current().id();
        let mut gate = self.gate.lock().expect("gate lock");
        match gate.first {
            None => {
                gate.first = Some(me);
                let _open = self
                    .opened
                    .wait_timeout_while(gate, GATE_TIMEOUT, |g| !g.open)
                    .expect("gate lock");
            }
            Some(first) if first != me && !gate.open => {
                gate.open = true;
                self.opened.notify_all();
            }
            Some(_) => {}
        }
        self.inner.classify(index, cycle, regs, outputs)
    }
}

/// The fewest waves a list must hold for the scheduler to start a second
/// worker (`MIN_PARALLEL_WAVES` in `backend.rs`).
const MIN_PARALLEL_WAVES: usize = 16;

/// Two workers with a budget of two waves: the worker holding wave 0
/// stalls in its first `classify` until the other worker classifies, so
/// both hold an admitted wave at once. Waves are claimed and admitted in
/// slot order, so the second worker's wave is wave 1 and the run
/// completes waves {0, 1} — on every backend, exactly the prefix a
/// single thread completes. The exhaustive list, repeated four times,
/// holds enough waves in every pick for the scheduler to start the
/// second worker, and the test fails unless the gate opened.
#[test]
fn a_budget_completes_the_first_waves_while_workers_overlap() {
    let clean = SyntheticTarget::new(None);
    let faults = fault_space(clean.module());
    let once = work_list(&clean, &faults);
    let mut work = WorkList::with_capacity(4 * once.len());
    for _ in 0..4 {
        for i in 0..once.len() {
            let (scenario, faults) = once.item(i);
            work.push(scenario, faults);
        }
    }
    for pick in 0..PICKS {
        let (config, wave_items, label) = pick_config(pick, 2);
        assert!(
            work.len() > (MIN_PARALLEL_WAVES - 1) * wave_items,
            "{label}: the list must hold {MIN_PARALLEL_WAVES} waves for two workers to run"
        );
        let reference = try_run(pick, &clean, &work, &config, &RunControl::unlimited())
            .expect("a clean target runs to completion");
        let gated = GatedTarget {
            inner: SyntheticTarget::new(None),
            gate: Mutex::default(),
            opened: Condvar::new(),
        };
        let control = RunControl::unlimited().with_injection_budget(2 * wave_items as u64);
        let partial = match try_run(pick, &gated, &work, &config, &control) {
            Err(CampaignError::Interrupted { reason, partial }) => {
                assert_eq!(reason, StopReason::InjectionBudgetExhausted, "{label}");
                partial
            }
            other => panic!("{label}: expected Interrupted, got {other:?}"),
        };
        assert!(
            gated.gate.lock().expect("gate lock").open,
            "{label}: a second worker never classified"
        );
        let done: Vec<usize> = (0..work.len())
            .filter(|&i| partial.outcomes[i].is_some())
            .collect();
        assert_eq!(
            done,
            (0..2 * wave_items).collect::<Vec<_>>(),
            "{label}: a two-wave budget must complete waves 0 and 1"
        );
        for i in done {
            assert_eq!(partial.outcomes[i], Some(reference[i]), "{label}: slot {i}");
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
/// names the lowest poisoned wave's item range, at every thread count.
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
        let mut ranges = Vec::new();
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
                    ranges.push(item_range);
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
        assert_eq!(
            ranges[0], ranges[1],
            "pick {pick}: the reported wave must not depend on the thread count"
        );
    }
}

/// A walk campaign of an SCFI-hardened FSM whose scenario `poison` panics
/// when it is materialized: a target with a wave oracle, so the packed
/// backend fills its scenario table in blocks and must fall back to one
/// scenario at a time around the poisoned one.
struct PoisonedWalks<'a> {
    inner: ScfiTarget<'a>,
    poison: usize,
}

impl FaultTarget for PoisonedWalks<'_> {
    fn module(&self) -> &Module {
        self.inner.module()
    }

    fn scenario_count(&self) -> usize {
        self.inner.scenario_count()
    }

    fn scenario(&self, index: usize) -> Scenario {
        assert_ne!(index, self.poison, "poisoned scenario {index}");
        self.inner.scenario(index)
    }

    fn classify(&self, index: usize, cycle: usize, regs: &[bool], outputs: &[bool]) -> Outcome {
        self.inner.classify(index, cycle, regs, outputs)
    }

    fn wave_oracle(&self) -> Option<WaveOracle> {
        self.inner.wave_oracle()
    }

    fn expected_state(&self, index: usize, cycle: usize) -> usize {
        self.inner.expected_state(index, cycle)
    }
}

/// Panic isolation with a shared scenario table: the scenario whose
/// materialization panics fails the waves that touch it, and every other
/// wave — including those whose block of fault-free runs held it —
/// completes with the clean run's outcomes, on every backend and at one
/// and four threads, reporting the same lowest poisoned wave.
#[test]
fn a_poisoned_scenario_of_an_oracle_target_fails_its_waves_and_nothing_else() {
    let h = walk_fsm();
    let clean = ScfiTarget::with_protocol(&h, 4, 0xB007);
    let poison = clean.scenario_count() / 2;
    let work = walk_work(&clean);
    assert!(work.len() > 4 * 256, "the campaign must span several waves");
    let reference = ScalarBackend
        .try_execute(
            &clean,
            &work,
            &CampaignConfig::new().threads(1),
            &RunControl::unlimited(),
        )
        .expect("a clean target runs to completion");
    let poisoned = PoisonedWalks {
        inner: ScfiTarget::with_protocol(&h, 4, 0xB007),
        poison,
    };
    for pick in 0..PICKS {
        let mut ranges = Vec::new();
        for threads in [1, 4] {
            let (config, wave_items, label) = pick_config(pick, threads);
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
                    ranges.push(item_range);
                    assert!(partial.completed > 0, "{label}: the rest must complete");
                    for (i, slot) in partial.outcomes.iter().enumerate() {
                        let (scenario, _) = work.item(i);
                        if scenario == poison {
                            assert!(slot.is_none(), "{label}: poisoned item {i} completed");
                        }
                        if let Some(outcome) = slot {
                            assert_eq!(*outcome, reference[i], "{label}: slot {i} diverged");
                        }
                    }
                    for i in (0..work.len()).filter(|&i| partial.outcomes[i].is_none()) {
                        let wave = i / wave_items * wave_items;
                        assert!(
                            (wave..(wave + wave_items).min(work.len()))
                                .any(|j| work.item(j).0 == poison),
                            "{label}: item {i} failed in a wave without the poison"
                        );
                    }
                }
                other => panic!("{label}: expected WorkerPanic, got {other:?}"),
            }
        }
        assert_eq!(
            ranges[0], ranges[1],
            "pick {pick}: the reported wave must not depend on the thread count"
        );
    }
}
