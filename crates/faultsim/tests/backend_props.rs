//! Differential property tests driving the [`CampaignBackend`] *trait*
//! directly: random sequential netlists wrapped in a synthetic fault
//! target (deliberately without a [`WaveOracle`], so the wave backends
//! run their per-lane extraction fallback), random multi-cycle scenarios,
//! random fault groups, random thread counts — and every backend
//! ({scalar, packed W ∈ {1, 2, 4}}) must return the *identical
//! slot-ordered outcome vector*. The single-threaded scalar backend is
//! the oracle; any divergence in any slot fails the case.

use proptest::prelude::*;
use scfi_faultsim::{
    CampaignBackend, CampaignConfig, Fault, FaultEffect, FaultSchedule, FaultSite, FaultTarget,
    FaultTiming, Outcome, PackedBackend, RunControl, ScalarBackend, Scenario, WorkList,
};
use scfi_netlist::{CellId, Module, ModuleBuilder, NetId};

const N_INPUTS: usize = 3;

/// A recipe for one gate: opcode and operand picks (resolved modulo the
/// net pool, so any random tuple is valid).
type GateSpec = (u8, usize, usize);

/// A recipe for one fault: site kind, cell pick, pin pick, effect pick.
type FaultSpec = (u8, usize, u8, u8);

/// A recipe for one scenario: register preload bits, input schedule,
/// permanent-vs-transient pick, window pick, per-fault window picks
/// (empty = one shared window for the whole group).
type ScenarioSpec = (u64, Vec<u8>, bool, usize, Vec<usize>);

/// Builds a random sequential module: `n_regs` flip-flops, a random
/// combinational DAG over inputs + register outputs, random register
/// feedback. The last net and every register are exposed as outputs so
/// the synthetic classifier observes real state.
fn build(recipe: &[GateSpec], n_regs: usize, dff_srcs: &[usize]) -> Module {
    let mut b = ModuleBuilder::new("backend_diff");
    let inputs: Vec<NetId> = (0..N_INPUTS).map(|i| b.input(format!("i{i}"))).collect();
    let regs: Vec<NetId> = (0..n_regs).map(|i| b.dff_uninit(i % 2 == 0)).collect();
    let mut nets = inputs;
    nets.extend(&regs);
    for &(op, a, c) in recipe {
        let (na, nc) = (nets[a % nets.len()], nets[c % nets.len()]);
        let net = match op % 9 {
            0 => b.and2(na, nc),
            1 => b.or2(na, nc),
            2 => b.xor2(na, nc),
            3 => b.nand2(na, nc),
            4 => b.nor2(na, nc),
            5 => b.xnor2(na, nc),
            6 => b.not(na),
            7 => b.buf(na),
            _ => {
                let sel = nets[(a ^ c) % nets.len()];
                b.mux(sel, na, nc)
            }
        };
        nets.push(net);
    }
    for (i, &q) in regs.iter().enumerate() {
        b.set_dff_input(q, nets[dff_srcs[i] % nets.len()]);
    }
    b.output("y", *nets.last().expect("nonempty"));
    for (i, &q) in regs.iter().enumerate() {
        b.output(format!("q{i}"), q);
    }
    b.finish().expect("valid random module")
}

/// A synthetic target over a random netlist. `classify` is an arbitrary
/// but deterministic function of the observed registers and outputs —
/// there is no "protection semantics" to exploit, so agreement across
/// backends can only come from identical simulation and identical
/// slot-ordered folding. `wave_oracle` stays `None` on purpose.
struct RandomTarget {
    module: Module,
    scenarios: Vec<Scenario>,
}

impl FaultTarget for RandomTarget {
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
        let mut acc = index.wrapping_mul(7).wrapping_add(cycle);
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

/// Decodes a fault spec against the module; `None` for picks with no
/// valid site (pin faults on zero-arity cells).
fn decode_fault(module: &Module, spec: FaultSpec) -> Option<Fault> {
    let (site, cell_pick, pin_pick, effect_pick) = spec;
    let effect = match effect_pick % 3 {
        0 => FaultEffect::Flip,
        1 => FaultEffect::Stuck0,
        _ => FaultEffect::Stuck1,
    };
    match site % 3 {
        0 => Some(Fault {
            site: FaultSite::CellOutput(CellId((cell_pick % module.len()) as u32)),
            effect,
        }),
        1 => {
            let cell = CellId((cell_pick % module.len()) as u32);
            let arity = module.cell(cell).kind.arity();
            if arity == 0 {
                return None;
            }
            Some(Fault {
                site: FaultSite::Pin(cell, pin_pick % arity as u8),
                effect,
            })
        }
        _ => {
            let regs = module.registers();
            Some(Fault {
                site: FaultSite::Register(regs[cell_pick % regs.len()]),
                effect: FaultEffect::Flip,
            })
        }
    }
}

/// Materializes the scenario specs against the module's port widths.
fn decode_scenarios(module: &Module, specs: &[ScenarioSpec]) -> Vec<Scenario> {
    let n_regs = module.registers().len();
    specs
        .iter()
        .map(|(reg_bits, schedule, permanent, window, per_fault)| {
            let cycles = schedule.len().max(1);
            let inputs = (0..cycles)
                .map(|c| {
                    let byte = schedule.get(c).copied().unwrap_or(0);
                    (0..N_INPUTS).map(|i| (byte >> i) & 1 == 1).collect()
                })
                .collect();
            Scenario {
                regs: (0..n_regs).map(|i| (reg_bits >> i) & 1 == 1).collect(),
                inputs,
                schedule: if *permanent {
                    FaultSchedule::Uniform(FaultTiming::Permanent)
                } else if per_fault.is_empty() {
                    FaultSchedule::Uniform(FaultTiming::Transient(window % cycles))
                } else {
                    FaultSchedule::PerFault(
                        per_fault
                            .iter()
                            .map(|w| FaultTiming::Transient(w % cycles))
                            .collect(),
                    )
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every backend returns the same slot-ordered outcomes as the
    /// single-threaded scalar reference, over random netlists, scenarios,
    /// fault groups and thread counts.
    #[test]
    fn backends_agree_slot_for_slot_on_random_netlists(
        recipe in proptest::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 3..20),
        n_regs in 1usize..5,
        dff_srcs in proptest::collection::vec(0usize..64, 4),
        scenario_specs in proptest::collection::vec(
            (
                any::<u64>(),
                proptest::collection::vec(any::<u8>(), 1..4),
                any::<bool>(),
                any::<usize>(),
                proptest::collection::vec(any::<usize>(), 0..4),
            ),
            1..4,
        ),
        fault_specs in proptest::collection::vec((any::<u8>(), 0usize..512, any::<u8>(), any::<u8>()), 1..24),
        group_size in 1usize..3,
        threads in 1usize..5,
    ) {
        let module = build(&recipe, n_regs, &dff_srcs);
        let scenarios = decode_scenarios(&module, &scenario_specs);
        let faults: Vec<Fault> = fault_specs
            .iter()
            .filter_map(|&spec| decode_fault(&module, spec))
            .collect();
        prop_assume!(!faults.is_empty());
        let target = RandomTarget { module, scenarios };

        // Scenario-major single-fault items plus trailing multi-fault
        // groups, so waves mix group sizes and scenario boundaries.
        let mut work = WorkList::with_capacity(target.scenario_count() * faults.len());
        for s in 0..target.scenario_count() {
            for fault in &faults {
                work.push(s, std::slice::from_ref(fault));
            }
        }
        for (i, group) in faults.chunks(group_size).enumerate() {
            work.push(i % target.scenario_count(), group);
        }
        // A third block overrides each fault's window per item
        // ([`WorkList::push_scheduled`]), exercising the per-fault re-arm
        // masks across group sizes and wave boundaries.
        for (i, group) in faults.chunks(group_size).enumerate() {
            let s = i % target.scenario_count();
            let cycles = target.scenarios[s].cycles();
            let windows: Vec<FaultTiming> = group
                .iter()
                .enumerate()
                .map(|(j, _)| FaultTiming::Transient((i * 31 + 7 * j) % cycles))
                .collect();
            work.push_scheduled(s, group, &windows);
        }

        let control = RunControl::unlimited();
        let reference = ScalarBackend
            .try_execute(&target, &work, &CampaignConfig::new().threads(1), &control)
            .expect("uninterrupted run");
        prop_assert_eq!(reference.len(), work.len());

        let threaded = CampaignConfig::new().threads(threads);
        prop_assert_eq!(
            &ScalarBackend
                .try_execute(&target, &work, &threaded, &control)
                .expect("uninterrupted run"),
            &reference,
            "scalar backend, {} threads",
            threads
        );
        for lane_words in [1usize, 2, 4] {
            let config = threaded.clone().lane_words(lane_words);
            prop_assert_eq!(
                &PackedBackend
                    .try_execute(&target, &work, &config, &control)
                    .expect("uninterrupted run"),
                &reference,
                "packed backend W={}, {} threads",
                lane_words,
                threads
            );
        }
    }
}
