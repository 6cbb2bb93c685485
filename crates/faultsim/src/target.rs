//! Fault-campaign targets: the three §6.1 configurations behind one trait.
//!
//! Since the multi-cycle generalization, a *scenario* is no longer one CFG
//! edge but an N-cycle [`Scenario`]: a register preload, a per-cycle input
//! schedule, and a [`FaultTiming`] window saying when during the schedule
//! the injected faults are armed. The paper's §6.4 single-transition
//! experiment is the trivial `N = 1` case ([`Scenario::single`]); protocol
//! campaigns attack [`ProtocolScenario`] walks — multi-step transition
//! sequences such as a secure-boot handshake — with a fault glitching one
//! step and the classification judging the *whole trajectory*.

use scfi_core::{HardenedFsm, RedundantFsm, StateDecode};
use scfi_fsm::{Cfg, Fsm, LoweredFsm, StateId};
use scfi_netlist::Module;

use crate::campaign::Outcome;
use crate::oracle::{AlertModel, WaveOracle};

/// When during a scenario's cycle schedule the injected faults are armed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultTiming {
    /// Armed for the whole trajectory: stuck-ats model a permanently broken
    /// wire, flips a persistently glitched net. Register flips are applied
    /// once, before the first cycle (FT1).
    Permanent,
    /// Armed only during cycle `c` (0-based) and cleared afterwards — the
    /// paper's transient attacker glitching one step of a protocol.
    /// Register flips are applied just before cycle `c`.
    Transient(usize),
}

impl FaultTiming {
    /// Whether net/pin fault masks are active during `cycle`.
    pub fn armed_at(&self, cycle: usize) -> bool {
        match *self {
            FaultTiming::Permanent => true,
            FaultTiming::Transient(c) => cycle == c,
        }
    }

    /// The cycle just before which register-bit flips are applied (the
    /// start of the fault window).
    pub fn flip_cycle(&self) -> usize {
        match *self {
            FaultTiming::Permanent => 0,
            FaultTiming::Transient(c) => c,
        }
    }
}

/// Per-fault arming windows for a scenario's fault group — the §3 temporal
/// attacker, who may time each of their N−1 glitches independently.
///
/// The legacy one-window-per-scenario model lowers to
/// [`FaultSchedule::Uniform`] with unchanged semantics; a
/// [`FaultSchedule::PerFault`] schedule gives fault `j` of the injected
/// group its own [`FaultTiming`], so two glitches can strike different
/// steps of the same protocol walk. Work items can additionally override
/// windows per fault (see
/// [`WorkList::push_scheduled`](crate::WorkList::push_scheduled)), which
/// is how sampled multi-fault campaigns draw independent timings per run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultSchedule {
    /// Every fault in the group shares one window.
    Uniform(FaultTiming),
    /// Fault `j` of the group is armed during window `j`; groups larger
    /// than the schedule reuse its last window.
    PerFault(Vec<FaultTiming>),
}

impl FaultSchedule {
    /// The arming window of fault `j` of the injected group.
    ///
    /// # Panics
    ///
    /// Panics on an empty [`FaultSchedule::PerFault`] schedule.
    pub fn window(&self, fault: usize) -> FaultTiming {
        match self {
            FaultSchedule::Uniform(t) => *t,
            FaultSchedule::PerFault(ws) => {
                assert!(!ws.is_empty(), "per-fault schedule has no windows");
                ws[fault.min(ws.len() - 1)]
            }
        }
    }

    /// All distinct windows of the schedule (one entry for `Uniform`).
    pub fn windows(&self) -> &[FaultTiming] {
        match self {
            FaultSchedule::Uniform(t) => std::slice::from_ref(t),
            FaultSchedule::PerFault(ws) => ws,
        }
    }
}

impl From<FaultTiming> for FaultSchedule {
    fn from(t: FaultTiming) -> Self {
        FaultSchedule::Uniform(t)
    }
}

/// One N-cycle attack scenario: where the registers start, what drives the
/// inputs on every cycle, and when the faults under test are live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Register preload, in `Module::registers()` order.
    pub regs: Vec<bool>,
    /// Input-port vector per cycle; `inputs.len()` is the trajectory length
    /// N ≥ 1.
    pub inputs: Vec<Vec<bool>>,
    /// The per-fault arming windows within the schedule.
    pub schedule: FaultSchedule,
}

impl Scenario {
    /// The single-transition scenario of the paper's §6.4 experiment: one
    /// cycle, faults armed throughout.
    pub fn single(regs: Vec<bool>, inputs: Vec<bool>) -> Self {
        Scenario {
            regs,
            inputs: vec![inputs],
            schedule: FaultSchedule::Uniform(FaultTiming::Permanent),
        }
    }

    /// Trajectory length in cycles.
    pub fn cycles(&self) -> usize {
        self.inputs.len()
    }

    /// The effective arming window of fault `j` of a work item: the item's
    /// per-fault override when present, the scenario schedule otherwise.
    pub fn fault_window(&self, overrides: &[Option<FaultTiming>], j: usize) -> FaultTiming {
        overrides
            .get(j)
            .copied()
            .flatten()
            .unwrap_or_else(|| self.schedule.window(j))
    }
}

/// A multi-cycle protocol scenario over a CFG: a connected walk of edge
/// indices (each edge's target is the next edge's source) plus the
/// per-fault arming schedule. [`protocol_scenarios`] generates the
/// standard campaign set; hand-written schedules can be passed to the
/// targets' `with_scenarios` constructors directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolScenario {
    /// Indices into [`Cfg::edges`], connected head to tail.
    pub edges: Vec<usize>,
    /// When during the walk each fault of the injected group is armed.
    pub schedule: FaultSchedule,
    /// Optional per-cycle raw-input override (adversarial input fuzzing):
    /// when present, cycle `c` drives `inputs[c]` instead of edge `c`'s
    /// representative input vector. The override must still drive the
    /// walk's edge sequence — a fuzzed schedule changes *which* admissible
    /// word drives each step, never the step itself.
    pub inputs: Option<Vec<Vec<bool>>>,
}

impl ProtocolScenario {
    /// A walk whose fault group follows `schedule`.
    pub fn new(edges: Vec<usize>, schedule: FaultSchedule) -> Self {
        ProtocolScenario {
            edges,
            schedule,
            inputs: None,
        }
    }

    /// A walk with one shared window for the whole fault group — the
    /// legacy one-`FaultTiming`-per-scenario form.
    pub fn uniform(edges: Vec<usize>, timing: FaultTiming) -> Self {
        Self::new(edges, FaultSchedule::Uniform(timing))
    }

    /// Overrides the per-cycle input vectors (adversarial input fuzzing);
    /// `inputs.len()` must equal the walk length.
    pub fn with_inputs(mut self, inputs: Vec<Vec<bool>>) -> Self {
        self.inputs = Some(inputs);
        self
    }
}

/// The standard multi-cycle campaign scenario set: seeded random CFG walks
/// of `depth` edges (one walk per starting edge, via
/// [`Cfg::random_walks`]), each expanded into `depth` scenarios — one per
/// injection cycle, with [`FaultTiming::Transient`] arming the faults
/// during exactly that step of the protocol.
///
/// # Panics
///
/// Panics if `depth` is zero.
pub fn protocol_scenarios(cfg: &Cfg, depth: usize, seed: u64) -> Vec<ProtocolScenario> {
    expand_walks(cfg.random_walks(depth, seed))
}

/// Expands walks into per-injection-cycle [`ProtocolScenario`]s.
fn expand_walks(walks: Vec<Vec<usize>>) -> Vec<ProtocolScenario> {
    let mut scenarios = Vec::new();
    for walk in walks {
        for cycle in 0..walk.len() {
            scenarios.push(ProtocolScenario::uniform(
                walk.clone(),
                FaultTiming::Transient(cycle),
            ));
        }
    }
    scenarios
}

/// The seeded xorshift64* stream shared by the scenario generators and
/// the multi-fault draw (the same generator as [`Cfg::random_walks`]).
pub(crate) fn xorshift64star(seed: u64) -> impl FnMut() -> u64 {
    let mut rng = seed.max(1);
    move || {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        rng.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// Adversarial protocol walks biased toward wrong-but-close codewords:
/// at each step, with probability 1/2 the successor is the outgoing edge
/// whose `word_of` codeword is Hamming-closest to the *previous* step's
/// codeword (ties broken by edge index), otherwise it is drawn uniformly
/// — so consecutive condition words tend to differ in as few bits as the
/// CFG allows, the schedules a glitch is most likely to confuse. One walk
/// per starting edge, deterministic in `seed`.
///
/// # Panics
///
/// Panics if `depth` is zero.
pub fn adversarial_walks(
    cfg: &Cfg,
    depth: usize,
    seed: u64,
    word_of: impl Fn(usize) -> Vec<bool>,
) -> Vec<Vec<usize>> {
    assert!(depth > 0, "protocol walks need at least one edge");
    let mut next = xorshift64star(seed);
    let hamming = |a: &[bool], b: &[bool]| a.iter().zip(b).filter(|(x, y)| x != y).count();
    let mut walks = Vec::with_capacity(cfg.edges().len());
    for start in 0..cfg.edges().len() {
        let mut walk = Vec::with_capacity(depth);
        walk.push(start);
        let mut at = cfg.edges()[start].to;
        while walk.len() < depth {
            let choices = cfg.out_edge_indices(at);
            let prev_word = word_of(*walk.last().expect("walk is nonempty"));
            let e = if next() & 1 == 0 {
                *choices
                    .iter()
                    .min_by_key(|&&e| (hamming(&word_of(e), &prev_word), e))
                    .expect("every state has an outgoing edge")
            } else {
                choices[(next() % choices.len() as u64) as usize]
            };
            walk.push(e);
            at = cfg.edges()[e].to;
        }
        walks.push(walk);
    }
    walks
}

/// The adversarially fuzzed campaign scenario set: [`adversarial_walks`]
/// expanded one scenario per injection cycle, exactly like
/// [`protocol_scenarios`] but with the walk shapes biased toward
/// close-codeword transitions.
///
/// # Panics
///
/// Panics if `depth` is zero.
pub fn fuzzed_protocol_scenarios(
    cfg: &Cfg,
    depth: usize,
    seed: u64,
    word_of: impl Fn(usize) -> Vec<bool>,
) -> Vec<ProtocolScenario> {
    expand_walks(adversarial_walks(cfg, depth, seed, word_of))
}

/// A circuit (plus its oracle) a fault campaign can attack.
///
/// A target defines the scenario space and classifies the simulated
/// trajectory cycle by cycle against the fault-free expectation. The
/// executors fold the per-cycle outcomes with [`Outcome::fold`], so a
/// hijacked state that collapses to ERROR later in the walk counts as
/// [`Outcome::Detected`] — the paper's "invalid state reaches ERROR on the
/// next edge" argument applied along the whole protocol.
pub trait FaultTarget: Sync {
    /// The netlist under attack.
    fn module(&self) -> &Module;

    /// Number of scenarios.
    fn scenario_count(&self) -> usize;

    /// The N-cycle scenario at `index`.
    fn scenario(&self, index: usize) -> Scenario;

    /// Classifies the post-step registers and outputs after cycle `cycle`
    /// of scenario `index` (0-based, one call per cycle of the
    /// trajectory).
    fn classify(&self, index: usize, cycle: usize, regs: &[bool], outputs: &[bool]) -> Outcome;

    /// A precompiled word-level classification oracle, if the target can
    /// express [`FaultTarget::classify`] as packed-word logic (see
    /// [`WaveOracle`]). The wave executor then decodes whole 64-lane
    /// words at a time instead of extracting each lane; `None` keeps the
    /// per-lane extraction + `classify` fallback, which is correct for
    /// every target, just slower.
    ///
    /// Contract: at every scenario cycle the oracle's verdicts must equal
    /// `classify`'s on the same post-step registers and outputs, with
    /// [`FaultTarget::expected_state`] naming the cycle's fault-free
    /// landing state. The differential suites pin this against the scalar
    /// engine on every Table-1 FSM.
    fn wave_oracle(&self) -> Option<WaveOracle> {
        None
    }

    /// The codebook index (in [`FaultTarget::wave_oracle`]'s codeword
    /// order) of the fault-free landing state after `cycle` of scenario
    /// `index`. Only consulted when `wave_oracle` returns an oracle.
    fn expected_state(&self, index: usize, cycle: usize) -> usize {
        let _ = (index, cycle);
        unimplemented!("targets providing a wave_oracle must implement expected_state")
    }
}

/// Shared scenario-space bookkeeping behind the three targets: either the
/// single-transition space (scenario `i` = one CFG edge) or a validated
/// protocol space of multi-cycle walks. Centralizes the index → edge
/// resolution and the [`Scenario`] assembly, so the targets differ only
/// in how they encode register preloads and per-edge input vectors — and
/// a future timing extension lands in one place, not three.
#[derive(Clone, Debug)]
struct ScenarioSpace {
    /// `None` = the single-transition §6.4 space.
    protocol: Option<Vec<ProtocolScenario>>,
}

impl ScenarioSpace {
    fn single_transition() -> Self {
        ScenarioSpace { protocol: None }
    }

    /// A protocol space; panics if a walk is empty, disconnected, times
    /// any fault window past the walk's end, or overrides its inputs with
    /// a schedule of the wrong length.
    fn protocol(cfg: &Cfg, scenarios: Vec<ProtocolScenario>) -> Self {
        for (i, s) in scenarios.iter().enumerate() {
            assert!(!s.edges.is_empty(), "protocol scenario {i} has no edges");
            for pair in s.edges.windows(2) {
                assert_eq!(
                    cfg.edges()[pair[0]].to,
                    cfg.edges()[pair[1]].from,
                    "protocol scenario {i} is not a connected walk"
                );
            }
            assert!(
                !s.schedule.windows().is_empty(),
                "protocol scenario {i} has an empty per-fault schedule"
            );
            for w in s.schedule.windows() {
                if let FaultTiming::Transient(c) = *w {
                    assert!(
                        c < s.edges.len(),
                        "protocol scenario {i} arms its fault at cycle {c}, past the {}-cycle walk",
                        s.edges.len()
                    );
                }
            }
            if let Some(inputs) = &s.inputs {
                assert_eq!(
                    inputs.len(),
                    s.edges.len(),
                    "protocol scenario {i} overrides inputs for {} cycles of a {}-cycle walk",
                    inputs.len(),
                    s.edges.len()
                );
            }
        }
        ScenarioSpace {
            protocol: Some(scenarios),
        }
    }

    /// Scenario count; `single_count` is the size of the
    /// single-transition space.
    fn count(&self, single_count: usize) -> usize {
        self.protocol.as_ref().map_or(single_count, Vec::len)
    }

    /// The CFG edge index driven at `cycle` of scenario `index`;
    /// `single_edge` maps a single-transition scenario index to its edge.
    fn edge_at(
        &self,
        index: usize,
        cycle: usize,
        single_edge: impl FnOnce(usize) -> usize,
    ) -> usize {
        match &self.protocol {
            Some(scenarios) => scenarios[index].edges[cycle],
            None => {
                debug_assert_eq!(cycle, 0, "single-transition scenarios have one cycle");
                single_edge(index)
            }
        }
    }

    /// Assembles the [`Scenario`] at `index`: registers preloaded with the
    /// first edge's source state, one input vector per walk edge.
    fn scenario(
        &self,
        index: usize,
        cfg: &Cfg,
        single_edge: impl Fn(usize) -> usize,
        regs_of: impl Fn(StateId) -> Vec<bool>,
        inputs_of: impl Fn(usize) -> Vec<bool>,
    ) -> Scenario {
        match &self.protocol {
            None => {
                let ei = single_edge(index);
                Scenario::single(regs_of(cfg.edges()[ei].from), inputs_of(ei))
            }
            Some(scenarios) => {
                let p = &scenarios[index];
                Scenario {
                    regs: regs_of(cfg.edges()[p.edges[0]].from),
                    inputs: match &p.inputs {
                        Some(fuzzed) => fuzzed.clone(),
                        None => p.edges.iter().map(|&ei| inputs_of(ei)).collect(),
                    },
                    schedule: p.schedule.clone(),
                }
            }
        }
    }
}

/// Campaign target for an SCFI-hardened FSM.
///
/// Detection = terminal ERROR, an invalid (non-codeword) register state
/// (which collapses to ERROR on the next edge), or an asserted alert — at
/// *any* cycle of the trajectory.
#[derive(Clone, Debug)]
pub struct ScfiTarget<'a> {
    hardened: &'a HardenedFsm,
    space: ScenarioSpace,
}

impl<'a> ScfiTarget<'a> {
    /// Wraps a hardened FSM with the single-transition scenario space (one
    /// scenario per CFG edge).
    pub fn new(hardened: &'a HardenedFsm) -> Self {
        ScfiTarget {
            hardened,
            space: ScenarioSpace::single_transition(),
        }
    }

    /// Multi-cycle protocol target: seeded random CFG walks of `depth`
    /// transitions, one transient injection scenario per walk step (see
    /// [`protocol_scenarios`]).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_protocol(hardened: &'a HardenedFsm, depth: usize, seed: u64) -> Self {
        Self::with_scenarios(hardened, protocol_scenarios(hardened.cfg(), depth, seed))
    }

    /// Adversarially fuzzed multi-cycle target: walks biased toward
    /// wrong-but-close condition codewords (see [`adversarial_walks`]),
    /// so consecutive steps drive condition words a small glitch is most
    /// likely to confuse. Every driven word stays a valid codeword — the
    /// §5 interface assumption (and with it the certification
    /// cross-oracle) is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_fuzzed_protocol(hardened: &'a HardenedFsm, depth: usize, seed: u64) -> Self {
        let cfg = hardened.cfg();
        let scenarios = fuzzed_protocol_scenarios(cfg, depth, seed, |ei| {
            let edge = &cfg.edges()[ei];
            hardened
                .condition_word(edge.local_index(hardened.fsm()))
                .iter()
                .collect()
        });
        Self::with_scenarios(hardened, scenarios)
    }

    /// Multi-cycle target over hand-picked protocol scenarios.
    ///
    /// # Panics
    ///
    /// Panics if a walk is empty, disconnected, or times its fault window
    /// past the walk's end.
    pub fn with_scenarios(hardened: &'a HardenedFsm, scenarios: Vec<ProtocolScenario>) -> Self {
        ScfiTarget {
            hardened,
            space: ScenarioSpace::protocol(hardened.cfg(), scenarios),
        }
    }

    /// The underlying hardened FSM.
    pub fn hardened(&self) -> &'a HardenedFsm {
        self.hardened
    }
}

impl FaultTarget for ScfiTarget<'_> {
    fn module(&self) -> &Module {
        self.hardened.module()
    }

    fn scenario_count(&self) -> usize {
        self.space.count(self.hardened.cfg().edges().len())
    }

    fn scenario(&self, index: usize) -> Scenario {
        let h = self.hardened;
        self.space.scenario(
            index,
            h.cfg(),
            |i| i,
            |s| h.encode_state(s).iter().collect(),
            |ei| {
                let edge = &h.cfg().edges()[ei];
                h.condition_word(edge.local_index(h.fsm())).iter().collect()
            },
        )
    }

    fn classify(&self, index: usize, cycle: usize, regs: &[bool], outputs: &[bool]) -> Outcome {
        let ei = self.space.edge_at(index, cycle, |i| i);
        let to = self.hardened.cfg().edges()[ei].to;
        let (alert_line, in_error) = self.hardened.alert_lines(outputs);
        let alert = alert_line || in_error;
        match self.hardened.decode_registers(regs) {
            StateDecode::State(s) if s == to && !alert => Outcome::Masked,
            StateDecode::State(s) if s == to => Outcome::Detected,
            StateDecode::Error | StateDecode::Invalid => Outcome::Detected,
            StateDecode::State(_) if alert => Outcome::Detected,
            StateDecode::State(_) => Outcome::Hijack,
        }
    }

    fn wave_oracle(&self) -> Option<WaveOracle> {
        let h = self.hardened;
        // decode_registers reads the whole register file as the state
        // codeword; fall back to the scalar path if that ever diverges.
        if h.state_code().width() != h.module().registers().len() {
            return None;
        }
        let codewords = (0..h.fsm().state_count())
            .map(|s| h.encode_state(StateId(s)).iter().collect())
            .collect();
        // Zero words are terminal ERROR, invalid codewords are caught on
        // the next edge, and the last two ports are alert/in_error —
        // exactly the scalar classification above.
        Some(WaveOracle::new(
            codewords,
            true,
            true,
            AlertModel::LastTwoOutputs,
        ))
    }

    fn expected_state(&self, index: usize, cycle: usize) -> usize {
        let ei = self.space.edge_at(index, cycle, |i| i);
        self.hardened.cfg().edges()[ei].to.0
    }
}

/// Campaign target for the redundancy baseline.
///
/// Detection = the register-mismatch alert. An undetected landing in any
/// state other than the cycle's expected state — including out-of-range
/// binary codes — is a hijack.
#[derive(Clone, Debug)]
pub struct RedundancyTarget<'a> {
    redundant: &'a RedundantFsm,
    space: ScenarioSpace,
}

impl<'a> RedundancyTarget<'a> {
    /// Wraps a redundancy-protected FSM (single-transition scenarios).
    pub fn new(redundant: &'a RedundantFsm) -> Self {
        RedundancyTarget {
            redundant,
            space: ScenarioSpace::single_transition(),
        }
    }

    /// Multi-cycle protocol target (see [`ScfiTarget::with_protocol`]).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_protocol(redundant: &'a RedundantFsm, depth: usize, seed: u64) -> Self {
        RedundancyTarget {
            redundant,
            space: ScenarioSpace::protocol(
                redundant.cfg(),
                protocol_scenarios(redundant.cfg(), depth, seed),
            ),
        }
    }

    /// Adversarially fuzzed multi-cycle target (see
    /// [`ScfiTarget::with_fuzzed_protocol`]): walks biased toward
    /// close-codeword condition transitions.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_fuzzed_protocol(redundant: &'a RedundantFsm, depth: usize, seed: u64) -> Self {
        let cfg = redundant.cfg();
        let scenarios = fuzzed_protocol_scenarios(cfg, depth, seed, |ei| {
            let edge = &cfg.edges()[ei];
            redundant
                .cond_code()
                .word(edge.local_index(redundant.fsm()))
                .iter()
                .collect()
        });
        RedundancyTarget {
            redundant,
            space: ScenarioSpace::protocol(cfg, scenarios),
        }
    }

    /// Multi-cycle target over hand-picked protocol scenarios.
    ///
    /// # Panics
    ///
    /// Panics if a walk is empty, disconnected, or times its fault window
    /// past the walk's end.
    pub fn with_scenarios(redundant: &'a RedundantFsm, scenarios: Vec<ProtocolScenario>) -> Self {
        RedundancyTarget {
            redundant,
            space: ScenarioSpace::protocol(redundant.cfg(), scenarios),
        }
    }

    /// The preload for a replica-bank register file holding `state`.
    fn preload(&self, state: StateId) -> Vec<bool> {
        let code = scfi_gf2::BitVec::from_u64(state.0 as u64, self.redundant.state_bits());
        let n_regs = self.redundant.module().registers().len();
        let replicas = n_regs / self.redundant.state_bits();
        let mut regs = Vec::with_capacity(n_regs);
        for _ in 0..replicas {
            regs.extend(code.iter());
        }
        regs
    }
}

impl FaultTarget for RedundancyTarget<'_> {
    fn module(&self) -> &Module {
        self.redundant.module()
    }

    fn scenario_count(&self) -> usize {
        self.space.count(self.redundant.cfg().edges().len())
    }

    fn scenario(&self, index: usize) -> Scenario {
        let r = self.redundant;
        self.space.scenario(
            index,
            r.cfg(),
            |i| i,
            |s| self.preload(s),
            |ei| {
                let edge = &r.cfg().edges()[ei];
                r.cond_code()
                    .word(edge.local_index(r.fsm()))
                    .iter()
                    .collect()
            },
        )
    }

    fn classify(&self, index: usize, cycle: usize, regs: &[bool], outputs: &[bool]) -> Outcome {
        let ei = self.space.edge_at(index, cycle, |i| i);
        let to = self.redundant.cfg().edges()[ei].to;
        // The mismatch comparator is combinational on the register banks,
        // so a corruption committed on this edge raises the alert in the
        // *next* cycle — evaluate it on the post-step banks directly.
        let sb = self.redundant.state_bits();
        let mismatch = regs.chunks(sb).skip(1).any(|bank| bank != &regs[..sb]);
        let alert = outputs[outputs.len() - 1] || mismatch;
        match self.redundant.decode_registers(regs) {
            Some(s) if s == to && !alert => Outcome::Masked,
            _ if alert => Outcome::Detected,
            _ => Outcome::Hijack,
        }
    }

    fn wave_oracle(&self) -> Option<WaveOracle> {
        let r = self.redundant;
        let sb = r.state_bits();
        // Bank 0 (the first state_bits registers) carries the natural
        // binary code; the alert is the registered mismatch line plus the
        // combinational replica comparison — the scalar classification
        // above, word-parallel.
        let codewords = (0..r.fsm().state_count())
            .map(|s| scfi_gf2::BitVec::from_u64(s as u64, sb).iter().collect())
            .collect();
        Some(WaveOracle::new(
            codewords,
            false,
            false,
            AlertModel::BankMismatch { state_bits: sb },
        ))
    }

    fn expected_state(&self, index: usize, cycle: usize) -> usize {
        let ei = self.space.edge_at(index, cycle, |i| i);
        self.redundant.cfg().edges()[ei].to.0
    }
}

/// Campaign target for a plain unprotected FSM netlist: no detection
/// mechanism exists, so every wrong landing is a hijack.
#[derive(Debug)]
pub struct UnprotectedTarget<'a> {
    fsm: &'a Fsm,
    lowered: &'a LoweredFsm,
    cfg: scfi_fsm::Cfg,
    /// Representative raw inputs per CFG edge; `None` for edges no input
    /// valuation can drive.
    representatives: Vec<Option<Vec<bool>>>,
    /// Drivable edges in ascending order — the single-transition scenario
    /// space.
    drivable: Vec<usize>,
    space: ScenarioSpace,
}

impl<'a> UnprotectedTarget<'a> {
    /// Builds the scenario list: one representative raw-input vector per
    /// reachable CFG edge (found by enumerating input valuations).
    ///
    /// # Panics
    ///
    /// Panics if the FSM has more than [`MAX_SIGNALS`](Self::MAX_SIGNALS)
    /// control signals (enumeration guard).
    pub fn new(fsm: &'a Fsm, lowered: &'a LoweredFsm) -> Self {
        let n = fsm.signals().len();
        assert!(
            n <= Self::MAX_SIGNALS,
            "too many signals to enumerate scenarios"
        );
        let cfg = fsm.cfg();
        let mut representatives = vec![None; cfg.edges().len()];
        for bits in 0..(1u64 << n) {
            let inputs: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            for s in fsm.states() {
                let ei = cfg.matched_edge(s, &inputs);
                if representatives[ei].is_none() {
                    representatives[ei] = Some(inputs.clone());
                }
            }
        }
        let drivable = (0..cfg.edges().len())
            .filter(|&ei| representatives[ei].is_some())
            .collect();
        UnprotectedTarget {
            fsm,
            lowered,
            cfg,
            representatives,
            drivable,
            space: ScenarioSpace::single_transition(),
        }
    }

    /// Multi-cycle protocol target: seeded random walks over the *drivable*
    /// edges only (an edge no input valuation can take cannot appear in a
    /// concrete input schedule).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero (and inherits [`UnprotectedTarget::new`]'s
    /// signal-count guard).
    pub fn with_protocol(fsm: &'a Fsm, lowered: &'a LoweredFsm, depth: usize, seed: u64) -> Self {
        let mut target = Self::new(fsm, lowered);
        let walks = target
            .cfg
            .random_walks_where(depth, seed, |ei| target.representatives[ei].is_some());
        target.space = ScenarioSpace::protocol(&target.cfg, expand_walks(walks));
        target
    }

    /// Adversarially fuzzed multi-cycle target: the same drivable random
    /// walks as [`with_protocol`](Self::with_protocol), but every cycle of
    /// every scenario samples its raw input word from *all* valuations
    /// driving that edge (up to [`Self::INPUT_VARIANTS`] per edge) instead
    /// of reusing the one on-walk representative — the attacker's free
    /// choice of inputs from §3, restricted to words that keep the walk on
    /// its edge sequence.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero (and inherits [`UnprotectedTarget::new`]'s
    /// signal-count guard).
    pub fn with_fuzzed_protocol(
        fsm: &'a Fsm,
        lowered: &'a LoweredFsm,
        depth: usize,
        seed: u64,
    ) -> Self {
        let mut target = Self::new(fsm, lowered);
        let n = fsm.signals().len();
        // Every admissible valuation per edge, capped per edge: the same
        // enumeration as `new`, kept instead of first-hit-only.
        let mut variants: Vec<Vec<Vec<bool>>> = vec![Vec::new(); target.cfg.edges().len()];
        for bits in 0..(1u64 << n) {
            let inputs: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            for s in fsm.states() {
                let ei = target.cfg.matched_edge(s, &inputs);
                if variants[ei].len() < Self::INPUT_VARIANTS {
                    variants[ei].push(inputs.clone());
                }
            }
        }
        let walks = target
            .cfg
            .random_walks_where(depth, seed, |ei| target.representatives[ei].is_some());
        let mut next = xorshift64star(seed ^ 0xF0_22_1E);
        let mut scenarios = Vec::new();
        for walk in walks {
            for cycle in 0..walk.len() {
                let fuzzed: Vec<Vec<bool>> = walk
                    .iter()
                    .map(|&ei| {
                        let pool = &variants[ei];
                        pool[(next() % pool.len() as u64) as usize].clone()
                    })
                    .collect();
                scenarios.push(
                    ProtocolScenario::uniform(walk.clone(), FaultTiming::Transient(cycle))
                        .with_inputs(fuzzed),
                );
            }
        }
        target.space = ScenarioSpace::protocol(&target.cfg, scenarios);
        target
    }

    /// Input valuations sampled per edge by
    /// [`with_fuzzed_protocol`](Self::with_fuzzed_protocol).
    pub const INPUT_VARIANTS: usize = 8;

    /// The most control signals [`new`](Self::new) accepts: it enumerates
    /// all 2^n input words to find one representative per CFG edge.
    pub const MAX_SIGNALS: usize = 20;

    /// Multi-cycle target over hand-picked protocol scenarios. Every walk
    /// edge must be drivable (see
    /// [`UnprotectedTarget::scenario_edge_is_drivable`]) — an edge no input
    /// valuation can take has no concrete input vector to schedule.
    ///
    /// # Panics
    ///
    /// Panics if a walk is empty, disconnected, times its fault window past
    /// the walk's end, or uses an undrivable edge.
    pub fn with_scenarios(
        fsm: &'a Fsm,
        lowered: &'a LoweredFsm,
        scenarios: Vec<ProtocolScenario>,
    ) -> Self {
        let mut target = Self::new(fsm, lowered);
        for (i, s) in scenarios.iter().enumerate() {
            for &ei in &s.edges {
                assert!(
                    target.representatives[ei].is_some(),
                    "protocol scenario {i} uses edge {ei}, which no input valuation drives"
                );
            }
        }
        target.space = ScenarioSpace::protocol(&target.cfg, scenarios);
        target
    }

    /// Whether some input valuation takes CFG edge `ei` — i.e. whether the
    /// edge can appear in a concrete protocol schedule.
    pub fn scenario_edge_is_drivable(&self, ei: usize) -> bool {
        self.representatives[ei].is_some()
    }

    /// The source FSM.
    pub fn fsm(&self) -> &'a Fsm {
        self.fsm
    }

    fn raw_inputs(&self, ei: usize) -> Vec<bool> {
        self.representatives[ei]
            .clone()
            .expect("scenario edges are drivable by construction")
    }
}

impl FaultTarget for UnprotectedTarget<'_> {
    fn module(&self) -> &Module {
        self.lowered.module()
    }

    fn scenario_count(&self) -> usize {
        self.space.count(self.drivable.len())
    }

    fn scenario(&self, index: usize) -> Scenario {
        self.space.scenario(
            index,
            &self.cfg,
            |i| self.drivable[i],
            |s| self.lowered.encoding(s).iter().collect(),
            |ei| self.raw_inputs(ei),
        )
    }

    fn classify(&self, index: usize, cycle: usize, regs: &[bool], _outputs: &[bool]) -> Outcome {
        let ei = self.space.edge_at(index, cycle, |i| self.drivable[i]);
        match self.lowered.decode_registers(regs) {
            Some(s) if s == self.cfg.edges()[ei].to => Outcome::Masked,
            _ => Outcome::Hijack,
        }
    }

    fn wave_oracle(&self) -> Option<WaveOracle> {
        let enc = self.lowered.encodings();
        // decode_registers matches the whole register file against the
        // binary encodings; a width mismatch would never decode, so keep
        // the scalar fallback for that (impossible by construction) case.
        if enc.is_empty() || enc[0].len() != self.module().registers().len() {
            return None;
        }
        Some(WaveOracle::new(
            enc.iter().map(|e| e.iter().collect()).collect(),
            false,
            false,
            AlertModel::None,
        ))
    }

    fn expected_state(&self, index: usize, cycle: usize) -> usize {
        let ei = self.space.edge_at(index, cycle, |i| self.drivable[i]);
        self.cfg.edges()[ei].to.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfi_core::{harden, redundancy, ScfiConfig};
    use scfi_fsm::{lower_unprotected, parse_fsm};

    fn fsm() -> Fsm {
        parse_fsm(
            "fsm m { inputs a, b;
               state S0 { if a -> S1; if b -> S2; }
               state S1 { if b -> S2; }
               state S2 { goto S0; } }",
        )
        .unwrap()
    }

    #[test]
    fn scfi_scenarios_cover_all_edges() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        assert_eq!(t.scenario_count(), h.cfg().edges().len());
        for i in 0..t.scenario_count() {
            let sc = t.scenario(i);
            assert_eq!(sc.cycles(), 1);
            assert_eq!(sc.schedule, FaultSchedule::Uniform(FaultTiming::Permanent));
            assert_eq!(sc.regs.len(), h.state_code().width());
            assert_eq!(sc.inputs[0].len(), h.cond_code().width());
        }
    }

    #[test]
    fn redundancy_scenarios_preload_all_banks() {
        let f = fsm();
        let r = redundancy(&f, 3).unwrap();
        let t = RedundancyTarget::new(&r);
        let sc = t.scenario(0);
        assert_eq!(sc.regs.len(), r.module().registers().len());
    }

    #[test]
    fn unprotected_scenarios_cover_reachable_edges() {
        let f = fsm();
        let lowered = lower_unprotected(&f).unwrap();
        let t = UnprotectedTarget::new(&f, &lowered);
        // All 6 edges (S0: a, b, stay; S1: b, stay; S2: goto) are drivable.
        assert_eq!(t.scenario_count(), f.cfg().edges().len());
    }

    #[test]
    fn fault_free_runs_classify_as_masked() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        for i in 0..t.scenario_count() {
            let sc = t.scenario(i);
            let mut sim = scfi_netlist::Simulator::new(t.module());
            sim.set_register_values(&sc.regs);
            let out = sim.step(&sc.inputs[0]);
            assert_eq!(
                t.classify(i, 0, sim.register_values(), &out),
                Outcome::Masked,
                "scenario {i}"
            );
        }
    }

    /// Walks every protocol scenario of every target fault-free and checks
    /// each cycle classifies as Masked — the N-cycle generalization of the
    /// fault-free sanity check.
    #[test]
    fn fault_free_protocol_walks_classify_as_masked_every_cycle() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::with_protocol(&h, 4, 11);
        assert!(t.scenario_count() > 0);
        for i in 0..t.scenario_count() {
            let sc = t.scenario(i);
            assert_eq!(sc.cycles(), 4);
            let mut sim = scfi_netlist::Simulator::new(t.module());
            sim.set_register_values(&sc.regs);
            for (c, inputs) in sc.inputs.iter().enumerate() {
                let out = sim.step(inputs);
                assert_eq!(
                    t.classify(i, c, sim.register_values(), &out),
                    Outcome::Masked,
                    "scenario {i} cycle {c}"
                );
            }
        }
    }

    #[test]
    fn protocol_scenarios_expand_one_injection_cycle_per_step() {
        let f = fsm();
        let cfg = f.cfg();
        let depth = 3;
        let scenarios = protocol_scenarios(&cfg, depth, 99);
        assert_eq!(scenarios.len(), cfg.edges().len() * depth);
        for s in &scenarios {
            assert_eq!(s.edges.len(), depth);
            match s.schedule.window(0) {
                FaultTiming::Transient(c) => assert!(c < depth),
                FaultTiming::Permanent => panic!("generator emits transient windows"),
            }
        }
    }

    #[test]
    fn unprotected_protocol_walks_stay_drivable() {
        let f = fsm();
        let lowered = lower_unprotected(&f).unwrap();
        let t = UnprotectedTarget::with_protocol(&f, &lowered, 3, 5);
        for i in 0..t.scenario_count() {
            let sc = t.scenario(i);
            // Replaying the schedule on the behavioral FSM must follow the
            // walk exactly (each representative input drives its edge).
            let mut state = t.cfg.edges()[t.space.protocol.as_ref().unwrap()[i].edges[0]].from;
            for (c, raw) in sc.inputs.iter().enumerate() {
                let ei = t.cfg.matched_edge(state, raw);
                assert_eq!(ei, t.space.protocol.as_ref().unwrap()[i].edges[c]);
                state = t.cfg.edges()[ei].to;
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a connected walk")]
    fn disconnected_walks_are_rejected() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let cfg = h.cfg();
        // Find two edges that do not chain.
        let e0 = 0;
        let e1 = (0..cfg.edges().len())
            .find(|&e| cfg.edges()[e0].to != cfg.edges()[e].from)
            .expect("some disconnected pair");
        let _ = ScfiTarget::with_scenarios(
            &h,
            vec![ProtocolScenario::uniform(
                vec![e0, e1],
                FaultTiming::Permanent,
            )],
        );
    }

    #[test]
    #[should_panic(expected = "past the")]
    fn late_fault_windows_are_rejected() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let _ = ScfiTarget::with_scenarios(
            &h,
            vec![ProtocolScenario::uniform(
                vec![0],
                FaultTiming::Transient(1),
            )],
        );
    }

    #[test]
    fn per_fault_schedules_window_each_fault_and_clamp() {
        let s = FaultSchedule::PerFault(vec![FaultTiming::Transient(0), FaultTiming::Transient(2)]);
        assert_eq!(s.window(0), FaultTiming::Transient(0));
        assert_eq!(s.window(1), FaultTiming::Transient(2));
        // Groups larger than the schedule reuse the last window.
        assert_eq!(s.window(5), FaultTiming::Transient(2));
        assert_eq!(s.windows().len(), 2);
        let u: FaultSchedule = FaultTiming::Permanent.into();
        assert_eq!(u.window(3), FaultTiming::Permanent);
        assert_eq!(u.windows(), &[FaultTiming::Permanent]);
    }

    #[test]
    fn work_item_overrides_beat_the_scenario_schedule() {
        let sc = Scenario::single(vec![], vec![]);
        assert_eq!(sc.fault_window(&[], 0), FaultTiming::Permanent);
        let ov = [None, Some(FaultTiming::Transient(0))];
        assert_eq!(sc.fault_window(&ov, 0), FaultTiming::Permanent);
        assert_eq!(sc.fault_window(&ov, 1), FaultTiming::Transient(0));
    }

    #[test]
    #[should_panic(expected = "empty per-fault schedule")]
    fn empty_per_fault_schedules_are_rejected() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let _ = ScfiTarget::with_scenarios(
            &h,
            vec![ProtocolScenario::new(
                vec![0],
                FaultSchedule::PerFault(Vec::new()),
            )],
        );
    }

    #[test]
    #[should_panic(expected = "past the")]
    fn late_per_fault_windows_are_rejected() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let _ = ScfiTarget::with_scenarios(
            &h,
            vec![ProtocolScenario::new(
                vec![0],
                FaultSchedule::PerFault(vec![FaultTiming::Transient(0), FaultTiming::Transient(1)]),
            )],
        );
    }

    #[test]
    fn fuzzed_unprotected_walks_stay_drivable_and_vary_words() {
        let f = fsm();
        let lowered = lower_unprotected(&f).unwrap();
        let t = UnprotectedTarget::with_fuzzed_protocol(&f, &lowered, 3, 5);
        let protocol = t.space.protocol.as_ref().unwrap();
        assert!(t.scenario_count() > 0);
        assert_eq!(protocol.len(), t.scenario_count());
        let mut varied = false;
        for (i, walk) in protocol.iter().enumerate() {
            let sc = t.scenario(i);
            let mut state = t.cfg.edges()[walk.edges[0]].from;
            for (c, raw) in sc.inputs.iter().enumerate() {
                let ei = t.cfg.matched_edge(state, raw);
                assert_eq!(ei, walk.edges[c], "scenario {i} cycle {c}");
                varied |= Some(raw) != t.representatives[ei].as_ref();
                state = t.cfg.edges()[ei].to;
            }
        }
        assert!(varied, "fuzzing never left the representative words");
    }

    #[test]
    fn adversarial_walks_prefer_hamming_close_codewords() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::with_fuzzed_protocol(&h, 4, 7);
        // Every fuzzed walk is still a connected drivable walk with one
        // transient scenario per injection cycle (validated on
        // construction); the set is deterministic in the seed.
        assert_eq!(t.scenario_count(), h.cfg().edges().len() * 4);
        let again = ScfiTarget::with_fuzzed_protocol(&h, 4, 7);
        for i in 0..t.scenario_count() {
            assert_eq!(t.scenario(i), again.scenario(i));
        }
    }

    #[test]
    fn fault_timing_windows() {
        assert!(FaultTiming::Permanent.armed_at(0));
        assert!(FaultTiming::Permanent.armed_at(7));
        assert_eq!(FaultTiming::Permanent.flip_cycle(), 0);
        let t = FaultTiming::Transient(2);
        assert!(!t.armed_at(1));
        assert!(t.armed_at(2));
        assert!(!t.armed_at(3));
        assert_eq!(t.flip_cycle(), 2);
    }
}
