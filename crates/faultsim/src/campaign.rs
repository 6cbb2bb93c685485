//! Fault-campaign execution and reporting.

use std::fmt;
use std::ops::Range;

use scfi_netlist::{CellId, CellKind, Module, Simulator};

use crate::backend::{Backend, CampaignBackend, PackedBackend, ScalarBackend};
use crate::control::{CampaignError, LaneWidth, RunControl};
use crate::target::{xorshift64star, FaultTarget, FaultTiming};
use crate::wave::WorkList;

/// The effect dimension of the fault model (§2.1: "transient, i.e.
/// bit-flips, or stuck-at effects").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultEffect {
    /// Transient bit-flip for the transition cycle.
    Flip,
    /// Permanent stuck-at-0.
    Stuck0,
    /// Permanent stuck-at-1.
    Stuck1,
}

/// The spatial dimension of the fault model: where the fault lands.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultSite {
    /// The output net of a cell (covers gate faults and wire faults).
    CellOutput(CellId),
    /// One input pin of a cell (a wire fault local to one fanout branch).
    Pin(CellId, u8),
    /// A stored register bit, flipped before the cycle (FT1).
    Register(CellId),
}

/// One injectable fault.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fault {
    /// Where.
    pub site: FaultSite,
    /// What.
    pub effect: FaultEffect,
}

/// Classification of one injection (§6.4 semantics, generalized to
/// N-cycle trajectories).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// The FSM followed the intended transition (or, multi-cycle, the whole
    /// intended walk) with no alert.
    Masked,
    /// The fault was caught: terminal-error/invalid state or alert at some
    /// cycle of the trajectory.
    Detected,
    /// The FSM silently reached a valid-but-wrong state and was never
    /// caught — a successful control-flow hijack.
    Hijack,
}

impl Outcome {
    /// Folds per-cycle classifications into the trajectory verdict:
    /// `Detected` dominates (a hijacked state that collapses to ERROR two
    /// cycles later *was* caught — the paper's "invalid state reaches
    /// ERROR on the next edge" argument), then `Hijack`, then `Masked`.
    pub fn fold(self, later: Outcome) -> Outcome {
        match (self, later) {
            (Outcome::Detected, _) | (_, Outcome::Detected) => Outcome::Detected,
            (Outcome::Hijack, _) | (_, Outcome::Hijack) => Outcome::Hijack,
            (Outcome::Masked, Outcome::Masked) => Outcome::Masked,
        }
    }
}

/// A recorded hijack: which fault group, in which scenario.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultRecord {
    /// Scenario index (a CFG edge for single-transition campaigns, a
    /// protocol scenario otherwise).
    pub scenario: usize,
    /// The simultaneously injected fault group (one entry for single-fault
    /// campaigns; possibly empty for degenerate multi-fault draws).
    pub faults: Vec<Fault>,
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    effects: Vec<FaultEffect>,
    region: Option<Range<u32>>,
    include_register_flips: bool,
    include_pin_faults: bool,
    threads: usize,
    lane_words: LaneWidth,
    seed: u64,
    backend: Backend,
    fault_windows: bool,
    precompiled: Option<std::sync::Arc<scfi_netlist::PackedNetlist>>,
    telemetry: scfi_telemetry::Telemetry,
}

impl CampaignConfig {
    /// Defaults: transient flips on every gate output, no pin faults, no
    /// register flips, one worker thread per available CPU, the packed
    /// backend with 4-word (256-lane) waves.
    pub fn new() -> Self {
        CampaignConfig {
            effects: vec![FaultEffect::Flip],
            region: None,
            include_register_flips: false,
            include_pin_faults: false,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            lane_words: LaneWidth::new(4).expect("4 words is a valid packed width"),
            seed: 0xFA17,
            backend: Backend::default(),
            fault_windows: false,
            precompiled: None,
            telemetry: scfi_telemetry::Telemetry::off(),
        }
    }

    /// Installs a telemetry recorder: backends report execution counters
    /// (waves, injections, stepped cycles, oracle path ratios) into it at
    /// wave/run granularity. The default is the disabled handle; recording never
    /// changes campaign results — reports are byte-identical with
    /// telemetry on or off (the observability suites assert this).
    pub fn telemetry(mut self, telemetry: scfi_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The installed telemetry handle (disabled unless
    /// [`telemetry`](Self::telemetry) was called).
    pub(crate) fn telemetry_handle(&self) -> &scfi_telemetry::Telemetry {
        &self.telemetry
    }

    /// Which fault effects to inject.
    pub fn effects(mut self, effects: Vec<FaultEffect>) -> Self {
        self.effects = effects;
        self
    }

    /// Restricts cell-output faults to a cell-index region (e.g. the
    /// diffusion layer from
    /// [`HardenRegions`](scfi_core::HardenRegions)).
    pub fn region(mut self, region: Range<u32>) -> Self {
        self.region = Some(region);
        self
    }

    /// Also flips stored register bits directly (FT1).
    pub fn with_register_flips(mut self) -> Self {
        self.include_register_flips = true;
        self
    }

    /// Also injects faults on individual cell input pins.
    pub fn with_pin_faults(mut self) -> Self {
        self.include_pin_faults = true;
        self
    }

    /// Worker threads for the campaign (default:
    /// [`std::thread::available_parallelism`]).
    ///
    /// Campaign results are deterministic regardless of this setting: the
    /// wave executor writes each injection's outcome to its work-list slot,
    /// so reports are independent of thread count, lane-word width, wave
    /// boundaries and lane order.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Lane words per wave of the packed engine: `W` ∈ {1, 2, 4}, giving
    /// 64-, 128- or 256-lane waves (default: 4).
    ///
    /// This is a pure throughput knob — campaign reports are byte-identical
    /// at every width (the differential suites assert it). Wider waves
    /// amortize the netlist sweep over more injections but multiply the
    /// per-net working set; see the README's "choosing W" note.
    ///
    /// Budgets count injections, not waves: an
    /// [injection budget](crate::RunControl::with_injection_budget) admits
    /// whole waves while they fit and then the longest prefix of whole
    /// 64-lane words of the next one, so a budgeted partial report is the
    /// same at every width and on the scalar backend.
    ///
    /// # Panics
    ///
    /// Panics with the [`CampaignError::InvalidLaneWords`] description if
    /// `w` is not 1, 2 or 4 ([`LaneWidth::new`] validates without
    /// panicking).
    pub fn lane_words(mut self, w: usize) -> Self {
        self.lane_words = LaneWidth::new(w).unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// Seed for sampled campaigns.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Which [`CampaignBackend`] executes the campaign (default:
    /// [`Backend::Packed`]).
    ///
    /// Backends are pure throughput/auditability trade-offs — every
    /// backend produces byte-identical reports for the same campaign (the
    /// differential suites assert it at every width and thread count).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Samples an independent transient arming window per drawn fault in
    /// multi-fault campaigns — the §3 temporal attacker, who times each of
    /// their glitches separately within the scenario's schedule.
    ///
    /// Off by default: without this knob the sampled draw stream (scenario
    /// draw, then fault draws, one shared window) is bit-identical to the
    /// historical one, so seeded campaign aggregates stay reproducible.
    pub fn with_fault_windows(mut self) -> Self {
        self.fault_windows = true;
        self
    }

    /// Restricts the campaign to `module`'s FT1 register fault space:
    /// stored-bit flips plus faults on the register-region cells
    /// (`region` spanning the flip-flop cell indices, which every
    /// lowering in this workspace allocates contiguously per bank).
    ///
    /// This is the shared definition of "the register faults" used by
    /// the conformance suites, the certifier's tests and work pins and
    /// the job pipeline behind `scfi certify` — one source of truth
    /// instead of restatements of the contiguity assumption.
    ///
    /// # Panics
    ///
    /// Panics if `module` has no registers.
    pub fn register_region(mut self, module: &Module) -> Self {
        let regs = module.registers();
        let lo = regs
            .iter()
            .map(|r| r.0)
            .min()
            .expect("module has registers");
        let hi = regs
            .iter()
            .map(|r| r.0)
            .max()
            .expect("module has registers");
        self.region = Some(lo..hi + 1);
        self.include_register_flips = true;
        self
    }

    /// Supplies a pre-compiled [`PackedNetlist`](scfi_netlist::PackedNetlist)
    /// for the wave backends, skipping the per-campaign
    /// `PackedNetlist::compile` of the target's module.
    ///
    /// This is the seam behind compile caches (the `scfi serve` job
    /// server compiles each distinct `(FSM, config, N)` once and reuses
    /// the artifact across repeat submissions). The netlist **must** be
    /// the compilation of the campaign target's module: backends verify
    /// the structural shape (cell, input, output and register counts)
    /// and silently fall back to a fresh compile on any mismatch, so a
    /// stale hint can cost the speedup but never correctness. The scalar
    /// backend ignores the hint entirely.
    pub fn precompiled(mut self, net: std::sync::Arc<scfi_netlist::PackedNetlist>) -> Self {
        self.precompiled = Some(net);
        self
    }

    /// The pre-compiled netlist hint, if [`precompiled`](Self::precompiled)
    /// supplied one matching `module`'s shape.
    pub(crate) fn precompiled_for(&self, module: &Module) -> Option<&scfi_netlist::PackedNetlist> {
        let net = self.precompiled.as_deref()?;
        let matches = net.len() == module.len()
            && net.input_count() == module.inputs().len()
            && net.output_count() == module.outputs().len()
            && net.register_count() == module.registers().len();
        matches.then_some(net)
    }

    /// Configured worker thread count.
    pub(crate) fn thread_count(&self) -> usize {
        self.threads
    }

    /// Configured validated wave width of the packed backend.
    pub(crate) fn lane_width(&self) -> LaneWidth {
        self.lane_words
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig::new()
    }
}

/// Aggregated campaign results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignReport {
    /// Total injections performed.
    pub injections: usize,
    /// Fault had no effect on the transition.
    pub masked: usize,
    /// Fault caught (error state / invalid state / alert).
    pub detected: usize,
    /// Silent control-flow hijacks.
    pub hijacked: usize,
    /// Up to 64 recorded hijacks for inspection.
    pub hijack_examples: Vec<FaultRecord>,
}

impl CampaignReport {
    /// The paper's headline metric: the fraction of injections enabling a
    /// hijack (0.42 % in §6.4).
    pub fn hijack_rate(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.hijacked as f64 / self.injections as f64
        }
    }

    /// Fraction of injections that were detected among all *effective*
    /// faults (detected + hijacked), i.e. the error coverage.
    pub fn coverage(&self) -> f64 {
        let effective = self.detected + self.hijacked;
        if effective == 0 {
            1.0
        } else {
            self.detected as f64 / effective as f64
        }
    }

    pub(crate) fn empty() -> Self {
        CampaignReport {
            injections: 0,
            masked: 0,
            detected: 0,
            hijacked: 0,
            hijack_examples: Vec::new(),
        }
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} injections: {} masked, {} detected, {} hijacked ({:.2} % escape rate, {:.1} % coverage)",
            self.injections,
            self.masked,
            self.detected,
            self.hijacked,
            100.0 * self.hijack_rate(),
            100.0 * self.coverage()
        )
    }
}

/// Enumerates every injectable fault of `module` under `config`'s fault
/// model: each configured [`FaultEffect`] on every gate/register output
/// (and, when enabled, every cell input pin), plus stored-bit register
/// flips, all restricted to the configured cell region.
///
/// This is the single source of truth for the fault-site space — the
/// campaign executors, the [`VulnerabilityMap`](crate::VulnerabilityMap)
/// attribution and the `scfi-symbolic` formal certifier all enumerate
/// through it, so their verdicts are site-for-site comparable.
///
/// # Example
///
/// ```
/// use scfi_core::{harden, ScfiConfig};
/// use scfi_faultsim::{enumerate_faults, CampaignConfig};
/// use scfi_fsm::parse_fsm;
///
/// let fsm = parse_fsm("fsm m { inputs a; state P { if a -> Q; } state Q { goto P; } }")?;
/// let h = harden(&fsm, &ScfiConfig::new(2))?;
/// let flips = enumerate_faults(h.module(), &CampaignConfig::new());
/// let with_regs = enumerate_faults(h.module(), &CampaignConfig::new().with_register_flips());
/// assert_eq!(with_regs.len(), flips.len() + h.module().registers().len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn enumerate_faults(module: &Module, config: &CampaignConfig) -> Vec<Fault> {
    let mut faults = Vec::new();
    for (i, cell) in module.cells().iter().enumerate() {
        if matches!(cell.kind, CellKind::Input | CellKind::Const(_)) {
            continue;
        }
        if let Some(region) = &config.region {
            if !region.contains(&(i as u32)) {
                continue;
            }
        }
        let id = CellId(i as u32);
        for &effect in &config.effects {
            faults.push(Fault {
                site: FaultSite::CellOutput(id),
                effect,
            });
            if config.include_pin_faults {
                for pin in 0..cell.pins.len() {
                    faults.push(Fault {
                        site: FaultSite::Pin(id, pin as u8),
                        effect,
                    });
                }
            }
        }
    }
    if config.include_register_flips {
        for &r in module.registers() {
            if let Some(region) = &config.region {
                if !region.contains(&r.0) {
                    continue;
                }
            }
            faults.push(Fault {
                site: FaultSite::Register(r),
                effect: FaultEffect::Flip,
            });
        }
    }
    faults
}

/// Arms one fault on a scalar simulator: masks for net/pin faults, a
/// direct state mutation for register flips.
///
/// Public because injection semantics must have exactly one definition:
/// the campaign executors arm through this, and the `scfi-symbolic`
/// certifier replays counterexample witnesses through it — if the
/// mapping ever changes, both oracles move together.
pub fn arm(sim: &mut Simulator<'_>, fault: Fault) {
    match (fault.site, fault.effect) {
        (FaultSite::CellOutput(c), FaultEffect::Flip) => sim.set_net_flip(c.net()),
        (FaultSite::CellOutput(c), FaultEffect::Stuck0) => sim.set_net_stuck(c.net(), false),
        (FaultSite::CellOutput(c), FaultEffect::Stuck1) => sim.set_net_stuck(c.net(), true),
        (FaultSite::Pin(c, p), FaultEffect::Flip) => sim.set_pin_flip(c, p as usize),
        (FaultSite::Pin(c, p), FaultEffect::Stuck0) => sim.set_pin_stuck(c, p as usize, false),
        (FaultSite::Pin(c, p), FaultEffect::Stuck1) => sim.set_pin_stuck(c, p as usize, true),
        (FaultSite::Register(c), _) => sim.flip_register(c),
    }
}

/// Runs one work item — a fault group through an N-cycle scenario — on a
/// scalar simulator and returns the trajectory verdict. This is the scalar
/// reference semantics the packed wave executor must reproduce:
///
/// * registers preloaded, then cycles stepped in schedule order;
/// * fault `j`'s effective window is [`Scenario::fault_window`] — the work
///   item's per-fault override when present, the scenario's
///   [`timing`](crate::Scenario::timing) otherwise;
/// * net/pin fault masks are rebuilt whenever any fault's window opens or
///   closes (and at cycle 0), so each mask is live exactly while
///   [`FaultTiming::armed_at`] holds for its own window;
/// * register flips are applied once each, just before their window's
///   [`FaultTiming::flip_cycle`];
/// * per-cycle classifications folded with [`Outcome::fold`].
///
/// Without overrides every fault of the group shares the scenario's
/// window: all masks are armed when it opens and cleared when it closes.
/// The scalar backend calls this once per item, in slot order within
/// each wave the shared scheduler hands its worker.
pub(crate) fn run_item_scalar<T: FaultTarget>(
    target: &T,
    sim: &mut Simulator<'_>,
    index: usize,
    scenario: &crate::target::Scenario,
    faults: &[Fault],
    windows: &[Option<FaultTiming>],
    outputs: &mut Vec<bool>,
) -> Outcome {
    assert!(
        scenario.cycles() >= 1,
        "scenario {index} has no cycles" // same rejection as the wave executor
    );
    debug_assert!(
        std::iter::once(&scenario.timing)
            .chain(windows.iter().flatten())
            .all(|w| w.flip_cycle() < scenario.cycles()),
        "scenario {index}'s fault window lies past its schedule"
    );
    let is_register = |f: &Fault| matches!(f.site, FaultSite::Register(_));
    sim.clear_faults();
    sim.reset_to(&scenario.regs);
    let mut verdict = Outcome::Masked;
    for (cycle, inputs) in scenario.inputs.iter().enumerate() {
        // Register flips are direct state mutations (clear_faults cannot
        // undo them), so each fires exactly once, at its own window start.
        for (j, &f) in faults.iter().enumerate() {
            if is_register(&f) && scenario.fault_window(windows, j).flip_cycle() == cycle {
                arm(sim, f);
            }
        }
        let moved = cycle == 0
            || faults.iter().enumerate().any(|(j, f)| {
                !is_register(f) && {
                    let w = scenario.fault_window(windows, j);
                    w.armed_at(cycle) != w.armed_at(cycle - 1)
                }
            });
        if moved {
            sim.clear_faults();
            for (j, &f) in faults.iter().enumerate() {
                if !is_register(&f) && scenario.fault_window(windows, j).armed_at(cycle) {
                    arm(sim, f);
                }
            }
        }
        sim.step_into(inputs, outputs);
        verdict = verdict.fold(target.classify(index, cycle, sim.register_values(), outputs));
    }
    verdict
}

/// Folds `(item, outcome)` pairs back into the aggregate report,
/// recording the first 64 hijacks (in work-list order) as examples. Full
/// runs fold every slot; a [`PartialReport`](crate::PartialReport) folds
/// its completed ones.
pub(crate) fn aggregate(
    work: &WorkList,
    outcomes: impl IntoIterator<Item = (usize, Outcome)>,
) -> CampaignReport {
    let mut report = CampaignReport::empty();
    for (i, outcome) in outcomes {
        report.injections += 1;
        match outcome {
            Outcome::Masked => report.masked += 1,
            Outcome::Detected => report.detected += 1,
            Outcome::Hijack => {
                report.hijacked += 1;
                if report.hijack_examples.len() < 64 {
                    let (scenario, faults) = work.item(i);
                    report.hijack_examples.push(FaultRecord {
                        scenario,
                        faults: faults.to_vec(),
                    });
                }
            }
        }
    }
    report
}

/// Runs a work list under `control` on the backend selected by
/// [`CampaignConfig::backend`]. The single dispatch point between the
/// campaign entry points and the [`CampaignBackend`] implementations.
pub(crate) fn try_execute_backend<T: FaultTarget>(
    target: &T,
    work: &WorkList,
    config: &CampaignConfig,
    control: &RunControl,
) -> Result<Vec<Outcome>, CampaignError> {
    match config.backend {
        Backend::Scalar => ScalarBackend.try_execute(target, work, config, control),
        Backend::Packed => PackedBackend.try_execute(target, work, config, control),
    }
}

/// Builds the exhaustive scenario-major work list: every scenario × every
/// fault in the list. [`CampaignError::WorkListOverflow`] if the campaign
/// outgrows the packed `u32` slot representation.
pub(crate) fn try_exhaustive_work<T: FaultTarget>(
    target: &T,
    faults: &[Fault],
) -> Result<WorkList, CampaignError> {
    WorkList::try_exhaustive(target.scenario_count(), faults)
}

/// Draws the multi-fault work list: `runs` items of `faults_per_run`
/// simultaneous faults each, from the config's seeded xorshift64* stream
/// (scenario draw first, then the fault draws, then — only with
/// [`CampaignConfig::with_fault_windows`] — one transient window draw per
/// fault, per run). With windows off the stream is bit-identical to the
/// historical one.
fn multi_fault_work<T: FaultTarget>(
    target: &T,
    faults: &[Fault],
    faults_per_run: usize,
    runs: usize,
    seed: u64,
    fault_windows: bool,
) -> Result<WorkList, CampaignError> {
    let mut next = xorshift64star(seed);
    // The draws reduce the full 64-bit stream value modulo the pool size
    // (never through a `usize` cast, which silently truncates to 32 bits
    // on 32-bit hosts and would shift every sampled campaign there). On
    // 64-bit hosts this is bit-identical to the historical stream, keeping
    // seeded conformance aggregates stable; the residual modulo bias is
    // bounded by pool_size / 2^64 per draw — negligible against any
    // realistic fault list.
    let mut draw = move |pool: usize| (next() % pool as u64) as usize;
    let mut work = WorkList::with_capacity(runs);
    let mut armed = Vec::with_capacity(faults_per_run);
    let mut windows = Vec::with_capacity(faults_per_run);
    let mut cycles_memo: Vec<Option<usize>> = vec![None; target.scenario_count()];
    for _ in 0..runs {
        let scenario = draw(target.scenario_count());
        armed.clear();
        for _ in 0..faults_per_run {
            armed.push(faults[draw(faults.len())]);
        }
        if fault_windows {
            let cycles =
                *cycles_memo[scenario].get_or_insert_with(|| target.scenario(scenario).cycles());
            windows.clear();
            for _ in 0..faults_per_run {
                windows.push(FaultTiming::Transient(draw(cycles)));
            }
            work.try_push_scheduled(scenario, &armed, &windows)?;
        } else {
            work.try_push(scenario, &armed)?;
        }
    }
    Ok(work)
}

/// Seeded random multi-fault campaign: `runs` experiments, each injecting
/// `faults_per_run` simultaneous faults into a random scenario — the
/// multi-fault attacker of the threat model (§3, "N−1 faults").
///
/// Runs on the configured [`CampaignBackend`]; the fault draw stream is
/// part of the work-list construction, not the backend, so every backend
/// reports the same results for the same seed. The campaign runs under
/// `control` with the interruption and panic-isolation contract of
/// [`VulnerabilityMap::try_analyze`](crate::VulnerabilityMap::try_analyze):
/// the completed slots of the [`PartialReport`](crate::PartialReport) are
/// byte-identical to the same slots of an uninterrupted run with the same
/// seed.
pub fn try_run_multi_fault<T: FaultTarget>(
    target: &T,
    faults_per_run: usize,
    runs: usize,
    config: &CampaignConfig,
    control: &RunControl,
) -> Result<CampaignReport, CampaignError> {
    let faults = enumerate_faults(target.module(), config);
    if faults.is_empty() || target.scenario_count() == 0 {
        return Ok(CampaignReport::empty());
    }
    let work = multi_fault_work(
        target,
        &faults,
        faults_per_run,
        runs,
        config.seed,
        config.fault_windows,
    )?;
    let outcomes = try_execute_backend(target, &work, config, control)?;
    Ok(aggregate(&work, outcomes.into_iter().enumerate()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{RedundancyTarget, ScfiTarget, UnprotectedTarget};
    use crate::VulnerabilityMap;
    use scfi_core::{harden, redundancy, ScfiConfig};
    use scfi_fsm::{lower_unprotected, parse_fsm, Fsm};

    fn fsm() -> Fsm {
        parse_fsm(
            "fsm m { inputs a, b;
               state S0 { if a -> S1; if b -> S2; }
               state S1 { if b -> S2; }
               state S2 { goto S0; } }",
        )
        .unwrap()
    }

    /// The exhaustive campaign's totals.
    fn exhaustive<T: FaultTarget>(target: &T, config: &CampaignConfig) -> CampaignReport {
        VulnerabilityMap::analyze(target, config).summary()
    }

    /// The exhaustive campaign's slot-ordered outcome vector on the
    /// configured backend.
    fn exhaustive_outcomes<T: FaultTarget>(target: &T, config: &CampaignConfig) -> Vec<Outcome> {
        let faults = enumerate_faults(target.module(), config);
        let work = try_exhaustive_work(target, &faults).unwrap();
        try_execute_backend(target, &work, config, &RunControl::unlimited()).unwrap()
    }

    fn multi_fault<T: FaultTarget>(
        target: &T,
        m: usize,
        runs: usize,
        config: &CampaignConfig,
    ) -> CampaignReport {
        try_run_multi_fault(target, m, runs, config, &RunControl::unlimited()).unwrap()
    }

    #[test]
    fn exhaustive_flip_campaign_on_scfi_has_low_escape_rate() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        let report = exhaustive(&t, &CampaignConfig::new());
        assert!(report.injections > 100);
        assert_eq!(
            report.injections,
            report.masked + report.detected + report.hijacked
        );
        assert!(
            report.hijack_rate() < 0.05,
            "escape rate {:.3} too high: {report}",
            report.hijack_rate()
        );
    }

    #[test]
    fn unprotected_fsm_is_trivially_hijackable() {
        let f = fsm();
        let lowered = lower_unprotected(&f).unwrap();
        let t = UnprotectedTarget::new(&f, &lowered);
        let report = exhaustive(&t, &CampaignConfig::new().with_register_flips());
        assert!(
            report.hijack_rate() > 0.1,
            "unprotected FSM must be easy to hijack: {report}"
        );
    }

    #[test]
    fn scfi_beats_unprotected_by_orders_of_magnitude() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let lowered = lower_unprotected(&f).unwrap();
        let scfi = exhaustive(&ScfiTarget::new(&h), &CampaignConfig::new());
        let unprot = exhaustive(
            &UnprotectedTarget::new(&f, &lowered),
            &CampaignConfig::new(),
        );
        assert!(scfi.hijack_rate() < unprot.hijack_rate() / 2.0);
    }

    #[test]
    fn register_flips_never_hijack_scfi() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        let regs_region = {
            let regs = h.module().registers();
            regs[0].0..regs[regs.len() - 1].0 + 1
        };
        let report = exhaustive(
            &t,
            &CampaignConfig::new()
                .effects(vec![])
                .region(regs_region)
                .with_register_flips(),
        );
        assert!(report.injections > 0);
        assert_eq!(report.hijacked, 0, "{report}");
    }

    #[test]
    fn redundancy_detects_single_register_faults() {
        let f = fsm();
        let r = redundancy(&f, 2).unwrap();
        let t = RedundancyTarget::new(&r);
        let regs = r.module().registers();
        let report = exhaustive(
            &t,
            &CampaignConfig::new()
                .effects(vec![])
                .region(regs[0].0..regs[regs.len() - 1].0 + 1)
                .with_register_flips(),
        );
        assert!(report.injections > 0);
        assert_eq!(report.hijacked, 0, "{report}");
    }

    #[test]
    fn stuck_at_effects_are_injectable() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        let report = exhaustive(
            &t,
            &CampaignConfig::new().effects(vec![FaultEffect::Stuck0, FaultEffect::Stuck1]),
        );
        assert!(report.injections > 200);
        assert!(report.hijack_rate() < 0.05, "{report}");
    }

    #[test]
    fn parallel_campaign_matches_sequential() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        let seq = exhaustive(&t, &CampaignConfig::new().threads(1));
        let par = exhaustive(&t, &CampaignConfig::new().threads(2));
        assert_eq!(seq.injections, par.injections);
        assert_eq!(seq.masked, par.masked);
        assert_eq!(seq.detected, par.detected);
        assert_eq!(seq.hijacked, par.hijacked);
    }

    #[test]
    fn region_restriction_shrinks_fault_list() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        let full = exhaustive(&t, &CampaignConfig::new());
        let diff = exhaustive(
            &t,
            &CampaignConfig::new().region(h.regions().diffusion.clone()),
        );
        assert!(diff.injections < full.injections);
        assert!(diff.injections > 0);
    }

    #[test]
    fn multi_fault_campaign_runs_and_reports() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        let report = multi_fault(&t, 3, 500, &CampaignConfig::new().seed(99));
        assert_eq!(report.injections, 500);
        // Multi-fault attacks may escape occasionally but detection must
        // dominate among effective faults.
        assert!(report.coverage() > 0.8, "{report}");
    }

    #[test]
    fn multi_fault_is_deterministic_per_seed() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        let a = multi_fault(&t, 2, 200, &CampaignConfig::new().seed(5));
        let b = multi_fault(&t, 2, 200, &CampaignConfig::new().seed(5));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "64/128/256")]
    fn lane_words_rejection_names_the_accepted_set() {
        let _ = CampaignConfig::new().lane_words(3);
    }

    /// The public fault enumeration is the space the exhaustive campaign
    /// injects — what the symbolic certifier enumerates is site-for-site
    /// what the campaigns inject: every fault once per scenario, and
    /// exactly the enumerated cells in the map.
    #[test]
    fn enumerate_faults_matches_the_campaign_fault_space() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        for config in [
            CampaignConfig::new(),
            CampaignConfig::new()
                .effects(vec![FaultEffect::Flip, FaultEffect::Stuck0])
                .with_pin_faults()
                .with_register_flips(),
            CampaignConfig::new().region(h.regions().diffusion.clone()),
        ] {
            let faults = enumerate_faults(h.module(), &config);
            let map = VulnerabilityMap::analyze(&t, &config);
            assert_eq!(map.total_injections(), t.scenario_count() * faults.len());
            let mut cells: Vec<u32> = faults
                .iter()
                .map(|f| match f.site {
                    FaultSite::CellOutput(c) | FaultSite::Pin(c, _) | FaultSite::Register(c) => c.0,
                })
                .collect();
            cells.sort_unstable();
            cells.dedup();
            assert_eq!(map.sites().map(|(c, _)| c.0).collect::<Vec<_>>(), cells);
        }
    }

    #[test]
    fn pin_faults_expand_the_fault_list() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let plain = enumerate_faults(h.module(), &CampaignConfig::new());
        let with_pins = enumerate_faults(h.module(), &CampaignConfig::new().with_pin_faults());
        assert!(with_pins.len() > 2 * plain.len());
    }

    #[test]
    fn selector_rails_reduce_selector_escapes() {
        // §7 extension: duplicated selector rails make wrong-match
        // assertion require multiple faults, so the escape rate over the
        // pattern-match + modifier-select logic must not get worse.
        let f = fsm();
        let h1 = harden(&f, &ScfiConfig::new(2)).unwrap();
        let h2 = harden(&f, &ScfiConfig::new(2).selector_rails(2)).unwrap();
        let rate = |h: &scfi_core::HardenedFsm| {
            let r = h.regions();
            exhaustive(
                &ScfiTarget::new(h),
                &CampaignConfig::new()
                    .region(r.pattern_match.start..r.modifier_select.end)
                    .with_pin_faults(),
            )
            .hijack_rate()
        };
        let r1 = rate(&h1);
        let r2 = rate(&h2);
        assert!(
            r2 <= r1,
            "rails=2 rate {r2} must not exceed rails=1 rate {r1}"
        );
    }

    #[test]
    fn adaptive_mds_target_still_protects() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2).adaptive_mds(true)).unwrap();
        assert!(h.mds().width() < 32, "small FSM must get a small matrix");
        let report = exhaustive(&ScfiTarget::new(&h), &CampaignConfig::new());
        // Branch number drops with the smaller matrix; detection must
        // still dominate.
        assert!(report.coverage() > 0.8, "{report}");
    }

    /// Field-wise aggregate comparison (hijack examples included — both
    /// engines record the first 64 hijacks in work-list order).
    fn assert_reports_identical(packed: &CampaignReport, scalar: &CampaignReport, what: &str) {
        assert_eq!(packed, scalar, "{what}: packed and scalar reports differ");
    }

    /// Slot-for-slot comparison of the exhaustive outcome vectors of the
    /// packed engine and the single-threaded scalar reference.
    fn assert_exhaustive_engines_agree<T: FaultTarget>(
        target: &T,
        config: &CampaignConfig,
        what: &str,
    ) {
        let reference = config.clone().backend(Backend::Scalar).threads(1);
        let scalar = exhaustive_outcomes(target, &reference);
        assert!(!scalar.is_empty(), "{what}: empty campaign");
        assert!(
            exhaustive_outcomes(target, config) == scalar,
            "{what}: packed and scalar outcomes differ"
        );
    }

    #[test]
    fn packed_exhaustive_matches_scalar_across_fault_models() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        let configs = [
            CampaignConfig::new(),
            CampaignConfig::new().with_register_flips(),
            CampaignConfig::new().with_pin_faults(),
            CampaignConfig::new()
                .effects(vec![
                    FaultEffect::Flip,
                    FaultEffect::Stuck0,
                    FaultEffect::Stuck1,
                ])
                .with_pin_faults()
                .with_register_flips(),
            CampaignConfig::new().region(h.regions().diffusion.clone()),
        ];
        for (i, config) in configs.iter().enumerate() {
            assert_exhaustive_engines_agree(&t, config, &format!("config {i}"));
        }
    }

    #[test]
    fn packed_exhaustive_matches_scalar_on_baselines() {
        let f = fsm();
        let lowered = lower_unprotected(&f).unwrap();
        let unprot = UnprotectedTarget::new(&f, &lowered);
        let config = CampaignConfig::new()
            .with_register_flips()
            .with_pin_faults();
        assert_exhaustive_engines_agree(&unprot, &config, "unprotected");
        let r = redundancy(&f, 3).unwrap();
        let red = RedundancyTarget::new(&r);
        assert_exhaustive_engines_agree(&red, &config, "redundancy");
    }

    #[test]
    fn packed_multi_fault_matches_scalar_per_seed() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        for seed in [1, 42, 0xFA17] {
            let config = CampaignConfig::new().with_register_flips().seed(seed);
            assert_reports_identical(
                &multi_fault(&t, 3, 300, &config),
                &multi_fault(&t, 3, 300, &config.clone().backend(Backend::Scalar)),
                &format!("seed {seed}"),
            );
        }
    }

    /// Per-fault window draws: every backend agrees per seed, the knob is
    /// deterministic, and on a protocol target the drawn windows actually
    /// spread faults across different cycles of the same walk.
    #[test]
    fn windowed_multi_fault_matches_scalar_per_seed() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::with_protocol(&h, 4, 0xB007);
        for seed in [1, 42] {
            let config = CampaignConfig::new()
                .with_register_flips()
                .with_fault_windows()
                .seed(seed);
            let packed = multi_fault(&t, 3, 300, &config);
            assert_eq!(packed.injections, 300);
            assert_reports_identical(
                &packed,
                &multi_fault(&t, 3, 300, &config.clone().backend(Backend::Scalar)),
                &format!("windowed seed {seed}"),
            );
            assert_eq!(packed, multi_fault(&t, 3, 300, &config));
        }
    }

    /// The drawn per-fault windows are real overrides: the same seeded
    /// campaign with and without them produces different worklists, and
    /// the windowed one still agrees across every backend.
    #[test]
    fn windowed_multi_fault_agrees_across_all_backends() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::with_protocol(&h, 3, 0xD0);
        let config = CampaignConfig::new()
            .with_register_flips()
            .with_fault_windows()
            .seed(7);
        let packed = multi_fault(&t, 2, 200, &config);
        for backend in Backend::ALL {
            assert_reports_identical(
                &packed,
                &multi_fault(&t, 2, 200, &config.clone().backend(backend)),
                backend.name(),
            );
        }
    }

    #[test]
    fn report_display_and_rates() {
        let r = CampaignReport {
            injections: 200,
            masked: 100,
            detected: 99,
            hijacked: 1,
            hijack_examples: vec![],
        };
        assert!((r.hijack_rate() - 0.005).abs() < 1e-12);
        assert!((r.coverage() - 0.99).abs() < 1e-12);
        let s = r.to_string();
        assert!(s.contains("200 injections"));
        assert!(s.contains("escape rate"));
    }

    /// An empty report (zero injections) must print finite rates — the
    /// guarded `hijack_rate`/`coverage` keep 0/0 out of the formatter.
    #[test]
    fn empty_report_displays_without_nan() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        // An empty fault list produces the canonical empty report.
        let report = multi_fault(&t, 1, 100, &CampaignConfig::new().effects(vec![]));
        assert_eq!(report.injections, 0);
        assert_eq!(report.hijack_rate(), 0.0);
        assert_eq!(report.coverage(), 1.0);
        let text = report.to_string();
        assert!(!text.contains("NaN"), "formatter leaked a NaN: {text}");
        assert!(text.contains("0 injections"));
        assert!(text.contains("0.00 % escape rate"));
    }

    /// `faults_per_run = 0` builds work items with empty fault groups;
    /// they must run (fault-free, hence masked) without panicking.
    #[test]
    fn zero_faults_per_run_is_graceful() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        let config = CampaignConfig::new().seed(7);
        let packed = multi_fault(&t, 0, 50, &config);
        assert_eq!(packed.injections, 50);
        assert_eq!(packed.masked, 50);
        assert_eq!(
            packed,
            multi_fault(&t, 0, 50, &config.clone().backend(Backend::Scalar))
        );
    }

    /// Direct regression for the historical `faults[0]` panic: a hijack
    /// outcome on a work item whose fault group is empty must be recorded
    /// gracefully (whole group, here empty), not indexed out of bounds.
    #[test]
    fn aggregate_records_empty_fault_groups_without_panicking() {
        let mut work = WorkList::with_capacity(2);
        work.push(3, &[]);
        work.push(
            1,
            &[
                Fault {
                    site: FaultSite::Register(CellId(0)),
                    effect: FaultEffect::Flip,
                },
                Fault {
                    site: FaultSite::CellOutput(CellId(2)),
                    effect: FaultEffect::Stuck1,
                },
            ],
        );
        let report = aggregate(&work, [(0, Outcome::Hijack), (1, Outcome::Hijack)]);
        assert_eq!(report.hijacked, 2);
        assert_eq!(report.hijack_examples.len(), 2);
        assert_eq!(report.hijack_examples[0].scenario, 3);
        assert!(report.hijack_examples[0].faults.is_empty());
        assert_eq!(report.hijack_examples[1].faults.len(), 2);
    }

    #[test]
    fn trajectory_fold_lets_detection_dominate() {
        use Outcome::*;
        assert_eq!(Masked.fold(Masked), Masked);
        assert_eq!(Masked.fold(Hijack), Hijack);
        assert_eq!(Hijack.fold(Masked), Hijack);
        // The §6.4 argument: a hijacked state that later collapses to
        // ERROR was caught — detection wins regardless of order.
        assert_eq!(Hijack.fold(Detected), Detected);
        assert_eq!(Detected.fold(Hijack), Detected);
        assert_eq!(Detected.fold(Masked), Detected);
    }

    #[test]
    fn protocol_campaign_agrees_across_engines() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        for depth in [2, 4] {
            let t = ScfiTarget::with_protocol(&h, depth, 0xB007);
            let config = CampaignConfig::new().with_register_flips();
            assert_exhaustive_engines_agree(&t, &config, &format!("depth {depth}"));
            // Multi-fault sampling over the protocol space too.
            let pm = multi_fault(&t, 2, 300, &config);
            let sm = multi_fault(&t, 2, 300, &config.clone().backend(Backend::Scalar));
            assert_eq!(pm, sm, "multi-fault depth {depth}");
        }
    }

    #[test]
    fn protocol_register_faults_never_complete_the_walk_undetected() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::with_protocol(&h, 3, 1);
        let regs = h.module().registers();
        let report = exhaustive(
            &t,
            &CampaignConfig::new()
                .effects(vec![])
                .region(regs[0].0..regs[regs.len() - 1].0 + 1)
                .with_register_flips(),
        );
        assert!(report.injections > 0);
        assert_eq!(report.hijacked, 0, "{report}");
        assert_eq!(
            report.masked, 0,
            "register flips are never masked: {report}"
        );
    }
}
