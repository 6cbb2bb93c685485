//! Batched multi-word wave execution of campaigns over the packed
//! simulator.
//!
//! The wave executor is the throughput core behind the packed
//! [campaign backend](crate::PackedBackend): the `(scenario, faults)`
//! [`WorkList`] is chunked into waves of up to `64 · W` injections
//! (`W` = [`CampaignConfig::lane_words`](crate::CampaignConfig::lane_words)
//! lane words), each wave runs as one multi-cycle pass of a
//! [`PackedSimulator`]`<W>` (per-lane register preloads, per-lane
//! per-cycle input words, per-lane fault masks armed while each lane's
//! [`FaultTiming`] window is open), and lanes are classified cycle by
//! cycle with the per-cycle outcomes folded into a trajectory verdict
//! per lane. Simulator scratch — the compiled netlist, value arrays,
//! preload/output words and extraction buffers — is reused across every
//! wave of a worker.
//!
//! # Word-parallel classification
//!
//! When the target provides a [`WaveOracle`] (all three §6.1 targets do),
//! classification happens directly on the packed `[u64; W]` register and
//! output words: codeword decode, alert lines and the invalid/zero
//! detection rules are bitwise logic over whole 64-lane words, so the
//! per-lane `extract_lane` + scalar `classify` cost — previously the
//! dominant serial cost at W = 4 — disappears from the hot path. Targets
//! without an oracle fall back to per-lane extraction, which remains
//! bit-for-bit equivalent.
//!
//! # The wave loop
//!
//! Every cycle of a wave is stepped the same way. The fault masks are
//! cleared, and one pass over the lanes drives each live lane's input
//! words, fires the register flips whose window starts on this cycle and
//! arms the net and pin faults whose window is open. Then one full settle
//! ([`PackedSimulator::step_into`]) runs and the live lanes are
//! classified.
//!
//! A lane is *live* while the cycle lies within its scenario and its
//! folded verdict is not yet `Detected`; [`Outcome::fold`] makes
//! `Detected` terminal, so no later cycle can change it. Dead lanes keep
//! stepping with the wave but are never driven, faulted or classified —
//! a lane past its own scenario length in particular must never be
//! classified. Reports stay byte-identical to the scalar reference; the
//! differential suites assert this at every width.
//!
//! Waves are sharded across threads in contiguous blocks. The outcome of
//! item `i` is written to slot `i` regardless of which thread, wave or
//! lane computed it, so results are deterministic: independent of the
//! thread count, the lane-word width, the wave boundaries and the lane
//! order.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use scfi_netlist::{extract_lane, lane_mask, PackedNetlist, PackedSimulator, LANES};
use scfi_telemetry::Telemetry;

use crate::campaign::{Fault, FaultEffect, FaultSite, Outcome};
use crate::control::{
    panic_message, CampaignError, LaneWidth, PartialReport, RunControl, StopReason,
};
use crate::target::{FaultTarget, FaultTiming, Scenario};

/// A flat `(scenario, faults)` work list: item `i` injects the fault group
/// `faults(i)` into scenario `scenario(i)`. Single-fault campaigns store
/// one fault per item; multi-fault campaigns store one group per run.
///
/// This is the unit of work a [`CampaignBackend`](crate::CampaignBackend)
/// executes: backends return one [`Outcome`] per item, in item order.
/// The exhaustive campaign builds a scenario-major list (all faults of
/// scenario 0, then scenario 1, …), which the wave executor exploits and
/// the vulnerability map's fold relies on; the executor's correctness
/// does not depend on the ordering.
#[derive(Clone, Debug)]
pub struct WorkList {
    scenarios: Vec<u32>,
    /// Prefix offsets into `faults`, one extra entry at the end.
    offsets: Vec<u32>,
    faults: Vec<Fault>,
    /// Per-fault arming-window overrides, parallel to `faults`: `None`
    /// falls through to the scenario's
    /// [`FaultSchedule`](crate::FaultSchedule). Plain pushes fill `None`,
    /// so single-window campaigns carry no per-item timing state.
    windows: Vec<Option<FaultTiming>>,
}

impl WorkList {
    /// An empty work list with room for `items` entries.
    pub fn with_capacity(items: usize) -> Self {
        let mut w = WorkList {
            scenarios: Vec::with_capacity(items),
            offsets: Vec::with_capacity(items + 1),
            faults: Vec::with_capacity(items),
            windows: Vec::with_capacity(items),
        };
        w.offsets.push(0);
        w
    }

    /// Appends one item injecting `faults` simultaneously into `scenario`.
    ///
    /// # Panics
    ///
    /// Panics with the [`CampaignError::WorkListOverflow`] description if
    /// the scenario index or the accumulated fault count exceeds the
    /// packed `u32` representation; use [`try_push`](Self::try_push) to
    /// handle oversized campaigns as a recoverable error.
    pub fn push(&mut self, scenario: usize, faults: &[Fault]) {
        self.try_push(scenario, faults)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Appends one item injecting `faults` simultaneously into `scenario`,
    /// or reports [`CampaignError::WorkListOverflow`] if the scenario
    /// index or the accumulated fault count exceeds the packed `u32`
    /// representation (about 4.29 billion entries) — a campaign that
    /// large must be split into sub-campaigns rather than silently wrap
    /// and attribute outcomes to the wrong scenarios.
    pub fn try_push(&mut self, scenario: usize, faults: &[Fault]) -> Result<(), CampaignError> {
        const LIMIT: usize = u32::MAX as usize;
        let Ok(scenario) = u32::try_from(scenario) else {
            return Err(CampaignError::WorkListOverflow {
                items: scenario,
                limit: LIMIT,
            });
        };
        let end = self.faults.len() + faults.len();
        let Ok(end) = u32::try_from(end) else {
            return Err(CampaignError::WorkListOverflow {
                items: end,
                limit: LIMIT,
            });
        };
        self.scenarios.push(scenario);
        self.faults.extend_from_slice(faults);
        self.windows.resize(self.faults.len(), None);
        self.offsets.push(end);
        Ok(())
    }

    /// Appends one item whose fault `j` overrides its arming window with
    /// `windows[j]` — how sampled multi-fault campaigns give each drawn
    /// glitch an independent timing without materializing a scenario per
    /// draw.
    ///
    /// # Panics
    ///
    /// Panics if `windows.len() != faults.len()`, or with the
    /// [`CampaignError::WorkListOverflow`] description on overflow.
    pub fn push_scheduled(&mut self, scenario: usize, faults: &[Fault], windows: &[FaultTiming]) {
        self.try_push_scheduled(scenario, faults, windows)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`push_scheduled`](Self::push_scheduled) as a fallible push,
    /// reporting [`CampaignError::WorkListOverflow`] like
    /// [`try_push`](Self::try_push).
    ///
    /// # Panics
    ///
    /// Panics if `windows.len() != faults.len()`.
    pub fn try_push_scheduled(
        &mut self,
        scenario: usize,
        faults: &[Fault],
        windows: &[FaultTiming],
    ) -> Result<(), CampaignError> {
        assert_eq!(
            windows.len(),
            faults.len(),
            "one arming window per fault of the group"
        );
        self.try_push(scenario, faults)?;
        let lo = self.faults.len() - faults.len();
        for (slot, &w) in self.windows[lo..].iter_mut().zip(windows) {
            *slot = Some(w);
        }
        Ok(())
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the list holds no items.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The `(scenario, faults)` of item `i`.
    pub fn item(&self, i: usize) -> (usize, &[Fault]) {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        (self.scenarios[i] as usize, &self.faults[lo..hi])
    }

    /// Item `i`'s per-fault window overrides, parallel to its fault group
    /// (`None` entries defer to the scenario's schedule). Resolve fault
    /// `j`'s effective window with
    /// [`Scenario::fault_window`](crate::Scenario::fault_window).
    pub fn windows(&self, i: usize) -> &[Option<FaultTiming>] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.windows[lo..hi]
    }
}

/// Execution counters from a wave run. Not part of the report contract;
/// they are flushed to telemetry once per run, and the work pins
/// (`tests/work_pins.rs`) assert them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct WaveStats {
    /// Waves admitted and executed.
    waves: u64,
    /// Injections (lanes) carried by the executed waves.
    injections: u64,
    /// Wave clock edges stepped.
    stepped: u64,
    /// Stepped cycles classified word-parallel through the target's
    /// [`WaveOracle`](crate::WaveOracle).
    oracle_fastpath_cycles: u64,
    /// Stepped cycles classified through the per-lane `extract_lane`
    /// fallback (targets without an oracle).
    oracle_fallback_cycles: u64,
}

impl WaveStats {
    /// Accumulates another worker's counters.
    fn merge(&mut self, other: &WaveStats) {
        self.waves += other.waves;
        self.injections += other.injections;
        self.stepped += other.stepped;
        self.oracle_fastpath_cycles += other.oracle_fastpath_cycles;
        self.oracle_fallback_cycles += other.oracle_fallback_cycles;
    }

    /// Flushes the counters into their telemetry series (one relaxed
    /// `fetch_add` per series; a no-op on a disabled handle). Called once
    /// per run, off the wave hot path.
    fn flush(&self, telemetry: &Telemetry) {
        if !telemetry.enabled() {
            return;
        }
        telemetry
            .counter("scfi_campaign_waves_total")
            .add(self.waves);
        telemetry
            .counter("scfi_campaign_injections_total")
            .add(self.injections);
        telemetry
            .counter("scfi_campaign_cycles_stepped_total")
            .add(self.stepped);
        telemetry
            .counter("scfi_campaign_oracle_fastpath_cycles_total")
            .add(self.oracle_fastpath_cycles);
        telemetry
            .counter("scfi_campaign_oracle_fallback_cycles_total")
            .add(self.oracle_fallback_cycles);
    }
}

/// Arms one fault in the selected lanes of a packed simulator. Mirrors the
/// scalar [`arm`](crate::campaign::arm) mapping exactly.
fn arm_lanes<const W: usize>(sim: &mut PackedSimulator<'_, W>, fault: Fault, lanes: [u64; W]) {
    match (fault.site, fault.effect) {
        (FaultSite::CellOutput(c), FaultEffect::Flip) => sim.set_net_flip(c.net(), lanes),
        (FaultSite::CellOutput(c), FaultEffect::Stuck0) => sim.set_net_stuck(c.net(), false, lanes),
        (FaultSite::CellOutput(c), FaultEffect::Stuck1) => sim.set_net_stuck(c.net(), true, lanes),
        (FaultSite::Pin(c, p), FaultEffect::Flip) => sim.set_pin_flip(c, p as usize, lanes),
        (FaultSite::Pin(c, p), FaultEffect::Stuck0) => {
            sim.set_pin_stuck(c, p as usize, false, lanes)
        }
        (FaultSite::Pin(c, p), FaultEffect::Stuck1) => {
            sim.set_pin_stuck(c, p as usize, true, lanes)
        }
        (FaultSite::Register(c), _) => sim.flip_register(c, lanes),
    }
}

/// Everything one controlled run produced: slot-ordered outcomes
/// (`None` for items whose wave never ran or panicked), the first stop
/// reason, and any caught wave panics.
pub(crate) struct RunOutput {
    pub outcomes: Vec<Option<Outcome>>,
    pub stopped: Option<StopReason>,
    pub panics: Vec<(Range<usize>, String)>,
}

/// Folds a [`RunOutput`] into the backend result contract: a complete
/// slot-ordered outcome vector, or the typed [`CampaignError`] carrying
/// the completed portion. A caught wave panic outranks an interruption
/// (its data loss is unrecoverable; an interrupted run can be resumed).
pub(crate) fn finish_run(work: &WorkList, run: RunOutput) -> Result<Vec<Outcome>, CampaignError> {
    let RunOutput {
        outcomes,
        stopped,
        mut panics,
    } = run;
    if !panics.is_empty() {
        let (item_range, message) = panics.remove(0);
        return Err(CampaignError::WorkerPanic {
            item_range,
            message,
            partial: Box::new(PartialReport::from_outcomes(work, outcomes)),
        });
    }
    if let Some(reason) = stopped {
        return Err(CampaignError::Interrupted {
            reason,
            partial: Box::new(PartialReport::from_outcomes(work, outcomes)),
        });
    }
    Ok(outcomes
        .into_iter()
        .map(|o| o.expect("an uninterrupted run fills every slot"))
        .collect())
}

/// Executes the work list on the packed engine and returns one outcome per
/// item, in item order. `threads` worker threads share the compiled
/// netlist; each owns its simulator and scratch. `lane_words` selects the
/// wave width (`W` ∈ {1, 2, 4}); the outcome vector is identical for
/// every width.
///
/// # Panics
///
/// Panics if `lane_words` is not 1, 2 or 4, or if a wave panics.
#[cfg(test)]
pub(crate) fn execute<T: FaultTarget>(
    target: &T,
    work: &WorkList,
    threads: usize,
    lane_words: usize,
) -> Vec<Outcome> {
    let width = LaneWidth::new(lane_words).unwrap_or_else(|e| panic!("{e}"));
    try_execute(
        target,
        work,
        threads,
        width,
        None,
        &RunControl::unlimited(),
        &Telemetry::off(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// The controlled entry point behind the packed backend: runs
/// under `control`, admitting one wave at a time, and returns either the
/// complete slot-ordered outcome vector or the typed error carrying the
/// completed portion. `precompiled`, when supplied (e.g. from a compile
/// cache via [`CampaignConfig::precompiled`](crate::CampaignConfig::precompiled)),
/// must be the compilation of `target.module()` and replaces the
/// per-run [`PackedNetlist::compile`].
pub(crate) fn try_execute<T: FaultTarget>(
    target: &T,
    work: &WorkList,
    threads: usize,
    width: LaneWidth,
    precompiled: Option<&PackedNetlist>,
    control: &RunControl,
    telemetry: &Telemetry,
) -> Result<Vec<Outcome>, CampaignError> {
    let run = match width.words() {
        1 => execute_waves::<T, 1>(target, work, threads, precompiled, control, telemetry),
        2 => execute_waves::<T, 2>(target, work, threads, precompiled, control, telemetry),
        4 => execute_waves::<T, 4>(target, work, threads, precompiled, control, telemetry),
        _ => unreachable!("LaneWidth admits only 1, 2 or 4 words"),
    };
    finish_run(work, run)
}

/// Per-worker result of [`run_waves`]: counters, the first refused
/// admission, and the item ranges of any caught wave panics.
struct WorkerRun {
    stats: WaveStats,
    stopped: Option<StopReason>,
    panics: Vec<(Range<usize>, String)>,
}

/// Monomorphized executor body for one wave width.
fn execute_waves<T: FaultTarget, const W: usize>(
    target: &T,
    work: &WorkList,
    threads: usize,
    precompiled: Option<&PackedNetlist>,
    control: &RunControl,
    telemetry: &Telemetry,
) -> RunOutput {
    let n = work.len();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; n];
    if n == 0 {
        return RunOutput {
            outcomes,
            stopped: None,
            panics: Vec::new(),
        };
    }
    // A cached compile (validated against the module shape by the
    // backend) replaces the per-run compilation; `PackedNetlist` is
    // immutable, so sharing it across concurrent campaigns is sound.
    let owned;
    let compiled = match precompiled {
        Some(net) => net,
        None => {
            owned = PackedNetlist::compile(target.module());
            &owned
        }
    };
    let wave_lanes = LANES * W;
    let waves = n.div_ceil(wave_lanes);
    let threads = threads.max(1).min(waves);
    let workers: Vec<WorkerRun> = if threads <= 1 {
        vec![run_waves::<T, W>(
            target,
            compiled,
            work,
            0,
            &mut outcomes,
            control,
        )]
    } else {
        // Contiguous blocks of whole waves per worker; each worker writes
        // its own disjoint outcome slice. Workers catch their own wave
        // panics, so joins only fail on setup panics (propagated).
        let per = waves.div_ceil(threads) * wave_lanes;
        std::thread::scope(|scope| {
            let handles: Vec<_> = outcomes
                .chunks_mut(per)
                .enumerate()
                .map(|(t, chunk)| {
                    scope.spawn(move || {
                        run_waves::<T, W>(target, compiled, work, t * per, chunk, control)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("wave workers catch their own panics"))
                .collect()
        })
    };
    let mut stats = WaveStats::default();
    let mut stopped = None;
    let mut panics = Vec::new();
    for w in workers {
        stats.merge(&w.stats);
        if stopped.is_none() {
            stopped = w.stopped;
        }
        panics.extend(w.panics);
    }
    stats.flush(telemetry);
    RunOutput {
        outcomes,
        stopped,
        panics,
    }
}

/// Per-wave cached scenario: the materialized schedule and the per-cycle
/// expected landing states (word-parallel classification).
struct SlotCache {
    index: usize,
    sc: Scenario,
    /// `expected[c]` = the oracle codebook index of the fault-free landing
    /// state after cycle `c`; empty when the target has no oracle.
    expected: Vec<usize>,
}

/// Runs the items `base..base + out.len()` of the work list, one wave of
/// up to `64 · W` injections at a time, writing trajectory verdicts into
/// `out` (`Some` for every completed wave).
///
/// Each wave steps `max(lane cycles)` clock edges. Fault semantics are
/// exactly the scalar reference of
/// [`run_item_scalar`](crate::campaign::run_item_scalar): every cycle
/// clears the masks and re-arms the net/pin faults whose
/// [`FaultTiming`] window is open in a live lane, and register flips are
/// applied once at the window's first cycle. A lane is live while the
/// cycle is within its scenario and its folded verdict is not yet
/// terminal ([`Outcome::Detected`] absorbs every later fold); dead lanes
/// keep stepping with the wave but are neither driven, faulted nor
/// classified.
///
/// # Execution control
///
/// `control` is consulted exactly once per wave, before the wave starts;
/// a refused admission leaves the remaining slots `None` and records the
/// stop reason. Each wave body runs under [`catch_unwind`]: a panic
/// (poisoned scenario, broken target) fails only that wave's item range
/// — its slots stay `None`, the simulator scratch is wiped, and the next
/// wave rebuilds cleanly (every wave reloads registers, re-fills its
/// verdict buffer and re-arms masks from scratch by construction).
fn run_waves<T: FaultTarget, const W: usize>(
    target: &T,
    compiled: &PackedNetlist,
    work: &WorkList,
    base: usize,
    out: &mut [Option<Outcome>],
    control: &RunControl,
) -> WorkerRun {
    let wave_lanes = LANES * W;
    let oracle = target.wave_oracle();
    let mut sim = PackedSimulator::<W>::new(compiled);
    let mut reg_words = vec![[0u64; W]; compiled.register_count()];
    let mut input_words = vec![[0u64; W]; compiled.input_count()];
    let mut out_words: Vec<[u64; W]> = Vec::with_capacity(compiled.output_count());
    let mut reg_bits: Vec<bool> = Vec::with_capacity(compiled.register_count());
    let mut out_bits: Vec<bool> = Vec::with_capacity(compiled.output_count());
    // Work lists are scenario-major, so a wave references very few distinct
    // scenarios; they are materialized once per wave, with the last one
    // carried over so a scenario spanning a wave boundary is not rebuilt.
    let mut scens: Vec<SlotCache> = Vec::new();
    let mut lane_scen = vec![0usize; wave_lanes];
    let mut verdicts = vec![Outcome::Masked; wave_lanes];
    // Per-slot masks of this cycle's live lanes, rebuilt every cycle.
    let mut slot_live: Vec<[u64; W]> = Vec::new();
    let mut stats = WaveStats::default();
    let mut stopped = None;
    let mut panics: Vec<(Range<usize>, String)> = Vec::new();

    let mut done = 0usize;
    while done < out.len() {
        let lanes = wave_lanes.min(out.len() - done);
        // The only control check of the engine: once per wave, off the
        // per-gate and per-cycle hot paths.
        if let Err(reason) = control.admit(lanes) {
            stopped = Some(reason);
            break;
        }
        stats.waves += 1;
        stats.injections += lanes as u64;
        let wave = catch_unwind(AssertUnwindSafe(|| {
            reg_words.fill([0; W]);
            let mut wave_cycles = 0usize;
            for (lane, slot_out) in lane_scen.iter_mut().enumerate().take(lanes) {
                let (scenario, _) = work.item(base + done + lane);
                // Scenario-major ordering means consecutive lanes almost
                // always share the wave's most recent scenario: check the last
                // slot first and fall back to the (short) linear scan only on
                // a miss, so resolution stays O(1) amortized even on
                // scenario-dense protocol campaigns.
                let slot = if scens.last().is_some_and(|s| s.index == scenario) {
                    scens.len() - 1
                } else if let Some(i) = scens.iter().position(|s| s.index == scenario) {
                    i
                } else {
                    let sc = target.scenario(scenario);
                    assert!(sc.cycles() >= 1, "scenario {scenario} has no cycles");
                    assert_eq!(
                        sc.regs.len(),
                        reg_words.len(),
                        "scenario register preload width mismatch"
                    );
                    for inputs in &sc.inputs {
                        assert_eq!(
                            inputs.len(),
                            input_words.len(),
                            "scenario input width mismatch"
                        );
                    }
                    let expected = if oracle.is_some() {
                        (0..sc.cycles())
                            .map(|c| target.expected_state(scenario, c))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    scens.push(SlotCache {
                        index: scenario,
                        sc,
                        expected,
                    });
                    scens.len() - 1
                };
                *slot_out = slot;
                let sc = &scens[slot].sc;
                wave_cycles = wave_cycles.max(sc.cycles());
                let bit = lane_mask::<W>(lane);
                for (j, &v) in sc.regs.iter().enumerate() {
                    if v {
                        for k in 0..W {
                            reg_words[j][k] |= bit[k];
                        }
                    }
                }
            }
            sim.set_register_words(&reg_words);
            verdicts[..lanes].fill(Outcome::Masked);
            slot_live.clear();
            slot_live.resize(scens.len(), [0u64; W]);
            for cycle in 0..wave_cycles {
                // One pass over the lanes: liveness, input words, register
                // flips at their window's first cycle, and the net/pin
                // masks of every open window. Flips mutate stored state,
                // so the mask clear never undoes them.
                sim.clear_faults();
                input_words.fill([0; W]);
                for m in slot_live.iter_mut() {
                    *m = [0; W];
                }
                let mut live_words = [0u64; W];
                for lane in 0..lanes {
                    let slot = lane_scen[lane];
                    let sc = &scens[slot].sc;
                    if cycle >= sc.cycles() || verdicts[lane] == Outcome::Detected {
                        // Dead lane: past its trajectory, or its verdict is
                        // already terminal — skip driving and faulting it.
                        continue;
                    }
                    let bit = lane_mask::<W>(lane);
                    for k in 0..W {
                        live_words[k] |= bit[k];
                        slot_live[slot][k] |= bit[k];
                    }
                    for (j, &v) in sc.inputs[cycle].iter().enumerate() {
                        if v {
                            for k in 0..W {
                                input_words[j][k] |= bit[k];
                            }
                        }
                    }
                    let (_, faults) = work.item(base + done + lane);
                    let overrides = work.windows(base + done + lane);
                    for (j, &f) in faults.iter().enumerate() {
                        let w = sc.fault_window(overrides, j);
                        let fires = match f.site {
                            FaultSite::Register(_) => w.flip_cycle() == cycle,
                            _ => w.armed_at(cycle),
                        };
                        if fires {
                            arm_lanes(&mut sim, f, bit);
                        }
                    }
                }
                sim.step_into(&input_words, &mut out_words);
                stats.stepped += 1;
                match &oracle {
                    Some(oracle) => {
                        stats.oracle_fastpath_cycles += 1;
                        // Word-parallel classification: decode whole 64-lane
                        // words against the precompiled codebook and alert
                        // masks; only Detected/Hijack lanes are touched
                        // (Masked is the fold identity).
                        let regs = sim.register_words();
                        for w in 0..W {
                            if live_words[w] == 0 {
                                continue;
                            }
                            let det_base = oracle.detected_word(w, regs, &out_words);
                            for (slot, masks) in scens.iter().zip(&slot_live) {
                                let group = masks[w];
                                if group == 0 {
                                    continue;
                                }
                                let (det, hij) = oracle.classify_word(
                                    det_base,
                                    slot.expected[cycle],
                                    w,
                                    group,
                                    regs,
                                );
                                let mut bits = det;
                                while bits != 0 {
                                    let lane = w * LANES + bits.trailing_zeros() as usize;
                                    verdicts[lane] = Outcome::Detected;
                                    bits &= bits - 1;
                                }
                                // Live lanes are never Detected, so the fold
                                // of Hijack is Hijack.
                                let mut bits = hij;
                                while bits != 0 {
                                    let lane = w * LANES + bits.trailing_zeros() as usize;
                                    verdicts[lane] = Outcome::Hijack;
                                    bits &= bits - 1;
                                }
                            }
                        }
                    }
                    None => {
                        stats.oracle_fallback_cycles += 1;
                        for lane in 0..lanes {
                            let slot = lane_scen[lane];
                            let sc = &scens[slot].sc;
                            if cycle >= sc.cycles() || verdicts[lane] == Outcome::Detected {
                                continue;
                            }
                            extract_lane(sim.register_words(), lane, &mut reg_bits);
                            extract_lane(&out_words, lane, &mut out_bits);
                            verdicts[lane] = verdicts[lane].fold(target.classify(
                                scens[slot].index,
                                cycle,
                                &reg_bits,
                                &out_bits,
                            ));
                        }
                    }
                }
            }
        }));
        match wave {
            Ok(()) => {
                for (slot, &v) in out[done..done + lanes]
                    .iter_mut()
                    .zip(verdicts[..lanes].iter())
                {
                    *slot = Some(v);
                }
                // Keep only the most recent scenario for the next wave.
                if scens.len() > 1 {
                    let last = scens.pop().expect("nonempty");
                    scens.clear();
                    scens.push(last);
                }
            }
            Err(payload) => {
                // Isolate the poisoned wave: record its item range (slots
                // stay `None`), wipe the scratch it may have half-armed
                // (fault masks, scenario caches) and continue — the next
                // wave reloads registers, verdicts and masks from scratch
                // by construction, so it is unaffected.
                panics.push((base + done..base + done + lanes, panic_message(payload)));
                sim.clear_faults();
                scens.clear();
            }
        }
        done += lanes;
    }
    WorkerRun {
        stats,
        stopped,
        panics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{enumerate_faults, try_exhaustive_work, CampaignConfig};
    use crate::target::ScfiTarget;
    use scfi_core::{harden, ScfiConfig};
    use scfi_fsm::parse_fsm;

    fn target_fsm() -> scfi_fsm::Fsm {
        parse_fsm(
            "fsm m { inputs a, b;
               state S0 { if a -> S1; if b -> S2; }
               state S1 { if b -> S2; }
               state S2 { goto S0; } }",
        )
        .unwrap()
    }

    #[test]
    fn work_list_round_trips_items() {
        let f = Fault {
            site: FaultSite::Register(scfi_netlist::CellId(3)),
            effect: FaultEffect::Flip,
        };
        let g = Fault {
            site: FaultSite::Pin(scfi_netlist::CellId(1), 2),
            effect: FaultEffect::Stuck1,
        };
        let mut w = WorkList::with_capacity(3);
        assert!(w.is_empty());
        w.push(4, &[f]);
        w.push(9, &[f, g]);
        w.push(0, &[]);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
        assert_eq!(w.item(0), (4, &[f][..]));
        assert_eq!(w.item(1), (9, &[f, g][..]));
        assert_eq!(w.item(2), (0, &[][..]));
        // Plain pushes carry no per-fault window overrides…
        assert!(w.windows(1).iter().all(Option::is_none));
        // …while scheduled pushes override each fault of their group.
        w.push_scheduled(
            5,
            &[f, g],
            &[FaultTiming::Transient(1), FaultTiming::Permanent],
        );
        assert_eq!(w.item(3), (5, &[f, g][..]));
        assert_eq!(
            w.windows(3),
            &[
                Some(FaultTiming::Transient(1)),
                Some(FaultTiming::Permanent)
            ]
        );
        assert!(w.windows(0).iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "one arming window per fault")]
    fn scheduled_pushes_require_one_window_per_fault() {
        let f = Fault {
            site: FaultSite::Register(scfi_netlist::CellId(0)),
            effect: FaultEffect::Flip,
        };
        let mut w = WorkList::with_capacity(1);
        w.push_scheduled(0, &[f, f], &[FaultTiming::Permanent]);
    }

    #[test]
    fn outcomes_are_independent_of_thread_count_and_width() {
        let f = target_fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        let faults = enumerate_faults(t.module(), &CampaignConfig::new().with_register_flips());
        let work = try_exhaustive_work(&t, &faults).unwrap();
        let one = execute(&t, &work, 1, 1);
        assert_eq!(one.len(), work.len());
        for threads in [1, 4] {
            for lane_words in [1, 2, 4] {
                let got = execute(&t, &work, threads, lane_words);
                assert_eq!(one, got, "threads {threads}, lane_words {lane_words}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane_words must be 1, 2 or 4")]
    fn unsupported_widths_are_rejected() {
        let f = target_fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        let work = WorkList::with_capacity(0);
        let _ = execute(&t, &work, 1, 3);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversized_scenario_index_is_a_typed_overflow() {
        let mut w = WorkList::with_capacity(1);
        let err = w
            .try_push(u32::MAX as usize + 1, &[])
            .expect_err("overflow");
        assert!(matches!(err, CampaignError::WorkListOverflow { .. }));
        assert!(err.to_string().contains("split the campaign"));
        assert!(w.is_empty(), "failed push must not mutate the list");
    }

    /// Lanes of *different* trajectory lengths inside the same wave: mix
    /// 1-cycle, 2-cycle and 4-cycle scenarios in one interleaved work list
    /// and check the wave verdicts item-for-item against independent
    /// scalar runs, at every wave width. Short lanes must neither be
    /// classified nor faulted past their own length while longer lanes
    /// keep stepping.
    #[test]
    fn mixed_length_lanes_in_one_wave_match_scalar() {
        use crate::campaign::run_item_scalar;
        use crate::target::{FaultTiming, ProtocolScenario};

        let f = target_fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let cfg = h.cfg();
        let mut scenarios = Vec::new();
        for len in [1usize, 2, 4] {
            let mut edges = vec![0];
            while edges.len() < len {
                let at = cfg.edges()[*edges.last().unwrap()].to;
                edges.push(cfg.out_edge_indices(at)[0]);
            }
            for window in 0..len {
                scenarios.push(ProtocolScenario::uniform(
                    edges.clone(),
                    FaultTiming::Transient(window),
                ));
            }
        }
        let t = ScfiTarget::with_scenarios(&h, scenarios);
        let faults = enumerate_faults(t.module(), &CampaignConfig::new().with_register_flips());
        // Interleave scenarios (fault-major) so one wave holds every
        // trajectory length — the opposite of the scenario-major layout.
        let mut work = WorkList::with_capacity(faults.len() * t.scenario_count());
        for fault in &faults {
            for s in 0..t.scenario_count() {
                work.push(s, std::slice::from_ref(fault));
            }
        }
        let mut sim = scfi_netlist::Simulator::new(t.module());
        let mut outputs = Vec::new();
        let scalar: Vec<Outcome> = (0..work.len())
            .map(|i| {
                let (s, group) = work.item(i);
                let sc = t.scenario(s);
                run_item_scalar(&t, &mut sim, s, &sc, group, work.windows(i), &mut outputs)
            })
            .collect();
        for lane_words in [1, 2, 4] {
            let packed = execute(&t, &work, 1, lane_words);
            assert_eq!(packed, scalar, "lane_words {lane_words}");
        }
    }

    /// Builds a work list of register-flip faults over depth-4 walks whose
    /// fault window is chosen per item by `window`.
    fn walk_work(
        h: &scfi_core::HardenedFsm,
        window: impl Fn(usize) -> usize,
        items_per_walk: usize,
    ) -> (Vec<crate::target::ProtocolScenario>, Vec<Fault>) {
        use crate::target::{FaultTiming, ProtocolScenario};
        let cfg = h.cfg();
        let walks = cfg.random_walks(4, 0xC1C1E);
        let mut scenarios = Vec::new();
        for walk in &walks {
            for _ in 0..items_per_walk {
                scenarios.push(ProtocolScenario::uniform(
                    walk.clone(),
                    FaultTiming::Transient(window(scenarios.len()) % 4),
                ));
            }
        }
        let faults: Vec<Fault> = h
            .module()
            .registers()
            .iter()
            .map(|&r| Fault {
                site: FaultSite::Register(r),
                effect: FaultEffect::Flip,
            })
            .collect();
        (scenarios, faults)
    }

    /// All lanes of every wave fold to `Detected` on their very first
    /// classified cycle (SCFI detects single register flips immediately:
    /// the corrupted codeword is invalid, so the next state is ERROR).
    /// The wave keeps stepping its dead lanes through the rest of each
    /// depth-4 walk, and the verdicts stay identical to the scalar
    /// reference.
    #[test]
    fn waves_detecting_on_cycle_zero_match_scalar() {
        use crate::campaign::run_item_scalar;

        let f = target_fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let (scenarios, faults) = walk_work(&h, |_| 0, 1);
        let t = ScfiTarget::with_scenarios(&h, scenarios);
        let mut work = WorkList::with_capacity(t.scenario_count() * faults.len());
        for s in 0..t.scenario_count() {
            for fault in &faults {
                work.push(s, std::slice::from_ref(fault));
            }
        }
        let mut sim = scfi_netlist::Simulator::new(t.module());
        let mut outputs = Vec::new();
        for lane_words in [1usize, 2, 4] {
            let outcomes = execute(&t, &work, 1, lane_words);
            for (i, &verdict) in outcomes.iter().enumerate() {
                let (s, group) = work.item(i);
                let sc = t.scenario(s);
                assert_eq!(verdict, Outcome::Detected, "item {i}");
                assert_eq!(
                    verdict,
                    run_item_scalar(&t, &mut sim, s, &sc, group, work.windows(i), &mut outputs),
                    "item {i}"
                );
            }
        }
    }

    /// A W = 4 wave whose four *words* carry four different transient
    /// windows: item `i` glitches cycle `(i / 64) % 4` of the same depth-4
    /// walk, so lanes in word 0 arm at cycle 0 while lanes in word 3 arm
    /// at cycle 3. The per-word fault re-arm schedule must keep them
    /// independent and match the scalar reference item for item.
    #[test]
    fn w4_wave_with_independent_windows_per_word_matches_scalar() {
        use crate::campaign::run_item_scalar;

        let f = target_fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let n_regs = h.module().registers().len();
        // 64 / n_regs scenarios per window step give each word one window.
        let (scenarios, faults) = walk_work(&h, |i| i / (64 / n_regs).max(1), 64 / n_regs);
        let t = ScfiTarget::with_scenarios(&h, scenarios);
        let mut work = WorkList::with_capacity(t.scenario_count() * faults.len());
        for s in 0..t.scenario_count() {
            for fault in &faults {
                work.push(s, std::slice::from_ref(fault));
            }
        }
        let outcomes = execute(&t, &work, 1, 4);
        let mut sim = scfi_netlist::Simulator::new(t.module());
        let mut outputs = Vec::new();
        for (i, &verdict) in outcomes.iter().enumerate() {
            let (s, group) = work.item(i);
            let sc = t.scenario(s);
            assert_eq!(
                verdict,
                run_item_scalar(&t, &mut sim, s, &sc, group, work.windows(i), &mut outputs),
                "item {i}"
            );
        }
    }

    /// Multi-cycle campaigns on a target with no detection mechanism, so
    /// no lane dies early: all-`Permanent` windows armed on every cycle,
    /// and `Transient` windows in the middle of the walk that open and
    /// close. Both match the scalar reference item for item.
    #[test]
    fn permanent_and_transient_windows_match_scalar_without_detection() {
        use crate::campaign::run_item_scalar;
        use crate::target::{FaultTiming, ProtocolScenario, UnprotectedTarget};
        use scfi_fsm::lower_unprotected;

        let f = target_fsm();
        let lowered = lower_unprotected(&f).unwrap();
        let probe = UnprotectedTarget::new(&f, &lowered);
        let depth = 4;
        let walks = probe
            .fsm()
            .cfg()
            .random_walks_where(depth, 7, |ei| probe.scenario_edge_is_drivable(ei));
        let build = |timing: &dyn Fn(usize) -> FaultTiming| {
            let scenarios: Vec<ProtocolScenario> = walks
                .iter()
                .enumerate()
                .map(|(i, w)| ProtocolScenario::uniform(w.clone(), timing(i)))
                .collect();
            UnprotectedTarget::with_scenarios(&f, &lowered, scenarios)
        };
        for t in [
            build(&|_| FaultTiming::Permanent),
            build(&|i| FaultTiming::Transient(1 + i % (depth - 1))),
        ] {
            let faults = enumerate_faults(t.module(), &CampaignConfig::new());
            let work = try_exhaustive_work(&t, &faults).unwrap();
            let outcomes = execute(&t, &work, 1, 2);
            let mut sim = scfi_netlist::Simulator::new(t.module());
            let mut outputs = Vec::new();
            for (i, &verdict) in outcomes.iter().enumerate() {
                let (s, group) = work.item(i);
                let sc = t.scenario(s);
                assert_eq!(
                    verdict,
                    run_item_scalar(&t, &mut sim, s, &sc, group, work.windows(i), &mut outputs),
                    "item {i}"
                );
            }
        }
    }

    /// Two faults of one group striking different steps of the same walk
    /// ([`FaultSchedule::PerFault`]): the wave executor's per-lane×per-fault
    /// arm/re-arm masks must match the scalar reference item for item, at
    /// every width.
    #[test]
    fn per_fault_schedules_match_scalar_at_every_width() {
        use crate::campaign::run_item_scalar;
        use crate::target::{FaultSchedule, FaultTiming, ProtocolScenario};

        let f = target_fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let scenarios: Vec<ProtocolScenario> = h
            .cfg()
            .random_walks(4, 3)
            .into_iter()
            .enumerate()
            .map(|(i, walk)| {
                ProtocolScenario::new(
                    walk,
                    FaultSchedule::PerFault(vec![
                        FaultTiming::Transient(i % 4),
                        FaultTiming::Transient((i + 2) % 4),
                    ]),
                )
            })
            .collect();
        let t = ScfiTarget::with_scenarios(&h, scenarios);
        let faults = enumerate_faults(t.module(), &CampaignConfig::new().with_register_flips());
        let mut work = WorkList::with_capacity(t.scenario_count() * faults.len() / 2);
        for s in 0..t.scenario_count() {
            for pair in faults.chunks(2) {
                work.push(s, pair);
            }
        }
        let mut sim = scfi_netlist::Simulator::new(t.module());
        let mut outputs = Vec::new();
        let scalar: Vec<Outcome> = (0..work.len())
            .map(|i| {
                let (s, group) = work.item(i);
                let sc = t.scenario(s);
                run_item_scalar(&t, &mut sim, s, &sc, group, work.windows(i), &mut outputs)
            })
            .collect();
        for lane_words in [1, 2, 4] {
            assert_eq!(
                execute(&t, &work, 1, lane_words),
                scalar,
                "lane_words {lane_words}"
            );
        }
    }

    /// Per-item window overrides ([`WorkList::push_scheduled`]) behave as
    /// if the scenario carried those windows: wave verdicts match the
    /// scalar reference.
    #[test]
    fn window_overrides_match_scalar() {
        use crate::campaign::run_item_scalar;
        use crate::target::{FaultTiming, ProtocolScenario};

        let f = target_fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let depth = 4;
        let walk = {
            let cfg = h.cfg();
            let mut edges = vec![0];
            while edges.len() < depth {
                let at = cfg.edges()[*edges.last().unwrap()].to;
                edges.push(cfg.out_edge_indices(at)[0]);
            }
            edges
        };
        // The scenario says "whole walk"; every item narrows each fault to
        // its own drawn window via overrides.
        let t = ScfiTarget::with_scenarios(
            &h,
            vec![ProtocolScenario::uniform(walk, FaultTiming::Permanent)],
        );
        let faults = enumerate_faults(t.module(), &CampaignConfig::new());
        let mut work = WorkList::with_capacity(faults.len());
        for pair in faults.chunks(2) {
            // Every fault glitches cycle 2, so cycles 0–1 run mask-free.
            let windows = vec![FaultTiming::Transient(2); pair.len()];
            work.push_scheduled(0, pair, &windows);
        }
        let mut sim = scfi_netlist::Simulator::new(t.module());
        let mut outputs = Vec::new();
        let scalar: Vec<Outcome> = (0..work.len())
            .map(|i| {
                let (s, group) = work.item(i);
                let sc = t.scenario(s);
                run_item_scalar(&t, &mut sim, s, &sc, group, work.windows(i), &mut outputs)
            })
            .collect();
        for lane_words in [1, 2, 4] {
            assert_eq!(
                execute(&t, &work, 1, lane_words),
                scalar,
                "lane_words {lane_words}"
            );
        }
    }

    /// The word-parallel oracle path and the per-lane extraction fallback
    /// must agree verdict-for-verdict: run the same campaign through the
    /// target directly (oracle) and through a wrapper that hides the
    /// oracle (fallback), at every width.
    #[test]
    fn oracle_and_extraction_fallback_agree() {
        struct NoOracle<'a, T: FaultTarget>(&'a T);
        impl<T: FaultTarget> FaultTarget for NoOracle<'_, T> {
            fn module(&self) -> &scfi_netlist::Module {
                self.0.module()
            }
            fn scenario_count(&self) -> usize {
                self.0.scenario_count()
            }
            fn scenario(&self, index: usize) -> Scenario {
                self.0.scenario(index)
            }
            fn classify(
                &self,
                index: usize,
                cycle: usize,
                regs: &[bool],
                outputs: &[bool],
            ) -> Outcome {
                self.0.classify(index, cycle, regs, outputs)
            }
            // wave_oracle deliberately left at the default None.
        }

        use crate::target::{FaultSchedule, FaultTiming, ProtocolScenario};

        let f = target_fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        // Multi-window waves (per-fault schedules) must keep the oracle
        // path hot too — per-fault arming affects only the fault masks,
        // never the classification path.
        let per_fault: Vec<ProtocolScenario> = h
            .cfg()
            .random_walks(3, 5)
            .into_iter()
            .enumerate()
            .map(|(i, walk)| {
                ProtocolScenario::new(
                    walk,
                    FaultSchedule::PerFault(vec![
                        FaultTiming::Transient(i % 3),
                        FaultTiming::Transient((i + 1) % 3),
                    ]),
                )
            })
            .collect();
        for t in [
            ScfiTarget::new(&h),
            ScfiTarget::with_protocol(&h, 3, 9),
            ScfiTarget::with_scenarios(&h, per_fault),
        ] {
            assert!(t.wave_oracle().is_some());
            let faults = enumerate_faults(
                t.module(),
                &CampaignConfig::new()
                    .with_register_flips()
                    .with_pin_faults(),
            );
            let work = try_exhaustive_work(&t, &faults).unwrap();
            for lane_words in [1, 4] {
                let with_oracle = execute(&t, &work, 1, lane_words);
                let fallback = execute(&NoOracle(&t), &work, 1, lane_words);
                assert_eq!(with_oracle, fallback, "lane_words {lane_words}");
            }
        }
    }
}
