//! Batched multi-word wave execution of campaigns over the packed
//! simulator.
//!
//! The wave executor is the throughput core behind the packed
//! [campaign backend](crate::PackedBackend): the `(scenario, faults)`
//! [`WorkList`] is chunked into waves of up to `64 · W` injections
//! (`W` = [`CampaignConfig::lane_words`](crate::CampaignConfig::lane_words)
//! lane words), each wave runs as one multi-cycle pass of a
//! [`PackedSimulator`]`<W>`, and lanes are classified cycle by cycle with
//! the per-cycle outcomes folded into a trajectory verdict per lane.
//! Simulator scratch — value arrays, preload/input/output words, arming
//! buckets and extraction buffers — is reused across every wave of a
//! worker; the compiled netlist is shared by all workers.
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
//! A wave's work per cycle scales with its scenario slots and its armed
//! faults, not with its `64 · W` lanes, and a wave steps only the cycles
//! whose verdicts are not known yet. The workers of a packed campaign
//! share one scenario table (`table.rs`): every scenario is materialized
//! once, and on a target with a [`WaveOracle`] every multi-cycle scenario
//! also has its fault-free run (the registers before each cycle, and the
//! fault-free verdicts folded before and after it). On an exhaustive work
//! list the table adds transition rows, shared by the walks that revisit
//! an edge: each fault of the list stepped once from the edge's
//! fault-free registers and input word.
//!
//! Once per wave, one pass over its items resolves what the table knows
//! and schedules the rest. A lane whose single fault is armed on one
//! cycle `c` reads its row: detected, or back on the fault-free registers
//! after `c`, it folds the fault-free verdicts before and after `c`
//! around the row's verdict for `c` and is never simulated; otherwise it
//! rejoins the wave on cycle `c + 1`, with the row's post-step registers
//! flipped in where they differ from the fault-free ones. A lane with
//! nothing armed takes the fault-free verdict. Every other lane gets its
//! scenario's slot (through a scenario→slot index, with the slot's lane
//! mask), its faults in per-cycle arming buckets — a register flip at its
//! window's flip cycle, a net or pin fault on every cycle its window is
//! open, nothing at or past the lane's scenario length — and its first
//! and last armed cycle.
//!
//! The wave starts at its earliest first armed cycle, every lane
//! preloaded with its scenario's fault-free registers there (each slot's
//! lane mask OR-ed into the words of its set register bits), and every
//! cycle is stepped the same way. The fault masks are cleared and exactly
//! that cycle's bucket is armed, which is the scalar reference's schedule
//! with no state carried between cycles (register flips mutate stored
//! state, so the clear never undoes them). Each slot whose scenario is
//! still running drives its lane mask into the words of its set input
//! bits. One full settle ([`PackedSimulator::step_into`]) runs, and the
//! lanes that have reached their first armed cycle and are not yet
//! decided are classified into per-word detected and hijack masks, which
//! become [`Outcome`]s once per wave ([`Outcome::fold`] makes `Detected`
//! terminal, then `Hijack`). A lane's verdict starts as the fold of the
//! fault-free cycles it skipped. A lane past its last armed cycle whose
//! registers equal its scenario's fault-free registers follows the
//! fault-free run from then on: it folds the fault-free verdicts still to
//! come and settles. The wave stops once every simulated lane is
//! detected, settled or past its scenario.
//!
//! Lanes are independent bit positions of every net word, so a lane that
//! is decided, or has not reached its first armed cycle, may still be
//! driven and armed with the others: it is only left out of
//! classification. A lane past its own scenario length is neither driven,
//! armed nor classified. Lanes without a fault-free run (one-cycle
//! scenarios, targets without an oracle) start on cycle 0 and are never
//! settled early. Reports stay byte-identical to the scalar reference;
//! the differential suites assert this at every width.
//!
//! This module computes one wave at a time and nothing else. Which worker
//! runs which wave, admission, panic isolation and the thread fan-out
//! belong to the scheduler both backends share
//! ([`run_waves`](crate::backend::run_waves)). The outcome of item `i` is
//! written to slot `i` regardless of which thread, wave or lane computed
//! it, so results are independent of the thread count, the lane-word
//! width, the wave boundaries and the lane order.

use scfi_netlist::{extract_lane, lane_mask, PackedNetlist, PackedSimulator, LANES};
use scfi_telemetry::Telemetry;

use crate::campaign::{Fault, FaultEffect, FaultSite, Outcome};
use crate::control::CampaignError;
use crate::table::{bit_at, same_regs, Entry, ScenarioTable, Scratch, Traj};
use crate::target::{FaultTiming, Scenario};

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
///
/// A list in that exhaustive shape — item `i` injects fault `i mod F` of
/// one fault list alone into scenario `i / F` — stores only its `F`
/// faults, however it was pushed. Any other list stores per item a
/// scenario index, a fault offset and its faults; per-fault window
/// overrides are stored only once a [scheduled push](Self::push_scheduled)
/// has been made.
#[derive(Clone, Debug)]
pub struct WorkList {
    /// See [`period`](Self::period). While it is nonzero, `faults` holds
    /// the `F` faults of the list and the other vectors stay empty.
    period: usize,
    /// Number of items.
    len: usize,
    /// The `(scenario, fault index)` of the next item of an exhaustive
    /// list whose first scenario's run is complete.
    next: (usize, usize),
    scenarios: Vec<u32>,
    /// Prefix offsets into `faults`, one extra entry at the end.
    offsets: Vec<u32>,
    faults: Vec<Fault>,
    /// Per-fault arming-window overrides: empty until the first scheduled
    /// push, parallel to `faults` from then on. `None` falls through to
    /// the scenario's [`timing`](crate::Scenario::timing), so plain
    /// pushes carry no per-item timing state.
    windows: Vec<Option<FaultTiming>>,
}

impl WorkList {
    /// An empty work list with room for `items` entries.
    pub fn with_capacity(items: usize) -> Self {
        WorkList {
            period: 0,
            len: 0,
            next: (0, 0),
            scenarios: Vec::with_capacity(items),
            offsets: {
                let mut offsets = Vec::with_capacity(items + 1);
                offsets.push(0);
                offsets
            },
            faults: Vec::with_capacity(items),
            windows: Vec::new(),
        }
    }

    /// The exhaustive list: every fault of `faults` alone in each of
    /// `scenarios` scenarios, scenario-major — or
    /// [`CampaignError::WorkListOverflow`] past the packed `u32`
    /// representation, like [`try_push`](Self::try_push).
    pub(crate) fn try_exhaustive(
        scenarios: usize,
        faults: &[Fault],
    ) -> Result<Self, CampaignError> {
        const LIMIT: usize = u32::MAX as usize;
        let items = scenarios.saturating_mul(faults.len());
        if items > LIMIT {
            return Err(CampaignError::WorkListOverflow {
                items,
                limit: LIMIT,
            });
        }
        let mut w = WorkList::with_capacity(0);
        if items > 0 {
            w.period = faults.len();
            w.len = items;
            w.next = (scenarios, 0);
            w.faults = faults.to_vec();
        }
        Ok(w)
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
        self.push_item(scenario, faults, true)
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
        self.push_item(scenario, faults, false)?;
        // The first scheduled push back-fills every earlier fault with
        // `None`; later ones overwrite the entries `push_item` added.
        self.windows.resize(self.faults.len() - faults.len(), None);
        self.windows.extend(windows.iter().copied().map(Some));
        Ok(())
    }

    /// Appends one item, kept in the exhaustive shape when `plain` and the
    /// item continues it, and written out explicitly otherwise.
    fn push_item(
        &mut self,
        scenario: usize,
        faults: &[Fault],
        plain: bool,
    ) -> Result<(), CampaignError> {
        const LIMIT: usize = u32::MAX as usize;
        let Ok(scenario32) = u32::try_from(scenario) else {
            return Err(CampaignError::WorkListOverflow {
                items: scenario,
                limit: LIMIT,
            });
        };
        let stored = if self.period > 0 {
            self.len
        } else {
            self.faults.len()
        };
        let Ok(end) = u32::try_from(stored + faults.len()) else {
            return Err(CampaignError::WorkListOverflow {
                items: stored + faults.len(),
                limit: LIMIT,
            });
        };
        if plain && self.continue_shape(scenario, faults) {
            self.len += 1;
            return Ok(());
        }
        self.expand();
        self.scenarios.push(scenario32);
        self.faults.extend_from_slice(faults);
        if !self.windows.is_empty() {
            self.windows.resize(self.faults.len(), None);
        }
        self.offsets.push(end);
        self.len += 1;
        Ok(())
    }

    /// Whether a plain `(scenario, faults)` item continues the exhaustive
    /// shape of the list so far; records it in the shape if so.
    fn continue_shape(&mut self, scenario: usize, faults: &[Fault]) -> bool {
        let &[fault] = faults else {
            return false;
        };
        if self.len == self.period && scenario == 0 {
            // Every item so far injects into scenario 0: the list grows.
            self.faults.push(fault);
            self.period += 1;
            return true;
        }
        if self.period == 0 {
            return false;
        }
        // The first run closed when this list reached `period` items.
        let (run, k) = if self.len == self.period {
            (1, 0)
        } else {
            self.next
        };
        if scenario != run || fault != self.faults[k] {
            return false;
        }
        self.next = if k + 1 == self.period {
            (run + 1, 0)
        } else {
            (run, k + 1)
        };
        true
    }

    /// Writes the items of an exhaustive list out one by one, so that it
    /// can take an item of another shape.
    fn expand(&mut self) {
        let (period, len) = (std::mem::take(&mut self.period), self.len);
        if period == 0 {
            return;
        }
        let list = std::mem::take(&mut self.faults);
        self.scenarios = (0..len).map(|i| (i / period) as u32).collect();
        self.faults = (0..len).map(|i| list[i % period]).collect();
        self.offsets = (0..=len as u32).collect();
    }

    /// The fault-list length `F` of an exhaustive list — item `i` injects
    /// fault `i mod F` of the list alone into scenario `i / F`, on the
    /// scenario's own timing — or 0 for any other shape. Tracked as items
    /// are pushed; the packed engine shares transition rows between the
    /// items of such a list.
    pub(crate) fn period(&self) -> usize {
        self.period
    }

    /// The fault list of an exhaustive list (empty for any other shape).
    pub(crate) fn period_faults(&self) -> &[Fault] {
        &self.faults[..self.period]
    }

    /// Item `i`'s fault group and window overrides in a list that is not
    /// exhaustive.
    fn group(&self, i: usize) -> (&[Fault], &[Option<FaultTiming>]) {
        let faults = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        (
            &self.faults[faults.clone()],
            self.windows.get(faults).unwrap_or_default(),
        )
    }

    /// Item `i`'s scenario.
    fn scenario(&self, i: usize) -> usize {
        match self.period {
            0 => self.scenarios[i] as usize,
            period => i / period,
        }
    }

    /// The end of the run of items from `i` on that share item `i`'s
    /// scenario, at most `end`.
    fn run_end(&self, i: usize, end: usize) -> usize {
        match self.period {
            0 => {
                let scenario = self.scenarios[i];
                i + self.scenarios[i..end]
                    .iter()
                    .take_while(|&&s| s == scenario)
                    .count()
            }
            period => end.min((i / period + 1) * period),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `(scenario, faults)` of item `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`len`](Self::len).
    pub fn item(&self, i: usize) -> (usize, &[Fault]) {
        assert!(i < self.len, "item {i} of a {}-item work list", self.len);
        match self.period {
            0 => {
                let lo = self.offsets[i] as usize;
                let hi = self.offsets[i + 1] as usize;
                (self.scenarios[i] as usize, &self.faults[lo..hi])
            }
            period => (i / period, std::slice::from_ref(&self.faults[i % period])),
        }
    }

    /// Item `i`'s per-fault window overrides: empty while the list holds
    /// no scheduled push, and otherwise parallel to its fault group, with
    /// `None` for every fault of a plain push (deferring to the
    /// scenario's timing). Resolve fault `j`'s effective window with
    /// [`Scenario::fault_window`](crate::Scenario::fault_window), which
    /// accepts both shapes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`len`](Self::len).
    pub fn windows(&self, i: usize) -> &[Option<FaultTiming>] {
        assert!(i < self.len, "item {i} of a {}-item work list", self.len);
        if self.period > 0 {
            return &[];
        }
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        self.windows.get(lo..hi).unwrap_or_default()
    }
}

/// Arms one fault in the selected lanes of a packed simulator. Mirrors the
/// scalar [`arm`](crate::campaign::arm) mapping exactly.
pub(crate) fn arm_lanes<const W: usize>(
    sim: &mut PackedSimulator<'_, W>,
    fault: Fault,
    lanes: [u64; W],
) {
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

/// A scenario slot of the current wave: the table's entry and fault-free
/// run for it, and the wave's simulated lanes that run it.
struct Slot<'t, const W: usize> {
    index: usize,
    entry: &'t Entry,
    /// The fault-free run; `None` for one-cycle scenarios and for targets
    /// without an oracle.
    traj: Option<Traj<'t, W>>,
    lanes: [u64; W],
}

impl<const W: usize> Slot<'_, W> {
    fn cycles(&self) -> usize {
        self.entry.sc.cycles()
    }
}

/// ORs `lanes` into `words[j]` for every set bit `j` of `bits`: one
/// slot's register preload or input drive.
pub(crate) fn drive<const W: usize>(words: &mut [[u64; W]], bits: &[bool], lanes: [u64; W]) {
    for (word, _) in words.iter_mut().zip(bits).filter(|(_, &bit)| bit) {
        for k in 0..W {
            word[k] |= lanes[k];
        }
    }
}

/// [`drive`] from bits packed into `u64` words.
pub(crate) fn drive_bits<const W: usize>(words: &mut [[u64; W]], bits: &[u64], lanes: [u64; W]) {
    for (j, word) in words.iter_mut().enumerate() {
        if bit_at(bits, j) {
            for k in 0..W {
                word[k] |= lanes[k];
            }
        }
    }
}

/// Whether `fault` on a scenario with `timing` is armed on exactly one
/// cycle: register flips always are, net and pin faults in a transient
/// window.
fn armed_once(fault: Fault, timing: FaultTiming) -> bool {
    matches!(fault.site, FaultSite::Register(_)) || matches!(timing, FaultTiming::Transient(_))
}

/// Puts lane `lane`'s `faults` into the arming buckets of `sc`'s cycles:
/// a register flip at its window's flip cycle, a net or pin fault on every
/// cycle its window is open, nothing at or past the scenario length.
/// Returns the lane's first armed cycle (`usize::MAX` when none) and last.
/// Runs once per lane on the hot path, so it is always inlined.
#[inline(always)]
fn schedule(
    arms: &mut [Vec<(Fault, u32)>],
    sc: &Scenario,
    faults: &[Fault],
    overrides: &[Option<FaultTiming>],
    lane: usize,
) -> (usize, Option<usize>) {
    let cycles = sc.cycles();
    let (mut first, mut last) = (usize::MAX, None);
    for (j, &f) in faults.iter().enumerate() {
        let window = sc.fault_window(overrides, j);
        let (lo, hi) = match (f.site, window) {
            (FaultSite::Register(_), _) => (window.flip_cycle(), window.flip_cycle()),
            (_, FaultTiming::Permanent) => (0, cycles - 1),
            (_, FaultTiming::Transient(c)) => (c, c),
        };
        if lo >= cycles {
            continue;
        }
        for bucket in &mut arms[lo..=hi] {
            bucket.push((f, lane as u32));
        }
        first = first.min(lo);
        last = last.max(Some(hi));
    }
    (first, last)
}

/// The outcome of a lane from its `detected` and `hijack` bits.
pub(crate) fn verdict(detected: bool, hijack: bool) -> Outcome {
    if detected {
        Outcome::Detected
    } else if hijack {
        Outcome::Hijack
    } else {
        Outcome::Masked
    }
}

/// One packed worker of the shared scheduler: builds the worker's
/// simulator and scratch, and returns the body that runs one wave —
/// `wave(first, out)` computes the items `first..first + out.len()` (at
/// most `64 · W`) and writes each trajectory verdict into `out`.
///
/// Each lane gets exactly the verdict of
/// [`run_item_scalar`](crate::campaign::run_item_scalar), as "The wave
/// loop" in the module docs lays out. One pass over the wave's items
/// resolves what the campaign's [`ScenarioTable`] already knows — lanes
/// whose transition row decides them, lanes with nothing armed — and
/// schedules the rest: scenario slots through a scenario→slot index, each
/// lane's faults into per-cycle arming buckets, and each lane's first and
/// last armed cycle. The wave then steps from its earliest armed cycle,
/// preloaded from the table's fault-free registers, and stops once every
/// simulated lane is detected, settled back on its fault-free run or past
/// its scenario. Stepped and classified cycles and the lanes rows
/// resolved are counted into `telemetry` once per wave.
pub(crate) fn wave_worker<'a, const W: usize>(
    table: &'a ScenarioTable<'a, W>,
    compiled: &'a PackedNetlist,
    work: &'a WorkList,
    telemetry: &Telemetry,
) -> impl FnMut(usize, &mut [Option<Outcome>]) + 'a {
    let (oracle, registers) = (table.oracle(), table.registers());
    let mut scratch = Scratch::<W>::new(compiled);
    let mut slots: Vec<Slot<'a, W>> = Vec::new();
    let mut slot_of = vec![u32::MAX; table.len()];
    // `arms[c]` = the `(fault, lane)` pairs armed on cycle `c`, in lane
    // order and, within a lane, in fault-group order: a later stuck-at on
    // the same net or pin wins, as in the scalar engine.
    let mut arms: Vec<Vec<(Fault, u32)>> = Vec::new();
    // `marks[c]` = (lanes classified from cycle `c` on, lanes whose last
    // armed cycle is `c`).
    let mut marks: Vec<([u64; W], [u64; W])> = Vec::new();
    let stepped = telemetry.counter("scfi_campaign_cycles_stepped_total");
    let classified = telemetry.counter(if oracle.is_some() {
        "scfi_campaign_oracle_fastpath_cycles_total"
    } else {
        "scfi_campaign_oracle_fallback_cycles_total"
    });
    let row_lanes = telemetry.counter("scfi_campaign_row_lanes_total");
    move |first: usize, out: &mut [Option<Outcome>]| {
        for slot in slots.drain(..) {
            slot_of[slot.index] = u32::MAX;
        }
        for bucket in &mut arms {
            bucket.clear();
        }
        marks.fill(([0; W], [0; W]));
        let (mut detected, mut hijack) = ([0u64; W], [0u64; W]);
        let (mut start_cycle, mut end_cycle) = (usize::MAX, 0);
        let mut resolved = 0u64;
        // Simulated lanes without a fault-free run: classified from cycle 0.
        let mut from_zero = [0u64; W];
        // One pass over the wave's items, a run of lanes of one scenario
        // at a time (work lists are scenario-major, so runs are long).
        let end = first + out.len();
        let mut i = first;
        while i < end {
            let scenario = work.scenario(i);
            let run = i..work.run_end(i, end);
            i = run.end;
            let slot = match slot_of[scenario] {
                u32::MAX => {
                    let entry = table.entry(scenario);
                    let traj = (entry.sc.cycles() > 1 && oracle.is_some())
                        .then(|| table.traj(scenario, &mut scratch));
                    slot_of[scenario] = slots.len() as u32;
                    slots.push(Slot {
                        index: scenario,
                        entry,
                        traj,
                        lanes: [0; W],
                    });
                    slots.len() - 1
                }
                k => k as usize,
            };
            let (entry, traj) = (slots[slot].entry, slots[slot].traj);
            let sc = &entry.sc;
            let cycles = sc.cycles();
            if arms.len() < cycles {
                arms.resize_with(cycles, Vec::new);
                marks.resize(cycles, ([0; W], [0; W]));
            }
            // The run's fault groups: consecutive faults of an exhaustive
            // list, counting up from the first one's position in it, or
            // each item's own group.
            let list = work.period_faults();
            let first_position = if list.is_empty() {
                0
            } else {
                run.start % list.len()
            };
            let group = |p: usize, i: usize| match list.get(p) {
                Some(fault) => (std::slice::from_ref(fault), &[][..]),
                None => work.group(i),
            };
            let mut lanes = [0u64; W];
            let Some(traj) = traj else {
                // No fault-free run (one-cycle scenarios, targets without
                // an oracle): simulated from cycle 0, never settled early.
                for (p, i) in (first_position..).zip(run) {
                    let lane = i - first;
                    let (faults, overrides) = group(p, i);
                    schedule(&mut arms, sc, faults, overrides, lane);
                    lanes[lane / LANES] |= 1 << (lane % LANES);
                }
                for k in 0..W {
                    from_zero[k] |= lanes[k];
                    slots[slot].lanes[k] |= lanes[k];
                }
                start_cycle = 0;
                end_cycle = end_cycle.max(cycles);
                continue;
            };
            // Rows exist only on exhaustive lists, indexed by position.
            let row = traj.row();
            let mut chunk = None;
            for (p, i) in (first_position..).zip(run) {
                let lane = i - first;
                let (w, bit) = (lane / LANES, 1u64 << (lane % LANES));
                let (faults, overrides) = group(p, i);
                // (first classified cycle, verdict of the cycles before it,
                // last armed cycle)
                let (start, before, last) = match row {
                    Some(row) if armed_once(faults[0], sc.timing) => {
                        // Armed on cycle `c` only: the row decides that cycle.
                        let c = sc.timing.flip_cycle();
                        let k = p / (LANES * W);
                        let chunk = match chunk {
                            Some((at, chunk)) if at == k => chunk,
                            _ => {
                                let computed = table.chunk(row, k, &mut scratch);
                                chunk = Some((k, computed));
                                computed
                            }
                        };
                        let (rw, rbit) = (p % (LANES * W) / LANES, 1u64 << (p % LANES));
                        let step =
                            verdict(chunk.detected[rw] & rbit != 0, chunk.hijack[rw] & rbit != 0);
                        let before = traj.head(c).fold(step);
                        if before == Outcome::Detected
                            || chunk.settled[rw] & rbit != 0
                            || c + 1 == cycles
                        {
                            out[lane] = Some(before.fold(traj.tail(c)));
                            resolved += 1;
                            continue;
                        }
                        // Off its fault-free run: the lane rejoins it on
                        // cycle `c + 1` with the row's post-step registers,
                        // flipped in where they differ from the fault-free
                        // ones.
                        let after = traj.regs(c + 1);
                        for (j, reg) in chunk.post.iter().enumerate() {
                            if (reg[rw] & rbit != 0) != bit_at(after, j) {
                                let flip = Fault {
                                    site: FaultSite::Register(registers[j]),
                                    effect: FaultEffect::Flip,
                                };
                                arms[c + 1].push((flip, lane as u32));
                            }
                        }
                        (c + 1, before, Some(c + 1))
                    }
                    _ => {
                        let (armed_first, armed_last) =
                            schedule(&mut arms, sc, faults, overrides, lane);
                        if armed_first >= cycles {
                            // Nothing armed: the fault-free verdict.
                            out[lane] = Some(traj.head(cycles));
                            continue;
                        }
                        (armed_first, traj.head(armed_first), armed_last)
                    }
                };
                if before == Outcome::Detected {
                    out[lane] = Some(before);
                    continue;
                }
                lanes[w] |= bit;
                hijack[w] |= if before == Outcome::Hijack { bit } else { 0 };
                marks[start].0[w] |= bit;
                if let Some(last) = last {
                    marks[last].1[w] |= bit;
                }
                start_cycle = start_cycle.min(start);
                end_cycle = end_cycle.max(cycles);
            }
            for (slot_lanes, lanes) in slots[slot].lanes.iter_mut().zip(lanes) {
                *slot_lanes |= lanes;
            }
        }
        row_lanes.add(resolved);
        let simulated = slots.iter().fold([0u64; W], |acc, s| {
            std::array::from_fn(|k| acc[k] | s.lanes[k])
        });
        if start_cycle == usize::MAX {
            return;
        }
        // Every simulated lane starts on its fault-free run.
        scratch.regs.fill([0; W]);
        for slot in slots.iter().filter(|s| s.lanes != [0; W]) {
            match slot.traj {
                Some(traj) if start_cycle > 0 => {
                    drive_bits(&mut scratch.regs, traj.regs(start_cycle), slot.lanes)
                }
                _ => drive(&mut scratch.regs, &slot.entry.sc.regs, slot.lanes),
            }
        }
        scratch.sim.set_register_words(&scratch.regs);
        let (mut settled, mut started, mut past) = ([0u64; W], from_zero, [0u64; W]);
        let mut steps = 0u64;
        for cycle in start_cycle..end_cycle {
            let running_slots = || {
                slots
                    .iter()
                    .filter(move |s| cycle < s.cycles() && s.lanes != [0; W])
            };
            let mut active = [0u64; W];
            for slot in running_slots() {
                for k in 0..W {
                    active[k] |= slot.lanes[k] & !detected[k] & !settled[k];
                }
            }
            if active == [0; W] {
                break;
            }
            // Flips mutate stored state, so the mask clear never undoes
            // them.
            scratch.sim.clear_faults();
            for &(f, lane) in &arms[cycle] {
                arm_lanes(&mut scratch.sim, f, lane_mask::<W>(lane as usize));
            }
            scratch.inputs.fill([0; W]);
            for slot in running_slots() {
                drive(
                    &mut scratch.inputs,
                    &slot.entry.sc.inputs[cycle],
                    slot.lanes,
                );
            }
            scratch.sim.step_into(&scratch.inputs, &mut scratch.outputs);
            steps += 1;
            let regs = scratch.sim.register_words();
            for k in 0..W {
                started[k] |= marks[cycle].0[k];
                past[k] |= marks[cycle].1[k];
            }
            for w in 0..W {
                // Started lanes not yet decided: the only ones whose
                // verdict this cycle can still change.
                let live = active[w] & started[w];
                if live == 0 {
                    continue;
                }
                let det_base = oracle.map(|o| o.detected_word(w, regs, &scratch.outputs));
                for slot in running_slots() {
                    let group = slot.lanes[w] & live;
                    if group == 0 {
                        continue;
                    }
                    match (oracle, det_base) {
                        (Some(oracle), Some(det_base)) => {
                            // Word-parallel classification: decode whole
                            // 64-lane words against the precompiled
                            // codebook and alert masks.
                            let expected = slot.entry.expected[cycle];
                            let (det, hij) =
                                oracle.classify_word(det_base, expected, w, group, regs);
                            detected[w] |= det;
                            hijack[w] |= hij;
                        }
                        _ => {
                            let mut bits = group;
                            while bits != 0 {
                                let lane = w * LANES + bits.trailing_zeros() as usize;
                                extract_lane(regs, lane, &mut scratch.reg_bits);
                                extract_lane(&scratch.outputs, lane, &mut scratch.out_bits);
                                let bit = bits & bits.wrapping_neg();
                                match table.target().classify(
                                    slot.index,
                                    cycle,
                                    &scratch.reg_bits,
                                    &scratch.out_bits,
                                ) {
                                    Outcome::Detected => detected[w] |= bit,
                                    Outcome::Hijack => hijack[w] |= bit,
                                    Outcome::Masked => {}
                                }
                                bits &= bits - 1;
                            }
                        }
                    }
                    // A lane past its last armed cycle and back on the
                    // fault-free registers follows the fault-free run
                    // from here on: fold its tail and stop classifying it.
                    let Some(traj) = slot.traj.filter(|_| cycle + 1 < slot.cycles()) else {
                        continue;
                    };
                    let candidates = group & past[w] & !detected[w];
                    if candidates == 0 {
                        continue;
                    }
                    let rejoined = candidates & same_regs(regs, traj.regs(cycle + 1), w);
                    settled[w] |= rejoined;
                    match traj.tail(cycle) {
                        Outcome::Detected => detected[w] |= rejoined,
                        Outcome::Hijack => hijack[w] |= rejoined,
                        Outcome::Masked => {}
                    }
                }
            }
        }
        stepped.add(steps);
        classified.add(steps);
        for w in 0..W {
            let mut bits = simulated[w];
            while bits != 0 {
                let lane = w * LANES + bits.trailing_zeros() as usize;
                let bit = bits & bits.wrapping_neg();
                out[lane] = Some(verdict(detected[w] & bit != 0, hijack[w] & bit != 0));
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CampaignBackend, PackedBackend};
    use crate::campaign::{enumerate_faults, try_exhaustive_work, CampaignConfig};
    use crate::control::RunControl;
    use crate::target::{FaultTarget, ScfiTarget};
    use scfi_core::{harden, ScfiConfig};
    use scfi_fsm::parse_fsm;

    /// The packed backend's outcome vector at `threads` workers and
    /// `lane_words` words per wave.
    fn execute<T: FaultTarget>(
        target: &T,
        work: &WorkList,
        threads: usize,
        lane_words: usize,
    ) -> Vec<Outcome> {
        let config = CampaignConfig::new()
            .threads(threads)
            .lane_words(lane_words);
        PackedBackend
            .try_execute(target, work, &config, &RunControl::unlimited())
            .unwrap_or_else(|e| panic!("{e}"))
    }

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
        let sc = Scenario {
            regs: vec![],
            inputs: vec![vec![]; 3],
            timing: FaultTiming::Transient(2),
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
        // Plain pushes store no per-fault window overrides, and their
        // faults take the scenario's timing…
        for i in 0..3 {
            assert!(w.windows(i).is_empty(), "item {i}");
        }
        assert_eq!(sc.fault_window(w.windows(1), 1), FaultTiming::Transient(2));
        // …while scheduled pushes override each fault of their group. A
        // list mixing both round-trips both: plain items before and after
        // the first scheduled push read all-`None` overrides.
        w.push_scheduled(
            5,
            &[f, g],
            &[FaultTiming::Transient(1), FaultTiming::Permanent],
        );
        w.push(7, &[g]);
        assert_eq!(w.len(), 5);
        assert_eq!(w.item(0), (4, &[f][..]));
        assert_eq!(w.item(1), (9, &[f, g][..]));
        assert_eq!(w.item(2), (0, &[][..]));
        assert_eq!(w.item(3), (5, &[f, g][..]));
        assert_eq!(w.item(4), (7, &[g][..]));
        assert_eq!(
            w.windows(3),
            &[
                Some(FaultTiming::Transient(1)),
                Some(FaultTiming::Permanent)
            ]
        );
        assert_eq!(w.windows(0), &[None]);
        assert_eq!(w.windows(1), &[None, None]);
        assert!(w.windows(2).is_empty());
        assert_eq!(w.windows(4), &[None]);
        for (i, j) in [(0, 0), (1, 0), (1, 1), (4, 0)] {
            assert_eq!(
                sc.fault_window(w.windows(i), j),
                FaultTiming::Transient(2),
                "item {i}, fault {j}"
            );
        }
        assert_eq!(sc.fault_window(w.windows(3), 0), FaultTiming::Transient(1));
        assert_eq!(sc.fault_window(w.windows(3), 1), FaultTiming::Permanent);
    }

    /// A list pushed in the exhaustive shape stores only its fault list
    /// and reads back like the bulk-built one; the first push of any
    /// other shape writes its items out, and every item still reads back
    /// the same.
    #[test]
    fn exhaustive_lists_stay_compact_until_another_shape_is_pushed() {
        let f = |r: u32| Fault {
            site: FaultSite::Register(scfi_netlist::CellId(r)),
            effect: FaultEffect::Flip,
        };
        let faults = [f(0), f(1), f(2)];
        let bulk = WorkList::try_exhaustive(4, &faults).unwrap();
        let mut pushed = WorkList::with_capacity(12);
        for s in 0..4 {
            for fault in &faults {
                pushed.push(s, std::slice::from_ref(fault));
            }
        }
        for w in [&bulk, &pushed] {
            assert_eq!(
                (w.period(), w.period_faults(), w.len()),
                (3, &faults[..], 12)
            );
            assert!(w.scenarios.is_empty() && w.faults.len() == 3);
            for i in 0..12 {
                assert_eq!(w.item(i), (i / 3, &faults[i % 3..][..1]), "item {i}");
                assert!(w.windows(i).is_empty());
            }
        }
        let mut more = pushed.clone();
        more.push(4, &[f(0)]);
        assert_eq!((more.period(), more.len()), (3, 13));
        // (what, scenario, group, window overrides)
        let breaks = [
            ("another fault", 4, vec![f(1)], None),
            ("a scenario out of order", 2, vec![f(0)], None),
            ("an empty group", 4, vec![], None),
            (
                "a window override",
                4,
                vec![f(0)],
                Some(FaultTiming::Transient(0)),
            ),
        ];
        for (what, scenario, group, window) in breaks {
            let mut w = pushed.clone();
            match window {
                Some(window) => w.push_scheduled(scenario, &group, &[window]),
                None => w.push(scenario, &group),
            }
            assert_eq!((w.period(), w.len()), (0, 13), "{what}");
            assert_eq!(w.item(12), (scenario, &group[..]), "{what}");
            for i in 0..12 {
                assert_eq!(w.item(i), pushed.item(i), "{what}: item {i}");
            }
        }
        let mut windowed = pushed.clone();
        windowed.push_scheduled(4, &[f(0)], &[FaultTiming::Transient(0)]);
        assert_eq!(windowed.windows(0), &[None]);
        assert_eq!(windowed.windows(12), &[Some(FaultTiming::Transient(0))]);
        // Only a list whose first item injects into scenario 0 opens the
        // shape.
        let mut late = WorkList::with_capacity(1);
        late.push(1, &[f(0)]);
        assert_eq!(late.period(), 0);
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
    /// keep stepping: each length also runs its cell-output faults
    /// (flips and stuck-ats) on a `Permanent` window. Lanes that settle
    /// before a later window opens are driven and armed on: a
    /// register-flip pair strikes on cycle 0, which alone is already
    /// `Detected`, and again on the scenario's last cycle.
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
                scenarios.push(ProtocolScenario::new(
                    edges.clone(),
                    FaultTiming::Transient(window),
                ));
            }
            scenarios.push(ProtocolScenario::new(edges, FaultTiming::Permanent));
        }
        let t = ScfiTarget::with_scenarios(&h, scenarios);
        let faults = enumerate_faults(
            t.module(),
            &CampaignConfig::new().with_register_flips().effects(vec![
                FaultEffect::Flip,
                FaultEffect::Stuck0,
                FaultEffect::Stuck1,
            ]),
        );
        let flips: Vec<Fault> = faults
            .iter()
            .copied()
            .filter(|f| matches!(f.site, FaultSite::Register(_)))
            .collect();
        // Interleave scenarios (fault-major) so one wave holds every
        // trajectory length — the opposite of the scenario-major layout.
        let mut work = WorkList::with_capacity(faults.len() * t.scenario_count() * 3);
        let mut lone_flips = Vec::new();
        for (i, fault) in faults.iter().enumerate() {
            for s in 0..t.scenario_count() {
                work.push(s, std::slice::from_ref(fault));
                let (a, b) = (flips[i % flips.len()], flips[(i + 1) % flips.len()]);
                let last = t.scenario(s).cycles() - 1;
                lone_flips.push(work.len());
                work.push_scheduled(s, &[a], &[FaultTiming::Transient(0)]);
                work.push_scheduled(
                    s,
                    &[a, b],
                    &[FaultTiming::Transient(0), FaultTiming::Transient(last)],
                );
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
        for &i in &lone_flips {
            assert_eq!(scalar[i], Outcome::Detected, "item {i}");
        }
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
                scenarios.push(ProtocolScenario::new(
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
    /// The wave keeps stepping its settled lanes through the rest of each
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
                .map(|(i, w)| ProtocolScenario::new(w.clone(), timing(i)))
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

    /// Two faults of one group striking different steps of the same walk,
    /// each on its own work-list window override: the wave executor's
    /// per-lane × per-fault arming buckets must match the scalar reference
    /// item for item, at every width.
    #[test]
    fn per_fault_schedules_match_scalar_at_every_width() {
        use crate::campaign::run_item_scalar;
        use crate::target::ProtocolScenario;

        let f = target_fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let scenarios: Vec<ProtocolScenario> = h
            .cfg()
            .random_walks(4, 3)
            .into_iter()
            .map(|walk| ProtocolScenario::new(walk, FaultTiming::Permanent))
            .collect();
        let t = ScfiTarget::with_scenarios(&h, scenarios);
        let faults = enumerate_faults(t.module(), &CampaignConfig::new().with_register_flips());
        let mut work = WorkList::with_capacity(t.scenario_count() * faults.len() / 2);
        for s in 0..t.scenario_count() {
            let windows = [
                FaultTiming::Transient(s % 4),
                FaultTiming::Transient((s + 2) % 4),
            ];
            for pair in faults.chunks(2) {
                work.push_scheduled(s, pair, &windows[..pair.len()]);
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
            vec![ProtocolScenario::new(walk, FaultTiming::Permanent)],
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

        use crate::target::ProtocolScenario;

        let f = target_fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let config = CampaignConfig::new()
            .with_register_flips()
            .with_pin_faults();
        let exhaustive = |t| {
            let faults = enumerate_faults(FaultTarget::module(&t), &config);
            let work = try_exhaustive_work(&t, &faults).unwrap();
            (t, work)
        };
        // Multi-window waves (a distinct window override per fault of each
        // pair) must keep the oracle path hot too — per-fault arming
        // affects only the fault masks, never the classification path.
        let per_fault = {
            let walks = h.cfg().random_walks(3, 5);
            let scenarios = walks
                .into_iter()
                .map(|walk| ProtocolScenario::new(walk, FaultTiming::Permanent))
                .collect();
            let t = ScfiTarget::with_scenarios(&h, scenarios);
            let faults = enumerate_faults(t.module(), &config);
            let mut work = WorkList::with_capacity(t.scenario_count() * faults.len() / 2);
            for s in 0..t.scenario_count() {
                let windows = [
                    FaultTiming::Transient(s % 3),
                    FaultTiming::Transient((s + 1) % 3),
                ];
                for pair in faults.chunks(2) {
                    work.push_scheduled(s, pair, &windows[..pair.len()]);
                }
            }
            (t, work)
        };
        for (t, work) in [
            exhaustive(ScfiTarget::new(&h)),
            exhaustive(ScfiTarget::with_protocol(&h, 3, 9)),
            per_fault,
        ] {
            assert!(t.wave_oracle().is_some());
            for lane_words in [1, 4] {
                let with_oracle = execute(&t, &work, 1, lane_words);
                let fallback = execute(&NoOracle(&t), &work, 1, lane_words);
                assert_eq!(with_oracle, fallback, "lane_words {lane_words}");
            }
        }
    }
}
