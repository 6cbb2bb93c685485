//! The campaign's shared scenario table and transition rows.
//!
//! One [`ScenarioTable`] per packed campaign, shared read-only by its
//! workers, replaces per-wave scenario materialization and lets a wave
//! skip every cycle whose verdict is already known.
//!
//! * **Entries.** A scenario is materialized once per campaign (preload,
//!   per-cycle inputs, the oracle's expected state per cycle), by the first
//!   wave that touches it. On an oracle target's non-exhaustive list (a
//!   multi-fault draw) it also gets a class: scenarios with equal preload,
//!   inputs and expected states, such as the injection-cycle scenarios of
//!   one walk, share one class, and a wave keeps one slot per class.
//! * **Trajectories.** On a target with a [`WaveOracle`], a scenario
//!   longer than one cycle gets its fault-free run, and so does a one-cycle
//!   scenario when its list gives one-cycle keys rows (below): the
//!   registers before every cycle, packed into `u64` words, and the
//!   fault-free verdicts folded into `head(c)` (cycles before `c`) and
//!   `tail(c)` (cycles after `c`). The first wave that needs one runs a
//!   packed fault-free pass over its whole block of `64 · W` scenarios
//!   (lanes = scenarios), classified word-parallel through the oracle:
//!   the expected-state-independent detection once per word and cycle,
//!   each lane's expected state against it. If that batch panics, the
//!   wave's own scenarios are run one at a time, so a poisoned scenario
//!   still fails only the waves that touch it. Other scenarios, and every
//!   scenario of a target without an oracle, get none: their waves run
//!   from cycle 0.
//! * **Transition rows.** On an exhaustive work list
//!   ([`WorkList::period`]), every scenario's faults are armed on one
//!   cycle `c`: a register flip at its flip cycle, a net or pin fault in
//!   its `Transient(c)` window, and every fault of a one-cycle scenario on
//!   its only cycle. That cycle depends only on the key — the fault-free
//!   registers before `c`, the input word of `c` and the expected state
//!   after `c` (a shadowed edge shares state and word with the edge that
//!   wins the first match, and only the expected state tells them apart)
//!   — and on the fault. A [`Row`] steps each fault of the list once from
//!   its key and records whether it was detected, is back on the
//!   fault-free registers (masked or hijacked on `c`), or neither. Walks
//!   that revisit an edge share its row. A row costs one full step per
//!   `64 · W` faults, so a multi-cycle key gets one only where the
//!   lane-cycles it decides cover that cost, and one-cycle keys get rows
//!   only when the list has at least [`ONE_CYCLE_ROW_FAULTS`] faults per
//!   chunk (see `intern_rows`); the others are simulated in waves.
//! * **Columns.** Column `k` of a block is chunk `k` of every row the
//!   block interned. The first wave that reads chunk `k` of one of them
//!   claims the column ([`ScenarioTable::fill`]): it arms chunk `k` once —
//!   net and pin faults as masks, which stay armed across steps, register
//!   flips as one lane mask per register, XOR-ed into each key's preload —
//!   and steps each row of the block from its key under that arming.
//!   Only the chunks the block's lanes read are built.
//!
//! Every piece is computed exactly once, under a `OnceLock`. A block of
//! fault-free runs is computed by the first wave that needs it, and the
//! others wait: every wave of a block needs the block. A column skips the
//! row chunks another worker has claimed, and a wave fills every column
//! its lanes read before its resolution pass, so it waits only on chunks
//! another worker is still filling; a chunk nobody has started is
//! computed by its reader alone. Claim flags steer who fills a chunk,
//! never whether: the `OnceLock` decides, and a fill that panics leaves
//! the chunk empty for the next reader. What is built is a deterministic
//! function of the admitted waves (which blocks they touch, which chunk
//! indices of which blocks their lanes read), so the work counters are
//! the same at every thread count, and a run that admits no wave builds
//! nothing.

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use scfi_netlist::{lane_mask, CellId, PackedNetlist, PackedSimulator, LANES};
use scfi_telemetry::{Counter, Telemetry};

use crate::campaign::{FaultSite, Outcome};
use crate::oracle::WaveOracle;
use crate::target::{FaultTarget, FaultTiming, Scenario};
use crate::wave::{arm_lanes, drive, drive_bits, verdict, WorkList};

/// The least faults per row chunk at which an exhaustive list's one-cycle
/// scenarios get transition rows (see `intern_rows`). A one-cycle row
/// costs one step per chunk and key, where waves pack the keys of sparse
/// chunks into one step but schedule and arm every lane. Measured on
/// one-cycle maps of 2 to 256 faults over six netlists (1 thread, medians
/// of 31 alternated runs), rows overtook waves at 48–60 faults per chunk
/// at 64 lanes, 45–80 at 128 and 50–128 at 256 (medians 56, 65 and 80),
/// so 64-lane waves keep their one-cycle lists.
const ONE_CYCLE_ROW_FAULTS: usize = 80;

/// One worker's packed simulator and word buffers, used by the table
/// passes it runs and by the waves it steps.
pub(crate) struct Scratch<'p, const W: usize> {
    pub(crate) sim: PackedSimulator<'p, W>,
    pub(crate) regs: Vec<[u64; W]>,
    pub(crate) inputs: Vec<[u64; W]>,
    pub(crate) outputs: Vec<[u64; W]>,
    pub(crate) reg_bits: Vec<bool>,
    pub(crate) out_bits: Vec<bool>,
    /// The register flips of the armed row chunk, one lane mask per
    /// register (see `ScenarioTable::arm`).
    flips: Vec<[u64; W]>,
}

impl<'p, const W: usize> Scratch<'p, W> {
    pub(crate) fn new(compiled: &'p PackedNetlist) -> Self {
        Scratch {
            sim: PackedSimulator::new(compiled),
            regs: vec![[0; W]; compiled.register_count()],
            inputs: vec![[0; W]; compiled.input_count()],
            outputs: Vec::with_capacity(compiled.output_count()),
            reg_bits: Vec::with_capacity(compiled.register_count()),
            out_bits: Vec::with_capacity(compiled.output_count()),
            flips: Vec::with_capacity(compiled.register_count()),
        }
    }
}

/// A materialized scenario.
pub(crate) struct Entry {
    pub(crate) sc: Scenario,
    /// `expected[c]` = the oracle codebook index of the fault-free landing
    /// state after cycle `c`; empty when the target has no oracle.
    pub(crate) expected: Vec<usize>,
    /// The scenario's class when the table interns classes (scenarios
    /// with equal preload, per-cycle inputs and expected states share one
    /// fault-free run), else its index. Ids follow the order in which
    /// workers materialize scenarios, so they only key a wave's slots.
    pub(crate) class: usize,
}

/// The fault-free runs of a block of scenarios, one lane each.
struct Block<const W: usize> {
    /// Register rows per lane: row `c` of lane `l` holds the registers
    /// before cycle `c` (row 0 is the preload), `words` packed `u64`s at
    /// `(l * stride + c) * words`.
    stride: usize,
    words: usize,
    regs: Vec<u64>,
    /// `folds[l * stride + c]` = (`head(c)`, `tail(c)`) of lane `l`.
    folds: Vec<(Outcome, Outcome)>,
    /// Lane `l`'s transition row; empty when rows do not apply.
    rows: Vec<Option<Arc<Row<W>>>>,
    /// The distinct rows of `rows`, each with whether the block's lanes
    /// read only its chunks that hold register flips (`registers_only`).
    /// Column `k` is chunk `k` of each of them.
    columns: Vec<(Arc<Row<W>>, bool)>,
    /// Set by the first worker that takes column `k` on to fill it.
    claimed: Box<[AtomicBool]>,
}

/// One scenario's fault-free run: a lane of a [`Block`].
#[derive(Clone, Copy)]
pub(crate) struct Traj<'t, const W: usize> {
    block: &'t Block<W>,
    lane: usize,
}

impl<'t, const W: usize> Traj<'t, W> {
    /// The fault-free registers before cycle `c` (`c` up to the scenario
    /// length: the registers after its last cycle), packed.
    pub(crate) fn regs(self, c: usize) -> &'t [u64] {
        let b = self.block;
        &b.regs[(self.lane * b.stride + c) * b.words..][..b.words]
    }

    /// The fold of the fault-free verdicts of the cycles before `c`.
    pub(crate) fn head(self, c: usize) -> Outcome {
        self.block.folds[self.lane * self.block.stride + c].0
    }

    /// The fold of the fault-free verdicts of the cycles after `c`.
    pub(crate) fn tail(self, c: usize) -> Outcome {
        self.block.folds[self.lane * self.block.stride + c].1
    }

    /// The scenario's transition row, when rows apply.
    pub(crate) fn row(self) -> Option<&'t Row<W>> {
        self.block.rows.get(self.lane)?.as_deref()
    }
}

/// The verdicts of one transition (a key: fault-free registers before
/// the cycle, its input word and its expected state) under every fault of
/// the exhaustive fault list, computed `64 · W` faults at a time.
pub(crate) struct Row<const W: usize> {
    pre: Box<[u64]>,
    input: Box<[u64]>,
    expected: usize,
    /// The fault-free registers after the transition.
    post: Box<[u64]>,
    chunks: Box<[OnceLock<Chunk<W>>]>,
    /// Set by the first worker that takes chunk `k` on to fill it; the
    /// `OnceLock` stays the source of truth (see [`ScenarioTable::fill`]).
    claimed: Box<[AtomicBool]>,
}

/// Faults `k · 64 · W ..` of a [`Row`], one lane each.
pub(crate) struct Chunk<const W: usize> {
    /// Lanes whose step was detected.
    pub(crate) detected: [u64; W],
    /// Undetected lanes back on the fault-free registers.
    pub(crate) settled: [u64; W],
    /// Undetected lanes classified as a hijack on the transition.
    pub(crate) hijack: [u64; W],
    /// The post-step registers, kept only when some lane is neither
    /// detected nor settled.
    pub(crate) post: Vec<[u64; W]>,
}

/// The chunks of one [`Row`] that a run of at most `64 · W` consecutive
/// fault positions reads: at most two, since a chunk holds `64 · W`
/// faults. A chunk the run does not read stays `None` and reads as zeros.
pub(crate) struct RunChunks<'r, const W: usize> {
    /// The chunk index of `chunks[0]`.
    first: usize,
    chunks: [Option<&'r Chunk<W>>; 2],
}

impl<'r, const W: usize> RunChunks<'r, W> {
    /// `n` (1 to 64) bits of the `mask` words of the chunks, from fault
    /// position `p` on, in the low bits: the chunks' masks are one bit
    /// string over the fault list, a chunk being `W` whole words of it.
    pub(crate) fn bits(&self, p: usize, n: usize, mask: fn(&Chunk<W>) -> &[u64; W]) -> u64 {
        bits_at(
            |g| self.chunks[g / W - self.first].map_or(0, |chunk| mask(chunk)[g % W]),
            p,
            n,
        )
    }

    /// The chunk that holds fault position `p`.
    pub(crate) fn at(&self, p: usize) -> &'r Chunk<W> {
        self.chunks[p / (LANES * W) - self.first].expect("the run reads this chunk")
    }
}

/// Whether bit `j` of the packed `bits` is set.
pub(crate) fn bit_at(bits: &[u64], j: usize) -> bool {
    bits[j / 64] >> (j % 64) & 1 != 0
}

/// `n` (1 to 64) bits of the bit string packed into `word(0), word(1), …`,
/// from bit `p` on, in the low bits. `word(g)` is asked only for the words
/// that hold those bits.
pub(crate) fn bits_at(word: impl Fn(usize) -> u64, p: usize, n: usize) -> u64 {
    let (g, off) = (p / 64, p % 64);
    let mut bits = word(g) >> off;
    if off > 0 && off + n > 64 {
        bits |= word(g + 1) << (64 - off);
    }
    if n < 64 {
        bits & ((1 << n) - 1)
    } else {
        bits
    }
}

/// Appends `bits` to `out` packed into `u64` words.
fn pack(bits: &[bool], out: &mut Vec<u64>) {
    for chunk in bits.chunks(64) {
        out.push(
            chunk
                .iter()
                .enumerate()
                .fold(0, |word, (j, &b)| word | (b as u64) << j),
        );
    }
}

/// The shared scenario table of one packed campaign (see the module
/// docs).
pub(crate) struct ScenarioTable<'a, const W: usize> {
    /// Called once per scenario, and per lane only without an oracle, so
    /// one instance of the table serves every target type.
    target: &'a dyn FaultTarget,
    work: &'a WorkList,
    oracle: Option<WaveOracle>,
    /// The exhaustive fault-list length when rows apply, else 0.
    period: usize,
    /// Whether one-cycle scenarios get fault-free runs and rows: the list
    /// has at least [`ONE_CYCLE_ROW_FAULTS`] faults per chunk.
    one_cycle_rows: bool,
    /// The shared-run class of each scenario key, interned only on an
    /// oracle target's non-exhaustive list (see [`Entry::class`]).
    classes: Option<Mutex<HashMap<Box<[u64]>, usize>>>,
    /// Bit `p` is set when fault `p` of the exhaustive list is a register
    /// flip; empty when rows do not apply.
    register_faults: Vec<u64>,
    entries: Box<[OnceLock<Entry>]>,
    /// `None` once a block's batch pass has panicked.
    blocks: Box<[OnceLock<Option<Block<W>>>]>,
    /// One-scenario fallbacks for the scenarios of failed blocks.
    singles: OnceLock<Box<[OnceLock<Block<W>>]>>,
    rows: Mutex<HashMap<Box<[u64]>, Arc<Row<W>>>>,
    stepped: Counter,
    classified: Counter,
}

impl<'a, const W: usize> ScenarioTable<'a, W> {
    /// An empty table for `work` on `target`; nothing is computed until a
    /// wave asks.
    pub(crate) fn new(
        target: &'a dyn FaultTarget,
        work: &'a WorkList,
        telemetry: &Telemetry,
    ) -> Self {
        let oracle = target.wave_oracle();
        let scenarios = target.scenario_count();
        let period = if oracle.is_some() { work.period() } else { 0 };
        let mut register_faults = Vec::new();
        let registers: Vec<bool> = work.period_faults()[..period]
            .iter()
            .map(|f| matches!(f.site, FaultSite::Register(_)))
            .collect();
        pack(&registers, &mut register_faults);
        ScenarioTable {
            target,
            work,
            period,
            one_cycle_rows: period > 0
                && period >= period.div_ceil(LANES * W) * ONE_CYCLE_ROW_FAULTS,
            classes: (oracle.is_some() && work.period() == 0).then(Mutex::default),
            register_faults,
            classified: telemetry.counter(if oracle.is_some() {
                "scfi_campaign_oracle_fastpath_cycles_total"
            } else {
                "scfi_campaign_oracle_fallback_cycles_total"
            }),
            oracle,
            entries: (0..scenarios).map(|_| OnceLock::new()).collect(),
            blocks: (0..scenarios.div_ceil(LANES * W))
                .map(|_| OnceLock::new())
                .collect(),
            singles: OnceLock::new(),
            rows: Mutex::default(),
            stepped: telemetry.counter("scfi_campaign_cycles_stepped_total"),
        }
    }

    /// The campaign's target.
    pub(crate) fn target(&self) -> &'a dyn FaultTarget {
        self.target
    }

    /// Number of scenarios.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The target's word-parallel oracle, if any.
    pub(crate) fn oracle(&self) -> Option<&WaveOracle> {
        self.oracle.as_ref()
    }

    /// The module's register cells, in register order.
    pub(crate) fn registers(&self) -> &'a [CellId] {
        self.target.module().registers()
    }

    /// Scenario `s`, materialized on first use.
    pub(crate) fn entry(&self, s: usize) -> &Entry {
        self.entries[s].get_or_init(|| {
            let sc = self.target.scenario(s);
            let module = self.target.module();
            assert!(sc.cycles() >= 1, "scenario {s} has no cycles");
            assert_eq!(
                sc.regs.len(),
                module.registers().len(),
                "scenario register preload width mismatch"
            );
            for inputs in &sc.inputs {
                assert_eq!(
                    inputs.len(),
                    module.inputs().len(),
                    "scenario input width mismatch"
                );
            }
            let expected: Vec<usize> = match self.oracle {
                Some(_) => (0..sc.cycles())
                    .map(|c| self.target.expected_state(s, c))
                    .collect(),
                None => Vec::new(),
            };
            let class = match &self.classes {
                Some(classes) => {
                    let mut key = Vec::new();
                    pack(&sc.regs, &mut key);
                    for inputs in &sc.inputs {
                        pack(inputs, &mut key);
                    }
                    key.extend(expected.iter().map(|&e| e as u64));
                    let mut classes = classes.lock().expect("no scenario panics under the lock");
                    let next = classes.len();
                    *classes.entry(key.into()).or_insert(next)
                }
                None => s,
            };
            Entry {
                sc,
                expected,
                class,
            }
        })
    }

    /// Whether `entry`'s scenario has a fault-free run: on an oracle
    /// target, when it is longer than one cycle or one-cycle scenarios get
    /// rows.
    pub(crate) fn has_traj(&self, entry: &Entry) -> bool {
        self.oracle.is_some() && (entry.sc.cycles() > 1 || self.one_cycle_rows)
    }

    /// Scenario `s`'s fault-free run, computed with its block on first
    /// use (or alone, once its block's batch has panicked).
    pub(crate) fn traj(&self, s: usize, scratch: &mut Scratch<'_, W>) -> Traj<'_, W> {
        let lanes = LANES * W;
        let b = s / lanes;
        let batch = self.blocks[b].get_or_init(|| {
            let scenarios = b * lanes..(b * lanes + lanes).min(self.len());
            catch_unwind(AssertUnwindSafe(|| self.fault_free(scenarios, scratch))).ok()
        });
        match batch {
            Some(block) => Traj {
                block,
                lane: s - b * lanes,
            },
            None => {
                let singles = self
                    .singles
                    .get_or_init(|| (0..self.len()).map(|_| OnceLock::new()).collect());
                Traj {
                    block: singles[s].get_or_init(|| self.fault_free(s..s + 1, scratch)),
                    lane: 0,
                }
            }
        }
    }

    /// `n` (1 to 64) bits of the register-flip mask of the exhaustive
    /// fault list, from fault position `p` on, in the low bits.
    pub(crate) fn register_faults(&self, p: usize, n: usize) -> u64 {
        bits_at(|g| self.register_faults[g], p, n)
    }

    /// The chunks of a row that the lanes at fault `positions` (at most
    /// `64 · W` of them, or one whole chunk) read: a lane reads its chunk
    /// exactly when its fault is armed on one cycle, which is every lane
    /// of a transient or one-cycle scenario and only the register flips
    /// of a [`registers_only`] one.
    fn chunks_read(
        &self,
        positions: Range<usize>,
        registers_only: bool,
    ) -> impl Iterator<Item = usize> + '_ {
        let lanes = LANES * W;
        (positions.start / lanes..positions.end.div_ceil(lanes)).filter(move |&k| {
            let from = positions.start.max(k * lanes);
            let to = positions.end.min(k * lanes + lanes);
            !registers_only
                || (from..to)
                    .step_by(64)
                    .any(|p| self.register_faults(p, (to - p).min(64)) != 0)
        })
    }

    /// Fills every column of `traj`'s block that the lanes at fault
    /// `positions` read (the column of each chunk they read of `traj`'s
    /// row, see `chunks_read`) and that no worker has claimed yet, so
    /// that a wave computes what it alone needs before it waits on
    /// anything.
    pub(crate) fn fill(
        &self,
        traj: Traj<'_, W>,
        positions: Range<usize>,
        registers_only: bool,
        scratch: &mut Scratch<'_, W>,
    ) {
        let block = traj.block;
        for k in self.chunks_read(positions, registers_only) {
            // Relaxed: the flag publishes no data; each chunk reaches its
            // readers through its `OnceLock`.
            if !block.claimed[k].swap(true, Ordering::Relaxed) {
                self.fill_column(block, k, scratch);
            }
        }
    }

    /// Column `k` of `block`: arms chunk `k` of the fault list once and
    /// steps each of the block's rows whose chunk `k` its lanes read and
    /// no worker has claimed from the row's key under that arming. The
    /// row's claim flag only steers who fills a chunk: the chunk's
    /// `OnceLock` decides, so each chunk is still computed once, and one
    /// whose filling panicked stays empty for the next reader to compute.
    fn fill_column(&self, block: &Block<W>, k: usize, scratch: &mut Scratch<'_, W>) {
        let lanes = LANES * W;
        let holds_registers = self
            .chunks_read(k * lanes..(k * lanes + lanes).min(self.period), true)
            .next()
            .is_some();
        let mut armed = None;
        for (row, registers_only) in &block.columns {
            if (*registers_only && !holds_registers) || row.claimed[k].swap(true, Ordering::Relaxed)
            {
                continue;
            }
            let active = *armed.get_or_insert_with(|| self.arm(k, scratch));
            row.chunks[k].get_or_init(|| self.step(row, active, scratch));
        }
    }

    /// The chunks of `row` that the lanes at fault `positions` read,
    /// computed on first use; waits for each one another worker is
    /// still filling.
    pub(crate) fn run_chunks<'r>(
        &self,
        row: &'r Row<W>,
        positions: Range<usize>,
        registers_only: bool,
        scratch: &mut Scratch<'_, W>,
    ) -> RunChunks<'r, W> {
        let first = positions.start / (LANES * W);
        let mut chunks = [None; 2];
        for k in self.chunks_read(positions, registers_only) {
            chunks[k - first] =
                Some(row.chunks[k].get_or_init(|| self.transition(row, k, scratch)));
        }
        RunChunks { first, chunks }
    }

    /// One packed fault-free pass over `scenarios`, one lane each.
    fn fault_free(&self, scenarios: Range<usize>, scratch: &mut Scratch<'_, W>) -> Block<W> {
        let oracle = self
            .oracle()
            .expect("fault-free runs are built only with an oracle");
        let entries: Vec<&Entry> = scenarios.map(|s| self.entry(s)).collect();
        let cycles = entries.iter().map(|e| e.sc.cycles()).max().unwrap_or(0);
        let stride = cycles + 1;
        let words = scratch.regs.len().div_ceil(64);
        let mut regs = Vec::with_capacity(entries.len() * stride * words);
        scratch.regs.fill([0; W]);
        for (lane, e) in entries.iter().enumerate() {
            pack(&e.sc.regs, &mut regs);
            regs.resize(regs.len() + cycles * words, 0);
            drive(&mut scratch.regs, &e.sc.regs, lane_mask(lane));
        }
        scratch.sim.set_register_words(&scratch.regs);
        scratch.sim.clear_faults();
        // `verdicts[l * stride + c]`: lane `l`'s fault-free verdict on `c`.
        let mut verdicts = vec![Outcome::Masked; entries.len() * stride];
        for c in 0..cycles {
            scratch.inputs.fill([0; W]);
            let mut running = [0u64; W];
            for (lane, e) in entries.iter().enumerate() {
                if c < e.sc.cycles() {
                    drive(&mut scratch.inputs, &e.sc.inputs[c], lane_mask(lane));
                    running[lane / LANES] |= 1 << (lane % LANES);
                }
            }
            scratch.sim.step_into(&scratch.inputs, &mut scratch.outputs);
            let state = scratch.sim.register_words();
            // The expected-state-independent detection, once per word.
            let det: [u64; W] = std::array::from_fn(|w| {
                if running[w] != 0 {
                    oracle.detected_word(w, state, &scratch.outputs)
                } else {
                    0
                }
            });
            for (lane, e) in entries.iter().enumerate() {
                if c < e.sc.cycles() {
                    let (w, bit) = (lane / LANES, 1u64 << (lane % LANES));
                    let (d, h) = oracle.classify_word(det[w], e.expected[c], w, bit, state);
                    verdicts[lane * stride + c] = verdict(d != 0, h != 0);
                }
            }
            for (j, reg) in state.iter().enumerate() {
                for w in 0..W {
                    let mut bits = reg[w] & running[w];
                    while bits != 0 {
                        let lane = w * LANES + bits.trailing_zeros() as usize;
                        regs[(lane * stride + c + 1) * words + j / 64] |= 1 << (j % 64);
                        bits &= bits - 1;
                    }
                }
            }
        }
        self.stepped.add(cycles as u64);
        self.classified.add(cycles as u64);
        let mut folds = vec![(Outcome::Masked, Outcome::Masked); entries.len() * stride];
        for (lane, e) in entries.iter().enumerate() {
            let (at, len) = (lane * stride, e.sc.cycles());
            for c in 0..len {
                folds[at + c + 1].0 = folds[at + c].0.fold(verdicts[at + c]);
            }
            for c in (1..len).rev() {
                folds[at + c - 1].1 = folds[at + c].1.fold(verdicts[at + c]);
            }
        }
        let mut block = Block {
            stride,
            words,
            regs,
            folds,
            rows: Vec::new(),
            columns: Vec::new(),
            claimed: Box::default(),
        };
        if self.period > 0 {
            block.rows = self.intern_rows(&entries, &block);
            // The block's distinct rows, each read only for its register
            // flips when every lane that has it is `registers_only`.
            let mut column_of = HashMap::new();
            for (e, row) in entries.iter().zip(&block.rows) {
                let Some(row) = row else { continue };
                let k = *column_of.entry(Arc::as_ptr(row)).or_insert_with(|| {
                    block.columns.push((Arc::clone(row), true));
                    block.columns.len() - 1
                });
                block.columns[k].1 &= registers_only(&e.sc);
            }
            let chunks = self.period.div_ceil(LANES * W);
            block.claimed = (0..chunks).map(|_| AtomicBool::new(false)).collect();
        }
        block
    }

    /// The transition row of each lane of `block`: the key of the cycle
    /// its faults are armed on, shared with every other scenario that
    /// reaches the same key. A row costs one full step per chunk. A multi-cycle key gets one only when the
    /// lane-cycles it decides in this block (fault-list length times the
    /// cycles left from the armed one, summed over the block's multi-cycle
    /// scenarios with that key) cover the lanes of those steps; a
    /// one-cycle key gets one when the list's chunks are well filled
    /// (`one_cycle_rows`). The others are simulated in waves.
    fn intern_rows(&self, entries: &[&Entry], block: &Block<W>) -> Vec<Option<Arc<Row<W>>>> {
        let chunks = self.period.div_ceil(LANES * W);
        // Each lane's key, flattened: the registers before its armed
        // cycle, that cycle's input word, and its expected state.
        let mut keys = Vec::new();
        let spans: Vec<Option<(Range<usize>, usize)>> = entries
            .iter()
            .enumerate()
            .map(|(lane, e)| {
                let c = e.sc.timing.flip_cycle();
                let keyed = e.sc.cycles() > 1 || self.one_cycle_rows;
                (keyed && c < e.sc.cycles()).then(|| {
                    let start = keys.len();
                    keys.extend_from_slice(Traj { block, lane }.regs(c));
                    pack(&e.sc.inputs[c], &mut keys);
                    keys.push(e.expected[c] as u64);
                    (start..keys.len(), c)
                })
            })
            .collect();
        // Per key: the lane-cycles of its multi-cycle scenarios, and
        // whether a one-cycle scenario has it.
        let mut weight: HashMap<&[u64], (usize, bool)> = HashMap::new();
        for (e, span) in entries.iter().zip(&spans) {
            if let Some((span, c)) = span {
                let w = weight.entry(&keys[span.clone()]).or_default();
                match e.sc.cycles() {
                    1 => w.1 = true,
                    cycles => w.0 += cycles - c,
                }
            }
        }
        let mut rows = self.rows.lock().expect("no row is built under the lock");
        let mut row_of = |lane: usize, e: &Entry, (span, c): &(Range<usize>, usize)| {
            let key = &keys[span.clone()];
            let (lane_cycles, one_cycle) = weight[key];
            if !one_cycle && self.period * lane_cycles < LANES * W * chunks {
                return None;
            }
            if let Some(row) = rows.get(key) {
                return Some(Arc::clone(row));
            }
            let traj = Traj { block, lane };
            let row = Arc::new(Row {
                pre: traj.regs(*c).into(),
                input: key[block.words..key.len() - 1].into(),
                expected: e.expected[*c],
                post: traj.regs(c + 1).into(),
                chunks: (0..chunks).map(|_| OnceLock::new()).collect(),
                claimed: (0..chunks).map(|_| AtomicBool::new(false)).collect(),
            });
            rows.insert(key.into(), Arc::clone(&row));
            Some(row)
        };
        entries
            .iter()
            .zip(&spans)
            .enumerate()
            .map(|(lane, (e, span))| row_of(lane, e, span.as_ref()?))
            .collect()
    }

    /// Computes chunk `k` of `row` alone: [`arm`](Self::arm) and
    /// [`step`](Self::step).
    fn transition(&self, row: &Row<W>, k: usize, scratch: &mut Scratch<'_, W>) -> Chunk<W> {
        let active = self.arm(k, scratch);
        self.step(row, active, scratch)
    }

    /// Arms chunk `k` of the fault list, one fault per lane: net and pin
    /// faults as masks, which stay armed across steps, and register flips
    /// as one lane mask per register in `scratch.flips`, XOR-ed into each
    /// key's preload. Returns the chunk's lanes.
    fn arm(&self, k: usize, scratch: &mut Scratch<'_, W>) -> [u64; W] {
        let lanes = LANES * W;
        let faults = &self.work.period_faults()[k * lanes..(k * lanes + lanes).min(self.period)];
        // Flips applied to all-zero registers leave exactly their masks.
        scratch.regs.fill([0; W]);
        scratch.sim.set_register_words(&scratch.regs);
        scratch.sim.clear_faults();
        for (lane, &fault) in faults.iter().enumerate() {
            arm_lanes(&mut scratch.sim, fault, lane_mask(lane));
        }
        scratch.flips.clear();
        scratch
            .flips
            .extend_from_slice(scratch.sim.register_words());
        std::array::from_fn(|w| match faults.len().saturating_sub(w * LANES) {
            0 => 0,
            n if n >= LANES => !0,
            n => (1 << n) - 1,
        })
    }

    /// One step of `row`'s key under the armed chunk (see
    /// [`arm`](Self::arm)), whose lanes are `active`, classified into a
    /// [`Chunk`].
    fn step(&self, row: &Row<W>, active: [u64; W], scratch: &mut Scratch<'_, W>) -> Chunk<W> {
        let oracle = self.oracle().expect("rows are built only with an oracle");
        for (j, (reg, flips)) in scratch.regs.iter_mut().zip(&scratch.flips).enumerate() {
            let pre = if bit_at(&row.pre, j) { active } else { [0; W] };
            *reg = std::array::from_fn(|w| pre[w] ^ flips[w]);
        }
        scratch.sim.set_register_words(&scratch.regs);
        scratch.inputs.fill([0; W]);
        drive_bits(&mut scratch.inputs, &row.input, active);
        scratch.sim.step_into(&scratch.inputs, &mut scratch.outputs);
        self.stepped.add(1);
        self.classified.add(1);
        let regs = scratch.sim.register_words();
        let mut chunk = Chunk {
            detected: [0; W],
            settled: [0; W],
            hijack: [0; W],
            post: Vec::new(),
        };
        let mut unsettled = false;
        for (w, &active) in active.iter().enumerate() {
            let det = oracle.detected_word(w, regs, &scratch.outputs);
            let (detected, hijack) = oracle.classify_word(det, row.expected, w, active, regs);
            let settled = active & !detected & same_regs(regs, &row.post, w);
            chunk.detected[w] = detected;
            chunk.settled[w] = settled;
            chunk.hijack[w] = hijack;
            unsettled |= active & !detected & !settled != 0;
        }
        if unsettled {
            chunk.post = regs.to_vec();
        }
        chunk
    }
}

/// Whether only the register flips of `sc`'s faults are armed on one
/// cycle: a `Permanent` scenario longer than one cycle arms its net and
/// pin faults on every cycle. Every fault of a one-cycle scenario is
/// armed exactly once, whatever its timing.
pub(crate) fn registers_only(sc: &Scenario) -> bool {
    sc.cycles() > 1 && !matches!(sc.timing, FaultTiming::Transient(_))
}

/// The lanes of word `w` whose registers equal the packed `bits`.
pub(crate) fn same_regs<const W: usize>(regs: &[[u64; W]], bits: &[u64], w: usize) -> u64 {
    regs.iter().enumerate().fold(!0, |same, (j, reg)| {
        same & if bit_at(bits, j) { reg[w] } else { !reg[w] }
    })
}
