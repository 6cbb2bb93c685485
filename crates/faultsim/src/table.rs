//! The campaign's shared scenario table and transition rows.
//!
//! One [`ScenarioTable`] per packed campaign, shared read-only by its
//! workers, replaces per-wave scenario materialization and lets a wave
//! skip every cycle whose verdict is already known.
//!
//! * **Entries.** A scenario is materialized once per campaign (preload,
//!   per-cycle inputs, the oracle's expected state per cycle), by the first
//!   wave that touches it.
//! * **Trajectories.** On a target with a [`WaveOracle`], a scenario
//!   longer than one cycle also gets its fault-free run: the registers
//!   before every cycle, packed into `u64` words, and the fault-free
//!   verdicts folded into `head(c)` (cycles before `c`) and `tail(c)`
//!   (cycles after `c`). The first wave that needs one runs a packed
//!   fault-free pass over its whole block of `64 · W` scenarios (lanes =
//!   scenarios), classified word-parallel through the oracle. If that
//!   batch panics, the wave's own scenarios are run one at a time, so a
//!   poisoned scenario still fails only the waves that touch it.
//!   One-cycle scenarios and targets without an oracle get none: their
//!   waves run from cycle 0.
//! * **Transition rows.** On an exhaustive work list
//!   ([`WorkList::period`]), every multi-cycle scenario's faults are
//!   armed on one cycle `c` (a register flip at its flip cycle, a net or
//!   pin fault in its `Transient(c)` window). That cycle depends only on
//!   the key — the fault-free registers before `c`, the input word of `c`
//!   and the expected state after `c` (a shadowed edge shares state and
//!   word with the edge that wins the first match, and only the expected
//!   state tells them apart) — and on the fault. A [`Row`] steps each
//!   fault of the list once from its key and records whether it was
//!   detected, is back on the fault-free registers (masked or hijacked on
//!   `c`), or neither. Walks that revisit an edge share its row. A row
//!   costs one full step per `64 · W` faults, so a block asks for one
//!   only where the lane-cycles it decides cover that cost (see
//!   `intern_rows`); a key no walk revisits is simulated in waves instead.
//!
//! Every piece is computed exactly once, under a `OnceLock`: the first
//! wave that needs it computes it and the others wait. What is built is a
//! deterministic function of the admitted waves (which blocks they touch,
//! which chunks of which rows their lanes read), so the work counters are
//! the same at every thread count, and a run that admits no wave builds
//! nothing.

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

use scfi_netlist::{lane_mask, CellId, PackedNetlist, PackedSimulator, LANES};
use scfi_telemetry::{Counter, Telemetry};

use crate::campaign::Outcome;
use crate::oracle::WaveOracle;
use crate::target::{FaultTarget, Scenario};
use crate::wave::{arm_lanes, drive, drive_bits, verdict, WorkList};

/// One worker's packed simulator and word buffers, used by the table
/// passes it runs and by the waves it steps.
pub(crate) struct Scratch<'p, const W: usize> {
    pub(crate) sim: PackedSimulator<'p, W>,
    pub(crate) regs: Vec<[u64; W]>,
    pub(crate) inputs: Vec<[u64; W]>,
    pub(crate) outputs: Vec<[u64; W]>,
    pub(crate) reg_bits: Vec<bool>,
    pub(crate) out_bits: Vec<bool>,
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
        }
    }
}

/// A materialized scenario.
pub(crate) struct Entry {
    pub(crate) sc: Scenario,
    /// `expected[c]` = the oracle codebook index of the fault-free landing
    /// state after cycle `c`; empty when the target has no oracle.
    pub(crate) expected: Vec<usize>,
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

/// Whether bit `j` of the packed `bits` is set.
pub(crate) fn bit_at(bits: &[u64], j: usize) -> bool {
    bits[j / 64] >> (j % 64) & 1 != 0
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
        ScenarioTable {
            target,
            work,
            period: if oracle.is_some() { work.period() } else { 0 },
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
            let expected = match self.oracle {
                Some(_) => (0..sc.cycles())
                    .map(|c| self.target.expected_state(s, c))
                    .collect(),
                None => Vec::new(),
            };
            Entry { sc, expected }
        })
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

    /// Chunk `k` of `row`, computed on first use.
    pub(crate) fn chunk<'r>(
        &self,
        row: &'r Row<W>,
        k: usize,
        scratch: &mut Scratch<'_, W>,
    ) -> &'r Chunk<W> {
        row.chunks[k].get_or_init(|| self.transition(row, k, scratch))
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
            for (lane, e) in entries.iter().enumerate() {
                if c < e.sc.cycles() {
                    let (w, bit) = (lane / LANES, 1u64 << (lane % LANES));
                    let det = oracle.detected_word(w, state, &scratch.outputs);
                    let (d, h) = oracle.classify_word(det, e.expected[c], w, bit, state);
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
        };
        if self.period > 0 {
            block.rows = self.intern_rows(&entries, &block);
        }
        block
    }

    /// The transition row of each lane of `block` longer than one cycle:
    /// the key of the cycle its faults are armed on, shared with every
    /// other scenario that reaches the same key. A row costs one full
    /// step per chunk, so a key gets one only when the lane-cycles it
    /// decides in this block (fault-list length times the cycles left from
    /// the armed one, summed over the block's scenarios with that key)
    /// cover the lanes of those steps; the others are simulated in waves.
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
                (e.sc.cycles() > 1 && c < e.sc.cycles()).then(|| {
                    let start = keys.len();
                    keys.extend_from_slice(Traj { block, lane }.regs(c));
                    pack(&e.sc.inputs[c], &mut keys);
                    keys.push(e.expected[c] as u64);
                    (start..keys.len(), c)
                })
            })
            .collect();
        let mut weight: HashMap<&[u64], usize> = HashMap::new();
        for (e, span) in entries.iter().zip(&spans) {
            if let Some((span, c)) = span {
                *weight.entry(&keys[span.clone()]).or_default() += e.sc.cycles() - c;
            }
        }
        let mut rows = self.rows.lock().expect("no row is built under the lock");
        let mut row_of = |lane: usize, e: &Entry, (span, c): &(Range<usize>, usize)| {
            let key = &keys[span.clone()];
            if self.period * weight[key] < LANES * W * chunks {
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

    /// Computes chunk `k` of `row`: one step per fault of the chunk, each
    /// in its own lane, from the row's key.
    fn transition(&self, row: &Row<W>, k: usize, scratch: &mut Scratch<'_, W>) -> Chunk<W> {
        let oracle = self.oracle().expect("rows are built only with an oracle");
        let lanes = LANES * W;
        let faults = &self.work.period_faults()[k * lanes..(k * lanes + lanes).min(self.period)];
        let active: [u64; W] =
            std::array::from_fn(|w| match faults.len().saturating_sub(w * LANES) {
                0 => 0,
                n if n >= LANES => !0,
                n => (1 << n) - 1,
            });
        scratch.regs.fill([0; W]);
        drive_bits(&mut scratch.regs, &row.pre, active);
        scratch.sim.set_register_words(&scratch.regs);
        scratch.sim.clear_faults();
        for (lane, &fault) in faults.iter().enumerate() {
            arm_lanes(&mut scratch.sim, fault, lane_mask(lane));
        }
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

/// The lanes of word `w` whose registers equal the packed `bits`.
pub(crate) fn same_regs<const W: usize>(regs: &[[u64; W]], bits: &[u64], w: usize) -> u64 {
    regs.iter().enumerate().fold(!0, |same, (j, reg)| {
        same & if bit_at(bits, j) { reg[w] } else { !reg[w] }
    })
}
