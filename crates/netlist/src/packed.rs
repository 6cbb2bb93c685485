//! Word-level, bit-parallel simulation: up to 256 independent fault lanes
//! per pass.
//!
//! The scalar [`Simulator`](crate::Simulator) walks the cell graph pointer
//! by pointer and consults hash maps for fault state on every pin read —
//! fine for debugging one trace, ruinous for the §6.4-style campaigns that
//! run *scenarios × fault sites × effects* full simulations. This module
//! trades that flexibility for throughput:
//!
//! * [`PackedNetlist`] compiles a [`Module`] once into a levelized
//!   struct-of-arrays program: one `(opcode, out, a, b, c)` record per
//!   combinational cell in topological order, plus flat index arrays for
//!   inputs, constants, registers and outputs. No `Vec<NetId>` chasing, no
//!   per-cell `match` on [`CellKind`] in the hot loop. The compiled program
//!   is width-agnostic: one compilation serves simulators of every lane
//!   width.
//! * [`PackedSimulator`]`<W>` evaluates that program over `[u64; W]` net
//!   values — a *wave* of `W` lane words, where bit `l` of word `w` is
//!   lane `64·w + l`'s Boolean. `W` is a compile-time constant in
//!   `{1, 2, 4}` ([`LANES`]` · W` = 64, 128 or 256 independent simulations
//!   per gate operation); the per-word inner loops are fully unrolled and
//!   autovectorize to 128-/256-bit SIMD where the target supports it.
//! * Faults are *precompiled masks*, applied per word with AND/OR/XOR:
//!   every net write is `((raw & keep) | force) ^ flip`, so a lane's
//!   stuck-at or transient flip costs the same three bitwise ops per word
//!   whether zero or all lanes are faulted. Pin faults (which scope a
//!   fault to one fanout branch) are sparse per-operation fixups consumed
//!   by a cursor during the topological sweep — nothing in the loop hashes
//!   anything.
//!
//! Fault semantics are bit-for-bit those of the scalar engine (stuck-at
//! applied before flip, faults visible on source nets, register flips
//! mutating stored state), independently in every lane of every word; the
//! differential property tests in `tests/packed_props.rs` pin the engines
//! against each other lane-by-lane at every width.
//!
//! # Example
//!
//! Two lanes of a toggle flip-flop, with lane 1 holding the enable stuck
//! at 0 (single-word wave, `W = 1`):
//!
//! ```
//! use scfi_netlist::{lane_mask, ModuleBuilder, PackedNetlist, PackedSimulator};
//!
//! let mut b = ModuleBuilder::new("toggle");
//! let en = b.input("en");
//! let q = b.dff_uninit(false);
//! let next = b.xor2(q, en);
//! b.set_dff_input(q, next);
//! b.output("q", q);
//! let module = b.finish().expect("valid netlist");
//!
//! let compiled = PackedNetlist::compile(&module);
//! let mut sim = PackedSimulator::<1>::new(&compiled);
//! sim.set_net_stuck(en, false, lane_mask(1)); // lane 1: enable stuck-at-0
//! let mut out = Vec::new();
//! sim.step_into(&[[!0u64]], &mut out); // enable high in every lane
//! assert_eq!(out[0][0] & 0b11, 0b00); // q sampled before the edge
//! sim.step_into(&[[!0u64]], &mut out);
//! assert_eq!(out[0][0] & 0b11, 0b01); // lane 0 toggled, lane 1 froze
//! ```

use crate::ir::{CellId, CellKind, Module, NetId};

/// Number of independent simulation lanes per lane *word*. A
/// [`PackedSimulator`]`<W>` carries [`LANES`]` · W` lanes per pass (see
/// [`PackedSimulator::LANES`]).
pub const LANES: usize = 64;

const OP_BUF: u8 = 0;
const OP_NOT: u8 = 1;
const OP_AND: u8 = 2;
const OP_OR: u8 = 3;
const OP_XOR: u8 = 4;
const OP_NAND: u8 = 5;
const OP_NOR: u8 = 6;
const OP_XNOR: u8 = 7;
const OP_MUX: u8 = 8;

/// One combinational evaluation step: `values[out] = kind(a, b, c)`.
/// Unused operand slots point at net 0 and are never read by the opcode.
#[derive(Clone, Copy, Debug)]
struct Op {
    kind: u8,
    arity: u8,
    out: u32,
    a: u32,
    b: u32,
    c: u32,
}

/// A [`Module`] compiled into the flat program [`PackedSimulator`]
/// executes. Compile once, then share across any number of simulators of
/// any lane width (e.g. one per worker thread).
#[derive(Clone, Debug)]
pub struct PackedNetlist {
    n_nets: usize,
    /// Combinational cells in topological order.
    ops: Vec<Op>,
    /// Cell index → position in `ops`, `u32::MAX` for non-combinational.
    op_pos: Vec<u32>,
    /// Input port nets, in port order.
    inputs: Vec<u32>,
    /// `(net, broadcast value)` per constant cell.
    consts: Vec<(u32, u64)>,
    /// Register output nets, in `Module::registers()` order.
    reg_nets: Vec<u32>,
    /// Register data-input nets, parallel to `reg_nets`.
    reg_d: Vec<u32>,
    /// Broadcast reset value per register.
    reg_init: Vec<u64>,
    /// Cell index → register position, `u32::MAX` for non-registers.
    reg_pos: Vec<u32>,
    /// Output port nets, in port order.
    outputs: Vec<u32>,
}

impl PackedNetlist {
    /// Compiles `module` into the packed form.
    pub fn compile(module: &Module) -> Self {
        let n = module.len();
        let mut ops = Vec::with_capacity(module.topo_order().len());
        let mut op_pos = vec![u32::MAX; n];
        for &c in module.topo_order() {
            let cell = module.cell(c);
            let kind = match cell.kind {
                CellKind::Buf => OP_BUF,
                CellKind::Not => OP_NOT,
                CellKind::And => OP_AND,
                CellKind::Or => OP_OR,
                CellKind::Xor => OP_XOR,
                CellKind::Nand => OP_NAND,
                CellKind::Nor => OP_NOR,
                CellKind::Xnor => OP_XNOR,
                CellKind::Mux => OP_MUX,
                CellKind::Input | CellKind::Const(_) | CellKind::Dff { .. } => {
                    unreachable!("topo order contains only combinational cells")
                }
            };
            let pin = |i: usize| cell.pins.get(i).map_or(0, |p| p.0);
            op_pos[c.index()] = ops.len() as u32;
            ops.push(Op {
                kind,
                arity: cell.pins.len() as u8,
                out: c.0,
                a: pin(0),
                b: pin(1),
                c: pin(2),
            });
        }
        let mut consts = Vec::new();
        for (i, cell) in module.cells().iter().enumerate() {
            if let CellKind::Const(v) = cell.kind {
                consts.push((i as u32, if v { !0 } else { 0 }));
            }
        }
        let mut reg_nets = Vec::with_capacity(module.registers().len());
        let mut reg_d = Vec::with_capacity(module.registers().len());
        let mut reg_init = Vec::with_capacity(module.registers().len());
        let mut reg_pos = vec![u32::MAX; n];
        for (pos, &r) in module.registers().iter().enumerate() {
            let cell = module.cell(r);
            let init = match cell.kind {
                CellKind::Dff { init } => init,
                _ => unreachable!("registers() yields only flip-flops"),
            };
            reg_pos[r.index()] = pos as u32;
            reg_nets.push(r.0);
            reg_d.push(cell.pins[0].0);
            reg_init.push(if init { !0 } else { 0 });
        }
        PackedNetlist {
            n_nets: n,
            ops,
            op_pos,
            inputs: module.inputs().iter().map(|n| n.0).collect(),
            consts,
            reg_nets,
            reg_d,
            reg_init,
            reg_pos,
            outputs: module.outputs().iter().map(|&(_, n)| n.0).collect(),
        }
    }

    /// Number of nets (= cells) in the compiled module.
    pub fn len(&self) -> usize {
        self.n_nets
    }

    /// Returns `true` for an empty module.
    pub fn is_empty(&self) -> bool {
        self.n_nets == 0
    }

    /// Number of input ports.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output ports.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of flip-flops.
    pub fn register_count(&self) -> usize {
        self.reg_nets.len()
    }
}

/// The lane-selection mask with exactly lane `lane` set: word `lane / 64`,
/// bit `lane % 64`. The building block for arming per-lane faults on a
/// [`PackedSimulator`]`<W>`.
///
/// # Panics
///
/// Panics if `lane >= 64 · W`.
#[inline]
pub fn lane_mask<const W: usize>(lane: usize) -> [u64; W] {
    assert!(lane < LANES * W, "lane {lane} out of range for {W} words");
    let mut mask = [0u64; W];
    mask[lane / LANES] = 1u64 << (lane % LANES);
    mask
}

/// Spreads one lane of a packed wave vector into Booleans: `out[i]` = bit
/// `lane % 64` of word `lane / 64` of `words[i]`. The scratch vector is
/// cleared first, so it can be reused across extractions without
/// reallocating.
///
/// # Panics
///
/// Panics if `lane >= 64 · W`.
pub fn extract_lane<const W: usize>(words: &[[u64; W]], lane: usize, out: &mut Vec<bool>) {
    assert!(lane < LANES * W, "lane {lane} out of range for {W} words");
    let (word, bit) = (lane / LANES, lane % LANES);
    out.clear();
    out.extend(words.iter().map(|w| (w[word] >> bit) & 1 == 1));
}

/// Broadcasts one word value to every word of a wave.
#[inline]
fn splat<const W: usize>(v: u64) -> [u64; W] {
    [v; W]
}

/// Stuck/flip masks for one faulted cell input pin.
#[derive(Clone, Copy, Debug)]
struct PinMasks<const W: usize> {
    keep: [u64; W],
    force: [u64; W],
    flip: [u64; W],
}

impl<const W: usize> Default for PinMasks<W> {
    fn default() -> Self {
        PinMasks {
            keep: [!0; W],
            force: [0; W],
            flip: [0; W],
        }
    }
}

impl<const W: usize> PinMasks<W> {
    #[inline]
    fn apply(&self, v: [u64; W]) -> [u64; W] {
        let mut out = [0u64; W];
        for k in 0..W {
            out[k] = ((v[k] & self.keep[k]) | self.force[k]) ^ self.flip[k];
        }
        out
    }

    fn stuck(&mut self, value: bool, lanes: [u64; W]) {
        for (k, &l) in lanes.iter().enumerate() {
            self.keep[k] &= !l;
            self.force[k] = (self.force[k] & !l) | if value { l } else { 0 };
        }
    }

    fn flip(&mut self, lanes: [u64; W]) {
        for (k, &l) in lanes.iter().enumerate() {
            self.flip[k] |= l;
        }
    }
}

/// Multi-word wave simulator over a [`PackedNetlist`]: `64 · W`
/// independent lanes per pass.
///
/// Each lane is one independent simulation of the same module: lanes share
/// the clock and the netlist but have their own register state, inputs and
/// faults. Net values are `[u64; W]` waves; lane `l` lives in bit `l % 64`
/// of word `l / 64` (see [`lane_mask`] / [`extract_lane`]). All
/// fault-arming methods take a `lanes` wave mask selecting which lanes the
/// fault applies to ([`lane_mask`]`(l)` for one lane, `[!0; W]` for all).
///
/// `W` must be in `{1, 2, 4}` — widths are compile-time so the
/// per-word loops unroll. Wider waves stop paying: the per-net working
/// set outgrows L1/L2 while the per-wave occupancy win flattens out.
///
/// The two-phase cycle semantics match the scalar
/// [`Simulator`](crate::Simulator) exactly: inputs applied, combinational
/// settle in topological order, outputs sampled, registers committed.
/// Stuck-at faults are applied before transient flips on every net and pin,
/// as in the scalar engine.
///
/// # Example
///
/// A 128-lane (`W = 2`) round trip: preload per-lane register state, step
/// once, and read one lane back out of the wave — here lane 100, which
/// lives in word 1:
///
/// ```
/// use scfi_netlist::{extract_lane, lane_mask, ModuleBuilder, PackedNetlist, PackedSimulator};
///
/// let mut b = ModuleBuilder::new("toggle");
/// let en = b.input("en");
/// let q = b.dff_uninit(false);
/// let next = b.xor2(q, en);
/// b.set_dff_input(q, next);
/// b.output("q", q);
/// let module = b.finish().expect("valid netlist");
///
/// let compiled = PackedNetlist::compile(&module);
/// let mut sim = PackedSimulator::<2>::new(&compiled);
/// sim.set_register_words(&[lane_mask(100)]); // q starts high in lane 100 only
/// let mut out = Vec::new();
/// sim.step_into(&[[!0u64; 2]], &mut out); // enable high everywhere
/// let mut bits = Vec::new();
/// extract_lane(&out, 100, &mut bits);
/// assert_eq!(bits, [true]); // lane 100 sampled its preloaded high...
/// extract_lane(sim.register_words(), 100, &mut bits);
/// assert_eq!(bits, [false]); // ...then toggled low at the clock edge
/// extract_lane(sim.register_words(), 0, &mut bits);
/// assert_eq!(bits, [true]); // lane 0 toggled the other way
/// ```
#[derive(Debug)]
pub struct PackedSimulator<'p, const W: usize = 1> {
    net: &'p PackedNetlist,
    /// Per-net lane waves, rewritten every cycle.
    values: Vec<[u64; W]>,
    /// Stored state per register, parallel to `PackedNetlist::reg_nets`.
    reg_state: Vec<[u64; W]>,
    /// Per-net stuck-at keep mask (`[!0; W]` = no stuck lanes).
    keep: Vec<[u64; W]>,
    /// Per-net stuck-at force mask.
    force: Vec<[u64; W]>,
    /// Per-net transient flip mask.
    flip: Vec<[u64; W]>,
    /// Nets whose masks deviate from the defaults — lets
    /// [`PackedSimulator::clear_faults`] reset in O(faults), not O(nets).
    dirty: Vec<u32>,
    /// Faulted combinational input pins, sorted by op position before
    /// evaluation and consumed by a cursor during the sweep.
    op_faults: Vec<(u32, u8, PinMasks<W>)>,
    op_faults_sorted: bool,
    /// Faulted register data pins, keyed by register position.
    reg_faults: Vec<(u32, PinMasks<W>)>,
    cycle: u64,
}

impl<'p, const W: usize> PackedSimulator<'p, W> {
    /// Total independent lanes per pass: `64 · W`.
    pub const LANES: usize = LANES * W;

    /// Creates a simulator with every lane's registers at their reset
    /// values.
    pub fn new(net: &'p PackedNetlist) -> Self {
        assert!(
            matches!(W, 1 | 2 | 4),
            "lane-word count {W} outside the supported {{1, 2, 4}}"
        );
        PackedSimulator {
            net,
            values: vec![[0; W]; net.n_nets],
            reg_state: net.reg_init.iter().map(|&v| splat(v)).collect(),
            keep: vec![[!0; W]; net.n_nets],
            force: vec![[0; W]; net.n_nets],
            flip: vec![[0; W]; net.n_nets],
            dirty: Vec::new(),
            op_faults: Vec::new(),
            op_faults_sorted: true,
            reg_faults: Vec::new(),
            cycle: 0,
        }
    }

    /// The compiled netlist under simulation.
    pub fn netlist(&self) -> &'p PackedNetlist {
        self.net
    }

    /// Completed clock cycles since construction or the last reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Returns every lane's registers to their reset values and restarts
    /// the cycle counter. Fault state is preserved (clear it separately
    /// with [`PackedSimulator::clear_faults`]).
    pub fn reset(&mut self) {
        for (w, &init) in self.reg_state.iter_mut().zip(&self.net.reg_init) {
            *w = splat(init);
        }
        self.cycle = 0;
    }

    /// Stored register waves, in `Module::registers()` order; lane `l` of
    /// wave `i` is lane `l`'s register `i`.
    pub fn register_words(&self) -> &[[u64; W]] {
        &self.reg_state
    }

    /// Overwrites all register state with per-lane waves and restarts the
    /// cycle counter.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn set_register_words(&mut self, words: &[[u64; W]]) {
        assert_eq!(words.len(), self.reg_state.len(), "register count mismatch");
        self.reg_state.copy_from_slice(words);
        self.cycle = 0;
    }

    /// Broadcasts one scalar register state to every lane.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn set_register_values(&mut self, values: &[bool]) {
        assert_eq!(
            values.len(),
            self.reg_state.len(),
            "register count mismatch"
        );
        for (w, &v) in self.reg_state.iter_mut().zip(values) {
            *w = splat(if v { !0 } else { 0 });
        }
        self.cycle = 0;
    }

    /// Flips one stored register bit in the selected lanes — the packed
    /// form of [`Simulator::flip_register`](crate::Simulator::flip_register).
    /// Flipping the same lanes twice cancels, exactly as two scalar flips
    /// would.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a flip-flop of this module.
    pub fn flip_register(&mut self, reg: CellId, lanes: [u64; W]) {
        let pos = self.net.reg_pos[reg.index()];
        assert!(pos != u32::MAX, "{reg:?} is not a register");
        let w = &mut self.reg_state[pos as usize];
        for k in 0..W {
            w[k] ^= lanes[k];
        }
    }

    // ----- fault plumbing ------------------------------------------------

    fn touch(&mut self, net: u32) {
        let n = net as usize;
        if self.keep[n] == [!0; W] && self.force[n] == [0; W] && self.flip[n] == [0; W] {
            self.dirty.push(net);
        }
    }

    /// Arms a transient bit-flip on a net in the selected lanes; active
    /// every cycle until cleared. Re-arming the same lanes is idempotent,
    /// like the scalar engine's fault set.
    pub fn set_net_flip(&mut self, net: NetId, lanes: [u64; W]) {
        self.touch(net.0);
        let f = &mut self.flip[net.index()];
        for k in 0..W {
            f[k] |= lanes[k];
        }
    }

    /// Forces a net to a constant value in the selected lanes (stuck-at
    /// fault). A later stuck on overlapping lanes wins, like the scalar
    /// engine's map insert.
    pub fn set_net_stuck(&mut self, net: NetId, value: bool, lanes: [u64; W]) {
        self.touch(net.0);
        let n = net.index();
        for (k, &l) in lanes.iter().enumerate() {
            self.keep[n][k] &= !l;
            self.force[n][k] = (self.force[n][k] & !l) | if value { l } else { 0 };
        }
    }

    /// Finds or creates the pin-mask entry backing `(cell, pin)`, or
    /// `None` when the pin does not exist on this cell — in which case the
    /// fault has no observable effect, matching the scalar engine.
    fn pin_entry(&mut self, cell: CellId, pin: usize) -> Option<&mut PinMasks<W>> {
        let reg = self.net.reg_pos[cell.index()];
        if reg != u32::MAX {
            if pin != 0 {
                return None; // flip-flops read only pin 0
            }
            if let Some(i) = self.reg_faults.iter().position(|&(r, _)| r == reg) {
                return Some(&mut self.reg_faults[i].1);
            }
            self.reg_faults.push((reg, PinMasks::default()));
            return Some(&mut self.reg_faults.last_mut().expect("just pushed").1);
        }
        let pos = self.net.op_pos[cell.index()];
        if pos == u32::MAX || pin >= self.net.ops[pos as usize].arity as usize {
            return None; // inputs/constants have no pins; out-of-range pin
        }
        let pin = pin as u8;
        if let Some(i) = self
            .op_faults
            .iter()
            .position(|&(p, q, _)| p == pos && q == pin)
        {
            return Some(&mut self.op_faults[i].2);
        }
        self.op_faults.push((pos, pin, PinMasks::default()));
        self.op_faults_sorted = false;
        Some(&mut self.op_faults.last_mut().expect("just pushed").2)
    }

    /// Arms a transient bit-flip on one input pin of one cell in the
    /// selected lanes.
    pub fn set_pin_flip(&mut self, cell: CellId, pin: usize, lanes: [u64; W]) {
        if let Some(e) = self.pin_entry(cell, pin) {
            e.flip(lanes);
        }
    }

    /// Forces one input pin of one cell to a constant value in the
    /// selected lanes.
    pub fn set_pin_stuck(&mut self, cell: CellId, pin: usize, value: bool, lanes: [u64; W]) {
        if let Some(e) = self.pin_entry(cell, pin) {
            e.stuck(value, lanes);
        }
    }

    /// Removes all armed faults in every lane, in time proportional to the
    /// number of faulted sites (not the netlist size) — waves of a
    /// campaign re-arm from a clean slate without paying O(nets).
    pub fn clear_faults(&mut self) {
        for &n in &self.dirty {
            let n = n as usize;
            self.keep[n] = [!0; W];
            self.force[n] = [0; W];
            self.flip[n] = [0; W];
        }
        self.dirty.clear();
        self.op_faults.clear();
        self.op_faults_sorted = true;
        self.reg_faults.clear();
    }

    /// Returns `true` if any fault is armed in any lane.
    pub fn has_faults(&self) -> bool {
        !(self.dirty.is_empty() && self.op_faults.is_empty() && self.reg_faults.is_empty())
    }

    // ----- evaluation ----------------------------------------------------

    #[inline]
    fn apply_net(&self, net: usize, raw: [u64; W]) -> [u64; W] {
        let (keep, force, flip) = (&self.keep[net], &self.force[net], &self.flip[net]);
        let mut out = [0u64; W];
        for k in 0..W {
            out[k] = ((raw[k] & keep[k]) | force[k]) ^ flip[k];
        }
        out
    }

    /// Evaluates the combinational network for the current cycle without
    /// committing registers. `inputs[i]` carries the lane wave of input
    /// port `i`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the module's input count.
    pub fn eval_comb(&mut self, inputs: &[[u64; W]]) {
        assert_eq!(
            inputs.len(),
            self.net.inputs.len(),
            "input count mismatch: got {}, module has {}",
            inputs.len(),
            self.net.inputs.len()
        );
        if !self.op_faults_sorted {
            self.op_faults.sort_by_key(|&(pos, pin, _)| (pos, pin));
            self.op_faults_sorted = true;
        }
        // Phase 0: source nets (inputs, constants, register outputs).
        for (i, &w) in inputs.iter().enumerate() {
            let n = self.net.inputs[i] as usize;
            self.values[n] = self.apply_net(n, w);
        }
        for &(n, w) in &self.net.consts {
            let n = n as usize;
            self.values[n] = self.apply_net(n, splat(w));
        }
        for (ri, &n) in self.net.reg_nets.iter().enumerate() {
            let n = n as usize;
            self.values[n] = self.apply_net(n, self.reg_state[ri]);
        }
        // Phase 1: combinational settle. One bitwise op per gate and word,
        // with the sparse pin-fault list consumed by a cursor as positions
        // pass. The `0..W` loops unroll (W is a compile-time constant).
        let mut cursor = 0usize;
        for (i, op) in self.net.ops.iter().enumerate() {
            let mut a = self.values[op.a as usize];
            let mut b = self.values[op.b as usize];
            let mut c = self.values[op.c as usize];
            while cursor < self.op_faults.len() && self.op_faults[cursor].0 == i as u32 {
                let (_, pin, masks) = self.op_faults[cursor];
                match pin {
                    0 => a = masks.apply(a),
                    1 => b = masks.apply(b),
                    _ => c = masks.apply(c),
                }
                cursor += 1;
            }
            // `op.kind` is loop-invariant, so the unrolled per-word loop
            // keeps a single opcode dispatch per gate.
            let mut raw = [0u64; W];
            for k in 0..W {
                raw[k] = match op.kind {
                    OP_BUF => a[k],
                    OP_NOT => !a[k],
                    OP_AND => a[k] & b[k],
                    OP_OR => a[k] | b[k],
                    OP_XOR => a[k] ^ b[k],
                    OP_NAND => !(a[k] & b[k]),
                    OP_NOR => !(a[k] | b[k]),
                    OP_XNOR => !(a[k] ^ b[k]),
                    _ => (a[k] & c[k]) | (!a[k] & b[k]), // mux: a = sel, b = on_false, c = on_true
                };
            }
            let n = op.out as usize;
            self.values[n] = self.apply_net(n, raw);
        }
    }

    /// Samples the output ports into `out` (cleared first); `out[i]`
    /// carries the lane wave of output port `i`.
    pub fn sample_outputs_into(&self, out: &mut Vec<[u64; W]>) {
        out.clear();
        out.extend(self.net.outputs.iter().map(|&n| self.values[n as usize]));
    }

    /// Commits every flip-flop's data input into its state, applying any
    /// armed register-pin faults.
    pub fn commit_registers(&mut self) {
        for (ri, &d) in self.net.reg_d.iter().enumerate() {
            self.reg_state[ri] = self.values[d as usize];
        }
        for &(reg, masks) in &self.reg_faults {
            let w = &mut self.reg_state[reg as usize];
            *w = masks.apply(*w);
        }
    }

    /// Advances one clock cycle: combinational settle, output sample into
    /// `outputs`, register commit — the packed equivalent of the scalar
    /// [`Simulator::step`](crate::Simulator::step).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the module's input count.
    pub fn step_into(&mut self, inputs: &[[u64; W]], outputs: &mut Vec<[u64; W]>) {
        self.eval_comb(inputs);
        self.sample_outputs_into(outputs);
        self.commit_registers();
        self.cycle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModuleBuilder, Simulator};

    /// A 2-bit counter with an enable input.
    fn counter() -> Module {
        let mut b = ModuleBuilder::new("counter2");
        let en = b.input("en");
        let q0 = b.dff_uninit(false);
        let q1 = b.dff_uninit(false);
        let n0 = b.xor2(q0, en);
        let t = b.and2(q0, en);
        let n1 = b.xor2(q1, t);
        b.set_dff_input(q0, n0);
        b.set_dff_input(q1, n1);
        b.output("q0", q0);
        b.output("q1", q1);
        b.finish().unwrap()
    }

    #[test]
    fn lanes_run_independent_input_streams() {
        let m = counter();
        let compiled = PackedNetlist::compile(&m);
        let mut sim = PackedSimulator::<1>::new(&compiled);
        let mut out = Vec::new();
        // Lane 0 counts every cycle, lane 1 never, lane 2 every other.
        let streams: [u64; 4] = [0b101, 0b001, 0b101, 0b001];
        let mut scalar: Vec<(Simulator<'_>, u64)> =
            (0..3).map(|l| (Simulator::new(&m), l)).collect();
        for &w in &streams {
            sim.step_into(&[[w]], &mut out);
            for (s, lane) in scalar.iter_mut() {
                let expect = s.step(&[(w >> *lane) & 1 == 1]);
                let got: Vec<bool> = out.iter().map(|&o| (o[0] >> *lane) & 1 == 1).collect();
                assert_eq!(got, expect, "lane {lane}");
            }
        }
        assert_eq!(sim.cycle(), 4);
    }

    #[test]
    fn lane_masked_faults_stay_in_their_lane() {
        let m = counter();
        let compiled = PackedNetlist::compile(&m);
        let mut sim = PackedSimulator::<1>::new(&compiled);
        let q0 = m.registers()[0].net();
        sim.set_net_stuck(q0, true, lane_mask(5));
        let mut out = Vec::new();
        sim.step_into(&[[!0]], &mut out);
        // Lane 5 reads q0 stuck high immediately; lane 0 reads reset-low.
        assert_eq!((out[0][0] >> 5) & 1, 1);
        assert_eq!(out[0][0] & 1, 0);
        assert!(sim.has_faults());
        sim.clear_faults();
        assert!(!sim.has_faults());
    }

    #[test]
    fn register_flip_double_arm_cancels() {
        let m = counter();
        let compiled = PackedNetlist::compile(&m);
        let mut sim = PackedSimulator::<1>::new(&compiled);
        sim.flip_register(m.registers()[1], [0b11]);
        sim.flip_register(m.registers()[1], [0b10]); // lane 1 flips back
        assert_eq!(sim.register_words()[1], [0b01]);
    }

    #[test]
    fn extract_lane_round_trips() {
        let words = vec![[0b10u64], [0b01u64]];
        let mut bits = Vec::new();
        extract_lane(&words, 0, &mut bits);
        assert_eq!(bits, vec![false, true]);
        extract_lane(&words, 1, &mut bits);
        assert_eq!(bits, vec![true, false]);
    }

    #[test]
    fn lane_mask_addresses_every_word() {
        assert_eq!(lane_mask::<1>(5), [1 << 5]);
        assert_eq!(lane_mask::<2>(64), [0, 1]);
        assert_eq!(lane_mask::<4>(200), [0, 0, 0, 1 << 8]);
        let words = vec![lane_mask::<4>(130)];
        let mut bits = Vec::new();
        extract_lane(&words, 130, &mut bits);
        assert_eq!(bits, vec![true]);
        extract_lane(&words, 131, &mut bits);
        assert_eq!(bits, vec![false]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_mask_rejects_out_of_range_lanes() {
        let _ = lane_mask::<2>(128);
    }

    #[test]
    fn compile_exposes_shape() {
        let m = counter();
        let compiled = PackedNetlist::compile(&m);
        assert_eq!(compiled.len(), m.len());
        assert!(!compiled.is_empty());
        assert_eq!(compiled.input_count(), 1);
        assert_eq!(compiled.output_count(), 2);
        assert_eq!(compiled.register_count(), 2);
    }

    #[test]
    fn pin_fault_on_missing_pin_is_inert() {
        let m = counter();
        let compiled = PackedNetlist::compile(&m);
        let mut sim = PackedSimulator::<1>::new(&compiled);
        let input_cell = m.inputs()[0].cell();
        sim.set_pin_flip(input_cell, 0, [!0]); // inputs have no pins
        sim.set_pin_stuck(m.registers()[0], 3, true, [!0]); // DFFs read pin 0 only
        let mut out = Vec::new();
        sim.step_into(&[[0]], &mut out);
        assert_eq!(out[0], [0]);
        assert_eq!(out[1], [0]);
    }

    #[test]
    #[should_panic(expected = "input count mismatch")]
    fn wrong_input_count_panics() {
        let m = counter();
        let compiled = PackedNetlist::compile(&m);
        let mut sim = PackedSimulator::<1>::new(&compiled);
        sim.eval_comb(&[[0], [0]]);
    }

    /// Multi-cycle fault sequencing: arming a fault for exactly one middle
    /// cycle of a multi-step run (clear + re-arm between `step_into`
    /// calls, as the campaign wave executor does for transient windows)
    /// must match a scalar simulator driven with the same arm/clear
    /// schedule — including the state corruption persisting after the
    /// window closes.
    #[test]
    fn transient_window_re_arming_matches_scalar_across_cycles() {
        let m = counter();
        let compiled = PackedNetlist::compile(&m);
        let mut packed = PackedSimulator::<1>::new(&compiled);
        let mut scalar = Simulator::new(&m);
        let q0 = m.registers()[0].net();
        let fault_cycle = 1;
        let mut out_words = Vec::new();
        let mut out_bits = Vec::new();
        for cycle in 0..4 {
            packed.clear_faults();
            scalar.clear_faults();
            if cycle == fault_cycle {
                packed.set_net_flip(q0, lane_mask(3)); // lane 3 only
                scalar.set_net_flip(q0);
            }
            packed.step_into(&[[!0u64]], &mut out_words);
            let expect = scalar.step(&[true]);
            // Faulted lane 3 tracks the faulted scalar run...
            extract_lane(&out_words, 3, &mut out_bits);
            assert_eq!(out_bits, expect, "cycle {cycle}, faulted lane");
            extract_lane(packed.register_words(), 3, &mut out_bits);
            assert_eq!(out_bits, scalar.register_values(), "cycle {cycle} state");
        }
        // ...while lane 0 never saw the glitch: it followed the fault-free
        // count and diverges from the corrupted trajectory.
        let mut clean = Simulator::new(&m);
        for _ in 0..4 {
            clean.step(&[true]);
        }
        extract_lane(packed.register_words(), 0, &mut out_bits);
        assert_eq!(out_bits, clean.register_values());
        assert_ne!(out_bits, scalar.register_values());
    }

    /// Lanes in different *words* of a W = 4 wave carry independent faults:
    /// a stuck-at in word 0 and a register flip in word 2 must not leak
    /// into each other's lanes, and both must match scalar oracles.
    #[test]
    fn faults_in_different_words_stay_independent() {
        let m = counter();
        let compiled = PackedNetlist::compile(&m);
        let mut sim = PackedSimulator::<4>::new(&compiled);
        let q0 = m.registers()[0].net();
        let stuck_lane = 7; // word 0
        let flip_lane = 150; // word 2
        sim.set_net_stuck(q0, true, lane_mask(stuck_lane));
        sim.flip_register(m.registers()[1], lane_mask(flip_lane));

        let mut stuck_oracle = Simulator::new(&m);
        stuck_oracle.set_net_stuck(q0, true);
        let mut flip_oracle = Simulator::new(&m);
        flip_oracle.flip_register(m.registers()[1]);
        let mut clean_oracle = Simulator::new(&m);

        let mut out = Vec::new();
        let mut bits = Vec::new();
        for cycle in 0..4 {
            sim.step_into(&[[!0u64; 4]], &mut out);
            let expect_stuck = stuck_oracle.step(&[true]);
            let expect_flip = flip_oracle.step(&[true]);
            let expect_clean = clean_oracle.step(&[true]);
            extract_lane(&out, stuck_lane, &mut bits);
            assert_eq!(bits, expect_stuck, "cycle {cycle}: stuck lane");
            extract_lane(&out, flip_lane, &mut bits);
            assert_eq!(bits, expect_flip, "cycle {cycle}: flipped lane");
            // A fault-free lane in yet another word follows the clean run.
            extract_lane(&out, 70, &mut bits);
            assert_eq!(bits, expect_clean, "cycle {cycle}: clean lane");
        }
    }
}
