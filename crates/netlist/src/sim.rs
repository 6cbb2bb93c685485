//! Cycle-accurate two-phase simulation with fault hooks.

use std::collections::{HashMap, HashSet};

use crate::ir::{CellId, CellKind, Module, NetId};

/// Deterministic clocked simulator for a [`Module`].
///
/// Each [`Simulator::step`] models one clock cycle: inputs are applied, the
/// combinational network settles (topological evaluation), outputs are
/// sampled, and then every flip-flop captures its data input.
///
/// # Fault hooks
///
/// The simulator implements the paper's fault model (§3): transient
/// bit-flips and permanent stuck-at effects, spatially located on wires
/// (nets), on combinational/sequential cells (a fault on a cell manifests on
/// its output net), on individual cell input pins, or directly in the state
/// registers. Temporal placement is up to the caller: arm a transient fault,
/// run the target cycle, then clear it.
///
/// # Example
///
/// ```
/// use scfi_netlist::{ModuleBuilder, Simulator};
///
/// let mut b = ModuleBuilder::new("pass");
/// let a = b.input("a");
/// let y = b.buf(a);
/// b.output("y", y);
/// let m = b.finish().expect("valid");
///
/// let mut sim = Simulator::new(&m);
/// assert_eq!(sim.step(&[true]), vec![true]);
/// sim.set_net_stuck(y, false); // stuck-at-0 on the output wire
/// assert_eq!(sim.step(&[true]), vec![false]);
/// ```
#[derive(Debug)]
pub struct Simulator<'m> {
    module: &'m Module,
    /// Per-net evaluation scratch, rewritten every cycle.
    values: Vec<bool>,
    /// Stored state per register, parallel to `module.registers()`.
    reg_state: Vec<bool>,
    cycle: u64,
    net_flip: HashSet<u32>,
    net_stuck: HashMap<u32, bool>,
    pin_flip: HashSet<(u32, u8)>,
    pin_stuck: HashMap<(u32, u8), bool>,
}

impl<'m> Simulator<'m> {
    /// Creates a simulator with all registers at their reset values.
    pub fn new(module: &'m Module) -> Self {
        let reg_state = module
            .registers()
            .iter()
            .map(|&r| match module.cell(r).kind {
                CellKind::Dff { init } => init,
                _ => unreachable!("registers() yields only flip-flops"),
            })
            .collect();
        Simulator {
            module,
            values: vec![false; module.len()],
            reg_state,
            cycle: 0,
            net_flip: HashSet::new(),
            net_stuck: HashMap::new(),
            pin_flip: HashSet::new(),
            pin_stuck: HashMap::new(),
        }
    }

    /// The module under simulation.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// Completed clock cycles since construction or the last
    /// [`Simulator::reset`].
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Returns registers to their reset values and restarts the cycle
    /// counter. Fault state is preserved (clear it separately with
    /// [`Simulator::clear_faults`]).
    pub fn reset(&mut self) {
        for (i, &r) in self.module.registers().iter().enumerate() {
            self.reg_state[i] = match self.module.cell(r).kind {
                CellKind::Dff { init } => init,
                _ => unreachable!(),
            };
        }
        self.cycle = 0;
    }

    /// Overwrites all register state and restarts the cycle counter — the
    /// cheap way to reuse one simulator across many campaign injections
    /// instead of paying [`Simulator::new`] allocation per injection.
    /// Armed faults are preserved (pair with [`Simulator::clear_faults`]).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn reset_to(&mut self, regs: &[bool]) {
        self.set_register_values(regs);
        self.cycle = 0;
    }

    fn apply_net_fault(&self, net: u32, raw: bool) -> bool {
        let mut v = raw;
        if let Some(&s) = self.net_stuck.get(&net) {
            v = s;
        }
        if self.net_flip.contains(&net) {
            v = !v;
        }
        v
    }

    fn read_pin(&self, cell: u32, pin: usize, net: NetId) -> bool {
        let mut v = self.values[net.index()];
        if let Some(&s) = self.pin_stuck.get(&(cell, pin as u8)) {
            v = s;
        }
        if self.pin_flip.contains(&(cell, pin as u8)) {
            v = !v;
        }
        v
    }

    /// Advances one clock cycle and returns the output port values (port
    /// order), sampled after combinational settling and before the register
    /// update.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the module's input count.
    pub fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.module.outputs().len());
        self.step_into(inputs, &mut out);
        out
    }

    /// Allocation-free variant of [`Simulator::step`]: samples the output
    /// ports into `outputs` (cleared first) instead of returning a fresh
    /// `Vec`. This is the hot-loop entry point for fault campaigns.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the module's input count.
    pub fn step_into(&mut self, inputs: &[bool], outputs: &mut Vec<bool>) {
        self.eval_comb(inputs);
        self.sample_outputs_into(outputs);
        self.commit_registers();
        self.cycle += 1;
    }

    /// Evaluates the combinational network for the current cycle without
    /// committing registers — useful for probing intermediate nets.
    pub fn eval_comb(&mut self, inputs: &[bool]) {
        let m = self.module;
        assert_eq!(
            inputs.len(),
            m.inputs().len(),
            "input count mismatch: got {}, module has {}",
            inputs.len(),
            m.inputs().len()
        );
        // Phase 0: source nets (inputs, constants, register outputs).
        for (&net, &v) in m.inputs().iter().zip(inputs) {
            self.values[net.index()] = self.apply_net_fault(net.0, v);
        }
        for (i, cell) in m.cells().iter().enumerate() {
            if let CellKind::Const(c) = cell.kind {
                self.values[i] = self.apply_net_fault(i as u32, c);
            }
        }
        for (ri, &r) in m.registers().iter().enumerate() {
            self.values[r.index()] = self.apply_net_fault(r.0, self.reg_state[ri]);
        }
        // Phase 1: combinational settle in topological order.
        for &c in m.topo_order() {
            let cell = m.cell(c);
            let raw = match cell.kind {
                CellKind::Buf => self.read_pin(c.0, 0, cell.pins[0]),
                CellKind::Not => !self.read_pin(c.0, 0, cell.pins[0]),
                CellKind::And => {
                    self.read_pin(c.0, 0, cell.pins[0]) & self.read_pin(c.0, 1, cell.pins[1])
                }
                CellKind::Or => {
                    self.read_pin(c.0, 0, cell.pins[0]) | self.read_pin(c.0, 1, cell.pins[1])
                }
                CellKind::Xor => {
                    self.read_pin(c.0, 0, cell.pins[0]) ^ self.read_pin(c.0, 1, cell.pins[1])
                }
                CellKind::Nand => {
                    !(self.read_pin(c.0, 0, cell.pins[0]) & self.read_pin(c.0, 1, cell.pins[1]))
                }
                CellKind::Nor => {
                    !(self.read_pin(c.0, 0, cell.pins[0]) | self.read_pin(c.0, 1, cell.pins[1]))
                }
                CellKind::Xnor => {
                    !(self.read_pin(c.0, 0, cell.pins[0]) ^ self.read_pin(c.0, 1, cell.pins[1]))
                }
                CellKind::Mux => {
                    let sel = self.read_pin(c.0, 0, cell.pins[0]);
                    if sel {
                        self.read_pin(c.0, 2, cell.pins[2])
                    } else {
                        self.read_pin(c.0, 1, cell.pins[1])
                    }
                }
                CellKind::Input | CellKind::Const(_) | CellKind::Dff { .. } => {
                    unreachable!("topo order contains only combinational cells")
                }
            };
            self.values[c.index()] = self.apply_net_fault(c.0, raw);
        }
    }

    /// Samples the output ports after [`Simulator::eval_comb`] into `out`
    /// (cleared first) without allocating.
    pub fn sample_outputs_into(&self, out: &mut Vec<bool>) {
        out.clear();
        out.extend(
            self.module
                .outputs()
                .iter()
                .map(|&(_, net)| self.values[net.index()]),
        );
    }

    /// Commits every flip-flop's data input into its state, in place.
    ///
    /// The data inputs are read from the settled net values (never from
    /// `reg_state` itself), so the commit needs no intermediate buffer.
    pub fn commit_registers(&mut self) {
        let m = self.module;
        for (i, &r) in m.registers().iter().enumerate() {
            let v = self.read_pin(r.0, 0, m.cell(r).pins[0]);
            self.reg_state[i] = v;
        }
    }

    /// Current stored register values, in `module.registers()` order.
    pub fn register_values(&self) -> &[bool] {
        &self.reg_state
    }

    /// Overwrites all register state at once (e.g. to start a scenario in a
    /// given FSM state).
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
        self.reg_state.copy_from_slice(values);
    }

    /// Flips one stored register bit in place — a direct FT1 fault into the
    /// state register.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a flip-flop of this module.
    pub fn flip_register(&mut self, reg: CellId) {
        let idx = self
            .module
            .register_position(reg)
            .unwrap_or_else(|| panic!("{reg:?} is not a register"));
        self.reg_state[idx] = !self.reg_state[idx];
    }

    // ----- fault plumbing ----------------------------------------------------

    /// Arms a transient bit-flip on a net; active every cycle until cleared.
    pub fn set_net_flip(&mut self, net: NetId) {
        self.net_flip.insert(net.0);
    }

    /// Forces a net to a constant value (stuck-at fault).
    pub fn set_net_stuck(&mut self, net: NetId, value: bool) {
        self.net_stuck.insert(net.0, value);
    }

    /// Removes any fault on a net.
    pub fn clear_net_fault(&mut self, net: NetId) {
        self.net_flip.remove(&net.0);
        self.net_stuck.remove(&net.0);
    }

    /// Arms a transient bit-flip on one input pin of one cell.
    pub fn set_pin_flip(&mut self, cell: CellId, pin: usize) {
        self.pin_flip.insert((cell.0, pin as u8));
    }

    /// Forces one input pin of one cell to a constant value.
    pub fn set_pin_stuck(&mut self, cell: CellId, pin: usize, value: bool) {
        self.pin_stuck.insert((cell.0, pin as u8), value);
    }

    /// Removes all armed faults.
    pub fn clear_faults(&mut self) {
        self.net_flip.clear();
        self.net_stuck.clear();
        self.pin_flip.clear();
        self.pin_stuck.clear();
    }

    /// Returns `true` if any fault is currently armed.
    pub fn has_faults(&self) -> bool {
        !(self.net_flip.is_empty()
            && self.net_stuck.is_empty()
            && self.pin_flip.is_empty()
            && self.pin_stuck.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModuleBuilder;

    /// A 2-bit counter: q1 q0, increments each cycle.
    fn counter() -> Module {
        let mut b = ModuleBuilder::new("counter2");
        let q0 = b.dff_uninit(false);
        let q1 = b.dff_uninit(false);
        let n0 = b.not(q0);
        let n1 = b.xor2(q1, q0);
        b.set_dff_input(q0, n0);
        b.set_dff_input(q1, n1);
        b.output("q0", q0);
        b.output("q1", q1);
        b.finish().unwrap()
    }

    #[test]
    fn counter_counts() {
        let m = counter();
        let mut sim = Simulator::new(&m);
        let seq: Vec<(bool, bool)> = (0..5)
            .map(|_| {
                let o = sim.step(&[]);
                (o[0], o[1])
            })
            .collect();
        assert_eq!(
            seq,
            vec![
                (false, false),
                (true, false),
                (false, true),
                (true, true),
                (false, false)
            ]
        );
        assert_eq!(sim.cycle(), 5);
    }

    #[test]
    fn reset_restores_init() {
        let m = counter();
        let mut sim = Simulator::new(&m);
        sim.step(&[]);
        sim.step(&[]);
        sim.reset();
        assert_eq!(sim.step(&[]), vec![false, false]);
    }

    #[test]
    fn transient_net_flip_lasts_one_armed_cycle() {
        let m = counter();
        let mut sim = Simulator::new(&m);
        let q0 = m.registers()[0].net();
        // Flip q0's *output net* during cycle 0: comb sees q0=1, so next
        // q0 = 0 (not), q1 = 1 (xor).
        sim.set_net_flip(q0);
        let out = sim.step(&[]);
        assert_eq!(out, vec![true, false]); // the flip is visible at the output
        sim.clear_net_fault(q0);
        let out = sim.step(&[]);
        assert_eq!(out, vec![false, true]); // corrupted state persisted
    }

    #[test]
    fn stuck_at_persists() {
        let m = counter();
        let mut sim = Simulator::new(&m);
        let q0 = m.registers()[0].net();
        sim.set_net_stuck(q0, false);
        for _ in 0..4 {
            let out = sim.step(&[]);
            assert!(!out[0], "q0 must read stuck-0");
        }
        assert!(sim.has_faults());
        sim.clear_faults();
        assert!(!sim.has_faults());
    }

    #[test]
    fn pin_fault_affects_only_that_pin() {
        let mut b = ModuleBuilder::new("fan");
        let a = b.input("a");
        let y1 = b.buf(a);
        let y2 = b.buf(a);
        b.output("y1", y1);
        b.output("y2", y2);
        let m = b.finish().unwrap();
        let mut sim = Simulator::new(&m);
        sim.set_pin_flip(y1.cell(), 0);
        assert_eq!(sim.step(&[true]), vec![false, true]);
    }

    #[test]
    fn register_flip_changes_state_directly() {
        let m = counter();
        let mut sim = Simulator::new(&m);
        sim.flip_register(m.registers()[1]); // q1 ^= 1 while in state 00
        assert_eq!(sim.step(&[]), vec![false, true]); // now reads 2
    }

    #[test]
    fn set_register_values_overrides_state() {
        let m = counter();
        let mut sim = Simulator::new(&m);
        sim.set_register_values(&[true, true]);
        assert_eq!(sim.step(&[]), vec![true, true]);
    }

    #[test]
    #[should_panic(expected = "input count mismatch")]
    fn wrong_input_count_panics() {
        let m = counter();
        let mut sim = Simulator::new(&m);
        let _ = sim.step(&[true]);
    }

    #[test]
    fn reset_to_restarts_from_arbitrary_state() {
        let m = counter();
        let mut sim = Simulator::new(&m);
        sim.step(&[]);
        sim.step(&[]);
        sim.reset_to(&[true, true]);
        assert_eq!(sim.cycle(), 0);
        assert_eq!(sim.step(&[]), vec![true, true]);
    }

    #[test]
    fn step_into_matches_step() {
        let m = counter();
        let mut a = Simulator::new(&m);
        let mut b = Simulator::new(&m);
        let mut out = Vec::new();
        for _ in 0..5 {
            b.step_into(&[], &mut out);
            assert_eq!(a.step(&[]), out);
        }
        assert_eq!(a.cycle(), b.cycle());
    }

    #[test]
    fn register_position_identifies_flip_flops() {
        let m = counter();
        for (i, &r) in m.registers().iter().enumerate() {
            assert_eq!(m.register_position(r), Some(i));
        }
        let comb = m.topo_order()[0];
        assert_eq!(m.register_position(comb), None);
    }
}
