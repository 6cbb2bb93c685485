//! Incremental netlist construction.

use std::collections::HashMap;

use scfi_gf2::BitVec;

use crate::ir::{validate_cells, Cell, CellKind, Module, NetId, ValidateError};

/// Structural-hashing key: gate kind discriminant plus operand nets
/// (commutative operands normalized to ascending order).
type StrashKey = (u8, u32, u32, u32);

/// Builds a [`Module`] cell by cell.
///
/// The builder hands out [`NetId`]s as logic is emitted and performs the
/// canonicalizations a synthesis front-end would: constant folding for
/// gates fed by constants, `x ^ x = 0`, duplicate-operand collapsing, and
/// **structural hashing** — emitting the same gate over the same operands
/// twice returns the first net instead of a duplicate cell.
///
/// Structural hashing is exactly the optimization the SCFI paper warns
/// about for redundancy countermeasures (§6.4: "a synthesis tool aiming to
/// meet timing and area constraints could weaken the security when
/// optimizing the design"): it would merge replicated next-state logic
/// back into one copy. Call [`ModuleBuilder::strash_barrier`] before
/// emitting each replica to mark it `dont_touch`-style and keep the copies
/// apart.
///
/// Flip-flops are created with [`ModuleBuilder::dff_uninit`] and connected
/// later with [`ModuleBuilder::set_dff_input`], which is how state feedback
/// loops are expressed.
///
/// # Example
///
/// ```
/// use scfi_netlist::ModuleBuilder;
///
/// let mut b = ModuleBuilder::new("majority");
/// let (a, x, c) = (b.input("a"), b.input("b"), b.input("c"));
/// let ab = b.and2(a, x);
/// let ac = b.and2(a, c);
/// let bc = b.and2(x, c);
/// let t = b.or2(ab, ac);
/// let y = b.or2(t, bc);
/// b.output("maj", y);
/// let module = b.finish()?;
/// assert_eq!(module.outputs().len(), 1);
/// # Ok::<(), scfi_netlist::ValidateError>(())
/// ```
#[derive(Debug)]
pub struct ModuleBuilder {
    name: String,
    cells: Vec<Cell>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
    const0: Option<NetId>,
    const1: Option<NetId>,
    strash: HashMap<StrashKey, NetId>,
}

impl ModuleBuilder {
    /// Starts a new module with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            name: name.into(),
            cells: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            const0: None,
            const1: None,
            strash: HashMap::new(),
        }
    }

    fn push(&mut self, kind: CellKind, pins: Vec<NetId>, name: Option<String>) -> NetId {
        let id = NetId(self.cells.len() as u32);
        self.cells.push(Cell { kind, pins, name });
        id
    }

    /// Clears the structural-hashing table. Gates emitted afterwards are
    /// never merged with gates emitted before the barrier — the
    /// `dont_touch` fence that keeps redundant logic replicas physically
    /// separate (cf. paper §6.4 on optimization weakening redundancy).
    pub fn strash_barrier(&mut self) {
        self.strash.clear();
    }

    /// Emits a 2-input gate through the structural-hashing table.
    fn gate2(&mut self, kind: CellKind, a: NetId, b: NetId, commutative: bool) -> NetId {
        let (x, y) = if commutative && b.0 < a.0 {
            (b, a)
        } else {
            (a, b)
        };
        let tag = match kind {
            CellKind::And => 0u8,
            CellKind::Or => 1,
            CellKind::Xor => 2,
            CellKind::Nand => 3,
            CellKind::Nor => 4,
            CellKind::Xnor => 5,
            _ => unreachable!("gate2 handles 2-input gates only"),
        };
        let key = (tag, x.0, y.0, u32::MAX);
        if let Some(&net) = self.strash.get(&key) {
            return net;
        }
        let net = self.push(kind, vec![x, y], None);
        self.strash.insert(key, net);
        net
    }

    /// Declares an input port. Port order = call order.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.push(CellKind::Input, vec![], Some(name.into()));
        self.inputs.push(id);
        id
    }

    /// Declares a vector of input ports named `name[0..width]`, LSB first.
    pub fn input_word(&mut self, name: &str, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]")))
            .collect()
    }

    /// A constant driver (deduplicated per module).
    pub fn constant(&mut self, value: bool) -> NetId {
        let slot = if value {
            &mut self.const1
        } else {
            &mut self.const0
        };
        if let Some(id) = *slot {
            return id;
        }
        let id = NetId(self.cells.len() as u32);
        self.cells.push(Cell {
            kind: CellKind::Const(value),
            pins: vec![],
            name: None,
        });
        if value {
            self.const1 = Some(id);
        } else {
            self.const0 = Some(id);
        }
        id
    }

    fn const_value(&self, net: NetId) -> Option<bool> {
        match self.cells[net.index()].kind {
            CellKind::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Inverter, with constant folding and double-negation elimination.
    pub fn not(&mut self, a: NetId) -> NetId {
        if let Some(v) = self.const_value(a) {
            return self.constant(!v);
        }
        if let CellKind::Not = self.cells[a.index()].kind {
            return self.cells[a.index()].pins[0];
        }
        let key = (6u8, a.0, u32::MAX, u32::MAX);
        if let Some(&net) = self.strash.get(&key) {
            return net;
        }
        let net = self.push(CellKind::Not, vec![a], None);
        self.strash.insert(key, net);
        net
    }

    /// Buffer (identity). Mostly useful as a named probe point.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.push(CellKind::Buf, vec![a], None)
    }

    /// 2-input AND, with folding.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) | (_, Some(false)) => self.constant(false),
            (Some(true), _) => b,
            (_, Some(true)) => a,
            _ if a == b => a,
            _ => self.gate2(CellKind::And, a, b, true),
        }
    }

    /// 2-input OR, with folding.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(true), _) | (_, Some(true)) => self.constant(true),
            (Some(false), _) => b,
            (_, Some(false)) => a,
            _ if a == b => a,
            _ => self.gate2(CellKind::Or, a, b, true),
        }
    }

    /// 2-input XOR, with folding.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) => b,
            (_, Some(false)) => a,
            (Some(true), _) => self.not(b),
            (_, Some(true)) => self.not(a),
            _ if a == b => self.constant(false),
            _ => self.gate2(CellKind::Xor, a, b, true),
        }
    }

    /// 2-input XNOR, with folding.
    pub fn xnor2(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(true), _) => b,
            (_, Some(true)) => a,
            (Some(false), _) => self.not(b),
            (_, Some(false)) => self.not(a),
            _ if a == b => self.constant(true),
            _ => self.gate2(CellKind::Xnor, a, b, true),
        }
    }

    /// 2-input NAND, with folding.
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) | (_, Some(false)) => self.constant(true),
            (Some(true), _) => self.not(b),
            (_, Some(true)) => self.not(a),
            _ => self.gate2(CellKind::Nand, a, b, true),
        }
    }

    /// 2-input NOR, with folding.
    pub fn nor2(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(true), _) | (_, Some(true)) => self.constant(false),
            (Some(false), _) => self.not(b),
            (_, Some(false)) => self.not(a),
            _ => self.gate2(CellKind::Nor, a, b, true),
        }
    }

    /// 2:1 mux: returns `sel ? on_true : on_false`.
    pub fn mux(&mut self, sel: NetId, on_false: NetId, on_true: NetId) -> NetId {
        match self.const_value(sel) {
            Some(false) => on_false,
            Some(true) => on_true,
            None if on_false == on_true => on_false,
            None => {
                let key = (7u8, sel.0, on_false.0, on_true.0);
                if let Some(&net) = self.strash.get(&key) {
                    return net;
                }
                let net = self.push(CellKind::Mux, vec![sel, on_false, on_true], None);
                self.strash.insert(key, net);
                net
            }
        }
    }

    /// Creates a flip-flop whose data input is connected later via
    /// [`ModuleBuilder::set_dff_input`]. Returns the `q` net.
    pub fn dff_uninit(&mut self, init: bool) -> NetId {
        self.push(CellKind::Dff { init }, vec![], None)
    }

    /// Connects the data input of a flip-flop created by
    /// [`ModuleBuilder::dff_uninit`].
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a flip-flop or is already connected.
    pub fn set_dff_input(&mut self, q: NetId, d: NetId) {
        let cell = &mut self.cells[q.index()];
        assert!(
            cell.kind.is_sequential(),
            "set_dff_input target {q:?} is not a flip-flop"
        );
        assert!(cell.pins.is_empty(), "flip-flop {q:?} already connected");
        cell.pins.push(d);
    }

    /// Declares an output port.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    // ----- word-level helpers ------------------------------------------------

    /// AND-reduces a list of nets as a balanced tree. Empty list → const 1.
    pub fn and_all(&mut self, nets: &[NetId]) -> NetId {
        self.reduce(nets, true, Self::and2)
    }

    /// OR-reduces a list of nets as a balanced tree. Empty list → const 0.
    pub fn or_all(&mut self, nets: &[NetId]) -> NetId {
        self.reduce(nets, false, Self::or2)
    }

    /// XOR-reduces a list of nets as a balanced tree. Empty list → const 0.
    pub fn xor_all(&mut self, nets: &[NetId]) -> NetId {
        self.reduce(nets, false, Self::xor2)
    }

    fn reduce(
        &mut self,
        nets: &[NetId],
        empty: bool,
        op: fn(&mut Self, NetId, NetId) -> NetId,
    ) -> NetId {
        if nets.is_empty() {
            return self.constant(empty);
        }
        let mut level = nets.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for chunk in level.chunks(2) {
                if chunk.len() == 2 {
                    next.push(op(self, chunk[0], chunk[1]));
                } else {
                    next.push(chunk[0]);
                }
            }
            level = next;
        }
        level[0]
    }

    /// Word-level 2:1 mux.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn mux_word(&mut self, sel: NetId, on_false: &[NetId], on_true: &[NetId]) -> Vec<NetId> {
        assert_eq!(on_false.len(), on_true.len(), "word width mismatch");
        on_false
            .iter()
            .zip(on_true)
            .map(|(&f, &t)| self.mux(sel, f, t))
            .collect()
    }

    /// A word of constant drivers matching `bits`.
    pub fn const_word(&mut self, bits: &BitVec) -> Vec<NetId> {
        bits.iter().map(|b| self.constant(b)).collect()
    }

    /// Equality comparator between a word and a constant pattern:
    /// `AND_i (word[i] XNOR pattern[i])`, with the XNORs folded into plain
    /// wires/inverters since the pattern is constant.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn eq_const(&mut self, word: &[NetId], pattern: &BitVec) -> NetId {
        assert_eq!(word.len(), pattern.len(), "comparator width mismatch");
        let lits: Vec<NetId> = word
            .iter()
            .enumerate()
            .map(|(i, &w)| if pattern.get(i) { w } else { self.not(w) })
            .collect();
        self.and_all(&lits)
    }

    /// Equality comparator between two words.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn eq_word(&mut self, a: &[NetId], b: &[NetId]) -> NetId {
        assert_eq!(a.len(), b.len(), "comparator width mismatch");
        let bits: Vec<NetId> = a.iter().zip(b).map(|(&x, &y)| self.xnor2(x, y)).collect();
        self.and_all(&bits)
    }

    /// One-hot select: `OR_i (sel[i] AND words[i])`, bitwise. All words must
    /// share a width; `sel.len()` must equal `words.len()`.
    ///
    /// This is the AND–OR array SCFI's modifier-selection stage (Fig. 7,
    /// step 2) lowers to.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn onehot_select(&mut self, sel: &[NetId], words: &[Vec<NetId>]) -> Vec<NetId> {
        assert_eq!(sel.len(), words.len(), "selector count mismatch");
        assert!(!words.is_empty(), "one-hot select needs at least one word");
        let width = words[0].len();
        assert!(words.iter().all(|w| w.len() == width), "ragged words");
        let mut out = Vec::with_capacity(width);
        for bit in 0..width {
            let terms: Vec<NetId> = sel
                .iter()
                .zip(words)
                .map(|(&s, w)| self.and2(s, w[bit]))
                .collect();
            out.push(self.or_all(&terms));
        }
        out
    }

    /// A word of flip-flops initialized to `init`, returned as their `q`
    /// nets. Connect with [`ModuleBuilder::set_dff_word`].
    pub fn dff_word_uninit(&mut self, width: usize, init: &BitVec) -> Vec<NetId> {
        assert_eq!(init.len(), width, "init width mismatch");
        (0..width).map(|i| self.dff_uninit(init.get(i))).collect()
    }

    /// Connects the data inputs of a word of flip-flops.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or if any target is not an unconnected
    /// flip-flop.
    pub fn set_dff_word(&mut self, q: &[NetId], d: &[NetId]) {
        assert_eq!(q.len(), d.len(), "register word width mismatch");
        for (&qn, &dn) in q.iter().zip(d) {
            self.set_dff_input(qn, dn);
        }
    }

    /// Declares an output port per bit of `word`, named `name[i]`.
    pub fn output_word(&mut self, name: &str, word: &[NetId]) {
        for (i, &net) in word.iter().enumerate() {
            self.output(format!("{name}[{i}]"), net);
        }
    }

    /// Number of cells emitted so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if no cells have been emitted.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Validates and freezes the module.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] if any flip-flop is unconnected, a pin
    /// dangles, or the combinational logic contains a cycle.
    pub fn finish(self) -> Result<Module, ValidateError> {
        let topo = validate_cells(&self.cells, &self.outputs)?;
        let registers: Vec<crate::CellId> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(i, _)| crate::CellId(i as u32))
            .collect();
        let mut reg_pos = vec![u32::MAX; self.cells.len()];
        for (pos, r) in registers.iter().enumerate() {
            reg_pos[r.index()] = pos as u32;
        }
        Ok(Module {
            name: self.name,
            cells: self.cells,
            inputs: self.inputs,
            outputs: self.outputs,
            topo,
            registers,
            reg_pos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    #[test]
    fn constant_folding() {
        let mut b = ModuleBuilder::new("fold");
        let one = b.constant(true);
        let zero = b.constant(false);
        let a = b.input("a");
        assert_eq!(b.and2(a, one), a);
        assert_eq!(b.and2(a, zero), zero);
        assert_eq!(b.or2(a, zero), a);
        assert_eq!(b.or2(a, one), one);
        assert_eq!(b.xor2(a, zero), a);
        assert_eq!(b.xor2(a, a), zero);
        assert_eq!(b.and2(a, a), a);
        assert_eq!(b.mux(one, zero, a), a);
        assert_eq!(b.mux(zero, a, one), a);
        // Constants are deduplicated.
        assert_eq!(b.constant(true), one);
    }

    #[test]
    fn truth_tables() {
        let mut b = ModuleBuilder::new("tt");
        let a = b.input("a");
        let c = b.input("b");
        let and = b.and2(a, c);
        let or = b.or2(a, c);
        let xor = b.xor2(a, c);
        let nand = b.nand2(a, c);
        let nor = b.nor2(a, c);
        let xnor = b.xnor2(a, c);
        let not = b.not(a);
        for (n, net) in [
            ("and", and),
            ("or", or),
            ("xor", xor),
            ("nand", nand),
            ("nor", nor),
            ("xnor", xnor),
            ("not", not),
        ] {
            b.output(n, net);
        }
        let m = b.finish().unwrap();
        let mut sim = Simulator::new(&m);
        let table = [
            // a, b → and or xor nand nor xnor not
            (
                [false, false],
                [false, false, false, true, true, true, true],
            ),
            ([false, true], [false, true, true, true, false, false, true]),
            (
                [true, false],
                [false, true, true, true, false, false, false],
            ),
            ([true, true], [true, true, false, false, false, true, false]),
        ];
        for (inp, expect) in table {
            assert_eq!(sim.step(&inp), expect.to_vec(), "inputs {inp:?}");
        }
    }

    #[test]
    fn mux_selects() {
        let mut b = ModuleBuilder::new("mux");
        let s = b.input("s");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.mux(s, a, c);
        b.output("y", y);
        let m = b.finish().unwrap();
        let mut sim = Simulator::new(&m);
        assert_eq!(sim.step(&[false, true, false]), vec![true]); // sel=0 → a
        assert_eq!(sim.step(&[true, true, false]), vec![false]); // sel=1 → b
    }

    #[test]
    fn reductions_are_correct_and_balanced() {
        let mut b = ModuleBuilder::new("red");
        let word = b.input_word("w", 9);
        let all = b.and_all(&word);
        let any = b.or_all(&word);
        let par = b.xor_all(&word);
        b.output("all", all);
        b.output("any", any);
        b.output("par", par);
        let m = b.finish().unwrap();
        let mut sim = Simulator::new(&m);
        let inp = [true, true, false, true, true, true, true, true, true];
        assert_eq!(sim.step(&inp), vec![false, true, false]);
        let ones = [true; 9];
        assert_eq!(sim.step(&ones), vec![true, true, true]);
    }

    #[test]
    fn empty_reductions_are_identities() {
        let mut b = ModuleBuilder::new("empty");
        assert_eq!(b.and_all(&[]), b.constant(true));
        assert_eq!(b.or_all(&[]), b.constant(false));
        assert_eq!(b.xor_all(&[]), b.constant(false));
    }

    #[test]
    fn eq_const_matches_pattern() {
        let mut b = ModuleBuilder::new("cmp");
        let w = b.input_word("w", 4);
        let hit = b.eq_const(&w, &BitVec::from_u64(0b1010, 4));
        b.output("hit", hit);
        let m = b.finish().unwrap();
        let mut sim = Simulator::new(&m);
        assert_eq!(sim.step(&[false, true, false, true]), vec![true]);
        assert_eq!(sim.step(&[true, true, false, true]), vec![false]);
    }

    #[test]
    fn onehot_select_picks_word() {
        let mut b = ModuleBuilder::new("sel");
        let s = b.input_word("s", 2);
        let w0 = b.const_word(&BitVec::from_u64(0b01, 2));
        let w1 = b.const_word(&BitVec::from_u64(0b10, 2));
        let out = b.onehot_select(&s, &[w0, w1]);
        b.output_word("y", &out);
        let m = b.finish().unwrap();
        let mut sim = Simulator::new(&m);
        assert_eq!(sim.step(&[true, false]), vec![true, false]);
        assert_eq!(sim.step(&[false, true]), vec![false, true]);
        // No selector → all-zero output (infective default).
        assert_eq!(sim.step(&[false, false]), vec![false, false]);
    }

    #[test]
    fn unconnected_dff_rejected() {
        let mut b = ModuleBuilder::new("bad");
        let _q = b.dff_uninit(false);
        assert!(matches!(
            b.finish(),
            Err(ValidateError::UnconnectedDff { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut b = ModuleBuilder::new("bad");
        let q = b.dff_uninit(false);
        let a = b.input("a");
        b.set_dff_input(q, a);
        b.set_dff_input(q, a);
    }

    #[test]
    fn strash_merges_identical_gates() {
        let mut b = ModuleBuilder::new("strash");
        let a = b.input("a");
        let c = b.input("b");
        let g1 = b.and2(a, c);
        let g2 = b.and2(c, a); // commutative normalization
        assert_eq!(g1, g2);
        let n1 = b.not(a);
        let n2 = b.not(a);
        assert_eq!(n1, n2);
        let m1 = b.mux(a, c, n1);
        let m2 = b.mux(a, c, n1);
        assert_eq!(m1, m2);
        // Different gates over the same operands stay distinct.
        assert_ne!(b.or2(a, c), g1);
    }

    #[test]
    fn strash_barrier_keeps_replicas_apart() {
        let mut b = ModuleBuilder::new("replicas");
        let a = b.input("a");
        let c = b.input("b");
        let g1 = b.xor2(a, c);
        b.strash_barrier();
        let g2 = b.xor2(a, c);
        assert_ne!(g1, g2, "barrier must prevent cross-replica merging");
    }

    #[test]
    fn double_negation_eliminated() {
        let mut b = ModuleBuilder::new("notnot");
        let a = b.input("a");
        let n = b.not(a);
        assert_eq!(b.not(n), a);
    }

    #[test]
    fn fused_gate_folding() {
        let mut b = ModuleBuilder::new("fused");
        let a = b.input("a");
        let one = b.constant(true);
        let zero = b.constant(false);
        assert_eq!(b.xnor2(a, one), a);
        assert_eq!(b.nand2(a, zero), one);
        assert_eq!(b.nor2(a, one), zero);
        assert_eq!(b.xnor2(a, a), one);
        let na = b.not(a);
        assert_eq!(b.nand2(a, one), na);
        assert_eq!(b.nor2(a, zero), na);
        let x = b.xnor2(a, zero);
        assert_eq!(x, na);
    }
}
