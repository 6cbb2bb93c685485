//! Cell histograms and logic-depth metrics.

use std::collections::BTreeMap;
use std::fmt;

use crate::ir::{CellKind, Module};

/// Structural statistics of a [`Module`].
///
/// # Example
///
/// ```
/// use scfi_netlist::{ModuleBuilder, ModuleStats};
///
/// let mut b = ModuleBuilder::new("m");
/// let a = b.input("a");
/// let x = b.input("x");
/// let y = b.xor2(a, x);
/// b.output("y", y);
/// let stats = ModuleStats::of(&b.finish().expect("valid"));
/// assert_eq!(stats.gate_count(), 1);
/// assert_eq!(stats.depth(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleStats {
    name: String,
    counts: BTreeMap<&'static str, usize>,
    n_cells: usize,
    n_inputs: usize,
    n_outputs: usize,
    n_registers: usize,
    depth: usize,
}

impl ModuleStats {
    /// Computes statistics for a module.
    pub fn of(module: &Module) -> ModuleStats {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for cell in module.cells() {
            *counts.entry(cell.kind.mnemonic()).or_insert(0) += 1;
        }
        // Logic depth: sources (inputs/consts/regs) are level 0; every
        // combinational cell except Buf adds one level.
        let mut level = vec![0usize; module.len()];
        let mut depth = 0usize;
        for &c in module.topo_order() {
            let cell = module.cell(c);
            let in_max = cell
                .pins
                .iter()
                .map(|p| level[p.index()])
                .max()
                .unwrap_or(0);
            let own = if matches!(cell.kind, CellKind::Buf) {
                in_max
            } else {
                in_max + 1
            };
            level[c.index()] = own;
            depth = depth.max(own);
        }
        // Register data inputs also bound the critical path.
        for &r in module.registers() {
            depth = depth.max(level[module.cell(r).pins[0].index()]);
        }
        ModuleStats {
            name: module.name().to_string(),
            counts,
            n_cells: module.len(),
            n_inputs: module.inputs().len(),
            n_outputs: module.outputs().len(),
            n_registers: module.registers().len(),
            depth,
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Count of cells with the given mnemonic (see
    /// [`CellKind::mnemonic`]).
    pub fn count(&self, mnemonic: &str) -> usize {
        self.counts.get(mnemonic).copied().unwrap_or(0)
    }

    /// All mnemonic → count pairs, sorted by mnemonic.
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Combinational + sequential gates (everything except input ports and
    /// constants).
    pub fn gate_count(&self) -> usize {
        self.n_cells - self.count("input") - self.count("const0") - self.count("const1")
    }

    /// Number of input ports.
    pub fn input_count(&self) -> usize {
        self.n_inputs
    }

    /// Number of output ports.
    pub fn output_count(&self) -> usize {
        self.n_outputs
    }

    /// Number of flip-flops.
    pub fn register_count(&self) -> usize {
        self.n_registers
    }

    /// Longest combinational path, counted in logic levels (buffers free).
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl fmt::Display for ModuleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} cells ({} gates, {} regs), depth {}",
            self.name,
            self.n_cells,
            self.gate_count(),
            self.n_registers,
            self.depth
        )?;
        for (k, v) in &self.counts {
            writeln!(f, "  {k:>7} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModuleBuilder;

    #[test]
    fn histogram_and_depth() {
        let mut b = ModuleBuilder::new("m");
        let w = b.input_word("w", 4);
        let x = b.xor_all(&w); // 3 xors, depth 2 (balanced)
        let q = b.dff_uninit(false);
        let d = b.and2(x, q);
        b.set_dff_input(q, d);
        b.output("x", x);
        let m = b.finish().unwrap();
        let s = ModuleStats::of(&m);
        assert_eq!(s.count("xor"), 3);
        assert_eq!(s.count("and"), 1);
        assert_eq!(s.count("input"), 4);
        assert_eq!(s.register_count(), 1);
        assert_eq!(s.depth(), 3); // xor tree (2) + and (1)
        assert_eq!(s.gate_count(), 5); // 3 xor + 1 and + 1 dff
        assert_eq!(s.input_count(), 4);
        assert_eq!(s.output_count(), 1);
    }

    #[test]
    fn buffers_are_depth_free() {
        let mut b = ModuleBuilder::new("bufs");
        let a = b.input("a");
        let b1 = b.buf(a);
        let b2 = b.buf(b1);
        let y = b.not(b2);
        b.output("y", y);
        let s = ModuleStats::of(&b.finish().unwrap());
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn empty_module_stats() {
        let b = ModuleBuilder::new("empty");
        let s = ModuleStats::of(&b.finish().unwrap());
        assert_eq!(s.depth(), 0);
        assert_eq!(s.gate_count(), 0);
    }

    #[test]
    fn display_contains_name_and_counts() {
        let mut b = ModuleBuilder::new("shown");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let s = ModuleStats::of(&b.finish().unwrap());
        let text = s.to_string();
        assert!(text.contains("shown"));
        assert!(text.contains("not"));
    }

    #[test]
    fn counts_iterator_is_sorted() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.xor2(a, c);
        let y = b.and2(a, x);
        b.output("y", y);
        let s = ModuleStats::of(&b.finish().unwrap());
        let keys: Vec<&str> = s.counts().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
