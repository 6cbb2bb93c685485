//! Standard-cell area/timing model: the reproduction's stand-in for
//! Nangate45 + Yosys/Cadence Genus (paper §6.1–§6.2).
//!
//! The SCFI evaluation reports **area in gate equivalents (GE)** — cell area
//! normalized so a NAND2 drive-1 cell is 1 GE — and **timing in
//! picoseconds** from synthesis at a target clock period. This crate models
//! both without an external EDA tool:
//!
//! * [`Library`] — a cell library with GE areas, intrinsic delays, and
//!   fanout-load slopes, at three drive strengths; the default
//!   [`Library::nangate45_like`] uses values representative of the
//!   open-source Nangate45 library the paper synthesizes with,
//! * [`MappedModule`] — a technology-mapped netlist with total area,
//!   static timing analysis (critical path, minimum clock period), and
//! * [`MappedModule::size_for_period`] — a greedy critical-path gate sizer
//!   emulating how a synthesis tool trades area for speed as the clock
//!   constraint tightens; sweeping the constraint regenerates the
//!   area–time curves of Fig. 8.
//!
//! Absolute numbers differ from real silicon libraries; all three paper
//! configurations (unprotected / redundancy / SCFI) are mapped with the
//! same model, so the *relative* areas that Table 1 and Fig. 8 report are
//! preserved.
//!
//! # Example
//!
//! ```
//! use scfi_netlist::ModuleBuilder;
//! use scfi_stdcell::Library;
//!
//! let mut b = ModuleBuilder::new("m");
//! let x = b.input("x");
//! let y = b.input("y");
//! let q = b.dff_uninit(false);
//! let s = b.xor2(x, y);
//! let d = b.xor2(s, q);
//! b.set_dff_input(q, d);
//! b.output("q", q);
//! let module = b.finish()?;
//!
//! let lib = Library::nangate45_like();
//! let mapped = lib.map(&module);
//! assert!(mapped.area_ge() > 8.0); // 2 XOR + 1 DFF + overhead
//! assert!(mapped.min_period_ps() > 0.0);
//! # Ok::<(), scfi_netlist::ValidateError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use scfi_netlist::{CellId, CellKind, Module};

/// Drive strength of a mapped cell. Larger drives push fanout loads faster
/// at an area premium.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Drive {
    /// Minimum-size cell.
    #[default]
    X1,
    /// Double drive.
    X2,
    /// Quadruple drive.
    X4,
}

impl Drive {
    /// Area multiplier relative to X1.
    pub fn area_factor(self) -> f64 {
        match self {
            Drive::X1 => 1.0,
            Drive::X2 => 1.4,
            Drive::X4 => 2.1,
        }
    }

    /// Load-delay divisor relative to X1.
    pub fn strength(self) -> f64 {
        match self {
            Drive::X1 => 1.0,
            Drive::X2 => 2.0,
            Drive::X4 => 4.0,
        }
    }

    /// The next larger drive, if any.
    pub fn upsized(self) -> Option<Drive> {
        match self {
            Drive::X1 => Some(Drive::X2),
            Drive::X2 => Some(Drive::X4),
            Drive::X4 => None,
        }
    }
}

/// Timing/area data for one library cell (at drive X1).
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Library cell name, e.g. `"XOR2"`.
    pub name: &'static str,
    /// Area in gate equivalents (NAND2 = 1.0).
    pub area_ge: f64,
    /// Intrinsic propagation delay in picoseconds.
    pub delay_ps: f64,
    /// Additional delay per fanout unit, divided by drive strength.
    pub load_ps_per_fanout: f64,
}

/// A standard-cell library: one [`CellSpec`] per netlist [`CellKind`].
#[derive(Clone, Debug)]
pub struct Library {
    name: String,
    specs: HashMap<&'static str, CellSpec>,
    /// Flip-flop clock-to-Q delay (ps).
    clk_to_q_ps: f64,
    /// Flip-flop setup time (ps).
    setup_ps: f64,
}

impl Library {
    /// A library with GE areas and delays representative of the
    /// open-source Nangate45 library used in the paper's Yosys flow.
    ///
    /// Delays are calibrated so the Table-1 FSM modules reach their
    /// maximum frequency in the paper's Figure-8 sweep window
    /// (3200–6000 ps): an unprotected FSM of ~12 logic levels closes
    /// timing around 300 MHz, as §6.2 reports for Cadence synthesis on a
    /// 300+ MHz design.
    ///
    /// Values (X1 drive): INV 0.67 GE / 70 ps, NAND2 1.0 / 98, NOR2
    /// 1.0 / 112, AND2 1.33 / 140, OR2 1.33 / 154, XOR2 2.0 / 196, XNOR2
    /// 2.0 / 210, MUX2 2.33 / 210, BUF 1.0 / 126, DFF 4.67 GE with 420 ps
    /// clock-to-Q and 280 ps setup, tie cells 0.33 GE.
    pub fn nangate45_like() -> Library {
        let mut specs = HashMap::new();
        for spec in [
            CellSpec {
                name: "TIE",
                area_ge: 0.33,
                delay_ps: 0.0,
                load_ps_per_fanout: 0.0,
            },
            CellSpec {
                name: "BUF",
                area_ge: 1.0,
                delay_ps: 126.0,
                load_ps_per_fanout: 42.0,
            },
            CellSpec {
                name: "INV",
                area_ge: 0.67,
                delay_ps: 70.0,
                load_ps_per_fanout: 56.0,
            },
            CellSpec {
                name: "AND2",
                area_ge: 1.33,
                delay_ps: 140.0,
                load_ps_per_fanout: 63.0,
            },
            CellSpec {
                name: "OR2",
                area_ge: 1.33,
                delay_ps: 154.0,
                load_ps_per_fanout: 70.0,
            },
            CellSpec {
                name: "XOR2",
                area_ge: 2.0,
                delay_ps: 196.0,
                load_ps_per_fanout: 84.0,
            },
            CellSpec {
                name: "NAND2",
                area_ge: 1.0,
                delay_ps: 98.0,
                load_ps_per_fanout: 63.0,
            },
            CellSpec {
                name: "NOR2",
                area_ge: 1.0,
                delay_ps: 112.0,
                load_ps_per_fanout: 70.0,
            },
            CellSpec {
                name: "XNOR2",
                area_ge: 2.0,
                delay_ps: 210.0,
                load_ps_per_fanout: 84.0,
            },
            CellSpec {
                name: "MUX2",
                area_ge: 2.33,
                delay_ps: 210.0,
                load_ps_per_fanout: 84.0,
            },
            CellSpec {
                name: "DFF",
                area_ge: 4.67,
                delay_ps: 0.0,
                load_ps_per_fanout: 70.0,
            },
        ] {
            specs.insert(spec.name, spec);
        }
        Library {
            name: "nangate45-like".to_string(),
            specs,
            clk_to_q_ps: 420.0,
            setup_ps: 280.0,
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Flip-flop clock-to-Q delay.
    pub fn clk_to_q_ps(&self) -> f64 {
        self.clk_to_q_ps
    }

    /// Flip-flop setup time.
    pub fn setup_ps(&self) -> f64 {
        self.setup_ps
    }

    /// The spec implementing a netlist cell kind, or `None` for ports
    /// (which map to no cell).
    pub fn spec_for(&self, kind: &CellKind) -> Option<&CellSpec> {
        let name = match kind {
            CellKind::Input => return None,
            CellKind::Const(_) => "TIE",
            CellKind::Buf => "BUF",
            CellKind::Not => "INV",
            CellKind::And => "AND2",
            CellKind::Or => "OR2",
            CellKind::Xor => "XOR2",
            CellKind::Nand => "NAND2",
            CellKind::Nor => "NOR2",
            CellKind::Xnor => "XNOR2",
            CellKind::Mux => "MUX2",
            CellKind::Dff { .. } => "DFF",
        };
        Some(&self.specs[name])
    }

    /// Technology-maps a module (all cells at X1).
    pub fn map<'l, 'm>(&'l self, module: &'m Module) -> MappedModule<'l, 'm> {
        let drives = vec![Drive::X1; module.len()];
        let mut fanout = vec![0usize; module.len()];
        for cell in module.cells() {
            for pin in &cell.pins {
                fanout[pin.index()] += 1;
            }
        }
        for (_, net) in module.outputs() {
            fanout[net.index()] += 1;
        }
        MappedModule {
            library: self,
            module,
            drives,
            fanout,
        }
    }
}

/// Result of sizing a mapped module for a clock-period target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SizingResult {
    /// Whether the target period was met.
    pub met: bool,
    /// The achieved minimum clock period (ps).
    pub period_ps: f64,
    /// Total area after sizing (GE).
    pub area_ge: f64,
}

/// A technology-mapped module: netlist + per-cell drive assignments.
///
/// Created by [`Library::map`]; query area with
/// [`MappedModule::area_ge`], timing with [`MappedModule::min_period_ps`],
/// and trade area for speed with [`MappedModule::size_for_period`].
#[derive(Clone, Debug)]
pub struct MappedModule<'l, 'm> {
    library: &'l Library,
    module: &'m Module,
    drives: Vec<Drive>,
    fanout: Vec<usize>,
}

impl<'l, 'm> MappedModule<'l, 'm> {
    /// The mapped netlist.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// The library used for mapping.
    pub fn library(&self) -> &'l Library {
        self.library
    }

    /// Total mapped area in gate equivalents.
    pub fn area_ge(&self) -> f64 {
        self.module
            .cells()
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                self.library
                    .spec_for(&c.kind)
                    .map(|s| s.area_ge * self.drives[i].area_factor())
            })
            .sum()
    }

    /// Propagation delay of one mapped cell at its current drive.
    fn cell_delay(&self, idx: usize) -> f64 {
        let cell = &self.module.cells()[idx];
        match self.library.spec_for(&cell.kind) {
            None => 0.0,
            Some(spec) => {
                let load = self.fanout[idx].max(1) as f64;
                spec.delay_ps + spec.load_ps_per_fanout * load / self.drives[idx].strength()
            }
        }
    }

    /// Arrival time of every net (ps), with flip-flop outputs launching at
    /// clock-to-Q.
    fn arrival_times(&self) -> Vec<f64> {
        let m = self.module;
        let mut arrival = vec![0.0f64; m.len()];
        for &r in m.registers() {
            // Launch: clock-to-Q plus the register's own load delay.
            arrival[r.index()] = self.library.clk_to_q_ps + self.cell_delay(r.index())
                - self
                    .library
                    .spec_for(&m.cell(r).kind)
                    .map(|s| s.delay_ps)
                    .unwrap_or(0.0);
        }
        for &c in m.topo_order() {
            let cell = m.cell(c);
            let in_max = cell
                .pins
                .iter()
                .map(|p| arrival[p.index()])
                .fold(0.0f64, f64::max);
            arrival[c.index()] = in_max + self.cell_delay(c.index());
        }
        arrival
    }

    /// The minimum clock period: the worst register-to-register or
    /// register/input-to-output path plus setup.
    pub fn min_period_ps(&self) -> f64 {
        let m = self.module;
        let arrival = self.arrival_times();
        let mut worst = 0.0f64;
        for &r in m.registers() {
            let d = m.cell(r).pins[0];
            worst = worst.max(arrival[d.index()] + self.library.setup_ps);
        }
        for (_, net) in m.outputs() {
            worst = worst.max(arrival[net.index()]);
        }
        worst
    }

    /// The cells along the current critical path, from source to endpoint.
    pub fn critical_path(&self) -> Vec<CellId> {
        let m = self.module;
        let arrival = self.arrival_times();
        // Find the endpoint net.
        let mut end: Option<usize> = None;
        let mut worst = f64::MIN;
        for &r in m.registers() {
            let d = m.cell(r).pins[0].index();
            if arrival[d] > worst {
                worst = arrival[d];
                end = Some(d);
            }
        }
        for (_, net) in m.outputs() {
            if arrival[net.index()] > worst {
                worst = arrival[net.index()];
                end = Some(net.index());
            }
        }
        let mut path = Vec::new();
        let mut cur = end;
        while let Some(idx) = cur {
            path.push(CellId(idx as u32));
            let cell = &m.cells()[idx];
            cur = cell
                .pins
                .iter()
                .map(|p| p.index())
                .max_by(|&a, &b| arrival[a].partial_cmp(&arrival[b]).expect("finite"));
            if matches!(
                cell.kind,
                CellKind::Dff { .. } | CellKind::Input | CellKind::Const(_)
            ) {
                break;
            }
        }
        path.reverse();
        path
    }

    /// Greedy critical-path sizing toward a target clock period.
    ///
    /// Repeatedly upsizes the slowest-contributing upsizable cell on the
    /// critical path until the target is met or no further improvement is
    /// possible — a coarse emulation of how Genus trades area for timing
    /// along the Fig. 8 sweep.
    pub fn size_for_period(&mut self, target_ps: f64) -> SizingResult {
        const MAX_ITERS: usize = 10_000;
        let mut iters = 0;
        loop {
            let period = self.min_period_ps();
            if period <= target_ps {
                return SizingResult {
                    met: true,
                    period_ps: period,
                    area_ge: self.area_ge(),
                };
            }
            iters += 1;
            if iters > MAX_ITERS {
                return SizingResult {
                    met: false,
                    period_ps: period,
                    area_ge: self.area_ge(),
                };
            }
            // Upsize the path cell with the largest load-delay contribution
            // that can still be upsized.
            let path = self.critical_path();
            let candidate = path
                .iter()
                .filter(|c| self.drives[c.index()].upsized().is_some())
                .max_by(|a, b| {
                    let da = self.load_component(a.index());
                    let db = self.load_component(b.index());
                    da.partial_cmp(&db).expect("finite")
                })
                .copied();
            match candidate {
                Some(c) => {
                    self.drives[c.index()] = self.drives[c.index()].upsized().expect("filtered");
                }
                None => {
                    return SizingResult {
                        met: false,
                        period_ps: period,
                        area_ge: self.area_ge(),
                    }
                }
            }
        }
    }

    /// The load-dependent part of a cell's delay (what upsizing reduces).
    fn load_component(&self, idx: usize) -> f64 {
        let cell = &self.module.cells()[idx];
        match self.library.spec_for(&cell.kind) {
            None => 0.0,
            Some(spec) => {
                let load = self.fanout[idx].max(1) as f64;
                spec.load_ps_per_fanout * load / self.drives[idx].strength()
            }
        }
    }

    /// Maximum clock frequency in MHz at the current sizing.
    pub fn max_frequency_mhz(&self) -> f64 {
        1.0e6 / self.min_period_ps()
    }
}

impl fmt::Display for MappedModule<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} mapped to {}: {:.1} GE, min period {:.0} ps",
            self.module.name(),
            self.library.name,
            self.area_ge(),
            self.min_period_ps()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfi_netlist::ModuleBuilder;

    fn xor_chain(n: usize) -> Module {
        let mut b = ModuleBuilder::new(format!("chain{n}"));
        let a = b.input("a");
        let x = b.input("x");
        let mut cur = b.xor2(a, x);
        for _ in 1..n {
            cur = b.xor2(cur, x);
        }
        b.output("y", cur);
        b.finish().unwrap()
    }

    #[test]
    fn area_sums_cells() {
        let lib = Library::nangate45_like();
        let m = xor_chain(3);
        let mapped = lib.map(&m);
        // 3 XOR2 at 2.0 GE.
        assert!((mapped.area_ge() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn longer_chains_are_slower() {
        let lib = Library::nangate45_like();
        let m2 = xor_chain(2);
        let m8 = xor_chain(8);
        assert!(lib.map(&m8).min_period_ps() > lib.map(&m2).min_period_ps());
    }

    #[test]
    fn registers_add_clk_to_q_and_setup() {
        let lib = Library::nangate45_like();
        let mut b = ModuleBuilder::new("reg2reg");
        let q = b.dff_uninit(false);
        let n = b.not(q);
        b.set_dff_input(q, n);
        b.output("q", q);
        let m = b.finish().unwrap();
        let mapped = lib.map(&m);
        // clk-to-q + INV delay + setup, all > 700 ps in this model.
        let p = mapped.min_period_ps();
        assert!(p > 700.0, "period {p}");
        assert!(p < 2100.0, "period {p}");
    }

    #[test]
    fn critical_path_traverses_chain() {
        let lib = Library::nangate45_like();
        let m = xor_chain(5);
        let mapped = lib.map(&m);
        let path = mapped.critical_path();
        assert!(path.len() >= 5, "path {path:?}");
    }

    #[test]
    fn sizing_meets_feasible_target() {
        let lib = Library::nangate45_like();
        let m = xor_chain(12);
        let mut mapped = lib.map(&m);
        let relaxed = mapped.min_period_ps();
        let area_before = mapped.area_ge();
        let target = relaxed * 0.9;
        let result = mapped.size_for_period(target);
        assert!(result.met, "sizing failed: {result:?}");
        assert!(result.period_ps <= target);
        assert!(result.area_ge > area_before, "sizing must cost area");
    }

    #[test]
    fn sizing_reports_failure_on_impossible_target() {
        let lib = Library::nangate45_like();
        let m = xor_chain(12);
        let mut mapped = lib.map(&m);
        let result = mapped.size_for_period(1.0); // 1 ps is impossible
        assert!(!result.met);
        assert!(result.period_ps > 1.0);
    }

    #[test]
    fn area_time_tradeoff_is_monotone() {
        // Tighter targets must never yield smaller area.
        let lib = Library::nangate45_like();
        let m = xor_chain(16);
        let relaxed = lib.map(&m).min_period_ps();
        let mut last_area = 0.0;
        for factor in [1.0, 0.95, 0.9, 0.85] {
            let mut mapped = lib.map(&m);
            let r = mapped.size_for_period(relaxed * factor);
            assert!(r.area_ge >= last_area - 1e-9, "factor {factor}");
            last_area = r.area_ge;
        }
    }

    #[test]
    fn drive_ladder() {
        assert_eq!(Drive::X1.upsized(), Some(Drive::X2));
        assert_eq!(Drive::X2.upsized(), Some(Drive::X4));
        assert_eq!(Drive::X4.upsized(), None);
        assert!(Drive::X4.area_factor() > Drive::X1.area_factor());
        assert!(Drive::X4.strength() > Drive::X1.strength());
    }

    #[test]
    fn ports_have_no_area() {
        let lib = Library::nangate45_like();
        let mut b = ModuleBuilder::new("wire");
        let a = b.input("a");
        b.output("y", a);
        let m = b.finish().unwrap();
        assert_eq!(lib.map(&m).area_ge(), 0.0);
    }

    #[test]
    fn max_frequency_inverse_of_period() {
        let lib = Library::nangate45_like();
        let m = xor_chain(4);
        let mapped = lib.map(&m);
        let f = mapped.max_frequency_mhz();
        let p = mapped.min_period_ps();
        assert!((f - 1.0e6 / p).abs() < 1e-9);
    }

    #[test]
    fn display_reports_area_and_period() {
        let lib = Library::nangate45_like();
        let m = xor_chain(2);
        let mapped = lib.map(&m);
        let s = mapped.to_string();
        assert!(s.contains("GE"));
        assert!(s.contains("ps"));
    }
}
