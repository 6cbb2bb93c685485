//! Shared machinery for the examples that regenerate the SCFI paper's
//! tables and figures.
//!
//! Each `examples/*.rs` target prints one reproduction artifact (a table
//! or CSV series mirroring the paper); run one with
//! `cargo run --release -p scfi-bench --example <name>`. This library
//! hosts the computations so they are unit-testable:
//!
//! * [`module_areas`] / [`table1_rows`] — Table 1 (area overhead of
//!   redundancy vs SCFI at N ∈ {2, 3, 4} over the seven OpenTitan-like
//!   FSMs),
//! * [`at_sweep`] — Figure 8 (area–time product sweep for `adc_ctrl_fsm`),
//! * [`synfi_experiment`] — the §6.4 formal fault analysis,
//! * [`geometric_mean`] — the Table 1 summary row.

use scfi_core::{harden, redundancy, HardenedFsm, PadPolicy, ScfiConfig};
use scfi_faultsim::{CampaignConfig, CampaignReport, FaultEffect, ScfiTarget, VulnerabilityMap};
use scfi_fsm::lower_unprotected;
use scfi_opentitan::BenchFsm;
use scfi_stdcell::Library;

/// Area results for one benchmark FSM at one protection level.
#[derive(Clone, Copy, Debug)]
pub struct ModuleAreas {
    /// Whole-module unprotected area (FSM + datapath profile), GE.
    pub unprotected: f64,
    /// Whole-module area with the N-fold redundancy baseline, GE.
    pub redundant: f64,
    /// Whole-module area with SCFI, GE.
    pub scfi: f64,
}

impl ModuleAreas {
    /// Redundancy overhead in percent, as Table 1 reports it.
    pub fn redundancy_overhead_pct(&self) -> f64 {
        100.0 * (self.redundant - self.unprotected) / self.unprotected
    }

    /// SCFI overhead in percent.
    pub fn scfi_overhead_pct(&self) -> f64 {
        100.0 * (self.scfi - self.unprotected) / self.unprotected
    }
}

/// Synthesizes all three §6.1 configurations of `bench` at protection level
/// `n` and returns module-level areas.
///
/// The non-FSM datapath area is profiled as
/// `max(0, paper_module_ge − mapped unprotected FSM area)` (the README's
/// "Datapath profile" note): the FSM logic is genuinely synthesized and
/// measured; only the surrounding datapath is a constant.
///
/// # Panics
///
/// Panics if any transform fails (benchmark FSMs are known-good).
pub fn module_areas(bench: &BenchFsm, n: usize) -> ModuleAreas {
    let lib = Library::nangate45_like();
    let unprot = lower_unprotected(&bench.fsm).expect("lowering");
    let fsm_area = lib.map(unprot.module()).area_ge();
    let datapath = (bench.paper_module_ge - fsm_area).max(0.0);

    let red = redundancy(&bench.fsm, n).expect("redundancy");
    let red_area = lib.map(red.module()).area_ge();

    let hardened = harden(&bench.fsm, &ScfiConfig::new(n)).expect("harden");
    let scfi_area = lib.map(hardened.module()).area_ge();

    ModuleAreas {
        unprotected: datapath + fsm_area,
        redundant: datapath + red_area,
        scfi: datapath + scfi_area,
    }
}

/// One row of Table 1: overhead percentages for N = 2, 3, 4.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Module name.
    pub name: &'static str,
    /// Unprotected whole-module area (GE).
    pub unprotected_ge: f64,
    /// Redundancy overhead percent at N = 2, 3, 4.
    pub redundancy_pct: [f64; 3],
    /// SCFI overhead percent at N = 2, 3, 4.
    pub scfi_pct: [f64; 3],
}

/// Computes every row of Table 1.
pub fn table1_rows() -> Vec<Table1Row> {
    scfi_opentitan::all()
        .iter()
        .map(|bench| {
            let mut redundancy_pct = [0.0; 3];
            let mut scfi_pct = [0.0; 3];
            let mut unprotected_ge = 0.0;
            for (i, n) in [2usize, 3, 4].into_iter().enumerate() {
                let areas = module_areas(bench, n);
                unprotected_ge = areas.unprotected;
                redundancy_pct[i] = areas.redundancy_overhead_pct();
                scfi_pct[i] = areas.scfi_overhead_pct();
            }
            Table1Row {
                name: bench.name,
                unprotected_ge,
                redundancy_pct,
                scfi_pct,
            }
        })
        .collect()
}

/// Geometric mean of a percentage column, matching the paper's summary row
/// (values are shifted by 100 % so zero-overhead entries are well-defined).
pub fn geometric_mean(values: &[f64]) -> f64 {
    let product_log: f64 = values.iter().map(|v| (v / 100.0 + 1.0).ln()).sum();
    ((product_log / values.len() as f64).exp() - 1.0) * 100.0
}

/// One point of the Figure 8 sweep.
#[derive(Clone, Copy, Debug)]
pub struct AtPoint {
    /// Target clock period (ps).
    pub period_ps: f64,
    /// Whether the sizer met the target.
    pub met: bool,
    /// Whole-module area at that constraint (kGE).
    pub area_kge: f64,
}

/// Sweeps clock-period targets for one configuration of `bench` and
/// returns the area at each point — one Figure 8 curve.
///
/// `config` selects the curve: `None` = unprotected base, `Some((n,
/// true))` = redundancy N, `Some((n, false))` = SCFI N.
pub fn at_sweep(
    bench: &BenchFsm,
    config: Option<(usize, bool)>,
    periods_ps: &[f64],
) -> Vec<AtPoint> {
    let lib = Library::nangate45_like();
    let unprot = lower_unprotected(&bench.fsm).expect("lowering");
    let fsm_area = lib.map(unprot.module()).area_ge();
    let datapath = (bench.paper_module_ge - fsm_area).max(0.0);

    // Hold the synthesized module alive across the sweep.
    let red;
    let hardened;
    let module = match config {
        None => unprot.module(),
        Some((n, true)) => {
            red = redundancy(&bench.fsm, n).expect("redundancy");
            red.module()
        }
        Some((n, false)) => {
            hardened = harden(&bench.fsm, &ScfiConfig::new(n)).expect("harden");
            hardened.module()
        }
    };
    periods_ps
        .iter()
        .map(|&target| {
            let mut mapped = lib.map(module);
            let r = mapped.size_for_period(target);
            AtPoint {
                period_ps: target,
                met: r.met,
                area_kge: (datapath + r.area_ge) / 1000.0,
            }
        })
        .collect()
}

/// The §6.4 formal-analysis experiment: harden the 14-transition FSM at
/// protection level 2 and exhaustively flip every gate output and input
/// pin inside the MDS diffusion layer, across every CFG edge.
///
/// Uses [`PadPolicy::Replicate`] so the complete 32-bit matrix is under
/// test, matching the paper's fault surface (7644 injections into "all
/// available gates in the MDS matrix multiplication").
pub fn synfi_experiment() -> (HardenedFsm, CampaignReport) {
    let fsm = scfi_opentitan::synfi_formal_fsm();
    let hardened = harden(&fsm, &ScfiConfig::new(2).pad(PadPolicy::Replicate)).expect("harden");
    let report = {
        let target = ScfiTarget::new(&hardened);
        // Packed wave engine, one worker per CPU (the CampaignConfig
        // default); results are deterministic regardless of thread count.
        VulnerabilityMap::analyze(
            &target,
            &CampaignConfig::new()
                .effects(vec![FaultEffect::Flip])
                .region(hardened.regions().diffusion.clone())
                .with_pin_faults(),
        )
        .summary()
    };
    (hardened, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_matches_hand_computation() {
        // (1.10 * 1.21)^(1/2) - 1 ≈ 15.38 %
        let g = geometric_mean(&[10.0, 21.0]);
        assert!((g - 15.38).abs() < 0.05, "{g}");
        assert!(geometric_mean(&[0.0, 0.0]).abs() < 1e-9);
    }

    #[test]
    fn scfi_beats_redundancy_on_the_small_module() {
        // pwrmgr_fsm: FSM dominates the module; SCFI must be cheaper than
        // redundancy at every N, as in Table 1.
        let bench = scfi_opentitan::by_name("pwrmgr_fsm").unwrap();
        for n in [3, 4] {
            let a = module_areas(&bench, n);
            assert!(
                a.scfi_overhead_pct() < a.redundancy_overhead_pct(),
                "N={n}: scfi {:.1}% vs red {:.1}%",
                a.scfi_overhead_pct(),
                a.redundancy_overhead_pct()
            );
        }
    }

    #[test]
    fn overheads_are_positive_and_grow_with_n() {
        let bench = scfi_opentitan::by_name("ibex_lsu").unwrap();
        let a2 = module_areas(&bench, 2);
        let a4 = module_areas(&bench, 4);
        assert!(a2.redundancy_overhead_pct() > 0.0);
        assert!(a2.scfi_overhead_pct() > 0.0);
        assert!(a4.redundancy_overhead_pct() > a2.redundancy_overhead_pct());
        assert!(a4.scfi_overhead_pct() >= a2.scfi_overhead_pct() * 0.8);
    }

    #[test]
    fn at_sweep_area_decreases_with_relaxed_clock() {
        let bench = scfi_opentitan::by_name("adc_ctrl_fsm").unwrap();
        let points = at_sweep(&bench, Some((3, false)), &[3600.0, 6000.0]);
        assert_eq!(points.len(), 2);
        assert!(points[0].area_kge >= points[1].area_kge);
    }
}
