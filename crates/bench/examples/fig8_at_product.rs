//! Regenerates **Figure 8** of the SCFI paper: the area–time product of the
//! `adc_ctrl_fsm` module for the unprotected base design, redundancy N=3,
//! and SCFI N=3, sweeping the target clock period from 3200 ps to 6000 ps.
//!
//! Also reports the §6.2 headline: the maximum frequency each configuration
//! can reach (paper: base 312 MHz, redundancy 308 MHz, SCFI 294 MHz on a
//! proprietary library — ours differ in absolute value, not in ordering)
//! and whether every configuration meets OpenTitan's 125 MHz target.

use scfi_bench::at_sweep;
use scfi_core::{harden, ScfiConfig};
use scfi_fsm::lower_unprotected;
use scfi_stdcell::Library;

fn print_fig8() {
    let bench = scfi_opentitan::by_name("adc_ctrl_fsm").expect("suite entry");
    let periods: Vec<f64> = (0..=10).map(|i| 3200.0 + 280.0 * i as f64).collect();

    println!("\n=== Figure 8: area-time product, adc_ctrl_fsm ===");
    println!("clock_period_ps, base_kGE, redundancy_n3_kGE, scfi_n3_kGE");
    let base = at_sweep(&bench, None, &periods);
    let red = at_sweep(&bench, Some((3, true)), &periods);
    let scfi = at_sweep(&bench, Some((3, false)), &periods);
    for ((b, r), s) in base.iter().zip(&red).zip(&scfi) {
        let cell = |p: &scfi_bench::AtPoint| {
            if p.met {
                format!("{:.3}", p.area_kge)
            } else {
                format!("{:.3}*", p.area_kge)
            }
        };
        println!(
            "{:>6.0}, {:>8}, {:>8}, {:>8}",
            b.period_ps,
            cell(b),
            cell(r),
            cell(s)
        );
    }
    println!("(* = target period not met at maximum drive)");

    // §6.2: maximum frequency per configuration (minimum-period sizing).
    let lib = Library::nangate45_like();
    let unprot = lower_unprotected(&bench.fsm).expect("lowering");
    let red3 = scfi_core::redundancy(&bench.fsm, 3).expect("redundancy");
    let scfi3 = harden(&bench.fsm, &ScfiConfig::new(3)).expect("harden");
    println!("\nMaximum frequency (fully upsized critical path):");
    for (name, module) in [
        ("base", unprot.module()),
        ("redundancy N=3", red3.module()),
        ("SCFI N=3", scfi3.module()),
    ] {
        let mut mapped = lib.map(module);
        let r = mapped.size_for_period(1.0); // impossible target → best effort
        let mhz = 1.0e6 / r.period_ps;
        let meets_125 = r.period_ps <= 8000.0;
        println!(
            "  {name:<15} {mhz:>7.1} MHz (min period {:.0} ps, meets 125 MHz: {meets_125})",
            r.period_ps
        );
    }
    println!("(paper: base 312 MHz, redundancy 308 MHz, SCFI 294 MHz; all meet 125 MHz)\n");
}

fn main() {
    print_fig8();
}
