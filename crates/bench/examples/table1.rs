//! Regenerates **Table 1** of the SCFI paper: area overhead for protecting
//! the seven OpenTitan FSMs with N-fold redundancy vs SCFI, N ∈ {2, 3, 4}.
//!
//! Run with `cargo run --release -p scfi-bench --example table1`.

use scfi_bench::{geometric_mean, table1_rows};

fn print_table1() {
    println!("\n=== Table 1: area overhead, redundancy vs SCFI ===");
    println!(
        "{:<18} {:>12}  {:>6} {:>6} {:>6}  {:>6} {:>6} {:>6}",
        "", "Unprotected", "Red", "Red", "Red", "SCFI", "SCFI", "SCFI"
    );
    println!(
        "{:<18} {:>12}  {:>6} {:>6} {:>6}  {:>6} {:>6} {:>6}",
        "Module", "Area [GE]", "N=2", "N=3", "N=4", "N=2", "N=3", "N=4"
    );
    let rows = table1_rows();
    let mut red_cols: [Vec<f64>; 3] = Default::default();
    let mut scfi_cols: [Vec<f64>; 3] = Default::default();
    for row in &rows {
        println!(
            "{:<18} {:>12.0}  {:>6.0} {:>6.0} {:>6.0}  {:>6.0} {:>6.0} {:>6.0}",
            row.name,
            row.unprotected_ge,
            row.redundancy_pct[0],
            row.redundancy_pct[1],
            row.redundancy_pct[2],
            row.scfi_pct[0],
            row.scfi_pct[1],
            row.scfi_pct[2],
        );
        for i in 0..3 {
            red_cols[i].push(row.redundancy_pct[i]);
            scfi_cols[i].push(row.scfi_pct[i]);
        }
    }
    println!(
        "{:<18} {:>12}  {:>6.1} {:>6.1} {:>6.1}  {:>6.1} {:>6.1} {:>6.1}",
        "Geometric Mean",
        "",
        geometric_mean(&red_cols[0]),
        geometric_mean(&red_cols[1]),
        geometric_mean(&red_cols[2]),
        geometric_mean(&scfi_cols[0]),
        geometric_mean(&scfi_cols[1]),
        geometric_mean(&scfi_cols[2]),
    );
    println!(
        "{:<18} {:>12}  {:>6.1} {:>6.1} {:>6.1}  {:>6.1} {:>6.1} {:>6.1}",
        "(paper)", "", 17.5, 42.9, 67.6, 9.6, 21.8, 27.1
    );
    println!("Shape checks: SCFI geomean < redundancy geomean at every N;");
    println!("otbn_controller is the configuration where SCFI >= redundancy (fixed MDS cost).\n");
}

fn main() {
    print_table1();
}
