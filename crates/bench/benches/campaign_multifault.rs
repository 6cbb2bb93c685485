//! Multi-fault temporal-attacker throughput: injections/second for the
//! §3 attacker's full campaign shape — M simultaneous faults per draw,
//! each armed on its **own** sampled transient window
//! (`with_fault_windows`), over adversarially **fuzzed** multi-cycle
//! protocol walks — on every campaign backend (scalar, packed at
//! W ∈ {1, 2, 4}).
//!
//! This is the workload the per-fault `FaultSchedule` refactor must keep
//! fast: every lane of a wave can arm and re-arm at a different cycle,
//! so the word-parallel executor rebuilds fault masks only when some
//! live lane's window actually moves (re-arm elision) instead of every
//! cycle.
//!
//! The committed baseline lives in `BENCH_multifault.json` at the
//! workspace root; regenerate it with
//! `cargo bench --bench campaign_multifault -- --save`.
//!
//! CI runs this bench with `--test`: every grid point then runs on every
//! backend with byte-identical `CampaignReport`s asserted, and each
//! backend's geometric-mean speedup over the scalar reference is
//! compared against the committed baseline — a drop below 0.8× the
//! baseline speedup fails CI.

use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};
use scfi_core::{harden, HardenedFsm, ScfiConfig};
use scfi_faultsim::{run_multi_fault, Backend, CampaignConfig, CampaignReport, ScfiTarget};

/// Small and medium Table-1 rows; the grid is throughput-bound, not
/// coverage-bound, so two FSMs × two levels keep `--test` mode fast.
const FSMS: [&str; 2] = ["aes_control", "adc_ctrl_fsm"];
const LEVELS: [usize; 2] = [2, 3];

/// Simultaneous faults per draw and sampled draws per campaign.
const M: usize = 3;
const RUNS: usize = 6000;

/// Fuzzed protocol walk depth (windows are sampled per fault in 0..DEPTH).
const DEPTH: usize = 4;

/// The measured backend column: display name, backend, packed lane words.
const COLUMNS: [(&str, Backend, usize); 4] = [
    ("scalar", Backend::Scalar, 4),
    ("packed-64", Backend::Packed, 1),
    ("packed-128", Backend::Packed, 2),
    ("packed-256", Backend::Packed, 4),
];

fn hardened(name: &str, n: usize) -> HardenedFsm {
    let b = scfi_opentitan::by_name(name).expect("suite entry");
    harden(&b.fsm, &ScfiConfig::new(n)).expect("harden")
}

fn config(backend: Backend, lane_words: usize) -> CampaignConfig {
    CampaignConfig::new()
        .with_register_flips()
        .with_fault_windows()
        .threads(1)
        .lane_words(lane_words)
        .backend(backend)
}

/// `true` when the bench binary runs in CI's `--test` mode.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// `true` when invoked with `--save` (rewrite `BENCH_multifault.json`).
fn save_mode() -> bool {
    std::env::args().any(|a| a == "--save")
}

fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_multifault.json")
}

/// One measured grid point.
struct Point {
    fsm: &'static str,
    level: usize,
    column: &'static str,
    inj_per_s: f64,
    speedup: f64,
}

fn run_point(target: &ScfiTarget<'_>, cfg: &CampaignConfig) -> (CampaignReport, f64) {
    let start = Instant::now();
    let report = run_multi_fault(target, M, RUNS, cfg);
    let rate = report.injections as f64 / start.elapsed().as_secs_f64().max(1e-9);
    (report, rate)
}

fn measure_grid() -> Vec<Point> {
    let mut points = Vec::new();
    println!(
        "\n=== multi-fault campaigns (M={M}, {RUNS} draws, per-fault windows, \
         depth-{DEPTH} fuzzed walks, 1 thread) ==="
    );
    println!(
        "{:<14} {:>2} {:>10}  {}",
        "fsm",
        "N",
        "inject",
        COLUMNS
            .iter()
            .map(|(name, _, _)| format!("{name:>12}"))
            .collect::<String>()
    );
    for name in FSMS {
        for n in LEVELS {
            let h = hardened(name, n);
            let target = ScfiTarget::with_fuzzed_protocol(&h, DEPTH, 0x5CF1_F022);
            let mut reference: Option<CampaignReport> = None;
            let mut scalar_rate = 0.0;
            let mut row = String::new();
            for (column, backend, lane_words) in COLUMNS {
                let (report, rate) = run_point(&target, &config(backend, lane_words));
                match &reference {
                    None => reference = Some(report),
                    Some(reference) => {
                        // The multi-window draw stream and classification
                        // must be backend-invariant, injection for
                        // injection.
                        assert_eq!(
                            &report, reference,
                            "{name} N={n}: {column} diverged from the scalar reference"
                        );
                    }
                }
                if column == "scalar" {
                    scalar_rate = rate;
                }
                let speedup = rate / scalar_rate.max(1e-9);
                row.push_str(&format!("{rate:>12.0}"));
                points.push(Point {
                    fsm: name,
                    level: n,
                    column,
                    inj_per_s: rate,
                    speedup,
                });
            }
            let injections = reference.as_ref().map_or(0, |r| r.injections);
            println!("{name:<14} {n:>2} {injections:>10}  {row}  (inj/s)");
        }
    }
    println!();
    points
}

/// Geometric-mean speedup over the grid for one backend column.
fn geomean_speedup(points: &[Point], column: &str) -> f64 {
    let logs: Vec<f64> = points
        .iter()
        .filter(|p| p.column == column)
        .map(|p| p.speedup.max(1e-9).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

fn write_baseline(points: &[Point]) {
    let mut json = String::from(
        "{\n  \"grid\": \"Table-1 {aes_control, adc_ctrl_fsm} x N in {2,3}, M=3 faults \
         with per-fault windows, depth-4 fuzzed protocol walks, 1 thread\",\n  \"points\": [\n",
    );
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"fsm\": \"{}\", \"level\": {}, \"backend\": \"{}\", \"inj_per_s\": {:.0}, \"speedup_vs_scalar\": {:.2}}}{}\n",
            p.fsm,
            p.level,
            p.column,
            p.inj_per_s,
            p.speedup,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = baseline_path();
    std::fs::write(&path, json).expect("write BENCH_multifault.json");
    println!("baseline written to {}", path.display());
}

/// Pulls `"speedup_vs_scalar": X` values for one backend out of the
/// committed baseline (minimal scan; the file is produced by
/// `write_baseline`, so the shape is fixed).
fn baseline_speedups(text: &str, column: &str) -> Vec<f64> {
    let needle = format!("\"backend\": \"{column}\"");
    text.lines()
        .filter(|l| l.contains(&needle))
        .filter_map(|l| {
            let v = l.split("\"speedup_vs_scalar\":").nth(1)?;
            v.trim()
                .trim_end_matches(['}', ',', ']'])
                .trim_end_matches('}')
                .trim()
                .parse()
                .ok()
        })
        .collect()
}

fn check_against_baseline(points: &[Point]) {
    let path = baseline_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => panic!(
            "missing baseline {} ({e}); regenerate with \
             `cargo bench --bench campaign_multifault -- --save`",
            path.display()
        ),
    };
    for (column, _, _) in COLUMNS.iter().skip(1) {
        let speedups = baseline_speedups(&text, column);
        assert!(
            !speedups.is_empty(),
            "baseline has no points for backend {column}"
        );
        let logs: f64 = speedups.iter().map(|s| s.max(1e-9).ln()).sum();
        let baseline = (logs / speedups.len() as f64).exp();
        let measured = geomean_speedup(points, column);
        println!(
            "{column:>12}: geomean speedup {measured:.2}x vs baseline {baseline:.2}x (floor {:.2}x)",
            0.8 * baseline
        );
        assert!(
            measured >= 0.8 * baseline,
            "{column}: geomean speedup {measured:.2}x regressed more than 20% below the \
             committed baseline {baseline:.2}x; investigate, or regenerate \
             BENCH_multifault.json with `cargo bench --bench campaign_multifault -- --save` \
             if the change is intentional"
        );
    }
}

fn bench_multifault(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_multifault");
    let h = hardened("adc_ctrl_fsm", 3);
    let target = ScfiTarget::with_fuzzed_protocol(&h, DEPTH, 0x5CF1_F022);
    for (column, backend, lane_words) in COLUMNS {
        let cfg = config(backend, lane_words);
        group.bench_function(format!("multifault_adc_ctrl_n3_{column}"), |b| {
            b.iter(|| run_multi_fault(&target, M, RUNS, &cfg))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    targets = bench_multifault
}

fn main() {
    let points = measure_grid();
    if save_mode() {
        write_baseline(&points);
        return;
    }
    if test_mode() {
        check_against_baseline(&points);
        return;
    }
    benches();
    Criterion::default().configure_from_args().final_summary();
}
