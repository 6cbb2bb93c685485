//! Campaign-backend throughput matrix: injections/second for every
//! [`CampaignBackend`](scfi_faultsim::CampaignBackend) — scalar and packed
//! at W ∈ {1, 2, 4} (64/128/256 lanes) — over the scale-sweep grid
//! (N ∈ {2, 3, 4} × {small, medium, large} Table-1 FSMs, exhaustive
//! gate-output flips + register flips, one thread), plus a
//! scenario-dense depth-1 protocol point that stresses per-wave scenario
//! resolution (many distinct scenarios, few faults each — the workload
//! where the wave executor's scenario lookup used to scan linearly).
//!
//! The committed baseline lives in `BENCH_backends.json` at the workspace
//! root; regenerate it with `cargo bench --bench backends -- --save`.
//!
//! CI runs this bench with `--test`: every grid point then runs on every
//! backend with byte-identical `CampaignReport`s asserted (cross-backend
//! divergence fails CI), and each backend's geometric-mean speedup over
//! the scalar reference is compared against the committed baseline — a
//! drop below 0.8× the baseline speedup (a >20 % relative regression)
//! fails CI. Test mode also pins two hot-path overhead budgets on the
//! exhaustive W=4 row: running under an armed-but-never-tripping
//! [`RunControl`] must stay within the baseline's
//! `control_overhead_budget` fraction of the uncontrolled throughput,
//! and running with a recording [`Telemetry`] handle installed must
//! stay within `telemetry_overhead_budget` of the uninstrumented
//! throughput.

use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};
use scfi_core::{harden, HardenedFsm, ScfiConfig};
use scfi_faultsim::{
    run_exhaustive, try_run_exhaustive, Backend, CampaignConfig, CampaignReport, FaultTarget,
    FaultTiming, ProtocolScenario, RunControl, ScfiTarget,
};
use scfi_telemetry::Telemetry;

/// Small / medium / large rows of Table 1 (7, 13 and 30 states).
const FSMS: [&str; 3] = ["aes_control", "adc_ctrl_fsm", "i2c_fsm"];
const LEVELS: [usize; 3] = [2, 3, 4];

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
        .threads(1)
        .lane_words(lane_words)
        .backend(backend)
}

/// `true` when the bench binary runs in CI's `--test` mode.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// `true` when invoked with `--save` (rewrite `BENCH_backends.json`).
fn save_mode() -> bool {
    std::env::args().any(|a| a == "--save")
}

fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_backends.json")
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
    let report = run_exhaustive(target, cfg);
    let rate = report.injections as f64 / start.elapsed().as_secs_f64().max(1e-9);
    (report, rate)
}

/// The satellite workload: one depth-1 transient scenario per CFG edge —
/// the maximally scenario-dense protocol campaign, with register-flip
/// faults only so each wave spans many distinct scenarios.
fn scenario_dense_target(h: &HardenedFsm) -> ScfiTarget<'_> {
    let scenarios = (0..h.cfg().edges().len())
        .map(|ei| ProtocolScenario::uniform(vec![ei], FaultTiming::Transient(0)))
        .collect();
    ScfiTarget::with_scenarios(h, scenarios)
}

fn measure_grid() -> Vec<Point> {
    let cross_check = test_mode();
    let mut points = Vec::new();
    println!("\n=== campaign backends (exhaustive flips + register flips, 1 thread) ===");
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
            let target = ScfiTarget::new(&h);
            let mut reference: Option<CampaignReport> = None;
            let mut scalar_rate = 0.0;
            let mut row = String::new();
            for (column, backend, lane_words) in COLUMNS {
                let (report, rate) = run_point(&target, &config(backend, lane_words));
                match &reference {
                    None => reference = Some(report),
                    Some(reference) => {
                        // Byte-identical reports across backends is the
                        // backend contract; enforced on every grid point.
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
            let _ = cross_check; // divergence is asserted unconditionally above
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
    let mut json = String::from("{\n  \"grid\": \"Table-1 {aes_control, adc_ctrl_fsm, i2c_fsm} x N in {2,3,4}, exhaustive flips + register flips, 1 thread\",\n  \"control_overhead_budget\": 0.02,\n  \"telemetry_overhead_budget\": 0.02,\n  \"points\": [\n");
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
    std::fs::write(&path, json).expect("write BENCH_backends.json");
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
            "missing baseline {} ({e}); regenerate with `cargo bench --bench backends -- --save`",
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
             BENCH_backends.json with `cargo bench --bench backends -- --save` \
             if the change is intentional"
        );
    }
}

/// Pulls one top-level budget fraction (`control_overhead_budget`,
/// `telemetry_overhead_budget`) out of the committed baseline.
fn budget_fraction(text: &str, key: &str) -> f64 {
    let quoted = format!("\"{key}\"");
    text.lines()
        .find(|l| l.contains(&quoted))
        .and_then(|l| {
            l.split(':')
                .nth(1)?
                .trim()
                .trim_end_matches(',')
                .parse()
                .ok()
        })
        .unwrap_or_else(|| {
            panic!(
                "BENCH_backends.json has no {key} key; \
                 regenerate with `cargo bench --bench backends -- --save`"
            )
        })
}

/// Satellite check for the execution-control layer: the per-wave
/// [`RunControl`] admission check must be free at campaign scale. Runs
/// the heaviest exhaustive W=4 row (i2c_fsm N=4, packed-256) with an
/// armed-but-never-tripping control (deadline and injection budget both
/// set) against the plain uncontrolled entry point, best-of-3 each, and
/// asserts the throughput ratio stays above `1 - control_overhead_budget`
/// from the committed baseline.
fn check_control_overhead() {
    let text = std::fs::read_to_string(baseline_path()).expect("committed baseline");
    let budget = budget_fraction(&text, "control_overhead_budget");
    let h = hardened("i2c_fsm", 4);
    let target = ScfiTarget::new(&h);
    let cfg = config(Backend::Packed, 4);
    let control = RunControl::unlimited()
        .with_deadline(Duration::from_secs(3600))
        .with_injection_budget(u64::MAX / 2);
    let (mut plain, mut armed) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        let (_, rate) = run_point(&target, &cfg);
        plain = plain.max(rate);
        let start = Instant::now();
        let report =
            try_run_exhaustive(&target, &cfg, &control).expect("an unhit control never trips");
        let rate = report.injections as f64 / start.elapsed().as_secs_f64().max(1e-9);
        armed = armed.max(rate);
    }
    let ratio = armed / plain.max(1e-9);
    println!(
        "control overhead (i2c_fsm N=4, packed-256): armed {armed:.0} vs plain {plain:.0} inj/s, \
         ratio {ratio:.3} (floor {:.3})",
        1.0 - budget
    );
    assert!(
        ratio >= 1.0 - budget,
        "per-wave control checks cost {:.1}% throughput on the exhaustive W=4 row, \
         over the {:.1}% budget (BENCH_backends.json control_overhead_budget)",
        (1.0 - ratio) * 100.0,
        budget * 100.0
    );
}

/// Satellite check for the telemetry layer: a recording [`Telemetry`]
/// handle on the campaign config costs per-worker plain-integer counts
/// merged once per run — it must be free at campaign scale. Runs the
/// same heaviest exhaustive W=4 row with a recording handle installed
/// against the uninstrumented config, best-of-3 each, and asserts the
/// throughput ratio stays above `1 - telemetry_overhead_budget` from
/// the committed baseline.
fn check_telemetry_overhead() {
    let text = std::fs::read_to_string(baseline_path()).expect("committed baseline");
    let budget = budget_fraction(&text, "telemetry_overhead_budget");
    let h = hardened("i2c_fsm", 4);
    let target = ScfiTarget::new(&h);
    let plain_cfg = config(Backend::Packed, 4);
    let recording_cfg = plain_cfg.clone().telemetry(Telemetry::recording());
    let (mut plain, mut recorded) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        let (_, rate) = run_point(&target, &plain_cfg);
        plain = plain.max(rate);
        let (_, rate) = run_point(&target, &recording_cfg);
        recorded = recorded.max(rate);
    }
    let ratio = recorded / plain.max(1e-9);
    println!(
        "telemetry overhead (i2c_fsm N=4, packed-256): recording {recorded:.0} vs off \
         {plain:.0} inj/s, ratio {ratio:.3} (floor {:.3})",
        1.0 - budget
    );
    assert!(
        ratio >= 1.0 - budget,
        "a recording telemetry handle costs {:.1}% throughput on the exhaustive W=4 row, \
         over the {:.1}% budget (BENCH_backends.json telemetry_overhead_budget)",
        (1.0 - ratio) * 100.0,
        budget * 100.0
    );
}

/// The scenario-dense depth-1 point: i2c_fsm has the most CFG edges, so
/// its wave mix has the highest distinct-scenario density per wave.
fn scenario_dense_point() {
    let h = hardened("i2c_fsm", 2);
    let target = scenario_dense_target(&h);
    let faults_only_regs = CampaignConfig::new()
        .effects(vec![])
        .with_register_flips()
        .threads(1);
    let (report, rate) = {
        let start = Instant::now();
        let report = run_exhaustive(&target, &faults_only_regs);
        let rate = report.injections as f64 / start.elapsed().as_secs_f64().max(1e-9);
        (report, rate)
    };
    if test_mode() {
        let scalar = run_exhaustive(&target, &faults_only_regs.clone().backend(Backend::Scalar));
        assert_eq!(
            report, scalar,
            "scenario-dense depth-1: packed and scalar backends disagree"
        );
    }
    println!(
        "scenario-dense depth-1 (i2c_fsm N=2, {} scenarios, register flips): {:.0} inj/s\n",
        FaultTarget::scenario_count(&target),
        rate
    );
}

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("backends");
    // One representative grid point per backend keeps the measured set
    // small; the printed matrix above covers the full grid.
    let h = hardened("adc_ctrl_fsm", 3);
    let target = ScfiTarget::new(&h);
    for (column, backend, lane_words) in COLUMNS {
        let cfg = config(backend, lane_words);
        group.bench_function(format!("exhaustive_adc_ctrl_n3_{column}"), |b| {
            b.iter(|| run_exhaustive(&target, &cfg))
        });
    }
    // The satellite workload: scenario-dense waves, register flips only.
    let dense = scenario_dense_target(&h);
    let dense_cfg = CampaignConfig::new()
        .effects(vec![])
        .with_register_flips()
        .threads(1);
    group.bench_function("scenario_dense_depth1_adc_ctrl_n3_packed", |b| {
        b.iter(|| run_exhaustive(&dense, &dense_cfg))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    targets = bench_backends
}

fn main() {
    let points = measure_grid();
    scenario_dense_point();
    if save_mode() {
        write_baseline(&points);
        return;
    }
    if test_mode() {
        check_against_baseline(&points);
        check_control_overhead();
        check_telemetry_overhead();
        return;
    }
    benches();
    Criterion::default().configure_from_args().final_summary();
}
