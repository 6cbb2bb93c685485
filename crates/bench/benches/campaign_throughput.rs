//! Campaign-engine throughput: scalar reference vs the packed wave engine
//! at every lane width (64/128/256 lanes) on the `adc_ctrl_fsm`
//! exhaustive gate-output-flip campaign (protection level 2), reported as
//! injections/second.
//!
//! All engines run the identical work list single-threaded, so the ratios
//! are pure engine speedup — no parallelism in the numerator. CI runs
//! this bench with `--test` (one iteration per payload, no measurement
//! loop), which also asserts that every width reproduces the scalar
//! report; the README records the measured speedups.

use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};
use scfi_core::{harden, HardenedFsm, ScfiConfig};
use scfi_faultsim::{
    run_exhaustive, run_exhaustive_scalar, CampaignConfig, CampaignReport, ScfiTarget,
};

/// The packed wave widths under measurement, as lane words.
const LANE_WORDS: [usize; 3] = [1, 2, 4];

fn hardened_adc() -> HardenedFsm {
    let bench = scfi_opentitan::by_name("adc_ctrl_fsm").expect("suite entry");
    harden(&bench.fsm, &ScfiConfig::new(2)).expect("harden")
}

fn single_thread_config() -> CampaignConfig {
    CampaignConfig::new().threads(1)
}

fn print_throughput() {
    let hardened = hardened_adc();
    let target = ScfiTarget::new(&hardened);
    let config = single_thread_config();
    let time = |f: &dyn Fn() -> CampaignReport| {
        let start = Instant::now();
        let report = f();
        (report, start.elapsed())
    };
    let rate = |r: &CampaignReport, t: Duration| r.injections as f64 / t.as_secs_f64();
    let (scalar_report, scalar_t) = time(&|| run_exhaustive_scalar(&target, &config));
    let scalar_rate = rate(&scalar_report, scalar_t);
    println!(
        "\n=== campaign engine throughput (adc_ctrl_fsm, N=2, exhaustive flips, 1 thread) ==="
    );
    println!(
        "fault space: {} injections over {} cells",
        scalar_report.injections,
        hardened.module().len()
    );
    println!("scalar reference: {scalar_rate:>12.0} injections/s  ({scalar_t:.2?})");
    for w in LANE_WORDS {
        let config = config.clone().lane_words(w);
        let (packed_report, packed_t) = time(&|| run_exhaustive(&target, &config));
        assert_eq!(
            packed_report, scalar_report,
            "engines disagree at W={w}: the packed report must be byte-identical"
        );
        let packed_rate = rate(&packed_report, packed_t);
        println!(
            "packed {:>3}-lane:  {packed_rate:>12.0} injections/s  ({packed_t:.2?})  {:>6.1}x scalar",
            64 * w,
            packed_rate / scalar_rate
        );
    }
    println!();
}

fn bench_engines(c: &mut Criterion) {
    let hardened = hardened_adc();
    let target = ScfiTarget::new(&hardened);
    let config = single_thread_config();
    let mut group = c.benchmark_group("campaign_throughput");
    group.bench_function("scalar_exhaustive", |b| {
        b.iter(|| run_exhaustive_scalar(&target, &config))
    });
    for w in LANE_WORDS {
        let config = config.clone().lane_words(w);
        group.bench_function(format!("packed_exhaustive_{}lanes", 64 * w), |b| {
            b.iter(|| run_exhaustive(&target, &config))
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
    targets = bench_engines
}

fn main() {
    print_throughput();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
