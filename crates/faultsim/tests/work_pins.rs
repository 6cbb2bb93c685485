//! Pins the wave engine's *work*, not just its reports.
//!
//! The conformance suites prove that every wave width reproduces the
//! scalar reference report. They cannot see a change that keeps the
//! report but does more work: more waves for the same work list, more
//! clock edges per wave, or a classification path that falls back to
//! per-lane extraction. Each row below records what one campaign did, as
//! a recording [`Telemetry`] handle saw it, and any drift fails:
//!
//! * `waves` and `injections` guard the work list and its packing into
//!   `64 · W`-lane waves (`scfi_campaign_{waves,injections}_total`).
//! * `stepped` guards the clock edges simulated
//!   (`scfi_campaign_cycles_stepped_total`): the scenario table's
//!   fault-free passes, one step per transition-row chunk, and the
//!   cycles each wave steps from its earliest armed cycle until every
//!   simulated lane is decided.
//! * `fast` and `fallback` guard the classification path: cycles
//!   classified word-parallel through the target's oracle, and cycles
//!   that fell back to per-lane extraction
//!   (`scfi_campaign_oracle_{fastpath,fallback}_cycles_total`).
//! * `rows` guards sharing: lanes whose verdict came from a transition
//!   row without being simulated (`scfi_campaign_row_lanes_total`). A
//!   change that silently stops sharing rows fails here.
//!
//! Waves and injections are counted once per run, stepped and classified
//! cycles once per wave, table pass or row chunk. The SCFI rows cover the
//! exhaustive map grid ({aes_control, adc_ctrl_fsm, i2c_fsm} × N ∈
//! {2, 3, 4}), depth-4 secure_boot walks, a scenario-dense depth-1
//! campaign and windowed M = 3 draws over fuzzed depth-4 walks, each at
//! W ∈ {1, 2, 4}, plus two W = 4 rows: the i2c_fsm N = 3 depth-4 walks
//! and a register-flip campaign over depth-16 aes_control walks, whose
//! rows decide lanes long before their last edge. Four more W = 4 rows
//! pin the aes_control depth-4 walks, plain and fuzzed, of the redundancy
//! baseline (which rows serve) and of the unprotected lowering (where a
//! hijacked lane never comes back). Every count is host-independent:
//! waves hold fixed slots counted from slot 0, every admitted wave runs
//! whichever worker claims it, and every table pass and row chunk is
//! computed exactly once, by whichever worker claims it first, so each
//! row is asserted at one thread, at one thread per CPU and at four
//! threads (more workers than CPUs on small hosts). An armed
//! [`RunControl`] must change nothing but its own admission counter.
//!
//! Wall clock is deliberately absent. A timing gate on a shared host
//! fails on unchanged code and passes regressions it cannot resolve, so
//! speed is measured only by the repository benchmark (`perfbench`,
//! `campaign` workload; `--trace 1` adds the per-layer breakdown).

use std::time::Duration;

use scfi_core::{harden, redundancy, HardenedFsm, ScfiConfig};
use scfi_faultsim::{
    try_run_multi_fault, CampaignConfig, FaultTarget, FaultTiming, ProtocolScenario,
    RedundancyTarget, RunControl, ScfiTarget, UnprotectedTarget, VulnerabilityMap,
};
use scfi_fsm::{lower_unprotected, Fsm};
use scfi_telemetry::Telemetry;

/// The §6.1 configuration a row's FSM is prepared in.
#[derive(Clone, Copy, Debug)]
enum Model {
    /// SCFI-hardened at the row's N.
    Scfi,
    /// The N-fold redundancy baseline.
    Redundancy,
    /// The unprotected lowering; the row's N is unused.
    Unprotected,
}

use Model::{Redundancy as R, Scfi as S, Unprotected as U};

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Exhaustive single-transition map: gate-output and register flips.
    Map,
    /// Exhaustive campaign over depth-4 CFG walks (seed `0xB007_5EED`):
    /// walks revisit edges, so transition rows are shared.
    Walks,
    /// The same over adversarially fuzzed depth-4 walks (seed
    /// `0xB007_5EED`), whose raw input words are drawn per scenario.
    Fuzzed,
    /// One depth-1 `Transient(0)` scenario per CFG edge, register flips
    /// only: the most distinct scenarios per wave.
    Dense,
    /// Exhaustive register-flip campaign over depth-16 CFG walks (seed
    /// `0xB007_5EED`): long fault-free prefixes and suffixes, decided by
    /// rows.
    Deep,
    /// 6,000 draws of M = 3 faults, each on its own sampled window, over
    /// fuzzed depth-4 walks (seed `0x5CF1_F022`).
    Multi,
}

use Shape::{Deep, Dense, Fuzzed, Map, Multi, Walks};

/// The wave-engine work one campaign did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Work {
    waves: u64,
    injections: u64,
    stepped: u64,
    fast: u64,
    fallback: u64,
    rows: u64,
}

const fn work(
    waves: u64,
    injections: u64,
    stepped: u64,
    fast: u64,
    fallback: u64,
    rows: u64,
) -> Work {
    Work {
        waves,
        injections,
        stepped,
        fast,
        fallback,
        rows,
    }
}

/// `(fsm, model, N, shape, lane words, recorded work)`.
#[rustfmt::skip]
const PINS: &[(&str, Model, usize, Shape, usize, Work)] = &[
    //                                      waves  inject stepped   fast fb    rows
    ("aes_control",     S, 2, Map,   1, work(   28,    1750,     28,     28,  0,      0)),
    ("aes_control",     S, 2, Map,   2, work(   14,    1750,     14,     14,  0,      0)),
    ("aes_control",     S, 2, Map,   4, work(    7,    1750,      7,      7,  0,      0)),
    ("aes_control",     S, 3, Map,   1, work(   44,    2786,     44,     44,  0,      0)),
    ("aes_control",     S, 3, Map,   2, work(   22,    2786,     22,     22,  0,      0)),
    ("aes_control",     S, 3, Map,   4, work(   11,    2786,     11,     11,  0,      0)),
    ("aes_control",     S, 4, Map,   1, work(   51,    3234,     51,     51,  0,      0)),
    ("aes_control",     S, 4, Map,   2, work(   26,    3234,     26,     26,  0,      0)),
    ("aes_control",     S, 4, Map,   4, work(   13,    3234,     13,     13,  0,      0)),
    ("adc_ctrl_fsm",    S, 2, Map,   1, work(  115,    7350,    115,    115,  0,      0)),
    ("adc_ctrl_fsm",    S, 2, Map,   2, work(   58,    7350,     58,     58,  0,      0)),
    ("adc_ctrl_fsm",    S, 2, Map,   4, work(   29,    7350,     29,     29,  0,      0)),
    ("adc_ctrl_fsm",    S, 3, Map,   1, work(  155,    9900,    155,    155,  0,      0)),
    ("adc_ctrl_fsm",    S, 3, Map,   2, work(   78,    9900,     78,     78,  0,      0)),
    ("adc_ctrl_fsm",    S, 3, Map,   4, work(   39,    9900,     39,     39,  0,      0)),
    ("adc_ctrl_fsm",    S, 4, Map,   1, work(  180,   11460,    180,    180,  0,      0)),
    ("adc_ctrl_fsm",    S, 4, Map,   2, work(   90,   11460,     90,     90,  0,      0)),
    ("adc_ctrl_fsm",    S, 4, Map,   4, work(   45,   11460,     45,     45,  0,      0)),
    ("i2c_fsm",         S, 2, Map,   1, work(  612,   39146,    612,    612,  0,      0)),
    ("i2c_fsm",         S, 2, Map,   2, work(  306,   39146,    306,    306,  0,      0)),
    ("i2c_fsm",         S, 2, Map,   4, work(  153,   39146,    153,    153,  0,      0)),
    ("i2c_fsm",         S, 3, Map,   1, work(  832,   53206,    832,    832,  0,      0)),
    ("i2c_fsm",         S, 3, Map,   2, work(  416,   53206,    416,    416,  0,      0)),
    ("i2c_fsm",         S, 3, Map,   4, work(  208,   53206,    208,    208,  0,      0)),
    ("i2c_fsm",         S, 4, Map,   1, work(  887,   56758,    887,    887,  0,      0)),
    ("i2c_fsm",         S, 4, Map,   2, work(  444,   56758,    444,    444,  0,      0)),
    ("i2c_fsm",         S, 4, Map,   4, work(  222,   56758,    222,    222,  0,      0)),
    ("secure_boot_fsm", S, 2, Walks, 1, work(  199,   12692,    130,    130,  0,  12553)),
    ("secure_boot_fsm", S, 2, Walks, 2, work(  100,   12692,     96,     96,  0,  12553)),
    ("secure_boot_fsm", S, 2, Walks, 4, work(   50,   12692,     69,     69,  0,  12553)),
    ("i2c_fsm",         S, 3, Walks, 4, work(  832,  212824,    364,    364,  0, 211251)),
    ("i2c_fsm",         S, 2, Dense, 1, work(    7,     444,      7,      7,  0,      0)),
    ("i2c_fsm",         S, 2, Dense, 2, work(    4,     444,      4,      4,  0,      0)),
    ("i2c_fsm",         S, 2, Dense, 4, work(    2,     444,      2,      2,  0,      0)),
    ("aes_control",     S, 2, Multi, 1, work(   94,    6000,    380,    380,  0,      0)),
    ("aes_control",     S, 2, Multi, 2, work(   47,    6000,    192,    192,  0,      0)),
    ("aes_control",     S, 2, Multi, 4, work(   24,    6000,    100,    100,  0,      0)),
    ("aes_control",     S, 3, Multi, 1, work(   94,    6000,    380,    380,  0,      0)),
    ("aes_control",     S, 3, Multi, 2, work(   47,    6000,    192,    192,  0,      0)),
    ("aes_control",     S, 3, Multi, 4, work(   24,    6000,    100,    100,  0,      0)),
    ("adc_ctrl_fsm",    S, 2, Multi, 1, work(   94,    6000,    384,    384,  0,      0)),
    ("adc_ctrl_fsm",    S, 2, Multi, 2, work(   47,    6000,    192,    192,  0,      0)),
    ("adc_ctrl_fsm",    S, 2, Multi, 4, work(   24,    6000,    100,    100,  0,      0)),
    ("adc_ctrl_fsm",    S, 3, Multi, 1, work(   94,    6000,    384,    384,  0,      0)),
    ("adc_ctrl_fsm",    S, 3, Multi, 2, work(   47,    6000,    192,    192,  0,      0)),
    ("adc_ctrl_fsm",    S, 3, Multi, 4, work(   24,    6000,    100,    100,  0,      0)),
    ("aes_control",     S, 2, Deep,  4, work(    4,     896,     42,     42,  0,    880)),
    ("aes_control",     R, 3, Walks, 4, work(   49,   12376,     18,     18,  0,  12376)),
    ("aes_control",     R, 3, Fuzzed,4, work(   49,   12376,     18,     18,  0,  12376)),
    ("aes_control",     U, 3, Walks, 4, work(   13,    3136,     55,     55,  0,   1815)),
    ("aes_control",     U, 3, Fuzzed,4, work(   13,    3136,     57,     57,  0,    310)),
];

fn suite_fsm(name: &str) -> Fsm {
    match name {
        "secure_boot_fsm" => scfi_opentitan::secure_boot_fsm(),
        name => scfi_opentitan::by_name(name).expect("a Table-1 FSM").fsm,
    }
}

fn hardened(fsm: &str, level: usize) -> HardenedFsm {
    harden(&suite_fsm(fsm), &ScfiConfig::new(level)).expect("suite FSM hardens")
}

fn target(h: &HardenedFsm, shape: Shape) -> ScfiTarget<'_> {
    match shape {
        Map => ScfiTarget::new(h),
        Walks => ScfiTarget::with_protocol(h, 4, 0xB007_5EED),
        Fuzzed => ScfiTarget::with_fuzzed_protocol(h, 4, 0xB007_5EED),
        Deep => ScfiTarget::with_protocol(h, 16, 0xB007_5EED),
        Dense => ScfiTarget::with_scenarios(
            h,
            (0..h.cfg().edges().len())
                .map(|e| ProtocolScenario::new(vec![e], FaultTiming::Transient(0)))
                .collect(),
        ),
        Multi => ScfiTarget::with_fuzzed_protocol(h, 4, 0x5CF1_F022),
    }
}

fn config(shape: Shape, lane_words: usize, threads: usize) -> CampaignConfig {
    let config = match shape {
        Map | Walks | Fuzzed => CampaignConfig::new().with_register_flips(),
        Dense | Deep => CampaignConfig::new().effects(vec![]).with_register_flips(),
        Multi => CampaignConfig::new()
            .with_register_flips()
            .with_fault_windows(),
    };
    config.lane_words(lane_words).threads(threads)
}

/// Runs `campaign` under a fresh recording handle and reads back its work.
fn recorded<R>(config: CampaignConfig, campaign: impl FnOnce(&CampaignConfig) -> R) -> (R, Work) {
    let telemetry = Telemetry::recording();
    let report = campaign(&config.telemetry(telemetry.clone()));
    let count = |name: &str| telemetry.counter(name).get();
    let work = Work {
        waves: count("scfi_campaign_waves_total"),
        injections: count("scfi_campaign_injections_total"),
        stepped: count("scfi_campaign_cycles_stepped_total"),
        fast: count("scfi_campaign_oracle_fastpath_cycles_total"),
        fallback: count("scfi_campaign_oracle_fallback_cycles_total"),
        rows: count("scfi_campaign_row_lanes_total"),
    };
    (report, work)
}

/// One pinned campaign at `threads` workers.
fn run(
    fsm: &str,
    model: Model,
    level: usize,
    shape: Shape,
    lane_words: usize,
    threads: usize,
) -> Work {
    let config = config(shape, lane_words, threads);
    let (depth, seed) = (4, 0xB007_5EED);
    match model {
        Model::Scfi => {
            let h = hardened(fsm, level);
            campaign(&target(&h, shape), shape, config)
        }
        Model::Redundancy => {
            let r = redundancy(&suite_fsm(fsm), level).expect("suite FSM replicates");
            let target = match shape {
                Walks => RedundancyTarget::with_protocol(&r, depth, seed),
                Fuzzed => RedundancyTarget::with_fuzzed_protocol(&r, depth, seed),
                other => panic!("no redundancy {other:?} row"),
            };
            campaign(&target, shape, config)
        }
        Model::Unprotected => {
            let fsm = suite_fsm(fsm);
            let lowered = lower_unprotected(&fsm).expect("suite FSM lowers");
            let target = match shape {
                Walks => UnprotectedTarget::with_protocol(&fsm, &lowered, depth, seed),
                Fuzzed => UnprotectedTarget::with_fuzzed_protocol(&fsm, &lowered, depth, seed),
                other => panic!("no unprotected {other:?} row"),
            };
            campaign(&target, shape, config)
        }
    }
}

/// The work of `shape`'s campaign on `target`.
fn campaign<T: FaultTarget>(target: &T, shape: Shape, config: CampaignConfig) -> Work {
    recorded(config, |c| match shape {
        Multi => {
            try_run_multi_fault(target, 3, 6000, c, &RunControl::unlimited())
                .expect("an unlimited campaign completes");
        }
        Map | Walks | Fuzzed | Dense | Deep => {
            VulnerabilityMap::analyze(target, c);
        }
    })
    .1
}

/// One thread, one worker per CPU (at least two, so the sharded path
/// runs) and four, so that workers race for table pieces on every host.
fn thread_counts() -> Vec<usize> {
    let cpus = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let mut counts = vec![1, cpus, 4];
    counts.sort_unstable();
    counts.dedup();
    counts
}

#[test]
fn campaign_work_matches_the_recorded_counts() {
    let mut drift = Vec::new();
    for &(fsm, model, level, shape, lane_words, expected) in PINS {
        for threads in thread_counts() {
            let actual = run(fsm, model, level, shape, lane_words, threads);
            if actual != expected {
                drift.push(format!(
                    "{fsm} {model:?} N={level} {shape:?} W={lane_words} threads={threads}:\n  \
                     expected {expected:?}\n  got      {actual:?}"
                ));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "wave-engine work drifted:\n{}",
        drift.join("\n")
    );
}

/// An armed control — a deadline and an injection budget, neither ever
/// reached — admits every wave exactly once and changes nothing else:
/// the same map and the same work as the unarmed row.
#[test]
fn an_armed_control_admits_every_injection_and_changes_no_work() {
    let (fsm, level, lane_words) = ("i2c_fsm", 4, 4);
    let &(.., pinned) = PINS
        .iter()
        .find(|&&(f, m, n, s, w, _)| {
            (f, n, w) == (fsm, level, lane_words) && matches!((m, s), (S, Map))
        })
        .expect("the armed row has an unarmed twin");
    let h = hardened(fsm, level);
    let target = target(&h, Map);
    for threads in thread_counts() {
        let config = config(Map, lane_words, threads);
        let plain = VulnerabilityMap::analyze(&target, &config);
        let control = RunControl::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .with_injection_budget(u64::MAX / 2);
        let (armed, work) = recorded(config, |c| {
            VulnerabilityMap::try_analyze(&target, c, &control)
                .expect("an unreached control never trips")
        });
        assert!(
            armed.sites().eq(plain.sites()),
            "threads={threads}: the armed map differs"
        );
        assert_eq!(work, pinned, "threads={threads}: the armed work differs");
        assert_eq!(
            control.admitted(),
            armed.total_injections() as u64,
            "threads={threads}: every injection is admitted exactly once"
        );
    }
}
