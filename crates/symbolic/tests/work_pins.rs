//! Pins the BDD package's *work*, not just its verdicts.
//!
//! A change to the package's tables (hashing, layout, memo policy) must
//! leave the sequence of node allocations, recursive steps and memo
//! lookups unchanged: that is what keeps every budget-induced `Unknown`
//! byte-identical, because node and step budgets count exactly this
//! work. The counts below were recorded from a recording [`Telemetry`]
//! handle passed to [`Certifier::with_instruments`] on Table-1 FSMs at
//! N ∈ {2, 3}; any drift — one extra node, one lost memo hit — fails.
//!
//! The node-budget edges then show the counts are exact: a budget equal
//! to the recorded node count changes nothing, one node less turns the
//! last allocating unit of work into `Unknown`.

use scfi_core::{harden, HardenedFsm, ScfiConfig};
use scfi_faultsim::{enumerate_faults, CampaignConfig, Fault, FaultEffect};
use scfi_symbolic::{Certifier, CertifyBudget, JointVerdict};
use scfi_telemetry::Telemetry;

#[derive(Clone, Copy)]
enum Check {
    /// Per-site proofs over the FT1 register space.
    Ft1,
    /// Per-site proofs over every gate output plus the registers.
    Gates,
    /// One joint proof of every ≤N−1 combination of FT1 sites.
    Joint,
}

use Check::{Ft1, Gates, Joint};

/// The BDD work one certification run did, as its telemetry saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Work {
    /// `scfi_bdd_nodes_high_water`.
    nodes: u64,
    /// Sum of `scfi_certify_steps_per_site`.
    steps: u64,
    /// Count of `scfi_certify_steps_per_site`.
    sites: u64,
    /// `scfi_bdd_ite_cache_hits_total`.
    hits: u64,
    /// `scfi_bdd_ite_cache_misses_total`.
    misses: u64,
}

const fn work(nodes: u64, steps: u64, sites: u64, hits: u64, misses: u64) -> Work {
    Work {
        nodes,
        steps,
        sites,
        hits,
        misses,
    }
}

/// `(fsm, N, check, recorded work)`, recorded with SipHash tables; any
/// hasher must reproduce them exactly.
#[rustfmt::skip]
const PINS: &[(&str, usize, Check, Work)] = &[
    //                                    nodes   steps  sites    hits  misses
    ("aes_control",      2, Ft1,    work(  1553,   1810,     8,   2369,   2863)),
    ("pwrmgr_fsm",       3, Ft1,    work( 10040,  12500,    14,  11233,  17105)),
    ("i2c_fsm",          3, Ft1,    work( 51428,  67128,    18,  50736,  85715)),
    ("ibex_controller",  2, Ft1,    work(  4179,   4502,    10,   4970,   6862)),
    ("otbn_controller",  2, Gates,  work( 13592,  27619,   132,  21531,  28858)),
    ("aes_control",      3, Gates,  work( 40416,  80917,   199,  57450,  83839)),
    ("ibex_lsu",         3, Gates,  work( 83213, 159652,   251, 102714, 164464)),
    ("i2c_fsm",          2, Gates,  work(192412, 428513,   529, 401730, 435196)),
    ("adc_ctrl_fsm",     2, Joint,  work( 66764,    955,     2,  80112, 124645)),
    ("aes_control",      3, Joint,  work( 91682,    790,     2, 126962, 210139)),
    ("pwrmgr_fsm",       3, Joint,  work(359759,   1190,     2, 424703, 668234)),
    ("i2c_fsm",          2, Joint,  work(324800,   2504,     2, 389368, 574919)),
];

fn hardened(fsm: &str, level: usize) -> HardenedFsm {
    let fsm = scfi_opentitan::by_name(fsm).expect("a Table-1 FSM").fsm;
    harden(&fsm, &ScfiConfig::new(level)).expect("suite FSM hardens")
}

fn faults(h: &HardenedFsm, check: Check) -> Vec<Fault> {
    let config = CampaignConfig::new()
        .effects(vec![FaultEffect::Flip])
        .with_register_flips();
    let config = match check {
        Gates => config,
        Ft1 | Joint => config.register_region(h.module()),
    };
    enumerate_faults(h.module(), &config)
}

/// One run of a pinned case: its rendered outcome and recorded work.
struct Run {
    /// The `Debug` rendering of every verdict and report produced.
    report: String,
    /// Whether the last allocating unit of work (the site list, or the
    /// joint proof) ended `Unknown`.
    unknown: bool,
    work: Work,
}

/// Runs one pinned case under `budget`.
///
/// Telemetry flushes the BDD counters after each certified site, so a
/// joint proof is bracketed by two certifications of the first site:
/// the repeat answers every `ite` from the memo and allocates nothing,
/// so its flush reports exactly the node table the joint proof left,
/// and the last allocating unit of work is the joint proof itself.
fn run(fsm: &str, level: usize, check: Check, budget: CertifyBudget) -> Run {
    let h = hardened(fsm, level);
    let faults = faults(&h, check);
    let telemetry = Telemetry::recording();
    let mut certifier = Certifier::with_instruments(&h, budget, telemetry.clone(), None)
        .expect("setup fits every pinned budget");
    let (report, unknown) = match check {
        Ft1 | Gates => {
            let report = certifier.certify_all(&faults);
            (format!("{report:?}"), report.unknown() > 0)
        }
        Joint => {
            let before = certifier.certify(faults[0]);
            let joint = certifier.certify_joint(&faults, level - 1);
            let after = certifier.certify(faults[0]);
            let unknown = matches!(joint.verdict, JointVerdict::Unknown { .. });
            (format!("{before:?}\n{joint:?}\n{after:?}"), unknown)
        }
    };
    let steps = telemetry
        .histogram("scfi_certify_steps_per_site")
        .snapshot();
    let work = Work {
        nodes: telemetry.gauge("scfi_bdd_nodes_high_water").get(),
        steps: steps.sum,
        sites: steps.count,
        hits: telemetry.counter("scfi_bdd_ite_cache_hits_total").get(),
        misses: telemetry.counter("scfi_bdd_ite_cache_misses_total").get(),
    };
    Run {
        report,
        unknown,
        work,
    }
}

#[test]
fn table1_certification_work_matches_the_recorded_counts() {
    let drift: Vec<String> = PINS
        .iter()
        .filter_map(|&(fsm, level, check, expected)| {
            let actual = run(fsm, level, check, CertifyBudget::unlimited()).work;
            (actual != expected)
                .then(|| format!("{fsm} N={level}: expected {expected:?}, got {actual:?}"))
        })
        .collect();
    assert!(drift.is_empty(), "BDD work drifted:\n{}", drift.join("\n"));
}

#[test]
fn node_budget_edges_sit_exactly_at_the_recorded_counts() {
    for &(fsm, level, check, pinned) in PINS {
        let plain = run(fsm, level, check, CertifyBudget::unlimited());
        assert!(!plain.unknown, "{fsm} N={level}: unbudgeted run undecided");
        let nodes = pinned.nodes as usize;

        let at = run(
            fsm,
            level,
            check,
            CertifyBudget::unlimited().max_nodes(nodes),
        );
        assert_eq!(
            at.report, plain.report,
            "{fsm} N={level}: a budget of exactly the recorded {nodes} nodes must change nothing"
        );
        assert_eq!(at.work, plain.work, "{fsm} N={level}");

        let under = run(
            fsm,
            level,
            check,
            CertifyBudget::unlimited().max_nodes(nodes - 1),
        );
        let reason = format!("BDD node budget exhausted (limit {} nodes)", nodes - 1);
        assert!(
            under.unknown && under.report.contains(&reason),
            "{fsm} N={level}: one node under the recorded count must end Unknown"
        );
    }
}
