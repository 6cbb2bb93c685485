//! Pins the BDD package's *work*, not just its verdicts.
//!
//! A change to the package's tables (hashing, layout, cache policy) must
//! leave the sequence of node allocations, recursive steps and
//! computed-table lookups unchanged: that is what keeps every
//! budget-induced `Unknown` byte-identical, because node and step
//! budgets count exactly this work. The counts below were recorded from
//! a recording [`Telemetry`] handle passed to
//! [`Certifier::with_instruments`] on Table-1 FSMs at N ∈ {2, 3}; any
//! drift — one extra node, one lost cache hit — fails.
//!
//! The node-budget edges then show the counts are exact: a budget equal
//! to the recorded node count changes nothing, one node less turns the
//! last allocating unit of work into `Unknown`.
//!
//! Every row is recorded under care-set evaluation. The certifier's care
//! set is `R = Assume ∧ Reach`. The first per-site proof ANDs every base
//! function with `R` once; each site then re-evaluates its fault cone
//! inside `R` (`SymbolicEvaluator::try_eval_fault_from`'s `care`). The
//! joint proof evaluates inside `R` ANDed with its selector-cardinality
//! constraint (`SymbolicEvaluator::try_eval_guarded`'s `care`). The
//! one-time restriction is charged to the node budget and the deadline,
//! never to the first site's step allowance, so `steps` counts site work
//! only. A restriction that overflows leaves that site `Unknown`, never
//! proved. The `Joint` rows move with both care sets, because the
//! certifications of the first site that bracket the joint proof build
//! the restricted base.
//!
//! The rows count complement-edge nodes: `f` and `¬f` share their
//! nodes, and node 0 is the only terminal. `hits` and `misses` count
//! lookups in the bounded, lossy `ite` computed table, so a miss may be
//! the recomputation of an evicted call, and each miss is one step. Each
//! escape is built inside the rest of its escape condition
//! (`CertifyModel::undetected_within`). Against the package with two
//! lossless `HashMap`s and undetected words built outside the escape,
//! every row has 16–32% fewer nodes and the same verdicts.

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

/// `(fsm, N, check, recorded work)`.
#[rustfmt::skip]
const PINS: &[(&str, usize, Check, Work)] = &[
    //                                    nodes   steps  sites    hits  misses
    ("aes_control",      2, Ft1,    work(   733,    163,     8,    715,   1616)),
    ("pwrmgr_fsm",       3, Ft1,    work(  3114,   1002,    14,   2922,   7667)),
    ("i2c_fsm",          3, Ft1,    work( 12558,   3577,    18,  10572,  28313)),
    ("ibex_controller",  2, Ft1,    work(  1822,    417,    10,   1578,   3733)),
    ("otbn_controller",  2, Gates,  work(  3772,  15144,   132,   9037,  16869)),
    ("aes_control",      3, Gates,  work(  6377,  23677,   199,  18148,  27929)),
    ("ibex_lsu",         3, Gates,  work( 13527,  46185,   251,  30597,  53367)),
    ("i2c_fsm",          2, Gates,  work( 78686, 291117,   529, 221005, 300403)),
    ("adc_ctrl_fsm",     2, Joint,  work(  4446,    389,     2,   3213,   9506)),
    ("aes_control",      3, Joint,  work(  6178,    475,     2,   3399,  14207)),
    ("pwrmgr_fsm",       3, Joint,  work( 10046,    800,     2,   6078,  23786)),
    ("i2c_fsm",          2, Joint,  work(  9953,    723,     2,   8027,  20258)),
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
/// Telemetry flushes the BDD counters after each certified site and
/// after a joint proof. A joint proof is bracketed by two certifications
/// of the first site, so its row also pins the per-site work around it:
/// the repeat recomputes only the calls the joint proof evicted from the
/// computed table and finds every node it builds in the unique table,
/// so the last allocating unit of work is the joint proof itself.
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
