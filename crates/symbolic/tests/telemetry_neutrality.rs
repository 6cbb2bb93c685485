//! Telemetry-neutrality for certification: a [`Certifier`] built with a
//! recording [`Telemetry`] handle (and an armed-but-idle cancel token)
//! renders *byte-identical* reports to one built with the plain budget
//! constructor, for both the per-site and the joint claim. The recorder
//! observes the BDD engine; it never participates in it. The one-time
//! restriction of the base step to the care set is observed once per
//! per-site run and never by a joint-only run.

use scfi_core::{harden, ScfiConfig};
use scfi_faultsim::{enumerate_faults, CampaignConfig, RunControl};
use scfi_fsm::parse_fsm;
use scfi_symbolic::{Certifier, CertifyBudget};
use scfi_telemetry::Telemetry;

const DEMO: &str = "fsm demo { inputs go; state A { if go -> B; } state B { goto A; } }";

#[test]
fn certification_reports_are_byte_identical_with_recorder_installed() {
    let fsm = parse_fsm(DEMO).expect("demo parses");
    let h = harden(&fsm, &ScfiConfig::new(3)).expect("harden");
    // Per-site certification over the full pin-fault-inclusive space;
    // the joint claim over the register faults only (one selector
    // variable per site makes the wide space intractable by design).
    let faults = enumerate_faults(h.module(), &CampaignConfig::new().with_pin_faults());
    let reg_faults = enumerate_faults(
        h.module(),
        &CampaignConfig::new().register_region(h.module()),
    );
    let budget = CertifyBudget::unlimited();

    let plain = {
        let mut certifier = Certifier::with_budget(&h, budget).expect("setup within budget");
        let report = certifier.certify_all(&faults);
        let joint = certifier.certify_joint(&reg_faults, 2);
        format!("{report}\n{joint}")
    };

    let recorder = Telemetry::recording();
    let control = RunControl::unlimited();
    let instrumented = {
        let mut certifier =
            Certifier::with_instruments(&h, budget, recorder.clone(), Some(control))
                .expect("setup within budget");
        let report = certifier.certify_all(&faults);
        let joint = certifier.certify_joint(&reg_faults, 2);
        format!("{report}\n{joint}")
    };
    assert_eq!(
        instrumented, plain,
        "telemetry and an idle cancel token must not perturb certification"
    );

    // ... and the recorder really was live during the identical run.
    assert!(recorder.counter("scfi_bdd_ite_cache_hits_total").get() > 0);
    assert!(recorder.counter("scfi_bdd_ite_cache_misses_total").get() > 0);
    assert!(recorder.gauge("scfi_bdd_nodes_high_water").get() > 0);
    assert_eq!(
        recorder.histogram("scfi_certify_site_ns").snapshot().count,
        faults.len() as u64,
        "one site-duration observation per certified fault"
    );
    assert_eq!(
        recorder.histogram("scfi_certify_joint_ns").snapshot().count,
        1,
        "one duration observation per joint proof"
    );
    assert_eq!(
        recorder
            .histogram("scfi_certify_restrict_ns")
            .snapshot()
            .count,
        1,
        "the base step is restricted once, by the first site"
    );
}

#[test]
fn a_joint_proof_reports_its_own_bdd_work() {
    let fsm = parse_fsm(DEMO).expect("demo parses");
    let h = harden(&fsm, &ScfiConfig::new(3)).expect("harden");
    let reg_faults = enumerate_faults(
        h.module(),
        &CampaignConfig::new().register_region(h.module()),
    );
    let recorder = Telemetry::recording();
    let mut certifier =
        Certifier::with_instruments(&h, CertifyBudget::unlimited(), recorder.clone(), None)
            .expect("setup within budget");
    let nodes = recorder.gauge("scfi_bdd_nodes_high_water");
    let misses = recorder.counter("scfi_bdd_ite_cache_misses_total");
    let (setup_nodes, setup_misses) = (nodes.get(), misses.get());

    let joint = certifier.certify_joint(&reg_faults, 2);
    assert!(joint.verdict.is_proven(), "{joint}");
    assert!(
        nodes.get() > setup_nodes,
        "the joint proof's node table must reach the high-water gauge \
         ({} after setup, {} after the proof)",
        setup_nodes,
        nodes.get()
    );
    assert!(
        misses.get() > setup_misses,
        "the joint proof's misses flush"
    );
    assert_eq!(
        recorder
            .histogram("scfi_certify_steps_per_site")
            .snapshot()
            .count,
        0,
        "a joint proof is not a site"
    );
    assert_eq!(
        recorder
            .histogram("scfi_certify_restrict_ns")
            .snapshot()
            .count,
        0,
        "a joint proof does not restrict the base step"
    );
}
