//! Telemetry-neutrality property: a campaign run with a recording
//! [`Telemetry`] handle installed produces *byte-identical* reports to
//! the same run with the free no-op handle, across backends × wave
//! widths × thread counts × fault-space knobs × single- and multi-fault
//! experiments. The recorder observes; it never participates.

use proptest::prelude::*;
use scfi_core::{harden, ScfiConfig};
use scfi_faultsim::{
    try_run_multi_fault, Backend, CampaignConfig, FaultEffect, RunControl, ScfiTarget,
    VulnerabilityMap,
};
use scfi_fsm::parse_fsm;
use scfi_telemetry::Telemetry;

const DEMO: &str = "fsm demo { inputs go; state A { if go -> B; } state B { goto A; } }";

/// Builds the campaign configuration for one property case.
fn config_for(
    telemetry: Telemetry,
    backend: Backend,
    lane_words: usize,
    threads: usize,
    stuck_at: bool,
    pin_faults: bool,
) -> CampaignConfig {
    let mut effects = vec![FaultEffect::Flip];
    if stuck_at {
        effects.push(FaultEffect::Stuck0);
        effects.push(FaultEffect::Stuck1);
    }
    let mut config = CampaignConfig::new()
        .effects(effects)
        .threads(threads)
        .lane_words(lane_words)
        .backend(backend)
        .telemetry(telemetry);
    if pin_faults {
        config = config.with_pin_faults();
    }
    config
}

/// Renders every campaign product for one configuration: the exhaustive
/// summary, the ranked vulnerability map, and a multi-fault protocol
/// report — the full observable output surface.
fn render_all(target: &ScfiTarget<'_>, config: &CampaignConfig) -> String {
    let control = RunControl::unlimited();
    let map = VulnerabilityMap::try_analyze(target, config, &control).expect("uninterrupted map");
    let multi = try_run_multi_fault(target, 2, 50, config, &control).expect("uninterrupted multi");
    format!("{}\n{map}\n{multi}", map.summary())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn campaign_reports_are_byte_identical_with_recorder_installed(
        backend_pick in 0usize..Backend::ALL.len(),
        lane_pick in 0usize..3,
        threads in 1usize..4,
        stuck_at in any::<bool>(),
        pin_faults in any::<bool>(),
        protocol_pick in 0usize..3,
    ) {
        let fsm = parse_fsm(DEMO).expect("demo parses");
        let hardened = harden(&fsm, &ScfiConfig::new(2)).expect("demo hardens");
        // 0 = the single-transition experiment, k > 0 = depth-k walks.
        let target = match protocol_pick {
            0 => ScfiTarget::new(&hardened),
            depth => ScfiTarget::with_protocol(&hardened, depth, 0x5CF1_3007),
        };
        let backend = Backend::ALL[backend_pick];
        let lane_words = [1usize, 2, 4][lane_pick];

        let off = render_all(
            &target,
            &config_for(Telemetry::off(), backend, lane_words, threads, stuck_at, pin_faults),
        );
        let recorder = Telemetry::recording();
        let on = render_all(
            &target,
            &config_for(recorder.clone(), backend, lane_words, threads, stuck_at, pin_faults),
        );
        prop_assert_eq!(&on, &off, "telemetry must not perturb the report");

        // ... and the recorder really was live during the identical run.
        prop_assert!(recorder.counter("scfi_campaign_injections_total").get() > 0);
        prop_assert!(recorder.counter("scfi_campaign_waves_total").get() > 0);
    }
}
