//! Ablations over the design choices the paper leaves open:
//!
//! * **MDS matrix choice** (§5.1 "the choice of MDS matrix can be changed
//!   according to design requirements"): lightweight searched matrix vs
//!   AES MixColumns — area and escape rate.
//! * **XOR lowering**: naive balanced trees vs Paar common-subexpression
//!   sharing — diffusion XOR count and module area.
//! * **Error-bit count `e`** (§4.1 "depending on the required fault
//!   security"): area vs diffusion-layer escape rate as `e` grows.

use scfi_core::{harden, PadPolicy, ScfiConfig};
use scfi_faultsim::{CampaignConfig, FaultEffect, ScfiTarget, VulnerabilityMap};
use scfi_mds::{Lowering, MdsSpec};
use scfi_stdcell::Library;

fn diffusion_escape(h: &scfi_core::HardenedFsm) -> f64 {
    let report = VulnerabilityMap::analyze(
        &ScfiTarget::new(h),
        &CampaignConfig::new()
            .effects(vec![FaultEffect::Flip])
            .region(h.regions().diffusion.clone())
            .with_pin_faults()
            .threads(2),
    )
    .summary();
    report.hijack_rate()
}

fn print_ablations() {
    let lib = Library::nangate45_like();
    let fsm = scfi_opentitan::synfi_formal_fsm();

    println!("\n=== Ablation A: MDS matrix choice (aes_control, N=2) ===");
    println!(
        "{:<22} {:>10} {:>12} {:>14}",
        "matrix", "area [GE]", "xors (Paar)", "escape rate"
    );
    for spec in [MdsSpec::ScfiLightweight, MdsSpec::AesMixColumns] {
        let h = harden(&fsm, &ScfiConfig::new(2).mds(spec)).expect("harden");
        let area = lib.map(h.module()).area_ge();
        println!(
            "{:<22} {:>10.0} {:>12} {:>13.3}%",
            spec.to_string(),
            area,
            spec.build().xor_count(Lowering::Paar),
            100.0 * diffusion_escape(&h)
        );
    }

    println!("\n=== Ablation B: XOR lowering strategy (aes_control, N=2) ===");
    println!(
        "{:<22} {:>14} {:>10} {:>12}",
        "lowering", "diffusion xors", "area [GE]", "logic depth"
    );
    for lowering in [Lowering::Naive, Lowering::Paar] {
        let h = harden(&fsm, &ScfiConfig::new(2).lowering(lowering)).expect("harden");
        let area = lib.map(h.module()).area_ge();
        println!(
            "{:<22} {:>14} {:>10.0} {:>12}",
            format!("{lowering:?}"),
            h.report().diffusion_xors,
            area,
            h.report().stats.depth()
        );
    }

    println!("\n=== Ablation C: error bits per instance (aes_control, N=2) ===");
    println!(
        "{:<12} {:>10} {:>12} {:>14}",
        "error bits", "area [GE]", "mod width", "escape rate"
    );
    for e in [1usize, 2, 3, 4, 6] {
        let h = harden(&fsm, &ScfiConfig::new(2).error_bits(e)).expect("harden");
        let area = lib.map(h.module()).area_ge();
        println!(
            "{:<12} {:>10.0} {:>12} {:>13.3}%",
            e,
            area,
            h.report().mod_width,
            100.0 * diffusion_escape(&h)
        );
    }
    println!("shape: more error bits -> more area, monotonically fewer escapes");

    println!("\n=== Ablation D: MDS input padding policy (aes_control, N=2) ===");
    println!(
        "{:<12} {:>10} {:>16} {:>14}",
        "padding", "area [GE]", "diffusion cells", "escape rate"
    );
    for (label, policy) in [
        ("zero", PadPolicy::Zero),
        ("replicate", PadPolicy::Replicate),
    ] {
        let h = harden(&fsm, &ScfiConfig::new(2).pad(policy)).expect("harden");
        let area = lib.map(h.module()).area_ge();
        println!(
            "{:<12} {:>10.0} {:>16} {:>13.3}%",
            label,
            area,
            h.regions().diffusion.len(),
            100.0 * diffusion_escape(&h)
        );
    }
    println!("zero padding lets the optimizer fold unused matrix columns; replicate");
    println!("pays the paper's fixed 32-bit MDS cost (the otbn_controller effect)");

    println!("\n=== Ablation E: §7 future-work extensions (aes_control, N=2) ===");
    println!(
        "{:<28} {:>10} {:>12} {:>14}",
        "configuration", "area [GE]", "mds width", "escape rate"
    );
    let configs: [(&str, ScfiConfig); 4] = [
        ("baseline prototype", ScfiConfig::new(2)),
        ("adaptive MDS size", ScfiConfig::new(2).adaptive_mds(true)),
        ("2 selector rails", ScfiConfig::new(2).selector_rails(2)),
        (
            "protected outputs",
            ScfiConfig::new(2).protect_outputs(true),
        ),
    ];
    for (label, config) in configs {
        let h = harden(&fsm, &config).expect("harden");
        let area = lib.map(h.module()).area_ge();
        let whole = VulnerabilityMap::analyze(
            &ScfiTarget::new(&h),
            &CampaignConfig::new()
                .effects(vec![FaultEffect::Flip])
                .threads(2),
        )
        .summary();
        println!(
            "{:<28} {:>10.0} {:>12} {:>13.3}%",
            label,
            area,
            h.mds().width(),
            100.0 * whole.hijack_rate()
        );
    }
    println!("adaptive trades branch number for area (§7); rails harden the §7");
    println!("selector limitation; output protection extends detection to λ\n");
}

fn main() {
    print_ablations();
}
