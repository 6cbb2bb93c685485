//! Golden-file test for the batched per-site export: `scfi analyze
//! --format csv` on a fixed FSM must reproduce the checked-in golden
//! output byte for byte.
//!
//! Campaign execution is deterministic by construction (outcomes are
//! written by work-list slot, independent of thread count, wave width and
//! lane order), so the whole per-site map — not just aggregate counts —
//! is a stable artifact. If the hardening pass changes the emitted
//! netlist intentionally, regenerate with:
//!
//! ```text
//! printf 'fsm demo { inputs go; state A { if go -> B; } state B { goto A; } }' > demo.dsl
//! cargo run -p scfi-cli -- analyze demo.dsl --level 2 --format csv \
//!   > crates/cli/tests/golden/analyze_demo_sites.csv
//! ```

const DEMO: &str = "fsm demo { inputs go; state A { if go -> B; } state B { goto A; } }";

fn run(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    scfi_cli::run(&args, &mut out).expect("command succeeds");
    out
}

#[test]
fn analyze_csv_matches_the_golden_file() {
    let path = std::env::temp_dir().join(format!("scfi_golden_demo_{}.dsl", std::process::id()));
    std::fs::write(&path, DEMO).expect("writable temp dir");
    let csv = run(&[
        "analyze",
        path.to_str().expect("utf8"),
        "--level",
        "2",
        "--format",
        "csv",
    ]);
    let _ = std::fs::remove_file(&path);
    let golden = include_str!("golden/analyze_demo_sites.csv");
    assert_eq!(
        csv, golden,
        "per-site CSV drifted from the golden file; see the module docs \
         for the regeneration command"
    );
}

/// The JSON export was captured *before* the writer moved from this
/// crate into `scfi_serve::wire`; matching it byte for byte proves the
/// hoist changed nothing. It is also the layout the job server streams,
/// so any drift here would desynchronize served and CLI results.
#[test]
fn analyze_json_matches_the_golden_file() {
    let path = std::env::temp_dir().join(format!("scfi_golden_json_g_{}.dsl", std::process::id()));
    std::fs::write(&path, DEMO).expect("writable temp dir");
    let json = run(&[
        "analyze",
        path.to_str().expect("utf8"),
        "--level",
        "2",
        "--format",
        "json",
    ]);
    let _ = std::fs::remove_file(&path);
    let golden = include_str!("golden/analyze_demo_sites.json");
    assert_eq!(
        json, golden,
        "per-site JSON drifted from the golden file captured before the \
         writer was hoisted into scfi-serve"
    );
}

#[test]
fn analyze_json_agrees_with_the_csv_totals() {
    let path = std::env::temp_dir().join(format!("scfi_golden_json_{}.dsl", std::process::id()));
    std::fs::write(&path, DEMO).expect("writable temp dir");
    let p = path.to_str().expect("utf8");
    let csv = run(&["analyze", p, "--level", "2", "--format", "csv"]);
    let json = run(&["analyze", p, "--level", "2", "--format", "json"]);
    let _ = std::fs::remove_file(&path);
    // Same site count in both exports (rows minus header vs JSON site
    // objects), and the same total injections.
    let rows = csv.lines().count() - 1;
    assert_eq!(json.matches("\"cell\":").count(), rows);
    let total: usize = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(6).unwrap().parse::<usize>().unwrap())
        .sum();
    let injections: usize = json
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"injections\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .expect("injections field");
    assert_eq!(total, injections);
}

/// `scfi analyze --format json` and a served job run the same pipeline
/// (spec, preparation, campaign knobs, writer), so for the same spec
/// `run_job` must produce the CLI's bytes — after the CLI's
/// `multi-cycle campaign:` header line for protocol campaigns.
#[test]
fn analyze_json_matches_run_job_for_the_same_spec() {
    use scfi_faultsim::RunControl;
    use scfi_serve::cache::prepare;
    use scfi_serve::jobs::{run_job, JobOutcome, JobSpec};
    use scfi_telemetry::Telemetry;

    for (suite, extra, body_extra) in [
        ("aes_control", &[][..], ""),
        ("otbn_controller", &[], ""),
        ("pwrmgr_fsm", &[], ""),
        (
            "aes_control",
            &["--protocol", "2", "--fuzz-inputs"],
            r#", "protocol": 2, "fuzz_inputs": true"#,
        ),
        (
            "aes_control",
            &["--config", "redundancy"],
            r#", "config": "redundancy""#,
        ),
        (
            "aes_control",
            &["--config", "unprotected", "--protocol", "2"],
            r#", "config": "unprotected", "protocol": 2"#,
        ),
    ] {
        let fsm = scfi_opentitan::by_name(suite).expect("suite FSM").fsm;
        let path = std::env::temp_dir().join(format!(
            "scfi_golden_run_job_{suite}_{}.dsl",
            std::process::id()
        ));
        std::fs::write(&path, fsm.to_dsl()).expect("writable temp dir");
        let mut args = vec![
            "analyze",
            path.to_str().expect("utf8"),
            "--level",
            "2",
            "--format",
            "json",
        ];
        args.extend(extra);
        let cli = run(&args);
        let _ = std::fs::remove_file(&path);
        let cli = if !extra.contains(&"--protocol") {
            cli.as_str()
        } else {
            let (header, rest) = cli.split_once('\n').expect("header line");
            assert!(header.starts_with("multi-cycle campaign:"), "{header}");
            rest
        };

        let request =
            format!(r#"{{"kind": "analyze", "suite": "{suite}", "level": 2{body_extra}}}"#);
        let spec = JobSpec::from_json(&scfi_serve::json::parse(&request).expect("job body"))
            .expect("valid spec");
        let prepared = prepare(&spec.fsm, spec.config, spec.level).expect("suite FSM prepares");
        let JobOutcome::Done { body, .. } = run_job(
            &spec,
            &prepared,
            &RunControl::unlimited(),
            &Telemetry::off(),
        ) else {
            panic!("{request} did not complete");
        };
        assert_eq!(body, cli, "{request}: served bytes differ from the CLI's");
    }
}
