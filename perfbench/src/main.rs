//! `scfi-perfbench` — the repository benchmark. Four workloads each drive
//! one layer of the SCFI reproduction from outside, through its public
//! entry points, and check every op's output against a digest table:
//!
//! * `campaign` — in-process fault campaigns (faultsim, netlist);
//! * `certify` — in-process BDD certification (symbolic);
//! * `serve` — loopback HTTP jobs against an in-process server (serve);
//! * `cli` — the release `scfi` binary, one child at a time (cli, core).
//!
//! ```text
//! scfi-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! scfi-perfbench --gen-digests
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of one workload. `--trace 1`
//! runs every workload once with the benchmark's spans around each layer
//! call and prints the per-layer metrics; see README.md.

mod campaign;
mod certify;
mod cli;
mod digests;
mod host;
mod pass;
mod rng;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use scfi_telemetry::Telemetry;

use digests::Digests;
use pass::Pass;
use trace::Tracer;

/// Fresh-process setup probes per run, one after each of as many
/// stretches of the measured ops.
const SETUP_PROBES: usize = 30;
/// Longest a run waits, in all, for the host to stop stealing its CPUs.
/// Past it the run goes on under steal, and its figures show it.
const MAX_WAIT: Duration = Duration::from_secs(40);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Campaign,
    Certify,
    Serve,
    Cli,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Campaign,
        Workload::Certify,
        Workload::Serve,
        Workload::Cli,
    ];

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Certify => "certify",
            Workload::Serve => "serve",
            Workload::Cli => "cli",
        }
    }

    /// Every digest-table key the workload's ops can produce.
    pub fn op_keys(self) -> Vec<String> {
        match self {
            Workload::Campaign => campaign::op_keys(),
            Workload::Certify => certify::op_keys(),
            Workload::Serve => serve::op_keys(),
            Workload::Cli => cli::op_keys(),
        }
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Scratch space inside the build directory (cli DSL files, the trace).
pub fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    let target = exe
        .parent()
        .and_then(|release| release.parent())
        .expect("the binary sits in <target>/release");
    target.join("perfbench")
}

/// This process's peak resident set (`VmHWM`), in kB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    /// Internal: one fresh-process setup of a workload, timed.
    SetupProbe(Workload),
    GenDigests,
}

const USAGE: &str = "usage: scfi-perfbench --workload campaign|certify|serve|cli \
--seed N --seconds S --trace 0|1\n       scfi-perfbench --gen-digests";

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args == ["--gen-digests"] {
        return Ok(Mode::GenDigests);
    }
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let workload = value("--workload")?.ok_or("missing --workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    if args.iter().any(|a| a == "--setup-probe") {
        return Ok(Mode::SetupProbe(workload));
    }
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag)?.map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} must be a whole number"))
        })
    };
    let seconds = number("--seconds", 10)?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Mode::Run(Args {
        workload,
        seed: number("--seed", 1)?,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(message) => {
            eprintln!("scfi-perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::GenDigests => generate_digests(),
        Mode::SetupProbe(w) => {
            let start = Instant::now();
            // The state drops (server shutdown, work-dir removal) after
            // the clock stops.
            let _state = setup(w);
            println!("{}", start.elapsed().as_secs_f64());
        }
        Mode::Run(args) => {
            let digests = Digests::committed();
            let (metrics, attempted, failed) = if args.trace {
                traced_run(&args, &digests)
            } else {
                end_to_end(&args, &digests)
            };
            println!("{}", result_json(attempted, failed, &metrics));
        }
    }
    ExitCode::SUCCESS
}

enum State {
    Campaign(campaign::State),
    Certify(certify::State),
    Serve(serve::State),
    Cli(cli::State),
}

fn setup(w: Workload) -> State {
    let off = Tracer::new(false);
    match w {
        Workload::Campaign => State::Campaign(campaign::setup(&off)),
        Workload::Certify => State::Certify(certify::setup(&off)),
        Workload::Serve => State::Serve(serve::setup()),
        Workload::Cli => State::Cli(cli::setup()),
    }
}

/// One more fresh-process setup of `w`, in a child of this binary.
fn setup_probe(w: Workload) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", w.name()])
        .output()
        .expect("spawn the setup probe");
    assert!(out.status.success(), "setup probe failed: {out:?}");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("the setup probe prints its seconds")
}

/// The end-to-end metrics of one workload, with the ops attempted and
/// failed.
fn end_to_end(args: &Args, digests: &Digests) -> (Vec<Metric>, usize, usize) {
    let secs = args.seconds as f64;
    let off = Tracer::new(false);
    let mut budget = MAX_WAIT;
    let mut waited = host::wait_calm(&mut budget);
    let start = Instant::now();
    let state = setup(args.workload);
    let mut setups = vec![start.elapsed().as_secs_f64()];
    // The run's ops (blocks of the job mix, for `serve`).
    let (units, plan) = match &state {
        State::Campaign(_) => {
            let cycles = campaign::cycles_for(secs);
            let n = campaign::op_count();
            (cycles * n, format!("{cycles} cycles of {n} ops"))
        }
        State::Certify(_) => {
            let cycles = certify::cycles_for(secs);
            let n = certify::op_count();
            (cycles * n, format!("{cycles} cycles of {n} ops"))
        }
        State::Serve(_) => {
            let blocks = serve::blocks_for(secs);
            (blocks, format!("{blocks} blocks of the job mix, 2 clients"))
        }
        State::Cli(_) => {
            let cycles = cli::cycles_for(secs);
            let n = cli::op_count();
            (cycles * n, format!("{cycles} cycles of {n} commands"))
        }
    };
    // The setup probes run between stretches of the run, so their median
    // samples the host over the same seconds as the ops do. After a
    // stretch under steal, the run waits for the host to calm down.
    let mut pass = Pass::default();
    let mut child_peak_kb = 0;
    let mut stolen = Vec::new();
    for k in 0..SETUP_PROBES {
        let range = k * units / SETUP_PROBES..(k + 1) * units / SETUP_PROBES;
        let before = host::CpuTimes::now();
        let (seed, off_t) = (args.seed, Telemetry::off());
        pass.absorb(match &state {
            State::Campaign(s) => campaign::measure(s, seed, range, digests, &off, &off_t),
            State::Certify(s) => certify::measure(s, seed, range, digests, &off, &off_t),
            State::Serve(s) => serve::measure(s, seed, range, digests, &off).pass,
            State::Cli(s) => {
                let m = cli::measure(s, seed, range, digests, &off);
                child_peak_kb = child_peak_kb.max(m.peak_rss_kb);
                m.pass
            }
        });
        setups.push(setup_probe(args.workload));
        if let (Some(before), Some(after)) = (before, host::CpuTimes::now()) {
            let share = after.steal_since(&before);
            stolen.push(share);
            if share > host::MAX_STEAL {
                waited += host::wait_calm(&mut budget);
            }
        }
    }
    let peak_kb = match state {
        State::Cli(_) => child_peak_kb,
        _ => peak_rss_kb(),
    };
    drop(state);

    let sorted = stats::sorted(&pass.lat_ms);
    let tail = stats::tail(&sorted);
    let setup_s = stats::median(&setups);
    println!(
        "perfbench {}: seed {}, {plan}: {} ops attempted, {} failed",
        args.workload.name(),
        args.seed,
        pass.attempted(),
        pass.failed
    );
    println!(
        "  setup_s      {setup_s:>10.4} s    median of {} setups, all but the first in fresh processes (min {:.4}, max {:.4})",
        setups.len(),
        stats::sorted(&setups)[0],
        stats::sorted(&setups)[setups.len() - 1],
    );
    println!("  ops_per_s    {:>10.2} 1/s", pass.ops_per_s());
    println!(
        "  op_ms_p50    {:>10.3} ms",
        stats::percentile(&sorted, 5_000)
    );
    println!(
        "  op_ms_tail   {:>10.3} ms   {} of {} samples ({} beyond)",
        tail.value,
        tail.label(),
        sorted.len(),
        tail.beyond
    );
    let peak_rss_mb = peak_kb as f64 / 1024.0;
    println!(
        "  peak_rss_mb  {peak_rss_mb:>10.2} MB{}",
        if args.workload == Workload::Cli {
            "   largest child"
        } else {
            ""
        }
    );
    if !stolen.is_empty() {
        let calm = stolen.iter().filter(|&&s| s <= host::MAX_STEAL).count();
        println!(
            "  host steal   {:>10.1} % of CPU time in the median stretch; {calm} of {} stretches at most {:.0}%; waited {:.1} s for calm",
            100.0 * stats::median(&stolen),
            stolen.len(),
            100.0 * host::MAX_STEAL,
            waited.as_secs_f64()
        );
    }
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ops_per_s", pass.ops_per_s(), "1/s"),
        Metric::new("op_ms_p50", stats::percentile(&sorted, 5_000), "ms"),
        Metric::new("op_ms_tail", tail.value, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    (metrics, pass.attempted(), pass.failed)
}

/// Every workload once, traced: per-layer metrics, span self times, and
/// a chrome://tracing file.
fn traced_run(args: &Args, digests: &Digests) -> (Vec<Metric>, usize, usize) {
    let t = Instant::now();
    scfi_mds::MdsSpec::ScfiLightweight.build();
    let mds_search_ms = t.elapsed().as_secs_f64() * 1e3;

    // Each workload gets an untraced and a traced pass of this length.
    let pass_seconds = args.seconds as f64 / 8.0;
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut events = Vec::new();
    for (pid, w) in Workload::ALL.into_iter().enumerate() {
        let tracer = Tracer::new(true);
        let (m, pass) = match w {
            Workload::Campaign => campaign::trace(args.seed, pass_seconds, digests, &tracer),
            Workload::Certify => certify::trace(args.seed, pass_seconds, digests, &tracer),
            Workload::Serve => serve::trace(args.seed, pass_seconds, digests, &tracer),
            Workload::Cli => cli::trace(args.seed, pass_seconds, digests, &tracer, mds_search_ms),
        };
        println!(
            "== {} (traced): {} ops, {} failed",
            w.name(),
            pass.attempted(),
            pass.failed
        );
        println!(
            "  {:<24} {:>8} {:>12} {:>12}",
            "span", "count", "total ms", "self ms"
        );
        for (name, l) in tracer.layers() {
            println!(
                "  {name:<24} {:>8} {:>12.2} {:>12.2}",
                l.count, l.total_ms, l.self_ms
            );
        }
        for metric in &m {
            println!(
                "  {:<42} {:>14.4} {}",
                metric.name, metric.value, metric.unit
            );
        }
        tracer.chrome_events(pid + 1, &mut events);
        metrics.extend(m);
        attempted += pass.attempted();
        failed += pass.failed;
    }
    let path = work_dir().join("trace.json");
    let written = std::fs::create_dir_all(work_dir())
        .and_then(|()| std::fs::write(&path, trace::chrome_document(&events)));
    match written {
        Ok(()) => println!("chrome trace: {}", path.display()),
        Err(e) => eprintln!("writing {}: {e}", path.display()),
    }
    (metrics, attempted, failed)
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
fn result_json(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0,
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

fn generate_digests() {
    let mut entries = Vec::new();
    campaign::generate(&mut entries);
    certify::generate(&mut entries);
    serve::generate(&mut entries);
    cli::generate(&mut entries);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.tsv");
    std::fs::write(path, digests::render(&entries)).expect("write digests.tsv");
    println!("wrote {} digests to {path}", entries.len());
}
