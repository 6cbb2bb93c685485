//! `cli`: one release `scfi` child at a time, cycling through `harden`,
//! `area`, `analyze` (plain and `--protocol 4`) and `certify` on suite DSL
//! files written at setup. Each op's exit code and stdout digest are
//! checked.
//!
//! Every invocation repeats the per-process one-time work — above all
//! the first-call MDS search, which the in-process workloads pay only in
//! `setup_s` — while the engines do little.

use std::io::Read as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use scfi_core::{harden, redundancy, ScfiConfig};
use scfi_faultsim::{CampaignConfig, ScfiTarget, VulnerabilityMap};
use scfi_fsm::lower_unprotected;
use scfi_serve::wire::write_sites_json;
use scfi_serve::WALK_SEED;

use crate::digests::{fnv1a, Digests};
use crate::pass::{self, measure_cycles, traced_between, Pass};
use crate::trace::Tracer;
use crate::{stats, Metric};

/// Nominal seconds one op cycle takes on the reference host.
const CYCLE_SECONDS: f64 = 1.7;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Cmd {
    /// `scfi suite NAME`: prints the bundled DSL, the process floor.
    Suite,
    Harden,
    Area,
    /// `analyze --format json`.
    Analyze,
    /// `analyze --protocol 4 --format json`.
    Protocol,
    /// `certify --config CONFIG`, with `--expect-proof` unless the
    /// configuration is `unprotected`, which refutes the claim.
    Certify(&'static str),
    /// `certify --all-gates`.
    Gates,
    /// `certify --joint --expect-proof`.
    Joint,
}

struct OpDef {
    cmd: Cmd,
    fsm: &'static str,
    level: usize,
}

const fn op(cmd: Cmd, fsm: &'static str, level: usize) -> OpDef {
    OpDef { cmd, fsm, level }
}

use Cmd::{Analyze, Area, Certify, Gates, Harden, Joint, Protocol, Suite};
const SCFI: Cmd = Certify("scfi");
const RED: Cmd = Certify("redundancy");
const UNPROT: Cmd = Certify("unprotected");

/// One op cycle. As in `certify`, the ops' costs form a ladder (here from
/// ~1 ms to ~150 ms, each rung at most ~1.5× the one below and most under
/// 1.2×), so no percentile the benchmark reads sits in a gap between two
/// ops. Commands that skip the MDS search (`suite`, and `certify` on the
/// redundancy and unprotected configurations) fill the rungs below it.
const OPS: &[OpDef] = &[
    op(Suite, "ibex_controller", 0),
    op(UNPROT, "otbn_controller", 2),
    op(UNPROT, "pwrmgr_fsm", 2),
    op(RED, "aes_control", 2),
    op(RED, "otbn_controller", 2),
    op(UNPROT, "i2c_fsm", 2),
    op(RED, "ibex_controller", 2),
    op(RED, "pwrmgr_fsm", 2),
    op(RED, "aes_control", 3),
    op(RED, "adc_ctrl_fsm", 2),
    op(RED, "ibex_lsu", 3),
    op(RED, "ibex_controller", 3),
    op(RED, "pwrmgr_fsm", 3),
    op(RED, "i2c_fsm", 2),
    op(Harden, "ibex_controller", 3),
    op(Analyze, "ibex_controller", 3),
    op(SCFI, "otbn_controller", 3),
    op(RED, "adc_ctrl_fsm", 3),
    op(SCFI, "pwrmgr_fsm", 3),
    op(Analyze, "ibex_lsu", 3),
    op(Harden, "pwrmgr_fsm", 3),
    op(Area, "aes_control", 3),
    op(Harden, "aes_control", 3),
    op(Protocol, "otbn_controller", 3),
    op(SCFI, "ibex_controller", 3),
    op(Protocol, "aes_control", 3),
    op(Gates, "ibex_lsu", 2),
    op(Gates, "ibex_controller", 2),
    op(Protocol, "i2c_fsm", 3),
    op(Gates, "adc_ctrl_fsm", 2),
    op(SCFI, "i2c_fsm", 3),
    op(Joint, "otbn_controller", 3),
    op(Joint, "aes_control", 3),
];

/// The suite FSMs the ops read, written as DSL files at setup.
fn fsms() -> Vec<&'static str> {
    let mut names: Vec<&str> = OPS.iter().map(|o| o.fsm).collect();
    names.sort_unstable();
    names.dedup();
    names
}

impl OpDef {
    fn key(&self) -> String {
        let cmd = match self.cmd {
            Suite => return format!("cli/suite/{}", self.fsm),
            Harden => "harden".to_string(),
            Area => "area".to_string(),
            Analyze => "analyze".to_string(),
            Protocol => "analyze-p4".to_string(),
            Certify("scfi") => "certify".to_string(),
            Certify(config) => format!("certify-{config}"),
            Gates => "certify-gates".to_string(),
            Joint => "certify-joint".to_string(),
        };
        format!("cli/{cmd}/{}/n{}", self.fsm, self.level)
    }

    fn args(&self, dir: &Path) -> Vec<String> {
        if self.cmd == Suite {
            return vec!["suite".to_string(), self.fsm.to_string()];
        }
        let path = dir.join(format!("{}.dsl", self.fsm)).display().to_string();
        let level = self.level.to_string();
        let mut args: Vec<&str> = match self.cmd {
            Harden => vec!["harden", &path],
            Area => vec!["area", &path],
            Analyze | Protocol => vec!["analyze", &path],
            _ => vec!["certify", &path],
        };
        args.extend(["--level", &level]);
        match self.cmd {
            Analyze => args.extend(["--format", "json"]),
            Protocol => args.extend(["--protocol", "4", "--format", "json"]),
            Certify("unprotected") => args.extend(["--config", "unprotected"]),
            Certify(config) => args.extend(["--config", config, "--expect-proof"]),
            Gates => args.push("--all-gates"),
            Joint => args.extend(["--joint", "--expect-proof"]),
            _ => {}
        }
        args.into_iter().map(str::to_string).collect()
    }
}

pub fn op_keys() -> Vec<String> {
    OPS.iter().map(OpDef::key).collect()
}

/// The release `scfi` binary, built next to this benchmark's binary.
fn scfi_binary() -> PathBuf {
    std::env::current_exe()
        .expect("own executable path")
        .with_file_name("scfi")
}

/// A finished child: exit code, stdout and peak resident memory.
pub struct Child {
    pub code: Option<i32>,
    pub stdout: Vec<u8>,
    pub max_rss_kb: u64,
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Runs `scfi args…` to completion, reaping it with `wait4` to read the
/// child's own peak RSS (std's `wait` does not report it).
pub fn spawn(args: &[String]) -> std::io::Result<Child> {
    use std::os::unix::process::ExitStatusExt as _;
    let mut child = Command::new(scfi_binary())
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_end(&mut stdout)?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own child, spawned above and not yet
        // reaped (std's `Child` is never waited on); `status` and `usage`
        // are live locals of the layout Linux's `wait4(2)` writes.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(Child {
        code: std::process::ExitStatus::from_raw(status).code(),
        stdout,
        max_rss_kb: usage.maxrss.max(0) as u64,
    })
}

/// The DSL files every op reads, as `scfi suite NAME` prints them.
pub struct State {
    dir: PathBuf,
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn setup() -> State {
    let dir = crate::work_dir().join(format!("cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the cli work directory");
    for name in fsms() {
        // The same bytes `scfi suite NAME` prints.
        let dsl = scfi_opentitan::by_name(name)
            .expect("a Table-1 FSM")
            .fsm
            .to_dsl();
        std::fs::write(dir.join(format!("{name}.dsl")), dsl).expect("write suite DSL");
    }
    State { dir }
}

pub fn cycles_for(seconds: f64) -> usize {
    pass::cycles_for(seconds, CYCLE_SECONDS)
}

pub fn op_count() -> usize {
    OPS.len()
}

/// A measured pass plus the largest child's peak RSS.
pub struct Measured {
    pub pass: Pass,
    pub peak_rss_kb: u64,
}

pub fn measure(
    state: &State,
    seed: u64,
    ops: Range<usize>,
    digests: &Digests,
    tracer: &Tracer,
) -> Measured {
    let args: Vec<Vec<String>> = OPS.iter().map(|o| o.args(&state.dir)).collect();
    let mut peak_rss_kb = 0;
    let check = |index: usize, child: std::io::Result<Child>| match child {
        Ok(c) => {
            peak_rss_kb = peak_rss_kb.max(c.max_rss_kb);
            c.code == Some(0) && digests.matches(&OPS[index].key(), &c.stdout)
        }
        Err(e) => {
            eprintln!("cli op {} failed to run: {e}", OPS[index].key());
            false
        }
    };
    let pass = measure_cycles(
        OPS.len(),
        seed,
        ops,
        tracer,
        "cli.process",
        |_, index| spawn(&args[index]),
        check,
    );
    Measured { pass, peak_rss_kb }
}

/// Runs the op cycle in-process through `scfi_cli::run`, returning each
/// op's output.
fn in_process(state: &State) -> Vec<String> {
    OPS.iter()
        .map(|o| {
            let mut out = String::new();
            scfi_cli::run(&o.args(&state.dir), &mut out)
                .unwrap_or_else(|e| panic!("{}: {e}", o.key()));
            out
        })
        .collect()
}

/// Traced-run metrics: a traced pass between two untraced half passes,
/// then in-process probes of the MDS-warm core, the wire writer and the
/// process floor.
/// `mds_search_ms` is the first `MdsSpec::build` of this process.
pub fn trace(
    seed: u64,
    pass_seconds: f64,
    digests: &Digests,
    tracer: &Tracer,
    mds_search_ms: f64,
) -> (Vec<Metric>, Pass) {
    let state = tracer.time("cli.setup", 0, setup);
    let cycles = cycles_for(pass_seconds);
    let off = Tracer::new(false);
    let (mut untraced, traced) = traced_between(cycles * OPS.len(), |range, traced| {
        let tracer = if traced { tracer } else { &off };
        measure(&state, seed, range, digests, tracer).pass
    });

    let floor: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let c = spawn(&["suite".to_string(), "aes_control".to_string()]).expect("spawn");
            assert_eq!(c.code, Some(0));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    in_process(&state); // warms the MDS search for the timed pass below
    let t = Instant::now();
    in_process(&state);
    let inproc_ms = t.elapsed().as_secs_f64() * 1e3 / OPS.len() as f64;

    let (mut harden_ms, mut baseline_ms, mut render_ms) = (Vec::new(), Vec::new(), Vec::new());
    for def in OPS.iter().filter(|d| d.cmd != Suite) {
        let fsm = scfi_opentitan::by_name(def.fsm).expect("suite FSM").fsm;
        let t = Instant::now();
        let h = harden(&fsm, &ScfiConfig::new(def.level)).expect("hardens");
        h.check_all_edges().expect("verifies");
        harden_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        redundancy(&fsm, def.level).expect("replicates");
        lower_unprotected(&fsm).expect("lowers");
        baseline_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if matches!(def.cmd, Analyze | Protocol) {
            let target = if def.cmd == Protocol {
                ScfiTarget::with_protocol(&h, 4, WALK_SEED)
            } else {
                ScfiTarget::new(&h)
            };
            let map = VulnerabilityMap::analyze(&target, &CampaignConfig::new().threads(2));
            let t = Instant::now();
            let mut out = String::new();
            write_sites_json(&mut out, h.module(), &map);
            render_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let op_ms = stats::mean(&traced.lat_ms);
    let metrics = vec![
        Metric::new("cli.core.mds_search_ms", mds_search_ms, "ms"),
        Metric::new("cli.core.harden_ms", stats::mean(&harden_ms), "ms"),
        Metric::new("cli.core.baseline_ms", stats::mean(&baseline_ms), "ms"),
        Metric::new("cli.wire.render_ms", stats::mean(&render_ms), "ms"),
        Metric::new("cli.cli.spawn_ms", stats::mean(&floor), "ms"),
        Metric::new("cli.cli.inproc_ms", inproc_ms, "ms"),
        Metric::new("cli.cli.process_overhead_ms", op_ms - inproc_ms, "ms"),
        Metric::new(
            "cli.trace.overhead_ratio",
            traced.ops_per_s() / untraced.ops_per_s(),
            "ratio",
        ),
    ];
    untraced.absorb(traced);
    (metrics, untraced)
}

/// Digest-table entries: each op's in-process output, which the spawned
/// binary must reproduce byte for byte with exit code 0.
pub fn generate(entries: &mut Vec<(String, u64)>) {
    let state = setup();
    for (def, expected) in OPS.iter().zip(in_process(&state)) {
        let t = Instant::now();
        let child = spawn(&def.args(&state.dir)).expect("spawn scfi");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(child.code, Some(0), "{}: non-zero exit", def.key());
        assert!(
            child.stdout == expected.as_bytes(),
            "{}: spawned stdout differs from scfi_cli::run",
            def.key()
        );
        let digest = fnv1a(&child.stdout);
        println!(
            "{:<48} {ms:>9.2} ms  {digest:016x}  {} kB rss",
            def.key(),
            child.max_rss_kb
        );
        entries.push((def.key(), digest));
    }
}
