//! Implementation of the `scfi` command-line tool.
//!
//! The binary is a thin wrapper around [`run`], which parses an argument
//! vector and writes to the provided output — keeping everything testable
//! without spawning processes:
//!
//! ```text
//! scfi harden <fsm.dsl|-> [--level N] [--adaptive] [--rails R]
//!             [--protect-outputs] [--pad zero|replicate]
//!             [--emit verilog|dot|report]
//! scfi analyze <fsm.dsl|-> [--level N] [--region all|diffusion|selector]
//!              [--pin-faults] [--stuck-at] [--rank] [--multi M --runs K]
//!              [--protocol K] [--fuzz-inputs] [--fault-windows]
//!              [--backend scalar|packed]
//!              [--lanes 64|128|256] [--format text|csv|json]
//!              [--timeout-secs T] [--max-injections K]
//!              [--stats [text|json]] [--trace-out FILE]
//! scfi certify <fsm.dsl|-> [--level N] [--config scfi|redundancy|unprotected]
//!              [--all-gates] [--stuck-at] [--pin-faults] [--per-site]
//!              [--joint] [--max-active K] [--expect-proof]
//!              [--timeout-secs T] [--max-bdd-nodes K]
//!              [--stats [text|json]] [--trace-out FILE]
//! scfi area <fsm.dsl|-> [--level N]
//! scfi suite [name]
//! scfi serve [--addr HOST:PORT] [--workers N] [--queue-capacity K]
//!            [--cache-capacity K]
//! ```

use std::fmt::Write as _;
use std::str::FromStr;

use scfi_core::{HardenedFsm, PadPolicy, ScfiConfig};
use scfi_faultsim::{
    try_run_multi_fault, Backend, CampaignError, CampaignReport, FaultTarget, ScfiTarget,
    StopReason, VulnerabilityMap,
};
use scfi_fsm::{parse_fsm, Fsm};
use scfi_netlist::Module;
use scfi_serve::cache::prepare_with;
use scfi_serve::jobs::{
    certify, joint_bound, protocol_depth, Certification, Format, JobKind, JobSpec,
};
use scfi_serve::wire::{bits, write_sites_csv, write_sites_json};
use scfi_serve::{ConfigKind, Prepared, PreparedModel, WALK_SEED};
use scfi_stdcell::Library;
use scfi_symbolic::{
    describe_active, describe_fault, CertificationReport, JointReport, JointVerdict, Verdict,
};
use scfi_telemetry::Telemetry;

/// A CLI failure: message for stderr plus the process exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Suggested exit code (1 = usage, 2 = input, 3 = processing,
    /// 4 = cancelled or timed out with partial results printed,
    /// 5 = resource budget exhausted).
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn usage_err(message: impl Into<String>) -> CliError {
    CliError {
        message: format!("{}\n\n{}", message.into(), USAGE),
        code: 1,
    }
}

/// Top-level usage text.
pub const USAGE: &str = "usage:
  scfi harden <fsm.dsl|-> [--level N] [--adaptive] [--rails R]
              [--protect-outputs] [--pad zero|replicate]
              [--emit verilog|dot|report]
  scfi analyze <fsm.dsl|-> [--level N] [--region all|diffusion|selector]
               [--pin-faults] [--stuck-at] [--rank] [--multi M --runs K]
               [--protocol K] [--fuzz-inputs] [--fault-windows]
               [--backend scalar|packed]
               [--lanes 64|128|256] [--format text|csv|json]
               [--timeout-secs T] [--max-injections K]
               [--stats [text|json]] [--trace-out FILE]
  scfi certify <fsm.dsl|-> [--level N] [--config scfi|redundancy|unprotected]
               [--all-gates] [--stuck-at] [--pin-faults] [--per-site]
               [--joint] [--max-active K] [--expect-proof]
               [--timeout-secs T] [--max-bdd-nodes K]
               [--stats [text|json]] [--trace-out FILE]
  scfi area <fsm.dsl|-> [--level N]
  scfi suite [name]
  scfi serve [--addr HOST:PORT] [--workers N] [--queue-capacity K]
             [--cache-capacity K]

`scfi serve` runs the campaign-as-a-service HTTP job server (default
address 127.0.0.1:3007): POST /v1/jobs submits an analyze or certify
job, GET /v1/jobs/{id} polls status, GET /v1/jobs/{id}/result fetches
the result document, DELETE /v1/jobs/{id} cancels cooperatively, and
GET /v1/healthz reports queue depth and compile-cache counters. A served
analyze result is byte-identical to `scfi analyze --format json|csv`; a
served certify result carries the same verdicts as `scfi certify`, as
JSON.

`-` reads the FSM DSL from standard input. `scfi suite` lists the bundled
OpenTitan-like benchmark FSMs; `scfi suite <name>` prints one as DSL.
`--protocol K` runs a multi-cycle campaign over depth-K CFG walks
(K ≤ 64), each step glitched transiently, instead of the
single-transition experiment. `--multi M --runs K` (default K = 2000)
draws M × K faults, at most 2^26.
`--backend` picks the campaign engine (default `packed`): `scalar` is
the one-injection-at-a-time reference, `packed` the bit-parallel wave
engine. `--lanes` picks the packed backend's wave width (default 256;
accepted: 64, 128, 256). The report is identical for every backend,
width and thread count, only throughput changes. `--format csv|json`
streams the per-site vulnerability map instead of the text summary.

`--fuzz-inputs` (requires `--protocol`) biases the protocol walks
adversarially: each cycle's condition word is sampled toward valid
codewords closest to a *wrong* edge's word, the inputs a glitch is most
likely to confuse. `--fault-windows` (requires `--multi`) arms each
drawn fault on its own independently sampled cycle of the schedule
instead of one shared window — the paper's §3 temporal attacker.

`scfi analyze` *samples* the detection claim with simulation campaigns
over concrete scenarios; `scfi certify` *proves* it, building BDDs of
every fault's escape condition over all reachable states and all valid
encoded input words (and refuting it with a replayed witness where no
proof exists — e.g. the unprotected configuration). `--expect-proof`
exits non-zero unless every certified site is proven. `--joint` proves
the claim *jointly*: one selector variable per fault site plus a
cardinality constraint certify every combination of up to
`--max-active` simultaneous faults (default: protection level minus
one, the paper's N − 1 bound) in a single emptiness check. With
`--all-gates`, escaping sites are additionally aggregated into a
ranked per-cell designer report.

Observability: `--stats` appends a per-run telemetry block (counters,
gauges, histograms) after the report — `--stats text` is human-readable,
`--stats json` a strict-JSON document; a bare `--stats` means text.
`--trace-out FILE` writes the run's phase spans as a chrome://tracing
JSON document (load it at chrome://tracing or ui.perfetto.dev). Neither
flag changes the report itself: campaign and certification output is
byte-identical with telemetry on or off.

Budgets: `--timeout-secs`/`--max-injections` stop an `analyze` campaign
cleanly at the next wave boundary and print the completed prefix marked
PARTIAL RESULT (every printed count is byte-identical to the same slots
of an uninterrupted run). `--timeout-secs`/`--max-bdd-nodes` bound
certification: over-budget sites degrade to UNKNOWN verdicts — never a
fabricated proof. Exit codes: 0 success, 1 usage, 2 input, 3 processing
failure (including a refuted `--expect-proof`), 4 cancelled or timed
out with partial results printed, 5 resource budget exhausted.";

/// Runs the CLI on an argument vector (without the program name), writing
/// the result into `out`.
///
/// # Errors
///
/// Returns a [`CliError`] with a message and exit code on any usage,
/// input, or processing failure.
pub fn run(args: &[String], out: &mut String) -> Result<(), CliError> {
    let mut args = args.iter();
    match args.next().map(String::as_str) {
        Some("harden") => cmd_harden(&args.cloned().collect::<Vec<_>>(), out),
        Some("analyze") => cmd_analyze(&args.cloned().collect::<Vec<_>>(), out),
        Some("certify") => cmd_certify(&args.cloned().collect::<Vec<_>>(), out),
        Some("area") => cmd_area(&args.cloned().collect::<Vec<_>>(), out),
        Some("suite") => cmd_suite(&args.cloned().collect::<Vec<_>>(), out),
        Some("serve") => cmd_serve(&args.cloned().collect::<Vec<_>>()),
        Some("--help") | Some("-h") | Some("help") => {
            let _ = writeln!(out, "{USAGE}");
            Ok(())
        }
        Some(other) => Err(usage_err(format!("unknown command `{other}`"))),
        None => Err(usage_err("missing command")),
    }
}

/// Simple flag cursor over the remaining arguments.
struct Flags<'a> {
    args: &'a [String],
    used: Vec<bool>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags {
            args,
            used: vec![false; args.len()],
        }
    }

    /// The first unused non-flag argument.
    fn positional(&mut self) -> Option<&'a str> {
        for (i, a) in self.args.iter().enumerate() {
            if !self.used[i] && !a.starts_with("--") {
                self.used[i] = true;
                return Some(a);
            }
        }
        None
    }

    fn switch(&mut self, name: &str) -> bool {
        for (i, a) in self.args.iter().enumerate() {
            if !self.used[i] && a == name {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    fn value(&mut self, name: &str) -> Result<Option<&'a str>, CliError> {
        for (i, a) in self.args.iter().enumerate() {
            if !self.used[i] && a == name {
                self.used[i] = true;
                let Some(v) = self.args.get(i + 1) else {
                    return Err(usage_err(format!("{name} needs a value")));
                };
                self.used[i + 1] = true;
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// A flag whose value is optional: consumes the flag itself, and the
    /// following argument only when it is one of `allowed` exactly (so
    /// `--stats --rank` treats `--rank` as the next flag, not a value).
    /// Returns `None` when the flag is absent, `Some(None)` when it is
    /// present bare, `Some(Some(v))` when an accepted value follows.
    fn optional_value(&mut self, name: &str, allowed: &[&str]) -> Option<Option<&'a str>> {
        for (i, a) in self.args.iter().enumerate() {
            if !self.used[i] && a == name {
                self.used[i] = true;
                if let Some(v) = self.args.get(i + 1) {
                    if !self.used[i + 1] && allowed.contains(&v.as_str()) {
                        self.used[i + 1] = true;
                        return Some(Some(v));
                    }
                }
                return Some(None);
            }
        }
        None
    }

    /// A flag with a numeric value; a value that does not parse is a
    /// usage error saying the flag `must be {what}`.
    fn number<T: FromStr>(&mut self, name: &str, what: &str) -> Result<Option<T>, CliError> {
        self.value(name)?
            .map(|v| {
                v.parse()
                    .map_err(|_| usage_err(format!("{name} must be {what}")))
            })
            .transpose()
    }

    fn finish(&self) -> Result<(), CliError> {
        for (i, a) in self.args.iter().enumerate() {
            if !self.used[i] {
                return Err(usage_err(format!("unexpected argument `{a}`")));
            }
        }
        Ok(())
    }

    /// The FSM input path: the one argument left once every flag has
    /// been consumed. Taking it last keeps a flag's value (the `3` of
    /// `--level 3`) from being read as the path.
    fn input(&mut self) -> Result<&'a str, CliError> {
        let path = self
            .positional()
            .ok_or_else(|| usage_err("missing FSM input file"))?;
        self.finish()?;
        Ok(path)
    }
}

fn load_fsm(path: &str) -> Result<Fsm, CliError> {
    let text = if path == "-" {
        use std::io::Read as _;
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| CliError {
                message: format!("reading stdin: {e}"),
                code: 2,
            })?;
        s
    } else {
        std::fs::read_to_string(path).map_err(|e| CliError {
            message: format!("reading {path}: {e}"),
            code: 2,
        })?
    };
    parse_fsm(&text).map_err(|e| CliError {
        message: format!("parsing {path}: {e}"),
        code: 2,
    })
}

fn parse_config(flags: &mut Flags<'_>) -> Result<ScfiConfig, CliError> {
    let level = flags.number("--level", "a number")?.unwrap_or(3);
    let mut config = ScfiConfig::new(level);
    if flags.switch("--adaptive") {
        config = config.adaptive_mds(true);
    }
    if let Some(rails) = flags.number("--rails", "a number")? {
        if rails == 0 {
            return Err(usage_err("--rails must be at least 1"));
        }
        config = config.selector_rails(rails);
    }
    if flags.switch("--protect-outputs") {
        config = config.protect_outputs(true);
    }
    match flags.value("--pad")? {
        Some("zero") | None => {}
        Some("replicate") => config = config.pad(PadPolicy::Replicate),
        Some(other) => return Err(usage_err(format!("unknown pad policy `{other}`"))),
    }
    Ok(config)
}

/// Prepares `fsm` as the job server does; a failed pass is a processing
/// error (exit 3) carrying the pass's message.
fn prepare(fsm: &Fsm, kind: ConfigKind, config: &ScfiConfig) -> Result<Prepared, CliError> {
    prepare_with(fsm, kind, config).map_err(|message| CliError { message, code: 3 })
}

/// The hardened model of an SCFI preparation.
fn hardened(prepared: &Prepared) -> &HardenedFsm {
    match &prepared.model {
        PreparedModel::Scfi(hardened) => hardened,
        _ => unreachable!("an SCFI preparation holds the hardened model"),
    }
}

fn cmd_harden(args: &[String], out: &mut String) -> Result<(), CliError> {
    let mut flags = Flags::new(args);
    let emit = flags.value("--emit")?.unwrap_or("verilog").to_string();
    let config = parse_config(&mut flags)?;
    let prepared = prepare(&load_fsm(flags.input()?)?, ConfigKind::Scfi, &config)?;
    let hardened = hardened(&prepared);
    match emit.as_str() {
        "verilog" => {
            let _ = write!(out, "{}", hardened.module().to_verilog());
        }
        "dot" => {
            let _ = write!(out, "{}", hardened.module().to_dot());
        }
        "report" => {
            let _ = writeln!(out, "{}", hardened.report());
            let r = hardened.regions();
            let _ = writeln!(out, "regions (cells):");
            let _ = writeln!(out, "  pattern match   {:>6}", r.pattern_match.len());
            let _ = writeln!(out, "  modifier select {:>6}", r.modifier_select.len());
            let _ = writeln!(out, "  diffusion       {:>6}", r.diffusion.len());
            let _ = writeln!(out, "  error logic     {:>6}", r.error_logic.len());
            let _ = writeln!(out, "  output check    {:>6}", r.output_check.len());
        }
        other => return Err(usage_err(format!("unknown emit format `{other}`"))),
    }
    Ok(())
}

/// The most faults one `--multi M --runs K` campaign draws (M × K).
const MAX_DRAWN_FAULTS: usize = 1 << 26;

fn cmd_analyze(args: &[String], out: &mut String) -> Result<(), CliError> {
    let mut flags = Flags::new(args);
    let region = flags.value("--region")?.unwrap_or("all").to_string();
    let pin_faults = flags.switch("--pin-faults");
    let stuck_at = flags.switch("--stuck-at");
    let rank = flags.switch("--rank");
    let multi: Option<usize> = flags.number("--multi", "a number")?;
    let runs: Option<usize> = flags.number("--runs", "a number")?;
    let protocol = flags
        .number::<u64>("--protocol", "a walk depth")?
        .map(|depth| protocol_depth(depth).map_err(|m| usage_err(format!("--protocol {m}"))))
        .transpose()?;
    let fuzz_inputs = flags.switch("--fuzz-inputs");
    let fault_windows = flags.switch("--fault-windows");
    // `None` is the text summary; csv and json stream the per-site map.
    let format = match flags.value("--format")? {
        None | Some("text") => None,
        Some("csv") => Some(Format::Csv),
        Some("json") => Some(Format::Json),
        Some(other) => return Err(usage_err(format!("unknown format `{other}`"))),
    };
    if !matches!(region.as_str(), "all" | "diffusion" | "selector") {
        return Err(usage_err(format!("unknown region `{region}`")));
    }
    // Every flag combination is checked before any work is done or any
    // output is written.
    let map_format = format.is_some();
    for (conflict, message) in [
        (
            fuzz_inputs && protocol.is_none(),
            "--fuzz-inputs biases protocol walks; it requires --protocol",
        ),
        (
            fault_windows && multi.is_none(),
            "--fault-windows samples per-fault arming windows; it requires --multi",
        ),
        (
            runs.is_some() && multi.is_none(),
            "--runs sets the --multi sample count; it requires --multi",
        ),
        (
            multi == Some(0),
            "--multi 0 injects no fault; it must be at least 1",
        ),
        (
            runs == Some(0),
            "--runs 0 draws no sample; it must be at least 1",
        ),
        (
            map_format && multi.is_some(),
            "--format csv|json streams the exhaustive per-site map; \
             it cannot be combined with --multi",
        ),
        (
            map_format && rank,
            "--rank is the text ranking; --format csv|json already exports every site",
        ),
        (
            rank && multi.is_some(),
            "--rank applies to exhaustive campaigns only",
        ),
    ] {
        if conflict {
            return Err(usage_err(message));
        }
    }
    // The work list holds every drawn fault, about 30 bytes each: refuse
    // a draw count whose allocation would abort the process.
    let runs = runs.unwrap_or(2000);
    if let Some(m) = multi {
        if m.saturating_mul(runs) > MAX_DRAWN_FAULTS {
            return Err(usage_err(format!(
                "--multi {m} × --runs {runs} draws more than {MAX_DRAWN_FAULTS} faults"
            )));
        }
    }
    let lane_words: usize = match flags.value("--lanes")? {
        Some("64") => 1,
        Some("128") => 2,
        Some("256") | None => 4,
        Some(other) => {
            return Err(usage_err(format!(
                "--lanes must be 64, 128 or 256 (got `{other}`)"
            )))
        }
    };
    let backend = match flags.value("--backend")? {
        None => Backend::default(),
        Some(name) => Backend::parse(name).ok_or_else(|| {
            usage_err(format!(
                "--backend must be {} (got `{name}`)",
                Backend::accepted_names()
            ))
        })?,
    };
    let timeout_secs = flags.number("--timeout-secs", "a whole number of seconds")?;
    let max_injections = flags.number("--max-injections", "a number")?;
    let stats = parse_stats_options(&mut flags)?;
    let scfi_config = parse_config(&mut flags)?;
    let level = scfi_config.protection_level();
    let spec = JobSpec {
        backend,
        lane_words,
        protocol,
        fuzz_inputs,
        format: format.unwrap_or(Format::Json),
        stuck_at,
        pin_faults,
        timeout_secs,
        max_injections,
        ..JobSpec::new(
            JobKind::Analyze,
            load_fsm(flags.input()?)?,
            ConfigKind::Scfi,
            level,
        )
    };
    let prepared = prepare(&spec.fsm, spec.config, &scfi_config)?;
    let hardened = hardened(&prepared);
    let control = spec.run_control();

    let mut config = spec.campaign_config(&prepared, &stats.telemetry);
    let regions = hardened.regions();
    config = match region.as_str() {
        "diffusion" => config.region(regions.diffusion.clone()),
        "selector" => config.region(regions.pattern_match.start..regions.modifier_select.end),
        _ => config,
    };
    if fault_windows {
        config = config.with_fault_windows();
    }

    let target = match protocol {
        // Walk seed fixed, and shared with `scfi serve`, so repeated
        // invocations and served jobs analyze the same protocol scenario
        // set.
        Some(depth) if fuzz_inputs => ScfiTarget::with_fuzzed_protocol(hardened, depth, WALK_SEED),
        Some(depth) => ScfiTarget::with_protocol(hardened, depth, WALK_SEED),
        None => ScfiTarget::new(hardened),
    };
    if let Some(depth) = protocol {
        let _ = writeln!(
            out,
            "multi-cycle campaign: depth-{depth} {}protocol walks, {} scenarios",
            if fuzz_inputs {
                "adversarially fuzzed "
            } else {
                ""
            },
            target.scenario_count()
        );
    }
    if let Some(m) = multi {
        let report = try_run_multi_fault(&target, m, runs, &config, &control)
            .map_err(|e| campaign_error(e, out))?;
        write_summary(out, &report, hardened);
    } else {
        let map = VulnerabilityMap::try_analyze(&target, &config, &control)
            .map_err(|e| campaign_error(e, out))?;
        match format {
            Some(Format::Csv) => write_sites_csv(out, hardened.module(), &map),
            Some(Format::Json) => write_sites_json(out, hardened.module(), &map),
            None => {
                write_summary(out, &map.summary(), hardened);
                if rank {
                    let _ = writeln!(out, "{map}");
                }
            }
        }
    }
    stats.emit(out)?;
    Ok(())
}

/// The text report of `scfi analyze`: the campaign's totals and the
/// paper's analytic success probability.
fn write_summary(out: &mut String, report: &CampaignReport, hardened: &HardenedFsm) {
    let _ = writeln!(out, "{report}");
    let _ = writeln!(
        out,
        "analytic success probability (paper formula): {:.3e}",
        scfi_faultsim::paper_success_probability(hardened)
    );
}

/// Converts a campaign failure into its exit code, writing the completed
/// prefix (clearly marked) into `out` first: 4 for a cancelled or
/// deadline-stopped run, 5 for an exhausted injection budget, 3 for
/// anything else (worker panics, overflows).
fn campaign_error(e: CampaignError, out: &mut String) -> CliError {
    match e {
        CampaignError::Interrupted { reason, partial } => {
            let code = match reason {
                StopReason::Cancelled | StopReason::DeadlineExpired => 4,
                StopReason::InjectionBudgetExhausted => 5,
            };
            let _ = writeln!(
                out,
                "PARTIAL RESULT (stopped early: {reason}) — {} of {} injections completed",
                partial.completed,
                partial.total()
            );
            let _ = writeln!(out, "{}", partial.report);
            CliError {
                message: format!("campaign interrupted: {reason}"),
                code,
            }
        }
        other => CliError {
            message: format!("campaign failed: {other}"),
            code: 3,
        },
    }
}

/// Parsed observability flags (`--stats [text|json]`, `--trace-out FILE`)
/// plus the telemetry handle they imply: recording when either flag is
/// present, the free no-op handle otherwise.
struct StatsOptions {
    stats: Option<String>,
    trace_out: Option<String>,
    telemetry: Telemetry,
}

impl StatsOptions {
    /// Appends the requested stats block to `out` and writes the
    /// chrome://tracing document. Called after the report is complete so
    /// the report bytes themselves are never perturbed.
    fn emit(&self, out: &mut String) -> Result<(), CliError> {
        match self.stats.as_deref() {
            Some("json") => out.push_str(&self.telemetry.render_stats_json()),
            Some(_) => out.push_str(&self.telemetry.render_stats_text()),
            None => {}
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, self.telemetry.render_chrome_trace()).map_err(|e| CliError {
                message: format!("writing trace file {path}: {e}"),
                code: 2,
            })?;
        }
        Ok(())
    }
}

/// Parses the shared observability flags for `analyze` and `certify`.
fn parse_stats_options(flags: &mut Flags<'_>) -> Result<StatsOptions, CliError> {
    let stats = flags
        .optional_value("--stats", &["text", "json"])
        .map(|v| v.unwrap_or("text").to_string());
    let trace_out = flags.value("--trace-out")?.map(str::to_string);
    let telemetry = if stats.is_some() || trace_out.is_some() {
        Telemetry::recording()
    } else {
        Telemetry::off()
    };
    Ok(StatsOptions {
        stats,
        trace_out,
        telemetry,
    })
}

/// `scfi serve`: boots the campaign-as-a-service HTTP job server and
/// blocks until the process is killed. The listening line is printed
/// straight to stdout (not the deferred output buffer) so scripts can
/// scrape the actual bound port before the server blocks.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let mut flags = Flags::new(args);
    let addr = flags
        .value("--addr")?
        .unwrap_or("127.0.0.1:3007")
        .to_string();
    let mut options = scfi_serve::ServerOptions::default();
    if let Some(v) = flags.value("--workers")? {
        options.workers = v
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| usage_err("--workers must be a positive number"))?;
    }
    if let Some(v) = flags.value("--queue-capacity")? {
        options.queue_capacity = v
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| usage_err("--queue-capacity must be a positive number"))?;
    }
    if let Some(v) = flags.value("--cache-capacity")? {
        options.cache_capacity = v
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| usage_err("--cache-capacity must be a positive number"))?;
    }
    flags.finish()?;
    let server = scfi_serve::Server::bind(&addr, options).map_err(|e| CliError {
        message: format!("binding {addr}: {e}"),
        code: 2,
    })?;
    println!("scfi serve listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();
    Ok(())
}

/// `scfi certify`: formal fault certification via the `scfi-symbolic`
/// BDD engine, run through the job server's [`certify`].
fn cmd_certify(args: &[String], out: &mut String) -> Result<(), CliError> {
    let mut flags = Flags::new(args);
    let config = match flags.value("--config")? {
        None => ConfigKind::Scfi,
        Some(name) => ConfigKind::parse(name)
            .ok_or_else(|| usage_err(format!("unknown certify config `{name}`")))?,
    };
    let all_gates = flags.switch("--all-gates");
    let stuck_at = flags.switch("--stuck-at");
    let pin_faults = flags.switch("--pin-faults");
    let per_site = flags.switch("--per-site");
    let joint = flags.switch("--joint");
    let max_active = flags.number("--max-active", "a number")?;
    let expect_proof = flags.switch("--expect-proof");
    let timeout_secs = flags.number("--timeout-secs", "a whole number of seconds")?;
    let max_bdd_nodes = flags.number("--max-bdd-nodes", "a number")?;
    let stats = parse_stats_options(&mut flags)?;
    let scfi_config = parse_config(&mut flags)?;
    let path = flags.input()?;
    let level = scfi_config.protection_level();
    if max_active.is_some() && !joint {
        return Err(usage_err("--max-active sets the --joint fault bound"));
    }
    if joint && per_site {
        return Err(usage_err(
            "--per-site lists per-site verdicts; the --joint claim has a single verdict",
        ));
    }
    if joint {
        joint_bound(max_active, level).map_err(usage_err)?;
    }
    let spec = JobSpec {
        stuck_at,
        pin_faults,
        joint,
        max_active,
        all_gates,
        timeout_secs,
        max_bdd_nodes,
        ..JobSpec::new(JobKind::Certify, load_fsm(path)?, config, level)
    };
    let prepared = prepare(&spec.fsm, spec.config, &scfi_config)?;
    let module = prepared.module();
    let verdict = match certify(&spec, &prepared.model, None, &stats.telemetry) {
        Certification::Joint(report) => write_joint(out, module, &report, expect_proof),
        Certification::Sites(report) => {
            write_sites(out, module, &report, per_site, all_gates, expect_proof)
        }
    };
    stats.emit(out)?;
    verdict
}

/// Renders a joint report, with the active faults and the attacked state
/// of a counterexample, and returns its exit status: a refutation fails
/// only under `--expect-proof`, an undecided claim always.
fn write_joint(
    out: &mut String,
    module: &Module,
    report: &JointReport,
    expect_proof: bool,
) -> Result<(), CliError> {
    let _ = writeln!(out, "{report}");
    if let JointVerdict::Counterexample(w) = &report.verdict {
        let _ = writeln!(out, "  active: {}", describe_active(module, w));
        let _ = writeln!(
            out,
            "  from state {} under inputs {}",
            bits(&w.regs),
            bits(&w.inputs)
        );
    }
    match &report.verdict {
        JointVerdict::Proved => Ok(()),
        JointVerdict::Counterexample(_) if expect_proof => Err(CliError {
            message: format!(
                "--expect-proof: a combination of at most {} fault(s) refutes the joint guarantee",
                report.max_active
            ),
            code: 3,
        }),
        JointVerdict::Counterexample(_) => Ok(()),
        JointVerdict::Unknown { reason } => Err(CliError {
            message: format!("joint certification budget exhausted: claim undecided ({reason})"),
            code: if reason.contains("deadline") { 4 } else { 5 },
        }),
    }
}

/// Renders a per-site report (the summary, the optional per-site
/// listing, each counterexample's witness, the `--all-gates` escape
/// ranking, the guarantee line) and returns its exit status:
/// counterexamples fail only under `--expect-proof`, undecided sites
/// always.
fn write_sites(
    out: &mut String,
    module: &Module,
    report: &CertificationReport,
    per_site: bool,
    all_gates: bool,
    expect_proof: bool,
) -> Result<(), CliError> {
    let _ = writeln!(out, "{report}");
    if per_site {
        for site in &report.sites {
            let tag = match &site.verdict {
                Verdict::ProvenDetected => "proven-detected",
                Verdict::ProvenMasked => "proven-masked  ",
                Verdict::Counterexample(_) => "COUNTEREXAMPLE ",
                Verdict::Unknown { .. } => "UNKNOWN        ",
            };
            let _ = writeln!(out, "  {tag}  {}", describe_fault(module, site.fault));
        }
    }
    for (fault, witness) in report.counterexample_sites() {
        let _ = writeln!(
            out,
            "  counterexample: {} from state {} under inputs {} ({})",
            describe_fault(module, *fault),
            bits(&witness.regs),
            bits(&witness.inputs),
            if witness.confirmed {
                "replay-confirmed hijack on the scalar simulator"
            } else {
                "NOT confirmed by replay — engine disagreement, please report"
            }
        );
    }
    if all_gates {
        // The designer's view of `--all-gates`: which cells the escapes
        // concentrate in, ranked like the campaign vulnerability map.
        let _ = writeln!(out, "{}", report.escape_ranking());
    }
    if report.all_proven() {
        let _ = writeln!(
            out,
            "GUARANTEE PROVED: no certified fault can silently hijack control flow \
             from any reachable state under any admissible input word."
        );
    } else if report.counterexamples() > 0 {
        let _ = writeln!(
            out,
            "guarantee REFUTED: {} of {} sites have escaping assignments.",
            report.counterexamples(),
            report.sites.len()
        );
    } else {
        let _ = writeln!(
            out,
            "PARTIAL RESULT: {} of {} sites exceeded the certification budget; \
             their verdicts are UNKNOWN, not proofs.",
            report.unknown(),
            report.sites.len()
        );
    }
    if expect_proof && report.counterexamples() > 0 {
        return Err(CliError {
            message: format!(
                "--expect-proof: {} counterexample site(s) refute the detection guarantee",
                report.counterexamples()
            ),
            code: 3,
        });
    }
    if report.unknown() > 0 {
        // The budget ran out before every site was decided. The report
        // (with its UNKNOWN verdicts) is already in `out`; exit with the
        // documented partial-result code so scripts can tell "undecided"
        // from "refuted".
        let deadline = report.sites.iter().any(
            |s| matches!(&s.verdict, Verdict::Unknown { reason } if reason.contains("deadline")),
        );
        return Err(CliError {
            message: format!(
                "certification budget exhausted: {} of {} site(s) undecided",
                report.unknown(),
                report.sites.len()
            ),
            code: if deadline { 4 } else { 5 },
        });
    }
    Ok(())
}

fn cmd_area(args: &[String], out: &mut String) -> Result<(), CliError> {
    let mut flags = Flags::new(args);
    let config = parse_config(&mut flags)?;
    let fsm = load_fsm(flags.input()?)?;
    let models = [
        ConfigKind::Unprotected,
        ConfigKind::Redundancy,
        ConfigKind::Scfi,
    ]
    .into_iter()
    .map(|kind| Ok((kind.name(), prepare(&fsm, kind, &config)?)))
    .collect::<Result<Vec<_>, CliError>>()?;
    let lib = Library::nangate45_like();
    let _ = writeln!(
        out,
        "{} at protection level {}:",
        fsm.name(),
        config.protection_level()
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>14} {:>12}",
        "config", "area [GE]", "min period ps", "max MHz"
    );
    for (name, prepared) in &models {
        let mapped = lib.map(prepared.module());
        let _ = writeln!(
            out,
            "{:<14} {:>10.1} {:>14.0} {:>12.1}",
            name,
            mapped.area_ge(),
            mapped.min_period_ps(),
            mapped.max_frequency_mhz()
        );
    }
    Ok(())
}

fn cmd_suite(args: &[String], out: &mut String) -> Result<(), CliError> {
    let mut flags = Flags::new(args);
    let name = flags.positional().map(str::to_string);
    flags.finish()?;
    match name {
        None => {
            let _ = writeln!(out, "bundled benchmark FSMs (paper Table 1):");
            for b in scfi_opentitan::all() {
                let _ = writeln!(
                    out,
                    "  {:<18} {:>3} states, {:>2} signals, module {:.0} GE",
                    b.name,
                    b.fsm.state_count(),
                    b.fsm.signals().len(),
                    b.paper_module_ge
                );
            }
            let _ = writeln!(out, "multi-cycle protocol workloads (not Table-1 rows):");
            for fsm in scfi_opentitan::protocol_workloads() {
                let _ = writeln!(
                    out,
                    "  {:<18} {:>3} states, {:>2} signals (try `scfi analyze - --protocol 4`)",
                    fsm.name(),
                    fsm.state_count(),
                    fsm.signals().len()
                );
            }
        }
        Some(name) => {
            let fsm = scfi_opentitan::bundled(&name).ok_or_else(|| CliError {
                message: format!("no bundled FSM named `{name}` (try `scfi suite`)"),
                code: 2,
            })?;
            let _ = write!(out, "{}", fsm.to_dsl());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        run(&args, &mut out).expect("command succeeds");
        out
    }

    fn run_err(args: &[&str]) -> CliError {
        run_err_out(args).0
    }

    /// A failing run's error, with everything it wrote before failing.
    fn run_err_out(args: &[&str]) -> (CliError, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        let e = run(&args, &mut out).expect_err("command fails");
        (e, out)
    }

    fn write_demo() -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("scfi_cli_demo_{}_{unique}.dsl", std::process::id()));
        std::fs::write(
            &path,
            "fsm demo { inputs go; state A { if go -> B; } state B { goto A; } }",
        )
        .expect("writable temp dir");
        path
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_ok(&["--help"]).contains("usage:"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let e = run_err(&["frobnicate"]);
        assert_eq!(e.code, 1);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn suite_lists_and_dumps() {
        let listing = run_ok(&["suite"]);
        assert!(listing.contains("adc_ctrl_fsm"));
        assert!(listing.contains("pwrmgr_fsm"));
        assert!(listing.contains("secure_boot_fsm"));
        let dsl = run_ok(&["suite", "aes_control"]);
        assert!(dsl.starts_with("fsm aes_control {"));
        // The dump re-parses.
        assert!(parse_fsm(&dsl).is_ok());
        let boot = run_ok(&["suite", "secure_boot_fsm"]);
        assert!(boot.starts_with("fsm secure_boot_fsm {"));
        assert!(parse_fsm(&boot).is_ok());
        let e = run_err(&["suite", "ghost"]);
        assert_eq!(e.code, 2);
    }

    #[test]
    fn harden_emits_verilog_by_default() {
        let path = write_demo();
        let out = run_ok(&["harden", path.to_str().expect("utf8")]);
        assert!(out.contains("module demo_scfi"));
        assert!(out.contains("endmodule"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn harden_report_and_flags() {
        let path = write_demo();
        let out = run_ok(&[
            "harden",
            path.to_str().expect("utf8"),
            "--level",
            "2",
            "--adaptive",
            "--rails",
            "2",
            "--protect-outputs",
            "--emit",
            "report",
        ]);
        assert!(out.contains("SCFI:"));
        assert!(out.contains("pattern match"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn harden_report_names_the_adapted_mds_width() {
        // §7 adaptation fits aes_control at N = 3 into one 24-bit matrix;
        // without it the paper's 32-bit matrix is used.
        let path =
            std::env::temp_dir().join(format!("scfi_cli_aes_adaptive_{}.dsl", std::process::id()));
        let fsm = scfi_opentitan::by_name("aes_control")
            .expect("suite FSM")
            .fsm;
        std::fs::write(&path, fsm.to_dsl()).expect("writable temp dir");
        let p = path.to_str().expect("utf8");
        let adaptive = run_ok(&[
            "harden",
            p,
            "--level",
            "3",
            "--adaptive",
            "--emit",
            "report",
        ]);
        let fixed = run_ok(&["harden", p, "--level", "3", "--emit", "report"]);
        let _ = std::fs::remove_file(path);
        assert!(adaptive.contains("(24-bit MDS, 3 err bits)"), "{adaptive}");
        assert!(fixed.contains("(32-bit MDS, 3 err bits)"), "{fixed}");
    }

    #[test]
    fn analyze_runs_a_campaign() {
        let path = write_demo();
        let out = run_ok(&[
            "analyze",
            path.to_str().expect("utf8"),
            "--level",
            "2",
            "--region",
            "diffusion",
            "--pin-faults",
        ]);
        assert!(out.contains("injections"));
        assert!(out.contains("analytic success probability"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_rank_attributes_cells() {
        let path = write_demo();
        let out = run_ok(&[
            "analyze",
            path.to_str().expect("utf8"),
            "--level",
            "2",
            "--rank",
        ]);
        assert!(out.contains("cells"));
        let _ = std::fs::remove_file(path);
    }

    /// Every exhaustive output reads one vulnerability map: the text
    /// summary's counts are the sums over the JSON sites, and `--rank`
    /// prints the text report first, then the ranking.
    #[test]
    fn analyze_text_rank_and_json_read_one_map() {
        use scfi_serve::json::{parse, Json};
        let path =
            std::env::temp_dir().join(format!("scfi_cli_one_map_{}.dsl", std::process::id()));
        std::fs::write(&path, run_ok(&["suite", "aes_control"])).expect("writable temp dir");
        let base = [
            "analyze",
            path.to_str().expect("utf8"),
            "--level",
            "3",
            "--stuck-at",
        ];
        let text = run_ok(&base);
        let ranked = run_ok(&[&base[..], &["--rank"]].concat());
        let json = run_ok(&[&base[..], &["--format", "json"]].concat());
        let _ = std::fs::remove_file(path);

        let doc = parse(&json).expect("the map is a JSON document");
        let sites = doc.get("sites").and_then(Json::as_arr).expect("sites");
        let sum = |key: &str| -> u64 {
            sites
                .iter()
                .map(|site| site.get(key).and_then(Json::as_u64).expect("count"))
                .sum()
        };
        let (masked, detected, hijacked) = (sum("masked"), sum("detected"), sum("hijacked"));
        assert!(hijacked > 0, "the fixture must attribute hijacks");
        let summary = format!(
            "{} injections: {masked} masked, {detected} detected, {hijacked} hijacked (",
            masked + detected + hijacked
        );
        assert!(text.starts_with(&summary), "{summary}\nvs\n{text}");
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(
            ranked.starts_with(&text) && ranked.len() > text.len(),
            "--rank must extend the text report:\n{ranked}"
        );
    }

    #[test]
    fn analyze_protocol_runs_a_multicycle_campaign() {
        let path = write_demo();
        let out = run_ok(&[
            "analyze",
            path.to_str().expect("utf8"),
            "--level",
            "2",
            "--protocol",
            "3",
        ]);
        assert!(out.contains("depth-3 protocol walks"));
        assert!(out.contains("injections"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bad_protocol_depth_is_rejected() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        assert_eq!(run_err(&["analyze", p, "--protocol", "0"]).code, 1);
        assert_eq!(run_err(&["analyze", p, "--protocol", "x"]).code, 1);
        // Past MAX_PROTOCOL_DEPTH the walks are refused before they are
        // allocated, never an allocation abort.
        assert_eq!(run_err(&["analyze", p, "--protocol", "65"]).code, 1);
        assert_eq!(
            run_err(&["analyze", p, "--protocol", "99999999999"]).code,
            1
        );
        let deepest = run_ok(&["analyze", p, "--level", "2", "--protocol", "64"]);
        assert!(deepest.contains("depth-64 protocol walks"), "{deepest}");
        let _ = std::fs::remove_file(path);
    }

    /// A joint bound past the site count means "all of them": `at_most`
    /// clamps it, so it runs instead of allocating a threshold per bound.
    #[test]
    fn joint_bounds_past_the_site_count_are_clamped() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let joint = |k: &str| run_ok(&["certify", p, "--level", "2", "--joint", "--max-active", k]);
        // The demo FSM has 6 register sites.
        assert_eq!(
            joint("99999999999").replace("at most 99999999999 ", "at most 6 "),
            joint("6")
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn lanes_flag_changes_width_not_results() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let wide = run_ok(&["analyze", p, "--level", "2", "--lanes", "256"]);
        let narrow = run_ok(&["analyze", p, "--level", "2", "--lanes", "64"]);
        let default = run_ok(&["analyze", p, "--level", "2"]);
        assert_eq!(wide, narrow, "wave width must not change the report");
        assert_eq!(wide, default);
        let _ = std::fs::remove_file(path);
    }

    /// The execution backend is a pure throughput knob: every `--backend`
    /// choice (including the ranked map) must print byte-identical output.
    #[test]
    fn backend_flag_changes_engine_not_results() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let base = ["analyze", p, "--level", "2", "--rank"];
        let default = run_ok(&base);
        for backend in Backend::ALL {
            let mut args = base.to_vec();
            args.extend(["--backend", backend.name()]);
            assert_eq!(
                run_ok(&args),
                default,
                "--backend {backend} must not change the report"
            );
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn backend_rejection_names_the_accepted_set() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        for bogus in ["avx512", "fast", "1", "simd"] {
            let e = run_err(&["analyze", p, "--backend", bogus]);
            assert_eq!(e.code, 1);
            assert!(
                e.message.contains(&Backend::accepted_names()),
                "error for --backend {bogus} must name the accepted set: {}",
                e.message
            );
        }
        let _ = std::fs::remove_file(path);
    }

    /// Lane-width validation must *name* the accepted set, at both layers:
    /// the CLI flag error and the library builder panic.
    #[test]
    fn lanes_rejection_names_the_accepted_set() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        for bogus in ["96", "0", "512", "x"] {
            let e = run_err(&["analyze", p, "--lanes", bogus]);
            assert_eq!(e.code, 1);
            assert!(
                e.message.contains("64, 128 or 256"),
                "error for --lanes {bogus} must name the accepted set: {}",
                e.message
            );
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn certify_proves_the_scfi_demo() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let out = run_ok(&["certify", p, "--level", "2", "--expect-proof"]);
        assert!(out.contains("GUARANTEE PROVED"), "{out}");
        assert!(out.contains("counterexamples: 0"), "{out}");
        // Per-site listing names every certified site.
        let listed = run_ok(&["certify", p, "--level", "2", "--per-site"]);
        assert!(listed.contains("proven-detected"), "{listed}");
        assert!(listed.contains("stored-bit flip on register 0"), "{listed}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn certify_refutes_the_unprotected_demo() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let out = run_ok(&["certify", p, "--config", "unprotected"]);
        assert!(out.contains("REFUTED"), "{out}");
        assert!(out.contains("replay-confirmed hijack"), "{out}");
        // --expect-proof turns the refutation into a processing error —
        // with the already-written report (verdicts, witnesses) still in
        // the output buffer, so the binary can print it before exiting.
        let args: Vec<String> = ["certify", p, "--config", "unprotected", "--expect-proof"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut report = String::new();
        let e = run(&args, &mut report).expect_err("refutation fails --expect-proof");
        assert_eq!(e.code, 3);
        assert!(e.message.contains("counterexample"), "{}", e.message);
        assert!(
            report.contains("REFUTED"),
            "report must survive the error: {report}"
        );
        assert!(report.contains("counterexample:"), "{report}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn certify_covers_redundancy_and_all_gates() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let out = run_ok(&["certify", p, "--level", "2", "--config", "redundancy"]);
        assert!(out.contains("(redundancy)"), "{out}");
        assert!(out.contains("counterexamples: 0"), "{out}");
        // All-gates certification runs the whole cell space (stuck-ats and
        // pin faults included) without claiming a proof necessarily holds.
        let out = run_ok(&[
            "certify",
            p,
            "--level",
            "2",
            "--all-gates",
            "--stuck-at",
            "--pin-faults",
        ]);
        assert!(out.contains("fault sites"), "{out}");
        let e = run_err(&["certify", p, "--config", "bogus"]);
        assert_eq!(e.code, 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_fuzzed_protocol_runs_and_requires_protocol() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let out = run_ok(&[
            "analyze",
            p,
            "--level",
            "2",
            "--protocol",
            "3",
            "--fuzz-inputs",
        ]);
        assert!(out.contains("adversarially fuzzed protocol walks"), "{out}");
        assert!(out.contains("injections"), "{out}");
        let e = run_err(&["analyze", p, "--fuzz-inputs"]);
        assert_eq!(e.code, 1);
        assert!(e.message.contains("--protocol"), "{}", e.message);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_fault_windows_runs_and_requires_multi() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let out = run_ok(&[
            "analyze",
            p,
            "--level",
            "2",
            "--protocol",
            "3",
            "--multi",
            "2",
            "--runs",
            "200",
            "--fault-windows",
        ]);
        assert!(out.contains("injections"), "{out}");
        let e = run_err(&["analyze", p, "--fault-windows"]);
        assert_eq!(e.code, 1);
        assert!(e.message.contains("--multi"), "{}", e.message);
        let _ = std::fs::remove_file(path);
    }

    /// `--stats` appends the telemetry block *after* the report, without
    /// perturbing a single report byte; `--stats json` emits the JSON
    /// document instead.
    #[test]
    fn analyze_stats_appends_after_an_unchanged_report() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let plain = run_ok(&["analyze", p, "--level", "2"]);
        let with_stats = run_ok(&["analyze", p, "--level", "2", "--stats"]);
        assert!(
            with_stats.starts_with(&plain),
            "--stats must only append, never change the report"
        );
        let block = &with_stats[plain.len()..];
        assert!(block.starts_with("run stats:"), "{block}");
        assert!(block.contains("scfi_campaign_waves_total"), "{block}");
        assert!(block.contains("scfi_campaign_injections_total"), "{block}");
        // Explicit `--stats text` is the same as bare `--stats`.
        let text = run_ok(&["analyze", p, "--level", "2", "--stats", "text"]);
        assert_eq!(text, with_stats);
        let json = run_ok(&["analyze", p, "--level", "2", "--stats", "json"]);
        assert!(json.starts_with(&plain));
        let block = &json[plain.len()..];
        assert!(block.starts_with("{\n  \"counters\": {"), "{block}");
        assert!(
            block.contains("\"scfi_campaign_injections_total\":"),
            "{block}"
        );
        assert!(block.contains("\"histograms\""), "{block}");
        let _ = std::fs::remove_file(path);
    }

    /// A value that is not `text`/`json` is left for `finish()` to reject
    /// — `--stats` never swallows the next flag as its value.
    #[test]
    fn stats_value_must_be_text_or_json() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let e = run_err(&["analyze", p, "--stats", "xml"]);
        assert_eq!(e.code, 1);
        assert!(e.message.contains("xml"), "{}", e.message);
        // `--stats` followed by another flag still parses that flag.
        let out = run_ok(&["analyze", p, "--level", "2", "--stats", "--rank"]);
        assert!(out.contains("cells"), "{out}");
        assert!(out.contains("run stats:"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn certify_stats_reports_bdd_counters() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let plain = run_ok(&["certify", p, "--level", "2"]);
        let with_stats = run_ok(&["certify", p, "--level", "2", "--stats"]);
        assert!(
            with_stats.starts_with(&plain),
            "--stats must only append, never change the report"
        );
        let block = &with_stats[plain.len()..];
        assert!(block.contains("scfi_bdd_ite_cache_hits_total"), "{block}");
        assert!(block.contains("scfi_bdd_nodes_high_water"), "{block}");
        assert!(block.contains("scfi_certify_site_ns"), "{block}");
        // The joint path is instrumented through the same certifier.
        let joint = run_ok(&["certify", p, "--joint", "--stats"]);
        assert!(joint.contains("scfi_bdd_ite_cache_hits_total"), "{joint}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn trace_out_writes_a_chrome_trace() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let trace =
            std::env::temp_dir().join(format!("scfi_cli_trace_{}.json", std::process::id()));
        let t = trace.to_str().expect("utf8");
        let out = run_ok(&["certify", p, "--level", "2", "--trace-out", t]);
        // --trace-out alone does not print a stats block.
        assert!(!out.contains("run stats:"), "{out}");
        let doc = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(doc.starts_with("{\"traceEvents\": ["), "{doc}");
        assert!(doc.contains("\"certify_setup\""), "{doc}");
        assert!(doc.contains("\"certify_site\""), "{doc}");
        assert!(doc.contains("\"ph\": \"X\""), "{doc}");
        let e = run_err(&["certify", p, "--trace-out", "/nonexistent-dir/t.json"]);
        assert_eq!(e.code, 2);
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn certify_joint_proves_the_scfi_demo_and_refutes_unprotected() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        // N = 3 ⇒ the joint claim covers any 2 simultaneous faults.
        let out = run_ok(&["certify", p, "--joint", "--expect-proof"]);
        assert!(out.contains("PROVED"), "{out}");
        assert!(out.contains("at most 2 simultaneous faults"), "{out}");
        // Unprotected: one fault suffices; the witness is replayed.
        let out = run_ok(&["certify", p, "--joint", "--config", "unprotected"]);
        assert!(out.contains("REFUTED"), "{out}");
        assert!(out.contains("replay-confirmed"), "{out}");
        assert!(out.contains("active:"), "{out}");
        // --expect-proof turns the refutation into exit 3 with the report
        // preserved in the output buffer.
        let args: Vec<String> = [
            "certify",
            p,
            "--joint",
            "--config",
            "unprotected",
            "--expect-proof",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut report = String::new();
        let e = run(&args, &mut report).expect_err("refutation fails --expect-proof");
        assert_eq!(e.code, 3);
        assert!(report.contains("REFUTED"), "{report}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn certify_joint_budget_exits_5_with_unknown() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let args: Vec<String> = [
            "certify",
            p,
            "--level",
            "2",
            "--joint",
            "--expect-proof",
            "--max-bdd-nodes",
            "8",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut out = String::new();
        let e = run(&args, &mut out).expect_err("8 BDD nodes cannot decide the joint claim");
        assert_eq!(e.code, 5, "{}", e.message);
        assert!(e.message.contains("undecided"), "{}", e.message);
        assert!(out.contains("UNKNOWN"), "{out}");
        assert!(
            !out.contains("PROVED"),
            "an exhausted budget must never claim the proof: {out}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn certify_joint_flag_combinations_are_validated() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        assert_eq!(run_err(&["certify", p, "--max-active", "2"]).code, 1);
        assert_eq!(run_err(&["certify", p, "--joint", "--per-site"]).code, 1);
        assert_eq!(
            run_err(&["certify", p, "--joint", "--max-active", "x"]).code,
            1
        );
        // A joint bound of 0, given or derived from N = 1, would prove
        // the claim vacuously.
        for args in [
            &[
                "--config",
                "unprotected",
                "--max-active",
                "0",
                "--expect-proof",
            ][..],
            &["--config", "unprotected", "--level", "1"],
            &["--level", "1"],
        ] {
            let mut full = vec!["certify", p, "--joint"];
            full.extend(args);
            let (e, out) = run_err_out(&full);
            assert_eq!(e.code, 1, "{args:?}: {}", e.message);
            assert!(e.message.contains("joint bound of 0"), "{}", e.message);
            assert_eq!(out, "", "{args:?} wrote output before failing");
        }
        // An explicit bound overrides the level-derived default.
        let out = run_ok(&[
            "certify",
            p,
            "--joint",
            "--max-active",
            "1",
            "--expect-proof",
        ]);
        assert!(out.contains("at most 1 simultaneous faults"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn certify_all_gates_ranks_escaping_cells() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        // Unprotected with the full gate space: escapes exist and the
        // ranked per-cell report aggregates them.
        let out = run_ok(&["certify", p, "--config", "unprotected", "--all-gates"]);
        assert!(out.contains("escapes through"), "{out}");
        assert!(out.contains("escapes /"), "{out}");
        // A proved all-gates-free run still prints the (empty) ranking
        // header for script-stable output.
        let proved = run_ok(&["certify", p, "--level", "2", "--all-gates", "--stuck-at"]);
        assert!(proved.contains("certified sites"), "{proved}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_injection_budget_exits_5_with_partial_output() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let args: Vec<String> = ["analyze", p, "--level", "2", "--max-injections", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = String::new();
        let e = run(&args, &mut out).expect_err("budget of 1 cannot cover the campaign");
        assert_eq!(e.code, 5, "{}", e.message);
        assert!(
            e.message.contains("injection budget exhausted"),
            "{}",
            e.message
        );
        assert!(
            out.contains("PARTIAL RESULT (stopped early: injection budget exhausted)"),
            "partial output must be clearly marked: {out}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_expired_deadline_exits_4_with_partial_output() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let args: Vec<String> = ["analyze", p, "--level", "2", "--timeout-secs", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = String::new();
        let e = run(&args, &mut out).expect_err("a zero deadline stops before the first wave");
        assert_eq!(e.code, 4, "{}", e.message);
        assert!(e.message.contains("deadline expired"), "{}", e.message);
        assert!(out.contains("PARTIAL RESULT"), "{out}");
        assert!(out.contains("0 of"), "nothing completed: {out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn certify_expired_deadline_exits_4_with_unknown_sites() {
        // Every all-gates site here takes far fewer BDD steps than the
        // deadline cadence, so this checks the poll before each site.
        let path =
            std::env::temp_dir().join(format!("scfi_cli_aes_control_{}.dsl", std::process::id()));
        let fsm = scfi_opentitan::by_name("aes_control")
            .expect("suite FSM")
            .fsm;
        std::fs::write(&path, fsm.to_dsl()).expect("writable temp dir");
        let p = path.to_str().expect("utf8");
        let args: Vec<String> = [
            "certify",
            p,
            "--level",
            "3",
            "--all-gates",
            "--timeout-secs",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut out = String::new();
        let e = run(&args, &mut out).expect_err("a zero deadline decides no site");
        assert_eq!(e.code, 4, "{}", e.message);
        assert!(e.message.contains("undecided"), "{}", e.message);
        assert!(out.contains("counterexamples: 0"), "{out}");
        assert!(out.contains("UNKNOWN"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_generous_budget_changes_nothing() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let plain = run_ok(&["analyze", p, "--level", "2"]);
        let budgeted = run_ok(&[
            "analyze",
            p,
            "--level",
            "2",
            "--timeout-secs",
            "3600",
            "--max-injections",
            "1000000000",
        ]);
        assert_eq!(
            plain, budgeted,
            "an unhit budget must not change the report"
        );
        // `--rank` runs the campaign once, so a budget of exactly its
        // size (the summary line's injection count) changes nothing.
        let ranked = run_ok(&["analyze", p, "--level", "2", "--rank"]);
        let size = ranked.split_whitespace().next().expect("injection count");
        assert_eq!(
            run_ok(&[
                "analyze",
                p,
                "--level",
                "2",
                "--rank",
                "--max-injections",
                size
            ]),
            ranked
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn certify_tiny_node_budget_degrades_to_unknown_and_exits_5() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let args: Vec<String> = [
            "certify",
            p,
            "--level",
            "2",
            "--per-site",
            "--max-bdd-nodes",
            "8",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut out = String::new();
        let e = run(&args, &mut out).expect_err("8 BDD nodes cannot certify anything");
        assert_eq!(e.code, 5, "{}", e.message);
        assert!(e.message.contains("budget exhausted"), "{}", e.message);
        assert!(out.contains("UNKNOWN"), "{out}");
        assert!(out.contains("unknown (budget exhausted)"), "{out}");
        assert!(out.contains("PARTIAL RESULT"), "{out}");
        assert!(
            !out.contains("GUARANTEE PROVED"),
            "an exhausted budget must never claim the proof: {out}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn certify_generous_budget_still_proves() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let out = run_ok(&[
            "certify",
            p,
            "--level",
            "2",
            "--expect-proof",
            "--timeout-secs",
            "3600",
            "--max-bdd-nodes",
            "100000000",
        ]);
        assert!(out.contains("GUARANTEE PROVED"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn budget_flag_values_are_validated() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        assert_eq!(run_err(&["analyze", p, "--timeout-secs", "x"]).code, 1);
        assert_eq!(run_err(&["analyze", p, "--max-injections", "-3"]).code, 1);
        assert_eq!(run_err(&["certify", p, "--max-bdd-nodes", "many"]).code, 1);
        assert_eq!(run_err(&["certify", p, "--timeout-secs", "1.5"]).code, 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_format_streams_sites() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        let csv = run_ok(&["analyze", p, "--level", "2", "--format", "csv"]);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("cell,kind,name,masked,detected,hijacked,total,hijack_rate")
        );
        assert!(lines.clone().count() > 4, "one row per fault cell: {csv}");
        assert!(lines.all(|l| l.split(',').count() == 8), "{csv}");
        let json = run_ok(&["analyze", p, "--level", "2", "--format", "json"]);
        assert!(json.contains("\"module\": \"demo_scfi\""), "{json}");
        assert!(json.contains("\"sites\": ["), "{json}");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced JSON braces: {json}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_format_error_paths() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        assert_eq!(run_err(&["analyze", p, "--format", "xml"]).code, 1);
        assert_eq!(
            run_err(&["analyze", p, "--format", "csv", "--multi", "2"]).code,
            1
        );
        assert_eq!(
            run_err(&["analyze", p, "--format", "csv", "--rank"]).code,
            1
        );
        let _ = std::fs::remove_file(path);
    }

    /// `--rank --multi`, like every flag combination that cannot run, is a
    /// usage error raised before any work: nothing is written, not even
    /// the `--protocol` header. So is a draw count whose work list could
    /// not be allocated.
    #[test]
    fn rank_with_multi_is_rejected() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        for extra in [
            &["--rank", "--multi", "2"][..],
            &["--runs", "5"],
            &["--protocol", "2", "--format", "xml"],
            &["--protocol", "2", "--format", "csv", "--multi", "2"],
            &["--protocol", "2", "--format", "json", "--rank"],
            &["--protocol", "2", "--multi", "0"],
            &["--protocol", "2", "--multi", "2", "--runs", "0"],
            &["--multi", "2", "--runs", "99999999999"],
            &["--multi", "99999999999", "--runs", "10"],
            &["--multi", "99999999999"],
        ] {
            let mut args = vec!["analyze", p, "--level", "2"];
            args.extend(extra);
            let (e, out) = run_err_out(&args);
            assert_eq!(e.code, 1, "{extra:?}: {}", e.message);
            assert_eq!(out, "", "{extra:?} wrote output before failing");
        }
        let _ = std::fs::remove_file(path);
    }

    /// Flags may come before the FSM path: a flag's value is never read
    /// as the path.
    #[test]
    fn flags_before_the_path_match_flags_after_it() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        for cmd in ["harden", "analyze", "certify", "area"] {
            assert_eq!(
                run_ok(&[cmd, "--level", "2", p]),
                run_ok(&[cmd, p, "--level", "2"]),
                "scfi {cmd}"
            );
        }
        assert_eq!(
            run_ok(&["harden", "--pad", "replicate", p]),
            run_ok(&["harden", p, "--pad", "replicate"])
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn area_compares_three_configs() {
        let path = write_demo();
        let out = run_ok(&["area", path.to_str().expect("utf8"), "--level", "2"]);
        assert!(out.contains("unprotected"));
        assert!(out.contains("redundancy"));
        assert!(out.contains("scfi"));
        let _ = std::fs::remove_file(path);
    }

    /// Every flag is checked before the FSM file is read: against a
    /// missing file, a bad flag is still a usage error, with nothing
    /// written.
    #[test]
    fn bad_flags_are_reported() {
        let path = write_demo();
        let p = path.to_str().expect("utf8");
        assert_eq!(run_err(&["harden", p, "--level", "x"]).code, 1);
        assert_eq!(run_err(&["harden", p, "--pad", "fancy"]).code, 1);
        assert_eq!(run_err(&["harden", p, "--bogus"]).code, 1);
        assert_eq!(run_err(&["harden"]).code, 1);
        assert_eq!(run_err(&["harden", "/nonexistent/x.dsl"]).code, 2);
        let missing = "/nonexistent/x.dsl";
        for args in [
            &["harden", missing, "--level", "x"][..],
            &["harden", missing, "--pad", "fancy"],
            &["harden", missing, "--bogus"],
            &["certify", missing, "--joint", "--per-site"],
            &["certify", missing, "--max-active", "2"],
            &["certify", missing, "--config", "bogus"],
            &["analyze", missing, "--region", "bogus"],
        ] {
            let (e, out) = run_err_out(args);
            assert_eq!(e.code, 1, "{args:?}: {}", e.message);
            assert_eq!(out, "", "{args:?} wrote output before failing");
        }
        let _ = std::fs::remove_file(path);
    }

    /// `scfi serve` validates its flags before binding; a bad address is
    /// an input error (the server itself is exercised by the scfi-serve
    /// integration suites, not through the blocking CLI entry point).
    #[test]
    fn serve_flags_are_validated() {
        assert_eq!(run_err(&["serve", "--workers", "0"]).code, 1);
        assert_eq!(run_err(&["serve", "--workers", "x"]).code, 1);
        assert_eq!(run_err(&["serve", "--queue-capacity", "0"]).code, 1);
        assert_eq!(run_err(&["serve", "--cache-capacity", "-1"]).code, 1);
        assert_eq!(run_err(&["serve", "--bogus"]).code, 1);
        let e = run_err(&["serve", "--addr", "not-an-address"]);
        assert_eq!(e.code, 2);
        assert!(e.message.contains("not-an-address"), "{}", e.message);
    }

    #[test]
    fn level_one_is_a_processing_error() {
        let path = write_demo();
        let e = run_err(&["harden", path.to_str().expect("utf8"), "--level", "1"]);
        assert_eq!(e.code, 3);
        assert!(e.message.contains("below the minimum"));
        let _ = std::fs::remove_file(path);
    }
}
