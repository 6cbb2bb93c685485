//! Job specifications and execution for the `scfi serve` HTTP API.
//!
//! A [`JobSpec`] is the validated form of a `POST /v1/jobs` body: which
//! experiment to run (`analyze` or `certify`), on which FSM (inline DSL
//! or a bundled suite name), under which configuration and knobs. Parsing
//! is strict — unknown fields, contradictory knobs and malformed values
//! are typed 4xx [`ApiError`]s, never silent defaults — because a job
//! server that guesses runs the wrong experiment at a distance.
//!
//! [`run_job`] then executes a spec against a cached [`Prepared`] model
//! under a [`RunControl`] handle. `scfi analyze` and `scfi certify` build
//! the same [`JobSpec`] from their flags and run the same pipeline —
//! [`prepare_with`](crate::cache::prepare_with), the campaign knobs of
//! [`JobSpec::campaign_config`], the one [`certify`] call — and only
//! render differently: a served analyze result is byte-identical to
//! `scfi analyze --format json|csv` (the [`wire`] writers are shared), a
//! served certify result is the same [`Certification`] rendered as JSON
//! instead of text.

use std::sync::Arc;
use std::time::Duration;

use scfi_faultsim::{
    enumerate_faults, Backend, CampaignConfig, CampaignError, Fault, FaultEffect, FaultTarget,
    RedundancyTarget, RunControl, ScfiTarget, StopReason, UnprotectedTarget, VulnerabilityMap,
};
use scfi_fsm::{parse_fsm, Fsm};
use scfi_netlist::Module;
use scfi_symbolic::{
    CertificationReport, Certifier, CertifyBudget, CertifyModel, JointReport, JointVerdict,
};
use scfi_telemetry::Telemetry;

use crate::cache::{ConfigKind, Prepared, PreparedModel};
use crate::json::{obj, Json};
use crate::wire;

/// The fixed protocol-walk seed of both front ends: a served protocol
/// campaign and `scfi analyze --protocol K` on the same FSM analyze the
/// identical scenario set, so the served document equals
/// `scfi analyze --protocol K --format json|csv` after its header line.
pub const WALK_SEED: u64 = 0x5CF1_3007;

/// A typed request failure: HTTP status plus a stable machine-readable
/// code and a human message, rendered as
/// `{"error": {"code": …, "message": …}}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to respond with.
    pub status: u16,
    /// Stable error code for clients to branch on.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl ApiError {
    /// A 400 with the given code.
    pub fn bad_request(code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            code,
            message: message.into(),
        }
    }

    /// The JSON error body.
    pub fn body(&self) -> String {
        let doc = obj(vec![(
            "error",
            obj(vec![
                ("code", Json::Str(self.code.to_string())),
                ("message", Json::Str(self.message.clone())),
            ]),
        )]);
        let mut s = doc.encode();
        s.push('\n');
        s
    }
}

/// Which experiment a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Exhaustive campaign → per-site vulnerability map.
    Analyze,
    /// BDD certification → per-site or joint verdicts.
    Certify,
}

impl JobKind {
    /// The canonical name used in job status documents.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Analyze => "analyze",
            JobKind::Certify => "certify",
        }
    }
}

/// Output rendering for analyze results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// The pinned `scfi analyze --format json` layout.
    Json,
    /// The pinned `scfi analyze --format csv` layout.
    Csv,
}

/// A validated job request.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Experiment kind.
    pub kind: JobKind,
    /// The FSM to run against.
    pub fsm: Fsm,
    /// Protection configuration.
    pub config: ConfigKind,
    /// Protection level N.
    pub level: usize,
    /// Campaign backend (analyze).
    pub backend: Backend,
    /// Packed-engine lane words (analyze).
    pub lane_words: usize,
    /// Multi-cycle protocol walk depth (analyze).
    pub protocol: Option<usize>,
    /// Adversarial input fuzzing over protocol walks (analyze).
    pub fuzz_inputs: bool,
    /// Analyze result rendering.
    pub format: Format,
    /// Include stuck-at effects in the fault space.
    pub stuck_at: bool,
    /// Include per-pin faults in the fault space.
    pub pin_faults: bool,
    /// Joint multi-fault certification instead of per-site (certify).
    pub joint: bool,
    /// Cardinality bound for `joint` (default: N − 1).
    pub max_active: Option<usize>,
    /// Certify the whole gate space instead of the register region.
    pub all_gates: bool,
    /// Wall-clock deadline, armed when the job starts running.
    pub timeout_secs: Option<u64>,
    /// Injection budget (analyze).
    pub max_injections: Option<u64>,
    /// BDD node budget (certify).
    pub max_bdd_nodes: Option<usize>,
}

fn field_str(doc: &Json, key: &str) -> Result<Option<String>, ApiError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| ApiError::bad_request("bad_field", format!("`{key}` must be a string"))),
    }
}

fn field_uint(doc: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ApiError::bad_request(
                "bad_field",
                format!("`{key}` must be a non-negative integer"),
            )
        }),
    }
}

fn field_bool(doc: &Json, key: &str) -> Result<bool, ApiError> {
    match doc.get(key) {
        None => Ok(false),
        Some(v) => v.as_bool().ok_or_else(|| {
            ApiError::bad_request("bad_field", format!("`{key}` must be a boolean"))
        }),
    }
}

/// Every field name `POST /v1/jobs` accepts.
const KNOWN_FIELDS: &[&str] = &[
    "kind",
    "fsm",
    "suite",
    "config",
    "level",
    "backend",
    "lanes",
    "protocol",
    "fuzz_inputs",
    "format",
    "stuck_at",
    "pin_faults",
    "joint",
    "max_active",
    "all_gates",
    "timeout_secs",
    "max_injections",
    "max_bdd_nodes",
];

impl JobSpec {
    /// Parses and validates a `POST /v1/jobs` body.
    pub fn from_json(doc: &Json) -> Result<JobSpec, ApiError> {
        let fields = doc.as_obj().ok_or_else(|| {
            ApiError::bad_request("bad_body", "request body must be a JSON object")
        })?;
        for (key, _) in fields {
            if !KNOWN_FIELDS.contains(&key.as_str()) {
                return Err(ApiError::bad_request(
                    "unknown_field",
                    format!("unknown field `{key}`"),
                ));
            }
        }

        let kind = match field_str(doc, "kind")?.as_deref() {
            Some("analyze") => JobKind::Analyze,
            Some("certify") => JobKind::Certify,
            Some(other) => {
                return Err(ApiError::bad_request(
                    "bad_kind",
                    format!("`kind` must be analyze or certify (got `{other}`)"),
                ))
            }
            None => return Err(ApiError::bad_request("bad_kind", "missing `kind`")),
        };

        let fsm = match (field_str(doc, "fsm")?, field_str(doc, "suite")?) {
            (Some(_), Some(_)) => {
                return Err(ApiError::bad_request(
                    "bad_fsm",
                    "`fsm` and `suite` are mutually exclusive",
                ))
            }
            (Some(dsl), None) => parse_fsm(&dsl)
                .map_err(|e| ApiError::bad_request("bad_dsl", format!("parsing `fsm`: {e}")))?,
            (None, Some(name)) => scfi_opentitan::bundled(&name).ok_or(ApiError {
                status: 404,
                code: "unknown_suite",
                message: format!("no bundled FSM named `{name}`"),
            })?,
            (None, None) => {
                return Err(ApiError::bad_request(
                    "bad_fsm",
                    "one of `fsm` (inline DSL) or `suite` (bundled name) is required",
                ))
            }
        };

        let config = match field_str(doc, "config")?.as_deref() {
            None => ConfigKind::Scfi,
            Some(name) => ConfigKind::parse(name).ok_or_else(|| {
                ApiError::bad_request(
                    "bad_config",
                    format!("`config` must be scfi, redundancy or unprotected (got `{name}`)"),
                )
            })?,
        };
        let level = field_uint(doc, "level")?.unwrap_or(3) as usize;

        let backend = match field_str(doc, "backend")?.as_deref() {
            None => Backend::default(),
            Some(name) => Backend::parse(name).ok_or_else(|| {
                ApiError::bad_request(
                    "bad_backend",
                    format!(
                        "`backend` must be {} (got `{name}`)",
                        Backend::accepted_names()
                    ),
                )
            })?,
        };
        let lane_words = match field_uint(doc, "lanes")? {
            None | Some(256) => 4,
            Some(64) => 1,
            Some(128) => 2,
            Some(other) => {
                return Err(ApiError::bad_request(
                    "bad_lanes",
                    format!("`lanes` must be 64, 128 or 256 (got {other})"),
                ))
            }
        };
        let protocol = field_uint(doc, "protocol")?
            .map(|depth| {
                protocol_depth(depth).map_err(|message| {
                    ApiError::bad_request("bad_protocol", format!("`protocol` {message}"))
                })
            })
            .transpose()?;
        let fuzz_inputs = field_bool(doc, "fuzz_inputs")?;
        if fuzz_inputs && protocol.is_none() {
            return Err(ApiError::bad_request(
                "bad_knobs",
                "`fuzz_inputs` biases protocol walks; it requires `protocol`",
            ));
        }
        let format = match field_str(doc, "format")?.as_deref() {
            None | Some("json") => Format::Json,
            Some("csv") => Format::Csv,
            Some(other) => {
                return Err(ApiError::bad_request(
                    "bad_format",
                    format!("`format` must be json or csv (got `{other}`)"),
                ))
            }
        };
        let joint = field_bool(doc, "joint")?;
        let max_active = field_uint(doc, "max_active")?.map(|v| v as usize);

        // Per-kind knob validation: a knob that silently did nothing
        // would make the served experiment diverge from what the client
        // believes it requested.
        match kind {
            JobKind::Analyze => {
                let inputs = fsm.signals().len();
                if config == ConfigKind::Unprotected && inputs > UnprotectedTarget::MAX_SIGNALS {
                    return Err(ApiError::bad_request(
                        "bad_fsm",
                        format!(
                            "an unprotected analyze job enumerates every input word, so the \
                             FSM may have at most {} inputs (it has {inputs})",
                            UnprotectedTarget::MAX_SIGNALS
                        ),
                    ));
                }
                if joint || max_active.is_some() || field_bool(doc, "all_gates")? {
                    return Err(ApiError::bad_request(
                        "bad_knobs",
                        "`joint`, `max_active` and `all_gates` are certify knobs",
                    ));
                }
                if doc.get("max_bdd_nodes").is_some() {
                    return Err(ApiError::bad_request(
                        "bad_knobs",
                        "`max_bdd_nodes` bounds certification, not campaigns",
                    ));
                }
            }
            JobKind::Certify => {
                if doc.get("backend").is_some()
                    || doc.get("lanes").is_some()
                    || protocol.is_some()
                    || fuzz_inputs
                    || doc.get("format").is_some()
                    || doc.get("max_injections").is_some()
                {
                    return Err(ApiError::bad_request(
                        "bad_knobs",
                        "`backend`, `lanes`, `protocol`, `fuzz_inputs`, `format` and \
                         `max_injections` are analyze knobs",
                    ));
                }
                if max_active.is_some() && !joint {
                    return Err(ApiError::bad_request(
                        "bad_knobs",
                        "`max_active` sets the `joint` fault bound",
                    ));
                }
                if joint {
                    joint_bound(max_active, level)
                        .map_err(|message| ApiError::bad_request("bad_knobs", message))?;
                }
            }
        }

        Ok(JobSpec {
            backend,
            lane_words,
            protocol,
            fuzz_inputs,
            format,
            stuck_at: field_bool(doc, "stuck_at")?,
            pin_faults: field_bool(doc, "pin_faults")?,
            joint,
            max_active,
            all_gates: field_bool(doc, "all_gates")?,
            timeout_secs: field_uint(doc, "timeout_secs")?,
            max_injections: field_uint(doc, "max_injections")?,
            max_bdd_nodes: field_uint(doc, "max_bdd_nodes")?.map(|v| v as usize),
            ..JobSpec::new(kind, fsm, config, level)
        })
    }

    /// A job of `kind` on `fsm` under `config` at protection level
    /// `level`, every other knob at its default: the packed engine at 256
    /// lanes, single-transition scenarios, flips only, per-site
    /// certification of the register fault space, JSON rendering and no
    /// budget.
    pub fn new(kind: JobKind, fsm: Fsm, config: ConfigKind, level: usize) -> JobSpec {
        JobSpec {
            kind,
            fsm,
            config,
            level,
            backend: Backend::default(),
            lane_words: 4,
            protocol: None,
            fuzz_inputs: false,
            format: Format::Json,
            stuck_at: false,
            pin_faults: false,
            joint: false,
            max_active: None,
            all_gates: false,
            timeout_secs: None,
            max_injections: None,
            max_bdd_nodes: None,
        }
    }

    /// Builds the run-control handle for this job, arming the deadline
    /// now (at run start, not at submission).
    pub fn run_control(&self) -> RunControl {
        let mut control = RunControl::unlimited();
        if let Some(secs) = self.timeout_secs {
            control = control.with_deadline(Duration::from_secs(secs));
        }
        if let Some(budget) = self.max_injections {
            control = control.with_injection_budget(budget);
        }
        control
    }

    /// The campaign knobs of an analyze job on `prepared`: its fault
    /// effects and pin faults, engine and wave width on two threads, and
    /// the model's precompiled netlist.
    pub fn campaign_config(&self, prepared: &Prepared, telemetry: &Telemetry) -> CampaignConfig {
        let config = CampaignConfig::new()
            .effects(fault_effects(self.stuck_at))
            .threads(2)
            .lane_words(self.lane_words)
            .backend(self.backend)
            .telemetry(telemetry.clone())
            .precompiled(Arc::clone(&prepared.packed));
        if self.pin_faults {
            config.with_pin_faults()
        } else {
            config
        }
    }

    /// The certification budget: the deadline (armed when the certifier
    /// is built) and the BDD node budget.
    pub fn certify_budget(&self) -> CertifyBudget {
        let mut budget = CertifyBudget::unlimited();
        if let Some(secs) = self.timeout_secs {
            budget = budget.timeout(Duration::from_secs(secs));
        }
        if let Some(nodes) = self.max_bdd_nodes {
            budget = budget.max_nodes(nodes);
        }
        budget
    }
}

/// The joint claim's fault bound: `max_active` when given, else the
/// paper's §3 bound N − 1.
///
/// # Errors
///
/// A bound of 0, given or derived from N ≤ 1: it certifies no fault, so
/// the claim would read as proved without checking anything. Both front
/// ends call this before any work.
pub fn joint_bound(max_active: Option<usize>, level: usize) -> Result<usize, String> {
    match max_active.unwrap_or(level.saturating_sub(1)) {
        0 => Err(format!(
            "a joint bound of 0 faults proves nothing (max active {} at protection \
             level {level}); it must be at least 1",
            max_active.map_or("N − 1".to_string(), |k| k.to_string())
        )),
        bound => Ok(bound),
    }
}

/// The deepest protocol walk a job may request. Walk memory grows with
/// the depth (i2c_fsm at N = 2 peaks at 94 MB at depth 64 and 392 MB at
/// 256), and a failed allocation aborts the whole process.
pub const MAX_PROTOCOL_DEPTH: usize = 64;

/// Checks a protocol walk depth against `1..=`[`MAX_PROTOCOL_DEPTH`].
///
/// # Errors
///
/// A depth outside that range, as a message that follows the knob's
/// name. Both front ends call this before any work.
pub fn protocol_depth(depth: u64) -> Result<usize, String> {
    match usize::try_from(depth) {
        Ok(d @ 1..=MAX_PROTOCOL_DEPTH) => Ok(d),
        _ => Err(format!(
            "must be a walk depth from 1 to {MAX_PROTOCOL_DEPTH} (got {depth})"
        )),
    }
}

fn fault_effects(stuck_at: bool) -> Vec<FaultEffect> {
    if stuck_at {
        vec![FaultEffect::Flip, FaultEffect::Stuck0, FaultEffect::Stuck1]
    } else {
        vec![FaultEffect::Flip]
    }
}

/// Enumerates the certification fault space — the shared definition used
/// by the per-site and the joint engines.
pub fn certify_fault_set(
    module: &Module,
    all_gates: bool,
    stuck_at: bool,
    pin_faults: bool,
) -> Vec<Fault> {
    let mut fault_config = CampaignConfig::new()
        .effects(fault_effects(stuck_at))
        .with_register_flips();
    if !all_gates {
        // The paper's FT1 claim: the state registers (stored-bit flips
        // plus the register-region nets).
        fault_config = fault_config.register_region(module);
    }
    if pin_faults {
        fault_config = fault_config.with_pin_faults();
    }
    enumerate_faults(module, &fault_config)
}

/// How a job run ended.
pub enum JobOutcome {
    /// Completed; `body` is the full result document.
    Done {
        /// Result bytes.
        body: String,
        /// `application/json` or `text/csv`.
        content_type: &'static str,
    },
    /// Interrupted at a wave boundary; `body` is the clearly marked
    /// partial-result document.
    Stopped {
        /// Which limit stopped the run.
        reason: StopReason,
        /// Partial-result bytes.
        body: String,
    },
    /// The run failed outright (no result document).
    Failed {
        /// What went wrong.
        message: String,
    },
}

/// Executes a validated spec against its prepared model under `control`,
/// emitting engine telemetry (campaign wave counters, BDD statistics)
/// into `telemetry`.
///
/// Analyze campaigns honor `control` cooperatively at wave boundaries
/// (cancellation, deadline, injection budget → [`JobOutcome::Stopped`]
/// with the completed prefix). Certification maps `timeout_secs` and
/// `max_bdd_nodes` onto its [`CertifyBudget`] and polls `control`'s
/// cancel flag inside the BDD step loop, so `DELETE` on a running
/// certify job aborts within a few thousand symbolic operation steps —
/// the same responsiveness class as a campaign's wave boundary.
pub fn run_job(
    spec: &JobSpec,
    prepared: &Prepared,
    control: &RunControl,
    telemetry: &Telemetry,
) -> JobOutcome {
    match spec.kind {
        JobKind::Analyze => run_analyze(spec, prepared, control, telemetry),
        JobKind::Certify => run_certify(spec, prepared, control, telemetry),
    }
}

fn run_analyze(
    spec: &JobSpec,
    prepared: &Prepared,
    control: &RunControl,
    telemetry: &Telemetry,
) -> JobOutcome {
    let config = spec.campaign_config(prepared, telemetry);
    let job = AnalyzeJob {
        spec,
        module: prepared.module(),
        config: &config,
        control,
    };
    match with_analyze_target(spec, prepared, job) {
        Ok(outcome) => outcome,
        Err(e) => JobOutcome::Failed {
            message: format!("campaign failed: {e}"),
        },
    }
}

/// A campaign over whichever target type a job's configuration selects,
/// run by [`with_analyze_target`].
pub trait TargetCampaign {
    /// What the campaign returns.
    type Output;
    /// Runs the campaign on `target`.
    fn run<T: FaultTarget>(self, target: &T) -> Self::Output;
}

/// Runs `campaign` on the analyze target `spec` selects on `prepared`:
/// the single-transition scenarios of its configuration, or with
/// [`protocol`](JobSpec::protocol) its depth-K walks from [`WALK_SEED`],
/// adversarially fuzzed under [`fuzz_inputs`](JobSpec::fuzz_inputs).
/// Served analyze jobs and `scfi analyze` both select their target here.
pub fn with_analyze_target<C: TargetCampaign>(
    spec: &JobSpec,
    prepared: &Prepared,
    campaign: C,
) -> C::Output {
    match &prepared.model {
        PreparedModel::Scfi(hardened) => campaign.run(&match (spec.protocol, spec.fuzz_inputs) {
            (Some(depth), true) => ScfiTarget::with_fuzzed_protocol(hardened, depth, WALK_SEED),
            (Some(depth), false) => ScfiTarget::with_protocol(hardened, depth, WALK_SEED),
            (None, _) => ScfiTarget::new(hardened),
        }),
        PreparedModel::Redundancy(redundant) => {
            campaign.run(&match (spec.protocol, spec.fuzz_inputs) {
                (Some(depth), true) => {
                    RedundancyTarget::with_fuzzed_protocol(redundant, depth, WALK_SEED)
                }
                (Some(depth), false) => {
                    RedundancyTarget::with_protocol(redundant, depth, WALK_SEED)
                }
                (None, _) => RedundancyTarget::new(redundant),
            })
        }
        PreparedModel::Unprotected(u) => campaign.run(&match (spec.protocol, spec.fuzz_inputs) {
            (Some(depth), true) => {
                UnprotectedTarget::with_fuzzed_protocol(&u.fsm, &u.lowered, depth, WALK_SEED)
            }
            (Some(depth), false) => {
                UnprotectedTarget::with_protocol(&u.fsm, &u.lowered, depth, WALK_SEED)
            }
            (None, _) => UnprotectedTarget::new(&u.fsm, &u.lowered),
        }),
    }
}

/// A served analyze job's campaign: the exhaustive map, rendered.
struct AnalyzeJob<'a> {
    spec: &'a JobSpec,
    module: &'a Module,
    config: &'a CampaignConfig,
    control: &'a RunControl,
}

impl TargetCampaign for AnalyzeJob<'_> {
    type Output = Result<JobOutcome, CampaignError>;

    fn run<T: FaultTarget>(self, target: &T) -> Self::Output {
        analyze_target(target, self.spec, self.module, self.config, self.control)
    }
}

fn analyze_target<T: FaultTarget>(
    target: &T,
    spec: &JobSpec,
    module: &Module,
    config: &CampaignConfig,
    control: &RunControl,
) -> Result<JobOutcome, CampaignError> {
    match VulnerabilityMap::try_analyze(target, config, control) {
        Ok(map) => {
            let mut body = String::new();
            let content_type = match spec.format {
                Format::Json => {
                    wire::write_sites_json(&mut body, module, &map);
                    "application/json"
                }
                Format::Csv => {
                    wire::write_sites_csv(&mut body, module, &map);
                    "text/csv"
                }
            };
            Ok(JobOutcome::Done { body, content_type })
        }
        Err(CampaignError::Interrupted { reason, partial }) => {
            let mut body = String::new();
            wire::write_partial_json(&mut body, reason, &partial);
            Ok(JobOutcome::Stopped { reason, body })
        }
        Err(other) => Err(other),
    }
}

fn run_certify(
    spec: &JobSpec,
    prepared: &Prepared,
    control: &RunControl,
    telemetry: &Telemetry,
) -> JobOutcome {
    let mut body = String::new();
    match certify(spec, &prepared.model, Some(control.clone()), telemetry) {
        Certification::Sites(report) => {
            wire::write_certify_json(&mut body, prepared.module(), &report)
        }
        Certification::Joint(report) => wire::write_joint_json(&mut body, &report),
    }
    // A cancelled certification aborts inside the BDD step loop and
    // surfaces as Unknown verdicts; report it as a stopped job (with the
    // clearly degraded document as the partial body), not a completion.
    if control.is_cancelled() {
        return JobOutcome::Stopped {
            reason: StopReason::Cancelled,
            body,
        };
    }
    JobOutcome::Done {
        body,
        content_type: "application/json",
    }
}

/// What a certify job proved, before rendering.
pub enum Certification {
    /// One verdict per site of the fault set.
    Sites(CertificationReport),
    /// The single verdict on every combination of up to
    /// [`joint_bound`] simultaneous faults.
    Joint(JointReport),
}

/// Certifies `model` over the fault set `spec` selects, per site or
/// jointly, under its [`certify_budget`](JobSpec::certify_budget) and the
/// optional `cancel` flag, recording BDD statistics into `telemetry`. A
/// budget overflow while the certifier is built degrades every verdict
/// to unknown — never a fabricated proof.
///
/// # Panics
///
/// On a joint spec whose [`joint_bound`] is 0; [`JobSpec::from_json`] and
/// `scfi certify` reject those before any work.
pub fn certify(
    spec: &JobSpec,
    model: &PreparedModel,
    cancel: Option<RunControl>,
    telemetry: &Telemetry,
) -> Certification {
    match model {
        PreparedModel::Scfi(h) => certify_model(h.as_ref(), spec, cancel, telemetry),
        PreparedModel::Redundancy(r) => certify_model(r.as_ref(), spec, cancel, telemetry),
        PreparedModel::Unprotected(u) => certify_model(&u.lowered, spec, cancel, telemetry),
    }
}

fn certify_model<M: CertifyModel>(
    model: &M,
    spec: &JobSpec,
    cancel: Option<RunControl>,
    telemetry: &Telemetry,
) -> Certification {
    let module = model.module();
    let faults = certify_fault_set(module, spec.all_gates, spec.stuck_at, spec.pin_faults);
    let certifier =
        Certifier::with_instruments(model, spec.certify_budget(), telemetry.clone(), cancel);
    if !spec.joint {
        return Certification::Sites(match certifier {
            Ok(mut certifier) => certifier.certify_all(&faults),
            Err(overflow) => Certifier::degraded_report(model, &faults, overflow),
        });
    }
    let max_active =
        joint_bound(spec.max_active, spec.level).expect("front ends reject a zero joint bound");
    Certification::Joint(match certifier {
        Ok(mut certifier) => certifier.certify_joint(&faults, max_active),
        Err(overflow) => JointReport {
            config: model.config_name(),
            module: module.name().to_string(),
            sites: faults.len(),
            max_active,
            reachable_states: 0,
            verdict: JointVerdict::Unknown {
                reason: overflow.to_string(),
            },
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const DEMO: &str = "fsm demo { inputs go; state A { if go -> B; } state B { goto A; } }";

    fn spec(body: &str) -> Result<JobSpec, ApiError> {
        JobSpec::from_json(&parse(body).expect("test body parses"))
    }

    #[test]
    fn minimal_analyze_spec_gets_the_cli_defaults() {
        let s = spec(&format!(r#"{{"kind": "analyze", "fsm": {}}}"#, dsl_lit())).unwrap();
        assert_eq!(s.kind, JobKind::Analyze);
        assert_eq!(s.config, ConfigKind::Scfi);
        assert_eq!(s.level, 3);
        assert_eq!(s.backend, Backend::Packed);
        assert_eq!(s.lane_words, 4);
        assert_eq!(s.format, Format::Json);
        assert_eq!(s.fsm.name(), "demo");
    }

    fn dsl_lit() -> String {
        Json::Str(DEMO.to_string()).encode()
    }

    /// A two-state FSM with `inputs` control signals, as a JSON string.
    fn wide_dsl_lit(inputs: usize) -> String {
        let names: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
        let dsl = format!(
            "fsm wide {{ inputs {}; state A {{ if i0 -> B; }} state B {{ goto A; }} }}",
            names.join(", ")
        );
        Json::Str(dsl).encode()
    }

    #[test]
    fn suite_names_resolve_and_unknown_is_404() {
        let s = spec(r#"{"kind": "certify", "suite": "aes_control"}"#).unwrap();
        assert_eq!(s.fsm.name(), "aes_control");
        let e = spec(r#"{"kind": "certify", "suite": "ghost"}"#).unwrap_err();
        assert_eq!(e.status, 404);
        assert_eq!(e.code, "unknown_suite");
    }

    #[test]
    fn unknown_fields_and_bad_values_are_typed_400s() {
        let too_wide = format!(
            r#"{{"kind": "analyze", "config": "unprotected", "fsm": {}}}"#,
            wide_dsl_lit(UnprotectedTarget::MAX_SIGNALS + 1)
        );
        for (body, code) in [
            (
                r#"{"kind": "analyze", "suite": "aes_control", "turbo": true}"#,
                "unknown_field",
            ),
            (r#"{"suite": "aes_control"}"#, "bad_kind"),
            (
                r#"{"kind": "meditate", "suite": "aes_control"}"#,
                "bad_kind",
            ),
            (r#"{"kind": "analyze"}"#, "bad_fsm"),
            (
                r#"{"kind": "analyze", "fsm": "x", "suite": "aes_control"}"#,
                "bad_fsm",
            ),
            (r#"{"kind": "analyze", "fsm": "not a dsl"}"#, "bad_dsl"),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "config": "tmr"}"#,
                "bad_config",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "backend": "gpu"}"#,
                "bad_backend",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "backend": "simd"}"#,
                "bad_backend",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "lanes": 96}"#,
                "bad_lanes",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "protocol": 0}"#,
                "bad_protocol",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "protocol": 65}"#,
                "bad_protocol",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "fuzz_inputs": true}"#,
                "bad_knobs",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "format": "xml"}"#,
                "bad_format",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "joint": true}"#,
                "bad_knobs",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "max_bdd_nodes": 8}"#,
                "bad_knobs",
            ),
            (
                r#"{"kind": "certify", "suite": "aes_control", "backend": "packed"}"#,
                "bad_knobs",
            ),
            (
                r#"{"kind": "certify", "suite": "aes_control", "max_active": 2}"#,
                "bad_knobs",
            ),
            (
                r#"{"kind": "certify", "suite": "aes_control", "config": "unprotected",
                    "joint": true, "max_active": 0}"#,
                "bad_knobs",
            ),
            (
                r#"{"kind": "certify", "suite": "aes_control", "config": "unprotected",
                    "joint": true, "level": 1}"#,
                "bad_knobs",
            ),
            (
                r#"{"kind": "certify", "suite": "aes_control", "level": "three"}"#,
                "bad_field",
            ),
            (
                r#"{"kind": "certify", "suite": "aes_control", "joint": "yes"}"#,
                "bad_field",
            ),
            (r#"[1, 2]"#, "bad_body"),
            (too_wide.as_str(), "bad_fsm"),
        ] {
            let e = spec(body).expect_err(body);
            assert_eq!(e.code, code, "body: {body} → {e:?}");
            assert!(e.status == 400, "body: {body} → {e:?}");
            // Error bodies are valid JSON with the documented shape.
            let doc = parse(&ApiError::bad_request(e.code, e.message.clone()).body()).unwrap();
            assert_eq!(
                doc.get("error").unwrap().get("code").unwrap().as_str(),
                Some(e.code)
            );
        }
    }

    /// Only the unprotected analyze target enumerates input words: its
    /// SCFI and redundancy twins, and certify jobs on every config, accept
    /// an FSM past the limit, and the unprotected one accepts the limit.
    #[test]
    fn wide_fsms_are_refused_only_by_unprotected_analyze() {
        let wide = wide_dsl_lit(UnprotectedTarget::MAX_SIGNALS + 1);
        for (kind, config) in [
            ("analyze", "scfi"),
            ("analyze", "redundancy"),
            ("certify", "scfi"),
            ("certify", "redundancy"),
            ("certify", "unprotected"),
        ] {
            let body = format!(r#"{{"kind": "{kind}", "config": "{config}", "fsm": {wide}}}"#);
            let s = spec(&body).unwrap_or_else(|e| panic!("{kind} {config}: {e:?}"));
            assert_eq!(s.fsm.signals().len(), UnprotectedTarget::MAX_SIGNALS + 1);
        }
        let at_limit = format!(
            r#"{{"kind": "analyze", "config": "unprotected", "fsm": {}}}"#,
            wide_dsl_lit(UnprotectedTarget::MAX_SIGNALS)
        );
        spec(&at_limit).expect("the limit itself is accepted");
        let e = spec(&format!(
            r#"{{"kind": "analyze", "config": "unprotected", "fsm": {wide}}}"#
        ))
        .unwrap_err();
        assert!(e.message.contains("at most 20 inputs"), "{e:?}");
    }

    #[test]
    fn run_control_maps_the_budget_knobs() {
        let s = spec(&format!(
            r#"{{"kind": "analyze", "fsm": {}, "max_injections": 5}}"#,
            dsl_lit()
        ))
        .unwrap();
        let control = s.run_control();
        assert!(control.admit(5).is_ok());
        assert!(control.admit(1).is_err());
    }
}
