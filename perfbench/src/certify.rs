//! `certify`: in-process BDD certification jobs — `Certifier`
//! construction plus one check — on SCFI, redundancy and unprotected
//! models at N ∈ {2, 3}.
//!
//! The symbolic layer does nearly all of an op's time and the wave engine
//! none. Per-site ops reuse the `ite` memo across many small BDDs while a
//! joint proof builds one large BDD, so memo- and node-table changes that
//! help one kind and hurt the other show; `peak_rss_mb` tracks node
//! growth.

use std::ops::Range;
use std::time::Instant;

use scfi_faultsim::Fault;
use scfi_serve::cache::{prepare, Prepared, PreparedModel};
use scfi_serve::jobs::certify_fault_set;
use scfi_serve::wire::{write_certify_json, write_joint_json};
use scfi_serve::ConfigKind;
use scfi_symbolic::{Certifier, CertifyBudget, CertifyModel, JointVerdict};
use scfi_telemetry::Telemetry;

use crate::digests::{fnv1a, Digests};
use crate::pass::{self, measure_cycles, traced_between, Pass};
use crate::trace::Tracer;
use crate::Metric;

/// Nominal seconds one op cycle takes on the reference host.
const CYCLE_SECONDS: f64 = 1.9;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Check {
    /// Per-site proofs over the FT1 register space.
    Ft1,
    /// Per-site proofs over every gate output plus the registers.
    Gates,
    /// One `certify_joint` proof of every ≤N−1 combination of FT1 sites.
    Joint,
}

struct OpDef {
    fsm: &'static str,
    config: ConfigKind,
    level: usize,
    check: Check,
}

const fn op(fsm: &'static str, config: ConfigKind, level: usize, check: Check) -> OpDef {
    OpDef {
        fsm,
        config,
        level,
        check,
    }
}

use Check::{Ft1, Gates, Joint};
use ConfigKind::{Redundancy as R, Scfi as S, Unprotected as U};

/// One op cycle. Its ops' costs form a ladder from ~1 ms to ~400 ms,
/// each rung at most ~1.6× the one below and most about 1.25×. The host
/// runs a given op up to ~1.5× faster in some seconds than in others, so
/// every percentile the benchmark reads must land among many ops of
/// neighbouring cost, never in a gap between two ops, where it would jump
/// with the share of fast seconds in a run.
const OPS: &[OpDef] = &[
    op("aes_control", S, 2, Ft1),
    op("adc_ctrl_fsm", S, 2, Ft1),
    op("pwrmgr_fsm", S, 3, Ft1),
    op("i2c_fsm", S, 2, Ft1),
    op("i2c_fsm", S, 3, Ft1),
    op("ibex_lsu", R, 3, Ft1),
    op("pwrmgr_fsm", R, 3, Ft1),
    op("i2c_fsm", R, 3, Ft1),
    op("i2c_fsm", U, 2, Ft1),
    op("otbn_controller", S, 2, Gates),
    op("aes_control", S, 3, Gates),
    op("adc_ctrl_fsm", S, 2, Gates),
    op("ibex_lsu", S, 3, Gates),
    op("adc_ctrl_fsm", S, 3, Gates),
    op("i2c_fsm", S, 2, Gates),
    op("aes_control", R, 2, Gates),
    op("ibex_lsu", R, 2, Gates),
    op("ibex_lsu", R, 3, Gates),
    op("i2c_fsm", R, 2, Gates),
    op("i2c_fsm", U, 3, Gates),
    op("adc_ctrl_fsm", S, 2, Joint),
    op("aes_control", S, 3, Joint),
    op("i2c_fsm", S, 2, Joint),
    op("pwrmgr_fsm", S, 3, Joint),
    op("ibex_controller", S, 3, Joint),
    op("aes_control", U, 2, Joint),
];

impl OpDef {
    fn key(&self) -> String {
        let check = match self.check {
            Ft1 => "ft1",
            Gates => "gates",
            Joint => "joint",
        };
        let config = self.config.name();
        format!("certify/{check}/{}/{config}/n{}", self.fsm, self.level)
    }
}

pub fn op_keys() -> Vec<String> {
    OPS.iter().map(OpDef::key).collect()
}

/// Every op's model and fault set, prepared once.
pub struct State {
    models: Vec<(Prepared, Vec<Fault>)>,
}

pub fn setup(tracer: &Tracer) -> State {
    let models = OPS
        .iter()
        .map(|def| {
            let fsm = scfi_opentitan::by_name(def.fsm).expect("a Table-1 FSM").fsm;
            let prepared = tracer.time("core.prepare", 0, || {
                prepare(&fsm, def.config, def.level).expect("suite FSM prepares")
            });
            let faults = certify_fault_set(prepared.module(), def.check == Gates, false, false);
            (prepared, faults)
        })
        .collect();
    State { models }
}

/// An op's rendered document and its verdict summary.
struct Certified {
    text: String,
    proved: bool,
    refuted: bool,
    /// Every site decided and every counterexample replay-confirmed.
    decided: bool,
}

fn run_op(
    state: &State,
    index: usize,
    telemetry: &Telemetry,
    tracer: &Tracer,
    op: u64,
) -> Certified {
    let def = &OPS[index];
    let (prepared, faults) = &state.models[index];
    match &prepared.model {
        PreparedModel::Scfi(m) => certify(m.as_ref(), def, faults, telemetry, tracer, op),
        PreparedModel::Redundancy(m) => certify(m.as_ref(), def, faults, telemetry, tracer, op),
        PreparedModel::Unprotected(m) => certify(&m.lowered, def, faults, telemetry, tracer, op),
    }
}

fn certify<M: CertifyModel>(
    model: &M,
    def: &OpDef,
    faults: &[Fault],
    telemetry: &Telemetry,
    tracer: &Tracer,
    op: u64,
) -> Certified {
    let mut certifier = tracer
        .time("symbolic.setup", op, || {
            Certifier::with_instruments(model, CertifyBudget::unlimited(), telemetry.clone(), None)
        })
        .expect("an unbudgeted certifier cannot overflow");
    let mut text = String::new();
    if def.check == Joint {
        let report = tracer.time("symbolic.joint", op, || {
            certifier.certify_joint(faults, def.level - 1)
        });
        tracer.time("wire.render", op, || write_joint_json(&mut text, &report));
        let proved = report.verdict == JointVerdict::Proved;
        let refuted = matches!(report.verdict, JointVerdict::Counterexample(_));
        Certified {
            text,
            proved,
            refuted,
            decided: proved || refuted,
        }
    } else {
        let report = tracer.time("symbolic.sites", op, || certifier.certify_all(faults));
        tracer.time("wire.render", op, || {
            write_certify_json(&mut text, model.module(), &report)
        });
        Certified {
            text,
            proved: report.all_proven(),
            refuted: report.counterexamples() > 0,
            decided: report.unknown() == 0
                && report.counterexample_sites().all(|(_, w)| w.confirmed),
        }
    }
}

pub fn cycles_for(seconds: f64) -> usize {
    pass::cycles_for(seconds, CYCLE_SECONDS)
}

pub fn op_count() -> usize {
    OPS.len()
}

pub fn measure(
    state: &State,
    seed: u64,
    ops: Range<usize>,
    digests: &Digests,
    tracer: &Tracer,
    telemetry: &Telemetry,
) -> Pass {
    measure_cycles(
        OPS.len(),
        seed,
        ops,
        tracer,
        "certify.op",
        |op, index| run_op(state, index, telemetry, tracer, op),
        |index, out| digests.matches(&OPS[index].key(), out.text.as_bytes()),
    )
}

/// Traced-run metrics from a traced pass between two untraced half
/// passes; the traced pass records BDD statistics through a recording
/// telemetry handle.
pub fn trace(
    seed: u64,
    pass_seconds: f64,
    digests: &Digests,
    tracer: &Tracer,
) -> (Vec<Metric>, Pass) {
    let state = setup(tracer);
    let cycles = cycles_for(pass_seconds);
    let (off, telemetry) = (Tracer::new(false), Telemetry::recording());
    let (mut untraced, traced) = traced_between(cycles * OPS.len(), |range, traced| {
        if traced {
            measure(&state, seed, range, digests, tracer, &telemetry)
        } else {
            measure(&state, seed, range, digests, &off, &Telemetry::off())
        }
    });

    let mean = |name: &str| tracer.mean_ms(name);
    let site_ms = tracer
        .layers()
        .get("symbolic.sites")
        .map_or(0.0, |l| l.total_ms);
    let sites: usize = OPS
        .iter()
        .zip(&state.models)
        .filter(|(def, _)| def.check != Joint)
        .map(|(_, (_, faults))| faults.len())
        .sum::<usize>()
        * cycles;
    let hits = telemetry.counter("scfi_bdd_ite_cache_hits_total").get() as f64;
    let misses = telemetry.counter("scfi_bdd_ite_cache_misses_total").get() as f64;
    let steps = telemetry
        .histogram("scfi_certify_steps_per_site")
        .snapshot();
    let metrics = vec![
        Metric::new("certify.symbolic.setup_ms", mean("symbolic.setup"), "ms"),
        Metric::new(
            "certify.symbolic.sites_per_s",
            sites as f64 / (site_ms / 1e3),
            "1/s",
        ),
        Metric::new("certify.symbolic.joint_ms", mean("symbolic.joint"), "ms"),
        Metric::new(
            "certify.symbolic.ite_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        ),
        Metric::new(
            "certify.symbolic.nodes_high_water",
            telemetry.gauge("scfi_bdd_nodes_high_water").get() as f64,
            "count",
        ),
        Metric::new(
            "certify.symbolic.steps_per_site",
            steps.sum as f64 / steps.count.max(1) as f64,
            "count",
        ),
        Metric::new("certify.wire.render_ms", mean("wire.render"), "ms"),
        Metric::new(
            "certify.trace.overhead_ratio",
            traced.ops_per_s() / untraced.ops_per_s(),
            "ratio",
        ),
    ];
    untraced.absorb(traced);
    (metrics, untraced)
}

/// Digest-table entries for every op. Unprotected ops must refute the
/// detection claim. SCFI and redundancy ops must prove it over the
/// register space (FT1 and joint, the paper's claim); over all gates,
/// which the claim does not cover, every site must be decided and every
/// escape confirmed by scalar replay.
pub fn generate(entries: &mut Vec<(String, u64)>) {
    let state = setup(&Tracer::new(false));
    for (index, def) in OPS.iter().enumerate() {
        let t = Instant::now();
        let out = run_op(&state, index, &Telemetry::off(), &Tracer::new(false), 0);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let (holds, expected) = match (def.config, def.check) {
            (U, _) => (out.refuted, "refuted"),
            (_, Gates) => (out.decided, "decided with confirmed escapes"),
            _ => (out.proved, "proved"),
        };
        assert!(
            holds && out.decided,
            "{}: expected the claim to be {expected}",
            def.key()
        );
        let digest = fnv1a(out.text.as_bytes());
        println!("{:<48} {ms:>9.2} ms  {digest:016x}", def.key());
        entries.push((def.key(), digest));
    }
}
