//! `campaign`: in-process fault campaigns on models prepared at setup.
//!
//! Faultsim and netlist do nearly all of an op's time. The three op
//! shapes use the wave engine differently — exhaustive single-transition
//! maps (early exit, oracle fast path), depth-4 protocol walks (per-cycle
//! re-arm, incremental re-simulation) and seeded (N−1)-fault samples with
//! per-fault windows (multi-fault group arming) — so a gain on one shape
//! that costs another shows. Campaigns run with every default choice:
//! the packed backend at the default lane width, threads = nproc.

use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use scfi_faultsim::{
    enumerate_faults, try_run_multi_fault, Backend, CampaignBackend, CampaignConfig, CampaignError,
    Fault, FaultTarget, FaultTiming, Outcome, PackedBackend, RedundancyTarget, RunControl,
    ScfiTarget, UnprotectedTarget, VulnerabilityMap, WorkList,
};
use scfi_netlist::{Module, PackedNetlist};
use scfi_serve::cache::{prepare, Prepared, PreparedModel};
use scfi_serve::wire::write_sites_json;
use scfi_serve::{ConfigKind, WALK_SEED};
use scfi_telemetry::Telemetry;

use crate::digests::{fnv1a, Digests};
use crate::pass::{self, measure_cycles, traced_between, Pass};
use crate::trace::Tracer;
use crate::Metric;

/// Protocol walk depth of the walk, fuzz and multi-fault shapes.
const DEPTH: usize = 4;
/// Sampled experiments per multi-fault op.
const MULTI_RUNS: usize = 8192;
/// Multi-fault draw seeds; `--seed` picks one per op, and the digest
/// table holds the output for each.
const DRAW_SEEDS: [u64; 3] = [0xD1, 0xD2, 0xD3];
/// Nominal seconds one op cycle takes on the reference host.
const CYCLE_SECONDS: f64 = 0.245;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Exhaustive single-transition `VulnerabilityMap::try_analyze`.
    Map,
    /// Exhaustive map over depth-4 protocol walks.
    Walk,
    /// Exhaustive map over adversarially fuzzed depth-4 walks.
    Fuzz,
    /// Seeded (N−1)-fault samples over depth-4 walks, per-fault windows.
    Multi,
}

struct OpDef {
    fsm: &'static str,
    config: ConfigKind,
    level: usize,
    shape: Shape,
}

const fn op(fsm: &'static str, config: ConfigKind, level: usize, shape: Shape) -> OpDef {
    OpDef {
        fsm,
        config,
        level,
        shape,
    }
}

use ConfigKind::{Redundancy as R, Scfi as S, Unprotected as U};
use Shape::{Fuzz, Map, Multi, Walk};

/// One op cycle. Covers every Table-1 FSM, all three §6.1
/// configurations and N ∈ {2, 3, 4}.
const OPS: &[OpDef] = &[
    op("adc_ctrl_fsm", S, 2, Map),
    op("adc_ctrl_fsm", S, 3, Map),
    op("adc_ctrl_fsm", S, 4, Map),
    op("aes_control", S, 3, Map),
    op("aes_control", S, 4, Map),
    op("i2c_fsm", S, 3, Map),
    op("ibex_controller", S, 3, Map),
    op("ibex_lsu", S, 3, Map),
    op("otbn_controller", S, 3, Map),
    op("pwrmgr_fsm", S, 3, Map),
    op("aes_control", R, 3, Map),
    op("i2c_fsm", R, 3, Map),
    op("ibex_lsu", R, 3, Map),
    op("aes_control", U, 3, Map),
    op("i2c_fsm", U, 3, Map),
    op("aes_control", S, 3, Walk),
    op("adc_ctrl_fsm", S, 3, Walk),
    op("i2c_fsm", S, 3, Walk),
    op("ibex_controller", S, 2, Walk),
    op("pwrmgr_fsm", S, 4, Walk),
    op("aes_control", R, 3, Walk),
    op("ibex_lsu", U, 3, Walk),
    op("aes_control", S, 3, Fuzz),
    op("adc_ctrl_fsm", S, 3, Fuzz),
    op("i2c_fsm", S, 3, Fuzz),
    op("otbn_controller", S, 3, Fuzz),
    op("aes_control", R, 3, Fuzz),
    op("aes_control", U, 3, Fuzz),
    op("aes_control", S, 3, Multi),
    op("aes_control", S, 4, Multi),
    op("adc_ctrl_fsm", S, 3, Multi),
    op("i2c_fsm", S, 3, Multi),
    op("ibex_lsu", S, 4, Multi),
    op("aes_control", R, 3, Multi),
    op("pwrmgr_fsm", U, 2, Multi),
];

impl OpDef {
    fn key(&self, draw: Option<usize>) -> String {
        let shape = match self.shape {
            Map => "map",
            Walk => "walk",
            Fuzz => "fuzz",
            Multi => "multi",
        };
        let config = self.config.name();
        let mut key = format!("campaign/{shape}/{}/{config}/n{}", self.fsm, self.level);
        if let Some(d) = draw {
            let _ = write!(key, "/draw{d}");
        }
        key
    }

    /// Index into [`DRAW_SEEDS`] this op uses under benchmark seed `seed`.
    fn draw(&self, index: usize, seed: u64) -> Option<usize> {
        (self.shape == Multi)
            .then(|| ((seed % DRAW_SEEDS.len() as u64) as usize + index) % DRAW_SEEDS.len())
    }
}

pub fn op_keys() -> Vec<String> {
    let mut keys = Vec::new();
    for def in OPS {
        if def.shape == Multi {
            keys.extend((0..DRAW_SEEDS.len()).map(|d| def.key(Some(d))));
        } else {
            keys.push(def.key(None));
        }
    }
    keys
}

/// An op's prepared model (hardened or lowered, netlist compiled) and
/// its campaign config: the packed backend at default width and threads
/// on that compiled netlist.
struct Model {
    prepared: Prepared,
    config: CampaignConfig,
}

/// The models every op of the cycle runs on, one per op.
pub struct State {
    models: Vec<Model>,
}

pub fn setup(tracer: &Tracer) -> State {
    let models = OPS
        .iter()
        .map(|def| {
            let fsm = scfi_opentitan::by_name(def.fsm).expect("a Table-1 FSM").fsm;
            let prepared = tracer.time("core.prepare", 0, || {
                prepare(&fsm, def.config, def.level).expect("suite FSM prepares")
            });
            let config = CampaignConfig::new().precompiled(Arc::clone(&prepared.packed));
            Model { prepared, config }
        })
        .collect();
    State { models }
}

/// Runs op `index` of the cycle: builds its target, runs the campaign
/// and renders the result.
fn run_op(
    state: &State,
    index: usize,
    config: &CampaignConfig,
    tracer: &Tracer,
    op: u64,
) -> Result<String, CampaignError> {
    let def = &OPS[index];
    let p = &state.models[index];
    with_target(p, def, tracer, op, |target| {
        run_and_render(target, p.prepared.module(), def, config, tracer, op)
    })
}

/// Builds op `def`'s campaign target on `p` (traced as the scenario
/// phase) and hands it to `f`.
fn with_target<R>(
    p: &Model,
    def: &OpDef,
    tracer: &Tracer,
    op: u64,
    f: impl FnOnce(&dyn TargetDyn) -> R,
) -> R {
    let span = tracer.span("faultsim.scenarios", op);
    match &p.prepared.model {
        PreparedModel::Scfi(h) => {
            let t = match def.shape {
                Map => ScfiTarget::new(h),
                Walk | Multi => ScfiTarget::with_protocol(h, DEPTH, WALK_SEED),
                Fuzz => ScfiTarget::with_fuzzed_protocol(h, DEPTH, WALK_SEED),
            };
            drop(span);
            f(&Target(t))
        }
        PreparedModel::Redundancy(r) => {
            let t = match def.shape {
                Map => RedundancyTarget::new(r),
                Walk | Multi => RedundancyTarget::with_protocol(r, DEPTH, WALK_SEED),
                Fuzz => RedundancyTarget::with_fuzzed_protocol(r, DEPTH, WALK_SEED),
            };
            drop(span);
            f(&Target(t))
        }
        PreparedModel::Unprotected(u) => {
            let (fsm, lowered) = (&u.fsm, &u.lowered);
            let t = match def.shape {
                Map => UnprotectedTarget::new(fsm, lowered),
                Walk | Multi => UnprotectedTarget::with_protocol(fsm, lowered, DEPTH, WALK_SEED),
                Fuzz => UnprotectedTarget::with_fuzzed_protocol(fsm, lowered, DEPTH, WALK_SEED),
            };
            drop(span);
            f(&Target(t))
        }
    }
}

/// Object-safe view of the three target types, so one op body serves
/// all of them (the campaign entry points are generic).
trait TargetDyn {
    fn campaign(
        &self,
        shape: Shape,
        level: usize,
        config: &CampaignConfig,
    ) -> Result<Report, CampaignError>;
    fn breakdown(
        &self,
        def: &OpDef,
        config: &CampaignConfig,
        draw_seed: u64,
    ) -> Result<Breakdown, CampaignError>;
}

struct Target<T>(T);

enum Report {
    Map(VulnerabilityMap),
    Counts(scfi_faultsim::CampaignReport),
}

impl<T: FaultTarget> TargetDyn for Target<T> {
    fn campaign(
        &self,
        shape: Shape,
        level: usize,
        config: &CampaignConfig,
    ) -> Result<Report, CampaignError> {
        let control = RunControl::unlimited();
        match shape {
            Multi => try_run_multi_fault(&self.0, level - 1, MULTI_RUNS, config, &control)
                .map(Report::Counts),
            _ => VulnerabilityMap::try_analyze(&self.0, config, &control).map(Report::Map),
        }
    }

    fn breakdown(
        &self,
        def: &OpDef,
        config: &CampaignConfig,
        draw_seed: u64,
    ) -> Result<Breakdown, CampaignError> {
        let control = RunControl::unlimited();
        let start = Instant::now();
        let faults = enumerate_faults(self.0.module(), config);
        let enumerate = start.elapsed().as_secs_f64();
        let work = match def.shape {
            Multi => multi_fault_work(&self.0, &faults, def.level - 1, draw_seed),
            _ => {
                let mut work = WorkList::with_capacity(self.0.scenario_count() * faults.len());
                for s in 0..self.0.scenario_count() {
                    for f in &faults {
                        work.push(s, std::slice::from_ref(f));
                    }
                }
                work
            }
        };
        let start = Instant::now();
        let outcomes = PackedBackend.try_execute(&self.0, &work, config, &control)?;
        let execute = start.elapsed().as_secs_f64();
        let start = Instant::now();
        PackedBackend.try_execute(&self.0, &work, &config.clone().threads(1), &control)?;
        let execute_1t = start.elapsed().as_secs_f64();
        // The top-level call runs last, on the caches the probes warmed,
        // so its excess over enumerate + execute is not a cold-start cost.
        let start = Instant::now();
        let report = self.campaign(def.shape, def.level, config)?;
        let total = start.elapsed().as_secs_f64();

        // The rebuilt work list must be the one the campaign ran.
        let hijacks = outcomes.iter().filter(|&&o| o == Outcome::Hijack).count();
        let (injections, expected_hijacks) = match &report {
            Report::Map(map) => (map.total_injections(), map.total_hijacks()),
            Report::Counts(r) => (r.injections, r.hijacked),
        };
        assert_eq!(
            (outcomes.len(), hijacks),
            (injections, expected_hijacks),
            "breakdown work list diverged from the campaign's"
        );
        Ok(Breakdown {
            total,
            enumerate,
            execute,
            execute_1t,
            injections,
        })
    }
}

/// The work list `try_run_multi_fault` draws with per-fault windows:
/// [`MULTI_RUNS`] items of `faults_per_run` faults from its seeded
/// xorshift64* stream (scenario draw, fault draws, then one window draw
/// per fault). The breakdown probe checks it against the campaign's own
/// outcome counts.
fn multi_fault_work<T: FaultTarget>(
    target: &T,
    faults: &[Fault],
    faults_per_run: usize,
    seed: u64,
) -> WorkList {
    let mut state = seed.max(1);
    let mut draw = move |pool: usize| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % pool as u64) as usize
    };
    let mut work = WorkList::with_capacity(MULTI_RUNS);
    for _ in 0..MULTI_RUNS {
        let scenario = draw(target.scenario_count());
        let armed: Vec<Fault> = (0..faults_per_run)
            .map(|_| faults[draw(faults.len())])
            .collect();
        let cycles = target.scenario(scenario).cycles();
        let windows: Vec<FaultTiming> = (0..faults_per_run)
            .map(|_| FaultTiming::Transient(draw(cycles)))
            .collect();
        work.push_scheduled(scenario, &armed, &windows);
    }
    work
}

struct Breakdown {
    total: f64,
    enumerate: f64,
    execute: f64,
    execute_1t: f64,
    injections: usize,
}

/// The op's campaign config: the model's base config plus, for
/// multi-fault ops, the draw seed and per-fault windows.
fn op_config(p: &Model, draw: Option<usize>, telemetry: &Telemetry) -> CampaignConfig {
    let config = p.config.clone().telemetry(telemetry.clone());
    match draw {
        Some(d) => config.seed(DRAW_SEEDS[d]).with_fault_windows(),
        None => config,
    }
}

fn run_and_render(
    target: &dyn TargetDyn,
    module: &Module,
    def: &OpDef,
    config: &CampaignConfig,
    tracer: &Tracer,
    op: u64,
) -> Result<String, CampaignError> {
    let report = tracer.time("faultsim.campaign", op, || {
        target.campaign(def.shape, def.level, config)
    })?;
    let mut text = String::new();
    tracer.time("wire.render", op, || match &report {
        Report::Map(map) => write_sites_json(&mut text, module, map),
        Report::Counts(r) => {
            let _ = writeln!(text, "{r}");
        }
    });
    Ok(text)
}

/// Runs ops `ops` of the seeded op cycles, checking every output's
/// digest.
pub fn measure(
    state: &State,
    seed: u64,
    ops: Range<usize>,
    digests: &Digests,
    tracer: &Tracer,
    telemetry: &Telemetry,
) -> Pass {
    let run = |op, index: usize| {
        let draw = OPS[index].draw(index, seed);
        let config = op_config(&state.models[index], draw, telemetry);
        (draw, run_op(state, index, &config, tracer, op))
    };
    let check = |index: usize, (draw, result): (Option<usize>, Result<String, _>)| {
        let key = OPS[index].key(draw);
        match result {
            Ok(text) => digests.matches(&key, text.as_bytes()),
            Err(e) => {
                eprintln!("campaign op {key} failed: {e}");
                false
            }
        }
    };
    measure_cycles(OPS.len(), seed, ops, tracer, "campaign.op", run, check)
}

pub fn cycles_for(seconds: f64) -> usize {
    pass::cycles_for(seconds, CYCLE_SECONDS)
}

pub fn op_count() -> usize {
    OPS.len()
}

/// Traced-run metrics: a traced pass between two untraced half passes,
/// then a one-cycle breakdown probe of each op's campaign into
/// enumeration, execution (at nproc and at one thread) and the rest.
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

    let (mut total, mut enumerate, mut execute, mut execute_1t, mut injections) =
        (0.0, 0.0, 0.0, 0.0, 0usize);
    let probe = tracer.span("campaign.breakdown", 0);
    for (index, def) in OPS.iter().enumerate() {
        let p = &state.models[index];
        let draw = def.draw(index, seed);
        let config = op_config(p, draw, &Telemetry::off());
        let draw_seed = draw.map_or(0, |d| DRAW_SEEDS[d]);
        let b = with_target(p, def, &Tracer::new(false), 0, |t| {
            t.breakdown(def, &config, draw_seed)
        })
        .expect("breakdown campaign completes");
        total += b.total;
        enumerate += b.enumerate;
        execute += b.execute;
        execute_1t += b.execute_1t;
        injections += b.injections;
    }
    drop(probe);
    let start = Instant::now();
    for m in &state.models {
        std::hint::black_box(PackedNetlist::compile(m.prepared.module()));
    }
    let compile_ms = start.elapsed().as_secs_f64() * 1e3 / state.models.len() as f64;

    let ops = OPS.len() as f64;
    let counter = |name: &str| telemetry.counter(name).get() as f64;
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    let per_cycle = |name: &str| counter(name) / cycles as f64;
    let mean = |name: &str| tracer.mean_ms(name);
    let metrics = vec![
        Metric::new("campaign.netlist.compile_ms", compile_ms, "ms"),
        Metric::new(
            "campaign.faultsim.scenarios_ms",
            mean("faultsim.scenarios"),
            "ms",
        ),
        Metric::new(
            "campaign.faultsim.enumerate_ms",
            enumerate / ops * 1e3,
            "ms",
        ),
        Metric::new("campaign.faultsim.execute_ms", execute / ops * 1e3, "ms"),
        Metric::new(
            "campaign.faultsim.aggregate_ms",
            (total - enumerate - execute).max(0.0) / ops * 1e3,
            "ms",
        ),
        Metric::new(
            "campaign.faultsim.injections",
            per_cycle("scfi_campaign_injections_total"),
            "count",
        ),
        Metric::new(
            "campaign.faultsim.engine_inj_per_s",
            injections as f64 / execute,
            "1/s",
        ),
        Metric::new(
            "campaign.faultsim.parallel_speedup",
            execute_1t / execute,
            "x",
        ),
        Metric::new(
            "campaign.faultsim.waves",
            per_cycle("scfi_campaign_waves_total"),
            "count",
        ),
        Metric::new(
            "campaign.faultsim.skip_ratio",
            ratio(
                counter("scfi_campaign_cycles_skipped_total"),
                counter("scfi_campaign_cycles_stepped_total"),
            ),
            "ratio",
        ),
        Metric::new(
            "campaign.faultsim.rebuild_elision_ratio",
            ratio(
                counter("scfi_campaign_mask_rebuild_elisions_total"),
                counter("scfi_campaign_mask_rebuilds_total"),
            ),
            "ratio",
        ),
        Metric::new(
            "campaign.faultsim.oracle_fastpath_ratio",
            ratio(
                counter("scfi_campaign_oracle_fastpath_cycles_total"),
                counter("scfi_campaign_oracle_fallback_cycles_total"),
            ),
            "ratio",
        ),
        Metric::new("campaign.wire.render_ms", mean("wire.render"), "ms"),
        Metric::new(
            "campaign.trace.overhead_ratio",
            traced.ops_per_s() / untraced.ops_per_s(),
            "ratio",
        ),
    ];
    untraced.absorb(traced);
    (metrics, untraced)
}

/// Digest-table entries for every op, each cross-checked against the
/// scalar reference backend (ARCHITECTURE invariant 1).
pub fn generate(entries: &mut Vec<(String, u64)>) {
    let state = setup(&Tracer::new(false));
    let off = Tracer::new(false);
    for (index, def) in OPS.iter().enumerate() {
        let draws: Vec<Option<usize>> = if def.shape == Multi {
            (0..DRAW_SEEDS.len()).map(Some).collect()
        } else {
            vec![None]
        };
        for draw in draws {
            let p = &state.models[index];
            let config = op_config(p, draw, &Telemetry::off());
            let t = Instant::now();
            let packed = run_op(&state, index, &config, &off, 0).expect("packed campaign");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let scalar = run_op(
                &state,
                index,
                &config.clone().backend(Backend::Scalar),
                &off,
                0,
            )
            .expect("scalar campaign");
            assert!(
                packed == scalar,
                "{}: packed and scalar backends disagree",
                def.key(draw)
            );
            let digest = fnv1a(packed.as_bytes());
            println!("{:<48} {ms:>9.2} ms  {digest:016x}", def.key(draw));
            entries.push((def.key(draw), digest));
        }
    }
}
