//! `serve`: a closed loop of two clients against an in-process
//! `scfi_serve::Server` with `ServerOptions::default()`, over loopback
//! HTTP. An op submits a job, polls `/v1/jobs/{id}/result` until it is
//! ready, and digests the body.
//!
//! Most jobs are warm analyze jobs by suite name, on which the serve
//! layer itself dominates. A fixed share are per-site certify jobs, which
//! share the workers with the analyze jobs, and a fixed number are cold
//! analyze jobs (inline DSL under a fresh FSM name: a cache miss and a
//! prepare inside the op).
//!
//! Steadiness: every run of a given `--seconds` submits the same
//! multiset of jobs (the seed only orders them), so every run ends with
//! the same registry size — submit sweeps walk every retained job, and
//! every retained job keeps its result body. Each block of the mix is
//! shuffled on its own, so every stretch of a run has the same mix. Each
//! job's polling starts at a seeded phase within the poll interval, so a
//! ~3 ms latency is not quantized to whole intervals.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use scfi_faultsim::{RunControl, ScfiTarget, VulnerabilityMap};
use scfi_fsm::parse_fsm;
use scfi_serve::cache::{prepare, PreparedModel};
use scfi_serve::jobs::{run_job, JobOutcome, JobSpec};
use scfi_serve::json::{parse, Json};
use scfi_serve::wire::write_sites_json;
use scfi_serve::{Server, ServerOptions};
use scfi_telemetry::Telemetry;

use crate::digests::{fnv1a, Digests};
use crate::pass::Pass;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::Metric;

const CLIENTS: usize = 2;
/// Poll interval of `GET /v1/jobs/{id}/result`.
const POLL: Duration = Duration::from_millis(1);
/// A job not finished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Nominal jobs per second on the reference host: sets how many jobs a
/// run of `--seconds` submits.
const JOBS_PER_SECOND: f64 = 172.0;
/// One cold job joins every `COLD_EVERY`-th block, up to [`COLD_JOBS`].
const COLD_EVERY: usize = 7;
/// Cold jobs per run. Each one inserts a fresh model into the server's
/// compile cache, a FIFO that a hit does not refresh. Once a run has
/// inserted more models than the cache has room for beside the warm
/// models cached at setup, each new insert would evict a warm model, and
/// a warm job would then prepare it again inside its op. The default
/// cache holds 32 models and setup caches 11, so a run keeps to 20 cold
/// jobs, and [`measure`] checks the server's miss count.
const COLD_JOBS: usize = 20;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// Analyze by suite name; the model is cached at setup.
    Warm,
    /// Analyze of inline DSL under a fresh FSM name.
    Cold,
    /// Per-site FT1 certification by suite name.
    Certify,
}

struct JobDef {
    class: Class,
    fsm: &'static str,
    config: &'static str,
    level: usize,
    protocol: Option<usize>,
    /// Jobs of this spec per block of [`BLOCK`] jobs (0 for cold jobs,
    /// which the plan places on its own).
    per_block: usize,
}

const fn job(
    class: Class,
    fsm: &'static str,
    config: &'static str,
    level: usize,
    protocol: Option<usize>,
    per_block: usize,
) -> JobDef {
    JobDef {
        class,
        fsm,
        config,
        level,
        protocol,
        per_block,
    }
}

use Class::{Certify, Cold, Warm};

/// The job mix, in blocks of [`BLOCK`] jobs, and the cold jobs.
const JOBS: &[JobDef] = &[
    job(Warm, "aes_control", "scfi", 3, None, 4),
    job(Warm, "adc_ctrl_fsm", "scfi", 3, None, 1),
    job(Warm, "ibex_controller", "scfi", 3, None, 1),
    job(Warm, "pwrmgr_fsm", "scfi", 2, None, 1),
    job(Warm, "ibex_lsu", "scfi", 3, None, 2),
    job(Warm, "aes_control", "redundancy", 3, None, 1),
    job(Warm, "aes_control", "unprotected", 3, None, 1),
    job(Warm, "aes_control", "scfi", 3, Some(4), 2),
    job(Warm, "ibex_controller", "scfi", 2, Some(4), 1),
    job(Warm, "adc_ctrl_fsm", "scfi", 3, Some(4), 1),
    job(Warm, "pwrmgr_fsm", "scfi", 4, Some(4), 1),
    job(Cold, "aes_control", "scfi", 3, None, 0),
    job(Cold, "pwrmgr_fsm", "scfi", 3, None, 0),
    job(Certify, "aes_control", "scfi", 3, None, 2),
    job(Certify, "pwrmgr_fsm", "scfi", 3, None, 2),
    job(Certify, "ibex_controller", "scfi", 2, None, 1),
    job(Certify, "adc_ctrl_fsm", "scfi", 3, None, 1),
    job(Certify, "ibex_lsu", "scfi", 3, None, 1),
    job(Certify, "i2c_fsm", "scfi", 3, None, 1),
];
const BLOCK: usize = 24;

impl JobDef {
    fn key(&self) -> String {
        let class = match self.class {
            Warm => "analyze",
            Cold => "cold",
            Certify => "certify",
        };
        let mut key = format!("serve/{class}/{}/{}/n{}", self.fsm, self.config, self.level);
        if let Some(depth) = self.protocol {
            key.push_str(&format!("/p{depth}"));
        }
        key
    }

    /// The FSM name a cold job submits under (`tag` keeps it fresh).
    fn fresh_name(&self, tag: usize) -> String {
        format!("{}_cold{tag}", self.fsm)
    }

    /// The `POST /v1/jobs` body; cold jobs inline the suite DSL renamed.
    fn body(&self, cold_tag: Option<usize>) -> String {
        let kind = if self.class == Certify {
            "certify"
        } else {
            "analyze"
        };
        let mut fields = vec![format!("\"kind\": \"{kind}\"")];
        match cold_tag {
            Some(tag) => {
                let fsm = scfi_opentitan::by_name(self.fsm).expect("suite FSM").fsm;
                let dsl = fsm.to_dsl().replacen(
                    &format!("fsm {} ", self.fsm),
                    &format!("fsm {} ", self.fresh_name(tag)),
                    1,
                );
                fields.push(format!("\"fsm\": {}", Json::Str(dsl).encode()));
            }
            None => fields.push(format!("\"suite\": \"{}\"", self.fsm)),
        }
        if self.config != "scfi" {
            fields.push(format!("\"config\": \"{}\"", self.config));
        }
        fields.push(format!("\"level\": {}", self.level));
        if let Some(depth) = self.protocol {
            fields.push(format!("\"protocol\": {depth}"));
        }
        format!("{{{}}}", fields.join(", "))
    }
}

pub fn op_keys() -> Vec<String> {
    JOBS.iter().map(JobDef::key).collect()
}

/// One planned op: which spec, its block, its cold-name tag, its poll
/// phase.
#[derive(Clone, Debug, PartialEq)]
struct Planned {
    def: usize,
    block: usize,
    cold_tag: Option<usize>,
    phase: Duration,
}

/// Cold jobs in the first `blocks` blocks of a run.
fn cold_jobs(blocks: usize) -> usize {
    blocks.div_ceil(COLD_EVERY).min(COLD_JOBS)
}

/// The run's job list: `blocks` copies of the mix, plus one cold job in
/// each of the first [`COLD_JOBS`] blocks `k * COLD_EVERY`, the cold
/// specs taking turns. Each block is shuffled by the seed and each job
/// gets a seeded poll phase in `[0, POLL)`. The plan of fewer blocks is a
/// prefix of the plan of more.
fn plan(blocks: usize, seed: u64) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let cold_defs: Vec<usize> = (0..JOBS.len()).filter(|&i| JOBS[i].class == Cold).collect();
    let mut jobs = Vec::with_capacity(blocks * BLOCK + COLD_JOBS);
    let mut cold = 0;
    for b in 0..blocks {
        let mut block: Vec<usize> = Vec::with_capacity(BLOCK + 1);
        for (i, def) in JOBS.iter().enumerate() {
            block.extend(std::iter::repeat_n(i, def.per_block));
        }
        if b % COLD_EVERY == 0 && b / COLD_EVERY < COLD_JOBS {
            block.push(cold_defs[b / COLD_EVERY % cold_defs.len()]);
        }
        rng.shuffle(&mut block);
        for def in block {
            let cold_tag = (JOBS[def].class == Cold).then(|| {
                cold += 1;
                cold
            });
            jobs.push(Planned {
                def,
                block: b,
                cold_tag,
                phase: POLL.mul_f64(rng.unit()),
            });
        }
    }
    jobs
}

pub fn blocks_for(seconds: f64) -> usize {
    ((seconds * JOBS_PER_SECOND / BLOCK as f64).round() as usize).max(1)
}

// ---------------------------------------------------------------------
// HTTP
// ---------------------------------------------------------------------

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let raw = String::from_utf8(raw)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((&raw, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string()))
}

/// A submit response: the job id on `202`, anything else (including a
/// `429` from a full queue) fails the op.
fn submitted(status: u16, body: &str) -> Result<u64, String> {
    match status {
        202 => parse(body)
            .ok()
            .and_then(|doc| doc.get("id").and_then(Json::as_u64))
            .ok_or_else(|| format!("202 without a job id: {body}")),
        _ => Err(format!("submit answered {status}: {}", body.trim())),
    }
}

#[derive(Debug, PartialEq)]
enum Poll {
    /// `200`: the result body.
    Ready(String),
    /// `409`: not finished yet — one more poll.
    Pending,
    /// `500` (failed or cancelled job), `429` or anything else.
    Failed(String),
}

fn polled(status: u16, body: String) -> Poll {
    match status {
        200 => Poll::Ready(body),
        409 => Poll::Pending,
        _ => Poll::Failed(format!("result answered {status}: {}", body.trim())),
    }
}

/// Counts the client sees beyond op latency.
#[derive(Default)]
struct ClientCounts {
    polls: usize,
    rejected: usize,
}

/// One op: submit `body`, wait out the seeded phase, poll until ready,
/// and return the result body.
fn serve_job(
    addr: SocketAddr,
    body: &str,
    phase: Duration,
    tracer: &Tracer,
    op: u64,
    counts: &mut ClientCounts,
) -> Result<String, String> {
    let started = Instant::now();
    let (status, reply) = tracer
        .time("serve.submit", op, || http(addr, "POST", "/v1/jobs", body))
        .map_err(|e| e.to_string())?;
    if status == 429 {
        counts.rejected += 1;
    }
    let id = submitted(status, &reply)?;
    let path = format!("/v1/jobs/{id}/result");
    tracer.time("serve.wait", op, || std::thread::sleep(phase));
    loop {
        // A 409 is a poll; the 200 that carries the result body is timed
        // on its own, as the result fetch.
        let mut span = tracer.span("serve.poll", op);
        let (status, reply) = http(addr, "GET", &path, "").map_err(|e| e.to_string())?;
        let poll = polled(status, reply);
        if matches!(poll, Poll::Ready(_)) {
            span.rename("serve.result");
        }
        drop(span);
        match poll {
            Poll::Ready(body) => return Ok(body),
            Poll::Pending => {
                counts.polls += 1;
                if started.elapsed() > JOB_TIMEOUT {
                    return Err(format!("job {id} unfinished after {JOB_TIMEOUT:?}"));
                }
                tracer.time("serve.wait", op, || std::thread::sleep(POLL));
            }
            Poll::Failed(message) => {
                if status == 429 {
                    counts.rejected += 1;
                }
                return Err(message);
            }
        }
    }
}

/// Runs planned job `job`, whose request body is `request`. A cold job's
/// fresh FSM name is mapped back to the suite name, so its result digests
/// like any run of the same spec.
fn run_op(
    addr: SocketAddr,
    job: &Planned,
    request: &str,
    tracer: &Tracer,
    op: u64,
    counts: &mut ClientCounts,
) -> Result<String, String> {
    let def = &JOBS[job.def];
    let body = serve_job(addr, request, job.phase, tracer, op, counts)?;
    Ok(match job.cold_tag {
        Some(tag) => body.replace(&def.fresh_name(tag), def.fsm),
        None => body,
    })
}

// ---------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------

/// A booted server whose compile cache holds every suite-named spec.
pub struct State {
    server: Server,
}

/// The distinct models the suite-named jobs use.
fn warm_models() -> Vec<(&'static str, &'static str, usize)> {
    let mut models: Vec<_> = JOBS
        .iter()
        .filter(|d| d.class != Cold)
        .map(|d| (d.fsm, d.config, d.level))
        .collect();
    models.sort_unstable();
    models.dedup();
    models
}

/// Boots the server and fills its compile cache with every model the
/// suite-named jobs use. Each warm-up job has a zero injection budget,
/// so it prepares its model and stops at the first wave: setup holds the
/// one-time work (server boot, MDS search, prepare) and no campaign.
pub fn setup() -> State {
    let server = Server::bind("127.0.0.1:0", ServerOptions::default()).expect("bind loopback");
    let addr = server.local_addr();
    let tracer = Tracer::new(false);
    for (fsm, config, level) in warm_models() {
        let body = format!(
            "{{\"kind\": \"analyze\", \"suite\": \"{fsm}\", \"config\": \"{config}\", \
             \"level\": {level}, \"max_injections\": 0}}"
        );
        serve_job(
            addr,
            &body,
            Duration::ZERO,
            &tracer,
            0,
            &mut ClientCounts::default(),
        )
        .expect("warm-up job prepares its model");
    }
    State { server }
}

pub struct Measured {
    pub pass: Pass,
    polls: usize,
    rejected: usize,
}

/// Serves blocks `blocks` of the run's job plan under `seed`, so that
/// consecutive ranges continue one run. Every job but a cold one must
/// find its model in the compile cache: each further miss on the server
/// counts as a failed op.
pub fn measure(
    state: &State,
    seed: u64,
    blocks: Range<usize>,
    digests: &Digests,
    tracer: &Tracer,
) -> Measured {
    let addr = state.server.local_addr();
    let mut jobs = plan(blocks.end, seed);
    let first = jobs.partition_point(|j| j.block < blocks.start);
    let jobs = jobs.split_off(first);
    let requests: Vec<String> = jobs.iter().map(|j| JOBS[j.def].body(j.cold_tag)).collect();
    let keys: Vec<String> = JOBS.iter().map(JobDef::key).collect();
    let next = AtomicUsize::new(0);
    let results = Mutex::new((Pass::default(), ClientCounts::default()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut pass = Pass::default();
                let mut counts = ClientCounts::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let t = Instant::now();
                    let op = (first + i) as u64;
                    let result = {
                        let _span = tracer.span("serve.op", op);
                        run_op(addr, job, &requests[i], tracer, op, &mut counts)
                    };
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let ok = match result {
                        Ok(body) => digests.matches(&keys[job.def], body.as_bytes()),
                        Err(e) => {
                            eprintln!("serve op {} failed: {e}", keys[job.def]);
                            false
                        }
                    };
                    pass.record(ms, ok);
                }
                let mut all = results.lock().expect("client results");
                all.0.absorb(pass);
                all.1.polls += counts.polls;
                all.1.rejected += counts.rejected;
            });
        }
    });
    let (mut pass, counts) = results.into_inner().expect("client results");
    pass.wall_s = start.elapsed().as_secs_f64();
    let misses = cache_counts(addr).1;
    let expected = (warm_models().len() + cold_jobs(blocks.end)) as f64;
    if misses != expected {
        eprintln!("serve: {misses} compile-cache misses, expected {expected}");
        pass.failed += (misses - expected).abs() as usize;
    }
    Measured {
        pass,
        polls: counts.polls,
        rejected: counts.rejected,
    }
}

/// The compile cache's hits and misses so far, from `/v1/healthz`.
fn cache_counts(addr: SocketAddr) -> (f64, f64) {
    let health = http(addr, "GET", "/v1/healthz", "")
        .ok()
        .and_then(|(_, body)| parse(&body).ok());
    let count = |k: &str| {
        health
            .as_ref()
            .and_then(|h| h.get("cache")?.get(k)?.as_u64())
            .unwrap_or(0) as f64
    };
    (count("hits"), count("misses"))
}

fn run(seed: u64, blocks: usize, digests: &Digests) -> Pass {
    let state = setup();
    measure(&state, seed, 0..blocks, digests, &Tracer::new(false)).pass
}

/// The value of an unlabelled series in a Prometheus exposition.
fn prom(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

/// Mean of a telemetry histogram in milliseconds, from its exact
/// `_sum`/`_count` (not its bucket-bound quantiles).
fn prom_mean_ms(text: &str, name: &str) -> f64 {
    prom(text, &format!("{name}_sum")) / prom(text, &format!("{name}_count")).max(1.0) / 1e6
}

/// Times `f` `reps` times and returns the mean in milliseconds.
fn mean_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// In-process `run_job` time of spec `def` (prepare included for cold
/// jobs, whose served op includes it), median of three.
fn direct_ms(def: &JobDef) -> f64 {
    let spec = JobSpec::from_json(&parse(&def.body(None)).expect("job body")).expect("valid spec");
    let warm = prepare(&spec.fsm, spec.config, spec.level).expect("prepare");
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let cold;
            let prepared = if def.class == Cold {
                cold = prepare(&spec.fsm, spec.config, spec.level).expect("prepare");
                &cold
            } else {
                &warm
            };
            let out = run_job(&spec, prepared, &RunControl::unlimited(), &Telemetry::off());
            assert!(
                matches!(out, JobOutcome::Done { .. }),
                "direct job completes"
            );
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// Traced-run metrics: an untraced and a traced pass, each against its
/// own freshly booted server, plus in-process probes of the layers the
/// served jobs cross.
pub fn trace(
    seed: u64,
    pass_seconds: f64,
    digests: &Digests,
    tracer: &Tracer,
) -> (Vec<Metric>, Pass) {
    let blocks = blocks_for(pass_seconds);
    let plain = run(seed, blocks, digests);
    let state = tracer.time("serve.setup", 0, setup);
    let traced = measure(&state, seed, 0..blocks, digests, tracer);
    let addr = state.server.local_addr();
    let (_, exposition) = http(addr, "GET", "/v1/metrics", "").expect("metrics scrape");
    let (hits, misses) = cache_counts(addr);
    drop(state);

    let share = |def: usize| JOBS[def].per_block as f64 / BLOCK as f64;
    let direct: f64 = (0..JOBS.len())
        .map(|d| share(d) * direct_ms(&JOBS[d]))
        .sum();
    let latency = stats::mean(&traced.pass.lat_ms);

    let cold: Vec<&JobDef> = JOBS.iter().filter(|d| d.class == Cold).collect();
    let cold_dsl: Vec<String> = cold
        .iter()
        .map(|d| {
            scfi_opentitan::by_name(d.fsm)
                .expect("suite FSM")
                .fsm
                .to_dsl()
        })
        .collect();
    let parse_ms = mean_ms(20, || {
        for dsl in &cold_dsl {
            std::hint::black_box(parse_fsm(dsl).expect("suite DSL parses"));
        }
    }) / cold_dsl.len() as f64;
    let warm: Vec<&JobDef> = JOBS.iter().filter(|d| d.class != Cold).collect();
    let lookup_ms = mean_ms(20, || {
        for d in &warm {
            std::hint::black_box(scfi_opentitan::by_name(d.fsm));
        }
    }) / warm.len() as f64;
    let cold_models: Vec<_> = cold
        .iter()
        .map(|d| {
            let fsm = scfi_opentitan::by_name(d.fsm).expect("suite FSM").fsm;
            prepare(&fsm, scfi_serve::ConfigKind::Scfi, d.level).expect("prepare")
        })
        .collect();
    let compile_ms = mean_ms(5, || {
        for p in &cold_models {
            std::hint::black_box(scfi_netlist::PackedNetlist::compile(p.module()));
        }
    }) / cold_models.len() as f64;
    let render_ms = render_probe();

    let mean = |name: &str| tracer.mean_ms(name);
    let n = traced.pass.attempted() as f64;
    let metrics = vec![
        Metric::new("serve.fsm.parse_ms", parse_ms, "ms"),
        Metric::new("serve.fsm.suite_lookup_ms", lookup_ms, "ms"),
        Metric::new("serve.netlist.compile_ms", compile_ms, "ms"),
        Metric::new(
            "serve.faultsim.injections",
            prom(&exposition, "scfi_campaign_injections_total"),
            "count",
        ),
        Metric::new(
            "serve.symbolic.ite_hit_ratio",
            {
                let hits = prom(&exposition, "scfi_bdd_ite_cache_hits_total");
                let misses = prom(&exposition, "scfi_bdd_ite_cache_misses_total");
                hits / (hits + misses).max(1.0)
            },
            "ratio",
        ),
        Metric::new("serve.serve.submit_ms", mean("serve.submit"), "ms"),
        Metric::new("serve.serve.poll_ms", mean("serve.poll"), "ms"),
        Metric::new("serve.serve.result_ms", mean("serve.result"), "ms"),
        Metric::new(
            "serve.serve.polls_per_job",
            traced.polls as f64 / n,
            "count",
        ),
        Metric::new(
            "serve.serve.queue_wait_ms",
            prom_mean_ms(&exposition, "scfi_serve_queue_wait_ns"),
            "ms",
        ),
        Metric::new(
            "serve.serve.job_run_ms",
            prom_mean_ms(&exposition, "scfi_serve_job_run_ns"),
            "ms",
        ),
        Metric::new("serve.serve.direct_ms", direct, "ms"),
        Metric::new("serve.serve.overhead_ms", latency - direct, "ms"),
        Metric::new(
            "serve.serve.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        ),
        Metric::new(
            "serve.serve.registry_jobs",
            prom(&exposition, "scfi_serve_registry_jobs"),
            "count",
        ),
        Metric::new("serve.serve.rejected", traced.rejected as f64, "count"),
        Metric::new("serve.wire.render_ms", render_ms, "ms"),
        Metric::new(
            "serve.trace.overhead_ratio",
            traced.pass.ops_per_s() / plain.ops_per_s(),
            "ratio",
        ),
    ];
    let mut both = plain;
    both.absorb(traced.pass);
    (metrics, both)
}

/// `serve::wire` writer time for the warm SCFI analyze jobs' result
/// documents, on maps computed in-process as the server computes them.
fn render_probe() -> f64 {
    let mut samples = Vec::new();
    for def in JOBS
        .iter()
        .filter(|d| d.class == Warm && d.config == "scfi")
    {
        let fsm = scfi_opentitan::by_name(def.fsm).expect("suite FSM").fsm;
        let prepared = prepare(&fsm, scfi_serve::ConfigKind::Scfi, def.level).expect("prepare");
        let PreparedModel::Scfi(h) = &prepared.model else {
            unreachable!("prepared as SCFI")
        };
        let config = scfi_faultsim::CampaignConfig::new().threads(2);
        let map = VulnerabilityMap::analyze(&ScfiTarget::new(h), &config);
        samples.push(mean_ms(20, || {
            let mut out = String::new();
            write_sites_json(&mut out, prepared.module(), &map);
            std::hint::black_box(out);
        }));
    }
    stats::mean(&samples)
}

/// Digest-table entries: each spec run in-process through `run_job`,
/// then served once by a fresh server and required to match.
pub fn generate(entries: &mut Vec<(String, u64)>) {
    let state = setup();
    let addr = state.server.local_addr();
    for (i, def) in JOBS.iter().enumerate() {
        let cold_tag = (def.class == Cold).then_some(1);
        let request = def.body(cold_tag);
        let spec = JobSpec::from_json(&parse(&request).expect("job body")).expect("spec");
        let prepared = prepare(&spec.fsm, spec.config, spec.level).expect("prepare");
        let JobOutcome::Done { body, .. } = run_job(
            &spec,
            &prepared,
            &RunControl::unlimited(),
            &Telemetry::off(),
        ) else {
            panic!("{}: direct job did not complete", def.key());
        };
        let direct = match cold_tag {
            Some(tag) => body.replace(&def.fresh_name(tag), def.fsm),
            None => body,
        };
        let job = Planned {
            def: i,
            block: 0,
            cold_tag,
            phase: Duration::ZERO,
        };
        let t = Instant::now();
        let served = run_op(
            addr,
            &job,
            &request,
            &Tracer::new(false),
            0,
            &mut ClientCounts::default(),
        )
        .expect("served job completes");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            served == direct,
            "{}: served body differs from run_job",
            def.key()
        );
        let digest = fnv1a(direct.as_bytes());
        println!(
            "{:<48} {ms:>9.2} ms  {digest:016x}  {} B",
            def.key(),
            direct.len()
        );
        entries.push((def.key(), digest));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_409_is_one_more_poll_and_429_or_500_fail_the_op() {
        assert_eq!(polled(200, "{}".into()), Poll::Ready("{}".into()));
        assert_eq!(polled(409, String::new()), Poll::Pending);
        for status in [429, 500, 404] {
            assert!(matches!(polled(status, String::new()), Poll::Failed(_)));
        }
        assert_eq!(submitted(202, r#"{"id": 7, "status": "queued"}"#), Ok(7));
        assert!(submitted(429, r#"{"error": {"code": "queue_full"}}"#).is_err());
        assert!(submitted(500, "").is_err());
        assert!(submitted(202, "{}").is_err());
    }

    #[test]
    fn the_job_plan_is_seeded_and_every_block_keeps_the_mix() {
        let blocks = blocks_for(20.0);
        let (a, b) = (plan(blocks, 1), plan(blocks, 2));
        assert_eq!(a, plan(blocks, 1));
        assert_ne!(a, b);
        assert_eq!(plan(10, 1)[..], a[..a.partition_point(|j| j.block < 10)]);
        for p in [&a, &b] {
            for block in 0..blocks {
                let jobs: Vec<&Planned> = p.iter().filter(|j| j.block == block).collect();
                for (def, spec) in JOBS.iter().enumerate() {
                    let n = jobs.iter().filter(|j| j.def == def).count();
                    if spec.class != Cold {
                        assert_eq!(n, spec.per_block);
                    }
                }
            }
        }
        assert_eq!(JOBS.iter().map(|d| d.per_block).sum::<usize>(), BLOCK);
        assert!(a.iter().all(|j| j.phase < POLL));
        let tags: Vec<usize> = a.iter().filter_map(|j| j.cold_tag).collect();
        assert_eq!(tags, (1..=cold_jobs(blocks)).collect::<Vec<_>>());
    }

    #[test]
    fn cold_jobs_leave_the_warm_models_in_the_default_cache() {
        // A 20 s run reaches the cap, and no run exceeds it.
        assert_eq!(cold_jobs(blocks_for(20.0)), COLD_JOBS);
        assert_eq!(cold_jobs(blocks_for(600.0)), COLD_JOBS);
        let room = ServerOptions::default().cache_capacity - warm_models().len();
        assert!(COLD_JOBS <= room, "{COLD_JOBS} cold jobs, room for {room}");
    }
}
