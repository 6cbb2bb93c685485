//! Black-box tests for the `/v1/metrics` Prometheus endpoint and the
//! observability-adjacent server behaviours it certifies: exposition
//! well-formedness, counter monotonicity across scrapes, agreement with
//! `/v1/healthz`, TTL retirement of finished jobs, and wave-boundary
//! responsive cancellation of a *running certify* job (the cancel token
//! is polled inside the BDD step loop and before every certified site,
//! not just between jobs).

mod common;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use common::{await_status, await_terminal, http, run_to_result, submit};
use scfi_serve::{Server, ServerOptions};

/// A sub-second analyze campaign on the two-state demo FSM.
const FAST_JOB: &str = r#"{"kind": "analyze",
    "fsm": "fsm demo { inputs go; state A { if go -> B; } state B { goto A; } }",
    "level": 2}"#;

/// A certify job measured in minutes when run to completion: the i2c
/// controller's full cell space (stuck-ats and pin faults included)
/// certified *jointly*. The cancellation test never lets it finish —
/// that is the point.
const SLOW_CERTIFY: &str = r#"{"kind": "certify", "suite": "i2c_fsm", "level": 3,
    "joint": true, "all_gates": true, "stuck_at": true, "pin_faults": true}"#;

/// A per-site certify job of a few seconds: the same cell space at
/// N = 4, 6,736 sites certified one by one. Nearly every site takes
/// fewer BDD steps than the in-operation poll cadence, so only the poll
/// before each site sees a cancel before the whole report is done.
const SLOW_PER_SITE_CERTIFY: &str = r#"{"kind": "certify", "suite": "i2c_fsm", "level": 4,
    "all_gates": true, "stuck_at": true, "pin_faults": true}"#;

fn boot(options: ServerOptions) -> Server {
    Server::bind("127.0.0.1:0", options).expect("bind an ephemeral port")
}

/// Scrapes `/v1/metrics`, asserting status and content type.
fn scrape(addr: std::net::SocketAddr) -> String {
    let reply = http(addr, "GET", "/v1/metrics", None);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let content_type = reply.headers.get("content-type").expect("content type");
    assert!(
        content_type.starts_with("text/plain"),
        "unexpected metrics content type {content_type}"
    );
    reply.body
}

/// The value of one exact sample line (`name value`), if present.
fn sample(exposition: &str, name: &str) -> Option<f64> {
    let key = format!("{name} ");
    exposition.lines().find(|l| l.starts_with(&key)).map(|l| {
        l.rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .expect("numeric sample")
    })
}

/// The value of one exact sample line, panicking when the series is
/// absent — used for series the endpoint *must* export.
fn required(exposition: &str, name: &str) -> f64 {
    sample(exposition, name)
        .unwrap_or_else(|| panic!("/v1/metrics is missing required series {name}"))
}

/// Parses the exposition strictly: every line is a `# TYPE` declaration
/// or a sample belonging to a previously declared family; every sample
/// value parses as a finite number. Returns the counter samples.
fn parse_strict(exposition: &str) -> HashMap<String, f64> {
    let mut families: HashMap<String, String> = HashMap::new();
    let mut counters = HashMap::new();
    for line in exposition.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let mut parts = decl.split(' ');
            let name = parts.next().expect("family name");
            let kind = parts.next().expect("family kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown family kind in `{line}`"
            );
            assert_eq!(parts.next(), None, "trailing tokens in `{line}`");
            families.insert(name.to_string(), kind.to_string());
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "only # TYPE comment lines are emitted, got `{line}`"
        );
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("non-numeric sample value in `{line}`");
        });
        assert!(value.is_finite(), "non-finite sample in `{line}`");
        // The series must belong to a declared family: exact name for
        // counters/gauges, `_bucket{le=...}`/`_sum`/`_count` suffixes
        // for histograms.
        let base = series
            .split_once("_bucket{")
            .map(|(b, _)| b)
            .or_else(|| series.strip_suffix("_sum"))
            .or_else(|| series.strip_suffix("_count"))
            .filter(|b| families.get(*b).map(String::as_str) == Some("histogram"));
        match (families.get(series).map(String::as_str), base) {
            (Some("counter"), _) => {
                counters.insert(series.to_string(), value);
            }
            (Some("gauge"), _) | (_, Some(_)) => {}
            other => panic!("sample `{line}` has no declared family ({other:?})"),
        }
    }
    counters
}

#[test]
fn metrics_exposition_is_well_formed_and_covers_all_layers() {
    let server = boot(ServerOptions::default());
    let addr = server.local_addr();
    // One analyze job populates the campaign-layer series; one certify
    // job populates the symbolic-layer series.
    run_to_result(addr, FAST_JOB);
    run_to_result(
        addr,
        r#"{"kind": "certify", "suite": "aes_control", "level": 3}"#,
    );

    let body = scrape(addr);
    parse_strict(&body);

    // Serve layer: request accounting, queue wait, job runtime, worker
    // utilization, submissions.
    assert!(required(&body, "scfi_serve_requests_total") >= 2.0);
    assert!(required(&body, "scfi_serve_request_submit_ns_count") >= 2.0);
    assert!(required(&body, "scfi_serve_queue_wait_ns_count") >= 2.0);
    assert!(required(&body, "scfi_serve_job_run_ns_count") >= 2.0);
    assert!(required(&body, "scfi_serve_worker_busy_ns_total") > 0.0);
    assert!(required(&body, "scfi_serve_jobs_submitted_total") >= 2.0);
    // Campaign layer, populated by the analyze job.
    assert!(required(&body, "scfi_campaign_waves_total") > 0.0);
    assert!(required(&body, "scfi_campaign_injections_total") > 0.0);
    // Symbolic layer, populated by the certify job.
    assert!(required(&body, "scfi_bdd_ite_cache_hits_total") > 0.0);
    assert!(required(&body, "scfi_bdd_nodes_high_water") > 0.0);
    assert!(required(&body, "scfi_certify_site_ns_count") > 0.0);
}

#[test]
fn metrics_counters_are_monotone_across_scrapes() {
    let server = boot(ServerOptions::default());
    let addr = server.local_addr();
    run_to_result(addr, FAST_JOB);

    let first_body = scrape(addr);
    let first = parse_strict(&first_body);
    // Generate more traffic, then scrape again.
    for _ in 0..3 {
        assert_eq!(http(addr, "GET", "/v1/healthz", None).status, 200);
    }
    let second_body = scrape(addr);
    let second = parse_strict(&second_body);
    for (name, &before) in &first {
        let after = second
            .get(name)
            .unwrap_or_else(|| panic!("counter {name} vanished between scrapes"));
        assert!(
            *after >= before,
            "counter {name} went backwards: {before} -> {after}"
        );
    }
    // The traffic we generated is visible: 3 healthz + 1 metrics scrape.
    assert!(second["scfi_serve_requests_total"] >= first["scfi_serve_requests_total"] + 4.0);
    // The healthz histogram may not exist before the first healthz hit.
    assert!(
        required(&second_body, "scfi_serve_request_healthz_ns_count")
            >= sample(&first_body, "scfi_serve_request_healthz_ns_count").unwrap_or(0.0) + 3.0
    );
}

#[test]
fn metrics_cache_gauges_agree_with_healthz() {
    let server = boot(ServerOptions::default());
    let addr = server.local_addr();
    // Same model twice: one compile-cache miss, then one hit.
    run_to_result(addr, FAST_JOB);
    run_to_result(addr, FAST_JOB);

    let health = http(addr, "GET", "/v1/healthz", None).json();
    let cache = health.get("cache").unwrap();
    let body = scrape(addr);
    assert_eq!(
        required(&body, "scfi_serve_cache_hits") as u64,
        cache.get("hits").unwrap().as_u64().unwrap()
    );
    assert_eq!(
        required(&body, "scfi_serve_cache_misses") as u64,
        cache.get("misses").unwrap().as_u64().unwrap()
    );
    assert_eq!(
        required(&body, "scfi_serve_cache_entries") as u64,
        cache.get("entries").unwrap().as_u64().unwrap()
    );
    assert!(required(&body, "scfi_serve_cache_hits") >= 1.0);
}

/// The TTL soak: with a tiny `job_ttl`, finished jobs are retired on
/// subsequent submissions, the registry stays bounded, and the eviction
/// counter records every retirement.
#[test]
fn finished_jobs_are_retired_after_their_ttl() {
    let server = boot(ServerOptions {
        job_ttl: Duration::from_millis(50),
        ..ServerOptions::default()
    });
    let addr = server.local_addr();

    let mut ids = Vec::new();
    for _ in 0..12 {
        let id = submit(addr, FAST_JOB);
        assert_eq!(await_terminal(addr, id, Duration::from_secs(120)), "done");
        ids.push(id);
        // Let the finished job age past its TTL before the next submit
        // sweeps the registry.
        std::thread::sleep(Duration::from_millis(80));
    }

    let body = scrape(addr);
    assert!(
        required(&body, "scfi_serve_jobs_evicted_total") >= 10.0,
        "evictions not recorded: {body}"
    );
    assert!(
        required(&body, "scfi_serve_registry_jobs") <= 2.0,
        "registry not bounded: {body}"
    );
    // A retired job is gone from the API, exactly like an unknown id.
    let reply = http(addr, "GET", &format!("/v1/jobs/{}", ids[0]), None);
    assert_eq!(reply.status, 404, "{}", reply.body);
}

/// DELETE on a *running certify* job lands inside the BDD step loop:
/// the job reaches `cancelled` in seconds, not after the minutes the
/// joint certification would otherwise run.
#[test]
fn cancel_running_certify_is_responsive() {
    assert_cancel_lands(SLOW_CERTIFY, Duration::from_secs(30));
}

/// DELETE on a running *per-site* certify job lands at the next site,
/// not after the seconds the rest of the report would take.
#[test]
fn cancel_running_per_site_certify_lands_at_the_next_site() {
    assert_cancel_lands(SLOW_PER_SITE_CERTIFY, Duration::from_secs(1));
}

/// Runs `job` on a one-worker server, DELETEs it 300 ms after it starts
/// running, and asserts it reaches `cancelled` within `within`.
fn assert_cancel_lands(job: &str, within: Duration) {
    let server = boot(ServerOptions {
        workers: 1,
        ..ServerOptions::default()
    });
    let addr = server.local_addr();
    let id = submit(addr, job);
    await_status(addr, id, "running", Duration::from_secs(120));
    // Let the certifier get deep into BDD work before pulling the plug.
    std::thread::sleep(Duration::from_millis(300));

    let reply = http(addr, "DELETE", &format!("/v1/jobs/{id}"), None);
    assert_eq!(reply.status, 202, "{}", reply.body);
    let cancelled_at = Instant::now();
    assert_eq!(
        await_terminal(addr, id, Duration::from_secs(60)),
        "cancelled"
    );
    assert!(
        cancelled_at.elapsed() < within,
        "cancel took {:?} — the BDD loop is not polling the token",
        cancelled_at.elapsed()
    );
    let doc = http(addr, "GET", &format!("/v1/jobs/{id}"), None).json();
    assert_eq!(
        doc.get("error").unwrap().as_str(),
        Some("stopped early: cancelled")
    );
}
