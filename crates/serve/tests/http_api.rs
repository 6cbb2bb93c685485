//! Black-box integration tests for the `scfi serve` HTTP API.
//!
//! Every test binds its own server on port 0 (an ephemeral port, so the
//! suite is hermetic and parallel-safe) and speaks to it exactly like an
//! external client would: raw [`std::net::TcpStream`] connections, one
//! HTTP/1.1 request each, no access to server internals.
//!
//! The slow job used by the cancellation and backpressure tests is the
//! i2c controller under a depth-2 protocol walk with stuck-at effects on
//! the scalar backend — measured at several seconds of campaign time, a
//! comfortably wide window for deterministic mid-run cancellation.

mod common;

use std::time::Duration;

use common::{await_status, await_terminal, http, job_status, run_to_result, submit};
use scfi_serve::{Server, ServerOptions};

/// A multi-second analyze campaign (see module docs).
const SLOW_JOB: &str = r#"{"kind": "analyze", "suite": "i2c_fsm", "level": 3,
    "backend": "scalar", "protocol": 2, "stuck_at": true}"#;

/// A sub-second analyze campaign on the two-state demo FSM.
const FAST_JOB: &str = r#"{"kind": "analyze",
    "fsm": "fsm demo { inputs go; state A { if go -> B; } state B { goto A; } }",
    "level": 2}"#;

fn boot(options: ServerOptions) -> Server {
    Server::bind("127.0.0.1:0", options).expect("bind an ephemeral port")
}

#[test]
fn healthz_reports_liveness_queue_and_cache() {
    let server = boot(ServerOptions::default());
    let reply = http(server.local_addr(), "GET", "/v1/healthz", None);
    assert_eq!(reply.status, 200);
    let doc = reply.json();
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        doc.get("queue").unwrap().get("capacity").unwrap().as_u64(),
        Some(64)
    );
    assert_eq!(
        doc.get("cache").unwrap().get("hits").unwrap().as_u64(),
        Some(0)
    );
    assert_eq!(
        doc.get("jobs").unwrap().get("queued").unwrap().as_u64(),
        Some(0)
    );
}

#[test]
fn analyze_lifecycle_runs_to_a_result_and_caches_the_model() {
    let server = boot(ServerOptions::default());
    let addr = server.local_addr();

    let id = submit(addr, FAST_JOB);
    let status = await_terminal(addr, id, Duration::from_secs(120));
    assert_eq!(status, "done");

    // Status document: kind, cache outcome (first run misses), digest.
    let doc = http(addr, "GET", &format!("/v1/jobs/{id}"), None).json();
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("analyze"));
    assert_eq!(doc.get("cache_hit").unwrap().as_bool(), Some(false));
    let digest = doc.get("digest").unwrap().as_str().unwrap().to_string();
    assert_eq!(digest.len(), 16, "digest renders as 16 hex digits");
    assert!(doc.get("error").is_none());

    let reply = http(addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.headers.get("content-type").map(String::as_str),
        Some("application/json")
    );
    let result = reply.json();
    assert_eq!(result.get("module").unwrap().as_str(), Some("demo_scfi"));
    assert!(result.get("injections").unwrap().as_u64().unwrap() > 0);
    assert!(!result.get("sites").unwrap().as_arr().unwrap().is_empty());

    // Resubmitting the identical job hits the compile cache and returns
    // byte-identical results.
    let second = submit(addr, FAST_JOB);
    assert_eq!(
        await_terminal(addr, second, Duration::from_secs(120)),
        "done"
    );
    let doc = http(addr, "GET", &format!("/v1/jobs/{second}"), None).json();
    assert_eq!(doc.get("cache_hit").unwrap().as_bool(), Some(true));
    assert_eq!(doc.get("digest").unwrap().as_str().unwrap(), digest);
    let rerun = http(addr, "GET", &format!("/v1/jobs/{second}/result"), None);
    assert_eq!(
        rerun.body, reply.body,
        "cache hit must not change the result"
    );

    // A warm concurrent batch: 4 clients × 2 jobs, every one a cache hit
    // with the first result's bytes.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..2 {
                    assert_eq!(
                        run_to_result(addr, FAST_JOB),
                        reply.body,
                        "a concurrent warm job changed the result"
                    );
                }
            });
        }
    });

    let health = http(addr, "GET", "/v1/healthz", None).json();
    let cache = health.get("cache").unwrap();
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(9));
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
    assert_eq!(cache.get("entries").unwrap().as_u64(), Some(1));
}

#[test]
fn certify_lifecycle_runs_to_a_verdict_document() {
    let server = boot(ServerOptions::default());
    let body = run_to_result(
        server.local_addr(),
        r#"{"kind": "certify", "suite": "aes_control", "level": 3}"#,
    );
    let doc = scfi_serve::json::parse(&body).expect("certify result is JSON");
    assert_eq!(doc.get("config").unwrap().as_str(), Some("scfi"));
    let sites = doc.get("sites").unwrap().as_arr().unwrap();
    assert!(!sites.is_empty());
    for site in sites {
        let verdict = site.get("verdict").unwrap().as_str().unwrap();
        assert!(
            [
                "proven-detected",
                "proven-masked",
                "counterexample",
                "unknown"
            ]
            .contains(&verdict),
            "unexpected verdict `{verdict}`"
        );
    }
    assert!(doc.get("all_proven").unwrap().as_bool().is_some());
}

#[test]
fn cancel_mid_run_yields_a_marked_partial_result() {
    // One worker so the slow job owns it; cancel once injections are
    // demonstrably flowing, so the stop lands mid-campaign.
    let server = boot(ServerOptions {
        workers: 1,
        ..ServerOptions::default()
    });
    let addr = server.local_addr();
    let id = submit(addr, SLOW_JOB);
    await_status(addr, id, "running", Duration::from_secs(120));
    let start = std::time::Instant::now();
    loop {
        let doc = http(addr, "GET", &format!("/v1/jobs/{id}"), None).json();
        let injections = doc
            .get("progress")
            .unwrap()
            .get("injections")
            .unwrap()
            .as_u64()
            .unwrap();
        if injections > 0 {
            break;
        }
        assert_eq!(doc.get("status").unwrap().as_str(), Some("running"));
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "no injections admitted after 120s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let reply = http(addr, "DELETE", &format!("/v1/jobs/{id}"), None);
    assert_eq!(reply.status, 202);
    assert_eq!(
        reply.json().get("status").unwrap().as_str(),
        Some("cancel_requested")
    );

    assert_eq!(
        await_terminal(addr, id, Duration::from_secs(120)),
        "cancelled"
    );
    let doc = http(addr, "GET", &format!("/v1/jobs/{id}"), None).json();
    assert_eq!(
        doc.get("error").unwrap().as_str(),
        Some("stopped early: cancelled")
    );

    // The partial result is served, clearly marked, with the completed
    // prefix of the campaign.
    let reply = http(addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(reply.status, 200);
    let partial = reply.json();
    assert_eq!(partial.get("partial").unwrap().as_bool(), Some(true));
    assert_eq!(
        partial.get("stopped_early").unwrap().as_str(),
        Some("cancelled")
    );
    let completed = partial.get("completed").unwrap().as_u64().unwrap();
    let total = partial.get("total").unwrap().as_u64().unwrap();
    assert!(completed > 0, "cancel landed before any work completed");
    assert!(
        completed < total,
        "cancel landed after the campaign finished"
    );
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    let server = boot(ServerOptions {
        workers: 1,
        queue_capacity: 1,
        ..ServerOptions::default()
    });
    let addr = server.local_addr();

    // Occupy the only worker, then fill the only queue slot.
    let running = submit(addr, SLOW_JOB);
    await_status(addr, running, "running", Duration::from_secs(120));
    let queued = submit(addr, FAST_JOB);
    assert_eq!(job_status(addr, queued), "queued");

    // A queued job has no result yet.
    let reply = http(addr, "GET", &format!("/v1/jobs/{queued}/result"), None);
    assert_eq!(reply.status, 409);
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("not_finished")
    );

    // The next submission is refused with backpressure, and the refused
    // job is not registered.
    let reply = http(addr, "POST", "/v1/jobs", Some(FAST_JOB));
    assert_eq!(reply.status, 429);
    assert_eq!(
        reply.headers.get("retry-after").map(String::as_str),
        Some("1")
    );
    let doc = reply.json();
    assert_eq!(
        doc.get("error").unwrap().get("code").unwrap().as_str(),
        Some("queue_full")
    );
    let refused_id = queued + 1;
    let reply = http(addr, "GET", &format!("/v1/jobs/{refused_id}"), None);
    assert_eq!(reply.status, 404, "refused job must not be registered");

    // Cancel both pending jobs: the queued one first (while the worker
    // is still busy, so it is discarded before it can start), then the
    // running one, which stops mid-campaign.
    for id in [queued, running] {
        assert_eq!(
            http(addr, "DELETE", &format!("/v1/jobs/{id}"), None).status,
            202
        );
    }
    assert_eq!(
        await_terminal(addr, running, Duration::from_secs(120)),
        "cancelled"
    );
    assert_eq!(
        await_terminal(addr, queued, Duration::from_secs(120)),
        "cancelled"
    );
    let doc = http(addr, "GET", &format!("/v1/jobs/{queued}"), None).json();
    assert_eq!(
        doc.get("error").unwrap().as_str(),
        Some("cancelled while queued")
    );
    // Cancelled-while-queued means no result document at all.
    let reply = http(addr, "GET", &format!("/v1/jobs/{queued}/result"), None);
    assert_eq!(reply.status, 500);
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("job_failed")
    );
}

#[test]
fn malformed_and_invalid_requests_get_typed_errors() {
    let server = boot(ServerOptions::default());
    let addr = server.local_addr();

    let cases: &[(&str, &str, Option<&str>, u16, &str)] = &[
        ("POST", "/v1/jobs", Some("{not json"), 400, "bad_json"),
        ("POST", "/v1/jobs", Some(""), 400, "bad_json"),
        ("POST", "/v1/jobs", Some("[1, 2]"), 400, "bad_body"),
        (
            "POST",
            "/v1/jobs",
            Some(r#"{"kind": "analyze", "suite": "ghost_fsm"}"#),
            404,
            "unknown_suite",
        ),
        (
            "POST",
            "/v1/jobs",
            Some(r#"{"kind": "analyze", "suite": "aes_control", "joint": true}"#),
            400,
            "bad_knobs",
        ),
        (
            "POST",
            "/v1/jobs",
            Some(r#"{"kind": "analyze", "suite": "aes_control", "turbo": true}"#),
            400,
            "unknown_field",
        ),
        ("GET", "/v1/jobs/999", None, 404, "unknown_job"),
        ("GET", "/v1/jobs/999/result", None, 404, "unknown_job"),
        ("DELETE", "/v1/jobs/999", None, 404, "unknown_job"),
        ("GET", "/v1/jobs/abc", None, 404, "unknown_job"),
        ("GET", "/v1/nope", None, 404, "unknown_path"),
        ("DELETE", "/v1/healthz", None, 404, "unknown_path"),
        ("PUT", "/v1/jobs", None, 405, "bad_method"),
    ];
    for &(method, path, body, status, code) in cases {
        let reply = http(addr, method, path, body);
        assert_eq!(
            reply.status, status,
            "{method} {path} with {body:?} → {}",
            reply.body
        );
        assert_eq!(
            reply
                .json()
                .get("error")
                .unwrap()
                .get("code")
                .unwrap()
                .as_str(),
            Some(code),
            "{method} {path} with {body:?}"
        );
    }
}

/// Oversized sizes never take the server down: a protocol walk past
/// `MAX_PROTOCOL_DEPTH` is a typed 400, and a joint bound past the site
/// count is clamped and runs to a verdict. `/v1/healthz` answers after
/// each.
#[test]
fn oversized_sizes_are_rejected_or_clamped_and_the_server_stays_up() {
    let server = boot(ServerOptions::default());
    let addr = server.local_addr();

    let reply = http(
        addr,
        "POST",
        "/v1/jobs",
        Some(r#"{"kind": "analyze", "suite": "aes_control", "protocol": 99999999999}"#),
    );
    assert_eq!(reply.status, 400, "{}", reply.body);
    let error = reply.json().get("error").unwrap().clone();
    assert_eq!(error.get("code").unwrap().as_str(), Some("bad_protocol"));
    assert_eq!(http(addr, "GET", "/v1/healthz", None).status, 200);

    let body = run_to_result(
        addr,
        r#"{"kind": "certify", "suite": "aes_control", "level": 2, "joint": true,
            "max_active": 99999999999}"#,
    );
    let doc = scfi_serve::json::parse(&body).expect("joint result is JSON");
    assert_eq!(doc.get("max_active").unwrap().as_u64(), Some(99999999999));
    assert!(doc.get("verdict").unwrap().get("kind").is_some(), "{body}");
    assert_eq!(http(addr, "GET", "/v1/healthz", None).status, 200);
}

#[test]
fn post_to_a_job_id_is_method_not_allowed() {
    let server = boot(ServerOptions::default());
    let addr = server.local_addr();
    let id = submit(addr, FAST_JOB);
    let reply = http(addr, "POST", &format!("/v1/jobs/{id}"), Some("{}"));
    assert_eq!(reply.status, 405);
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("bad_method")
    );
    // Drain the job so shutdown doesn't wait on it.
    assert_eq!(await_terminal(addr, id, Duration::from_secs(120)), "done");
}
