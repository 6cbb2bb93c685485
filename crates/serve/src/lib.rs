//! `scfi-serve` — campaign-as-a-service over HTTP.
//!
//! Layer 6 of the workspace: a std-only HTTP/1.1 job server (no async
//! runtime, no HTTP crate — the workspace is dependency-free) exposing
//! the fault-campaign and certification engines as a JSON API:
//!
//! ```text
//! POST   /v1/jobs             submit analyze/certify (FSM DSL + knobs)
//! GET    /v1/jobs/{id}        status + live progress
//! GET    /v1/jobs/{id}/result result document once finished
//! DELETE /v1/jobs/{id}        cooperative cancellation
//! GET    /v1/healthz          liveness, queue depth, cache counters
//! ```
//!
//! The serving layer adds *no* semantics of its own: `scfi analyze` and
//! `scfi certify` run the same [`JobSpec`] pipeline ([`jobs`]), so a
//! served analyze result is byte-identical to `scfi analyze --format
//! csv|json` (the writers in [`wire`] are shared) and a served certify
//! result carries the CLI's verdicts as JSON. The compiled-model cache in
//! [`cache`] is a pure memoization of deterministic preparation — the
//! determinism conformance suite pins both properties, cache-hit path
//! included.
//!
//! ```no_run
//! use scfi_serve::{Server, ServerOptions};
//!
//! let server = Server::bind("127.0.0.1:8080", ServerOptions::default())?;
//! println!("listening on {}", server.local_addr());
//! server.join();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod jobs;
pub mod json;
pub mod server;
pub mod wire;

pub use cache::{CompileCache, ConfigKind, Prepared, PreparedModel};
pub use jobs::{
    with_analyze_target, ApiError, JobKind, JobOutcome, JobSpec, TargetCampaign, WALK_SEED,
};
pub use server::{Server, ServerOptions};
