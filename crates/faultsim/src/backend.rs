//! Pluggable campaign execution backends.
//!
//! A [`CampaignBackend`] is the execution contract behind every campaign
//! entry point: compile the target's netlist once, run a [`WorkList`] of
//! `(scenario, faults)` items, and return **one [`Outcome`] per item, in
//! item order** — deterministically, independent of thread count, batching
//! or internal lane order. Everything above the backend (aggregation,
//! vulnerability maps, certification cross-checks, the CLI) is engine
//! agnostic; everything below it is free to batch and parallelize
//! however it likes, as long as the slot-ordered outcome vector is
//! byte-identical across backends. The workspace differential suites pin
//! that equivalence on every Table-1 FSM at every width and thread count.
//!
//! Two implementations ship:
//!
//! * [`ScalarBackend`] — one [`Simulator`] per worker, one injection at a
//!   time. The semantic reference: slowest, trivially auditable, and the
//!   engine the packed backend is differentially tested against.
//! * [`PackedBackend`] — the bit-parallel wave engine over `[u64; W]` net
//!   words, `W` ∈ {1, 2, 4} from [`CampaignConfig::lane_words`]: 64–256
//!   injections per netlist pass with word-parallel classification.
//!
//! Campaigns pick the backend from
//! [`CampaignConfig::backend`](CampaignConfig::backend); the CLI exposes
//! the same choice as `scfi analyze --backend scalar|packed`.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use scfi_netlist::{Simulator, LANES};

use crate::campaign::{run_item_scalar, CampaignConfig, Outcome};
use crate::control::{panic_message, CampaignError, RunControl, StopReason};
use crate::target::{FaultTarget, Scenario};
use crate::wave::{self, RunOutput, WorkList};

/// Selects which [`CampaignBackend`] a campaign runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The scalar reference engine ([`ScalarBackend`]).
    Scalar,
    /// The tunable-width packed wave engine ([`PackedBackend`]).
    #[default]
    Packed,
}

impl Backend {
    /// Every backend, in `scalar < packed` order.
    pub const ALL: [Backend; 2] = [Backend::Scalar, Backend::Packed];

    /// Parses a backend name as accepted by `scfi analyze --backend`.
    pub fn parse(name: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The backend's canonical name (`parse`'s inverse).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Packed => "packed",
        }
    }

    /// Every accepted name, as the front ends' rejection messages list
    /// them: `scalar or packed`.
    pub fn accepted_names() -> String {
        let names = Backend::ALL.map(Backend::name);
        let (last, rest) = names.split_last().expect("at least two backends");
        format!("{} or {last}", rest.join(", "))
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A campaign execution engine.
///
/// # Contract
///
/// `try_execute` returns exactly `work.len()` outcomes, where outcome `i`
/// is the folded trajectory verdict of injecting `work.item(i)`'s fault
/// group into its scenario — the verdict the scalar reference loop
/// computes. The vector must be *deterministic*: a pure function of
/// `(target, work)`, never of `config.threads`, wave boundaries, or
/// scheduling. Backends may consult `config` only for execution-shape
/// knobs (threads, lane words).
///
/// # Execution control
///
/// Backends consult `control` through [`RunControl::admit`] once per wave
/// (never per gate or per cycle) and wrap each wave in
/// [`std::panic::catch_unwind`]. The determinism contract extends to
/// interruption: a refused wave leaves its slots out of the
/// [`PartialReport`](crate::PartialReport), and every slot that *did*
/// complete is byte-identical to the same slot of an uninterrupted run —
/// at any thread count, on any backend.
pub trait CampaignBackend {
    /// The backend's canonical name (for reports and diagnostics).
    fn name(&self) -> &'static str;

    /// Runs `work` against `target` under `control`, returning
    /// slot-ordered outcomes — or, when interrupted or poisoned, the
    /// typed [`CampaignError`] carrying everything that completed.
    fn try_execute<T: FaultTarget>(
        &self,
        target: &T,
        work: &WorkList,
        config: &CampaignConfig,
        control: &RunControl,
    ) -> Result<Vec<Outcome>, CampaignError>;
}

/// The scalar reference backend: one [`Simulator`] per worker thread,
/// injections run one at a time with the last scenario cached, outcomes
/// written straight into their work-list slots.
///
/// Strictly slower than the wave backend; it exists as the differential
/// oracle: its slot-ordered outcome vector is the campaign semantics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalarBackend;

/// The tunable-width packed wave backend: `[u64; W]` waves with
/// `W` = [`CampaignConfig::lane_words`] ∈ {1, 2, 4}.
#[derive(Clone, Copy, Debug, Default)]
pub struct PackedBackend;

impl CampaignBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn try_execute<T: FaultTarget>(
        &self,
        target: &T,
        work: &WorkList,
        config: &CampaignConfig,
        control: &RunControl,
    ) -> Result<Vec<Outcome>, CampaignError> {
        let n = work.len();
        let mut outcomes: Vec<Option<Outcome>> = vec![None; n];
        if n == 0 {
            return Ok(Vec::new());
        }
        // Each worker owns one reusable simulator and output buffer and
        // caches the last materialized scenario, so the per-injection cost
        // is one register reset plus the scenario's simulated cycles.
        // Items run one at a time, but control checks and panic isolation
        // are chunked at the wave granularity ([`LANES`] items) so the
        // scalar backend honors the same wave-boundary contract as the
        // packed engines.
        let telemetry = config.telemetry_handle();
        let waves_total = telemetry.counter("scfi_campaign_waves_total");
        let injections_total = telemetry.counter("scfi_campaign_injections_total");
        let run_range = |start: usize,
                         out: &mut [Option<Outcome>]|
         -> (Option<StopReason>, Vec<(Range<usize>, String)>) {
            let mut sim = Simulator::new(target.module());
            let mut outputs = Vec::with_capacity(target.module().outputs().len());
            let mut cached: Option<(usize, Scenario)> = None;
            let mut stopped = None;
            let mut panics = Vec::new();
            let mut done = 0usize;
            while done < out.len() {
                let chunk = LANES.min(out.len() - done);
                if let Err(reason) = control.admit(chunk) {
                    stopped = Some(reason);
                    break;
                }
                waves_total.inc();
                injections_total.add(chunk as u64);
                let wave = catch_unwind(AssertUnwindSafe(|| {
                    for (k, slot) in out.iter_mut().enumerate().skip(done).take(chunk) {
                        let (scenario, faults) = work.item(start + k);
                        if cached.as_ref().map(|c| c.0) != Some(scenario) {
                            cached = Some((scenario, target.scenario(scenario)));
                        }
                        let (_, sc) = cached.as_ref().expect("cached scenario");
                        *slot = Some(run_item_scalar(
                            target,
                            &mut sim,
                            scenario,
                            sc,
                            faults,
                            work.windows(start + k),
                            &mut outputs,
                        ));
                    }
                }));
                if let Err(payload) = wave {
                    // Fail the whole chunk (partially computed slots
                    // included — a poisoned wave reports no outcomes) and
                    // restore clean per-worker scratch for the next chunk.
                    for slot in &mut out[done..done + chunk] {
                        *slot = None;
                    }
                    panics.push((start + done..start + done + chunk, panic_message(payload)));
                    sim.clear_faults();
                    cached = None;
                }
                done += chunk;
            }
            (stopped, panics)
        };
        let threads = config.thread_count().min(n);
        let (stopped, panics) = if threads <= 1 || n < 64 {
            run_range(0, &mut outcomes)
        } else {
            // Contiguous slot ranges per worker: each writes its own
            // disjoint outcome slice, so the result is slot-ordered by
            // construction.
            let per = n.div_ceil(threads);
            let workers: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = outcomes
                    .chunks_mut(per)
                    .enumerate()
                    .map(|(t, chunk)| {
                        let run_range = &run_range;
                        scope.spawn(move || run_range(t * per, chunk))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("scalar workers catch their own panics"))
                    .collect()
            });
            let mut stopped = None;
            let mut panics = Vec::new();
            for (s, p) in workers {
                if stopped.is_none() {
                    stopped = s;
                }
                panics.extend(p);
            }
            (stopped, panics)
        };
        wave::finish_run(
            work,
            RunOutput {
                outcomes,
                stopped,
                panics,
            },
        )
    }
}

impl CampaignBackend for PackedBackend {
    fn name(&self) -> &'static str {
        "packed"
    }

    fn try_execute<T: FaultTarget>(
        &self,
        target: &T,
        work: &WorkList,
        config: &CampaignConfig,
        control: &RunControl,
    ) -> Result<Vec<Outcome>, CampaignError> {
        wave::try_execute(
            target,
            work,
            config.thread_count(),
            config.lane_width(),
            config.precompiled_for(target.module()),
            control,
            config.telemetry_handle(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip_through_parse() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(Backend::parse("avx1024"), None);
        assert_eq!(Backend::default(), Backend::Packed);
        assert_eq!(Backend::accepted_names(), "scalar or packed");
    }

    #[test]
    fn trait_names_match_enum_names() {
        assert_eq!(ScalarBackend.name(), Backend::Scalar.name());
        assert_eq!(PackedBackend.name(), Backend::Packed.name());
    }
}
