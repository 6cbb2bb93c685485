//! Pluggable campaign execution backends and the one wave scheduler
//! behind them.
//!
//! A [`CampaignBackend`] is the execution contract behind every campaign
//! entry point: compile the target's netlist once, run a [`WorkList`] of
//! `(scenario, faults)` items, and return **one [`Outcome`] per item, in
//! item order** — deterministically, independent of thread count, batching
//! or internal lane order. Everything above the backend (aggregation,
//! vulnerability maps, certification cross-checks, the CLI) is engine
//! agnostic. The workspace differential suites pin that the slot-ordered
//! outcome vector is byte-identical across backends on every Table-1 FSM
//! at every width and thread count.
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
//! Both run under one scheduler, [`run_waves`]: the backends differ only
//! in the per-worker body that computes one wave. Campaigns pick the
//! backend from [`CampaignConfig::backend`](CampaignConfig::backend); the
//! CLI exposes the same choice as `scfi analyze --backend scalar|packed`.

use std::iter::Enumerate;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::slice::ChunksMut;
use std::sync::Mutex;

use scfi_netlist::{PackedNetlist, Simulator, LANES};
use scfi_telemetry::Telemetry;

use crate::campaign::{run_item_scalar, CampaignConfig, Outcome};
use crate::control::{panic_message, CampaignError, PartialReport, RunControl, StopReason};
use crate::table::ScenarioTable;
use crate::target::{FaultTarget, Scenario};
use crate::wave::{wave_worker, WorkList};

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
/// Both backends run through one wave scheduler (`run_waves` in this
/// crate), which enforces the rest of the contract. It cuts the work
/// list into waves of fixed slots (64 items for the scalar backend,
/// `64 · W` for the packed one) and hands them out in slot order. It
/// asks [`RunControl::admit`] once per wave, under the same lock as the
/// claim, and the first refusal stops all further claims. A wave refused
/// for the injection budget still runs its longest prefix of whole
/// 64-item words that fits. Every stop therefore completes a prefix of
/// the work list, and an injection-budget stop completes the same prefix
/// on either backend, at any wave width and thread count: every slot
/// below `budget / 64 · 64`, or all of them when the budget covers the
/// list. Each completed slot is byte-identical to the same slot of an
/// uninterrupted run, on any backend, and the refused slots stay out of
/// the [`PartialReport`]. Each wave runs under
/// [`std::panic::catch_unwind`]: a panic fails only that wave's slots.
pub trait CampaignBackend {
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
    fn try_execute<T: FaultTarget>(
        &self,
        target: &T,
        work: &WorkList,
        config: &CampaignConfig,
        control: &RunControl,
    ) -> Result<Vec<Outcome>, CampaignError> {
        // Each worker owns one reusable simulator and output buffer and
        // caches the last materialized scenario, so the per-injection cost
        // is one register reset plus the scenario's simulated cycles.
        let worker = || {
            let mut sim = Simulator::new(target.module());
            let mut outputs = Vec::with_capacity(target.module().outputs().len());
            let mut cached: Option<(usize, Scenario)> = None;
            move |first: usize, out: &mut [Option<Outcome>]| {
                for (i, slot) in (first..).zip(out) {
                    let (scenario, faults) = work.item(i);
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
                        work.windows(i),
                        &mut outputs,
                    ));
                }
            }
        };
        let (threads, telemetry) = (config.thread_count(), config.telemetry_handle());
        run_waves(work, LANES, threads, control, telemetry, worker)
    }
}

impl CampaignBackend for PackedBackend {
    fn try_execute<T: FaultTarget>(
        &self,
        target: &T,
        work: &WorkList,
        config: &CampaignConfig,
        control: &RunControl,
    ) -> Result<Vec<Outcome>, CampaignError> {
        // A cached compile (validated against the module shape by the
        // config) replaces the per-run compilation; `PackedNetlist` is
        // immutable, so sharing it across concurrent campaigns is sound.
        let owned;
        let compiled = match config.precompiled_for(target.module()) {
            Some(net) => net,
            None => {
                owned = PackedNetlist::compile(target.module());
                &owned
            }
        };
        let (threads, telemetry) = (config.thread_count(), config.telemetry_handle());
        match config.lane_width().words() {
            1 => run_packed::<1>(target, compiled, work, threads, control, telemetry),
            2 => run_packed::<2>(target, compiled, work, threads, control, telemetry),
            4 => run_packed::<4>(target, compiled, work, threads, control, telemetry),
            _ => unreachable!("LaneWidth admits only 1, 2 or 4 words"),
        }
    }
}

/// The packed backend at `W` lane words: one scenario table for the run,
/// shared by every worker's wave body. Generic over the width only: the
/// target is reached through the table, off the per-lane path.
fn run_packed<const W: usize>(
    target: &dyn FaultTarget,
    compiled: &PackedNetlist,
    work: &WorkList,
    threads: usize,
    control: &RunControl,
    telemetry: &Telemetry,
) -> Result<Vec<Outcome>, CampaignError> {
    let table = ScenarioTable::<W>::new(target, work, telemetry);
    run_waves(work, LANES * W, threads, control, telemetry, || {
        wave_worker(&table, compiled, work, telemetry)
    })
}

/// The waves of one run, claimed in slot order under one lock.
struct WaveQueue<'a> {
    /// The outcome vector cut into waves, numbered from slot 0.
    waves: Enumerate<ChunksMut<'a, Option<Outcome>>>,
    /// The first refused admission; once set, no wave is claimed.
    stopped: Option<StopReason>,
    /// Waves admitted so far, and the injections they carry.
    admitted: u64,
    injections: u64,
}

/// The one wave scheduler behind both backends.
///
/// Cuts the slot-ordered outcome vector into waves of `wave_items` slots
/// and runs them on up to `threads` workers (the calling thread is one of
/// them). Each worker builds its scratch with `new_worker` when it claims
/// its first wave, then calls it as `wave(first, out)` to compute items
/// `first..first + out.len()` into `out`. Waves are claimed from one
/// [`Mutex`] in slot order, and [`RunControl::admit`] is asked under the
/// same lock, so the first refusal stops every further claim and the
/// admitted waves are always a prefix. A wave refused for the injection
/// budget is cut to its longest prefix of whole [`LANES`]-item words that
/// the budget still admits, which runs as the last wave: the budget then
/// stops every width at the same slot. Each wave runs under
/// [`catch_unwind`]: a panicking wave's slots go back to `None`, its
/// worker's scratch is dropped and rebuilt for the worker's next wave, and
/// every other wave still runs. The lowest poisoned wave is the one
/// [`CampaignError::WorkerPanic`] reports. Waves and injections are
/// counted into `telemetry` once per run.
pub(crate) fn run_waves<F>(
    work: &WorkList,
    wave_items: usize,
    threads: usize,
    control: &RunControl,
    telemetry: &Telemetry,
    new_worker: impl Fn() -> F + Sync,
) -> Result<Vec<Outcome>, CampaignError>
where
    F: FnMut(usize, &mut [Option<Outcome>]),
{
    let mut outcomes = vec![None; work.len()];
    let workers = threads.min(work.len().div_ceil(wave_items)).max(1);
    let queue = Mutex::new(WaveQueue {
        waves: outcomes.chunks_mut(wave_items).enumerate(),
        stopped: None,
        admitted: 0,
        injections: 0,
    });
    let claim = || {
        let mut q = queue.lock().expect("no wave runs under the queue lock");
        if q.stopped.is_some() {
            return None;
        }
        let (k, out) = q.waves.next()?;
        let out = match control.admit(out.len()) {
            Ok(()) => out,
            Err(StopReason::InjectionBudgetExhausted) => {
                // The longest prefix of whole 64-lane words that still
                // fits runs, so a budget completes the same prefix at
                // every wave width. Nothing is claimed after it.
                q.stopped = Some(StopReason::InjectionBudgetExhausted);
                let words = (1..out.len().div_ceil(LANES))
                    .rev()
                    .find(|&words| control.admit(words * LANES).is_ok())?;
                &mut out[..words * LANES]
            }
            Err(reason) => {
                q.stopped = Some(reason);
                return None;
            }
        };
        q.admitted += 1;
        q.injections += out.len() as u64;
        Some((k * wave_items, out))
    };
    let worker_loop = || {
        let mut worker = None;
        let mut panics: Vec<(Range<usize>, String)> = Vec::new();
        while let Some((first, out)) = claim() {
            let wave = worker.get_or_insert_with(&new_worker);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| wave(first, out))) {
                out.fill(None);
                panics.push((first..first + out.len(), panic_message(payload)));
                worker = None;
            }
        }
        panics
    };
    let panics = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(worker_loop)).collect();
        let mut panics = worker_loop();
        for helper in helpers {
            let caught = helper
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload));
            panics.extend(caught);
        }
        panics
    });
    let WaveQueue {
        stopped,
        admitted,
        injections,
        ..
    } = queue
        .into_inner()
        .expect("no wave runs under the queue lock");
    telemetry.counter("scfi_campaign_waves_total").add(admitted);
    telemetry
        .counter("scfi_campaign_injections_total")
        .add(injections);
    // A caught wave panic outranks an interruption: its data loss is
    // unrecoverable, while an interrupted run can be resumed.
    if let Some((item_range, message)) = panics.into_iter().min_by_key(|(r, _)| r.start) {
        return Err(CampaignError::WorkerPanic {
            item_range,
            message,
            partial: Box::new(PartialReport::from_outcomes(work, outcomes)),
        });
    }
    if let Some(reason) = stopped {
        return Err(CampaignError::Interrupted {
            reason,
            partial: Box::new(PartialReport::from_outcomes(work, outcomes)),
        });
    }
    Ok(outcomes
        .into_iter()
        .map(|o| o.expect("an uninterrupted run fills every slot"))
        .collect())
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
}
