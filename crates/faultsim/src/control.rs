//! Execution control for fault campaigns: cancellation, deadlines,
//! injection budgets, partial results and typed campaign errors.
//!
//! Every campaign engine in this crate runs *open-loop* without this
//! module: a run either finishes or takes the process down with it. The
//! [`RunControl`] handle closes the loop. It is a cheaply clonable token
//! carrying three optional limits — a cancellation flag, a wall-clock
//! deadline and an injection budget — that every
//! [`CampaignBackend`](crate::CampaignBackend) consults **once per wave**
//! (never on the per-gate hot path) through [`RunControl::admit`]. A wave
//! that is admitted runs to completion; a wave that is refused is simply
//! never started, and the run returns a [`PartialReport`] over the waves
//! that did complete.
//!
//! # Determinism under interruption
//!
//! Each wave computes its slots' outcomes independently of every other
//! wave and writes them to fixed work-list slots. Cancellation only
//! decides *which* waves run, never *what* a wave computes — so every
//! completed slot of a [`PartialReport`] is byte-identical to the same
//! slot of an uninterrupted run, at any thread count, on any backend.
//! Waves are admitted in slot order, so the completed waves are a prefix,
//! and a budget stop completes the same prefix at any thread count. The
//! interruption-determinism property tests pin exactly this.
//!
//! # Panic isolation
//!
//! The wave scheduler both backends share wraps each wave in
//! [`std::panic::catch_unwind`]: a poisoned scenario or target panics
//! only its own wave's item range, which is reported as
//! [`CampaignError::WorkerPanic`] while every other wave of the campaign
//! completes normally. The panicking wave's slots stay `None` in the
//! partial report — they are never fabricated.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::campaign::{aggregate, CampaignReport, Outcome};
use crate::wave::WorkList;

/// Validated lane-word width of the packed wave engine.
///
/// The single source of truth for which wave widths exist: the packed
/// backend runs `W` ∈ {1, 2, 4} (64-, 128- or 256-lane waves).
/// Both [`CampaignConfig::lane_words`](crate::CampaignConfig::lane_words)
/// and the wave executor validate through this type, so the rejection
/// message exists exactly once.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LaneWidth(usize);

impl LaneWidth {
    /// Validates a packed-engine lane-word count: 1, 2 or 4 words
    /// (64/128/256 lanes). Anything else is
    /// [`CampaignError::InvalidLaneWords`].
    pub fn new(words: usize) -> Result<LaneWidth, CampaignError> {
        match words {
            1 | 2 | 4 => Ok(LaneWidth(words)),
            other => Err(CampaignError::InvalidLaneWords { requested: other }),
        }
    }

    /// Lane words per wave.
    pub fn words(self) -> usize {
        self.0
    }

    /// Lanes (injections) per wave: `64 · words`.
    pub fn lanes(self) -> usize {
        self.0 * 64
    }
}

impl fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} words ({} lanes)", self.0, self.lanes())
    }
}

/// Why a controlled run stopped before completing its work list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// [`RunControl::cancel`] was called.
    Cancelled,
    /// The wall-clock deadline of [`RunControl::with_deadline`] passed.
    DeadlineExpired,
    /// Admitting the next wave would exceed the injection budget of
    /// [`RunControl::with_injection_budget`].
    InjectionBudgetExhausted,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StopReason::Cancelled => "cancelled",
            StopReason::DeadlineExpired => "deadline expired",
            StopReason::InjectionBudgetExhausted => "injection budget exhausted",
        })
    }
}

/// Shared state behind cloned [`RunControl`] handles.
struct ControlInner {
    cancel: AtomicBool,
    deadline: Option<Instant>,
    injection_budget: Option<u64>,
    injected: AtomicU64,
}

/// A cancellation token, wall-clock deadline and injection budget for one
/// campaign run — the execution-control handle threaded through every
/// [`CampaignBackend`](crate::CampaignBackend).
///
/// Clone the handle to keep a controller side: [`cancel`](Self::cancel)
/// from any thread stops the run at its next wave boundary. Limits are
/// configured up front with the builder methods and are immutable once
/// the handle has been cloned.
///
/// ```
/// use scfi_faultsim::RunControl;
///
/// let control = RunControl::unlimited().with_injection_budget(128);
/// assert!(control.admit(64).is_ok());
/// assert!(control.admit(64).is_ok());
/// assert!(control.admit(1).is_err()); // budget spent
/// ```
#[derive(Clone)]
pub struct RunControl {
    inner: Arc<ControlInner>,
}

impl RunControl {
    /// A control handle with no limits: never cancelled (until
    /// [`cancel`](Self::cancel)), no deadline, no budget. Campaigns run
    /// under this handle behave exactly like the infallible API.
    pub fn unlimited() -> RunControl {
        RunControl {
            inner: Arc::new(ControlInner {
                cancel: AtomicBool::new(false),
                deadline: None,
                injection_budget: None,
                injected: AtomicU64::new(0),
            }),
        }
    }

    fn inner_mut(&mut self) -> &mut ControlInner {
        Arc::get_mut(&mut self.inner).expect("configure RunControl before cloning the handle")
    }

    /// Sets a wall-clock deadline `timeout` from now. Waves that would
    /// start after the deadline are refused with
    /// [`StopReason::DeadlineExpired`].
    ///
    /// # Panics
    ///
    /// Panics if the handle has already been cloned (limits are fixed at
    /// construction).
    pub fn with_deadline(mut self, timeout: Duration) -> RunControl {
        self.inner_mut().deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Caps the total number of admitted injections at `budget`. A wave
    /// that would push the count past the budget is refused with
    /// [`StopReason::InjectionBudgetExhausted`] — the budget is never
    /// over-admitted, even under concurrent workers.
    ///
    /// # Panics
    ///
    /// Panics if the handle has already been cloned (limits are fixed at
    /// construction).
    pub fn with_injection_budget(mut self, budget: u64) -> RunControl {
        self.inner_mut().injection_budget = Some(budget);
        self
    }

    /// Requests cancellation: every subsequent [`admit`](Self::admit)
    /// across all clones returns [`StopReason::Cancelled`]. Waves already
    /// running complete normally (cancellation is wave-granular).
    pub fn cancel(&self) {
        self.inner.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancel.load(Ordering::Relaxed)
    }

    /// Asks permission to run a wave of `items` injections. Checked by
    /// backends once per wave — wave-boundary only, never per gate or per
    /// cycle. Returns the stop reason if the run should wind down instead.
    ///
    /// Budget accounting is a compare-and-swap loop, so concurrent
    /// workers can never jointly over-admit the injection budget.
    pub fn admit(&self, items: usize) -> Result<(), StopReason> {
        if self.inner.cancel.load(Ordering::Relaxed) {
            return Err(StopReason::Cancelled);
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Err(StopReason::DeadlineExpired);
            }
        }
        let items = items as u64;
        if let Some(budget) = self.inner.injection_budget {
            let mut current = self.inner.injected.load(Ordering::Relaxed);
            loop {
                if current.saturating_add(items) > budget {
                    return Err(StopReason::InjectionBudgetExhausted);
                }
                match self.inner.injected.compare_exchange_weak(
                    current,
                    current + items,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => current = actual,
                }
            }
        } else {
            // No budget to guard, but keep the counter live: `admitted`
            // is the progress observable of long-running campaigns (the
            // job server reports it while a campaign is in flight).
            self.inner.injected.fetch_add(items, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Total injections admitted so far across all clones — a monotone
    /// progress counter updated at wave boundaries, suitable for live
    /// status reporting of a campaign in flight.
    pub fn admitted(&self) -> u64 {
        self.inner.injected.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for RunControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControl")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.inner.deadline)
            .field("injection_budget", &self.inner.injection_budget)
            .field("injected", &self.inner.injected.load(Ordering::Relaxed))
            .finish()
    }
}

/// The completed portion of an interrupted campaign.
///
/// `outcomes[i]` is `Some` iff work item `i`'s wave completed; every
/// `Some` value is byte-identical to slot `i` of an uninterrupted run
/// (interruption decides *which* waves run, never what they compute).
/// `report` aggregates the completed slots only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialReport {
    /// Slot-ordered outcomes; `None` for items whose wave never ran (or
    /// panicked).
    pub outcomes: Vec<Option<Outcome>>,
    /// Number of completed (`Some`) slots.
    pub completed: usize,
    /// Aggregate over the completed slots, with hijack examples recorded
    /// exactly as a full run records them.
    pub report: CampaignReport,
}

impl PartialReport {
    /// Aggregates the completed slots of a slot-ordered outcome vector
    /// into a partial report, mirroring the full-run aggregation
    /// (including the first-64 hijack examples, in work-list order).
    pub fn from_outcomes(work: &WorkList, outcomes: Vec<Option<Outcome>>) -> PartialReport {
        let report = aggregate(
            work,
            outcomes
                .iter()
                .enumerate()
                .filter_map(|(i, o)| o.map(|o| (i, o))),
        );
        PartialReport {
            completed: report.injections,
            outcomes,
            report,
        }
    }

    /// Total work items of the interrupted run (completed or not).
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }
}

/// A campaign that could not run to completion, with everything that
/// *did* complete.
#[derive(Clone, Debug)]
pub enum CampaignError {
    /// The run was stopped at a wave boundary by its [`RunControl`]
    /// (cancelled, past deadline, or out of injection budget).
    Interrupted {
        /// Which limit stopped the run.
        reason: StopReason,
        /// The completed prefix — byte-identical, slot for slot, to an
        /// uninterrupted run. Boxed to keep the `Err` variant (and with
        /// it every `Result` on the campaign path) small.
        partial: Box<PartialReport>,
    },
    /// A worker panicked while executing a wave. Only the poisoned waves'
    /// slots failed; every other wave of the campaign completed.
    WorkerPanic {
        /// The work-list slots of the lowest poisoned wave (left `None` in
        /// the partial report, like those of any other poisoned wave).
        item_range: Range<usize>,
        /// The captured panic payload.
        message: String,
        /// Everything outside the poisoned wave.
        partial: Box<PartialReport>,
    },
    /// A lane-word width outside the packed engine's {1, 2, 4} set was
    /// requested.
    InvalidLaneWords {
        /// The rejected width.
        requested: usize,
    },
    /// A work list outgrew its packed `u32` slot representation.
    WorkListOverflow {
        /// The offending item/fault count (or scenario index).
        items: usize,
        /// The representable maximum.
        limit: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Interrupted { reason, partial } => write!(
                f,
                "campaign interrupted ({reason}): {} of {} injections completed",
                partial.completed,
                partial.total()
            ),
            CampaignError::WorkerPanic {
                item_range,
                message,
                partial,
            } => write!(
                f,
                "campaign worker panicked on items {}..{} ({} of {} other injections completed): {message}",
                item_range.start,
                item_range.end,
                partial.completed,
                partial.total()
            ),
            CampaignError::InvalidLaneWords { requested } => write!(
                f,
                "lane_words must be 1, 2 or 4 words (64/128/256 lanes), got {requested}"
            ),
            CampaignError::WorkListOverflow { items, limit } => write!(
                f,
                "work list overflow: {items} exceeds the packed u32 limit of {limit}; \
                 split the campaign into sub-campaigns"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// The message of a caught panic payload: the text a
/// [`CampaignError::WorkerPanic`] carries. The payload is taken by value:
/// a `&Box<dyn Any>` coerces to `&dyn Any` as the box itself, and no
/// downcast of the box finds the message inside it.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_control_admits_everything() {
        let c = RunControl::unlimited();
        for _ in 0..1000 {
            assert_eq!(c.admit(usize::MAX / 2), Ok(()));
        }
        assert!(!c.is_cancelled());
    }

    #[test]
    fn cancel_propagates_to_clones() {
        let c = RunControl::unlimited();
        let worker = c.clone();
        assert_eq!(worker.admit(64), Ok(()));
        c.cancel();
        assert!(worker.is_cancelled());
        assert_eq!(worker.admit(64), Err(StopReason::Cancelled));
        assert_eq!(c.admit(0), Err(StopReason::Cancelled));
    }

    #[test]
    fn zero_deadline_refuses_immediately() {
        let c = RunControl::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(c.admit(1), Err(StopReason::DeadlineExpired));
    }

    #[test]
    fn generous_deadline_admits() {
        let c = RunControl::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(c.admit(1), Ok(()));
    }

    #[test]
    fn budget_is_never_over_admitted() {
        let c = RunControl::unlimited().with_injection_budget(100);
        assert_eq!(c.admit(64), Ok(()));
        assert_eq!(
            c.admit(64),
            Err(StopReason::InjectionBudgetExhausted),
            "64 + 64 > 100 must be refused"
        );
        // A smaller wave still fits the remainder.
        assert_eq!(c.admit(36), Ok(()));
        assert_eq!(c.admit(1), Err(StopReason::InjectionBudgetExhausted));
    }

    #[test]
    fn concurrent_budget_admission_is_exact() {
        let c = RunControl::unlimited().with_injection_budget(1000);
        let admitted = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    while c.admit(7).is_ok() {
                        admitted.fetch_add(7, Ordering::Relaxed);
                    }
                });
            }
        });
        let total = admitted.into_inner();
        assert!(total <= 1000, "over-admitted: {total}");
        assert!(total > 1000 - 7 * 8, "under-admitted: {total}");
    }

    #[test]
    fn lane_width_admits_the_packed_set_only() {
        for w in [1usize, 2, 4] {
            let width = LaneWidth::new(w).expect("valid width");
            assert_eq!(width.words(), w);
            assert_eq!(width.lanes(), 64 * w);
        }
        for w in [0usize, 3, 5, 8, 64] {
            let err = LaneWidth::new(w).expect_err("invalid width");
            let msg = err.to_string();
            assert!(msg.contains("64/128/256"), "message names the set: {msg}");
            assert!(
                msg.contains(&w.to_string()),
                "message names the input: {msg}"
            );
        }
    }

    #[test]
    fn stop_reasons_and_errors_display() {
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
        assert_eq!(StopReason::DeadlineExpired.to_string(), "deadline expired");
        let overflow = CampaignError::WorkListOverflow {
            items: 5_000_000_000,
            limit: u32::MAX as usize,
        };
        assert!(overflow.to_string().contains("split the campaign"));
        let panic = CampaignError::WorkerPanic {
            item_range: 64..128,
            message: "scenario 3 has no cycles".into(),
            partial: Box::new(PartialReport {
                outcomes: vec![],
                completed: 0,
                report: CampaignReport::empty(),
            }),
        };
        let msg = panic.to_string();
        assert!(msg.contains("64..128"), "{msg}");
        assert!(msg.contains("has no cycles"), "{msg}");
    }

    #[test]
    fn panic_message_reads_the_caught_message() {
        let caught = |f: fn()| std::panic::catch_unwind(f).expect_err("the closure panics");
        assert_eq!(panic_message(caught(|| panic!("boom"))), "boom");
        assert_eq!(panic_message(caught(|| panic!("{}", 7))), "7");
        assert_eq!(
            panic_message(caught(|| std::panic::panic_any(7u8))),
            "non-string panic payload"
        );
    }
}
