//! Pre-silicon fault-injection analysis — the reproduction's SYNFI
//! equivalent (paper §6.4, reference 14).
//!
//! SYNFI exhaustively transforms a netlist under a fault model and checks
//! whether the faulty circuit can still be distinguished from the fault-free
//! one. This crate implements the same campaign semantics by cycle-accurate
//! co-simulation:
//!
//! 1. Pick a *scenario* — an N-cycle [`Scenario`]: a register preload, a
//!    per-cycle input schedule, and a [`FaultTiming`] window. The paper's
//!    §6.4 experiment is the N = 1 case (the FSM sits in one CFG edge's
//!    source state and receives the edge's condition codeword); protocol
//!    campaigns walk multi-step transition sequences
//!    ([`protocol_scenarios`], `with_protocol` on the targets) with the
//!    fault glitching one chosen step.
//! 2. Pick a *fault* — an [`FaultEffect`] at a [`FaultSite`] (a gate output,
//!    an individual cell input pin, or a stored register bit), matching the
//!    paper's fault model of transient bit-flips and stuck-at effects on
//!    wires, combinational and sequential elements (§3).
//! 3. Run the scheduled cycles with the fault armed during its window and
//!    classify every cycle of the trajectory against the fault-free
//!    expectation, folding with [`Outcome::fold`]:
//!    [`Outcome::Masked`] (the whole walk stayed correct),
//!    [`Outcome::Detected`] (terminal-error/invalid state or an alert at
//!    any cycle — a hijacked state that collapses to ERROR later in the
//!    walk counts as detected), or [`Outcome::Hijack`] — the FSM silently
//!    reached a *valid but wrong* state and was never caught, the event
//!    the paper counts as a successful attack (32 / 7644 = 0.42 % in
//!    §6.4).
//!
//! A campaign has one entry point per shape, each run under a
//! [`RunControl`] and in parallel across threads by default: the
//! exhaustive campaign over every (scenario × site × effect) triple is
//! [`VulnerabilityMap::try_analyze`] (its [`summary`](VulnerabilityMap::summary)
//! gives the totals), and the seeded random multi-fault sample is
//! [`try_run_multi_fault`].
//!
//! # Campaign backends
//!
//! Execution is pluggable behind the [`CampaignBackend`] trait: a backend
//! runs a [`WorkList`] of `(scenario, faults)` items and returns one
//! slot-ordered [`Outcome`] per item. Two implementations ship, selected
//! by [`CampaignConfig::backend`]:
//!
//! * [`Backend::Scalar`] — one [`Simulator`](scfi_netlist::Simulator),
//!   one injection at a time; the auditable semantic reference.
//! * [`Backend::Packed`] (default) — the bit-parallel
//!   [`PackedSimulator`](scfi_netlist::PackedSimulator) wave engine:
//!   64–256 `(scenario, fault)` lanes per netlist pass
//!   ([`CampaignConfig::lane_words`]), faults as precompiled AND/OR/XOR
//!   masks armed each cycle from a per-wave schedule, and word-parallel
//!   trajectory classification ([`WaveOracle`]).
//!
//! Backends are pure throughput trade-offs: every backend produces the
//! same slot-ordered outcome vector, deterministic and independent of
//! thread count, wave boundaries and lane order — the workspace
//! conformance suite pins the packed engine against the scalar reference
//! slot for slot on every Table-1 FSM at every width and thread count.
//!
//! # Execution control
//!
//! Long campaigns are interruptible: [`VulnerabilityMap::try_analyze`]
//! and [`try_run_multi_fault`] thread a [`RunControl`] handle
//! (cancellation token, wall-clock deadline, injection budget) through
//! the backend, checked once per wave. An
//! interrupted run returns [`CampaignError::Interrupted`] carrying a
//! [`PartialReport`] whose completed slots are byte-identical to the same
//! slots of an uninterrupted run, at any thread count on any backend; a
//! worker panic poisons only its own wave's item range
//! ([`CampaignError::WorkerPanic`], whose message is the
//! [`panic_message`] of the caught payload) while every other wave
//! completes.
//!
//! # Example
//!
//! ```
//! use scfi_core::{harden, ScfiConfig};
//! use scfi_faultsim::{CampaignConfig, FaultEffect, ScfiTarget, VulnerabilityMap};
//! use scfi_fsm::parse_fsm;
//!
//! let fsm = parse_fsm("fsm m { inputs a; state P { if a -> Q; } state Q { goto P; } }")?;
//! let hardened = harden(&fsm, &ScfiConfig::new(2))?;
//! let report = VulnerabilityMap::analyze(
//!     &ScfiTarget::new(&hardened),
//!     &CampaignConfig::new().effects(vec![FaultEffect::Flip]),
//! )
//! .summary();
//! assert!(report.injections > 0);
//! assert_eq!(report.injections, report.masked + report.detected + report.hijacked);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

mod backend;
mod campaign;
mod control;
mod oracle;
mod table;
mod target;
mod vulnerability;
mod wave;

pub use backend::{Backend, CampaignBackend, PackedBackend, ScalarBackend};
pub use campaign::{
    arm, enumerate_faults, try_run_multi_fault, CampaignConfig, CampaignReport, Fault, FaultEffect,
    FaultRecord, FaultSite, Outcome,
};
pub use control::{panic_message, CampaignError, LaneWidth, PartialReport, RunControl, StopReason};
pub use oracle::{AlertModel, WaveOracle};
pub use target::{
    adversarial_walks, fuzzed_protocol_scenarios, protocol_scenarios, FaultTarget, FaultTiming,
    ProtocolScenario, RedundancyTarget, Scenario, ScfiTarget, UnprotectedTarget,
};
pub use vulnerability::{SiteStats, VulnerabilityMap};
pub use wave::WorkList;

use scfi_core::HardenedFsm;

/// The paper's analytic success probability for an attacker injecting `N`
/// faults into the next-state-function inputs (§6.3):
///
/// ```text
/// P = (|S_Ne| + |E|) / (k · 2^(32 − (|S_Ne| + |E|)))
/// ```
///
/// The formula is reproduced verbatim from the paper; it upper-bounds the
/// chance that a random corruption of one MDS instance's output lands on a
/// valid (state, all-ones-error) pattern.
pub fn paper_success_probability(h: &HardenedFsm) -> f64 {
    let s_ne = h.state_code().width() as f64;
    let e = h.layout().total_error_bits() as f64;
    let k = h.layout().k() as f64;
    (s_ne + e) / (k * 2f64.powf(32.0 - (s_ne + e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfi_core::{harden, ScfiConfig};
    use scfi_fsm::parse_fsm;

    #[test]
    fn success_probability_is_tiny() {
        let fsm =
            parse_fsm("fsm m { inputs a; state P { if a -> Q; } state Q { goto P; } }").unwrap();
        let h = harden(&fsm, &ScfiConfig::new(2)).unwrap();
        let p = paper_success_probability(&h);
        assert!(p > 0.0);
        assert!(p < 1e-4, "P = {p} should be very small");
    }
}
