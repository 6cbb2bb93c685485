//! Formal fault certification: per-site *proofs* of the detection
//! guarantee the simulation campaigns can only sample.
//!
//! For every fault site the engine builds the BDD of
//!
//! ```text
//! escape(s, x) = Reach(s) ∧ Assume(x) ∧ diverge(s, x) ∧ undetected(s, x) ∧ ¬alerted(s, x)
//! ```
//!
//! where `diverge` compares the faulty next-state functions against the
//! fault-free ones, `undetected` is the configuration's decode-level
//! escape condition (landing on a valid codeword for SCFI, agreeing
//! replica banks for redundancy, anything at all for the unprotected
//! lowering), `alerted` collects the configuration's detection output
//! ports, and `Assume` is the configuration's input-interface assumption
//! ([`CertifyModel::input_assumption`]). An empty `escape` BDD is a
//! *proof*: over **all** reachable states and **all** admissible input
//! words, no single injection of that fault silently hijacks the next
//! transition — the paper's §3/§5 guarantee, closed over the whole input
//! space instead of the campaign's per-edge schedules. A non-empty BDD
//! yields a concrete witness assignment, which is replayed through the
//! scalar [`Simulator`] to confirm the hijack outside the symbolic
//! engine.
//!
//! The verdict vocabulary mirrors the campaign outcome classes
//! ([`Outcome`](scfi_faultsim::Outcome)): `ProvenMasked` (the fault is
//! never observable), `ProvenDetected` (observable somewhere, caught
//! everywhere), `Counterexample` (an escaping assignment exists) — plus
//! `Unknown`, the graceful-degradation verdict of a budgeted certifier
//! ([`CertifyBudget`]) whose BDD budget ran out mid-site. An `Unknown`
//! site carries the overflow reason and is *never* counted as proven;
//! callers fall back to exhaustive campaign sampling for those sites.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use scfi_core::{HardenedFsm, RedundantFsm, StateDecode};
use scfi_fsm::LoweredFsm;
use scfi_netlist::{Module, Simulator};
use scfi_telemetry::Telemetry;

use scfi_faultsim::{Fault, FaultEffect, FaultSite, RunControl};

use crate::bdd::{Bdd, BddOverflow, BddRef};
use crate::eval::{SymStep, SymbolicEvaluator};
use crate::reach::{try_reachable_states, Reachability};

/// A protected (or deliberately unprotected) netlist the certifier can
/// reason about: the module plus the configuration-specific detection
/// semantics, in both symbolic and concrete form.
///
/// The two forms must agree — [`Certifier`] replays every symbolic
/// counterexample through the concrete side, and the test suites pin the
/// pair against each other on random words.
pub trait CertifyModel {
    /// The netlist under certification.
    fn module(&self) -> &Module;

    /// Symbolic decode-level escape condition: the BDD of "the faulty
    /// next-state word `next` would *not* be flagged by decoding" —
    /// landing on a valid operational codeword for SCFI, replica banks
    /// agreeing for redundancy, `TRUE` for the unprotected lowering
    /// (which has no decode-level detection at all).
    ///
    /// Fallible so a budgeted manager (see [`CertifyBudget`]) can surface
    /// [`BddOverflow`] mid-construction; on an unbudgeted manager the
    /// `try_*` BDD operations never fail.
    fn undetected_next(&self, b: &mut Bdd, next: &[BddRef]) -> Result<BddRef, BddOverflow>;

    /// The input-space assumption the certification quantifies under,
    /// over the module's input-port functions `inputs`.
    ///
    /// The paper's interface assumption (§5) is that the driving modules
    /// deliver the encoded control word with its full Hamming distance —
    /// a non-codeword `xe` is itself a fault event, not a legal input, so
    /// admitting it would certify a *two*-fault attacker against a
    /// single-fault claim. The protected configurations therefore
    /// restrict `xe` to valid condition codewords; the unprotected
    /// lowering takes raw control signals, where every word is legal
    /// (default: no restriction).
    fn input_assumption(&self, b: &mut Bdd, inputs: &[BddRef]) -> Result<BddRef, BddOverflow> {
        let _ = inputs;
        Ok(b.constant(true))
    }

    /// Concrete counterpart of [`CertifyModel::undetected_next`].
    fn undetected_next_concrete(&self, next: &[bool]) -> bool;

    /// Output-port indices whose assertion during the faulty cycle counts
    /// as detection (SCFI: `alert` and `in_error`; redundancy: the
    /// mismatch `alert`; unprotected: none).
    fn detection_ports(&self) -> Vec<usize>;

    /// Human-readable configuration tag for reports (e.g. `"SCFI"`).
    fn config_name(&self) -> &'static str;
}

/// Builds the disjunction of exact-word matches `⋁_w (next == w)`.
fn word_match_any(
    b: &mut Bdd,
    next: &[BddRef],
    words: &[Vec<bool>],
) -> Result<BddRef, BddOverflow> {
    let mut any = BddRef::FALSE;
    for word in words {
        debug_assert_eq!(word.len(), next.len(), "codeword width mismatch");
        let mut cube = BddRef::TRUE;
        for (&bit, &value) in next.iter().zip(word) {
            let lit = if value { bit } else { b.try_not(bit)? };
            cube = b.try_and(cube, lit)?;
        }
        any = b.try_or(any, cube)?;
    }
    Ok(any)
}

impl CertifyModel for HardenedFsm {
    fn module(&self) -> &Module {
        HardenedFsm::module(self)
    }

    fn undetected_next(&self, b: &mut Bdd, next: &[BddRef]) -> Result<BddRef, BddOverflow> {
        // Escaping means landing on some *operational* codeword; the
        // all-zero ERROR word and every non-codeword are caught by the
        // decode (`StateDecode::Error` / `Invalid`).
        let words: Vec<Vec<bool>> = (0..self.fsm().state_count())
            .map(|s| self.encode_state(scfi_fsm::StateId(s)).iter().collect())
            .collect();
        word_match_any(b, next, &words)
    }

    fn undetected_next_concrete(&self, next: &[bool]) -> bool {
        matches!(self.decode_registers(next), StateDecode::State(_))
    }

    fn input_assumption(&self, b: &mut Bdd, inputs: &[BddRef]) -> Result<BddRef, BddOverflow> {
        let words: Vec<Vec<bool>> = (0..self.cond_code().len())
            .map(|c| self.cond_code().word(c).iter().collect())
            .collect();
        word_match_any(b, inputs, &words)
    }

    fn detection_ports(&self) -> Vec<usize> {
        let n = HardenedFsm::module(self).outputs().len();
        vec![n - 2, n - 1] // `alert`, `in_error`
    }

    fn config_name(&self) -> &'static str {
        "scfi"
    }
}

impl CertifyModel for RedundantFsm {
    fn module(&self) -> &Module {
        RedundantFsm::module(self)
    }

    fn undetected_next(&self, b: &mut Bdd, next: &[BddRef]) -> Result<BddRef, BddOverflow> {
        // Escaping the redundancy scheme means every replica bank agrees
        // with bank 0 after the step — the mismatch detector (evaluated
        // on the post-step banks, exactly like the campaign classifier)
        // stays silent on any agreed word, in range or not.
        let sb = self.state_bits();
        let mut agree = BddRef::TRUE;
        for bank in next.chunks(sb).skip(1) {
            for (&a, &c) in next[..sb].iter().zip(bank) {
                let eq = b.try_xnor(a, c)?;
                agree = b.try_and(agree, eq)?;
            }
        }
        Ok(agree)
    }

    fn undetected_next_concrete(&self, next: &[bool]) -> bool {
        let sb = self.state_bits();
        next.chunks(sb).skip(1).all(|bank| bank == &next[..sb])
    }

    fn input_assumption(&self, b: &mut Bdd, inputs: &[BddRef]) -> Result<BddRef, BddOverflow> {
        // Same protected control interface as SCFI (§6.1): the driving
        // domain delivers valid HD-N condition codewords.
        let words: Vec<Vec<bool>> = (0..self.cond_code().len())
            .map(|c| self.cond_code().word(c).iter().collect())
            .collect();
        word_match_any(b, inputs, &words)
    }

    fn detection_ports(&self) -> Vec<usize> {
        vec![RedundantFsm::module(self).outputs().len() - 1] // `alert`
    }

    fn config_name(&self) -> &'static str {
        "redundancy"
    }
}

impl CertifyModel for LoweredFsm {
    fn module(&self) -> &Module {
        LoweredFsm::module(self)
    }

    fn undetected_next(&self, b: &mut Bdd, _next: &[BddRef]) -> Result<BddRef, BddOverflow> {
        Ok(b.constant(true)) // no detection mechanism exists
    }

    fn undetected_next_concrete(&self, _next: &[bool]) -> bool {
        true
    }

    fn detection_ports(&self) -> Vec<usize> {
        Vec::new()
    }

    fn config_name(&self) -> &'static str {
        "unprotected"
    }
}

/// A concrete escaping assignment extracted from a non-empty escape BDD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Register preload (fault-free; register flips are applied on top by
    /// the replay, exactly like the campaign executors).
    pub regs: Vec<bool>,
    /// Input-port assignment for the attacked cycle.
    pub inputs: Vec<bool>,
    /// `true` once the scalar-simulator replay confirmed the hijack.
    pub confirmed: bool,
}

/// The certified verdict for one fault site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Proof: on every reachable state and input assignment the fault
    /// changes neither the committed next state nor any detection line —
    /// it can never be observed, let alone exploited.
    ProvenMasked,
    /// Proof: the fault is observable somewhere, but every reachable
    /// assignment on which the faulty run diverges is caught (invalid /
    /// error landing or an asserted detection line). No silent hijack
    /// exists.
    ProvenDetected,
    /// Refutation: the witness assignment drives the faulty run into a
    /// valid-but-wrong next state with every detection line low.
    Counterexample(Witness),
    /// Degradation: the certifier's BDD budget ([`CertifyBudget`]) ran
    /// out before this site was decided. The site is *not* proven and
    /// *not* refuted — callers fall back to exhaustive campaign sampling
    /// for it. A budget overflow is never converted into a proof.
    Unknown {
        /// The [`BddOverflow`] description that stopped the site.
        reason: String,
    },
}

impl Verdict {
    /// `true` for either proof variant — and, deliberately, `false` for
    /// [`Verdict::Unknown`]: an undecided site never strengthens a
    /// guarantee claim.
    pub fn is_proven(&self) -> bool {
        matches!(self, Verdict::ProvenMasked | Verdict::ProvenDetected)
    }
}

/// One certified fault site.
#[derive(Clone, Debug)]
pub struct SiteReport {
    /// The certified fault.
    pub fault: Fault,
    /// Its verdict.
    pub verdict: Verdict,
}

/// The full certification result for one module and fault list.
#[derive(Clone, Debug)]
pub struct CertificationReport {
    /// Configuration tag of the certified model.
    pub config: &'static str,
    /// Module name.
    pub module: String,
    /// Per-site verdicts, in fault-list order.
    pub sites: Vec<SiteReport>,
    /// Exact number of reachable register states.
    pub reachable_states: u64,
    /// Register (state-vector) width.
    pub state_bits: usize,
    /// Input-port count — the proof quantifies over all `2^input_bits`
    /// words.
    pub input_bits: usize,
}

impl CertificationReport {
    /// Sites proven detected.
    pub fn proven_detected(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| matches!(s.verdict, Verdict::ProvenDetected))
            .count()
    }

    /// Sites proven masked (never observable).
    pub fn proven_masked(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| matches!(s.verdict, Verdict::ProvenMasked))
            .count()
    }

    /// Sites with a counterexample.
    pub fn counterexamples(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| matches!(s.verdict, Verdict::Counterexample(_)))
            .count()
    }

    /// Sites left undecided by a budget overflow
    /// ([`Verdict::Unknown`]).
    pub fn unknown(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| matches!(s.verdict, Verdict::Unknown { .. }))
            .count()
    }

    /// `true` when every site is proven (no counterexamples *and* no
    /// budget-degraded unknowns) — the paper's detection guarantee holds
    /// for the whole fault list.
    pub fn all_proven(&self) -> bool {
        self.sites.iter().all(|s| s.verdict.is_proven())
    }

    /// Iterates the counterexample sites.
    pub fn counterexample_sites(&self) -> impl Iterator<Item = (&Fault, &Witness)> {
        self.sites.iter().filter_map(|s| match &s.verdict {
            Verdict::Counterexample(w) => Some((&s.fault, w)),
            _ => None,
        })
    }

    /// Escaping sites grouped per cell: `(cell id, escapes, certified
    /// sites)` for every cell with at least one counterexample, ranked
    /// most escapes first (cell id breaks ties) — the same ordering
    /// convention as
    /// [`VulnerabilityMap::ranked_by_hijacks`](scfi_faultsim::VulnerabilityMap::ranked_by_hijacks),
    /// so the designer's hardening worklist reads the same whether it
    /// came from sampling or from proof.
    pub fn ranked_escaping_cells(&self) -> Vec<(u32, usize, usize)> {
        use std::cmp::Reverse;
        use std::collections::HashMap;
        let mut by_cell: HashMap<u32, (usize, usize)> = HashMap::new();
        for site in &self.sites {
            let cell = match site.fault.site {
                FaultSite::CellOutput(c) | FaultSite::Pin(c, _) | FaultSite::Register(c) => c.0,
            };
            let entry = by_cell.entry(cell).or_default();
            entry.1 += 1;
            if matches!(site.verdict, Verdict::Counterexample(_)) {
                entry.0 += 1;
            }
        }
        let mut ranked: Vec<(u32, usize, usize)> = by_cell
            .into_iter()
            .filter(|&(_, (escapes, _))| escapes > 0)
            .map(|(cell, (escapes, sites))| (cell, escapes, sites))
            .collect();
        ranked.sort_by_key(|&(cell, escapes, _)| (Reverse(escapes), cell));
        ranked
    }

    /// A [`Display`](fmt::Display) adapter rendering the escaping-site
    /// set as a ranked designer report (the `certify --all-gates` view):
    /// one row per escaping cell, worst first, 16-row excerpt with an
    /// explicit "… and K more" footer — the
    /// [`VulnerabilityMap`](scfi_faultsim::VulnerabilityMap) conventions.
    pub fn escape_ranking(&self) -> EscapeRanking<'_> {
        EscapeRanking(self)
    }
}

/// Ranked escaping-cell view of a [`CertificationReport`]; see
/// [`CertificationReport::escape_ranking`].
pub struct EscapeRanking<'r>(&'r CertificationReport);

impl fmt::Display for EscapeRanking<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ranked = self.0.ranked_escaping_cells();
        writeln!(
            f,
            "{} certified sites; {} escapes through {} cells",
            self.0.sites.len(),
            self.0.counterexamples(),
            ranked.len()
        )?;
        for &(cell, escapes, sites) in ranked.iter().take(16) {
            writeln!(f, "  c{cell:<6} {escapes:>4} escapes / {sites:>5} sites")?;
        }
        // The ranking is an excerpt; say so instead of silently dropping
        // the tail of the escaping-cell list.
        if ranked.len() > 16 {
            writeln!(f, "  … and {} more escaping cells", ranked.len() - 16)?;
        }
        Ok(())
    }
}

impl fmt::Display for CertificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "certified {} ({}): {} fault sites over {} reachable states x 2^{} input words",
            self.module,
            self.config,
            self.sites.len(),
            self.reachable_states,
            self.input_bits
        )?;
        write!(
            f,
            "  proven detected: {}, proven masked: {}, counterexamples: {}",
            self.proven_detected(),
            self.proven_masked(),
            self.counterexamples()
        )?;
        if self.unknown() > 0 {
            write!(f, ", unknown (budget exhausted): {}", self.unknown())?;
        }
        Ok(())
    }
}

/// Resource budget for a [`Certifier`]: caps on BDD nodes, per-site
/// operation steps, and wall-clock time. The default is unlimited —
/// identical to [`Certifier::new`]'s behavior.
///
/// The node budget is cumulative over the certifier's lifetime (BDD
/// nodes are hash-consed and never freed); the step limit is reset per
/// certified site, so it bounds the *hardest single site* rather than
/// the whole report; the timeout is an absolute deadline armed at
/// construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct CertifyBudget {
    max_nodes: Option<usize>,
    max_steps: Option<u64>,
    timeout: Option<Duration>,
}

impl CertifyBudget {
    /// No limits at all (the [`Default`]).
    pub fn unlimited() -> Self {
        CertifyBudget::default()
    }

    /// Caps the BDD manager at `n` nodes (cumulative).
    pub fn max_nodes(mut self, n: usize) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Caps each certified site at `n` BDD operation steps.
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// Arms a wall-clock deadline `d` from certifier construction.
    pub fn timeout(mut self, d: Duration) -> Self {
        self.timeout = Some(d);
        self
    }
}

/// The certification engine: owns the BDD manager, the symbolic
/// evaluator, the fault-free base step and the reachable-state set, and
/// certifies fault sites against them.
///
/// # Example
///
/// ```
/// use scfi_core::{harden, ScfiConfig};
/// use scfi_faultsim::{enumerate_faults, CampaignConfig};
/// use scfi_fsm::parse_fsm;
/// use scfi_symbolic::Certifier;
///
/// let fsm = parse_fsm("fsm m { inputs a; state P { if a -> Q; } state Q { goto P; } }")?;
/// let h = harden(&fsm, &ScfiConfig::new(3))?;
/// let faults = enumerate_faults(
///     h.module(),
///     &CampaignConfig::new().effects(vec![]).with_register_flips(),
/// );
/// let mut certifier = Certifier::new(&h);
/// let report = certifier.certify_all(&faults);
/// // The paper's guarantee, *proved*: no single register-bit flip can
/// // hijack control flow from any reachable state under any input word.
/// assert!(report.all_proven());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Certifier<'m, M: CertifyModel> {
    pub(crate) model: &'m M,
    pub(crate) evaluator: SymbolicEvaluator<'m>,
    pub(crate) bdd: Bdd,
    pub(crate) base: SymStep,
    pub(crate) reach: Reachability,
    /// The model's input-space assumption over the input variables.
    pub(crate) assumption: BddRef,
    pub(crate) detection_ports: Vec<usize>,
    /// Observability handle ([`Telemetry::off`] unless installed via
    /// [`with_instruments`](Self::with_instruments)); recording never
    /// changes any verdict or report byte.
    telemetry: Telemetry,
    /// `(hits, misses)` already flushed to the telemetry counters, so the
    /// cumulative [`Bdd`] totals can be exported as monotone deltas.
    flushed_ite: (u64, u64),
}

impl<'m, M: CertifyModel> Certifier<'m, M> {
    /// Builds the fault-free symbolic step, the input-space assumption
    /// and the reachability fixpoint for `model`'s module, with no
    /// resource limits.
    pub fn new(model: &'m M) -> Self {
        Certifier::with_budget(model, CertifyBudget::unlimited())
            .expect("an unbudgeted certifier cannot overflow")
    }

    /// [`new`](Self::new) under a [`CertifyBudget`]. The setup work (the
    /// fault-free symbolic step and the reachability fixpoint) is itself
    /// budgeted: if it overflows, no certifier exists and the error is
    /// returned — use [`degraded_report`](Self::degraded_report) to
    /// produce the all-[`Unknown`](Verdict::Unknown) report for that
    /// case. Per-site overflows after a successful setup degrade to
    /// per-site `Unknown` verdicts instead (see [`certify`](Self::certify)).
    pub fn with_budget(model: &'m M, budget: CertifyBudget) -> Result<Self, BddOverflow> {
        Certifier::with_instruments(model, budget, Telemetry::off(), None)
    }

    /// [`with_budget`](Self::with_budget) plus the two cross-cutting
    /// instruments the observability layer threads through every engine:
    /// a [`Telemetry`] handle (per-phase durations, per-site step and
    /// latency histograms, `ite`-cache hit/miss counters and the
    /// node-table high-water gauge — all no-ops on [`Telemetry::off`])
    /// and an optional [`RunControl`] whose cancel flag is polled inside
    /// the BDD step loop, so cancelling a running certification aborts
    /// within a few thousand operation steps instead of running the
    /// current site to completion. A cancelled setup returns
    /// [`BddOverflow::Cancelled`]; a cancelled site degrades to
    /// [`Verdict::Unknown`], never a fabricated proof. Neither instrument
    /// changes any verdict.
    pub fn with_instruments(
        model: &'m M,
        budget: CertifyBudget,
        telemetry: Telemetry,
        cancel: Option<RunControl>,
    ) -> Result<Self, BddOverflow> {
        let evaluator = SymbolicEvaluator::new(model.module());
        let mut bdd = Bdd::new();
        if let Some(n) = budget.max_nodes {
            bdd.set_node_budget(n);
        }
        if let Some(t) = budget.timeout {
            if let Some(deadline) = Instant::now().checked_add(t) {
                bdd.set_deadline(deadline);
            }
        }
        if let Some(control) = cancel {
            bdd.set_cancel_probe(Arc::new(move || control.is_cancelled()));
        }
        let setup_start = telemetry.enabled().then(Instant::now);
        let base = evaluator.try_eval(&mut bdd, &[])?;
        let input_vars = (0..model.module().inputs().len())
            .map(|i| bdd.try_var(evaluator.varmap().input(i)))
            .collect::<Result<Vec<BddRef>, _>>()?;
        let assumption = model.input_assumption(&mut bdd, &input_vars)?;
        let reach_start = telemetry.enabled().then(|| {
            let now = Instant::now();
            if let Some(start) = setup_start {
                let elapsed = now - start;
                telemetry
                    .histogram("scfi_certify_setup_ns")
                    .observe_duration(elapsed);
                telemetry.record_span("certify_setup", start, elapsed);
            }
            now
        });
        let reach = try_reachable_states(&mut bdd, &evaluator, &base, assumption)?;
        if let Some(start) = reach_start {
            let elapsed = start.elapsed();
            telemetry
                .histogram("scfi_certify_reach_ns")
                .observe_duration(elapsed);
            telemetry.record_span("certify_reach", start, elapsed);
        }
        // The step limit is a *per-site* allowance (reset before each
        // `certify` call), so it is armed only after the one-time setup:
        // setup is bounded by the node budget and the deadline instead.
        if let Some(s) = budget.max_steps {
            bdd.set_step_limit(s);
        }
        let detection_ports = model.detection_ports();
        let mut certifier = Certifier {
            model,
            evaluator,
            bdd,
            base,
            reach,
            assumption,
            detection_ports,
            telemetry,
            flushed_ite: (0, 0),
        };
        certifier.flush_bdd_stats();
        Ok(certifier)
    }

    /// Exports the BDD manager's cumulative cache statistics and node
    /// high-water mark as monotone telemetry series. No-op without a
    /// recording handle.
    fn flush_bdd_stats(&mut self) {
        if !self.telemetry.enabled() {
            return;
        }
        let (hits, misses) = (self.bdd.ite_cache_hits(), self.bdd.ite_cache_misses());
        self.telemetry
            .counter("scfi_bdd_ite_cache_hits_total")
            .add(hits - self.flushed_ite.0);
        self.telemetry
            .counter("scfi_bdd_ite_cache_misses_total")
            .add(misses - self.flushed_ite.1);
        self.flushed_ite = (hits, misses);
        self.telemetry
            .gauge("scfi_bdd_nodes_high_water")
            .record_max(self.bdd.node_count() as u64);
    }

    /// The all-[`Unknown`](Verdict::Unknown) report for a setup-phase
    /// budget overflow: every site undecided, with `overflow`'s
    /// description as the shared reason. Keeps the "over budget means
    /// Unknown, never a fabricated proof" contract even when the budget
    /// is too small to build the certifier at all.
    pub fn degraded_report(
        model: &M,
        faults: &[Fault],
        overflow: BddOverflow,
    ) -> CertificationReport {
        CertificationReport {
            config: model.config_name(),
            module: model.module().name().to_string(),
            sites: faults
                .iter()
                .map(|&fault| SiteReport {
                    fault,
                    verdict: Verdict::Unknown {
                        reason: overflow.to_string(),
                    },
                })
                .collect(),
            reachable_states: 0,
            state_bits: model.module().registers().len(),
            input_bits: model.module().inputs().len(),
        }
    }

    /// Exact count of reachable register states.
    pub fn reachable_state_count(&self) -> u64 {
        self.bdd
            .sat_count(self.reach.states, &self.evaluator.varmap().current_vars()) as u64
    }

    /// The reachability fixpoint (for diagnostics and tests).
    pub fn reachability(&self) -> Reachability {
        self.reach
    }

    /// Membership query: is the concrete register state `regs` in the
    /// reachable set?
    ///
    /// # Panics
    ///
    /// Panics on register-count mismatch.
    pub fn state_is_reachable(&self, regs: &[bool]) -> bool {
        let vm = self.evaluator.varmap();
        assert_eq!(
            regs.len(),
            self.model.module().registers().len(),
            "register count mismatch"
        );
        let mut assignment = vec![false; vm.var_count() as usize];
        for (i, &v) in regs.iter().enumerate() {
            assignment[vm.reg_current(i) as usize] = v;
        }
        self.bdd.eval(self.reach.states, &assignment)
    }

    /// The symbolic evaluator (for diagnostics and tests).
    pub fn evaluator(&self) -> &SymbolicEvaluator<'m> {
        &self.evaluator
    }

    /// Certifies one fault site.
    ///
    /// Under a [`CertifyBudget`], the per-site step counter is reset
    /// first, the deadline and cancel probe are polled before the site
    /// starts, and a budget overflow degrades to [`Verdict::Unknown`]
    /// carrying the overflow reason — the site is reported undecided,
    /// never proven. Unbudgeted certifiers cannot overflow.
    pub fn certify(&mut self, fault: Fault) -> Verdict {
        self.bdd.reset_steps();
        let site_start = self.telemetry.enabled().then(Instant::now);
        let verdict = match self.certify_inner(fault) {
            Ok(verdict) => verdict,
            Err(overflow) => Verdict::Unknown {
                reason: overflow.to_string(),
            },
        };
        if let Some(start) = site_start {
            let elapsed = start.elapsed();
            self.telemetry
                .histogram("scfi_certify_site_ns")
                .observe_duration(elapsed);
            self.telemetry
                .histogram("scfi_certify_steps_per_site")
                .observe(self.bdd.steps());
            self.telemetry.record_span("certify_site", start, elapsed);
            self.flush_bdd_stats();
        }
        verdict
    }

    fn certify_inner(&mut self, fault: Fault) -> Result<Verdict, BddOverflow> {
        self.bdd.poll()?;
        let faulty = self
            .evaluator
            .try_eval_fault_from(&mut self.bdd, &self.base, fault)?;
        // Disjunction of the detection lines in a step (BddRefs are Copy,
        // so collecting them first keeps the borrows disjoint).
        let or_ports =
            |b: &mut Bdd, step: &SymStep, ports: &[usize]| -> Result<BddRef, BddOverflow> {
                let mut any = BddRef::FALSE;
                for &p in ports {
                    any = b.try_or(any, step.outputs[p])?;
                }
                Ok(any)
            };
        // Cloned (two small indices) rather than moved out, so an early
        // `?` return cannot leave the field empty for the next site.
        let ports = self.detection_ports.clone();
        let b = &mut self.bdd;

        // diverge: the committed next state differs somewhere.
        let mut diverge = BddRef::FALSE;
        for (&free, &bad) in self.base.next_regs.iter().zip(&faulty.next_regs) {
            let d = b.try_xor(free, bad)?;
            diverge = b.try_or(diverge, d)?;
        }

        let undetected = self.model.undetected_next(b, &faulty.next_regs)?;
        let alerted = or_ports(b, &faulty, &ports)?;
        let quiet = b.try_not(alerted)?;
        let escape = {
            let e = b.try_and(diverge, undetected)?;
            let e = b.try_and(e, quiet)?;
            let e = b.try_and(e, self.assumption)?;
            b.try_and(e, self.reach.states)?
        };

        if escape != BddRef::FALSE {
            let assignment = b.sat_one(escape).expect("non-false BDD has a model");
            let (regs, inputs) = self.evaluator.varmap().decode_assignment(&assignment);
            let confirmed = self.replay(fault, &regs, &inputs);
            Ok(Verdict::Counterexample(Witness {
                regs,
                inputs,
                confirmed,
            }))
        } else {
            // No escape: distinguish "never observable" from "caught".
            // The observability test uses the campaign's observables —
            // the committed state and the detection lines, not the Moore
            // outputs (a Moore-only glitch is Masked in §6.4 terms too).
            let base_alert = or_ports(b, &self.base, &ports)?;
            let faulty_alert = or_ports(b, &faulty, &ports)?;
            let alert_diff = b.try_xor(base_alert, faulty_alert)?;
            let observable = b.try_or(diverge, alert_diff)?;
            let effect = b.try_and(observable, self.reach.states)?;
            let effect = b.try_and(effect, self.assumption)?;
            if effect == BddRef::FALSE {
                Ok(Verdict::ProvenMasked)
            } else {
                Ok(Verdict::ProvenDetected)
            }
        }
    }

    /// Certifies every fault in `faults` and assembles the report.
    pub fn certify_all(&mut self, faults: &[Fault]) -> CertificationReport {
        let sites = faults
            .iter()
            .map(|&fault| SiteReport {
                fault,
                verdict: self.certify(fault),
            })
            .collect();
        CertificationReport {
            config: self.model.config_name(),
            module: self.model.module().name().to_string(),
            sites,
            reachable_states: self.reachable_state_count(),
            state_bits: self.model.module().registers().len(),
            input_bits: self.model.module().inputs().len(),
        }
    }

    /// Replays a witness through the scalar simulator and checks the
    /// hijack concretely: the faulty run must land on an undetected word
    /// that differs from the fault-free run, with every detection line
    /// low.
    fn replay(&self, fault: Fault, regs: &[bool], inputs: &[bool]) -> bool {
        self.replay_group(&[fault], regs, inputs)
    }

    /// [`replay`](Self::replay) for a whole fault group injected at once —
    /// the joint certification's witness confirmation.
    pub(crate) fn replay_group(&self, faults: &[Fault], regs: &[bool], inputs: &[bool]) -> bool {
        let module = self.model.module();
        let mut sim = Simulator::new(module);

        sim.reset_to(regs);
        let free_out = sim.step(inputs);
        let free_next = sim.register_values().to_vec();
        debug_assert_eq!(free_out.len(), module.outputs().len());

        sim.clear_faults();
        sim.reset_to(regs);
        // Witness replay arms through the campaign layer's own `arm`, so
        // the two oracles can never drift on injection semantics.
        for &fault in faults {
            scfi_faultsim::arm(&mut sim, fault);
        }
        let bad_out = sim.step(inputs);
        let bad_next = sim.register_values().to_vec();

        let diverged = bad_next != free_next;
        let undetected = self.model.undetected_next_concrete(&bad_next);
        let alerted = self.detection_ports.iter().any(|&p| bad_out[p]);
        diverged && undetected && !alerted
    }
}

/// One-line human description of a fault site (for per-site CLI output).
pub fn describe_fault(module: &Module, fault: Fault) -> String {
    let effect = match fault.effect {
        FaultEffect::Flip => "flip",
        FaultEffect::Stuck0 => "stuck-at-0",
        FaultEffect::Stuck1 => "stuck-at-1",
    };
    match fault.site {
        FaultSite::CellOutput(c) => {
            format!(
                "{effect} on output of c{} ({})",
                c.0,
                module.cell(c).kind.mnemonic()
            )
        }
        FaultSite::Pin(c, p) => format!(
            "{effect} on pin {p} of c{} ({})",
            c.0,
            module.cell(c).kind.mnemonic()
        ),
        FaultSite::Register(c) => {
            let pos = module.register_position(c).unwrap_or(usize::MAX);
            format!("stored-bit flip on register {pos} (c{})", c.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfi_core::{harden, redundancy, ScfiConfig};
    use scfi_faultsim::{enumerate_faults, CampaignConfig};
    use scfi_fsm::{lower_unprotected, parse_fsm, Fsm};

    fn fsm() -> Fsm {
        parse_fsm(
            "fsm m { inputs a, b;
               state S0 { if a -> S1; if b -> S2; }
               state S1 { if b -> S2; }
               state S2 { goto S0; } }",
        )
        .unwrap()
    }

    fn register_fault_config(module: &Module) -> CampaignConfig {
        CampaignConfig::new().register_region(module)
    }

    #[test]
    fn scfi_register_faults_are_proven_detected() {
        for n in [2, 3] {
            let h = harden(&fsm(), &ScfiConfig::new(n)).unwrap();
            let faults = enumerate_faults(h.module(), &register_fault_config(h.module()));
            assert!(!faults.is_empty());
            let mut certifier = Certifier::new(&h);
            let report = certifier.certify_all(&faults);
            assert!(report.all_proven(), "N={n}: {report}");
            assert_eq!(report.counterexamples(), 0);
            // A register fault is always observable somewhere reachable.
            assert_eq!(report.proven_detected(), faults.len(), "N={n}: {report}");
            // Reachable states: the three operational codewords + ERROR.
            assert_eq!(report.reachable_states, 4, "N={n}");
        }
    }

    #[test]
    fn redundancy_register_faults_are_proven_detected() {
        let r = redundancy(&fsm(), 2).unwrap();
        let faults = enumerate_faults(r.module(), &register_fault_config(r.module()));
        let mut certifier = Certifier::new(&r);
        let report = certifier.certify_all(&faults);
        assert!(report.all_proven(), "{report}");
    }

    #[test]
    fn unprotected_register_faults_yield_confirmed_counterexamples() {
        let f = fsm();
        let lowered = lower_unprotected(&f).unwrap();
        let faults = enumerate_faults(lowered.module(), &register_fault_config(lowered.module()));
        let mut certifier = Certifier::new(&lowered);
        let report = certifier.certify_all(&faults);
        assert!(
            report.counterexamples() > 0,
            "an unprotected FSM must be refutable: {report}"
        );
        for (fault, witness) in report.counterexample_sites() {
            assert!(
                witness.confirmed,
                "witness for {fault:?} did not replay to a concrete hijack"
            );
        }
    }

    #[test]
    fn scfi_reachable_set_is_codewords_plus_error() {
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let certifier = Certifier::new(&h);
        // Three operational codewords plus the all-zero ERROR word.
        assert_eq!(certifier.reachable_state_count(), 4);
        assert!(certifier.reachability().iterations >= 2);
        assert_eq!(certifier.evaluator().module().name(), h.module().name());
    }

    #[test]
    fn masked_verdicts_exist_for_redundant_logic() {
        // A fault on a net whose value never reaches registers or
        // detection ports must certify as ProvenMasked. Build a module
        // with a dangling-but-driven Moore-style output cone.
        use scfi_netlist::ModuleBuilder;
        let mut mb = ModuleBuilder::new("deadend");
        let a = mb.input("a");
        let q = mb.dff_uninit(false);
        let toggle = mb.xor2(q, a); // next state depends on the register
        mb.set_dff_input(q, toggle);
        let moore = mb.and2(q, a); // feeds only an output port
        mb.output("q", q);
        mb.output("moore", moore);
        let m = mb.finish().unwrap();
        // Certify under the unprotected semantics (no detection ports):
        // faults on the Moore cone never touch the committed state.
        struct Raw<'a>(&'a Module);
        impl CertifyModel for Raw<'_> {
            fn module(&self) -> &Module {
                self.0
            }
            fn undetected_next(
                &self,
                b: &mut Bdd,
                _next: &[BddRef],
            ) -> Result<BddRef, BddOverflow> {
                Ok(b.constant(true))
            }
            fn undetected_next_concrete(&self, _next: &[bool]) -> bool {
                true
            }
            fn detection_ports(&self) -> Vec<usize> {
                Vec::new()
            }
            fn config_name(&self) -> &'static str {
                "raw"
            }
        }
        let model = Raw(&m);
        let mut certifier = Certifier::new(&model);
        let moore_fault = Fault {
            site: FaultSite::CellOutput(moore.cell()),
            effect: FaultEffect::Flip,
        };
        assert_eq!(certifier.certify(moore_fault), Verdict::ProvenMasked);
        // Whereas a register-bit flip diverges (and, with no detection
        // mechanism, is a counterexample).
        let reg_fault = Fault {
            site: FaultSite::Register(q.cell()),
            effect: FaultEffect::Flip,
        };
        match certifier.certify(reg_fault) {
            Verdict::Counterexample(w) => assert!(w.confirmed),
            other => panic!("register flip must escape the raw model, got {other:?}"),
        }
    }

    #[test]
    fn report_display_and_counters() {
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let faults = enumerate_faults(h.module(), &register_fault_config(h.module()));
        let mut certifier = Certifier::new(&h);
        let report = certifier.certify_all(&faults);
        let text = report.to_string();
        assert!(text.contains("certified"), "{text}");
        assert!(text.contains("reachable states"), "{text}");
        assert!(text.contains("counterexamples: 0"), "{text}");
        assert_eq!(
            report.sites.len(),
            report.proven_detected() + report.proven_masked() + report.counterexamples()
        );
    }

    #[test]
    fn generous_budget_matches_the_unbudgeted_report() {
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let faults = enumerate_faults(h.module(), &register_fault_config(h.module()));
        let unbudgeted = Certifier::new(&h).certify_all(&faults);
        let budget = CertifyBudget::unlimited()
            .max_nodes(usize::MAX)
            .max_steps(u64::MAX)
            .timeout(std::time::Duration::from_secs(3600));
        let mut budgeted =
            Certifier::with_budget(&h, budget).expect("generous budget must suffice");
        let report = budgeted.certify_all(&faults);
        assert_eq!(report.unknown(), 0, "{report}");
        for (a, c) in unbudgeted.sites.iter().zip(&report.sites) {
            assert_eq!(a.verdict, c.verdict, "fault {:?}", a.fault);
        }
    }

    #[test]
    fn tiny_node_budget_degrades_to_unknown_not_a_proof() {
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let faults = enumerate_faults(h.module(), &register_fault_config(h.module()));
        // Far too small to even build the base step: setup overflows.
        let err = match Certifier::with_budget(&h, CertifyBudget::unlimited().max_nodes(8)) {
            Err(e) => e,
            Ok(_) => panic!("8 nodes cannot hold a hardened FSM's base step"),
        };
        assert_eq!(err, BddOverflow::Nodes { limit: 8 });
        let report = Certifier::degraded_report(&h, &faults, err);
        assert_eq!(report.unknown(), report.sites.len());
        assert_eq!(report.counterexamples(), 0);
        assert!(!report.all_proven(), "unknown sites are never proven");
        let text = report.to_string();
        assert!(text.contains("unknown (budget exhausted)"), "{text}");
        for site in &report.sites {
            match &site.verdict {
                Verdict::Unknown { reason } => {
                    assert!(reason.contains("node budget"), "{reason}");
                    assert!(!site.verdict.is_proven());
                }
                other => panic!("expected Unknown, got {other:?}"),
            }
        }
    }

    #[test]
    fn per_site_step_limit_yields_unknown_sites_after_good_setup() {
        let h = harden(&fsm(), &ScfiConfig::new(3)).unwrap();
        let faults = enumerate_faults(h.module(), &register_fault_config(h.module()));
        // Setup fits (no node cap), but each site gets a step allowance
        // too small for the escape-BDD construction.
        let mut certifier = Certifier::with_budget(&h, CertifyBudget::unlimited().max_steps(1))
            .expect("the step limit is reset per site, setup runs before it bites");
        let report = certifier.certify_all(&faults);
        assert_eq!(report.unknown(), report.sites.len(), "{report}");
        assert!(!report.all_proven());
    }

    #[test]
    fn a_raised_cancel_probe_stops_every_site_at_its_first_poll() {
        let h = harden(&fsm(), &ScfiConfig::new(3)).unwrap();
        let faults = enumerate_faults(h.module(), &register_fault_config(h.module()));
        let control = RunControl::unlimited();
        let telemetry = Telemetry::recording();
        let mut certifier = Certifier::with_instruments(
            &h,
            CertifyBudget::unlimited(),
            telemetry.clone(),
            Some(control.clone()),
        )
        .expect("setup runs before the cancel");
        control.cancel();
        // Every site is far shorter than the step cadence, so only the
        // poll before each site can see the probe.
        let report = certifier.certify_all(&faults);
        let cancelled = Verdict::Unknown {
            reason: BddOverflow::Cancelled.to_string(),
        };
        assert!(
            report.sites.iter().all(|s| s.verdict == cancelled),
            "{report}"
        );
        let steps = telemetry
            .histogram("scfi_certify_steps_per_site")
            .snapshot();
        assert_eq!(
            (steps.count, steps.sum),
            (faults.len() as u64, 0),
            "each site stops before its first step"
        );
    }

    #[test]
    fn describe_fault_names_sites() {
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let m = h.module();
        let r = m.registers()[0];
        let text = describe_fault(
            m,
            Fault {
                site: FaultSite::Register(r),
                effect: FaultEffect::Flip,
            },
        );
        assert!(text.contains("register 0"), "{text}");
        let text = describe_fault(
            m,
            Fault {
                site: FaultSite::Pin(m.topo_order()[0], 1),
                effect: FaultEffect::Stuck1,
            },
        );
        assert!(text.contains("pin 1"), "{text}");
        assert!(text.contains("stuck-at-1"), "{text}");
    }
}
