//! The temporal attacker, certified: k-step symbolic unrolling and joint
//! multi-fault proofs.
//!
//! The per-site certification in [`certify`](crate::Certifier::certify)
//! covers one fault in one transition. The paper's §3 threat model is
//! stronger on both axes: the attacker places **up to N − 1 faults**,
//! each with **free timing** along a multi-cycle protocol run. This
//! module closes both gaps on the proof side, mirroring what the
//! campaign layer's per-fault windows
//! ([`WorkList::push_scheduled`](scfi_faultsim::WorkList::push_scheduled))
//! sample:
//!
//! * [`Certifier::certify_kstep`] unrolls the transition function `k`
//!   cycles forward from the reachable-state fixpoint, with fresh
//!   symbolic input variables per cycle and the fault transient in
//!   cycle `j` — proving (or refuting) "no start state and no k-cycle
//!   admissible input schedule lets this fault, glitched at step `j`,
//!   silently hijack the walk". The unrolling is bounded forward
//!   substitution: each step's next-state functions feed straight back
//!   in as the next step's register sources
//!   ([`SymbolicEvaluator::try_eval_guarded`](crate::SymbolicEvaluator::try_eval_guarded)),
//!   no renaming pass required.
//! * [`Certifier::certify_joint`] attaches one BDD *selector variable*
//!   per candidate fault site and constrains the selector weight to at
//!   most N − 1 ([`at_most`]). A single escape BDD then quantifies over
//!   every admissible fault *subset* simultaneously — an empty BDD is
//!   the paper's joint claim, **proved**: no combination of up to N − 1
//!   faults from the whole site list silently hijacks any reachable
//!   transition. A non-empty BDD yields a fewest-care witness
//!   ([`Bdd::sat_one_minimal`](crate::Bdd::sat_one_minimal)) naming the
//!   minimal active fault set, which is replayed through the scalar
//!   simulator for confirmation.
//!
//! Both entry points inherit the certifier's budget discipline: a
//! [`BddOverflow`](crate::BddOverflow) mid-proof degrades to
//! [`JointVerdict::Unknown`] / [`KStepVerdict::Unknown`] — never to a
//! fabricated proof.

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use scfi_faultsim::Fault;
use scfi_netlist::Simulator;

use crate::bdd::{Bdd, BddOverflow, BddRef};
use crate::certify::{or_ports, Certifier, CertifyModel};

/// A concrete escaping assignment of the joint certification: the active
/// fault subset plus the register/input assignment it escapes on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JointWitness {
    /// The faults the escape actually needs switched on (a fewest-care
    /// witness keeps every other selector off) — at most the certified
    /// `max_active`.
    pub active: Vec<Fault>,
    /// Register preload (fault-free; register flips are applied on top by
    /// the replay, exactly like the campaign executors).
    pub regs: Vec<bool>,
    /// Input-port assignment for the attacked cycle.
    pub inputs: Vec<bool>,
    /// `true` once the scalar-simulator replay confirmed the hijack.
    pub confirmed: bool,
}

/// The verdict of one joint multi-fault certification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JointVerdict {
    /// Proof: no admissible combination of at most `max_active` faults
    /// from the candidate list silently hijacks any reachable transition.
    Proved,
    /// Refutation: the witness names a concrete fault subset and
    /// assignment that escapes.
    Counterexample(JointWitness),
    /// Degradation: the BDD budget ran out before the joint claim was
    /// decided. Never counted as proven.
    Unknown {
        /// The [`BddOverflow`](crate::BddOverflow) description that
        /// stopped the proof.
        reason: String,
    },
}

impl JointVerdict {
    /// `true` only for [`JointVerdict::Proved`] — an undecided claim
    /// never strengthens a guarantee.
    pub fn is_proven(&self) -> bool {
        matches!(self, JointVerdict::Proved)
    }
}

/// The result of one joint multi-fault certification.
#[derive(Clone, Debug)]
pub struct JointReport {
    /// Configuration tag of the certified model.
    pub config: &'static str,
    /// Module name.
    pub module: String,
    /// Candidate fault sites the selector variables range over.
    pub sites: usize,
    /// The cardinality bound: at most this many faults active at once
    /// (the paper's N − 1).
    pub max_active: usize,
    /// Exact number of reachable register states the claim quantifies
    /// over.
    pub reachable_states: u64,
    /// The joint verdict.
    pub verdict: JointVerdict,
}

impl fmt::Display for JointReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "joint certification of {} ({}): {} candidate sites, at most {} simultaneous faults, {} reachable states",
            self.module, self.config, self.sites, self.max_active, self.reachable_states
        )?;
        match &self.verdict {
            JointVerdict::Proved => write!(
                f,
                "  PROVED: no combination of up to {} faults silently hijacks any reachable transition",
                self.max_active
            ),
            JointVerdict::Counterexample(w) => {
                write!(
                    f,
                    "  REFUTED: {} active fault(s) escape{}",
                    w.active.len(),
                    if w.confirmed {
                        " (replay-confirmed)"
                    } else {
                        " (replay DID NOT confirm)"
                    }
                )
            }
            JointVerdict::Unknown { reason } => write!(f, "  UNKNOWN: {reason}"),
        }
    }
}

/// A concrete escaping trajectory of a k-step certification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KStepWitness {
    /// Register preload the walk starts from (a reachable state).
    pub regs: Vec<bool>,
    /// The admissible input word driven in each of the k cycles.
    pub inputs: Vec<Vec<bool>>,
    /// `true` once the scalar-simulator replay confirmed the hijack.
    pub confirmed: bool,
}

/// The verdict of one k-step certification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KStepVerdict {
    /// Proof: no reachable start state and no admissible k-cycle input
    /// schedule lets the fault, transient at its scheduled step, silently
    /// hijack the walk.
    Proved,
    /// Refutation: the witness trajectory escapes.
    Counterexample(KStepWitness),
    /// Degradation: the BDD budget ran out mid-unrolling. Never counted
    /// as proven.
    Unknown {
        /// The [`BddOverflow`](crate::BddOverflow) description that
        /// stopped the proof.
        reason: String,
    },
}

impl KStepVerdict {
    /// `true` only for [`KStepVerdict::Proved`].
    pub fn is_proven(&self) -> bool {
        matches!(self, KStepVerdict::Proved)
    }
}

/// The BDD of "at most `k` of `vars` are true", built by the standard
/// bottom-up threshold recurrence: processing variables from the deepest
/// up, `a[c]` tracks "at most `c` of the processed variables are true"
/// and each variable `v` updates it to `ite(v, a[c-1], a[c])`. A bound
/// of `k ≥ vars.len()` holds everywhere, so `k` is clamped to the
/// variable count first: the function is the same, and the threshold
/// vector never outgrows the variables.
pub(crate) fn at_most(b: &mut Bdd, vars: &[u32], k: usize) -> Result<BddRef, BddOverflow> {
    let k = k.min(vars.len());
    let mut a = vec![BddRef::TRUE; k + 1];
    for &v in vars.iter().rev() {
        let lit = b.try_var(v)?;
        let mut next = Vec::with_capacity(k + 1);
        for c in 0..=k {
            let if_set = if c == 0 { BddRef::FALSE } else { a[c - 1] };
            next.push(b.try_ite(lit, if_set, a[c])?);
        }
        a = next;
    }
    Ok(a[k])
}

impl<M: CertifyModel> Certifier<'_, M> {
    /// Certifies the **joint** §3 claim over `faults`: is there *any*
    /// subset of at most `max_active` candidate faults, any reachable
    /// state and any admissible input word on which the combined
    /// injection silently hijacks the next transition?
    ///
    /// One selector variable per site (allocated above the
    /// [`VarMap`](crate::VarMap)'s universe) guards its fault in a single
    /// selector-aware symbolic step, and a cardinality-≤`max_active`
    /// constraint over the selectors restricts the subset space, so one
    /// emptiness test covers every admissible combination — for the
    /// paper's protection level N, pass `max_active = N − 1`.
    ///
    /// Under a [`CertifyBudget`](crate::CertifyBudget) the per-site step
    /// counter is reset first and an overflow degrades to
    /// [`JointVerdict::Unknown`]; the claim is then *undecided*, never
    /// proven.
    ///
    /// With a recording telemetry handle the proof observes
    /// `scfi_certify_joint_ns`, records a `certify_joint` span and
    /// flushes the BDD counters; it is not a site, so
    /// `scfi_certify_steps_per_site` is left alone.
    pub fn certify_joint(&mut self, faults: &[Fault], max_active: usize) -> JointReport {
        self.bdd.reset_steps();
        let start = self.telemetry.enabled().then(Instant::now);
        let verdict = match self.certify_joint_inner(faults, max_active) {
            Ok(v) => v,
            Err(overflow) => JointVerdict::Unknown {
                reason: overflow.to_string(),
            },
        };
        if let Some(start) = start {
            self.record_unit(start, "scfi_certify_joint_ns", "certify_joint");
        }
        JointReport {
            config: self.model.config_name(),
            module: self.model.module().name().to_string(),
            sites: faults.len(),
            max_active,
            reachable_states: self.reachable_state_count(),
            verdict,
        }
    }

    fn certify_joint_inner(
        &mut self,
        faults: &[Fault],
        max_active: usize,
    ) -> Result<JointVerdict, BddOverflow> {
        self.bdd.poll()?;
        let vm = self.evaluator.varmap();
        let sel_base = vm.var_count();
        let n_regs = self.model.module().registers().len();
        let n_inputs = self.model.module().inputs().len();
        let reg_vars: Vec<u32> = (0..n_regs).map(|i| vm.reg_current(i)).collect();
        let input_vars: Vec<u32> = (0..n_inputs).map(|i| vm.input(i)).collect();

        let b = &mut self.bdd;
        let regs = reg_vars
            .iter()
            .map(|&v| b.try_var(v))
            .collect::<Result<Vec<_>, _>>()?;
        let inputs = input_vars
            .iter()
            .map(|&v| b.try_var(v))
            .collect::<Result<Vec<_>, _>>()?;
        let sel_vars: Vec<u32> = (0..faults.len()).map(|i| sel_base + i as u32).collect();
        let guarded = faults
            .iter()
            .zip(&sel_vars)
            .map(|(&fault, &v)| Ok((fault, b.try_var(v)?)))
            .collect::<Result<Vec<_>, BddOverflow>>()?;
        // The cardinality constraint and the certifier's care set (the
        // reachable states under admissible words) together are the care
        // set of the whole proof: built first, they keep every guarded
        // net inside the admissible subsets instead of over all 2^sites
        // of them, and inside the states and words the escape keeps.
        let cardinality = at_most(b, &sel_vars, max_active)?;
        let care = b.try_and(cardinality, self.care)?;

        let faulty =
            self.evaluator
                .try_eval_guarded(&mut self.bdd, &regs, &inputs, &guarded, care)?;

        let b = &mut self.bdd;
        let mut diverge = BddRef::FALSE;
        for (&free, &bad) in self.base.next_regs.iter().zip(&faulty.next_regs) {
            let d = b.try_xor(free, bad)?;
            diverge = b.try_or(diverge, d)?;
        }
        let undetected = self.model.undetected_next(b, &faulty.next_regs)?;
        let alerted = or_ports(b, &faulty, &self.detection_ports)?;
        let quiet = b.try_not(alerted)?;
        let escape = {
            let e = b.try_and(diverge, undetected)?;
            let e = b.try_and(e, quiet)?;
            let e = b.try_and(e, self.assumption)?;
            let e = b.try_and(e, self.reach.states)?;
            b.try_and(e, cardinality)?
        };

        if escape == BddRef::FALSE {
            return Ok(JointVerdict::Proved);
        }
        // A fewest-care witness: don't-care selectors decode to `false`,
        // so `active` is a minimal escaping subset along the chosen path.
        let assignment = b
            .sat_one_minimal(escape)
            .expect("non-false BDD has a model");
        let (regs_w, inputs_w) = self.evaluator.varmap().decode_assignment(&assignment);
        let active: Vec<Fault> = assignment
            .iter()
            .filter(|&&(v, value)| value && v >= sel_base)
            .map(|&(v, _)| faults[(v - sel_base) as usize])
            .collect();
        debug_assert!(
            !active.is_empty() && active.len() <= max_active,
            "an escape needs between 1 and max_active active faults"
        );
        let confirmed = self.replay_group(&active, &regs_w, &inputs_w);
        Ok(JointVerdict::Counterexample(JointWitness {
            active,
            regs: regs_w,
            inputs: inputs_w,
            confirmed,
        }))
    }

    /// Certifies `fault` as a **transient** glitch at step `j` of a
    /// `k`-cycle symbolic walk: starting from *any* reachable state and
    /// driving *any* admissible input word in each of the k cycles, can
    /// the fault — armed only during cycle `j` — leave the run on a
    /// valid-but-wrong state at some cycle without ever being caught?
    ///
    /// Mirrors the campaign fold ([`Outcome`](scfi_faultsim::Outcome)):
    /// an escape requires a silent hijack at some cycle *and* no
    /// detection at any cycle — a hijacked state that collapses to an
    /// invalid/error word or raises an alert later in the walk counts as
    /// detected, exactly like the simulated protocol walks.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k` (the fault would arm past the walk) or `k == 0`.
    pub fn certify_kstep(&mut self, fault: Fault, k: usize, j: usize) -> KStepVerdict {
        assert!(k >= 1, "a walk needs at least one cycle");
        assert!(j < k, "fault step {j} lies past the {k}-cycle walk");
        self.bdd.reset_steps();
        match self.certify_kstep_inner(fault, k, j) {
            Ok(v) => v,
            Err(overflow) => KStepVerdict::Unknown {
                reason: overflow.to_string(),
            },
        }
    }

    fn certify_kstep_inner(
        &mut self,
        fault: Fault,
        k: usize,
        j: usize,
    ) -> Result<KStepVerdict, BddOverflow> {
        self.bdd.poll()?;
        let vm = self.evaluator.varmap();
        let fresh_base = vm.var_count();
        let n_regs = self.model.module().registers().len();
        let n_inputs = self.model.module().inputs().len();
        let reg_vars: Vec<u32> = (0..n_regs).map(|i| vm.reg_current(i)).collect();
        let cycle0_inputs: Vec<u32> = (0..n_inputs).map(|i| vm.input(i)).collect();

        let mut golden: Vec<BddRef> = reg_vars
            .iter()
            .map(|&v| self.bdd.try_var(v))
            .collect::<Result<_, _>>()?;
        let mut faulty = golden.clone();
        let mut any_hijack = BddRef::FALSE;
        let mut all_quiet = BddRef::TRUE;
        let mut assume_all = BddRef::TRUE;
        let mut input_blocks: Vec<Vec<u32>> = Vec::with_capacity(k);

        for t in 0..k {
            // Cycle 0 reuses the VarMap's input variables (so the base
            // step's functions are shared); later cycles get fresh
            // variable blocks above the universe.
            let vars: Vec<u32> = if t == 0 {
                cycle0_inputs.clone()
            } else {
                (0..n_inputs)
                    .map(|i| fresh_base + ((t - 1) * n_inputs + i) as u32)
                    .collect()
            };
            let inputs: Vec<BddRef> = vars
                .iter()
                .map(|&v| self.bdd.try_var(v))
                .collect::<Result<_, _>>()?;
            input_blocks.push(vars);
            let assume_t = if t == 0 {
                self.assumption
            } else {
                self.model.input_assumption(&mut self.bdd, &inputs)?
            };
            assume_all = self.bdd.try_and(assume_all, assume_t)?;

            let g = self.evaluator.try_eval_guarded(
                &mut self.bdd,
                &golden,
                &inputs,
                &[],
                BddRef::TRUE,
            )?;
            let armed: &[(Fault, BddRef)] = if t == j {
                &[(fault, BddRef::TRUE)]
            } else {
                &[]
            };
            let f = self.evaluator.try_eval_guarded(
                &mut self.bdd,
                &faulty,
                &inputs,
                armed,
                BddRef::TRUE,
            )?;

            let b = &mut self.bdd;
            let mut diverge = BddRef::FALSE;
            for (&free, &bad) in g.next_regs.iter().zip(&f.next_regs) {
                let d = b.try_xor(free, bad)?;
                diverge = b.try_or(diverge, d)?;
            }
            let undetected = self.model.undetected_next(b, &f.next_regs)?;
            let alerted = or_ports(b, &f, &self.detection_ports)?;
            let hijack = b.try_and(diverge, undetected)?;
            any_hijack = b.try_or(any_hijack, hijack)?;
            let no_alert = b.try_not(alerted)?;
            let quiet = b.try_and(no_alert, undetected)?;
            all_quiet = b.try_and(all_quiet, quiet)?;

            golden = g.next_regs;
            faulty = f.next_regs;
        }

        let b = &mut self.bdd;
        let escape = {
            let e = b.try_and(any_hijack, all_quiet)?;
            let e = b.try_and(e, assume_all)?;
            b.try_and(e, self.reach.states)?
        };
        if escape == BddRef::FALSE {
            return Ok(KStepVerdict::Proved);
        }
        let assignment = b
            .sat_one_minimal(escape)
            .expect("non-false BDD has a model");
        let lookup: HashMap<u32, bool> = assignment.iter().copied().collect();
        let regs: Vec<bool> = reg_vars
            .iter()
            .map(|v| lookup.get(v).copied().unwrap_or(false))
            .collect();
        let inputs: Vec<Vec<bool>> = input_blocks
            .iter()
            .map(|block| {
                block
                    .iter()
                    .map(|v| lookup.get(v).copied().unwrap_or(false))
                    .collect()
            })
            .collect();
        let confirmed = self.replay_kstep(fault, j, &regs, &inputs);
        Ok(KStepVerdict::Counterexample(KStepWitness {
            regs,
            inputs,
            confirmed,
        }))
    }

    /// Replays a k-step witness through the scalar simulator with the
    /// fault transient at step `j`, and checks the campaign fold
    /// concretely: hijacked at some cycle, caught at none.
    fn replay_kstep(&self, fault: Fault, j: usize, regs: &[bool], schedule: &[Vec<bool>]) -> bool {
        let module = self.model.module();
        let mut sim = Simulator::new(module);

        sim.reset_to(regs);
        let golden: Vec<Vec<bool>> = schedule
            .iter()
            .map(|word| {
                sim.step(word);
                sim.register_values().to_vec()
            })
            .collect();

        sim.clear_faults();
        sim.reset_to(regs);
        let mut hijacked = false;
        let mut caught = false;
        for (t, word) in schedule.iter().enumerate() {
            if t == j {
                // Transient arming, exactly like the campaign executors:
                // armed for the window's single cycle, cleared after
                // (register flips fire once at arm time).
                scfi_faultsim::arm(&mut sim, fault);
            }
            let out = sim.step(word);
            if t == j {
                sim.clear_faults();
            }
            let state = sim.register_values().to_vec();
            let undetected = self.model.undetected_next_concrete(&state);
            let alerted = self.detection_ports.iter().any(|&p| out[p]);
            if alerted || !undetected {
                caught = true;
            }
            if undetected && state != golden[t] {
                hijacked = true;
            }
        }
        hijacked && !caught
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::{describe_active, CertifyBudget};
    use scfi_core::{harden, ScfiConfig};
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

    #[test]
    fn at_most_counts_true_variables() {
        let mut b = Bdd::new();
        let vars = [0u32, 1, 2, 3];
        for k in (0..=5).chain([usize::MAX]) {
            let f = at_most(&mut b, &vars, k).unwrap();
            for bits in 0u32..16 {
                let assignment: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
                let weight = bits.count_ones() as usize;
                assert_eq!(
                    b.eval(f, &assignment),
                    weight <= k,
                    "k={k}, bits={bits:04b}"
                );
            }
        }
    }

    #[test]
    fn scfi_joint_claim_is_proved_at_n_minus_one() {
        // The paper's §3 claim, joint form: with protection level N, *no
        // combination* of up to N − 1 stored-bit flips escapes — not
        // merely each flip alone.
        for n in [2usize, 3] {
            let h = harden(&fsm(), &ScfiConfig::new(n)).unwrap();
            let faults = enumerate_faults(
                h.module(),
                &CampaignConfig::new().register_region(h.module()),
            );
            assert!(faults.len() > n - 1);
            let mut certifier = Certifier::new(&h);
            let report = certifier.certify_joint(&faults, n - 1);
            assert!(report.verdict.is_proven(), "N={n}: {report}");
            assert_eq!(report.sites, faults.len());
            assert_eq!(report.max_active, n - 1);
            let text = report.to_string();
            assert!(text.contains("PROVED"), "{text}");
        }
    }

    #[test]
    fn scfi_joint_claim_breaks_at_n_faults() {
        // At weight N the distance argument no longer holds: N flips can
        // carry one codeword onto another. The joint certifier must find
        // that subset and the replay must confirm it.
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let faults = enumerate_faults(
            h.module(),
            &CampaignConfig::new().register_region(h.module()),
        );
        let mut certifier = Certifier::new(&h);
        let report = certifier.certify_joint(&faults, 2);
        match &report.verdict {
            JointVerdict::Counterexample(w) => {
                assert_eq!(
                    w.active.len(),
                    2,
                    "a fewest-care witness uses exactly N flips"
                );
                assert!(w.confirmed, "witness must replay to a concrete hijack");
                assert!(!describe_active(h.module(), w).is_empty());
            }
            other => panic!("N flips must break HD-2 protection, got {other:?}"),
        }
        let text = report.to_string();
        assert!(text.contains("REFUTED"), "{text}");
        assert!(text.contains("replay-confirmed"), "{text}");
    }

    #[test]
    fn unprotected_joint_claim_is_refuted_with_minimal_witness() {
        let f = fsm();
        let lowered = lower_unprotected(&f).unwrap();
        let faults = enumerate_faults(
            lowered.module(),
            &CampaignConfig::new().register_region(lowered.module()),
        );
        let mut certifier = Certifier::new(&lowered);
        let report = certifier.certify_joint(&faults, 1);
        match &report.verdict {
            JointVerdict::Counterexample(w) => {
                assert_eq!(w.active.len(), 1, "one flip suffices unprotected");
                assert!(w.confirmed);
            }
            other => panic!("unprotected must be refutable, got {other:?}"),
        }
    }

    #[test]
    fn joint_budget_overflow_degrades_to_unknown() {
        let h = harden(&fsm(), &ScfiConfig::new(3)).unwrap();
        let faults = enumerate_faults(
            h.module(),
            &CampaignConfig::new().register_region(h.module()),
        );
        let mut certifier = Certifier::with_budget(&h, CertifyBudget::unlimited().max_steps(1))
            .expect("setup precedes the step limit");
        let report = certifier.certify_joint(&faults, 2);
        match &report.verdict {
            JointVerdict::Unknown { reason } => {
                assert!(reason.contains("step limit"), "{reason}");
                assert!(!report.verdict.is_proven());
            }
            other => panic!("a 1-step budget cannot decide the joint claim, got {other:?}"),
        }
        assert!(report.to_string().contains("UNKNOWN"));
    }

    #[test]
    fn joint_with_zero_active_faults_is_trivially_proved() {
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let faults = enumerate_faults(
            h.module(),
            &CampaignConfig::new().register_region(h.module()),
        );
        let mut certifier = Certifier::new(&h);
        let report = certifier.certify_joint(&faults, 0);
        assert!(report.verdict.is_proven(), "{report}");
    }

    #[test]
    fn kstep_scfi_register_flips_stay_proved_at_every_step() {
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let faults = enumerate_faults(
            h.module(),
            &CampaignConfig::new().register_region(h.module()),
        );
        let mut certifier = Certifier::new(&h);
        for k in 1..=3usize {
            for j in 0..k {
                for &fault in faults.iter().take(3) {
                    let verdict = certifier.certify_kstep(fault, k, j);
                    assert!(
                        verdict.is_proven(),
                        "k={k}, j={j}, fault {fault:?}: {verdict:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn kstep_unprotected_register_flips_are_refuted_and_replayed() {
        let f = fsm();
        let lowered = lower_unprotected(&f).unwrap();
        let faults = enumerate_faults(
            lowered.module(),
            &CampaignConfig::new().register_region(lowered.module()),
        );
        let mut certifier = Certifier::new(&lowered);
        let mut refuted = 0;
        for k in 1..=3usize {
            for j in 0..k {
                for &fault in &faults {
                    if let KStepVerdict::Counterexample(w) = certifier.certify_kstep(fault, k, j) {
                        assert_eq!(w.inputs.len(), k, "one input word per cycle");
                        assert!(
                            w.confirmed,
                            "k={k}, j={j}, fault {fault:?}: witness did not replay"
                        );
                        refuted += 1;
                    }
                }
            }
        }
        assert!(refuted > 0, "an unprotected FSM must be k-step refutable");
    }

    #[test]
    #[should_panic(expected = "past the")]
    fn kstep_rejects_windows_past_the_walk() {
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let faults = enumerate_faults(
            h.module(),
            &CampaignConfig::new().register_region(h.module()),
        );
        Certifier::new(&h).certify_kstep(faults[0], 2, 2);
    }
}
