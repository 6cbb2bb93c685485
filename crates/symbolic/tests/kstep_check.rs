//! Differential check of the k-step unrolling: on small FSMs, the
//! symbolic k-step certifier's verdict must match an *exhaustive* scalar
//! enumeration — every reachable start state × every admissible k-cycle
//! input schedule, simulated with the fault transient at step `j` — for
//! every register-space fault, every walk length k ∈ {1, 2, 3} and every
//! arming step j < k.
//!
//! The scalar side applies the campaign fold concretely: the walk escapes
//! iff some cycle silently hijacks (divergent yet valid state) and *no*
//! cycle detects (alert or invalid/error state). `Proved` must mean zero
//! escaping trajectories; `Counterexample` must come with a
//! replay-confirmed witness trajectory that the enumeration also finds.
//!
//! The joint multi-fault certifier gets the same treatment from a subset
//! oracle: every non-empty subset of at most k faults, armed together
//! for one step from every reachable state under every admissible word.

use std::collections::{BTreeSet, VecDeque};

use scfi_core::{harden, redundancy, ScfiConfig};
use scfi_faultsim::{enumerate_faults, CampaignConfig, Fault};
use scfi_fsm::{lower_unprotected, parse_fsm, Fsm};
use scfi_netlist::Simulator;
use scfi_symbolic::{Certifier, CertifyModel, JointVerdict, KStepVerdict};

fn small_fsm() -> Fsm {
    parse_fsm(
        "fsm walkable { inputs go, halt;
           state A { if go -> B; if halt -> D; }
           state B { if go -> C; }
           state C { if halt -> D; }
           state D { goto A; } }",
    )
    .expect("valid DSL")
}

/// Concrete BFS over the module under the admissible input words.
fn concrete_reachable(module: &scfi_netlist::Module, words: &[Vec<bool>]) -> Vec<Vec<bool>> {
    let mut sim = Simulator::new(module);
    let reset: Vec<bool> = sim.register_values().to_vec();
    let mut seen = BTreeSet::new();
    let mut queue = VecDeque::new();
    seen.insert(reset.clone());
    queue.push_back(reset);
    while let Some(state) = queue.pop_front() {
        for word in words {
            sim.clear_faults();
            sim.reset_to(&state);
            sim.step(word);
            let next = sim.register_values().to_vec();
            if seen.insert(next.clone()) {
                queue.push_back(next);
            }
        }
    }
    seen.into_iter().collect()
}

/// Exhaustive scalar oracle: does ANY (start state, schedule) pair escape
/// the k-cycle walk with `fault` transient at step `j`?
fn brute_force_escapes<M: CertifyModel>(
    model: &M,
    words: &[Vec<bool>],
    states: &[Vec<bool>],
    fault: Fault,
    k: usize,
    j: usize,
) -> bool {
    let module = model.module();
    let ports = model.detection_ports();
    let mut schedule = vec![0usize; k];
    loop {
        for start in states {
            let mut sim = Simulator::new(module);
            sim.reset_to(start);
            let golden: Vec<Vec<bool>> = schedule
                .iter()
                .map(|&w| {
                    sim.step(&words[w]);
                    sim.register_values().to_vec()
                })
                .collect();

            sim.clear_faults();
            sim.reset_to(start);
            let mut hijacked = false;
            let mut caught = false;
            for (t, &w) in schedule.iter().enumerate() {
                if t == j {
                    scfi_faultsim::arm(&mut sim, fault);
                }
                let out = sim.step(&words[w]);
                if t == j {
                    sim.clear_faults();
                }
                let state = sim.register_values().to_vec();
                let undetected = model.undetected_next_concrete(&state);
                let alerted = ports.iter().any(|&p| out[p]);
                if alerted || !undetected {
                    caught = true;
                }
                if undetected && state != golden[t] {
                    hijacked = true;
                }
            }
            if hijacked && !caught {
                return true;
            }
        }
        // Advance the schedule odometer.
        let mut pos = 0;
        loop {
            if pos == k {
                return false;
            }
            schedule[pos] += 1;
            if schedule[pos] < words.len() {
                break;
            }
            schedule[pos] = 0;
            pos += 1;
        }
    }
}

/// Runs the differential over every register fault × k × j.
fn assert_kstep_matches_brute_force<M: CertifyModel>(
    model: &M,
    words: &[Vec<bool>],
    what: &str,
) -> (usize, usize) {
    let faults = enumerate_faults(
        model.module(),
        &CampaignConfig::new().register_region(model.module()),
    );
    assert!(!faults.is_empty(), "{what}: empty fault space");
    let states = concrete_reachable(model.module(), words);
    let mut certifier = Certifier::new(model);
    let (mut proved, mut refuted) = (0, 0);
    for k in 1..=3usize {
        for j in 0..k {
            for &fault in &faults {
                let expected = brute_force_escapes(model, words, &states, fault, k, j);
                match certifier.certify_kstep(fault, k, j) {
                    KStepVerdict::Proved => {
                        assert!(
                            !expected,
                            "{what}: k={k} j={j} {fault:?}: symbolically proved but a \
                             scalar trajectory escapes"
                        );
                        proved += 1;
                    }
                    KStepVerdict::Counterexample(w) => {
                        assert!(
                            expected,
                            "{what}: k={k} j={j} {fault:?}: symbolic counterexample but \
                             no scalar trajectory escapes"
                        );
                        assert!(
                            w.confirmed,
                            "{what}: k={k} j={j} {fault:?}: witness did not replay"
                        );
                        assert_eq!(w.inputs.len(), k, "{what}: one input word per cycle");
                        refuted += 1;
                    }
                    KStepVerdict::Unknown { reason } => {
                        panic!("{what}: unbudgeted run returned Unknown: {reason}")
                    }
                }
            }
        }
    }
    (proved, refuted)
}

#[test]
fn scfi_kstep_verdicts_match_exhaustive_scalar_walks() {
    for n in [2usize, 3] {
        let h = harden(&small_fsm(), &ScfiConfig::new(n)).expect("harden");
        // The §5 interface assumption: only valid condition codewords.
        let words: Vec<Vec<bool>> = (0..h.cond_code().len())
            .map(|c| h.cond_code().word(c).iter().collect())
            .collect();
        let (proved, refuted) =
            assert_kstep_matches_brute_force(&h, &words, &format!("SCFI N={n}"));
        assert!(proved > 0, "N={n}: the suite must exercise proofs");
        assert_eq!(
            refuted, 0,
            "N={n}: no single register fault may escape a hardened walk"
        );
    }
}

#[test]
fn unprotected_kstep_verdicts_match_exhaustive_scalar_walks() {
    let fsm = small_fsm();
    let lowered = lower_unprotected(&fsm).expect("lowering");
    // No interface assumption: every raw input word is admissible.
    let words = all_words(lowered.module().inputs().len());
    let (_proved, refuted) = assert_kstep_matches_brute_force(&lowered, &words, "unprotected");
    assert!(
        refuted > 0,
        "an unprotected walk must have escaping trajectories"
    );
}

/// Every raw input word of `n_in` bits: the unprotected lowering's
/// admissible set (it has no interface assumption).
fn all_words(n_in: usize) -> Vec<Vec<bool>> {
    (0..1usize << n_in)
        .map(|bits| (0..n_in).map(|i| bits >> i & 1 == 1).collect())
        .collect()
}

/// One step from `state` under `word` with every fault of `active` armed
/// together: does the run silently hijack the transition (a next state
/// that differs from the fault-free one, is undetected by decoding, and
/// raises no detection port)?
fn subset_escapes<M: CertifyModel>(
    model: &M,
    sim: &mut Simulator<'_>,
    active: &[Fault],
    state: &[bool],
    word: &[bool],
) -> bool {
    sim.clear_faults();
    sim.reset_to(state);
    sim.step(word);
    let golden = sim.register_values().to_vec();
    sim.reset_to(state);
    for &fault in active {
        scfi_faultsim::arm(sim, fault);
    }
    let out = sim.step(word);
    let next = sim.register_values();
    next != golden.as_slice()
        && model.undetected_next_concrete(next)
        && !model.detection_ports().iter().any(|&p| out[p])
}

/// Exhaustive subset oracle: does ANY non-empty subset of at most `k`
/// faults escape from some reachable state under some admissible word?
fn some_subset_escapes<M: CertifyModel>(
    model: &M,
    faults: &[Fault],
    k: usize,
    states: &[Vec<bool>],
    words: &[Vec<bool>],
) -> bool {
    let mut sim = Simulator::new(model.module());
    let mut found = false;
    for size in 1..=k {
        scfi_gf2::for_each_combination(faults.len(), size, |picked| {
            if found {
                return;
            }
            let active: Vec<Fault> = picked.iter().map(|&i| faults[i]).collect();
            found = states.iter().any(|state| {
                words
                    .iter()
                    .any(|word| subset_escapes(model, &mut sim, &active, state, word))
            });
        });
    }
    found
}

/// Certifies the joint claim over `config`'s faults at bound `k` and
/// checks it against the subset oracle: `Proved` means no escaping
/// subset; a counterexample's active set, registers and inputs must be a
/// reachable, admissible triple the oracle confirms.
fn assert_joint_matches_subset_oracle<M: CertifyModel>(
    model: &M,
    config: &CampaignConfig,
    words: &[Vec<bool>],
    k: usize,
    what: &str,
) -> JointVerdict {
    let faults = enumerate_faults(model.module(), config);
    assert!(faults.len() > k, "{what}: too few faults for k={k}");
    let states = concrete_reachable(model.module(), words);
    let expected = some_subset_escapes(model, &faults, k, &states, words);
    let report = Certifier::new(model).certify_joint(&faults, k);
    match &report.verdict {
        JointVerdict::Proved => assert!(
            !expected,
            "{what} k={k}: symbolically proved but a fault subset escapes"
        ),
        JointVerdict::Counterexample(w) => {
            assert!(expected, "{what} k={k}: no fault subset escapes: {w:?}");
            assert!(w.confirmed, "{what} k={k}: witness did not replay");
            assert!(
                !w.active.is_empty() && w.active.len() <= k,
                "{what} k={k}: {} active faults",
                w.active.len()
            );
            assert!(
                states.contains(&w.regs),
                "{what} k={k}: unreachable witness"
            );
            assert!(words.contains(&w.inputs), "{what} k={k}: inadmissible word");
            let mut sim = Simulator::new(model.module());
            assert!(
                subset_escapes(model, &mut sim, &w.active, &w.regs, &w.inputs),
                "{what} k={k}: the oracle does not see the witness escape"
            );
        }
        JointVerdict::Unknown { reason } => {
            panic!("{what} k={k}: unbudgeted run returned Unknown: {reason}")
        }
    }
    report.verdict
}

#[test]
fn scfi_joint_verdicts_match_the_subset_oracle() {
    for n in [2usize, 3] {
        let h = harden(&small_fsm(), &ScfiConfig::new(n)).expect("harden");
        let words: Vec<Vec<bool>> = (0..h.cond_code().len())
            .map(|c| h.cond_code().word(c).iter().collect())
            .collect();
        let config = CampaignConfig::new().register_region(h.module());
        for k in 1..=n {
            let what = format!("SCFI N={n}");
            let verdict = assert_joint_matches_subset_oracle(&h, &config, &words, k, &what);
            // The paper's claim holds below N and breaks at N.
            assert_eq!(verdict.is_proven(), k < n, "{what} k={k}: {verdict:?}");
        }
    }
}

#[test]
fn redundancy_joint_verdicts_match_the_subset_oracle() {
    let r = redundancy(&small_fsm(), 2).expect("redundancy");
    let words: Vec<Vec<bool>> = (0..r.cond_code().len())
        .map(|c| r.cond_code().word(c).iter().collect())
        .collect();
    let config = CampaignConfig::new().register_region(r.module());
    for k in [1usize, 2] {
        let verdict = assert_joint_matches_subset_oracle(&r, &config, &words, k, "redundancy N=2");
        assert_eq!(verdict.is_proven(), k < 2, "k={k}: {verdict:?}");
    }
}

#[test]
fn unprotected_joint_verdict_matches_the_subset_oracle() {
    let lowered = lower_unprotected(&small_fsm()).expect("lowering");
    let words = all_words(lowered.module().inputs().len());
    let config = CampaignConfig::new().register_region(lowered.module());
    let verdict = assert_joint_matches_subset_oracle(&lowered, &config, &words, 1, "unprotected");
    assert!(!verdict.is_proven(), "one flip hijacks an unprotected FSM");
}

#[test]
fn all_gates_joint_verdicts_match_the_subset_oracle() {
    let all_gates = CampaignConfig::new().with_register_flips();
    let h = harden(&small_fsm(), &ScfiConfig::new(2)).expect("harden");
    let words: Vec<Vec<bool>> = (0..h.cond_code().len())
        .map(|c| h.cond_code().word(c).iter().collect())
        .collect();
    assert_joint_matches_subset_oracle(&h, &all_gates, &words, 1, "SCFI N=2 gates");
    let lowered = lower_unprotected(&small_fsm()).expect("lowering");
    let words = all_words(lowered.module().inputs().len());
    assert_joint_matches_subset_oracle(&lowered, &all_gates, &words, 1, "unprotected gates");
}
