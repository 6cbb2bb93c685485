//! Lowering an FSM to an unprotected, binary-encoded gate-level netlist.
//!
//! This produces the circuit of the paper's Figure 1: a state register, a
//! next-state function `φ` built from comparators and muxes, and Moore
//! output logic `λ`. It is the **reference (i) "unprotected"** configuration
//! of the evaluation (§6.1) and the unit that the redundancy baseline
//! replicates `N` times.

use scfi_gf2::BitVec;
use scfi_netlist::{Module, ModuleBuilder, NetId, ValidateError};

use crate::model::{Fsm, StateId};

/// The result of lowering an [`Fsm`]: the netlist plus the binary state
/// encoding needed to interpret it.
///
/// Ports: one input per control signal (FSM order); outputs `state[i]`
/// (binary state code, LSB first) and one output per Moore output.
///
/// # Example
///
/// ```
/// use scfi_fsm::{lower_unprotected, parse_fsm};
/// use scfi_netlist::Simulator;
///
/// let fsm = parse_fsm(
///     "fsm t { inputs go; state A { if go -> B; } state B { goto A; } }",
/// )?;
/// let lowered = lower_unprotected(&fsm)?;
/// let mut sim = Simulator::new(lowered.module());
/// sim.step(&[true]); // A --go--> B
/// assert_eq!(lowered.decode_registers(sim.register_values()), Some(fsm.state_by_name("B").unwrap()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct LoweredFsm {
    module: Module,
    state_bits: usize,
    encodings: Vec<BitVec>,
}

impl LoweredFsm {
    /// The gate-level netlist.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Width of the binary state register.
    pub fn state_bits(&self) -> usize {
        self.state_bits
    }

    /// The binary code of each state, indexed by [`StateId`].
    pub fn encodings(&self) -> &[BitVec] {
        &self.encodings
    }

    /// The binary code of one state.
    pub fn encoding(&self, s: StateId) -> &BitVec {
        &self.encodings[s.0]
    }

    /// Decodes raw register values (in `module.registers()` order) back to
    /// a state id, or `None` for a code outside the state space.
    pub fn decode_registers(&self, regs: &[bool]) -> Option<StateId> {
        let word = BitVec::from_bools(regs);
        self.encodings.iter().position(|e| *e == word).map(StateId)
    }
}

/// Lowers `fsm` to a flat netlist with the natural binary state encoding
/// (state `i` encodes as `i`).
///
/// The generated structure mirrors what a synthesis tool emits for the
/// `unique case` idiom of Fig. 4:
///
/// * per-state one-hot match comparators on the state register,
/// * per-state priority mux chains implementing the `if/else-if` guards,
/// * a one-hot AND–OR next-state select,
/// * OR-trees for the Moore outputs.
///
/// # Errors
///
/// Propagates netlist validation errors (none are expected for a valid
/// [`Fsm`]).
pub fn lower_unprotected(fsm: &Fsm) -> Result<LoweredFsm, ValidateError> {
    let n_states = fsm.state_count();
    let state_bits = usize::max(1, (usize::BITS - (n_states - 1).leading_zeros()) as usize);
    let encodings: Vec<BitVec> = (0..n_states)
        .map(|i| BitVec::from_u64(i as u64, state_bits))
        .collect();

    let mut b = ModuleBuilder::new(format!("{}_unprotected", fsm.name()));
    let inputs: Vec<NetId> = fsm
        .signals()
        .iter()
        .map(|name| b.input(name.clone()))
        .collect();
    let reset_code = encodings[fsm.reset_state().0].clone();
    let state_q = b.dff_word_uninit(state_bits, &reset_code);

    // One-hot state match comparators.
    let matches: Vec<NetId> = encodings
        .iter()
        .map(|code| b.eq_const(&state_q, code))
        .collect();

    // Per-state next-state candidate via a reverse-priority mux chain.
    let mut candidates: Vec<Vec<NetId>> = Vec::with_capacity(n_states);
    for s in fsm.states() {
        let mut cand = b.const_word(&encodings[s.0]); // default: stay
        for t in fsm.transitions(s).iter().rev() {
            let lits: Vec<NetId> = t
                .guard
                .literals()
                .iter()
                .map(|&(sig, v)| {
                    if v {
                        inputs[sig.0]
                    } else {
                        b.not(inputs[sig.0])
                    }
                })
                .collect();
            let cond = b.and_all(&lits);
            let target_word = b.const_word(&encodings[t.target.0]);
            cand = b.mux_word(cond, &cand, &target_word);
        }
        candidates.push(cand);
    }

    // One-hot select of the active candidate.
    let next_state = b.onehot_select(&matches, &candidates);
    b.set_dff_word(&state_q, &next_state);
    b.output_word("state", &state_q);

    // Moore output logic λ: OR of the asserting states' match signals.
    for (oi, name) in fsm.outputs().iter().enumerate() {
        let terms: Vec<NetId> = fsm
            .states()
            .iter()
            .filter(|&&s| fsm.asserted_outputs(s).iter().any(|o| o.0 == oi))
            .map(|&s| matches[s.0])
            .collect();
        let y = b.or_all(&terms);
        b.output(name.clone(), y);
    }

    Ok(LoweredFsm {
        module: b.finish()?,
        state_bits,
        encodings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FsmBuilder;
    use crate::parse::parse_fsm;
    use crate::sim::FsmSimulator;
    use scfi_netlist::Simulator;

    fn lock() -> Fsm {
        parse_fsm(
            "fsm lock {
               inputs key_ok, tamper;
               outputs open, alarm;
               reset LOCKED;
               state LOCKED { if key_ok && !tamper -> OPEN; if tamper -> ALARM; }
               state OPEN   { out open; if tamper -> ALARM; if !key_ok -> LOCKED; }
               state ALARM  { out alarm; goto ALARM; }
             }",
        )
        .unwrap()
    }

    /// Deterministic pseudo-random input sequence.
    fn trace(n_signals: usize, len: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut state = seed.max(1);
        (0..len)
            .map(|_| {
                (0..n_signals)
                    .map(|_| {
                        state ^= state >> 12;
                        state ^= state << 25;
                        state ^= state >> 27;
                        state.wrapping_mul(0x2545F4914F6CDD1D) & 1 == 1
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn lockstep_equivalence_with_behavioral_model() {
        let fsm = lock();
        let lowered = lower_unprotected(&fsm).unwrap();
        let mut gate = Simulator::new(lowered.module());
        let mut gold = FsmSimulator::new(&fsm);
        for inputs in trace(2, 300, 0xA5A5) {
            gate.step(&inputs);
            let expect = gold.step(&inputs);
            assert_eq!(
                lowered.decode_registers(gate.register_values()),
                Some(expect),
                "divergence at cycle {}",
                gold.cycle()
            );
        }
    }

    #[test]
    fn moore_outputs_match_behavioral_model() {
        let fsm = lock();
        let lowered = lower_unprotected(&fsm).unwrap();
        let mut gate = Simulator::new(lowered.module());
        let mut gold = FsmSimulator::new(&fsm);
        // Outputs are sampled *before* the edge, i.e. they reflect the
        // pre-step state; compare against the golden model pre-step.
        for inputs in trace(2, 120, 0x1234) {
            let pre_outputs = gold.outputs();
            let gate_out = gate.step(&inputs);
            gold.step(&inputs);
            // Gate outputs: state bits first, then Moore outputs.
            let moore = &gate_out[lowered.state_bits()..];
            assert_eq!(moore, &pre_outputs[..]);
        }
    }

    #[test]
    fn reset_state_is_encoded_in_registers() {
        let fsm = lock();
        let lowered = lower_unprotected(&fsm).unwrap();
        let gate = Simulator::new(lowered.module());
        assert_eq!(
            lowered.decode_registers(gate.register_values()),
            Some(fsm.reset_state())
        );
    }

    #[test]
    fn state_bits_is_log2() {
        let fsm = lock(); // 3 states → 2 bits
        let lowered = lower_unprotected(&fsm).unwrap();
        assert_eq!(lowered.state_bits(), 2);
        assert_eq!(lowered.encodings().len(), 3);
        assert_eq!(lowered.encoding(StateId(2)).to_u64(), 2);
    }

    #[test]
    fn single_state_machine_lowers() {
        let mut b = FsmBuilder::new("one");
        b.state("ONLY").unwrap();
        let fsm = b.finish().unwrap();
        let lowered = lower_unprotected(&fsm).unwrap();
        assert_eq!(lowered.state_bits(), 1);
        let mut sim = Simulator::new(lowered.module());
        sim.step(&[]);
        assert_eq!(
            lowered.decode_registers(sim.register_values()),
            Some(StateId(0))
        );
    }

    #[test]
    fn decode_rejects_out_of_space_codes() {
        let fsm = lock(); // 3 states in 2 bits → code 3 unused
        let lowered = lower_unprotected(&fsm).unwrap();
        assert_eq!(lowered.decode_registers(&[true, true]), None);
    }

    #[test]
    fn priority_is_respected_in_gates() {
        let fsm = parse_fsm(
            "fsm p { inputs a, b;
               state S { if a -> T1; if b -> T2; }
               state T1 { goto S; }
               state T2 { goto S; } }",
        )
        .unwrap();
        let lowered = lower_unprotected(&fsm).unwrap();
        let mut sim = Simulator::new(lowered.module());
        sim.step(&[true, true]); // both guards — priority picks T1
        assert_eq!(
            lowered.decode_registers(sim.register_values()),
            fsm.state_by_name("T1")
        );
    }

    #[test]
    fn module_has_expected_ports() {
        let fsm = lock();
        let lowered = lower_unprotected(&fsm).unwrap();
        let m = lowered.module();
        assert_eq!(m.inputs().len(), 2);
        // 2 state bits + 2 Moore outputs.
        assert_eq!(m.outputs().len(), 4);
        assert!(m.output_net("open").is_some());
        assert!(m.output_net("state[1]").is_some());
    }
}
