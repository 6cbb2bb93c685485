//! The SCFI hardening pass (paper §5, Fig. 7).

use std::fmt;

use scfi_encode::{CodeSpec, Codebook};
use scfi_fsm::{Cfg, Fsm, StateId};
use scfi_gf2::BitVec;
use scfi_mds::{MdsMatrix, MdsSpec, OutputSource, XorProgram};
use scfi_netlist::{Module, ModuleBuilder, ModuleStats, NetId};

use crate::{MixLayout, ScfiConfig, ScfiError};

/// Interpretation of a raw hardened-state register word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StateDecode {
    /// A valid operational state.
    State(StateId),
    /// The terminal all-zero ERROR state.
    Error,
    /// Neither a state codeword nor the ERROR word — a transient corruption
    /// that the next clock edge will collapse into ERROR.
    Invalid,
}

/// Cell-index ranges of the φ_FH stages inside the emitted netlist
/// (half-open ranges over [`scfi_netlist::CellId`] indices, in emission
/// order).
///
/// The SYNFI-style fault analysis (§6.4) targets these regions — e.g.
/// "injected 7644 single bit-flips exhaustively into all available gates
/// in the MDS matrix multiplication" targets [`HardenRegions::diffusion`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HardenRegions {
    /// Step 1 (Fig. 7): state and condition comparators (all selector
    /// rails).
    pub pattern_match: std::ops::Range<u32>,
    /// Step 2: the one-hot modifier-selection AND–OR plane.
    pub modifier_select: std::ops::Range<u32>,
    /// Steps 3–5: the mix wiring and MDS XOR networks.
    pub diffusion: std::ops::Range<u32>,
    /// Step 6: error reduction, infective AND, ERROR hold, alert.
    pub error_logic: std::ops::Range<u32>,
    /// The §7 output-protection checker (empty unless
    /// [`ScfiConfig::protect_outputs`] is enabled).
    pub output_check: std::ops::Range<u32>,
}

/// Synthesis-time report of a hardening run.
#[derive(Clone, Debug)]
pub struct HardenReport {
    /// States in the source FSM.
    pub n_states: usize,
    /// CFG edges (explicit + implicit stays) — each got a modifier.
    pub n_edges: usize,
    /// Encoded state width `|S_Ne|`.
    pub state_width: usize,
    /// Encoded control width `|X_e|`.
    pub control_width: usize,
    /// Total modifier width.
    pub mod_width: usize,
    /// MDS instances `k`.
    pub instances: usize,
    /// Error bits per instance.
    pub error_bits: usize,
    /// Width in bits of the MDS matrix each instance uses: 32 for the
    /// paper's matrix, 16 or 24 when the configuration or §7 size
    /// adaptation picks a smaller one.
    pub mds_width: usize,
    /// XOR gates in the diffusion layer (after lowering, before netlist
    /// constant folding).
    pub diffusion_xors: usize,
    /// Netlist statistics of the emitted module.
    pub stats: ModuleStats,
}

impl fmt::Display for HardenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SCFI: {} states, {} edges -> se={} xe={} mod={} bits, k={} x ({}-bit MDS, {} err bits)",
            self.n_states,
            self.n_edges,
            self.state_width,
            self.control_width,
            self.mod_width,
            self.instances,
            self.mds_width,
            self.error_bits
        )?;
        write!(f, "{}", self.stats)
    }
}

/// An FSM hardened by the SCFI pass: the protected netlist plus everything
/// needed to drive, decode and analyze it.
///
/// Interface of the emitted module:
///
/// * inputs — `xe[0..]`: the encoded control word (HD ≥ N between valid
///   condition codewords; the paper assumes the driving modules provide
///   this encoding, §5),
/// * outputs — `state_e[0..]` (the encoded state register), one port per
///   Moore output, `alert` (current state is neither a valid codeword nor
///   ERROR — the Fig. 4 `default:` arm), and `in_error` (the FSM is in the
///   terminal ERROR state).
#[derive(Debug)]
pub struct HardenedFsm {
    fsm: Fsm,
    cfg: Cfg,
    config: ScfiConfig,
    mds: MdsMatrix,
    state_code: Codebook,
    cond_code: Codebook,
    layout: MixLayout,
    modifiers: Vec<BitVec>,
    module: Module,
    regions: HardenRegions,
    report: HardenReport,
}

/// Runs the SCFI pass on `fsm` (paper Fig. 7: pattern matching → modifier
/// selection → mix → diffusion → unmix → error AND).
///
/// # Errors
///
/// Fails if the protection level is below 2, a codebook cannot be
/// constructed, or no invertible modifier placement exists (see
/// [`ScfiError`]).
///
/// # Example
///
/// ```
/// use scfi_core::{harden, ScfiConfig};
/// use scfi_fsm::parse_fsm;
///
/// let fsm = parse_fsm("fsm m { inputs a; state P { if a -> Q; } state Q { goto P; } }")?;
/// let h = harden(&fsm, &ScfiConfig::new(2))?;
/// assert_eq!(h.report().n_edges, 3); // P→Q, P stay, Q→P
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn harden(fsm: &Fsm, config: &ScfiConfig) -> Result<HardenedFsm, ScfiError> {
    let n = config.protection_level();
    if n < 2 {
        return Err(ScfiError::ProtectionLevelTooLow { requested: n });
    }
    // The layout's error-bit bound, checked before the code searches,
    // whose cost grows steeply with N. Adaptation falls back to the
    // widest matrix, so it is bounded by that one.
    let error_bits = config.error_bits_per_instance();
    let widest = if config.is_adaptive_mds() {
        MdsSpec::ScfiLightweight
    } else {
        config.mds_spec()
    };
    if error_bits == 0 || error_bits >= widest.width() / 2 {
        return Err(ScfiError::ErrorBitsTooLarge { error_bits });
    }
    let cfg = fsm.cfg();
    let state_code = CodeSpec::new(fsm.state_count(), n).build()?;
    let cond_code = CodeSpec::new(cfg.max_out_degree(), n).build()?;
    let spec = if config.is_adaptive_mds() {
        adapt_mds_spec(
            state_code.width(),
            cond_code.width(),
            config.error_bits_per_instance(),
        )
    } else {
        config.mds_spec()
    };
    let mds = spec.build();
    let layout = MixLayout::build(
        state_code.width(),
        cond_code.width(),
        config.error_bits_per_instance(),
        &mds,
        config.seed(),
        config.pad_policy(),
    )?;

    // Solve (and sanity-check) one modifier per CFG edge — the §5.1
    // equation MDS(S_Ce, X_e, Mod) = S_Ne.
    let mut modifiers = Vec::with_capacity(cfg.edges().len());
    for edge in cfg.edges() {
        let from = state_code.word(edge.from.0);
        let target = state_code.word(edge.to.0);
        let cond = cond_code.word(edge.local_index(fsm));
        let modifier = layout.solve_modifier(&mds, from, cond, target);
        debug_assert!({
            let (next, errors) = layout.apply(&mds, from, cond, &modifier);
            next == *target && errors.count_ones() == errors.len()
        });
        modifiers.push(modifier);
    }

    // One lowering of the matrix feeds both the netlist and the report.
    let prog = mds.xor_program(config.lowering_strategy());
    let (module, regions) = emit(
        fsm,
        &cfg,
        config,
        &prog,
        &state_code,
        &cond_code,
        &layout,
        &modifiers,
    )?;
    let diffusion_xors = prog.xor_count() * layout.k();
    let report = HardenReport {
        n_states: fsm.state_count(),
        n_edges: cfg.edges().len(),
        state_width: state_code.width(),
        control_width: cond_code.width(),
        mod_width: layout.mod_width(),
        instances: layout.k(),
        error_bits: layout.error_bits(),
        mds_width: mds.width(),
        diffusion_xors,
        stats: ModuleStats::of(&module),
    };
    Ok(HardenedFsm {
        fsm: fsm.clone(),
        cfg,
        config: config.clone(),
        mds,
        state_code,
        cond_code,
        layout,
        modifiers,
        module,
        regions,
        report,
    })
}

/// §7 MDS size adaptation: the smallest lightweight matrix whose single
/// instance hosts the whole triple (`2·sw + xw + e ≤ width`, with the
/// error-bit bound `e < width/2`).
fn adapt_mds_spec(sw: usize, xw: usize, e: usize) -> MdsSpec {
    let need = 2 * sw + xw + e;
    for spec in [MdsSpec::Lightweight16, MdsSpec::Lightweight24] {
        if need <= spec.width() && e < spec.width() / 2 {
            return spec;
        }
    }
    MdsSpec::ScfiLightweight
}

/// Emits the hardened netlist.
#[allow(clippy::too_many_arguments)]
fn emit(
    fsm: &Fsm,
    cfg: &Cfg,
    config: &ScfiConfig,
    prog: &XorProgram,
    state_code: &Codebook,
    cond_code: &Codebook,
    layout: &MixLayout,
    modifiers: &[BitVec],
) -> Result<(Module, HardenRegions), ScfiError> {
    let sw = state_code.width();
    let xw = cond_code.width();
    let mut b = ModuleBuilder::new(format!("{}_scfi", fsm.name()));

    // Encoded control word input (step 1 of Fig. 7 matches on it).
    let xe = b.input_word("xe", xw);
    let reset_code = state_code.word(fsm.reset_state().0).clone();
    let state_q = b.dff_word_uninit(sw, &reset_code);

    // Terminal-error detection: ERROR is the all-zero word.
    let in_error = b.eq_const(&state_q, &BitVec::zeros(sw));

    // 1. Input pattern matching: per-state and per-condition comparators.
    // With selector hardening (§7 extension), the comparators are emitted
    // on several physically separate rails (strash barriers play the role
    // of `dont_touch`), and each edge match is the AND of all rails — a
    // single selector fault can then only suppress a match (→ terminal
    // error), never assert a wrong one.
    let pattern_start = b.len() as u32;
    let mut rails: Vec<(Vec<NetId>, Vec<NetId>)> = Vec::new();
    for rail in 0..config.selector_rail_count() {
        if rail > 0 {
            b.strash_barrier();
        }
        let state_match_r: Vec<NetId> = (0..fsm.state_count())
            .map(|s| b.eq_const(&state_q, state_code.word(s)))
            .collect();
        let cond_match_r: Vec<NetId> = (0..cond_code.len())
            .map(|c| b.eq_const(&xe, cond_code.word(c)))
            .collect();
        rails.push((state_match_r, cond_match_r));
    }
    let state_match = rails[0].0.clone();

    // 2. Modifier selection: one-hot AND–OR over edge matches.
    let select_start = b.len() as u32;
    let mut edge_match = Vec::with_capacity(cfg.edges().len());
    let mut mod_words = Vec::with_capacity(cfg.edges().len());
    for (ei, edge) in cfg.edges().iter().enumerate() {
        let per_rail: Vec<NetId> = rails
            .iter()
            .map(|(sm, cm)| b.and2(sm[edge.from.0], cm[edge.local_index(fsm)]))
            .collect();
        let m = b.and_all(&per_rail);
        edge_match.push(m);
        mod_words.push(b.const_word(&modifiers[ei]));
    }
    let mod_word = b.onehot_select(&edge_match, &mod_words);

    // 3.–5. Mix, diffusion, unmix per MDS instance.
    let diffusion_start = b.len() as u32;
    let zero = b.constant(false);
    let mut sn_bits: Vec<NetId> = vec![zero; sw];
    let mut error_nets: Vec<NetId> = Vec::with_capacity(layout.total_error_bits());
    for inst in layout.instances() {
        let mut signals: Vec<NetId> = vec![zero; prog.n_inputs()];
        for &(pos, g) in &inst.state_in {
            signals[pos] = state_q[g];
        }
        for &(pos, g) in &inst.control_in {
            signals[pos] = xe[g];
        }
        for &(pos, g) in &inst.mod_in {
            signals[pos] = mod_word[g];
        }
        for &(a, bb) in prog.ops() {
            let net = b.xor2(signals[a], signals[bb]);
            signals.push(net);
        }
        let out_net = |src: &OutputSource, b: &mut ModuleBuilder| match src {
            OutputSource::Zero => b.constant(false),
            OutputSource::Signal(s) => signals[*s],
        };
        for &(pos, g) in &inst.state_out {
            sn_bits[g] = out_net(&prog.outputs()[pos], &mut b);
        }
        for &pos in &inst.error_out {
            let net = out_net(&prog.outputs()[pos], &mut b);
            error_nets.push(net);
        }
    }

    // 6. Error logic: infective AND of the next state with the reduced
    // error bits, plus the Fig. 4 `default:` arm (an invalid current state
    // forces SN = ERROR deterministically — this is what makes FT1 faults
    // below N flips always caught) and the non-escapable ERROR hold.
    //
    // The default arm covers unmatched *conditions* too, not just
    // unmatched states: a valid condition codeword whose class has no
    // edge from the current state selects no modifier, and the e error
    // bits of MDS(S, X, 0) then pass the all-ones check with probability
    // ≈ 2^-e per (state, class) pair — common enough at small e that the
    // netlist would otherwise commit a silent non-codeword the behavioral
    // reference (`expected_next`) maps to ERROR. Gating `pass` on "some
    // edge matched" restores `φ_F(S, X, 0) = φ_F̄(S, X, 0)` on the whole
    // valid-codeword input space; the `scfi-symbolic` certifier found the
    // discrepancy (a transient invalid state one register flip away from
    // a valid codeword) and its conformance suite now pins the fix.
    let error_start = b.len() as u32;
    let e_ok = b.and_all(&error_nets);
    let any_state = b.or_all(&state_match);
    let any_edge = b.or_all(&edge_match);
    let not_err = b.not(in_error);
    let pass = b.and2(e_ok, not_err);
    let pass = b.and2(pass, any_state);
    let pass = b.and2(pass, any_edge);
    let next: Vec<NetId> = sn_bits.iter().map(|&s| b.and2(s, pass)).collect();
    b.set_dff_word(&state_q, &next);

    // Alert output for the `default:` arm's `fsm_alert = err_signal`.
    let valid = b.or2(any_state, in_error);
    let mut alert = b.not(valid);

    // Moore output logic λ (driven by rail 0's comparators).
    let moore: Vec<NetId> = (0..fsm.outputs().len())
        .map(|oi| {
            let terms: Vec<NetId> = fsm
                .states()
                .iter()
                .filter(|&&s| fsm.asserted_outputs(s).iter().any(|o| o.0 == oi))
                .map(|&s| state_match[s.0])
                .collect();
            b.or_all(&terms)
        })
        .collect();

    // §7 extension: duplicate λ on a separate rail and fold any mismatch
    // into the alert.
    let output_check_start = b.len() as u32;
    if config.outputs_protected() && !moore.is_empty() {
        b.strash_barrier();
        let dup_match: Vec<NetId> = (0..fsm.state_count())
            .map(|s| b.eq_const(&state_q, state_code.word(s)))
            .collect();
        let mut mismatches = Vec::with_capacity(moore.len());
        for (oi, &primary) in moore.iter().enumerate() {
            let terms: Vec<NetId> = fsm
                .states()
                .iter()
                .filter(|&&s| fsm.asserted_outputs(s).iter().any(|o| o.0 == oi))
                .map(|&s| dup_match[s.0])
                .collect();
            let dup = b.or_all(&terms);
            mismatches.push(b.xor2(primary, dup));
        }
        let out_mismatch = b.or_all(&mismatches);
        alert = b.or2(alert, out_mismatch);
    }
    let output_check_end = b.len() as u32;

    b.output_word("state_e", &state_q);
    for (name, &net) in fsm.outputs().iter().zip(&moore) {
        b.output(name.clone(), net);
    }
    b.output("alert", alert);
    b.output("in_error", in_error);

    let regions = HardenRegions {
        pattern_match: pattern_start..select_start,
        modifier_select: select_start..diffusion_start,
        diffusion: diffusion_start..error_start,
        error_logic: error_start..output_check_start,
        output_check: output_check_start..output_check_end,
    };
    Ok((b.finish()?, regions))
}

impl HardenedFsm {
    /// The protected gate-level netlist.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The source FSM.
    pub fn fsm(&self) -> &Fsm {
        &self.fsm
    }

    /// The extracted control-flow graph (modifier index space).
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The configuration used.
    pub fn config(&self) -> &ScfiConfig {
        &self.config
    }

    /// The encoded-state codebook (R2).
    pub fn state_code(&self) -> &Codebook {
        &self.state_code
    }

    /// The condition-class codebook (R1).
    pub fn cond_code(&self) -> &Codebook {
        &self.cond_code
    }

    /// The mix-layer layout.
    pub fn layout(&self) -> &MixLayout {
        &self.layout
    }

    /// The MDS matrix instantiated in the diffusion layer.
    pub fn mds(&self) -> &MdsMatrix {
        &self.mds
    }

    /// Per-CFG-edge modifiers (indexed like [`Cfg::edges`]).
    pub fn modifiers(&self) -> &[BitVec] {
        &self.modifiers
    }

    /// The synthesis report.
    pub fn report(&self) -> &HardenReport {
        &self.report
    }

    /// Cell-index ranges of the φ_FH stages, for region-targeted fault
    /// campaigns.
    pub fn regions(&self) -> &HardenRegions {
        &self.regions
    }

    /// The codeword of a state.
    pub fn encode_state(&self, s: StateId) -> &BitVec {
        self.state_code.word(s.0)
    }

    /// Decodes a raw state-register word.
    pub fn decode_state(&self, word: &BitVec) -> StateDecode {
        if word.is_zero() {
            return StateDecode::Error;
        }
        match self.state_code.decode(word) {
            Some(i) => StateDecode::State(StateId(i)),
            None => StateDecode::Invalid,
        }
    }

    /// Decodes the simulator's register slice (register order = state bit
    /// order).
    pub fn decode_registers(&self, regs: &[bool]) -> StateDecode {
        self.decode_state(&BitVec::from_bools(regs))
    }

    /// Reads the `alert` and `in_error` detection lines from a sampled
    /// output-port slice, by their port positions (the hardening pass
    /// always emits them as the last two ports, after the encoded state
    /// and the Moore outputs).
    ///
    /// Fault-analysis code must use this accessor instead of hand-indexing
    /// `outputs[len - 2]`: the accessor anchors on the *module's* port
    /// count, so a slice sampled from a different module fails the width
    /// check loudly instead of silently reading an arbitrary output bit.
    ///
    /// # Panics
    ///
    /// Panics if the module exposes fewer than two output ports (no
    /// hardened module does — `alert` and `in_error` are unconditionally
    /// emitted); `debug_assert`s that `outputs` matches the module's
    /// output-port count.
    pub fn alert_lines(&self, outputs: &[bool]) -> (bool, bool) {
        let n_ports = self.module.outputs().len();
        assert!(
            n_ports >= 2,
            "hardened module must expose the alert and in_error ports"
        );
        debug_assert_eq!(
            outputs.len(),
            n_ports,
            "output slice width {} does not match the hardened module's {} ports",
            outputs.len(),
            n_ports
        );
        (outputs[n_ports - 2], outputs[n_ports - 1])
    }

    /// The interface encoder the paper assumes in the driving modules:
    /// maps the behavioral situation `(state, raw control signals)` to the
    /// encoded control word `X_e` for this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `raw_inputs` does not match the FSM's signal count.
    pub fn encode_condition(&self, s: StateId, raw_inputs: &[bool]) -> BitVec {
        let ei = self.cfg.matched_edge(s, raw_inputs);
        let class = self.cfg.edges()[ei].local_index(&self.fsm);
        self.cond_code.word(class).clone()
    }

    /// The condition codeword for a specific local edge class.
    pub fn condition_word(&self, class: usize) -> &BitVec {
        self.cond_code.word(class)
    }

    /// The fault-free expectation: from decoded state `cur` under control
    /// word `xe`, where must a correct SCFI FSM go?
    ///
    /// Used by the fault-analysis engine to classify outcomes: a faulty run
    /// ending anywhere else is either *detected* (ERROR) or a *hijack*
    /// (valid-but-wrong state).
    pub fn expected_next(&self, cur: StateDecode, xe: &BitVec) -> StateDecode {
        match cur {
            StateDecode::Error | StateDecode::Invalid => StateDecode::Error,
            StateDecode::State(s) => match self.cond_code.decode(xe) {
                Some(class) => {
                    let edges = self.cfg.out_edges(s);
                    match edges.iter().find(|e| e.local_index(&self.fsm) == class) {
                        Some(e) => StateDecode::State(e.to),
                        None => StateDecode::Error,
                    }
                }
                None => StateDecode::Error,
            },
        }
    }

    /// Lock-step random-walk equivalence check against the behavioral FSM;
    /// see [`crate::verify::lockstep`].
    ///
    /// # Errors
    ///
    /// [`ScfiError::Equivalence`] describing the first divergence.
    pub fn check_equivalence(&self, steps: usize, seed: u64) -> Result<(), ScfiError> {
        crate::verify::lockstep(self, steps, seed)
    }

    /// Drives every CFG edge once and checks the netlist lands in the
    /// edge's target with no alert; see [`crate::verify::all_edges`].
    ///
    /// # Errors
    ///
    /// [`ScfiError::Equivalence`] describing the first wrong edge.
    pub fn check_all_edges(&self) -> Result<(), ScfiError> {
        crate::verify::all_edges(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfi_fsm::parse_fsm;
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

    #[test]
    fn hardens_and_reports() {
        let h = harden(&lock(), &ScfiConfig::new(2)).unwrap();
        let r = h.report();
        assert_eq!(r.n_states, 3);
        // LOCKED: 2 explicit + stay; OPEN: 2 + stay; ALARM: unconditional.
        assert_eq!(r.n_edges, 7);
        assert!(r.state_width >= 3);
        assert!(r.instances >= 1);
        assert!(r.diffusion_xors > 0);
        assert!(h.module().output_net("alert").is_some());
        assert!(h.module().output_net("in_error").is_some());
    }

    #[test]
    fn reset_state_decodes() {
        let fsm = lock();
        let h = harden(&fsm, &ScfiConfig::new(2)).unwrap();
        let sim = Simulator::new(h.module());
        assert_eq!(
            h.decode_registers(sim.register_values()),
            StateDecode::State(fsm.reset_state())
        );
    }

    #[test]
    fn every_edge_lands_correctly() {
        for n in [2, 3, 4] {
            let h = harden(&lock(), &ScfiConfig::new(n)).unwrap();
            h.check_all_edges().unwrap_or_else(|e| panic!("N={n}: {e}"));
        }
    }

    #[test]
    fn random_walk_equivalence() {
        let h = harden(&lock(), &ScfiConfig::new(3)).unwrap();
        h.check_equivalence(500, 0xDEAD).unwrap();
    }

    #[test]
    fn invalid_control_word_forces_error() {
        let fsm = lock();
        let h = harden(&fsm, &ScfiConfig::new(2)).unwrap();
        let mut sim = Simulator::new(h.module());
        // An all-zero xe is never a valid codeword (weight ≥ N).
        let xw = h.cond_code().width();
        sim.step(&vec![false; xw]);
        assert_eq!(
            h.decode_registers(sim.register_values()),
            StateDecode::Error
        );
        // ERROR is terminal even under a valid condition word.
        let xe: Vec<bool> = h.condition_word(0).iter().collect();
        sim.step(&xe);
        assert_eq!(
            h.decode_registers(sim.register_values()),
            StateDecode::Error
        );
        // in_error output is asserted.
        let out = sim.step(&xe);
        let in_error_idx = h.module().outputs().len() - 1;
        assert!(out[in_error_idx]);
    }

    #[test]
    fn single_register_bit_flip_detected() {
        // FT1 with one flip at N=2: register word becomes invalid; the next
        // cycle must collapse into ERROR, never into another valid state.
        let fsm = lock();
        let h = harden(&fsm, &ScfiConfig::new(2)).unwrap();
        let regs = h.module().registers().to_vec();
        for (i, &reg) in regs.iter().enumerate() {
            let mut sim = Simulator::new(h.module());
            sim.flip_register(reg);
            let xe: Vec<bool> = h
                .encode_condition(fsm.reset_state(), &[false, false])
                .iter()
                .collect();
            sim.step(&xe);
            let decoded = h.decode_registers(sim.register_values());
            assert_eq!(decoded, StateDecode::Error, "reg bit {i} flip escaped");
        }
    }

    #[test]
    fn expected_next_tracks_semantics() {
        let fsm = lock();
        let h = harden(&fsm, &ScfiConfig::new(2)).unwrap();
        let locked = fsm.state_by_name("LOCKED").unwrap();
        let open = fsm.state_by_name("OPEN").unwrap();
        let xe = h.encode_condition(locked, &[true, false]);
        assert_eq!(
            h.expected_next(StateDecode::State(locked), &xe),
            StateDecode::State(open)
        );
        let zero = BitVec::zeros(h.cond_code().width());
        assert_eq!(
            h.expected_next(StateDecode::State(locked), &zero),
            StateDecode::Error
        );
        assert_eq!(h.expected_next(StateDecode::Error, &xe), StateDecode::Error);
    }

    #[test]
    fn protection_level_one_rejected() {
        assert!(matches!(
            harden(&lock(), &ScfiConfig::new(1)),
            Err(ScfiError::ProtectionLevelTooLow { requested: 1 })
        ));
    }

    #[test]
    fn decode_state_classifies() {
        let h = harden(&lock(), &ScfiConfig::new(2)).unwrap();
        let sw = h.state_code().width();
        assert_eq!(h.decode_state(&BitVec::zeros(sw)), StateDecode::Error);
        assert_eq!(
            h.decode_state(h.encode_state(StateId(1))),
            StateDecode::State(StateId(1))
        );
        // A 1-bit corruption of a codeword is Invalid at d >= 2.
        let mut w = h.encode_state(StateId(1)).clone();
        w.set(0, !w.get(0));
        assert_eq!(h.decode_state(&w), StateDecode::Invalid);
    }

    #[test]
    fn aes_matrix_configuration_works() {
        use scfi_mds::MdsSpec;
        let h = harden(&lock(), &ScfiConfig::new(2).mds(MdsSpec::AesMixColumns)).unwrap();
        h.check_all_edges().unwrap();
    }

    #[test]
    fn regions_are_contiguous_and_nonempty() {
        let h = harden(&lock(), &ScfiConfig::new(2)).unwrap();
        let r = h.regions();
        assert!(r.pattern_match.start < r.pattern_match.end);
        assert_eq!(r.pattern_match.end, r.modifier_select.start);
        assert_eq!(r.modifier_select.end, r.diffusion.start);
        assert_eq!(r.diffusion.end, r.error_logic.start);
        assert_eq!(r.error_logic.end, r.output_check.start);
        assert!(r.output_check.is_empty(), "disabled by default");
        assert!(r.output_check.end as usize <= h.module().len());
        // The diffusion region is dominated by XOR cells.
        let xors = (r.diffusion.start..r.diffusion.end)
            .filter(|&i| {
                matches!(
                    h.module().cells()[i as usize].kind,
                    scfi_netlist::CellKind::Xor | scfi_netlist::CellKind::Not
                )
            })
            .count();
        assert!(xors * 2 > (r.diffusion.end - r.diffusion.start) as usize);
    }

    #[test]
    fn adaptive_mds_picks_a_smaller_matrix() {
        // lock(): 3 states, small widths → a 24-bit (or 16-bit) matrix fits.
        let fixed = harden(&lock(), &ScfiConfig::new(2)).unwrap();
        let adaptive = harden(&lock(), &ScfiConfig::new(2).adaptive_mds(true)).unwrap();
        assert!(adaptive.mds().width() < fixed.mds().width());
        adaptive.check_all_edges().unwrap();
        adaptive.check_equivalence(300, 5).unwrap();
        // Smaller matrix → fewer diffusion XORs.
        assert!(adaptive.report().diffusion_xors < fixed.report().diffusion_xors);
    }

    #[test]
    fn adapt_spec_thresholds() {
        assert_eq!(adapt_mds_spec(4, 4, 2), MdsSpec::Lightweight16);
        assert_eq!(adapt_mds_spec(7, 5, 3), MdsSpec::Lightweight24);
        assert_eq!(adapt_mds_spec(11, 8, 4), MdsSpec::ScfiLightweight);
        // Error-bit bound can veto a small matrix (e must stay < width/2).
        assert_eq!(adapt_mds_spec(3, 2, 8), MdsSpec::Lightweight24);
        assert_eq!(adapt_mds_spec(3, 2, 12), MdsSpec::ScfiLightweight);
    }

    #[test]
    fn selector_rails_preserve_behavior_and_grow_pattern_region() {
        let base = harden(&lock(), &ScfiConfig::new(2)).unwrap();
        let railed = harden(&lock(), &ScfiConfig::new(2).selector_rails(2)).unwrap();
        railed.check_all_edges().unwrap();
        railed.check_equivalence(300, 9).unwrap();
        assert!(
            railed.regions().pattern_match.len() > base.regions().pattern_match.len(),
            "second rail must add comparator cells"
        );
    }

    #[test]
    fn protected_outputs_raise_alert_on_output_fault() {
        let fsm = lock();
        let h = harden(&fsm, &ScfiConfig::new(2).protect_outputs(true)).unwrap();
        assert!(!h.regions().output_check.is_empty());
        h.check_equivalence(200, 3).unwrap();
        // Walk to OPEN (asserts `open`), then flip the primary output net.
        let open = fsm.state_by_name("OPEN").unwrap();
        let mut sim = Simulator::new(h.module());
        let code: Vec<bool> = h.encode_state(open).iter().collect();
        sim.set_register_values(&code);
        let open_net = h.module().output_net("open").unwrap();
        sim.set_net_flip(open_net);
        let xe: Vec<bool> = h.encode_condition(open, &[true, false]).iter().collect();
        let out = sim.step(&xe);
        let alert_idx = out.len() - 2;
        assert!(out[alert_idx], "output mismatch must raise the alert");
    }

    #[test]
    fn report_display_mentions_structure() {
        let h = harden(&lock(), &ScfiConfig::new(2)).unwrap();
        let text = h.report().to_string();
        assert!(text.contains("SCFI"));
        assert!(text.contains("edges"));
    }

    #[test]
    fn alert_lines_map_to_the_named_ports() {
        let h = harden(&lock(), &ScfiConfig::new(2)).unwrap();
        let ports = h.module().outputs();
        // The accessor's positional contract: `alert` then `in_error` are
        // the final two output ports, in that order.
        assert_eq!(ports[ports.len() - 2].0, "alert");
        assert_eq!(ports[ports.len() - 1].0, "in_error");
        // Reading through the accessor picks out exactly those two bits.
        let mut outputs = vec![false; ports.len()];
        outputs[ports.len() - 2] = true;
        assert_eq!(h.alert_lines(&outputs), (true, false));
        outputs[ports.len() - 2] = false;
        outputs[ports.len() - 1] = true;
        assert_eq!(h.alert_lines(&outputs), (false, true));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "width")]
    fn alert_lines_reject_mismatched_slices() {
        let h = harden(&lock(), &ScfiConfig::new(2)).unwrap();
        let _ = h.alert_lines(&[true, false]); // not this module's port count
    }
}
