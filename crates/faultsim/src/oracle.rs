//! Word-parallel trajectory classification.
//!
//! The wave executor's per-lane serial cost used to be extraction: every
//! live lane of every cycle pulled its registers and outputs out of the
//! packed `[u64; W]` net words into `Vec<bool>` scratch and ran the
//! target's scalar [`classify`](crate::FaultTarget::classify) — 64–256
//! codeword decodes per wave cycle, each allocating a `BitVec` and
//! scanning the codebook. A [`WaveOracle`] removes that hot path: targets
//! precompile their codebook and alert structure once, and the executor
//! classifies **whole 64-lane words at a time** with bitwise logic on the
//! packed register/output words, never extracting a lane.
//!
//! The oracle is an exact reimplementation of the targets' scalar
//! classification — `detected`/`hijack` lane masks are derived from the
//! same decode rules, so verdicts are bit-for-bit those of the scalar
//! reference. The differential suites (packed vs. scalar, every width,
//! every Table-1 FSM) pin this equivalence.

/// How a target's detection lines are read from the sampled output words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertModel {
    /// No detection mechanism: nothing ever alerts (unprotected baseline).
    None,
    /// The last two output ports are the `alert` and `in_error` lines
    /// (SCFI-hardened modules); either one asserting is an alert.
    LastTwoOutputs,
    /// The last output port is the registered alert, OR-ed with a
    /// combinational replica-bank comparison on the post-step registers:
    /// any bank `k ≥ 1` disagreeing with bank 0 over the first
    /// `state_bits` registers alerts (redundancy baseline).
    BankMismatch {
        /// Register bits per replica bank.
        state_bits: usize,
    },
}

/// A precompiled word-level classification oracle for one fault target.
///
/// Classification happens in two stages per packed word:
///
/// 1. [`WaveOracle::detected_word`] computes the *expected-state
///    independent* detection mask — alert lines, the all-zero ERROR
///    pattern, and (for targets that detect invalid codewords) the
///    complement of "matches some codeword". This is shared by every
///    scenario classified in the word.
/// 2. [`WaveOracle::classify_word`] intersects with one scenario group's
///    live-lane mask and its expected codeword, returning `(detected,
///    hijack)` lane masks; lanes in neither mask are `Masked`.
///
/// The semantics mirror the scalar targets exactly: a lane is *detected*
/// when an alert asserts or (where applicable) the register word is zero
/// or decodes to no codeword; *masked* when it holds exactly the expected
/// state's codeword and is not detected; *hijack* otherwise — a valid but
/// wrong landing with no alert.
#[derive(Clone, Debug)]
pub struct WaveOracle {
    /// `codewords[s]` is state `s`'s register codeword over the decode
    /// window (the first `codewords[s].len()` registers).
    codewords: Vec<Vec<bool>>,
    /// Zero register words decode to the terminal ERROR state (SCFI).
    zero_is_error: bool,
    /// Non-codeword register words are detected rather than hijacks
    /// (SCFI's invalid-state argument; baselines treat them as wrong
    /// landings and judge purely by the alert).
    invalid_is_detected: bool,
    alert: AlertModel,
}

impl WaveOracle {
    /// Builds an oracle from a codebook (one codeword per state, indexed
    /// by state id) and the target's detection structure.
    ///
    /// # Panics
    ///
    /// Panics if `codewords` is empty or its entries disagree on width.
    pub fn new(
        codewords: Vec<Vec<bool>>,
        zero_is_error: bool,
        invalid_is_detected: bool,
        alert: AlertModel,
    ) -> Self {
        assert!(!codewords.is_empty(), "oracle needs at least one codeword");
        let width = codewords[0].len();
        assert!(
            codewords.iter().all(|w| w.len() == width),
            "codewords must share one width"
        );
        WaveOracle {
            codewords,
            zero_is_error,
            invalid_is_detected,
            alert,
        }
    }

    /// Registers participating in the decode (a prefix of the module's
    /// register order).
    pub fn decode_width(&self) -> usize {
        self.codewords[0].len()
    }

    /// Lanes of `word` whose decode-window registers equal `pattern`.
    fn eq_word<const W: usize>(pattern: &[bool], word: usize, regs: &[[u64; W]]) -> u64 {
        let mut acc = !0u64;
        for (i, &bit) in pattern.iter().enumerate() {
            let r = regs[i][word];
            acc &= if bit { r } else { !r };
        }
        acc
    }

    /// The expected-state-independent detection mask of one packed word:
    /// alert lines, plus (per the oracle's flags) the all-zero ERROR
    /// pattern and non-codeword register words. `regs` and `outputs` are
    /// the post-step packed register and output-port words.
    pub fn detected_word<const W: usize>(
        &self,
        word: usize,
        regs: &[[u64; W]],
        outputs: &[[u64; W]],
    ) -> u64 {
        let mut detected = match self.alert {
            AlertModel::None => 0,
            AlertModel::LastTwoOutputs => {
                let n = outputs.len();
                outputs[n - 2][word] | outputs[n - 1][word]
            }
            AlertModel::BankMismatch { state_bits } => {
                let mut m = outputs[outputs.len() - 1][word];
                // A ragged register file (not a whole number of banks)
                // compares unequal in the scalar reference; keep that.
                if !regs.len().is_multiple_of(state_bits) {
                    m = !0;
                }
                for bank in 1..regs.len() / state_bits {
                    for i in 0..state_bits {
                        m |= regs[bank * state_bits + i][word] ^ regs[i][word];
                    }
                }
                m
            }
        };
        if self.zero_is_error {
            let mut zero = !0u64;
            for reg in regs.iter().take(self.decode_width()) {
                zero &= !reg[word];
            }
            detected |= zero;
        }
        if self.invalid_is_detected {
            let mut valid = 0u64;
            for cw in &self.codewords {
                valid |= Self::eq_word(cw, word, regs);
            }
            detected |= !valid;
        }
        detected
    }

    /// Classifies the live lanes of one scenario group within one packed
    /// word: `detected` is [`WaveOracle::detected_word`]'s mask for this
    /// word, `expected` the fault-free landing state's codebook index,
    /// `live` the group's lane mask. Returns `(detected, hijack)` lane
    /// masks restricted to `live`; live lanes in neither are `Masked`
    /// (they hold exactly the expected codeword with no alert).
    pub fn classify_word<const W: usize>(
        &self,
        detected: u64,
        expected: usize,
        word: usize,
        live: u64,
        regs: &[[u64; W]],
    ) -> (u64, u64) {
        let on_target = Self::eq_word(&self.codewords[expected], word, regs);
        (live & detected, live & !detected & !on_target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 3-bit codewords packed one lane at a time; lanes hold, in
    /// order: state 0, state 1, the zero word, an off-codebook word.
    fn reg_words() -> Vec<[u64; 1]> {
        let patterns: [[bool; 3]; 4] = [
            [true, false, true], // codeword 0
            [false, true, true], // codeword 1
            [false, false, false],
            [true, true, false], // invalid
        ];
        (0..3)
            .map(|bit| {
                let mut w = 0u64;
                for (lane, p) in patterns.iter().enumerate() {
                    if p[bit] {
                        w |= 1 << lane;
                    }
                }
                [w]
            })
            .collect()
    }

    fn oracle(zero_is_error: bool, invalid_is_detected: bool, alert: AlertModel) -> WaveOracle {
        WaveOracle::new(
            vec![vec![true, false, true], vec![false, true, true]],
            zero_is_error,
            invalid_is_detected,
            alert,
        )
    }

    #[test]
    fn scfi_style_decode_detects_zero_and_invalid() {
        let o = oracle(true, true, AlertModel::LastTwoOutputs);
        let regs = reg_words();
        let outs = vec![[0u64], [0u64]]; // both alert lines quiet
        let det = o.detected_word(0, &regs, &outs);
        // Lane 2 (zero) and lane 3 (invalid) are detected; lanes 0/1 not.
        assert_eq!(det & 0b1111, 0b1100);
        // Expecting state 0: lane 0 masked, lane 1 a valid-but-wrong hijack.
        let (d, h) = o.classify_word(det, 0, 0, 0b1111, &regs);
        assert_eq!(d, 0b1100);
        assert_eq!(h, 0b0010);
    }

    #[test]
    fn alert_lines_dominate_even_on_target() {
        let o = oracle(true, true, AlertModel::LastTwoOutputs);
        let regs = reg_words();
        // in_error asserted in lane 0 — the on-target lane is detected.
        let outs = vec![[0b0001u64], [0u64]];
        let det = o.detected_word(0, &regs, &outs);
        let (d, h) = o.classify_word(det, 0, 0, 0b1111, &regs);
        assert_eq!(d & 0b0001, 0b0001, "alerted on-target lane is detected");
        assert_eq!(h, 0b0010);
    }

    #[test]
    fn baseline_decode_treats_invalid_as_silent_hijack() {
        // Unprotected semantics: no alerts, no invalid detection.
        let o = oracle(false, false, AlertModel::None);
        let regs = reg_words();
        let det = o.detected_word(0, &regs, &Vec::<[u64; 1]>::new());
        assert_eq!(det, 0);
        let (d, h) = o.classify_word(det, 1, 0, 0b1111, &regs);
        assert_eq!(d, 0);
        // Everything but the expected-state lane is a hijack.
        assert_eq!(h, 0b1101);
    }

    #[test]
    fn bank_mismatch_alerts_on_replica_divergence() {
        // Two 2-bit banks: regs[0..2] bank 0, regs[2..4] bank 1.
        // Lane 0: banks agree (01|01). Lane 1: banks differ (01|11).
        let regs: Vec<[u64; 1]> = vec![[0b11], [0b00], [0b11], [0b10]];
        let o = WaveOracle::new(
            vec![vec![true, false], vec![false, true]],
            false,
            false,
            AlertModel::BankMismatch { state_bits: 2 },
        );
        let outs = vec![[0u64]]; // registered alert quiet
        let det = o.detected_word(0, &regs, &outs);
        assert_eq!(det & 0b11, 0b10);
        let (d, h) = o.classify_word(det, 0, 0, 0b11, &regs);
        assert_eq!(d, 0b10);
        assert_eq!(h, 0);
    }

    #[test]
    #[should_panic(expected = "share one width")]
    fn ragged_codebooks_are_rejected() {
        let _ = WaveOracle::new(
            vec![vec![true], vec![true, false]],
            false,
            false,
            AlertModel::None,
        );
    }
}
