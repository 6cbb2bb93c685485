//! Hamming-distance-N codebook construction for SCFI's encoded states and
//! control signals.
//!
//! SCFI requires (paper §4, R1/R2) that all control signals and all FSM
//! states are encoded such that turning any valid codeword into another
//! valid codeword costs an attacker at least `N` bit flips — i.e. the
//! codebook has minimum pairwise Hamming distance `N`.
//!
//! Additionally, this reproduction reserves the **all-zero word** as the
//! terminal ERROR encoding (the error-masking AND layer forces the next
//! state to zero on any detected fault), so operational codewords must also
//! keep distance `N` from zero — equivalently, have Hamming weight ≥ N.
//! [`CodeSpec::min_weight`] defaults accordingly.
//!
//! The construction is a classic greedy *lexicode*: scan words in numeric
//! order and keep every word that respects the distance/weight constraints
//! against all previously kept words. [`CodeSpec::build`] searches the
//! smallest width for which the lexicode yields enough codewords.
//!
//! # Example
//!
//! ```
//! use scfi_encode::CodeSpec;
//!
//! // 5 states, protection level N = 3.
//! let code = CodeSpec::new(5, 3).build()?;
//! assert!(code.width() >= 5);
//! assert!(code.verify());
//! for i in 0..5 {
//!     assert_eq!(code.decode(code.word(i)), Some(i));
//! }
//! # Ok::<(), scfi_encode::CodeError>(())
//! ```

use std::fmt;

use scfi_gf2::BitVec;

/// Errors from codebook construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodeError {
    /// No code with the requested parameters was found up to
    /// [`CodeSpec::max_width`].
    WidthExhausted {
        /// Number of codewords requested.
        count: usize,
        /// Required minimum distance.
        min_distance: usize,
        /// Largest width tried.
        max_width: usize,
    },
    /// A requested parameter is degenerate (zero codewords or distance).
    InvalidSpec(&'static str),
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::WidthExhausted {
                count,
                min_distance,
                max_width,
            } => write!(
                f,
                "no {count}-word code with distance {min_distance} found up to width {max_width}"
            ),
            CodeError::InvalidSpec(what) => write!(f, "invalid code spec: {what}"),
        }
    }
}

impl std::error::Error for CodeError {}

/// Parameters for building a [`Codebook`].
///
/// `count` codewords with pairwise Hamming distance ≥ `min_distance` and
/// per-word Hamming weight in `min_weight ..= max_weight`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodeSpec {
    count: usize,
    min_distance: usize,
    min_weight: usize,
    max_weight: Option<usize>,
    fixed_width: Option<usize>,
    max_width: usize,
}

impl CodeSpec {
    /// Spec for `count` codewords at protection level `min_distance`,
    /// with the SCFI default weight floor (`min_weight = min_distance`,
    /// keeping every word N flips away from the all-zero ERROR encoding).
    pub fn new(count: usize, min_distance: usize) -> Self {
        CodeSpec {
            count,
            min_distance,
            min_weight: min_distance,
            max_weight: None,
            fixed_width: None,
            max_width: 48,
        }
    }

    /// Overrides the minimum Hamming weight (0 disables the floor and
    /// permits the all-zero codeword).
    pub fn min_weight(mut self, w: usize) -> Self {
        self.min_weight = w;
        self
    }

    /// Caps the Hamming weight — OpenTitan-style *sparse* encodings bound
    /// both sides so single-direction biases (e.g. laser-induced set-only
    /// faults) cannot reach another codeword.
    pub fn max_weight(mut self, w: usize) -> Self {
        self.max_weight = Some(w);
        self
    }

    /// Forces an exact width instead of searching for the smallest.
    pub fn width(mut self, w: usize) -> Self {
        self.fixed_width = Some(w);
        self
    }

    /// Caps the width search (default 48).
    pub fn max_width(mut self, w: usize) -> Self {
        self.max_width = w;
        self
    }

    /// Builds the codebook.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidSpec`] for zero counts/distances, or
    /// [`CodeError::WidthExhausted`] if no width up to the cap admits the
    /// requested code.
    pub fn build(&self) -> Result<Codebook, CodeError> {
        if self.count == 0 {
            return Err(CodeError::InvalidSpec("count must be at least 1"));
        }
        if self.min_distance == 0 {
            return Err(CodeError::InvalidSpec("distance must be at least 1"));
        }
        if let Some(maxw) = self.max_weight {
            if maxw < self.min_weight {
                return Err(CodeError::InvalidSpec("max_weight below min_weight"));
            }
        }
        let lower = lower_bound_width(self.count, self.min_distance).max(self.min_weight);
        let widths: Vec<usize> = match self.fixed_width {
            Some(w) => vec![w],
            None => (lower..=self.max_width).collect(),
        };
        for width in widths {
            if let Some(words) = lexicode(
                self.count,
                width,
                self.min_distance,
                self.min_weight,
                self.max_weight,
            ) {
                return Ok(Codebook {
                    width,
                    min_distance: self.min_distance,
                    words,
                });
            }
        }
        Err(CodeError::WidthExhausted {
            count: self.count,
            min_distance: self.min_distance,
            max_width: self.fixed_width.unwrap_or(self.max_width),
        })
    }
}

/// A minimal lower bound for the search start: information-theoretic
/// (`⌈log₂ count⌉`) and Singleton (`d − 1` extra bits beyond a distinct
/// symbol).
fn lower_bound_width(count: usize, d: usize) -> usize {
    let info = usize::BITS as usize - (count - 1).leading_zeros() as usize;
    let info = if count == 1 { 1 } else { info };
    info + d - 1
}

/// Greedy lexicode: returns `count` words of `width` bits with pairwise
/// distance ≥ `d` and weight within bounds, or `None` if the space is
/// exhausted first.
fn lexicode(
    count: usize,
    width: usize,
    d: usize,
    min_weight: usize,
    max_weight: Option<usize>,
) -> Option<Vec<BitVec>> {
    if width > 48 {
        return None; // enumeration guard: 2^48 is already generous
    }
    let mut words: Vec<BitVec> = Vec::with_capacity(count);
    let limit: u64 = 1u64 << width;
    for value in 0..limit {
        let w = value.count_ones() as usize;
        if w < min_weight {
            continue;
        }
        if let Some(maxw) = max_weight {
            if w > maxw {
                continue;
            }
        }
        let cand = BitVec::from_u64(value, width);
        if words.iter().all(|x| x.hamming_distance(&cand) >= d) {
            words.push(cand);
            if words.len() == count {
                return Some(words);
            }
        }
    }
    None
}

/// A verified set of codewords with a minimum pairwise Hamming distance.
///
/// Index `i` encodes symbol `i`; see [`CodeSpec`] for construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Codebook {
    width: usize,
    min_distance: usize,
    words: Vec<BitVec>,
}

impl Codebook {
    /// Codeword width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Guaranteed minimum pairwise distance.
    pub fn min_distance(&self) -> usize {
        self.min_distance
    }

    /// Number of codewords.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` if the codebook is empty (never produced by
    /// [`CodeSpec::build`]).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The codeword for symbol `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn word(&self, index: usize) -> &BitVec {
        &self.words[index]
    }

    /// All codewords in symbol order.
    pub fn words(&self) -> &[BitVec] {
        &self.words
    }

    /// Exact decode: the symbol whose codeword equals `word`, if any.
    pub fn decode(&self, word: &BitVec) -> Option<usize> {
        self.words.iter().position(|w| w == word)
    }

    /// The smallest pairwise distance actually present (≥
    /// [`Codebook::min_distance`] for a verified book).
    pub fn actual_min_distance(&self) -> usize {
        let mut best = usize::MAX;
        for i in 0..self.words.len() {
            for j in i + 1..self.words.len() {
                best = best.min(self.words[i].hamming_distance(&self.words[j]));
            }
        }
        best
    }

    /// Re-verifies the distance guarantee (pairwise plus — when every word
    /// has weight ≥ distance — separation from the all-zero ERROR word).
    pub fn verify(&self) -> bool {
        self.words.len() <= 1 || self.actual_min_distance() >= self.min_distance
    }

    /// The smallest Hamming weight among codewords — the cost of reaching
    /// the all-zero ERROR word by faults.
    pub fn min_weight(&self) -> usize {
        self.words.iter().map(BitVec::count_ones).min().unwrap_or(0)
    }
}

impl fmt::Display for Codebook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Codebook({} words x {} bits, d >= {})",
            self.words.len(),
            self.width,
            self.min_distance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_minimal_distance_one() {
        // d=1, weight floor 1 → just distinct nonzero words.
        let code = CodeSpec::new(3, 1).build().unwrap();
        assert!(code.verify());
        assert_eq!(code.len(), 3);
        assert!(code.min_weight() >= 1);
    }

    #[test]
    fn distance_two_and_three() {
        for d in 2..=4 {
            let code = CodeSpec::new(8, d).build().unwrap();
            assert!(code.verify(), "d={d}");
            assert!(code.actual_min_distance() >= d);
            assert!(code.min_weight() >= d, "all words must be d away from 0");
        }
    }

    #[test]
    fn width_is_reasonably_small() {
        // 8 codewords at d=2 fit in a parity-extended 4-bit space → ≤ 5
        // bits once the zero word is excluded it may take one more.
        let code = CodeSpec::new(8, 2).build().unwrap();
        assert!(code.width() <= 6, "got width {}", code.width());
        // d=4, 16 words: extended Hamming-like, lexicode finds ≤ 9 bits.
        let code = CodeSpec::new(16, 4).build().unwrap();
        assert!(code.width() <= 10, "got width {}", code.width());
    }

    #[test]
    fn decode_round_trip_and_nearest() {
        let code = CodeSpec::new(6, 3).build().unwrap();
        for i in 0..6 {
            assert_eq!(code.decode(code.word(i)), Some(i));
        }
        // A single bit flip is no codeword at d >= 3.
        let mut flipped = code.word(2).clone();
        flipped.set(0, !flipped.get(0));
        assert_eq!(code.decode(&flipped), None);
    }

    #[test]
    fn zero_word_is_excluded_by_default() {
        let code = CodeSpec::new(10, 2).build().unwrap();
        let zero = BitVec::zeros(code.width());
        assert_eq!(code.decode(&zero), None);
        assert!(code.min_weight() >= 2);
    }

    #[test]
    fn zero_word_allowed_when_floor_disabled() {
        let code = CodeSpec::new(4, 2).min_weight(0).build().unwrap();
        assert_eq!(code.decode(&BitVec::zeros(code.width())), Some(0));
    }

    #[test]
    fn sparse_weight_window() {
        let code = CodeSpec::new(5, 2)
            .min_weight(3)
            .max_weight(5)
            .build()
            .unwrap();
        for w in code.words() {
            let ones = w.count_ones();
            assert!((3..=5).contains(&ones), "weight {ones} outside window");
        }
        assert!(code.verify());
    }

    #[test]
    fn fixed_width_too_small_fails() {
        let err = CodeSpec::new(16, 4).width(5).build().unwrap_err();
        assert!(matches!(err, CodeError::WidthExhausted { .. }));
        assert!(err.to_string().contains("width 5"));
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(matches!(
            CodeSpec::new(0, 2).build(),
            Err(CodeError::InvalidSpec(_))
        ));
        assert!(matches!(
            CodeSpec::new(4, 0).build(),
            Err(CodeError::InvalidSpec(_))
        ));
        assert!(matches!(
            CodeSpec::new(4, 2).min_weight(5).max_weight(4).build(),
            Err(CodeError::InvalidSpec(_))
        ));
    }

    #[test]
    fn single_word_code() {
        let code = CodeSpec::new(1, 4).build().unwrap();
        assert_eq!(code.len(), 1);
        assert!(code.verify());
        assert!(code.word(0).count_ones() >= 4);
    }

    #[test]
    fn scfi_table1_like_scales() {
        // The kinds of FSMs Table 1 protects: up to ~30 states, N up to 4.
        for (states, n) in [(13, 2), (13, 3), (13, 4), (30, 2), (30, 4), (11, 3)] {
            let code = CodeSpec::new(states, n).build().unwrap();
            assert!(code.verify(), "{states} states at N={n}");
            assert!(
                code.width() <= 16,
                "{states}@{n} took {} bits",
                code.width()
            );
        }
    }

    #[test]
    fn display_mentions_parameters() {
        let code = CodeSpec::new(3, 2).build().unwrap();
        let s = code.to_string();
        assert!(s.contains("3 words"));
        assert!(s.contains("d >= 2"));
    }

    #[test]
    fn lower_bound_width_sane() {
        assert_eq!(lower_bound_width(2, 1), 1);
        assert_eq!(lower_bound_width(2, 2), 2);
        assert_eq!(lower_bound_width(16, 1), 4);
        assert_eq!(lower_bound_width(1, 3), 3);
    }
}
