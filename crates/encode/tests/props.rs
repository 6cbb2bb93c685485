//! Property-based tests for codebook construction.

use proptest::prelude::*;
use scfi_encode::CodeSpec;
use scfi_gf2::BitVec;

proptest! {
    /// Every buildable spec yields a verified book with the requested
    /// count, distance, and weight floor.
    #[test]
    fn built_codebooks_verify(count in 1usize..20, d in 1usize..5) {
        let code = CodeSpec::new(count, d).build().expect("buildable in 48 bits");
        prop_assert_eq!(code.len(), count);
        prop_assert!(code.verify());
        prop_assert!(code.actual_min_distance() >= d || count == 1);
        prop_assert!(code.min_weight() >= d);
    }

    /// Exact decoding rejects every single-bit error whenever the
    /// distance is at least 3.
    #[test]
    fn nearest_decode_corrects_one_flip(count in 2usize..12, flip in any::<proptest::sample::Index>()) {
        let code = CodeSpec::new(count, 3).build().expect("buildable");
        for i in 0..count {
            let mut w = code.word(i).clone();
            let pos = flip.index(w.len());
            w.set(pos, !w.get(pos));
            prop_assert_eq!(code.decode(&w), None);
        }
    }

    /// Weight windows are honored.
    #[test]
    fn sparse_windows_hold(count in 1usize..8, lo in 2usize..4) {
        let hi = lo + 2;
        if let Ok(code) = CodeSpec::new(count, 2).min_weight(lo).max_weight(hi).build() {
            for w in code.words() {
                let ones = w.count_ones();
                prop_assert!(ones >= lo && ones <= hi);
            }
        }
    }

    /// The all-zero word is never a codeword under the default floor, so
    /// the terminal ERROR encoding is always N flips away.
    #[test]
    fn zero_word_always_excluded(count in 1usize..16, d in 2usize..5) {
        let code = CodeSpec::new(count, d).build().expect("buildable");
        prop_assert_eq!(code.decode(&BitVec::zeros(code.width())), None);
    }

    /// Forcing the found width reproduces an equivalent codebook.
    #[test]
    fn fixed_width_reproduces(count in 2usize..10, d in 2usize..4) {
        let free = CodeSpec::new(count, d).build().expect("buildable");
        let fixed = CodeSpec::new(count, d)
            .width(free.width())
            .build()
            .expect("same width must work");
        prop_assert_eq!(free.words(), fixed.words());
    }
}
