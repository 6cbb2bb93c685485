//! Block matrices of GF(2) linear maps and the exact MDS check.

use std::fmt;

use scfi_gf2::{for_each_combination, BitMatrix, BitVec};

/// A `k × k` matrix whose entries are `l × l` binary matrices — GF(2)-linear
/// maps acting on `l`-bit symbols.
///
/// SCFI instantiates `k = 4`, `l = 8` (four byte lanes, Fig. 6). The matrix
/// is *MDS* iff every square block submatrix is nonsingular, which is
/// equivalent to the branch number being `k + 1` — the property the paper's
/// diffusion-layer security argument rests on.
///
/// # Example
///
/// ```
/// use scfi_gf2::BitMatrix;
/// use scfi_mds::BlockMatrix;
///
/// // The 2x2 identity-block matrix is NOT MDS: the off-diagonal blocks are 0.
/// let id = BitMatrix::identity(4);
/// let zero = BitMatrix::zero(4, 4);
/// let m = BlockMatrix::from_blocks(2, 4, vec![
///     id.clone(), zero.clone(),
///     zero, id,
/// ]);
/// assert!(!m.is_mds());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BlockMatrix {
    k: usize,
    l: usize,
    /// Row-major `k*k` blocks.
    blocks: Vec<BitMatrix>,
}

impl BlockMatrix {
    /// Creates a block matrix from `k*k` blocks in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if the number of blocks is not `k²` or any block is not
    /// `l × l`.
    pub fn from_blocks(k: usize, l: usize, blocks: Vec<BitMatrix>) -> Self {
        assert_eq!(blocks.len(), k * k, "expected k*k blocks");
        assert!(
            blocks.iter().all(|b| b.rows() == l && b.cols() == l),
            "every block must be {l}x{l}"
        );
        BlockMatrix { k, l, blocks }
    }

    /// Number of block rows/columns.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Symbol width in bits.
    pub fn l(&self) -> usize {
        self.l
    }

    /// Borrows block `(r, c)`.
    pub fn block(&self, r: usize, c: usize) -> &BitMatrix {
        &self.blocks[r * self.k + c]
    }

    /// Expands to the flat `(k·l) × (k·l)` binary matrix.
    pub fn expand(&self) -> BitMatrix {
        let n = self.k * self.l;
        let mut m = BitMatrix::zero(n, n);
        for r in 0..self.k {
            for c in 0..self.k {
                m.write_block(r * self.l, c * self.l, self.block(r, c));
            }
        }
        m
    }

    /// Exact MDS check: every `r × r` block submatrix (for every
    /// `1 ≤ r ≤ k`) must be invertible as an `(r·l) × (r·l)` binary matrix.
    ///
    /// This is the standard generalization of the minor criterion to
    /// matrices over linear maps and is the ground truth used to validate
    /// candidate constructions (the paper's ring `F₂[α]/(X⁸+X²+1)` has zero
    /// divisors, so field-style determinant arguments do not apply).
    pub fn is_mds(&self) -> bool {
        let expanded = self.expand();
        let mut ok = true;
        for r in 1..=self.k {
            if !ok {
                break;
            }
            for_each_combination(self.k, r, |rows| {
                if !ok {
                    return;
                }
                // Pre-expand row bit indices for this row subset.
                let row_bits: Vec<usize> = rows
                    .iter()
                    .flat_map(|&br| br * self.l..(br + 1) * self.l)
                    .collect();
                for_each_combination(self.k, r, |cols| {
                    if !ok {
                        return;
                    }
                    let col_bits: Vec<usize> = cols
                        .iter()
                        .flat_map(|&bc| bc * self.l..(bc + 1) * self.l)
                        .collect();
                    let sub = expanded.select(&row_bits, &col_bits);
                    if !sub.is_invertible() {
                        ok = false;
                    }
                });
            });
        }
        ok
    }

    /// Byte-lane weight of a `k·l`-bit vector: the number of `l`-bit symbols
    /// that are nonzero.
    pub fn symbol_weight(&self, v: &BitVec) -> usize {
        assert_eq!(v.len(), self.k * self.l, "vector width mismatch");
        (0..self.k)
            .filter(|&i| !v.slice(i * self.l..(i + 1) * self.l).is_zero())
            .count()
    }

    /// The minimum of `symbol_weight(x) + symbol_weight(M·x)` observed over
    /// all inputs with exactly one nonzero symbol — exhaustively.
    ///
    /// For an MDS matrix this equals `k + 1` (branch number 5 for `k = 4`,
    /// matching §6.3: "they have a branch number of 5").
    pub fn branch_number_single_symbol(&self) -> usize {
        let m = self.expand();
        let mut best = usize::MAX;
        for sym in 0..self.k {
            for val in 1..(1u64 << self.l) {
                let mut x = BitVec::zeros(self.k * self.l);
                for b in 0..self.l {
                    if (val >> b) & 1 == 1 {
                        x.set(sym * self.l + b, true);
                    }
                }
                let w = 1 + self.symbol_weight(&m.mul_vec(&x));
                best = best.min(w);
                if best <= 2 {
                    return best;
                }
            }
        }
        best
    }
}

impl fmt::Debug for BlockMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockMatrix[{0}x{0} of {1}x{1}]", self.k, self.l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfi_gf2::Gf2Poly;

    /// AES MixColumns as a block matrix: circ(α, α+1, 1, 1) over
    /// GF(2^8)/0x11B — a known-MDS reference.
    fn aes_mixcolumns() -> BlockMatrix {
        let alpha = Gf2Poly::from_coeffs(0x11B).companion_matrix();
        let one = BitMatrix::identity(8);
        let a1 = alpha.add(&one); // α + 1  (AES "3")
        let row: [&BitMatrix; 4] = [&alpha, &a1, &one, &one];
        let mut blocks = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                blocks.push(row[(c + 4 - r) % 4].clone());
            }
        }
        BlockMatrix::from_blocks(4, 8, blocks)
    }

    #[test]
    fn aes_matrix_is_mds() {
        assert!(aes_mixcolumns().is_mds());
    }

    #[test]
    fn identity_blocks_not_mds() {
        let id = BitMatrix::identity(8);
        let blocks = (0..16)
            .map(|i| {
                if i % 5 == 0 {
                    id.clone()
                } else {
                    BitMatrix::zero(8, 8)
                }
            })
            .collect();
        let m = BlockMatrix::from_blocks(4, 8, blocks);
        assert!(!m.is_mds());
    }

    #[test]
    fn all_ones_blocks_not_mds() {
        // circ(1,1,1,1) has singular 2x2 minors.
        let id = BitMatrix::identity(8);
        let m = BlockMatrix::from_blocks(4, 8, vec![id; 16]);
        assert!(!m.is_mds());
    }

    #[test]
    fn expand_layout() {
        let m = aes_mixcolumns();
        let e = m.expand();
        assert_eq!(e.rows(), 32);
        // Block (0,2) is identity → bit (0, 16) set.
        assert!(e.get(0, 16));
    }

    #[test]
    fn aes_branch_number_is_five() {
        assert_eq!(aes_mixcolumns().branch_number_single_symbol(), 5);
    }

    #[test]
    fn symbol_weight_counts_nonzero_lanes() {
        let m = aes_mixcolumns();
        let mut v = BitVec::zeros(32);
        assert_eq!(m.symbol_weight(&v), 0);
        v.set(0, true);
        v.set(9, true);
        v.set(10, true);
        assert_eq!(m.symbol_weight(&v), 2);
    }

    #[test]
    fn aes_expanded_is_invertible() {
        assert!(aes_mixcolumns().expand().is_invertible());
    }
}
