//! Dense binary matrices with Gaussian elimination.

use std::fmt;
use std::ops::Mul;

use crate::BitVec;

/// A dense matrix over GF(2), stored row-major as [`BitVec`] rows.
///
/// Supports the operations the SCFI pass needs at synthesis time: products,
/// transpose, rank, inversion, solving `A·x = b`, row/column selection, and
/// block composition.
///
/// # Example
///
/// ```
/// use scfi_gf2::BitMatrix;
///
/// let a = BitMatrix::identity(4);
/// assert!(a.is_invertible());
/// assert_eq!(a.mul_matrix(&a), a);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    data: Vec<BitVec>,
}

impl BitMatrix {
    /// Creates a `rows × cols` all-zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        BitMatrix {
            rows,
            cols,
            data: (0..rows).map(|_| BitVec::zeros(cols)).collect(),
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = BitMatrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = BitMatrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Creates a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: Vec<BitVec>) -> Self {
        let cols = rows.first().map_or(0, BitVec::len);
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have equal length"
        );
        BitMatrix {
            rows: rows.len(),
            cols,
            data: rows,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Reads entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.data[r].get(c)
    }

    /// Writes entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        self.data[r].set(c, value);
    }

    /// Borrows row `r`.
    pub fn row(&self, r: usize) -> &BitVec {
        &self.data[r]
    }

    /// Returns `true` if every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(BitVec::is_zero)
    }

    /// Total number of one entries (the naive XOR-relevant density).
    pub fn count_ones(&self) -> usize {
        self.data.iter().map(BitVec::count_ones).sum()
    }

    /// Matrix sum over GF(2) (entry-wise XOR).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a.clone() ^ b.clone())
            .collect();
        BitMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        BitVec::from_bools(&self.data.iter().map(|row| row.dot(v)).collect::<Vec<_>>())
    }

    /// Matrix–matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn mul_matrix(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in mul_matrix");
        // Row-by-row accumulation: out_row = XOR of other rows selected by
        // self row bits. Word-parallel via BitVec xor.
        let mut out = BitMatrix::zero(self.rows, other.cols);
        for r in 0..self.rows {
            let mut acc = BitVec::zeros(other.cols);
            for c in 0..self.cols {
                if self.get(r, c) {
                    acc ^= &other.data[c];
                }
            }
            out.data[r] = acc;
        }
        out
    }

    /// Matrix power `self^k` (square matrices only).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn pow(&self, mut k: u64) -> BitMatrix {
        assert!(self.is_square(), "pow requires a square matrix");
        let mut result = BitMatrix::identity(self.rows);
        let mut base = self.clone();
        while k > 0 {
            if k & 1 == 1 {
                result = result.mul_matrix(&base);
            }
            base = base.mul_matrix(&base);
            k >>= 1;
        }
        result
    }

    /// Transposed copy.
    pub fn transpose(&self) -> BitMatrix {
        BitMatrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Rank via Gaussian elimination.
    pub fn rank(&self) -> usize {
        let mut m = self.data.clone();
        let mut rank = 0usize;
        for col in 0..self.cols {
            // Find pivot at or below `rank`.
            let Some(pivot) = (rank..self.rows).find(|&r| m[r].get(col)) else {
                continue;
            };
            m.swap(rank, pivot);
            let pivot_row = m[rank].clone();
            for (r, row) in m.iter_mut().enumerate() {
                if r != rank && row.get(col) {
                    *row ^= &pivot_row;
                }
            }
            rank += 1;
            if rank == self.rows {
                break;
            }
        }
        rank
    }

    /// Returns `true` if the matrix is square with full rank.
    pub fn is_invertible(&self) -> bool {
        self.is_square() && self.rank() == self.rows
    }

    /// The pivot columns of the row-echelon reduction, in ascending order.
    ///
    /// For a matrix of full row rank, selecting these columns yields an
    /// invertible square submatrix — used by the SCFI mix layer to place
    /// modifier bits.
    pub fn pivot_columns(&self) -> Vec<usize> {
        let mut m = self.data.clone();
        let mut pivots = Vec::new();
        let mut rank = 0usize;
        for col in 0..self.cols {
            let Some(p) = (rank..self.rows).find(|&r| m[r].get(col)) else {
                continue;
            };
            m.swap(rank, p);
            let pivot_row = m[rank].clone();
            for (r, row) in m.iter_mut().enumerate() {
                if r != rank && row.get(col) {
                    *row ^= &pivot_row;
                }
            }
            pivots.push(col);
            rank += 1;
            if rank == self.rows {
                break;
            }
        }
        pivots
    }

    /// Inverse of a square matrix, or `None` if singular.
    pub fn inverse(&self) -> Option<BitMatrix> {
        if !self.is_square() {
            return None;
        }
        let n = self.rows;
        let mut left = self.data.clone();
        let mut right: Vec<BitVec> = (0..n)
            .map(|i| {
                let mut v = BitVec::zeros(n);
                v.set(i, true);
                v
            })
            .collect();
        for col in 0..n {
            let pivot = (col..n).find(|&r| left[r].get(col))?;
            left.swap(col, pivot);
            right.swap(col, pivot);
            let (lp, rp) = (left[col].clone(), right[col].clone());
            for r in 0..n {
                if r != col && left[r].get(col) {
                    left[r] ^= &lp;
                    right[r] ^= &rp;
                }
            }
        }
        Some(BitMatrix::from_rows(right))
    }

    /// Solves `self · x = b`, returning one solution if the system is
    /// consistent and `None` otherwise.
    ///
    /// Free variables are set to zero.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.rows()`.
    pub fn solve(&self, b: &BitVec) -> Option<BitVec> {
        assert_eq!(b.len(), self.rows, "dimension mismatch in solve");
        // Augmented elimination on [A | b].
        let mut a = self.data.clone();
        let mut rhs: Vec<bool> = b.iter().collect();
        let mut pivot_col_of_row: Vec<usize> = Vec::new();
        let mut rank = 0usize;
        for col in 0..self.cols {
            let Some(p) = (rank..self.rows).find(|&r| a[r].get(col)) else {
                continue;
            };
            a.swap(rank, p);
            rhs.swap(rank, p);
            let pivot_row = a[rank].clone();
            let pivot_rhs = rhs[rank];
            for r in 0..self.rows {
                if r != rank && a[r].get(col) {
                    let v = a[r].clone() ^ pivot_row.clone();
                    a[r] = v;
                    rhs[r] ^= pivot_rhs;
                }
            }
            pivot_col_of_row.push(col);
            rank += 1;
            if rank == self.rows {
                break;
            }
        }
        // Inconsistency: a zero row with nonzero rhs.
        for r in rank..self.rows {
            if rhs[r] && a[r].is_zero() {
                return None;
            }
        }
        let mut x = BitVec::zeros(self.cols);
        for (r, &col) in pivot_col_of_row.iter().enumerate() {
            if rhs[r] {
                x.set(col, true);
            }
        }
        Some(x)
    }

    /// Extracts the submatrix formed by `row_idx × col_idx`, in the given
    /// index order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select(&self, row_idx: &[usize], col_idx: &[usize]) -> BitMatrix {
        BitMatrix::from_fn(row_idx.len(), col_idx.len(), |r, c| {
            self.get(row_idx[r], col_idx[c])
        })
    }

    /// Horizontal concatenation `[self | right]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hstack(&self, right: &BitMatrix) -> BitMatrix {
        assert_eq!(self.rows, right.rows, "row mismatch in hstack");
        BitMatrix::from_rows(
            self.data
                .iter()
                .zip(&right.data)
                .map(|(a, b)| a.concat(b))
                .collect(),
        )
    }

    /// Vertical concatenation `[self; below]`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn vstack(&self, below: &BitMatrix) -> BitMatrix {
        assert_eq!(self.cols, below.cols, "column mismatch in vstack");
        let mut rows = self.data.clone();
        rows.extend(below.data.iter().cloned());
        BitMatrix::from_rows(rows)
    }

    /// Writes block `block` with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn write_block(&mut self, r0: usize, c0: usize, block: &BitMatrix) {
        assert!(r0 + block.rows <= self.rows && c0 + block.cols <= self.cols);
        for r in 0..block.rows {
            for c in 0..block.cols {
                self.set(r0 + r, c0 + c, block.get(r, c));
            }
        }
    }
}

impl Mul<&BitMatrix> for &BitMatrix {
    type Output = BitMatrix;

    fn mul(self, rhs: &BitMatrix) -> BitMatrix {
        self.mul_matrix(rhs)
    }
}

impl Mul<&BitVec> for &BitMatrix {
    type Output = BitVec;

    fn mul(self, rhs: &BitVec) -> BitVec {
        self.mul_vec(rhs)
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix[{}x{}]", self.rows, self.cols)?;
        for row in &self.data {
            writeln!(f, "  {row}")?;
        }
        Ok(())
    }
}

impl fmt::Display for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{}", if self.get(r, c) { '1' } else { '0' })?;
            }
            if r + 1 != self.rows {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BitMatrix {
        // [[1,1,0],[0,1,1],[0,0,1]] — upper triangular, invertible.
        BitMatrix::from_fn(3, 3, |r, c| c == r || c == r + 1)
    }

    #[test]
    fn identity_is_neutral() {
        let a = sample();
        let id = BitMatrix::identity(3);
        assert_eq!(a.mul_matrix(&id), a);
        assert_eq!(id.mul_matrix(&a), a);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = sample();
        let v = BitVec::from_u64(0b101, 3);
        // row0 = 011 & 101 → parity(001)=1; row1 = 110 & 101 → parity(100)=1;
        // row2 = 100&? wait rows little-endian col index:
        // row0 has cols {0,1} → bits 0,1 of v = 1,0 → parity 1
        // row1 has cols {1,2} → bits 1,2 = 0,1 → parity 1
        // row2 has cols {2} → bit 2 = 1 → 1
        assert_eq!(a.mul_vec(&v).to_u64(), 0b111);
    }

    #[test]
    fn transpose_involution() {
        let a = BitMatrix::from_fn(4, 7, |r, c| (r * 7 + c) % 3 == 0);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn rank_and_invertibility() {
        assert_eq!(sample().rank(), 3);
        assert!(sample().is_invertible());
        let singular = BitMatrix::from_fn(3, 3, |r, c| (c == r) || (c == (r + 1) % 3));
        assert_eq!(singular.rank(), 2);
        assert!(!singular.is_invertible());
        // Rank of transpose equals rank.
        assert_eq!(singular.transpose().rank(), 2);
    }

    #[test]
    fn inverse_round_trip() {
        let a = sample();
        let inv = a.inverse().expect("invertible");
        assert_eq!(a.mul_matrix(&inv), BitMatrix::identity(3));
        assert_eq!(inv.mul_matrix(&a), BitMatrix::identity(3));
    }

    #[test]
    fn inverse_of_singular_is_none() {
        let singular = BitMatrix::zero(3, 3);
        assert!(singular.inverse().is_none());
    }

    #[test]
    fn solve_consistent_and_inconsistent() {
        let a = sample();
        let x_true = BitVec::from_u64(0b011, 3);
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).expect("solvable");
        assert_eq!(a.mul_vec(&x), b);
        // Singular, inconsistent system: rows sum to zero but rhs doesn't.
        let s = BitMatrix::from_fn(3, 3, |r, c| (c == r) || (c == (r + 1) % 3));
        let bad = BitVec::from_u64(0b001, 3);
        assert!(s.solve(&bad).is_none());
        // Singular but consistent.
        let good = BitVec::from_u64(0b110, 3);
        let x = s.solve(&good).expect("consistent");
        assert_eq!(s.mul_vec(&x), good);
    }

    #[test]
    fn solve_wide_system() {
        // Under-determined: 2 equations, 4 unknowns.
        let a = BitMatrix::from_fn(2, 4, |r, c| c >= r);
        let b = BitVec::from_u64(0b10, 2);
        let x = a.solve(&b).expect("consistent");
        assert_eq!(a.mul_vec(&x), b);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = sample();
        let a3 = a.mul_matrix(&a).mul_matrix(&a);
        assert_eq!(a.pow(3), a3);
        assert_eq!(a.pow(0), BitMatrix::identity(3));
    }

    #[test]
    fn select_and_stack() {
        let a = sample();
        let sub = a.select(&[0, 2], &[1, 2]);
        assert_eq!(sub.rows(), 2);
        assert!(sub.get(0, 0)); // a[0][1]
        assert!(!sub.get(0, 1)); // a[0][2]
        assert!(sub.get(1, 1)); // a[2][2]

        let h = a.hstack(&BitMatrix::identity(3));
        assert_eq!(h.cols(), 6);
        assert!(h.get(1, 4));
        let v = a.vstack(&BitMatrix::identity(3));
        assert_eq!(v.rows(), 6);
        assert!(v.get(4, 1));
    }

    #[test]
    fn pivot_columns_give_invertible_submatrix() {
        // A wide full-row-rank matrix.
        let a = BitMatrix::from_fn(3, 7, |r, c| (c >= r && c <= r + 2) || c == 6 - r);
        assert_eq!(a.rank(), 3);
        let pivots = a.pivot_columns();
        assert_eq!(pivots.len(), 3);
        let rows: Vec<usize> = (0..3).collect();
        assert!(a.select(&rows, &pivots).is_invertible());
        // Zero matrix has no pivots.
        assert!(BitMatrix::zero(2, 4).pivot_columns().is_empty());
    }

    #[test]
    fn write_block_places_entries() {
        let mut m = BitMatrix::zero(4, 4);
        m.write_block(1, 2, &BitMatrix::identity(2));
        assert!(m.get(1, 2) && m.get(2, 3));
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn mul_operator_works() {
        let a = sample();
        let v = BitVec::from_u64(0b111, 3);
        assert_eq!(&a * &v, a.mul_vec(&v));
        assert_eq!(&a * &a, a.mul_matrix(&a));
    }

    #[test]
    fn display_renders_grid() {
        let a = BitMatrix::identity(2);
        assert_eq!(a.to_string(), "10\n01");
    }
}
