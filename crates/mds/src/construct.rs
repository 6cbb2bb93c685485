//! Concrete verified MDS constructions.

use std::fmt;
use std::sync::OnceLock;

use scfi_gf2::{BitMatrix, BitVec, Gf2Poly};

use crate::{BlockMatrix, Lowering, XorProgram};

/// Which MDS matrix to instantiate in the diffusion layer.
///
/// The SCFI paper selects Duval–Leurent's `M^{8,3}_{4,6}` over
/// `F₂[α], α: X⁸ + X² + 1` for its low XOR count, and notes that "the choice
/// of MDS matrix can be changed according to design requirements" (§5.1).
/// We expose exactly that choice point.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MdsSpec {
    /// The lightweight 4×4 MDS matrix `circulant(1, 1, α, α³)` over the
    /// paper's ring `F₂[α]/(X⁸ + X² + 1)`. It is the pinned result of a
    /// deterministic minimal-XOR search over structured candidates: a test
    /// re-derives it, and every process *verifies* it MDS via block minors
    /// at first use.
    ///
    /// This substitutes for `M^{8,3}_{4,6}` (Duval–Leurent 2018), whose
    /// exact entries the SCFI paper does not reproduce; the security
    /// argument only uses the MDS property (branch number 5), which this
    /// matrix provably has.
    #[default]
    ScfiLightweight,
    /// The AES MixColumns matrix `circ(α, α+1, 1, 1)` over
    /// `GF(2⁸)/0x11B` — a classical, provably-MDS reference with a higher
    /// XOR count.
    AesMixColumns,
    /// A 2×2 (16-bit) lightweight MDS matrix, branch number 3 — the
    /// smaller matrix §7 of the paper proposes for small `{S_C, X, Mod}`
    /// triples ("adapt the MDS matrix size … to further improve the
    /// area-time product"), trading diffusion for area. It is
    /// `circulant(1, α)` over the paper's ring, the pinned result of the
    /// same search as [`MdsSpec::ScfiLightweight`], re-derived by a test
    /// and verified MDS at first use.
    Lightweight16,
    /// A 3×3 (24-bit) lightweight MDS matrix, branch number 4 — the
    /// intermediate point of the §7 size adaptation. It is
    /// `circulant(1, 1, α)` over the paper's ring, the pinned result of the
    /// same search, re-derived by a test and verified MDS at first use.
    Lightweight24,
}

impl MdsSpec {
    /// Builds (and caches) the verified matrix for this spec.
    ///
    /// Every matrix is a constant: the lightweight ones are the pinned
    /// results of a minimal-XOR search that runs only in this crate's
    /// tests. The first call per spec builds the matrix from its entries
    /// and runs the block-minor MDS verification (well under a
    /// millisecond); later calls return a cached clone.
    pub fn build(self) -> MdsMatrix {
        static SCFI: OnceLock<MdsMatrix> = OnceLock::new();
        static AES: OnceLock<MdsMatrix> = OnceLock::new();
        static W16: OnceLock<MdsMatrix> = OnceLock::new();
        static W24: OnceLock<MdsMatrix> = OnceLock::new();
        match self {
            MdsSpec::ScfiLightweight => SCFI.get_or_init(|| build_lightweight(4)).clone(),
            MdsSpec::AesMixColumns => AES.get_or_init(build_aes).clone(),
            MdsSpec::Lightweight16 => W16.get_or_init(|| build_lightweight(2)).clone(),
            MdsSpec::Lightweight24 => W24.get_or_init(|| build_lightweight(3)).clone(),
        }
    }

    /// Input/output width in bits of the matrix this spec builds.
    pub fn width(self) -> usize {
        match self {
            MdsSpec::ScfiLightweight | MdsSpec::AesMixColumns => 32,
            MdsSpec::Lightweight16 => 16,
            MdsSpec::Lightweight24 => 24,
        }
    }

    /// The branch number (`k + 1`) of the matrix this spec builds.
    pub fn branch_number(self) -> usize {
        match self {
            MdsSpec::ScfiLightweight | MdsSpec::AesMixColumns => 5,
            MdsSpec::Lightweight16 => 3,
            MdsSpec::Lightweight24 => 4,
        }
    }
}

impl fmt::Display for MdsSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdsSpec::ScfiLightweight => write!(f, "scfi-lightweight"),
            MdsSpec::AesMixColumns => write!(f, "aes-mixcolumns"),
            MdsSpec::Lightweight16 => write!(f, "lightweight-16"),
            MdsSpec::Lightweight24 => write!(f, "lightweight-24"),
        }
    }
}

/// A verified 32-bit MDS diffusion matrix (4 byte lanes), ready to be
/// multiplied or lowered to XOR gates.
///
/// # Example
///
/// ```
/// use scfi_mds::{Lowering, MdsSpec};
///
/// let mds = MdsSpec::AesMixColumns.build();
/// let program = mds.xor_program(Lowering::Paar);
/// assert!(program.xor_count() < 200);
/// ```
#[derive(Clone)]
pub struct MdsMatrix {
    name: String,
    block: BlockMatrix,
    expanded: BitMatrix,
}

impl MdsMatrix {
    fn new(name: impl Into<String>, block: BlockMatrix) -> Self {
        let expanded = block.expand();
        MdsMatrix {
            name: name.into(),
            block,
            expanded,
        }
    }

    /// Human-readable construction name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The block (lane) structure.
    pub fn block(&self) -> &BlockMatrix {
        &self.block
    }

    /// The expanded 32×32 binary matrix.
    pub fn matrix(&self) -> &BitMatrix {
        &self.expanded
    }

    /// Input/output width in bits (`k·l`, 32 for the paper's parameters).
    pub fn width(&self) -> usize {
        self.expanded.rows()
    }

    /// Multiplies a 32-bit vector through the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.width()`.
    pub fn mul(&self, x: &BitVec) -> BitVec {
        self.expanded.mul_vec(x)
    }

    /// Lowers the matrix to a straight-line XOR program.
    pub fn xor_program(&self, strategy: Lowering) -> XorProgram {
        XorProgram::lower(&self.expanded, strategy)
    }

    /// Number of XOR gates under the given lowering — the paper's area
    /// figure of merit for matrix selection (§5.1).
    pub fn xor_count(&self, strategy: Lowering) -> usize {
        self.xor_program(strategy).xor_count()
    }
}

impl fmt::Debug for MdsMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MdsMatrix({}, {}x{} bits, naive XORs {})",
            self.name,
            self.width(),
            self.width(),
            self.expanded.count_ones() - self.width()
        )
    }
}

/// Builds the AES MixColumns block matrix.
fn build_aes() -> MdsMatrix {
    let alpha = Gf2Poly::from_coeffs(0x11B).companion_matrix();
    let entries = [
        Gf2Poly::X,                 // α       (AES 0x02)
        Gf2Poly::from_coeffs(0b11), // α + 1   (AES 0x03)
        Gf2Poly::ONE,               // 1
        Gf2Poly::ONE,               // 1
    ];
    let m = MdsMatrix::new("aes-mixcolumns", circulant(&alpha, &entries));
    assert!(m.block.is_mds(), "AES MixColumns failed the MDS check");
    m
}

/// The paper's ring modulus `X⁸ + X² + 1` for the lightweight matrices.
const LIGHTWEIGHT_MODULUS: u64 = 0x105;

/// First row of the pinned `k × k` lightweight circulant, as coefficient
/// masks of polynomials in α (`0b10` is α, `0b1000` is α³).
///
/// Each row is the first MDS candidate of a deterministic minimal-XOR
/// search, fixed once at design time as §5.1 fixes its matrix. The search
/// runs only in this module's tests, which re-derive this table.
fn lightweight_row(k: usize) -> &'static [u64] {
    match k {
        2 => &[0b1, 0b10],              // circulant(1, α)
        3 => &[0b1, 0b1, 0b10],         // circulant(1, 1, α)
        4 => &[0b1, 0b1, 0b10, 0b1000], // circulant(1, 1, α, α³)
        _ => unreachable!("no lightweight matrix is pinned for k = {k}"),
    }
}

/// Builds the pinned `k × k` lightweight circulant over the paper's ring
/// and verifies it is MDS.
fn build_lightweight(k: usize) -> MdsMatrix {
    let alpha = Gf2Poly::from_coeffs(LIGHTWEIGHT_MODULUS).companion_matrix();
    let entries: Vec<Gf2Poly> = lightweight_row(k)
        .iter()
        .map(|&c| Gf2Poly::from_coeffs(c))
        .collect();
    let m = MdsMatrix::new(
        lightweight_name("circulant", &entries),
        circulant(&alpha, &entries),
    );
    assert!(
        m.block.is_mds(),
        "pinned {k}x{k} matrix failed the MDS check"
    );
    m
}

/// `lightweight-KxK-SHAPE(e₀, …)`: the name of a lightweight matrix.
fn lightweight_name(shape: &str, entries: &[Gf2Poly]) -> String {
    let k = entries.len();
    let entries: Vec<String> = entries.iter().map(Gf2Poly::to_string).collect();
    format!("lightweight-{k}x{k}-{shape}({})", entries.join(", "))
}

/// Circulant block matrix: row `i`, column `j` holds
/// `entries[(j − i) mod k]`.
fn circulant(alpha: &BitMatrix, entries: &[Gf2Poly]) -> BlockMatrix {
    let k = entries.len();
    let maps: Vec<BitMatrix> = entries.iter().map(|p| p.eval_matrix(alpha)).collect();
    let mut blocks = Vec::with_capacity(k * k);
    for r in 0..k {
        for c in 0..k {
            blocks.push(maps[(c + k - r) % k].clone());
        }
    }
    BlockMatrix::from_blocks(k, 8, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aes_build_is_mds_and_32_bit() {
        let m = MdsSpec::AesMixColumns.build();
        assert!(m.block().is_mds());
        assert_eq!(m.width(), 32);
        assert!(m.matrix().is_invertible());
    }

    #[test]
    fn scfi_lightweight_is_mds() {
        let m = MdsSpec::ScfiLightweight.build();
        assert!(m.block().is_mds(), "searched matrix must verify as MDS");
        assert_eq!(m.width(), 32);
        assert!(m.matrix().is_invertible());
    }

    #[test]
    fn scfi_lightweight_is_lighter_than_aes() {
        let scfi = MdsSpec::ScfiLightweight.build();
        let aes = MdsSpec::AesMixColumns.build();
        assert!(
            scfi.xor_count(Lowering::Naive) <= aes.xor_count(Lowering::Naive),
            "search should not return something heavier than AES: {} vs {}",
            scfi.xor_count(Lowering::Naive),
            aes.xor_count(Lowering::Naive)
        );
    }

    #[test]
    fn branch_number_five_for_both() {
        for spec in [MdsSpec::ScfiLightweight, MdsSpec::AesMixColumns] {
            assert_eq!(
                spec.build().block().branch_number_single_symbol(),
                5,
                "{spec}"
            );
        }
    }

    #[test]
    fn xor_program_equivalence_sampled() {
        let m = MdsSpec::ScfiLightweight.build();
        for strategy in [Lowering::Naive, Lowering::Paar] {
            let p = m.xor_program(strategy);
            let mut state = 0xDEADBEEFu64;
            for _ in 0..200 {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let x = BitVec::from_u64(state.wrapping_mul(0x2545F4914F6CDD1D) & 0xFFFF_FFFF, 32);
                assert_eq!(p.eval(&x), m.mul(&x));
            }
        }
    }

    #[test]
    fn paar_reduces_xor_count_on_mds() {
        let m = MdsSpec::AesMixColumns.build();
        assert!(m.xor_count(Lowering::Paar) < m.xor_count(Lowering::Naive));
    }

    #[test]
    fn build_is_cached_and_deterministic() {
        let a = MdsSpec::ScfiLightweight.build();
        let b = MdsSpec::ScfiLightweight.build();
        assert_eq!(a.name(), b.name());
        assert_eq!(a.matrix(), b.matrix());
    }

    #[test]
    fn avalanche_single_bit_hits_all_lanes() {
        let m = MdsSpec::ScfiLightweight.build();
        for bit in 0..32 {
            let mut x = BitVec::zeros(32);
            x.set(bit, true);
            let y = m.mul(&x);
            assert_eq!(
                m.block().symbol_weight(&y),
                4,
                "single input bit {bit} must disturb all 4 output lanes"
            );
        }
    }

    #[test]
    fn display_and_debug() {
        let m = MdsSpec::AesMixColumns.build();
        assert!(format!("{m:?}").contains("aes-mixcolumns"));
        assert_eq!(MdsSpec::AesMixColumns.to_string(), "aes-mixcolumns");
        assert_eq!(MdsSpec::Lightweight16.to_string(), "lightweight-16");
    }

    #[test]
    fn small_matrices_are_mds_with_reduced_branch_numbers() {
        let m16 = MdsSpec::Lightweight16.build();
        assert!(m16.block().is_mds());
        assert_eq!(m16.width(), 16);
        assert_eq!(m16.block().branch_number_single_symbol(), 3);

        let m24 = MdsSpec::Lightweight24.build();
        assert!(m24.block().is_mds());
        assert_eq!(m24.width(), 24);
        assert_eq!(m24.block().branch_number_single_symbol(), 4);
    }

    #[test]
    fn smaller_matrices_cost_fewer_xors() {
        let x16 = MdsSpec::Lightweight16.build().xor_count(Lowering::Paar);
        let x24 = MdsSpec::Lightweight24.build().xor_count(Lowering::Paar);
        let x32 = MdsSpec::ScfiLightweight.build().xor_count(Lowering::Paar);
        assert!(x16 < x24, "{x16} vs {x24}");
        assert!(x24 < x32, "{x24} vs {x32}");
    }

    #[test]
    fn spec_metadata_is_consistent() {
        for spec in [
            MdsSpec::ScfiLightweight,
            MdsSpec::AesMixColumns,
            MdsSpec::Lightweight16,
            MdsSpec::Lightweight24,
        ] {
            let m = spec.build();
            assert_eq!(m.width(), spec.width(), "{spec}");
            assert_eq!(
                m.block().branch_number_single_symbol(),
                spec.branch_number(),
                "{spec}"
            );
        }
    }

    /// The minimal-XOR search that chose the pinned table: rank candidate
    /// entry tuples by expanded XOR density and return the shape and
    /// entries of the first circulant (then Hadamard, for k = 4)
    /// candidate that passes the exact MDS check.
    fn search_lightweight(k: usize) -> (&'static str, Vec<Gf2Poly>, MdsMatrix) {
        let alpha = Gf2Poly::from_coeffs(LIGHTWEIGHT_MODULUS).companion_matrix();

        // Low-XOR-cost polynomial entries in α, cheapest first. Cost of
        // p(α) as a linear map is roughly count_ones(p(α)) − 8 XORs.
        let pool: Vec<Gf2Poly> = vec![
            Gf2Poly::ONE,
            Gf2Poly::X,
            Gf2Poly::from_coeffs(0b100),  // α²
            Gf2Poly::from_coeffs(0b11),   // 1 + α
            Gf2Poly::from_coeffs(0b101),  // 1 + α²
            Gf2Poly::from_coeffs(0b110),  // α + α²
            Gf2Poly::from_coeffs(0b1000), // α³
            Gf2Poly::from_coeffs(0b1001), // 1 + α³
        ];

        // All entry tuples of length k over the pool.
        let mut tuples: Vec<Vec<Gf2Poly>> = vec![Vec::new()];
        for _ in 0..k {
            tuples = tuples
                .into_iter()
                .flat_map(|t| {
                    pool.iter().map(move |&p| {
                        let mut t = t.clone();
                        t.push(p);
                        t
                    })
                })
                .collect();
        }
        let mut candidates: Vec<(usize, &'static str, Vec<Gf2Poly>)> = Vec::new();
        for entries in tuples {
            let cost: usize = entries
                .iter()
                .map(|p| p.eval_matrix(&alpha).count_ones())
                .sum();
            candidates.push((cost, "circulant", entries.clone()));
            if k == 4 {
                candidates.push((cost, "hadamard", entries));
            }
        }
        // Deterministic order: by cost, then shape, then entry tuple.
        candidates.sort_by_key(|(cost, shape, e)| {
            (
                *cost,
                *shape,
                e.iter().map(|p| p.coeffs()).collect::<Vec<_>>(),
            )
        });

        for (_, shape, entries) in candidates {
            let block = match shape {
                "circulant" => circulant(&alpha, &entries),
                _ => hadamard(&alpha, &entries),
            };
            if block.is_mds() {
                let m = MdsMatrix::new(lightweight_name(shape, &entries), block);
                return (shape, entries, m);
            }
        }
        unreachable!(
            "no MDS matrix found in candidate pool — pool is known to contain MDS matrices"
        )
    }

    /// Hadamard block matrix (`k` a power of two): `M[i][j] = entries[i XOR j]`.
    fn hadamard(alpha: &BitMatrix, entries: &[Gf2Poly]) -> BlockMatrix {
        let k = entries.len();
        assert!(
            k.is_power_of_two(),
            "Hadamard layout needs a power-of-two k"
        );
        let maps: Vec<BitMatrix> = entries.iter().map(|p| p.eval_matrix(alpha)).collect();
        let mut blocks = Vec::with_capacity(k * k);
        for r in 0..k {
            for c in 0..k {
                blocks.push(maps[r ^ c].clone());
            }
        }
        BlockMatrix::from_blocks(k, 8, blocks)
    }

    #[test]
    fn pinned_table_equals_the_search() {
        for (k, spec, name) in [
            (2, MdsSpec::Lightweight16, "lightweight-2x2-circulant(1, X)"),
            (
                3,
                MdsSpec::Lightweight24,
                "lightweight-3x3-circulant(1, 1, X)",
            ),
            (
                4,
                MdsSpec::ScfiLightweight,
                "lightweight-4x4-circulant(1, 1, X, X^3)",
            ),
        ] {
            let (shape, entries, searched) = search_lightweight(k);
            let pinned = spec.build();
            assert_eq!(shape, "circulant", "k = {k}");
            let coeffs: Vec<u64> = entries.iter().map(|p| p.coeffs()).collect();
            assert_eq!(coeffs, lightweight_row(k), "k = {k}");
            assert_eq!(searched.name(), name);
            assert_eq!(pinned.name(), name);
            assert_eq!(searched.matrix(), pinned.matrix(), "k = {k}");
            assert!(pinned.block().is_mds(), "k = {k}");
        }
    }
}
