//! Maximum distance separable (MDS) matrices over 8-bit GF(2) linear maps.
//!
//! SCFI's fault-hardened next-state function `φ_FH` diffuses its input triple
//! `{S_Ce, X_e, Mod}` through a 32-bit MDS matrix multiplication (paper §4.1,
//! §5.1, Fig. 6): a 4×4 matrix whose entries are 8×8 binary matrices
//! (GF(2)-linear maps on bytes). The MDS property — every square block minor
//! is nonsingular, equivalently branch number 5 — guarantees that any
//! corrupted input byte avalanches into *all four* output bytes, which is the
//! core of the paper's security argument (§6.3).
//!
//! This crate provides:
//!
//! * [`BlockMatrix`] — a `k × k` matrix of `l × l` binary blocks with an
//!   exact MDS check via block-minor enumeration,
//! * [`XorProgram`] — lowering of a binary matrix to a straight-line XOR
//!   program, either naively (balanced trees per output) or with Paar-style
//!   greedy common-subexpression elimination,
//! * [`MdsMatrix`] / [`MdsSpec`] — concrete verified constructions: a
//!   lightweight matrix over the paper's ring `F₂[α]`, `α: X⁸ + X² + 1`,
//!   pinned from a minimal-XOR search that the tests re-run
//!   (substituting for Duval–Leurent's `M^{8,3}_{4,6}`, whose exact
//!   entries the SCFI paper does not reproduce), and the AES
//!   MixColumns matrix over `GF(2⁸)/0x11B` as a provably-MDS reference.
//!
//! # Example
//!
//! ```
//! use scfi_mds::MdsSpec;
//!
//! let mds = MdsSpec::ScfiLightweight.build();
//! assert!(mds.block().is_mds());
//! assert_eq!(mds.matrix().rows(), 32);
//!
//! // A single flipped input bit disturbs all four output bytes.
//! let mut x = scfi_gf2::BitVec::zeros(32);
//! x.set(3, true);
//! let y = mds.mul(&x);
//! for byte in 0..4 {
//!     assert!((0..8).any(|b| y.get(byte * 8 + b)));
//! }
//! ```

mod block;
mod construct;
mod xor_program;

pub use block::BlockMatrix;
pub use construct::{MdsMatrix, MdsSpec};
pub use xor_program::{Lowering, OutputSource, SignalId, XorProgram};
