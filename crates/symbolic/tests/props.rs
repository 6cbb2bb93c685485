//! Property-based tests for the ROBDD package itself.
//!
//! Two claims carry the whole certification engine:
//!
//! * **canonicity** — structurally equal functions hash-cons to
//!   pointer-equal nodes, so the escape check is `escape == FALSE`;
//! * **semantic correctness of `ite`** — every connective derives from
//!   it, so `eval(ite(f, g, h), a) == if eval(f, a) { eval(g, a) } else
//!   { eval(h, a) }` must hold on brute-force truth tables.
//!
//! Random functions are built from flat SSA-style op chains over ≤ 12
//! variables, exhaustively compared against a reference truth-table
//! evaluator on every assignment.
//!
//! Every reader of an edge's complement bit — `eval`, `exists`,
//! `rename`, `sat_one`, `sat_one_minimal` and `sat_count` — is checked
//! against the same truth tables, and `not` must flip the bit without
//! allocating.

use proptest::prelude::*;
use scfi_symbolic::{Bdd, BddRef};

/// One SSA op: kind plus two operand indices into the chain so far.
type Op = (u8, u16, u16);

/// A random function description: variable count plus an op chain.
fn chain(max_vars: usize, max_ops: usize) -> impl Strategy<Value = (usize, Vec<Op>)> {
    (
        1..=max_vars,
        proptest::collection::vec((0u8..6, 0u16..1024, 0u16..1024), 1..=max_ops),
    )
}

/// Builds the chain in a manager, returning the final node.
fn build(b: &mut Bdd, n_vars: usize, ops: &[Op]) -> BddRef {
    let mut nodes: Vec<BddRef> = (0..n_vars).map(|v| b.var(v as u32)).collect();
    for &(kind, x, y) in ops {
        let f = nodes[x as usize % nodes.len()];
        let g = nodes[y as usize % nodes.len()];
        let r = match kind {
            0 => b.and(f, g),
            1 => b.or(f, g),
            2 => b.xor(f, g),
            3 => b.nand(f, g),
            4 => b.xnor(f, g),
            _ => b.not(f),
        };
        nodes.push(r);
    }
    *nodes.last().expect("non-empty chain")
}

/// Builds the same chain through structurally different but equivalent
/// constructions (De Morgan / complement rewrites per op).
fn build_rewritten(b: &mut Bdd, n_vars: usize, ops: &[Op]) -> BddRef {
    let mut nodes: Vec<BddRef> = (0..n_vars).map(|v| b.var(v as u32)).collect();
    for &(kind, x, y) in ops {
        let f = nodes[x as usize % nodes.len()];
        let g = nodes[y as usize % nodes.len()];
        let r = match kind {
            0 => {
                // a & b == !(!a | !b)
                let (nf, ng) = (b.not(f), b.not(g));
                let o = b.or(nf, ng);
                b.not(o)
            }
            1 => {
                // a | b == !(!a & !b)
                let (nf, ng) = (b.not(f), b.not(g));
                let a = b.and(nf, ng);
                b.not(a)
            }
            2 => {
                // a ^ b == (a & !b) | (!a & b)
                let (nf, ng) = (b.not(f), b.not(g));
                let l = b.and(f, ng);
                let r = b.and(nf, g);
                b.or(l, r)
            }
            3 => {
                // nand == !( a & b )
                let a = b.and(f, g);
                b.not(a)
            }
            4 => {
                // xnor == ite(a, b, !b)
                let ng = b.not(g);
                b.ite(f, g, ng)
            }
            _ => {
                // !a == ite(a, false, true)
                b.ite(f, BddRef::FALSE, BddRef::TRUE)
            }
        };
        nodes.push(r);
    }
    *nodes.last().expect("non-empty chain")
}

/// Reference truth-table evaluator for the chain.
fn truth_table(n_vars: usize, ops: &[Op]) -> Vec<bool> {
    (0u64..1 << n_vars)
        .map(|bits| {
            let mut nodes: Vec<bool> = (0..n_vars).map(|v| bits >> v & 1 == 1).collect();
            for &(kind, x, y) in ops {
                let f = nodes[x as usize % nodes.len()];
                let g = nodes[y as usize % nodes.len()];
                nodes.push(match kind {
                    0 => f & g,
                    1 => f | g,
                    2 => f ^ g,
                    3 => !(f & g),
                    4 => !(f ^ g),
                    _ => !f,
                });
            }
            *nodes.last().expect("non-empty chain")
        })
        .collect()
}

proptest! {
    /// Hash-consing canonicity: the same function built through two
    /// structurally different op-by-op constructions lands on the same
    /// node — handle equality IS function equality.
    #[test]
    fn structurally_equal_functions_are_pointer_equal((n_vars, ops) in chain(10, 24)) {
        let mut b = Bdd::new();
        let direct = build(&mut b, n_vars, &ops);
        let rewritten = build_rewritten(&mut b, n_vars, &ops);
        prop_assert_eq!(direct, rewritten);
        // And double negation is the identity on the node itself.
        let nn = {
            let neg = b.not(direct);
            b.not(neg)
        };
        prop_assert_eq!(nn, direct);
    }

    /// The built BDD computes exactly the chain's truth table.
    #[test]
    fn bdd_matches_brute_force_truth_table((n_vars, ops) in chain(10, 24)) {
        let mut b = Bdd::new();
        let f = build(&mut b, n_vars, &ops);
        let table = truth_table(n_vars, &ops);
        for (bits, &expect) in table.iter().enumerate() {
            let assignment: Vec<bool> = (0..n_vars).map(|v| bits >> v & 1 == 1).collect();
            prop_assert_eq!(b.eval(f, &assignment), expect, "assignment {:b}", bits);
        }
    }

    /// The Shannon operator law, on ≤ 12-variable functions: evaluating
    /// `ite(f, g, h)` equals branching on `f`'s evaluation.
    #[test]
    fn ite_satisfies_its_defining_law(
        (n_vars, f_ops) in chain(12, 16),
        g_ops in proptest::collection::vec((0u8..6, 0u16..1024, 0u16..1024), 1..=16),
        h_ops in proptest::collection::vec((0u8..6, 0u16..1024, 0u16..1024), 1..=16),
    ) {
        let mut b = Bdd::new();
        let f = build(&mut b, n_vars, &f_ops);
        let g = build(&mut b, n_vars, &g_ops);
        let h = build(&mut b, n_vars, &h_ops);
        let r = b.ite(f, g, h);
        for bits in 0u64..1 << n_vars {
            let a: Vec<bool> = (0..n_vars).map(|v| bits >> v & 1 == 1).collect();
            let expect = if b.eval(f, &a) { b.eval(g, &a) } else { b.eval(h, &a) };
            prop_assert_eq!(b.eval(r, &a), expect, "assignment {:b}", bits);
        }
    }

    /// Quantification law on random functions: `∃v. f` is satisfied by
    /// an assignment iff some completion of `v` satisfies `f`.
    #[test]
    fn exists_is_disjunction_over_cofactors(
        (n_vars, ops) in chain(8, 20),
        var_pick in 0u16..1024,
    ) {
        let mut b = Bdd::new();
        let f = build(&mut b, n_vars, &ops);
        let v = (var_pick as usize % n_vars) as u32;
        let quantified = b.exists(f, &[v]);
        for bits in 0u64..1 << n_vars {
            let mut a: Vec<bool> = (0..n_vars).map(|i| bits >> i & 1 == 1).collect();
            a[v as usize] = false;
            let lo = b.eval(f, &a);
            a[v as usize] = true;
            let hi = b.eval(f, &a);
            prop_assert_eq!(b.eval(quantified, &a), lo || hi);
        }
    }

    /// Model counting matches the truth table's count of `true` rows.
    #[test]
    fn sat_count_equals_the_truth_table_count((n_vars, ops) in chain(10, 24)) {
        let mut b = Bdd::new();
        let f = build(&mut b, n_vars, &ops);
        let vars: Vec<u32> = (0..n_vars as u32).collect();
        let models = truth_table(n_vars, &ops).iter().filter(|&&t| t).count();
        prop_assert_eq!(b.sat_count(f, &vars), models as f64);
    }

    /// Both witnesses satisfy `f` once their don't-cares default to
    /// `false`, and the fewest-care witness pins no more variables than
    /// the plain one. An unsatisfiable `f` has neither.
    #[test]
    fn witnesses_satisfy_f_and_the_minimal_one_pins_no_more((n_vars, ops) in chain(10, 24)) {
        let mut b = Bdd::new();
        let f = build(&mut b, n_vars, &ops);
        let (plain, minimal) = (b.sat_one(f), b.sat_one_minimal(f));
        let Some(plain) = plain else {
            prop_assert_eq!(minimal, None);
            prop_assert!(truth_table(n_vars, &ops).iter().all(|&t| !t));
            return Ok(());
        };
        let minimal = minimal.expect("satisfiable");
        for witness in [&plain, &minimal] {
            let mut a = vec![false; n_vars];
            for &(v, value) in witness {
                a[v as usize] = value;
            }
            prop_assert!(b.eval(f, &a), "witness {:?}", witness);
        }
        prop_assert!(minimal.len() <= plain.len());
    }

    /// Renaming every variable `v` to `v + 1` shifts the truth table:
    /// the renamed function ignores variable 0 and reads `f`'s variable
    /// `v` at `v + 1`.
    #[test]
    fn rename_shifts_the_truth_table((n_vars, ops) in chain(10, 24)) {
        let mut b = Bdd::new();
        let f = build(&mut b, n_vars, &ops);
        let shifted = b.rename(f, &|v| v + 1);
        let table = truth_table(n_vars, &ops);
        for bits in 0u64..1 << (n_vars + 1) {
            let a: Vec<bool> = (0..=n_vars).map(|v| bits >> v & 1 == 1).collect();
            prop_assert_eq!(b.eval(shifted, &a), table[(bits >> 1) as usize], "assignment {:b}", bits);
        }
    }

    /// Evaluating `not(f)` negates evaluating `f` on every assignment.
    #[test]
    fn eval_of_not_negates_eval((n_vars, ops) in chain(10, 24)) {
        let mut b = Bdd::new();
        let f = build(&mut b, n_vars, &ops);
        let nf = b.not(f);
        for bits in 0u64..1 << n_vars {
            let a: Vec<bool> = (0..n_vars).map(|v| bits >> v & 1 == 1).collect();
            prop_assert_eq!(b.eval(nf, &a), !b.eval(f, &a), "assignment {:b}", bits);
        }
    }

    /// `not` is an involution on handles, and it allocates no node:
    /// `f` and `¬f` share every node through a complemented edge.
    #[test]
    fn not_is_a_free_involution((n_vars, ops) in chain(10, 24)) {
        let mut b = Bdd::new();
        let f = build(&mut b, n_vars, &ops);
        let nodes = b.node_count();
        let nf = b.not(f);
        prop_assert_ne!(nf, f);
        prop_assert_eq!(b.not(nf), f);
        prop_assert_eq!(b.node_count(), nodes);
    }
}
