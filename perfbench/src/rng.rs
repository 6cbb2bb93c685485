//! The benchmark's seeded stream (SplitMix64): op-cycle order, the serve
//! job order, poll phases and the multi-fault draw-seed choice all come
//! from it, so one `--seed` fixes every input a run generates.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `cycles` back-to-back passes over `0..ops`, each pass in its own
/// seeded order: every run of a workload performs exactly the same
/// multiset of ops, and the seed only decides their order.
pub fn op_cycles(ops: usize, cycles: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order = Vec::with_capacity(ops * cycles);
    for _ in 0..cycles {
        let mut cycle: Vec<usize> = (0..ops).collect();
        rng.shuffle(&mut cycle);
        order.extend(cycle);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cycles_are_a_pure_function_of_the_seed() {
        assert_eq!(op_cycles(25, 4, 1), op_cycles(25, 4, 1));
        assert_ne!(op_cycles(25, 4, 1), op_cycles(25, 4, 2));
    }

    #[test]
    fn every_cycle_runs_every_op_once() {
        for seed in [1, 2, 7] {
            let order = op_cycles(25, 4, seed);
            assert_eq!(order.len(), 100);
            for cycle in order.chunks(25) {
                let mut sorted = cycle.to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..25).collect::<Vec<_>>());
            }
        }
    }
}
