//! A measured pass over a workload's ops, and the seeded op-cycle loop
//! that the `campaign`, `certify` and `cli` workloads share.

use std::ops::Range;
use std::time::Instant;

use crate::rng;
use crate::trace::Tracer;

/// One measured pass: every attempted op's latency, the failures among
/// them, and the pass's wall time.
#[derive(Default)]
pub struct Pass {
    pub lat_ms: Vec<f64>,
    pub failed: usize,
    pub wall_s: f64,
}

impl Pass {
    pub fn record(&mut self, ms: f64, ok: bool) {
        self.lat_ms.push(ms);
        if !ok {
            self.failed += 1;
        }
    }

    pub fn attempted(&self) -> usize {
        self.lat_ms.len()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.attempted() as f64 / self.wall_s
    }

    pub fn absorb(&mut self, other: Pass) {
        self.lat_ms.extend(other.lat_ms);
        self.failed += other.failed;
        self.wall_s += other.wall_s;
    }
}

/// Whole op cycles in a run of `seconds`, given the nominal seconds one
/// cycle takes on the reference host (2 vCPU). A slower host takes
/// longer but does the same work.
pub fn cycles_for(seconds: f64, cycle_seconds: f64) -> usize {
    ((seconds / cycle_seconds).round() as usize).max(1)
}

/// Runs ops `ops` of the seeded cycle order over `n_ops` ops, so that
/// consecutive ranges continue one run. Op `index` runs as
/// `run(op_id, index)` inside span `span`, and only that call is timed;
/// `check(index, output)` then says whether the output is the expected
/// one.
pub fn measure_cycles<R>(
    n_ops: usize,
    seed: u64,
    ops: Range<usize>,
    tracer: &Tracer,
    span: &'static str,
    mut run: impl FnMut(u64, usize) -> R,
    mut check: impl FnMut(usize, R) -> bool,
) -> Pass {
    let order = rng::op_cycles(n_ops, ops.end.div_ceil(n_ops), seed);
    let mut pass = Pass::default();
    let start = Instant::now();
    for (id, &index) in order.iter().enumerate().take(ops.end).skip(ops.start) {
        let t = Instant::now();
        let output = {
            let _span = tracer.span(span, id as u64);
            run(id as u64, index)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        pass.record(ms, check(index, output));
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// A traced pass over `0..units` between two untraced halves of the same
/// total length, so drift and warm-up weigh on both sides alike.
/// `pass(range, traced)` measures one stretch. Returns the untraced and
/// the traced pass.
pub fn traced_between(
    units: usize,
    mut pass: impl FnMut(Range<usize>, bool) -> Pass,
) -> (Pass, Pass) {
    let mut untraced = pass(0..units / 2, false);
    let traced = pass(0..units, true);
    untraced.absorb(pass(units / 2..units, false));
    (untraced, traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_ranges_continue_one_run() {
        let off = Tracer::new(false);
        let ran = |range: Range<usize>| {
            let mut seen = Vec::new();
            measure_cycles(
                5,
                9,
                range,
                &off,
                "op",
                |id, i| seen.push((id, i)),
                |_, ()| true,
            );
            seen
        };
        let whole = ran(0..20);
        let mut parts = ran(0..3);
        parts.extend(ran(3..11));
        parts.extend(ran(11..20));
        assert_eq!(whole, parts);
        assert_eq!(whole.len(), 20);
        assert!(whole.iter().enumerate().all(|(k, &(id, _))| id == k as u64));
    }

    #[test]
    fn failed_checks_count_against_attempted_ops() {
        let off = Tracer::new(false);
        let pass = measure_cycles(4, 1, 0..8, &off, "op", |_, i| i, |_, i| i != 3);
        assert_eq!((pass.attempted(), pass.failed), (8, 2));
    }
}
