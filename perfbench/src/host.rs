//! Host steal: the share of the CPUs' time that the hypervisor gave to
//! other guests, from the aggregate `cpu` line of `/proc/stat`.
//!
//! On a shared VM steal comes in phases, from seconds to minutes long, of
//! 5–40% of CPU time. During them ops run up to ~2× slower, far beyond any
//! bound a benchmark could set, and no summary inside a run can average
//! out a phase that covers all of it. The benchmark therefore waits such
//! phases out, up to a limit, before a run and after each stretch of it
//! that was measured under steal.

use std::time::{Duration, Instant};

/// Steal share above which a stretch counts as measured under steal.
pub const MAX_STEAL: f64 = 0.05;
/// Window over which [`wait_calm`] samples the steal share. Steal comes
/// in bursts within a phase, so a shorter window often reads calm in the
/// middle of one.
const WINDOW: Duration = Duration::from_secs(1);

/// Cumulative CPU time counters of all CPUs, in clock ticks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// The counters now; `None` where `/proc/stat` cannot be read.
    pub fn now() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        CpuTimes::parse(stat.lines().next()?)
    }

    /// Parses the aggregate `cpu` line: user, nice, system, idle, iowait,
    /// irq, softirq, steal, ... (guest time is already inside user).
    fn parse(line: &str) -> Option<CpuTimes> {
        let mut fields = line.split_whitespace();
        if fields.next()? != "cpu" {
            return None;
        }
        let ticks: Vec<u64> = fields
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        (ticks.len() == 8).then(|| CpuTimes {
            steal: ticks[7],
            total: ticks.iter().sum(),
        })
    }

    /// Share of the CPUs' time stolen between `earlier` and `self`.
    pub fn steal_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Waits until a [`WINDOW`] passes with at most [`MAX_STEAL`] of the
/// CPUs' time stolen, or until `budget` is spent, and returns the time
/// waited (taken from `budget`).
pub fn wait_calm(budget: &mut Duration) -> Duration {
    let start = Instant::now();
    while let Some(before) = CpuTimes::now() {
        if budget.is_zero() {
            break;
        }
        let t = Instant::now();
        std::thread::sleep(WINDOW);
        *budget = budget.saturating_sub(t.elapsed());
        match CpuTimes::now() {
            Some(after) if after.steal_since(&before) > MAX_STEAL => {}
            _ => break,
        }
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_comes_from_the_aggregate_cpu_line() {
        let a = CpuTimes::parse("cpu  100 0 20 860 0 0 0 20 0 0").unwrap();
        let b = CpuTimes::parse("cpu  150 0 30 960 0 0 0 60 0 0").unwrap();
        assert_eq!(b.steal_since(&a), 0.2);
        assert_eq!(a.steal_since(&a), 0.0);
        assert_eq!(CpuTimes::parse("cpu0 1 2 3 4 5 6 7 8 0 0"), None);
        assert_eq!(CpuTimes::parse("cpu  1 2 3"), None);
    }

    #[test]
    fn a_spent_budget_waits_no_more() {
        let mut budget = Duration::ZERO;
        assert!(wait_calm(&mut budget) < WINDOW);
    }
}
