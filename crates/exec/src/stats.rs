//! Execution statistics: the raw material for the simulated backends' time
//! and performance-counter models.
//!
//! The interpreter counts *work* (operation classes, weighted cycles) per
//! execution context: serial code vs. each thread of each parallel region.
//! Backends later turn these into wall-clock times, `perf`-style counters
//! and stack profiles according to their runtime cost models.

/// Counts of executed operation classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Additions and subtractions.
    pub add_sub: u64,
    /// Multiplications.
    pub mul: u64,
    /// Divisions.
    pub div: u64,
    /// Math-library calls.
    pub math: u64,
    /// Canonical cycles charged for math calls (per-function costs vary,
    /// so the count alone cannot be re-weighted by backend cost models).
    pub math_cycles: u64,
    /// Scalar and array-element reads.
    pub loads: u64,
    /// Scalar and array-element writes.
    pub stores: u64,
    /// Boolean comparisons.
    pub compares: u64,
}

impl OpCounts {
    /// Total operation count.
    pub fn total(&self) -> u64 {
        self.add_sub + self.mul + self.div + self.math + self.loads + self.stores + self.compares
    }

    /// Merge another set of counts into this one.
    pub fn merge(&mut self, other: &OpCounts) {
        self.add_sub += other.add_sub;
        self.mul += other.mul;
        self.div += other.div;
        self.math += other.math;
        self.math_cycles += other.math_cycles;
        self.loads += other.loads;
        self.stores += other.stores;
        self.compares += other.compares;
    }
}

/// Work attributed to one thread of a region, accumulated over all entries
/// of that region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadWork {
    /// Weighted work cycles executed by this thread (including critical
    /// sections).
    pub cycles: u64,
    /// Operations executed by this thread.
    pub ops: u64,
    /// Number of `omp critical` acquisitions.
    pub critical_acquisitions: u64,
    /// Cycles spent inside critical sections (subset of `cycles`).
    pub critical_cycles: u64,
}

/// Trace of one parallel region across the whole execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionTrace {
    pub region_id: u32,
    /// Times the region was entered (a region in a serial loop is entered
    /// once per iteration — the paper's Case-study-2 stressor).
    pub entries: u64,
    pub num_threads: u32,
    /// The region's loop was a worksharing (`omp for`) loop.
    pub omp_for: bool,
    pub has_reduction: bool,
    /// Per-thread accumulated work; length == `num_threads`.
    pub per_thread: Vec<ThreadWork>,
}

impl RegionTrace {
    pub(crate) fn new(region_id: u32, num_threads: u32) -> RegionTrace {
        RegionTrace {
            region_id,
            entries: 0,
            num_threads,
            omp_for: false,
            has_reduction: false,
            per_thread: vec![ThreadWork::default(); num_threads as usize],
        }
    }

    /// Total critical-section acquisitions across the team.
    pub fn total_critical_acquisitions(&self) -> u64 {
        self.per_thread
            .iter()
            .map(|t| t.critical_acquisitions)
            .sum()
    }

    /// Total cycles across the team.
    pub fn total_cycles(&self) -> u64 {
        self.per_thread.iter().map(|t| t.cycles).sum()
    }

    /// Cycles of the busiest thread — the floor on the region's critical
    /// path under perfect overlap.
    pub fn max_thread_cycles(&self) -> u64 {
        self.per_thread.iter().map(|t| t.cycles).max().unwrap_or(0)
    }

    /// Load imbalance: busiest / mean (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 || self.per_thread.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.per_thread.len() as f64;
        self.max_thread_cycles() as f64 / mean.max(1.0)
    }

    /// Fraction of team cycles spent inside critical sections.
    pub fn critical_fraction(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            return 0.0;
        }
        let crit: u64 = self.per_thread.iter().map(|t| t.critical_cycles).sum();
        crit as f64 / total as f64
    }
}

/// Full execution statistics for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Global operation counts (all contexts).
    pub ops: OpCounts,
    /// Loop iterations executed (all loops, all threads).
    pub loop_iterations: u64,
    /// Branches (if conditions) evaluated.
    pub branches: u64,
    /// Branches whose condition was true.
    pub branches_taken: u64,
    /// Branch tests that compared with `!=` and saw a NaN operand: the
    /// only tests the two [`crate::BoolSemantics`] decide differently. A
    /// run that made none took the path it would have taken under the
    /// other semantics.
    pub nan_ne_tests: u64,
    /// Arithmetic results that became NaN with non-NaN inputs.
    pub nan_produced: u64,
    /// Arithmetic results that became ±Inf with finite inputs.
    pub inf_produced: u64,
    /// Weighted cycles executed in serial context.
    pub serial_cycles: u64,
    /// Per-region traces, indexed by region id.
    pub regions: Vec<RegionTrace>,
}

impl ExecStats {
    /// Total weighted work cycles everywhere (serial + every thread).
    pub fn total_work_cycles(&self) -> u64 {
        self.serial_cycles + self.regions.iter().map(|r| r.total_cycles()).sum::<u64>()
    }

    /// Total parallel region entries across all regions.
    pub fn total_region_entries(&self) -> u64 {
        self.regions.iter().map(|r| r.entries).sum()
    }

    /// Whether any NaN or Inf was produced (numerical-exception signal the
    /// paper's §V-B attributes half the GCC fast outliers to).
    pub fn had_fp_exceptions(&self) -> bool {
        self.nan_produced > 0 || self.inf_produced > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_total_and_merge() {
        let mut a = OpCounts {
            add_sub: 1,
            mul: 2,
            div: 3,
            math: 4,
            math_cycles: 160,
            loads: 5,
            stores: 6,
            compares: 7,
        };
        assert_eq!(a.total(), 28);
        let b = a;
        a.merge(&b);
        assert_eq!(a.total(), 56);
    }

    #[test]
    fn region_trace_aggregates() {
        let mut r = RegionTrace::new(0, 4);
        r.per_thread[0].cycles = 100;
        r.per_thread[0].critical_cycles = 50;
        r.per_thread[0].critical_acquisitions = 2;
        r.per_thread[1].cycles = 100;
        r.per_thread[2].cycles = 100;
        r.per_thread[3].cycles = 500;
        assert_eq!(r.total_cycles(), 800);
        assert_eq!(r.max_thread_cycles(), 500);
        assert!((r.imbalance() - 2.5).abs() < 1e-12);
        assert_eq!(r.total_critical_acquisitions(), 2);
        assert!((r.critical_fraction() - 50.0 / 800.0).abs() < 1e-12);
    }

    #[test]
    fn empty_region_is_balanced() {
        let r = RegionTrace::new(0, 8);
        assert_eq!(r.imbalance(), 1.0);
        assert_eq!(r.critical_fraction(), 0.0);
    }

    #[test]
    fn stats_totals() {
        let mut s = ExecStats {
            serial_cycles: 10,
            ..ExecStats::default()
        };
        let mut r = RegionTrace::new(0, 2);
        r.entries = 3;
        r.per_thread[0].cycles = 5;
        r.per_thread[1].cycles = 7;
        s.regions.push(r);
        assert_eq!(s.total_work_cycles(), 22);
        assert_eq!(s.total_region_entries(), 3);
        assert!(!s.had_fp_exceptions());
        s.nan_produced = 1;
        assert!(s.had_fp_exceptions());
    }
}
