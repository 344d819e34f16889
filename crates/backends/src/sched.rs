//! The time model: turning interpreter work traces into simulated
//! wall-clock microseconds under a vendor's [`RuntimeModel`].
//!
//! The model is a small analytic discrete-event schedule per region entry:
//!
//! * non-critical work of the team's threads overlaps perfectly, so its
//!   contribution is the **busiest thread's span**;
//! * critical-section bodies serialize (sum over all threads) and each
//!   acquisition pays a contention-dependent lock cost
//!   (`base × contenders^exp` — the queuing-lock collapse of Case
//!   studies 1/3 lives in that exponent);
//! * every region entry pays fork/join, barrier, worksharing-setup and
//!   reduction costs; re-entries additionally pay the un-reused fraction of
//!   team construction (the `libomp` pathology of Case study 2);
//! * threads that finish early wait at the join barrier — that waiting time
//!   is tracked because the `perf` profiles of Figs. 6/7 are dominated by
//!   it.

use crate::rtmodel::RuntimeModel;
use ompfuzz_exec::{ExecStats, OpCounts, RegionTrace};

/// Where the simulated time went. All values in microseconds of simulated
/// wall-clock time, except the `*_thread_us` aggregates which are
/// thread-microseconds (summed over the team, for counters/profiles).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Serial (outside-region) compute time.
    pub serial_us: f64,
    /// Critical-path parallel compute time (busiest thread per region).
    pub parallel_work_us: f64,
    /// Serialized critical-section execution plus lock acquisition
    /// overhead.
    pub lock_us: f64,
    /// Fork/join and team (re)construction.
    pub team_mgmt_us: f64,
    /// Barrier costs plus imbalance (early threads waiting at the join).
    pub barrier_us: f64,
    /// Reduction combination.
    pub reduction_us: f64,
    /// Total simulated wall-clock time.
    pub total_us: f64,
    /// Thread-µs of useful computation (for counters/profiles).
    pub busy_thread_us: f64,
    /// Thread-µs spent waiting (barrier imbalance + lock waits).
    pub wait_thread_us: f64,
    /// Total region entries.
    pub region_entries: u64,
    /// Largest team observed.
    pub max_team: u32,
    /// Total critical acquisitions.
    pub critical_acqs: u64,
}

impl TimeBreakdown {
    /// Total thread-µs (busy + waiting); the denominator for profile
    /// percentages.
    pub fn thread_time_us(&self) -> f64 {
        self.busy_thread_us + self.wait_thread_us
    }
}

/// Cost-model adjustment: the interpreter charges *canonical* cycles
/// (div = 14, math = per-function); a backend whose divider or math library
/// is faster/slower reweights those classes. Returns the multiplier to
/// apply to every canonical cycle count.
pub fn cost_adjustment(ops: &OpCounts, model: &RuntimeModel) -> f64 {
    // Canonical cycle totals per class (matching the interpreter's charges).
    let div_cycles = ops.div as f64 * 14.0;
    let math_cycles = ops.math_cycles as f64;
    let other_cycles = ops.add_sub as f64 * 1.0
        + ops.mul as f64 * 2.0
        + ops.loads as f64 * 1.5 // mix of scalar (1) and element (3) loads
        + ops.stores as f64 * 1.5
        + ops.compares as f64;
    let canonical = div_cycles + math_cycles + other_cycles;
    if canonical <= 0.0 {
        return 1.0;
    }
    let adjusted =
        div_cycles * model.div_cost_factor + math_cycles * model.math_cost_factor + other_cycles;
    adjusted / canonical
}

/// Compute the full time breakdown of one run under `model`.
///
/// `opt_factor` scales compute throughput for the optimization level
/// (1.0 at `-O3`); runtime overheads are unaffected by `-O`.
pub fn time_breakdown(stats: &ExecStats, model: &RuntimeModel, opt_factor: f64) -> TimeBreakdown {
    let adj = cost_adjustment(&stats.ops, model);
    let cycles_to_us = adj / (model.cycles_per_us * opt_factor.max(0.01));

    let mut b = TimeBreakdown {
        serial_us: stats.serial_cycles as f64 * cycles_to_us,
        ..TimeBreakdown::default()
    };
    b.busy_thread_us += b.serial_us;

    for region in &stats.regions {
        add_region(&mut b, region, model, cycles_to_us);
    }

    b.total_us = b.serial_us
        + b.parallel_work_us
        + b.lock_us
        + b.team_mgmt_us
        + b.barrier_us
        + b.reduction_us;
    b
}

fn add_region(b: &mut TimeBreakdown, r: &RegionTrace, model: &RuntimeModel, cycles_to_us: f64) {
    if r.entries == 0 {
        return;
    }
    let team = r.num_threads.max(1);
    b.max_team = b.max_team.max(team);
    b.region_entries += r.entries;

    // --- compute: overlap non-critical work, serialize critical bodies ---
    let noncrit_us: Vec<f64> = r
        .per_thread
        .iter()
        .map(|t| (t.cycles - t.critical_cycles) as f64 * cycles_to_us)
        .collect();
    let span = noncrit_us.iter().copied().fold(0.0, f64::max);
    let crit_exec_us: f64 = r
        .per_thread
        .iter()
        .map(|t| t.critical_cycles as f64 * cycles_to_us)
        .sum();

    // --- locks: contention-dependent acquisition overhead ---
    let acqs = r.total_critical_acquisitions();
    b.critical_acqs += acqs;
    let contenders = r
        .per_thread
        .iter()
        .filter(|t| t.critical_acquisitions > 0)
        .count()
        .max(1) as f64;
    let per_acq_us = model.critical_base_us * contenders.powf(model.critical_contention_exp);
    let lock_overhead_us = acqs as f64 * per_acq_us;
    let lock_us = crit_exec_us + lock_overhead_us;

    // --- region management ---
    let entries = r.entries as f64;
    let reentry_create = (1.0 - model.team_reuse_efficiency).clamp(0.0, 1.0);
    let mgmt_us = model.team_create_us                      // first entry: full build
        + (entries - 1.0) * model.team_create_us * reentry_create
        + entries * model.fork_join_us;

    // --- barriers: per-entry cost plus imbalance waits ---
    let barrier_cost_us = entries * team as f64 * model.barrier_us_per_thread
        + if r.omp_for {
            entries * model.ws_loop_setup_us
        } else {
            0.0
        };
    // Early threads wait for the busiest one.
    let imbalance_wait_us: f64 = noncrit_us.iter().map(|w| span - w).sum();

    // --- reduction combine ---
    let reduction_us = if r.has_reduction {
        entries * team as f64 * model.reduction_us_per_thread
    } else {
        0.0
    };

    b.parallel_work_us += span;
    b.lock_us += lock_us;
    b.team_mgmt_us += mgmt_us;
    b.barrier_us += barrier_cost_us;
    b.reduction_us += reduction_us;

    // Thread-time aggregates.
    let busy: f64 = noncrit_us.iter().sum::<f64>() + crit_exec_us;
    // Lock waits: while one thread holds the lock, on average
    // (contenders-1)/contenders of the acquirers queue behind it.
    let lock_wait = lock_overhead_us * (contenders - 1.0).max(0.0)
        + crit_exec_us * (contenders - 1.0).max(0.0) / contenders;
    // While the master (re)builds the team, the rest of the team waits —
    // this is what makes libomp's per-entry reconstruction visible in
    // Table III's cycle and instruction counts.
    let mgmt_wait = mgmt_us * (team as f64 - 1.0).max(0.0);
    b.busy_thread_us += busy;
    b.wait_thread_us += imbalance_wait_us + lock_wait + barrier_cost_us * 0.5 + mgmt_wait;
}

/// Deterministic jitter in `[1-amp, 1+amp]` from an FNV-1a hash of the run
/// identity. Real measurements are noisy; ±3% keeps the outlier math honest
/// without ever flipping a modelled effect.
pub fn jitter(seed_material: &[u8], amplitude: f64) -> f64 {
    let h = fnv1a(seed_material);
    let unit = (h % 10_000) as f64 / 10_000.0; // [0, 1)
    1.0 + (unit * 2.0 - 1.0) * amplitude
}

/// 64-bit FNV-1a over bytes: the one copy behind all deterministic
/// pseudo-randomness in the backends (jitter, bug triggers) and behind the
/// corpus's campaign fingerprints, checkpoint seals and fault plans and the
/// serve scheduler's backoff jitter.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One SplitMix64 step: the draws of the corpus's fault plans and the
/// serve scheduler's backoff jitter.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Vendor;
    use crate::rtmodel::{runtime_model, BugModels};
    use ompfuzz_exec::{RegionTrace, ThreadWork};

    fn stats_with_region(
        entries: u64,
        team: u32,
        cycles_per_thread: u64,
        crit_cycles: u64,
        acqs_per_thread: u64,
    ) -> ExecStats {
        let mut r = RegionTrace {
            region_id: 0,
            entries,
            num_threads: team,
            omp_for: true,
            has_reduction: false,
            per_thread: vec![
                ThreadWork {
                    cycles: cycles_per_thread,
                    ops: cycles_per_thread,
                    critical_acquisitions: acqs_per_thread,
                    critical_cycles: crit_cycles,
                };
                team as usize
            ],
        };
        r.per_thread[0].cycles += 1000; // slight imbalance
        ExecStats {
            serial_cycles: 10_000,
            regions: vec![r],
            ..ExecStats::default()
        }
    }

    #[test]
    fn serial_time_scales_with_throughput() {
        let bugs = BugModels::default();
        let model = runtime_model(Vendor::GccLike, &bugs);
        let stats = ExecStats {
            serial_cycles: 2_100_000,
            ..ExecStats::default()
        };
        let b = time_breakdown(&stats, &model, 1.0);
        // 2.1M cycles at 2100 cycles/µs ≈ 1000 µs.
        assert!((b.serial_us - 1000.0).abs() < 1.0);
        assert_eq!(b.total_us, b.serial_us);
    }

    #[test]
    fn opt_factor_slows_compute_only() {
        let bugs = BugModels::default();
        let model = runtime_model(Vendor::IntelLike, &bugs);
        let stats = stats_with_region(1, 4, 100_000, 0, 0);
        let o3 = time_breakdown(&stats, &model, 1.0);
        let o0 = time_breakdown(&stats, &model, 0.3);
        assert!(o0.parallel_work_us > o3.parallel_work_us * 3.0);
        assert_eq!(o0.team_mgmt_us, o3.team_mgmt_us);
    }

    #[test]
    fn reentry_cost_dominates_for_clang_like() {
        let bugs = BugModels::default();
        let clang = runtime_model(Vendor::ClangLike, &bugs);
        let intel = runtime_model(Vendor::IntelLike, &bugs);
        // Region entered 200 times with tiny work: Case study 2 shape.
        let stats = stats_with_region(200, 32, 2_000, 0, 0);
        let tc = time_breakdown(&stats, &clang, 1.0);
        let ti = time_breakdown(&stats, &intel, 1.0);
        assert!(
            tc.total_us > 5.0 * ti.total_us,
            "clang {} vs intel {}",
            tc.total_us,
            ti.total_us
        );
        assert!(tc.team_mgmt_us > 0.8 * tc.total_us);
    }

    #[test]
    fn contention_hurts_intel_like_most() {
        let bugs = BugModels::default();
        let intel = runtime_model(Vendor::IntelLike, &bugs);
        let gcc = runtime_model(Vendor::GccLike, &bugs);
        // Heavy criticals in a worksharing loop: Case study 1 shape.
        let stats = stats_with_region(1, 32, 50_000, 20_000, 2_000);
        let ti = time_breakdown(&stats, &intel, 1.0);
        let tg = time_breakdown(&stats, &gcc, 1.0);
        assert!(
            ti.total_us > 1.5 * tg.total_us,
            "intel {} vs gcc {}",
            ti.total_us,
            tg.total_us
        );
        assert!(ti.lock_us > tg.lock_us);
    }

    #[test]
    fn healthy_models_are_comparable_on_contention() {
        let bugs = BugModels::none();
        let intel = runtime_model(Vendor::IntelLike, &bugs);
        let gcc = runtime_model(Vendor::GccLike, &bugs);
        let stats = stats_with_region(1, 32, 50_000, 20_000, 2_000);
        let ti = time_breakdown(&stats, &intel, 1.0).total_us;
        let tg = time_breakdown(&stats, &gcc, 1.0).total_us;
        let rel = (ti - tg).abs() / ti.min(tg);
        assert!(rel < 0.5, "healthy models diverge: {rel}");
    }

    #[test]
    fn cost_adjustment_reweights_divisions() {
        let bugs = BugModels::default();
        let intel = runtime_model(Vendor::IntelLike, &bugs);
        let ops = OpCounts {
            div: 1000,
            ..OpCounts::default()
        };
        let adj = cost_adjustment(&ops, &intel);
        assert!((adj - intel.div_cost_factor).abs() < 1e-9);
        // No ops: neutral.
        assert_eq!(cost_adjustment(&OpCounts::default(), &intel), 1.0);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let bugs = BugModels::default();
        let model = runtime_model(Vendor::ClangLike, &bugs);
        let stats = stats_with_region(10, 8, 30_000, 5_000, 50);
        let b = time_breakdown(&stats, &model, 1.0);
        let sum = b.serial_us
            + b.parallel_work_us
            + b.lock_us
            + b.team_mgmt_us
            + b.barrier_us
            + b.reduction_us;
        assert!((sum - b.total_us).abs() < 1e-9);
        assert!(b.thread_time_us() >= b.busy_thread_us);
        assert_eq!(b.region_entries, 10);
        assert_eq!(b.max_team, 8);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let a = jitter(b"test_1/0/intel", 0.03);
        let b_ = jitter(b"test_1/0/intel", 0.03);
        assert_eq!(a, b_);
        assert!((0.97..=1.03).contains(&a));
        let c = jitter(b"test_1/0/gcc", 0.03);
        assert_ne!(a, c);
    }

    #[test]
    fn fnv_known_value() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
