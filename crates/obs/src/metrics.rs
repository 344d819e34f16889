//! The lock-free campaign counter registry.
//!
//! Every tally in here is a *deterministic* function of `(config, seed)`:
//! programs generated, compiles, race-filter hits, differential runs, VM
//! ops (the engines are bit-identical in `ExecStats`), budget aborts,
//! reducer candidate checks, catalog accounting. That is what makes the
//! snapshot-and-merge contract possible — shard snapshots merged in any
//! order equal the unsharded run's totals, and a snapshot embedded in a
//! shard checkpoint is byte-stable across rewrites. Wall-clock phase
//! timings are deliberately *not* in this module (see [`crate::phase`]);
//! they never enter checkpoint bytes.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of counters in the registry (the length of [`Counter::ALL`]).
pub const COUNTER_COUNT: usize = 13;

/// One deterministic campaign tally.
///
/// The discriminant is the counter's slot in [`MetricsRegistry`] and
/// [`CounterSnapshot`]; [`Counter::key`] is its stable external name (JSONL
/// fields, checkpoint metrics lines, the `report --metrics` table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Tests generated (fresh programs *and* grow-mutated catalog kernels).
    ProgramsGenerated,
    /// The grow-mutated tail of a round's corpus (subset of the above).
    MutantsGenerated,
    /// Per-backend `compile_lowered` calls.
    Compiles,
    /// Compiles that returned an error.
    CompileFailures,
    /// Programs discarded by the §IV-E dynamic race filter.
    RaceFilterHits,
    /// Individual `(input × backend)` differential executions.
    DifferentialRuns,
    /// Engine runs the differential oracle's steps actually made: one per
    /// step unless the step's first run tested a NaN with `!=`, none for a
    /// step whose every binary crashed before interpreting. Sharing makes
    /// this smaller than [`Counter::DifferentialRuns`].
    Interpretations,
    /// VM/interpreter operations across all differential runs (from
    /// `ExecStats`): the modelled ops of every `(input × backend)` run,
    /// summed per binary, so sharing an interpretation does not change it.
    VmOps,
    /// Runs aborted by the op budget (`RunStatus::Hang` without a thread
    /// snapshot).
    BudgetAborts,
    /// Campaign records whose analysis flagged an outlier.
    OutlierRecords,
    /// Reducer candidate checks (full differential oracle per candidate).
    ReducerCandidateChecks,
    /// Outliers successfully reduced to trigger kernels.
    ReducedKernels,
    /// Reduced kernels whose skeleton was new to the catalog.
    NewSkeletons,
}

impl Counter {
    /// Every counter, in registry slot order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::ProgramsGenerated,
        Counter::MutantsGenerated,
        Counter::Compiles,
        Counter::CompileFailures,
        Counter::RaceFilterHits,
        Counter::DifferentialRuns,
        Counter::Interpretations,
        Counter::VmOps,
        Counter::BudgetAborts,
        Counter::OutlierRecords,
        Counter::ReducerCandidateChecks,
        Counter::ReducedKernels,
        Counter::NewSkeletons,
    ];

    /// The stable external name used in JSONL, checkpoints and tables.
    pub fn key(self) -> &'static str {
        match self {
            Counter::ProgramsGenerated => "programs_generated",
            Counter::MutantsGenerated => "mutants_generated",
            Counter::Compiles => "compiles",
            Counter::CompileFailures => "compile_failures",
            Counter::RaceFilterHits => "race_filter_hits",
            Counter::DifferentialRuns => "differential_runs",
            Counter::Interpretations => "interpretations",
            Counter::VmOps => "vm_ops",
            Counter::BudgetAborts => "budget_aborts",
            Counter::OutlierRecords => "outlier_records",
            Counter::ReducerCandidateChecks => "reducer_candidate_checks",
            Counter::ReducedKernels => "reduced_kernels",
            Counter::NewSkeletons => "new_skeletons",
        }
    }

    /// Inverse of [`Counter::key`]; `None` for unknown names (a newer
    /// writer's counter read by an older parser is skipped, not an error).
    pub fn from_key(key: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.key() == key)
    }
}

/// Stripes per registry/timer bank. Each worker thread lands on its own
/// stripe (round-robin by first touch), so the hot `fetch_add` path never
/// ping-pongs a cache line between pool workers — with a single shared
/// bank, counter traffic cost ~10% of campaign throughput on cheap
/// programs. Totals are the sum over stripes; addition is commutative, so
/// snapshots are exactly what a single bank would have accumulated.
pub(crate) const STRIPES: usize = 16;

/// The calling thread's stripe: assigned round-robin on first use,
/// cached in a thread-local (a TLS read per `add` thereafter).
#[inline]
pub(crate) fn stripe_index() -> usize {
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|slot| {
        let mut stripe = slot.get();
        if stripe == usize::MAX {
            stripe = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
            slot.set(stripe);
        }
        stripe
    })
}

/// One stripe of counters, padded onto its own cache lines.
#[derive(Debug, Default)]
#[repr(align(128))]
struct CounterStripe {
    counters: [AtomicU64; COUNTER_COUNT],
}

/// Lock-free counters: per-thread-striped relaxed `AtomicU64` banks, one
/// slot per [`Counter`]. Workers `add` concurrently on their own stripe;
/// nobody reads until a quiescent [`snapshot`](MetricsRegistry::snapshot),
/// so relaxed ordering is sufficient.
#[derive(Debug)]
pub struct MetricsRegistry {
    stripes: [CounterStripe; STRIPES],
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry {
            stripes: std::array::from_fn(|_| CounterStripe::default()),
        }
    }
}

impl MetricsRegistry {
    /// A registry with every counter at zero.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `n` to `counter` (relaxed; callable from any worker thread).
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.stripes[stripe_index()].counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Copy the current totals out (summed across stripes).
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut values = [0u64; COUNTER_COUNT];
        for stripe in &self.stripes {
            for (slot, counter) in values.iter_mut().zip(&stripe.counters) {
                *slot += counter.load(Ordering::Relaxed);
            }
        }
        CounterSnapshot { values }
    }

    /// Merge a child snapshot into this registry (shard → campaign).
    pub fn absorb(&self, snapshot: &CounterSnapshot) {
        let stripe = &self.stripes[stripe_index()];
        for (counter, value) in stripe.counters.iter().zip(snapshot.values) {
            counter.fetch_add(value, Ordering::Relaxed);
        }
    }
}

/// An owned, mergeable copy of a registry's totals. Merging is per-slot
/// addition — commutative and associative, so shard snapshots combined in
/// any order reproduce the unsharded totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    values: [u64; COUNTER_COUNT],
}

impl CounterSnapshot {
    /// The value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize]
    }

    /// Add `other`'s values into `self`.
    pub fn merge(&mut self, other: &CounterSnapshot) {
        for (slot, value) in self.values.iter_mut().zip(other.values) {
            *slot += value;
        }
    }

    /// `(counter, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.into_iter().map(|c| (c, self.get(c)))
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// The checkpoint form: `(metrics (programs_generated 3) ...)` — one
    /// keyed pair per counter, in slot order, so the line is deterministic
    /// and byte-stable under write → read → write.
    pub fn to_line(&self) -> String {
        let mut out = String::from("(metrics");
        for (counter, value) in self.iter() {
            out.push_str(&format!(" ({} {value})", counter.key()));
        }
        out.push(')');
        out
    }

    /// Parse [`CounterSnapshot::to_line`]. Unknown keys are skipped
    /// (forward compatibility); missing keys stay zero. Returns `None`
    /// only on structural damage.
    pub fn parse_line(line: &str) -> Option<CounterSnapshot> {
        let body = line
            .trim()
            .strip_prefix("(metrics")?
            .strip_suffix(')')?
            .trim();
        let mut snapshot = CounterSnapshot::default();
        let mut rest = body;
        while !rest.is_empty() {
            let open = rest.strip_prefix('(')?;
            let close = open.find(')')?;
            let mut pair = open[..close].split_whitespace();
            let key = pair.next()?;
            let value: u64 = pair.next()?.parse().ok()?;
            if pair.next().is_some() {
                return None;
            }
            if let Some(counter) = Counter::from_key(key) {
                snapshot.values[counter as usize] = value;
            }
            rest = open[close + 1..].trim_start();
        }
        Some(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_key(c.key()), Some(c));
        }
        assert_eq!(Counter::from_key("nope"), None);
    }

    #[test]
    fn add_snapshot_absorb() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::Compiles, 3);
        reg.add(Counter::Compiles, 2);
        reg.add(Counter::VmOps, 1_000_000);
        let snap = reg.snapshot();
        assert_eq!(snap.get(Counter::Compiles), 5);
        assert_eq!(snap.get(Counter::VmOps), 1_000_000);
        assert_eq!(snap.get(Counter::RaceFilterHits), 0);

        let parent = MetricsRegistry::new();
        parent.add(Counter::Compiles, 1);
        parent.absorb(&snap);
        assert_eq!(parent.snapshot().get(Counter::Compiles), 6);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = CounterSnapshot::default();
        let mut b = CounterSnapshot::default();
        let reg = MetricsRegistry::new();
        reg.add(Counter::DifferentialRuns, 7);
        let x = reg.snapshot();
        reg.add(Counter::BudgetAborts, 2);
        let y = reg.snapshot();
        a.merge(&x);
        a.merge(&y);
        b.merge(&y);
        b.merge(&x);
        assert_eq!(a, b);
        assert_eq!(a.get(Counter::DifferentialRuns), 14);
    }

    #[test]
    fn line_round_trips() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::ProgramsGenerated, 40);
        reg.add(Counter::NewSkeletons, 3);
        let snap = reg.snapshot();
        let line = snap.to_line();
        assert!(
            line.starts_with("(metrics (programs_generated 40)"),
            "{line}"
        );
        assert_eq!(CounterSnapshot::parse_line(&line), Some(snap));
        // Byte stability: parse → render reproduces the line.
        assert_eq!(CounterSnapshot::parse_line(&line).unwrap().to_line(), line);
    }

    #[test]
    fn lines_written_before_a_counter_existed_load_it_as_zero() {
        // A shard checkpoint's metrics line from before `interpretations`
        // was added: every other counter loads, the new one reads zero.
        let old = "(metrics (programs_generated 6) (mutants_generated 1) (compiles 21) \
                   (compile_failures 0) (race_filter_hits 0) (differential_runs 63) \
                   (vm_ops 9000) (budget_aborts 2) (outlier_records 3) \
                   (reducer_candidate_checks 0) (reduced_kernels 0) (new_skeletons 0))";
        let snap = CounterSnapshot::parse_line(old).expect("older line parses");
        assert_eq!(snap.get(Counter::Interpretations), 0);
        assert_eq!(snap.get(Counter::DifferentialRuns), 63);
        assert_eq!(snap.get(Counter::VmOps), 9000);
        assert_eq!(snap.get(Counter::BudgetAborts), 2);
        assert_eq!(snap.get(Counter::MutantsGenerated), 1);
        // Written back, the line gains the new pair beside its neighbour.
        assert!(snap
            .to_line()
            .contains("(differential_runs 63) (interpretations 0) (vm_ops 9000)"));
    }

    #[test]
    fn unknown_keys_are_skipped_and_damage_is_rejected() {
        let ok = CounterSnapshot::parse_line("(metrics (compiles 4) (future_counter 9))");
        assert_eq!(ok.unwrap().get(Counter::Compiles), 4);
        assert_eq!(CounterSnapshot::parse_line("(metrics (compiles x))"), None);
        assert_eq!(CounterSnapshot::parse_line("(metrics (compiles 4"), None);
        assert_eq!(CounterSnapshot::parse_line("metrics"), None);
        assert!(CounterSnapshot::parse_line("(metrics)").unwrap().is_zero());
    }
}
