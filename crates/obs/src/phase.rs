//! Wall-clock phase timers: where do campaign microseconds go?
//!
//! Each pool worker records the elapsed time of every pipeline section it
//! executes — generate / compile / race-filter / differential / reduce /
//! catalog-merge — into per-phase atomics. Summed across workers the
//! nanoseconds are *CPU time per phase*, which is the quantity that tells
//! us what to attack next (e.g. whether an execution engine earns its code).
//!
//! Unlike [`crate::metrics`], these numbers are real `Instant` readings
//! and therefore **not** deterministic. They flow only into events and the
//! `report --metrics` breakdown — never into checkpoint bytes, where they
//! would break the catalog's byte-identity invariant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of phases (the length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = 6;

/// One pipeline section of the campaign loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Index-addressed test generation inside worker closures.
    Generate,
    /// Per-backend lowering + bytecode compilation.
    Compile,
    /// The §IV-E dynamic race filter.
    RaceFilter,
    /// Differential `(input × backend)` executions.
    Differential,
    /// Batch reduction of outlier records (ddmin + oracle checks).
    Reduce,
    /// Folding reduced kernels and shard catalogs into the trigger catalog.
    CatalogMerge,
}

impl Phase {
    /// Every phase, in slot order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Generate,
        Phase::Compile,
        Phase::RaceFilter,
        Phase::Differential,
        Phase::Reduce,
        Phase::CatalogMerge,
    ];

    /// The stable external name used in JSONL and tables.
    pub fn key(self) -> &'static str {
        match self {
            Phase::Generate => "generate",
            Phase::Compile => "compile",
            Phase::RaceFilter => "race_filter",
            Phase::Differential => "differential",
            Phase::Reduce => "reduce",
            Phase::CatalogMerge => "catalog_merge",
        }
    }

    /// Inverse of [`Phase::key`].
    pub fn from_key(key: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.key() == key)
    }
}

/// One stripe of timer accumulators, padded onto its own cache lines.
#[derive(Debug, Default)]
#[repr(align(128))]
struct TimerStripe {
    nanos: [AtomicU64; PHASE_COUNT],
    calls: [AtomicU64; PHASE_COUNT],
}

/// Per-phase elapsed-nanosecond and call-count accumulators, recorded
/// concurrently by pool workers (relaxed atomics on per-thread stripes —
/// see [`crate::metrics`] — read only at quiescent snapshot points).
#[derive(Debug)]
pub struct PhaseTimers {
    stripes: [TimerStripe; crate::metrics::STRIPES],
}

impl Default for PhaseTimers {
    fn default() -> PhaseTimers {
        PhaseTimers {
            stripes: std::array::from_fn(|_| TimerStripe::default()),
        }
    }
}

impl PhaseTimers {
    /// Timers with every phase at zero.
    pub fn new() -> PhaseTimers {
        PhaseTimers::default()
    }

    /// Record one timed section of `phase`.
    #[inline]
    pub fn record(&self, phase: Phase, elapsed: Duration) {
        let stripe = &self.stripes[crate::metrics::stripe_index()];
        stripe.nanos[phase as usize].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        stripe.calls[phase as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current breakdown out (summed across stripes).
    pub fn snapshot(&self) -> PhaseBreakdown {
        let mut out = PhaseBreakdown::default();
        for stripe in &self.stripes {
            for i in 0..PHASE_COUNT {
                out.nanos[i] += stripe.nanos[i].load(Ordering::Relaxed);
                out.calls[i] += stripe.calls[i].load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Merge a child breakdown into these timers (shard → campaign).
    pub fn absorb(&self, breakdown: &PhaseBreakdown) {
        let stripe = &self.stripes[crate::metrics::stripe_index()];
        for i in 0..PHASE_COUNT {
            stripe.nanos[i].fetch_add(breakdown.nanos[i], Ordering::Relaxed);
            stripe.calls[i].fetch_add(breakdown.calls[i], Ordering::Relaxed);
        }
    }
}

/// An owned, mergeable copy of the per-phase totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseBreakdown {
    nanos: [u64; PHASE_COUNT],
    calls: [u64; PHASE_COUNT],
}

impl PhaseBreakdown {
    /// Accumulated worker nanoseconds in `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase as usize]
    }

    /// Accumulated worker microseconds in `phase`.
    pub fn micros(&self, phase: Phase) -> u64 {
        self.nanos(phase) / 1_000
    }

    /// Number of timed sections recorded for `phase`.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase as usize]
    }

    /// Sum of all phases' nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Add `other`'s totals into `self`.
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        for i in 0..PHASE_COUNT {
            self.nanos[i] += other.nanos[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// `(phase, nanos, calls)` triples in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64, u64)> + '_ {
        Phase::ALL
            .into_iter()
            .map(|p| (p, self.nanos(p), self.calls(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_key(p.key()), Some(p));
        }
        assert_eq!(Phase::from_key("lunch"), None);
    }

    #[test]
    fn record_snapshot_absorb() {
        let t = PhaseTimers::new();
        t.record(Phase::Compile, Duration::from_micros(5));
        t.record(Phase::Compile, Duration::from_micros(7));
        t.record(Phase::Reduce, Duration::from_nanos(100));
        let snap = t.snapshot();
        assert_eq!(snap.micros(Phase::Compile), 12);
        assert_eq!(snap.calls(Phase::Compile), 2);
        assert_eq!(snap.nanos(Phase::Reduce), 100);
        assert_eq!(snap.calls(Phase::Generate), 0);
        assert_eq!(snap.total_nanos(), 12_100);

        let parent = PhaseTimers::new();
        parent.absorb(&snap);
        parent.absorb(&snap);
        let merged = parent.snapshot();
        assert_eq!(merged.calls(Phase::Compile), 4);
        assert_eq!(merged.nanos(Phase::Compile), 24_000);
    }

    #[test]
    fn breakdown_merge() {
        let t = PhaseTimers::new();
        t.record(Phase::Differential, Duration::from_nanos(3));
        let mut a = t.snapshot();
        a.merge(&t.snapshot());
        assert_eq!(a.nanos(Phase::Differential), 6);
        assert_eq!(a.calls(Phase::Differential), 2);
        assert_eq!(a.iter().count(), PHASE_COUNT);
    }
}
