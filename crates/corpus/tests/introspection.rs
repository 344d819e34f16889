//! Property tests for the deep-introspection layer (latency histograms,
//! the VM hot-path profiler, the Chrome-trace buffer):
//!
//! 1. **Histogram algebra**: per-shard histogram snapshots merged in ANY
//!    order equal the histogram of the undivided sample stream, and
//!    percentiles are monotone in `p` and bounded by the observed maximum.
//! 2. **Out-of-band**: a campaign with EVERYTHING on — event sink, trace
//!    buffer, VM profiler — produces byte-identical catalog output and
//!    identical round summaries (including the deterministic per-round
//!    yield) to an introspection-off run.
//! 3. **Actually populated**: the same everything-on run fills the
//!    profiler and trace buffer and stamps latency histograms onto the
//!    round-end events — introspection is inert for results, not inert
//!    for observers.

use ompfuzz_backends::{standard_backends, OmpBackend};
use ompfuzz_corpus::{run_sharded_evolution, EvolveConfig, ShardedEvolveConfig, TriggerCatalog};
use ompfuzz_exec::ProfileCollector;
use ompfuzz_obs::{CaptureSink, Event, Obs, Phase, PhaseHists, TraceBuffer};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn test_config() -> EvolveConfig {
    let mut config = EvolveConfig::quick();
    config.rounds = 2;
    config.base.programs = 12;
    config
}

fn backends_dyn(backends: &[impl OmpBackend]) -> Vec<&dyn OmpBackend> {
    backends.iter().map(|b| b as &dyn OmpBackend).collect()
}

/// The next value of a deterministic walk over `u64` (the vendored
/// proptest draws scalars only, so sample vectors are derived from one
/// drawn walk seed).
fn step(state: &mut u64) -> u64 {
    *state = state.rotate_right(11).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    *state
}

proptest! {
    /// Sharding the sample stream and merging the per-shard snapshots in
    /// ANY order reproduces the undivided histogram exactly (per-bucket
    /// addition and max-of-maxes are commutative and associative).
    #[test]
    fn shard_histograms_merge_in_any_order_to_the_undivided_histogram(
        len in 1usize..80,
        shards in 1usize..5,
        walk in 0u64..u64::MAX,
    ) {
        let mut state = walk;
        let samples: Vec<(Phase, u64)> = (0..len)
            .map(|_| {
                let phase = Phase::ALL[(step(&mut state) % Phase::ALL.len() as u64) as usize];
                (phase, step(&mut state) % 5_000_000_000)
            })
            .collect();

        let undivided = PhaseHists::new();
        let parts: Vec<PhaseHists> = (0..shards).map(|_| PhaseHists::new()).collect();
        for (i, &(phase, nanos)) in samples.iter().enumerate() {
            undivided.record(phase, Duration::from_nanos(nanos));
            parts[i % shards].record(phase, Duration::from_nanos(nanos));
        }

        // Merge the shard snapshots in a walk-drawn permutation.
        let mut order: Vec<usize> = (0..shards).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (step(&mut state) % (i as u64 + 1)) as usize);
        }
        let mut merged = parts[order[0]].snapshot();
        for &i in &order[1..] {
            merged.merge(&parts[i].snapshot());
        }
        prop_assert_eq!(&merged, &undivided.snapshot());

        // `absorb` (the shard → campaign path) agrees with `merge`.
        let absorbed = PhaseHists::new();
        for &i in &order {
            absorbed.absorb(&parts[i].snapshot());
        }
        prop_assert_eq!(&absorbed.snapshot(), &merged);
        prop_assert_eq!(merged.total_count(), len as u64);
    }

    /// Percentiles never decrease as `p` grows and never exceed the
    /// observed maximum; p100 of a non-empty phase lands exactly on the
    /// maximum (bucket ceilings are clamped to it).
    #[test]
    fn percentiles_are_monotone_and_bounded(
        len in 1usize..60,
        walk in 0u64..u64::MAX,
    ) {
        let mut state = walk;
        let samples: Vec<u64> = (0..len).map(|_| step(&mut state) % 10_000_000_000).collect();
        let h = PhaseHists::new();
        for &nanos in &samples {
            h.record(Phase::Differential, Duration::from_nanos(nanos));
        }
        let snap = h.snapshot();
        let max = snap.max_nanos(Phase::Differential);
        prop_assert_eq!(max, *samples.iter().max().unwrap());

        let mut last = 0u64;
        for p in 0..=100u32 {
            let v = snap.percentile_nanos(Phase::Differential, f64::from(p));
            prop_assert!(v >= last, "p{} regressed: {} < {}", p, v, last);
            prop_assert!(v <= max, "p{} above max: {} > {}", p, v, max);
            last = v;
        }
        prop_assert_eq!(snap.percentile_nanos(Phase::Differential, 100.0), max);
    }
}

/// The campaign-level out-of-band guarantee, everything on at once: the
/// saved catalog bytes and the per-round summaries (programs, new
/// skeletons, yield per 1k, catalog size, ...) are a pure function of
/// (config, seed) whether or not an event sink, a trace buffer and the VM
/// profiler are watching — and the watchers actually saw the campaign.
#[test]
fn catalog_and_rounds_are_identical_with_full_introspection_on() {
    let backends = standard_backends();
    let dyns = backends_dyn(&backends);
    let config = ShardedEvolveConfig {
        evolve: test_config(),
        shards: 2,
    };

    let off = run_sharded_evolution(
        &config,
        &dyns,
        TriggerCatalog::new(),
        None,
        &Obs::off(),
        &ProfileCollector::off(),
    )
    .expect("in-memory run cannot fail");

    let sink = Arc::new(CaptureSink::new());
    let trace = Arc::new(TraceBuffer::new());
    let obs = Obs::with_sink_and_trace(Some(sink.clone()), Some(trace.clone()));
    let profile = ProfileCollector::enabled();
    let on = run_sharded_evolution(&config, &dyns, TriggerCatalog::new(), None, &obs, &profile)
        .expect("in-memory run cannot fail");

    // Results: byte-identical catalog, identical round summaries
    // (RoundSummary's Eq covers the deterministic yield_per_1k counter).
    assert_eq!(
        off.evolution.catalog.save_to_string(),
        on.evolution.catalog.save_to_string()
    );
    assert_eq!(off.evolution.rounds, on.evolution.rounds);

    // Observers: the profiler folded real dispatches, the trace buffer
    // holds spans, and every round-end event carries a non-empty latency
    // histogram whose per-phase totals grow round over round.
    let snapshot = profile.snapshot();
    assert!(!snapshot.is_empty(), "profiler saw no dispatches");
    assert!(snapshot.runs() > 0);
    assert!(snapshot.total_dispatches() > 0);
    assert!(!snapshot.blocks().is_empty());
    assert!(!trace.is_empty(), "trace buffer captured no spans");
    assert!(trace.to_json().contains("\"traceEvents\""));

    let events = sink.events();
    let round_hists: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::RoundEnd { hists, .. } => Some(hists.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(round_hists.len(), config.evolve.rounds);
    let mut last_total = 0;
    for hists in &round_hists {
        assert!(hists.count(Phase::Generate) > 0);
        assert!(hists.count(Phase::Differential) > 0);
        assert!(
            hists.total_count() >= last_total,
            "round-end histograms must accumulate"
        );
        last_total = hists.total_count();
    }
    match events.last() {
        Some(Event::CampaignEnd { hists, .. }) => {
            assert_eq!(hists, round_hists.last().unwrap());
        }
        other => panic!("expected CampaignEnd, got {other:?}"),
    }
}

/// An off collector and a drained trace stay empty across a real campaign
/// — no hidden cost paths turn themselves on.
#[test]
fn off_introspection_stays_empty() {
    let backends = standard_backends();
    let dyns = backends_dyn(&backends);
    let profile = ProfileCollector::off();
    let result = run_sharded_evolution(
        &ShardedEvolveConfig {
            evolve: test_config(),
            shards: 1,
        },
        &dyns,
        TriggerCatalog::new(),
        None,
        &Obs::metrics_only(),
        &profile,
    )
    .expect("in-memory run cannot fail");
    assert!(!result.evolution.rounds.is_empty());
    assert!(profile.snapshot().is_empty());
}
