//! Property tests pinning the two telemetry invariants the observability
//! layer promises:
//!
//! 1. **Out-of-band**: running the same evolution with telemetry enabled
//!    (sink + counters + timers) produces byte-identical catalog output to
//!    a telemetry-off run — events can never influence results.
//! 2. **Mergeable**: per-shard counter snapshots combined in ANY order
//!    equal the unsharded run's totals (per-slot addition is commutative
//!    and associative, and shard execution is worker-count independent).

use ompfuzz_backends::{standard_backends, OmpBackend};
use ompfuzz_corpus::{
    run_evolution, run_sharded_evolution, EvolveConfig, ShardedEvolveConfig, TriggerCatalog,
};
use ompfuzz_obs::{CaptureSink, Counter, CounterSnapshot, Event, Obs};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn test_config() -> EvolveConfig {
    let mut config = EvolveConfig::quick();
    config.rounds = 2;
    config.base.programs = 12;
    config
}

fn backends_dyn(backends: &[impl OmpBackend]) -> Vec<&dyn OmpBackend> {
    backends.iter().map(|b| b as &dyn OmpBackend).collect()
}

/// One coordinated run at a given shard count: the saved catalog bytes,
/// the campaign-wide counter totals, the per-shard snapshots, and the
/// per-round summaries.
struct Run {
    catalog: String,
    totals: CounterSnapshot,
    shard_metrics: Vec<CounterSnapshot>,
    outliers: u64,
    reduced: u64,
    new_skeletons: u64,
}

fn coordinated_run(shards: usize) -> Run {
    let backends = standard_backends();
    let dyns = backends_dyn(&backends);
    let obs = Obs::metrics_only();
    let result = run_sharded_evolution(
        &ShardedEvolveConfig {
            evolve: test_config(),
            shards,
        },
        &dyns,
        TriggerCatalog::new(),
        None,
        &obs,
        &ompfuzz_exec::ProfileCollector::off(),
    )
    .expect("in-memory coordinated run cannot fail");
    Run {
        catalog: result.evolution.catalog.save_to_string(),
        totals: obs.counters(),
        shard_metrics: result
            .progress
            .iter()
            .flat_map(|round| round.shards.iter().map(|s| s.metrics))
            .collect(),
        outliers: result
            .evolution
            .rounds
            .iter()
            .map(|r| r.outlier_records as u64)
            .sum(),
        reduced: result
            .evolution
            .rounds
            .iter()
            .map(|r| r.reduced as u64)
            .sum(),
        new_skeletons: result
            .evolution
            .rounds
            .iter()
            .map(|r| r.new_skeletons as u64)
            .sum(),
    }
}

fn unsharded() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| coordinated_run(1))
}

fn sharded() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| coordinated_run(3))
}

/// Merge snapshots in the given visit order.
fn merge_in_order(snapshots: &[CounterSnapshot], order: &[usize]) -> CounterSnapshot {
    let mut merged = CounterSnapshot::default();
    for &i in order {
        merged.merge(&snapshots[i]);
    }
    merged
}

#[test]
fn catalog_bytes_are_identical_with_telemetry_on_and_off() {
    let backends = standard_backends();
    let dyns = backends_dyn(&backends);
    let config = test_config();
    let off = run_evolution(&config, &dyns, TriggerCatalog::new());

    let sink = Arc::new(CaptureSink::new());
    let obs = Obs::with_sink(sink.clone());
    let on = run_sharded_evolution(
        &ShardedEvolveConfig {
            evolve: config,
            shards: 1,
        },
        &dyns,
        TriggerCatalog::new(),
        None,
        &obs,
        &ompfuzz_exec::ProfileCollector::off(),
    )
    .expect("in-memory run cannot fail")
    .evolution;

    assert_eq!(off.catalog.save_to_string(), on.catalog.save_to_string());
    assert_eq!(off.rounds, on.rounds);

    // The stream actually happened and brackets the campaign.
    let events = sink.events();
    assert!(matches!(events.first(), Some(Event::CampaignStart { .. })));
    assert!(matches!(events.last(), Some(Event::CampaignEnd { .. })));
    assert!(events.iter().any(|e| matches!(e, Event::RoundEnd { .. })));
}

#[test]
fn campaign_totals_cross_check_the_evolution_summary() {
    let run = unsharded();
    let config = test_config();
    assert_eq!(
        run.totals.get(Counter::ProgramsGenerated),
        (config.rounds * config.base.programs) as u64
    );
    assert_eq!(run.totals.get(Counter::OutlierRecords), run.outliers);
    assert_eq!(run.totals.get(Counter::ReducedKernels), run.reduced);
    assert_eq!(run.totals.get(Counter::NewSkeletons), run.new_skeletons);
    assert!(run.totals.get(Counter::DifferentialRuns) > 0);
    assert!(run.totals.get(Counter::VmOps) > 0);
}

#[test]
fn sharded_catalog_and_totals_match_the_unsharded_run() {
    assert_eq!(unsharded().catalog, sharded().catalog);
    // Full campaign totals (including the coordinator-side NewSkeletons)
    // are shard-count independent.
    assert_eq!(unsharded().totals, sharded().totals);
}

proptest! {
    /// Per-shard snapshots merged in ANY order equal the unsharded run's
    /// worker-side totals (permutation drawn from `walk`).
    #[test]
    fn shard_snapshots_merge_in_any_order_to_unsharded_totals(walk in 0u64..u64::MAX) {
        let snapshots = &sharded().shard_metrics;
        let mut order: Vec<usize> = (0..snapshots.len()).collect();
        let mut choice = walk;
        for i in (1..order.len()).rev() {
            order.swap(i, (choice % (i as u64 + 1)) as usize);
            choice = choice.rotate_right(11).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        let merged = merge_in_order(snapshots, &order);
        let baseline = merge_in_order(
            &unsharded().shard_metrics,
            &(0..unsharded().shard_metrics.len()).collect::<Vec<_>>(),
        );
        prop_assert_eq!(merged, baseline);
    }
}
