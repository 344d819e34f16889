//! Sharded-coordinator benchmark: what does splitting a round into shards
//! cost, and what does resuming from a fully-checkpointed campaign save?
//!
//! Prints the equivalence check once (1-shard vs. 4-shard catalogs must be
//! byte-identical — the CI invariant, visible here at bench scale), then
//! times the coordinator at 1 and 4 shards and a warm resume where every
//! shard loads from its checkpoint instead of running.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ompfuzz_backends::{standard_backends, OmpBackend};
use ompfuzz_corpus::{
    run_sharded_evolution, Checkpoint, EvolveConfig, ShardedEvolution, ShardedEvolveConfig,
    TriggerCatalog,
};
use ompfuzz_exec::ProfileCollector;
use ompfuzz_obs::Obs;
use std::hint::black_box;

fn config(shards: usize) -> ShardedEvolveConfig {
    ShardedEvolveConfig {
        evolve: EvolveConfig::quick(),
        shards,
    }
}

/// The coordinator from an empty catalog with telemetry off.
fn evolve(
    shards: usize,
    dyns: &[&dyn OmpBackend],
    checkpoint: Option<&Checkpoint>,
) -> ShardedEvolution {
    run_sharded_evolution(
        &config(shards),
        dyns,
        TriggerCatalog::new(),
        checkpoint,
        &Obs::off(),
        &ProfileCollector::off(),
    )
    .unwrap()
}

fn bench_sharded_evolution(c: &mut Criterion) {
    let backends = standard_backends();
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();

    let one = evolve(1, &dyns, None);
    let four = evolve(4, &dyns, None);
    assert_eq!(
        one.evolution.catalog.save_to_string(),
        four.evolution.catalog.save_to_string(),
        "shard count changed the catalog"
    );
    println!(
        "\nsharded evolution @ {} rounds × {} programs: {} kernels cataloged, \
         identical bytes for 1 and 4 shards",
        config(1).evolve.rounds,
        config(1).evolve.base.programs,
        one.evolution.catalog.len()
    );

    let programs = (config(1).evolve.rounds * config(1).evolve.base.programs) as u64;
    let mut group = c.benchmark_group("sharded_evolution");
    group.throughput(Throughput::Elements(programs));
    group.bench_function("coordinator_1_shard", |b| {
        b.iter(|| black_box(evolve(1, &dyns, None)))
    });
    group.bench_function("coordinator_4_shards", |b| {
        b.iter(|| black_box(evolve(4, &dyns, None)))
    });

    // Warm resume: every shard of every round loads from its checkpoint.
    let dir = std::env::temp_dir().join(format!("ompfuzz-bench-resume-{}", std::process::id()));
    let ckpt = Checkpoint::open(&dir).unwrap();
    evolve(4, &dyns, Some(&ckpt));
    group.bench_function("warm_resume_4_shards", |b| {
        b.iter(|| {
            let resumed = evolve(4, &dyns, Some(&ckpt));
            assert!(resumed
                .progress
                .iter()
                .flat_map(|r| &r.shards)
                .all(|s| s.status == ompfuzz_corpus::ShardStatus::Cached));
            black_box(resumed)
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_sharded_evolution);
criterion_main!(benches);
