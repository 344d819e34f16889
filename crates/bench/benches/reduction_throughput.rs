//! Reduction-subsystem benchmark: how fast the delta debugger shrinks a
//! case-study-scale outlier, and the cost of one oracle check (the unit of
//! everything the reducer does).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ompfuzz_backends::{oracle, standard_backends, CompileOptions, OmpBackend, RunOptions};
use ompfuzz_harness::caselib;
use ompfuzz_outlier::OutlierKind;
use ompfuzz_reduce::{ReduceConfig, Reducer, ReductionTarget, Verdict};
use std::hint::black_box;

fn hang_target() -> ReductionTarget {
    let program = caselib::case_study_3(6000, 32);
    let input = caselib::case_study_input(&program);
    ReductionTarget::new(program, input, Verdict::new(OutlierKind::Hang, 0))
}

fn bench_reduction(c: &mut Criterion) {
    let target = hang_target();
    let backends = standard_backends();
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();

    // Print the representative artifact once, paper-style.
    let outcome = Reducer::new(&dyns, ReduceConfig::default()).reduce(&target);
    println!(
        "\nreduction workload: {} -> {} statements ({:.1}% shrink), {} oracle checks, {} rounds",
        outcome.original_stmts,
        outcome.reduced_stmts,
        outcome.shrink_percent(),
        outcome.oracle_checks,
        outcome.rounds
    );

    let mut group = c.benchmark_group("reduction_throughput");

    // One oracle check: lower + bytecode compile + 3 simulated compile/run
    // cycles + analysis.
    group.throughput(Throughput::Elements(1));
    group.bench_function("single_oracle_check", |b| {
        b.iter(|| {
            let kernel = ompfuzz_exec::lower(black_box(&target.program)).unwrap();
            let prepared = ompfuzz_exec::PreparedKernel::new(kernel);
            black_box(oracle::observe(
                &target.program,
                &target.input,
                &dyns,
                Some(&prepared),
                &CompileOptions::default(),
                &RunOptions {
                    max_ops: 40_000_000,
                    ..RunOptions::default()
                },
                &mut ompfuzz_exec::ExecScratch::new(),
                &ompfuzz_obs::Obs::off(),
            ))
        })
    });

    // Full fixpoint reductions per second, sequential vs. worker pool.
    group.throughput(Throughput::Elements(outcome.oracle_checks as u64));
    group.bench_function("cs3_hang_reduction_1_worker", |b| {
        let config = ReduceConfig {
            workers: 1,
            ..ReduceConfig::default()
        };
        let reducer = Reducer::new(&dyns, config);
        b.iter(|| black_box(reducer.reduce(black_box(&target))))
    });
    group.bench_function("cs3_hang_reduction_8_workers", |b| {
        let config = ReduceConfig {
            workers: 8,
            ..ReduceConfig::default()
        };
        let reducer = Reducer::new(&dyns, config);
        b.iter(|| black_box(reducer.reduce(black_box(&target))))
    });
    group.finish();
}

criterion_group!(benches, bench_reduction);
criterion_main!(benches);
