//! Fig. 7 — `--children` stack profiles for case study 2.

use criterion::{criterion_group, criterion_main, Criterion};
use ompfuzz_backends::{CompileOptions, ProfileMode, RunOptions, SimBackend};
use ompfuzz_harness::caselib;
use ompfuzz_report::{run_experiment, Scale};
use std::hint::black_box;

fn bench_fig7(c: &mut Criterion) {
    println!("\n{}", run_experiment("fig7", Scale::Paper).unwrap());

    let program = caselib::case_study_2(100, 200, 32);
    let input = caselib::case_study_input(&program);
    let clang = SimBackend::clang()
        .compile_sim(&program, &CompileOptions::default())
        .unwrap();

    let mut group = c.benchmark_group("fig7");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("children_profile", |b| {
        b.iter(|| {
            black_box(clang.perf_report(
                black_box(&input),
                &RunOptions::default(),
                ProfileMode::Children,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
