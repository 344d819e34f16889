//! Fig. 6 — flat `perf report` stack profiles for case study 1.

use criterion::{criterion_group, criterion_main, Criterion};
use ompfuzz_backends::{profile, time_breakdown, ProfileMode, Vendor};
use ompfuzz_backends::{runtime_model, BugModels, CompileOptions, RunOptions, SimBackend};
use ompfuzz_exec::{lower, CompiledKernel, ExecOptions, ExecScratch};
use ompfuzz_harness::caselib;
use ompfuzz_report::{run_experiment, Scale};
use std::hint::black_box;

fn bench_fig6(c: &mut Criterion) {
    println!("\n{}", run_experiment("fig6", Scale::Paper).unwrap());

    // Measure the profile-generation step in isolation.
    let program = caselib::case_study_1(5_000, 32);
    let input = caselib::case_study_input(&program);
    let stats = CompiledKernel::compile(lower(&program).unwrap())
        .run(&input, &ExecOptions::default(), &mut ExecScratch::new())
        .unwrap()
        .stats;
    let model = runtime_model(Vendor::IntelLike, &BugModels::default());
    let breakdown = time_breakdown(&stats, &model, 1.0);

    let mut group = c.benchmark_group("fig6");
    group.bench_function("build_flat_profile", |b| {
        b.iter(|| {
            black_box(profile::build(
                Vendor::IntelLike,
                black_box(&breakdown),
                "_test_2",
                ProfileMode::Flat,
            ))
        })
    });
    group.bench_function("cs1_compile", |b| {
        let backend = SimBackend::intel();
        b.iter(|| black_box(backend.compile_sim(black_box(&program), &CompileOptions::default())))
    });
    let _ = RunOptions::default();
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
