//! Ablation: each modelled implementation behaviour, toggled individually.
//!
//! DESIGN.md's claim is that every anomaly class in Table I traces back to
//! exactly one bug model; this bench verifies it campaign-wide by diffing
//! outlier tallies with single models disabled.

use criterion::{criterion_group, criterion_main, Criterion};
use ompfuzz_backends::{BugModels, OmpBackend, SimBackend, Vendor};
use ompfuzz_bench::{bench_campaign_config, print_campaign_config};
use ompfuzz_harness::run_campaign;
use ompfuzz_obs::Obs;
use ompfuzz_outlier::OutlierKind;
use std::hint::black_box;

fn campaign_counts_with(
    config: &ompfuzz_harness::CampaignConfig,
    bugs: BugModels,
) -> (u64, u64, u64, u64) {
    let backends = [
        SimBackend::with_bugs(Vendor::IntelLike, bugs),
        SimBackend::with_bugs(Vendor::ClangLike, bugs),
        SimBackend::with_bugs(Vendor::GccLike, bugs),
    ];
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
    let r = run_campaign(config, &dyns, &Obs::off());
    let idx = |l: &str| r.labels.iter().position(|x| x == l).unwrap();
    (
        r.tally.count(idx("Clang"), OutlierKind::Slow),
        r.tally.count(idx("GCC"), OutlierKind::Fast),
        r.tally.count(idx("GCC"), OutlierKind::Crash),
        r.tally.count(idx("Intel"), OutlierKind::Hang),
    )
}

fn bench_bugmodels(c: &mut Criterion) {
    println!("\nbug-model ablation (counts: Clang-slow / GCC-fast / GCC-crash / Intel-hang):");
    let print_cfg = print_campaign_config();
    let campaign_counts = |bugs: BugModels| campaign_counts_with(&print_cfg, bugs);
    let all = BugModels::default();
    println!("  all models on        : {:?}", campaign_counts(all));
    println!(
        "  no team re-creation  : {:?}",
        campaign_counts(BugModels {
            clang_team_recreation: false,
            ..all
        })
    );
    println!(
        "  no queuing-lock model: {:?}",
        campaign_counts(BugModels {
            intel_queuing_lock: false,
            ..all
        })
    );
    println!(
        "  no NaN folding       : {:?}",
        campaign_counts(BugModels {
            gcc_nan_branch_folding: false,
            ..all
        })
    );
    println!(
        "  no crash model       : {:?}",
        campaign_counts(BugModels {
            gcc_crash: false,
            ..all
        })
    );
    println!(
        "  all models off       : {:?}",
        campaign_counts(BugModels::none())
    );

    let timed_cfg = bench_campaign_config();
    let mut group = c.benchmark_group("ablation_bugmodels");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(10));
    group.bench_function("healthy_campaign_12x2", |b| {
        b.iter(|| {
            black_box(campaign_counts_with(
                &timed_cfg,
                black_box(BugModels::none()),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_bugmodels);
criterion_main!(benches);
