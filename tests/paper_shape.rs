//! Shape assertions against the paper's evaluation: who wins, by roughly
//! what factor, and which anomaly classes appear — at reduced scale so the
//! suite stays fast. The full-scale numbers live in EXPERIMENTS.md and are
//! regenerated by `ompfuzz reproduce -e table1` / `cargo bench`.

use ompfuzz::backends::{
    standard_backends, CompileOptions, CompiledTest, OmpBackend, ProfileMode, RunOptions,
    RunStatus, SimBackend, Vendor,
};
use ompfuzz::harness::{caselib, run_campaign, CampaignConfig};
use ompfuzz::outlier::OutlierKind;
use ompfuzz::report::{run_experiment, Scale};
use ompfuzz_obs::Obs;

fn label_index(labels: &[String], want: &str) -> usize {
    labels.iter().position(|l| l == want).unwrap()
}

/// A reduced Table-I campaign reproduces the paper's dominant patterns:
/// GCC collects fast outliers, Clang collects slow outliers, Intel collects
/// neither class.
#[test]
fn quick_campaign_matches_table1_shape() {
    let config = CampaignConfig {
        programs: 60,
        inputs_per_program: 2,
        ..CampaignConfig::paper()
    };
    let backends = standard_backends();
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
    let result = run_campaign(&config, &dyns, &Obs::off());

    let gcc = label_index(&result.labels, "GCC");
    let clang = label_index(&result.labels, "Clang");
    let intel = label_index(&result.labels, "Intel");

    // GCC dominates the fast class (Table I: 115 of 116 fast outliers).
    let gcc_fast = result.tally.count(gcc, OutlierKind::Fast);
    assert!(gcc_fast > 0, "no GCC fast outliers at all");
    assert!(gcc_fast >= result.tally.count(intel, OutlierKind::Fast));
    assert!(gcc_fast >= result.tally.count(clang, OutlierKind::Fast));

    // Clang dominates the slow class (Table I: 10 of 14 slow outliers).
    let clang_slow = result.tally.count(clang, OutlierKind::Slow);
    assert!(clang_slow > 0, "no Clang slow outliers at all");
    assert!(clang_slow >= result.tally.count(intel, OutlierKind::Slow));

    // Intel shows no slow outliers (it is the platform baseline).
    assert_eq!(result.tally.count(intel, OutlierKind::Slow), 0);
    // Clang shows no correctness outliers (Table I).
    assert_eq!(result.tally.count(clang, OutlierKind::Crash), 0);
    assert_eq!(result.tally.count(clang, OutlierKind::Hang), 0);
    // Crashes, when present, belong to GCC; hangs to Intel.
    assert_eq!(result.tally.count(intel, OutlierKind::Crash), 0);
    assert_eq!(result.tally.count(gcc, OutlierKind::Hang), 0);
}

/// Case study 1: the GCC binary is substantially faster on
/// critical-in-omp-for tests, and Intel/Clang stay comparable (that is what
/// makes GCC the *outlier*).
#[test]
fn case_study_1_shape() {
    let program = caselib::case_study_1(20_000, 32);
    let input = caselib::case_study_input(&program);
    let t = |b: SimBackend| {
        b.compile_sim(&program, &CompileOptions::default())
            .unwrap()
            .run(&input, &RunOptions::default())
            .time_us
            .unwrap() as f64
    };
    let (ti, tc, tg) = (
        t(SimBackend::intel()),
        t(SimBackend::clang()),
        t(SimBackend::gcc()),
    );
    // Intel ≈ Clang (α window), both ≥ 1.5× GCC (β threshold).
    assert!(
        (ti - tc).abs() / ti.min(tc) <= 0.25,
        "intel {ti} clang {tc}"
    );
    assert!(ti / tg >= 1.5, "intel {ti} gcc {tg}");
    assert!(tc / tg >= 1.5, "clang {tc} gcc {tg}");
    // Rough factor: paper reports GCC ~80% faster; accept 1.5×–4×.
    assert!(ti / tg <= 4.0, "contention model too extreme: {}", ti / tg);
}

/// Case study 2: the Clang binary is the lone slow outlier on
/// region-in-serial-loop tests, by a factor in the paper's ballpark (~10×).
#[test]
fn case_study_2_shape() {
    let program = caselib::case_study_2(400, 600, 32);
    let input = caselib::case_study_input(&program);
    let t = |b: SimBackend| {
        b.compile_sim(&program, &CompileOptions::default())
            .unwrap()
            .run(&input, &RunOptions::default())
            .time_us
            .unwrap() as f64
    };
    let (ti, tc, tg) = (
        t(SimBackend::intel()),
        t(SimBackend::clang()),
        t(SimBackend::gcc()),
    );
    assert!((ti - tg).abs() / ti.min(tg) <= 0.2, "intel {ti} gcc {tg}");
    let factor = tc / ti;
    assert!(
        (3.0..=20.0).contains(&factor),
        "clang/intel factor {factor} outside the paper's ballpark"
    );
}

/// Case study 3: only Intel hangs; GCC and Clang terminate. The census has
/// all 32 threads in the three states of Fig. 9.
#[test]
fn case_study_3_shape() {
    let program = caselib::case_study_3(8_000, 32);
    let input = caselib::case_study_input(&program);
    let run = |b: SimBackend| {
        b.compile_sim(&program, &CompileOptions::default())
            .unwrap()
            .run(&input, &RunOptions::default())
    };
    let intel = run(SimBackend::intel());
    assert!(matches!(intel.status, RunStatus::Hang { .. }));
    let snap = intel.threads.unwrap();
    assert_eq!(snap.total_threads, 32);
    assert_eq!(snap.groups.len(), 3);
    assert!(run(SimBackend::gcc()).status.is_ok());
    assert!(run(SimBackend::clang()).status.is_ok());
}

/// Tables II/III: the counter *directions* the paper reports.
#[test]
fn counter_tables_shape() {
    // Table II: Intel vs GCC on case study 1.
    let program = caselib::case_study_1(20_000, 32);
    let input = caselib::case_study_input(&program);
    let counters = |b: SimBackend| {
        b.compile_sim(&program, &CompileOptions::default())
            .unwrap()
            .perf_report(&input, &RunOptions::default(), ProfileMode::Flat)
            .expect("case study 1 completes")
            .0
    };
    let intel = counters(SimBackend::intel());
    let gcc = counters(SimBackend::gcc());
    assert!(intel.context_switches > gcc.context_switches);
    assert!(intel.cpu_migrations > gcc.cpu_migrations);
    assert!(intel.page_faults > gcc.page_faults);
    assert!(intel.instructions > gcc.instructions);
    // The paper's curiosity: GCC burns MORE cycles despite finishing faster.
    assert!(gcc.cycles > intel.cycles / 2, "gcc cycles collapsed");

    // Table III: Intel vs Clang on case study 2.
    let program = caselib::case_study_2(400, 600, 32);
    let input = caselib::case_study_input(&program);
    let counters = |b: SimBackend| {
        b.compile_sim(&program, &CompileOptions::default())
            .unwrap()
            .perf_report(&input, &RunOptions::default(), ProfileMode::Flat)
            .expect("case study 2 completes")
            .0
    };
    let intel = counters(SimBackend::intel());
    let clang = counters(SimBackend::clang());
    assert!(
        clang.context_switches > 20 * intel.context_switches,
        "clang {} intel {}",
        clang.context_switches,
        intel.context_switches
    );
    assert!(clang.page_faults > 20 * intel.page_faults);
    assert!(clang.cycles > 2 * intel.cycles);
    assert!(clang.instructions > 2 * intel.instructions);
    assert!(clang.branches > intel.branches);
}

/// Every registered experiment renders non-empty output at quick scale.
#[test]
fn all_experiments_render() {
    for e in ompfuzz::report::experiments() {
        let out = run_experiment(e.id, Scale::Quick).unwrap();
        assert!(
            out.len() > 80,
            "experiment {} rendered suspiciously little: {out:?}",
            e.id
        );
    }
}

/// Vendor labels and version table match §V-A.
#[test]
fn version_table_matches_paper() {
    let backends = standard_backends();
    let versions: Vec<(&str, &str, &str)> = backends
        .iter()
        .map(|b| {
            let i = b.info();
            (i.compiler, i.version, i.release)
        })
        .collect();
    assert!(versions.contains(&("icpx", "2023.2.0", "02/2023")));
    assert!(versions.contains(&("clang++", "16.0.0", "03/2023")));
    assert!(versions.contains(&("g++", "13.1", "04/2023")));
    assert_eq!(
        backends.iter().map(|b| b.vendor()).collect::<Vec<_>>(),
        vec![Vendor::IntelLike, Vendor::ClangLike, Vendor::GccLike]
    );
}
