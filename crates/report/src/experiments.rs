//! The per-experiment registry: every table and figure of the paper's
//! evaluation, regenerable by id (see DESIGN.md §3 for the index).

use crate::table::{dash_zero, thousands, TextTable};
use ompfuzz_ast::Program;
use ompfuzz_backends::{
    backend_info, standard_backends, CompileOptions, CompiledTest, OmpBackend, PerfCounters,
    ProfileMode, RunOptions, RunStatus, SimBackend, SimBinary, StackProfile, Vendor,
};
use ompfuzz_harness::{caselib, run_campaign, CampaignConfig, CampaignResult};
use ompfuzz_obs::Obs;
use ompfuzz_outlier::{detect_performance_outlier, OutlierConfig, OutlierKind, PerfOutlier};

/// Campaign scale for the heavier experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// The paper's full scale (200 programs × 3 inputs × 3 impls = 1,800
    /// runs); tens of seconds of host time.
    #[default]
    Paper,
    /// A reduced scale for smoke tests and CI (same code paths).
    Quick,
}

/// One reproducible experiment.
pub struct Experiment {
    pub id: &'static str,
    pub title: &'static str,
    /// Where it appears in the paper.
    pub paper_ref: &'static str,
    runner: fn(Scale) -> String,
}

impl Experiment {
    /// Run and render the experiment.
    pub fn run(&self, scale: Scale) -> String {
        (self.runner)(scale)
    }
}

/// All registered experiments, in paper order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig1",
            title: "Workflow overview: one test through the whole pipeline",
            paper_ref: "Fig. 1",
            runner: run_fig1,
        },
        Experiment {
            id: "versions",
            title: "OpenMP implementations under test",
            paper_ref: "§V-A version table",
            runner: run_versions,
        },
        Experiment {
            id: "table1",
            title: "Outlier counts per implementation",
            paper_ref: "Table I",
            runner: run_table1,
        },
        Experiment {
            id: "table2",
            title: "Perf counters, case study 1 (GCC fast)",
            paper_ref: "Table II",
            runner: run_table2,
        },
        Experiment {
            id: "table3",
            title: "Perf counters, case study 2 (Clang slow)",
            paper_ref: "Table III",
            runner: run_table3,
        },
        Experiment {
            id: "fig5",
            title: "Slow and fast outlier classes",
            paper_ref: "Fig. 5",
            runner: run_fig5,
        },
        Experiment {
            id: "fig6",
            title: "Flat stack profiles, case study 1",
            paper_ref: "Fig. 6",
            runner: run_fig6,
        },
        Experiment {
            id: "fig7",
            title: "Children-mode stack profiles, case study 2",
            paper_ref: "Fig. 7",
            runner: run_fig7,
        },
        Experiment {
            id: "fig8",
            title: "GDB backtrace of the hung Intel binary",
            paper_ref: "Fig. 8",
            runner: run_fig8,
        },
        Experiment {
            id: "fig9",
            title: "Thread-state census of the hang",
            paper_ref: "Fig. 9",
            runner: run_fig9,
        },
    ]
}

/// Look up and run one experiment by id.
pub fn run_experiment(id: &str, scale: Scale) -> Option<String> {
    experiments()
        .iter()
        .find(|e| e.id == id)
        .map(|e| e.run(scale))
}

// ---------------------------------------------------------------------------

fn dyn_backends(backends: &[SimBackend]) -> Vec<&dyn OmpBackend> {
    backends.iter().map(|b| b as &dyn OmpBackend).collect()
}

/// The campaign behind Table I.
pub fn table1_campaign(scale: Scale) -> CampaignResult {
    let config = match scale {
        Scale::Paper => CampaignConfig::paper(),
        Scale::Quick => CampaignConfig {
            programs: 40,
            inputs_per_program: 2,
            ..CampaignConfig::paper()
        },
    };
    let backends = standard_backends();
    let dyns = dyn_backends(&backends);
    run_campaign(&config, &dyns, &Obs::off())
}

/// Render Table I from a campaign result.
pub fn render_table1(result: &CampaignResult) -> String {
    let mut t = TextTable::new(vec!["", "Slow", "Fast", "Crash", "Hang"]).with_title(
        "TABLE I — OVERVIEW OF THE RESULTS USING THREE OPENMP IMPLEMENTATIONS\n\
         (Clang, GCC, and Intel) — Outliers",
    );
    // The paper lists rows Clang, GCC, Intel.
    for want in ["Clang", "GCC", "Intel"] {
        let idx = result
            .labels
            .iter()
            .position(|l| l == want)
            .expect("standard labels");
        t.push_row(vec![
            want.to_string(),
            dash_zero(result.tally.count(idx, OutlierKind::Slow)),
            dash_zero(result.tally.count(idx, OutlierKind::Fast)),
            dash_zero(result.tally.count(idx, OutlierKind::Crash)),
            dash_zero(result.tally.count(idx, OutlierKind::Hang)),
        ]);
    }
    let mut out = t.render();
    let analyzed = result.analyzed_records();
    out.push_str(&format!(
        "\nruns: {} ({} programs × {} inputs × {} impls); racy programs excluded: {}\n\
         records analyzed (≥ 1,000 µs): {}; filtered: {}\n\
         outliers: {} ({:.1}% of the {} runs); perf outliers with diverging results: {} (divergent records: {})\n",
        result.total_runs,
        result.records.len()
            / result
                .records
                .iter()
                .map(|r| r.input_index + 1)
                .max()
                .unwrap_or(1),
        result
            .records
            .iter()
            .map(|r| r.input_index + 1)
            .max()
            .unwrap_or(0),
        result.labels.len(),
        result.racy_programs.len(),
        analyzed,
        result.tally.filtered,
        result.tally.total_outliers(),
        100.0 * result.tally.total_outliers() as f64 / result.total_runs.max(1) as f64,
        result.total_runs,
        result.tally.outlier_with_divergence,
        result.tally.divergent,
    ));
    out
}

fn run_table1(scale: Scale) -> String {
    render_table1(&table1_campaign(scale))
}

fn run_fig1(_scale: Scale) -> String {
    // One crafted test through generate → compile ×3 → run → analyze.
    let program = caselib::case_study_2(120, 64, 32);
    let input = caselib::case_study_input(&program);
    let backends = standard_backends();
    let mut lines = vec![
        "Fig. 1 workflow — one test, three OpenMP implementations".to_string(),
        String::new(),
    ];
    let mut times = Vec::new();
    for b in &backends {
        let bin = b
            .compile(&program, &CompileOptions::default())
            .expect("compiles");
        let r = bin.run(&input, &RunOptions::default());
        let t = r.time_us.unwrap_or(0);
        times.push(t as f64);
        lines.push(format!(
            "  {:<6} -> <comp={:.6e}, {:>9} µs>  [{}]",
            b.info().vendor.label(),
            r.comp.unwrap_or(f64::NAN),
            t,
            r.status.label()
        ));
    }
    let verdict = match detect_performance_outlier(&times, &OutlierConfig::default()) {
        Some(PerfOutlier::Slow { index, ratio }) => format!(
            "  => {} flagged as SLOW outlier ({:.1}× the midpoint of the others)",
            backends[index].info().vendor.label(),
            ratio
        ),
        Some(PerfOutlier::Fast { index, ratio }) => format!(
            "  => {} flagged as FAST outlier ({:.1}× faster than the midpoint)",
            backends[index].info().vendor.label(),
            ratio
        ),
        None => "  => no outlier".to_string(),
    };
    lines.push(String::new());
    lines.push(verdict);
    lines.join("\n") + "\n"
}

fn run_versions(_scale: Scale) -> String {
    let mut t = TextTable::new(vec!["Implementation", "Compiler", "Version", "Release"])
        .with_title("OpenMP implementations (§V-A)");
    for vendor in [Vendor::IntelLike, Vendor::ClangLike, Vendor::GccLike] {
        let info = backend_info(vendor);
        t.push_row(vec![
            info.implementation.to_string(),
            info.compiler.to_string(),
            info.version.to_string(),
            info.release.to_string(),
        ]);
    }
    t.render()
}

/// A case study's program and its two binaries, Intel-like first.
struct CaseStudy {
    program: Program,
    binaries: [SimBinary; 2],
}

impl CaseStudy {
    fn new(program: Program, other: SimBackend) -> CaseStudy {
        let compile = |b: SimBackend| {
            b.compile_sim(&program, &CompileOptions::default())
                .expect("a case study compiles")
        };
        let binaries = [compile(SimBackend::intel()), compile(other)];
        CaseStudy { program, binaries }
    }

    /// Each binary's printed time on the case study's input.
    fn times(&self) -> [u64; 2] {
        let input = caselib::case_study_input(&self.program);
        self.binaries.each_ref().map(|b| {
            b.run(&input, &RunOptions::default())
                .time_us
                .expect("the case study completes")
        })
    }

    /// Each binary's `perf` counters and profile in `mode`.
    fn perf(&self, mode: ProfileMode) -> [(PerfCounters, StackProfile); 2] {
        let input = caselib::case_study_input(&self.program);
        self.binaries.each_ref().map(|b| {
            b.perf_report(&input, &RunOptions::default(), mode)
                .expect("the case study completes")
        })
    }
}

/// Case study 1 (Table II, Fig. 6): Intel vs GCC.
fn case_study_1(scale: Scale) -> CaseStudy {
    let trip = match scale {
        Scale::Paper => 20_000,
        Scale::Quick => 2_000,
    };
    CaseStudy::new(caselib::case_study_1(trip, 32), SimBackend::gcc())
}

/// Case study 2 (Table III, Fig. 7): Intel vs Clang.
fn case_study_2(scale: Scale) -> CaseStudy {
    let (outer, inner) = match scale {
        Scale::Paper => (400, 600),
        Scale::Quick => (60, 200),
    };
    CaseStudy::new(caselib::case_study_2(outer, inner, 32), SimBackend::clang())
}

/// A case study's counter table (Tables II/III) and the time line under it.
fn counter_table(title: &str, study: &CaseStudy) -> String {
    let other = study.binaries[1].backend_label();
    let [(intel, _), (others, _)] = study.perf(ProfileMode::Flat);
    let mut t = TextTable::new(vec!["Counters", "Intel", &other]).with_title(title);
    for ((name, iv), (_, ov)) in intel.rows().iter().zip(others.rows().iter()) {
        t.push_row(vec![name.to_string(), thousands(*iv), thousands(*ov)]);
    }
    let [ti, to] = study.times();
    let (verdict, ratio) = if to <= ti {
        ("faster", ti as f64 / to as f64)
    } else {
        ("slower", to as f64 / ti as f64)
    };
    t.render()
        + &format!(
            "\ntime: Intel {ti} µs vs {other} {to} µs ({other} {:.0}% {verdict})\n",
            100.0 * (ratio - 1.0)
        )
}

fn run_table2(scale: Scale) -> String {
    counter_table(
        "TABLE II — PERFORMANCE COUNTER STATISTICS FOR CASE STUDY 1",
        &case_study_1(scale),
    )
}

fn run_table3(scale: Scale) -> String {
    counter_table(
        "TABLE III — PERFORMANCE COUNTER STATISTICS FOR CASE STUDY 2",
        &case_study_2(scale),
    )
}

fn run_fig5(_scale: Scale) -> String {
    let cfg = OutlierConfig::default();
    let mut out = String::from(
        "Fig. 5 — outlier classes against the midpoint of comparable runs\n\
         (α = 0.2, β = 1.5; times in µs)\n\n",
    );
    let cases = [
        (
            "comparable runs, no outlier",
            [100_000.0, 108_000.0, 96_000.0],
        ),
        ("slow outlier (r₃ ≥ β·M)", [100_000.0, 104_000.0, 190_000.0]),
        ("fast outlier (M ≥ β·r₃)", [100_000.0, 104_000.0, 55_000.0]),
        (
            "rest not comparable: undecidable",
            [100_000.0, 150_000.0, 400_000.0],
        ),
    ];
    for (label, times) in cases {
        let verdict = match detect_performance_outlier(&times, &cfg) {
            Some(PerfOutlier::Slow { index, ratio }) => {
                format!("SLOW  r{} at {:.2}× midpoint", index + 1, ratio)
            }
            Some(PerfOutlier::Fast { index, ratio }) => {
                format!("FAST  r{} at {:.2}× below midpoint", index + 1, ratio)
            }
            None => "none".to_string(),
        };
        out.push_str(&format!(
            "  r = [{:>8.0} {:>8.0} {:>8.0}]  -> {verdict}   ({label})\n",
            times[0], times[1], times[2]
        ));
    }
    out
}

fn run_fig6(scale: Scale) -> String {
    let [(_, intel), (_, gcc)] = case_study_1(scale).perf(ProfileMode::Flat);
    format!(
        "Fig. 6 — call-stack overhead, case study 1\n\nListing 1. Intel stack traces\n{}\n\
         Listing 2. GCC stack traces\n{}",
        intel.render(),
        gcc.render()
    )
}

fn run_fig7(scale: Scale) -> String {
    let [(_, intel), (_, clang)] = case_study_2(scale).perf(ProfileMode::Children);
    format!(
        "Fig. 7 — call-stack overhead (--children), case study 2\n\n\
         Listing 3. Intel stack traces\n{}\nListing 4. Clang stack traces\n{}",
        intel.render(),
        clang.render()
    )
}

/// The hang run behind Figs. 8/9.
pub fn hang_run(scale: Scale) -> ompfuzz_backends::RunResult {
    let trip = match scale {
        Scale::Paper => 8_000,
        Scale::Quick => 6_000,
    };
    let program = caselib::case_study_3(trip, 32);
    let input = caselib::case_study_input(&program);
    SimBackend::intel()
        .compile_sim(&program, &CompileOptions::default())
        .unwrap()
        .run(&input, &RunOptions::default())
}

fn run_fig8(scale: Scale) -> String {
    let result = hang_run(scale);
    match (&result.status, &result.threads) {
        (RunStatus::Hang { .. }, Some(snapshot)) => format!(
            "Fig. 8 — GDB backtrace for Thread 1 (Intel binary, stopped after 3 min)\n\n{}",
            snapshot.gdb_backtrace("case_study_3.cpp")
        ),
        other => format!("expected a hang, observed {other:?}"),
    }
}

fn run_fig9(scale: Scale) -> String {
    let result = hang_run(scale);
    match (&result.status, &result.threads) {
        (RunStatus::Hang { .. }, Some(snapshot)) => format!(
            "Fig. 9 — state of each thread in case study 3\n\n{}",
            snapshot.render_groups()
        ),
        other => format!("expected a hang, observed {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let ids: Vec<&str> = experiments().iter().map(|e| e.id).collect();
        for want in [
            "fig1", "versions", "table1", "table2", "table3", "fig5", "fig6", "fig7", "fig8",
            "fig9",
        ] {
            assert!(ids.contains(&want), "missing experiment {want}");
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("table99", Scale::Quick).is_none());
    }

    #[test]
    fn versions_table_matches_paper() {
        let s = run_experiment("versions", Scale::Quick).unwrap();
        assert!(s.contains("icpx"));
        assert!(s.contains("2023.2.0"));
        assert!(s.contains("clang++"));
        assert!(s.contains("16.0.0"));
        assert!(s.contains("g++"));
        assert!(s.contains("13.1"));
    }

    #[test]
    fn fig1_flags_clang_slow() {
        let s = run_experiment("fig1", Scale::Quick).unwrap();
        assert!(s.contains("Clang"), "{s}");
        assert!(s.contains("SLOW outlier"), "{s}");
    }

    #[test]
    fn table2_shape_matches_paper() {
        let s = run_experiment("table2", Scale::Quick).unwrap();
        assert!(s.contains("context-switches"));
        assert!(s.contains("GCC"));
        assert!(s.contains("faster"), "{s}");
    }

    #[test]
    fn table3_shape_matches_paper() {
        let s = run_experiment("table3", Scale::Quick).unwrap();
        assert!(s.contains("Clang"));
        assert!(s.contains("slower"), "{s}");
    }

    #[test]
    fn fig5_demonstrates_both_classes() {
        let s = run_experiment("fig5", Scale::Quick).unwrap();
        assert!(s.contains("SLOW"));
        assert!(s.contains("FAST"));
        assert!(s.contains("none"));
    }

    #[test]
    fn fig6_profiles_mention_runtime_symbols() {
        let s = run_experiment("fig6", Scale::Quick).unwrap();
        assert!(s.contains("__kmp_wait"), "{s}");
        assert!(s.contains("do_wait"), "{s}");
    }

    #[test]
    fn fig7_children_mode_renders() {
        let s = run_experiment("fig7", Scale::Quick).unwrap();
        assert!(s.contains("Children"));
        assert!(s.contains("start_thread"));
        assert!(s.contains("__kmp_invoke_microtask") || s.contains("libomp.so"));
    }

    #[test]
    fn fig8_and_fig9_report_the_hang() {
        let s8 = run_experiment("fig8", Scale::Quick).unwrap();
        assert!(s8.contains("SIGINT"), "{s8}");
        assert!(s8.contains("__kmpc_critical_with_hint"), "{s8}");
        let s9 = run_experiment("fig9", Scale::Quick).unwrap();
        assert!(s9.contains("32 threads"), "{s9}");
        assert!(s9.contains("Group 3"), "{s9}");
    }

    #[test]
    fn quick_table1_renders_all_rows() {
        let s = run_experiment("table1", Scale::Quick).unwrap();
        assert!(s.contains("TABLE I"));
        for label in ["Clang", "GCC", "Intel"] {
            assert!(s.contains(label), "{s}");
        }
        assert!(s.contains("runs:"), "{s}");
    }
}
