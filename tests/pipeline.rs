//! Cross-crate integration: the full generate → print → compile → run →
//! analyze pipeline, exercised through the umbrella crate's public API.

use ompfuzz::ast::{grammar, printer, ProgramFeatures};
use ompfuzz::backends::{
    standard_backends, BugModels, CompileOptions, OmpBackend, RunOptions, RunStatus, SimBackend,
    Vendor,
};
use ompfuzz::exec::{lower, CompiledKernel, ExecOptions, ExecScratch};
use ompfuzz::gen::{validate, GeneratorConfig, ProgramGenerator};
use ompfuzz::harness::{run_campaign, CampaignConfig};
use ompfuzz::inputs::InputGenerator;
use ompfuzz_obs::Obs;

/// Every generated program: derives from the grammar, validates, lowers,
/// prints compilable-looking C++, and runs identically on semantics-sharing
/// backends.
#[test]
fn generated_programs_survive_the_whole_pipeline() {
    let cfg = GeneratorConfig::paper();
    let mut pg = ProgramGenerator::new(cfg.clone(), 555);
    let mut ig = InputGenerator::new(556);
    let backends = standard_backends();
    for program in pg.generate_batch(25) {
        // Grammar + static validation.
        assert!(
            grammar::derivation_errors(&program).is_empty(),
            "{}",
            program.name
        );
        assert!(
            validate::validate(&program, &cfg).is_empty(),
            "{}",
            program.name
        );

        // Printer output looks like a real test file.
        let cpp = printer::emit_translation_unit(&program, &Default::default());
        assert!(cpp.contains("void compute(double comp"));
        assert!(cpp.contains("int main(int argc, char** argv)"));
        assert_eq!(cpp.matches('{').count(), cpp.matches('}').count());

        // Lowering + interpretation.
        let code = CompiledKernel::compile(lower(&program).expect("lowers"));
        let input = ig.generate_for(&program);
        let opts = RunOptions {
            max_ops: 20_000_000,
            ..RunOptions::default()
        };

        // Intel-like and Clang-like share IEEE semantics: identical comp.
        let mut comps = Vec::new();
        for b in &backends {
            let bin = b.compile(&program, &CompileOptions::default()).unwrap();
            let r = bin.run(&input, &opts);
            if let (RunStatus::Ok, Some(c)) = (&r.status, r.comp) {
                comps.push((b.info().vendor, c));
            }
        }
        let intel = comps.iter().find(|(v, _)| *v == Vendor::IntelLike);
        let clang = comps.iter().find(|(v, _)| *v == Vendor::ClangLike);
        if let (Some((_, a)), Some((_, b))) = (intel, clang) {
            assert!(
                (a.is_nan() && b.is_nan()) || a == b,
                "{}: intel {a} != clang {b}",
                program.name
            );
        }

        // The interpreter agrees with the backends (backends wrap it).
        if let Ok(out) = code.run(
            &input,
            &ExecOptions {
                limits: ompfuzz::exec::ExecLimits {
                    max_ops: 20_000_000,
                },
                ..ExecOptions::default()
            },
            &mut ExecScratch::new(),
        ) {
            if let Some((_, c)) = intel {
                assert!(
                    (out.comp.is_nan() && c.is_nan()) || out.comp == *c,
                    "{}: interp {} != backend {}",
                    program.name,
                    out.comp,
                    c
                );
            }
        }
    }
}

/// Campaign results are reproducible from (config, seed) alone, across
/// differently-parallel drivers.
#[test]
fn campaign_reproducibility_via_config_file() {
    let mut cfg = CampaignConfig::small();
    cfg.programs = 15;
    let text = cfg.to_config_file();
    let reparsed = CampaignConfig::from_config_file(&text).unwrap();

    let backends = standard_backends();
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
    let a = run_campaign(&cfg, &dyns, &Obs::off());
    let b = run_campaign(&reparsed, &dyns, &Obs::off());
    assert_eq!(a.records.len(), b.records.len());
    assert_eq!(a.tally.total_outliers(), b.tally.total_outliers());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.analysis, rb.analysis);
    }
}

/// Bug models are the only source of cross-implementation divergence: with
/// all of them disabled, no correctness outliers exist and numeric results
/// agree everywhere.
#[test]
fn healthy_implementations_agree_everywhere() {
    let cfg = CampaignConfig {
        programs: 20,
        ..CampaignConfig::small()
    };
    let backends = [
        SimBackend::with_bugs(Vendor::IntelLike, BugModels::none()),
        SimBackend::with_bugs(Vendor::ClangLike, BugModels::none()),
        SimBackend::with_bugs(Vendor::GccLike, BugModels::none()),
    ];
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
    let result = run_campaign(&cfg, &dyns, &Obs::off());
    for r in &result.records {
        assert!(r.analysis.correctness.is_none());
        assert!(r.analysis.divergence.is_none(), "{:?}", r.program_name);
        // All three statuses agree.
        let statuses: Vec<_> = r.observations.iter().map(|o| o.status).collect();
        assert!(statuses.windows(2).all(|w| w[0] == w[1]));
    }
}

/// The features that trigger modelled behaviours are visible through the
/// umbrella crate (used by downstream tooling to pre-classify tests).
#[test]
fn feature_extraction_is_consistent_with_generation() {
    let mut pg = ProgramGenerator::new(GeneratorConfig::paper(), 777);
    let batch = pg.generate_batch(60);
    let with_regions = batch
        .iter()
        .filter(|p| ProgramFeatures::of(p).parallel_regions > 0)
        .count();
    // The paper's generator makes parallel regions common.
    assert!(
        with_regions > batch.len() / 3,
        "only {with_regions}/60 programs have regions"
    );
    for p in &batch {
        let f = ProgramFeatures::of(p);
        // Critical sections only exist inside regions.
        if f.critical_sections > 0 {
            assert!(f.parallel_regions > 0, "{}", p.name);
        }
        // Worksharing loops only exist inside regions.
        if f.omp_for_loops > 0 {
            assert!(f.parallel_regions > 0, "{}", p.name);
        }
    }
}

/// Saved corpora reload with bit-identical inputs.
#[test]
fn corpus_round_trip_through_disk() {
    use ompfuzz::harness::{generate_corpus, load_inputs, save_corpus};
    let cfg = CampaignConfig {
        programs: 8,
        ..CampaignConfig::small()
    };
    let corpus = generate_corpus(&cfg);
    let dir = std::env::temp_dir().join(format!("ompfuzz_it_{}", std::process::id()));
    save_corpus(&corpus, &dir).unwrap();
    for (i, tc) in corpus.iter().enumerate() {
        let loaded = load_inputs(&dir, i).unwrap();
        assert_eq!(loaded.len(), tc.inputs.len());
        for (orig, back) in tc.inputs.iter().zip(&loaded) {
            assert_eq!(orig.comp_init.to_bits(), back.comp_init.to_bits());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
