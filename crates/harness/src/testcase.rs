//! Test corpus: programs plus their generated inputs, and the on-disk
//! layout the paper's framework uses
//! (`<out>/_tests/_group_<g>/_test_<n>.cpp` + input files).

use crate::config::CampaignConfig;
use crate::pool;
use ompfuzz_ast::printer::{emit_translation_unit, PrintOptions};
use ompfuzz_ast::Program;
use ompfuzz_gen::ProgramGenerator;
use ompfuzz_inputs::{InputGenerator, TestInput};
use std::fs;
use std::io;
use std::ops::Range;
use std::path::Path;

/// One test: a program and its `INPUT_SAMPLES_PER_RUN` inputs. Plain
/// data: whoever runs the test lowers and compiles its program.
#[derive(Debug, Clone, PartialEq)]
pub struct TestCase {
    pub program: Program,
    pub inputs: Vec<TestInput>,
}

impl TestCase {
    /// Pair a program with its inputs.
    pub fn new(program: Program, inputs: Vec<TestInput>) -> TestCase {
        TestCase { program, inputs }
    }
}

/// Generate test `index` of a campaign's corpus: program `test_<index>`
/// from the index's split program stream, inputs from the index's split
/// input stream (`seed + 1` is the campaign's input-seed convention).
///
/// This is the canonical corpus definition — a pure function of
/// `(config, seed, index)` — so any worker can produce any test without
/// replaying the stream of the tests before it.
pub fn generate_case(cfg: &CampaignConfig, index: usize) -> TestCase {
    let mut pg = ProgramGenerator::new(cfg.generator.clone(), cfg.seed);
    let mut program = pg.generate_indexed(index);
    program.seed = cfg.seed;
    let mut ig = InputGenerator::with_mix(cfg.seed + 1, cfg.generator.input_mix);
    ig.reseed_indexed(cfg.seed + 1, index);
    let inputs = ig.generate_samples(&program, cfg.inputs_per_program);
    TestCase::new(program, inputs)
}

/// Generate the full corpus for a campaign configuration, fanning the
/// per-index generation over the campaign's worker pool.
///
/// Deterministic: `(config, seed)` fixes every program and every input,
/// byte-for-byte identical for every worker count (each test is a pure
/// function of its index, and the pool returns results in index order).
pub fn generate_corpus(cfg: &CampaignConfig) -> Vec<TestCase> {
    generate_corpus_slice(cfg, 0..cfg.programs)
}

/// Generate only the tests in `range` of the corpus — O(slice) work, the
/// entry sharded workers use so an `N`-shard round costs one corpus
/// generation in total instead of `N`.
pub fn generate_corpus_slice(cfg: &CampaignConfig, range: Range<usize>) -> Vec<TestCase> {
    let indices: Vec<usize> = range.collect();
    let workers = pool::resolve_workers(cfg.workers);
    pool::map_parallel(workers, &indices, |&i| generate_case(cfg, i))
}

/// Number of tests per `_group_<g>` directory (matches the paper's dataset
/// layout granularity).
pub const TESTS_PER_GROUP: usize = 10;

/// Write the corpus in the paper's directory layout. Returns the number of
/// files written.
pub fn save_corpus(corpus: &[TestCase], out_dir: &Path) -> io::Result<usize> {
    let mut written = 0;
    let opts = PrintOptions::default();
    // One input buffer reused for every file: each line streams in via
    // `write!` instead of collecting a `Vec<String>` and joining it.
    let mut inputs = String::new();
    for (i, tc) in corpus.iter().enumerate() {
        let group = i / TESTS_PER_GROUP;
        let dir = out_dir.join("_tests").join(format!("_group_{group}"));
        fs::create_dir_all(&dir)?;
        let cpp = emit_translation_unit(&tc.program, &opts);
        fs::write(dir.join(format!("_test_{i}.cpp")), cpp)?;
        written += 1;
        inputs.clear();
        for inp in &tc.inputs {
            inp.write_line(&mut inputs);
            inputs.push('\n');
        }
        fs::write(dir.join(format!("_test_{i}_inputs.txt")), &inputs)?;
        written += 1;
    }
    Ok(written)
}

/// Load the input files back from a saved corpus directory (sources are
/// not re-parsed; inputs suffice to re-run a stored campaign against the
/// regenerated programs).
pub fn load_inputs(out_dir: &Path, test_index: usize) -> io::Result<Vec<TestInput>> {
    let group = test_index / TESTS_PER_GROUP;
    let path = out_dir
        .join("_tests")
        .join(format!("_group_{group}"))
        .join(format!("_test_{test_index}_inputs.txt"));
    let text = fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(TestInput::parse_line)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let cfg = CampaignConfig::small();
        let a = generate_corpus(&cfg);
        let b = generate_corpus(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.programs);
        assert!(a.iter().all(|t| t.inputs.len() == cfg.inputs_per_program));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = CampaignConfig::small();
        let mut cfg2 = CampaignConfig::small();
        cfg2.seed += 1;
        assert_ne!(generate_corpus(&cfg), generate_corpus(&cfg2));
    }

    #[test]
    fn save_and_reload_inputs() {
        let cfg = CampaignConfig {
            programs: 12,
            ..CampaignConfig::small()
        };
        let corpus = generate_corpus(&cfg);
        let dir = std::env::temp_dir().join(format!("ompfuzz_corpus_{}", std::process::id()));
        let written = save_corpus(&corpus, &dir).unwrap();
        // 12 tests × (source + inputs).
        assert_eq!(written, 24);
        // Group layout: tests 0..9 in _group_0, 10.. in _group_1.
        assert!(dir.join("_tests/_group_0/_test_0.cpp").exists());
        assert!(dir.join("_tests/_group_1/_test_11.cpp").exists());
        // Inputs reload to (nearly) the same values; array fills come back
        // as plain Fp — compare numerically.
        let reloaded = load_inputs(&dir, 11).unwrap();
        assert_eq!(reloaded.len(), corpus[11].inputs.len());
        for (orig, back) in corpus[11].inputs.iter().zip(&reloaded) {
            assert_eq!(orig.comp_init, back.comp_init);
            for (a, b) in orig.values.iter().zip(&back.values) {
                assert_eq!(a.as_f64().to_bits(), b.as_f64().to_bits());
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn emitted_sources_contain_openmp() {
        let cfg = CampaignConfig {
            programs: 15,
            ..CampaignConfig::small()
        };
        let corpus = generate_corpus(&cfg);
        let any_pragma = corpus.iter().any(|t| {
            emit_translation_unit(&t.program, &PrintOptions::default())
                .contains("#pragma omp parallel")
        });
        assert!(any_pragma, "15 programs without a single parallel region");
    }
}
