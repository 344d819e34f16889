//! Campaign configuration, including the paper's step-(a) configuration
//! file (a simple `key = value` format, parsed without external
//! dependencies).

use ompfuzz_backends::{OptLevel, RunOptions};
use ompfuzz_gen::{GeneratorConfig, SharingMode};
use ompfuzz_outlier::OutlierConfig;
use std::fmt;

/// Full configuration of a differential-testing campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of program tests to generate (200 in §V-A).
    pub programs: usize,
    /// Distinct inputs per program (`INPUT_SAMPLES_PER_RUN`, 3 in §V-A).
    pub inputs_per_program: usize,
    /// Master seed; programs use `seed`, inputs use `seed + 1`, ...
    pub seed: u64,
    /// Optimization level for every compile (§V-A uses `-O3`).
    pub opt_level: OptLevel,
    /// Program-generator knobs.
    pub generator: GeneratorConfig,
    /// Outlier-detection thresholds.
    pub outlier: OutlierConfig,
    /// Per-run execution options.
    pub run: RunOptions,
    /// Worker threads for the driver (0 = available parallelism).
    pub workers: usize,
    /// Exclude programs the dynamic race detector flags (automates the
    /// paper's manual filtering of §IV-E).
    pub filter_races: bool,
}

impl Default for CampaignConfig {
    /// The paper's evaluation campaign (§V-A): 200 programs × 3 inputs,
    /// `-O3`, α = 0.2, β = 1.5, 1,000 µs filter, `num_threads(32)`.
    fn default() -> Self {
        CampaignConfig {
            programs: 200,
            inputs_per_program: 3,
            seed: 20241011, // the paper's arXiv date, for flavor
            opt_level: OptLevel::O3,
            generator: GeneratorConfig::paper(),
            outlier: OutlierConfig::default(),
            run: RunOptions {
                max_ops: 40_000_000,
                ..RunOptions::default()
            },
            workers: 0,
            filter_races: true,
        }
    }
}

impl CampaignConfig {
    /// The paper's configuration (alias of `Default`).
    pub fn paper() -> CampaignConfig {
        CampaignConfig::default()
    }

    /// A reduced campaign for unit tests and doc examples.
    pub fn small() -> CampaignConfig {
        CampaignConfig {
            programs: 20,
            inputs_per_program: 2,
            generator: GeneratorConfig::small(),
            run: RunOptions {
                max_ops: 5_000_000,
                ..RunOptions::default()
            },
            workers: 2,
            ..CampaignConfig::default()
        }
    }

    /// Total executions the campaign will perform per implementation.
    pub fn runs_per_backend(&self) -> usize {
        self.programs * self.inputs_per_program
    }

    /// Serialize to the config-file format.
    pub fn to_config_file(&self) -> String {
        let g = &self.generator;
        let mut s = String::new();
        let mut kv = |k: &str, v: String| {
            s.push_str(k);
            s.push_str(" = ");
            s.push_str(&v);
            s.push('\n');
        };
        kv("programs", self.programs.to_string());
        kv("inputs_per_program", self.inputs_per_program.to_string());
        kv("seed", self.seed.to_string());
        kv(
            "opt_level",
            self.opt_level.flag().trim_start_matches('-').to_string(),
        );
        kv("workers", self.workers.to_string());
        kv("filter_races", self.filter_races.to_string());
        kv("engine", self.run.engine.label().to_string());
        kv("alpha", self.outlier.alpha.to_string());
        kv("beta", self.outlier.beta.to_string());
        kv("min_time_us", self.outlier.min_time_us.to_string());
        kv("hang_timeout_us", self.run.hang_timeout_us.to_string());
        kv("max_ops", self.run.max_ops.to_string());
        kv("MAX_EXPRESSION_SIZE", g.max_expression_size.to_string());
        kv("MAX_NESTING_LEVELS", g.max_nesting_levels.to_string());
        kv("MAX_LINES_IN_BLOCK", g.max_lines_in_block.to_string());
        kv("ARRAY_SIZE", g.array_size.to_string());
        kv("MAX_SAME_LEVEL_BLOCKS", g.max_same_level_blocks.to_string());
        kv("MATH_FUNC_ALLOWED", g.math_func_allowed.to_string());
        kv("MATH_FUNC_PROBABILITY", g.math_func_probability.to_string());
        kv("NUM_THREADS", g.num_threads.to_string());
        kv(
            "LEGACY_SHARING",
            matches!(g.sharing_mode, SharingMode::Legacy).to_string(),
        );
        s
    }

    /// Parse the config-file format produced by [`Self::to_config_file`].
    /// Unknown keys are rejected; missing keys keep their defaults.
    pub fn from_config_file(text: &str) -> Result<CampaignConfig, ConfigError> {
        let mut cfg = CampaignConfig::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError::syntax(lineno + 1, "expected `key = value`"));
            };
            let key = key.trim();
            let value = value.trim();
            let bad = |what: &str| ConfigError::value(lineno + 1, key, what);
            match key {
                "programs" => cfg.programs = value.parse().map_err(|_| bad("usize"))?,
                "inputs_per_program" => {
                    cfg.inputs_per_program = value.parse().map_err(|_| bad("usize"))?
                }
                "seed" => cfg.seed = value.parse().map_err(|_| bad("u64"))?,
                "opt_level" => {
                    cfg.opt_level = match value {
                        "O0" => OptLevel::O0,
                        "O1" => OptLevel::O1,
                        "O2" => OptLevel::O2,
                        "O3" => OptLevel::O3,
                        _ => return Err(bad("O0|O1|O2|O3")),
                    }
                }
                "workers" => cfg.workers = value.parse().map_err(|_| bad("usize"))?,
                "filter_races" => cfg.filter_races = value.parse().map_err(|_| bad("bool"))?,
                "engine" => cfg.run.engine = value.parse().map_err(|_| bad("tree|bytecode"))?,
                "alpha" => cfg.outlier.alpha = value.parse().map_err(|_| bad("f64"))?,
                "beta" => cfg.outlier.beta = value.parse().map_err(|_| bad("f64"))?,
                "min_time_us" => cfg.outlier.min_time_us = value.parse().map_err(|_| bad("f64"))?,
                "hang_timeout_us" => {
                    cfg.run.hang_timeout_us = value.parse().map_err(|_| bad("u64"))?
                }
                "max_ops" => cfg.run.max_ops = value.parse().map_err(|_| bad("u64"))?,
                "MAX_EXPRESSION_SIZE" => {
                    cfg.generator.max_expression_size = value.parse().map_err(|_| bad("usize"))?
                }
                "MAX_NESTING_LEVELS" => {
                    cfg.generator.max_nesting_levels = value.parse().map_err(|_| bad("usize"))?
                }
                "MAX_LINES_IN_BLOCK" => {
                    cfg.generator.max_lines_in_block = value.parse().map_err(|_| bad("usize"))?
                }
                "ARRAY_SIZE" => {
                    cfg.generator.array_size = value.parse().map_err(|_| bad("usize"))?
                }
                "MAX_SAME_LEVEL_BLOCKS" => {
                    cfg.generator.max_same_level_blocks = value.parse().map_err(|_| bad("usize"))?
                }
                "MATH_FUNC_ALLOWED" => {
                    cfg.generator.math_func_allowed = value.parse().map_err(|_| bad("bool"))?
                }
                "MATH_FUNC_PROBABILITY" => {
                    cfg.generator.math_func_probability = value.parse().map_err(|_| bad("f64"))?
                }
                "NUM_THREADS" => {
                    cfg.generator.num_threads = value.parse().map_err(|_| bad("u32"))?
                }
                "LEGACY_SHARING" => {
                    let legacy: bool = value.parse().map_err(|_| bad("bool"))?;
                    cfg.generator.sharing_mode = if legacy {
                        SharingMode::Legacy
                    } else {
                        SharingMode::Safe
                    };
                }
                other => return Err(ConfigError::unknown(lineno + 1, other)),
            }
        }
        let problems = cfg.generator.problems();
        if !problems.is_empty() {
            return Err(ConfigError(format!(
                "inconsistent generator config: {problems:?}"
            )));
        }
        Ok(cfg)
    }
}

/// Config-file parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl ConfigError {
    fn syntax(line: usize, msg: &str) -> ConfigError {
        ConfigError(format!("line {line}: {msg}"))
    }
    fn value(line: usize, key: &str, expected: &str) -> ConfigError {
        ConfigError(format!("line {line}: `{key}` expects {expected}"))
    }
    fn unknown(line: usize, key: &str) -> ConfigError {
        ConfigError(format!("line {line}: unknown key `{key}`"))
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = CampaignConfig::paper();
        assert_eq!(c.programs, 200);
        assert_eq!(c.inputs_per_program, 3);
        assert_eq!(c.runs_per_backend(), 600); // ×3 backends = 1800 runs
        assert_eq!(c.opt_level, OptLevel::O3);
        assert_eq!(c.outlier.alpha, 0.2);
        assert_eq!(c.outlier.beta, 1.5);
        assert_eq!(c.outlier.min_time_us, 1000.0);
        assert_eq!(c.generator.num_threads, 32);
    }

    #[test]
    fn config_file_round_trip() {
        let mut c = CampaignConfig::paper();
        c.programs = 42;
        c.outlier.alpha = 0.3;
        c.generator.max_expression_size = 7;
        c.opt_level = OptLevel::O2;
        let text = c.to_config_file();
        let back = CampaignConfig::from_config_file(&text).unwrap();
        assert_eq!(back.programs, 42);
        assert_eq!(back.outlier.alpha, 0.3);
        assert_eq!(back.generator.max_expression_size, 7);
        assert_eq!(back.opt_level, OptLevel::O2);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# campaign\n\nprograms = 5\n  # indented comment\nbeta = 2.0\n";
        let c = CampaignConfig::from_config_file(text).unwrap();
        assert_eq!(c.programs, 5);
        assert_eq!(c.outlier.beta, 2.0);
    }

    #[test]
    fn unknown_key_is_rejected() {
        let err = CampaignConfig::from_config_file("bogus = 1\n").unwrap_err();
        assert!(err.0.contains("unknown key"));
        assert!(err.0.contains("line 1"));
    }

    #[test]
    fn bad_value_is_rejected_with_line() {
        let err = CampaignConfig::from_config_file("programs = five\n").unwrap_err();
        assert!(err.0.contains("line 1"));
        assert!(err.0.contains("programs"));
    }

    #[test]
    fn inconsistent_generator_is_rejected() {
        // array smaller than team size violates thread-id indexing.
        let err =
            CampaignConfig::from_config_file("ARRAY_SIZE = 4\nNUM_THREADS = 32\n").unwrap_err();
        assert!(err.0.contains("inconsistent"));
    }

    #[test]
    fn engine_round_trips() {
        use ompfuzz_exec::ExecEngine;
        assert_eq!(CampaignConfig::paper().run.engine, ExecEngine::Bytecode);
        let c = CampaignConfig::from_config_file("engine = tree\n").unwrap();
        assert_eq!(c.run.engine, ExecEngine::Tree);
        assert!(c.to_config_file().contains("engine = tree"));
        let err = CampaignConfig::from_config_file("engine = jit\n").unwrap_err();
        assert!(err.0.contains("engine"));
    }

    #[test]
    fn legacy_sharing_round_trips() {
        let text = "LEGACY_SHARING = true\n";
        let c = CampaignConfig::from_config_file(text).unwrap();
        assert_eq!(c.generator.sharing_mode, SharingMode::Legacy);
        assert!(c.to_config_file().contains("LEGACY_SHARING = true"));
    }
}
