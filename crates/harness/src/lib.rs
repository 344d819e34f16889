//! # ompfuzz-harness
//!
//! The campaign driver — Fig. 1 of the paper as a library:
//!
//! 1. **Generate** ([`testcase`]): a corpus of random OpenMP programs and
//!    floating-point inputs from a [`CampaignConfig`] (the paper's step-(a)
//!    configuration file is supported verbatim via
//!    [`CampaignConfig::from_config_file`]).
//! 2. **Compile** every test with every registered implementation — the
//!    three simulated backends from `ompfuzz-backends`, real host
//!    compilers via [`ProcessBackend`], or any mix.
//! 3. **Run** each binary on each input, with hang timeouts and crash
//!    labelling (§IV-C).
//! 4. **Analyze** differentially ([`campaign`]): per-run outlier analysis
//!    and the Table-I tally.
//!
//! Racy programs (the Varity legacy limitation, §IV-E) are detected
//! dynamically and excluded, automating the paper's manual filtering: each
//! program's first input runs with race recording on, in the same oracle
//! step that runs its binaries.
//!
//! ```
//! use ompfuzz_harness::{run_campaign, CampaignConfig};
//! use ompfuzz_backends::{standard_backends, OmpBackend};
//! use ompfuzz_obs::Obs;
//!
//! let config = CampaignConfig::small();
//! let backends = standard_backends();
//! let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
//! let result = run_campaign(&config, &dyns, &Obs::off());
//! assert_eq!(result.labels, vec!["Intel", "Clang", "GCC"]);
//! println!("{} outliers in {} runs", result.tally.total_outliers(), result.total_runs);
//! ```

pub mod campaign;
pub mod caselib;
pub mod config;
pub mod pool;
pub mod process;
pub mod testcase;

pub use campaign::{run_campaign, run_campaign_generated_with, CampaignResult, RunRecord};
pub use config::{CampaignConfig, ConfigError};
pub use process::{ProcessBackend, ProcessBinary};
pub use testcase::{
    generate_case, generate_corpus, generate_corpus_slice, load_inputs, save_corpus, TestCase,
};
