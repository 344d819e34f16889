//! Shared helpers for the benchmark harness.
//!
//! Every `cargo bench` target regenerates one table or figure of the paper
//! (printing the rows/series once, paper-style) and then measures the cost
//! of the underlying operation with Criterion. The printed artifacts are
//! the reproduction; the measurements are the performance record of this
//! implementation.

use ompfuzz_backends::{standard_backends, OmpBackend, SimBackend};
use ompfuzz_harness::{run_campaign, CampaignConfig, CampaignResult};
use ompfuzz_obs::Obs;
use ompfuzz_outlier::{analyze, Analysis, OutlierConfig, RunObservation};

/// Campaign scale used inside timed loops: small enough for Criterion,
/// same code paths as the paper scale.
pub fn bench_campaign_config() -> CampaignConfig {
    CampaignConfig {
        programs: 12,
        inputs_per_program: 2,
        workers: 2,
        ..CampaignConfig::paper()
    }
}

/// A medium campaign for printing representative numbers in bench output
/// (larger than the timed one, much smaller than `--paper`).
pub fn print_campaign_config() -> CampaignConfig {
    CampaignConfig {
        programs: 60,
        inputs_per_program: 2,
        ..CampaignConfig::paper()
    }
}

/// Run a campaign against the three standard simulated backends.
pub fn run_standard_campaign(config: &CampaignConfig) -> CampaignResult {
    let backends = standard_backends();
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
    run_campaign(config, &dyns, &Obs::off())
}

/// Re-analyze a campaign's raw observations under different α/β thresholds
/// without re-running anything (the ablation the paper hints at in its
/// answer to Q1: "Changes to these parameters may produce more or less
/// outliers").
pub fn reanalyze(result: &CampaignResult, alpha: f64, beta: f64) -> Vec<Analysis> {
    let cfg = OutlierConfig {
        alpha,
        beta,
        ..OutlierConfig::default()
    };
    result
        .records
        .iter()
        .map(|r| analyze(&r.observations, &cfg))
        .collect()
}

/// Count performance outliers in a set of analyses.
pub fn count_perf_outliers(analyses: &[Analysis]) -> usize {
    analyses.iter().filter(|a| a.performance.is_some()).count()
}

/// Synthetic observation triple with a given slow ratio (for detector
/// micro-benches).
pub fn synthetic_triple(ratio: f64) -> Vec<RunObservation> {
    vec![
        RunObservation::ok(100_000.0, 1.0),
        RunObservation::ok(104_000.0, 1.0),
        RunObservation::ok(102_000.0 * ratio, 1.0),
    ]
}

/// The standard backends as concrete values (labels follow the paper).
pub fn backends() -> Vec<SimBackend> {
    standard_backends()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reanalysis_matches_original_at_same_thresholds() {
        let result = run_standard_campaign(&bench_campaign_config());
        let re = reanalyze(&result, 0.2, 1.5);
        for (orig, new) in result.records.iter().zip(&re) {
            assert_eq!(orig.analysis.performance, new.performance);
        }
    }

    #[test]
    fn beta_sweep_is_monotone() {
        let result = run_standard_campaign(&bench_campaign_config());
        let mut last = usize::MAX;
        for beta in [1.2, 1.5, 2.0, 3.0] {
            let n = count_perf_outliers(&reanalyze(&result, 0.2, beta));
            assert!(n <= last, "β={beta} produced more outliers than smaller β");
            last = n;
        }
    }

    #[test]
    fn synthetic_triple_detects_at_threshold() {
        use ompfuzz_outlier::{analyze, OutlierConfig};
        let cfg = OutlierConfig::default();
        assert!(analyze(&synthetic_triple(2.0), &cfg).performance.is_some());
        assert!(analyze(&synthetic_triple(1.1), &cfg).performance.is_none());
    }
}
