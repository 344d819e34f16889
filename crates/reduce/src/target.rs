//! What gets reduced: one campaign outlier, captured as a self-contained
//! `(program, input, verdict)` triple.

use ompfuzz_ast::Program;
use ompfuzz_harness::{CampaignResult, RunRecord, TestCase};
use ompfuzz_inputs::TestInput;
use ompfuzz_outlier::OutlierKind;
use std::fmt;

/// The differential verdict a reduction must preserve: the same outlier
/// class on the same implementation (index into the campaign's backend
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub kind: OutlierKind,
    pub backend: usize,
}

impl Verdict {
    pub fn new(kind: OutlierKind, backend: usize) -> Verdict {
        Verdict { kind, backend }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on implementation #{}",
            self.kind.label(),
            self.backend
        )
    }
}

/// One reducible campaign outlier.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionTarget {
    /// The outlier-triggering program (kept verbatim; the reducer clones).
    pub program: Program,
    /// The specific input the verdict was observed on. Reduction pins this
    /// single input — the modelled (and real) trigger conditions are
    /// `(program, input)`-specific.
    pub input: TestInput,
    /// The verdict to preserve.
    pub verdict: Verdict,
}

impl ReductionTarget {
    pub fn new(program: Program, input: TestInput, verdict: Verdict) -> ReductionTarget {
        ReductionTarget {
            program,
            input,
            verdict,
        }
    }

    /// Extract the target behind one campaign record: the corpus program it
    /// indexes, the specific input, and the record's primary outlier.
    /// `None` when the record carries no outlier or its indices don't
    /// resolve in `corpus` (mismatched corpus).
    pub fn from_record(corpus: &[TestCase], record: &RunRecord) -> Option<ReductionTarget> {
        ReductionTarget::from_record_slice(corpus, 0, record)
    }

    /// [`Self::from_record`] against a contiguous corpus *slice* starting
    /// at global index `index_offset` — what sharded campaigns use, since
    /// a shard materializes only its own slice (records carry global
    /// indices; programs outside the slice don't resolve).
    pub fn from_record_slice(
        slice: &[TestCase],
        index_offset: usize,
        record: &RunRecord,
    ) -> Option<ReductionTarget> {
        let (kind, backend) = record.outlier()?;
        let tc = slice.get(record.program_index.checked_sub(index_offset)?)?;
        if tc.program.name.as_str() != &*record.program_name {
            return None;
        }
        let input = tc.inputs.get(record.input_index)?.clone();
        Some(ReductionTarget {
            program: tc.program.clone(),
            input,
            verdict: Verdict::new(kind, backend),
        })
    }

    /// The campaign's most severe outlier as a reduction target (see
    /// [`CampaignResult::worst_outlier`] for the severity order).
    pub fn worst_of_campaign(
        corpus: &[TestCase],
        result: &CampaignResult,
    ) -> Option<ReductionTarget> {
        ReductionTarget::from_record(corpus, result.worst_outlier()?)
    }

    /// The campaign's most severe outlier of `kind`.
    pub fn worst_of_kind(
        corpus: &[TestCase],
        result: &CampaignResult,
        kind: OutlierKind,
    ) -> Option<ReductionTarget> {
        ReductionTarget::from_record(corpus, result.worst_outlier_of_kind(kind)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompfuzz_backends::{standard_backends, OmpBackend};
    use ompfuzz_exec::ProfileCollector;
    use ompfuzz_harness::{generate_case, run_campaign_generated_with, CampaignConfig};
    use ompfuzz_obs::Obs;
    use std::time::Instant;

    /// A small campaign and the corpus it ran.
    fn small_campaign() -> (Vec<TestCase>, CampaignResult) {
        let cfg = CampaignConfig::small();
        let backends = standard_backends();
        let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
        let (result, corpus) = run_campaign_generated_with(
            &cfg,
            &dyns,
            0..cfg.programs,
            &|i| generate_case(&cfg, i),
            Instant::now(),
            &Obs::off(),
            &ProfileCollector::off(),
        );
        (corpus, result)
    }

    #[test]
    fn extraction_resolves_program_and_input() {
        let (corpus, result) = small_campaign();
        // Whether or not this small campaign has outliers, extraction must
        // agree with the records it is given.
        for record in result.records.iter().take(50) {
            let target = ReductionTarget::from_record(&corpus, record);
            match record.outlier() {
                None => assert!(target.is_none()),
                Some((kind, backend)) => {
                    let t = target.expect("outlier record resolves");
                    assert_eq!(t.verdict, Verdict::new(kind, backend));
                    assert_eq!(t.program, corpus[record.program_index].program);
                    assert_eq!(
                        t.input,
                        corpus[record.program_index].inputs[record.input_index]
                    );
                }
            }
        }
        // And the worst-of-campaign helper agrees with the driver's pick.
        if let Some(worst) = result.worst_outlier() {
            let t = ReductionTarget::worst_of_campaign(&corpus, &result).unwrap();
            assert_eq!(t.program.name.as_str(), &*worst.program_name);
        }
    }

    #[test]
    fn truncated_corpus_is_rejected() {
        let (corpus, result) = small_campaign();
        let Some(record) = result.records.iter().find(|r| r.outlier().is_some()) else {
            return; // nothing to misresolve in this campaign
        };
        // A corpus that no longer contains the record's program index.
        let truncated = &corpus[..record.program_index];
        assert!(ReductionTarget::from_record(truncated, record).is_none());
    }
}
