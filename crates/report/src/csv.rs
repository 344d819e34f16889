//! CSV export of campaign records (no external dependencies; values are
//! numeric or controlled labels, so quoting rules stay trivial).

use ompfuzz_harness::CampaignResult;
use ompfuzz_outlier::{CorrectnessOutlier, ExecStatus, PerfOutlier};

/// Render the per-run record grid as CSV.
///
/// Columns: `program, input, <impl>_status, <impl>_time_us, <impl>_comp`
/// per implementation, then `verdict, outlier_impl, ratio`.
pub fn campaign_to_csv(result: &CampaignResult) -> String {
    let mut out = String::new();
    out.push_str("program,input");
    for label in &result.labels {
        let l = label.to_lowercase();
        out.push_str(&format!(",{l}_status,{l}_time_us,{l}_comp"));
    }
    out.push_str(",verdict,outlier_impl,ratio\n");

    for r in &result.records {
        out.push_str(&format!("{},{}", r.program_name, r.input_index));
        for o in &r.observations {
            let status = match o.status {
                ExecStatus::Ok => "OK",
                ExecStatus::Crash => "CRASH",
                ExecStatus::Hang => "HANG",
            };
            let time = o.time_us.map_or(String::new(), |t| format!("{t}"));
            let comp = o.result.map_or(String::new(), |c| format!("{c:e}"));
            out.push_str(&format!(",{status},{time},{comp}"));
        }
        let (verdict, who, ratio) = verdict_cells(result, r);
        out.push_str(&format!(",{verdict},{who},{ratio}\n"));
    }
    out
}

fn verdict_cells(
    result: &CampaignResult,
    r: &ompfuzz_harness::RunRecord,
) -> (String, String, String) {
    if let Some(c) = r.analysis.correctness {
        let (kind, idx) = match c {
            CorrectnessOutlier::Crash { index } => ("crash", index),
            CorrectnessOutlier::Hang { index } => ("hang", index),
        };
        return (kind.to_string(), result.labels[idx].clone(), String::new());
    }
    if let Some(p) = r.analysis.performance {
        let kind = if p.is_slow() { "slow" } else { "fast" };
        let idx = p.index();
        return (
            kind.to_string(),
            result.labels[idx].clone(),
            format!("{:.3}", p.ratio()),
        );
    }
    if r.analysis.filtered {
        return ("filtered".to_string(), String::new(), String::new());
    }
    let _ = PerfOutlier::Slow {
        index: 0,
        ratio: 0.0,
    }; // keep import honest
    ("none".to_string(), String::new(), String::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompfuzz_backends::{standard_backends, OmpBackend};
    use ompfuzz_harness::{run_campaign, CampaignConfig};
    use ompfuzz_obs::Obs;

    #[test]
    fn csv_has_header_and_rows() {
        let cfg = CampaignConfig {
            programs: 6,
            inputs_per_program: 2,
            ..CampaignConfig::small()
        };
        let backends = standard_backends();
        let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
        let result = run_campaign(&cfg, &dyns, &Obs::off());
        let csv = campaign_to_csv(&result);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + result.records.len());
        assert!(lines[0].starts_with("program,input,intel_status"));
        assert!(lines[0].ends_with("verdict,outlier_impl,ratio"));
        // Every data row has the same number of commas as the header.
        let commas = lines[0].matches(',').count();
        for l in &lines[1..] {
            assert_eq!(l.matches(',').count(), commas, "{l}");
        }
    }
}
