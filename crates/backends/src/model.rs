//! Public backend model: vendors, compile/run options, run results.

use crate::hang::ThreadSnapshot;
use std::fmt;

/// The three OpenMP implementation families of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Vendor {
    /// Intel oneAPI (`icpx` + `libiomp5`).
    IntelLike,
    /// GNU GCC (`g++` + `libgomp`).
    GccLike,
    /// LLVM (`clang++` + `libomp`).
    ClangLike,
}

impl Vendor {
    /// All vendors in the paper's table order.
    pub fn all() -> [Vendor; 3] {
        [Vendor::IntelLike, Vendor::ClangLike, Vendor::GccLike]
    }

    /// Short label used in tables ("Intel", "Clang", "GCC").
    pub fn label(self) -> &'static str {
        match self {
            Vendor::IntelLike => "Intel",
            Vendor::GccLike => "GCC",
            Vendor::ClangLike => "Clang",
        }
    }
}

impl fmt::Display for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Identity and provenance of an implementation, mirroring the version
/// table in §V-A of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendInfo {
    pub vendor: Vendor,
    /// Human-readable implementation name.
    pub implementation: &'static str,
    /// Compiler driver name.
    pub compiler: &'static str,
    /// Version string (matching the paper's evaluation versions).
    pub version: &'static str,
    /// Release date as in the paper's table.
    pub release: &'static str,
    /// Runtime library `perf` would attribute samples to.
    pub runtime_lib: &'static str,
}

/// Optimization level used at compile time. The paper's evaluation compiles
/// everything at `-O3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OptLevel {
    O0,
    O1,
    O2,
    #[default]
    O3,
}

impl OptLevel {
    pub fn flag(self) -> &'static str {
        match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2",
            OptLevel::O3 => "-O3",
        }
    }
}

/// Compile-time options.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileOptions {
    pub opt_level: OptLevel,
}

/// Run-time options.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Simulated wall-clock budget after which a non-terminating run is
    /// declared a hang (the paper stops hung binaries with SIGINT after ~3
    /// minutes).
    pub hang_timeout_us: u64,
    /// Interpreter op budget (safety net for runaway trip counts).
    pub max_ops: u64,
    /// Record data races during this run: an oracle step then returns
    /// the race reports of its IEEE interpretation
    /// ([`crate::oracle::CompiledSet::step`]).
    pub detect_races: bool,
    /// Execution engine (flat bytecode by default; the tree interpreter is
    /// the reference — results are bit-identical either way).
    pub engine: ompfuzz_exec::ExecEngine,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            hang_timeout_us: 180_000_000, // 3 minutes
            max_ops: 200_000_000,
            detect_races: false,
            engine: ompfuzz_exec::ExecEngine::default(),
        }
    }
}

/// Terminal status of one run, mirroring §IV-C of the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// `P_OK`: terminated and printed a result.
    Ok,
    /// `P_CRASH`: stopped before producing output (e.g. SIGSEGV).
    Crash {
        signal: &'static str,
        reason: String,
    },
    /// `P_HANG`: exceeded the timeout and was stopped with SIGINT.
    Hang {
        /// The timeout that expired, in simulated microseconds.
        timeout_us: u64,
    },
}

impl RunStatus {
    pub fn is_ok(&self) -> bool {
        matches!(self, RunStatus::Ok)
    }

    /// Paper-style superscript label: OK / CRASH / HANG.
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Ok => "OK",
            RunStatus::Crash { .. } => "CRASH",
            RunStatus::Hang { .. } => "HANG",
        }
    }
}

/// What one execution of a compiled binary shows the oracle: the exit
/// status, the printed `comp` and time, the thread snapshot of a modelled
/// hang, and the interpreter ops behind it. The paper's `perf stat`
/// counters and `perf report` profiles are not part of a run: the reports
/// compute them on demand ([`crate::SimBinary::perf_report`]).
#[derive(Debug, Clone)]
pub struct RunResult {
    pub status: RunStatus,
    /// Final `comp` printed by the test (absent on crash/hang).
    pub comp: Option<f64>,
    /// Simulated execution time in microseconds (absent on crash/hang).
    pub time_us: Option<u64>,
    /// Thread-state snapshot, present for hangs (the gdb view of Fig. 8/9).
    pub threads: Option<ThreadSnapshot>,
    /// VM/interpreter operations this binary's run models (0 on a crash,
    /// a budget abort or a process run). A binary that read another
    /// binary's interpretation reports that run's ops as its own, so
    /// summing per binary gives the same total whether or not
    /// interpretations are shared.
    pub vm_ops: u64,
}

impl RunResult {
    /// A run that printed nothing: a crash, a hang or a budget abort, with
    /// no thread snapshot and no ops.
    pub fn no_output(status: RunStatus) -> RunResult {
        RunResult {
            status,
            comp: None,
            time_us: None,
            threads: None,
            vm_ops: 0,
        }
    }

    /// True when the run was stopped by the interpreter's op budget rather
    /// than by a *modelled* hang: budget aborts carry no thread snapshot
    /// (there is no simulated runtime state to inspect), while modelled
    /// livelocks always do. Telemetry uses this to count budget aborts
    /// separately from the hangs the campaign actually reports.
    pub fn is_budget_abort(&self) -> bool {
        matches!(self.status, RunStatus::Hang { .. }) && self.threads.is_none()
    }
}

/// Compile-time failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError(pub String);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_labels() {
        assert_eq!(Vendor::IntelLike.label(), "Intel");
        assert_eq!(Vendor::GccLike.to_string(), "GCC");
        assert_eq!(Vendor::all().len(), 3);
    }

    #[test]
    fn status_labels() {
        assert!(RunStatus::Ok.is_ok());
        assert_eq!(RunStatus::Ok.label(), "OK");
        assert_eq!(
            RunStatus::Crash {
                signal: "SIGSEGV",
                reason: String::new()
            }
            .label(),
            "CRASH"
        );
        assert_eq!(RunStatus::Hang { timeout_us: 1 }.label(), "HANG");
    }

    #[test]
    fn default_run_options_match_paper_protocol() {
        let o = RunOptions::default();
        assert_eq!(o.hang_timeout_us, 180_000_000);
    }

    #[test]
    fn opt_level_flags() {
        assert_eq!(OptLevel::O3.flag(), "-O3");
        assert_eq!(OptLevel::default(), OptLevel::O3);
    }
}
