//! # ompfuzz-reduce
//!
//! Automatic test-case reduction for generated OpenMP programs — the
//! pipeline stage the paper performed by hand when it shrank ~100-line
//! campaign outliers to the minimal kernels of its §V case studies (now
//! frozen in `ompfuzz_harness::caselib`).
//!
//! The reducer is an **oracle-driven delta debugger** over the surface AST:
//!
//! 1. A [`ReductionTarget`] captures one campaign outlier — the program,
//!    the triggering input, and the [`Verdict`] (outlier kind + backend)
//!    that the paper's differential analysis assigned to it.
//! 2. [`Reducer::reduce`] applies AST-level passes built on
//!    [`ompfuzz_ast::rewrite`] — statement-block ddmin, loop-trip-count
//!    shrinking, OpenMP-clause stripping, expression simplification, and
//!    parameter pruning — in a fixpoint loop.
//! 3. After every candidate edit, the **oracle** re-runs the single-case
//!    differential pipeline ([`ompfuzz_backends::oracle::observe`] +
//!    [`ompfuzz_outlier::analyze`]) and keeps the edit only if the original
//!    verdict still reproduces on the same backend.
//!
//! Candidate oracle checks run in parallel on scoped threads (the campaign
//! driver's `pool::map_parallel`), but acceptance uses a
//! deterministic first-success tiebreak — the lowest-index reproducing
//! candidate wins — so the reduced program is identical for any worker
//! count.
//!
//! ```
//! use ompfuzz_backends::{standard_backends, OmpBackend};
//! use ompfuzz_harness::caselib;
//! use ompfuzz_outlier::OutlierKind;
//! use ompfuzz_reduce::{ReduceConfig, Reducer, ReductionTarget, Verdict};
//!
//! // Case study 3's kernel hangs the Intel-like runtime (backend 0).
//! let program = caselib::case_study_3(6000, 32);
//! let input = caselib::case_study_input(&program);
//! let target = ReductionTarget::new(program, input, Verdict::new(OutlierKind::Hang, 0));
//! let backends = standard_backends();
//! let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
//! let outcome = Reducer::new(&dyns, ReduceConfig::default()).reduce(&target);
//! assert!(outcome.reduced_stmts <= outcome.original_stmts);
//! ```

pub mod reducer;
pub mod target;

pub use reducer::{PassStat, ReduceConfig, Reducer, ReductionOutcome};
pub use target::{ReductionTarget, Verdict};
