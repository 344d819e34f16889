//! # ompfuzz-exec
//!
//! Deterministic execution substrate for generated OpenMP test programs:
//!
//! * [`lower`](mod@lower) — name resolution from the surface AST to a slot-based IR
//!   ([`kernel::Kernel`]), the moral equivalent of a compiler front-end;
//! * [`bytecode`] — a second compilation stage flattening a lowered kernel
//!   into one linear instruction stream with batched op-budget charging and
//!   pre-resolved race-check flags; [`vm`] is its dispatch loop and the
//!   production engine;
//! * [`interp`] — the deterministic tree-walk interpreter implementing the
//!   OpenMP semantic model (parallel regions, static `omp for` scheduling,
//!   `private`/`firstprivate`, reductions over `comp`, critical sections)
//!   with full work accounting per thread and per region; kept as the
//!   reference semantics behind [`ExecOptions::engine`], bit-identical to
//!   the VM;
//! * [`fold`] — the shared `-O1`+ constant-folding pass;
//! * [`race`] — a dynamic data-race detector that automates the manual
//!   race filtering of the paper's §IV-E; a run records races only when
//!   [`ExecOptions::detect_races`] asks, which changes nothing else about
//!   the run;
//! * [`profile`] — an opt-in VM hot-path profiler: per-opcode dispatch
//!   counts and per-block hit/cost totals, merged campaign-wide
//!   (`--profile-out`), with zero cost when not installed;
//! * [`stats`] — the execution statistics consumed by the simulated
//!   backend cost models in `ompfuzz-backends`.
//!
//! Every run goes through one entry point, [`CompiledKernel::run`]: it
//! dispatches on [`ExecOptions::engine`] and runs through a caller-held
//! [`ExecScratch`], so a kernel is compiled once, in the form its
//! optimization level runs (via [`PreparedKernel`]), and its runs stop
//! reallocating their state vectors.
//!
//! The interpreter executes real numerics — the `comp` value it returns is
//! the number a compiled binary would print — while *time* is deliberately
//! left symbolic (weighted work cycles). Turning work into wall-clock
//! microseconds is the backends' job, because that is exactly where real
//! OpenMP implementations differ.

pub mod bytecode;
pub mod fold;
pub mod interp;
pub mod kernel;
pub mod lower;
pub mod profile;
pub mod race;
pub mod scratch;
pub mod stats;
pub mod vm;

pub use bytecode::{CompiledKernel, PreparedKernel};
pub use interp::{BoolSemantics, ExecEngine, ExecError, ExecLimits, ExecOptions, ExecOutcome};
pub use kernel::Kernel;
pub use lower::{lower, LowerError};
pub use profile::{BlockProfile, ExecProfile, ProfileCollector, OPCODE_COUNT, OPCODE_NAMES};
pub use race::{RaceDetector, RaceReport};
pub use scratch::ExecScratch;
pub use stats::{ExecStats, OpCounts, RegionTrace, ThreadWork};
