//! # ompfuzz-backends
//!
//! Three **simulated OpenMP implementations** — Intel-oneAPI-like,
//! GNU-GCC-like and LLVM/Clang-like — that stand in for the real compiler
//! toolchains of the paper's evaluation platform (see DESIGN.md §1 for the
//! substitution argument).
//!
//! Each backend couples:
//!
//! * a calibrated runtime cost model ([`rtmodel`]) fed into an analytic
//!   discrete-event time model ([`sched`]),
//! * a hang census generator ([`hang`], Figs. 8/9), and
//! * explicit, individually-toggleable **bug models**
//!   ([`rtmodel::BugModels`]) reproducing the behaviours behind every
//!   anomaly class the paper reports.
//!
//! A run ([`RunResult`]) carries only what the differential oracle reads:
//! status, `comp`, time, a hang's thread snapshot and the ops it
//! interpreted. The `perf stat` counter model ([`counters`], Tables
//! II/III) and the `perf report` profile generator ([`profile`], Figs.
//! 6/7) are computed on demand, by the reports, through
//! [`SimBinary::perf_report`].
//!
//! ```
//! use ompfuzz_backends::{standard_backends, CompileOptions, OmpBackend, RunOptions};
//! use ompfuzz_gen::{GeneratorConfig, ProgramGenerator};
//! use ompfuzz_inputs::InputGenerator;
//!
//! let mut generator = ProgramGenerator::new(GeneratorConfig::small(), 3);
//! let program = generator.generate("demo");
//! let input = InputGenerator::new(4).generate_for(&program);
//! for backend in standard_backends() {
//!     let binary = backend.compile(&program, &CompileOptions::default()).unwrap();
//!     let result = binary.run(&input, &RunOptions::default());
//!     println!("{}: {:?} in {:?} µs", backend.info().compiler, result.comp, result.time_us);
//! }
//! ```

pub mod backend;
pub mod counters;
pub mod hang;
pub mod model;
pub mod oracle;
pub mod profile;
pub mod rtmodel;
pub mod sched;

pub use backend::{
    backend_info, standard_backends, CompiledTest, OmpBackend, SimBackend, SimBinary,
};
pub use counters::PerfCounters;
pub use hang::{ThreadGroup, ThreadSnapshot};
pub use model::{
    BackendInfo, CompileError, CompileOptions, OptLevel, RunOptions, RunResult, RunStatus, Vendor,
};
pub use oracle::{observe, to_observation};
pub use profile::{ProfileEntry, ProfileMode, StackProfile};
pub use rtmodel::{runtime_model, BugModels, RuntimeModel};
pub use sched::{time_breakdown, TimeBreakdown};
