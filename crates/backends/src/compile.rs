//! Compile-time optimization passes over the lowered IR.
//!
//! The constant-folding pass itself now lives in `ompfuzz_exec::fold` so
//! the bytecode compiler can produce one shared `-O1`+ compilation
//! (`PreparedKernel::for_opt`) for all three simulated backends; this module
//! re-exports it for backend-side callers. The *semantic* difference
//! between vendors — GCC's NaN-sensitive branch folding — is applied at
//! interpretation time via `BoolSemantics`, chosen by the backend.

pub use ompfuzz_exec::fold::fold_constants;
