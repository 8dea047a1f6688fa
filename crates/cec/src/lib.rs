//! Combinational equivalence checking (CEC) and SAT sweeping over AIGs.
//!
//! This crate plays the role of ABC's `cec` and `fraig`/`dch` machinery in
//! the E-morphic reproduction:
//!
//! * [`check_equivalence`] builds a miter between two AIGs and decides output
//!   equivalence with random simulation (fast refutation) followed by SAT
//!   (proof), returning a counterexample when the circuits differ.
//! * [`SatSweeper`] detects internal functionally equivalent nodes of a
//!   single AIG by simulation-guided candidate grouping plus SAT proofs —
//!   the engine behind structural *choice* computation in `logic-opt`.
//!   Like ABC's fraig it reuses its proofs: proved nodes are substituted by
//!   their representatives in a lazily loaded CNF, pairs whose substituted
//!   fanins coincide are proved without SAT, and every SAT proof adds its
//!   equality clauses to the solver.
//!
//! * [`check_equivalence_swept`] SAT-sweeps the miter first, so structurally
//!   aligned cones merge bottom-up before the output queries, as ABC's `cec`
//!   does.
//!
//! Every circuit that E-morphic produces is proved against the circuit the
//! user submitted with [`check_equivalence_swept`], mirroring the paper's use
//! of `cec` in ABC.

#![warn(missing_docs)]

/// Default per-SAT-call conflict budget shared by [`CecOptions`] and
/// [`SweepOptions`]: verification is bounded by default, so a hard miter
/// returns [`CecResult::Unknown`] instead of spinning when callers forget to
/// thread an explicit budget.
pub const DEFAULT_CONFLICT_BUDGET: u64 = 10_000;

mod miter;
mod sweep;
mod tseitin;

pub use miter::{
    check_equivalence, check_equivalence_swept, CecOptions, CecResult, Counterexample,
};
pub use sweep::{EquivClasses, SatSweeper, SweepOptions, SweepStats};
pub use tseitin::AigCnf;
