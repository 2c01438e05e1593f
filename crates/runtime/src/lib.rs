#![warn(missing_docs)]

//! Shared runtime substrate for every UGC GraphVM.
//!
//! The paper's GraphVMs each ship a runtime library (Table III). In this
//! reproduction large parts of those libraries are shared — exactly the
//! pieces whose semantics must agree across backends for a program to
//! produce the same answer everywhere:
//!
//! * [`value::Value`] — the scalar value domain of GraphIR programs,
//! * [`properties::PropertyStorage`] — per-vertex property vectors with
//!   atomic operations (the `VertexData` arrays of Table II),
//! * [`vertexset::VertexSet`] — frontier representations (SPARSE / BITMAP /
//!   BOOLMAP) with conversions,
//! * [`buckets::BucketQueue`] — the ∆-stepping bucketed priority queue,
//! * [`frontier_list::FrontierList`] — the list-of-frontiers used by BC,
//! * [`bytecode`] / [`eval`] — compilation of user-defined functions to a
//!   register bytecode and its evaluator with a pluggable
//!   [`eval::MemoryModel`], so architecture simulators observe every
//!   load/store/atomic with its address while the real CPU backend pays no
//!   observation cost,
//! * [`pool`] — work-distribution primitives for the CPU backend: a
//!   persistent std-only work-stealing worker pool (`UGC_THREADS=1`
//!   forces deterministic serial execution), whose loops
//!   [`parallel`] re-exports under a short path,
//! * [`host`] — host-side variable environment shared by backend
//!   interpreters,
//! * [`vm`] — the [`GraphVm`] contract every backend implements and the
//!   one [`Execution`] type a run returns.

pub mod buckets;
pub mod bytecode;
pub mod eval;
pub mod frontier_list;
pub mod host;
pub mod interp;
pub mod parallel;
pub mod pool;
pub mod properties;
pub mod value;
pub mod vertexset;
pub mod vm;

pub use buckets::BucketQueue;
pub use bytecode::{compile_udfs, UdfId, UdfProgram, UdfSet};
pub use eval::{EdgeCtx, MemoryModel, NullMemory, UdfOutput};
pub use frontier_list::FrontierList;
pub use interp::{contain, ExecError};
pub use properties::{GlobalTable, PropId, PropertyStorage};
pub use ugc_resilience::ErrorClass;
pub use value::Value;
pub use vertexset::VertexSet;
pub use vm::{Execution, GraphVm};
