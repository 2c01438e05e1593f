//! The GPU GraphVM (paper §III-C2).
//!
//! Lowers midend-processed GraphIR onto the [`ugc_sim_gpu`] SIMT timing
//! simulator, implementing the full GPU optimization space of the paper:
//!
//! * seven **load-balancing strategies** as a runtime library
//!   ([`load_balance`]): VERTEX_BASED, TWC, CM, WM, STRICT, EDGE_ONLY,
//!   ETWC,
//! * **kernel fusion** ([`passes`] + the executor's fused mode): a whole
//!   `while` loop becomes one megakernel with grid synchronizations,
//!   amortizing launch overhead for high-diameter (road) graphs,
//! * **fused vs. unfused frontier creation**: atomically-compacted sparse
//!   output vs. boolmap marking plus a compaction kernel,
//! * **EdgeBlocking** for topology-driven kernels (L2-resident destination
//!   ranges),
//! * push/pull/hybrid traversal inherited from the hardware-independent
//!   compiler.
//!
//! The GraphVM also emits CUDA-flavored source ([`emitter`]) mirroring the
//! code-generation half of the paper's backend.

pub mod emitter;
pub mod executor;
pub mod load_balance;
pub mod passes;
pub mod schedule;
pub mod vm;

pub use executor::GpuExecutor;
pub use load_balance::LoadBalance;
pub use schedule::{FrontierCreation, GpuSchedule, GpuScheduleSpace};
pub use vm::GpuGraphVm;
