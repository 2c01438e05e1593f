//! The HammerBlade Manycore GraphVM (paper §III-C4).
//!
//! Produces kernel executions for the [`ugc_sim_hb`] manycore model,
//! implementing the paper's HammerBlade-specific optimizations:
//!
//! * **blocked access method**: work is formatted into blocks whose
//!   read-only per-vertex data is prefetched into the core's scratchpad in
//!   one pipelined burst, turning dependent DRAM stalls into bulk
//!   transfers (Table IX measures exactly this),
//! * **alignment-based partitioning**: vertices are split into `V/b` work
//!   blocks aligned to LLC lines, raising hit rates and reducing cache-line
//!   contention without spending scratchpad,
//! * **atomics via locks**: the atomics-insertion results from the shared
//!   compiler are honored by charging lock/unlock traffic per atomic
//!   (HammerBlade has no cheap global atomics for arbitrary reductions),
//! * a **host/device split**: sequential host code coordinates kernel
//!   phases (SPMD groups with barriers).
//!
//! The GraphVM also emits HammerBlade-flavored kernel C++ ([`emitter`]).

pub mod emitter;
pub mod executor;
pub mod schedule;
pub mod vm;

pub use executor::HbExecutor;
pub use schedule::{HbLoadBalance, HbSchedule, HbScheduleSpace};
pub use vm::HbGraphVm;
