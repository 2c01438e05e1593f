//! The GraphVM contract every backend implements.
//!
//! A backend supplies its configuration, the operator executor it runs
//! GraphIR with, and the statistics it reports; [`GraphVm::execute`] is
//! the one shared `contain` → [`ProgramState::new`] → [`run_main`] body,
//! and [`Execution`] the one result type every backend returns.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ugc_graph::Graph;
use ugc_graphir::ir::Program;

use crate::interp::{contain, run_main, ExecError, OperatorExecutor, ProgramState};
use crate::value::Value;

/// The result of one GraphVM execution.
pub struct Execution<'g, S> {
    /// Final program state (properties, globals, prints).
    pub state: ProgramState<'g>,
    /// Milliseconds: wall-clock on the CPU, simulated on the simulators.
    pub time_ms: f64,
    /// Simulated cycles (0 on the CPU).
    pub cycles: u64,
    /// The backend's own statistics.
    pub stats: S,
}

impl<S: std::fmt::Debug> std::fmt::Debug for Execution<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Execution")
            .field("time_ms", &self.time_ms)
            .field("cycles", &self.cycles)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<S> Execution<'_, S> {
    /// Snapshot of a property by name as integers.
    ///
    /// # Panics
    ///
    /// Panics if the property does not exist (a compile bug, not a data
    /// error).
    pub fn property_ints(&self, name: &str) -> Vec<i64> {
        self.property(name)
            .into_iter()
            .map(|v| v.as_int())
            .collect()
    }

    /// Snapshot of a property by name as floats.
    ///
    /// # Panics
    ///
    /// Panics if the property does not exist.
    pub fn property_floats(&self, name: &str) -> Vec<f64> {
        self.property(name)
            .into_iter()
            .map(|v| v.as_float())
            .collect()
    }

    fn property(&self, name: &str) -> Vec<Value> {
        let id = self.state.props.id_of(name).expect("property exists");
        self.state.props.snapshot(id)
    }
}

/// A GraphVM: executes midend-processed GraphIR on one architecture.
pub trait GraphVm {
    /// The operator executor one run drives.
    type Executor: OperatorExecutor;
    /// What the backend reports besides time and cycles.
    type Stats;

    /// Backend-specific GraphIR passes, run before state setup. The
    /// default runs none.
    fn prepare(&self, _prog: &mut Program) {}

    /// A fresh executor for one run.
    fn executor(&self) -> Self::Executor;

    /// Closes a run given the wall time of `main`: returns
    /// `(time_ms, cycles, stats)`. Called even when `main` failed, so
    /// per-run telemetry stays consistent.
    fn finish(&self, exec: Self::Executor, wall: Duration) -> (f64, u64, Self::Stats);

    /// Executes a program (already lowered and passed through the midend)
    /// on `graph`, binding extern consts from `externs`.
    ///
    /// Runs under [`contain`]: panics anywhere in the execution (broken
    /// invariants, injected faults, watchdog payloads) come back as
    /// classed [`ExecError`]s instead of unwinding into the caller.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for unbound externs or execution failures.
    fn execute<'g>(
        &self,
        mut prog: Program,
        graph: &'g Graph,
        externs: &HashMap<String, Value>,
    ) -> Result<Execution<'g, Self::Stats>, ExecError> {
        contain(std::panic::AssertUnwindSafe(|| {
            self.prepare(&mut prog);
            let mut state = ProgramState::new(prog, graph, externs)?;
            let mut exec = self.executor();
            let start = Instant::now();
            let result = run_main(&mut state, &mut exec);
            let (time_ms, cycles, stats) = self.finish(exec, start.elapsed());
            result?;
            Ok(Execution {
                state,
                time_ms,
                cycles,
                stats,
            })
        }))
    }
}
