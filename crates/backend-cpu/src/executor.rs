//! The CPU operator executor: real multithreaded traversal.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use ugc_graph::Csr;
use ugc_graphir::ir::{EdgeSetIteratorData, Stmt};
use ugc_graphir::keys;
use ugc_graphir::types::{Direction, VertexSetRepr};
use ugc_runtime::eval::{BufferedOutput, EdgeCtx, Evaluator, NullMemory, NullOutput};
use ugc_runtime::interp::{ExecError, OperatorExecutor, ProgramState};
use ugc_runtime::pool::{default_threads, parallel_for_chunks_with_local, parallel_for_with_local};
use ugc_runtime::value::Value;
use ugc_runtime::vertexset::VertexSet;
use ugc_runtime::UdfId;
use ugc_schedule::{schedule_of, SchedulePoint};

use ugc_telemetry::{AttributionKeys, Counter, Span};

use crate::kernels::{self, EdgeKernel, Io, KernelCache, KernelKey};
use crate::schedule::CpuSchedule;

/// Telemetry handles for the CPU executor, registered once per process.
struct CpuCounters {
    edge_push: Span,
    edge_pull: Span,
    vertex_apply: Span,
    other_ns: Counter,
    elapsed_ns: Counter,
    runs: Counter,
    direction_switches: Counter,
    kernel_specialized: Counter,
    kernel_fallback: Counter,
}

/// Registry keys of the wall-time attribution, in
/// [`CpuAttribution::components`] order. The three operator phases are the
/// `.ns` halves of [`Span`]s.
pub const ATTRIBUTION: AttributionKeys = AttributionKeys {
    prefix: "cpu.",
    unit: "ns",
    components: &[
        ("edge_push", "cpu.edge_push.ns"),
        ("edge_pull", "cpu.edge_pull.ns"),
        ("vertex_apply", "cpu.vertex_apply.ns"),
        ("other", "cpu.other.ns"),
    ],
    total: "cpu.elapsed.ns",
};

fn counters() -> &'static CpuCounters {
    static COUNTERS: OnceLock<CpuCounters> = OnceLock::new();
    // `Span::new(name)` registers `<name>.ns`.
    let span = |i: usize| {
        let key = ATTRIBUTION.components[i].1;
        Span::new(key.strip_suffix(".ns").unwrap_or(key))
    };
    COUNTERS.get_or_init(|| CpuCounters {
        edge_push: span(0),
        edge_pull: span(1),
        vertex_apply: span(2),
        other_ns: Counter::new(ATTRIBUTION.components[3].1),
        elapsed_ns: Counter::new(ATTRIBUTION.total),
        runs: Counter::new("cpu.runs"),
        direction_switches: Counter::new("cpu.direction_switches"),
        kernel_specialized: Counter::new("cpu.kernel.specialized"),
        kernel_fallback: Counter::new("cpu.kernel.fallback"),
    })
}

/// Last edge-traversal direction (0 = none yet, 1 = push, 2 = pull).
/// Process-global: executors are cloned per run, and a schedule-driven
/// push/pull flip is interesting wherever it happens.
static LAST_DIRECTION: AtomicUsize = AtomicUsize::new(0);

fn note_direction(direction: Direction) {
    let code = match direction {
        Direction::Push => 1,
        Direction::Pull => 2,
    };
    let prev = LAST_DIRECTION.swap(code, Ordering::Relaxed);
    if prev != 0 && prev != code {
        counters().direction_switches.incr();
    }
}

/// Per-run wall-time attribution in nanoseconds. Components sum exactly to
/// [`CpuAttribution::total`], which is the elapsed time of `main`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuAttribution {
    /// Time inside push-direction edge traversals.
    pub edge_push: u64,
    /// Time inside pull-direction edge traversals.
    pub edge_pull: u64,
    /// Time inside vertex-apply operators.
    pub vertex_apply: u64,
    /// Interpreter overhead: everything outside the traversal operators.
    pub other: u64,
}

impl CpuAttribution {
    /// Sum of all components.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.edge_push + self.edge_pull + self.vertex_apply + self.other
    }

    /// Named components, in display order.
    #[must_use]
    pub fn components(&self) -> [(&'static str, u64); 4] {
        [
            ("edge_push", self.edge_push),
            ("edge_pull", self.edge_pull),
            ("vertex_apply", self.vertex_apply),
            ("other", self.other),
        ]
    }
}

/// Phase nanoseconds accumulated by one executor over one run.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseNs {
    push: u64,
    pull: u64,
    apply: u64,
}

/// Executes GraphIR iteration operators on host threads.
pub struct CpuExecutor {
    /// Worker thread count (defaults to available parallelism).
    pub num_threads: usize,
    /// Whether edge traversals may use compiled monomorphized kernels
    /// (default: on, unless `UGC_CPU_KERNELS=0`). Off forces the
    /// interpreter everywhere — the differential oracle.
    pub use_kernels: bool,
    /// Per-run kernel table. [`UdfId`]s are only meaningful within one
    /// compiled program, so `Clone` (the per-`execute` entry point) resets
    /// this to empty rather than sharing it.
    kernels: std::sync::Arc<KernelCache>,
    phase_ns: PhaseNs,
}

impl Clone for CpuExecutor {
    fn clone(&self) -> Self {
        CpuExecutor {
            num_threads: self.num_threads,
            use_kernels: self.use_kernels,
            kernels: std::sync::Arc::new(KernelCache::default()),
            phase_ns: self.phase_ns,
        }
    }
}

impl std::fmt::Debug for CpuExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuExecutor")
            .field("num_threads", &self.num_threads)
            .field("use_kernels", &self.use_kernels)
            .finish()
    }
}

impl Default for CpuExecutor {
    fn default() -> Self {
        CpuExecutor::with_threads(default_threads())
    }
}

/// Everything a traversal needs, resolved once per operator.
struct OpPlan {
    udf: UdfId,
    takes_weight: bool,
    src_filter: Option<UdfId>,
    dst_filter: Option<UdfId>,
    requires_output: bool,
    dedup: bool,
    out_repr: VertexSetRepr,
    serial_threshold: usize,
    edge_aware: bool,
    cache_blocking: bool,
}

impl CpuExecutor {
    /// An executor with `num_threads` workers.
    #[must_use]
    pub fn with_threads(num_threads: usize) -> Self {
        CpuExecutor {
            num_threads,
            use_kernels: kernels::kernels_enabled_by_env(),
            kernels: std::sync::Arc::new(KernelCache::default()),
            phase_ns: PhaseNs::default(),
        }
    }

    /// Resolves the compiled kernel for one edge traversal (or `None` for
    /// the interpreter fallback), counting the selection either way.
    fn resolve_kernel(
        &self,
        state: &ProgramState<'_>,
        stmt: &Stmt,
        plan: &OpPlan,
    ) -> Option<std::sync::Arc<dyn EdgeKernel>> {
        let kernel = if self.use_kernels {
            let key = KernelKey {
                point: SchedulePoint::of_stmt(stmt),
                udf: plan.udf,
                src_filter: plan.src_filter,
                dst_filter: plan.dst_filter,
                weighted: plan.takes_weight,
            };
            self.kernels.resolve(key, || {
                kernels::recognize(
                    &state.udfs,
                    &state.props,
                    plan.udf,
                    plan.src_filter,
                    plan.dst_filter,
                )
            })
        } else {
            None
        };
        match kernel {
            Some(_) => counters().kernel_specialized.incr(),
            None => counters().kernel_fallback.incr(),
        }
        kernel
    }

    /// Closes out one run: attributes `elapsed_ns` of wall time across the
    /// phases timed during the run, charges the remainder to `other`,
    /// mirrors the totals into the global registry, and resets the per-run
    /// accumulators. Returns all zeros when telemetry is disabled.
    pub fn finish_run(&mut self, elapsed_ns: u64) -> CpuAttribution {
        let phases = std::mem::take(&mut self.phase_ns);
        if !ugc_telemetry::enabled() {
            return CpuAttribution::default();
        }
        let tracked = phases.push + phases.pull + phases.apply;
        let attr = CpuAttribution {
            edge_push: phases.push,
            edge_pull: phases.pull,
            vertex_apply: phases.apply,
            other: elapsed_ns.max(tracked) - tracked,
        };
        let c = counters();
        c.other_ns.add(attr.other);
        c.elapsed_ns.add(attr.total());
        c.runs.incr();
        attr
    }

    fn plan(
        state: &ProgramState<'_>,
        stmt: &Stmt,
        data: &EdgeSetIteratorData,
    ) -> Result<OpPlan, ExecError> {
        let udf = state
            .udfs
            .id_of(&data.apply)
            .ok_or_else(|| ExecError::new(format!("unknown UDF `{}`", data.apply)))?;
        let lookup = |name: &Option<String>| -> Result<Option<UdfId>, ExecError> {
            match name {
                None => Ok(None),
                Some(n) => state
                    .udfs
                    .id_of(n)
                    .map(Some)
                    .ok_or_else(|| ExecError::new(format!("unknown filter `{n}`"))),
            }
        };
        let sched = schedule_of(stmt);
        let cpu_sched = sched
            .as_ref()
            .and_then(|r| r.as_simple().cloned())
            .and_then(|s| s.as_any().downcast_ref::<CpuSchedule>().cloned());
        let parallelization = stmt
            .meta
            .get_str("parallelization")
            .unwrap_or("VERTEX_BASED")
            .to_string();
        Ok(OpPlan {
            udf,
            takes_weight: state.udfs.get(udf).num_params == 3,
            src_filter: lookup(&data.src_filter)?,
            dst_filter: lookup(&data.dst_filter)?,
            requires_output: data.output.is_some(),
            dedup: stmt.meta.flag(keys::APPLY_DEDUPLICATION),
            out_repr: stmt
                .meta
                .get_repr(keys::OUTPUT_REPRESENTATION)
                .unwrap_or(VertexSetRepr::Sparse),
            serial_threshold: cpu_sched.as_ref().map_or(512, |s| s.serial_threshold()),
            edge_aware: parallelization != "VERTEX_BASED",
            cache_blocking: cpu_sched.as_ref().is_some_and(|s| s.cache_blocking()),
        })
    }

    /// Splits `members` into chunks of roughly `grain` out-edges each.
    fn degree_chunks(csr: &Csr, members: &[u32], grain: usize) -> Vec<std::ops::Range<usize>> {
        let mut chunks = Vec::new();
        let mut start = 0usize;
        let mut acc = 0usize;
        for (i, &v) in members.iter().enumerate() {
            acc += csr.degree(v);
            if acc >= grain {
                chunks.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        if start < members.len() {
            chunks.push(start..members.len());
        }
        chunks
    }

    fn finish(
        state: &mut ProgramState<'_>,
        plan: &OpPlan,
        locals: Vec<BufferedOutput>,
    ) -> Option<VertexSet> {
        let mut enqueued = Vec::new();
        for l in locals {
            for (q, v, p) in l.priority_updates {
                state.queues[q].push(v, p);
            }
            enqueued.extend(l.enqueued);
        }
        if plan.requires_output {
            let mut out = VertexSet::from_members(state.graph.num_vertices(), enqueued);
            if plan.dedup {
                out.dedup();
            }
            if out.repr() != plan.out_repr {
                out = out.to_repr(plan.out_repr);
            }
            Some(out)
        } else {
            None
        }
    }
}

fn passes(ev: &Evaluator<'_>, f: Option<UdfId>, v: u32) -> bool {
    match f {
        None => true,
        Some(id) => ev
            .call(
                id,
                &[Value::Int(v as i64)],
                EdgeCtx::default(),
                &mut NullOutput,
                &mut NullMemory,
            )
            .is_none_or(|r| r.as_bool()),
    }
}

#[allow(clippy::too_many_arguments)]
fn push_range(
    ev: &Evaluator<'_>,
    csr: &Csr,
    members: &[u32],
    range: std::ops::Range<usize>,
    plan: &OpPlan,
    out: &mut BufferedOutput,
) {
    for &src in &members[range] {
        if !passes(ev, plan.src_filter, src) {
            continue;
        }
        let weights = csr.neighbor_weights(src);
        for (k, &dst) in csr.neighbors(src).iter().enumerate() {
            if !passes(ev, plan.dst_filter, dst) {
                continue;
            }
            let w = weights.map_or(1, |ws| ws[k]) as i64;
            let mut args = vec![Value::Int(src as i64), Value::Int(dst as i64)];
            if plan.takes_weight {
                args.push(Value::Int(w));
            }
            ev.call(plan.udf, &args, EdgeCtx { weight: w }, out, &mut NullMemory);
        }
    }
}

fn pull_range(
    ev: &Evaluator<'_>,
    in_csr: &Csr,
    membership: Option<&VertexSet>,
    range: std::ops::Range<usize>,
    plan: &OpPlan,
    out: &mut BufferedOutput,
) {
    for dst in range {
        let dst = dst as u32;
        if !passes(ev, plan.dst_filter, dst) {
            continue;
        }
        let weights = in_csr.neighbor_weights(dst);
        for (k, &src) in in_csr.neighbors(dst).iter().enumerate() {
            if let Some(m) = membership {
                if !m.contains(src) {
                    continue;
                }
            }
            if !passes(ev, plan.src_filter, src) {
                continue;
            }
            let w = weights.map_or(1, |ws| ws[k]) as i64;
            let mut args = vec![Value::Int(src as i64), Value::Int(dst as i64)];
            if plan.takes_weight {
                args.push(Value::Int(w));
            }
            ev.call(plan.udf, &args, EdgeCtx { weight: w }, out, &mut NullMemory);
            // Direction-optimizing early exit: once the destination no
            // longer passes its filter (e.g. BFS parent now set), stop
            // scanning its in-edges.
            if plan.dst_filter.is_some() && !passes(ev, plan.dst_filter, dst) {
                break;
            }
        }
    }
}

impl OperatorExecutor for CpuExecutor {
    fn edge_iterator(
        &mut self,
        state: &mut ProgramState<'_>,
        stmt: &Stmt,
        data: &EdgeSetIteratorData,
    ) -> Result<Option<VertexSet>, ExecError> {
        let plan = Self::plan(state, stmt, data)?;
        let direction = stmt
            .meta
            .get_direction(keys::DIRECTION)
            .unwrap_or(Direction::Push);
        let t0 = ugc_telemetry::enabled().then(Instant::now);
        note_direction(direction);
        let input = state.input_set(&data.input)?;

        // Resolve traversal CSRs honoring the `transposed` flag.
        let fwd: &Csr = if data.transposed {
            state.graph.in_csr()
        } else {
            state.graph.out_csr()
        };
        let bwd: &Csr = if data.transposed {
            state.graph.out_csr()
        } else {
            state.graph.in_csr()
        };

        let ev = Evaluator::new(&state.udfs, &state.props, &state.globals, state.graph);
        let kernel = self.resolve_kernel(state, stmt, &plan);
        let locals: Vec<BufferedOutput> = match direction {
            Direction::Push => {
                let members = input.iter();
                let io = Io {
                    props: &state.props,
                    csr: fwd,
                };
                // One range-level dispatch: the specialized kernel body or
                // the interpreter, chosen once per operator, never per edge.
                let run = |range: std::ops::Range<usize>, out: &mut BufferedOutput| match &kernel {
                    Some(k) => k.run_push(&io, &members, range, out),
                    None => push_range(&ev, fwd, &members, range, &plan, out),
                };
                if plan.cache_blocking && data.input.is_none() {
                    // EdgeBlocking: iterate destination blocks for locality.
                    match &kernel {
                        Some(k) => {
                            cache_blocked_push_kernel(k.as_ref(), &io, &members, self.num_threads)
                        }
                        None => cache_blocked_push(&ev, fwd, &members, &plan, self.num_threads),
                    }
                } else if members.len() < plan.serial_threshold {
                    let mut out = BufferedOutput::default();
                    run(0..members.len(), &mut out);
                    vec![out]
                } else if plan.edge_aware {
                    // Degree-balanced chunks go straight into per-worker
                    // queues; idle workers steal whole chunks.
                    let chunks = Self::degree_chunks(fwd, &members, 2048);
                    parallel_for_chunks_with_local(
                        self.num_threads,
                        chunks,
                        |_tid, crange, local: &mut BufferedOutput| run(crange, local),
                    )
                } else {
                    parallel_for_with_local(
                        self.num_threads,
                        members.len(),
                        64,
                        |_tid, range, local: &mut BufferedOutput| run(range, local),
                    )
                }
            }
            Direction::Pull => {
                let n = state.graph.num_vertices();
                let membership = if data.input.is_none() {
                    None
                } else {
                    let repr = stmt
                        .meta
                        .get_repr(keys::PULL_INPUT_FRONTIER)
                        .unwrap_or(VertexSetRepr::Boolmap);
                    Some(input.to_repr(repr))
                };
                let membership = membership.as_ref();
                let io = Io {
                    props: &state.props,
                    csr: bwd,
                };
                let run = |range: std::ops::Range<usize>, out: &mut BufferedOutput| match &kernel {
                    Some(k) => k.run_pull(&io, membership, range, out),
                    None => pull_range(&ev, bwd, membership, range, &plan, out),
                };
                if n < plan.serial_threshold {
                    let mut out = BufferedOutput::default();
                    run(0..n, &mut out);
                    vec![out]
                } else {
                    parallel_for_with_local(
                        self.num_threads,
                        n,
                        128,
                        |_tid, range, local: &mut BufferedOutput| run(range, local),
                    )
                }
            }
        };
        let out = CpuExecutor::finish(state, &plan, locals);
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            let c = counters();
            match direction {
                Direction::Push => {
                    self.phase_ns.push += ns;
                    c.edge_push.record_ns(ns);
                }
                Direction::Pull => {
                    self.phase_ns.pull += ns;
                    c.edge_pull.record_ns(ns);
                }
            }
        }
        Ok(out)
    }

    fn vertex_iterator(
        &mut self,
        state: &mut ProgramState<'_>,
        _stmt: &Stmt,
        set: Option<&str>,
        apply: &str,
    ) -> Result<(), ExecError> {
        let t0 = ugc_telemetry::enabled().then(Instant::now);
        let udf = state
            .udfs
            .id_of(apply)
            .ok_or_else(|| ExecError::new(format!("unknown UDF `{apply}`")))?;
        let members = match set {
            None => VertexSet::all(state.graph.num_vertices()).iter(),
            Some(n) => state
                .env
                .set(n)
                .ok_or_else(|| ExecError::new(format!("set `{n}` is not bound")))?
                .iter(),
        };
        let ev = Evaluator::new(&state.udfs, &state.props, &state.globals, state.graph);
        let locals: Vec<BufferedOutput> = if members.len() < 512 {
            let mut out = BufferedOutput::default();
            for &v in &members {
                ev.call(
                    udf,
                    &[Value::Int(v as i64)],
                    EdgeCtx::default(),
                    &mut out,
                    &mut NullMemory,
                );
            }
            vec![out]
        } else {
            parallel_for_with_local(
                self.num_threads,
                members.len(),
                256,
                |_tid, range, local: &mut BufferedOutput| {
                    for &v in &members[range] {
                        ev.call(
                            udf,
                            &[Value::Int(v as i64)],
                            EdgeCtx::default(),
                            local,
                            &mut NullMemory,
                        );
                    }
                },
            )
        };
        for l in locals {
            for (q, v, p) in l.priority_updates {
                state.queues[q].push(v, p);
            }
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.phase_ns.apply += ns;
            counters().vertex_apply.record_ns(ns);
        }
        Ok(())
    }

    fn vertex_filter(
        &mut self,
        state: &mut ProgramState<'_>,
        _stmt: &Stmt,
        input: Option<&str>,
        filter: &str,
    ) -> Result<VertexSet, ExecError> {
        let t0 = ugc_telemetry::enabled().then(Instant::now);
        let udf = state
            .udfs
            .id_of(filter)
            .ok_or_else(|| ExecError::new(format!("unknown filter function `{filter}`")))?;
        let n = state.graph.num_vertices();
        let candidates: Vec<u32> = match input {
            None => (0..n as u32).collect(),
            Some(name) => state
                .env
                .set(name)
                .ok_or_else(|| ExecError::new(format!("set `{name}` is not bound")))?
                .members_in_order(),
        };
        let ev = Evaluator::new(&state.udfs, &state.props, &state.globals, state.graph);
        let keep = |v: u32| {
            ev.call(
                udf,
                &[Value::Int(v as i64)],
                EdgeCtx::default(),
                &mut NullOutput,
                &mut NullMemory,
            )
            .map(|r| r.as_bool())
            .unwrap_or(false)
        };
        let members: Vec<u32> = if candidates.len() < 512 {
            candidates.iter().copied().filter(|&v| keep(v)).collect()
        } else {
            let locals = parallel_for_with_local(
                self.num_threads,
                candidates.len(),
                256,
                |_tid, range, local: &mut Vec<u32>| {
                    local.extend(candidates[range].iter().copied().filter(|&v| keep(v)));
                },
            );
            // Workers steal chunks dynamically, so locals interleave;
            // restore ascending order for a canonical sparse set.
            let mut all: Vec<u32> = locals.into_iter().flatten().collect();
            all.sort_unstable();
            all
        };
        let out = VertexSet::from_members(n, members);
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.phase_ns.apply += ns;
            counters().vertex_apply.record_ns(ns);
        }
        Ok(out)
    }
}

/// EdgeBlocking (cache-blocked) all-edges push traversal: destinations are
/// processed in blocks sized to the last-level cache so random writes stay
/// resident (GraphIt's EdgeBlocking / NUMA optimization for PageRank).
fn cache_blocked_push(
    ev: &Evaluator<'_>,
    csr: &Csr,
    members: &[u32],
    plan: &OpPlan,
    num_threads: usize,
) -> Vec<BufferedOutput> {
    const BLOCK: u32 = 1 << 14;
    let n = csr.num_vertices() as u32;
    let mut all = Vec::new();
    let mut lo = 0u32;
    while lo < n {
        let hi = (lo + BLOCK).min(n);
        let locals = parallel_for_with_local(
            num_threads,
            members.len(),
            64,
            |_tid, range, local: &mut BufferedOutput| {
                for &src in &members[range] {
                    if !passes(ev, plan.src_filter, src) {
                        continue;
                    }
                    let neigh = csr.neighbors(src);
                    let weights = csr.neighbor_weights(src);
                    let start = neigh.partition_point(|&d| d < lo);
                    for k in start..neigh.len() {
                        let dst = neigh[k];
                        if dst >= hi {
                            break;
                        }
                        if !passes(ev, plan.dst_filter, dst) {
                            continue;
                        }
                        let w = weights.map_or(1, |ws| ws[k]) as i64;
                        let mut args = vec![Value::Int(src as i64), Value::Int(dst as i64)];
                        if plan.takes_weight {
                            args.push(Value::Int(w));
                        }
                        ev.call(
                            plan.udf,
                            &args,
                            EdgeCtx { weight: w },
                            local,
                            &mut NullMemory,
                        );
                    }
                }
            },
        );
        all.extend(locals);
        lo = hi;
    }
    all
}

/// The compiled-kernel twin of [`cache_blocked_push`]: same destination
/// blocking, per-edge work done by the monomorphized kernel body.
fn cache_blocked_push_kernel(
    kernel: &dyn EdgeKernel,
    io: &Io<'_>,
    members: &[u32],
    num_threads: usize,
) -> Vec<BufferedOutput> {
    const BLOCK: u32 = 1 << 14;
    let n = io.csr.num_vertices() as u32;
    let mut all = Vec::new();
    let mut lo = 0u32;
    while lo < n {
        let hi = (lo + BLOCK).min(n);
        let locals = parallel_for_with_local(
            num_threads,
            members.len(),
            64,
            |_tid, range, local: &mut BufferedOutput| {
                kernel.run_push_block(io, members, range, lo, hi, local);
            },
        );
        all.extend(locals);
        lo = hi;
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use ugc_runtime::interp::run_main;

    const BFS: &str = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex) = load("g");
const parent : vector{Vertex}(int) = -1;
const start_vertex : Vertex;
func toFilter(v : Vertex) -> output : bool
    output = (parent[v] == -1);
end
func updateEdge(src : Vertex, dst : Vertex)
    parent[dst] = src;
end
func main()
    var frontier : vertexset{Vertex} = new vertexset{Vertex}(0);
    frontier.addVertex(start_vertex);
    parent[start_vertex] = start_vertex;
    #s0# while (frontier.getVertexSetSize() != 0)
        #s1# var output : vertexset{Vertex} = edges.from(frontier).to(toFilter).applyModified(updateEdge, parent, true);
        delete frontier;
        frontier = output;
    end
end
"#;

    fn run_bfs(sched: Option<CpuSchedule>) -> Vec<i64> {
        let mut prog = ugc_midend::frontend_to_ir(BFS).unwrap();
        if let Some(s) = sched {
            ugc_schedule::apply_schedule(&mut prog, "s1", ugc_schedule::ScheduleRef::simple(s))
                .unwrap();
        }
        ugc_midend::run_passes(&mut prog).unwrap();
        let graph = ugc_graph::generators::two_communities();
        let mut externs = HashMap::new();
        externs.insert("start_vertex".to_string(), Value::Int(0));
        let mut state = ProgramState::new(prog, &graph, &externs).unwrap();
        run_main(&mut state, &mut CpuExecutor::default()).unwrap();
        let parent = state.props.id_of("parent").unwrap();
        state
            .props
            .snapshot(parent)
            .into_iter()
            .map(|v| v.as_int())
            .collect()
    }

    fn assert_valid_bfs_tree(parents: &[i64]) {
        let g = ugc_graph::generators::two_communities();
        // Every vertex reachable from 0; parent edges must exist.
        for (v, &p) in parents.iter().enumerate() {
            assert_ne!(p, -1, "vertex {v} unreached");
            if v != 0 {
                assert!(
                    g.out_neighbors(p as u32).contains(&(v as u32)),
                    "parent edge {p}->{v} missing"
                );
            }
        }
    }

    #[test]
    fn bfs_push_default() {
        assert_valid_bfs_tree(&run_bfs(None));
    }

    #[test]
    fn bfs_pull() {
        assert_valid_bfs_tree(&run_bfs(Some(
            CpuSchedule::new().with_direction(ugc_schedule::SchedDirection::Pull),
        )));
    }

    #[test]
    fn bfs_hybrid() {
        assert_valid_bfs_tree(&run_bfs(Some(
            CpuSchedule::new().with_direction(ugc_schedule::SchedDirection::Hybrid),
        )));
    }

    #[test]
    fn bfs_edge_aware_parallel() {
        assert_valid_bfs_tree(&run_bfs(Some(
            CpuSchedule::new()
                .with_parallelization(ugc_schedule::Parallelization::EdgeAwareVertexBased)
                .with_serial_threshold(0),
        )));
    }

    #[test]
    fn degree_chunks_cover_members() {
        let g = ugc_graph::generators::star(64);
        let members: Vec<u32> = (0..64).collect();
        let chunks = CpuExecutor::degree_chunks(g.out_csr(), &members, 16);
        let covered: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(covered, 64);
        assert!(chunks.len() > 1);
    }
}
