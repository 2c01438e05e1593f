//! Compiled kernel dispatch: the CPU executor's monomorphized edge
//! kernels versus the interpreter they replace.
//!
//! Two guarantees:
//!
//! 1. **Total dispatch** — every reachable point of the CPU schedule
//!    space, applied to every algorithm, yields edge traversals that
//!    either resolve to a *named* compiled kernel or deliberately fall
//!    back to the interpreter. Recognition is a closed decision, never a
//!    crash, and every resolved name comes from the known kernel library.
//! 2. **Differential equality** — with a single thread the kernel path
//!    and the interpreter path visit edges in the same order, so every
//!    result property must be *bit-identical* between a `with_kernels`
//!    run and an interpreter-forced run, across the whole graph
//!    menagerie. Multi-threaded runs agree on the race-free derived
//!    results (BFS levels, SSSP distances).

use ugc_algorithms::Algorithm;
use ugc_backend_cpu::{kernels, CpuGraphVm, CpuSchedule, CpuScheduleSpace, CpuStats};
use ugc_graphir::ir::{Program, Stmt, StmtKind};
use ugc_integration::{compile, externs_for, test_graphs, validate};
use ugc_runtime::bytecode::{binding_of, compile_udfs, UdfSet};
use ugc_runtime::GraphVm;
use ugc_schedule::space::{PointIter, ScheduleSpace, SpaceParams};
use ugc_schedule::{Parallelization, SchedDirection, ScheduleRef};

/// Every kernel the library can assemble. A recognized name outside this
/// set means the executor dispatch table and this test have diverged.
const KNOWN_KERNELS: &[&str] = &[
    "cas_claim",
    "reduce_sum",
    "reduce_min",
    "reduce_max",
    "reduce_or",
    "relax_min",
    "relax_sum",
];

/// Collects every edge traversal in a statement tree.
fn edge_iterators(stmts: &[Stmt], out: &mut Vec<ugc_graphir::ir::EdgeSetIteratorData>) {
    for s in stmts {
        match &s.kind {
            StmtKind::EdgeSetIterator(d) => out.push(d.clone()),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                edge_iterators(then_body, out);
                edge_iterators(else_body, out);
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                edge_iterators(body, out);
            }
            _ => {}
        }
    }
}

fn all_edge_iterators(prog: &Program) -> Vec<ugc_graphir::ir::EdgeSetIteratorData> {
    let mut iters = Vec::new();
    edge_iterators(&prog.main, &mut iters);
    for f in &prog.functions {
        edge_iterators(&f.body, &mut iters);
    }
    iters
}

/// `(kernel name | None)` for each edge traversal of a compiled program,
/// resolved exactly the way the executor's dispatch table does.
fn resolutions(prog: &Program, udfs: &UdfSet) -> Vec<Option<&'static str>> {
    all_edge_iterators(prog)
        .iter()
        .map(|d| {
            let apply = udfs
                .id_of(&d.apply)
                .unwrap_or_else(|| panic!("apply UDF `{}` missing", d.apply));
            let sf = d.src_filter.as_ref().map(|n| {
                udfs.id_of(n)
                    .unwrap_or_else(|| panic!("src filter `{n}` missing"))
            });
            let df = d.dst_filter.as_ref().map(|n| {
                udfs.id_of(n)
                    .unwrap_or_else(|| panic!("dst filter `{n}` missing"))
            });
            kernels::recognize_name(prog, udfs, apply, sf, df)
        })
        .collect()
}

/// Guarantee 1: the whole reachable schedule space dispatches cleanly.
#[test]
fn every_schedule_point_resolves_or_deliberately_falls_back() {
    let mut specialized = 0usize;
    let mut fallback = 0usize;
    for algo in Algorithm::ALL {
        let params = SpaceParams {
            ordered: matches!(algo, Algorithm::Sssp),
            data_driven: matches!(algo, Algorithm::Bfs | Algorithm::Bc),
            num_vertices: 64,
        };
        let dims = CpuScheduleSpace.dimensions(&params);
        for pt in PointIter::new(&dims) {
            let Some(sched) = CpuScheduleSpace.materialize(&params, &pt) else {
                continue;
            };
            let prog = compile(algo, Some(sched));
            let udfs = compile_udfs(&prog, &binding_of(&prog))
                .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
            let res = resolutions(&prog, &udfs);
            assert!(
                !res.is_empty(),
                "{} at point {pt:?}: no edge traversal found",
                algo.name()
            );
            for r in res {
                match r {
                    Some(name) => {
                        assert!(
                            KNOWN_KERNELS.contains(&name),
                            "{} at point {pt:?}: unknown kernel `{name}`",
                            algo.name()
                        );
                        specialized += 1;
                    }
                    None => fallback += 1,
                }
            }
        }
    }
    // The library must actually engage somewhere — an all-fallback space
    // would silently reintroduce the interpreter tax this PR removes.
    assert!(
        specialized > 0,
        "no schedule point resolved to a compiled kernel ({fallback} fallbacks)"
    );
}

/// The core frontier algorithms must hit compiled kernels under their
/// default schedules — these are exactly the hot loops of the fig8 CPU
/// cells this PR speeds up.
#[test]
fn default_schedules_of_frontier_algorithms_specialize() {
    for algo in [Algorithm::Bfs, Algorithm::Cc, Algorithm::Sssp] {
        let prog = compile(algo, None);
        let udfs = compile_udfs(&prog, &binding_of(&prog)).expect("udfs compile");
        let res = resolutions(&prog, &udfs);
        assert!(
            res.iter().any(Option::is_some),
            "{}: default schedule never reaches a compiled kernel: {res:?}",
            algo.name()
        );
    }
}

/// The primary result property of each algorithm, with its comparison
/// domain (ints or float bits — both exact).
fn result_bits(run: &ugc_runtime::Execution<'_, CpuStats>, algo: Algorithm) -> Vec<u64> {
    match algo {
        Algorithm::Bfs => run
            .property_ints("parent")
            .iter()
            .map(|&v| v as u64)
            .collect(),
        Algorithm::Sssp => run
            .property_ints("dist")
            .iter()
            .map(|&v| v as u64)
            .collect(),
        Algorithm::Cc => run.property_ints("IDs").iter().map(|&v| v as u64).collect(),
        Algorithm::PageRank => run
            .property_floats("old_rank")
            .iter()
            .map(|&v| v.to_bits())
            .collect(),
        Algorithm::Bc => run
            .property_floats("centrality")
            .iter()
            .map(|&v| v.to_bits())
            .collect(),
        Algorithm::Tc => run.property_ints("tri").iter().map(|&v| v as u64).collect(),
        Algorithm::KCore => run
            .property_ints("core")
            .iter()
            .map(|&v| v as u64)
            .collect(),
        Algorithm::Lp => run
            .property_ints("labels")
            .iter()
            .map(|&v| v as u64)
            .collect(),
    }
}

/// The schedules the differential sweep runs per algorithm. Pull and
/// cache blocking only where the correctness suite exercises them.
fn differential_scheds(algo: Algorithm) -> Vec<Option<ScheduleRef>> {
    let mut scheds: Vec<Option<ScheduleRef>> = vec![
        None,
        Some(ScheduleRef::simple(
            CpuSchedule::new()
                .with_serial_threshold(0)
                .with_parallelization(Parallelization::EdgeAwareVertexBased),
        )),
        Some(ScheduleRef::simple(
            CpuSchedule::new().with_deduplication(true),
        )),
    ];
    if matches!(algo, Algorithm::Bfs | Algorithm::PageRank) {
        scheds.push(Some(ScheduleRef::simple(
            CpuSchedule::new().with_direction(SchedDirection::Pull),
        )));
        scheds.push(Some(ScheduleRef::simple(
            CpuSchedule::new().with_cache_blocking(true),
        )));
    }
    scheds
}

/// The recognizer's decision on each new scenario algorithm is deliberate,
/// not accidental:
///
/// - **LP** (`next_label[dst] min= labels[src]`) is exactly the CC
///   reduction shape and must specialize to `reduce_min`. (Bit-identity
///   with the interpreter is covered by the `Algorithm::ALL` sweep above.)
/// - **TC** (`tri[dst] += intersect_count(src, dst)`) must fall back: the
///   kernel library only specializes reductions whose value is a plain
///   property load of `src`, and has no kernel for intrinsic-valued
///   (adjacency-intersection) work. The fallback is *counted* under
///   `cpu.kernel.fallback`, never silent.
/// - **k-core** (`deg[dst] += -1`) must fall back for the same reason: a
///   literal-valued reduction has no specialized kernel yet.
#[test]
fn new_algorithms_dispatch_deliberately() {
    let resolutions_of = |algo: Algorithm| {
        let prog = compile(algo, None);
        let udfs = compile_udfs(&prog, &binding_of(&prog)).expect("udfs compile");
        resolutions(&prog, &udfs)
    };
    assert_eq!(
        resolutions_of(Algorithm::Lp),
        vec![Some("reduce_min")],
        "LP's propagate is the CC shape and must specialize"
    );
    assert_eq!(
        resolutions_of(Algorithm::Tc),
        vec![None],
        "TC must (deliberately) fall back — no intersection kernel exists"
    );
    assert_eq!(
        resolutions_of(Algorithm::KCore),
        vec![None],
        "k-core must (deliberately) fall back — no literal-valued reduction kernel"
    );
    // Fallbacks are counted, not silent: a kernels-enabled TC run bumps
    // `cpu.kernel.fallback` (when telemetry is collected at all).
    if ugc_telemetry::enabled() {
        let col = ugc_telemetry::Collector::start();
        let graph = ugc_graph::generators::clique_batch(2, 4);
        CpuGraphVm::with_threads(1)
            .with_kernels(true)
            .execute(
                compile(Algorithm::Tc, None),
                &graph,
                &externs_for(Algorithm::Tc, 0),
            )
            .expect("tc runs");
        let snap = col.snapshot();
        assert!(
            snap.get("cpu.kernel.fallback").unwrap_or(0) > 0,
            "TC fallback was not counted: {snap:?}"
        );
    }
}

/// Guarantee 2 (serial): kernels on vs interpreter-forced, one thread,
/// bit-identical results everywhere — and both valid against the
/// sequential reference.
#[test]
fn kernels_are_bit_identical_to_interpreter_single_threaded() {
    for algo in Algorithm::ALL {
        for sched in differential_scheds(algo) {
            for (gname, graph) in test_graphs() {
                let run = |kernels_on: bool| {
                    let prog = compile(algo, sched.clone());
                    CpuGraphVm::with_threads(1)
                        .with_kernels(kernels_on)
                        .execute(prog, &graph, &externs_for(algo, 0))
                        .unwrap_or_else(|e| panic!("{} on {gname}: {e}", algo.name()))
                };
                let kernel_run = run(true);
                let interp_run = run(false);
                assert_eq!(
                    result_bits(&kernel_run, algo),
                    result_bits(&interp_run, algo),
                    "{} on {gname}: kernel result diverges from interpreter",
                    algo.name()
                );
                validate(algo, &graph, 0, &|p| kernel_run.property_ints(p), &|p| {
                    kernel_run.property_floats(p)
                });
            }
        }
    }
}

/// Guarantee 2 (parallel): under real threads the kernel path agrees with
/// the interpreter on the race-free derived answers.
#[test]
fn kernels_match_interpreter_under_threads() {
    let graph = ugc_graph::generators::rmat(9, 6, 13, true);
    let sched = ScheduleRef::simple(CpuSchedule::new().with_serial_threshold(0));
    for kernels_on in [true, false] {
        let bfs = CpuGraphVm::with_threads(8)
            .with_kernels(kernels_on)
            .execute(
                compile(Algorithm::Bfs, Some(sched.clone())),
                &graph,
                &externs_for(Algorithm::Bfs, 0),
            )
            .expect("bfs runs");
        ugc_algorithms::validate::check_bfs_parents(&graph, 0, &bfs.property_ints("parent"))
            .expect("valid BFS tree");
    }
    // SSSP distances converge to the unique shortest-path fixpoint under
    // any interleaving: exact equality across both dispatch modes.
    let dist_of = |kernels_on: bool| {
        CpuGraphVm::with_threads(8)
            .with_kernels(kernels_on)
            .execute(
                compile(Algorithm::Sssp, Some(sched.clone())),
                &graph,
                &externs_for(Algorithm::Sssp, 0),
            )
            .expect("sssp runs")
            .property_ints("dist")
    };
    assert_eq!(dist_of(true), dist_of(false));
}

// ---------------------------------------------------------------------------
// Widened recognizer coverage: UpdatePrio Sum and float-equality filters.
// ---------------------------------------------------------------------------

/// Compiles DSL source through the full hardware-independent pipeline,
/// with no schedules attached.
fn compile_source(src: &str) -> Program {
    let mut prog = ugc_midend::frontend_to_ir(src).expect("source compiles");
    ugc_midend::run_passes(&mut prog).expect("midend passes run");
    prog
}

/// Delta-accumulation over a priority queue: `updatePrioritySum` of a bare
/// property load — the re-read-after-reduce shape the recognizer now
/// specializes as `relax_sum`.
const DELTA_SUM_SRC: &str = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex) = load(argv_1);
const vertices : vertexset{Vertex} = edges.getVertices();
const heat : vector{Vertex}(int) = 0;
const start_vertex : Vertex;
const pq : priority_queue{Vertex}(int) = new priority_queue{Vertex}(int)(heat, start_vertex);

func updateEdge(src : Vertex, dst : Vertex)
    pq.updatePrioritySum(dst, heat[src]);
end

func main()
    #s0# while (pq.finished() == false)
        var frontier : vertexset{Vertex} = pq.dequeue_ready_set();
        #s1# edges.from(frontier).applyUpdatePriority(updateEdge);
        delete frontier;
    end
end
"#;

/// The weighted variant: `updatePrioritySum` of `heat[src] + weight`.
const DELTA_SUM_WEIGHTED_SRC: &str = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex,int) = load(argv_1);
const vertices : vertexset{Vertex} = edges.getVertices();
const heat : vector{Vertex}(int) = 0;
const start_vertex : Vertex;
const pq : priority_queue{Vertex}(int) = new priority_queue{Vertex}(int)(heat, start_vertex);

func updateEdge(src : Vertex, dst : Vertex, weight : int)
    var bump : int = heat[src] + weight;
    pq.updatePrioritySum(dst, bump);
end

func main()
    #s0# while (pq.finished() == false)
        var frontier : vertexset{Vertex} = pq.dequeue_ready_set();
        #s1# edges.from(frontier).applyUpdatePriority(updateEdge);
        delete frontier;
    end
end
"#;

/// A float-equality vertex filter over exact cell values: specializes under
/// the recognizer's IEEE `==` comparison (DESIGN.md NaN policy).
const FLOAT_FILTER_SRC: &str = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex) = load(argv_1);
const vertices : vertexset{Vertex} = edges.getVertices();
const rank : vector{Vertex}(float) = 0.0;
const acc : vector{Vertex}(float) = 0.0;

func init(v : Vertex)
    rank[v] = to_float(v) - 1.0;
end

func updateEdge(src : Vertex, dst : Vertex)
    acc[dst] += rank[src];
end

func isCold(v : Vertex) -> output : bool
    output = (rank[v] == 0.0);
end

func main()
    vertices.apply(init);
    var n : int = vertices.size();
    var frontier : vertexset{Vertex} = new vertexset{Vertex}(n);
    #s1# edges.from(frontier).to(isCold).apply(updateEdge);
    delete frontier;
end
"#;

/// Both `updatePrioritySum` shapes (bare load, load + weight) must resolve
/// to the `relax_sum` kernel rather than falling back.
#[test]
fn update_priority_sum_specializes_to_relax_sum() {
    for src in [DELTA_SUM_SRC, DELTA_SUM_WEIGHTED_SRC] {
        let prog = compile_source(src);
        let udfs = compile_udfs(&prog, &binding_of(&prog)).expect("udfs compile");
        let res = resolutions(&prog, &udfs);
        assert_eq!(
            res,
            vec![Some("relax_sum")],
            "updatePrioritySum must specialize"
        );
    }
}

/// The `relax_sum` kernel must reproduce the interpreter's notification
/// semantics exactly — Sum updates re-read the accumulated cell — so a
/// full delta-accumulation run is bit-identical across dispatch modes.
/// Forward-only edges keep the accumulation finite: the start's seed
/// priority is 0, each relaxation pushes `heat[src] + weight >= 1`
/// downstream, and nothing ever flows back.
#[test]
fn relax_sum_matches_interpreter_on_dag() {
    let mut b = ugc_graph::GraphBuilder::new(8);
    for (s, d, w) in [
        (0, 1, 1),
        (1, 2, 2),
        (2, 3, 1),
        (3, 4, 3),
        (4, 5, 1),
        (5, 6, 2),
        (6, 7, 1),
        (0, 2, 4),
        (1, 4, 1),
        (2, 5, 2),
        (3, 7, 5),
    ] {
        b.add_weighted_edge(s, d, w);
    }
    let graph = b.into_graph();
    let mut externs = std::collections::HashMap::new();
    externs.insert(
        "start_vertex".to_string(),
        ugc_runtime::value::Value::Int(0),
    );
    let heat_of = |kernels_on: bool| {
        CpuGraphVm::with_threads(1)
            .with_kernels(kernels_on)
            .execute(compile_source(DELTA_SUM_WEIGHTED_SRC), &graph, &externs)
            .expect("delta-sum runs")
            .property_ints("heat")
    };
    let kernel_heat = heat_of(true);
    let interp_heat = heat_of(false);
    assert_eq!(
        kernel_heat, interp_heat,
        "relax_sum diverges from the interpreter"
    );
    // Heat actually flowed down the DAG: the sink accumulated something.
    assert!(
        kernel_heat[7] > 0,
        "no heat reached the sink: {kernel_heat:?}"
    );
}

/// A float-equality filter engages the compiled kernel (no fallback) and
/// the filtered traversal stays bit-identical to the interpreter across
/// the graph menagerie.
#[test]
fn float_filter_specializes_and_matches_interpreter() {
    let prog = compile_source(FLOAT_FILTER_SRC);
    let udfs = compile_udfs(&prog, &binding_of(&prog)).expect("udfs compile");
    assert_eq!(
        resolutions(&prog, &udfs),
        vec![Some("reduce_sum")],
        "float-equality filter must not force a fallback"
    );
    let externs = std::collections::HashMap::new();
    for (gname, graph) in test_graphs() {
        let bits_of = |kernels_on: bool| {
            let run = CpuGraphVm::with_threads(1)
                .with_kernels(kernels_on)
                .execute(compile_source(FLOAT_FILTER_SRC), &graph, &externs)
                .unwrap_or_else(|e| panic!("float filter on {gname}: {e}"));
            let acc: Vec<u64> = run
                .property_floats("acc")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            acc
        };
        assert_eq!(
            bits_of(true),
            bits_of(false),
            "{gname}: filtered kernel diverges from interpreter"
        );
    }
}
