//! The in-process workloads: `cpu-suite` (the CPU GraphVM at one thread)
//! and `sim-zoo` (the three simulated GraphVMs). One closed-loop caller
//! runs every (target, algorithm, graph) cell once per round until the
//! run's time is up, validating every output with
//! `ugc_algorithms::validate`, which is independent of the compiler.

use std::time::{Duration, Instant};

use ugc::{Algorithm, Compiler, RunResult, Target};
use ugc_algorithms::{reference, validate};
use ugc_graph::prng::Prng;
use ugc_graph::{generators, Graph};
use ugc_telemetry::Collector;

use crate::metrics::{algo_key, ALGOS, CPU_COMPONENTS, SIM_TARGETS};
use crate::stats::{best, geomean, mean, median};
use crate::trace::Tracer;
use crate::Outcome;

/// How the graphs of a suite are generated from the seed.
type GraphGen = fn(u64) -> Graph;

/// One in-process workload.
pub struct Suite {
    /// Graph generators, called with the workload seed.
    pub graphs: [GraphGen; 2],
    /// Targets every algorithm runs on.
    pub targets: &'static [Target],
}

fn pokec_shape(seed: u64) -> Graph {
    generators::rmat(13, 9, seed, true)
}

fn road_shape(seed: u64) -> Graph {
    generators::road_grid(100, 100, 0.05, seed, true)
}

fn small_pokec_shape(seed: u64) -> Graph {
    generators::rmat(11, 9, seed, true)
}

fn small_road_shape(seed: u64) -> Graph {
    generators::road_grid(50, 50, 0.05, seed, true)
}

/// `cpu-suite`: all eight algorithms on the CPU GraphVM, on a power-law
/// and a road-network graph.
pub const CPU_SUITE: Suite = Suite {
    graphs: [pokec_shape, road_shape],
    targets: &[Target::Cpu],
};

/// `sim-zoo`: all eight algorithms on the GPU, Swarm and HammerBlade
/// simulators, on smaller graphs of the same two shapes.
pub const SIM_ZOO: Suite = Suite {
    graphs: [small_pokec_shape, small_road_shape],
    targets: &[Target::Gpu, Target::Swarm, Target::HammerBlade],
};

/// Graph-generation repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 3;

struct Cell {
    target: Target,
    algo: Algorithm,
    graph: usize,
    source: u32,
}

/// Everything measured for one cell.
#[derive(Default)]
struct CellLog {
    /// Wall ms of `Compiler::run`, untraced rounds.
    run_ms: Vec<f64>,
    /// Wall ms of the same work in traced rounds (compile + execute).
    traced_run_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    ref_ms: Vec<f64>,
    frontend_ms: Vec<f64>,
    midend_ms: Vec<f64>,
    ir_size: u64,
    /// CPU attribution sums (ns) over traced runs, in `CPU_COMPONENTS`
    /// order, and their count.
    cpu_ns: [u64; 4],
    cpu_runs: u64,
    kernel_specialized: u64,
    kernel_fallback: u64,
    cycles: Option<u64>,
}

/// Draws one source per (graph, algorithm) among non-isolated vertices.
fn draw_source(g: &Graph, seed: u64, graph: usize, algo: Algorithm) -> u32 {
    let live: Vec<u32> = (0..g.num_vertices() as u32)
        .filter(|&v| g.out_degree(v) > 0)
        .collect();
    let algo_index = ALGOS.iter().position(|&a| a == algo).unwrap_or(0);
    let mut rng = Prng::with_stream(seed, (graph * ALGOS.len() + algo_index) as u64);
    live[rng.bounded_u64(live.len() as u64) as usize]
}

fn compiler_for(cell: &Cell) -> Compiler {
    let mut c = Compiler::new(cell.algo);
    if cell.algo.needs_start_vertex() {
        c.start_vertex(cell.source);
    }
    c
}

/// Checks a run's output with the validator of its algorithm.
fn check(algo: Algorithm, g: &Graph, src: u32, r: &RunResult) -> Result<(), String> {
    match algo {
        Algorithm::Bfs => validate::check_bfs_parents(g, src, r.property_ints("parent")),
        Algorithm::Sssp => validate::check_sssp_distances(g, src, r.property_ints("dist")),
        Algorithm::Cc => validate::check_cc_labels(g, r.property_ints("IDs")),
        Algorithm::PageRank => validate::check_pagerank(g, r.property_floats("old_rank"), 1e-7),
        Algorithm::Bc => validate::check_bc(g, src, r.property_floats("centrality"), 1e-6),
        Algorithm::Tc => validate::check_triangle_counts(g, r.property_ints("tri")),
        Algorithm::KCore => validate::check_coreness(g, r.property_ints("core")),
        Algorithm::Lp => validate::check_lp_labels(g, r.property_ints("labels"), 20, 1),
    }
}

/// Runs the sequential reference for an algorithm (its result is
/// discarded; only its time matters).
pub fn run_reference(algo: Algorithm, g: &Graph, src: u32) {
    match algo {
        Algorithm::Bfs => drop(std::hint::black_box(reference::bfs_parents(g, src))),
        Algorithm::Sssp => drop(std::hint::black_box(reference::dijkstra(g, src))),
        Algorithm::Cc => drop(std::hint::black_box(reference::cc_labels(g))),
        Algorithm::PageRank => drop(std::hint::black_box(reference::pagerank(g, 20, 0.85))),
        Algorithm::Bc => drop(std::hint::black_box(reference::bc_dependencies(g, src))),
        Algorithm::Tc => drop(std::hint::black_box(reference::triangle_counts(g))),
        Algorithm::KCore => drop(std::hint::black_box(reference::coreness(g))),
        Algorithm::Lp => drop(std::hint::black_box(reference::label_propagation(g, 20, 1))),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the suite for `seconds` and reports its metrics. A traced run
/// alternates untraced and traced rounds, so the tracing overhead is
/// measured in the same process.
pub fn run(suite: &Suite, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let traced_run = tracer.enabled();
    let mut out = Outcome::default();

    // Set-up: generate the graphs several times; the median is setup_s.
    let mut setup_ms = Vec::new();
    let mut graphs: Vec<Graph> = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let op = tracer.fresh_id();
        graphs = suite
            .graphs
            .iter()
            .map(|gen| tracer.span("graph", op, None, || gen(seed)))
            .collect();
        setup_ms.push(ms(t0.elapsed()));
    }

    let mut cells: Vec<Cell> = Vec::new();
    for &target in suite.targets {
        for algo in ALGOS {
            for (graph, g) in graphs.iter().enumerate() {
                cells.push(Cell {
                    target,
                    algo,
                    graph,
                    source: draw_source(g, seed, graph, algo),
                });
            }
        }
    }
    let mut logs: Vec<CellLog> = cells.iter().map(|_| CellLog::default()).collect();

    // Rounds run while another one fits in the run's seconds (at least
    // two, so a traced run has one round of each kind).
    let start = Instant::now();
    let mut round = 0usize;
    let mut last_round_s = 0.0;
    while round < 2 || start.elapsed().as_secs_f64() + last_round_s <= seconds {
        let round_start = Instant::now();
        let traced = traced_run && round % 2 == 1;
        tracer.set_enabled(traced);
        for (cell, log) in cells.iter().zip(logs.iter_mut()) {
            let g = &graphs[cell.graph];
            out.attempted += 1;
            let result = if traced {
                traced_op(cell, g, log, tracer)
            } else {
                untraced_op(cell, g, log)
            };
            if let Err(e) = result {
                out.failed += 1;
                out.wrong.push(format!(
                    "{}/{}/graph{}: {e}",
                    cell.target.name(),
                    cell.algo.name(),
                    cell.graph
                ));
            }
        }
        last_round_s = round_start.elapsed().as_secs_f64();
        round += 1;
    }
    tracer.set_enabled(traced_run);

    // Every timing is a cell's best round: work on a shared host is only
    // ever slowed by its neighbours, and the best of many rounds repeats
    // from run to run better than the median.
    let e = &mut out.metrics;
    e.insert("setup_s".into(), median(&setup_ms) / 1e3);
    e.insert("setup.graph_ms".into(), median(&setup_ms));
    let cell_ms: Vec<f64> = logs.iter().map(|l| best(&l.run_ms)).collect();
    let by_algo = |algo: Algorithm, f: &dyn Fn(&CellLog) -> f64| -> f64 {
        let vals: Vec<f64> = cells
            .iter()
            .zip(&logs)
            .filter(|(c, _)| c.algo == algo)
            .map(|(_, l)| f(l))
            .collect();
        geomean(&vals)
    };
    for algo in ALGOS {
        let k = algo_key(algo);
        e.insert(
            format!("ratio.{k}"),
            by_algo(algo, &|l| best(&l.run_ms) / best(&l.ref_ms)),
        );
        if !traced_run {
            continue;
        }
        let exec = by_algo(algo, &|l| best(&l.exec_ms));
        // One reference time per graph: the reference ignores the target.
        let refs: Vec<f64> = cells
            .iter()
            .zip(&logs)
            .filter(|(c, _)| c.algo == algo && c.target == suite.targets[0])
            .map(|(_, l)| best(&l.ref_ms))
            .collect();
        e.insert(format!("exec_ms.{k}"), exec);
        e.insert(format!("ref_ms.{k}"), geomean(&refs));
        e.insert(format!("ref_ratio.{k}"), exec / geomean(&refs));
        let cpu: Vec<&CellLog> = cells
            .iter()
            .zip(&logs)
            .filter(|(c, l)| c.algo == algo && c.target == Target::Cpu && l.cpu_runs > 0)
            .map(|(_, l)| l)
            .collect();
        if !cpu.is_empty() {
            // Mean per run, summed over the graphs: means add, so the
            // components still sum to the CPU GraphVM's elapsed time.
            for (i, (c, _)) in CPU_COMPONENTS.iter().enumerate() {
                let v: f64 = cpu
                    .iter()
                    .map(|l| l.cpu_ns[i] as f64 / l.cpu_runs as f64 / 1e6)
                    .sum();
                e.insert(format!("cpu.{c}_ms.{k}"), v);
            }
            let spec: u64 = cpu.iter().map(|l| l.kernel_specialized).sum();
            let fb: u64 = cpu.iter().map(|l| l.kernel_fallback).sum();
            e.insert(
                format!("cpu.kernel_hit.{k}"),
                spec as f64 / (spec + fb).max(1) as f64,
            );
        }
        for (target, tkey) in SIM_TARGETS {
            let cycles: Vec<f64> = cells
                .iter()
                .zip(&logs)
                .filter(|(c, _)| c.algo == algo && c.target == target)
                .filter_map(|(_, l)| l.cycles.map(|c| c as f64))
                .collect();
            if !cycles.is_empty() {
                e.insert(format!("sim.cycles.{tkey}.{k}"), geomean(&cycles));
            }
        }
    }
    if traced_run {
        let all_cycles: Vec<f64> = logs
            .iter()
            .filter_map(|l| l.cycles.map(|c| c as f64))
            .collect();
        if !all_cycles.is_empty() {
            e.insert("sim.cycles_geomean".into(), geomean(&all_cycles));
        }
        for (target, tkey) in SIM_TARGETS {
            let wall: f64 = cells
                .iter()
                .zip(&cell_ms)
                .filter(|(c, _)| c.target == target)
                .map(|(_, ms)| ms)
                .sum();
            if suite.targets.contains(&target) {
                e.insert(format!("sim.wall_s.{tkey}"), wall / 1e3);
            }
        }
        let traced_logs: Vec<&CellLog> =
            logs.iter().filter(|l| !l.frontend_ms.is_empty()).collect();
        // Compile cost per program: the mean over the suite's programs.
        let per_program = |f: &dyn Fn(&CellLog) -> f64| {
            mean(&traced_logs.iter().map(|l| f(l)).collect::<Vec<_>>())
        };
        e.insert(
            "compile.frontend_ms".into(),
            per_program(&|l| best(&l.frontend_ms)),
        );
        e.insert(
            "compile.midend_ms".into(),
            per_program(&|l| best(&l.midend_ms)),
        );
        e.insert("compile.ir_size".into(), per_program(&|l| l.ir_size as f64));
        let overhead: Vec<f64> = traced_logs
            .iter()
            .map(|l| best(&l.traced_run_ms) - best(&l.run_ms))
            .collect();
        e.insert("trace.overhead_ms".into(), mean(&overhead));
    }
    out
}

/// One untraced operation: a validated `Compiler::run`, timed without its
/// validation, then the sequential reference on the same input. The
/// ratio of their best times cancels the host's speed, which drifts by
/// tens of percent over minutes on a shared machine, while interleaved
/// runs of the two see the same quiet moments.
fn untraced_op(cell: &Cell, g: &Graph, log: &mut CellLog) -> Result<(), String> {
    let c = compiler_for(cell);
    let t0 = Instant::now();
    let r = c.run(cell.target, g).map_err(|e| e.to_string())?;
    let op_ms = ms(t0.elapsed());
    check(cell.algo, g, cell.source, &r)?;
    check_cycles(log, &r)?;
    let t1 = Instant::now();
    run_reference(cell.algo, g, cell.source);
    log.run_ms.push(op_ms);
    log.ref_ms.push(ms(t1.elapsed()));
    Ok(())
}

/// One traced operation: the same compile and execute, split at the layer
/// calls (`frontend_to_ir`, `run_passes`, `run_compiled`), then validation
/// and the sequential reference, each in its own span.
fn traced_op(cell: &Cell, g: &Graph, log: &mut CellLog, tracer: &mut Tracer) -> Result<(), String> {
    let c = compiler_for(cell);
    let op = tracer.fresh_id();
    let t0 = Instant::now();
    let root = tracer.fresh_id();
    let mut prog = tracer
        .span("frontend", op, Some(root), || {
            ugc_midend::frontend_to_ir(cell.algo.source())
        })
        .map_err(|e| e.message)?;
    let t1 = Instant::now();
    tracer
        .span("midend", op, Some(root), || {
            ugc_midend::run_passes(&mut prog)
        })
        .map_err(|e| e.message)?;
    let t2 = Instant::now();
    log.ir_size = ugc_midend::ir_size(&prog);
    let collector = Collector::start();
    let r = tracer
        .span("exec", op, Some(root), || {
            c.run_compiled(cell.target, prog, g)
        })
        .map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let delta = collector.snapshot();
    let checked = tracer.span("validate", op, Some(root), || {
        check(cell.algo, g, cell.source, &r)
    });
    let t4 = Instant::now();
    tracer.span("reference", op, Some(root), || {
        run_reference(cell.algo, g, cell.source)
    });
    let t5 = Instant::now();
    tracer.record_with_id(root, "op", op, None, t0, t5);
    checked?;
    check_cycles(log, &r)?;
    log.frontend_ms.push(ms(t1 - t0));
    log.midend_ms.push(ms(t2 - t1));
    log.exec_ms.push(ms(t3 - t2));
    log.ref_ms.push(ms(t5 - t4));
    log.traced_run_ms.push(ms(t3 - t0));
    if cell.target == Target::Cpu {
        let parts: Vec<u64> = CPU_COMPONENTS
            .iter()
            .map(|(_, key)| delta.value(key))
            .collect();
        let elapsed = delta.value("cpu.elapsed.ns");
        if parts.iter().sum::<u64>() != elapsed {
            return Err(format!(
                "CPU attribution components {parts:?} do not sum to cpu.elapsed {elapsed} ns"
            ));
        }
        for (acc, p) in log.cpu_ns.iter_mut().zip(parts) {
            *acc += p;
        }
        log.cpu_runs += 1;
        log.kernel_specialized += delta.value("cpu.kernel.specialized");
        log.kernel_fallback += delta.value("cpu.kernel.fallback");
    }
    Ok(())
}

/// A run must not have degraded to a fallback executor, and simulated
/// cycles must repeat exactly from round to round.
fn check_cycles(log: &mut CellLog, r: &RunResult) -> Result<(), String> {
    if let Some(d) = &r.degraded_to {
        return Err(format!("degraded to {d}"));
    }
    if r.cycles == 0 {
        return Ok(());
    }
    match log.cycles {
        Some(c) if c != r.cycles => Err(format!(
            "simulated cycles changed between rounds: {c} then {}",
            r.cycles
        )),
        _ => {
            log.cycles = Some(r.cycles);
            Ok(())
        }
    }
}
