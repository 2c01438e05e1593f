//! CPU GraphVM correctness: every algorithm × every test graph × the CPU
//! scheduling space, validated against the sequential references.

use ugc_algorithms::Algorithm;
use ugc_backend_cpu::{CpuGraphVm, CpuSchedule};
use ugc_integration::{compile, externs_for, test_graphs, validate};
use ugc_runtime::GraphVm;
use ugc_schedule::{
    CompositeCriteria, CompositeSchedule, Parallelization, SchedDirection, ScheduleRef,
};

fn run_and_validate(algo: Algorithm, sched: Option<ScheduleRef>) {
    for (gname, graph) in test_graphs() {
        let prog = compile(algo, sched.clone());
        let vm = CpuGraphVm::default();
        let run = vm
            .execute(prog, &graph, &externs_for(algo, 0))
            .unwrap_or_else(|e| panic!("{} on {gname}: {e}", algo.name()));
        validate(algo, &graph, 0, &|p| run.property_ints(p), &|p| {
            run.property_floats(p)
        });
    }
}

#[test]
fn bfs_default_schedule() {
    run_and_validate(Algorithm::Bfs, None);
}

#[test]
fn bfs_pull() {
    run_and_validate(
        Algorithm::Bfs,
        Some(ScheduleRef::simple(
            CpuSchedule::new().with_direction(SchedDirection::Pull),
        )),
    );
}

#[test]
fn bfs_hybrid() {
    run_and_validate(
        Algorithm::Bfs,
        Some(ScheduleRef::simple(
            CpuSchedule::new().with_direction(SchedDirection::Hybrid),
        )),
    );
}

#[test]
fn bfs_composite_schedule() {
    let comp = CompositeSchedule::new(
        CompositeCriteria::InputSetSize { threshold: 0.15 },
        ScheduleRef::simple(CpuSchedule::new()),
        ScheduleRef::simple(CpuSchedule::new().with_direction(SchedDirection::Pull)),
    );
    run_and_validate(Algorithm::Bfs, Some(ScheduleRef::composite(comp)));
}

#[test]
fn bfs_edge_aware_parallel() {
    run_and_validate(
        Algorithm::Bfs,
        Some(ScheduleRef::simple(
            CpuSchedule::new()
                .with_parallelization(Parallelization::EdgeAwareVertexBased)
                .with_serial_threshold(0),
        )),
    );
}

#[test]
fn pagerank_default() {
    run_and_validate(Algorithm::PageRank, None);
}

#[test]
fn pagerank_cache_blocked() {
    run_and_validate(
        Algorithm::PageRank,
        Some(ScheduleRef::simple(
            CpuSchedule::new().with_cache_blocking(true),
        )),
    );
}

#[test]
fn pagerank_pull() {
    // All-edges pull iterates in-edges of every dst; equivalent totals.
    run_and_validate(
        Algorithm::PageRank,
        Some(ScheduleRef::simple(
            CpuSchedule::new().with_direction(SchedDirection::Pull),
        )),
    );
}

#[test]
fn cc_default() {
    run_and_validate(Algorithm::Cc, None);
}

#[test]
fn cc_edge_aware() {
    run_and_validate(
        Algorithm::Cc,
        Some(ScheduleRef::simple(
            CpuSchedule::new()
                .with_parallelization(Parallelization::EdgeAwareVertexBased)
                .with_serial_threshold(0),
        )),
    );
}

#[test]
fn sssp_default_delta_1() {
    run_and_validate(Algorithm::Sssp, None);
}

#[test]
fn sssp_delta_8() {
    run_and_validate(
        Algorithm::Sssp,
        Some(ScheduleRef::simple(CpuSchedule::new().with_delta(8))),
    );
}

#[test]
fn sssp_delta_64() {
    run_and_validate(
        Algorithm::Sssp,
        Some(ScheduleRef::simple(CpuSchedule::new().with_delta(64))),
    );
}

#[test]
fn bc_default() {
    run_and_validate(Algorithm::Bc, None);
}

#[test]
fn bc_from_various_sources() {
    let graph = ugc_graph::generators::two_communities();
    for start in 0..8u32 {
        let prog = compile(Algorithm::Bc, None);
        let run = CpuGraphVm::default()
            .execute(prog, &graph, &externs_for(Algorithm::Bc, start))
            .unwrap();
        validate(
            Algorithm::Bc,
            &graph,
            start,
            &|p| run.property_ints(p),
            &|p| run.property_floats(p),
        );
    }
}

#[test]
fn bfs_from_various_sources() {
    let graph = ugc_graph::generators::road_grid(12, 12, 0.1, 2, false);
    for start in [0u32, 7, 77, 143] {
        let prog = compile(Algorithm::Bfs, None);
        let run = CpuGraphVm::default()
            .execute(prog, &graph, &externs_for(Algorithm::Bfs, start))
            .unwrap();
        validate(
            Algorithm::Bfs,
            &graph,
            start,
            &|p| run.property_ints(p),
            &|p| run.property_floats(p),
        );
    }
}

#[test]
fn single_thread_matches_parallel() {
    let graph = ugc_graph::generators::rmat(8, 4, 9, true);
    let p1 = compile(Algorithm::Sssp, None);
    let p2 = compile(Algorithm::Sssp, None);
    let r1 = CpuGraphVm::with_threads(1)
        .execute(p1, &graph, &externs_for(Algorithm::Sssp, 0))
        .unwrap();
    let r2 = CpuGraphVm::with_threads(8)
        .execute(p2, &graph, &externs_for(Algorithm::Sssp, 0))
        .unwrap();
    assert_eq!(r1.property_ints("dist"), r2.property_ints("dist"));
}
