//! The schedule-space matrix: a broad sweep of schedule combinations per
//! backend, all validated. This is the paper's central claim — the
//! algorithm never changes, only schedules do, and every point in the
//! space is correct.

use ugc_algorithms::Algorithm;
use ugc_backend_cpu::{CpuGraphVm, CpuSchedule};
use ugc_backend_gpu::{FrontierCreation, GpuGraphVm, GpuSchedule, LoadBalance};
use ugc_backend_hb::{HbGraphVm, HbLoadBalance, HbSchedule};
use ugc_backend_swarm::{Frontiers, SwarmGraphVm, SwarmSchedule, TaskGranularity};
use ugc_integration::{compile, externs_for, validate};
use ugc_runtime::GraphVm;
use ugc_schedule::{Parallelization, PullFrontierRepr, SchedDirection, ScheduleRef};

fn graph() -> ugc_graph::Graph {
    ugc_graph::generators::rmat(8, 5, 13, true)
}

#[test]
fn cpu_schedule_matrix() {
    let graph = graph();
    for dir in [
        SchedDirection::Push,
        SchedDirection::Pull,
        SchedDirection::Hybrid,
    ] {
        for par in [
            Parallelization::VertexBased,
            Parallelization::EdgeAwareVertexBased,
        ] {
            for pf in [PullFrontierRepr::Boolmap, PullFrontierRepr::Bitmap] {
                for dedup in [false, true] {
                    let sched = CpuSchedule::new()
                        .with_direction(dir)
                        .with_parallelization(par)
                        .with_pull_frontier(pf)
                        .with_deduplication(dedup)
                        .with_serial_threshold(8);
                    let prog = compile(Algorithm::Bfs, Some(ScheduleRef::simple(sched)));
                    let run = CpuGraphVm::with_threads(4)
                        .execute(prog, &graph, &externs_for(Algorithm::Bfs, 0))
                        .unwrap_or_else(|e| panic!("{dir:?}/{par:?}/{pf:?}/{dedup}: {e}"));
                    validate(Algorithm::Bfs, &graph, 0, &|p| run.property_ints(p), &|p| {
                        run.property_floats(p)
                    });
                }
            }
        }
    }
}

#[test]
fn gpu_schedule_matrix() {
    let graph = graph();
    for lb in LoadBalance::ALL {
        for fc in [
            FrontierCreation::Fused,
            FrontierCreation::UnfusedBoolmap,
            FrontierCreation::UnfusedBitmap,
        ] {
            for fusion in [false, true] {
                let sched = GpuSchedule::new()
                    .with_load_balance(lb)
                    .with_frontier_creation(fc)
                    .with_kernel_fusion(fusion);
                let prog = compile(Algorithm::Cc, Some(ScheduleRef::simple(sched)));
                let run = GpuGraphVm::default()
                    .execute(prog, &graph, &externs_for(Algorithm::Cc, 0))
                    .unwrap_or_else(|e| panic!("{lb:?}/{fc:?}/{fusion}: {e}"));
                validate(Algorithm::Cc, &graph, 0, &|p| run.property_ints(p), &|p| {
                    run.property_floats(p)
                });
            }
        }
    }
}

#[test]
fn swarm_schedule_matrix() {
    let graph = graph();
    for frontiers in [Frontiers::Buffered, Frontiers::VertexsetToTasks] {
        for gran in [TaskGranularity::Coarse, TaskGranularity::FineGrained] {
            for hints in [false, true] {
                for delta in [1, 8] {
                    let sched = SwarmSchedule::new()
                        .with_frontiers(frontiers)
                        .with_task_granularity(gran)
                        .with_spatial_hints(hints)
                        .with_delta(delta);
                    let prog = compile(Algorithm::Sssp, Some(ScheduleRef::simple(sched)));
                    let run = SwarmGraphVm::default()
                        .execute(prog, &graph, &externs_for(Algorithm::Sssp, 0))
                        .unwrap_or_else(|e| panic!("{frontiers:?}/{gran:?}/{hints}/{delta}: {e}"));
                    validate(
                        Algorithm::Sssp,
                        &graph,
                        0,
                        &|p| run.property_ints(p),
                        &|p| run.property_floats(p),
                    );
                }
            }
        }
    }
}

#[test]
fn hb_schedule_matrix() {
    let graph = graph();
    for lb in [
        HbLoadBalance::VertexBased,
        HbLoadBalance::EdgeBased,
        HbLoadBalance::Aligned,
    ] {
        for blocked in [false, true] {
            for block in [16, 64, 256] {
                let sched = HbSchedule::new()
                    .with_load_balance(lb)
                    .with_blocked_access(blocked)
                    .with_block_size(block);
                let prog = compile(Algorithm::PageRank, Some(ScheduleRef::simple(sched)));
                let run = HbGraphVm::default()
                    .execute(prog, &graph, &externs_for(Algorithm::PageRank, 0))
                    .unwrap_or_else(|e| panic!("{lb:?}/{blocked}/{block}: {e}"));
                validate(
                    Algorithm::PageRank,
                    &graph,
                    0,
                    &|p| run.property_ints(p),
                    &|p| run.property_floats(p),
                );
            }
        }
    }
}

#[test]
fn composite_schedules_on_every_backend() {
    use ugc_schedule::{CompositeCriteria, CompositeSchedule};
    let graph = graph();
    // Push-when-sparse / pull-when-dense composite, per backend's types.
    let cases: Vec<(&str, ScheduleRef)> = vec![
        (
            "cpu",
            ScheduleRef::composite(CompositeSchedule::new(
                CompositeCriteria::InputSetSize { threshold: 0.2 },
                ScheduleRef::simple(CpuSchedule::new()),
                ScheduleRef::simple(CpuSchedule::new().with_direction(SchedDirection::Pull)),
            )),
        ),
        (
            "gpu",
            ScheduleRef::composite(CompositeSchedule::new(
                CompositeCriteria::InputSetSize { threshold: 0.2 },
                ScheduleRef::simple(GpuSchedule::new()),
                ScheduleRef::simple(GpuSchedule::new().with_direction(SchedDirection::Pull)),
            )),
        ),
        (
            "hb",
            ScheduleRef::composite(CompositeSchedule::new(
                CompositeCriteria::InputSetSize { threshold: 0.2 },
                ScheduleRef::simple(HbSchedule::new()),
                ScheduleRef::simple(HbSchedule::new().with_direction(SchedDirection::Pull)),
            )),
        ),
    ];
    for (name, sched) in cases {
        let prog = compile(Algorithm::Bfs, Some(sched));
        let parents = match name {
            "cpu" => {
                let run = CpuGraphVm::default()
                    .execute(prog, &graph, &externs_for(Algorithm::Bfs, 0))
                    .unwrap();
                run.property_ints("parent")
            }
            "gpu" => {
                let run = GpuGraphVm::default()
                    .execute(prog, &graph, &externs_for(Algorithm::Bfs, 0))
                    .unwrap();
                run.property_ints("parent")
            }
            _ => {
                let run = HbGraphVm::default()
                    .execute(prog, &graph, &externs_for(Algorithm::Bfs, 0))
                    .unwrap();
                run.property_ints("parent")
            }
        };
        ugc_algorithms::validate::check_bfs_parents(&graph, 0, &parents)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
