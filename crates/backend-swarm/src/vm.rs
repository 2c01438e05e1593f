//! The Swarm GraphVM entry point.

use std::time::Duration;

use ugc_runtime::GraphVm;
use ugc_sim_swarm::{SwarmConfig, SwarmSim, SwarmStats};

use crate::executor::SwarmExecutor;

/// The Swarm GraphVM: runs GraphIR on the speculative-task simulator.
#[derive(Debug, Clone, Default)]
pub struct SwarmGraphVm {
    /// Simulated machine configuration.
    pub config: SwarmConfig,
}

impl SwarmGraphVm {
    /// A VM over the given machine configuration.
    pub fn new(config: SwarmConfig) -> Self {
        SwarmGraphVm { config }
    }

    /// A VM with `n` cores (queues scale with the core count).
    pub fn with_cores(n: usize) -> Self {
        SwarmGraphVm {
            config: SwarmConfig::default().with_cores(n),
        }
    }
}

impl GraphVm for SwarmGraphVm {
    type Executor = SwarmExecutor;
    /// Task/abort/idle statistics (Fig. 11's categories).
    type Stats = SwarmStats;

    fn executor(&self) -> SwarmExecutor {
        SwarmExecutor::new(SwarmSim::new(self.config.clone()))
    }

    fn finish(&self, exec: SwarmExecutor, _wall: Duration) -> (f64, u64, SwarmStats) {
        (exec.sim.time_ms(), exec.sim.time_cycles(), exec.sim.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Frontiers, SwarmSchedule, TaskGranularity};
    use std::collections::HashMap;
    use ugc_runtime::value::Value;
    use ugc_schedule::{apply_schedule, ScheduleRef};

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

    fn run_bfs(sched: Option<SwarmSchedule>) -> (Vec<i64>, u64, SwarmStats) {
        let mut prog = ugc_midend::frontend_to_ir(BFS).unwrap();
        if let Some(s) = sched {
            apply_schedule(&mut prog, "s0:s1", ScheduleRef::simple(s)).unwrap();
        }
        ugc_midend::run_passes(&mut prog).unwrap();
        let graph = ugc_graph::generators::road_grid(12, 12, 0.05, 5, true);
        let mut externs = HashMap::new();
        externs.insert("start_vertex".to_string(), Value::Int(0));
        let vm = SwarmGraphVm::default();
        let run = vm.execute(prog, &graph, &externs).unwrap();
        (run.property_ints("parent"), run.cycles, run.stats)
    }

    #[test]
    fn bfs_buffered_baseline_correct() {
        let (parents, cycles, stats) = run_bfs(None);
        assert!(parents.iter().all(|&p| p != -1));
        assert!(cycles > 0);
        assert!(stats.commits > 0);
    }

    #[test]
    fn vertexset_to_tasks_correct_and_faster_on_road_graph() {
        let (p_base, c_base, _) = run_bfs(Some(SwarmSchedule::new()));
        let (p_opt, c_opt, stats) = run_bfs(Some(
            SwarmSchedule::new().with_frontiers(Frontiers::VertexsetToTasks),
        ));
        assert_eq!(
            p_base.iter().filter(|&&p| p != -1).count(),
            p_opt.iter().filter(|&&p| p != -1).count()
        );
        assert!(stats.commits > 0);
        assert!(
            c_opt < c_base,
            "tasks {c_opt} should beat buffered {c_base} on a road graph"
        );
    }

    #[test]
    fn fine_grained_with_hints_correct() {
        let (parents, _, _) = run_bfs(Some(
            SwarmSchedule::new()
                .with_frontiers(Frontiers::VertexsetToTasks)
                .with_task_granularity(TaskGranularity::FineGrained),
        ));
        assert!(parents.iter().all(|&p| p != -1));
    }
}
