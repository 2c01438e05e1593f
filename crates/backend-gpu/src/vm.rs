//! The GPU GraphVM entry point.

use std::time::Duration;

use ugc_graphir::ir::Program;
use ugc_runtime::GraphVm;
use ugc_sim_gpu::{GpuConfig, GpuSim, GpuStats};

use crate::executor::GpuExecutor;

/// The GPU GraphVM: runs GraphIR on the SIMT timing simulator.
#[derive(Debug, Clone, Default)]
pub struct GpuGraphVm {
    /// Simulated device configuration.
    pub config: GpuConfig,
}

impl GpuGraphVm {
    /// A VM over the given device configuration.
    pub fn new(config: GpuConfig) -> Self {
        GpuGraphVm { config }
    }
}

impl GraphVm for GpuGraphVm {
    type Executor = GpuExecutor;
    type Stats = GpuStats;

    /// The GPU GraphVM's hardware-specific passes (kernel fusion marking).
    fn prepare(&self, prog: &mut Program) {
        crate::passes::run(prog);
    }

    fn executor(&self) -> GpuExecutor {
        GpuExecutor::new(GpuSim::new(self.config.clone()))
    }

    fn finish(&self, exec: GpuExecutor, _wall: Duration) -> (f64, u64, GpuStats) {
        (exec.sim.time_ms(), exec.sim.time_cycles(), exec.sim.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::GpuSchedule;
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

    fn run_bfs(sched: Option<GpuSchedule>) -> (Vec<i64>, u64, GpuStats) {
        let mut prog = ugc_midend::frontend_to_ir(BFS).unwrap();
        if let Some(s) = sched {
            apply_schedule(&mut prog, "s0:s1", ScheduleRef::simple(s)).unwrap();
        }
        ugc_midend::run_passes(&mut prog).unwrap();
        let graph = ugc_graph::generators::two_communities();
        let mut externs = HashMap::new();
        externs.insert("start_vertex".to_string(), Value::Int(0));
        let vm = GpuGraphVm::default();
        let run = vm.execute(prog, &graph, &externs).unwrap();
        (run.property_ints("parent"), run.cycles, run.stats)
    }

    #[test]
    fn bfs_default_runs_correctly() {
        let (parents, cycles, stats) = run_bfs(None);
        assert!(parents.iter().all(|&p| p != -1));
        assert!(cycles > 0);
        assert!(stats.kernels > 0);
    }

    #[test]
    fn kernel_fusion_reduces_launches() {
        let (_, cycles_unfused, stats_unfused) = run_bfs(Some(GpuSchedule::new()));
        let (parents, cycles_fused, stats_fused) =
            run_bfs(Some(GpuSchedule::new().with_kernel_fusion(true)));
        assert!(parents.iter().all(|&p| p != -1));
        assert!(
            stats_fused.kernels < stats_unfused.kernels,
            "fused {} vs unfused {}",
            stats_fused.kernels,
            stats_unfused.kernels
        );
        assert!(stats_fused.grid_syncs > 0);
        // On this tiny high-round graph, fusion must win.
        assert!(cycles_fused < cycles_unfused);
    }
}
