//! The CPU GraphVM entry point.

use std::time::Duration;

use ugc_runtime::GraphVm;

use crate::executor::{CpuAttribution, CpuExecutor};

/// The CPU GraphVM: executes midend-processed GraphIR on host threads.
#[derive(Debug, Clone, Default)]
pub struct CpuGraphVm {
    /// Operator executor (thread count lives here).
    pub executor: CpuExecutor,
}

/// What one CPU run reports besides its wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Where the wall time went; components sum to `attr.total()`.
    /// All zeros when telemetry is disabled.
    pub attr: CpuAttribution,
    /// Exact wall-clock nanoseconds of `main` (excludes state setup).
    pub elapsed_ns: u64,
}

impl CpuGraphVm {
    /// A VM with `num_threads` workers.
    pub fn with_threads(num_threads: usize) -> Self {
        CpuGraphVm {
            executor: CpuExecutor::with_threads(num_threads),
        }
    }

    /// Enables or disables compiled edge kernels for this VM's runs
    /// (overriding the `UGC_CPU_KERNELS` process default). With kernels
    /// off every traversal goes through the interpreter — the
    /// differential oracle the kernel library is tested against.
    pub fn with_kernels(mut self, on: bool) -> Self {
        self.executor.use_kernels = on;
        self
    }
}

impl GraphVm for CpuGraphVm {
    type Executor = CpuExecutor;
    type Stats = CpuStats;

    fn executor(&self) -> CpuExecutor {
        self.executor.clone()
    }

    fn finish(&self, mut exec: CpuExecutor, wall: Duration) -> (f64, u64, CpuStats) {
        let elapsed_ns = wall.as_nanos() as u64;
        let attr = exec.finish_run(elapsed_ns);
        (wall.as_secs_f64() * 1e3, 0, CpuStats { attr, elapsed_ns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn vm_runs_and_times() {
        let src = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex) = load("g");
const x : vector{Vertex}(int) = 7;
func main()
    print 42;
end
"#;
        let prog = ugc_midend::frontend_to_ir(src).unwrap();
        let graph = ugc_graph::generators::path(3);
        let vm = CpuGraphVm::with_threads(2);
        let run = vm.execute(prog, &graph, &HashMap::new()).unwrap();
        assert_eq!(run.state.prints, vec!["42"]);
        assert_eq!(run.property_ints("x"), vec![7, 7, 7]);
    }

    #[test]
    fn attribution_components_sum_to_total_time() {
        let src = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex) = load("g");
const vertices : vertexset{Vertex} = edges.getVertices();
const parent : vector{Vertex}(int) = -1;
func toFilter(v : Vertex) -> output : bool
    output = (parent[v] == -1);
end
func updateEdge(src : Vertex, dst : Vertex)
    parent[dst] = src;
end
func reset(v : Vertex)
    parent[v] = -1;
end
func main()
    vertices.apply(reset);
    var frontier : vertexset{Vertex} = new vertexset{Vertex}(0);
    frontier.addVertex(0);
    parent[0] = 0;
    while (frontier.getVertexSetSize() != 0)
        var output : vertexset{Vertex} = edges.from(frontier).to(toFilter).applyModified(updateEdge, parent, true);
        delete frontier;
        frontier = output;
    end
end
"#;
        let mut prog = ugc_midend::frontend_to_ir(src).unwrap();
        ugc_midend::run_passes(&mut prog).unwrap();
        let graph = ugc_graph::generators::uniform_random(256, 1024, 7, false);
        let vm = CpuGraphVm::with_threads(2);
        let run = vm.execute(prog, &graph, &HashMap::new()).unwrap();
        if ugc_telemetry::enabled() {
            // Components sum exactly to the attributed total, which covers
            // the whole elapsed window.
            let attr = run.stats.attr;
            assert_eq!(
                attr.components().iter().map(|(_, v)| v).sum::<u64>(),
                attr.total()
            );
            assert!(attr.total() >= run.stats.elapsed_ns);
            assert!(attr.edge_push + attr.edge_pull > 0);
            assert!(attr.vertex_apply > 0);
        } else {
            assert_eq!(run.stats.attr, CpuAttribution::default());
        }
    }
}
