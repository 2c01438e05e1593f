//! Regenerates Fig. 10: BFS strong scaling on the HammerBlade manycore
//! (32→256 cores) and on Swarm (1→64 cores).
//!
//! Runs on the in-tree timing harness (warmup + median-of-N + one JSON
//! line per core count on stdout).

use std::time::Duration;

use ugc::{Algorithm, Compiler, Target};
use ugc_backend_hb::HbGraphVm;
use ugc_backend_swarm::SwarmGraphVm;
use ugc_bench::{tuned_schedule_for, Harness};
use ugc_graph::{Dataset, Scale};
use ugc_runtime::GraphVm;

fn externs() -> std::collections::HashMap<String, ugc_runtime::value::Value> {
    let mut m = std::collections::HashMap::new();
    m.insert(
        "start_vertex".to_string(),
        ugc_runtime::value::Value::Int(0),
    );
    m
}

fn fig10a(h: &Harness) {
    let dataset = Dataset::RoadCentral;
    let graph = dataset.generate(Scale::Tiny);
    for rows in [2usize, 4, 8, 16] {
        h.bench(
            "fig10a/hammerblade_bfs",
            &format!("{}cores", rows * 16),
            || {
                let mut comp = Compiler::new(Algorithm::Bfs);
                comp.start_vertex(0).schedule(
                    Algorithm::Bfs.schedule_path(),
                    tuned_schedule_for(Target::HammerBlade, Algorithm::Bfs, &graph),
                );
                let prog = comp.compile().expect("compiles");
                let run = HbGraphVm::with_rows(rows)
                    .execute(prog, &graph, &externs())
                    .expect("runs");
                Duration::from_nanos(run.cycles)
            },
        );
    }
}

fn fig10b(h: &Harness) {
    let dataset = Dataset::RoadCentral;
    let graph = dataset.generate(Scale::Tiny);
    for cores in [1usize, 4, 16, 64] {
        h.bench("fig10b/swarm_bfs", &format!("{cores}cores"), || {
            let mut comp = Compiler::new(Algorithm::Bfs);
            comp.start_vertex(0).schedule(
                Algorithm::Bfs.schedule_path(),
                tuned_schedule_for(Target::Swarm, Algorithm::Bfs, &graph),
            );
            let prog = comp.compile().expect("compiles");
            let run = SwarmGraphVm::with_cores(cores)
                .execute(prog, &graph, &externs())
                .expect("runs");
            Duration::from_nanos(run.cycles)
        });
    }
}

fn main() {
    let h = Harness::from_args();
    fig10a(&h);
    fig10b(&h);
}
