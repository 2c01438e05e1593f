//! Microbenchmark: persistent-pool parallel-for dispatch latency across
//! frontier sizes.
//!
//! Every CPU operator pays one parallel-for dispatch per traversal
//! iteration, so dispatch latency is pure overhead on small and medium
//! frontiers — exactly where BFS/SSSP spend most of their rounds. The
//! `pool` rows time the persistent work-stealing pool; the `serial` rows
//! run the same trivial body inline, so the delta is dispatch cost alone.
//!
//! Thread count is `default_threads().max(4)` — forced above 1 so the
//! measurement is meaningful on single-core CI boxes too (the pool grows
//! on demand; `UGC_THREADS` still caps it, so skip this bench under
//! `UGC_THREADS=1`).

use std::hint::black_box;
use std::time::Instant;

use ugc_bench::harness::Harness;
use ugc_runtime::pool;

/// Frontier sizes: tiny tail rounds up through a scan-sized range.
const SIZES: [usize; 6] = [64, 256, 1024, 8192, 65536, 1 << 20];
/// Chunk hint matching the CPU executor's vertex-based push path.
const CHUNK: usize = 64;

fn main() {
    let h = Harness::from_args();
    let threads = pool::default_threads().max(4);
    // Inner repetitions per timed sample, scaled down for big frontiers.
    let reps_for = |total: usize| (1 << 14) / total.max(64).min(1 << 14);

    for total in SIZES {
        let reps = reps_for(total).max(1) as u32;
        let group = format!("pool_dispatch/n={total}");
        h.bench(&group, "pool", || {
            let t0 = Instant::now();
            for _ in 0..reps {
                let locals = pool::parallel_for_with_local::<u64, _>(
                    threads,
                    total,
                    CHUNK,
                    |_tid, range, local| {
                        *local += black_box(range.len() as u64);
                    },
                );
                black_box(locals);
            }
            t0.elapsed() / reps
        });
    }

    // A serial reference for scale: what the same body costs with no
    // dispatch at all (thread count 1 short-circuits inline).
    for total in [64usize, 8192] {
        let reps = reps_for(total).max(1) as u32;
        h.bench(&format!("pool_dispatch/n={total}"), "serial", || {
            let t0 = Instant::now();
            for _ in 0..reps {
                let locals = pool::parallel_for_with_local::<u64, _>(
                    1,
                    total,
                    CHUNK,
                    |_tid, range, local| {
                        *local += black_box(range.len() as u64);
                    },
                );
                black_box(locals);
            }
            t0.elapsed() / reps
        });
    }

    let t = pool::telemetry();
    eprintln!(
        "pool telemetry: workers_spawned={} jobs={} serial_runs={} chunks={} steals={} parks={}",
        t.workers_spawned, t.jobs, t.serial_runs, t.chunks, t.steals, t.parks
    );
}
