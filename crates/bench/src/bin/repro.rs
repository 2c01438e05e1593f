//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p ugc-bench --bin repro -- [--scale tiny|small] <what>
//! ```
//!
//! `<what>` is one of: `fig8 fig9 fig10a fig10b fig11 fig12 table3 table8
//! table9 table10 configs all`, or the autotuner:
//!
//! ```sh
//! repro -- [--scale S] [--seed N] [--budget N] [--no-cache] \
//!     tune <cpu|gpu|swarm|hb> <pr|bfs|sssp|cc|bc> <RN|..|SW>
//! ```

use std::collections::BTreeMap;

use ugc::{Algorithm, Compiler, Target};
use ugc_backend_hb::HbGraphVm;
use ugc_backend_swarm::SwarmGraphVm;
use ugc_baselines::gpu_frameworks::{run_framework, Framework};
use ugc_baselines::swarm_hand;
use ugc_bench::{
    baseline_schedule, fig8_cell, measure, parse_algo, parse_dataset, parse_profile, parse_scale,
    parse_target, profile_backend, tune_dataset, tuned_schedule, Tuned, Tuner,
};
use ugc_graph::{Dataset, Scale};
use ugc_runtime::GraphVm;
use ugc_sim_gpu::GpuConfig;
use ugc_sim_swarm::SwarmConfig;

const USAGE: &str = "usage: repro [--scale tiny|small|medium] [--seed N] [--budget N] [--no-cache] \
                     <fig8|fig9|fig10a|fig10b|fig11|fig12|table3|table8|table9|table10|configs|chaos|chaos-serve|all> \
                     | tune [--explain] <cpu|gpu|swarm|hb> <pr|bfs|sssp|cc|bc|tc|kcore|lp> <dataset> \
                     | run [--k N] [--max-iters N] <cpu|gpu|swarm|hb> <algo> <dataset> \
                     | --profile <cpu|gpu|swarm|hb|all|serve> \
                     | serve [--port N | --socket PATH] [--admit N] [--queue N] [--batch-max N] \
                     [--batch-window-ms N] [--drain-ms N] [--deadline-ms N] \
                     | client <unix:PATH|HOST:PORT> <request words...>\n\
                     env: UGC_FAULTS=<gpu|swarm|hb|serve>:<kind>:p=<prob>:seed=<N>[,...] \
                     UGC_BUDGET_MS=<N> UGC_BUDGET_CYCLES=<N> UGC_FALLBACK=<cpu,seq,...|none> \
                     UGC_CACHE_BYTES=<bytes>";

fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Rejects malformed supervisor environment variables up front (exit 2)
/// instead of letting every experiment fail identically mid-run.
fn validate_supervisor_env() {
    if let Ok(v) = std::env::var("UGC_FAULTS") {
        if !v.trim().is_empty() {
            if let Err(e) = ugc_resilience::fault::parse_faults(&v) {
                usage_error(&format!("UGC_FAULTS: {e}"));
            }
        }
    }
    if let Err(e) = ugc::Policy::from_env() {
        usage_error(&e);
    }
}

fn main() {
    validate_supervisor_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `serve` and `client` own the rest of the argument list (their flags
    // are not the experiment flags below).
    match args.first().map(String::as_str) {
        Some("serve") => return serve_cmd(&args[1..]),
        Some("client") => return client_cmd(&args[1..]),
        _ => {}
    }
    let mut scale = Scale::Tiny;
    let mut tuner = Tuner::default();
    let mut use_cache = true;
    let mut explain = false;
    let mut profile_targets: Option<Vec<Target>> = None;
    let mut profile_serve_flag = false;
    let mut kcore_k: Option<i64> = None;
    let mut lp_max_iters: Option<i64> = None;
    let mut what = Vec::new();
    let mut i = 0;
    let flag_value = |args: &[String], i: usize| -> String {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage_error(&format!("flag `{}` needs a value", args[i])))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = parse_scale(&flag_value(&args, i)).unwrap_or_else(|e| usage_error(&e));
                i += 2;
            }
            "--seed" => {
                tuner.seed = flag_value(&args, i)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed expects an integer"));
                i += 2;
            }
            "--budget" => {
                tuner.budget = flag_value(&args, i)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--budget expects an integer"));
                i += 2;
            }
            "--no-cache" => {
                use_cache = false;
                i += 1;
            }
            "--k" => {
                let v: i64 = flag_value(&args, i)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--k expects an integer"));
                if v < 1 {
                    usage_error(&format!("--k must be a positive integer, got {v}"));
                }
                kcore_k = Some(v);
                i += 2;
            }
            "--max-iters" => {
                let v: i64 = flag_value(&args, i)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--max-iters expects an integer"));
                if v < 1 {
                    usage_error(&format!("--max-iters must be at least 1, got {v}"));
                }
                lp_max_iters = Some(v);
                i += 2;
            }
            "--explain" => {
                explain = true;
                i += 1;
            }
            "--profile" => {
                let v = flag_value(&args, i);
                if v == "serve" {
                    profile_serve_flag = true;
                } else {
                    profile_targets = Some(parse_profile(&v).unwrap_or_else(|e| usage_error(&e)));
                }
                i += 2;
            }
            _ => {
                what.push(args[i].clone());
                i += 1;
            }
        }
    }
    if profile_serve_flag {
        if !what.is_empty() || profile_targets.is_some() {
            usage_error("--profile serve runs on its own; drop the other words");
        }
        profile_serve(scale);
        return;
    }
    if let Some(targets) = profile_targets {
        if !what.is_empty() {
            usage_error("--profile runs on its own; drop the experiment/tune words");
        }
        profile(&targets, scale);
        return;
    }
    if what.is_empty() {
        what.push("all".to_string());
    }
    if explain && !what.iter().any(|w| w == "tune") {
        usage_error("--explain only applies to `tune`");
    }
    let mut w = 0;
    while w < what.len() {
        match what[w].as_str() {
            "fig8" => fig8(scale),
            "fig9" => fig9(scale),
            "fig10a" => fig10a(scale),
            "fig10b" => fig10b(scale),
            "fig11" => fig11(scale),
            "fig12" => fig12(scale),
            "table3" => table3(),
            "table8" => table8(scale),
            "table9" => table9(scale),
            "table10" => table10(scale),
            "configs" => configs(),
            "chaos" => chaos(scale),
            "chaos-serve" => chaos_serve(scale),
            "tune" => {
                // `tune` consumes the next three words.
                if what.len() - w < 4 {
                    usage_error("tune needs <target> <algo> <dataset>");
                }
                let target = parse_target(&what[w + 1]).unwrap_or_else(|e| usage_error(&e));
                let algo = parse_algo(&what[w + 2]).unwrap_or_else(|e| usage_error(&e));
                let dataset = parse_dataset(&what[w + 3]).unwrap_or_else(|e| usage_error(&e));
                tune(target, algo, dataset, scale, &tuner, use_cache, explain);
                w += 3;
            }
            "run" => {
                // `run` consumes the next three words.
                if what.len() - w < 4 {
                    usage_error("run needs <target> <algo> <dataset>");
                }
                let target = parse_target(&what[w + 1]).unwrap_or_else(|e| usage_error(&e));
                let algo = parse_algo(&what[w + 2]).unwrap_or_else(|e| usage_error(&e));
                let dataset = parse_dataset(&what[w + 3]).unwrap_or_else(|e| usage_error(&e));
                if kcore_k.is_some() && algo != Algorithm::KCore {
                    usage_error("--k only applies to kcore");
                }
                if lp_max_iters.is_some() && algo != Algorithm::Lp {
                    usage_error("--max-iters only applies to lp");
                }
                run_one(target, algo, dataset, scale, kcore_k, lp_max_iters);
                w += 3;
            }
            "all" => {
                configs();
                table8(scale);
                table3();
                fig8(scale);
                fig9(scale);
                fig10a(scale);
                fig10b(scale);
                fig11(scale);
                fig12(scale);
                table9(scale);
                table10(scale);
            }
            other => usage_error(&format!("unknown experiment `{other}`")),
        }
        w += 1;
    }
}

/// `repro --profile`: run the profile workload per backend, print each
/// attribution table, and append the telemetry snapshots (JSON lines) to
/// the bench output file.
fn profile(targets: &[Target], scale: Scale) {
    if !ugc_telemetry::enabled() {
        eprintln!("repro: --profile needs telemetry (run without UGC_TELEMETRY=0)");
        std::process::exit(2);
    }
    let out_path = std::env::var("UGC_BENCH_OUT").unwrap_or_else(|_| "BENCH_profile.json".into());
    let mut lines = String::new();
    let mut consistent = true;
    for &target in targets {
        banner(&format!(
            "Profile: {} GraphVM — PageRank + BFS on PK (scale {}, default schedules)",
            target.name(),
            scale.name()
        ));
        let col = ugc_telemetry::Collector::start();
        let (attr, delta) = profile_backend(target, scale);
        print!("{}", attr.render());
        consistent &= attr.is_consistent();
        lines.push_str(&format!(
            "{{\"profile\":\"{}\",\"scale\":\"{}\"}}\n",
            target.name(),
            scale.name()
        ));
        lines.push_str(&delta.to_json_lines());
        if target == Target::Cpu {
            // Kernel selection + pool chunk feedback: the two knobs the
            // compiled-kernel path adds to the CPU hot loop. Pool counters
            // live outside the `cpu.` prefix, so read them from a full
            // collector delta spanning the same window.
            let pool = col.snapshot();
            println!(
                "kernel dispatch: {} specialized, {} interpreter fallback",
                delta.value("cpu.kernel.specialized"),
                delta.value("cpu.kernel.fallback"),
            );
            if let Some(mean) = pool.histogram_mean("pool.chunk_size") {
                println!(
                    "pool chunk feedback: mean executed chunk {mean:.0} items over {} chunks",
                    pool.value("pool.chunk_size.count")
                );
                lines.push_str(&format!(
                    "{{\"histogram_mean\":\"pool.chunk_size\",\"value\":{mean:.3}}}\n"
                ));
            }
            lines.push_str(&pool.filter_prefix("pool.").to_json_lines());
        }
    }
    use std::io::Write;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
    {
        Ok(mut f) => match f.write_all(lines.as_bytes()) {
            Ok(()) => eprintln!("appended telemetry snapshots to {out_path}"),
            Err(e) => eprintln!("repro: could not write {out_path}: {e}"),
        },
        Err(e) => eprintln!("repro: could not open {out_path}: {e}"),
    }
    if !consistent {
        eprintln!("repro: attribution components do not sum to the reported total");
        std::process::exit(1);
    }
}

/// `repro serve`: run the `ugc-serve` daemon until a client sends
/// `shutdown`. Flag and configuration errors exit 2 with usage; runtime
/// bind failures exit 1.
fn serve_cmd(args: &[String]) {
    let mut config = ugc_serve::ServeConfig {
        bind: ugc_serve::Bind::Tcp(7411),
        policy: ugc::Policy::from_env().unwrap_or_else(|e| usage_error(&e)),
        cache_bytes: ugc_serve::ServeConfig::cache_bytes_from_env()
            .unwrap_or_else(|e| usage_error(&e)),
        // The standalone daemon is the one place that owns its process:
        // SIGTERM triggers the same graceful drain as the wire `shutdown`.
        install_sigterm: true,
        ..ugc_serve::ServeConfig::default()
    };
    let flag_value = |args: &[String], i: usize| -> String {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage_error(&format!("flag `{}` needs a value", args[i])))
    };
    let parse_count = |flag: &str, v: &str| -> usize {
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} expects an integer, got `{v}`")))
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--port" => {
                let v = flag_value(args, i);
                let port: u16 = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!(
                        "--port expects an integer in 0..=65535, got `{v}`"
                    ))
                });
                config.bind = ugc_serve::Bind::Tcp(port);
                i += 2;
            }
            "--socket" => {
                config.bind = ugc_serve::Bind::Unix(flag_value(args, i).into());
                i += 2;
            }
            "--admit" => {
                config.admit = parse_count("--admit", &flag_value(args, i));
                i += 2;
            }
            "--queue" => {
                config.queue_cap = parse_count("--queue", &flag_value(args, i));
                i += 2;
            }
            "--batch-max" => {
                config.batch_max = parse_count("--batch-max", &flag_value(args, i));
                i += 2;
            }
            "--batch-window-ms" => {
                config.batch_window = std::time::Duration::from_millis(parse_count(
                    "--batch-window-ms",
                    &flag_value(args, i),
                ) as u64);
                i += 2;
            }
            "--drain-ms" => {
                config.drain = std::time::Duration::from_millis(parse_count(
                    "--drain-ms",
                    &flag_value(args, i),
                ) as u64);
                i += 2;
            }
            "--deadline-ms" => {
                config.default_deadline = Some(std::time::Duration::from_millis(parse_count(
                    "--deadline-ms",
                    &flag_value(args, i),
                )
                    as u64));
                i += 2;
            }
            other => usage_error(&format!("unknown serve flag `{other}`")),
        }
    }
    if let Err(e) = config.validate() {
        usage_error(&e);
    }
    match ugc_serve::Server::start(config) {
        Ok(handle) => {
            use std::io::Write;
            println!("ugc-serve listening on {}", handle.addr());
            let _ = std::io::stdout().flush();
            handle.join();
            println!("ugc-serve: shutdown complete");
        }
        Err(e) => {
            eprintln!("repro: serve failed to start: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro client`: send one protocol line to a running daemon and print
/// the response. Exits 0 on an `ok` reply, 1 otherwise.
fn client_cmd(args: &[String]) {
    if args.len() < 2 {
        usage_error("client needs <unix:PATH|HOST:PORT> <request words...>");
    }
    let line = args[1..].join(" ");
    match client_send(&args[0], &line) {
        Ok(reply) => {
            println!("{reply}");
            if !reply.starts_with("ok") {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("repro: client: {e}");
            std::process::exit(1);
        }
    }
}

/// One protocol round trip: connect, send `line`, read one reply line.
fn client_send(addr: &str, line: &str) -> Result<String, String> {
    fn roundtrip<S: std::io::Read + std::io::Write>(
        mut s: S,
        line: &str,
    ) -> Result<String, String> {
        use std::io::BufRead;
        writeln!(s, "{line}").map_err(|e| e.to_string())?;
        s.flush().map_err(|e| e.to_string())?;
        let mut reply = String::new();
        std::io::BufReader::new(s)
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        if reply.is_empty() {
            return Err("connection closed without a reply".into());
        }
        Ok(reply.trim_end().to_string())
    }
    if let Some(path) = addr.strip_prefix("unix:") {
        let s = std::os::unix::net::UnixStream::connect(path)
            .map_err(|e| format!("connect {path}: {e}"))?;
        roundtrip(s, line)
    } else {
        let s = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        roundtrip(s, line)
    }
}

/// `repro --profile serve`: in-process serving smoke — a coalesced pair of
/// same-source BFS queries plus one degenerate single, with the `serve.`
/// telemetry delta printed (and appended as JSON lines like the backend
/// profiles).
fn profile_serve(scale: Scale) {
    if !ugc_telemetry::enabled() {
        eprintln!("repro: --profile needs telemetry (run without UGC_TELEMETRY=0)");
        std::process::exit(2);
    }
    banner(&format!(
        "Profile: ugc-serve — coalesced BFS pair + degenerate single on RN (scale {})",
        scale.name()
    ));
    let col = ugc_telemetry::Collector::start();
    let config = ugc_serve::ServeConfig {
        bind: ugc_serve::Bind::Tcp(0),
        admit: 1,
        batch_max: 2,
        batch_window: std::time::Duration::from_millis(500),
        ..ugc_serve::ServeConfig::default()
    };
    let handle = ugc_serve::Server::start(config).unwrap_or_else(|e| {
        eprintln!("repro: serve failed to start: {e}");
        std::process::exit(1);
    });
    let addr = handle.addr().to_string();
    let addr = addr.strip_prefix("tcp ").unwrap_or(&addr).to_string();
    let query = format!("query bfs RN source=0 scale={}", scale.name());
    let pair: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let query = query.clone();
            std::thread::spawn(move || client_send(&addr, &query))
        })
        .collect();
    for t in pair {
        match t.join().expect("client thread") {
            Ok(reply) => println!("{reply}"),
            Err(e) => {
                eprintln!("repro: client: {e}");
                std::process::exit(1);
            }
        }
    }
    match client_send(&addr, &query) {
        Ok(reply) => println!("{reply}"),
        Err(e) => {
            eprintln!("repro: client: {e}");
            std::process::exit(1);
        }
    }
    match client_send(&addr, "stats") {
        Ok(reply) => println!("{reply}"),
        Err(e) => {
            eprintln!("repro: client: {e}");
            std::process::exit(1);
        }
    }
    let coalesced = handle.counters().coalesced.get();
    handle.shutdown();
    handle.join();
    let delta = col.snapshot().filter_prefix("serve.");
    print!("{}", delta.to_json_lines());
    let out_path = std::env::var("UGC_BENCH_OUT").unwrap_or_else(|_| "BENCH_profile.json".into());
    use std::io::Write;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
    {
        let _ = f.write_all(delta.to_json_lines().as_bytes());
    }
    if coalesced == 0 {
        eprintln!("repro: serve profile ran but no query coalescing happened");
        std::process::exit(1);
    }
}

/// `repro tune`: autotune one (target, algo, dataset) triple and print the
/// ranked candidate table.
fn tune(
    target: Target,
    algo: Algorithm,
    dataset: Dataset,
    scale: Scale,
    tuner: &Tuner,
    use_cache: bool,
    explain: bool,
) {
    banner(&format!(
        "Autotune: {} / {} / {} (scale {}, seed {}, budget {})",
        target.name(),
        algo.name(),
        dataset.abbrev(),
        scale.name(),
        tuner.seed,
        tuner.budget
    ));
    let cache_path = std::env::var("UGC_TUNE_CACHE")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::Path::new("target").join("tuning-cache.jsonl"));
    let cache = use_cache.then_some(cache_path.as_path());
    match tune_dataset(target, algo, dataset, scale, tuner, cache) {
        Ok(Tuned::Cached { entry, .. }) => {
            println!(
                "cache hit ({}): winner `{}` at {:.4} ms ({} cycles), \
                 tuned with seed {} over {} measured candidates",
                cache_path.display(),
                entry.winner,
                entry.time_ms,
                entry.cycles,
                entry.seed,
                entry.explored
            );
            if !entry.profile.is_empty() {
                println!("winner profile: {}", entry.profile);
            }
            if explain {
                println!("explain: cache hit — no search ran, nothing was pruned");
            }
            println!("(delete the cache file or pass --no-cache to re-measure)");
        }
        Ok(Tuned::Fresh(out)) => {
            println!(
                "space: {} points, strategy: {}, measured: {} (+{} pinned)",
                out.cardinality,
                out.strategy,
                out.explored,
                out.ranked.len().saturating_sub(out.explored)
            );
            println!("{:<4}{:>12}{:>14}  candidate", "#", "time (ms)", "cycles");
            for (i, r) in out.ranked.iter().enumerate().take(15) {
                println!(
                    "{:<4}{:>12.4}{:>14}  {}",
                    i + 1,
                    r.sample.time_ms,
                    r.sample.cycles,
                    r.name
                );
            }
            if out.ranked.len() > 15 {
                println!("... ({} more)", out.ranked.len() - 15);
            }
            let winner = out.winner();
            if !winner.sample.profile.is_empty() {
                println!("winner profile: {}", winner.sample.profile);
            }
            if let Some(hand) = out.find("hand_tuned") {
                println!(
                    "winner `{}` vs hand-tuned: {:.3}x",
                    winner.name,
                    hand.sample.time_ms / winner.sample.time_ms.max(1e-12)
                );
            }
            if explain {
                explain_report(&out);
            }
        }
        Err(e) => {
            eprintln!("repro: autotuning failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The `tune --explain` report: what the cost model pruned, which
/// attribution component justified each skip, where the search started,
/// and a balanced budget line (`measured + pruned == considered`).
fn explain_report(out: &ugc_autotune::TuneOutcome) {
    match &out.warm_start {
        Some(label) => println!("warm start: `{label}` (nearest-fingerprint cached winner)"),
        None => println!("warm start: none (cold random restarts)"),
    }
    if out.pruned.is_empty() {
        println!(
            "pruned axes: none (no dominant component ≥{}% matched a prune rule)",
            ugc_autotune::DOMINANCE_THRESHOLD
        );
    } else {
        for p in &out.pruned {
            println!(
                "pruned axis `{}`: dominant `{}` ({}%) — {} (saved {} measurements)",
                p.axis, p.component, p.share, p.reason, p.saved
            );
        }
    }
    let saved = out.saved();
    println!(
        "budget: measured={} pruned={} considered={}",
        out.explored,
        saved,
        out.explored + saved
    );
}

/// `repro chaos`: seeded fault-injection smoke. Runs BFS and SSSP on
/// every backend under the supervisor with the `UGC_FAULTS` schedule from
/// the environment; each run must either validate against the sequential
/// reference (possibly after retries/fallback) or fail with a typed
/// error — a silent wrong answer exits 1. With telemetry on, also
/// requires the resilience counters to have moved.
fn chaos(scale: Scale) {
    let spec = std::env::var("UGC_FAULTS").unwrap_or_default();
    if spec.trim().is_empty() {
        usage_error("chaos needs UGC_FAULTS (e.g. gpu:kernel_launch_fail:p=0.2:seed=7)");
    }
    banner(&format!(
        "Chaos: BFS + SSSP under injected faults (UGC_FAULTS={spec}, scale {})",
        scale.name()
    ));
    let graph = Dataset::RoadNetCa.generate(scale);
    let mut wrong = 0usize;
    println!("{:<6}{:<13}outcome", "algo", "target");
    for algo in [Algorithm::Bfs, Algorithm::Sssp] {
        for target in Target::ALL {
            let mut c = Compiler::new(algo);
            c.start_vertex(0);
            let outcome = match c.run(target, &graph) {
                Ok(r) => {
                    let check = match algo {
                        Algorithm::Bfs => ugc_algorithms::validate::check_bfs_parents(
                            &graph,
                            0,
                            r.property_ints("parent"),
                        ),
                        _ => ugc_algorithms::validate::check_sssp_distances(
                            &graph,
                            0,
                            r.property_ints("dist"),
                        ),
                    };
                    match check {
                        Ok(()) => format!(
                            "reference-equal (attempts {}, degraded to {})",
                            r.attempts,
                            r.degraded_to.as_deref().unwrap_or("-")
                        ),
                        Err(e) => {
                            wrong += 1;
                            format!("SILENT WRONG ANSWER: {e}")
                        }
                    }
                }
                Err(e) => format!("typed failure: {e}"),
            };
            println!("{:<6}{:<13}{outcome}", algo.name(), target.name());
        }
    }
    if ugc_telemetry::enabled() {
        let snap = ugc_telemetry::snapshot();
        let activity: u64 = [
            "resilience.faults_injected",
            "resilience.retries",
            "resilience.fallbacks",
            "resilience.budget_kills",
        ]
        .iter()
        .map(|k| snap.get(k).unwrap_or(0))
        .sum();
        println!(
            "resilience: injected {}, retries {}, fallbacks {}, budget kills {}",
            snap.get("resilience.faults_injected").unwrap_or(0),
            snap.get("resilience.retries").unwrap_or(0),
            snap.get("resilience.fallbacks").unwrap_or(0),
            snap.get("resilience.budget_kills").unwrap_or(0),
        );
        if activity == 0 {
            eprintln!("repro: chaos ran but no resilience counter moved — fault spec never fired");
            std::process::exit(1);
        }
    }
    if wrong > 0 {
        eprintln!("repro: {wrong} chaos run(s) returned a silent wrong answer");
        std::process::exit(1);
    }
}

/// Extracts `key=<u64>` from a `stats` reply; missing keys exit 1 (the
/// daemon's stats line is part of its contract).
fn stat_field(stats: &str, key: &str) -> u64 {
    let prefix = format!("{key}=");
    stats
        .split_whitespace()
        .find_map(|w| w.strip_prefix(&prefix))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("repro: stats reply missing `{key}=`: {stats}");
            std::process::exit(1);
        })
}

/// `repro chaos-serve`: daemon chaos smoke. Boots an in-process
/// `ugc-serve` on a unix socket with the `UGC_FAULTS` schedule from the
/// environment and drives it through healthy traffic, a circuit-breaker
/// trip, deadline sheds under a jammed worker, and fuzzed protocol
/// frames, then drains it. Every connection must end in a typed reply or
/// a clean close; exits 1 unless at least one circuit opened, at least
/// one request was deadline-shed, the accounting balances
/// (ok + errored + shed = admitted), and the worker pool stayed intact.
fn chaos_serve(scale: Scale) {
    let spec = std::env::var("UGC_FAULTS").unwrap_or_default();
    if spec.trim().is_empty() {
        usage_error("chaos-serve needs UGC_FAULTS (e.g. serve:batch_abort:p=0.9:seed=7)");
    }
    banner(&format!(
        "Chaos-serve: daemon under injected faults (UGC_FAULTS={spec}, scale {})",
        scale.name()
    ));
    let sock = std::env::temp_dir().join(format!("ugc-chaos-serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let config = ugc_serve::ServeConfig {
        bind: ugc_serve::Bind::Unix(sock.clone()),
        admit: 1,
        queue_cap: 32,
        batch_max: 4,
        batch_window: std::time::Duration::from_millis(5),
        drain: std::time::Duration::from_millis(500),
        read_timeout: Some(std::time::Duration::from_secs(5)),
        policy: ugc::Policy::from_env().unwrap_or_else(|e| usage_error(&e)),
        ..ugc_serve::ServeConfig::default()
    };
    let handle = ugc_serve::Server::start(config).unwrap_or_else(|e| {
        eprintln!("repro: chaos-serve failed to start: {e}");
        std::process::exit(1);
    });
    let addr = format!("unix:{}", sock.display());
    let mut failures = 0usize;

    // 1. Healthy traffic under the fault schedule: injected batch aborts
    // must be retried/degraded into `ok` replies, never surfaced.
    for i in 0..6u32 {
        let q = format!("query bfs RN source={i} scale={}", scale.name());
        match client_send(&addr, &q) {
            Ok(r) if r.starts_with("ok") => {}
            Ok(r) => {
                println!("healthy query answered `{r}`");
                failures += 1;
            }
            Err(e) => {
                println!("healthy query failed: {e}");
                failures += 1;
            }
        }
    }

    let pool_before = match client_send(&addr, "stats") {
        Ok(s) => stat_field(&s, "pool_workers"),
        Err(e) => {
            eprintln!("repro: chaos-serve stats failed: {e}");
            std::process::exit(1);
        }
    };

    // 2. Trip a circuit: repeated permanent failures on one
    // (algo, dataset, scale) key must open its breaker and fail fast.
    let mut circuit_open_replies = 0usize;
    for _ in 0..8 {
        let q = format!("query bfs PK source=999999999 scale={}", scale.name());
        match client_send(&addr, &q) {
            Ok(r) if r.starts_with("err circuit_open") => circuit_open_replies += 1,
            Ok(r) if r.starts_with("err") => {}
            Ok(r) => {
                println!("poisoned query answered `{r}` instead of a typed error");
                failures += 1;
            }
            Err(e) => {
                println!("poisoned query failed: {e}");
                failures += 1;
            }
        }
    }
    println!("circuit breaker: {circuit_open_replies} fast-failed replies");

    // 3. Deadline sheds: jam the single worker with a cold-cache build,
    // then queue tight-deadline queries behind it.
    let jam = {
        let addr = addr.clone();
        std::thread::spawn(move || client_send(&addr, "query pr RN scale=small"))
    };
    std::thread::sleep(std::time::Duration::from_millis(20));
    let tight: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let q = format!("query bfs LJ source=0 deadline_ms=1 scale={}", scale.name());
            std::thread::spawn(move || client_send(&addr, &q))
        })
        .collect();
    let mut deadline_sheds = 0usize;
    for t in tight {
        match t.join().expect("deadline client thread") {
            Ok(r) if r.starts_with("err deadline") => deadline_sheds += 1,
            Ok(_) => {}
            Err(e) => {
                println!("deadline query failed: {e}");
                failures += 1;
            }
        }
    }
    let _ = jam.join().expect("jam client thread");
    println!("deadline propagation: {deadline_sheds} queries shed in queue");

    // 4. Fuzzed frames: every hostile connection must end in a typed
    // protocol error or a clean close — never a hang or a dead daemon.
    let fuzz_conn = |frames: &[&[u8]]| -> Result<Vec<String>, String> {
        use std::io::{BufRead, ErrorKind, Write};
        // The daemon may hang up on a hostile frame before we finish
        // sending; a write-side "peer closed" is a clean close, not a bug.
        let peer_closed = |e: &std::io::Error| {
            matches!(
                e.kind(),
                ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::NotConnected
            )
        };
        let mut s =
            std::os::unix::net::UnixStream::connect(&sock).map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        for f in frames {
            if let Err(e) = s.write_all(f) {
                if peer_closed(&e) {
                    break;
                }
                return Err(format!("write: {e}"));
            }
        }
        if let Err(e) = s.flush() {
            if !peer_closed(&e) {
                return Err(e.to_string());
            }
        }
        if let Err(e) = s.shutdown(std::net::Shutdown::Write) {
            if !peer_closed(&e) {
                return Err(e.to_string());
            }
        }
        let mut replies = Vec::new();
        let mut reader = std::io::BufReader::new(s);
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => replies.push(line.trim_end().to_string()),
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        Ok(replies)
    };
    let oversize = vec![b'a'; ugc_serve::MAX_LINE_BYTES + 1024];
    let mut garbage = Vec::new();
    let mut state = 0x5EEDu64;
    for _ in 0..256 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        garbage.push((state >> 33) as u8);
    }
    garbage.retain(|&b| b != b'\n');
    garbage.push(b'\n');
    let cases: Vec<(&str, Vec<Vec<u8>>)> = vec![
        ("oversize line", vec![oversize, b"\n".to_vec()]),
        ("interior NUL", vec![b"query bfs\0RN\n".to_vec()]),
        ("truncated frame", vec![b"query bf".to_vec()]),
        ("seeded garbage", vec![garbage]),
    ];
    for (name, frames) in &cases {
        let borrowed: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        match fuzz_conn(&borrowed) {
            Ok(replies) => {
                let clean = replies.iter().all(|r| r.starts_with("err"));
                println!(
                    "fuzz `{name}`: {} ({} repl{})",
                    if clean {
                        "typed error / clean close"
                    } else {
                        "UNEXPECTED REPLY"
                    },
                    replies.len(),
                    if replies.len() == 1 { "y" } else { "ies" }
                );
                if !clean {
                    failures += 1;
                }
            }
            Err(e) => {
                println!("fuzz `{name}`: connection error: {e}");
                failures += 1;
            }
        }
    }
    match client_send(
        &addr,
        &format!("query bfs RN source=0 scale={}", scale.name()),
    ) {
        Ok(r) if r.starts_with("ok") => println!("daemon alive after fuzzing"),
        other => {
            println!("daemon unhealthy after fuzzing: {other:?}");
            failures += 1;
        }
    }

    // 5. Accounting and pool invariants from the wire-visible stats.
    let stats = match client_send(&addr, "stats") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repro: chaos-serve stats failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{stats}");
    let admitted = stat_field(&stats, "admitted");
    let ok = stat_field(&stats, "ok");
    let errored = stat_field(&stats, "errored");
    let shed = stat_field(&stats, "shed_deadline")
        + stat_field(&stats, "shed_overload")
        + stat_field(&stats, "shed_drain");
    if ok + errored + shed != admitted {
        println!(
            "accounting IMBALANCE: ok {ok} + errored {errored} + shed {shed} != admitted {admitted}"
        );
        failures += 1;
    }
    let pool_after = stat_field(&stats, "pool_workers");
    if pool_after != pool_before {
        println!("pool worker count drifted under chaos ({pool_before} -> {pool_after})");
        failures += 1;
    }
    let open_now = stat_field(&stats, "circuit_open");
    if circuit_open_replies == 0 && open_now == 0 {
        println!("no circuit ever opened");
        failures += 1;
    }
    if deadline_sheds == 0 && stat_field(&stats, "shed_deadline") == 0 {
        println!("no request was deadline-shed");
        failures += 1;
    }

    // 6. Graceful drain: wire shutdown, idempotent handle shutdown, join.
    match client_send(&addr, "shutdown") {
        Ok(r) if r.starts_with("ok") => {}
        other => {
            println!("shutdown reply: {other:?}");
            failures += 1;
        }
    }
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_file(&sock);
    println!("drain complete");

    if ugc_telemetry::enabled() {
        let snap = ugc_telemetry::snapshot();
        let activity: u64 = [
            "resilience.faults_injected",
            "resilience.retries",
            "resilience.fallbacks",
            "resilience.budget_kills",
        ]
        .iter()
        .map(|k| snap.get(k).unwrap_or(0))
        .sum();
        println!(
            "resilience: injected {}, retries {}, breaker opened {}",
            snap.get("resilience.faults_injected").unwrap_or(0),
            snap.get("resilience.retries").unwrap_or(0),
            snap.get("resilience.breaker.opened").unwrap_or(0),
        );
        if activity == 0 {
            eprintln!(
                "repro: chaos-serve ran but no resilience counter moved — fault spec never fired"
            );
            std::process::exit(1);
        }
    }
    if failures > 0 {
        eprintln!("repro: chaos-serve found {failures} violation(s)");
        std::process::exit(1);
    }
}

fn banner(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Fig. 8: heatmap of tuned-over-baseline speedups, per architecture.
fn fig8(scale: Scale) {
    banner("Figure 8: speedup of tuned schedules over each GraphVM's default schedule");
    for target in Target::ALL {
        let datasets: &[Dataset] = if target == Target::HammerBlade {
            &Dataset::HAMMERBLADE_SET
        } else {
            &Dataset::ALL
        };
        println!("\n--- {} GraphVM ---", target.name());
        print!("{:<6}", "");
        for a in Algorithm::ALL {
            print!("{:>8}", a.name());
        }
        println!();
        for &d in datasets {
            print!("{:<6}", d.abbrev());
            for a in Algorithm::ALL {
                let s = fig8_cell(target, a, d, scale);
                print!("{s:>8.2}");
            }
            println!();
        }
    }
}

/// Fig. 9: UGC's GPU GraphVM vs the best of Gunrock/GSwitch/SEP-Graph.
/// The framework baselines only model the paper's five algorithms, so the
/// comparison stays restricted to [`Algorithm::PAPER_FIVE`].
fn fig9(scale: Scale) {
    banner("Figure 9: GPU GraphVM speedup over the next-best framework (>1 = UGC wins)");
    print!("{:<6}", "");
    for a in Algorithm::PAPER_FIVE {
        print!("{:>10}", a.name());
    }
    println!("   (negative column entries mean the framework named wins)");
    let algo_key = |a: Algorithm| match a {
        Algorithm::PageRank => "pr",
        Algorithm::Bfs => "bfs",
        Algorithm::Sssp => "sssp",
        Algorithm::Cc => "cc",
        Algorithm::Bc => "bc",
        Algorithm::Tc | Algorithm::KCore | Algorithm::Lp => {
            unreachable!("no framework baseline models {}", a.name())
        }
    };
    for d in Dataset::ALL {
        let graph = d.generate(scale);
        print!("{:<6}", d.abbrev());
        for a in Algorithm::PAPER_FIVE {
            let ugc_ms = measure(
                Target::Gpu,
                a,
                &graph,
                ugc_bench::tuned_schedule_for(Target::Gpu, a, &graph),
                1,
            )
            .time_ms;
            let best_framework = Framework::ALL
                .iter()
                .map(|&f| {
                    let r = run_framework(f, algo_key(a), &graph, 0, GpuConfig::default());
                    (f, r.cycles as f64 / (GpuConfig::default().clock_ghz * 1e6))
                })
                .min_by(|x, y| x.1.total_cmp(&y.1))
                .expect("three frameworks");
            print!("{:>10.2}", best_framework.1 / ugc_ms);
        }
        println!();
    }
}

/// Fig. 10a: BFS strong scaling on HammerBlade (rows 2/4/8/16 × 16 cols).
fn fig10a(scale: Scale) {
    banner("Figure 10a: BFS scaling on HammerBlade (speedup over 32 cores)");
    let datasets = [
        Dataset::RoadNetCa,
        Dataset::RoadCentral,
        Dataset::Pokec,
        Dataset::Hollywood,
        Dataset::LiveJournal,
    ];
    print!("{:<6}", "cores");
    for d in datasets {
        print!("{:>8}", d.abbrev());
    }
    println!();
    let mut base = BTreeMap::new();
    for rows in [2usize, 4, 8, 16] {
        print!("{:<6}", rows * 16);
        for d in datasets {
            let graph = d.generate(scale);
            let mut c = Compiler::new(Algorithm::Bfs);
            c.start_vertex(0).schedule(
                Algorithm::Bfs.schedule_path(),
                tuned_schedule(Target::HammerBlade, Algorithm::Bfs, d.profile()),
            );
            let prog = c.compile().expect("compiles");
            let vm = HbGraphVm::with_rows(rows);
            let run = vm
                .execute(prog, &graph, &externs(Algorithm::Bfs))
                .expect("runs");
            let key = d.abbrev();
            let b = *base.entry(key).or_insert(run.cycles as f64);
            print!("{:>8.2}", b / run.cycles as f64);
        }
        println!();
    }
}

/// Fig. 10b: BFS strong scaling on Swarm (1..64 cores).
fn fig10b(scale: Scale) {
    banner("Figure 10b: BFS scaling on Swarm (speedup over 1 core)");
    let datasets = [
        Dataset::RoadNetCa,
        Dataset::RoadCentral,
        Dataset::Pokec,
        Dataset::Hollywood,
        Dataset::LiveJournal,
    ];
    print!("{:<6}", "cores");
    for d in datasets {
        print!("{:>8}", d.abbrev());
    }
    println!();
    let mut base = BTreeMap::new();
    for cores in [1usize, 4, 16, 64] {
        print!("{:<6}", cores);
        for d in datasets {
            let graph = d.generate(scale);
            let mut c = Compiler::new(Algorithm::Bfs);
            c.start_vertex(0).schedule(
                Algorithm::Bfs.schedule_path(),
                tuned_schedule(Target::Swarm, Algorithm::Bfs, d.profile()),
            );
            let prog = c.compile().expect("compiles");
            let vm = SwarmGraphVm::with_cores(cores);
            let run = vm
                .execute(prog, &graph, &externs(Algorithm::Bfs))
                .expect("runs");
            let key = d.abbrev();
            let b = *base.entry(key).or_insert(run.cycles as f64);
            print!("{:>8.2}", b / run.cycles as f64);
        }
        println!();
    }
}

/// Fig. 11: how Swarm cores spend their time, per algorithm.
fn fig11(scale: Scale) {
    banner("Figure 11: Swarm core-time breakdown (optimized schedules, % of core cycles)");
    println!(
        "{:<6}{:>10}{:>10}{:>12}{:>12}{:>8}",
        "", "commit", "abort", "idle-task", "idle-cq", "spill"
    );
    let dataset = Dataset::RoadCentral;
    let graph = dataset.generate(scale);
    for a in Algorithm::ALL {
        let mut c = Compiler::new(a);
        c.schedule(
            a.schedule_path(),
            tuned_schedule(Target::Swarm, a, dataset.profile()),
        );
        if a.needs_start_vertex() {
            c.start_vertex(0);
        }
        let prog = c.compile().expect("compiles");
        let vm = SwarmGraphVm::default();
        let run = vm.execute(prog, &graph, &externs(a)).expect("runs");
        let total = run.stats.total_core_cycles().max(1) as f64;
        println!(
            "{:<6}{:>9.1}%{:>9.1}%{:>11.1}%{:>11.1}%{:>7.1}%",
            a.name(),
            100.0 * run.stats.commit_cycles as f64 / total,
            100.0 * run.stats.abort_cycles as f64 / total,
            100.0 * run.stats.idle_no_task_cycles as f64 / total,
            100.0 * run.stats.idle_cq_full_cycles as f64 / total,
            100.0 * run.stats.spill_cycles as f64 / total,
        );
    }
}

/// Fig. 12: Swarm GraphVM optimized and hand-tuned prior-work code, both
/// relative to the GraphVM's default schedule.
fn fig12(scale: Scale) {
    banner("Figure 12: Swarm GraphVM vs hand-tuned code (speedup over default schedule)");
    println!(
        "{:<8}{:<6}{:>12}{:>12}",
        "algo", "graph", "GraphVM-opt", "hand-tuned"
    );
    let datasets = [
        Dataset::RoadNetCa,
        Dataset::RoadCentral,
        Dataset::Twitter,
        Dataset::SinaWeibo,
    ];
    for algo in [Algorithm::Bfs, Algorithm::Sssp] {
        for d in datasets {
            let graph = d.generate(scale);
            let base = measure(
                Target::Swarm,
                algo,
                &graph,
                baseline_schedule(Target::Swarm, algo),
                1,
            );
            let opt = measure(
                Target::Swarm,
                algo,
                &graph,
                tuned_schedule(Target::Swarm, algo, d.profile()),
                1,
            );
            let hand = match algo {
                Algorithm::Bfs => swarm_hand::hand_tuned_bfs(&graph, 0, SwarmConfig::default()),
                _ => swarm_hand::hand_tuned_sssp(&graph, 0, SwarmConfig::default()),
            };
            let hand_ms = hand.cycles as f64 / (SwarmConfig::default().clock_ghz * 1e6);
            println!(
                "{:<8}{:<6}{:>11.2}x{:>11.2}x",
                algo.name(),
                d.abbrev(),
                base.time_ms / opt.time_ms,
                base.time_ms / hand_ms,
            );
        }
    }
}

/// Table III: lines of code per crate of this reproduction (every
/// directory under `crates/`).
fn table3() {
    banner("Table 3 (analog): lines of Rust per module of this reproduction");
    let crates_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/ directory");
    let mut crates: Vec<String> = std::fs::read_dir(crates_dir)
        .expect("crates/ is readable")
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    let mut total = 0usize;
    for name in crates {
        let n = count_lines(&crates_dir.join(&name).join("src"));
        total += n;
        println!("{:<38}{n:>8}", format!("crates/{name}"));
    }
    println!("{:<38}{total:>8}", "TOTAL (library code)");
}

fn count_lines(dir: &std::path::Path) -> usize {
    let mut n = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                n += count_lines(&p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                if let Ok(text) = std::fs::read_to_string(&p) {
                    n += text.lines().count();
                }
            }
        }
    }
    n
}

/// Table VIII: the input graphs (paper sizes and stand-in sizes).
fn table8(scale: Scale) {
    banner("Table 8: input graphs (paper original vs generated stand-in)");
    println!(
        "{:<6}{:>14}{:>14}{:>12}{:>12}  class",
        "", "paper |V|", "paper |E|", "standin |V|", "standin |E|"
    );
    for d in Dataset::ALL {
        let (pv, pe) = d.paper_size();
        let g = d.generate(scale);
        println!(
            "{:<6}{:>14}{:>14}{:>12}{:>12}  {:?}",
            d.abbrev(),
            pv,
            pe,
            g.num_vertices(),
            g.num_edges(),
            d.profile()
        );
    }
}

/// Table IX: impact of the HammerBlade blocked-access optimization on SSSP.
fn table9(scale: Scale) {
    banner("Table 9: HammerBlade blocked-access impact on SSSP");
    println!(
        "{:<6}{:>14}{:>14}{:>10}",
        "", "DRAM stalls", "bandwidth", "speedup"
    );
    for d in [Dataset::LiveJournal, Dataset::Hollywood, Dataset::Pokec] {
        let graph = d.generate(scale);
        let run = |blocked: bool| {
            let mut c = Compiler::new(Algorithm::Sssp);
            let sched = if blocked {
                tuned_schedule(Target::HammerBlade, Algorithm::Sssp, d.profile())
            } else {
                ugc_schedule::ScheduleRef::simple(
                    ugc_backend_hb::HbSchedule::new()
                        .with_direction(ugc_schedule::SchedDirection::Hybrid)
                        .with_delta(8),
                )
            };
            c.start_vertex(0)
                .schedule(Algorithm::Sssp.schedule_path(), sched);
            let prog = c.compile().expect("compiles");
            HbGraphVm::default()
                .execute(prog, &graph, &externs(Algorithm::Sssp))
                .expect("runs")
        };
        let base = run(false);
        let blocked = run(true);
        println!(
            "{:<6}{:>14.2}{:>14.2}{:>10.2}",
            d.abbrev(),
            blocked.stats.dram_stall_cycles as f64 / base.stats.dram_stall_cycles.max(1) as f64,
            blocked.stats.bandwidth_utilization / base.stats.bandwidth_utilization.max(1e-12),
            base.cycles as f64 / blocked.cycles as f64,
        );
    }
    println!("(DRAM stalls < 1 and bandwidth > 1 reproduce the paper's direction)");
}

/// Table X: Swarm GraphVM vs the CPU GraphVM's best code run on Swarm.
fn table10(scale: Scale) {
    banner("Table 10: Swarm GraphVM speedup over CPU-GraphVM-style code on Swarm hardware");
    println!("{:<6}{:>8}{:>8}", "", "SSSP", "BFS");
    for d in [Dataset::RoadNetCa, Dataset::RoadCentral, Dataset::RoadUsa] {
        let graph = d.generate(scale);
        print!("{:<6}", d.abbrev());
        for algo in [Algorithm::Sssp, Algorithm::Bfs] {
            // "CPU GraphVM's best code on Swarm" = barriered rounds without
            // task conversion (the best the CPU-style code can do there).
            let cpu_style = measure(
                Target::Swarm,
                algo,
                &graph,
                baseline_schedule(Target::Swarm, algo),
                1,
            );
            let swarm = measure(
                Target::Swarm,
                algo,
                &graph,
                tuned_schedule(Target::Swarm, algo, d.profile()),
                1,
            );
            print!("{:>8.2}", cpu_style.time_ms / swarm.time_ms);
        }
        println!();
    }
}

/// Tables I, VI, VII: the architecture configurations.
fn configs() {
    banner("Tables I/VI/VII: simulated architecture configurations");
    println!("GPU     : {:?}\n", GpuConfig::default());
    println!("Swarm   : {:?}\n", SwarmConfig::default());
    println!("HB      : {:?}", ugc_sim_hb::HbConfig::default());
}

/// `repro run <target> <algo> <dataset>`: one tuned-schedule run with a
/// per-algorithm result summary. `--k` (kcore) additionally reports the
/// k-core membership count at that level; `--max-iters` (lp) overrides the
/// round bound.
fn run_one(
    target: Target,
    algo: Algorithm,
    dataset: Dataset,
    scale: Scale,
    k: Option<i64>,
    max_iters: Option<i64>,
) {
    banner(&format!(
        "Run: {} on {} GraphVM, {} (scale {})",
        algo.name(),
        target.name(),
        dataset.abbrev(),
        scale.name()
    ));
    let graph = dataset.generate(scale);
    let mut c = Compiler::new(algo);
    c.schedule(
        algo.schedule_path(),
        ugc_bench::tuned_schedule_for(target, algo, &graph),
    );
    if algo.needs_start_vertex() {
        c.start_vertex(0);
    }
    if let Some(mi) = max_iters {
        c.bind("max_iters", ugc_runtime::value::Value::Int(mi));
    }
    let r = c.run(target, &graph).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(1);
    });
    println!(
        "n={} time_ms={:.3} cycles={}",
        graph.num_vertices(),
        r.time_ms,
        r.cycles
    );
    match algo {
        Algorithm::Tc => {
            // Each triangle is seen from both directions of its 3 edges.
            let total: i64 = r.property_ints("tri").iter().sum();
            println!("triangles={}", total / 6);
        }
        Algorithm::KCore => {
            let core = r.property_ints("core");
            println!("max_coreness={}", core.iter().max().copied().unwrap_or(0));
            if let Some(k) = k {
                let size = core.iter().filter(|&&c| c >= k).count();
                println!("kcore_size[k={k}]={size}");
            }
        }
        Algorithm::Lp => {
            let labels = r.property_ints("labels");
            let classes: std::collections::HashSet<i64> = labels.iter().copied().collect();
            println!("label_classes={}", classes.len());
        }
        _ => {}
    }
}

fn externs(algo: Algorithm) -> std::collections::HashMap<String, ugc_runtime::value::Value> {
    let mut m = std::collections::HashMap::new();
    if algo.needs_start_vertex() {
        m.insert(
            "start_vertex".to_string(),
            ugc_runtime::value::Value::Int(0),
        );
    }
    m
}
