//! Every metric the benchmark reports, with its unit, and the one-line
//! JSON result. `BENCHMARK.json` declares the same names; a test keeps the
//! two lists equal.

use std::collections::BTreeMap;

use ugc::Algorithm;

/// Lower-case algorithm names as metric suffixes and wire verbs.
pub fn algo_key(a: Algorithm) -> &'static str {
    match a {
        Algorithm::PageRank => "pr",
        Algorithm::Bfs => "bfs",
        Algorithm::Sssp => "sssp",
        Algorithm::Cc => "cc",
        Algorithm::Bc => "bc",
        Algorithm::Tc => "tc",
        Algorithm::KCore => "kcore",
        Algorithm::Lp => "lp",
    }
}

/// Algorithms in metric order.
pub const ALGOS: [Algorithm; 8] = [
    Algorithm::Bfs,
    Algorithm::Sssp,
    Algorithm::Cc,
    Algorithm::PageRank,
    Algorithm::Bc,
    Algorithm::Tc,
    Algorithm::KCore,
    Algorithm::Lp,
];

/// CPU attribution components, as `(metric stem, telemetry counter)`.
pub const CPU_COMPONENTS: [(&str, &str); 4] = [
    ("edge_push", "cpu.edge_push.ns"),
    ("edge_pull", "cpu.edge_pull.ns"),
    ("vertex_apply", "cpu.vertex_apply.ns"),
    ("other", "cpu.other.ns"),
];

/// Simulated targets in metric order, with their metric key.
pub const SIM_TARGETS: [(ugc::Target, &str); 3] = [
    (ugc::Target::Gpu, "gpu"),
    (ugc::Target::Swarm, "swarm"),
    (ugc::Target::HammerBlade, "hb"),
];

/// Rate-ladder steps above the nominal rate that get their own metrics.
pub const LADDER_STEPS: usize = 4;

/// Span names whose mean self time is reported as `self_ms.<name>`.
pub const SPAN_LAYERS: [&str; 7] = [
    "graph",
    "frontend",
    "midend",
    "exec",
    "validate",
    "reference",
    "request",
];

/// End-to-end metrics, reported by every workload with tracing off.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut m = vec![
        ("setup_s".to_string(), "s"),
        ("peak_rss_mb".to_string(), "MB"),
    ];
    for a in ALGOS {
        m.push((format!("ratio.{}", algo_key(a)), "ratio"));
    }
    m
}

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload bypasses reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for a in ALGOS {
        let k = algo_key(a);
        m.push((format!("exec_ms.{k}"), "ms"));
        m.push((format!("ref_ms.{k}"), "ms"));
        m.push((format!("ref_ratio.{k}"), "ratio"));
        for (c, _) in CPU_COMPONENTS {
            m.push((format!("cpu.{c}_ms.{k}"), "ms"));
        }
        m.push((format!("cpu.kernel_hit.{k}"), "ratio"));
    }
    for (name, unit) in [
        ("compile.frontend_ms", "ms"),
        ("compile.midend_ms", "ms"),
        ("compile.ir_size", "count"),
        ("setup.graph_ms", "ms"),
        ("setup.daemon_ready_ms", "ms"),
        ("setup.warm_ms", "ms"),
        ("trace.overhead_ms", "ms"),
        ("fail_frac", "ratio"),
    ] {
        m.push((name.to_string(), unit));
    }
    for l in SPAN_LAYERS {
        m.push((format!("self_ms.{l}"), "ms"));
    }
    for (_, t) in SIM_TARGETS {
        for a in ALGOS {
            m.push((format!("sim.cycles.{t}.{}", algo_key(a)), "cycles"));
        }
        m.push((format!("sim.wall_s.{t}"), "s"));
    }
    m.push(("sim.cycles_geomean".to_string(), "cycles"));
    for (name, unit) in [
        ("serve.p50_ms", "ms"),
        ("serve.p90_ms", "ms"),
        ("serve.max_rate_qps", "1/s"),
        ("serve.wait_ms_p50", "ms"),
        ("serve.wait_ms_p90", "ms"),
        ("serve.coalesce_ratio", "ratio"),
        ("serve.edge_scans_per_query", "count"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.tuned_hit_ratio", "ratio"),
        ("serve.retry_frac", "ratio"),
        ("serve.unstable_frac", "ratio"),
        ("serve.overrun_ms_p90", "ms"),
        ("loadgen.late_ms_p90", "ms"),
    ] {
        m.push((name.to_string(), unit));
    }
    for k in 1..=LADDER_STEPS {
        m.push((format!("serve.step{k}.p50_ms"), "ms"));
        m.push((format!("serve.step{k}.p75_ms"), "ms"));
    }
    m
}

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// The one-line result: every declared metric, in declaration order.
/// Per-layer metrics a workload did not produce read 0; non-finite values
/// (a ratio over an empty sample) also read 0, since JSON has no NaN.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(String, &'static str)],
    values: &Metrics,
) -> String {
    let body: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_limits() {
        let all: Vec<(String, &str)> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in &all {
            assert!(seen.insert(name.clone()), "duplicate {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
        assert!(end_to_end().len() <= 16);
        assert!(per_layer().len() <= 128, "{}", per_layer().len());
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let mut ours: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|(n, _)| n)
            .collect();
        for w in ["cpu-suite", "serve-mix", "sim-zoo"] {
            ours.push(w.to_string());
        }
        let mut theirs: Vec<String> = declared.iter().map(|s| s.to_string()).collect();
        ours.sort();
        theirs.sort();
        assert_eq!(ours, theirs);
        for (name, unit) in end_to_end().into_iter().chain(per_layer()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let declared = end_to_end();
        let mut values = Metrics::new();
        values.insert("setup_s".into(), 1.25);
        values.insert("ratio.bfs".into(), f64::NAN);
        let line = result_line(true, 3, 0, &declared, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"ratio.bfs\": {\"value\": 0.0, \"unit\": \"ratio\"}"));
        assert_eq!(line.matches("\"value\"").count(), declared.len());
    }
}
