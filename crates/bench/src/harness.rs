//! Plain timing harness for the `harness = false` benches.
//!
//! The in-tree replacement for Criterion, keeping the paper figures
//! regenerable offline with zero external crates. Each measurement runs a
//! few warmup iterations, then `samples` timed iterations, and reports the
//! **median** (robust to scheduler noise; identical to the point estimate
//! for the deterministic simulated targets where every iteration returns
//! the same simulated duration).
//!
//! Output is one JSON line per benchmark on stdout — machine-consumable,
//! e.g. by `scripts/bench_snapshot.sh` — plus a human-readable summary on
//! stderr.
//!
//! Iterations return their own [`Duration`]: wall-clock for the CPU
//! backend, simulated time (1 cycle = 1 ns) for the simulator backends,
//! matching the `iter_custom` pattern the Criterion benches used.
//!
//! Knobs: first non-flag CLI argument is a case-insensitive substring
//! filter on `group/label` (`cargo bench --bench fig8_speedups -- cpu/bfs`);
//! `UGC_BENCH_SAMPLES` / `UGC_BENCH_WARMUP` override the iteration counts.

use std::time::Duration;

/// Benchmark runner: holds the filter and iteration counts, runs and
/// reports individual benchmarks.
#[derive(Debug, Clone)]
pub struct Harness {
    filter: Option<String>,
    warmup: usize,
    samples: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Self {
            filter: None,
            warmup: 2,
            samples: 10,
        }
    }
}

impl Harness {
    /// Builds a harness from CLI args and environment.
    ///
    /// `cargo bench` passes harness flags like `--bench`; anything starting
    /// with `-` is ignored, the first other argument becomes the substring
    /// filter.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let env_n = |key: &str, default: usize| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(default)
        };
        let d = Self::default();
        Self {
            filter,
            warmup: env_n("UGC_BENCH_WARMUP", d.warmup),
            samples: env_n("UGC_BENCH_SAMPLES", d.samples).max(1),
        }
    }

    /// Overrides the per-benchmark sample count.
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Times one benchmark: `f` is called once per iteration and returns
    /// the duration that iteration took (measured or simulated). Prints a
    /// JSON line on stdout and a summary on stderr; returns the stats, or
    /// `None` if the name was filtered out.
    pub fn bench(
        &self,
        group: &str,
        label: &str,
        mut f: impl FnMut() -> Duration,
    ) -> Option<Stats> {
        let full = format!("{group}/{label}");
        if let Some(filter) = &self.filter {
            // Case-insensitive so `-- cpu/bfs` matches `fig8/CPU/BFS/RN`.
            if !full.to_lowercase().contains(&filter.to_lowercase()) {
                return None;
            }
        }
        for _ in 0..self.warmup {
            f();
        }
        let mut ns: Vec<u128> = (0..self.samples).map(|_| f().as_nanos()).collect();
        ns.sort_unstable();
        let stats = Stats::from_sorted(group, label, &ns);
        println!("{}", stats.to_json());
        eprintln!(
            "bench {full:<56} median {:>12.3} ms  ({} samples, min {:.3} ms, max {:.3} ms)",
            stats.median_ns / 1e6,
            stats.samples,
            stats.min_ns / 1e6,
            stats.max_ns / 1e6,
        );
        Some(stats)
    }
}

/// Summary statistics of one benchmark's timed iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Benchmark group, e.g. `fig8/cpu/bfs/RDCA`.
    pub group: String,
    /// Variant label within the group, e.g. `baseline` or `tuned`.
    pub label: String,
    /// Number of timed iterations.
    pub samples: usize,
    /// Median iteration time in nanoseconds.
    pub median_ns: f64,
    /// Mean iteration time in nanoseconds.
    pub mean_ns: f64,
    /// Fastest iteration in nanoseconds.
    pub min_ns: f64,
    /// Slowest iteration in nanoseconds.
    pub max_ns: f64,
}

impl Stats {
    fn from_sorted(group: &str, label: &str, sorted_ns: &[u128]) -> Self {
        let n = sorted_ns.len();
        assert!(n > 0, "no samples");
        let median = if n % 2 == 1 {
            sorted_ns[n / 2] as f64
        } else {
            (sorted_ns[n / 2 - 1] + sorted_ns[n / 2]) as f64 / 2.0
        };
        let mean = sorted_ns.iter().sum::<u128>() as f64 / n as f64;
        Self {
            group: group.to_string(),
            label: label.to_string(),
            samples: n,
            median_ns: median,
            mean_ns: mean,
            min_ns: sorted_ns[0] as f64,
            max_ns: sorted_ns[n - 1] as f64,
        }
    }

    /// One JSON object on a single line.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"group":{},"label":{},"samples":{},"median_ns":{},"mean_ns":{},"min_ns":{},"max_ns":{}}}"#,
            json_str(&self.group),
            json_str(&self.label),
            self.samples,
            self.median_ns,
            self.mean_ns,
            self.min_ns,
            self.max_ns,
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        let s = Stats::from_sorted("g", "l", &[1, 2, 100]);
        assert_eq!(s.median_ns, 2.0);
        let s = Stats::from_sorted("g", "l", &[1, 2, 3, 100]);
        assert_eq!(s.median_ns, 2.5);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.max_ns, 100.0);
    }

    #[test]
    fn json_line_shape() {
        let s = Stats::from_sorted("fig8/cpu", "tuned", &[5, 5, 5]);
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains(r#""group":"fig8/cpu""#));
        assert!(j.contains(r#""label":"tuned""#));
        assert!(j.contains(r#""median_ns":5"#));
        assert!(!j.contains('\n'));
    }

    #[test]
    fn json_escapes_special_chars() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn filtered_out_bench_does_not_run() {
        let h = Harness {
            filter: Some("nomatch".into()),
            warmup: 0,
            samples: 1,
        };
        let ran = std::cell::Cell::new(false);
        let r = h.bench("group", "label", || {
            ran.set(true);
            Duration::from_nanos(1)
        });
        assert!(r.is_none());
        assert!(!ran.get());
    }

    #[test]
    fn bench_runs_warmup_plus_samples() {
        let h = Harness {
            filter: None,
            warmup: 3,
            samples: 5,
        };
        let calls = std::cell::Cell::new(0u32);
        let stats = h
            .bench("group", "label", || {
                calls.set(calls.get() + 1);
                Duration::from_nanos(7)
            })
            .expect("not filtered");
        assert_eq!(calls.get(), 8);
        assert_eq!(stats.samples, 5);
        assert_eq!(stats.median_ns, 7.0);
    }
}
