//! `repro --profile` support: per-backend attribution tables built from
//! telemetry snapshot deltas.
//!
//! Every backend accounts its full reported time — simulated cycles for
//! the three simulators, wall-clock nanoseconds for the CPU GraphVM — to a
//! fixed set of components whose sum equals the total *exactly* (the
//! invariant `tests/telemetry_invariants.rs` enforces). This module reads
//! those component sets out of telemetry snapshots, using the counter
//! names each backend declares, and renders them.

use ugc::{Algorithm, Target};
use ugc_graph::{Dataset, Graph, Scale};
use ugc_telemetry::{AttributionKeys, Collector, Snapshot};

use crate::{baseline_schedule, try_measure};

/// One backend's time attribution, extracted from a snapshot delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// Which backend this describes.
    pub target: Target,
    /// `"cycles"` for the simulators, `"ns"` for the CPU backend.
    pub unit: &'static str,
    /// `(component, amount)` in display order.
    pub components: Vec<(&'static str, u64)>,
    /// The backend's reported total for the same window.
    pub total: u64,
}

/// The registry keys of `target`'s attribution, as declared by the crate
/// that registers those counters.
#[must_use]
pub fn attribution_keys(target: Target) -> &'static AttributionKeys {
    match target {
        Target::Cpu => &ugc_backend_cpu::ATTRIBUTION,
        Target::Gpu => &ugc_sim_gpu::ATTRIBUTION,
        Target::Swarm => &ugc_sim_swarm::ATTRIBUTION,
        Target::HammerBlade => &ugc_sim_hb::ATTRIBUTION,
    }
}

/// Extracts `target`'s attribution from a snapshot delta.
#[must_use]
pub fn attribution_from(target: Target, delta: &Snapshot) -> Attribution {
    let keys = attribution_keys(target);
    Attribution {
        target,
        unit: keys.unit,
        components: keys
            .components
            .iter()
            .map(|&(label, key)| (label, delta.value(key)))
            .collect(),
        total: delta.value(keys.total),
    }
}

impl Attribution {
    /// Sum of the components — equal to [`Attribution::total`] whenever
    /// telemetry was enabled for the whole measured window.
    #[must_use]
    pub fn component_sum(&self) -> u64 {
        self.components.iter().map(|(_, v)| v).sum()
    }

    /// Whether the components account for the reported total exactly.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.component_sum() == self.total
    }

    /// Renders the human-readable attribution table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14}{:>16}{:>8}\n",
            "component", self.unit, "share"
        ));
        for &(label, v) in &self.components {
            let pct = if self.total == 0 {
                0.0
            } else {
                100.0 * v as f64 / self.total as f64
            };
            out.push_str(&format!("{label:<14}{v:>16}{pct:>7.1}%\n"));
        }
        out.push_str(&format!(
            "{:<14}{:>16}{:>8}  ({})\n",
            "total",
            self.total,
            "100.0%",
            if self.is_consistent() {
                "components sum to total"
            } else {
                "ATTRIBUTION MISMATCH"
            }
        ));
        out
    }

    /// One-line summary for tuning logs: the top components by share,
    /// e.g. `mem_stall 62% + compute 21% of 123456 cycles`. Empty when
    /// nothing was recorded (telemetry off or an idle window).
    #[must_use]
    pub fn summary(&self) -> String {
        if self.total == 0 {
            return String::new();
        }
        let mut ranked: Vec<(&str, u64)> = self
            .components
            .iter()
            .copied()
            .filter(|&(_, v)| v > 0)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let parts: Vec<String> = ranked
            .iter()
            .take(2)
            .map(|&(label, v)| format!("{label} {:.0}%", 100.0 * v as f64 / self.total as f64))
            .collect();
        format!("{} of {} {}", parts.join(" + "), self.total, self.unit)
    }
}

/// Like [`try_measure`], but also captures the run's attribution summary
/// from the telemetry registry (empty when telemetry is disabled).
///
/// # Errors
///
/// Returns the compile/execution error message on failure.
pub fn try_measure_profiled(
    target: Target,
    algo: Algorithm,
    graph: &Graph,
    sched: ugc_schedule::ScheduleRef,
    cpu_reps: u32,
) -> Result<(crate::Measurement, String), String> {
    let col = Collector::start();
    let m = try_measure(target, algo, graph, sched, cpu_reps)?;
    let profile = attribution_from(target, &col.snapshot()).summary();
    Ok((m, profile))
}

/// The workload `repro --profile` runs per backend: PageRank (all-active,
/// bandwidth-shaped) plus BFS (frontier-driven) on a power-law graph, each
/// under the backend's default schedule.
///
/// Returns the attribution plus the full backend-prefixed snapshot delta
/// (attribution, events, and histograms) for appending to `BENCH_*.json`.
///
/// # Panics
///
/// Panics if a default-schedule run fails — that is a build bug, not a
/// usage error.
#[must_use]
pub fn profile_backend(target: Target, scale: Scale) -> (Attribution, Snapshot) {
    let graph = Dataset::Pokec.generate(scale);
    let col = Collector::start();
    for algo in [Algorithm::PageRank, Algorithm::Bfs] {
        let sched = baseline_schedule(target, algo);
        try_measure(target, algo, &graph, sched, 1).expect("profile workload runs");
    }
    let delta = col.snapshot_prefix(attribution_keys(target).prefix);
    (attribution_from(target, &delta), delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_backend_accounts_for_every_cycle() {
        // Exact component-sum == total is asserted in
        // tests/telemetry_invariants.rs, whose binary serializes its
        // measurements; here sibling tests run backends concurrently, so a
        // registry delta may straddle another thread's update.
        for target in Target::ALL {
            let (attr, delta) = profile_backend(target, Scale::Tiny);
            if ugc_telemetry::enabled() {
                assert!(attr.total > 0, "{}: empty profile", target.name());
                assert!(!attr.summary().is_empty());
                assert!(!delta.is_empty());
            } else {
                assert_eq!(attr.total, 0);
                assert!(attr.summary().is_empty());
                assert!(delta.is_empty());
            }
        }
    }

    #[test]
    fn summary_names_the_dominant_component() {
        let attr = Attribution {
            target: Target::Gpu,
            unit: "cycles",
            components: vec![("compute", 25), ("mem_stall", 70), ("launch", 5)],
            total: 100,
        };
        assert!(attr.is_consistent());
        assert_eq!(attr.summary(), "mem_stall 70% + compute 25% of 100 cycles");
    }
}
