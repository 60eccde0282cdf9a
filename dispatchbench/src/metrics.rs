//! The metric catalog: every name `BENCHMARK.json` lists, with its unit.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit, better)`. Each applies to every
/// workload and is never 0.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("events_per_sec", "1/s", "higher"),
    ("finish_s", "s", "lower"),
    ("live_value", "weight", "higher"),
    ("final_value", "weight", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics: `(name, unit)`. A metric whose layer a workload does
/// not touch reads 0 there (and `n/a` in the detail report).
pub const PER_LAYER: [(&str, &str); 66] = [
    ("decision_p50_ms", "ms"),
    ("decision_p99_ms", "ms"),
    ("decision_p999_ms", "ms"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("exact_share", "ratio"),
    ("failed_frac", "ratio"),
    ("partition.plan_build_s", "s"),
    ("partition.cross_edges", "count"),
    ("partition.effective_retained", "ratio"),
    ("partition.rescue_solves", "count"),
    ("partition.rescued_weight", "weight"),
    ("service.offer_calls", "count"),
    ("service.offer_busy_s", "s"),
    ("service.offer_ns_p99", "ns"),
    ("service.pump_calls", "count"),
    ("service.dispatch_calls", "count"),
    ("service.dispatch_ms_p50", "ms"),
    ("service.dispatch_ms_p99", "ms"),
    ("service.batches", "count"),
    ("service.batch_events_mean", "events"),
    ("service.other_s", "s"),
    ("solver.solve_s", "s"),
    ("solver.solve_ms_p99", "ms"),
    ("solver.share", "ratio"),
    ("solver.tier_exact", "count"),
    ("solver.tier_approx", "count"),
    ("solver.tier_degraded", "count"),
    ("solver.reseeds", "count"),
    ("matching.mcmf_augmenting_paths_per_batch", "count"),
    ("online.events", "count"),
    ("online.exchanges", "count"),
    ("online.fallbacks", "count"),
    ("online.fallback_time_share", "ratio"),
    ("warm.solves", "count"),
    ("warm.hits", "count"),
    ("warm.hit_share", "ratio"),
    ("store.open_s", "s"),
    ("store.wal_records", "count"),
    ("store.wal_bytes", "bytes"),
    ("store.fsyncs", "count"),
    ("store.fsync_s", "s"),
    ("store.snapshots", "count"),
    ("store.snapshot_s", "s"),
    ("store.recover_s", "s"),
    ("sink.calls", "count"),
    ("sink.busy_s", "s"),
    ("sink.decisions", "count"),
    ("sink.bytes", "bytes"),
    ("pool.threads", "count"),
    ("pool.steals", "count"),
    ("pool.thread_busy_s", "s"),
    ("net.requests", "count"),
    ("net.retry_after", "count"),
    ("net.frames", "count"),
    ("net.bytes", "bytes"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("cluster.admitted", "count"),
    ("cluster.forwarded", "count"),
    ("cluster.degraded", "count"),
    ("cluster.cross_drops", "count"),
    ("cluster.owner_skew", "ratio"),
    ("cluster.fin_drain_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
];

/// Unit of a catalog metric.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER.iter().copied())
        .find(|&(n, _)| n == name)
        .map_or_else(|| panic!("metric {name} is not in the catalog"), |(_, u)| u)
}

/// One pass's per-layer values, keyed by catalog name.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    touched: BTreeMap<&'static str, bool>,
}

impl Layers {
    /// Every per-layer metric at 0, none touched yet.
    pub fn zeroed() -> Layers {
        Layers {
            values: PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect(),
            touched: PER_LAYER.iter().map(|&(n, _)| (n, false)).collect(),
        }
    }

    /// Sets a metric and marks it as applying to this workload.
    ///
    /// # Panics
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, v: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|&&(n, _)| n == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not in the catalog"));
        self.values.insert(key, v);
        self.touched.insert(key, true);
    }

    /// A metric's value (0 when it does not apply).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Whether the workload touched the metric's layer.
    pub fn applies(&self, name: &str) -> bool {
        self.touched.get(name).copied().unwrap_or(false)
    }
}
