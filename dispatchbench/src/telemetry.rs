//! Reads of the counters and histograms the program already exports
//! through `mbta_telemetry::global()`.

use mbta_telemetry::{global, Counter, Histogram, MetricEntry};
use std::sync::Arc;

/// Handles to the global metrics the bench reads on its hot path.
pub struct Probe {
    fallbacks: Arc<Counter>,
    fsync_ms: Arc<Histogram>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

impl Probe {
    /// Looks the metrics up once.
    pub fn new() -> Probe {
        Probe {
            fallbacks: global().counter("mbta_service_online_fallbacks_total"),
            fsync_ms: global().histogram("mbta_store_fsync_ms"),
        }
    }

    /// Online fallbacks so far.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.get()
    }

    /// Seconds spent in WAL fsyncs so far.
    pub fn fsync(&self) -> f64 {
        self.fsync_ms.sum() * 1e-3
    }

    /// Every cumulative value the per-layer metrics use.
    pub fn snapshot(&self) -> Counts {
        let c = |name: &str| global().counter(name).get();
        let h = |name: &str| global().histogram(name);
        let pool_busy_ms: f64 = global()
            .entries()
            .into_iter()
            .filter(|(name, _)| name.starts_with("mbta_service_pool_thread_busy_ms"))
            .map(|(_, e)| match e {
                MetricEntry::Histogram(h) => h.sum(),
                _ => 0.0,
            })
            .sum();
        Counts {
            mcmf_paths: c("mbta_matching_mcmf_augmenting_paths_total"),
            warm_solves: c("mbta_core_warm_solves_total"),
            warm_hits: c("mbta_core_warm_hits_total"),
            fsyncs: h("mbta_store_fsync_ms").count(),
            fsync_s: h("mbta_store_fsync_ms").sum() * 1e-3,
            snapshot_s: h("mbta_store_snapshot_ms").sum() * 1e-3,
            pool_busy_s: pool_busy_ms * 1e-3,
            net_frames: c("mbta_net_frames_total"),
            net_bytes: c("mbta_net_bytes_total"),
            net_retry_after: c("mbta_net_retry_after_total"),
        }
    }
}

/// Cumulative metric values at one instant; subtract two for a delta.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// MCMF augmenting paths.
    pub mcmf_paths: u64,
    /// Warm-started exact solves.
    pub warm_solves: u64,
    /// Warm solves that kept their warm state.
    pub warm_hits: u64,
    /// WAL fsyncs.
    pub fsyncs: u64,
    /// Seconds in WAL fsyncs.
    pub fsync_s: f64,
    /// Seconds writing snapshots.
    pub snapshot_s: f64,
    /// Seconds the solver pool's threads were busy.
    pub pool_busy_s: f64,
    /// Frames the network servers read.
    pub net_frames: u64,
    /// Bytes the network servers read.
    pub net_bytes: u64,
    /// RETRY-AFTER replies the network servers sent.
    pub net_retry_after: u64,
}

impl Counts {
    /// `self - earlier`, field by field.
    pub fn minus(&self, earlier: &Counts) -> Counts {
        Counts {
            mcmf_paths: self.mcmf_paths - earlier.mcmf_paths,
            warm_solves: self.warm_solves - earlier.warm_solves,
            warm_hits: self.warm_hits - earlier.warm_hits,
            fsyncs: self.fsyncs - earlier.fsyncs,
            fsync_s: self.fsync_s - earlier.fsync_s,
            snapshot_s: self.snapshot_s - earlier.snapshot_s,
            pool_busy_s: self.pool_busy_s - earlier.pool_busy_s,
            net_frames: self.net_frames - earlier.net_frames,
            net_bytes: self.net_bytes - earlier.net_bytes,
            net_retry_after: self.net_retry_after - earlier.net_retry_after,
        }
    }
}
