//! The one function that makes every workload's inputs: universe, trace and drift,
//! derived from the seed argument alone.

use crate::Workload;
use mbta_graph::BipartiteGraph;
use mbta_market::benefit::edge_weights;
use mbta_market::{BenefitParams, Combiner};
use mbta_service::{Arrival, BenefitDrift};
use mbta_util::SplitMix64;
use mbta_workload::trace::{TraceFile, TraceSpec};
use mbta_workload::{Profile, WorkloadSpec};

/// Average eligibility degree per worker, shared by every workload.
pub const DEGREE: f64 = 8.0;
/// Skill/interest dimensionality of every generated market.
pub const SKILL_DIMS: usize = 8;
/// Share of lifecycle events followed by a benefit-drift update.
pub const DRIFT_RATE: f64 = 0.2;
/// Simulated trace period.
pub const HORIZON: f64 = 60.0;
/// Independent sessions per worker (and postings per task) in a trace.
pub const SESSIONS: u32 = 4;

/// Input size: the benchmark runs `Full`; the package's own tests run
/// every workload through the same code at `Reduced` size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports on.
    Full,
    /// A tenth of the universe and one session, for tests.
    Reduced,
}

/// One generated market: the universe, its weights and its event stream.
pub struct Market {
    /// Spec regenerating the universe (also written into trace files).
    pub spec: WorkloadSpec,
    /// The lifecycle trace without drift, as the cluster's trace files
    /// carry it.
    pub trace: TraceFile,
    /// The realized worker–task universe.
    pub graph: BipartiteGraph,
    /// Balanced mutual-benefit edge weights over `graph`.
    pub weights: Vec<f64>,
    /// The stream the bench offers: the trace with drift woven in.
    pub events: Vec<Arrival>,
}

/// Universe size `(workers, tasks)` and tenant count of a workload.
pub fn shape(workload: Workload, scale: Scale) -> (usize, usize, usize) {
    let (w, t, tenants) = match workload {
        Workload::ExactReplay => (500, 250, 1),
        Workload::ShardedRescue | Workload::OnlineStream => (2000, 1000, 1),
        Workload::ClusterTcp => (1000, 500, 2),
    };
    match scale {
        Scale::Full => (w, t, tenants),
        Scale::Reduced => (w / 10, t / 10, tenants),
    }
}

/// Builds every market of pass `pass` of `workload` from `seed`: each pass
/// of a run draws fresh markets, so a run measures many markets. The same
/// arguments give bit-identical inputs on every call.
pub fn build(
    workload: Workload,
    seed: u64,
    pass: u64,
    scale: Scale,
) -> Result<Vec<Market>, String> {
    let (n_workers, n_tasks, tenants) = shape(workload, scale);
    let sessions = match scale {
        Scale::Full => SESSIONS,
        Scale::Reduced => 1,
    };
    let root = SplitMix64::new(seed).derive(&format!("pass-{pass}"));
    (0..tenants)
        .map(|i| {
            let seed = root.derive(&format!("tenant-{i}")).next_u64();
            let spec = WorkloadSpec {
                profile: Profile::Uniform,
                n_workers,
                n_tasks,
                avg_worker_degree: DEGREE,
                skill_dims: SKILL_DIMS,
                seed,
            };
            let lifecycle = TraceSpec {
                horizon: HORIZON,
                mean_session: HORIZON * 0.2,
                mean_task_lifetime: HORIZON * 0.3,
                seed,
            }
            .generate_repeated(n_workers, n_tasks, sessions);
            let trace = TraceFile::new(spec, lifecycle).map_err(|e| format!("trace: {e}"))?;
            let graph = spec
                .generate()
                .realize(&BenefitParams::default())
                .map_err(|e| format!("universe: {e}"))?;
            let weights = edge_weights(&graph, Combiner::balanced());
            let events = BenefitDrift::new(&graph, DRIFT_RATE, seed)
                .weave(trace.events.iter().copied().map(Arrival::from_trace));
            Ok(Market {
                spec,
                trace,
                graph,
                weights,
                events,
            })
        })
        .collect()
}
