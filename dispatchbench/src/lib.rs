//! The dispatch benchmark.
//!
//! One command runs one named workload in-process from inputs generated
//! from a seed, checks the outputs with independent correctness gates, and
//! prints every end-to-end metric by name with its unit:
//!
//! ```text
//! cargo run --release --offline --manifest-path dispatchbench/Cargo.toml -- \
//!     --workload exact_replay --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every load is closed-loop: the bench offers the next event only after
//! `pump` returned (in-process), and a client sends its next request only
//! after the reply to the previous one (`cluster_tcp`, two connections).
//! A run repeats whole passes (set-up, stream, finish, gates) until the
//! measuring time is used, and reports medians over passes.
//!
//! With `--trace 1` the bench alternates untraced and traced passes. A
//! traced pass records spans around its calls into the program (`run` >
//! `offer` / `pump` / `finish` > `sink`), reads the counters the program
//! already exports, and prints the per-layer metrics instead; the
//! untraced passes give the tracing overhead. Spans and the full report
//! are written under `.bench_work/results/` in the working directory.

#![warn(missing_docs)]

pub mod cluster;
pub mod gates;
pub mod inproc;
pub mod inputs;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod stats;
pub mod telemetry;

use inputs::Scale;
use metrics::Layers;
use spans::{Breakdown, Tracer};
use std::path::Path;
use std::time::Instant;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1k×500, one shard, deterministic exact solves, no WAL.
    ExactReplay,
    /// 2k×1k on 8 min-cut shards with boundary rescue, WAL and decision log.
    ShardedRescue,
    /// 2k×1k, one shard, per-event online dispatch with a WAL.
    OnlineStream,
    /// Router plus two shard owners over loopback TCP, two tenants.
    ClusterTcp,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ExactReplay,
        Workload::ShardedRescue,
        Workload::OnlineStream,
        Workload::ClusterTcp,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExactReplay => "exact_replay",
            Workload::ShardedRescue => "sharded_rescue",
            Workload::OnlineStream => "online_stream",
            Workload::ClusterTcp => "cluster_tcp",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One correctness gate's outcome.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Stable gate name.
    pub name: String,
    /// Whether the check held.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

impl Gate {
    /// A gate outcome.
    pub fn new(name: &str, ok: bool, detail: String) -> Gate {
        Gate {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// Everything one pass measured.
pub struct Pass {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Inputs to ready-to-serve.
    pub setup_s: f64,
    /// Events offered or sent.
    pub events: u64,
    /// The stream phase the throughput is taken over.
    pub stream_s: f64,
    /// The closing drain.
    pub finish_s: f64,
    /// Per-event decision latencies (in-process workloads).
    pub decision_ms: Vec<f64>,
    /// Per-request acknowledgement latencies (`cluster_tcp`).
    pub ack_ms: Vec<f64>,
    /// Assignment value just before the closing drain.
    pub live_value: f64,
    /// Assignment value after it.
    pub final_value: f64,
    /// Peak resident memory of the process during the pass, in MiB.
    pub peak_rss_mb: f64,
    /// Tiered solves.
    pub solves: u64,
    /// Solves at the exact, approximate and degraded tier.
    pub tiers: [u64; 3],
    /// Operations attempted: events offered or sent, plus requests.
    pub attempted: u64,
    /// Operations refused or lost.
    pub failed: u64,
    /// Correctness gates.
    pub gates: Vec<Gate>,
    /// Per-layer metrics of this pass.
    pub layers: Layers,
    /// Time breakdown (traced passes).
    pub breakdown: Option<Breakdown>,
    /// Spans (traced passes).
    pub tracer: Option<Tracer>,
}

impl Pass {
    /// Events per second over the stream phase.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.stream_s
    }
}

/// A whole run: every pass plus the set-up samples.
pub struct Run {
    /// Workload run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Whether this is a traced run.
    pub trace: bool,
    /// Passes in order.
    pub passes: Vec<Pass>,
    /// Set-up times: one per pass plus any set-up-only repetitions.
    pub setup_s: Vec<f64>,
    /// Events over all passes.
    pub input_events: u64,
}

/// Extra set-up-only repetitions per pass of an in-process workload, so
/// the set-up median rests on more samples than there are passes.
pub const SETUP_EXTRA: usize = 5;
/// A run starts no new pass after this many seconds, whatever it was
/// asked to measure.
pub const HARD_CAP_S: f64 = 120.0;

/// Runs `workload` on inputs from `seed` for about `seconds`, with scratch
/// files under `work`. Pass `k` runs the markets `inputs::build` derives
/// from `(seed, k)`; a traced run alternates an untraced and a traced pass
/// over each market.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    work: &Path,
) -> Result<Run, String> {
    let start = Instant::now();
    let min_passes = if trace { 2 } else { 1 };
    let mut setup_s = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut input_events = 0;
    loop {
        let k = passes.len();
        let traced = trace && k % 2 == 1;
        // A traced run gives each market an untraced and a traced pass, so
        // the tracing overhead compares identical inputs.
        let market = if trace { k / 2 } else { k };
        let markets = inputs::build(workload, seed, market as u64, scale)?;
        input_events += markets.iter().map(|m| m.events.len() as u64).sum::<u64>();
        let dir = work.join(format!("pass-{k}"));
        stats::reset_peak_rss();
        let mut pass = if workload == Workload::ClusterTcp {
            let inputs = cluster::Inputs::write(&markets, &dir.join("traces"))?;
            cluster::run_pass(&inputs, &dir.join("cluster"), traced)?
        } else {
            let cfg = inproc::config(workload);
            for i in 0..SETUP_EXTRA {
                let dir = dir.join(format!("setup-{i}"));
                setup_s.push(inproc::setup_only(&markets[0], &cfg, &dir)?);
            }
            inproc::run_pass(workload, &markets[0], &dir, traced)?
        };
        let _ = std::fs::remove_dir_all(&dir);
        pass.peak_rss_mb = stats::peak_rss_mb().unwrap_or(f64::NAN);
        if pass.tracer.is_some() {
            // Only the last traced pass's spans are written out.
            for p in &mut passes {
                p.tracer = None;
            }
        }
        setup_s.push(pass.setup_s);
        passes.push(pass);
        // Start another pass only if it should end within half a pass of
        // the measuring time, so runs overshoot and undershoot alike.
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= min_passes
            && (elapsed + per_pass / 2.0 > seconds || elapsed > HARD_CAP_S)
        {
            break;
        }
    }
    Ok(Run {
        workload,
        seed,
        trace,
        passes,
        setup_s,
        input_events,
    })
}
