//! The in-process workloads: one `DispatchService` driven closed-loop by
//! `offer` → `pump`, then `finish`.

use crate::gates::{self, capacity_violations, same_value};
use crate::inputs::Market;
use crate::spans::{Breakdown, Tracer};
use crate::stats::{nan0, per, quantile};
use crate::telemetry::Probe;
use crate::{Gate, Layers, Pass, Workload};
use mbta_service::{
    Action, BatchConfig, BatchStats, BudgetMode, Decision, DecisionSink, DispatchService,
    DropPolicy, DurableStore, FsyncPolicy, OfferOutcome, OnlineConfig, Routing, ServiceConfig,
    ServiceReport, ShardPlan, StoreConfig, WriteSink,
};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Service shape of one in-process workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Shard count of the plan.
    pub shards: usize,
    /// Routing the plan is built with.
    pub routing: Routing,
    /// Solve budget per batch (or per fallback, online).
    pub budget: BudgetMode,
    /// Solver-pool width.
    pub threads: usize,
    /// Cross-shard boundary-rescue pass.
    pub boundary_pass: bool,
    /// Online drift threshold; `None` = micro-batching.
    pub online: Option<f64>,
    /// WAL settings; `None` = no store.
    pub wal: Option<StoreConfig>,
    /// Write the decision log to a file through `WriteSink`.
    pub write_log: bool,
}

/// The configuration each in-process workload runs.
pub fn config(workload: Workload) -> Config {
    match workload {
        Workload::ExactReplay => Config {
            shards: 1,
            routing: Routing::HashId,
            budget: BudgetMode::Deterministic,
            threads: 1,
            boundary_pass: false,
            online: None,
            wal: None,
            write_log: false,
        },
        Workload::ShardedRescue => Config {
            shards: 8,
            routing: Routing::MinCut,
            budget: BudgetMode::Wallclock(50),
            threads: 2,
            boundary_pass: true,
            online: None,
            wal: Some(StoreConfig {
                fsync: FsyncPolicy::Batch,
                snapshot_every: 16,
                ..StoreConfig::default()
            }),
            write_log: true,
        },
        Workload::OnlineStream => Config {
            shards: 1,
            routing: Routing::HashId,
            budget: BudgetMode::Wallclock(50),
            threads: 1,
            boundary_pass: false,
            online: Some(0.1),
            wal: Some(StoreConfig {
                fsync: FsyncPolicy::Batch,
                ..StoreConfig::default()
            }),
            write_log: false,
        },
        Workload::ClusterTcp => unreachable!("cluster_tcp is not an in-process workload"),
    }
}

fn service_config(c: &Config) -> ServiceConfig {
    ServiceConfig {
        batch: BatchConfig {
            max_events: 256,
            max_bytes: 64 * 1024,
            flush_interval: 10.0,
        },
        queue_cap: 4096,
        drop_policy: DropPolicy::Defer,
        budget: c.budget,
        threads: c.threads,
        boundary_pass: c.boundary_pass,
        replan_threshold: None,
        online: c
            .online
            .map(|drift_threshold| OnlineConfig { drift_threshold }),
        owned_shard: None,
    }
}

/// A writer that counts the bytes it passes on.
struct Counted<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for Counted<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// What the sink saw since the drive loop last asked.
#[derive(Default)]
struct Delivered {
    events: usize,
    calls: u64,
    solve_ms: f64,
    busy_s: f64,
    spans: Vec<(Instant, Instant)>,
}

/// The sink the bench supplies: optionally the program's `WriteSink` to a
/// file, plus a replay of every decision into the live assignment set.
struct BenchSink {
    log: Option<WriteSink<Counted<BufWriter<File>>>>,
    assigned: Vec<bool>,
    n_assigned: usize,
    replay_errors: u64,
    decisions: u64,
    solve_ms: Vec<f64>,
    batch_events: Vec<usize>,
    traced: bool,
    since: Delivered,
}

impl BenchSink {
    fn new(n_edges: usize, log: Option<File>, traced: bool) -> BenchSink {
        BenchSink {
            log: log.map(|f| {
                WriteSink::new(Counted {
                    inner: BufWriter::new(f),
                    bytes: 0,
                })
            }),
            assigned: vec![false; n_edges],
            n_assigned: 0,
            replay_errors: 0,
            decisions: 0,
            solve_ms: Vec::new(),
            batch_events: Vec::new(),
            traced,
            since: Delivered::default(),
        }
    }

    fn take(&mut self) -> Delivered {
        std::mem::take(&mut self.since)
    }

    fn apply(&mut self, d: &Decision) {
        let slot = &mut self.assigned[d.edge as usize];
        match d.action {
            Action::Assign if *slot => self.replay_errors += 1,
            Action::Unassign if !*slot => self.replay_errors += 1,
            Action::Assign => {
                *slot = true;
                self.n_assigned += 1;
            }
            Action::Unassign => {
                *slot = false;
                self.n_assigned -= 1;
            }
        }
    }

    fn assigned_edges(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.assigned.len() as u32).filter(|&e| self.assigned[e as usize])
    }

    /// Flushes the log and returns the bytes written, or the write error.
    fn close_log(&mut self) -> Result<u64, String> {
        let Some(log) = self.log.take() else {
            return Ok(0);
        };
        if let Some(e) = &log.error {
            return Err(format!("decision log write failed: {e}"));
        }
        let counted = log.into_inner();
        counted
            .inner
            .into_inner()
            .map_err(|e| format!("decision log flush failed: {}", e.error()))?;
        Ok(counted.bytes)
    }
}

impl DecisionSink for BenchSink {
    fn on_batch(&mut self, stats: &BatchStats, decisions: &[Decision]) {
        let t0 = Instant::now();
        if let Some(log) = self.log.as_mut() {
            log.on_batch(stats, decisions);
        }
        for d in decisions {
            self.apply(d);
        }
        let t1 = Instant::now();
        self.decisions += decisions.len() as u64;
        self.solve_ms.push(stats.solve_ms);
        self.batch_events.push(stats.events);
        self.since.events += stats.events;
        self.since.calls += 1;
        self.since.solve_ms += stats.solve_ms;
        self.since.busy_s += (t1 - t0).as_secs_f64();
        if self.traced {
            self.since.spans.push((t0, t1));
        }
    }
}

/// What set-up produced besides the service.
struct Setup {
    total_s: f64,
    plan_build_s: f64,
    store_open_s: f64,
    sink: BenchSink,
}

/// Sets up a service over `market` in `dir` (plan, service, store, sink)
/// and hands it to `f`.
fn with_service<R>(
    market: &Market,
    cfg: &Config,
    dir: &Path,
    traced: bool,
    f: impl FnOnce(DispatchService<'_>, Setup) -> R,
) -> Result<R, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let plan = ShardPlan::build(&market.graph, &market.weights, cfg.shards, cfg.routing);
    let plan_build_s = t0.elapsed().as_secs_f64();
    let mut svc = DispatchService::new(&market.graph, &plan, service_config(cfg));
    let mut store_open_s = 0.0;
    if let Some(store_cfg) = cfg.wal {
        let t = Instant::now();
        let (store, _) = DurableStore::open(&wal_dir(dir), store_cfg)
            .map_err(|e| format!("open WAL in {}: {e}", dir.display()))?;
        store_open_s = t.elapsed().as_secs_f64();
        svc.attach_store(store);
    }
    let log = if cfg.write_log {
        let path = dir.join("decisions.log");
        Some(File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?)
    } else {
        None
    };
    let sink = BenchSink::new(market.graph.n_edges(), log, traced);
    let setup = Setup {
        total_s: t0.elapsed().as_secs_f64(),
        plan_build_s,
        store_open_s,
        sink,
    };
    Ok(f(svc, setup))
}

fn wal_dir(dir: &Path) -> PathBuf {
    dir.join("wal")
}

/// One set-up without a stream, for the set-up time median.
pub fn setup_only(market: &Market, cfg: &Config, dir: &Path) -> Result<f64, String> {
    let s = with_service(market, cfg, dir, false, |_svc, setup| setup.total_s);
    let _ = std::fs::remove_dir_all(dir);
    s
}

/// Timings and tallies of the stream and finish phases.
#[derive(Default)]
struct Driven {
    offers: u64,
    deferrals: u64,
    dropped: u64,
    pumps: u64,
    stream_s: f64,
    finish_s: f64,
    wall_s: f64,
    offer_s: f64,
    offer_ns: Vec<f64>,
    pump_s: f64,
    dispatch_ms: Vec<f64>,
    pump_solve_s: f64,
    pump_sink_s: f64,
    pump_fsync_s: f64,
    fallback_pump_s: f64,
    sink_calls: u64,
    sink_busy_s: f64,
    decision_ms: Vec<f64>,
    live_value: f64,
}

/// Drives every event through `svc`, closed-loop, then finishes it.
fn drive(
    mut svc: DispatchService<'_>,
    market: &Market,
    online: bool,
    sink: &mut BenchSink,
    mut tracer: Option<&mut Tracer>,
) -> (ServiceReport, Driven) {
    let probe = Probe::new();
    let mut d = Driven {
        decision_ms: Vec::with_capacity(market.events.len()),
        ..Driven::default()
    };
    let mut pending: VecDeque<Instant> = VecDeque::new();
    let t_start = Instant::now();
    let run = tracer.as_deref_mut().map(|t| t.open("run", t_start, None));
    let fsync0 = probe.fsync();

    // Untraced passes read the clock only where a decision latency needs
    // it: after each offer and after each pump.
    let traced = tracer.is_some();
    let pump = |svc: &mut DispatchService<'_>,
                sink: &mut BenchSink,
                pending: &mut VecDeque<Instant>,
                d: &mut Driven,
                tracer: &mut Option<&mut Tracer>| {
        let fallbacks0 = traced.then(|| probe.fallbacks());
        let p0 = traced.then(Instant::now);
        svc.pump(sink);
        let p1 = Instant::now();
        let got = sink.take();
        let covered = if online {
            pending.len()
        } else {
            got.events.min(pending.len())
        };
        for t in pending.drain(..covered) {
            d.decision_ms.push((p1 - t).as_secs_f64() * 1e3);
        }
        d.pumps += 1;
        d.pump_solve_s += got.solve_ms * 1e-3;
        d.pump_sink_s += got.busy_s;
        d.sink_calls += got.calls;
        d.sink_busy_s += got.busy_s;
        if let (Some(t), Some(p0), Some(fallbacks0)) = (tracer.as_deref_mut(), p0, fallbacks0) {
            let dt = (p1 - p0).as_secs_f64();
            d.pump_s += dt;
            if online || got.calls > 0 {
                d.dispatch_ms.push(dt * 1e3);
            }
            if probe.fallbacks() > fallbacks0 {
                d.fallback_pump_s += dt;
            }
            let id = t.record("pump", p0, p1, run);
            for (s0, s1) in got.spans {
                t.record("sink", s0, s1, Some(id));
            }
        }
    };

    for &a in &market.events {
        loop {
            let o0 = traced.then(Instant::now);
            let outcome = svc.offer(a);
            let o1 = Instant::now();
            d.offers += 1;
            if let (Some(t), Some(o0)) = (tracer.as_deref_mut(), o0) {
                t.record("offer", o0, o1, run);
                d.offer_s += (o1 - o0).as_secs_f64();
                d.offer_ns.push((o1 - o0).as_nanos() as f64);
            }
            match outcome {
                OfferOutcome::Deferred => {
                    d.deferrals += 1;
                    pump(&mut svc, sink, &mut pending, &mut d, &mut tracer);
                    continue;
                }
                OfferOutcome::DroppedNewest | OfferOutcome::DroppedOldest => d.dropped += 1,
                _ => {}
            }
            pending.push_back(o1);
            break;
        }
        pump(&mut svc, sink, &mut pending, &mut d, &mut tracer);
    }
    let t_stream = Instant::now();
    d.stream_s = (t_stream - t_start).as_secs_f64();
    d.pump_fsync_s = probe.fsync() - fsync0;

    d.live_value = svc.current_value();
    let f0 = Instant::now();
    let report = svc.finish(sink);
    let f1 = Instant::now();
    d.finish_s = (f1 - f0).as_secs_f64();
    d.wall_s = (f1 - t_start).as_secs_f64();
    for t in pending.drain(..) {
        d.decision_ms.push((f1 - t).as_secs_f64() * 1e3);
    }
    let got = sink.take();
    d.sink_calls += got.calls;
    d.sink_busy_s += got.busy_s;
    if let Some(t) = tracer {
        let id = t.record("finish", f0, f1, run);
        for (s0, s1) in got.spans {
            t.record("sink", s0, s1, Some(id));
        }
        if let Some(run) = run {
            t.close(run, f1);
        }
    }
    (report, d)
}

/// Runs one pass of an in-process workload: set-up, stream, finish and
/// every gate.
pub fn run_pass(
    workload: Workload,
    market: &Market,
    dir: &Path,
    traced: bool,
) -> Result<Pass, String> {
    let cfg = config(workload);
    let probe = Probe::new();
    let before = probe.snapshot();
    let origin = Instant::now();
    let mut tracer = traced.then(|| Tracer::new(origin));
    let (report, driven, mut setup) = with_service(market, &cfg, dir, traced, |svc, mut setup| {
        let (report, driven) = drive(
            svc,
            market,
            cfg.online.is_some(),
            &mut setup.sink,
            tracer.as_mut(),
        );
        (report, driven, setup)
    })?;
    let sink_bytes = setup.sink.close_log();
    let sink = &setup.sink;
    let after = probe.snapshot();
    let delta = after.minus(&before);

    let mut gates = vec![
        Gate::new(
            "capacity_violations_zero",
            report.capacity_violations == 0
                && capacity_violations(&market.graph, sink.assigned_edges()) == 0,
            format!(
                "service reported {}, decision replay holds {} assignments",
                report.capacity_violations, sink.n_assigned
            ),
        ),
        Gate::new(
            "decision_log_replays",
            sink.replay_errors == 0 && sink.n_assigned == report.final_assignments,
            format!(
                "{} replay errors, {} replayed vs {} reported assignments",
                sink.replay_errors, sink.n_assigned, report.final_assignments
            ),
        ),
    ];
    let sink_bytes = match sink_bytes {
        Ok(b) => b,
        Err(e) => {
            gates.push(Gate::new("decision_log_written", false, e));
            0
        }
    };
    if report.store_error.is_some() {
        gates.push(Gate::new(
            "store_error_free",
            false,
            report.store_error.clone().unwrap_or_default(),
        ));
    }
    if workload == Workload::ExactReplay {
        let cold = gates::cold_exact_value(market);
        gates.push(Gate::new(
            "final_value_equals_cold_exact",
            same_value(cold, report.final_value),
            format!("cold exact {cold:.6}, service {:.6}", report.final_value),
        ));
        let live = gates::final_market(market);
        let replayed: f64 = sink
            .assigned_edges()
            .map(|e| live.weights[e as usize])
            .sum();
        gates.push(Gate::new(
            "decision_log_value_equals_cold_exact",
            same_value(cold, replayed),
            format!("decision log replays to {replayed:.6}, cold exact {cold:.6}"),
        ));
    }
    let mut recover_s = 0.0;
    if cfg.wal.is_some() {
        let (gate, s) = gates::recover_matches(
            "wal_recovers_report",
            &wal_dir(dir),
            &market.graph,
            report.final_assignments,
            report.final_value,
        );
        gates.push(gate);
        recover_s = s;
    }
    let _ = std::fs::remove_dir_all(dir);

    let failed_events =
        driven.deferrals + driven.dropped + report.invalid_events + report.foreign_events;
    let mut layers = Layers::zeroed();
    layers.set("partition.plan_build_s", setup.plan_build_s);
    layers.set("partition.cross_edges", report.cross_edges as f64);
    layers.set("partition.effective_retained", report.effective_retained);
    layers.set("partition.rescue_solves", report.rescue_solves as f64);
    layers.set("partition.rescued_weight", report.rescued_weight);
    layers.set("service.offer_calls", driven.offers as f64);
    if traced {
        layers.set("service.offer_busy_s", driven.offer_s);
        layers.set(
            "service.offer_ns_p99",
            nan0(quantile(&driven.offer_ns, 0.99)),
        );
    }
    layers.set("service.pump_calls", driven.pumps as f64);
    layers.set("service.dispatch_calls", driven.dispatch_ms.len() as f64);
    layers.set(
        "service.dispatch_ms_p50",
        nan0(quantile(&driven.dispatch_ms, 0.5)),
    );
    layers.set(
        "service.dispatch_ms_p99",
        nan0(quantile(&driven.dispatch_ms, 0.99)),
    );
    layers.set("service.batches", report.batches as f64);
    layers.set(
        "service.batch_events_mean",
        if sink.batch_events.is_empty() {
            0.0
        } else {
            sink.batch_events.iter().sum::<usize>() as f64 / sink.batch_events.len() as f64
        },
    );
    let solve_s = sink.solve_ms.iter().sum::<f64>() * 1e-3;
    layers.set("solver.solve_s", solve_s);
    layers.set("solver.solve_ms_p99", nan0(quantile(&sink.solve_ms, 0.99)));
    layers.set("solver.share", solve_s / driven.wall_s);
    layers.set("solver.tier_exact", report.tier_exact as f64);
    layers.set("solver.tier_approx", report.tier_approximate as f64);
    layers.set("solver.tier_degraded", report.tier_degraded as f64);
    layers.set("solver.reseeds", report.reseeds as f64);
    layers.set(
        "matching.mcmf_augmenting_paths_per_batch",
        per(delta.mcmf_paths as f64, report.batches as f64),
    );
    if cfg.online.is_some() {
        layers.set("online.events", report.online_events as f64);
        layers.set("online.exchanges", report.online_exchanges as f64);
        layers.set("online.fallbacks", report.online_fallbacks as f64);
        if traced {
            layers.set(
                "online.fallback_time_share",
                per(driven.fallback_pump_s, driven.pump_s),
            );
        }
        layers.set("warm.solves", delta.warm_solves as f64);
        layers.set("warm.hits", delta.warm_hits as f64);
        layers.set(
            "warm.hit_share",
            per(delta.warm_hits as f64, delta.warm_solves as f64),
        );
    }
    if cfg.wal.is_some() {
        layers.set("store.open_s", setup.store_open_s);
        layers.set("store.wal_records", report.wal_records as f64);
        layers.set("store.wal_bytes", report.wal_bytes as f64);
        layers.set("store.fsyncs", delta.fsyncs as f64);
        layers.set("store.fsync_s", delta.fsync_s);
        layers.set("store.snapshots", report.snapshots as f64);
        layers.set("store.snapshot_s", delta.snapshot_s);
        layers.set("store.recover_s", recover_s);
    }
    layers.set("sink.calls", driven.sink_calls as f64);
    layers.set("sink.busy_s", driven.sink_busy_s);
    layers.set("sink.decisions", sink.decisions as f64);
    if cfg.write_log {
        layers.set("sink.bytes", sink_bytes as f64);
    }
    layers.set("pool.threads", report.pool_threads as f64);
    layers.set("pool.steals", report.steals as f64);
    layers.set("pool.thread_busy_s", delta.pool_busy_s);

    let breakdown = traced.then(|| {
        Breakdown::new(
            driven.wall_s,
            driven.offer_s,
            driven.pump_s,
            driven.pump_solve_s,
            driven.pump_sink_s,
            driven.pump_fsync_s,
            driven.finish_s,
        )
    });
    if let Some(b) = &breakdown {
        layers.set("service.other_s", b.rows[4]);
        layers.set("trace.unattributed_share", b.unattributed_share());
    }

    Ok(Pass {
        traced,
        setup_s: setup.total_s,
        events: market.events.len() as u64,
        stream_s: driven.stream_s,
        finish_s: driven.finish_s,
        decision_ms: driven.decision_ms,
        ack_ms: Vec::new(),
        live_value: driven.live_value,
        final_value: report.final_value,
        peak_rss_mb: f64::NAN,
        solves: report.solves,
        tiers: [
            report.tier_exact,
            report.tier_approximate,
            report.tier_degraded,
        ],
        attempted: driven.offers,
        failed: failed_events,
        gates,
        layers,
        breakdown,
        tracer,
    })
}
