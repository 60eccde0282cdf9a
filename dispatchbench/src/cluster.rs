//! The `cluster_tcp` workload: an in-process router plus shard owners on
//! loopback TCP, fed by one client connection per tenant.

use crate::gates::{capacity_violations, same_value};
use crate::inputs::Market;
use crate::spans::{Breakdown, Tracer};
use crate::stats::per;
use crate::telemetry::Probe;
use crate::{Gate, Layers, Pass};
use mbta_cluster::{router, worker, RouterConfig, WorkerConfig, WorkerSummary};
use mbta_net::{decode_request, encode_request, Client, Reply, Request, ShardReportInfo};
use mbta_service::shard::UNMAPPED;
use mbta_service::{DeferBackoff, FsyncPolicy, Routing, ServiceEvent, ShardPlan};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

/// Shard owners in the cluster.
pub const OWNERS: usize = 2;
/// Events per client `EVENT_BATCH`.
pub const CLIENT_BATCH: usize = 64;
/// Ingress queue capacity of the router and each owner: room for a whole
/// pass, so a closed-loop client is never refused.
const QUEUE_CAP: usize = 1 << 16;
/// How long an owner keeps answering after its final report.
const LINGER_MS: u64 = 300;
/// Poll spacing while waiting on owners.
const POLL: Duration = Duration::from_millis(1);
/// Longest wait for any cluster condition before the pass fails.
const WAIT: Duration = Duration::from_secs(60);

/// Trace files on disk (the cluster's topology is its ordered trace list)
/// and what routing should do with each tenant's stream.
pub struct Inputs<'m> {
    markets: &'m [Market],
    traces: Vec<PathBuf>,
    /// Events the router should forward (all but cross-shard benefit
    /// updates under the hash plan).
    forwardable: u64,
}

impl<'m> Inputs<'m> {
    /// Writes each tenant's trace file under `work`.
    pub fn write(markets: &'m [Market], work: &Path) -> Result<Inputs<'m>, String> {
        std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
        let mut traces = Vec::new();
        let mut forwardable = 0u64;
        for (i, m) in markets.iter().enumerate() {
            let path = work.join(format!("tenant-{i}.trace"));
            std::fs::write(&path, m.trace.render())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            traces.push(path);
            let plan = ShardPlan::build(&m.graph, &m.weights, OWNERS, Routing::HashId);
            forwardable += m
                .events
                .iter()
                .filter(|a| match a.event {
                    ServiceEvent::BenefitUpdate { edge, .. } => {
                        plan.edge_shard[edge as usize] != UNMAPPED
                    }
                    _ => true,
                })
                .count() as u64;
        }
        Ok(Inputs {
            markets,
            traces,
            forwardable,
        })
    }
}

/// One client connection's tallies.
#[derive(Default)]
struct Sent {
    events: u64,
    requests: u64,
    retry_after: u64,
    ack_ms: Vec<f64>,
    encode_ns: f64,
    decode_ns: f64,
    codec_calls: u64,
    spans: Vec<(Instant, Instant)>,
}

/// Sends one tenant's stream on its own connection, closed-loop.
fn send_tenant(addr: &str, ns: u32, market: &Market, traced: bool) -> Result<Sent, String> {
    let mut client = Client::connect_retry(addr, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let mut backoff = DeferBackoff::new(5, 500, u64::from(ns));
    let mut sent = Sent::default();
    for chunk in market.events.chunks(CLIENT_BATCH) {
        let req = Request::EventBatch {
            ns,
            events: chunk.to_vec(),
        };
        if traced {
            let t0 = Instant::now();
            let payload = encode_request(&req);
            let t1 = Instant::now();
            let decoded = decode_request(&payload);
            let t2 = Instant::now();
            if decoded.as_ref() != Ok(&req) {
                return Err("wire round trip changed an EVENT_BATCH".into());
            }
            sent.encode_ns += (t1 - t0).as_nanos() as f64;
            sent.decode_ns += (t2 - t1).as_nanos() as f64;
            sent.codec_calls += 1;
        }
        let first = Instant::now();
        loop {
            let r0 = Instant::now();
            let reply = client.request(&req);
            let r1 = Instant::now();
            sent.requests += 1;
            if traced {
                sent.spans.push((r0, r1));
            }
            match reply {
                Ok(Reply::Ok { accepted }) => {
                    sent.events += u64::from(accepted);
                    sent.ack_ms.push((r1 - first).as_secs_f64() * 1e3);
                    backoff.reset();
                    break;
                }
                Ok(Reply::RetryAfter { hint_ms }) => {
                    sent.retry_after += 1;
                    let wait = backoff
                        .next_delay()
                        .max(Duration::from_millis(hint_ms.into()));
                    thread::sleep(wait);
                }
                Ok(other) => return Err(format!("EVENT_BATCH answered with {other:?}")),
                Err(e) => return Err(format!("EVENT_BATCH failed: {e}")),
            }
        }
    }
    Ok(sent)
}

/// Asks an owner for its report.
fn report(client: &mut Client) -> Result<ShardReportInfo, String> {
    match client.request(&Request::QueryReport) {
        Ok(Reply::ShardReport(info)) => Ok(info),
        Ok(other) => Err(format!("QUERY_REPORT answered with {other:?}")),
        Err(e) => Err(format!("QUERY_REPORT failed: {e}")),
    }
}

/// Polls every owner until `done` holds for all of them; returns the
/// last reports.
fn wait_owners(
    pollers: &mut [Client],
    what: &str,
    done: impl Fn(&[ShardReportInfo]) -> bool,
) -> Result<Vec<ShardReportInfo>, String> {
    let deadline = Instant::now() + WAIT;
    loop {
        let reports = pollers
            .iter_mut()
            .map(report)
            .collect::<Result<Vec<_>, String>>()?;
        if done(&reports) {
            return Ok(reports);
        }
        if Instant::now() >= deadline {
            return Err(format!("owners never reached {what}: {reports:?}"));
        }
        thread::sleep(POLL);
    }
}

/// Runs one pass: spawn, stream, drain, join, gates.
pub fn run_pass(inputs: &Inputs<'_>, dir: &Path, traced: bool) -> Result<Pass, String> {
    let probe = Probe::new();
    let before = probe.snapshot();
    let tenants = inputs.markets.len() as u32;

    // Set-up: owners, router, and owners ready to serve.
    let t0 = Instant::now();
    let mut workers = Vec::with_capacity(OWNERS);
    for s in 0..OWNERS {
        let mut wc = WorkerConfig::new(inputs.traces.clone(), s, OWNERS);
        wc.wal_dir = Some(dir.join(format!("owner-{s}")));
        wc.fsync = FsyncPolicy::Batch;
        wc.queue_cap = QUEUE_CAP;
        wc.threads = 1;
        wc.linger_ms = LINGER_MS;
        workers.push(worker::spawn(wc)?);
    }
    let owners: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let mut rc = RouterConfig::new(inputs.traces.clone(), owners.clone());
    rc.queue_cap = QUEUE_CAP;
    let router = router::spawn(rc)?;
    let addr = router.addr().to_string();
    let mut pollers = owners
        .iter()
        .map(|a| Client::connect_retry(a, Duration::from_secs(10)).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    wait_owners(&mut pollers, "ready", |r| {
        r.iter().all(|i| i.namespaces == tenants)
    })?;
    let setup_s = t0.elapsed().as_secs_f64();

    // Stream: one closed-loop connection per tenant.
    let t_send = Instant::now();
    let sent: Vec<Sent> = thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .markets
            .iter()
            .enumerate()
            .map(|(ns, m)| {
                let addr = &addr;
                scope.spawn(move || send_tenant(addr, ns as u32, m, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let t_sent = Instant::now();
    wait_owners(&mut pollers, "the end of the stream", |r| {
        r.iter().map(|i| i.events).sum::<u64>() >= inputs.forwardable
    })?;
    let live_value: f64 = pollers
        .iter_mut()
        .map(|c| match c.request(&Request::QueryStatus) {
            Ok(Reply::Status(s)) => Ok(s.total_weight),
            other => Err(format!("QUERY_STATUS answered with {other:?}")),
        })
        .sum::<Result<f64, String>>()?;

    // Closing drain: FIN, router join, owners' final reports.
    let t_fin = Instant::now();
    Client::connect(&addr, Duration::from_secs(5))
        .and_then(|mut c| {
            c.request(&Request::Fin)
                .map(|_| ())
                .map_err(|e| std::io::Error::other(e.to_string()))
        })
        .map_err(|e| format!("FIN failed: {e}"))?;
    let rs = router.join()?;
    let t_router = Instant::now();
    // An owner's report carries its decision count only once `finish` ran.
    let finals = wait_owners(&mut pollers, "their final report", |r| {
        r.iter().all(|i| i.decisions > 0)
    })?;
    let t_final = Instant::now();
    drop(pollers);
    let summaries = workers
        .into_iter()
        .map(|w| w.join())
        .collect::<Result<Vec<WorkerSummary>, String>>()?;
    let after = probe.snapshot();
    let delta = after.minus(&before);

    let mut gates = vec![
        Gate::new(
            "router_conserved",
            rs.conserved(),
            format!(
                "admitted {} = forwarded {} + degraded {} + invalid {} + cross {} + unknown {}",
                rs.admitted,
                rs.forwarded,
                rs.degraded,
                rs.invalid,
                rs.cross_benefit,
                rs.unknown_namespace
            ),
        ),
        Gate::new(
            "owners_applied_forwarded",
            summaries.iter().map(|s| s.events).sum::<u64>() == rs.forwarded
                && rs.forwarded == inputs.forwardable,
            format!(
                "owners applied {}, router forwarded {}, routing expects {}",
                summaries.iter().map(|s| s.events).sum::<u64>(),
                rs.forwarded,
                inputs.forwardable
            ),
        ),
    ];
    let final_value: f64 = summaries
        .iter()
        .flat_map(|s| &s.reports)
        .map(|r| r.final_value)
        .sum();
    let observed: f64 = finals.iter().map(|r| r.total_weight).sum();
    gates.push(Gate::new(
        "final_reports_observed",
        same_value(observed, final_value)
            && finals.iter().map(|r| r.decisions).sum::<u64>()
                == summaries
                    .iter()
                    .flat_map(|s| &s.reports)
                    .map(|r| r.decisions)
                    .sum::<u64>(),
        format!("polled {observed:.6}, owners finished with {final_value:.6}"),
    ));

    // Capacity: the owners' own count, then an independent check of each
    // tenant's recovered WALs taken together.
    let mut recover_s = 0.0;
    let mut recovered_violations = 0usize;
    let mut recover_detail = Vec::new();
    for (ns, m) in inputs.markets.iter().enumerate() {
        let mut edges = Vec::new();
        for (s, summary) in summaries.iter().enumerate() {
            let wal = dir.join(format!("owner-{s}")).join(format!("ns-{ns}"));
            let t = Instant::now();
            let state = mbta_service::recover(&wal).map_err(|e| format!("recover {e}"))?;
            recover_s += t.elapsed().as_secs_f64();
            let r = &summary.reports[ns];
            if state.assignments() != r.final_assignments
                || !same_value(state.total_weight(), r.final_value)
            {
                recover_detail.push(format!(
                    "owner {s} ns {ns}: recovered {} worth {:.6}, reported {} worth {:.6}",
                    state.assignments(),
                    state.total_weight(),
                    r.final_assignments,
                    r.final_value
                ));
            }
            edges.extend(state.shards.iter().flatten().copied());
        }
        recovered_violations += capacity_violations(&m.graph, edges);
    }
    let reported_violations: u64 = summaries.iter().map(|s| s.violations()).sum();
    gates.push(Gate::new(
        "capacity_violations_zero",
        reported_violations == 0 && recovered_violations == 0,
        format!(
            "owners reported {reported_violations}, recovered WALs hold {recovered_violations}"
        ),
    ));
    gates.push(Gate::new(
        "wal_recovers_report",
        recover_detail.is_empty(),
        if recover_detail.is_empty() {
            "every owner's WAL recovers its report".to_string()
        } else {
            recover_detail.join("; ")
        },
    ));
    let _ = std::fs::remove_dir_all(dir);

    let events: u64 = sent.iter().map(|s| s.events).sum();
    let requests: u64 = sent.iter().map(|s| s.requests).sum();
    let retry_after: u64 = sent.iter().map(|s| s.retry_after).sum();
    let foreign: u64 = summaries.iter().map(|s| s.foreign_events()).sum();
    let reports = || summaries.iter().flat_map(|s| &s.reports);
    let tiers = [
        reports().map(|r| r.tier_exact).sum(),
        reports().map(|r| r.tier_approximate).sum(),
        reports().map(|r| r.tier_degraded).sum(),
    ];
    let batches: u64 = reports().map(|r| r.batches).sum();
    let ack_ms: Vec<f64> = sent.iter().flat_map(|s| s.ack_ms.iter().copied()).collect();

    let stream_s = (t_router - t_send).as_secs_f64();
    let fin_drain_s = (t_router - t_fin).as_secs_f64();
    let finish_s = (t_router.max(t_final) - t_fin).as_secs_f64();

    let mut layers = Layers::zeroed();
    layers.set(
        "partition.cross_edges",
        reports().map(|r| r.cross_edges as f64).sum(),
    );
    layers.set("service.batches", batches as f64);
    layers.set("solver.tier_exact", tiers[0] as f64);
    layers.set("solver.tier_approx", tiers[1] as f64);
    layers.set("solver.tier_degraded", tiers[2] as f64);
    layers.set("solver.reseeds", reports().map(|r| r.reseeds as f64).sum());
    layers.set(
        "matching.mcmf_augmenting_paths_per_batch",
        per(delta.mcmf_paths as f64, batches as f64),
    );
    layers.set(
        "store.wal_records",
        reports().map(|r| r.wal_records as f64).sum(),
    );
    layers.set(
        "store.wal_bytes",
        reports().map(|r| r.wal_bytes as f64).sum(),
    );
    layers.set("store.fsyncs", delta.fsyncs as f64);
    layers.set("store.fsync_s", delta.fsync_s);
    layers.set(
        "store.snapshots",
        reports().map(|r| r.snapshots as f64).sum(),
    );
    layers.set("store.snapshot_s", delta.snapshot_s);
    layers.set("store.recover_s", recover_s);
    layers.set("net.requests", requests as f64);
    layers.set("net.retry_after", retry_after as f64);
    layers.set("net.frames", delta.net_frames as f64);
    layers.set("net.bytes", delta.net_bytes as f64);
    let codec_calls: u64 = sent.iter().map(|s| s.codec_calls).sum();
    if traced {
        layers.set(
            "net.encode_ns",
            per(sent.iter().map(|s| s.encode_ns).sum(), codec_calls as f64),
        );
        layers.set(
            "net.decode_ns",
            per(sent.iter().map(|s| s.decode_ns).sum(), codec_calls as f64),
        );
    }
    layers.set("cluster.admitted", rs.admitted as f64);
    layers.set("cluster.forwarded", rs.forwarded as f64);
    layers.set("cluster.degraded", rs.degraded as f64);
    layers.set("cluster.cross_drops", rs.cross_benefit as f64);
    let per_owner: Vec<f64> = rs.per_owner_sent.iter().map(|&n| n as f64).collect();
    let mean = per_owner.iter().sum::<f64>() / per_owner.len().max(1) as f64;
    layers.set(
        "cluster.owner_skew",
        per(per_owner.iter().copied().fold(0.0, f64::max), mean),
    );
    layers.set("cluster.fin_drain_s", fin_drain_s);

    let mut tracer = None;
    let mut breakdown = None;
    if traced {
        let mut t = Tracer::new(t0);
        let run = t.open("run", t_send, None);
        for s in &sent {
            for &(a, b) in &s.spans {
                t.record("request", a, b, Some(run));
            }
        }
        t.record("apply_wait", t_sent, t_fin, Some(run));
        t.record("fin", t_fin, t_router, Some(run));
        t.close(run, t_router);
        let b = Breakdown::new(
            stream_s,
            (t_sent - t_send).as_secs_f64(),
            (t_fin - t_sent).as_secs_f64(),
            0.0,
            0.0,
            0.0,
            fin_drain_s,
        );
        layers.set("trace.unattributed_share", b.unattributed_share());
        breakdown = Some(b);
        tracer = Some(t);
    }
    Ok(Pass {
        traced,
        setup_s,
        events,
        stream_s,
        finish_s,
        decision_ms: Vec::new(),
        ack_ms,
        live_value,
        final_value,
        peak_rss_mb: f64::NAN,
        solves: reports().map(|r| r.solves).sum(),
        tiers,
        attempted: events + requests,
        failed: rs.degraded + rs.invalid + rs.unknown_namespace + foreign + retry_after,
        gates,
        layers,
        breakdown,
        tracer,
    })
}
