//! The dispatch service: event-driven, batched, sharded assignment.
//!
//! [`DispatchService`] is the long-running loop this crate exists for,
//! assembled from the rest of the crate plus the robust engine:
//!
//! ```text
//!  producers --offer--> BoundedQueue --pump--> Batcher --flush--> dispatch
//!                                                                    |
//!                       per touched shard: apply churn to the        |
//!                       IncrementalAssignment (greedy local repair), |
//!                       then repair the shard's WarmNet optimum —    |
//!                       all touched shards concurrently via the      |
//!                       SolvePool, racing the batch's shared         |
//!                       deadline — and adopt improvements via reseed |
//!                                                                    v
//!                              DecisionSink (assignment deltas + stats)
//! ```
//!
//! **One exact solver per shard.** Each shard's `WarmNet`, built on its
//! first solve and rebuilt with each plan, owns the shard's optimal flow,
//! so batch solves, online fallbacks and the closing drain repair only
//! what changed. A completed repair is [`QualityTier::Exact`]; one the
//! budget cut off leaves the greedy state ([`QualityTier::Degraded`]) and
//! resumes on the shard's next solve. Only the boundary rescue, rebuilt
//! every batch, runs the robust engine chain.
//!
//! **Capacity safety.** Shards are node-disjoint ([`ShardPlan`]), so each
//! worker's capacity is managed by exactly one `IncrementalAssignment`,
//! whose every mutation preserves feasibility. The union of shard
//! assignments is therefore feasible on the universe graph by
//! construction; [`DispatchService::finish`] re-validates the union anyway
//! and reports the violation count (the CI smoke test asserts it is zero).
//!
//! **Degradation isolation.** A poisoned shard ([`DispatchService::poison_shard`])
//! skips its exact solves and stays on the greedy floor
//! ([`QualityTier::Degraded`]) — it can never stall the batch loop or its
//! sibling shards, and every degraded solve is counted per shard.
//!
//! **Determinism.** Under [`BudgetMode::Deterministic`] every solve runs
//! unbudgeted, so each shard's result is a pure function of the input
//! events; the [`SolvePool`] merges results in shard-index order, so the
//! decision stream is too — replaying a trace twice produces
//! byte-identical decision logs **at any thread count**.
//! [`BudgetMode::Wallclock`] trades that for bounded batch latency.
//!
//! **Budget policy.** A wall-clock batch budget is *never split* across
//! the touched shards. Every shard solve gets the same absolute deadline
//! (batch dispatch start + budget) in its [`SolveCtl`]:
//!
//! * sequentially (`threads = 1`), a shard that finishes early leaves its
//!   unused budget to the shards after it — the old `ms / touched.len()`
//!   split burned that slack, starving late shards even in mostly-idle
//!   batches;
//! * concurrently (`threads > 1`), all shards race the same instant, so
//!   batch latency is bounded by the budget while each shard may use up
//!   to *all* of it.
//!
//! The cost is ordering sensitivity in sequential wall-clock mode: a slow
//! early shard can eat the budget that previously was reserved for its
//! successors, leaving them on the greedy floor until their next solve
//! resumes the repair. That is the intended
//! trade — budget flows to whoever can still use it, and the quality-tier
//! tallies make the effect observable.

use crate::batch::{BatchConfig, Batcher, ClosedBatch, FlushReason};
use crate::event::{Arrival, ServiceEvent};
use crate::online::{self, OnlineConfig, OnlineRuntime};
use crate::pool::{ShardJob, ShardOutcome, SolvePool};
use crate::queue::{BoundedQueue, DropPolicy, OfferOutcome};
use crate::report::ServiceReport;
use crate::shard::{ShardPlan, UNMAPPED};
use crate::sink::{canonical_order, Action, BatchStats, Decision, DecisionSink};
use mbta_core::engine::{EngineConfig, QualityTier};
use mbta_core::incremental::IncrementalAssignment;
use mbta_graph::subgraph::{induce, SubgraphSpec};
use mbta_graph::{BipartiteGraph, EdgeId, TaskId, WorkerId};
use mbta_matching::warm::WarmNet;
use mbta_matching::Matching;
use mbta_partition::{migration_diff, residual_candidates, validate_rescue, CutTracker};
use mbta_store::record::{
    BatchRecord, DecisionRecord, OnlineRecord, PlanRecord, WalRecord, WeightDelta,
};
use mbta_store::snapshot::SnapshotState;
use mbta_store::store::DurableStore;
use mbta_telemetry::Histogram;
use mbta_util::{Deadline, SolveCtl};
use std::time::Instant;

/// How solve budgets are assigned per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetMode {
    /// Each batch gets this many wall-clock milliseconds of solve budget,
    /// shared by its touched shards as one absolute deadline: unused
    /// budget carries forward sequentially, and concurrent shards race the
    /// same instant (see the module docs' budget policy). Bounded latency,
    /// non-deterministic quality tiers.
    Wallclock(u64),
    /// No deadlines: every solve runs the full chain to the exact tier.
    /// Deterministic decisions; latency bounded only by instance size.
    Deterministic,
}

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Micro-batch watermarks.
    pub batch: BatchConfig,
    /// Ingress queue capacity.
    pub queue_cap: usize,
    /// Ingress overload policy.
    pub drop_policy: DropPolicy,
    /// Solve budget mode.
    pub budget: BudgetMode,
    /// Solver threads for touched-shard solves; `0` = available
    /// parallelism, `1` = the exact sequential dispatch path.
    pub threads: usize,
    /// Run the cross-shard boundary-rescue pass after every batch's shard
    /// solves merge: cross edges whose endpoints still have residual
    /// capacity form a small second-stage matching market whose solution
    /// overlays the intra-shard assignments (see the module docs). Also
    /// makes cross-shard benefit updates *processed* (they feed the
    /// rescue market) instead of dropped.
    pub boundary_pass: bool,
    /// Re-plan trigger: when the live cut fraction degrades past this
    /// value above its plan-time baseline, [`DispatchService::replan_due`]
    /// starts returning true and the driver should detach → rebuild the
    /// plan → resume. `None` disables drift-driven re-planning.
    pub replan_threshold: Option<f64>,
    /// Per-event online decision path: `Some` bypasses the batcher and
    /// decides on every event (greedy repair + depth-1 exchange, with a
    /// warm-started exact fallback once per-shard drift crosses the
    /// configured threshold). Incompatible with `boundary_pass` — the
    /// rescue overlay is a batch-boundary construct.
    pub online: Option<OnlineConfig>,
    /// Single-shard ownership (the cluster's shard-owner mode): this
    /// process owns exactly one shard of the plan. Events routing to any
    /// other shard are counted as *foreign* and skipped — a correctly
    /// routing upstream never sends them, so the counter doubles as a
    /// routing-agreement check. Incompatible with `boundary_pass`, which
    /// needs every shard's residual state in one process.
    pub owned_shard: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch: BatchConfig::default(),
            queue_cap: 4096,
            drop_policy: DropPolicy::Defer,
            budget: BudgetMode::Wallclock(50),
            threads: 0,
            boundary_pass: false,
            replan_threshold: None,
            online: None,
            owned_shard: None,
        }
    }
}

/// The event-driven dispatch service. See the module docs.
///
/// The driving loop is `offer` → `pump` → `finish`; under the `Defer`
/// overload policy, a deferred offer means "pump batches, then retry":
///
/// ```
/// use mbta_graph::random::from_edges;
/// use mbta_service::{
///     Arrival, DispatchService, NullSink, OfferOutcome, Routing, ServiceConfig, ServiceEvent,
///     ShardPlan,
/// };
///
/// let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.9, 0.9), (1, 1, 0.5, 0.5)]);
/// let weights = vec![0.9, 0.5];
/// let plan = ShardPlan::build(&g, &weights, 2, Routing::HashId);
/// let mut svc = DispatchService::new(&g, &plan, ServiceConfig::default());
/// let mut sink = NullSink;
///
/// for (time, event) in [
///     (0.0, ServiceEvent::WorkerJoin(0)),
///     (0.5, ServiceEvent::TaskPost(0)),
/// ] {
///     let arrival = Arrival { time, event };
///     while let OfferOutcome::Deferred = svc.offer(arrival) {
///         svc.pump(&mut sink);
///     }
///     svc.pump(&mut sink);
/// }
/// let report = svc.finish(&mut sink);
/// assert_eq!(report.capacity_violations, 0);
/// assert_eq!(report.events_processed, 2);
/// ```
pub struct DispatchService<'p> {
    universe: &'p BipartiteGraph,
    plan: &'p ShardPlan,
    states: Vec<IncrementalAssignment<'p>>,
    /// The boundary-rescue overlay: sorted universe edge ids currently
    /// assigned by the rescue market.
    overlay: Vec<EdgeId>,
    /// Live intra/cross weight split for drift-driven re-planning.
    cut: CutTracker,
    /// Per-shard exact solvers, each built on its shard's first solve.
    nets: Vec<Option<WarmNet>>,
    /// Drift accumulators and pooled buffers of the per-event online path
    /// (`None` = batch dispatch).
    online: Option<OnlineRuntime>,
    /// Everything that outlives the shard plan.
    run: RunState,
}

/// The plan-independent half of a dispatch run: configuration, ingress,
/// solver pool, durability, universe-indexed live state and every report
/// counter. [`DispatchService::detach`] hands it to [`CarriedState`] whole
/// and [`DispatchService::resume`] takes it back, so a re-plan copies no
/// field one at a time.
struct RunState {
    cfg: ServiceConfig,
    pool: SolvePool,
    queue: BoundedQueue,
    batcher: Batcher,
    /// Per-shard poison marks (cleared when a re-plan changes the shard
    /// count).
    poisoned: Vec<bool>,
    /// Universe-indexed live weights (benefit updates land here too, so
    /// decisions can report the weight in parent terms).
    live_weights: Vec<f64>,
    /// Cross edges whose endpoints were ever concurrently live.
    cross_seen: Vec<bool>,
    /// Optional durability: when attached, every commit is journaled to
    /// the WAL *before* its decisions reach the sink, and full-state
    /// snapshots are written on the store's cadence.
    store: Option<DurableStore>,
    /// First store I/O error, if any. Journaling stops at the first
    /// failure (the durable prefix stays valid); the service keeps
    /// dispatching and the report carries the error.
    store_error: Option<std::io::Error>,
    count: Counters,
    /// Largest stream timestamp seen on the online path — stamps the
    /// closing drain records, which have no triggering arrival.
    last_time: f64,
    started: Instant,
}

/// The run counters behind the [`ServiceReport`].
#[derive(Default)]
struct Counters {
    /// Sequence number of the next commit: batch, online and plan records
    /// share one sequence space.
    seq: u64,
    events_in: u64,
    events_processed: u64,
    invalid_events: u64,
    cross_benefit_drops: u64,
    foreign_events: u64,
    /// Flushes by reason: count, bytes, watermark, drain, online.
    flush_tally: [u64; 5],
    solves: u64,
    tier_tally: [u64; 3],
    degraded_by_shard: Vec<u64>,
    decisions: u64,
    reseeds: u64,
    steals: u64,
    rescue_solves: u64,
    rescue_assigns: u64,
    rescue_violations: u64,
    replans: u64,
    migrated_workers: u64,
    migrated_tasks: u64,
    /// Set by a `Deferred` offer, cleared by the next admitted one: the
    /// admitted offer is then a defer-retry success.
    defer_pending: bool,
    defer_retry_ok: u64,
    online_fallbacks: u64,
    online_exchanges: u64,
    /// Online exact solves, and those that continued a carried flow.
    warm_solves: u64,
    warm_hits: u64,
    /// Wall time of every batch solve and every warm online solve; the
    /// report's p50/p99/max solve latency derive from its buckets.
    solve_lat: Histogram,
    /// Per-event online decision latency (wall-clock ms).
    online_lat: Histogram,
}

/// Where a batch event landed after routing.
enum Routed {
    Shard(usize),
    Invalid,
    CrossBenefit,
    /// Routed cleanly, but to a shard this process does not own.
    Foreign,
}

impl<'p> DispatchService<'p> {
    /// Builds a service over a shard plan. All nodes start *inactive* —
    /// the market is empty until join/post events arrive.
    pub fn new(universe: &'p BipartiteGraph, plan: &'p ShardPlan, cfg: ServiceConfig) -> Self {
        assert!(
            !(cfg.boundary_pass && cfg.online.is_some()),
            "online mode is incompatible with the boundary pass"
        );
        assert!(
            !(cfg.boundary_pass && cfg.owned_shard.is_some()),
            "single-shard ownership is incompatible with the boundary pass"
        );
        if let Some(own) = cfg.owned_shard {
            assert!(
                own < plan.n_shards(),
                "owned shard {own} out of range (plan has {} shards)",
                plan.n_shards()
            );
        }
        let n = plan.n_shards();
        let live_weights = plan.universe_weights.clone();
        let (states, cut) = seed_plan_state(universe, plan, &live_weights);
        let run = RunState {
            pool: SolvePool::new(cfg.threads),
            queue: BoundedQueue::new(cfg.queue_cap, cfg.drop_policy),
            batcher: Batcher::new(cfg.batch),
            poisoned: vec![false; n],
            live_weights,
            cross_seen: vec![false; universe.n_edges()],
            store: None,
            store_error: None,
            count: Counters {
                degraded_by_shard: vec![0; n],
                ..Counters::default()
            },
            last_time: 0.0,
            started: Instant::now(),
            cfg,
        };
        Self::assemble(universe, plan, states, cut, Vec::new(), run)
    }

    /// Completes a service over `plan` from its seeded shard states. Online
    /// mode arms the flip logs only here, so whatever the caller already
    /// did to `states` (a migration's reseeds) never shows up as per-event
    /// decisions; each shard builds its flow network on its first solve.
    fn assemble(
        universe: &'p BipartiteGraph,
        plan: &'p ShardPlan,
        mut states: Vec<IncrementalAssignment<'p>>,
        cut: CutTracker,
        overlay: Vec<EdgeId>,
        run: RunState,
    ) -> Self {
        let online = run.cfg.online.map(|oc| {
            for st in &mut states {
                st.enable_log();
            }
            OnlineRuntime::new(oc, plan.n_shards())
        });
        DispatchService {
            universe,
            plan,
            states,
            overlay,
            cut,
            nets: (0..plan.n_shards()).map(|_| None).collect(),
            online,
            run,
        }
    }

    /// Attaches a durability store: from the next batch on, every commit
    /// is journaled to the WAL before its decisions reach the sink, and
    /// snapshots are written on the store's cadence. The store must be
    /// fresh (nothing committed): this service starts from an empty
    /// market, so attaching a store that already holds state would make
    /// the journal lie about what the decisions were applied to. Use
    /// `mbta_store::recover` to inspect an existing directory instead.
    pub fn attach_store(&mut self, store: DurableStore) {
        assert_eq!(
            store.stats().watermark,
            0,
            "cannot attach a store with existing journaled state to a fresh service"
        );
        self.run.store = Some(store);
    }

    /// Every shard's assigned edges as `(shard, universe edge)` pairs; the
    /// rescue overlay is not included.
    fn shard_edges(&self) -> impl Iterator<Item = (usize, EdgeId)> + '_ {
        let shards = self.plan.shards.iter().zip(&self.states).enumerate();
        shards.flat_map(|(s, (slice, st))| {
            let edges = st.matching().edges.into_iter();
            edges.map(move |e| (s, slice.sub.edge_back[e.index()]))
        })
    }

    /// Whether universe worker `w` is live in its shard.
    fn worker_live(&self, w: WorkerId) -> bool {
        let s = self.plan.worker_shard[w.index()] as usize;
        self.states[s].worker_active(WorkerId::new(self.plan.worker_local[w.index()]))
    }

    /// Whether universe task `t` is live in its shard.
    fn task_live(&self, t: TaskId) -> bool {
        let s = self.plan.task_shard[t.index()] as usize;
        self.states[s].task_active(TaskId::new(self.plan.task_local[t.index()]))
    }

    /// Captures the full dispatch state as a snapshot payload: per shard,
    /// the sorted universe edge ids currently assigned, plus the live
    /// weight vector.
    fn snapshot_state(&self, watermark: u64) -> SnapshotState {
        let mut shards = vec![Vec::new(); self.plan.n_shards()];
        for (s, e) in self.shard_edges() {
            shards[s].push(e.raw());
        }
        for edges in &mut shards {
            edges.sort_unstable();
        }
        if self.run.cfg.boundary_pass {
            // The rescue overlay snapshots as pseudo-shard `n_shards`,
            // matching the shard id its decisions carry in the WAL.
            shards.push(self.overlay.iter().map(|e| e.raw()).collect());
        }
        SnapshotState {
            watermark,
            shards,
            weights: self.run.live_weights.clone(),
        }
    }

    /// Stats for the next commit, with no shard solves attached.
    fn next_stats(&self, reason: FlushReason, events: usize, solve_ms: f64) -> BatchStats {
        BatchStats {
            seq: self.run.count.seq,
            reason,
            events,
            queue_depth: self.run.queue.len(),
            shards_touched: 0,
            degraded_shards: 0,
            worst_tier: None,
            solve_ms,
            invalid_events: 0,
        }
    }

    /// The one commit step every decision set goes through — batch,
    /// per-event, closing drain and re-plan alike. It takes the next
    /// sequence slot, counts the decisions, journals the record `record`
    /// builds (plus a snapshot when one is due), and only then hands the
    /// decisions to the sink: write-ahead ordering, so nothing escapes
    /// that recovery cannot rebuild. The sink hears of every commit except
    /// one that consumed no event and changed nothing (a re-plan that
    /// dropped no edge).
    ///
    /// `record` runs only while a store is attached and healthy. On the
    /// first I/O error journaling stops for good — the durable prefix on
    /// disk stays valid — and the error is surfaced in the run report.
    fn commit(
        &mut self,
        stats: BatchStats,
        decisions: &[Decision],
        record: impl FnOnce(u64, Vec<DecisionRecord>) -> WalRecord,
        sink: &mut impl DecisionSink,
    ) {
        debug_assert_eq!(stats.seq, self.run.count.seq);
        self.run.count.seq += 1;
        self.run.count.decisions += decisions.len() as u64;
        mbta_telemetry::counter_add("mbta_service_decisions_total", decisions.len() as u64);
        if let Some(mut store) = self.run.store.take() {
            if self.run.store_error.is_none() {
                let mut res = store.commit(&record(stats.seq, to_records(decisions)));
                if res.is_ok() && store.snapshot_due() {
                    res = store.snapshot(&self.snapshot_state(self.run.count.seq));
                }
                if let Err(e) = res {
                    mbta_telemetry::counter_add("mbta_store_errors_total", 1);
                    self.run.store_error = Some(e);
                }
            }
            self.run.store = Some(store);
        }
        if stats.events > 0 || !decisions.is_empty() {
            sink.on_batch(&stats, decisions);
        }
    }

    /// A batch's or online event's solve budget, starting now.
    fn solve_ctl(&self) -> SolveCtl {
        let ctl = SolveCtl::unlimited();
        match self.run.cfg.budget {
            BudgetMode::Wallclock(ms) => ctl.with_deadline(Deadline::after_ms(ms)),
            BudgetMode::Deterministic => ctl,
        }
    }

    /// Re-solves `shards` (ascending) on their nets under `ctl` through the
    /// pool, returning the outcomes in shard order.
    fn solve_shards(&mut self, shards: &[usize], ctl: &SolveCtl) -> Vec<ShardOutcome> {
        let plan = self.plan;
        let states = &self.states;
        let jobs: Vec<ShardJob<'_>> = self
            .nets
            .iter_mut()
            .enumerate()
            .filter(|(s, _)| shards.binary_search(s).is_ok())
            .map(|(s, net)| {
                let graph = &plan.shards[s].sub.graph;
                ShardJob {
                    shard: s,
                    graph,
                    weights: states[s].active_weights(),
                    net: net.get_or_insert_with(|| WarmNet::new(graph)),
                    ctl: ctl.clone(),
                }
            })
            .collect();
        let solved = self.run.pool.solve(jobs);
        self.run.count.steals += solved.steals;
        solved.outcomes
    }

    /// Reseeds the shard with a completed solve's optimum when it beats
    /// the greedy state, records the solve and returns its quality tier.
    fn adopt(&mut self, out: &ShardOutcome) -> QualityTier {
        let st = &mut self.states[out.shard];
        if let Some(m) = &out.matching {
            let value: f64 = m.edges.iter().map(|&e| st.weight_of(e)).sum();
            if value > st.total_weight() + 1e-12 {
                st.reseed(m)
                    .expect("the net's optimum is feasible on the active sub-market");
                self.run.count.reseeds += 1;
                mbta_telemetry::counter_add("mbta_service_reseeds_total", 1);
            }
        }
        mbta_telemetry::counter_add("mbta_core_warm_solves_total", 1);
        mbta_telemetry::counter_add("mbta_core_warm_hits_total", u64::from(out.stats.warm));
        let cut_off = u64::from(!out.stats.completed);
        mbta_telemetry::counter_add("mbta_core_warm_truncated_total", cut_off);
        mbta_telemetry::observe("mbta_core_warm_solve_ms", out.solve_ms);
        // The labeled name allocates, so gate on the runtime switch.
        if mbta_telemetry::enabled() {
            mbta_telemetry::observe(
                &format!("mbta_service_shard_solve_ms{{shard=\"{}\"}}", out.shard),
                out.solve_ms,
            );
        }
        if out.matching.is_some() {
            QualityTier::Exact
        } else {
            QualityTier::Degraded
        }
    }

    /// A drift fallback on shard `s`: resets its accumulator and, unless
    /// the shard is poisoned (it stays on the greedy floor, like its batch
    /// behavior), re-solves it exactly on its net under `ctl`, adopting the
    /// optimum when it improves on the incremental state. The applied
    /// flips join the pooled flip buffer and the solve's wall time the
    /// solve-latency histogram. Returns whether it solved.
    fn fall_back(&mut self, rt: &mut OnlineRuntime, s: usize, ctl: &SolveCtl) -> bool {
        rt.acc[s] = 0.0;
        self.run.count.online_fallbacks += 1;
        mbta_telemetry::counter_add("mbta_service_online_fallbacks_total", 1);
        if self.run.poisoned[s] {
            return false;
        }
        let t0 = Instant::now();
        let out = self.solve_shards(&[s], ctl);
        self.adopt(&out[0]);
        self.states[s].drain_log_into(&mut rt.scratch.flips);
        let c = &mut self.run.count;
        c.solve_lat.observe(t0.elapsed().as_secs_f64() * 1e3);
        c.warm_solves += 1;
        c.warm_hits += u64::from(out[0].stats.warm);
        true
    }

    /// Folds the pooled flip log of shard `s` into canonical universe-id
    /// decisions in the pooled decision buffer.
    fn online_decisions(&self, rt: &mut OnlineRuntime, s: usize) {
        let edge_back = &self.plan.shards[s].sub.edge_back;
        let (g, weights) = (self.universe, &self.run.live_weights);
        rt.scratch.decide(|local, action| {
            decision(g, weights, s as u32, edge_back[local.index()], action)
        });
    }

    /// The per-event online decision path (see the [`crate::online`]
    /// module docs): apply the event through the shard's incremental
    /// state, attempt a depth-1 exchange for benefit updates, accumulate
    /// drift, fall back to an exact re-solve of the shard past the drift
    /// threshold, then commit the event's net decisions.
    fn dispatch_online(
        &mut self,
        rt: &mut OnlineRuntime,
        a: Arrival,
        sink: &mut impl DecisionSink,
    ) {
        let t0 = Instant::now();
        self.run.last_time = self.run.last_time.max(a.time);
        let s = match self.route(&a.event) {
            Routed::Shard(s) => s,
            Routed::Invalid => {
                self.run.count.invalid_events += 1;
                mbta_telemetry::counter_add("mbta_service_invalid_events_total", 1);
                return;
            }
            // The rescue overlay is a batch construct; in online mode a
            // cross-shard benefit update has no decision surface.
            Routed::CrossBenefit => {
                self.run.count.cross_benefit_drops += 1;
                return;
            }
            Routed::Foreign => {
                self.run.count.foreign_events += 1;
                mbta_telemetry::counter_add("mbta_service_foreign_events_total", 1);
                return;
            }
        };

        // Deltas are collected whether or not a store is attached, so the
        // sequence of deciding events — and therefore the decision stream
        // — is identical with and without journaling.
        let mut deltas: Vec<WeightDelta> = Vec::new();
        // Benefit drift accrues before the weight is overwritten.
        let mut drift = 0.0f64;
        if let ServiceEvent::BenefitUpdate { edge, weight } = a.event {
            deltas.push(WeightDelta { edge, weight });
            drift = (weight - self.run.live_weights[edge as usize]).abs();
        }
        self.apply(s, &a.event);
        self.run.count.events_processed += 1;

        // A benefit update may make its edge newly attractive: take it
        // greedily if capacity allows, else try the depth-1 exchange.
        if let ServiceEvent::BenefitUpdate { edge, .. } = a.event {
            let local = EdgeId::new(self.plan.edge_local[edge as usize]);
            let st = &mut self.states[s];
            if !st.edge_assigned(local) && !st.try_assign(local) && online::try_exchange(st, local)
            {
                self.run.count.online_exchanges += 1;
                mbta_telemetry::counter_add("mbta_service_online_exchanges_total", 1);
            }
        }

        // Drift: |Δw| of the update plus every net-removed edge's weight
        // (departures and evictions — plain greedy fills accrue nothing).
        // The flip and decision buffers are pooled in the runtime.
        rt.scratch.flips.clear();
        self.states[s].drain_log_into(&mut rt.scratch.flips);
        let st = &self.states[s];
        for &(e, added) in rt.scratch.fold() {
            if !added {
                drift += st.weight_of(e).max(0.0);
            }
        }
        rt.acc[s] += drift;
        mbta_telemetry::counter_add("mbta_service_online_events_total", 1);
        let due = rt.fallback_due(s, st.total_weight());

        // Drift fallback: exact repair of the shard's net, under the same
        // per-batch budget the batch path gets — the event is on the
        // latency path.
        let fell_back = due && self.fall_back(rt, s, &self.solve_ctl());
        self.online_decisions(rt, s);

        let event_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.run.count.online_lat.observe(event_ms);
        mbta_telemetry::observe("mbta_service_online_event_ms", event_ms);

        // Events that changed nothing durable consume no sequence slot:
        // the WAL stays contiguous and sinks see only deciding events.
        if !rt.scratch.decisions.is_empty() || !deltas.is_empty() {
            self.run.count.flush_tally[4] += 1;
            let stats = BatchStats {
                shards_touched: 1,
                ..self.next_stats(FlushReason::Online, 1, event_ms)
            };
            let record = |seq, decisions| {
                WalRecord::Online(OnlineRecord {
                    seq,
                    time: a.time,
                    events: 1,
                    fallbacks: u32::from(fell_back),
                    deltas,
                    decisions,
                })
            };
            self.commit(stats, &rt.scratch.decisions, record, sink);
        }
    }

    /// The online analog of the batcher's final partial batch: one
    /// closing exact solve per healthy shard, so the run converges
    /// before the final report instead of ending wherever drift since
    /// the last fallback left it. Decisions are committed exactly like
    /// per-event ones (`events: 0` — no arrival triggered them), and
    /// shards whose closing solve changes nothing consume no sequence
    /// slot.
    fn drain_online(&mut self, sink: &mut impl DecisionSink) {
        let Some(mut rt) = self.online.take() else {
            return;
        };
        for s in 0..self.plan.n_shards() {
            let owned = self.run.cfg.owned_shard.is_none_or(|own| own == s);
            if !owned || self.run.poisoned[s] {
                continue;
            }
            let t0 = Instant::now();
            // Shutdown is off the latency path, so the closing solve runs
            // unbudgeted: a wall-clock budget sized for steady-state events
            // would truncate the one solve whose whole point is to converge
            // (it also finishes any repair an earlier budget cut off).
            rt.scratch.flips.clear();
            self.fall_back(&mut rt, s, &SolveCtl::unlimited());
            self.online_decisions(&mut rt, s);
            if !rt.scratch.decisions.is_empty() {
                self.run.count.flush_tally[4] += 1;
                let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
                let stats = BatchStats {
                    shards_touched: 1,
                    ..self.next_stats(FlushReason::Online, 0, solve_ms)
                };
                let time = self.run.last_time;
                let record = |seq, decisions| {
                    WalRecord::Online(OnlineRecord {
                        seq,
                        time,
                        events: 0,
                        fallbacks: 1,
                        deltas: Vec::new(),
                        decisions,
                    })
                };
                self.commit(stats, &rt.scratch.decisions, record, sink);
            }
        }
        self.online = Some(rt);
    }

    /// Marks a shard as poisoned: its solves are pre-cancelled and return
    /// the greedy floor immediately. Sibling shards are unaffected.
    pub fn poison_shard(&mut self, s: usize) {
        if !self.run.poisoned[s] {
            mbta_telemetry::counter_add("mbta_service_shard_poisoned_total", 1);
        }
        self.run.poisoned[s] = true;
    }

    /// Clears a shard's poison mark.
    pub fn heal_shard(&mut self, s: usize) {
        if self.run.poisoned[s] {
            mbta_telemetry::counter_add("mbta_service_shard_healed_total", 1);
        }
        self.run.poisoned[s] = false;
    }

    /// Offers one arrival to the ingress queue. On [`OfferOutcome::Deferred`]
    /// the caller must [`pump`](Self::pump) and re-offer — nothing was
    /// admitted (and the offer is not counted as an ingress event).
    pub fn offer(&mut self, a: Arrival) -> OfferOutcome {
        let outcome = self.run.queue.offer(a);
        let count = &mut self.run.count;
        match outcome {
            OfferOutcome::Deferred => {
                count.defer_pending = true;
                mbta_telemetry::counter_add("mbta_service_deferrals_total", 1);
            }
            admitted => {
                count.events_in += 1;
                mbta_telemetry::counter_add("mbta_service_events_total", 1);
                if count.defer_pending {
                    count.defer_pending = false;
                    count.defer_retry_ok += 1;
                    mbta_telemetry::counter_add("mbta_service_defer_retry_ok_total", 1);
                }
                match admitted {
                    OfferOutcome::DroppedNewest => mbta_telemetry::counter_add(
                        "mbta_service_queue_dropped_total{policy=\"newest\"}",
                        1,
                    ),
                    OfferOutcome::DroppedOldest => mbta_telemetry::counter_add(
                        "mbta_service_queue_dropped_total{policy=\"oldest\"}",
                        1,
                    ),
                    _ => {}
                }
            }
        }
        outcome
    }

    /// Drains the ingress queue: through the batcher in batch mode
    /// (dispatching every batch a watermark closes), or event by event
    /// through the online decision path when `online` is configured.
    pub fn pump(&mut self, sink: &mut impl DecisionSink) {
        if let Some(mut rt) = self.online.take() {
            while let Some(a) = self.run.queue.pop() {
                self.dispatch_online(&mut rt, a, sink);
            }
            self.online = Some(rt);
            return;
        }
        while let Some(a) = self.run.queue.pop() {
            if let Some(closed) = self.run.batcher.offer(a) {
                self.dispatch(closed, sink);
            }
        }
    }

    /// Batches dispatched so far — equals the durable watermark when a
    /// store is attached. Cheap; safe to read every loop iteration for
    /// status replies.
    pub fn batches_committed(&self) -> u64 {
        self.run.count.seq
    }

    /// Live assigned-edge count across all shards.
    pub fn current_assignments(&self) -> usize {
        self.states.iter().map(|s| s.len()).sum()
    }

    /// Live total assignment value across all shards.
    pub fn current_value(&self) -> f64 {
        self.states.iter().map(|s| s.total_weight()).sum()
    }

    fn route(&self, ev: &ServiceEvent) -> Routed {
        match self.route_universe(ev) {
            Routed::Shard(s) if self.run.cfg.owned_shard.is_some_and(|own| own != s) => {
                Routed::Foreign
            }
            r => r,
        }
    }

    fn route_universe(&self, ev: &ServiceEvent) -> Routed {
        match *ev {
            ServiceEvent::WorkerJoin(w) | ServiceEvent::WorkerLeave(w) => {
                if (w as usize) < self.universe.n_workers() {
                    Routed::Shard(self.plan.worker_shard[w as usize] as usize)
                } else {
                    Routed::Invalid
                }
            }
            ServiceEvent::TaskPost(t)
            | ServiceEvent::TaskCancel(t)
            | ServiceEvent::TaskComplete(t) => {
                if (t as usize) < self.universe.n_tasks() {
                    Routed::Shard(self.plan.task_shard[t as usize] as usize)
                } else {
                    Routed::Invalid
                }
            }
            ServiceEvent::BenefitUpdate { edge, weight } => {
                // The engine's input contract is finite non-negative
                // weights; a malformed update is rejected here, at the
                // admission boundary, instead of poisoning every later
                // solve of the shard.
                if (edge as usize) >= self.universe.n_edges() || !weight.is_finite() || weight < 0.0
                {
                    Routed::Invalid
                } else if self.plan.edge_shard[edge as usize] == UNMAPPED {
                    Routed::CrossBenefit
                } else {
                    Routed::Shard(self.plan.edge_shard[edge as usize] as usize)
                }
            }
        }
    }

    fn apply(&mut self, shard: usize, ev: &ServiceEvent) {
        let st = &mut self.states[shard];
        match *ev {
            ServiceEvent::WorkerJoin(w) => {
                st.activate_worker(WorkerId::new(self.plan.worker_local[w as usize]));
            }
            ServiceEvent::WorkerLeave(w) => {
                st.deactivate_worker(WorkerId::new(self.plan.worker_local[w as usize]));
            }
            ServiceEvent::TaskPost(t) => {
                st.activate_task(TaskId::new(self.plan.task_local[t as usize]));
            }
            ServiceEvent::TaskCancel(t) | ServiceEvent::TaskComplete(t) => {
                st.deactivate_task(TaskId::new(self.plan.task_local[t as usize]));
            }
            ServiceEvent::BenefitUpdate { edge, weight } => {
                let local = EdgeId::new(self.plan.edge_local[edge as usize]);
                st.set_weight(local, weight);
                let old = self.run.live_weights[edge as usize];
                self.run.live_weights[edge as usize] = weight;
                self.cut.update(false, old, weight);
            }
        }
    }

    fn dispatch(&mut self, batch: ClosedBatch, sink: &mut impl DecisionSink) {
        let batch_span = mbta_telemetry::span!("mbta_service_batch");
        batch_span.attr("events", batch.events.len() as u64);
        mbta_telemetry::counter_add("mbta_service_batches_total", 1);
        mbta_telemetry::observe("mbta_service_batch_events", batch.events.len() as f64);
        mbta_telemetry::gauge_set("mbta_service_queue_depth", self.run.queue.len() as f64);
        let reason = batch.reason;
        self.run.count.flush_tally[match reason {
            FlushReason::Count => 0,
            FlushReason::Bytes => 1,
            FlushReason::Watermark => 2,
            FlushReason::Drain => 3,
            FlushReason::Online => unreachable!("the batcher never emits online flushes"),
        }] += 1;
        let boundary_pass = self.run.cfg.boundary_pass;

        // Pass 1: route every event so the touched-shard set (and thus the
        // pre-batch snapshots) is known before any state changes.
        let mut touched: Vec<usize> = Vec::new();
        let mut seen = vec![false; self.plan.n_shards()];
        let mut routes = Vec::with_capacity(batch.events.len());
        let mut invalid = 0usize;
        let mut foreign = 0usize;
        for a in &batch.events {
            let r = self.route(&a.event);
            match r {
                Routed::Shard(s) => {
                    if !seen[s] {
                        seen[s] = true;
                        touched.push(s);
                    }
                }
                Routed::Invalid => invalid += 1,
                // With the boundary pass on, cross-shard benefit updates
                // feed the rescue market instead of being dropped.
                Routed::CrossBenefit if !boundary_pass => self.run.count.cross_benefit_drops += 1,
                Routed::CrossBenefit => {}
                Routed::Foreign => foreign += 1,
            }
            routes.push(r);
        }
        touched.sort_unstable();
        self.run.count.invalid_events += invalid as u64;
        mbta_telemetry::counter_add("mbta_service_invalid_events_total", invalid as u64);
        self.run.count.foreign_events += foreign as u64;
        mbta_telemetry::counter_add("mbta_service_foreign_events_total", foreign as u64);

        let before: Vec<Matching> = touched.iter().map(|&s| self.states[s].matching()).collect();

        // Pass 2: apply churn in arrival order (greedy local repair keeps
        // every intermediate state feasible). With a store attached, the
        // applied weight updates are collected for the batch's WAL record.
        let journaling = self.run.store.is_some();
        let mut deltas: Vec<WeightDelta> = Vec::new();
        for (a, r) in batch.events.iter().zip(&routes) {
            match *r {
                Routed::Shard(s) => {
                    if journaling {
                        if let ServiceEvent::BenefitUpdate { edge, weight } = a.event {
                            deltas.push(WeightDelta { edge, weight });
                        }
                    }
                    self.apply(s, &a.event);
                    self.run.count.events_processed += 1;
                }
                Routed::CrossBenefit if boundary_pass => {
                    // Cross-shard edges live outside every shard state; the
                    // update lands on the universe weights directly and is
                    // picked up by the next rescue solve.
                    let ServiceEvent::BenefitUpdate { edge, weight } = a.event else {
                        unreachable!("only benefit updates route as CrossBenefit");
                    };
                    if journaling {
                        deltas.push(WeightDelta { edge, weight });
                    }
                    let old = self.run.live_weights[edge as usize];
                    self.run.live_weights[edge as usize] = weight;
                    self.cut.update(true, old, weight);
                    self.run.count.events_processed += 1;
                }
                _ => {}
            }
        }

        // Pass 3: repair each touched shard's net via the worker pool under
        // one shared deadline (see the module docs' budget policy).
        // Poisoned shards skip the solve and stay on the greedy floor.
        let ctl = self.solve_ctl();
        let solve_start = Instant::now();
        let (poisoned, solvable): (Vec<usize>, Vec<usize>) =
            touched.iter().partition(|&&s| self.run.poisoned[s]);
        let mut tiers: Vec<_> = poisoned
            .iter()
            .map(|&s| (s, QualityTier::Degraded))
            .collect();
        // Outcomes arrive sorted by shard index, so adoption order (and
        // therefore the decision stream) is independent of which worker
        // thread finished first.
        for out in self.solve_shards(&solvable, &ctl) {
            tiers.push((out.shard, self.adopt(&out)));
        }
        let degraded_shards = tiers
            .iter()
            .filter(|t| t.1 == QualityTier::Degraded)
            .count();
        let worst_tier = tiers.iter().map(|t| t.1).min();
        for (s, tier) in tiers {
            let count = &mut self.run.count;
            count.solves += 1;
            count.tier_tally[tier as usize] += 1;
            count.degraded_by_shard[s] += u64::from(tier == QualityTier::Degraded);
        }
        let solve_ms = solve_start.elapsed().as_secs_f64() * 1e3;
        self.run.count.solve_lat.observe(solve_ms);
        mbta_telemetry::observe("mbta_service_batch_solve_ms", solve_ms);

        // Pass 3b: boundary rescue — re-derive the cross-shard overlay
        // from this batch's residual capacities. Budget policy: a fixed
        // quarter-slice of the batch budget (the rescue market is tiny
        // relative to the shard solves and must not starve them), none in
        // deterministic mode.
        let mut decisions = if boundary_pass {
            let rescue_deadline = match self.run.cfg.budget {
                BudgetMode::Wallclock(ms) => Some(Deadline::after_ms(ms / 4 + 1)),
                BudgetMode::Deterministic => None,
            };
            self.boundary_rescue(rescue_deadline)
        } else {
            Vec::new()
        };

        // Pass 4: emit assignment deltas (per-shard before/after diff).
        for (&s, pre) in touched.iter().zip(&before) {
            let post = self.states[s].matching();
            let edge_back = &self.plan.shards[s].sub.edge_back;
            let (g, weights) = (self.universe, &self.run.live_weights);
            diff_sorted(&pre.edges, &post.edges, |local, action| {
                decisions.push(decision(
                    g,
                    weights,
                    s as u32,
                    edge_back[local.index()],
                    action,
                ));
            });
        }
        canonical_order(&mut decisions);

        let stats = BatchStats {
            shards_touched: touched.len(),
            degraded_shards,
            worst_tier,
            invalid_events: invalid,
            ..self.next_stats(reason, batch.events.len(), solve_ms)
        };
        let record = |seq, decisions| {
            WalRecord::Batch(BatchRecord {
                seq,
                first_time: batch.events.first().map_or(0.0, |a| a.time),
                last_time: batch.events.last().map_or(0.0, |a| a.time),
                events: batch.events.len() as u32,
                deltas,
                decisions,
            })
        };
        self.commit(stats, &decisions, record, sink);
    }

    /// Re-derives the cross-shard rescue overlay from this batch's
    /// residual capacities and returns the overlay's assignment deltas
    /// (pseudo-shard `n_shards` in the decision stream).
    ///
    /// The overlay is *recomputed from scratch* every batch: residual
    /// capacity is whatever the intra-shard solves left unused, so a shard
    /// reclaiming capacity automatically evicts overlay edges (emitted as
    /// unassigns by the diff). Feasibility of the union (shards + overlay)
    /// holds because the rescue instance's capacities *are* the residuals;
    /// [`validate_rescue`] re-checks and counts violations anyway.
    ///
    /// Determinism: candidates ascend by edge id, the node lists ascend by
    /// node id, and the single rescue solve runs inline — so under
    /// [`BudgetMode::Deterministic`] the overlay is a pure function of the
    /// event history at any thread count.
    fn boundary_rescue(&mut self, rescue_deadline: Option<Deadline>) -> Vec<Decision> {
        let plan = self.plan;
        let universe = self.universe;

        // Residuals: universe capacity/demand minus the intra-shard load.
        let mut w_res: Vec<u32> = universe.workers().map(|w| universe.capacity(w)).collect();
        let mut t_res: Vec<u32> = universe.tasks().map(|t| universe.demand(t)).collect();
        for (_, e) in self.shard_edges() {
            w_res[universe.worker_of(e).index()] -= 1;
            t_res[universe.task_of(e).index()] -= 1;
        }

        let is_cross = |e: EdgeId| plan.edge_shard[e.index()] == UNMAPPED;
        // A cross edge is "seen" by the rescue market once both endpoints
        // are concurrently live — even with zero residual. Exhausted
        // residual means the capacity went to intra-shard assignments,
        // which is contention, not partition loss; `effective_retained`
        // must charge the partition only for weight it made unreachable.
        for e in universe.edges() {
            if !self.run.cross_seen[e.index()]
                && is_cross(e)
                && self.worker_live(universe.worker_of(e))
                && self.task_live(universe.task_of(e))
            {
                self.run.cross_seen[e.index()] = true;
            }
        }
        let spec = residual_candidates(
            universe,
            &self.run.live_weights,
            is_cross,
            |w| self.worker_live(w),
            |t| self.task_live(t),
            &w_res,
            &t_res,
        );

        // An empty spec still evicts a stale overlay: no candidate means
        // no previously-rescued edge kept its residuals either.
        let mut new_overlay: Vec<EdgeId> = if spec.is_empty() {
            Vec::new()
        } else {
            let mut cand = vec![false; universe.n_edges()];
            for &e in &spec.candidates {
                cand[e.index()] = true;
            }
            let sub = induce(
                universe,
                &SubgraphSpec {
                    workers: &spec.workers,
                    tasks: &spec.tasks,
                },
                |e| cand[e.index()],
            );
            let weights = sub.project_weights(&self.run.live_weights);
            let mut cfg = EngineConfig::new();
            if let Some(d) = rescue_deadline {
                cfg = cfg.with_deadline_at(d);
            }
            let result = self.run.pool.solve_one(&sub.graph, &weights, &cfg);
            self.run.count.rescue_solves += 1;
            mbta_telemetry::counter_add("mbta_partition_rescue_solves_total", 1);
            match result {
                Ok(sol) => sol
                    .matching
                    .edges
                    .into_iter()
                    .map(|e| sub.edge_back[e.index()])
                    .collect(),
                Err(_) => {
                    debug_assert!(false, "unexpected engine input error in rescue");
                    Vec::new()
                }
            }
        };
        new_overlay.sort_unstable();
        self.run.count.rescue_violations +=
            validate_rescue(universe, is_cross, &w_res, &t_res, &new_overlay) as u64;

        let rescue_shard = plan.n_shards() as u32;
        let mut decisions = Vec::new();
        diff_sorted(&self.overlay, &new_overlay, |e, action| {
            if action == Action::Assign {
                self.run.count.rescue_assigns += 1;
            }
            decisions.push(decision(
                universe,
                &self.run.live_weights,
                rescue_shard,
                e,
                action,
            ));
        });

        let rescued: f64 = new_overlay
            .iter()
            .map(|e| self.run.live_weights[e.index()])
            .sum();
        mbta_telemetry::gauge_set("mbta_partition_rescued_weight", rescued);
        self.overlay = new_overlay;
        decisions
    }

    /// Flushes all remaining work, reconciles cross-shard state, and
    /// returns the run report.
    pub fn finish(mut self, sink: &mut impl DecisionSink) -> ServiceReport {
        self.pump(sink);
        if let Some(closed) = self.run.batcher.drain() {
            self.dispatch(closed, sink);
        }
        self.drain_online(sink);

        // Clean shutdown of the durability store: fsync the WAL and write
        // a final snapshot so recovery replays nothing.
        let mut store_stats = mbta_store::store::StoreStats::default();
        if let Some(mut store) = self.run.store.take() {
            if self.run.store_error.is_none() {
                let snap = self.snapshot_state(self.run.count.seq);
                if let Err(e) = store.seal(&snap) {
                    mbta_telemetry::counter_add("mbta_store_errors_total", 1);
                    self.run.store_error = Some(e);
                }
            }
            store_stats = store.stats();
        }

        // Cross-shard reconciliation: the union of per-shard assignments
        // (plus the rescue overlay), mapped back to universe ids, must be
        // feasible on the universe graph. Shards are node-disjoint and the
        // rescue market's capacities are the shard residuals, so this
        // holds by construction; re-validate anyway and count violations
        // per node.
        let g = self.universe;
        let mut chosen = vec![false; g.n_edges()];
        let mut w_load = vec![0u32; g.n_workers()];
        let mut t_load = vec![0u32; g.n_tasks()];
        let mut violations = 0usize;
        let union = self.shard_edges().map(|(_, e)| e);
        for e in union.chain(self.overlay.iter().copied()) {
            if chosen[e.index()] {
                violations += 1;
            }
            chosen[e.index()] = true;
            w_load[g.worker_of(e).index()] += 1;
            t_load[g.task_of(e).index()] += 1;
        }
        violations += g
            .workers()
            .filter(|&w| w_load[w.index()] > g.capacity(w))
            .count();
        violations += g
            .tasks()
            .filter(|&t| t_load[t.index()] > g.demand(t))
            .count();

        // In-shard solve violations cannot occur, but a broken rescue
        // overlay would: fold the per-batch rescue validations in.
        violations += self.run.count.rescue_violations as usize;

        let weights = &self.run.live_weights;
        // `+ 0.0` normalizes the empty sum's -0.0 (cosmetic in reports).
        let rescued_weight: f64 =
            self.overlay.iter().map(|e| weights[e.index()]).sum::<f64>() + 0.0;
        let final_value = self.current_value() + rescued_weight;
        let final_assignments = self.current_assignments() + self.overlay.len();

        // Retained weight from the *live* weights, not the plan-time ones
        // — benefit drift moves weight across the cut after planning, and
        // the report must say what the sharding costs now. The effective
        // figure also credits cross edges the rescue market was offered
        // (they are assignable, just second-stage).
        let (mut intra_live, mut seen_live, mut total_live) = (0.0f64, 0.0f64, 0.0f64);
        for e in g.edges() {
            let w = weights[e.index()];
            total_live += w;
            if self.plan.edge_shard[e.index()] != UNMAPPED {
                intra_live += w;
            } else if self.run.cross_seen[e.index()] {
                seen_live += w;
            }
        }
        let frac = |x: f64| {
            if total_live > 0.0 {
                x / total_live
            } else {
                1.0
            }
        };

        let RunState {
            cfg,
            pool,
            queue,
            store_error,
            count: c,
            started,
            ..
        } = self.run;
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        ServiceReport {
            n_shards: self.plan.n_shards(),
            cross_edges: self.plan.cross_edges,
            retained_weight: frac(intra_live),
            effective_retained: frac(intra_live + seen_live),
            rescued_weight,
            rescue_solves: c.rescue_solves,
            rescue_assigns: c.rescue_assigns,
            replans: c.replans,
            migrated_workers: c.migrated_workers,
            migrated_tasks: c.migrated_tasks,
            events_in: c.events_in,
            events_processed: c.events_processed,
            dropped_newest: queue.dropped_newest(),
            dropped_oldest: queue.dropped_oldest(),
            deferrals: queue.deferrals(),
            defer_retry_ok: c.defer_retry_ok,
            invalid_events: c.invalid_events,
            cross_benefit_drops: c.cross_benefit_drops,
            foreign_events: c.foreign_events,
            queue_high_watermark: queue.high_watermark(),
            batches: c.seq,
            flush_count: c.flush_tally[0],
            flush_bytes: c.flush_tally[1],
            flush_watermark: c.flush_tally[2],
            flush_drain: c.flush_tally[3],
            flush_online: c.flush_tally[4],
            // Every processed event goes through the online path there.
            online_events: if cfg.online.is_some() {
                c.events_processed
            } else {
                0
            },
            online_fallbacks: c.online_fallbacks,
            online_exchanges: c.online_exchanges,
            online_warm_solves: c.warm_solves,
            online_warm_hits: c.warm_hits,
            p50_online_ms: c.online_lat.quantile(0.5),
            p99_online_ms: c.online_lat.quantile(0.99),
            max_online_ms: c.online_lat.max(),
            solves: c.solves,
            tier_exact: c.tier_tally[QualityTier::Exact as usize],
            tier_approximate: c.tier_tally[QualityTier::Approximate as usize],
            tier_degraded: c.tier_tally[QualityTier::Degraded as usize],
            degraded_by_shard: c.degraded_by_shard,
            reseeds: c.reseeds,
            decisions: c.decisions,
            p50_solve_ms: c.solve_lat.quantile(0.5),
            p99_solve_ms: c.solve_lat.quantile(0.99),
            max_solve_ms: c.solve_lat.max(),
            wall_ms,
            events_per_sec: if wall_ms > 0.0 {
                c.events_processed as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            final_value,
            final_assignments,
            capacity_violations: violations,
            pool_threads: pool.threads(),
            steals: c.steals,
            wal_records: store_stats.wal_records,
            wal_bytes: store_stats.wal_bytes,
            snapshots: store_stats.snapshots,
            store_error: store_error.map(|e| e.to_string()),
        }
    }

    /// Whether drift-driven re-planning is armed and the live cut
    /// fraction has degraded past the configured threshold. Cheap (two
    /// float reads); the driver polls it at batch boundaries.
    pub fn replan_due(&self) -> bool {
        let threshold = self.run.cfg.replan_threshold;
        threshold.is_some_and(|t| self.cut.degradation() > t)
    }

    /// Tears the service down to exactly the state a successor needs to
    /// continue the run under a **new** shard plan: node liveness, the
    /// assigned-edge union, the old node→shard maps (for migration
    /// accounting), and the whole plan-independent run state — live
    /// weights, the ingress queue and batcher (queued events carry over
    /// untouched), the solver pool, the durability store and every report
    /// counter. Pair with [`DispatchService::resume`]:
    ///
    /// ```text
    /// let carried = svc.detach();
    /// let plan2 = ShardPlan::build(&g, carried.live_weights(), k, routing);
    /// let mut svc = DispatchService::resume(&g, &plan2, carried, &mut sink);
    /// ```
    pub fn detach(self) -> CarriedState {
        let rescue_shard = self.plan.n_shards() as u32;
        let overlay = self.overlay.iter().map(|&e| (e, rescue_shard));
        let mut assigned: Vec<(EdgeId, u32)> = self
            .shard_edges()
            .map(|(s, e)| (e, s as u32))
            .chain(overlay)
            .collect();
        assigned.sort_unstable_by_key(|&(e, _)| e);
        let g = self.universe;
        CarriedState {
            active_workers: g.workers().map(|w| self.worker_live(w)).collect(),
            active_tasks: g.tasks().map(|t| self.task_live(t)).collect(),
            assigned,
            old_worker_shard: self.plan.worker_shard.clone(),
            old_task_shard: self.plan.task_shard.clone(),
            run: self.run,
        }
    }

    /// Rebuilds a service over a **new** plan from carried state — the
    /// migration half of drift-driven re-planning, applied at a batch
    /// boundary:
    ///
    /// * shard states are reseeded with the still-intra part of the
    ///   carried assignment (feasible by restriction: the carried union
    ///   was feasible on the universe and shard capacities are the
    ///   universe capacities);
    /// * carried assignments that became cross-shard move to the rescue
    ///   overlay when the boundary pass is on, otherwise they are
    ///   unassigned (decisions emitted under their old shard id);
    /// * a [`PlanRecord`] is committed *before* those decisions reach the
    ///   sink, carrying the full post-migration shard sets, so
    ///   `mbta_store::recover` and WAL followers replay the exact same
    ///   migration at the exact same sequence slot;
    /// * drift tracking restarts from the new plan's baseline, and the
    ///   migration counters land in the final report.
    pub fn resume(
        universe: &'p BipartiteGraph,
        plan: &'p ShardPlan,
        carried: CarriedState,
        sink: &mut impl DecisionSink,
    ) -> DispatchService<'p> {
        let CarriedState {
            mut run,
            active_workers,
            active_tasks,
            assigned,
            old_worker_shard,
            old_task_shard,
        } = carried;
        let n = plan.n_shards();
        assert_eq!(
            run.live_weights.len(),
            universe.n_edges(),
            "carried weights mismatch"
        );
        let (mut states, cut) = seed_plan_state(universe, plan, &run.live_weights);
        for w in universe.workers().filter(|w| active_workers[w.index()]) {
            states[plan.worker_shard[w.index()] as usize]
                .activate_worker(WorkerId::new(plan.worker_local[w.index()]));
        }
        for t in universe.tasks().filter(|t| active_tasks[t.index()]) {
            states[plan.task_shard[t.index()] as usize]
                .activate_task(TaskId::new(plan.task_local[t.index()]));
        }

        // Split the carried assignment under the new plan. `assigned` is
        // sorted by universe edge id, so every per-shard list (and the
        // overlay) comes out sorted too.
        let mut per_shard_local: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut shard_sets: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut overlay: Vec<EdgeId> = Vec::new();
        let mut dropped: Vec<Decision> = Vec::new();
        for &(e, old_shard) in &assigned {
            let s = plan.edge_shard[e.index()];
            if s != UNMAPPED {
                per_shard_local[s as usize].push(EdgeId::new(plan.edge_local[e.index()]));
                shard_sets[s as usize].push(e.raw());
            } else if run.cfg.boundary_pass {
                overlay.push(e);
            } else {
                let weights = &run.live_weights;
                dropped.push(decision(universe, weights, old_shard, e, Action::Unassign));
            }
        }
        canonical_order(&mut dropped);
        for (s, mut edges) in per_shard_local.into_iter().enumerate() {
            if edges.is_empty() {
                continue;
            }
            edges.sort_unstable();
            states[s]
                .reseed(&Matching { edges })
                .expect("carried assignment stays feasible restricted to its new shard");
        }
        if run.cfg.boundary_pass {
            shard_sets.push(overlay.iter().map(|e| e.raw()).collect());
        }

        let moved = migration_diff(
            &old_worker_shard,
            &plan.worker_shard,
            &old_task_shard,
            &plan.task_shard,
        );
        if run.poisoned.len() != n {
            run.poisoned = vec![false; n];
            run.count.degraded_by_shard = vec![0; n];
        }
        run.count.replans += 1;
        run.count.migrated_workers += moved.moved_workers as u64;
        run.count.migrated_tasks += moved.moved_tasks as u64;
        mbta_telemetry::counter_add("mbta_partition_replans_total", 1);
        mbta_telemetry::gauge_set(
            "mbta_partition_migrated_nodes",
            (moved.moved_workers + moved.moved_tasks) as f64,
        );

        let mut svc = Self::assemble(universe, plan, states, cut, overlay, run);
        let stats = svc.next_stats(FlushReason::Drain, 0, 0.0);
        let record = |seq, _| {
            WalRecord::Plan(PlanRecord {
                seq,
                retained_weight: plan.retained_weight,
                moved_workers: moved.moved_workers,
                moved_tasks: moved.moved_tasks,
                shards: shard_sets,
            })
        };
        svc.commit(stats, &dropped, record, sink);
        svc
    }
}

/// Opaque state produced by [`DispatchService::detach`] and consumed by
/// [`DispatchService::resume`]: everything a successor service needs to
/// continue a run under a new shard plan. Owns no borrow of the old plan,
/// so the driver is free to drop and rebuild the plan in between.
pub struct CarriedState {
    /// The plan-independent run state, moved whole.
    run: RunState,
    active_workers: Vec<bool>,
    active_tasks: Vec<bool>,
    /// Sorted by edge id: every assigned universe edge plus the shard it
    /// was assigned under (the rescue overlay as pseudo-shard `n_shards`).
    assigned: Vec<(EdgeId, u32)>,
    old_worker_shard: Vec<u32>,
    old_task_shard: Vec<u32>,
}

impl CarriedState {
    /// The live universe edge weights at detach time — what the driver
    /// passes to [`ShardPlan::build`] for the replacement plan.
    pub fn live_weights(&self) -> &[f64] {
        &self.run.live_weights
    }
}

/// Builds per-shard incremental states (empty matchings, every node
/// inactive) over `live_weights` — the plan's own universe weights for a
/// fresh service, the previous instance's live weights on resume — plus
/// a fresh [`CutTracker`] over them.
fn seed_plan_state<'p>(
    universe: &'p BipartiteGraph,
    plan: &'p ShardPlan,
    live_weights: &[f64],
) -> (Vec<IncrementalAssignment<'p>>, CutTracker) {
    let mut states = Vec::with_capacity(plan.n_shards());
    for slice in &plan.shards {
        let mut weights = slice.weights.clone();
        for (local, &parent) in slice.sub.edge_back.iter().enumerate() {
            weights[local] = live_weights[parent.index()];
        }
        let mut st =
            IncrementalAssignment::from_matching(&slice.sub.graph, weights, &Matching::empty())
                .expect("empty seed is always feasible");
        for w in slice.sub.graph.workers() {
            st.deactivate_worker(w);
        }
        for t in slice.sub.graph.tasks() {
            st.deactivate_task(t);
        }
        states.push(st);
    }
    let (mut intra, mut cross) = (0.0f64, 0.0f64);
    for e in universe.edges() {
        if plan.edge_shard[e.index()] == UNMAPPED {
            cross += live_weights[e.index()];
        } else {
            intra += live_weights[e.index()];
        }
    }
    (states, CutTracker::new(intra, cross))
}

/// The decision for universe edge `e` under `shard`, stamped with the
/// edge's live weight.
fn decision(
    g: &BipartiteGraph,
    live_weights: &[f64],
    shard: u32,
    e: EdgeId,
    action: Action,
) -> Decision {
    Decision {
        shard,
        edge: e.raw(),
        action,
        worker: g.worker_of(e).raw(),
        task: g.task_of(e).raw(),
        weight: live_weights[e.index()],
    }
}

/// Maps emitted decisions to their WAL form, preserving order.
fn to_records(decisions: &[Decision]) -> Vec<DecisionRecord> {
    decisions
        .iter()
        .map(|d| DecisionRecord {
            shard: d.shard,
            edge: d.edge,
            assign: matches!(d.action, Action::Assign),
            worker: d.worker,
            task: d.task,
            weight: d.weight,
        })
        .collect()
}

/// Two-pointer diff of sorted edge lists: [`Action::Unassign`] for
/// entries only in `before`, [`Action::Assign`] for entries only in
/// `after`.
fn diff_sorted(before: &[EdgeId], after: &[EdgeId], mut emit: impl FnMut(EdgeId, Action)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < before.len() || j < after.len() {
        if j == after.len() || (i < before.len() && before[i] < after[j]) {
            emit(before[i], Action::Unassign);
            i += 1;
        } else if i == before.len() || after[j] < before[i] {
            emit(after[j], Action::Assign);
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BenefitDrift;
    use crate::queue::DropPolicy;
    use crate::shard::Routing;
    use crate::sink::{CollectSink, WriteSink};
    use mbta_graph::random::{random_bipartite, RandomGraphSpec};
    use mbta_workload::trace::TraceSpec;

    fn universe() -> (BipartiteGraph, Vec<f64>) {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 80,
                n_tasks: 60,
                avg_degree: 5.0,
                capacity: 2,
                demand: 2,
            },
            21,
        );
        let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        (g, w)
    }

    fn stream(g: &BipartiteGraph, seed: u64) -> Vec<Arrival> {
        let trace = TraceSpec {
            horizon: 50.0,
            mean_session: 10.0,
            mean_task_lifetime: 15.0,
            seed,
        }
        .generate(g.n_workers(), g.n_tasks());
        let base = trace.into_iter().map(Arrival::from_trace);
        BenefitDrift::new(g, 0.2, seed).weave(base)
    }

    fn deterministic_cfg() -> ServiceConfig {
        ServiceConfig {
            batch: BatchConfig {
                max_events: 32,
                max_bytes: 1 << 20,
                flush_interval: 4.0,
            },
            queue_cap: 4096,
            drop_policy: DropPolicy::Defer,
            budget: BudgetMode::Deterministic,
            threads: 1,
            boundary_pass: false,
            replan_threshold: None,
            online: None,
            owned_shard: None,
        }
    }

    fn run_to_log(
        g: &BipartiteGraph,
        plan: &ShardPlan,
        events: &[Arrival],
        poison: Option<usize>,
    ) -> (Vec<u8>, ServiceReport) {
        let mut svc = DispatchService::new(g, plan, deterministic_cfg());
        if let Some(s) = poison {
            svc.poison_shard(s);
        }
        let mut sink = WriteSink::new(Vec::new());
        for &a in events {
            while let OfferOutcome::Deferred = svc.offer(a) {
                svc.pump(&mut sink);
            }
            svc.pump(&mut sink);
        }
        let report = svc.finish(&mut sink);
        assert!(sink.error.is_none());
        (sink.into_inner(), report)
    }

    /// Single-shard ownership composes: feeding the *full* stream to one
    /// owned service per shard yields exactly the full run's decisions,
    /// partitioned by shard, with everything else counted as foreign.
    #[test]
    fn owned_shard_runs_partition_the_full_run() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 3, Routing::HashId);
        let events = stream(&g, 29);

        let run = |owned: Option<usize>| {
            let mut cfg = deterministic_cfg();
            cfg.owned_shard = owned;
            let mut svc = DispatchService::new(&g, &plan, cfg);
            let mut sink = CollectSink::default();
            for &a in &events {
                while let OfferOutcome::Deferred = svc.offer(a) {
                    svc.pump(&mut sink);
                }
                svc.pump(&mut sink);
            }
            let report = svc.finish(&mut sink);
            (sink.decisions, report)
        };

        let (full, full_rep) = run(None);
        assert!(!full.is_empty());
        let mut union: Vec<Decision> = Vec::new();
        let mut processed = 0u64;
        for s in 0..plan.n_shards() {
            let (dec, rep) = run(Some(s));
            assert!(
                dec.iter().all(|d| d.shard == s as u32),
                "owned run emitted a decision for a shard it does not own"
            );
            assert_eq!(rep.capacity_violations, 0);
            // Conservation: every ingress event is processed, invalid,
            // cross-shard, or foreign — nothing vanishes silently.
            assert_eq!(
                rep.events_in,
                rep.events_processed
                    + rep.invalid_events
                    + rep.cross_benefit_drops
                    + rep.foreign_events
            );
            assert!(rep.foreign_events > 0, "3 shards must see foreign events");
            processed += rep.events_processed;
            union.extend(dec);
        }
        assert_eq!(processed, full_rep.events_processed);
        // Same decisions, shard by shard, in the full run's order.
        let key = |d: &Decision| (d.shard, d.edge, d.action as u8, d.weight.to_bits());
        let mut full_sorted: Vec<_> = full.iter().map(key).collect();
        let mut union_sorted: Vec<_> = union.iter().map(key).collect();
        full_sorted.sort_unstable();
        union_sorted.sort_unstable();
        assert_eq!(full_sorted, union_sorted);
        assert_eq!(full_rep.foreign_events, 0, "full run owns every shard");
    }

    /// Replay is exact after every batch — each shard's assigned value
    /// equals a cold exact solve of its active sub-market — and, the pool's
    /// determinism contract, a 4-thread replay produces the same decision
    /// bytes as the sequential path.
    #[test]
    fn threaded_replay_is_exact_and_matches_sequential() {
        use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
        use mbta_util::fixed::objectives_close;
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        for seed in [3, 17] {
            let events = stream(&g, seed);
            let run_with = |threads: usize| {
                let mut cfg = deterministic_cfg();
                cfg.threads = threads;
                let mut svc = DispatchService::new(&g, &plan, cfg);
                let mut sink = WriteSink::new(Vec::new());
                for &a in &events {
                    while let OfferOutcome::Deferred = svc.offer(a) {
                        svc.pump(&mut sink);
                    }
                    svc.pump(&mut sink);
                    // Between batches every shard sits on its optimum.
                    for (s, st) in svc.states.iter().enumerate() {
                        let aw = st.active_weights();
                        let (cold, _) = max_weight_bmatching(
                            st.graph(),
                            &aw,
                            FlowMode::FreeCardinality,
                            PathAlgo::Dijkstra,
                        );
                        let (got, want) = (st.total_weight(), cold.total_weight(&aw));
                        assert!(
                            objectives_close(got, want, aw.len()),
                            "seed {seed}, {threads} threads, shard {s}: {got} vs cold {want}"
                        );
                    }
                }
                let report = svc.finish(&mut sink);
                (sink.into_inner(), report)
            };
            let (log_1, rep_1) = run_with(1);
            let (log_4, rep_4) = run_with(4);
            assert!(rep_1.batches > 5, "seed {seed}: {rep_1:?}");
            assert_eq!(log_1, log_4, "threaded replay diverged from sequential");
            assert_eq!(
                (rep_1.final_value, rep_1.reseeds),
                (rep_4.final_value, rep_4.reseeds)
            );
            assert_eq!(rep_1.capacity_violations + rep_4.capacity_violations, 0);
            // Unbudgeted repairs always complete; nothing is approximate.
            assert_eq!(rep_1.tier_exact, rep_1.solves);
            assert_eq!((rep_1.pool_threads, rep_4.pool_threads), (1, 4));
            assert_eq!(rep_1.steals, 0, "sequential path cannot steal");
        }
    }

    /// Global service metrics advance by at least this run's report totals
    /// (`>=`: sibling tests share the process-wide registry).
    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_counts_batches_events_and_latency() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 2, Routing::HashId);
        let events = stream(&g, 3);
        let batches = mbta_telemetry::global().counter("mbta_service_batches_total");
        let ev = mbta_telemetry::global().counter("mbta_service_events_total");
        let lat = mbta_telemetry::global().histogram("mbta_service_batch_solve_ms");
        let (b0, e0, l0) = (batches.get(), ev.get(), lat.count());
        let (_, report) = run_to_log(&g, &plan, &events, None);
        assert!(report.batches > 0);
        assert!(batches.get() >= b0 + report.batches);
        assert!(ev.get() >= e0 + report.events_in);
        assert!(lat.count() >= l0 + report.batches);
    }

    #[test]
    fn capacity_invariant_holds_and_decisions_reconcile() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 13);
        let mut svc = DispatchService::new(&g, &plan, deterministic_cfg());
        let mut sink = CollectSink::default();
        for &a in &events {
            while let OfferOutcome::Deferred = svc.offer(a) {
                svc.pump(&mut sink);
            }
            svc.pump(&mut sink);
        }
        for st in &svc.states {
            st.check_invariants();
        }
        let report = svc.finish(&mut sink);
        assert_eq!(report.capacity_violations, 0);
        assert!(report.events_processed > 0);
        assert!(report.batches > 0);
        assert!(report.reseeds > 0, "no solve improvement was ever adopted");
        assert!(report.reseeds <= report.solves);
        // Net assignment deltas must equal the final assignment.
        assert_eq!(net_assignments(&sink), report.final_assignments as i64);
        // Ingress accounting closes.
        assert_eq!(
            report.events_in,
            report.events_processed
                + report.invalid_events
                + report.cross_benefit_drops
                + report.dropped_newest
                + report.dropped_oldest
        );
    }

    #[test]
    fn poisoned_shard_degrades_alone() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 31);
        let (_, report) = run_to_log(&g, &plan, &events, Some(0));
        assert_eq!(
            report.capacity_violations, 0,
            "poison must not break feasibility"
        );
        assert!(
            report.degraded_by_shard[0] > 0,
            "poisoned shard never solved: {:?}",
            report.degraded_by_shard
        );
        for s in 1..4 {
            assert_eq!(
                report.degraded_by_shard[s], 0,
                "sibling shard {s} degraded: {:?}",
                report.degraded_by_shard
            );
        }
        assert_eq!(
            report.tier_degraded as usize,
            report.degraded_by_shard[0] as usize
        );
        assert!(report.tier_exact > 0, "siblings should still reach exact");
    }

    #[test]
    fn drop_newest_overload_is_counted_not_fatal() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 2, Routing::Range);
        let events = stream(&g, 5);
        let mut cfg = deterministic_cfg();
        cfg.queue_cap = 8;
        cfg.drop_policy = DropPolicy::DropNewest;
        let mut svc = DispatchService::new(&g, &plan, cfg);
        let mut sink = CollectSink::default();
        // Burst everything in without pumping: the queue must overflow.
        for &a in &events {
            svc.offer(a);
        }
        let report = svc.finish(&mut sink);
        assert!(
            report.dropped_newest > 0,
            "burst did not overflow the queue"
        );
        assert_eq!(report.queue_high_watermark, 8);
        assert_eq!(report.capacity_violations, 0);
        assert_eq!(
            report.events_in,
            report.events_processed
                + report.invalid_events
                + report.cross_benefit_drops
                + report.dropped_newest
        );
    }

    #[test]
    fn defer_backpressure_loses_nothing() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 2, Routing::HashId);
        let events = stream(&g, 5);
        let mut cfg = deterministic_cfg();
        cfg.queue_cap = 4;
        let mut svc = DispatchService::new(&g, &plan, cfg);
        let mut sink = CollectSink::default();
        // Only pump when told to: deferrals must occur, no event lost.
        for &a in &events {
            while let OfferOutcome::Deferred = svc.offer(a) {
                svc.pump(&mut sink);
            }
        }
        let report = svc.finish(&mut sink);
        assert!(report.deferrals > 0, "cap-4 queue never deferred");
        // Every deferral was pumped and re-offered, so each deferred burst
        // ends in exactly one admitted retry.
        assert!(report.defer_retry_ok > 0, "retry successes went uncounted");
        assert!(report.defer_retry_ok <= report.deferrals);
        assert_eq!(report.dropped_newest + report.dropped_oldest, 0);
        assert_eq!(report.events_in, events.len() as u64);
        assert_eq!(
            report.events_processed + report.invalid_events + report.cross_benefit_drops,
            report.events_in
        );
    }

    #[test]
    fn malformed_events_are_rejected_at_admission() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 2, Routing::HashId);
        let bad = [
            Arrival {
                time: 0.1,
                event: ServiceEvent::WorkerJoin(9_999),
            },
            Arrival {
                time: 0.2,
                event: ServiceEvent::TaskPost(9_999),
            },
            Arrival {
                time: 0.3,
                event: ServiceEvent::BenefitUpdate {
                    edge: 0,
                    weight: f64::NAN,
                },
            },
            Arrival {
                time: 0.4,
                event: ServiceEvent::BenefitUpdate {
                    edge: 0,
                    weight: -1.0,
                },
            },
            Arrival {
                time: 0.5,
                event: ServiceEvent::BenefitUpdate {
                    edge: 1 << 30,
                    weight: 0.5,
                },
            },
        ];
        let mut svc = DispatchService::new(&g, &plan, deterministic_cfg());
        let mut sink = CollectSink::default();
        for a in bad {
            svc.offer(a);
        }
        let report = svc.finish(&mut sink);
        assert_eq!(report.invalid_events, 5);
        assert_eq!(report.events_processed, 0);
        assert_eq!(report.capacity_violations, 0);
    }

    /// Satellite regression: the report's retained fraction must follow
    /// the *live* weights, not the plan-time ones. Cratering every intra
    /// edge's weight via benefit updates has to drag it down.
    #[test]
    fn report_retained_weight_tracks_live_drift() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let plan_retained = plan.retained_weight;
        let mut events = Vec::new();
        let mut time = 0.0;
        for e in g.edges() {
            if plan.edge_shard[e.index()] != UNMAPPED {
                time += 0.01;
                events.push(Arrival {
                    time,
                    event: ServiceEvent::BenefitUpdate {
                        edge: e.raw(),
                        weight: 1e-3,
                    },
                });
            }
        }
        let (_, report) = run_to_log(&g, &plan, &events, None);
        assert!(
            report.retained_weight < plan_retained - 0.1,
            "report retained {} did not move off the plan-time figure {}",
            report.retained_weight,
            plan_retained
        );
    }

    /// The boundary pass recovers cross-shard weight without breaking
    /// feasibility, accounting, or determinism across thread counts.
    #[test]
    fn boundary_pass_rescues_cross_weight_deterministically() {
        let (g, w) = universe();
        // Hash routing at 8 shards cuts heavily: plenty to rescue.
        let plan = ShardPlan::build(&g, &w, 8, Routing::HashId);
        let events = stream(&g, 19);
        let run_with = |threads: usize, boundary: bool| {
            let mut cfg = deterministic_cfg();
            cfg.threads = threads;
            cfg.boundary_pass = boundary;
            let mut svc = DispatchService::new(&g, &plan, cfg);
            let mut sink = WriteSink::new(Vec::new());
            for &a in &events {
                while let OfferOutcome::Deferred = svc.offer(a) {
                    svc.pump(&mut sink);
                }
                svc.pump(&mut sink);
            }
            let report = svc.finish(&mut sink);
            assert!(sink.error.is_none());
            (sink.into_inner(), report)
        };
        let (_, rep_off) = run_with(1, false);
        let (log_on, rep_on) = run_with(1, true);
        let (log_on4, rep_on4) = run_with(4, true);

        assert_eq!(rep_on.capacity_violations, 0, "rescue broke feasibility");
        assert!(rep_on.rescue_solves > 0, "rescue market never solved");
        assert!(rep_on.rescue_assigns > 0, "rescue never assigned anything");
        assert!(
            rep_on.final_value > rep_off.final_value,
            "rescue recovered nothing: {} vs {}",
            rep_on.final_value,
            rep_off.final_value
        );
        assert!(
            rep_on.effective_retained > rep_on.retained_weight,
            "effective retained must credit rescued cross edges"
        );
        // Cross benefit updates are processed, not dropped, and the
        // ingress accounting still closes.
        assert_eq!(rep_on.cross_benefit_drops, 0);
        assert_eq!(
            rep_on.events_in,
            rep_on.events_processed + rep_on.invalid_events
        );
        // Determinism survives the extra solve stage at any width.
        assert_eq!(log_on, log_on4, "boundary pass diverged across threads");
        assert_eq!(rep_on.final_value, rep_on4.final_value);
        assert_eq!(rep_on.rescued_weight, rep_on4.rescued_weight);
    }

    /// The drift-driven epoch loop (detach → rebuild the plan → resume
    /// whenever a re-plan is due), driving `events` to the final report.
    fn run_epochs(
        g: &BipartiteGraph,
        mut plan: ShardPlan,
        cfg: &ServiceConfig,
        events: &[Arrival],
        sink: &mut impl DecisionSink,
    ) -> ServiceReport {
        let mut idx = 0usize;
        let mut carried: Option<CarriedState> = None;
        loop {
            let mut svc = match carried.take() {
                None => DispatchService::new(g, &plan, cfg.clone()),
                Some(c) => DispatchService::resume(g, &plan, c, sink),
            };
            while idx < events.len() {
                let a = events[idx];
                while let OfferOutcome::Deferred = svc.offer(a) {
                    svc.pump(sink);
                }
                idx += 1;
                svc.pump(sink);
                if svc.replan_due() {
                    break;
                }
            }
            if idx >= events.len() {
                return svc.finish(sink);
            }
            let c = svc.detach();
            plan = ShardPlan::build(g, c.live_weights(), plan.n_shards(), plan.routing);
            carried = Some(c);
        }
    }

    /// Drift-driven re-planning: the epoch loop fires on a drifting trace,
    /// migrates nodes, and keeps every safety invariant.
    #[test]
    fn replan_epoch_loop_migrates_and_stays_feasible() {
        let (g, w) = universe();
        // Stronger drift than the shared helper: the cut must visibly
        // degrade mid-stream for the threshold to fire.
        let events: Vec<Arrival> = {
            let trace = TraceSpec {
                horizon: 50.0,
                mean_session: 10.0,
                mean_task_lifetime: 15.0,
                seed: 7,
            }
            .generate(g.n_workers(), g.n_tasks());
            BenefitDrift::new(&g, 0.3, 7).weave(trace.into_iter().map(Arrival::from_trace))
        };
        let plan = ShardPlan::build(&g, &w, 4, Routing::MinCut);
        let mut cfg = deterministic_cfg();
        // Hair-trigger threshold so the drifting trace actually fires it
        // (several times — the loop must survive repeated migrations).
        cfg.replan_threshold = Some(1e-6);
        cfg.boundary_pass = true;
        let mut sink = CollectSink::default();
        let report = run_epochs(&g, plan, &cfg, &events, &mut sink);
        assert!(report.replans > 0, "threshold 1e-6 never fired");
        assert_eq!(report.capacity_violations, 0);
        assert_eq!(report.events_in, events.len() as u64);
        assert_eq!(
            report.events_in,
            report.events_processed + report.invalid_events
        );
        // Net assignment deltas reconcile across the plan changes.
        assert_eq!(net_assignments(&sink), report.final_assignments as i64);
    }

    /// Net assignment count of a decision stream (assigns − unassigns).
    fn net_assignments(sink: &CollectSink) -> i64 {
        let delta = |d: &Decision| match d.action {
            Action::Assign => 1i64,
            Action::Unassign => -1i64,
        };
        sink.decisions.iter().map(delta).sum()
    }

    #[test]
    fn wallclock_budget_mode_completes_with_bounded_batches() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 17);
        let mut cfg = deterministic_cfg();
        cfg.budget = BudgetMode::Wallclock(20);
        let mut svc = DispatchService::new(&g, &plan, cfg);
        let mut sink = CollectSink::default();
        for &a in &events {
            while let OfferOutcome::Deferred = svc.offer(a) {
                svc.pump(&mut sink);
            }
            svc.pump(&mut sink);
        }
        let report = svc.finish(&mut sink);
        assert_eq!(report.capacity_violations, 0);
        assert!(report.solves > 0);
        // Every batch respected the count watermark.
        assert!(sink.batches.iter().all(|b| b.events <= 32));
    }

    fn online_cfg(drift_threshold: f64) -> ServiceConfig {
        let mut cfg = deterministic_cfg();
        cfg.online = Some(OnlineConfig { drift_threshold });
        cfg
    }

    fn run_online(
        g: &BipartiteGraph,
        plan: &ShardPlan,
        events: &[Arrival],
        threshold: f64,
        poison: Option<usize>,
    ) -> (Vec<u8>, ServiceReport) {
        let mut svc = DispatchService::new(g, plan, online_cfg(threshold));
        if let Some(s) = poison {
            svc.poison_shard(s);
        }
        let mut sink = WriteSink::new(Vec::new());
        for &a in events {
            while let OfferOutcome::Deferred = svc.offer(a) {
                svc.pump(&mut sink);
            }
            svc.pump(&mut sink);
        }
        for st in &svc.states {
            st.check_invariants();
        }
        let report = svc.finish(&mut sink);
        assert!(sink.error.is_none());
        (sink.into_inner(), report)
    }

    /// The drift fallback solves on active weights, where an inactive
    /// endpoint's edges read as weight 0; with those filtered out its
    /// solution stays adoptable after a worker leaves.
    #[test]
    fn zero_weight_edges_are_filtered_for_reseed() {
        // Greedy takes 0.9 + 0.5; once worker 1 leaves, the active optimum
        // is 0.8 + 0.7 and the fallback must adopt it.
        let g = mbta_graph::random::from_edges(
            &[1, 1, 1],
            &[1, 1],
            &[
                (0, 0, 0.9, 0.9),
                (0, 1, 0.8, 0.8),
                (1, 1, 0.5, 0.5),
                (2, 0, 0.7, 0.7),
            ],
        );
        let w: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
        let plan = ShardPlan::build(&g, &w, 1, Routing::HashId);
        let events: Vec<Arrival> = [
            ServiceEvent::WorkerJoin(0),
            ServiceEvent::WorkerJoin(1),
            ServiceEvent::TaskPost(0),
            ServiceEvent::TaskPost(1),
            ServiceEvent::WorkerJoin(2),
            ServiceEvent::WorkerLeave(1),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, event)| Arrival {
            time: i as f64,
            event,
        })
        .collect();
        let (_, report) = run_online(&g, &plan, &events, 0.1, None);
        assert!(report.reseeds >= 1, "{report:?}");
        assert_eq!(report.final_assignments, 2);
        assert!((report.final_value - 1.5).abs() < 1e-9, "{report:?}");
        assert_eq!(report.capacity_violations, 0);
    }

    #[test]
    fn online_replay_is_byte_identical() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 7);
        let (log_a, rep_a) = run_online(&g, &plan, &events, 0.1, None);
        let (log_b, rep_b) = run_online(&g, &plan, &events, 0.1, None);
        assert!(!log_a.is_empty(), "online replay produced no decisions");
        assert_eq!(log_a, log_b, "online decision logs diverged");
        assert_eq!(rep_a.decisions, rep_b.decisions);
        assert_eq!(rep_a.online_events, rep_b.online_events);
        assert_eq!(rep_a.online_fallbacks, rep_b.online_fallbacks);
        assert_eq!(rep_a.online_exchanges, rep_b.online_exchanges);
        assert_eq!(rep_a.final_assignments, rep_b.final_assignments);
        assert_eq!(
            rep_a.batches, rep_a.flush_online,
            "every online batch is a per-event flush"
        );
        assert_eq!(rep_a.capacity_violations, 0);
    }

    #[test]
    fn online_decisions_reconcile_and_fallbacks_fire() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 13);
        let mut svc = DispatchService::new(&g, &plan, online_cfg(0.05));
        let mut sink = CollectSink::default();
        for &a in &events {
            while let OfferOutcome::Deferred = svc.offer(a) {
                svc.pump(&mut sink);
            }
            svc.pump(&mut sink);
        }
        for st in &svc.states {
            st.check_invariants();
        }
        let report = svc.finish(&mut sink);
        assert_eq!(report.capacity_violations, 0);
        assert!(report.online_events > 0);
        assert!(
            report.online_fallbacks > 0,
            "hair-trigger threshold never fell back"
        );
        assert_eq!(
            report.online_warm_solves, report.online_fallbacks,
            "healthy shards must solve on every fallback"
        );
        // Warm solves feed the solve-latency histogram.
        assert!(report.max_solve_ms > 0.0);
        assert!(report.p99_solve_ms > 0.0);
        // Net assignment deltas equal the final assignment.
        assert_eq!(net_assignments(&sink), report.final_assignments as i64);
        // Ingress accounting closes in online mode too.
        assert_eq!(
            report.events_in,
            report.events_processed + report.invalid_events + report.cross_benefit_drops
        );
    }

    /// The online path's quality floor: with the warm fallback armed at
    /// the default threshold, the per-event path retains nearly all of
    /// the batch path's final matched weight on the same stream.
    #[test]
    fn online_weight_tracks_batch() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 2, Routing::HashId);
        let events = stream(&g, 29);
        let (_, batch) = run_to_log(&g, &plan, &events, None);
        let (_, online) = run_online(&g, &plan, &events, 0.2, None);
        assert_eq!(online.capacity_violations, 0);
        // The closing drain ends every healthy shard on an exact warm
        // solve over the same final weights batch mode converges to, so
        // the two paths should land essentially on top of each other.
        assert!(
            online.final_value >= 0.99 * batch.final_value,
            "online final value {} fell too far below batch {}",
            online.final_value,
            batch.final_value
        );
    }

    /// A poisoned shard never warm-solves: its drift accumulator resets
    /// on the greedy floor, siblings keep their exact fallbacks.
    #[test]
    fn online_poisoned_shard_stays_on_greedy_floor() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 31);
        let (_, report) = run_online(&g, &plan, &events, 0.05, Some(0));
        assert_eq!(report.capacity_violations, 0);
        assert!(report.online_events > 0);
        assert!(
            report.online_warm_solves <= report.online_fallbacks,
            "a poisoned shard must not be solved"
        );
    }

    /// Online mode survives drift-driven re-plan migrations: flow networks
    /// are rebuilt for the new topology and the online counters carry over
    /// with the rest of the run state.
    #[test]
    fn online_replan_loop_migrates_and_stays_feasible() {
        let (g, w) = universe();
        let events = stream(&g, 37);
        let plan = ShardPlan::build(&g, &w, 4, Routing::MinCut);
        let mut cfg = online_cfg(0.1);
        cfg.replan_threshold = Some(1e-6);
        let mut sink = CollectSink::default();
        let report = run_epochs(&g, plan, &cfg, &events, &mut sink);
        assert!(report.replans > 0, "threshold 1e-6 never fired");
        assert_eq!(report.capacity_violations, 0);
        assert!(report.online_events > 0);
        assert_eq!(report.online_events, report.events_processed);
        // No shard is poisoned, so every fallback is a warm solve.
        assert_eq!(report.online_warm_solves, report.online_fallbacks);
        assert_eq!(report.decisions, sink.decisions.len() as u64);
        assert_eq!(net_assignments(&sink), report.final_assignments as i64);
    }
}
