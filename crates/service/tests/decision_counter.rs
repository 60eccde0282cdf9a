//! `mbta_service_decisions_total` counts every emitted decision, the
//! ones a re-plan emits for edges it drops included. The test reads the
//! process-wide registry, so it lives alone in its own test binary where
//! no sibling test can move the counter.

mod common;

use mbta_graph::random::{random_bipartite, RandomGraphSpec};
use mbta_service::{
    Arrival, BatchConfig, BatchStats, BenefitDrift, BudgetMode, Decision, DecisionSink, DropPolicy,
    FlushReason, OnlineConfig, Routing, ServiceConfig, ShardPlan,
};
use mbta_workload::trace::TraceSpec;

/// Records, per sink call, the flush reason, the event count and the
/// number of decisions.
#[derive(Default)]
struct CountingSink {
    calls: Vec<(FlushReason, usize, usize)>,
}

impl DecisionSink for CountingSink {
    fn on_batch(&mut self, stats: &BatchStats, decisions: &[Decision]) {
        self.calls
            .push((stats.reason, stats.events, decisions.len()));
    }
}

#[cfg(feature = "telemetry")]
#[test]
fn decision_counter_includes_replan_drops() {
    let g = random_bipartite(
        &RandomGraphSpec {
            n_workers: 200,
            n_tasks: 150,
            avg_degree: 5.0,
            capacity: 2,
            demand: 2,
        },
        21,
    );
    let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
    let trace = TraceSpec {
        horizon: 50.0,
        mean_session: 10.0,
        mean_task_lifetime: 15.0,
        seed: 7,
    }
    .generate(g.n_workers(), g.n_tasks());
    let events: Vec<Arrival> =
        BenefitDrift::new(&g, 0.3, 7).weave(trace.into_iter().map(Arrival::from_trace));

    // Online mode with the boundary pass off: a re-plan unassigns every
    // carried edge that turned cross-shard, as a `Drain` commit with no
    // events behind it.
    let cfg = ServiceConfig {
        batch: BatchConfig::default(),
        queue_cap: 4096,
        drop_policy: DropPolicy::Defer,
        budget: BudgetMode::Deterministic,
        threads: 1,
        boundary_pass: false,
        replan_threshold: Some(1e-6),
        online: Some(OnlineConfig {
            drift_threshold: 0.1,
        }),
        owned_shard: None,
    };
    let plan = ShardPlan::build(&g, &w, 8, Routing::HashId);
    let counter = mbta_telemetry::global().counter("mbta_service_decisions_total");
    let before = counter.get();
    let mut sink = CountingSink::default();
    let report = common::run_epochs(&g, plan, &cfg, None, &events, &mut sink);

    assert!(report.replans > 0, "threshold 1e-6 never fired");
    assert!(
        sink.calls
            .iter()
            .any(|&(reason, events, n)| reason == FlushReason::Drain && events == 0 && n > 0),
        "no re-plan dropped an edge, so the case under test never ran"
    );
    assert_eq!(counter.get() - before, report.decisions);
}
