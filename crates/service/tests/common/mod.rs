//! The drift-driven epoch loop the integration tests share.

use mbta_graph::BipartiteGraph;
use mbta_service::{
    Arrival, CarriedState, DecisionSink, DispatchService, DurableStore, OfferOutcome,
    ServiceConfig, ServiceReport, ShardPlan,
};

/// Streams `events` through a service over `plan` with `store` attached,
/// detaching, rebuilding the plan from the live weights and resuming
/// whenever a re-plan is due, and returns the final report.
pub fn run_epochs(
    g: &BipartiteGraph,
    mut plan: ShardPlan,
    cfg: &ServiceConfig,
    store: Option<DurableStore>,
    events: &[Arrival],
    sink: &mut impl DecisionSink,
) -> ServiceReport {
    let mut store = store;
    let mut idx = 0usize;
    let mut carried: Option<CarriedState> = None;
    loop {
        let mut svc = match carried.take() {
            None => {
                let mut svc = DispatchService::new(g, &plan, cfg.clone());
                if let Some(store) = store.take() {
                    svc.attach_store(store);
                }
                svc
            }
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
