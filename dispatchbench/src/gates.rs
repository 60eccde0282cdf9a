//! Correctness gates: independent checks of what the program produced.

use crate::inputs::Market;
use crate::Gate;
use mbta_graph::subgraph::{induce, SubgraphSpec};
use mbta_graph::{BipartiteGraph, EdgeId, TaskId, WorkerId};
use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
use mbta_service::ServiceEvent;
use std::path::Path;
use std::time::Instant;

/// Relative tolerance for comparing two totals of the same edge weights
/// summed in different orders.
const VALUE_TOL: f64 = 1e-9;

/// Whether two assignment values agree up to summation order.
pub fn same_value(a: f64, b: f64) -> bool {
    (a - b).abs() <= VALUE_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Capacity violations of an assignment given as universe edge ids: edges
/// outside the universe, edges assigned twice, and workers or tasks loaded
/// past their capacity or demand.
pub fn capacity_violations(g: &BipartiteGraph, edges: impl IntoIterator<Item = u32>) -> usize {
    let mut seen = vec![false; g.n_edges()];
    let mut w_load = vec![0u32; g.n_workers()];
    let mut t_load = vec![0u32; g.n_tasks()];
    let mut violations = 0;
    for e in edges {
        match seen.get_mut(e as usize) {
            None => violations += 1,
            Some(slot) if *slot => violations += 1,
            Some(slot) => {
                *slot = true;
                let edge = EdgeId::new(e);
                w_load[g.worker_of(edge).index()] += 1;
                t_load[g.task_of(edge).index()] += 1;
            }
        }
    }
    violations += g
        .workers()
        .filter(|&w| w_load[w.index()] > g.capacity(w))
        .count();
    violations += g
        .tasks()
        .filter(|&t| t_load[t.index()] > g.demand(t))
        .count();
    violations
}

/// The live market after every event of the stream: which workers and
/// tasks are active, and each edge's latest weight.
pub struct LiveMarket {
    /// Active flag per worker.
    pub workers: Vec<bool>,
    /// Active flag per task.
    pub tasks: Vec<bool>,
    /// Latest weight per universe edge.
    pub weights: Vec<f64>,
}

/// Replays `market`'s events into the final live market (activation is
/// idempotent; the last lifecycle event of a node wins).
pub fn final_market(market: &Market) -> LiveMarket {
    let g = &market.graph;
    let mut live = LiveMarket {
        workers: vec![false; g.n_workers()],
        tasks: vec![false; g.n_tasks()],
        weights: market.weights.clone(),
    };
    for a in &market.events {
        match a.event {
            ServiceEvent::WorkerJoin(w) => live.workers[w as usize] = true,
            ServiceEvent::WorkerLeave(w) => live.workers[w as usize] = false,
            ServiceEvent::TaskPost(t) => live.tasks[t as usize] = true,
            ServiceEvent::TaskCancel(t) | ServiceEvent::TaskComplete(t) => {
                live.tasks[t as usize] = false
            }
            ServiceEvent::BenefitUpdate { edge, weight } => live.weights[edge as usize] = weight,
        }
    }
    live
}

/// Value of a cold exact solve of the final live market, rebuilt from
/// the generated events alone.
pub fn cold_exact_value(market: &Market) -> f64 {
    let g = &market.graph;
    let live = final_market(market);
    let workers: Vec<(WorkerId, u32)> = g
        .workers()
        .filter(|w| live.workers[w.index()])
        .map(|w| (w, g.capacity(w)))
        .collect();
    let tasks: Vec<(TaskId, u32)> = g
        .tasks()
        .filter(|t| live.tasks[t.index()])
        .map(|t| (t, g.demand(t)))
        .collect();
    let sub = induce(
        g,
        &SubgraphSpec {
            workers: &workers,
            tasks: &tasks,
        },
        |_| true,
    );
    let weights = sub.project_weights(&live.weights);
    let (m, _) = max_weight_bmatching(
        &sub.graph,
        &weights,
        FlowMode::FreeCardinality,
        PathAlgo::Dijkstra,
    );
    m.total_weight(&weights)
}

/// Rebuilds the state journaled under `dir` with `mbta_store::recover`
/// and checks it against the run's report. Returns the gate and the
/// seconds `recover` took.
pub fn recover_matches(
    name: &str,
    dir: &Path,
    g: &BipartiteGraph,
    assignments: usize,
    value: f64,
) -> (Gate, f64) {
    let t = Instant::now();
    let rec = mbta_service::recover(dir);
    let recover_s = t.elapsed().as_secs_f64();
    let gate = match rec {
        Err(e) => Gate::new(name, false, format!("recover {}: {e}", dir.display())),
        Ok(state) => {
            let violations = capacity_violations(g, state.shards.iter().flatten().copied());
            let ok = state.assignments() == assignments
                && same_value(state.total_weight(), value)
                && violations == 0;
            Gate::new(
                name,
                ok,
                format!(
                    "recovered {} assignments worth {:.6} with {violations} violations; \
                     run reported {assignments} worth {value:.6}",
                    state.assignments(),
                    state.total_weight()
                ),
            )
        }
    };
    (gate, recover_s)
}
