//! Min-cost max-flow — the exact solver behind `ExactMB`.
//!
//! The weighted b-matching "maximize total benefit subject to capacities and
//! demands" reduces to min-cost flow on the standard 4-layer network
//! (source → workers → tasks → sink) with arc cost `-profit(e)` on each
//! eligibility edge, where `profit` is the fixed-point integer rendering of
//! the edge's benefit ([`mbta_util::fixed`]). Integer costs make every
//! comparison exact; no float drift across thousands of augmentations.
//!
//! [`crate::warm::WarmNet`] is the one place that network is built: a cold
//! solve here runs on a fresh `WarmNet`, and the certificate verifier
//! applies the matching to one as its flow. [`CostFlow`] runs the cold
//! searches on it: one successive-shortest-path loop and one queue
//! Bellman–Ford. The incremental re-solve (`WarmNet::solve`) keeps one net
//! per shard and runs its own nearest-deficit searches on the same arcs.
//!
//! Two path-finding strategies are provided (the F12 ablation):
//!
//! * [`PathAlgo::Dijkstra`] — successive shortest augmenting paths on
//!   *reduced* costs with Johnson potentials; one initial SPFA pass
//!   eliminates the negative costs, then every iteration is a plain Dijkstra
//!   over an [`IndexedHeap`]. The asymptotically right choice.
//! * [`PathAlgo::Spfa`] — queue-based Bellman–Ford every iteration; simpler,
//!   no potentials, and the classic "fast in practice on sparse graphs"
//!   folklore choice. Usually loses to Dijkstra once instances grow.
//!
//! Two cardinality modes:
//!
//! * [`FlowMode::FreeCardinality`] — stop as soon as the cheapest augmenting
//!   path has non-negative true cost: the profit-maximizing b-matching of
//!   *any* size. This is the `ExactMB` objective (benefits are ≥ 0 per edge,
//!   but residual paths can have negative marginal profit).
//! * [`FlowMode::MaxFlow`] — saturate: among maximum-cardinality
//!   assignments, the most profitable one.

use crate::solution::Matching;
use crate::warm::WarmNet;
use mbta_graph::BipartiteGraph;
use mbta_util::{IndexedHeap, SolveCtl};

pub(crate) const NONE: u32 = u32::MAX;
pub(crate) const INF: i64 = i64::MAX / 4;

/// Path-finding strategy for the successive-shortest-path loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathAlgo {
    /// Dijkstra on reduced costs with Johnson potentials.
    Dijkstra,
    /// Queue-based Bellman–Ford (SPFA) on raw costs, every iteration.
    Spfa,
}

/// When the augmentation loop stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowMode {
    /// Stop when the next augmenting path would not improve the objective.
    FreeCardinality,
    /// Push flow until no augmenting path exists.
    MaxFlow,
}

/// A min-cost flow network (forward/backward arc-pair arena, `i64` costs).
#[derive(Debug, Clone)]
pub struct CostFlow {
    pub(crate) head: Vec<u32>,
    pub(crate) next: Vec<u32>,
    pub(crate) first: Vec<u32>,
    pub(crate) cap: Vec<u32>,
    pub(crate) cost: Vec<i64>,
    pub(crate) n_nodes: usize,
}

/// Node potentials plus the labels of the last path search: the state a
/// solve keeps besides the flow.
#[derive(Debug, Clone)]
pub(crate) struct Labels {
    /// Johnson potentials: searches run on reduced costs
    /// `cost + π[u] − π[v]`.
    pub(crate) pi: Vec<i64>,
    pub(crate) dist: Vec<i64>,
    pub(crate) parent: Vec<u32>,
    pub(crate) heap: IndexedHeap<i64>,
}

impl Labels {
    pub(crate) fn new(n_nodes: usize) -> Labels {
        Labels {
            pi: vec![0; n_nodes],
            dist: vec![INF; n_nodes],
            parent: vec![NONE; n_nodes],
            heap: IndexedHeap::new(n_nodes),
        }
    }
}

/// Result of a [`CostFlow::run`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowResult {
    /// Total flow pushed.
    pub flow: u64,
    /// Total cost of the pushed flow (sum over arcs of `flow × cost`).
    pub cost: i64,
    /// Number of augmenting-path iterations.
    pub iterations: u64,
    /// Number of nonzero Johnson-potential adjustments performed across
    /// all iterations (0 for SPFA, which runs without potentials).
    pub potential_updates: u64,
}

impl CostFlow {
    /// Creates a network with `n_nodes` nodes and no arcs.
    pub fn new(n_nodes: usize) -> Self {
        Self {
            head: Vec::new(),
            next: Vec::new(),
            first: vec![NONE; n_nodes],
            cap: Vec::new(),
            cost: Vec::new(),
            n_nodes,
        }
    }

    /// Pre-reserves space for `n_arcs` logical arcs.
    pub fn reserve(&mut self, n_arcs: usize) {
        self.head.reserve(2 * n_arcs);
        self.next.reserve(2 * n_arcs);
        self.cap.reserve(2 * n_arcs);
        self.cost.reserve(2 * n_arcs);
    }

    /// Adds an arc `from → to` with capacity `cap` and per-unit cost `cost`.
    /// Returns the arc id; the residual twin is `id ^ 1`.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: u32, cost: i64) -> u32 {
        debug_assert!(from < self.n_nodes && to < self.n_nodes);
        let id = self.head.len() as u32;
        self.head.push(to as u32);
        self.cap.push(cap);
        self.cost.push(cost);
        self.next.push(self.first[from]);
        self.first[from] = id;

        self.head.push(from as u32);
        self.cap.push(0);
        self.cost.push(-cost);
        self.next.push(self.first[to]);
        self.first[to] = id + 1;
        id
    }

    /// Flow pushed through arc `id`.
    pub fn flow(&self, id: u32) -> u32 {
        self.cap[(id ^ 1) as usize]
    }

    /// Runs successive shortest augmenting paths from `source` to `sink`.
    pub fn run(
        &mut self,
        source: usize,
        sink: usize,
        mode: FlowMode,
        algo: PathAlgo,
    ) -> FlowResult {
        self.run_with_ctl(source, sink, mode, algo, &SolveCtl::unlimited())
            .0
    }

    /// Like [`run`](Self::run), but consulting `ctl` between (and inside)
    /// path searches. Returns `(result, completed)`: on early stop the
    /// partial flow is still feasible — a prefix of the augmenting-path
    /// sequence — but `completed` is `false` and optimality is forfeited.
    pub fn run_with_ctl(
        &mut self,
        source: usize,
        sink: usize,
        mode: FlowMode,
        algo: PathAlgo,
        ctl: &SolveCtl,
    ) -> (FlowResult, bool) {
        let mut lb = Labels::new(self.n_nodes);
        self.run_from(&mut lb, source, sink, mode, algo, ctl)
    }

    /// [`run_with_ctl`](Self::run_with_ctl) on caller-owned labels, which
    /// keep the final potentials.
    pub(crate) fn run_from(
        &mut self,
        lb: &mut Labels,
        source: usize,
        sink: usize,
        mode: FlowMode,
        algo: PathAlgo,
        ctl: &SolveCtl,
    ) -> (FlowResult, bool) {
        assert_ne!(source, sink);
        lb.pi.fill(0);
        if algo == PathAlgo::Dijkstra {
            // One pass on raw costs (negative arcs, no negative cycles)
            // makes every reduced cost non-negative.
            if !self.bellman_ford(source, &mut lb.dist, &mut lb.parent, ctl) {
                return (FlowResult::default(), false);
            }
            for (p, &d) in lb.pi.iter_mut().zip(&lb.dist) {
                *p = if d >= INF { 0 } else { d };
            }
        }
        self.ssp(lb, source, sink, mode, algo, ctl)
    }

    /// The successive-shortest-path loop from the current flow and
    /// potentials: search a cheapest augmenting path (Dijkstra on reduced
    /// costs, or SPFA on raw costs with `π = 0`), push its bottleneck,
    /// and under Dijkstra shift `π` so reduced costs stay non-negative.
    /// Returns `(result, completed)`; `completed` is `false` when `ctl`
    /// stopped it, leaving the flow pushed so far (a feasible prefix).
    pub(crate) fn ssp(
        &mut self,
        lb: &mut Labels,
        source: usize,
        sink: usize,
        mode: FlowMode,
        algo: PathAlgo,
        ctl: &SolveCtl,
    ) -> (FlowResult, bool) {
        let Labels {
            pi,
            dist,
            parent,
            heap,
        } = lb;
        let mut r = FlowResult::default();
        loop {
            // An interrupted search leaves partial labels that would
            // corrupt the potential update; discard it.
            let found = !ctl.stop_requested()
                && match algo {
                    PathAlgo::Dijkstra => self.dijkstra(source, sink, pi, dist, parent, heap, ctl),
                    PathAlgo::Spfa => self.bellman_ford(source, dist, parent, ctl),
                };
            if !found {
                return (r, false);
            }
            if dist[sink] >= INF {
                return (r, true);
            }
            let true_cost = dist[sink] + pi[sink] - pi[source];
            if mode == FlowMode::FreeCardinality && true_cost >= 0 {
                return (r, true);
            }
            r.iterations += 1;
            let (pushed, path_cost) = self.augment(source, sink, parent);
            debug_assert_eq!(path_cost, true_cost);
            r.flow += u64::from(pushed);
            r.cost += i64::from(pushed) * path_cost;
            if algo == PathAlgo::Dijkstra {
                let dt = dist[sink];
                for (p, &d) in pi.iter_mut().zip(dist.iter()) {
                    let adj = d.min(dt);
                    *p += adj;
                    r.potential_updates += u64::from(adj != 0);
                }
            }
        }
    }

    /// Queue Bellman–Ford (SPFA) from `from` over the residual graph on raw
    /// costs, filling `dist` and `parent`. Returns `false` when `ctl`
    /// stopped the pass; the labels must not be used then.
    pub(crate) fn bellman_ford(
        &self,
        from: usize,
        dist: &mut [i64],
        parent: &mut [u32],
        ctl: &SolveCtl,
    ) -> bool {
        let n = self.n_nodes;
        parent.fill(NONE);
        dist.fill(INF);
        dist[from] = 0;
        let mut in_queue = vec![false; n];
        let mut queue = std::collections::VecDeque::with_capacity(n);
        queue.push_back(from as u32);
        in_queue[from] = true;
        while let Some(v) = queue.pop_front() {
            if ctl.should_stop() {
                return false;
            }
            let v = v as usize;
            in_queue[v] = false;
            let dv = dist[v];
            let mut a = self.first[v];
            while a != NONE {
                let ai = a as usize;
                if self.cap[ai] > 0 {
                    let to = self.head[ai] as usize;
                    let nd = dv + self.cost[ai];
                    if nd < dist[to] {
                        dist[to] = nd;
                        parent[to] = a;
                        if !in_queue[to] {
                            in_queue[to] = true;
                            queue.push_back(to as u32);
                        }
                    }
                }
                a = self.next[ai];
            }
        }
        true
    }

    /// Dijkstra from `source` on reduced costs `cost + π[u] − π[v]`,
    /// terminating as soon as `sink` is finalized. Returns `false` if
    /// stopped early by `ctl`. The labels come in as separate slices so
    /// the compiler can keep them apart from the arc arrays in the hot
    /// loop.
    ///
    /// Early termination is sound together with the potential update
    /// `π[v] += min(dist[v], dist[sink])` (treating untouched nodes as
    /// `dist = ∞ → min = dist[sink]`): for every residual arc `u → v` the
    /// updated reduced cost stays non-negative — finalized→finalized is the
    /// classic argument; any node adjacent to a finalized node was relaxed,
    /// and all still-queued tentative distances are `≥ dist[sink]` at the
    /// moment the sink pops, which covers the remaining cases.
    #[allow(clippy::too_many_arguments)] // internal: labels + ctl
    pub(crate) fn dijkstra(
        &self,
        source: usize,
        sink: usize,
        pi: &[i64],
        dist: &mut [i64],
        parent: &mut [u32],
        heap: &mut IndexedHeap<i64>,
        ctl: &SolveCtl,
    ) -> bool {
        dist.fill(INF);
        parent.fill(NONE);
        heap.clear();
        dist[source] = 0;
        heap.push_or_decrease(source, 0);
        while let Some((v, dv)) = heap.pop() {
            if ctl.should_stop() {
                return false;
            }
            if dv > dist[v] {
                continue;
            }
            if v == sink {
                break;
            }
            let mut a = self.first[v];
            while a != NONE {
                let ai = a as usize;
                if self.cap[ai] > 0 {
                    let to = self.head[ai] as usize;
                    let red = self.cost[ai] + pi[v] - pi[to];
                    debug_assert!(red >= 0, "negative reduced cost {red}");
                    let nd = dv + red;
                    if nd < dist[to] {
                        dist[to] = nd;
                        parent[to] = a;
                        heap.push_or_decrease(to, nd);
                    }
                }
                a = self.next[ai];
            }
        }
        true
    }

    /// Augments along `parent` arcs; returns `(bottleneck, true_path_cost)`.
    fn augment(&mut self, source: usize, sink: usize, parent: &[u32]) -> (u32, i64) {
        let mut bottleneck = u32::MAX;
        let mut cost = 0i64;
        let mut v = sink;
        while v != source {
            let a = parent[v] as usize;
            bottleneck = bottleneck.min(self.cap[a]);
            cost += self.cost[a];
            v = self.head[a ^ 1] as usize;
        }
        let mut v = sink;
        while v != source {
            let a = parent[v] as usize;
            self.cap[a] -= bottleneck;
            self.cap[a ^ 1] += bottleneck;
            v = self.head[a ^ 1] as usize;
        }
        (bottleneck, cost)
    }

    /// Whether every residual arc has non-negative reduced cost under `pi`:
    /// the invariant the shortest-path loop both needs and keeps. Holding,
    /// it proves the current flow min-cost for its value.
    pub(crate) fn reduced_costs_ok(&self, pi: &[i64]) -> bool {
        (0..self.head.len()).all(|a| {
            let (from, to) = (self.head[a ^ 1] as usize, self.head[a] as usize);
            self.cap[a] == 0 || self.cost[a] + pi[from] - pi[to] >= 0
        })
    }
}

/// Statistics of an exact b-matching solve, returned alongside the matching.
#[derive(Debug, Clone, Copy)]
pub struct SolveStats {
    /// Augmenting-path iterations performed.
    pub iterations: u64,
    /// Nonzero Johnson-potential adjustments (0 under [`PathAlgo::Spfa`]).
    pub potential_updates: u64,
    /// Total integer profit of the returned matching (fixed-point scale).
    pub profit: i64,
}

/// A cold exact solve — successive shortest paths on a fresh [`WarmNet`] —
/// publishing its intrinsic counters to the telemetry registry.
/// Returns the net (it holds the final potentials) with the outcome.
fn solve_cold(
    g: &BipartiteGraph,
    weights: &[f64],
    mode: FlowMode,
    algo: PathAlgo,
    ctl: &SolveCtl,
) -> (WarmNet, Matching, SolveStats, bool) {
    let mut warm = WarmNet::new(g);
    warm.set_costs(weights);
    let (result, completed) = warm.cold(mode, algo, ctl);
    mbta_telemetry::counter_add(
        "mbta_matching_mcmf_augmenting_paths_total",
        result.iterations,
    );
    mbta_telemetry::counter_add(
        "mbta_matching_mcmf_potential_updates_total",
        result.potential_updates,
    );
    let (m, profit) = warm.matching(g);
    let stats = SolveStats {
        iterations: result.iterations,
        potential_updates: result.potential_updates,
        profit,
    };
    (warm, m, stats, completed)
}

/// Exact maximum-weight b-matching via min-cost flow.
///
/// `weights[e]` is the benefit of edge `e` in `[0, 1]` (values are converted
/// to fixed-point profits; see [`mbta_util::fixed`]). With
/// [`FlowMode::FreeCardinality`] this returns the matching maximizing total
/// weight over all feasible matchings; with [`FlowMode::MaxFlow`], the
/// maximum-weight matching among maximum-cardinality ones.
///
/// # Example
/// ```
/// use mbta_graph::random::from_edges;
/// use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
///
/// // The greedy trap: taking the 0.9 edge blocks the 0.8 + 0.7 pairing.
/// let g = from_edges(
///     &[1, 1],
///     &[1, 1],
///     &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8), (1, 0, 0.7, 0.7)],
/// );
/// let w: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
/// let (m, stats) =
///     max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
/// assert_eq!(m.len(), 2);
/// assert!((m.total_weight(&w) - 1.5).abs() < 1e-6);
/// assert_eq!(stats.iterations, 2);
/// ```
pub fn max_weight_bmatching(
    g: &BipartiteGraph,
    weights: &[f64],
    mode: FlowMode,
    algo: PathAlgo,
) -> (Matching, SolveStats) {
    let (_, m, stats, _) = solve_cold(g, weights, mode, algo, &SolveCtl::unlimited());
    (m, stats)
}

/// Like [`max_weight_bmatching`], but consulting `ctl` so the solve can be
/// cancelled or deadlined. Returns `(matching, stats, completed)`: on early
/// stop the matching is the feasible partial assignment reached so far
/// (every augmenting-path prefix is a valid flow) and `completed` is
/// `false` — the caller must treat the result as approximate.
pub fn max_weight_bmatching_ctl(
    g: &BipartiteGraph,
    weights: &[f64],
    mode: FlowMode,
    algo: PathAlgo,
    ctl: &SolveCtl,
) -> (Matching, SolveStats, bool) {
    let (_, m, stats, completed) = solve_cold(g, weights, mode, algo, ctl);
    (m, stats, completed)
}

/// An optimality certificate for a b-matching: node potentials under which
/// every residual arc of the induced flow has non-negative reduced cost.
///
/// By LP duality this proves the matching is maximum-weight (free
/// cardinality): any improving change corresponds to a negative-cost
/// residual cycle, a negative-cost augmenting path, or a negative-cost
/// de-augmenting path, and the certificate rules all three out.
/// [`verify_certificate`] re-checks the condition from scratch — a
/// downstream user can validate an exact solution without trusting the
/// solver.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Potentials: source, workers, tasks, sink (same node layout as the
    /// solver's internal network).
    pub potentials: Vec<i64>,
}

/// Exact solve plus certificate (free-cardinality mode, Dijkstra path
/// finding).
pub fn max_weight_bmatching_certified(
    g: &BipartiteGraph,
    weights: &[f64],
) -> (Matching, SolveStats, Certificate) {
    let (warm, m, stats, _) = solve_cold(
        g,
        weights,
        FlowMode::FreeCardinality,
        PathAlgo::Dijkstra,
        &SolveCtl::unlimited(),
    );
    let potentials = warm.labels.pi;
    (m, stats, Certificate { potentials })
}

/// Verifies a certificate against a matching, from scratch.
///
/// Builds the flow network, applies the matching as its flow, and checks
/// that (a) the matching is feasible, (b) every residual arc has
/// non-negative reduced cost under the certificate's potentials, and that
/// no strictly profitable (c) source → sink augmenting path or (d) sink →
/// source de-augmenting path remains.
pub fn verify_certificate(
    g: &BipartiteGraph,
    weights: &[f64],
    m: &Matching,
    cert: &Certificate,
) -> bool {
    let mut warm = WarmNet::new(g);
    warm.set_costs(weights);
    if m.validate(g).is_err() || cert.potentials.len() != warm.net.n_nodes || !warm.apply_flow(g, m)
    {
        return false;
    }
    let (source, sink, net) = (warm.source, warm.sink, &warm.net);
    let Labels {
        pi,
        dist,
        parent,
        heap,
    } = &mut warm.labels;
    pi.copy_from_slice(&cert.potentials);
    // (c), (d): reduced costs are non-negative by (b), so Dijkstra is
    // sound; a path's true cost is its reduced length + π[to] − π[from].
    net.reduced_costs_ok(pi)
        && [(source, sink), (sink, source)]
            .into_iter()
            .all(|(from, to)| {
                net.dijkstra(from, to, pi, dist, parent, heap, &SolveCtl::unlimited());
                dist[to] >= INF || dist[to] + pi[to] - pi[from] >= 0
            })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::{from_edges, random_bipartite, RandomGraphSpec};
    use mbta_util::fixed::{benefit_to_profit, objectives_close, profit_to_benefit};

    fn weights_of(g: &BipartiteGraph, lambda: f64) -> Vec<f64> {
        g.edges()
            .map(|e| lambda * g.rb(e) + (1.0 - lambda) * g.wb(e))
            .collect()
    }

    #[test]
    fn picks_the_better_perfect_matching() {
        // Two workers, two tasks. Diagonal matching worth 1.8, off-diagonal
        // worth 0.6 — both are perfect; solver must take the diagonal.
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[
                (0, 0, 0.9, 0.9),
                (0, 1, 0.3, 0.3),
                (1, 0, 0.3, 0.3),
                (1, 1, 0.9, 0.9),
            ],
        );
        let w = weights_of(&g, 0.5);
        for algo in [PathAlgo::Dijkstra, PathAlgo::Spfa] {
            let (m, stats) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, algo);
            m.validate(&g).unwrap();
            assert_eq!(m.len(), 2);
            assert!(objectives_close(m.total_weight(&w), 1.8, 2));
            assert!(objectives_close(profit_to_benefit(stats.profit), 1.8, 2));
        }
    }

    #[test]
    fn needs_augmenting_reroute() {
        // Greedy takes (w0,t0)=0.9 then can only add (w1,t1)... which does
        // not exist; optimum is (w0,t1)+(w1,t0) = 0.8 + 0.7 = 1.5 > 0.9.
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8), (1, 0, 0.7, 0.7)],
        );
        let w = weights_of(&g, 0.5);
        let (m, _) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        assert_eq!(m.len(), 2);
        assert!(objectives_close(m.total_weight(&w), 1.5, 2));
    }

    #[test]
    fn free_cardinality_skips_worthless_edges() {
        let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.5, 0.5), (1, 1, 0.0, 0.0)]);
        let w = weights_of(&g, 0.5);
        let (free, _) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        assert_eq!(free.len(), 1, "zero-weight edge must be skipped");
        let (full, _) = max_weight_bmatching(&g, &w, FlowMode::MaxFlow, PathAlgo::Dijkstra);
        assert_eq!(full.len(), 2, "max-flow mode must saturate");
    }

    #[test]
    fn capacities_and_demands_respected() {
        // Worker 0 (cap 2) is best for all three tasks; task demands 2.
        let g = from_edges(
            &[2, 1],
            &[2, 2],
            &[
                (0, 0, 0.9, 0.9),
                (0, 1, 0.9, 0.9),
                (1, 0, 0.5, 0.5),
                (1, 1, 0.4, 0.4),
            ],
        );
        let w = weights_of(&g, 0.5);
        let (m, _) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        m.validate(&g).unwrap();
        // All 4 edges fit: w0 takes 2, w1 takes 1... w1 capacity is 1 so only
        // 3 edges total.
        assert_eq!(m.len(), 3);
        assert!(objectives_close(m.total_weight(&w), 0.9 + 0.9 + 0.5, 3));
    }

    #[test]
    fn dijkstra_and_spfa_agree_on_random_instances() {
        for seed in 0..15 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 40,
                    n_tasks: 25,
                    avg_degree: 5.0,
                    capacity: 2,
                    demand: 2,
                },
                seed,
            );
            let w = weights_of(&g, 0.5);
            let (md, sd) =
                max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
            let (ms, ss) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Spfa);
            md.validate(&g).unwrap();
            ms.validate(&g).unwrap();
            assert_eq!(sd.profit, ss.profit, "seed {seed}");
            // Objectives must agree exactly in fixed point; edge sets may
            // differ among ties.
            assert!(objectives_close(
                md.total_weight(&w),
                ms.total_weight(&w),
                g.n_edges()
            ));
        }
    }

    #[test]
    fn optimal_beats_exhaustive_small() {
        // Brute-force cross-check on tiny instances.
        for seed in 0..10 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 5,
                    n_tasks: 4,
                    avg_degree: 3.0,
                    capacity: 1,
                    demand: 1,
                },
                seed,
            );
            let w = weights_of(&g, 0.5);
            let (m, _) =
                max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
            m.validate(&g).unwrap();
            let best = brute_force_best(&g, &w);
            assert!(
                objectives_close(m.total_weight(&w), best, g.n_edges()),
                "seed {seed}: flow={} brute={}",
                m.total_weight(&w),
                best
            );
        }
    }

    /// Exhaustive search over all edge subsets (tiny m only).
    fn brute_force_best(g: &BipartiteGraph, w: &[f64]) -> f64 {
        let m = g.n_edges();
        assert!(m <= 20);
        let mut best = 0.0f64;
        'subset: for mask in 0u32..(1 << m) {
            let mut w_load = vec![0u32; g.n_workers()];
            let mut t_load = vec![0u32; g.n_tasks()];
            let mut total = 0.0;
            for e in g.edges() {
                if mask & (1 << e.index()) != 0 {
                    let wi = g.worker_of(e).index();
                    let ti = g.task_of(e).index();
                    w_load[wi] += 1;
                    t_load[ti] += 1;
                    if w_load[wi] > g.capacity(g.worker_of(e))
                        || t_load[ti] > g.demand(g.task_of(e))
                    {
                        continue 'subset;
                    }
                    total += w[e.index()];
                }
            }
            best = best.max(total);
        }
        best
    }

    #[test]
    fn raw_costflow_prefers_cheap_route() {
        // Two parallel routes 0→1→3 (cost 1+1) and 0→2→3 (cost 5+5); pushing
        // 2 units must use the cheap route fully first.
        let mut net = CostFlow::new(4);
        let a01 = net.add_arc(0, 1, 1, 1);
        net.add_arc(1, 3, 1, 1);
        let a02 = net.add_arc(0, 2, 1, 5);
        net.add_arc(2, 3, 1, 5);
        let r = net.run(0, 3, FlowMode::MaxFlow, PathAlgo::Dijkstra);
        assert_eq!(r.flow, 2);
        assert_eq!(r.cost, 2 + 10);
        assert_eq!(net.flow(a01), 1);
        assert_eq!(net.flow(a02), 1);
    }

    #[test]
    fn raw_costflow_negative_cost_cycle_free_instance() {
        // Negative-cost arc on the direct route; free mode keeps pushing
        // while marginal cost < 0.
        let mut net = CostFlow::new(3);
        net.add_arc(0, 1, 2, -3);
        net.add_arc(1, 2, 2, 1);
        let r = net.run(0, 2, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        assert_eq!(r.flow, 2);
        assert_eq!(r.cost, 2 * (-3 + 1));
    }

    #[test]
    fn certificate_verifies_on_random_instances() {
        for seed in 0..15 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 30,
                    n_tasks: 20,
                    avg_degree: 5.0,
                    capacity: 2,
                    demand: 2,
                },
                seed,
            );
            let w = weights_of(&g, 0.5);
            let (m, stats, cert) = max_weight_bmatching_certified(&g, &w);
            m.validate(&g).unwrap();
            assert!(
                verify_certificate(&g, &w, &m, &cert),
                "seed {seed}: certificate rejected the solver's own output"
            );
            // Cross-check against the uncertified solver.
            let (_, plain) =
                max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
            assert_eq!(stats.profit, plain.profit, "seed {seed}");
        }
    }

    #[test]
    fn certificate_rejects_suboptimal_matchings() {
        // The greedy trap: greedy's matching is strictly suboptimal, so no
        // valid certificate can accompany it — in particular not the exact
        // solver's.
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8), (1, 0, 0.7, 0.7)],
        );
        let w = weights_of(&g, 0.5);
        let (opt, _, cert) = max_weight_bmatching_certified(&g, &w);
        assert!(verify_certificate(&g, &w, &opt, &cert));
        let greedy = crate::greedy::greedy_bmatching(&g, &w, 0.0);
        assert!(greedy.total_weight(&w) < opt.total_weight(&w));
        assert!(
            !verify_certificate(&g, &w, &greedy, &cert),
            "certificate must not validate a suboptimal matching"
        );
    }

    #[test]
    fn certificate_rejects_profitable_deaugmentation() {
        // Edges {0, 2} weigh 0.2; the optimum {1} weighs 0.9. These
        // potentials make every residual reduced cost non-negative and
        // leave no profitable source → sink path, but dropping both edges
        // and taking edge 1 is a profitable sink → source path.
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.1, 0.1), (0, 1, 0.9, 0.9), (1, 1, 0.1, 0.1)],
        );
        let w = weights_of(&g, 0.5);
        let (p, q) = (benefit_to_profit(0.9), benefit_to_profit(0.1));
        let cert = Certificate {
            potentials: vec![0, p, 0, p - q, 0, p - q],
        };
        let m = Matching::from_edges(vec![g.edges().next().unwrap(), g.edges().nth(2).unwrap()]);
        assert!(objectives_close(m.total_weight(&w), 0.2, 2));
        assert!(!verify_certificate(&g, &w, &m, &cert));
    }

    #[test]
    fn certificate_rejects_infeasible_matchings() {
        let g = from_edges(&[1], &[1, 1], &[(0, 0, 0.5, 0.5), (0, 1, 0.5, 0.5)]);
        let w = weights_of(&g, 0.5);
        let (_, _, cert) = max_weight_bmatching_certified(&g, &w);
        let overloaded = Matching::from_edges(g.edges().collect());
        assert!(!verify_certificate(&g, &w, &overloaded, &cert));
    }

    #[test]
    fn certificate_rejects_wrong_potentials() {
        let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.9, 0.9), (1, 1, 0.5, 0.5)]);
        let w = weights_of(&g, 0.5);
        let (m, _, mut cert) = max_weight_bmatching_certified(&g, &w);
        assert!(verify_certificate(&g, &w, &m, &cert));
        // Corrupt a potential enough to break a reduced-cost inequality.
        cert.potentials[1] += 10 * mbta_util::fixed::SCALE;
        assert!(!verify_certificate(&g, &w, &m, &cert));
        // Wrong length is rejected outright.
        cert.potentials.pop();
        assert!(!verify_certificate(&g, &w, &m, &cert));
    }

    #[test]
    fn empty_graph_solves() {
        let g = from_edges(&[], &[], &[]);
        let (m, s) = max_weight_bmatching(&g, &[], FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        assert!(m.is_empty());
        assert_eq!(s.profit, 0);
    }

    #[test]
    fn isolated_nodes_ignored() {
        let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.7, 0.7)]);
        let (m, _) =
            max_weight_bmatching(&g, &weights_of(&g, 0.5), FlowMode::MaxFlow, PathAlgo::Spfa);
        assert_eq!(m.len(), 1);
    }
}
