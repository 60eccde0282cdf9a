//! The bipartite min-cost-flow network, and the incremental exact solver
//! built on it.
//!
//! [`WarmNet`] is the one place the 4-layer network (source → workers →
//! tasks → sink) is built. A cold exact solve
//! ([`crate::mcmf::max_weight_bmatching`] and friends) runs the
//! successive-shortest-path loop on a fresh net, and the certificate
//! verifier applies a matching to one as its flow.
//!
//! [`WarmNet::solve`] is the incremental solver. A net kept alive per
//! shard owns an optimal flow and its node potentials across solves, and
//! each solve repairs only what changed:
//!
//! 1. **Circulation.** One extra `sink → source` arc of cost 0 closes the
//!    flow into a circulation. The free-cardinality maximum-weight
//!    b-matching is then the min-cost circulation, and a repair can lower
//!    the flow value (route flow back over `source → sink`) as easily as
//!    raise it.
//! 2. **Changed arcs only.** A solve rewrites the cost of every edge arc
//!    whose fixed-point profit changed, and nothing else. A changed arc
//!    whose residual reduced cost turned negative is repaired locally:
//!    when one endpoint's potential can move by the violation without
//!    turning another residual arc at that node negative, it moves;
//!    otherwise the arc is saturated (or emptied), which leaves a unit of
//!    excess at one endpoint and a unit of deficit at the other.
//! 3. **Nearest-deficit searches.** Imbalances are cleared one at a time
//!    by a Dijkstra search on reduced costs that starts at an excess node
//!    and stops at the first deficit node it settles. Flow moves along
//!    that path, only settled nodes shift their potentials (so every
//!    residual reduced cost stays non-negative), and only the nodes the
//!    search labelled are reset.
//! 4. **Resumable truncation.** `ctl` is checked with `stop_requested`
//!    before every search (and, amortized, inside it). A repair cut off
//!    by its deadline returns no matching but keeps its pseudo-flow,
//!    potentials and pending imbalances; the next call adds its own
//!    changes and carries on. Nothing restarts cold.
//!
//! The first solve of a net starts from the empty flow: the circulation
//! arc is saturated to the total worker capacity, and potentials that
//! make every residual arc non-negative are read off in one pass, so the
//! source holds all the excess and the sink all the deficit. Clearing
//! that is successive shortest paths with the free-cardinality stopping
//! rule: profitable augmenting paths are taken one by one, and once none
//! is left the remaining excess returns over `source → sink` in one push.
//!
//! With every imbalance cleared, non-negative reduced costs on a
//! circulation prove it optimal (no negative residual cycle), and the
//! potentials are an optimality certificate that
//! [`crate::mcmf::verify_certificate`] accepts. The oracle tests check
//! every solve against the potential-free SPFA solver and the Hungarian
//! algorithm.

use crate::mcmf::{Certificate, CostFlow, FlowMode, FlowResult, Labels, PathAlgo, INF, NONE};
use crate::solution::Matching;
use mbta_graph::BipartiteGraph;
use mbta_util::fixed::benefit_to_profit;
use mbta_util::SolveCtl;

/// Counters describing one [`WarmNet::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStats {
    /// `true` when the solve continued from the net's carried flow;
    /// `false` on the net's first solve, which starts from the empty flow.
    pub warm: bool,
    /// Edge arcs whose cost this call rewrote.
    pub changed: u64,
    /// Nearest-deficit searches that moved flow (augmenting paths).
    pub iterations: u64,
    /// Total fixed-point profit of the returned matching (0 when cut off).
    pub profit: i64,
    /// `false` when `ctl` cut the repair off: no matching is returned, and
    /// the next call resumes the repair.
    pub completed: bool,
}

/// A reusable min-cost-flow network for one fixed bipartite topology.
///
/// Build once per shard (or per plan epoch), then call
/// [`WarmNet::solve`] every time the shard needs an exact re-solve. See
/// the [module docs](self) for the incremental contract. A cold solve, the
/// verifier and the first [`WarmNet::solve`] each start from a fresh net's
/// zero flow, so the net keeps no copy of its empty capacities.
///
/// Arc ids follow the build order: `source → worker w` is arc `2w`, edge
/// `e`'s `worker → task` arc is `2(n_w + e)`, `task t → sink` is
/// `2(n_w + n_e + t)`, and the `sink → source` arc that closes the
/// circulation comes last. Its capacity stays 0 until the first
/// [`WarmNet::solve`], so cold solves and the verifier never see it.
#[derive(Debug, Clone)]
pub struct WarmNet {
    pub(crate) net: CostFlow,
    /// Node potentials (carried across solves) and search labels.
    pub(crate) labels: Labels,
    pub(crate) source: usize,
    pub(crate) sink: usize,
    n_workers: usize,
    n_edges: usize,
    /// Inflow minus outflow per node under the carried pseudo-flow; empty
    /// until the first [`WarmNet::solve`].
    excess: Vec<i64>,
    /// Nodes that took excess, cleared last in, first out. A node may
    /// still be listed after its excess is gone.
    pending: Vec<u32>,
    /// Nodes the current search labelled, reset after it.
    touched: Vec<u32>,
}

impl WarmNet {
    /// Builds the network for `g`'s topology. Costs are set per solve.
    pub fn new(g: &BipartiteGraph) -> WarmNet {
        let n_w = g.n_workers();
        let n_t = g.n_tasks();
        let source = 0usize;
        let sink = 1 + n_w + n_t;
        let mut net = CostFlow::new(sink + 1);
        net.reserve(n_w + n_t + g.n_edges() + 1);
        for w in g.workers() {
            net.add_arc(source, 1 + w.index(), g.capacity(w), 0);
        }
        for e in g.edges() {
            let (w, t) = (g.worker_of(e).index(), g.task_of(e).index());
            net.add_arc(1 + w, 1 + n_w + t, 1, 0);
        }
        for t in g.tasks() {
            net.add_arc(1 + n_w + t.index(), sink, g.demand(t), 0);
        }
        net.add_arc(sink, source, 0, 0);
        WarmNet {
            labels: Labels::new(net.n_nodes),
            net,
            source,
            sink,
            n_workers: n_w,
            n_edges: g.n_edges(),
            excess: Vec::new(),
            pending: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Exact free-cardinality maximum-weight b-matching on the fixed
    /// topology, repaired from the net's carried optimum (see the
    /// [module docs](self)).
    ///
    /// `weights` must be finite and non-negative. Returns the optimal
    /// matching — every edge carrying flow, zero-profit ones included — or
    /// `None` when `ctl` cut the repair off; the next call resumes it.
    pub fn solve(
        &mut self,
        g: &BipartiteGraph,
        weights: &[f64],
        ctl: &SolveCtl,
    ) -> (Option<Matching>, WarmStats) {
        assert_eq!(g.n_edges(), self.n_edges, "graph topology changed");
        let warm = !self.excess.is_empty();
        let changed = if warm {
            self.rewrite_costs(weights)
        } else {
            self.prime(weights);
            self.n_edges as u64
        };
        let (iterations, completed) = self.clear_imbalances(ctl);
        mbta_telemetry::counter_add("mbta_matching_mcmf_augmenting_paths_total", iterations);
        let mut stats = WarmStats {
            warm,
            changed,
            iterations,
            profit: 0,
            completed,
        };
        if !completed {
            return (None, stats);
        }
        // Only potential differences matter; anchoring the source at 0
        // keeps the carried values from drifting over a long run.
        let anchor = self.labels.pi[self.source];
        self.labels.pi.iter_mut().for_each(|p| *p -= anchor);
        let (m, profit) = self.matching(g);
        stats.profit = profit;
        (Some(m), stats)
    }

    /// The net's potentials as an optimality certificate for the matching
    /// its last completed [`solve`](Self::solve) returned.
    pub fn certificate(&self) -> Certificate {
        Certificate {
            potentials: self.labels.pi.clone(),
        }
    }

    /// Arc id of edge `e`'s `worker → task` arc.
    fn edge_arc(&self, e: usize) -> usize {
        2 * (self.n_workers + e)
    }

    /// Rewrites the edge arcs' costs in place: `-profit`, twin `+profit`.
    pub(crate) fn set_costs(&mut self, weights: &[f64]) {
        assert_eq!(weights.len(), self.n_edges, "weight slice length mismatch");
        for (e, &w) in weights.iter().enumerate() {
            let (a, profit) = (self.edge_arc(e), benefit_to_profit(w));
            self.net.cost[a] = -profit;
            self.net.cost[a ^ 1] = profit;
        }
    }

    /// A cold solve on the current costs from a fresh net's zero flow.
    pub(crate) fn cold(
        &mut self,
        mode: FlowMode,
        algo: PathAlgo,
        ctl: &SolveCtl,
    ) -> (FlowResult, bool) {
        let lb = &mut self.labels;
        self.net
            .run_from(lb, self.source, self.sink, mode, algo, ctl)
    }

    /// Reads the matching — the edges carrying flow — and its fixed-point
    /// profit back out of the network.
    pub(crate) fn matching(&self, g: &BipartiteGraph) -> (Matching, i64) {
        let edges: Vec<_> = g
            .edges()
            .filter(|e| self.net.cap[self.edge_arc(e.index()) ^ 1] > 0)
            .collect();
        let profit = edges
            .iter()
            .map(|e| -self.net.cost[self.edge_arc(e.index())])
            .sum();
        (Matching::from_edges(edges), profit)
    }

    /// Applies `m` as a flow on a fresh net (the verifier's view of a
    /// matching). Returns `false`, leaving the flow partially applied, if
    /// `m` overfills an edge, worker or task.
    pub(crate) fn apply_flow(&mut self, g: &BipartiteGraph, m: &Matching) -> bool {
        for &e in &m.edges {
            if e.index() >= self.n_edges {
                return false;
            }
            let ea = self.edge_arc(e.index());
            let sa = 2 * g.worker_of(e).index();
            let ta = 2 * (self.n_workers + self.n_edges + g.task_of(e).index());
            if self.net.cap[ea] < 1 || self.net.cap[sa] < 1 || self.net.cap[ta] < 1 {
                return false;
            }
            for a in [ea, sa, ta] {
                self.net.cap[a] -= 1;
                self.net.cap[a ^ 1] += 1;
            }
        }
        true
    }

    /// The first incremental solve's start: a fresh net's empty flow on
    /// `weights`, the circulation arc saturated to the total worker
    /// capacity (all excess at the source, all deficit at the sink), and
    /// potentials read off in one pass. With the circulation arc saturated
    /// the residual network is acyclic, and `π = 0` on source and workers,
    /// `π[t]` = the cheapest arc into task `t`, `π[sink]` = the least of
    /// all, makes every residual reduced cost non-negative.
    fn prime(&mut self, weights: &[f64]) {
        self.set_costs(weights);
        let net = &mut self.net;
        let total = (0..self.n_workers)
            .map(|w| net.cap[2 * w])
            .fold(0u32, u32::saturating_add);
        // Saturated: no residual capacity forward, `total` units of flow.
        let circulation = net.cap.len() - 2;
        net.cap[circulation + 1] = total;
        self.excess = vec![0; net.n_nodes];
        self.excess[self.source] = i64::from(total);
        self.excess[self.sink] = -i64::from(total);
        self.pending.clear();
        self.pending.push(self.source as u32);
        let lb = &mut self.labels;
        lb.pi.fill(0);
        lb.dist.fill(INF);
        lb.parent.fill(NONE);
        for e in 0..self.n_edges {
            let a = 2 * (self.n_workers + e); // `edge_arc`, with `net` borrowed
            let t = net.head[a] as usize;
            lb.pi[t] = lb.pi[t].min(net.cost[a]);
        }
        lb.pi[self.sink] = lb.pi.iter().copied().min().unwrap_or(0);
    }

    /// Rewrites the costs that changed and repairs every residual arc the
    /// change turned negative. Returns the number of changed arcs.
    fn rewrite_costs(&mut self, weights: &[f64]) -> u64 {
        assert_eq!(weights.len(), self.n_edges, "weight slice length mismatch");
        let mut changed = 0;
        for (i, &w) in weights.iter().enumerate() {
            let a = self.edge_arc(i);
            let cost = -benefit_to_profit(w);
            if cost == self.net.cost[a] {
                continue;
            }
            changed += 1;
            self.net.cost[a] = cost;
            self.net.cost[a ^ 1] = -cost;
            // Unit capacity: exactly one arc of the pair is residual.
            self.repair(if self.net.cap[a] > 0 { a } else { a ^ 1 });
        }
        changed
    }

    /// Restores a non-negative reduced cost on residual arc `b` (`x → y`):
    /// raise `π[x]` or lower `π[y]` when no other residual arc at that node
    /// is tighter than the violation, else push `b`'s unit of flow, leaving
    /// excess at `y` and deficit at `x`.
    fn repair(&mut self, b: usize) {
        let (x, y) = (self.net.head[b ^ 1] as usize, self.net.head[b] as usize);
        let pi = &self.labels.pi;
        let need = -(self.net.cost[b] + pi[x] - pi[y]);
        if need <= 0 {
            return;
        }
        if self.slack(x, true) >= need {
            self.labels.pi[x] += need;
        } else if self.slack(y, false) >= need {
            self.labels.pi[y] -= need;
        } else {
            self.net.cap[b] -= 1;
            self.net.cap[b ^ 1] += 1;
            self.excess[x] -= 1;
            self.excess[y] += 1;
            if self.excess[y] > 0 {
                self.pending.push(y as u32);
            }
        }
    }

    /// The least reduced cost over the residual arcs into `v` (`incoming`)
    /// or out of it; `i64::MAX` when there are none.
    fn slack(&self, v: usize, incoming: bool) -> i64 {
        let (net, pi) = (&self.net, &self.labels.pi);
        let mut least = i64::MAX;
        let mut a = net.first[v];
        while a != NONE {
            let arc = (if incoming { a ^ 1 } else { a }) as usize;
            if net.cap[arc] > 0 {
                let (from, to) = (net.head[arc ^ 1] as usize, net.head[arc] as usize);
                least = least.min(net.cost[arc] + pi[from] - pi[to]);
            }
            a = net.next[a as usize];
        }
        least
    }

    /// Clears the pending imbalances one nearest-deficit search at a time.
    /// Returns `(paths, completed)`; `completed` is `false` when `ctl`
    /// stopped the repair before every imbalance was cleared.
    fn clear_imbalances(&mut self, ctl: &SolveCtl) -> (u64, bool) {
        let mut paths = 0;
        while let Some(&x) = self.pending.last() {
            let x = x as usize;
            if self.excess[x] <= 0 {
                self.pending.pop();
                continue;
            }
            if ctl.stop_requested() {
                return (paths, false);
            }
            let found = self.nearest_deficit(x, ctl);
            if let Some(y) = found {
                self.push_path(x, y);
                paths += 1;
            }
            let lb = &mut self.labels;
            for &v in &self.touched {
                lb.dist[v as usize] = INF;
                lb.parent[v as usize] = NONE;
            }
            self.touched.clear();
            lb.heap.clear();
            if found.is_none() {
                // Either `ctl` stopped the search, or — impossible while
                // the empty flow is feasible — no deficit was reachable.
                debug_assert!(ctl.stop_requested(), "excess with no reachable deficit");
                return (paths, false);
            }
        }
        (paths, true)
    }

    /// Dijkstra on reduced costs from excess node `from`, stopping when it
    /// settles a deficit node, which it returns; `None` when `ctl` stopped
    /// it. Every labelled node is listed in `touched`.
    fn nearest_deficit(&mut self, from: usize, ctl: &SolveCtl) -> Option<usize> {
        let net = &self.net;
        let Labels {
            pi,
            dist,
            parent,
            heap,
        } = &mut self.labels;
        dist[from] = 0;
        self.touched.push(from as u32);
        heap.push_or_decrease(from, 0);
        while let Some((v, dv)) = heap.pop() {
            if self.excess[v] < 0 {
                return Some(v);
            }
            if ctl.should_stop() {
                return None;
            }
            let mut a = net.first[v];
            while a != NONE {
                let ai = a as usize;
                if net.cap[ai] > 0 {
                    let to = net.head[ai] as usize;
                    let red = net.cost[ai] + pi[v] - pi[to];
                    debug_assert!(red >= 0, "negative reduced cost {red}");
                    let nd = dv + red;
                    if nd < dist[to] {
                        if dist[to] == INF {
                            self.touched.push(to as u32);
                        }
                        dist[to] = nd;
                        parent[to] = a;
                        heap.push_or_decrease(to, nd);
                    }
                }
                a = net.next[ai];
            }
        }
        None
    }

    /// Moves as much of `from`'s excess to `to`'s deficit as the search's
    /// path carries, then shifts the potentials of the nodes the search
    /// settled closer than `to` by `dist − dist[to]`. Every other labelled
    /// node is at least as far as `to`, so reduced costs stay non-negative
    /// and the path's arcs become tight.
    fn push_path(&mut self, from: usize, to: usize) {
        let (net, lb) = (&mut self.net, &mut self.labels);
        let mut amount = self.excess[from].min(-self.excess[to]);
        let mut v = to;
        while v != from {
            let a = lb.parent[v] as usize;
            amount = amount.min(i64::from(net.cap[a]));
            v = net.head[a ^ 1] as usize;
        }
        let unit = amount as u32;
        let mut v = to;
        while v != from {
            let a = lb.parent[v] as usize;
            net.cap[a] -= unit;
            net.cap[a ^ 1] += unit;
            v = net.head[a ^ 1] as usize;
        }
        self.excess[from] -= amount;
        self.excess[to] += amount;
        let d = lb.dist[to];
        for &v in &self.touched {
            let dv = lb.dist[v as usize];
            if dv < d {
                lb.pi[v as usize] += dv - d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcmf::{max_weight_bmatching, verify_certificate, FlowMode, PathAlgo};
    use mbta_graph::random::{random_bipartite, RandomGraphSpec};
    use mbta_util::fixed::objectives_close;

    fn weights_of(g: &BipartiteGraph, lambda: f64) -> Vec<f64> {
        g.edges()
            .map(|e| lambda * g.rb(e) + (1.0 - lambda) * g.wb(e))
            .collect()
    }

    /// Deterministic weight drift: scales each weight by a factor in
    /// [1-mag, 1+mag] derived from the edge id and round.
    fn drift(weights: &mut [f64], round: u64, mag: f64) {
        for (i, w) in weights.iter_mut().enumerate() {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(round.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            *w = (*w * (1.0 - mag + 2.0 * mag * unit)).clamp(0.0, 1.0);
        }
    }

    fn cold_profit(g: &BipartiteGraph, w: &[f64]) -> i64 {
        max_weight_bmatching(g, w, FlowMode::FreeCardinality, PathAlgo::Dijkstra)
            .1
            .profit
    }

    fn spec(n_workers: usize, n_tasks: usize, capacity: u32, demand: u32) -> RandomGraphSpec {
        RandomGraphSpec {
            n_workers,
            n_tasks,
            avg_degree: 5.0,
            capacity,
            demand,
        }
    }

    #[test]
    fn repairs_match_cold_across_drift_rounds() {
        for seed in 0..8 {
            let g = random_bipartite(&spec(40, 25, 2, 2), seed);
            let mut w = weights_of(&g, 0.5);
            let mut net = WarmNet::new(&g);
            for round in 0..6 {
                let (m, stats) = net.solve(&g, &w, &SolveCtl::unlimited());
                let m = m.expect("an unlimited repair completes");
                m.validate(&g).unwrap();
                assert!(stats.completed);
                assert_eq!(stats.warm, round > 0, "only the first solve is cold");
                assert_eq!(
                    stats.profit,
                    cold_profit(&g, &w),
                    "seed {seed} round {round}: repaired profit diverged from cold"
                );
                assert!(verify_certificate(&g, &w, &m, &net.certificate()));
                drift(&mut w, round, 0.05);
            }
        }
    }

    #[test]
    fn large_drift_still_exact() {
        for seed in 0..5 {
            let g = random_bipartite(&spec(25, 20, 1, 2), seed);
            let mut w = weights_of(&g, 0.5);
            let mut net = WarmNet::new(&g);
            for round in 0..5 {
                drift(&mut w, round * 31 + seed, 0.9);
                let (m, stats) = net.solve(&g, &w, &SolveCtl::unlimited());
                m.unwrap().validate(&g).unwrap();
                assert_eq!(
                    stats.profit,
                    cold_profit(&g, &w),
                    "seed {seed} round {round}"
                );
            }
        }
    }

    #[test]
    fn unchanged_weights_change_nothing() {
        let g = random_bipartite(&spec(30, 20, 2, 2), 3);
        let w = weights_of(&g, 0.5);
        let mut net = WarmNet::new(&g);
        let (first, _) = net.solve(&g, &w, &SolveCtl::unlimited());
        let (again, stats) = net.solve(&g, &w, &SolveCtl::unlimited());
        assert_eq!(first.unwrap().edges, again.unwrap().edges);
        assert_eq!((stats.changed, stats.iterations), (0, 0));
    }

    #[test]
    fn flow_value_can_drop() {
        // After the drift the optimum holds fewer edges than the carried
        // flow, so the repair must route flow back over source → sink.
        use mbta_graph::random::from_edges;
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8), (1, 0, 0.7, 0.7)],
        );
        let mut net = WarmNet::new(&g);
        let (m1, s1) = net.solve(&g, &[0.9, 0.8, 0.7], &SolveCtl::unlimited());
        assert_eq!(m1.unwrap().len(), 2);
        assert!(s1.completed);
        let w2 = [0.9, 0.0, 0.0];
        let (m2, s2) = net.solve(&g, &w2, &SolveCtl::unlimited());
        let m2 = m2.unwrap();
        m2.validate(&g).unwrap();
        assert_eq!(s2.profit, cold_profit(&g, &w2));
        let chosen: f64 = m2.edges.iter().map(|e| w2[e.index()]).sum();
        assert!(objectives_close(chosen, 0.9, 4));
    }

    #[test]
    fn empty_topology_solves() {
        use mbta_graph::random::from_edges;
        let g = from_edges(&[], &[], &[]);
        let mut net = WarmNet::new(&g);
        let (m, stats) = net.solve(&g, &[], &SolveCtl::unlimited());
        assert!(m.unwrap().is_empty());
        assert_eq!(stats.profit, 0);
        assert!(stats.completed);
    }

    /// An expired deadline stops the repair before its next search, even
    /// when the amortized in-search check would never fire.
    #[test]
    fn expired_deadline_stops_after_at_most_one_search() {
        let g = random_bipartite(&spec(60, 40, 2, 2), 7);
        let mut w = weights_of(&g, 0.5);
        let mut net = WarmNet::new(&g);
        net.solve(&g, &w, &SolveCtl::unlimited());
        drift(&mut w, 1, 0.9);
        let expired = mbta_util::Deadline::after_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let ctl = SolveCtl::unlimited().with_deadline(expired);
        let (m, stats) = net.solve(&g, &w, &ctl);
        assert!(m.is_none() && !stats.completed, "{stats:?}");
        assert!(stats.iterations <= 1, "{stats:?}");
        // The cut-off repair resumes rather than restarting.
        let (m, stats) = net.solve(&g, &w, &SolveCtl::unlimited());
        assert!(stats.completed && stats.warm);
        assert_eq!(stats.changed, 0, "the costs were already rewritten");
        m.unwrap().validate(&g).unwrap();
        assert_eq!(stats.profit, cold_profit(&g, &w));
    }

    #[test]
    fn cancelled_first_solve_resumes_to_the_optimum() {
        let g = random_bipartite(&spec(30, 20, 2, 2), 11);
        let w = weights_of(&g, 0.5);
        let mut net = WarmNet::new(&g);
        let token = mbta_util::CancelToken::new();
        token.cancel();
        let ctl = SolveCtl::unlimited().with_token(token);
        let (m, stats) = net.solve(&g, &w, &ctl);
        assert!(m.is_none());
        assert_eq!((stats.completed, stats.iterations), (false, 0));
        let (m, stats) = net.solve(&g, &w, &SolveCtl::unlimited());
        assert!(m.is_some() && stats.completed);
        assert_eq!(stats.profit, cold_profit(&g, &w));
    }
}
