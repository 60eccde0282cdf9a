//! The bipartite min-cost-flow network, reusable across solves.
//!
//! [`WarmNet`] is the one place the 4-layer network (source → workers →
//! tasks → sink) is built. A cold exact solve
//! ([`crate::mcmf::max_weight_bmatching`] and friends) is a `WarmNet` with
//! no prior and an empty seed; the certificate verifier applies the
//! matching to one as its seed flow. When the same shard is re-solved many
//! times with drifting weights — the service's online fallback — the net
//! is kept alive and carries its state across solves:
//!
//! 1. **Topology once.** The network is built a single time; each solve
//!    only rewrites arc costs in place and resets capacities.
//! 2. **Seeded flow.** The previous matching is applied as a feasible
//!    flow before augmentation starts, so the successive-shortest-path
//!    loop only has to route the *difference* to optimality.
//! 3. **Carried potentials.** The dual prices from the previous solve
//!    seed the reduced costs. An O(E) verification pass checks that every
//!    residual arc still has non-negative reduced cost under the carried
//!    potentials; when drift broke the invariant (common — optimality
//!    leaves many inequalities tight) the potentials are *refit* with one
//!    guarded Bellman–Ford pass over the seeded residual graph, cancelling
//!    the negative residual cycles it finds. A seed that needs too many
//!    cancellations falls back to a cold start (zero flow + one Bellman–Ford
//!    pass on the empty network) — correctness never depends on the warm
//!    state being usable.
//! 4. **De-augmentation audit.** A warm-seeded flow can carry *more*
//!    flow than the free-cardinality optimum (the drifted weights may
//!    make part of the seeded assignment unprofitable), and the forward
//!    augmentation loop can only add flow. One guarded Bellman–Ford pass
//!    from the sink checks for a negative-true-cost sink → source residual
//!    path; if one exists the solve restarts cold, which is immune by
//!    convexity of the flow-cost curve. In practice drift is small and the
//!    audit passes.
//!
//! The result is bit-identical in objective to a cold solve — the warm
//! path is purely a latency optimization, checked against the
//! potential-free SPFA solver over random drift sequences.

use crate::mcmf::{CostFlow, FlowMode, FlowResult, Labels, PathAlgo, Relaxed, NONE};
use crate::solution::Matching;
use mbta_graph::BipartiteGraph;
use mbta_util::fixed::benefit_to_profit;
use mbta_util::SolveCtl;

/// Counters describing one [`WarmNet::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStats {
    /// `true` when the solve reused the carried potentials and seeded
    /// flow; `false` when it restarted cold (first solve, or drift broke
    /// the reduced-cost invariant).
    pub warm: bool,
    /// `true` when the post-solve de-augmentation audit failed and the
    /// solve had to redo its work cold. Always `false` on cold solves.
    pub audited_cold: bool,
    /// Augmenting-path iterations performed (including any cold redo).
    pub iterations: u64,
    /// Total fixed-point profit of the returned matching.
    pub profit: i64,
    /// `false` when `ctl` interrupted the solve; the returned matching is
    /// feasible but optimality is forfeited and no state is carried.
    pub completed: bool,
}

/// A reusable min-cost-flow network for one fixed bipartite topology.
///
/// Build once per shard (or per plan epoch), then call
/// [`WarmNet::solve`] every time the shard needs an exact re-solve. See
/// the [module docs](self) for the warm-start contract.
#[derive(Debug, Clone)]
pub struct WarmNet {
    pub(crate) net: CostFlow,
    /// Potentials carried from the previous completed solve, and search
    /// labels.
    pub(crate) labels: Labels,
    pub(crate) source: usize,
    pub(crate) sink: usize,
    /// Arc id of `source → worker w`.
    source_arcs: Vec<u32>,
    /// Arc id of `worker(e) → task(e)` for edge `e`.
    edge_arcs: Vec<u32>,
    /// Arc id of `task t → sink`.
    sink_arcs: Vec<u32>,
    /// Forward-arc capacities of the empty (zero-flow) network.
    base_cap: Vec<u32>,
    has_prior: bool,
}

impl WarmNet {
    /// Builds the network for `g`'s topology. Costs are set per solve.
    pub fn new(g: &BipartiteGraph) -> WarmNet {
        let n_w = g.n_workers();
        let n_t = g.n_tasks();
        let source = 0usize;
        let sink = 1 + n_w + n_t;
        let mut net = CostFlow::new(sink + 1);
        net.reserve(n_w + n_t + g.n_edges());
        let mut source_arcs = Vec::with_capacity(n_w);
        for w in g.workers() {
            source_arcs.push(net.add_arc(source, 1 + w.index(), g.capacity(w), 0));
        }
        let mut edge_arcs = vec![NONE; g.n_edges()];
        for e in g.edges() {
            edge_arcs[e.index()] = net.add_arc(
                1 + g.worker_of(e).index(),
                1 + n_w + g.task_of(e).index(),
                1,
                0,
            );
        }
        let mut sink_arcs = Vec::with_capacity(n_t);
        for t in g.tasks() {
            sink_arcs.push(net.add_arc(1 + n_w + t.index(), sink, g.demand(t), 0));
        }
        let base_cap = net.cap.clone();
        WarmNet {
            labels: Labels::new(net.n_nodes),
            net,
            source,
            sink,
            source_arcs,
            edge_arcs,
            sink_arcs,
            base_cap,
            has_prior: false,
        }
    }

    /// Whether the next solve will attempt a warm start.
    pub fn has_prior(&self) -> bool {
        self.has_prior
    }

    /// Exact free-cardinality maximum-weight b-matching on the fixed
    /// topology, warm-started from `seed` (the previous matching) when
    /// the carried dual state is still valid.
    ///
    /// `weights` must be finite and non-negative; `seed` must be
    /// feasible on `g` (edges within capacity/demand). Returns the
    /// optimal matching and [`WarmStats`]. On `ctl` interruption the
    /// matching is a feasible prefix and `completed` is `false`.
    pub fn solve(
        &mut self,
        g: &BipartiteGraph,
        weights: &[f64],
        seed: &Matching,
        ctl: &SolveCtl,
    ) -> (Matching, WarmStats) {
        assert_eq!(g.n_edges(), self.edge_arcs.len(), "graph topology changed");
        self.set_costs(weights);
        // Try the warm path: seed the previous matching as flow and keep
        // the carried potentials if the reduced-cost invariant survived
        // the weight drift; refit them otherwise.
        let mut warm = self.has_prior && self.seed_flow(g, seed);
        if warm && !self.net.reduced_costs_ok(&self.labels.pi) {
            warm = self.refit_potentials();
        }
        let (free, dijkstra) = (FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        let (mut result, mut completed) = if warm {
            let (source, sink) = (self.source, self.sink);
            self.net
                .ssp(&mut self.labels, source, sink, free, dijkstra, ctl)
        } else {
            self.cold(free, dijkstra, ctl)
        };
        // A warm seed can over-commit flow the drifted weights no longer
        // justify, and forward augmentation cannot retract it. The audit
        // detects the profitable de-augmentation; a cold redo (immune by
        // convexity) repairs it.
        let audited_cold = completed && warm && !self.deaugmentation_audit();
        if audited_cold {
            warm = false;
            let (redo, redo_completed) = self.cold(free, dijkstra, ctl);
            result.iterations += redo.iterations;
            completed = redo_completed;
        }
        self.has_prior = completed;
        let (m, profit) = self.matching(g);
        let stats = WarmStats {
            warm,
            audited_cold,
            iterations: result.iterations,
            profit,
            completed,
        };
        (m, stats)
    }

    /// Rewrites the edge arcs' costs in place: `-profit`, twin `+profit`.
    pub(crate) fn set_costs(&mut self, weights: &[f64]) {
        assert_eq!(
            weights.len(),
            self.edge_arcs.len(),
            "weight slice length mismatch"
        );
        for (&a, &w) in self.edge_arcs.iter().zip(weights) {
            let profit = benefit_to_profit(w);
            self.net.cost[a as usize] = -profit;
            self.net.cost[(a ^ 1) as usize] = profit;
        }
    }

    /// A cold solve on the current costs: zero flow, fresh potentials.
    pub(crate) fn cold(
        &mut self,
        mode: FlowMode,
        algo: PathAlgo,
        ctl: &SolveCtl,
    ) -> (FlowResult, bool) {
        self.net.cap.copy_from_slice(&self.base_cap);
        let lb = &mut self.labels;
        self.net
            .run_from(lb, self.source, self.sink, mode, algo, ctl)
    }

    /// Reads the matching — the edges carrying flow — and its fixed-point
    /// profit back out of the network.
    pub(crate) fn matching(&self, g: &BipartiteGraph) -> (Matching, i64) {
        let edges: Vec<_> = g
            .edges()
            .filter(|e| self.net.flow(self.edge_arcs[e.index()]) > 0)
            .collect();
        let profit = edges
            .iter()
            .map(|e| -self.net.cost[self.edge_arcs[e.index()] as usize])
            .sum();
        (Matching::from_edges(edges), profit)
    }

    /// Applies `seed` as a feasible flow on the empty network. Returns
    /// `false` (leaving the flow partially applied) if the seed violates a
    /// capacity, which only happens on a caller bug; the warm path then
    /// degrades to cold rather than panicking.
    pub(crate) fn seed_flow(&mut self, g: &BipartiteGraph, seed: &Matching) -> bool {
        self.net.cap.copy_from_slice(&self.base_cap);
        for &e in &seed.edges {
            if e.index() >= self.edge_arcs.len() {
                return false;
            }
            let ea = self.edge_arcs[e.index()] as usize;
            let sa = self.source_arcs[g.worker_of(e).index()] as usize;
            let ta = self.sink_arcs[g.task_of(e).index()] as usize;
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

    /// Pushes flow around the negative residual cycle that the parent
    /// chain of `trigger` leads into, removing it from the graph. Each
    /// cancellation strictly improves the flow's cost at constant value.
    fn cancel_cycle(&mut self, trigger: usize) {
        // Walk the parent chain until a node repeats: that node is on
        // the cycle (the chain can have a tail leading into it).
        let (net, parent) = (&mut self.net, &self.labels.parent);
        let tail_of = |net: &CostFlow, a: u32| net.head[(a ^ 1) as usize] as usize;
        let mut seen = vec![false; net.n_nodes];
        let mut u = trigger;
        while !seen[u] {
            seen[u] = true;
            u = tail_of(net, parent[u]);
        }
        let start = u;
        let mut arcs = Vec::new();
        let mut bottleneck = u32::MAX;
        loop {
            let a = parent[u];
            arcs.push(a);
            bottleneck = bottleneck.min(net.cap[a as usize]);
            u = tail_of(net, a);
            if u == start {
                break;
            }
        }
        for a in arcs {
            net.cap[a as usize] -= bottleneck;
            net.cap[(a ^ 1) as usize] += bottleneck;
        }
    }

    /// How many negative-cycle cancellations a warm start will attempt
    /// before giving up and going cold. Small drift produces zero to a
    /// handful of cycles; a seed that needs more repair than this is
    /// cheaper to re-solve from scratch.
    const MAX_CYCLE_CANCELS: usize = 16;

    /// Repairs the seeded flow to min-cost-for-its-value and recomputes
    /// globally valid potentials: cancel negative residual cycles until
    /// none remain, then adopt the converged Bellman–Ford labels as
    /// potentials. Returns `false` (caller goes cold) when the seed
    /// needs more repair than [`Self::MAX_CYCLE_CANCELS`] allows.
    fn refit_potentials(&mut self) -> bool {
        for _ in 0..=Self::MAX_CYCLE_CANCELS {
            let lb = &mut self.labels;
            let ctl = &SolveCtl::unlimited();
            match self
                .net
                .bellman_ford(None, true, &mut lb.dist, &mut lb.parent, ctl)
            {
                Relaxed::Converged => {
                    lb.pi.copy_from_slice(&lb.dist);
                    return true;
                }
                Relaxed::Cycle(node) => self.cancel_cycle(node),
                Relaxed::Stopped => return false,
            }
        }
        false
    }

    /// Post-solve audit: is there a sink → source residual path with
    /// negative true cost (i.e. would *removing* flow increase profit)?
    /// Runs the guarded Bellman–Ford on raw residual costs so it is
    /// sound without trusting the potentials; a detected negative cycle
    /// also fails the audit (the flow is not min-cost for its value).
    /// Returns `true` when the flow value is certified optimal.
    fn deaugmentation_audit(&mut self) -> bool {
        let lb = &mut self.labels;
        let ctl = &SolveCtl::unlimited();
        match self
            .net
            .bellman_ford(Some(self.sink), true, &mut lb.dist, &mut lb.parent, ctl)
        {
            Relaxed::Converged => lb.dist[self.source] >= 0,
            Relaxed::Cycle(_) | Relaxed::Stopped => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
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

    #[test]
    fn warm_matches_cold_across_drift_rounds() {
        for seed in 0..8 {
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
            let mut w = weights_of(&g, 0.5);
            let mut net = WarmNet::new(&g);
            let mut prev = Matching::from_edges(Vec::new());
            let mut warm_hits = 0;
            for round in 0..6 {
                let (m, stats) = net.solve(&g, &w, &prev, &SolveCtl::unlimited());
                m.validate(&g).unwrap();
                assert!(stats.completed);
                let (_, cold) =
                    max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
                assert_eq!(
                    stats.profit, cold.profit,
                    "seed {seed} round {round}: warm profit diverged from cold"
                );
                warm_hits += u32::from(stats.warm);
                prev = m;
                drift(&mut w, round, 0.05);
            }
            assert!(
                warm_hits >= 1,
                "seed {seed}: small drift never produced a warm hit"
            );
        }
    }

    #[test]
    fn large_drift_still_exact() {
        // Violent drift defeats the carried potentials constantly; the
        // result must stay exact via the cold fallback.
        for seed in 0..5 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 25,
                    n_tasks: 20,
                    avg_degree: 4.0,
                    capacity: 1,
                    demand: 2,
                },
                seed,
            );
            let mut w = weights_of(&g, 0.5);
            let mut net = WarmNet::new(&g);
            let mut prev = Matching::from_edges(Vec::new());
            for round in 0..5 {
                drift(&mut w, round * 31 + seed, 0.9);
                let (m, stats) = net.solve(&g, &w, &prev, &SolveCtl::unlimited());
                m.validate(&g).unwrap();
                let (_, cold) =
                    max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
                assert_eq!(stats.profit, cold.profit, "seed {seed} round {round}");
                prev = m;
            }
        }
    }

    #[test]
    fn deaugmentation_is_detected() {
        // Seed a matching that becomes unprofitable: after the drift the
        // optimal matching is *smaller* than the seed, which forward
        // augmentation alone cannot reach.
        use mbta_graph::random::from_edges;
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8), (1, 0, 0.7, 0.7)],
        );
        let mut net = WarmNet::new(&g);
        // Round 1: all edges valuable; optimum takes the 0.8+0.7 pair.
        let w1 = vec![0.9, 0.8, 0.7];
        let (m1, s1) = net.solve(
            &g,
            &w1,
            &Matching::from_edges(Vec::new()),
            &SolveCtl::unlimited(),
        );
        assert_eq!(m1.len(), 2);
        assert!(s1.completed);
        // Round 2: the pair collapses to zero weight; only edge 0 is
        // worth keeping, so the optimum has fewer edges than the seed.
        let w2 = vec![0.9, 0.0, 0.0];
        let (m2, s2) = net.solve(&g, &w2, &m1, &SolveCtl::unlimited());
        m2.validate(&g).unwrap();
        assert!(s2.completed);
        let (_, cold) =
            max_weight_bmatching(&g, &w2, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        assert_eq!(s2.profit, cold.profit, "zero-drift optimum not recovered");
        // Weight, not cardinality, is what must match the cold solve:
        let chosen: f64 = m2.edges.iter().map(|e| w2[e.index()]).sum();
        assert!(objectives_close(chosen, 0.9, 4));
    }

    #[test]
    fn infeasible_seed_degrades_to_cold() {
        use mbta_graph::random::from_edges;
        let g = from_edges(&[1], &[1, 1], &[(0, 0, 0.5, 0.5), (0, 1, 0.6, 0.6)]);
        let w = vec![0.5, 0.6];
        let mut net = WarmNet::new(&g);
        // Prime the carried state so the warm path is attempted.
        let (m, _) = net.solve(
            &g,
            &w,
            &Matching::from_edges(Vec::new()),
            &SolveCtl::unlimited(),
        );
        assert_eq!(m.len(), 1);
        // An over-capacity seed (both edges on the cap-1 worker).
        let bad = Matching::from_edges(g.edges().collect());
        let (m2, stats) = net.solve(&g, &w, &bad, &SolveCtl::unlimited());
        m2.validate(&g).unwrap();
        assert!(!stats.warm, "over-capacity seed must not warm-start");
        assert!(objectives_close(
            m2.edges.iter().map(|e| w[e.index()]).sum::<f64>(),
            0.6,
            4
        ));
    }

    #[test]
    fn empty_topology_solves() {
        use mbta_graph::random::from_edges;
        let g = from_edges(&[], &[], &[]);
        let mut net = WarmNet::new(&g);
        let (m, stats) = net.solve(
            &g,
            &[],
            &Matching::from_edges(Vec::new()),
            &SolveCtl::unlimited(),
        );
        assert!(m.is_empty());
        assert_eq!(stats.profit, 0);
        assert!(stats.completed);
    }

    #[test]
    fn interruption_is_reported_and_state_invalidated() {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 30,
                n_tasks: 20,
                avg_degree: 5.0,
                capacity: 2,
                demand: 2,
            },
            7,
        );
        let w = weights_of(&g, 0.5);
        let mut net = WarmNet::new(&g);
        let token = mbta_util::CancelToken::new();
        token.cancel();
        let ctl = SolveCtl::unlimited().with_token(token);
        let (_, stats) = net.solve(&g, &w, &Matching::from_edges(Vec::new()), &ctl);
        assert!(!stats.completed);
        assert!(!net.has_prior(), "interrupted solve must not carry state");
    }
}
