//! Incremental re-solves against independent oracles over random
//! sequences of market changes.
//!
//! A cold Dijkstra solve and an incremental `WarmNet` repair share the
//! network code, so comparing the two would test the code against itself.
//! Instead one `WarmNet` is carried through rounds of weight drift, node
//! deactivation and reactivation (an inactive node's edges weigh exactly
//! 0) and interrupted repairs, and every completed round is checked
//! against the potential-free SPFA solver, the Hungarian algorithm (unit
//! instances) and the certificate verifier applied to the net's own
//! potentials.

use mbta_graph::random::from_edges;
use mbta_graph::BipartiteGraph;
use mbta_matching::hungarian::hungarian_max_weight;
use mbta_matching::mcmf::{max_weight_bmatching, verify_certificate, FlowMode, PathAlgo};
use mbta_matching::warm::WarmNet;
use mbta_util::fixed::objectives_close;
use mbta_util::{CancelToken, Deadline, SolveCtl};
use proptest::prelude::*;

const MAX_SIDE: usize = 5;

/// One round of market change.
#[derive(Debug, Clone)]
enum Change {
    /// Per pair: scale the base weight by this factor.
    Drift(Vec<f64>),
    /// Flip a worker's (`true`) or task's activity.
    Toggle(bool, usize),
}

/// How a round's first solve is run: unlimited, under a cancelled token,
/// or under an expired deadline. A cut-off solve is followed by an
/// unlimited one on the same weights.
#[derive(Debug, Clone, Copy)]
enum Budget {
    Unlimited,
    Cancelled,
    Expired,
}

/// Workers, tasks, unit flag, per-pair (present, base weight), rounds.
type Case = (usize, usize, bool, Vec<(bool, f64)>, Vec<(Change, Budget)>);

fn case() -> impl Strategy<Value = Case> {
    let pairs = MAX_SIDE * MAX_SIDE;
    // Three rounds in five drift, the rest toggle a node.
    let change = (
        0u32..5,
        proptest::collection::vec(0.5f64..1.5, pairs),
        any::<bool>(),
        0..MAX_SIDE,
    )
        .prop_map(|(kind, f, worker, i)| {
            if kind < 3 {
                Change::Drift(f)
            } else {
                Change::Toggle(worker, i)
            }
        });
    // One round in three starts with a cut-off solve.
    let budget = (0u32..6).prop_map(|k| match k {
        0 => Budget::Cancelled,
        1 => Budget::Expired,
        _ => Budget::Unlimited,
    });
    (
        1..=MAX_SIDE,
        1..=MAX_SIDE,
        any::<bool>(),
        proptest::collection::vec((any::<bool>(), 0.0f64..=1.0), pairs),
        proptest::collection::vec((change, budget), 1..=10),
    )
}

fn ctl(budget: Budget) -> SolveCtl {
    match budget {
        Budget::Unlimited => SolveCtl::unlimited(),
        Budget::Cancelled => {
            let token = CancelToken::new();
            token.cancel();
            SolveCtl::unlimited().with_token(token)
        }
        Budget::Expired => {
            let deadline = Deadline::after_ms(0);
            while !deadline.expired() {
                std::hint::spin_loop();
            }
            SolveCtl::unlimited().with_deadline(deadline)
        }
    }
}

/// Profit of the potential-free SPFA solve.
fn spfa_profit(g: &BipartiteGraph, w: &[f64]) -> i64 {
    max_weight_bmatching(g, w, FlowMode::FreeCardinality, PathAlgo::Spfa)
        .1
        .profit
}

/// Checks a completed round against every oracle.
fn check_round(
    g: &BipartiteGraph,
    net: &mut WarmNet,
    w: &[f64],
    unit: bool,
    round: usize,
) -> Result<(), TestCaseError> {
    let (m, stats) = net.solve(g, w, &SolveCtl::unlimited());
    prop_assert!(stats.completed);
    let m = m.expect("an unlimited repair completes");
    prop_assert!(m.validate(g).is_ok());
    prop_assert_eq!(stats.profit, spfa_profit(g, w), "round {}", round);
    if unit {
        let hung = hungarian_max_weight(g, w);
        prop_assert!(
            objectives_close(m.total_weight(w), hung.total_weight(w), g.n_edges()),
            "round {}: warm {} vs hungarian {}",
            round,
            m.total_weight(w),
            hung.total_weight(w)
        );
    }
    prop_assert!(
        verify_certificate(g, w, &m, &net.certificate()),
        "round {}: the net's potentials do not certify its matching",
        round
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn incremental_resolves_match_independent_oracles(c in case()) {
        let (n_w, n_t, unit, pairs, rounds) = c;
        let (caps, dems): (Vec<u32>, Vec<u32>) = if unit {
            (vec![1; n_w], vec![1; n_t])
        } else {
            ((0..n_w as u32).map(|i| 1 + i % 2).collect(), (0..n_t as u32).map(|i| 1 + i % 3).collect())
        };
        let mut edges = Vec::new();
        let mut slots = Vec::new();
        for w in 0..n_w {
            for t in 0..n_t {
                let (present, base) = pairs[w * MAX_SIDE + t];
                if present {
                    edges.push((w as u32, t as u32, base, base));
                    slots.push((w, t, base));
                }
            }
        }
        let g = from_edges(&caps, &dems, &edges);
        let mut net = WarmNet::new(&g);
        let mut factor = vec![1.0; MAX_SIDE * MAX_SIDE];
        let mut worker_on = [true; MAX_SIDE];
        let mut task_on = [true; MAX_SIDE];
        for (round, (change, budget)) in rounds.iter().enumerate() {
            match change {
                Change::Drift(f) => factor.clone_from(f),
                Change::Toggle(true, i) => worker_on[*i] = !worker_on[*i],
                Change::Toggle(false, i) => task_on[*i] = !task_on[*i],
            }
            let w: Vec<f64> = slots
                .iter()
                .map(|&(wk, tk, base)| {
                    if worker_on[wk] && task_on[tk] {
                        (base * factor[wk * MAX_SIDE + tk]).clamp(0.0, 1.0)
                    } else {
                        0.0
                    }
                })
                .collect();
            if !matches!(budget, Budget::Unlimited) {
                let (m, stats) = net.solve(&g, &w, &ctl(*budget));
                prop_assert!(stats.iterations <= 1, "round {}: {:?}", round, stats);
                // Nothing is returned unless every imbalance was cleared,
                // and what is returned is the optimum whatever the budget.
                prop_assert_eq!(m.is_some(), stats.completed);
                if let Some(m) = m {
                    prop_assert!(m.validate(&g).is_ok(), "round {}", round);
                    prop_assert_eq!(stats.profit, spfa_profit(&g, &w), "round {}", round);
                }
            }
            check_round(&g, &mut net, &w, unit, round)?;
        }
    }
}
