//! Warm re-solves against independent oracles over random drift sequences.
//!
//! A cold Dijkstra solve is a `WarmNet` with no prior, so comparing the
//! two would test the code against itself. Instead one `WarmNet` is
//! carried through rounds of random weight drift, each seeded with the
//! previous round's matching, and every round is checked against the
//! potential-free SPFA solver, the Hungarian algorithm (unit instances)
//! and the certificate verifier.

use mbta_graph::random::from_edges;
use mbta_matching::hungarian::hungarian_max_weight;
use mbta_matching::mcmf::{
    max_weight_bmatching, max_weight_bmatching_certified, verify_certificate, FlowMode, PathAlgo,
};
use mbta_matching::warm::WarmNet;
use mbta_matching::Matching;
use mbta_util::fixed::objectives_close;
use mbta_util::SolveCtl;
use proptest::prelude::*;

/// Workers, tasks, unit flag, per-pair (present, base weight), and the
/// drift rounds: per pair, `None` zeroes the weight (an inactive
/// endpoint) and `Some(f)` scales the base weight by `f`.
type Case = (usize, usize, bool, Vec<(bool, f64)>, Vec<Vec<Option<f64>>>);

const MAX_SIDE: usize = 5;

fn case() -> impl Strategy<Value = Case> {
    let pairs = MAX_SIDE * MAX_SIDE;
    // One draw in six zeroes the weight.
    let drift = (0u32..6, 0.5f64..1.5).prop_map(|(z, f)| (z > 0).then_some(f));
    (
        1..=MAX_SIDE,
        1..=MAX_SIDE,
        any::<bool>(),
        proptest::collection::vec((any::<bool>(), 0.0f64..=1.0), pairs),
        proptest::collection::vec(proptest::collection::vec(drift, pairs), 1..=8),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn warm_resolves_match_independent_oracles(c in case()) {
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
                    slots.push((w * MAX_SIDE + t, base));
                }
            }
        }
        let g = from_edges(&caps, &dems, &edges);
        let mut net = WarmNet::new(&g);
        let mut prev = Matching::empty();
        for (round, drift) in rounds.iter().enumerate() {
            let w: Vec<f64> = slots
                .iter()
                .map(|&(slot, base)| drift[slot].map_or(0.0, |f| (base * f).clamp(0.0, 1.0)))
                .collect();
            let (m, stats) = net.solve(&g, &w, &prev, &SolveCtl::unlimited());
            prop_assert!(stats.completed);
            prop_assert!(m.validate(&g).is_ok());
            let (_, spfa) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Spfa);
            prop_assert_eq!(stats.profit, spfa.profit, "round {}", round);
            if unit {
                let hung = hungarian_max_weight(&g, &w);
                prop_assert!(
                    objectives_close(m.total_weight(&w), hung.total_weight(&w), g.n_edges()),
                    "round {}: warm {} vs hungarian {}",
                    round,
                    m.total_weight(&w),
                    hung.total_weight(&w)
                );
            }
            let (cm, _, cert) = max_weight_bmatching_certified(&g, &w);
            prop_assert!(verify_certificate(&g, &w, &cm, &cert), "round {}", round);
            prev = m;
        }
    }
}
