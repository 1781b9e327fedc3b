//! Property-based tests of the join-order enumerator and physical costing.

use proptest::prelude::*;

use ftpde_optimizer::enumerate::{all_plans, count_join_orders, k_best_plans, JoinTree};
use ftpde_optimizer::logical::{JoinGraph, RelId};
use ftpde_optimizer::physical::{tree_to_plan, AggSpec, CostModel};

/// Strategy: a random connected join graph of 2..=6 relations. Starts
/// from a random spanning chain and adds a few random extra edges.
fn arb_graph() -> impl Strategy<Value = JoinGraph> {
    let rels = collection::vec((10.0f64..1e6, 0.01f64..1.0, 8.0f64..128.0), 2..=6);
    let extras = collection::vec((any::<u8>(), any::<u8>()), 0..4);
    (rels, extras).prop_map(|(rels, extras)| {
        let mut g = JoinGraph::new();
        let ids: Vec<RelId> = rels
            .iter()
            .enumerate()
            .map(|(i, &(rows, sel, width))| g.add_relation(format!("R{i}"), rows, sel, width))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 1.0 / 1000.0);
        }
        for (a, b) in extras {
            let a = RelId(a % ids.len() as u8);
            let b = RelId(b % ids.len() as u8);
            if a != b {
                g.add_edge(a, b, 0.01);
            }
        }
        g
    })
}

fn assert_valid_tree(t: &JoinTree, g: &JoinGraph) {
    if let JoinTree::Join { left, right } = t {
        assert!(g.sets_connected(left.rel_set(), right.rel_set()), "cross product!");
        assert_eq!(left.rel_set() & right.rel_set(), 0, "overlapping sides");
        assert_valid_tree(left, g);
        assert_valid_tree(right, g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The closed-form counter matches exhaustive enumeration, every
    /// enumerated tree is valid, covers all relations, and all trees are
    /// pairwise distinct.
    #[test]
    fn enumeration_is_sound_and_complete(g in arb_graph()) {
        let plans = all_plans(&g);
        prop_assert_eq!(plans.len() as u64, count_join_orders(&g));
        let mut renders = std::collections::BTreeSet::<String>::new();
        for t in &plans {
            assert_valid_tree(t, &g);
            prop_assert_eq!(t.rel_set(), g.all_rels());
            prop_assert_eq!(t.join_count(), g.len() - 1);
            prop_assert!(renders.insert(t.render(&g)), "duplicate plan");
        }
    }

    /// k-best returns sorted plans whose minimum equals the exhaustive
    /// minimum and whose k-th element is never better than exhaustive
    /// rank k.
    #[test]
    fn k_best_is_a_superset_bound(g in arb_graph(), k in 1usize..8) {
        let best = k_best_plans(&g, k);
        prop_assert!(!best.is_empty());
        let works: Vec<f64> = best.iter().map(|t| t.work(&g)).collect();
        for w in works.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9);
        }
        let mut exhaustive: Vec<f64> = all_plans(&g).iter().map(|t| t.work(&g)).collect();
        exhaustive.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert!((works[0] - exhaustive[0]).abs() < 1e-6 * (1.0 + exhaustive[0].abs()));
        for (i, w) in works.iter().enumerate() {
            prop_assert!(*w + 1e-6 >= exhaustive[i] - 1e-6 * exhaustive[i].abs(),
                "k-best rank {i} better than exhaustive rank {i}");
        }
    }

    /// Physical conversion: plan shape and cost positivity invariants.
    #[test]
    fn physical_plans_are_well_formed(g in arb_graph(), with_agg in any::<bool>()) {
        let cm = CostModel::xdb_calibrated();
        let tree = &k_best_plans(&g, 1)[0];
        let agg = with_agg.then_some(AggSpec { out_rows: 10.0, row_bytes: 32.0, free: false });
        let plan = tree_to_plan(&g, tree, &cm, agg);
        let expected_len = g.len() /* scans */ + (g.len() - 1) /* joins */ + usize::from(with_agg);
        prop_assert_eq!(plan.len(), expected_len);
        prop_assert_eq!(plan.free_count(), g.len() - 1, "exactly the joins are free");
        prop_assert_eq!(plan.sources().len(), g.len());
        prop_assert_eq!(plan.sinks().len(), 1);
        for (_, op) in plan.iter() {
            prop_assert!(op.run_cost.is_finite() && op.run_cost >= 0.0);
            prop_assert!(op.mat_cost.is_finite() && op.mat_cost >= 0.0);
        }
    }

    /// Join cardinalities are symmetric in commutation: both orders of the
    /// same relation set estimate the same output size.
    #[test]
    fn cardinality_is_order_independent(g in arb_graph()) {
        let plans = all_plans(&g);
        let full = g.all_rels();
        let rows: Vec<f64> = plans.iter().map(|t| t.rows(&g)).collect();
        for r in &rows {
            prop_assert!((r - g.subset_rows(full)).abs() <= 1e-9 * (1.0 + r.abs()));
        }
    }
}
