//! Property-based tests of the TPC-H substrate: generator integrity and
//! cost-model scaling laws.

use proptest::prelude::*;

use ftpde_optimizer::physical::CostModel;
use ftpde_sim::simulate::baseline_runtime;
use ftpde_tpch::datagen::Database;
use ftpde_tpch::queries::{q5_join_graph, Query};
use ftpde_tpch::schema::Table;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generated databases respect all FK constraints and cardinality
    /// ratios at any micro scale factor and seed.
    #[test]
    fn datagen_integrity(sf in 1e-4f64..5e-3, seed in any::<u64>()) {
        let db = Database::generate(sf, seed);
        prop_assert_eq!(db.nation.len(), 25);
        prop_assert_eq!(db.region.len(), 5);
        for o in &db.orders {
            prop_assert!((o.custkey as usize) < db.customer.len());
        }
        for l in &db.lineitem {
            prop_assert!((l.orderkey as usize) < db.orders.len());
            prop_assert!((l.suppkey as usize) < db.supplier.len());
            prop_assert!(l.discount <= 1000 && l.quantity >= 1);
        }
        // 1..=7 lineitems per order, ~4 on average.
        let ratio = db.lineitem.len() as f64 / db.orders.len() as f64;
        prop_assert!((1.0..=7.0).contains(&ratio));
    }

    /// Same seed, same database; different seed, different database.
    #[test]
    fn datagen_determinism(sf in 1e-4f64..2e-3, seed in any::<u64>()) {
        let a = Database::generate(sf, seed);
        let b = Database::generate(sf, seed);
        prop_assert_eq!(&a, &b);
        let c = Database::generate(sf, seed.wrapping_add(1));
        prop_assert!(a != c);
    }

    /// Baseline runtimes scale linearly in the scale factor for every
    /// evaluation query (costs are cardinality-linear).
    #[test]
    fn baselines_scale_linearly(sf in 1.0f64..200.0) {
        let cm = CostModel::xdb_calibrated();
        for q in Query::ALL {
            let b1 = baseline_runtime(&q.plan(sf, &cm), 1.0);
            let b2 = baseline_runtime(&q.plan(2.0 * sf, &cm), 1.0);
            let ratio = b2 / b1;
            prop_assert!((1.8..2.2).contains(&ratio), "{q}: ratio {ratio}");
        }
    }

    /// Q5 cardinality chain follows FK semantics at every scale factor:
    /// each added relation multiplies by the expected factor.
    #[test]
    fn q5_cardinality_chain(sf in 0.1f64..1000.0) {
        let g = q5_join_graph(sf);
        // {R,N} = 5; {R,N,C} = customers/5; {R,N,C,O} = orders/7/5;
        // full = lineitem/7/5/25.
        prop_assert!((g.subset_rows(0b000011) - 5.0).abs() < 1e-6);
        let c = Table::Customer.rows(sf) / 5.0;
        prop_assert!((g.subset_rows(0b000111) - c).abs() < c * 1e-9 + 1e-6);
        let o = Table::Orders.rows(sf) / 7.0 / 5.0;
        prop_assert!((g.subset_rows(0b001111) - o).abs() < o * 1e-9 + 1e-6);
        let full = Table::Lineitem.rows(sf) / 7.0 / 5.0 / 25.0;
        prop_assert!((g.subset_rows(0b111111) - full).abs() < full * 1e-6 + 1e-6);
    }

    /// Every query plan is structurally sound at any SF: valid costs, at
    /// least one sink, free operators only where the paper allows them.
    #[test]
    fn plans_are_well_formed(sf in 0.5f64..500.0) {
        let cm = CostModel::xdb_calibrated();
        for q in Query::ALL {
            let p = q.plan(sf, &cm);
            prop_assert!(!p.sinks().is_empty());
            for (id, op) in p.iter() {
                prop_assert!(op.run_cost.is_finite() && op.run_cost >= 0.0, "{q}/{}", op.name);
                prop_assert!(op.mat_cost.is_finite() && op.mat_cost >= 0.0, "{q}/{}", op.name);
                // Scans never materialize.
                if op.name.starts_with("scan") {
                    prop_assert!(!op.is_free());
                }
                // Sinks are bound (results are delivered, not checkpointed).
                if p.consumers(id).is_empty() {
                    prop_assert!(!op.is_free(), "{q}: sink {} must be bound", op.name);
                }
            }
        }
    }
}
