//! TPC-H query plans for the execution engine, plus the catalog loader
//! that shards a generated [`Database`] the way the paper's cluster is
//! laid out (§5.1): LINEITEM and ORDERS hash-co-partitioned on `orderkey`,
//! everything else replicated (the micro-scale equivalent of RREF).
//!
//! Column layouts (fixed, documented here once):
//!
//! | table     | columns |
//! |-----------|---------|
//! | lineitem  | orderkey, suppkey, partkey, extendedprice, discount, quantity, returnflag, shipdate |
//! | orders    | orderkey, custkey, orderdate |
//! | customer  | custkey, nationkey, mktsegment |
//! | part      | partkey, size, typ |
//! | partsupp  | partkey, suppkey, supplycost |
//! | supplier  | suppkey, nationkey |
//! | nation    | nationkey, regionkey |
//! | region    | regionkey |

use ftpde_tpch::datagen::Database;

use crate::expr::Expr;
use crate::plan::{Agg, AggFunc, EnginePlan, OpKind};
use crate::table::{Catalog, PartitionedTable};
use ftpde_store::value::{int_row, Row};

/// Shards `db` over `nodes` worker nodes per the paper's layout.
pub fn load_catalog(db: &Database, nodes: usize) -> Catalog {
    let mut c = Catalog::new();
    let lineitem: Vec<Row> = db
        .lineitem
        .iter()
        .map(|l| {
            int_row(&[
                l.orderkey,
                l.suppkey,
                l.partkey,
                l.extendedprice,
                l.discount,
                l.quantity,
                l.returnflag,
                l.shipdate,
            ])
        })
        .collect();
    c.register(PartitionedTable::hash_partitioned("lineitem", lineitem, 0, nodes));

    let orders: Vec<Row> =
        db.orders.iter().map(|o| int_row(&[o.orderkey, o.custkey, o.orderdate])).collect();
    c.register(PartitionedTable::hash_partitioned("orders", orders, 0, nodes));

    let customer: Vec<Row> =
        db.customer.iter().map(|x| int_row(&[x.custkey, x.nationkey, x.mktsegment])).collect();
    c.register(PartitionedTable::replicated("customer", customer, nodes));

    let supplier: Vec<Row> =
        db.supplier.iter().map(|x| int_row(&[x.suppkey, x.nationkey])).collect();
    c.register(PartitionedTable::replicated("supplier", supplier, nodes));

    let part: Vec<Row> = db.part.iter().map(|x| int_row(&[x.partkey, x.size, x.typ])).collect();
    c.register(PartitionedTable::replicated("part", part, nodes));

    let partsupp: Vec<Row> =
        db.partsupp.iter().map(|x| int_row(&[x.partkey, x.suppkey, x.supplycost])).collect();
    c.register(PartitionedTable::replicated("partsupp", partsupp, nodes));

    let nation: Vec<Row> = db.nation.iter().map(|x| int_row(&[x.nationkey, x.regionkey])).collect();
    c.register(PartitionedTable::replicated("nation", nation, nodes));

    let region: Vec<Row> = db.region.iter().map(|x| int_row(&[x.regionkey])).collect();
    c.register(PartitionedTable::replicated("region", region, nodes));
    c
}

/// Q1: `σ(lineitem) → Γ` — sum/count of prices per return flag for early
/// shipments. Output: `[returnflag, sum(extendedprice), count]`.
pub fn q1_engine_plan() -> EnginePlan {
    let mut p = EnginePlan::new();
    let scan = p.add(
        "scan σ(lineitem)",
        OpKind::Scan {
            table: "lineitem".into(),
            filter: Some(Expr::col(7).le(Expr::lit(2400))), // shipdate
            project: Some(vec![6, 3]),                      // [returnflag, price]
        },
        &[],
    );
    p.add(
        "Γ per flag",
        OpKind::HashAgg {
            group_cols: vec![0],
            aggs: vec![
                Agg { func: AggFunc::Sum, expr: Expr::col(1) },
                Agg { func: AggFunc::Count, expr: Expr::lit(1) },
            ],
        },
        &[scan],
    );
    p.finish()
}

/// Q3: `(σ(customer) ⋈ σ(orders)) ⋈ σ(lineitem) → Γ` — revenue per order
/// for one market segment. Output: `[orderkey, sum(extendedprice)]`.
pub fn q3_engine_plan() -> EnginePlan {
    let mut p = EnginePlan::new();
    let c = p.add(
        "scan σ(customer)",
        OpKind::Scan {
            table: "customer".into(),
            filter: Some(Expr::col(2).eq(Expr::lit(0))), // mktsegment
            project: Some(vec![0]),                      // [custkey]
        },
        &[],
    );
    let o = p.add(
        "scan σ(orders)",
        OpKind::Scan {
            table: "orders".into(),
            filter: Some(Expr::col(2).lt(Expr::lit(1200))), // orderdate
            project: Some(vec![0, 1]),                      // [orderkey, custkey]
        },
        &[],
    );
    // → [c_custkey, o_orderkey, o_custkey]
    let j1 =
        p.add("⋈ C,O", OpKind::HashJoin { build_key: 0, probe_key: 1, residual: None }, &[c, o]);
    let l = p.add(
        "scan σ(lineitem)",
        OpKind::Scan {
            table: "lineitem".into(),
            filter: Some(Expr::col(7).gt(Expr::lit(1200))), // shipdate
            project: Some(vec![0, 3]),                      // [orderkey, price]
        },
        &[],
    );
    // → [c_custkey, o_orderkey, o_custkey, l_orderkey, price]
    let j2 =
        p.add("⋈ C,O,L", OpKind::HashJoin { build_key: 1, probe_key: 0, residual: None }, &[j1, l]);
    p.add(
        "Γ per order",
        OpKind::HashAgg {
            group_cols: vec![1],
            aggs: vec![Agg { func: AggFunc::Sum, expr: Expr::col(4) }],
        },
        &[j2],
    );
    p.finish()
}

/// Q5 (Figure 9): the left-deep chain
/// `σ(region) ⋈ nation ⋈ customer ⋈ σ(orders) ⋈ lineitem ⋈ supplier → Γ`
/// — revenue per nation where the supplier is in the customer's nation.
/// Output: `[nationkey, sum(extendedprice)]`.
pub fn q5_engine_plan() -> EnginePlan {
    let mut p = EnginePlan::new();
    let r = p.add(
        "scan σ(region)",
        OpKind::Scan {
            table: "region".into(),
            filter: Some(Expr::col(0).eq(Expr::lit(0))),
            project: None, // [regionkey]
        },
        &[],
    );
    let n = p.add(
        "scan nation",
        OpKind::Scan { table: "nation".into(), filter: None, project: None }, // [nk, rk]
        &[],
    );
    // → [r_rk, n_nk, n_rk]
    let j1 =
        p.add("⋈ R,N", OpKind::HashJoin { build_key: 0, probe_key: 1, residual: None }, &[r, n]);
    let c = p.add(
        "scan customer",
        OpKind::Scan { table: "customer".into(), filter: None, project: Some(vec![0, 1]) }, // [ck, nk]
        &[],
    );
    // → [r_rk, n_nk, n_rk, c_ck, c_nk]
    let j2 =
        p.add("⋈ R,N,C", OpKind::HashJoin { build_key: 1, probe_key: 1, residual: None }, &[j1, c]);
    let o = p.add(
        "scan σ(orders)",
        OpKind::Scan {
            table: "orders".into(),
            filter: Some(Expr::col(2).lt(Expr::lit(365))), // one year of orders
            project: Some(vec![0, 1]),                     // [ok, ck]
        },
        &[],
    );
    // → [r_rk, n_nk, n_rk, c_ck, c_nk, o_ok, o_ck]
    let j3 = p.add(
        "⋈ R,N,C,O",
        OpKind::HashJoin { build_key: 3, probe_key: 1, residual: None },
        &[j2, o],
    );
    let l = p.add(
        "scan lineitem",
        OpKind::Scan {
            table: "lineitem".into(),
            filter: None,
            project: Some(vec![0, 1, 3]), // [ok, sk, price]
        },
        &[],
    );
    // → [r_rk, n_nk, n_rk, c_ck, c_nk, o_ok, o_ck, l_ok, l_sk, price]
    let j4 = p.add(
        "⋈ R,N,C,O,L",
        OpKind::HashJoin { build_key: 5, probe_key: 0, residual: None },
        &[j3, l],
    );
    let s = p.add(
        "scan supplier",
        OpKind::Scan { table: "supplier".into(), filter: None, project: None }, // [sk, nk]
        &[],
    );
    // Supplier is the build side (small, replicated); j4's l_sk sits at
    // index 8, so the combined row is
    // [s_sk, s_nk, r_rk, n_nk, n_rk, c_ck, c_nk, o_ok, o_ck, l_ok, l_sk, price];
    // the residual enforces s_nationkey = c_nationkey.
    let j5 = p.add(
        "⋈ R,N,C,O,L,S",
        OpKind::HashJoin {
            build_key: 0,
            probe_key: 8,
            residual: Some(Expr::col(1).eq(Expr::col(6))),
        },
        &[s, j4],
    );
    p.add(
        "Γ per nation",
        OpKind::HashAgg {
            group_cols: vec![1],
            aggs: vec![Agg { func: AggFunc::Sum, expr: Expr::col(11) }],
        },
        &[j5],
    );
    p.finish()
}

/// Q1C: the nested Q1 variant — the inner per-flag average is computed
/// mid-plan (an always-materialized gather point in the engine), then
/// LINEITEM is re-scanned and items priced above their flag's average are
/// counted. Output: `[count]`.
pub fn q1c_engine_plan() -> EnginePlan {
    let mut p = EnginePlan::new();
    let scan1 = p.add(
        "scan σ(lineitem)",
        OpKind::Scan {
            table: "lineitem".into(),
            filter: Some(Expr::col(7).le(Expr::lit(2400))),
            project: Some(vec![6, 3]), // [flag, price]
        },
        &[],
    );
    let sums = p.add(
        "Γ avg (inner)",
        OpKind::HashAgg {
            group_cols: vec![0],
            aggs: vec![
                Agg { func: AggFunc::Sum, expr: Expr::col(1) },
                Agg { func: AggFunc::Count, expr: Expr::lit(1) },
            ],
        },
        &[scan1],
    );
    // → [flag, avg]
    let avg = p.add(
        "π avg",
        OpKind::Project { exprs: vec![Expr::col(0), Expr::col(1).div(Expr::col(2))] },
        &[sums],
    );
    let scan2 = p.add(
        "scan lineitem",
        OpKind::Scan { table: "lineitem".into(), filter: None, project: Some(vec![6, 3]) },
        &[],
    );
    // combined: [flag, avg, l_flag, l_price]; keep items above average.
    let join = p.add(
        "⋈ price > avg",
        OpKind::HashJoin {
            build_key: 0,
            probe_key: 0,
            residual: Some(Expr::col(3).gt(Expr::col(1))),
        },
        &[avg, scan2],
    );
    p.add(
        "Γ count",
        OpKind::HashAgg {
            group_cols: vec![],
            aggs: vec![Agg { func: AggFunc::Count, expr: Expr::lit(1) }],
        },
        &[join],
    );
    p.finish()
}

/// Q2C: the paper's DAG-structured variant of Q2 — the inner aggregation
/// query (min supply cost per part among the region's suppliers) is a CTE
/// consumed by **two** outer queries with different PART size filters.
/// Each sink returns the top-10 cheapest qualifying (part, supplier)
/// combinations. Output per sink:
/// `[cte_pk, cte_min, r_rk, n_nk, n_rk, s_sk, s_nk, p_pk, p_size, ps_pk, ps_sk, ps_cost]`.
pub fn q2c_engine_plan() -> EnginePlan {
    let mut p = EnginePlan::new();
    // Shared scans.
    let r = p.add(
        "scan σ(region)",
        OpKind::Scan {
            table: "region".into(),
            filter: Some(Expr::col(0).eq(Expr::lit(0))),
            project: None,
        },
        &[],
    );
    let n = p.add(
        "scan nation",
        OpKind::Scan { table: "nation".into(), filter: None, project: None },
        &[],
    );
    let s = p.add(
        "scan supplier",
        OpKind::Scan { table: "supplier".into(), filter: None, project: None }, // [sk, nk]
        &[],
    );
    let ps = p.add(
        "scan partsupp",
        OpKind::Scan { table: "partsupp".into(), filter: None, project: None }, // [pk, sk, cost]
        &[],
    );

    // Inner query: region's suppliers' partsupp entries → min cost per part.
    // i1 → [r_rk, n_nk, n_rk]
    let i1 =
        p.add("⋈ R,N", OpKind::HashJoin { build_key: 0, probe_key: 1, residual: None }, &[r, n]);
    // i2 → [r_rk, n_nk, n_rk, s_sk, s_nk]
    let i2 =
        p.add("⋈ R,N,S", OpKind::HashJoin { build_key: 1, probe_key: 1, residual: None }, &[i1, s]);
    // i3 → [..5, ps_pk, ps_sk, ps_cost]
    let i3 = p.add(
        "⋈ R,N,S,PS",
        OpKind::HashJoin { build_key: 3, probe_key: 1, residual: None },
        &[i2, ps],
    );
    // CTE → [partkey, min cost]; always-materialized gather point.
    let cte = p.add(
        "Γ min cost (CTE)",
        OpKind::HashAgg {
            group_cols: vec![5],
            aggs: vec![Agg { func: AggFunc::Min, expr: Expr::col(7) }],
        },
        &[i3],
    );

    // Two outer queries with different PART size filters.
    for (k, max_size) in [(1u8, 10i64), (2u8, 25i64)] {
        let scan_p = p.add(
            format!("scan σ{k}(part)"),
            OpKind::Scan {
                table: "part".into(),
                filter: Some(Expr::col(1).le(Expr::lit(max_size))),
                project: None, // [pk, size, typ]
            },
            &[],
        );
        // o1: parts ⋈ partsupp → [p_pk, p_size, p_typ, ps_pk, ps_sk, ps_cost]
        let o1 = p.add(
            format!("⋈{k} P,PS"),
            OpKind::HashJoin { build_key: 0, probe_key: 0, residual: None },
            &[scan_p, ps],
        );
        // Keep only width we need: [p_pk, ps_sk, ps_cost]
        let o1p = p.add(
            format!("π{k}"),
            OpKind::Project { exprs: vec![Expr::col(0), Expr::col(4), Expr::col(5)] },
            &[o1],
        );
        // o2: ⋈ supplier → [s_sk, s_nk, p_pk, ps_sk, ps_cost]
        let o2 = p.add(
            format!("⋈{k} P,PS,S"),
            OpKind::HashJoin { build_key: 0, probe_key: 1, residual: None },
            &[s, o1p],
        );
        // o3: restrict suppliers to the region by joining the (tiny) R⋈N
        // result on nationkey → [r_rk, n_nk, n_rk, s_sk, s_nk, p_pk, ps_sk, ps_cost]
        let o3 = p.add(
            format!("⋈{k} region suppliers"),
            OpKind::HashJoin { build_key: 1, probe_key: 1, residual: None },
            &[i1, o2],
        );
        // o4: match the CTE's min cost per part →
        // [cte_pk, cte_min, r_rk, n_nk, n_rk, s_sk, s_nk, p_pk, ps_sk, ps_cost];
        // the residual keeps only min-cost entries (ps_cost = cte_min).
        let o4 = p.add(
            format!("⋈{k} min-cost"),
            OpKind::HashJoin {
                build_key: 0,
                probe_key: 5,
                residual: Some(Expr::col(9).eq(Expr::col(1))),
            },
            &[cte, o3],
        );
        // Sink: 10 cheapest, deterministic order.
        p.add(format!("top10 ({k})"), OpKind::TopK { sort_col: 1, ascending: true, k: 10 }, &[o4]);
    }
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::{run_query, EngineRecovery, RunOptions, RunReport};
    use crate::failure::{FailureInjector, Injection};
    use ftpde_core::config::MatConfig;
    use ftpde_store::value::Value;

    // Big enough that the selective Q5/Q2C predicates keep a few rows at
    // any generator seed; at 0.0005 some seeds leave them empty.
    const SF: f64 = 0.001;

    fn db() -> Database {
        Database::generate(SF, 42)
    }

    fn run(
        plan: &EnginePlan,
        nodes: usize,
        config_bits: u64,
        injector: &FailureInjector,
        opts: &RunOptions,
    ) -> RunReport {
        let catalog = load_catalog(&db(), nodes);
        let dag = plan.to_plan_dag();
        let config = MatConfig::from_free_bits(&dag, config_bits);
        run_query(plan, &config, &catalog, injector, opts)
    }

    /// Single-node, failure-free run = ground truth.
    fn reference(plan: &EnginePlan) -> Vec<(crate::plan::EOpId, Vec<Row>)> {
        run(plan, 1, 0, &FailureInjector::none(), &RunOptions::default()).results
    }

    #[test]
    fn q1_partition_parallel_matches_single_node() {
        let plan = q1_engine_plan();
        let expected = reference(&plan);
        for nodes in [2, 4, 7] {
            let got = run(&plan, nodes, 0, &FailureInjector::none(), &RunOptions::default());
            assert_eq!(got.results, expected, "nodes = {nodes}");
        }
    }

    #[test]
    fn q1_results_are_plausible() {
        let plan = q1_engine_plan();
        let results = reference(&plan);
        assert_eq!(results.len(), 1);
        let rows = &results[0].1;
        assert_eq!(rows.len(), 3, "three return flags");
        for r in rows {
            assert!(r[2].as_int() > 0, "every flag has rows");
        }
    }

    #[test]
    fn q3_partition_parallel_matches_single_node() {
        let plan = q3_engine_plan();
        let expected = reference(&plan);
        let got = run(&plan, 4, 0b11, &FailureInjector::none(), &RunOptions::default());
        assert_eq!(got.results, expected);
        assert!(!expected[0].1.is_empty(), "Q3 must produce revenue rows");
    }

    #[test]
    fn q5_partition_parallel_matches_single_node() {
        let plan = q5_engine_plan();
        let expected = reference(&plan);
        for config_bits in [0u64, 0b11111] {
            let got = run(&plan, 4, config_bits, &FailureInjector::none(), &RunOptions::default());
            assert_eq!(got.results, expected, "config = {config_bits:#b}");
        }
        // Revenue per nation of one region: at most 5 nations.
        let rows = &expected[0].1;
        assert!(!rows.is_empty() && rows.len() <= 5, "{} nations", rows.len());
    }

    #[test]
    fn q1c_inner_average_is_global_not_per_node() {
        let plan = q1c_engine_plan();
        let expected = reference(&plan);
        let got = run(&plan, 4, 0, &FailureInjector::none(), &RunOptions::default());
        // If the engine aggregated per node without the global gather, the
        // counts would differ.
        assert_eq!(got.results, expected);
        let count = expected[0].1[0][0].as_int();
        assert!(count > 0);
    }

    #[test]
    fn q2c_dag_matches_single_node_and_has_two_sinks() {
        let plan = q2c_engine_plan();
        assert_eq!(plan.sinks().len(), 2);
        let expected = run(&plan, 1, 0, &FailureInjector::none(), &RunOptions::default());
        assert_eq!(expected.results.len(), 2);
        for (_, rows) in &expected.results {
            assert!(!rows.is_empty() && rows.len() <= 10, "top-10 sink");
            // Sorted ascending by min cost.
            for w in rows.windows(2) {
                assert!(w[0][1].as_int() <= w[1][1].as_int());
            }
            // Every surviving row matches its part's min cost.
            for r in rows {
                assert_eq!(r[9].as_int(), r[1].as_int(), "ps_cost == cte min");
            }
        }
        let got = run(&plan, 4, 0, &FailureInjector::none(), &RunOptions::default());
        assert_eq!(got.results, expected.results);
    }

    #[test]
    fn q2c_recovers_from_failures_on_both_sinks() {
        let plan = q2c_engine_plan();
        let expected = run(&plan, 1, 0, &FailureInjector::none(), &RunOptions::default());
        let dag = plan.to_plan_dag();
        // Materialize some of the outer joins; kill first attempts widely.
        let config_bits = 0b0101010101u64 & ((1 << dag.free_count()) - 1);
        let config = MatConfig::from_free_bits(&dag, config_bits);
        let stage_roots: Vec<u32> = {
            let pc = ftpde_core::collapse::CollapsedPlan::collapse(&dag, &config, 1.0);
            pc.iter().map(|(_, c)| c.root.0).collect()
        };
        let injector = FailureInjector::random_first_attempts(&stage_roots, 4, 0.6, 13);
        assert!(injector.planned_count() > 0);
        let catalog = load_catalog(&db(), 4);
        let got = run_query(&plan, &config, &catalog, &injector, &RunOptions::default());
        assert_eq!(got.results, expected.results);
        assert!(got.node_retries > 0);
    }

    #[test]
    fn top_k_operator_is_deterministic_across_node_counts() {
        let plan = q2c_engine_plan();
        let a = run(&plan, 2, 0, &FailureInjector::none(), &RunOptions::default());
        let b = run(&plan, 7, 0, &FailureInjector::none(), &RunOptions::default());
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn fine_grained_recovery_preserves_results() {
        let plan = q5_engine_plan();
        let expected = reference(&plan);
        let dag = plan.to_plan_dag();
        // Kill several nodes' first attempts across all stages, under
        // both extreme materialization configs.
        for config_bits in [0u64, 0b11111] {
            let config = MatConfig::from_free_bits(&dag, config_bits);
            let stage_roots: Vec<u32> = {
                let pc = ftpde_core::collapse::CollapsedPlan::collapse(&dag, &config, 1.0);
                pc.iter().map(|(_, c)| c.root.0).collect()
            };
            let injector = FailureInjector::random_first_attempts(&stage_roots, 4, 0.5, 7);
            assert!(injector.planned_count() > 0);
            let catalog = load_catalog(&db(), 4);
            let got = run_query(&plan, &config, &catalog, &injector, &RunOptions::default());
            assert_eq!(got.results, expected, "config = {config_bits:#b}");
            assert!(got.node_retries > 0, "failures must actually fire");
            assert_eq!(got.node_retries, injector.fired().len() as u64);
        }
    }

    #[test]
    fn coarse_restart_recovers_and_counts_restarts() {
        let plan = q3_engine_plan();
        let expected = reference(&plan);
        let dag = plan.to_plan_dag();
        let config = MatConfig::none(&dag);
        // Kill node 2 during the first whole-query attempt (attempt 0 of
        // the single collapsed stage rooted at the sink agg).
        let sink = plan.sinks()[0];
        let injector = FailureInjector::with([Injection { stage: sink.0, node: 2, attempt: 0 }]);
        let catalog = load_catalog(&db(), 4);
        let opts = RunOptions {
            recovery: EngineRecovery::CoarseRestart,
            max_restarts: 100,
            ..Default::default()
        };
        let got = run_query(&plan, &config, &catalog, &injector, &opts);
        assert_eq!(got.query_restarts, 1);
        assert!(!got.aborted);
        assert_eq!(got.results, expected);
    }

    #[test]
    fn coarse_kill_lets_siblings_finish_and_replays_identically() {
        use crate::coordinator::run_query_traced;
        use ftpde_obs::export::{canonical_trace, to_jsonl};
        use ftpde_obs::{ArgValue, MemoryRecorder, Phase};

        let plan = q3_engine_plan();
        let dag = plan.to_plan_dag();
        let config = MatConfig::none(&dag);
        // With nothing materialized, Q3 is one stage, rooted at its sink.
        let stage = plan.sinks()[0].0;
        let injector = FailureInjector::with([Injection { stage, node: 0, attempt: 0 }]);
        let catalog = load_catalog(&db(), 3);
        let opts = RunOptions { recovery: EngineRecovery::CoarseRestart, ..Default::default() };
        let traced = || {
            let rec = MemoryRecorder::new();
            let got = run_query_traced(&plan, &config, &catalog, &injector, &opts, None, &rec);
            assert_eq!(got.query_restarts, 1);
            rec.events()
        };
        let events = traced();

        // The failed attempt is everything before the restart. On the
        // worker tracks it holds node 0's kill and the ok attempts of its
        // two siblings, which ran to the end.
        let restart = events.iter().position(|e| e.name == "query_restart").expect("restarted");
        let mut workers: Vec<_> = events[..restart].iter().filter(|e| e.tid != 0).collect();
        workers.sort_by_key(|e| e.tid);
        let shape: Vec<_> = workers.iter().map(|e| (e.tid, e.name.as_str(), e.phase)).collect();
        assert_eq!(
            shape,
            [
                (1, "node_failure", Phase::Instant),
                (2, "attempt", Phase::Span),
                (3, "attempt", Phase::Span)
            ]
        );
        assert!(workers[1..].iter().all(|e| e.get_arg("ok") == Some(&ArgValue::Bool(true))));
        // No other event kind, such as a cancellation, appears anywhere.
        let mut names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let stage_span = format!("stage {stage}");
        assert_eq!(
            names,
            [
                "attempt",
                "node_failure",
                "query_completed",
                "query_restart",
                &stage_span,
                "store_stats"
            ]
        );

        // Same kill, same execution: the canonical projection keeps every
        // track and `bytes_read`, and 20 runs agree on it byte for byte.
        let canon = to_jsonl(&canonical_trace(&events));
        assert!(canon.contains("bytes_read"));
        for _ in 1..20 {
            assert_eq!(to_jsonl(&canonical_trace(&traced())), canon);
        }
    }

    #[test]
    fn coarse_restart_aborts_at_limit() {
        let plan = q1_engine_plan();
        let dag = plan.to_plan_dag();
        let config = MatConfig::none(&dag);
        let sink = plan.sinks()[0];
        // Kill every attempt up to the limit.
        let injector = FailureInjector::with((0..200).map(|a| Injection {
            stage: sink.0,
            node: 0,
            attempt: a,
        }));
        let catalog = load_catalog(&db(), 2);
        let opts = RunOptions {
            recovery: EngineRecovery::CoarseRestart,
            max_restarts: 10,
            ..Default::default()
        };
        let got = run_query(&plan, &config, &catalog, &injector, &opts);
        assert!(got.aborted);
        assert_eq!(got.query_restarts, 10);
        assert!(got.results.is_empty());
    }

    #[test]
    fn materialization_volume_depends_on_config() {
        let plan = q5_engine_plan();
        let none = run(&plan, 4, 0, &FailureInjector::none(), &RunOptions::default());
        let all = run(&plan, 4, 0b11111, &FailureInjector::none(), &RunOptions::default());
        assert!(
            all.rows_materialized > none.rows_materialized,
            "all-mat writes more intermediate rows ({} vs {})",
            all.rows_materialized,
            none.rows_materialized
        );
    }

    #[test]
    fn lineage_failure_recomputes_from_base_data() {
        // With nothing materialized, a failed node re-runs the entire
        // pipeline for its partition — and still gets the right answer.
        let plan = q3_engine_plan();
        let expected = reference(&plan);
        let sink = plan.sinks()[0];
        let injector = FailureInjector::with([
            Injection { stage: sink.0, node: 1, attempt: 0 },
            Injection { stage: sink.0, node: 1, attempt: 1 },
            Injection { stage: sink.0, node: 3, attempt: 0 },
        ]);
        let got = run(&plan, 4, 0, &injector, &RunOptions::default());
        assert_eq!(got.results, expected);
        assert_eq!(got.node_retries, 3);
    }

    #[test]
    fn resume_skips_surviving_stages() {
        use crate::coordinator::run_query_resumable;
        use crate::store::IntermediateStore;
        use ftpde_store::StoreBackend;
        let plan = q5_engine_plan();
        let dag = plan.to_plan_dag();
        let config = MatConfig::all(&dag);
        let catalog = load_catalog(&db(), 4);
        let store = IntermediateStore::new();

        // First submission: everything executes and is materialized.
        let first = run_query_resumable(
            &plan,
            &config,
            &catalog,
            &FailureInjector::none(),
            &RunOptions::default(),
            &store,
        );
        assert_eq!(first.stages_skipped, 0);
        assert!(!store.is_empty());

        // "Coordinator crash": re-submit against the surviving store. All
        // non-sink stages are skipped; any attempt to actually execute a
        // skipped stage would trip the poisoned injector below.
        let n_stages = {
            let pc = ftpde_core::collapse::CollapsedPlan::collapse(&dag, &config, 1.0);
            pc.len()
        };
        let sink = plan.sinks()[0];
        let poison: Vec<Injection> = plan
            .op_ids()
            .filter(|id| *id != sink)
            .flat_map(|id| (0..4).map(move |n| Injection { stage: id.0, node: n, attempt: 0 }))
            .collect();
        let second = run_query_resumable(
            &plan,
            &config,
            &catalog,
            &FailureInjector::with(poison),
            &RunOptions::default(),
            &store,
        );
        assert_eq!(second.stages_skipped as usize, n_stages - 1, "all but the sink skipped");
        assert_eq!(second.results, first.results);
    }

    #[test]
    fn resume_recomputes_missing_stages_only() {
        use crate::coordinator::run_query_resumable;
        use crate::store::IntermediateStore;
        use ftpde_store::StoreBackend;
        let plan = q3_engine_plan();
        let dag = plan.to_plan_dag();
        let config = MatConfig::all(&dag);
        let catalog = load_catalog(&db(), 3);
        let full_store = IntermediateStore::new();
        let expected = run_query_resumable(
            &plan,
            &config,
            &catalog,
            &FailureInjector::none(),
            &RunOptions::default(),
            &full_store,
        );

        // Simulate a partially-survived store: only the first join's
        // output made it.
        let partial = IntermediateStore::new();
        let j1 = plan.op_ids().find(|id| plan.op(*id).name == "⋈ C,O").unwrap();
        for n in 0..3 {
            partial.put(j1.0, n, full_store.get(j1.0, n).unwrap().as_ref().clone());
        }
        let resumed = run_query_resumable(
            &plan,
            &config,
            &catalog,
            &FailureInjector::none(),
            &RunOptions::default(),
            &partial,
        );
        assert_eq!(resumed.stages_skipped, 1);
        assert_eq!(resumed.results, expected.results);
    }

    #[test]
    fn traced_run_mirrors_stage_structure_and_failures() {
        use crate::coordinator::run_query_traced;
        use ftpde_obs::{MemoryRecorder, Phase};

        let plan = q3_engine_plan();
        let expected = reference(&plan);
        let dag = plan.to_plan_dag();
        // Materialize the first join so the run has two stages, then kill
        // node 1's first attempt on the sink stage.
        let config = MatConfig::from_free_bits(&dag, 0b01);
        let pc = ftpde_core::collapse::CollapsedPlan::collapse(&dag, &config, 1.0);
        let sink = plan.sinks()[0];
        let injector = FailureInjector::with([Injection { stage: sink.0, node: 1, attempt: 0 }]);
        let catalog = load_catalog(&db(), 4);
        let rec = MemoryRecorder::new();
        let got = run_query_traced(
            &plan,
            &config,
            &catalog,
            &injector,
            &RunOptions::default(),
            None,
            &rec,
        );
        assert_eq!(got.results, expected);
        assert_eq!(got.node_retries, 1);

        let events = rec.events();
        // One coordinator stage span per collapsed stage.
        let stage_spans: Vec<_> = events
            .iter()
            .filter(|e| e.phase == Phase::Span && e.name.starts_with("stage "))
            .collect();
        assert_eq!(stage_spans.len(), pc.len());
        // 4 nodes × 2 stages successful attempts + 1 failed retry's
        // successful re-attempt are all worker spans; the failure itself is
        // an instant followed by a redeploy.
        let failures: Vec<_> = events.iter().filter(|e| e.name == "node_failure").collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].tid, 2, "node 1 records on track 2");
        assert_eq!(events.iter().filter(|e| e.name == "redeploy").count(), 1);
        assert!(events.iter().any(|e| e.name == "materialize"));
        assert_eq!(events.last().unwrap().name, "query_completed");

        // Stage timings cover both stages, attribute the retry to the sink
        // stage, and their spans are plausible wall-clock durations.
        assert_eq!(got.stage_timings.len(), pc.len());
        assert_eq!(got.stage_timings.iter().map(|t| t.retries).sum::<u64>(), 1);
        let sink_timing =
            got.stage_timings.iter().find(|t| t.stage == sink.0).expect("sink stage timed");
        assert_eq!(sink_timing.retries, 1);
        assert!(!sink_timing.skipped);

        // The same run through the no-op recorder produces the same report
        // (minus the wall-clock timings, which are non-deterministic).
        let untraced = run_query(&plan, &config, &catalog, &injector, &RunOptions::default());
        assert_eq!(untraced.results, got.results);
        assert_eq!(untraced.node_retries, got.node_retries);
    }

    #[test]
    fn q1_aggregate_sums_match_brute_force() {
        let database = db();
        let mut sum = [0i64; 3];
        let mut count = [0i64; 3];
        for l in &database.lineitem {
            if l.shipdate <= 2400 {
                sum[l.returnflag as usize] += l.extendedprice;
                count[l.returnflag as usize] += 1;
            }
        }
        let plan = q1_engine_plan();
        let results = reference(&plan);
        for r in &results[0].1 {
            let flag = r[0].as_int() as usize;
            assert_eq!(r[1], Value::Int(sum[flag]));
            assert_eq!(r[2], Value::Int(count[flag]));
        }
    }
}
