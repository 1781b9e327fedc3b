//! The engine's answers against a reference evaluator that shares no code
//! with its kernels (`crates/engine/tests/support/reference.rs`): every
//! engine query, plus a join whose build side repeats its keys, on one
//! and three nodes under no and full materialization; and a metamorphic
//! check of the scan's filter.

#[path = "../crates/engine/tests/support/reference.rs"]
mod reference;

use ftpde_core::config::MatConfig;
use ftpde_engine::prelude::*;
use ftpde_tpch::datagen::Database;
use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;

/// The scale factor of the engine's own query tests.
const SF: f64 = 0.001;

/// Revenue and quantity range per customer of the line items shipped
/// before `cut`. The join builds on LINEITEM by orderkey, so most keys
/// have several build rows. Output: `[custkey, count, sum(price),
/// min(quantity), max(quantity)]`.
fn lineitem_build_plan(cut: i64) -> EnginePlan {
    let mut p = EnginePlan::new();
    let l = p.add(
        "scan σ(lineitem)",
        OpKind::Scan {
            table: "lineitem".into(),
            filter: Some(Expr::col(7).lt(Expr::lit(cut))), // shipdate
            project: Some(vec![0, 3, 5]),                  // [orderkey, price, quantity]
        },
        &[],
    );
    let o = p.add(
        "scan orders",
        OpKind::Scan { table: "orders".into(), filter: None, project: Some(vec![0, 1]) }, // [ok, ck]
        &[],
    );
    // → [l_ok, price, quantity, o_ok, o_ck]
    let j =
        p.add("⋈ L,O", OpKind::HashJoin { build_key: 0, probe_key: 0, residual: None }, &[l, o]);
    p.add(
        "Γ per customer",
        OpKind::HashAgg {
            group_cols: vec![4],
            aggs: vec![
                Agg { func: AggFunc::Count, expr: Expr::lit(1) },
                Agg { func: AggFunc::Sum, expr: Expr::col(1) },
                Agg { func: AggFunc::Min, expr: Expr::col(2) },
                Agg { func: AggFunc::Max, expr: Expr::col(2) },
            ],
        },
        &[j],
    );
    p.finish()
}

#[test]
fn engine_answers_equal_the_reference_evaluator() {
    let db = Database::generate(SF, 42);
    // A ship date that some line items have, so `<` and `<=` differ, and
    // that leaves an order with two earlier line items.
    let cut = db.lineitem[db.lineitem.len() / 2].shipdate;
    let before =
        |ok: i64| db.lineitem.iter().filter(|l| l.orderkey == ok && l.shipdate < cut).count();
    assert!(db.lineitem.iter().any(|l| l.shipdate == cut));
    assert!(db.orders.iter().any(|o| before(o.orderkey) >= 2));
    let plans = [
        ("Q1", q1_engine_plan()),
        ("Q3", q3_engine_plan()),
        ("Q5", q5_engine_plan()),
        ("Q1C", q1c_engine_plan()),
        ("Q2C", q2c_engine_plan()),
        ("L build", lineitem_build_plan(cut)),
    ];
    let answers: Vec<_> = plans.iter().map(|(_, plan)| reference::evaluate(plan, &db)).collect();
    for ((name, _), expected) in plans.iter().zip(&answers) {
        assert!(expected.iter().all(|(_, rows)| !rows.is_empty()), "{name}: empty answer");
    }
    for nodes in [1, 3] {
        let catalog = load_catalog(&db, nodes);
        for ((name, plan), expected) in plans.iter().zip(&answers) {
            let dag = plan.to_plan_dag();
            for (config_name, config) in
                [("none", MatConfig::none(&dag)), ("all", MatConfig::all(&dag))]
            {
                let got = run_query(
                    plan,
                    &config,
                    &catalog,
                    &FailureInjector::none(),
                    &RunOptions::default(),
                );
                assert_eq!(&got.results, expected, "{name} on {nodes} node(s), {config_name}-mat");
            }
        }
    }
}

/// A cell or literal: mostly small, so comparisons meet equal values, and
/// sometimes an extreme.
fn small_or_extreme(x: u8) -> i64 {
    match x {
        8 => i64::MIN,
        9 => i64::MAX,
        x => i64::from(x) - 4,
    }
}

/// Draws a predicate over four integer columns: half the time a
/// conjunction of column-literal comparisons, the shape a scan compiles;
/// otherwise a tree of comparisons, `And`, `Or` and `Not`, which it
/// evaluates row by row.
struct Predicates;

impl Predicates {
    fn column_cmp(rng: &mut TestRng) -> Expr {
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let op = ops[rng.gen_range(0..ops.len())];
        Expr::col(rng.gen_range(0..4)).cmp(op, Expr::lit(small_or_extreme(rng.gen_range(0..10))))
    }

    fn tree(rng: &mut TestRng, depth: u32) -> Expr {
        if depth == 0 || rng.gen_bool(0.4) {
            return if rng.gen_bool(0.8) {
                Self::column_cmp(rng)
            } else {
                Expr::col(rng.gen_range(0..4)).le(Expr::col(rng.gen_range(0..4)))
            };
        }
        let sub = |rng: &mut TestRng| Box::new(Self::tree(rng, depth - 1));
        match rng.gen_range(0..3) {
            0 => Expr::And(sub(rng), sub(rng)),
            1 => Expr::Or(sub(rng), sub(rng)),
            _ => Expr::Not(sub(rng)),
        }
    }
}

impl Strategy for Predicates {
    type Value = Expr;

    fn generate(&self, rng: &mut TestRng) -> Expr {
        if rng.gen_bool(0.5) {
            let terms = rng.gen_range(1..4);
            (1..terms).fold(Self::column_cmp(rng), |p, _| p.and(Self::column_cmp(rng)))
        } else {
            Self::tree(rng, 3)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Ternary logic partitioning: the rows a scan keeps under `P` and
    /// under `Not(P)` split the table, each in table order, and the rows
    /// kept under `P` are the reference evaluator's.
    #[test]
    fn a_filter_and_its_negation_partition_the_scanned_table(
        cells in collection::vec(collection::vec((0u8..10).prop_map(small_or_extreme), 3), 0..2500),
        p in Predicates,
        project in (any::<bool>(), collection::vec(0usize..4, 1..5))
            .prop_map(|(some, cols)| some.then_some(cols)),
    ) {
        // Column 0 numbers the rows, so every row is distinct.
        let rows: Vec<Row> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| int_row(&[i as i64, c[0], c[1], c[2]]))
            .collect();
        let mut catalog = Catalog::new();
        catalog.register(PartitionedTable::replicated("t", rows.clone(), 1));
        let ctx = ExecCtx { catalog: &catalog, node: 0, interrupted: &|| false };
        let scan = |filter: Expr, project: Option<Vec<usize>>| {
            let kind = OpKind::Scan { table: "t".into(), filter: Some(filter), project };
            execute(&kind, &[], &ctx).expect("never interrupted")
        };
        let kept = scan(p.clone(), None);
        let dropped = scan(Expr::Not(Box::new(p.clone())), None);
        prop_assert_eq!(&kept, &reference::scan(&rows, Some(&p), None));
        prop_assert_eq!(
            scan(p.clone(), project.clone()),
            reference::scan(&rows, Some(&p), project.as_deref())
        );
        let (mut k, mut d) = (kept.iter().peekable(), dropped.iter().peekable());
        for r in &rows {
            let in_kept = k.next_if(|x| *x == r).is_some();
            let in_dropped = d.next_if(|x| *x == r).is_some();
            prop_assert!(in_kept != in_dropped, "row {:?} kept {} dropped {}", r, in_kept, in_dropped);
        }
        prop_assert!(k.next().is_none() && d.next().is_none());
    }
}
