//! A reference evaluator for engine plans that shares no code with the
//! engine's kernels (`ftpde_engine::ops`) or its catalog.
//!
//! It reads each base table straight from a generated [`Database`], in
//! the catalog's column order, and runs every operator once over whole
//! row vectors: a plain filter, a nested-loop join, `BTreeMap` grouping
//! and a full sort for top-k. There is no partitioning, no pipelining and
//! no hashing, and expressions go through an interpreter of its own.
//!
//! Included by the engine's recovery proptests and by the workspace's
//! answers test, each through a `#[path]` module.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use ftpde_engine::expr::{ArithOp, CmpOp, Expr};
use ftpde_engine::plan::{Agg, AggFunc, EOpId, EnginePlan, OpKind};
use ftpde_store::value::{int_row, Row, Value};
use ftpde_tpch::datagen::Database;

/// Evaluates `plan` over `db` and returns each sink's rows, sinks in
/// ascending id order.
pub fn evaluate(plan: &EnginePlan, db: &Database) -> Vec<(EOpId, Vec<Row>)> {
    let mut outputs: Vec<Vec<Row>> = Vec::with_capacity(plan.len());
    for id in plan.op_ids() {
        let op = plan.op(id);
        let input = |port: usize| outputs[op.inputs[port].index()].as_slice();
        let rows = match &op.kind {
            OpKind::Scan { table: name, filter, project } => {
                scan(&table(db, name), filter.as_ref(), project.as_deref())
            }
            OpKind::Filter { predicate } => {
                input(0).iter().filter(|r| truth(eval(predicate, r))).cloned().collect()
            }
            OpKind::Project { exprs } => {
                input(0).iter().map(|r| exprs.iter().map(|e| eval(e, r)).collect()).collect()
            }
            OpKind::HashJoin { build_key, probe_key, residual } => {
                nested_loop_join(input(0), input(1), *build_key, *probe_key, residual.as_ref())
            }
            OpKind::HashAgg { group_cols, aggs } => group(input(0), group_cols, aggs),
            OpKind::TopK { sort_col, ascending, k } => top_k(input(0), *sort_col, *ascending, *k),
        };
        outputs.push(rows);
    }
    plan.sinks().into_iter().map(|s| (s, std::mem::take(&mut outputs[s.index()]))).collect()
}

/// Every row of table `name`, in generation order, with the columns the
/// engine's catalog documents (`ftpde_engine::queries`).
pub fn table(db: &Database, name: &str) -> Vec<Row> {
    match name {
        "lineitem" => db
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
            .collect(),
        "orders" => {
            db.orders.iter().map(|o| int_row(&[o.orderkey, o.custkey, o.orderdate])).collect()
        }
        "customer" => {
            db.customer.iter().map(|c| int_row(&[c.custkey, c.nationkey, c.mktsegment])).collect()
        }
        "part" => db.part.iter().map(|p| int_row(&[p.partkey, p.size, p.typ])).collect(),
        "partsupp" => {
            db.partsupp.iter().map(|p| int_row(&[p.partkey, p.suppkey, p.supplycost])).collect()
        }
        "supplier" => db.supplier.iter().map(|s| int_row(&[s.suppkey, s.nationkey])).collect(),
        "nation" => db.nation.iter().map(|n| int_row(&[n.nationkey, n.regionkey])).collect(),
        "region" => db.region.iter().map(|r| int_row(&[r.regionkey])).collect(),
        other => panic!("no table {other:?}"),
    }
}

/// The rows of `rows` that `filter` keeps, in order, each cut down to the
/// `project` columns.
pub fn scan(rows: &[Row], filter: Option<&Expr>, project: Option<&[usize]>) -> Vec<Row> {
    rows.iter()
        .filter(|r| filter.is_none_or(|f| truth(eval(f, r))))
        .map(|r| match project {
            Some(cols) => cols.iter().map(|&c| r[c]).collect(),
            None => r.clone(),
        })
        .collect()
}

/// For each probe row in order, each build row in order whose key equals
/// the probe row's: the build row followed by the probe row, kept if the
/// residual holds on it.
fn nested_loop_join(
    build: &[Row],
    probe: &[Row],
    build_key: usize,
    probe_key: usize,
    residual: Option<&Expr>,
) -> Vec<Row> {
    let mut out = Vec::new();
    for p in probe {
        for b in build {
            if b[build_key] != p[probe_key] {
                continue;
            }
            let joined: Row = b.iter().chain(p.iter()).copied().collect();
            if residual.is_none_or(|f| truth(eval(f, &joined))) {
                out.push(joined);
            }
        }
    }
    out
}

/// One row per group — its key, then one value per aggregate — in key
/// order. A global aggregate yields its one row even over no input.
fn group(rows: &[Row], group_cols: &[usize], aggs: &[Agg]) -> Vec<Row> {
    let start = || -> Vec<Value> {
        aggs.iter()
            .map(|a| match a.func {
                AggFunc::Sum | AggFunc::Count => Value::Int(0),
                AggFunc::Min => Value::Int(i64::MAX),
                AggFunc::Max => Value::Int(i64::MIN),
            })
            .collect()
    };
    let mut groups: BTreeMap<Vec<i64>, Vec<Value>> = BTreeMap::new();
    if group_cols.is_empty() {
        groups.insert(Vec::new(), start());
    }
    for r in rows {
        let key = group_cols.iter().map(|&c| int(r[c])).collect();
        let accs = groups.entry(key).or_insert_with(start);
        for (acc, agg) in accs.iter_mut().zip(aggs) {
            let v = eval(&agg.expr, r);
            *acc = match agg.func {
                AggFunc::Count => Value::Int(int(*acc) + 1),
                AggFunc::Sum => match (*acc, v) {
                    (Value::Int(a), Value::Int(b)) => Value::Int(a + b),
                    (a, b) => Value::Float(float(a) + float(b)),
                },
                AggFunc::Min if compare(v, *acc) == Ordering::Less => v,
                AggFunc::Max if compare(v, *acc) == Ordering::Greater => v,
                AggFunc::Min | AggFunc::Max => *acc,
            };
        }
    }
    groups
        .into_iter()
        .map(|(key, accs)| key.into_iter().map(Value::Int).chain(accs).collect())
        .collect()
}

/// The first `k` rows after a full sort on `sort_col`, ties broken by the
/// whole row, left to right.
fn top_k(rows: &[Row], sort_col: usize, ascending: bool, k: usize) -> Vec<Row> {
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| {
        let primary = compare(a[sort_col], b[sort_col]);
        let primary = if ascending { primary } else { primary.reverse() };
        let whole = a.iter().zip(b.iter()).map(|(x, y)| compare(*x, *y)).find(|o| o.is_ne());
        primary.then(whole.unwrap_or(Ordering::Equal))
    });
    sorted.truncate(k);
    sorted
}

/// Evaluates `e` on `row`: comparisons and connectives give 0 or 1;
/// arithmetic stays integral on two integers, and `/` always divides
/// floats.
fn eval(e: &Expr, row: &[Value]) -> Value {
    let flag = |b: bool| Value::Int(i64::from(b));
    match e {
        Expr::Col(c) => row[*c],
        Expr::Lit(v) => *v,
        Expr::Cmp(op, l, r) => {
            let o = compare(eval(l, row), eval(r, row));
            flag(match op {
                CmpOp::Eq => o == Ordering::Equal,
                CmpOp::Ne => o != Ordering::Equal,
                CmpOp::Lt => o == Ordering::Less,
                CmpOp::Le => o != Ordering::Greater,
                CmpOp::Gt => o == Ordering::Greater,
                CmpOp::Ge => o != Ordering::Less,
            })
        }
        Expr::And(l, r) => flag(truth(eval(l, row)) && truth(eval(r, row))),
        Expr::Or(l, r) => flag(truth(eval(l, row)) || truth(eval(r, row))),
        Expr::Not(x) => flag(!truth(eval(x, row))),
        Expr::Arith(op, l, r) => match (op, eval(l, row), eval(r, row)) {
            (ArithOp::Div, a, b) => Value::Float(float(a) / float(b)),
            (ArithOp::Add, Value::Int(a), Value::Int(b)) => Value::Int(a + b),
            (ArithOp::Sub, Value::Int(a), Value::Int(b)) => Value::Int(a - b),
            (ArithOp::Mul, Value::Int(a), Value::Int(b)) => Value::Int(a * b),
            (ArithOp::Add, a, b) => Value::Float(float(a) + float(b)),
            (ArithOp::Sub, a, b) => Value::Float(float(a) - float(b)),
            (ArithOp::Mul, a, b) => Value::Float(float(a) * float(b)),
        },
    }
}

/// Numeric order: integers exactly, anything else as floats.
fn compare(a: Value, b: Value) -> Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(&y),
        _ => float(a).total_cmp(&float(b)),
    }
}

fn truth(v: Value) -> bool {
    match v {
        Value::Int(x) => x != 0,
        Value::Float(x) => x != 0.0,
    }
}

fn float(v: Value) -> f64 {
    match v {
        Value::Int(x) => x as f64,
        Value::Float(x) => x,
    }
}

fn int(v: Value) -> i64 {
    match v {
        Value::Int(x) => x,
        Value::Float(x) => panic!("group keys are integers, found {x}"),
    }
}
