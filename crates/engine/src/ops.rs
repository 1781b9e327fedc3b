//! Physical operator kernels on one node's data, and the stage driver that
//! composes them.
//!
//! Every kernel pushes rows. A source — the node's partition of a base
//! table, or an already materialized row set — walks its rows and pushes
//! each one, as a `&[Value]` slice, through filter, projection and
//! hash-join probe steps into a sink that either aggregates the rows or
//! materializes them. [`execute`] runs one operator over materialized
//! inputs; the stage driver `run_stage` fuses a collapsed sub-plan into
//! as few pipelines as its shape allows, so a row becomes a [`Row`] only
//! where it must outlive its pipeline.
//!
//! A node kill never lands inside a kernel: the coordinator decides it
//! before the node reads its inputs, so the stage driver runs to the end.
//! The public kernels ([`execute`], [`top_k`], [`merge_partials`]) check
//! [`ExecCtx::interrupted`] once, on entry.

use std::collections::HashMap;

use crate::expr::Expr;
use crate::plan::{Agg, AggFunc, EOpId, EnginePlan, OpKind};
use crate::table::Catalog;
use ftpde_store::value::{Row, Value};

/// Execution failure: the node was killed before running the operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

/// Per-node execution context.
pub struct ExecCtx<'a> {
    /// The sharded database.
    pub catalog: &'a Catalog,
    /// This worker's node index.
    pub node: usize,
    /// Returns `true` when the node has been killed. The public kernels
    /// check it once, on entry.
    pub interrupted: &'a dyn Fn() -> bool,
}

impl ExecCtx<'_> {
    fn check(&self) -> Result<(), Interrupted> {
        if (self.interrupted)() {
            Err(Interrupted)
        } else {
            Ok(())
        }
    }
}

/// Executes one operator on one node. `inputs` are the operator's input
/// row sets in plan order (empty for scans).
pub fn execute(
    kind: &OpKind,
    inputs: &[&[Row]],
    ctx: &ExecCtx<'_>,
) -> Result<Vec<Row>, Interrupted> {
    ctx.check()?;
    if let OpKind::TopK { sort_col, ascending, k } = *kind {
        return Ok(sorted_top_k(inputs[0], sort_col, ascending, k));
    }
    let pipe = Pipe::step(kind, || inputs[0], Pipe::sink(kind));
    let source = match streamed_port(kind) {
        Some(port) => Source::Rows(inputs[port]),
        None => Source::scan(kind, ctx),
    };
    Ok(source.run(pipe))
}

/// The input an operator reads row by row, so that it can stream from its
/// producer: the only input of a filter, projection or aggregation, or a
/// join's probe side. `None` for a scan, which reads its table, and for
/// top-k, which sorts its whole input.
fn streamed_port(kind: &OpKind) -> Option<usize> {
    match kind {
        OpKind::Filter { .. } | OpKind::Project { .. } | OpKind::HashAgg { .. } => Some(0),
        OpKind::HashJoin { .. } => Some(1),
        OpKind::Scan { .. } | OpKind::TopK { .. } => None,
    }
}

/// Runs the collapsed sub-plan `members` (ascending ids, ending at `root`)
/// on the context's node and returns the root's output. `stored` holds the
/// sub-plan's cross-stage inputs.
///
/// A member streams into its consumer when it has exactly one consumer,
/// that consumer is a member too, and the consumer reads it on its
/// streamed port ([`streamed_port`]). Every other member is materialized
/// into the stage's memo: the root, join build sides, top-k inputs and
/// operators with several readers or a reader in another stage. Each
/// materialized member is the sink of one pipeline whose source is a table
/// scan or a materialized input.
pub(crate) fn run_stage(
    plan: &EnginePlan,
    members: &[EOpId],
    root: EOpId,
    stored: &[(EOpId, &[Row])],
    ctx: &ExecCtx<'_>,
) -> Vec<Row> {
    let streams = |id: EOpId| match plan.consumers(id) {
        [c] => {
            let consumer = plan.op(*c);
            members.contains(&id)
                && members.contains(c)
                && streamed_port(&consumer.kind).is_some_and(|port| consumer.inputs[port] == id)
        }
        _ => false,
    };
    let mut memo: HashMap<EOpId, Vec<Row>> = HashMap::new();
    for &m in members.iter().filter(|&&m| m != root && !streams(m)) {
        let rows = materialize(plan, m, &streams, &memo, stored, ctx);
        memo.insert(m, rows);
    }
    materialize(plan, root, &streams, &memo, stored, ctx)
}

/// Runs the pipeline whose sink is the materialized operator `id`: from
/// `id`, walks up streamed inputs, putting each operator's push step in
/// front of the pipe, until it reaches a scan or a materialized input.
fn materialize(
    plan: &EnginePlan,
    id: EOpId,
    streams: &dyn Fn(EOpId) -> bool,
    memo: &HashMap<EOpId, Vec<Row>>,
    stored: &[(EOpId, &[Row])],
    ctx: &ExecCtx<'_>,
) -> Vec<Row> {
    let input = |p: EOpId| match memo.get(&p) {
        Some(rows) => rows.as_slice(),
        None => match stored.iter().find(|(s, _)| *s == p) {
            Some(&(_, rows)) => rows,
            None => unreachable!("input {p:?} is neither materialized in the stage nor stored"),
        },
    };
    let op = plan.op(id);
    if let OpKind::TopK { sort_col, ascending, k } = op.kind {
        return sorted_top_k(input(op.inputs[0]), sort_col, ascending, k);
    }
    let mut pipe = Pipe::sink(&op.kind);
    let mut cur = op;
    let source = loop {
        pipe = Pipe::step(&cur.kind, || input(cur.inputs[0]), pipe);
        match streamed_port(&cur.kind) {
            Some(port) if streams(cur.inputs[port]) => cur = plan.op(cur.inputs[port]),
            Some(port) => break Source::Rows(input(cur.inputs[port])),
            None => break Source::scan(&cur.kind, ctx),
        }
    };
    source.run(pipe)
}

/// Where a pipeline's rows come from.
enum Source<'a> {
    /// The node's partition of a base table, filtered and projected as it
    /// is read.
    Scan { rows: &'a [Row], filter: Option<&'a Expr>, project: Option<&'a [usize]> },
    /// A materialized row set: a member's output or a stored input.
    Rows(&'a [Row]),
}

impl<'a> Source<'a> {
    /// The source of a scan operator.
    fn scan(kind: &'a OpKind, ctx: &ExecCtx<'a>) -> Self {
        match kind {
            OpKind::Scan { table, filter, project } => Source::Scan {
                rows: ctx.catalog.table(table).partition(ctx.node),
                filter: filter.as_ref(),
                project: project.as_deref(),
            },
            _ => unreachable!("only scans read a table"),
        }
    }

    /// Pushes every row into `pipe` and returns the pipe's output.
    fn run(self, mut pipe: Pipe<'_>) -> Vec<Row> {
        self.drive(&mut pipe);
        pipe.finish()
    }

    fn drive(self, pipe: &mut Pipe<'_>) {
        match self {
            Source::Rows(rows) => {
                for r in rows {
                    pipe.push(r);
                }
            }
            Source::Scan { rows, filter, project } => {
                let mut buf = Vec::with_capacity(project.map_or(0, <[usize]>::len));
                for r in rows {
                    if filter.is_some_and(|f| !f.eval_bool(r)) {
                        continue;
                    }
                    match project {
                        Some(cols) => {
                            buf.clear();
                            buf.extend(cols.iter().map(|&c| r[c]));
                            pipe.push(&buf);
                        }
                        None => pipe.push(r),
                    }
                }
            }
        }
    }
}

/// A push step: takes one row at a time and passes on what it produces.
/// Rows travel as borrowed slices; steps that make new rows build them in
/// a buffer they reuse.
enum Pipe<'a> {
    /// Passes on the rows that satisfy the predicate.
    Filter { predicate: &'a Expr, next: Box<Pipe<'a>> },
    /// Evaluates one expression per output column.
    Project { exprs: &'a [Expr], buf: Vec<Value>, next: Box<Pipe<'a>> },
    /// Looks the row up in a hash table of borrowed build rows and passes
    /// on each match concatenated with it (build row first) that satisfies
    /// the residual predicate.
    Probe {
        table: HashMap<i64, Vec<&'a Row>>,
        probe_key: usize,
        residual: Option<&'a Expr>,
        buf: Vec<Value>,
        next: Box<Pipe<'a>>,
    },
    /// Sink: hash aggregation.
    Aggregate(Aggregate<'a>),
    /// Sink: materializes every row.
    Collect(Vec<Row>),
}

impl<'a> Pipe<'a> {
    /// The sink of an operator whose output is materialized: the
    /// aggregation itself, or a collector of the operator's output rows.
    fn sink(kind: &'a OpKind) -> Self {
        match kind {
            OpKind::HashAgg { group_cols, aggs } => {
                Pipe::Aggregate(Aggregate::new(group_cols, aggs))
            }
            _ => Pipe::Collect(Vec::new()),
        }
    }

    /// Puts the push step of `kind` in front of `next`. A join first builds
    /// its hash table over `build()`. A scan (a source) and an aggregation
    /// (a sink) add no step.
    fn step(kind: &'a OpKind, build: impl FnOnce() -> &'a [Row], next: Self) -> Self {
        let next = Box::new(next);
        match kind {
            OpKind::Filter { predicate } => Pipe::Filter { predicate, next },
            OpKind::Project { exprs } => {
                Pipe::Project { exprs, buf: Vec::with_capacity(exprs.len()), next }
            }
            OpKind::HashJoin { build_key, probe_key, residual } => {
                let mut table: HashMap<i64, Vec<&Row>> = HashMap::new();
                for r in build() {
                    table.entry(r[*build_key].as_int()).or_default().push(r);
                }
                Pipe::Probe {
                    table,
                    probe_key: *probe_key,
                    residual: residual.as_ref(),
                    buf: Vec::new(),
                    next,
                }
            }
            OpKind::Scan { .. } | OpKind::HashAgg { .. } | OpKind::TopK { .. } => *next,
        }
    }

    fn push(&mut self, row: &[Value]) {
        match self {
            Pipe::Filter { predicate, next } => {
                if predicate.eval_bool(row) {
                    next.push(row);
                }
            }
            Pipe::Project { exprs, buf, next } => {
                buf.clear();
                buf.extend(exprs.iter().map(|e| e.eval(row)));
                next.push(buf);
            }
            Pipe::Probe { table, probe_key, residual, buf, next } => {
                let Some(matches) = table.get(&row[*probe_key].as_int()) else {
                    return;
                };
                for b in matches {
                    buf.clear();
                    buf.extend_from_slice(b);
                    buf.extend_from_slice(row);
                    if residual.is_none_or(|f| f.eval_bool(buf)) {
                        next.push(buf);
                    }
                }
            }
            Pipe::Aggregate(agg) => agg.push(row),
            Pipe::Collect(out) => out.push(row.into()),
        }
    }

    /// The rows the pipe's sink holds once every row has been pushed.
    fn finish(self) -> Vec<Row> {
        match self {
            Pipe::Filter { next, .. } | Pipe::Project { next, .. } | Pipe::Probe { next, .. } => {
                next.finish()
            }
            Pipe::Aggregate(agg) => agg.finish(),
            Pipe::Collect(out) => out,
        }
    }
}

/// Top-k with a total, deterministic order: primary key is the sort
/// column, ties are broken by comparing the full row — so merging
/// per-node partials reproduces the single-node result exactly.
pub fn top_k(
    rows: &[Row],
    sort_col: usize,
    ascending: bool,
    k: usize,
    ctx: &ExecCtx<'_>,
) -> Result<Vec<Row>, Interrupted> {
    ctx.check()?;
    Ok(sorted_top_k(rows, sort_col, ascending, k))
}

/// [`top_k`] without the interrupt check.
pub(crate) fn sorted_top_k(rows: &[Row], sort_col: usize, ascending: bool, k: usize) -> Vec<Row> {
    let mut out: Vec<Row> = rows.to_vec();
    let cmp = |a: &Row, b: &Row| {
        let primary = a[sort_col].total_cmp(&b[sort_col]);
        let primary = if ascending { primary } else { primary.reverse() };
        primary.then_with(|| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| !o.is_eq())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    };
    out.sort_by(cmp);
    out.truncate(k);
    out
}

/// Hash aggregation with deterministic (group-key-sorted) output order.
/// Each row's group key is built in a reused buffer; only a new group
/// allocates.
struct Aggregate<'a> {
    group_cols: &'a [usize],
    aggs: &'a [Agg],
    /// Group key → group index; group `g`'s accumulators are
    /// `accs[g * aggs.len()..][..aggs.len()]`.
    groups: HashMap<Box<[i64]>, usize>,
    accs: Vec<Value>,
    key: Vec<i64>,
}

impl<'a> Aggregate<'a> {
    fn new(group_cols: &'a [usize], aggs: &'a [Agg]) -> Self {
        Aggregate {
            group_cols,
            aggs,
            groups: HashMap::new(),
            accs: Vec::new(),
            key: Vec::with_capacity(group_cols.len()),
        }
    }

    fn push(&mut self, row: &[Value]) {
        self.key.clear();
        self.key.extend(self.group_cols.iter().map(|&c| row[c].as_int()));
        let g = match self.groups.get(self.key.as_slice()) {
            Some(&g) => g,
            None => self.new_group(),
        };
        let n = self.aggs.len();
        for (acc, agg) in self.accs[g * n..][..n].iter_mut().zip(self.aggs) {
            update_acc(acc, agg, row);
        }
    }

    /// Adds a group for the key in `self.key`, with initial accumulators.
    fn new_group(&mut self) -> usize {
        let g = self.groups.len();
        self.groups.insert(self.key.as_slice().into(), g);
        self.accs.extend(self.aggs.iter().map(|a| match a.func {
            AggFunc::Sum | AggFunc::Count => Value::Int(0),
            AggFunc::Min => Value::Int(i64::MAX),
            AggFunc::Max => Value::Int(i64::MIN),
        }));
        g
    }

    /// One row per group — its key columns, then its accumulators — in key
    /// order. Global aggregates over no rows still yield one row.
    fn finish(mut self) -> Vec<Row> {
        if self.groups.is_empty() && self.group_cols.is_empty() {
            self.new_group();
        }
        let n = self.aggs.len();
        let mut keyed: Vec<(Box<[i64]>, usize)> = self.groups.into_iter().collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        keyed
            .into_iter()
            .map(|(key, g)| {
                key.iter()
                    .map(|&k| Value::Int(k))
                    .chain(self.accs[g * n..][..n].iter().copied())
                    .collect()
            })
            .collect()
    }
}

fn update_acc(acc: &mut Value, agg: &Agg, row: &[Value]) {
    match agg.func {
        AggFunc::Count => *acc = Value::Int(acc.as_int() + 1),
        AggFunc::Sum => {
            let v = agg.expr.eval(row);
            *acc = match (*acc, v) {
                (Value::Int(a), Value::Int(b)) => Value::Int(a + b),
                (a, b) => Value::Float(a.as_float() + b.as_float()),
            };
        }
        AggFunc::Min => {
            let v = agg.expr.eval(row);
            if v.total_cmp(acc).is_lt() {
                *acc = v;
            }
        }
        AggFunc::Max => {
            let v = agg.expr.eval(row);
            if v.total_cmp(acc).is_gt() {
                *acc = v;
            }
        }
    }
}

/// Merges per-node partial aggregation outputs into the global result:
/// re-aggregates the partial rows on the same group columns with each
/// aggregate's merge function applied to its accumulator column.
pub fn merge_partials(
    partials: &[Vec<Row>],
    group_cols: &[usize],
    aggs: &[Agg],
    ctx: &ExecCtx<'_>,
) -> Result<Vec<Row>, Interrupted> {
    ctx.check()?;
    Ok(merge_aggregates(partials, group_cols, aggs))
}

/// [`merge_partials`] without the interrupt check.
pub(crate) fn merge_aggregates(
    partials: &[Vec<Row>],
    group_cols: &[usize],
    aggs: &[Agg],
) -> Vec<Row> {
    let merge_group: Vec<usize> = (0..group_cols.len()).collect();
    let merge_aggs: Vec<Agg> = aggs
        .iter()
        .enumerate()
        .map(|(i, a)| Agg { func: a.func.merge_func(), expr: Expr::col(group_cols.len() + i) })
        .collect();
    let mut merged = Pipe::Aggregate(Aggregate::new(&merge_group, &merge_aggs));
    for rows in partials {
        Source::Rows(rows).drive(&mut merged);
    }
    merged.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::table::PartitionedTable;
    use ftpde_store::value::int_row;

    fn ctx(catalog: &Catalog) -> ExecCtx<'_> {
        ExecCtx { catalog, node: 0, interrupted: &|| false }
    }

    fn empty_catalog() -> Catalog {
        Catalog::new()
    }

    #[test]
    fn scan_filters_and_projects() {
        let mut c = Catalog::new();
        c.register(PartitionedTable::replicated(
            "t",
            (0..10).map(|k| int_row(&[k, k * 2])).collect(),
            1,
        ));
        let kind = OpKind::Scan {
            table: "t".into(),
            filter: Some(Expr::col(0).ge(Expr::lit(7))),
            project: Some(vec![1]),
        };
        let out = execute(&kind, &[], &ctx(&c)).unwrap();
        assert_eq!(out, vec![int_row(&[14]), int_row(&[16]), int_row(&[18])]);
    }

    #[test]
    fn filter_and_project() {
        let c = empty_catalog();
        let input: Vec<Row> = (0..6).map(|k| int_row(&[k])).collect();
        let f = OpKind::Filter { predicate: Expr::col(0).gt(Expr::lit(3)) };
        let out = execute(&f, &[&input], &ctx(&c)).unwrap();
        assert_eq!(out.len(), 2);
        let p = OpKind::Project { exprs: vec![Expr::col(0).mul(Expr::lit(10))] };
        let out = execute(&p, &[&out], &ctx(&c)).unwrap();
        assert_eq!(out, vec![int_row(&[40]), int_row(&[50])]);
    }

    #[test]
    fn hash_join_concatenates_and_matches() {
        let c = empty_catalog();
        let build: Vec<Row> = vec![int_row(&[1, 100]), int_row(&[2, 200])];
        let probe: Vec<Row> = vec![int_row(&[10, 1]), int_row(&[20, 2]), int_row(&[30, 3])];
        let j = OpKind::HashJoin { build_key: 0, probe_key: 1, residual: None };
        let mut out = execute(&j, &[&build, &probe], &ctx(&c)).unwrap();
        out.sort_by_key(|r| r[0].as_int());
        assert_eq!(out, vec![int_row(&[1, 100, 10, 1]), int_row(&[2, 200, 20, 2])]);
    }

    #[test]
    fn hash_join_residual_filters_combined_row() {
        let c = empty_catalog();
        let build: Vec<Row> = vec![int_row(&[1, 100])];
        let probe: Vec<Row> = vec![int_row(&[50, 1]), int_row(&[150, 1])];
        // combined row: [b0, b1, p0, p1]; keep p0 > b1.
        let j = OpKind::HashJoin {
            build_key: 0,
            probe_key: 1,
            residual: Some(Expr::col(2).gt(Expr::col(1))),
        };
        let out = execute(&j, &[&build, &probe], &ctx(&c)).unwrap();
        assert_eq!(out, vec![int_row(&[1, 100, 150, 1])]);
    }

    #[test]
    fn duplicate_build_keys_produce_all_matches() {
        let c = empty_catalog();
        let build: Vec<Row> = vec![int_row(&[1, 7]), int_row(&[1, 8])];
        let probe: Vec<Row> = vec![int_row(&[1])];
        let j = OpKind::HashJoin { build_key: 0, probe_key: 0, residual: None };
        let out = execute(&j, &[&build, &probe], &ctx(&c)).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn aggregation_groups_and_sorts() {
        let c = empty_catalog();
        let input: Vec<Row> =
            vec![int_row(&[2, 10]), int_row(&[1, 5]), int_row(&[2, 30]), int_row(&[1, 7])];
        let a = OpKind::HashAgg {
            group_cols: vec![0],
            aggs: vec![
                Agg { func: AggFunc::Sum, expr: Expr::col(1) },
                Agg { func: AggFunc::Count, expr: Expr::lit(1) },
                Agg { func: AggFunc::Min, expr: Expr::col(1) },
                Agg { func: AggFunc::Max, expr: Expr::col(1) },
            ],
        };
        let out = execute(&a, &[&input], &ctx(&c)).unwrap();
        assert_eq!(out, vec![int_row(&[1, 12, 2, 5, 7]), int_row(&[2, 40, 2, 10, 30])]);
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_one_row() {
        let c = empty_catalog();
        let input: Vec<Row> = Vec::new();
        let a = OpKind::HashAgg {
            group_cols: vec![],
            aggs: vec![Agg { func: AggFunc::Count, expr: Expr::lit(1) }],
        };
        let out = execute(&a, &[&input], &ctx(&c)).unwrap();
        assert_eq!(out, vec![int_row(&[0])]);
    }

    #[test]
    fn merge_partials_reaggregates() {
        let c = empty_catalog();
        let cx = ctx(&c);
        let group_cols = vec![0];
        let aggs = vec![
            Agg { func: AggFunc::Sum, expr: Expr::col(1) },
            Agg { func: AggFunc::Count, expr: Expr::lit(1) },
            Agg { func: AggFunc::Min, expr: Expr::col(1) },
        ];
        // Partials from two nodes: [group, sum, count, min].
        let node0 = vec![int_row(&[1, 10, 2, 3])];
        let node1 = vec![int_row(&[1, 20, 3, 1]), int_row(&[2, 5, 1, 5])];
        let merged = merge_partials(&[node0, node1], &group_cols, &aggs, &cx).unwrap();
        assert_eq!(merged, vec![int_row(&[1, 30, 5, 1]), int_row(&[2, 5, 1, 5])]);
    }

    #[test]
    fn interruption_aborts_execution() {
        let mut c = Catalog::new();
        c.register(PartitionedTable::replicated(
            "t",
            (0..10_000).map(|k| int_row(&[k])).collect(),
            1,
        ));
        let cx = ExecCtx { catalog: &c, node: 0, interrupted: &|| true };
        let kind = OpKind::Scan { table: "t".into(), filter: None, project: None };
        assert_eq!(execute(&kind, &[], &cx), Err(Interrupted));
        let rows = vec![int_row(&[1, 1])];
        assert_eq!(top_k(&rows, 0, true, 1, &cx), Err(Interrupted));
        let aggs = [Agg { func: AggFunc::Count, expr: Expr::lit(1) }];
        assert_eq!(merge_partials(&[rows], &[0], &aggs, &cx), Err(Interrupted));
    }
}
