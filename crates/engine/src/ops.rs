//! Physical operator kernels on one node's data, and the stage driver that
//! composes them.
//!
//! Every kernel pushes rows. A source — the node's partition of a base
//! table, or an already materialized row set — walks its rows and pushes
//! each one, as a `&[Value]` slice, through filter, projection and
//! hash-join probe steps into a sink that either aggregates the rows or
//! materializes them. A table scan works on the partition's columns a
//! batch of row indices at a time: it selects the rows its filter keeps,
//! then gathers only the projected cells of those rows into the slice it
//! pushes. [`execute`] runs one operator over materialized
//! inputs; the stage driver `run_stage` fuses a collapsed sub-plan into
//! as few pipelines as its shape allows, so a row becomes a [`Row`] only
//! where it must outlive its pipeline.
//!
//! A node kill never lands inside a kernel: the coordinator decides it
//! before the node reads its inputs, so the stage driver runs to the end.
//! The public kernels ([`execute`], [`top_k`], [`merge_partials`]) check
//! [`ExecCtx::interrupted`] once, on entry.

use std::collections::HashMap;

use crate::expr::{ColumnPredicate, Expr};
use crate::plan::{Agg, AggFunc, EOpId, EnginePlan, OpKind};
use crate::table::{Catalog, IntMap, Partition};
use ftpde_store::value::{Row, Value};

/// Rows a table scan filters and gathers per step.
const BATCH: usize = 1024;

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
    Scan { part: &'a Partition, filter: Option<ScanFilter<'a>>, project: Option<&'a [usize]> },
    /// A materialized row set: a member's output or a stored input.
    Rows(&'a [Row]),
}

/// A scan's filter, by its shape.
enum ScanFilter<'a> {
    /// `Col op Lit(Int)` comparisons joined by `And`: evaluated on the
    /// columns it reads.
    Columns(ColumnPredicate),
    /// Any other expression: evaluated on each gathered row.
    Rows(&'a Expr),
}

impl<'a> Source<'a> {
    /// The source of a scan operator.
    fn scan(kind: &'a OpKind, ctx: &ExecCtx<'a>) -> Self {
        match kind {
            OpKind::Scan { table, filter, project } => Source::Scan {
                part: ctx.catalog.table(table).partition(ctx.node),
                filter: filter
                    .as_ref()
                    .map(|f| f.compile().map_or(ScanFilter::Rows(f), ScanFilter::Columns)),
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
            Source::Scan { part, filter, project } => {
                let n = part.len();
                if n == 0 {
                    // A table built from no rows may have no columns either.
                    return;
                }
                let every: Vec<&[i64]> = (0..part.width()).map(|c| part.column(c)).collect();
                let cols: Vec<&[i64]> = match project {
                    Some(cols) => cols.iter().map(|&c| every[c]).collect(),
                    None => every.clone(),
                };
                let mut sel = Vec::with_capacity(BATCH);
                let mut buf = Vec::with_capacity(every.len());
                for start in (0..n).step_by(BATCH) {
                    let rows = start..n.min(start + BATCH);
                    sel.clear();
                    match &filter {
                        None => sel.extend(rows),
                        Some(ScanFilter::Columns(p)) => p.select(|c| every[c], rows, &mut sel),
                        Some(ScanFilter::Rows(f)) => sel.extend(rows.filter(|&i| {
                            gather(&every, i, &mut buf);
                            f.eval_bool(&buf)
                        })),
                    }
                    for &i in &sel {
                        gather(&cols, i, &mut buf);
                        pipe.push(&buf);
                    }
                }
            }
        }
    }
}

/// Puts row `i` of `cols` into `buf`.
#[inline]
fn gather(cols: &[&[i64]], i: usize, buf: &mut Vec<Value>) {
    buf.clear();
    buf.extend(cols.iter().map(|col| Value::Int(col[i])));
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
        table: BuildTable<'a>,
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
            OpKind::HashJoin { build_key, probe_key, residual } => Pipe::Probe {
                table: BuildTable::new(build(), *build_key),
                probe_key: *probe_key,
                residual: residual.as_ref(),
                buf: Vec::new(),
                next,
            },
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
                for b in table.matches(row[*probe_key].as_int()) {
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

/// A join's build side: its rows, chained by key in build order, so no
/// key owns a list of its own.
struct BuildTable<'a> {
    rows: &'a [Row],
    /// Key → index of the key's first build row.
    first: IntMap<i64, usize>,
    /// Row index → index of the next build row with the same key, or
    /// [`BuildTable::END`].
    next: Vec<usize>,
}

impl<'a> BuildTable<'a> {
    const END: usize = usize::MAX;

    fn new(rows: &'a [Row], key: usize) -> Self {
        let mut first = IntMap::with_capacity_and_hasher(rows.len(), Default::default());
        let mut next = vec![Self::END; rows.len()];
        // Insert from the back, so that each chain runs in build order.
        for (i, r) in rows.iter().enumerate().rev() {
            if let Some(later) = first.insert(r[key].as_int(), i) {
                next[i] = later;
            }
        }
        BuildTable { rows, first, next }
    }

    /// The build rows whose key is `key`, in build order.
    fn matches(&self, key: i64) -> impl Iterator<Item = &'a Row> + '_ {
        let mut i = self.first.get(&key).copied().unwrap_or(Self::END);
        std::iter::from_fn(move || {
            let row = self.rows.get(i)?;
            i = self.next[i];
            Some(row)
        })
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
struct Aggregate<'a> {
    aggs: &'a [Agg],
    groups: Groups<'a>,
    /// Number of groups; group `g`'s accumulators are
    /// `accs[g * aggs.len()..][..aggs.len()]`.
    len: usize,
    accs: Vec<Value>,
}

/// How a row finds its group, by the number of group columns.
enum Groups<'a> {
    /// No group column: one group.
    Global,
    /// One group column: its integer value is the key.
    One(usize, IntMap<i64, usize>),
    /// Several group columns: the key is built in a reused buffer, and only
    /// a new group allocates.
    Many(&'a [usize], IntMap<Box<[i64]>, usize>, Vec<i64>),
}

impl Groups<'_> {
    /// The index of `row`'s group; a new group gets index `len`.
    fn index(&mut self, row: &[Value], len: usize) -> usize {
        match self {
            Groups::Global => 0,
            Groups::One(col, map) => *map.entry(row[*col].as_int()).or_insert(len),
            Groups::Many(cols, map, key) => {
                key.clear();
                key.extend(cols.iter().map(|&c| row[c].as_int()));
                match map.get(key.as_slice()) {
                    Some(&g) => g,
                    None => {
                        map.insert(key.as_slice().into(), len);
                        len
                    }
                }
            }
        }
    }
}

impl<'a> Aggregate<'a> {
    fn new(group_cols: &'a [usize], aggs: &'a [Agg]) -> Self {
        let groups = match *group_cols {
            [] => Groups::Global,
            [col] => Groups::One(col, IntMap::default()),
            _ => Groups::Many(group_cols, IntMap::default(), Vec::with_capacity(group_cols.len())),
        };
        Aggregate { aggs, groups, len: 0, accs: Vec::new() }
    }

    fn push(&mut self, row: &[Value]) {
        let g = self.groups.index(row, self.len);
        if g == self.len {
            self.new_group();
        }
        let n = self.aggs.len();
        for (acc, agg) in self.accs[g * n..][..n].iter_mut().zip(self.aggs) {
            update_acc(acc, agg, row);
        }
    }

    /// Adds a group with initial accumulators.
    fn new_group(&mut self) {
        self.len += 1;
        self.accs.extend(self.aggs.iter().map(|a| match a.func {
            AggFunc::Sum | AggFunc::Count => Value::Int(0),
            AggFunc::Min => Value::Int(i64::MAX),
            AggFunc::Max => Value::Int(i64::MIN),
        }));
    }

    /// One row per group — its key columns, then its accumulators — in key
    /// order. Global aggregates over no rows still yield one row.
    fn finish(mut self) -> Vec<Row> {
        if self.len == 0 && matches!(self.groups, Groups::Global) {
            self.new_group();
        }
        let n = self.aggs.len();
        let accs = &self.accs;
        let row = |key: &[i64], g: usize| -> Row {
            key.iter().map(|&k| Value::Int(k)).chain(accs[g * n..][..n].iter().copied()).collect()
        };
        match self.groups {
            Groups::Global => vec![row(&[], 0)],
            Groups::One(_, map) => {
                let mut keyed: Vec<(i64, usize)> = map.into_iter().collect();
                keyed.sort_unstable();
                keyed.into_iter().map(|(k, g)| row(&[k], g)).collect()
            }
            Groups::Many(_, map, _) => {
                let mut keyed: Vec<(Box<[i64]>, usize)> = map.into_iter().collect();
                keyed.sort_unstable();
                keyed.into_iter().map(|(k, g)| row(&k, g)).collect()
            }
        }
    }
}

fn update_acc(acc: &mut Value, agg: &Agg, row: &[Value]) {
    // A plain column, the common case, is read without evaluation.
    let value = || match agg.expr {
        Expr::Col(c) => row[c],
        ref e => e.eval(row),
    };
    match agg.func {
        AggFunc::Count => *acc = Value::Int(acc.as_int() + 1),
        AggFunc::Sum => {
            *acc = match (*acc, value()) {
                (Value::Int(a), Value::Int(b)) => Value::Int(a + b),
                (a, b) => Value::Float(a.as_float() + b.as_float()),
            };
        }
        AggFunc::Min => {
            let v = value();
            if v.total_cmp(acc).is_lt() {
                *acc = v;
            }
        }
        AggFunc::Max => {
            let v = value();
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
    fn duplicate_build_keys_produce_all_matches_in_build_order() {
        let c = empty_catalog();
        let build: Vec<Row> =
            vec![int_row(&[1, 7]), int_row(&[1, 8]), int_row(&[2, 9]), int_row(&[1, 6])];
        let probe: Vec<Row> = vec![int_row(&[1]), int_row(&[3]), int_row(&[2])];
        let j = OpKind::HashJoin { build_key: 0, probe_key: 0, residual: None };
        let out = execute(&j, &[&build, &probe], &ctx(&c)).unwrap();
        assert_eq!(
            out,
            vec![
                int_row(&[1, 7, 1]),
                int_row(&[1, 8, 1]),
                int_row(&[1, 6, 1]),
                int_row(&[2, 9, 2])
            ]
        );
    }

    #[test]
    fn aggregation_on_two_group_columns() {
        let c = empty_catalog();
        let input: Vec<Row> = vec![
            int_row(&[2, 1, 10]),
            int_row(&[1, 9, 5]),
            int_row(&[2, 1, 30]),
            int_row(&[2, 0, 7]),
        ];
        let a = OpKind::HashAgg {
            group_cols: vec![0, 1],
            aggs: vec![Agg { func: AggFunc::Sum, expr: Expr::col(2) }],
        };
        let out = execute(&a, &[&input], &ctx(&c)).unwrap();
        assert_eq!(out, vec![int_row(&[1, 9, 5]), int_row(&[2, 0, 7]), int_row(&[2, 1, 40])]);
    }

    #[test]
    fn scans_filter_by_compiled_and_general_predicates_across_batches() {
        let n = 2 * BATCH as i64 + 5;
        let mut c = Catalog::new();
        c.register(PartitionedTable::replicated(
            "t",
            (0..n).map(|k| int_row(&[k, k % 7])).collect(),
            1,
        ));
        let scan = |filter: Expr| {
            let kind =
                OpKind::Scan { table: "t".into(), filter: Some(filter), project: Some(vec![0]) };
            execute(&kind, &[], &ctx(&c)).unwrap()
        };
        let want: Vec<Row> =
            (0..n).filter(|k| k % 7 == 3 && *k > 1000).map(|k| int_row(&[k])).collect();
        let compiled = Expr::col(1).eq(Expr::lit(3)).and(Expr::col(0).gt(Expr::lit(1000)));
        assert!(compiled.compile().is_some());
        assert_eq!(scan(compiled), want);
        let general = Expr::col(1).eq(Expr::lit(3)).and(Expr::lit(1000).lt(Expr::col(0)));
        assert!(general.compile().is_none());
        assert_eq!(scan(general), want);
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
