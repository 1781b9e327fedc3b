//! Replays run after the timed loop, through the program's public kernels:
//!
//! * the **kernel replay** runs a query per node in the coordinator's
//!   operator order with `ftpde_engine::ops::execute`, keeps in-stage
//!   inputs in memory and merges gather operators with `merge_partials`,
//!   timing every call;
//! * the **codec replay** encodes, checksums and decodes the row sets the
//!   store decorator captured, with `ftpde_store::codec`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use ftpde_core::collapse::CollapsedPlan;
use ftpde_core::config::MatConfig;
use ftpde_engine::prelude::{
    execute, merge_partials, Catalog, Distribution, EOpId, EnginePlan, ExecCtx, OpKind,
};
use ftpde_store::codec::{crc32, decode_rows, encode_rows};
use ftpde_store::Row;

use crate::store::Captured;
use crate::trace::{within, Tracer};

/// Query results keyed by sink operator id, rows sorted: two runs agree
/// iff their normalized results are equal, whatever the row order.
pub type Results = Vec<(u32, Vec<Row>)>;

/// Sorts every sink's rows into one total order.
pub fn normalize(results: Vec<(EOpId, Vec<Row>)>) -> Results {
    let mut out: Results = results
        .into_iter()
        .map(|(id, mut rows)| {
            rows.sort_by(|a, b| {
                a.iter()
                    .zip(b.iter())
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|o| !o.is_eq())
                    .unwrap_or_else(|| a.len().cmp(&b.len()))
            });
            (id.0, rows)
        })
        .collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

/// Work and time of one kernel kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindTotals {
    /// Summed call time over every node, nanoseconds.
    pub ns: u64,
    /// Input rows (table partition rows for a scan).
    pub rows_in: u64,
    /// Output rows.
    pub rows_out: u64,
}

/// One replay of one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelReplay {
    /// Totals per kind name.
    pub kinds: BTreeMap<&'static str, KindTotals>,
    /// Sum over the timed stages of the slowest node's kernel time,
    /// nanoseconds: the kernels' share of the stages' critical path.
    pub critical_ns: u64,
}

/// The kind's metric name and span name.
fn kind_names(kind: &OpKind) -> (&'static str, &'static str) {
    match kind {
        OpKind::Scan { .. } => ("scan", "ops.scan"),
        OpKind::Filter { .. } => ("filter", "ops.filter"),
        OpKind::Project { .. } => ("project", "ops.project"),
        OpKind::HashJoin { .. } => ("hash_join", "ops.hash_join"),
        OpKind::HashAgg { .. } => ("hash_agg", "ops.hash_agg"),
        OpKind::TopK { .. } => ("top_k", "ops.top_k"),
    }
}

/// Replays `plan` under `config` and checks its sink output against
/// `reference`. Only stages whose root is in `timed` count towards the
/// totals (the others still run, to produce their consumers' inputs).
///
/// # Errors
/// A kernel was interrupted, or the output differs from `reference`.
pub fn replay_query(
    plan: &EnginePlan,
    config: &MatConfig,
    catalog: &Catalog,
    reference: &Results,
    timed: &BTreeSet<u32>,
    tracer: Option<&Tracer>,
) -> Result<KernelReplay, String> {
    let dag = plan.to_plan_dag();
    let collapsed = CollapsedPlan::collapse(&dag, config, 1.0);
    let dists = plan.distributions(catalog);
    let nodes = catalog.nodes();
    let mut out = KernelReplay::default();
    // Cross-stage outputs per node, as the coordinator leaves them.
    let mut stored: HashMap<EOpId, Vec<Vec<Row>>> = HashMap::new();
    let mut results = Vec::new();
    let mut add = |kind: &'static str, ns: u64, rows_in: usize, rows_out: usize| {
        let t = out.kinds.entry(kind).or_default();
        t.ns += ns;
        t.rows_in += rows_in as u64;
        t.rows_out += rows_out as u64;
    };

    for cid in collapsed.op_ids() {
        let c = collapsed.op(cid);
        let root = EOpId(c.root.0);
        let members: Vec<EOpId> = c.members.iter().map(|m| EOpId(m.0)).collect();
        let timed_stage = timed.contains(&root.0);
        let mut partials: Vec<Vec<Row>> = Vec::with_capacity(nodes);
        let mut slowest_ns = 0u64;
        // `node` also picks the catalog partition and the execution context.
        #[allow(clippy::needless_range_loop)]
        for node in 0..nodes {
            let ctx = ExecCtx { catalog, node, interrupted: &|| false };
            let mut memo: HashMap<EOpId, Vec<Row>> = HashMap::new();
            let mut node_ns = 0u64;
            for &m in &members {
                let op = plan.op(m);
                let inputs: Vec<&[Row]> = op
                    .inputs
                    .iter()
                    .map(|p| match memo.get(p) {
                        Some(rows) => rows.as_slice(),
                        None => stored[p][node].as_slice(),
                    })
                    .collect();
                let (kind, span) = kind_names(&op.kind);
                let rows_in = match &op.kind {
                    OpKind::Scan { table, .. } => catalog.table(table).partition(node).len(),
                    _ => inputs.iter().map(|i| i.len()).sum(),
                };
                let start = Instant::now();
                let rows = within(tracer, span, || execute(&op.kind, &inputs, &ctx))
                    .map_err(|_| format!("replay: {kind} on node {node} was interrupted"))?;
                let ns = start.elapsed().as_nanos() as u64;
                if timed_stage {
                    add(kind, ns, rows_in, rows.len());
                    node_ns += ns;
                }
                memo.insert(m, rows);
            }
            slowest_ns = slowest_ns.max(node_ns);
            partials.push(memo.remove(&root).ok_or("replay: stage root did not run")?);
        }
        out.critical_ns += slowest_ns;

        let root_op = plan.op(root);
        let is_sink = plan.consumers(root).is_empty();
        let output = if root_op.kind.is_gather() {
            let global = match dists[root_op.inputs[0].index()] {
                Distribution::Replicated => partials.swap_remove(0),
                Distribution::Partitioned => {
                    let ctx = ExecCtx { catalog, node: 0, interrupted: &|| false };
                    let rows_in = partials.iter().map(Vec::len).sum();
                    let start = Instant::now();
                    let merged = within(tracer, "ops.merge", || match &root_op.kind {
                        OpKind::HashAgg { group_cols, aggs } => {
                            merge_partials(&partials, group_cols, aggs, &ctx)
                        }
                        OpKind::TopK { sort_col, ascending, k } => {
                            let all: Vec<Row> = partials.concat();
                            ftpde_engine::ops::top_k(&all, *sort_col, *ascending, *k, &ctx)
                        }
                        _ => unreachable!("is_gather covers exactly these kinds"),
                    })
                    .map_err(|_| "replay: merge was interrupted".to_string())?;
                    if timed_stage {
                        add("merge", start.elapsed().as_nanos() as u64, rows_in, merged.len());
                    }
                    merged
                }
            };
            vec![global; nodes]
        } else {
            partials
        };
        if is_sink {
            let rows = match dists[root.index()] {
                Distribution::Replicated => output.into_iter().next().unwrap_or_default(),
                Distribution::Partitioned => output.concat(),
            };
            results.push((root, rows));
        } else {
            stored.insert(root, output);
        }
    }
    if &normalize(results) != reference {
        return Err("replay: sink output differs from the reference result".to_string());
    }
    Ok(out)
}

/// Codec work over a list of row sets.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CodecReplay {
    /// Encoded payload bytes.
    pub bytes: u64,
    /// `encode_rows` time, nanoseconds.
    pub encode_ns: u64,
    /// `crc32` time over the encoded bytes, nanoseconds.
    pub crc_ns: u64,
    /// `decode_rows` time, nanoseconds.
    pub decode_ns: u64,
}

/// Encodes, checksums and decodes every set once, checking the round
/// trip.
///
/// # Errors
/// A set does not decode back to itself.
pub fn replay_codec<'a>(
    sets: impl IntoIterator<Item = &'a Captured>,
    tracer: Option<&Tracer>,
) -> Result<CodecReplay, String> {
    let mut out = CodecReplay::default();
    for set in sets {
        let t = Instant::now();
        let bytes = within(tracer, "codec.encode", || encode_rows(&set.rows));
        let t_crc = Instant::now();
        let crc = within(tracer, "codec.crc", || crc32(&bytes));
        let t_dec = Instant::now();
        let rows = within(tracer, "codec.decode", || decode_rows(&bytes));
        let t_end = Instant::now();
        std::hint::black_box(crc);
        if rows.as_deref() != Ok(set.rows.as_slice()) {
            return Err(format!("codec replay: {} op {} does not round-trip", set.query, set.op));
        }
        out.bytes += bytes.len() as u64;
        out.encode_ns += (t_crc - t).as_nanos() as u64;
        out.crc_ns += (t_dec - t_crc).as_nanos() as u64;
        out.decode_ns += (t_end - t_dec).as_nanos() as u64;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpde_engine::prelude::{
        load_catalog, q3_engine_plan, q5_engine_plan, run_query, FailureInjector, RunOptions,
    };
    use ftpde_store::int_row;
    use ftpde_tpch::datagen::Database;
    use std::sync::Arc;

    #[test]
    fn replay_reproduces_the_engine_result_under_both_configs() {
        let catalog = load_catalog(&Database::generate(0.002, 3), 2);
        for plan in [q3_engine_plan(), q5_engine_plan()] {
            let dag = plan.to_plan_dag();
            let reference = normalize(
                run_query(
                    &plan,
                    &MatConfig::none(&dag),
                    &catalog,
                    &FailureInjector::none(),
                    &RunOptions::default(),
                )
                .results,
            );
            for config in [MatConfig::none(&dag), MatConfig::all(&dag)] {
                let roots: BTreeSet<u32> = CollapsedPlan::collapse(&dag, &config, 1.0)
                    .iter()
                    .map(|(_, c)| c.root.0)
                    .collect();
                let r = replay_query(&plan, &config, &catalog, &reference, &roots, None)
                    .expect("replay matches");
                assert!(r.kinds["scan"].rows_in > 0 && r.kinds["hash_join"].rows_out > 0);
                assert!(r.critical_ns > 0);
            }
            let wrong = vec![(u32::MAX, Vec::new())];
            let all = BTreeSet::new();
            assert!(
                replay_query(&plan, &MatConfig::none(&dag), &catalog, &wrong, &all, None).is_err()
            );
        }
    }

    #[test]
    fn codec_replay_counts_encoded_bytes() {
        let set = Captured {
            query: "Q",
            op: 1,
            node: Some(0),
            rows: Arc::new(vec![int_row(&[1, 2]), int_row(&[3, 4])]),
        };
        let r = replay_codec([&set], None).expect("round trip");
        assert_eq!(r.bytes, 2 * (4 + 2 * 9));
    }
}
