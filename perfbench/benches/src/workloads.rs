//! The four workloads: their set-up and one closed-loop operation each.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ftpde_cluster::config::{mtbf, ClusterConfig};
use ftpde_cluster::trace::TraceSet;
use ftpde_core::collapse::CollapsedPlan;
use ftpde_core::config::MatConfig;
use ftpde_core::dag::PlanDag;
use ftpde_core::prune::PruneOptions;
use ftpde_core::search::{find_best_ft_plan, SearchStats};
use ftpde_engine::prelude::{
    load_catalog, q1_engine_plan, q3_engine_plan, q5_engine_plan, run_query_resumable, Catalog,
    DiskBackend, EnginePlan, FailureInjector, MemBackend, RunOptions, RunReport, StoreBackend,
};
use ftpde_optimizer::enumerate::all_plans;
use ftpde_optimizer::physical::tree_to_plan;
use ftpde_sim::metrics::{run_all_schemes, suggested_horizon};
use ftpde_sim::scheme::Scheme;
use ftpde_sim::simulate::SimOptions;
use ftpde_tpch::costing::CostModel;
use ftpde_tpch::datagen::Database;
use ftpde_tpch::queries::{q5_agg_spec, q5_join_graph};

use crate::replay::{normalize, Results};
use crate::store::{Capture, TimingStore};
use crate::trace::{within, Tracer};
use crate::{Settings, Workload, NODES};

/// Counts and times one traced operation reports, by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpRecord {
    /// Deterministic counts.
    pub counts: BTreeMap<&'static str, f64>,
    /// Times not covered by a span, microseconds.
    pub times_us: BTreeMap<&'static str, f64>,
    /// Stage roots the coordinator executed rather than skipped, per query.
    pub executed: BTreeMap<&'static str, BTreeSet<u32>>,
}

impl OpRecord {
    fn count(&mut self, name: &'static str, v: impl Into<f64>) {
        *self.counts.entry(name).or_default() += v.into();
    }

    fn time_us(&mut self, name: &'static str, us: f64) {
        *self.times_us.entry(name).or_default() += us;
    }
}

/// A 64-bit mix of the workload seed and a stream position (SplitMix64).
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const DATA_STREAM: u64 = 1;
const INJECTOR_STREAM: u64 = 2;
const TRACE_STREAM: u64 = 3;

/// First-attempt kill probability per `(stage, node)` on `checkpoint-disk`.
pub const KILL_P: f64 = 0.5;
/// Failure traces per cluster on `ft-planning`.
pub const TRACES: usize = 10;

/// One engine query of a workload.
#[derive(Debug)]
pub struct EngineQuery {
    /// `Q1`, `Q3` or `Q5`.
    pub name: &'static str,
    /// The plan.
    pub plan: EnginePlan,
    /// The workload's materialization configuration.
    pub config: MatConfig,
    /// Collapsed stage roots: the injector's stage coordinates.
    pub roots: Vec<u32>,
    /// Failure-free in-memory result, normalized.
    pub reference: Results,
    /// Materialized store directory (`resume-disk`).
    pub resume_dir: Option<PathBuf>,
    /// Segments in `resume_dir`.
    pub resume_segments: u64,
}

/// Set-up state of an engine workload.
#[derive(Debug)]
pub struct EngineFixture {
    /// Which engine workload.
    pub workload: Workload,
    /// The sharded database.
    pub catalog: Catalog,
    /// Rows generated.
    pub tpch_rows: u64,
    /// Queries, run round-robin.
    pub queries: Vec<EngineQuery>,
    seed: u64,
}

impl Drop for EngineFixture {
    fn drop(&mut self) {
        for q in &self.queries {
            if let Some(dir) = &q.resume_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

/// Set-up state of `ft-planning`.
#[derive(Debug)]
pub struct PlanningFixture {
    /// Every Q5 join order as a costed plan.
    pub plans: Vec<PlanDag>,
    /// The three Figure 13 clusters.
    pub clusters: Vec<ClusterConfig>,
    /// What the first operation returned, per cluster: chosen plan,
    /// dominant cost bits and search counters.
    pub expected: std::cell::RefCell<Option<Vec<(usize, u64, SearchStats)>>>,
    seed: u64,
}

/// A workload's set-up state.
#[derive(Debug)]
pub enum Fixture {
    /// `olap-nomat`, `checkpoint-disk`, `resume-disk`.
    Engine(EngineFixture),
    /// `ft-planning`.
    Planning(PlanningFixture),
}

fn engine_queries(w: Workload) -> Vec<(&'static str, EnginePlan)> {
    match w {
        Workload::OlapNomat => {
            vec![("Q1", q1_engine_plan()), ("Q3", q3_engine_plan()), ("Q5", q5_engine_plan())]
        }
        _ => vec![("Q3", q3_engine_plan()), ("Q5", q5_engine_plan())],
    }
}

fn stage_roots(plan: &EnginePlan, config: &MatConfig) -> Vec<u32> {
    let collapsed = CollapsedPlan::collapse(&plan.to_plan_dag(), config, 1.0);
    collapsed.op_ids().map(|cid| collapsed.op(cid).root.0).collect()
}

fn check(report: &RunReport, reference: &Results) -> Result<(), String> {
    if report.aborted {
        return Err("query aborted".to_string());
    }
    if &normalize(report.results.clone()) != reference {
        return Err("result differs from the reference".to_string());
    }
    Ok(())
}

/// A fresh directory path under the system temp dir, unique
/// within the process.
pub fn fresh_temp_dir(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("perfbench-{}-{seq}-{name}", std::process::id()))
}

/// Bytes of every file directly inside `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.filter_map(Result::ok).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
        })
        .unwrap_or(0)
}

impl Fixture {
    /// Builds the workload's inputs from the seed.
    ///
    /// # Errors
    /// A reference run or the initial materialization failed.
    pub fn setup(s: &Settings, tr: Option<&Tracer>) -> Result<Fixture, String> {
        match s.workload {
            Workload::FtPlanning => Ok(Fixture::Planning(PlanningFixture::setup(s, tr))),
            w => EngineFixture::setup(s, w, tr).map(Fixture::Engine),
        }
    }

    /// Untimed operations before the timed loop.
    pub const WARMUP_OPS: u64 = 3;

    /// Runs operation `j`: the engine queries of
    /// [`EngineFixture::queries_per_op`], or one search and simulation per
    /// cluster. The traced form also fills `rec`.
    ///
    /// # Errors
    /// The operation's output was wrong, or a call returned an error.
    pub fn op(
        &self,
        j: u64,
        s: &Settings,
        traced: Option<(&Tracer, &Capture)>,
        rec: &mut OpRecord,
    ) -> Result<(), String> {
        match self {
            Fixture::Engine(f) => f.op(j, s, traced, rec),
            Fixture::Planning(f) => f.op(j, traced.map(|t| t.0), rec),
        }
    }
}

impl EngineFixture {
    fn setup(s: &Settings, workload: Workload, tr: Option<&Tracer>) -> Result<Self, String> {
        let db = within(tr, "tpch.generate", || {
            Database::generate(workload.sf(), derive_seed(s.seed, DATA_STREAM, 0))
        });
        let catalog = within(tr, "catalog.load", || load_catalog(&db, NODES));
        let tpch_rows = db.total_rows() as u64;
        drop(db);
        let mut queries = Vec::new();
        for (name, plan) in engine_queries(workload) {
            let dag = plan.to_plan_dag();
            let reference = within(tr, "engine.reference", || {
                run_query_resumable(
                    &plan,
                    &MatConfig::none(&dag),
                    &catalog,
                    &FailureInjector::none(),
                    &RunOptions::default(),
                    &MemBackend::new(),
                )
            });
            if reference.aborted {
                return Err(format!("{name}: reference run aborted"));
            }
            let reference = normalize(reference.results);
            let config = match workload {
                Workload::OlapNomat => MatConfig::none(&dag),
                _ => MatConfig::all(&dag),
            };
            let roots = stage_roots(&plan, &config);
            let mut q = EngineQuery {
                name,
                plan,
                config,
                roots,
                reference,
                resume_dir: None,
                resume_segments: 0,
            };
            if workload == Workload::ResumeDisk {
                let dir = fresh_temp_dir(&format!("resume-{name}"));
                let _ = std::fs::remove_dir_all(&dir);
                q.resume_dir = Some(dir.clone());
                within(tr, "engine.materialize", || -> Result<(), String> {
                    let store = DiskBackend::open(&dir).map_err(|e| e.to_string())?;
                    let r = run_query_resumable(
                        &q.plan,
                        &q.config,
                        &catalog,
                        &FailureInjector::none(),
                        &RunOptions::default(),
                        &store,
                    );
                    check(&r, &q.reference).map_err(|e| format!("{name} materialization: {e}"))
                })?;
                q.resume_segments =
                    ftpde_store::inspect(&dir).map_err(|e| format!("{name}: {e}"))?.segments.len()
                        as u64;
            }
            queries.push(q);
        }
        Ok(EngineFixture { workload, catalog, tpch_rows, queries, seed: s.seed })
    }

    /// Queries one operation runs. `olap-nomat` runs one, round-robin:
    /// with three queries the median lies inside the middle query's mode.
    /// The disk workloads run both of theirs, or the median would sit on
    /// the edge between two modes.
    pub fn queries_per_op(&self) -> usize {
        match self.workload {
            Workload::OlapNomat => 1,
            _ => self.queries.len(),
        }
    }

    fn op(
        &self,
        j: u64,
        s: &Settings,
        traced: Option<(&Tracer, &Capture)>,
        rec: &mut OpRecord,
    ) -> Result<(), String> {
        if self.queries_per_op() == 1 {
            let i = (j % self.queries.len() as u64) as usize;
            return self.run_query(&self.queries[i], j, s, traced, rec);
        }
        self.queries
            .iter()
            .enumerate()
            .try_for_each(|(i, q)| self.run_query(q, j * 8 + i as u64, s, traced, rec))
    }

    /// Runs one query; `k` seeds its failure injections.
    fn run_query(
        &self,
        q: &EngineQuery,
        k: u64,
        s: &Settings,
        traced: Option<(&Tracer, &Capture)>,
        rec: &mut OpRecord,
    ) -> Result<(), String> {
        let tr = traced.map(|t| t.0);
        let injector = match self.workload {
            Workload::CheckpointDisk => FailureInjector::random_first_attempts(
                &q.roots,
                NODES,
                KILL_P,
                derive_seed(self.seed, INJECTOR_STREAM, k),
            ),
            _ => FailureInjector::none(),
        };
        let (backend, disk_dir): (Box<dyn StoreBackend>, Option<PathBuf>) = match self.workload {
            Workload::OlapNomat => (Box::new(MemBackend::new()), None),
            Workload::CheckpointDisk => {
                let disk = DiskBackend::ephemeral().map_err(|e| format!("ephemeral store: {e}"))?;
                let dir = disk.dir().to_path_buf();
                (Box::new(disk), Some(dir))
            }
            _ => {
                let dir = q.resume_dir.as_ref().ok_or("resume directory missing")?;
                let disk = within(tr, "store.reopen", || DiskBackend::open(dir))
                    .map_err(|e| format!("reopen: {e}"))?;
                (Box::new(disk), None)
            }
        };
        let run = |store: &dyn StoreBackend| {
            within(tr, "engine.run_query", || {
                run_query_resumable(
                    &q.plan,
                    &q.config,
                    &self.catalog,
                    &injector,
                    &RunOptions::default(),
                    store,
                )
            })
        };
        let Some((tracer, capture)) = traced else {
            return check(&run(&*backend), &q.reference);
        };

        let before = backend.stats();
        let capture = (!capture.has(q.name)).then_some(capture);
        let store = TimingStore::new(&*backend, tracer, capture, q.name, NODES, s.put_delay);
        let report = run(&store);
        let after = backend.stats();
        rec.count("coord.node_retries", report.node_retries as f64);
        rec.count("coord.stages_skipped", report.stages_skipped as f64);
        rec.count("coord.rows_materialized", report.rows_materialized as f64);
        let executed: Vec<_> = report.stage_timings.iter().filter(|t| !t.skipped).collect();
        rec.count("coord.stages", executed.len() as f64);
        rec.executed.entry(q.name).or_default().extend(executed.iter().map(|t| t.stage));
        let stage_us: u64 = executed.iter().map(|t| t.wall_us).sum();
        rec.time_us("coord.stage_us", stage_us as f64);
        rec.time_us("store.in_stage_us", store.worker_get_critical_ns() as f64 / 1e3);
        rec.count("store.get.hits", store.get_hits() as f64);
        rec.count("store.fsyncs", (after.fsyncs - before.fsyncs) as f64);
        rec.count(
            "store.segments_committed",
            (after.segments_committed - before.segments_committed) as f64,
        );
        rec.count(
            "store.physical_bytes_written",
            (after.physical_bytes_written - before.physical_bytes_written) as f64,
        );
        rec.count(
            "store.logical_bytes_written",
            (after.logical_bytes_written - before.logical_bytes_written) as f64,
        );
        rec.count("store.bytes_read", (after.bytes_read - before.bytes_read) as f64);
        rec.time_us("store.write_us", (after.write_seconds - before.write_seconds) * 1e6);
        if let Some(dir) = disk_dir {
            rec.count("disk_bytes_per_op", dir_bytes(&dir) as f64);
        }
        if self.workload == Workload::ResumeDisk {
            rec.count("store.reopen.segments", q.resume_segments as f64);
        }
        drop(store);
        let result = check(&report, &q.reference);
        drop(backend);
        // The coordinator's own collapse call, timed from outside.
        tracer.span("core.collapse", || {
            CollapsedPlan::collapse(&q.plan.to_plan_dag(), &q.config, 1.0).len()
        });
        result
    }
}

impl PlanningFixture {
    fn setup(s: &Settings, tr: Option<&Tracer>) -> Self {
        let graph = q5_join_graph(Workload::FtPlanning.sf());
        let cm = CostModel::xdb_calibrated();
        let trees = within(tr, "optimizer.all_plans", || all_plans(&graph));
        let plans = within(tr, "optimizer.tree_to_plan", || {
            trees.iter().map(|t| tree_to_plan(&graph, t, &cm, Some(q5_agg_spec()))).collect()
        });
        let clusters =
            [mtbf::WEEK, mtbf::DAY, mtbf::HOUR].map(ClusterConfig::paper_cluster).to_vec();
        PlanningFixture { plans, clusters, expected: std::cell::RefCell::new(None), seed: s.seed }
    }

    fn op(&self, j: u64, tr: Option<&Tracer>, rec: &mut OpRecord) -> Result<(), String> {
        let opts = SimOptions::default();
        let mut got = Vec::with_capacity(self.clusters.len());
        for (k, cluster) in self.clusters.iter().enumerate() {
            let params = Scheme::cost_params(cluster);
            let (best, stats) = within(tr, "search.find_best_ft_plan", || {
                find_best_ft_plan(&self.plans, &params, &PruneOptions::default())
            })
            .map_err(|e| format!("search: {e}"))?;
            let plan = &self.plans[best.plan_index];
            let horizon = suggested_horizon(plan, cluster, &opts);
            let seed = derive_seed(self.seed, TRACE_STREAM, j * 8 + k as u64);
            let traces = within(tr, "cluster.trace_gen", || {
                TraceSet::generate(cluster, horizon, TRACES, seed)
            });
            let runs = within(tr, "sim.run_all_schemes", || {
                run_all_schemes(plan, cluster, &traces, &opts)
            })
            .map_err(|e| format!("simulation: {e}"))?;
            if runs.len() != Scheme::ALL.len() || runs.iter().any(|r| r.runs.len() != TRACES) {
                return Err("simulation returned the wrong number of runs".to_string());
            }
            got.push((best.plan_index, best.estimate.dominant_cost.to_bits(), stats));

            rec.count("search.configs_unpruned", stats.configs_unpruned as f64);
            rec.count("search.configs_explored", stats.configs_explored as f64);
            rec.count("search.configs_pruned_rule1", stats.configs_pruned_rule1 as f64);
            rec.count("search.configs_pruned_rule2", stats.configs_pruned_rule2 as f64);
            rec.count("search.rule3_stops", stats.rule3_stops() as f64);
            rec.count("search.memo_hits", stats.rule3_memo_stops as f64);
            rec.count("search.paths_costed", stats.paths_costed as f64);
            rec.count(
                "search.pruned",
                stats.configs_skipped() as f64 + 0.5 * stats.rule3_stops() as f64,
            );
            for r in runs.iter().flat_map(|s| &s.runs) {
                rec.count("sim.runs", 1.0);
                rec.count("sim.node_retries", r.node_retries as f64);
                rec.count("sim.restarts", r.restarts);
                rec.count("sim.aborted", u32::from(r.aborted));
            }
        }
        let mut expected = self.expected.borrow_mut();
        match &*expected {
            None => *expected = Some(got),
            Some(first) if *first == got => {}
            Some(_) => return Err("search result differs from the first operation".to_string()),
        }
        Ok(())
    }
}
