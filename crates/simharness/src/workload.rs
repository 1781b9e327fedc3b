//! Seed-derived workloads: what the harness runs, before anything fails.
//!
//! One `u64` seed deterministically fixes every knob of a run — the query
//! shape (a built-in TPC-H plan or a randomized operator DAG), the scale
//! factor, the node count, the cluster's MTBF (which parameterizes the
//! FT0xx cost-model lint), the materialization configuration, the
//! recovery scheme and the simulated repair time. The derivation draws
//! from a single [`StdRng`] stream in a documented order, so adding a
//! knob at the end never perturbs the ones before it.
//!
//! Everything here is re-derivable: a [`Workload`] serializes as plain
//! knobs (externally tagged enums — the wire format the workspace's
//! offline serde derive supports) and [`Workload::plan`] rebuilds the
//! same [`EnginePlan`] from them on any machine.

use ftpde_cluster::prelude::ClusterConfig;
use ftpde_core::prelude::{find_best_ft_plan, CostParams, MatConfig, PlanDag, PruneOptions};
use ftpde_engine::prelude::{
    q1_engine_plan, q3_engine_plan, q5_engine_plan, Agg, AggFunc, EngineOp, EnginePlan,
    EngineRecovery, Expr, OpKind, RunOptions,
};
use ftpde_sim::prelude::Scheme;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The scale factors the harness samples. Small enough that a full run
/// is milliseconds; large enough that every built-in query's selective
/// predicates usually keep some rows.
pub const SCALE_FACTORS: [f64; 3] = [0.0002, 0.0005, 0.001];

/// The per-node MTBF values (seconds) the harness samples: a pathological
/// cluster, the paper's default, and a reliable one.
pub const MTBFS: [u64; 3] = [600, 3600, 86_400];

/// Which query plan a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryKind {
    /// The built-in TPC-H Q1 engine plan.
    Q1,
    /// The built-in TPC-H Q3 engine plan.
    Q3,
    /// The built-in TPC-H Q5 engine plan.
    Q5,
    /// A randomized operator DAG over the TPC-H tables, rebuilt
    /// deterministically from its own seed (see [`random_plan`]).
    Random {
        /// Seed of the DAG generator.
        dag_seed: u64,
        /// Upper bound on the number of middle (filter/project) operators.
        budget: u32,
    },
}

/// How the materialization configuration is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfigKind {
    /// Materialize nothing.
    None,
    /// Materialize every free operator.
    All,
    /// The cost-based search's winner under the workload's cluster.
    Best,
    /// Random subset of the free operators, from a bit mask.
    Bits {
        /// Mask over the plan's free operators (bit i = i-th free op).
        bits: u64,
    },
}

/// Which engine recovery scheme the run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryKind {
    /// Fine-grained: re-execute only the killed node's sub-plan.
    Fine,
    /// Coarse: restart the whole query, clearing the store.
    Coarse,
}

/// Everything a run needs besides the fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// The query plan shape.
    pub query: QueryKind,
    /// TPC-H scale factor of the generated database.
    pub sf: f64,
    /// Worker node count.
    pub nodes: u32,
    /// Per-node MTBF in seconds (parameterizes the FT0xx lint).
    pub mtbf_s: u64,
    /// Materialization configuration selector.
    pub config: ConfigKind,
    /// Engine recovery scheme.
    pub recovery: RecoveryKind,
    /// Simulated repair time per recovery, in virtual milliseconds.
    pub repair_ms: u64,
}

impl Workload {
    /// Derives a workload from `rng`, consuming a fixed number of draws.
    /// The draw order is part of the harness's determinism contract:
    /// query, scale factor, nodes, MTBF, recovery, config, repair time.
    pub fn derive(rng: &mut StdRng) -> Workload {
        let query = match rng.gen_range(0u32..4) {
            0 => QueryKind::Q1,
            1 => QueryKind::Q3,
            2 => QueryKind::Q5,
            _ => QueryKind::Random { dag_seed: rng.gen::<u64>(), budget: rng.gen_range(1..=4) },
        };
        let sf = SCALE_FACTORS[rng.gen_range(0..SCALE_FACTORS.len())];
        let nodes = rng.gen_range(2u32..=4);
        let mtbf_s = MTBFS[rng.gen_range(0..MTBFS.len())];
        let recovery = if rng.gen_bool(0.75) { RecoveryKind::Fine } else { RecoveryKind::Coarse };
        let config = match rng.gen_range(0u32..4) {
            0 => ConfigKind::None,
            1 => ConfigKind::All,
            2 => ConfigKind::Best,
            _ => ConfigKind::Bits { bits: rng.gen::<u64>() },
        };
        let repair_ms = rng.gen_range(0u64..=5);
        Workload { query, sf, nodes, mtbf_s, config, recovery, repair_ms }
    }

    /// Rebuilds the workload's engine plan.
    pub fn plan(&self) -> EnginePlan {
        match self.query {
            QueryKind::Q1 => q1_engine_plan(),
            QueryKind::Q3 => q3_engine_plan(),
            QueryKind::Q5 => q5_engine_plan(),
            QueryKind::Random { dag_seed, budget } => random_plan(dag_seed, budget),
        }
    }

    /// The cluster the workload pretends to run on (MTTR fixed at the
    /// paper's 1 s — the harness varies repair time through
    /// [`Workload::repair_ms`] instead, in virtual milliseconds).
    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig::new(self.nodes as usize, self.mtbf_s as f64, 1.0)
    }

    /// Cost-model parameters for the FT0xx lint and the `Best` config.
    pub fn cost_params(&self) -> CostParams {
        Scheme::cost_params(&self.cluster())
    }

    /// Resolves the materialization configuration over `dag`.
    ///
    /// # Errors
    /// Propagates cost-model validation errors from the `Best` search.
    pub fn mat_config(&self, dag: &PlanDag) -> Result<MatConfig, String> {
        match self.config {
            ConfigKind::None => Ok(MatConfig::none(dag)),
            ConfigKind::All => Ok(MatConfig::all(dag)),
            ConfigKind::Best => {
                let (best, _) = find_best_ft_plan(
                    std::slice::from_ref(dag),
                    &self.cost_params(),
                    &PruneOptions::default(),
                )
                .map_err(|e| e.to_string())?;
                Ok(best.config)
            }
            ConfigKind::Bits { bits } => Ok(MatConfig::from_free_bits(dag, bits)),
        }
    }

    /// The engine run options this workload implies.
    pub fn run_options(&self) -> RunOptions<'static> {
        RunOptions {
            recovery: match self.recovery {
                RecoveryKind::Fine => EngineRecovery::FineGrained,
                RecoveryKind::Coarse => EngineRecovery::CoarseRestart,
            },
            repair_ms: self.repair_ms,
            ..RunOptions::default()
        }
    }

    /// One-line human rendering for reports.
    pub fn describe(&self) -> String {
        let query = match self.query {
            QueryKind::Q1 => "Q1".to_string(),
            QueryKind::Q3 => "Q3".to_string(),
            QueryKind::Q5 => "Q5".to_string(),
            QueryKind::Random { dag_seed, budget } => {
                format!("random dag (seed {dag_seed}, budget {budget})")
            }
        };
        let config = match self.config {
            ConfigKind::None => "none".to_string(),
            ConfigKind::All => "all".to_string(),
            ConfigKind::Best => "best".to_string(),
            ConfigKind::Bits { bits } => format!("bits {bits:#x}"),
        };
        let recovery = match self.recovery {
            RecoveryKind::Fine => "fine",
            RecoveryKind::Coarse => "coarse",
        };
        format!(
            "{query}, sf {}, {} nodes, mtbf {}s, config {config}, {recovery}, repair {}ms",
            self.sf, self.nodes, self.mtbf_s, self.repair_ms
        )
    }
}

/// Generates a randomized — but always structurally valid — engine plan
/// over the TPC-H tables, deterministically from `dag_seed`.
///
/// The shape is a chain rooted at a filtered `lineitem` scan, optionally
/// hash-joined with an `orders` scan (the tables are co-partitioned on
/// `orderkey`, so the join is node-local), followed by up to `budget`
/// random filter/project operators and a gathering sink (aggregation or
/// top-k). Column 0 always survives projections so group/sort keys exist
/// at the sink. Semantics don't need to be *interesting* — runs are
/// compared against a failure-free reference of the same plan — but the
/// plan must collapse into stages the same way on every rebuild.
pub fn random_plan(dag_seed: u64, budget: u32) -> EnginePlan {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(dag_seed);
    let mut p = EnginePlan::new();
    let cut = rng.gen_range(1200i64..=2400);
    let scan = p.add(
        "scan σ(lineitem)",
        OpKind::Scan {
            table: "lineitem".into(),
            filter: Some(Expr::col(7).le(Expr::lit(cut))), // shipdate
            project: Some(vec![0, 3, 5]),                  // [orderkey, price, quantity]
        },
        &[],
    );
    let mut cur = scan;
    let mut width = 3usize;
    if rng.gen_bool(0.5) {
        let orders = p.add(
            "scan orders",
            OpKind::Scan {
                table: "orders".into(),
                filter: None,
                project: Some(vec![0, 2]), // [orderkey, orderdate]
            },
            &[],
        );
        // Output row = build row ++ probe row, so col 0 stays orderkey.
        cur = p.add(
            "⋈ orderkey",
            OpKind::HashJoin { build_key: 0, probe_key: 0, residual: None },
            &[orders, cur],
        );
        width += 2;
    }
    let mids = rng.gen_range(1..=budget.max(1));
    for i in 0..mids {
        if rng.gen_bool(0.5) {
            let col = rng.gen_range(0..width);
            let cut = rng.gen_range(0i64..5000);
            cur = p.add(
                format!("σ #{i}"),
                OpKind::Filter { predicate: Expr::col(col).le(Expr::lit(cut)) },
                &[cur],
            );
        } else {
            let keep: Vec<usize> = (0..width).filter(|&c| c == 0 || rng.gen_bool(0.6)).collect();
            cur = p.add(
                format!("π #{i}"),
                OpKind::Project { exprs: keep.iter().map(|&c| Expr::col(c)).collect() },
                &[cur],
            );
            width = keep.len();
        }
    }
    if rng.gen_bool(0.5) {
        let agg_col = rng.gen_range(0..width);
        p.add(
            "Γ",
            OpKind::HashAgg {
                group_cols: vec![0],
                aggs: vec![
                    Agg { func: AggFunc::Sum, expr: Expr::col(agg_col) },
                    Agg { func: AggFunc::Count, expr: Expr::lit(1) },
                ],
            },
            &[cur],
        );
    } else {
        p.add(
            "topk",
            OpKind::TopK {
                sort_col: rng.gen_range(0..width),
                ascending: rng.gen_bool(0.5),
                k: rng.gen_range(1..=10),
            },
            &[cur],
        );
    }
    p.finish()
}

/// A compact structural fingerprint of a plan, used by tests to assert
/// rebuild determinism without comparing expression trees.
pub fn plan_shape(plan: &EnginePlan) -> Vec<(String, usize)> {
    plan.op_ids()
        .map(|id| {
            let op: &EngineOp = plan.op(id);
            (op.name.clone(), op.inputs.len())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn derivation_is_deterministic_per_seed() {
        for seed in 0..32u64 {
            let a = Workload::derive(&mut StdRng::seed_from_u64(seed));
            let b = Workload::derive(&mut StdRng::seed_from_u64(seed));
            assert_eq!(a, b);
            assert_eq!(plan_shape(&a.plan()), plan_shape(&b.plan()));
        }
    }

    #[test]
    fn derivation_covers_the_knob_space() {
        let mut kinds = [false; 4];
        let mut recoveries = [false; 2];
        let mut configs = [false; 4];
        for seed in 0..256u64 {
            let w = Workload::derive(&mut StdRng::seed_from_u64(seed));
            kinds[match w.query {
                QueryKind::Q1 => 0,
                QueryKind::Q3 => 1,
                QueryKind::Q5 => 2,
                QueryKind::Random { .. } => 3,
            }] = true;
            recoveries[matches!(w.recovery, RecoveryKind::Coarse) as usize] = true;
            configs[match w.config {
                ConfigKind::None => 0,
                ConfigKind::All => 1,
                ConfigKind::Best => 2,
                ConfigKind::Bits { .. } => 3,
            }] = true;
            assert!((2..=4).contains(&w.nodes));
            assert!(w.repair_ms <= 5);
            assert!(SCALE_FACTORS.contains(&w.sf));
            assert!(MTBFS.contains(&w.mtbf_s));
        }
        assert!(kinds.iter().all(|&k| k), "{kinds:?}");
        assert!(recoveries.iter().all(|&r| r), "{recoveries:?}");
        assert!(configs.iter().all(|&c| c), "{configs:?}");
    }

    #[test]
    fn random_plans_are_valid_and_varied() {
        let mut lens = std::collections::HashSet::new();
        for dag_seed in 0..64u64 {
            let plan = random_plan(dag_seed, 4);
            assert!(!plan.is_empty());
            assert_eq!(plan.sinks().len(), 1);
            // The mirror DAG builds (structural validity) and the sink
            // gathers (single coordinator-merged result).
            let dag = plan.to_plan_dag();
            assert_eq!(dag.len(), plan.len());
            assert!(plan.op(plan.sinks()[0]).kind.is_gather());
            lens.insert(plan.len());
        }
        assert!(lens.len() >= 3, "dag sizes too uniform: {lens:?}");
    }

    #[test]
    fn workload_round_trips_through_json() {
        for seed in [0u64, 7, 19] {
            let w = Workload::derive(&mut StdRng::seed_from_u64(seed));
            let text = serde_json::to_string(&w).unwrap();
            let back: Workload = serde_json::from_str(&text).unwrap();
            assert_eq!(w, back);
        }
    }

    #[test]
    fn mat_config_resolves_for_every_kind() {
        let plan = q3_engine_plan();
        let dag = plan.to_plan_dag();
        for config in
            [ConfigKind::None, ConfigKind::All, ConfigKind::Best, ConfigKind::Bits { bits: 0b1011 }]
        {
            let w = Workload {
                query: QueryKind::Q3,
                sf: 0.001,
                nodes: 3,
                mtbf_s: 3600,
                config,
                recovery: RecoveryKind::Fine,
                repair_ms: 0,
            };
            let mc = w.mat_config(&dag).expect("config resolves");
            assert!(mc.validate(&dag).is_ok());
        }
    }
}
