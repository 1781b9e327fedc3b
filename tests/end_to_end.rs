//! Cross-crate integration tests: the full pipeline from join-order
//! enumeration through the cost-based fault-tolerance search down to the
//! discrete-event simulator and the real execution engine.

use ftpde::cluster::prelude::*;
use ftpde::core::prelude::*;
use ftpde::optimizer::prelude::*;
use ftpde::sim::prelude::*;
use ftpde::tpch::prelude::*;

/// Optimizer → core → simulator: the plan chosen by `findBestFTPlan` over
/// the top-k join orders is at least as good in *simulation* as naive
/// extremes on the same traces.
#[test]
fn optimizer_core_sim_pipeline() {
    let cm = CostModel::xdb_calibrated();
    let graph = q5_join_graph(100.0);
    let trees = k_best_plans(&graph, 10);
    assert_eq!(trees.len(), 10);
    let plans: Vec<_> =
        trees.iter().map(|t| tree_to_plan(&graph, t, &cm, Some(q5_agg_spec()))).collect();

    let cluster = ClusterConfig::paper_cluster(mtbf::HOUR);
    let params = Scheme::cost_params(&cluster);
    let (best, stats) = find_best_ft_plan(&plans, &params, &PruneOptions::default()).unwrap();
    assert_eq!(stats.plans_considered, 10);

    // Simulate the chosen fault-tolerant plan against the extremes of the
    // *same* plan on the same traces.
    let opts = SimOptions::default();
    let horizon = suggested_horizon(&best.plan, &cluster, &opts);
    let traces = TraceSet::generate(&cluster, horizon, 10, 77);
    let mean = |config: &MatConfig| -> f64 {
        let runs: Vec<f64> = traces
            .iter()
            .map(|t| {
                simulate(&best.plan, config, Recovery::FineGrained, &cluster, t, &opts).completion
            })
            .collect();
        runs.iter().sum::<f64>() / runs.len() as f64
    };
    let chosen = mean(&best.config);
    let none = mean(&MatConfig::none(&best.plan));
    let all = mean(&MatConfig::all(&best.plan));
    assert!(chosen <= none * 1.10, "chosen {chosen:.0}s vs no-mat {none:.0}s");
    assert!(chosen <= all * 1.10, "chosen {chosen:.0}s vs all-mat {all:.0}s");
}

/// The cost model's estimate for the chosen plan is within the accuracy
/// band the paper reports (optimistic by at most ~30–40%, Figure 12a).
#[test]
fn estimate_tracks_simulation() {
    let cm = CostModel::xdb_calibrated();
    let plan = Query::Q5.plan(100.0, &cm);
    for (seed, m) in [(1u64, mtbf::WEEK), (2, mtbf::DAY), (3, mtbf::HOUR)] {
        let cluster = ClusterConfig::paper_cluster(m);
        let params = Scheme::cost_params(&cluster);
        let config = Scheme::CostBased.select_config(&plan, &cluster).unwrap();
        let estimated = estimate_ft_plan(&plan, &config, &params).dominant_cost;
        let opts = SimOptions::default();
        let horizon = suggested_horizon(&plan, &cluster, &opts);
        let traces = TraceSet::generate(&cluster, horizon, 10, seed);
        let actual: f64 = traces
            .iter()
            .map(|t| simulate(&plan, &config, Recovery::FineGrained, &cluster, t, &opts).completion)
            .sum::<f64>()
            / 10.0;
        let err = (actual - estimated) / actual;
        assert!(
            (-0.15..0.45).contains(&err),
            "MTBF {m}: estimated {estimated:.0}s vs actual {actual:.0}s (err {:.0}%)",
            err * 100.0
        );
    }
}

/// Every TPC-H evaluation query survives the full search with all pruning
/// rules and yields a plan no worse than the exhaustive optimum by more
/// than the pairwise-rule slack.
#[test]
fn all_queries_search_cleanly() {
    let cm = CostModel::xdb_calibrated();
    for q in Query::ALL {
        let plan = q.plan(10.0, &cm);
        for m in [mtbf::WEEK, mtbf::HOUR] {
            let cluster = ClusterConfig::paper_cluster(m);
            let params = Scheme::cost_params(&cluster);
            let (pruned, _) =
                find_best_ft_plan(std::slice::from_ref(&plan), &params, &PruneOptions::default())
                    .unwrap();
            let (exhaustive, _) =
                find_best_ft_plan(std::slice::from_ref(&plan), &params, &PruneOptions::none())
                    .unwrap();
            let (p, e) = (pruned.estimate.dominant_cost, exhaustive.estimate.dominant_cost);
            assert!(p >= e - 1e-9, "{q}: pruning cannot beat exhaustive");
            assert!(p <= e * 1.10, "{q} @ MTBF {m}: pruned {p:.1} vs exhaustive {e:.1}");
        }
    }
}

/// The search's counters on Q1, Q3 and Q5 at SF 100 under the paper's
/// 1-hour-MTBF cluster, with the default pruning rules and with none. They
/// are deterministic, so any change to the search or the pruning rules
/// that moves them must update this table.
#[test]
fn search_counters_match_the_recorded_values() {
    let cm = CostModel::xdb_calibrated();
    let params = Scheme::cost_params(&ClusterConfig::paper_cluster(mtbf::HOUR));
    // unpruned, explored, rule-1 pruned, rule-2 pruned, rule-3 stops,
    // memo hits, paths costed
    let cases = [
        (Query::Q1, "default", PruneOptions::default(), [1, 1, 0, 0, 0, 0, 1]),
        (Query::Q1, "none", PruneOptions::none(), [1, 1, 0, 0, 0, 0, 1]),
        (Query::Q3, "default", PruneOptions::default(), [4, 2, 2, 0, 0, 0, 2]),
        (Query::Q3, "none", PruneOptions::none(), [4, 4, 0, 0, 0, 0, 4]),
        (Query::Q5, "default", PruneOptions::default(), [32, 3, 16, 0, 13, 3, 13]),
        (Query::Q5, "none", PruneOptions::none(), [32, 32, 0, 0, 0, 0, 32]),
    ];
    for (query, rules, prune, expected) in cases {
        let plan = query.plan(100.0, &cm);
        let (_, s) = find_best_ft_plan(std::slice::from_ref(&plan), &params, &prune).unwrap();
        let counters = [
            s.configs_unpruned,
            s.configs_explored,
            s.configs_pruned_rule1,
            s.configs_pruned_rule2,
            s.rule3_stops(),
            s.rule3_memo_stops,
            s.paths_costed,
        ];
        assert_eq!(counters, expected, "{query} with {rules} pruning");
    }
}

/// The whole Figure 13 search: all 1344 Q5 join orders at SF 100 under the
/// default pruning rules, on each of the figure's three clusters. Unlike
/// the single-plan pins above, `bestT` carries across candidates here,
/// which is where most rule-3 stops happen: most are floor stops of whole
/// candidates, and debug builds check each against a full collapse. The
/// winner and every counter are deterministic, so a change that moves any
/// of them must update this table.
#[test]
fn full_q5_search_matches_the_recorded_values() {
    use ftpde::bench::fig13::{all_q5_plans, MTBFS, SF};

    let plans = all_q5_plans(SF);
    // (winning plan, dominant cost, materialized operators, explored,
    //  runtime / estimate / memo / floor stops, paths examined, paths
    //  costed, best updates)
    let recorded = [
        (924, 691.2436871359447, vec![], 14, [786, 0, 0, 15136], 846, 60, 14),
        (924, 691.2436871359447, vec![], 14, [786, 0, 0, 15136], 846, 60, 14),
        (584, 920.111542945175, vec![OpId(7)], 23, [621, 607, 461, 14224], 1860, 778, 23),
    ];
    for ((label, m), expected) in MTBFS.iter().zip(recorded) {
        let (plan_index, cost, materialized, explored, stops, examined, costed, updates) = expected;
        let params = Scheme::cost_params(&ClusterConfig::paper_cluster(*m));
        let (best, s) = find_best_ft_plan(&plans, &params, &PruneOptions::default()).unwrap();
        assert_eq!(best.plan_index, plan_index, "{label}");
        assert_eq!(best.estimate.dominant_cost.to_bits(), f64::to_bits(cost), "{label}");
        assert_eq!(best.config.materialized_ops(), materialized, "{label}");
        assert_eq!(
            s,
            SearchStats {
                plans_considered: 1344,
                configs_unpruned: 43008,
                configs_enumerated: 15936,
                configs_pruned_rule1: 27072,
                configs_pruned_rule2: 0,
                configs_explored: explored,
                rule1_bound_ops: 2096,
                rule2_bound_ops: 0,
                rule3_runtime_stops: stops[0],
                rule3_estimate_stops: stops[1],
                rule3_memo_stops: stops[2],
                rule3_floor_stops: stops[3],
                paths_examined: examined,
                paths_costed: costed,
                best_updates: updates,
            },
            "{label}"
        );
    }
}

/// The mid-plan aggregation of Q1C is selected as a checkpoint on
/// unreliable clusters — the paper's flagship qualitative claim (§5.2).
#[test]
fn q1c_mid_plan_aggregation_is_chosen_as_checkpoint() {
    let cm = CostModel::xdb_calibrated();
    let plan = Query::Q1C.plan(100.0, &cm);
    let baseline = baseline_runtime(&plan, 1.0);
    // Low MTBF: 1.1x the baseline runtime (the Figure 8a setting).
    let cluster = ClusterConfig::paper_cluster(1.1 * baseline);
    let config = Scheme::CostBased.select_config(&plan, &cluster).unwrap();
    let avg = plan.find_by_name("Γ avg").unwrap();
    assert!(config.materializes(avg), "the cheap mid-plan aggregate must be checkpointed");
    // The expensive join output is not worth its materialization cost.
    let join = plan.find_by_name("⋈ price > avg").unwrap();
    assert!(plan.op(join).mat_cost > 20.0 * plan.op(avg).mat_cost);
}

/// Engine ↔ core consistency: the engine executes exactly the collapsed
/// stages the cost model reasons about, for every materialization
/// configuration of Q3.
#[test]
fn engine_stage_structure_matches_collapsed_plan() {
    use ftpde::engine::prelude::*;
    let plan = q3_engine_plan();
    let dag = plan.to_plan_dag();
    let db = Database::generate(0.0005, 11);
    let catalog = load_catalog(&db, 3);

    let reference = run_query(
        &plan,
        &MatConfig::none(&dag),
        &catalog,
        &FailureInjector::none(),
        &RunOptions::default(),
    );

    for config in MatConfig::enumerate(&dag) {
        let pc = CollapsedPlan::collapse(&dag, &config, 1.0);
        // Kill the first attempt of every stage on node 1.
        let injector = FailureInjector::with(pc.iter().map(|(_, c)| Injection {
            stage: c.root.0,
            node: 1,
            attempt: 0,
        }));
        let report = run_query(&plan, &config, &catalog, &injector, &RunOptions::default());
        assert_eq!(report.results, reference.results, "config {:?}", config.materialized_ops());
        assert_eq!(
            report.node_retries,
            pc.len() as u64,
            "one retry per stage (config {:?})",
            config.materialized_ops()
        );
    }
}

/// Whole-stack smoke test of the four schemes' qualitative ordering at
/// the paper's Figure 11 setting.
#[test]
fn figure11_ordering_holds_end_to_end() {
    let cm = CostModel::xdb_calibrated();
    let plan = Query::Q5.plan(100.0, &cm);
    let cluster = ClusterConfig::paper_cluster(mtbf::HOUR);
    let opts = SimOptions::default();
    let horizon = suggested_horizon(&plan, &cluster, &opts);
    let traces = TraceSet::generate(&cluster, horizon, 10, 4242);
    let runs = run_all_schemes(&plan, &cluster, &traces, &opts).unwrap();
    let oh: Vec<f64> =
        runs.iter().map(|r| r.mean_overhead_pct().unwrap_or(f64::INFINITY)).collect();
    let (all_mat, lineage, restart, cost_based) = (oh[0], oh[1], oh[2], oh[3]);
    assert!(cost_based < restart, "cost-based beats restart");
    assert!(cost_based <= all_mat * 1.1, "cost-based ≤ all-mat");
    assert!(cost_based <= lineage * 1.1, "cost-based ≤ lineage");
    assert!(restart > lineage, "coarse restart is the worst fine vs coarse comparison");
}
