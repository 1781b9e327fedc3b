//! The `findBestFTPlan` procedure (paper §3.1, Listing 1) with the pruning
//! rules of §4 wired in.
//!
//! The search takes a set of candidate execution plans (in a full system,
//! the top-k plans produced by the cost-based join enumerator — see the
//! `ftpde-optimizer` crate) and, for each, enumerates materialization
//! configurations, estimating the dominant-path runtime under mid-query
//! failures for every fault-tolerant plan `[P, M_P]`. It returns the
//! fault-tolerant plan with the shortest dominant path, plus counters that
//! quantify how much work each pruning rule saved (the raw data behind the
//! paper's Figure 13).

use std::ops::ControlFlow;

use ftpde_obs::{Event, NoopRecorder, Recorder};
use serde::{Deserialize, Serialize};

use crate::collapse::{CId, CollapsedPlan, Collapser};
use crate::config::MatConfig;
use crate::cost::{path_cost, path_runtime, CostParams, FtEstimate};
use crate::dag::PlanDag;
use crate::error::{CoreError, Result};
use crate::operator::Binding;
use crate::paths::for_each_path;
use crate::prune::{apply_rule1, apply_rule2, PathMemo, PruneOptions};

/// The best fault-tolerant plan `[P, M_P]` found by the search.
#[derive(Debug, Clone)]
pub struct BestFtPlan {
    /// Index of the winning plan in the candidate slice.
    pub plan_index: usize,
    /// The winning plan with post-pruning operator bindings.
    pub plan: PlanDag,
    /// The winning materialization configuration.
    pub config: MatConfig,
    /// Collapsed plan, dominant path and estimated runtime of the winner.
    pub estimate: FtEstimate,
}

/// Work counters collected during the search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Candidate plans examined.
    pub plans_considered: u64,
    /// `Σ 2^n` over candidates with `n` = free operators *before* rules
    /// 1/2 — the unpruned size of the configuration space.
    pub configs_unpruned: u64,
    /// Configurations left after rules 1/2 shrank the free sets, whether
    /// explored or abandoned by rule 3 (including the ones a runtime floor
    /// stop abandons without a scan).
    pub configs_enumerated: u64,
    /// Configurations eliminated by rule 1: for a plan with `n` free
    /// operators of which rule 1 binds `b1`, the `2^n - 2^(n-b1)`
    /// configurations that would have materialized a rule-1-bound operator.
    pub configs_pruned_rule1: u64,
    /// Configurations eliminated by rule 2 *after* rule 1 shrank the space:
    /// `2^(n-b1) - 2^(n-b1-b2)` per plan.
    pub configs_pruned_rule2: u64,
    /// Configurations whose every execution path was enumerated and costed
    /// to completion (i.e. not abandoned by rule 3).
    pub configs_explored: u64,
    /// Free operators bound by rule 1, summed over candidate plans.
    pub rule1_bound_ops: u64,
    /// Free operators bound by rule 2, summed over candidate plans.
    pub rule2_bound_ops: u64,
    /// Fault-tolerant plans abandoned mid-path-enumeration because a path's
    /// failure-free runtime already reached `bestT` (rule 3, condition 1).
    pub rule3_runtime_stops: u64,
    /// Fault-tolerant plans abandoned because a path's estimated runtime
    /// reached `bestT` (rule 3, condition 2).
    pub rule3_estimate_stops: u64,
    /// Fault-tolerant plans abandoned by the memoized dominant-path
    /// dominance check (Eq. 9).
    pub rule3_memo_stops: u64,
    /// Fault-tolerant plans abandoned, with every other configuration of
    /// their candidate, because the candidate's runtime floor (a lower
    /// bound on the largest `R_Pt` of each of its configurations) already
    /// reached `bestT`: rule 3, condition 1, for a whole candidate. None
    /// of their paths is examined.
    pub rule3_floor_stops: u64,
    /// Execution paths visited across all fault-tolerant plans. A first
    /// path that rule 3's runtime check stops before the plan is collapsed
    /// still counts as examined.
    pub paths_examined: u64,
    /// Execution paths whose `T_Pt` was actually evaluated (rule 3's
    /// condition 1 and the memo check skip the cost function entirely).
    pub paths_costed: u64,
    /// How often the incumbent best plan was replaced.
    pub best_updates: u64,
}

impl SearchStats {
    /// Fault-tolerant plans abandoned early by any rule-3 variant.
    pub fn rule3_stops(&self) -> u64 {
        self.rule3_runtime_stops
            + self.rule3_estimate_stops
            + self.rule3_memo_stops
            + self.rule3_floor_stops
    }

    /// Configurations eliminated outright by rules 1/2 (never enumerated).
    pub fn configs_skipped(&self) -> u64 {
        self.configs_unpruned - self.configs_enumerated
    }

    /// The pruning-accounting partition: every configuration in the
    /// unpruned space is either explored to completion, eliminated by
    /// rule 1 or rule 2 before enumeration, or abandoned by a rule-3 stop.
    pub fn partition_holds(&self) -> bool {
        self.configs_explored
            + self.configs_pruned_rule1
            + self.configs_pruned_rule2
            + self.rule3_stops()
            == self.configs_unpruned
    }
}

/// Checks [`SearchStats::partition_holds`] and, on violation, mirrors a
/// `partition_violation` instant (category `"search"`) carrying every
/// counter of the partition into `rec`. Returns whether the invariant
/// holds. [`find_best_ft_plan_traced`] calls this after every search so a
/// counter regression shows up in traces instead of silently corrupting
/// the Figure 13 accounting.
pub fn record_partition_check(stats: &SearchStats, rec: &dyn Recorder, ts_us: u64) -> bool {
    let holds = stats.partition_holds();
    if !holds {
        rec.record_with(|| {
            Event::instant("partition_violation", "search", ts_us)
                .arg("configs_unpruned", stats.configs_unpruned)
                .arg("configs_explored", stats.configs_explored)
                .arg("configs_pruned_rule1", stats.configs_pruned_rule1)
                .arg("configs_pruned_rule2", stats.configs_pruned_rule2)
                .arg("rule3_stops", stats.rule3_stops())
        });
    }
    holds
}

/// Outcome of evaluating one fault-tolerant plan `[P, M_P]`.
enum ConfigOutcome {
    /// All paths enumerated; the dominant path and its cost.
    Complete { dominant: Vec<CId>, dominant_cost: f64, dominant_runtime: f64 },
    /// Abandoned early by rule 3 (cannot beat `bestT`).
    Abandoned,
}

/// Evaluates one configuration against the incumbent `bestT`, applying
/// rule 3 if enabled. Updates path counters in `stats`.
fn evaluate_config(
    collapsed: &CollapsedPlan,
    params: &CostParams,
    opts: &PruneOptions,
    best_t: f64,
    memo: &mut PathMemo,
    stats: &mut SearchStats,
) -> ConfigOutcome {
    enum Stop {
        Runtime,
        Estimate,
        Memo,
    }

    let mut dominant: Vec<CId> = Vec::new();
    let mut dominant_cost = f64::NEG_INFINITY;
    let mut dominant_runtime = 0.0;
    let mut sorted_scratch: Vec<f64> = Vec::new();

    let stop = for_each_path::<Stop>(collapsed, |path| {
        stats.paths_examined += 1;
        // Rule 3, condition 1: R_Pt >= bestT needs no cost-function call.
        if opts.rule3 {
            let r = path_runtime(collapsed, path);
            if r >= best_t {
                return ControlFlow::Break(Stop::Runtime);
            }
        }
        // Eq. 9 memo check: still no cost-function call.
        if opts.rule3_memo {
            sorted_scratch.clear();
            sorted_scratch.extend(path.iter().map(|&c| collapsed.op(c).total_cost()));
            sorted_scratch.sort_by(|a, b| b.total_cmp(a));
            if memo.dominates(&sorted_scratch) {
                return ControlFlow::Break(Stop::Memo);
            }
        }
        stats.paths_costed += 1;
        let t = path_cost(collapsed, path, params);
        if t > dominant_cost {
            dominant_cost = t;
            dominant_runtime = path_runtime(collapsed, path);
            dominant = path.to_vec();
        }
        // Rule 3, condition 2.
        if opts.rule3 && t >= best_t {
            return ControlFlow::Break(Stop::Estimate);
        }
        ControlFlow::Continue(())
    });

    match stop {
        Some(Stop::Runtime) => {
            stats.rule3_runtime_stops += 1;
            ConfigOutcome::Abandoned
        }
        Some(Stop::Estimate) => {
            stats.rule3_estimate_stops += 1;
            ConfigOutcome::Abandoned
        }
        Some(Stop::Memo) => {
            stats.rule3_memo_stops += 1;
            ConfigOutcome::Abandoned
        }
        None => ConfigOutcome::Complete { dominant, dominant_cost, dominant_runtime },
    }
}

/// Relative margin [`runtime_floor`] takes off the floor it computes.
///
/// The floor and [`path_runtime`] add the same terms in different
/// groupings, so a computed floor can lie a few ulps above the computed
/// `R_Pt` it bounds. Both are trees of additions and products of
/// non-negative terms, at most about `3·len` deep, so each is within a
/// relative `3·len·2^-53` of its exact value: 1e-9 covers plans of up to
/// about a million operators.
const FLOOR_MARGIN: f64 = 1e-9;

/// A lower bound on the largest failure-free path runtime `R_Pt` of every
/// configuration of `plan`, shrunk by [`FLOOR_MARGIN`]; `dp` is scratch
/// space. It is the longest source→sink path of `plan` under the weights
/// `s(o) = pipe_const·tr(o)`, plus `tm(o)` when `o` is always
/// materialized, found by one forward pass in
/// [`OpId`](crate::operator::OpId) order.
///
/// Why it is a floor. Take any configuration and any path `π` of `plan`,
/// and cut `π` after each collapse root on it; the sink ending `π` is
/// one.
/// - A segment's other operators are not roots, so each reaches the
///   segment's root through non-materialized outputs and lies in its
///   group. The root's Eq. 1 dominant-path runtime is therefore at least
///   the segment's `Σ tr`, and its `tr(c)` at least `pipe_const` times
///   that: `pipe_const ≤ 1`, and a singleton is not scaled.
/// - An always-materialized operator on `π` is a materializing root, so
///   its `tm` is in its root's `t(c)`.
/// - The roots' collapsed operators form a collapsed path that ends at a
///   sink. Extending it back to a source adds only `t(c) ≥ 0`.
///
/// So every configuration has an execution path with `R_Pt ≥ Σ_π s(o)`.
/// Once the floor reaches `bestT`, rule 3's condition 1 abandons every
/// configuration of the candidate. Rules 1 and 2 only bind free operators
/// non-materializable, so the floor is the same before and after them.
///
/// Returns `+∞` when the sums overflow; the caller lets a non-finite
/// floor skip nothing.
pub(crate) fn runtime_floor(plan: &PlanDag, pipe_const: f64, dp: &mut Vec<f64>) -> f64 {
    dp.clear();
    let mut floor = 0.0f64;
    for (v, op) in plan.iter() {
        let longest_in = plan.inputs(v).iter().map(|u| dp[u.index()]).fold(0.0, f64::max);
        let mat = if op.binding == Binding::AlwaysMaterialized { op.mat_cost } else { 0.0 };
        dp.push(longest_in + (pipe_const * op.run_cost + mat));
        if plan.consumers(v).is_empty() {
            floor = floor.max(dp[v.index()]);
        }
    }
    floor * (1.0 - FLOOR_MARGIN)
}

/// Finds the best fault-tolerant plan over `candidates` (Listing 1).
///
/// For each candidate plan the rules 1/2 of `opts` first shrink the free
/// operator set, then all remaining materialization configurations are
/// enumerated and costed; rule 3 abandons configurations (and memoizes
/// dominant paths) across *all* candidates, as suggested at the end of
/// §4.3. A candidate whose runtime floor already reaches `bestT` has all
/// its configurations abandoned at once. Returns the winner and the search
/// statistics.
///
/// # Errors
/// [`CoreError::NoCandidatePlans`] if `candidates` is empty;
/// [`CoreError::TooManyFreeOperators`] if a candidate has 64 or more free
/// operators; [`CoreError::ConfigCountOverflow`] if the candidates have
/// more than `u64::MAX` configurations in all, before pruning;
/// [`CoreError::NoFiniteEstimate`] if every configuration has
/// a path costed at +∞ (overflow, or attempts that diverge); parameter
/// validation errors from [`CostParams::validate`].
pub fn find_best_ft_plan(
    candidates: &[PlanDag],
    params: &CostParams,
    opts: &PruneOptions,
) -> Result<(BestFtPlan, SearchStats)> {
    find_best_ft_plan_traced(candidates, params, opts, &NoopRecorder)
}

/// [`find_best_ft_plan`] with search events mirrored into `rec` under
/// category `"search"` (wall-clock microseconds from the call's start):
/// one `plan` instant per candidate (free-operator count, per-rule
/// bindings and whether its runtime floor stopped it), one `best_update`
/// instant per incumbent replacement, and a closing `find_best_ft_plan`
/// span carrying the final [`SearchStats`] counters. With a
/// [`NoopRecorder`] the instrumentation costs one branch per site.
///
/// # Errors
/// Same as [`find_best_ft_plan`].
pub fn find_best_ft_plan_traced(
    candidates: &[PlanDag],
    params: &CostParams,
    opts: &PruneOptions,
    rec: &dyn Recorder,
) -> Result<(BestFtPlan, SearchStats)> {
    params.validate()?;
    if candidates.is_empty() {
        return Err(CoreError::NoCandidatePlans);
    }
    // `2^n` configurations must fit the u64 masks, and their sum over all
    // candidates the u64 counters.
    if let Some((plan_index, c)) = candidates.iter().enumerate().find(|(_, c)| c.free_count() >= 64)
    {
        return Err(CoreError::TooManyFreeOperators { plan_index, free_ops: c.free_count() });
    }
    candidates.iter().enumerate().try_fold(0u64, |total, (plan_index, c)| {
        total.checked_add(1 << c.free_count()).ok_or(CoreError::ConfigCountOverflow { plan_index })
    })?;

    let t0 = crate::sync::clock::now();
    let now_us = || crate::sync::clock::elapsed(t0).as_micros() as u64;

    let mut stats = SearchStats::default();
    let mut memo = PathMemo::new();
    let mut best: Option<BestFtPlan> = None;
    let mut best_t = f64::INFINITY;

    // Candidates stay as they are: rules 1 and 2 mark the operators they
    // bind in `bound`, which `config` reads. Refilled for every candidate
    // and configuration; cloned only on a best update.
    let mut bound = Vec::new();
    let mut config = MatConfig::none(&candidates[0]);
    let mut collapser = Collapser::default();
    let mut collapsed = CollapsedPlan::empty();
    let mut floor_dp = Vec::new();

    for (plan_index, candidate) in candidates.iter().enumerate() {
        stats.plans_considered += 1;
        let free_ops = candidate.free_count() as u64;
        stats.configs_unpruned += 1u64 << free_ops;

        bound.clear();
        bound.resize(candidate.len(), false);
        let rule1_bound = if opts.rule1 { apply_rule1(candidate, params, &mut bound) } else { 0 };
        let rule2_bound = if opts.rule2 { apply_rule2(candidate, params, &mut bound) } else { 0 };
        let (rule1_bound, rule2_bound) = (rule1_bound as u64, rule2_bound as u64);
        stats.rule1_bound_ops += rule1_bound;
        stats.rule2_bound_ops += rule2_bound;
        // Each bound operator halves the remaining space; attribute the
        // eliminated configurations to the rule that bound it.
        stats.configs_pruned_rule1 += (1u64 << free_ops) - (1u64 << (free_ops - rule1_bound));
        stats.configs_pruned_rule2 +=
            (1u64 << (free_ops - rule1_bound)) - (1u64 << (free_ops - rule1_bound - rule2_bound));
        let configs = 1u64 << (free_ops - rule1_bound - rule2_bound);

        // Rule 3, condition 1, for the whole candidate: when its runtime
        // floor reaches `bestT`, every configuration has a path that rule
        // 3 stops on, so none is scanned.
        let floor_stop = opts.rule3 && {
            let floor = runtime_floor(candidate, params.pipe_const, &mut floor_dp);
            floor.is_finite() && floor >= best_t
        };

        rec.record_with(|| {
            Event::instant("plan", "search", now_us())
                .arg("plan_index", plan_index)
                .arg("free_ops", free_ops)
                .arg("rule1_bound", rule1_bound)
                .arg("rule2_bound", rule2_bound)
                .arg("floor_stop", floor_stop)
        });

        if floor_stop {
            stats.configs_enumerated += configs;
            stats.rule3_floor_stops += configs;
            // Release builds scan none of them; debug builds collapse each
            // one and check that a path of it reaches `bestT`.
            if cfg!(debug_assertions) {
                for mask in 0..configs {
                    config.set_free_bits(candidate, &bound, mask);
                    collapser.scan(candidate, &config);
                    collapser.collapse_into(candidate, &config, params.pipe_const, &mut collapsed);
                    let reached = for_each_path(&collapsed, |p| {
                        if path_runtime(&collapsed, p) >= best_t {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    });
                    debug_assert!(reached.is_some(), "floor stop on a configuration rule 3 keeps");
                }
            }
            continue;
        }

        for mask in 0..configs {
            stats.configs_enumerated += 1;
            config.set_free_bits(candidate, &bound, mask);
            collapser.scan(candidate, &config);
            // Rule 3, condition 1, on the first path alone, before the plan
            // is collapsed: most configurations stop here.
            let first_runtime = collapser.first_path_runtime(candidate, &config, params.pipe_const);
            let first_path_stop = opts.rule3 && first_runtime.is_some_and(|r| r >= best_t);
            // Release builds collapse only the configurations that get
            // past that check; debug builds collapse every one and check
            // the precheck against the full collapse's first path.
            if !first_path_stop || cfg!(debug_assertions) {
                collapser.collapse_into(candidate, &config, params.pipe_const, &mut collapsed);
                debug_assert_eq!(
                    for_each_path(&collapsed, |p| ControlFlow::Break(
                        path_runtime(&collapsed, p).to_bits()
                    )),
                    first_runtime.map(f64::to_bits),
                    "rule-3 precheck disagrees with the first path"
                );
            }
            if first_path_stop {
                // What `evaluate_config` counts for a first-path runtime stop.
                stats.paths_examined += 1;
                stats.rule3_runtime_stops += 1;
                continue;
            }
            match evaluate_config(&collapsed, params, opts, best_t, &mut memo, &mut stats) {
                ConfigOutcome::Abandoned => {}
                ConfigOutcome::Complete { dominant, dominant_cost, dominant_runtime } => {
                    stats.configs_explored += 1;
                    if opts.rule3_memo {
                        let costs: Vec<f64> =
                            dominant.iter().map(|&c| collapsed.op(c).total_cost()).collect();
                        memo.record(&costs, dominant_cost);
                    }
                    if dominant_cost < best_t {
                        best_t = dominant_cost;
                        stats.best_updates += 1;
                        rec.record_with(|| {
                            Event::instant("best_update", "search", now_us())
                                .arg("plan_index", plan_index)
                                .arg("cost", dominant_cost)
                                .arg("materialized", config.materialized_count())
                        });
                        let paths_examined = stats.paths_examined;
                        let mut plan = candidate.clone();
                        for o in candidate.op_ids().filter(|o| bound[o.index()]) {
                            plan.set_binding(o, Binding::NonMaterializable);
                        }
                        best = Some(BestFtPlan {
                            plan_index,
                            plan,
                            config: config.clone(),
                            estimate: FtEstimate {
                                collapsed: collapsed.clone(),
                                dominant_path: dominant,
                                dominant_cost,
                                dominant_runtime,
                                paths_examined,
                            },
                        });
                    }
                }
            }
        }
    }

    if !record_partition_check(&stats, rec, now_us()) {
        debug_assert!(false, "pruning-counter partition invariant broke: {stats:?}");
    }
    debug_assert!(stats.paths_costed <= stats.paths_examined, "path counters broke: {stats:?}");

    rec.record_with(|| {
        Event::span("find_best_ft_plan", "search", 0, now_us())
            .arg("plans", stats.plans_considered)
            .arg("configs_unpruned", stats.configs_unpruned)
            .arg("configs_explored", stats.configs_explored)
            .arg("configs_pruned_rule1", stats.configs_pruned_rule1)
            .arg("configs_pruned_rule2", stats.configs_pruned_rule2)
            .arg("rule3_stops", stats.rule3_stops())
            .arg("memo_hits", stats.rule3_memo_stops)
            .arg("floor_stops", stats.rule3_floor_stops)
            .arg("paths_examined", stats.paths_examined)
            .arg("paths_costed", stats.paths_costed)
            .arg("best_updates", stats.best_updates)
    });

    best.map(|best| (best, stats)).ok_or(CoreError::NoFiniteEstimate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::estimate_ft_plan;
    use crate::dag::figure2_plan;

    fn params(mtbf: f64) -> CostParams {
        CostParams::new(mtbf, 1.0)
    }

    /// Exhaustive reference: the best config by brute force, no pruning.
    fn brute_force(plan: &PlanDag, params: &CostParams) -> (MatConfig, f64) {
        MatConfig::enumerate(plan)
            .map(|cfg| {
                let est = estimate_ft_plan(plan, &cfg, params);
                (cfg, est.dominant_cost)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
    }

    #[test]
    fn search_matches_brute_force_without_pruning() {
        let plan = figure2_plan();
        for mtbf in [5.0, 20.0, 60.0, 1000.0] {
            let p = params(mtbf);
            let (best, stats) =
                find_best_ft_plan(std::slice::from_ref(&plan), &p, &PruneOptions::none()).unwrap();
            let (_, bf_cost) = brute_force(&plan, &p);
            assert!(
                (best.estimate.dominant_cost - bf_cost).abs() < 1e-9,
                "mtbf={mtbf}: search {} vs brute force {bf_cost}",
                best.estimate.dominant_cost
            );
            assert_eq!(stats.configs_enumerated, 128);
            assert_eq!(stats.configs_unpruned, 128);
        }
    }

    #[test]
    fn rule3_alone_preserves_the_optimum_exactly() {
        // Rule 3 only abandons fault-tolerant plans that provably cannot
        // beat the incumbent, so the optimum is untouched.
        let plan = figure2_plan();
        for mtbf in [5.0, 20.0, 60.0, 1000.0, 1e6] {
            let p = params(mtbf);
            let (unpruned, _) =
                find_best_ft_plan(std::slice::from_ref(&plan), &p, &PruneOptions::none()).unwrap();
            let (pruned, _) =
                find_best_ft_plan(std::slice::from_ref(&plan), &p, &PruneOptions::only(3)).unwrap();
            assert!(
                (pruned.estimate.dominant_cost - unpruned.estimate.dominant_cost).abs() < 1e-9,
                "mtbf={mtbf}"
            );
        }
    }

    #[test]
    fn full_pruning_stays_near_the_optimum() {
        // Rules 1/2 are guaranteed only for the paper's pairwise comparison
        // (child vs child-collapsed-into-materializing-parent); when the
        // parent itself does not materialize they can exclude a marginally
        // better configuration. The result must never be better than the
        // exhaustive optimum and stays within a few percent of it.
        let plan = figure2_plan();
        for mtbf in [5.0, 20.0, 60.0, 1000.0, 1e6] {
            let p = params(mtbf);
            let (unpruned, _) =
                find_best_ft_plan(std::slice::from_ref(&plan), &p, &PruneOptions::none()).unwrap();
            let (pruned, stats) =
                find_best_ft_plan(std::slice::from_ref(&plan), &p, &PruneOptions::default())
                    .unwrap();
            let opt = unpruned.estimate.dominant_cost;
            let got = pruned.estimate.dominant_cost;
            assert!(got >= opt - 1e-9, "mtbf={mtbf}: pruning cannot beat exhaustive search");
            assert!(got <= opt * 1.05, "mtbf={mtbf}: pruned {got} vs optimal {opt}");
            assert!(stats.configs_enumerated <= stats.configs_unpruned);
        }
    }

    #[test]
    fn rule3_reduces_costed_paths() {
        let plan = figure2_plan();
        let p = params(60.0);
        let (_, no_prune) =
            find_best_ft_plan(std::slice::from_ref(&plan), &p, &PruneOptions::none()).unwrap();
        let (_, rule3) =
            find_best_ft_plan(std::slice::from_ref(&plan), &p, &PruneOptions::only(3)).unwrap();
        assert!(rule3.paths_costed < no_prune.paths_costed);
        assert!(rule3.rule3_stops() > 0);
    }

    #[test]
    fn high_mtbf_selects_no_materialization() {
        // With a near-infinite MTBF nothing should be materialized: any
        // tm(o) > 0 only adds cost.
        let plan = figure2_plan();
        let p = params(1e12);
        let (best, _) =
            find_best_ft_plan(std::slice::from_ref(&plan), &p, &PruneOptions::none()).unwrap();
        assert_eq!(best.config.materialized_count(), 0);
    }

    #[test]
    fn low_mtbf_materializes_something() {
        let plan = figure2_plan();
        let p = CostParams::new(4.0, 0.5);
        let (best, _) =
            find_best_ft_plan(std::slice::from_ref(&plan), &p, &PruneOptions::none()).unwrap();
        assert!(
            best.config.materialized_count() > 0,
            "an unreliable cluster must checkpoint intermediates"
        );
    }

    #[test]
    fn multiple_candidates_pick_the_cheaper_plan() {
        // Candidate B is a strictly cheaper copy of A.
        let a = figure2_plan();
        let mut b = figure2_plan();
        for id in b.op_ids().collect::<Vec<_>>() {
            b.op_mut(id).run_cost *= 0.5;
            b.op_mut(id).mat_cost *= 0.5;
        }
        let p = params(60.0);
        let (best, stats) = find_best_ft_plan(&[a, b], &p, &PruneOptions::default()).unwrap();
        assert_eq!(best.plan_index, 1);
        assert_eq!(stats.plans_considered, 2);
    }

    #[test]
    fn empty_candidates_error() {
        let p = params(60.0);
        assert_eq!(
            find_best_ft_plan(&[], &p, &PruneOptions::none()).unwrap_err(),
            CoreError::NoCandidatePlans
        );
    }

    #[test]
    fn overflowing_path_costs_are_an_error() {
        // Every path's runtime is 1e308 + 1e308 = +∞, which no
        // configuration can beat, so nothing completes.
        let mut b = PlanDag::builder();
        let scan = b.free("scan", 1e308, 0.0, &[]).unwrap();
        b.free("sink", 1e308, 0.0, &[scan]).unwrap();
        let plan = b.build().unwrap();
        for opts in [PruneOptions::default(), PruneOptions::none()] {
            assert_eq!(
                find_best_ft_plan(std::slice::from_ref(&plan), &params(60.0), &opts).unwrap_err(),
                CoreError::NoFiniteEstimate,
                "{opts:?}"
            );
        }
    }

    #[test]
    fn diverging_attempts_without_repair_time_are_an_error() {
        // tr = 100 × MTBF makes a(c) = +∞, and with MTTR = 0 the term
        // a(c) · MTTR alone is ∞ · 0 = NaN. The operator must still cost
        // +∞, or a configuration "completes" with no dominant path.
        let mut b = PlanDag::builder();
        b.free("op", 100.0, 0.0, &[]).unwrap();
        let plan = b.build().unwrap();
        let p = CostParams::new(1.0, 0.0);
        for opts in [PruneOptions::default(), PruneOptions::none()] {
            assert_eq!(
                find_best_ft_plan(std::slice::from_ref(&plan), &p, &opts).unwrap_err(),
                CoreError::NoFiniteEstimate,
                "{opts:?}"
            );
        }
    }

    #[test]
    fn sixty_four_free_operators_are_an_error() {
        let mut b = PlanDag::builder();
        let mut prev = b.free("op0", 1.0, 1.0, &[]).unwrap();
        for i in 1..64 {
            prev = b.free(format!("op{i}"), 1.0, 1.0, &[prev]).unwrap();
        }
        let chain = b.build().unwrap();
        for opts in [PruneOptions::default(), PruneOptions::none()] {
            assert_eq!(
                find_best_ft_plan(&[figure2_plan(), chain.clone()], &params(60.0), &opts)
                    .unwrap_err(),
                CoreError::TooManyFreeOperators { plan_index: 1, free_ops: 64 },
                "{opts:?}"
            );
        }
    }

    #[test]
    fn configuration_counts_that_overflow_in_sum_are_an_error() {
        // Two 63-operator chains have 2^63 configurations each: one fits
        // the u64 counters, two do not. Rule 1 binds every operator but the
        // sink (`tm` falls by 10 per operator), so each would scan two.
        let mut b = PlanDag::builder();
        let mut prev = b.free("op0", 1.0, 630.0, &[]).unwrap();
        for i in 1..63 {
            prev = b.free(format!("op{i}"), 1.0, 630.0 - 10.0 * i as f64, &[prev]).unwrap();
        }
        let chain = b.build().unwrap();
        let err =
            find_best_ft_plan(&[chain.clone(), chain], &params(60.0), &PruneOptions::default())
                .unwrap_err();
        assert_eq!(err, CoreError::ConfigCountOverflow { plan_index: 1 });
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn invalid_params_error() {
        let plan = figure2_plan();
        let bad = CostParams::new(-1.0, 0.0);
        assert!(
            find_best_ft_plan(std::slice::from_ref(&plan), &bad, &PruneOptions::none()).is_err()
        );
    }

    #[test]
    fn stats_counters_are_consistent() {
        let plan = figure2_plan();
        let p = params(60.0);
        let (_, stats) =
            find_best_ft_plan(std::slice::from_ref(&plan), &p, &PruneOptions::default()).unwrap();
        assert_eq!(stats.plans_considered, 1);
        assert!(stats.configs_enumerated <= stats.configs_unpruned);
        assert!(stats.paths_costed <= stats.paths_examined);
        assert!(stats.best_updates >= 1);
        assert_eq!(stats.configs_skipped(), stats.configs_unpruned - stats.configs_enumerated);
    }

    #[test]
    fn pruning_counters_partition_the_config_space() {
        let plan = figure2_plan();
        for mtbf in [4.0, 20.0, 60.0, 1000.0] {
            for opts in [
                PruneOptions::none(),
                PruneOptions::only(1),
                PruneOptions::only(2),
                PruneOptions::only(3),
                PruneOptions::default(),
            ] {
                let p = params(mtbf);
                let (_, stats) = find_best_ft_plan(std::slice::from_ref(&plan), &p, &opts).unwrap();
                assert!(
                    stats.partition_holds(),
                    "mtbf={mtbf} opts={opts:?}: {} explored + {} rule1 + {} rule2 + {} rule3 \
                     != {} unpruned",
                    stats.configs_explored,
                    stats.configs_pruned_rule1,
                    stats.configs_pruned_rule2,
                    stats.rule3_stops(),
                    stats.configs_unpruned
                );
                // Every enumerated config ended either explored or stopped.
                assert_eq!(stats.configs_enumerated, stats.configs_explored + stats.rule3_stops());
            }
        }
    }

    #[test]
    fn traced_search_records_plan_and_summary_events() {
        use ftpde_obs::{ArgValue, MemoryRecorder};

        // The second candidate is the first at ten times every cost: its
        // runtime floor reaches the first one's `bestT`.
        let plan = figure2_plan();
        let mut costly = figure2_plan();
        for id in costly.op_ids().collect::<Vec<_>>() {
            costly.op_mut(id).run_cost *= 10.0;
            costly.op_mut(id).mat_cost *= 10.0;
        }
        let p = params(60.0);
        let rec = MemoryRecorder::new();
        let (best, stats) =
            find_best_ft_plan_traced(&[plan, costly], &p, &PruneOptions::default(), &rec).unwrap();
        assert_eq!(best.plan_index, 0);
        assert!(stats.rule3_floor_stops > 0, "{stats:?}");
        assert!(stats.partition_holds(), "{stats:?}");
        assert_eq!(stats.configs_enumerated, stats.configs_explored + stats.rule3_stops());

        let events = rec.events();
        let floor_stop: Vec<_> =
            events.iter().filter(|e| e.name == "plan").map(|e| e.get_arg("floor_stop")).collect();
        assert_eq!(floor_stop, [Some(&ArgValue::Bool(false)), Some(&ArgValue::Bool(true))]);
        assert_eq!(
            events.iter().filter(|e| e.name == "best_update").count(),
            stats.best_updates as usize
        );
        let done = events.last().unwrap();
        assert_eq!(done.name, "find_best_ft_plan");
        assert_eq!(done.cat, "search");
        assert_eq!(done.get_arg("configs_explored"), Some(&ArgValue::U64(stats.configs_explored)));
        assert_eq!(done.get_arg("memo_hits"), Some(&ArgValue::U64(stats.rule3_memo_stops)));
        assert_eq!(done.get_arg("floor_stops"), Some(&ArgValue::U64(stats.rule3_floor_stops)));
        // The metrics fold reads the search's counters off that span.
        let metrics = ftpde_obs::fold(&events).metrics;
        assert_eq!(metrics.counter("search.rule3_floor_stops_total"), stats.rule3_floor_stops);
        assert_eq!(metrics.counter("search.configs_enumerated_total"), stats.configs_enumerated);
        let explained = crate::explain::explain_search_stats(&stats);
        assert!(
            explained.contains(&format!("/ floor {}]", stats.rule3_floor_stops)),
            "{explained}"
        );
    }

    #[test]
    fn partition_check_is_silent_when_healthy_and_loud_when_broken() {
        use ftpde_obs::MemoryRecorder;

        // A healthy traced search must not emit a partition_violation.
        let plan = figure2_plan();
        let rec = MemoryRecorder::new();
        let (_, stats) = find_best_ft_plan_traced(
            std::slice::from_ref(&plan),
            &params(60.0),
            &PruneOptions::default(),
            &rec,
        )
        .unwrap();
        assert!(rec.events().iter().all(|e| e.name != "partition_violation"));
        assert!(record_partition_check(&stats, &NoopRecorder, 0));

        // A fabricated counter regression must be reported as an event.
        let broken =
            SearchStats { configs_unpruned: 16, configs_explored: 15, ..Default::default() };
        let rec = MemoryRecorder::new();
        assert!(!record_partition_check(&broken, &rec, 7));
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "partition_violation");
        assert_eq!(events[0].cat, "search");
        assert_eq!(events[0].get_arg("configs_unpruned"), Some(&ftpde_obs::ArgValue::U64(16)));
    }

    #[test]
    fn traced_and_untraced_search_agree() {
        let plan = figure2_plan();
        let p = params(60.0);
        let (best, stats) =
            find_best_ft_plan(std::slice::from_ref(&plan), &p, &PruneOptions::default()).unwrap();
        let (best_t, stats_t) = find_best_ft_plan_traced(
            std::slice::from_ref(&plan),
            &p,
            &PruneOptions::default(),
            &ftpde_obs::MemoryRecorder::new(),
        )
        .unwrap();
        assert_eq!(stats, stats_t);
        assert_eq!(best.estimate.dominant_cost, best_t.estimate.dominant_cost);
        assert_eq!(best.config, best_t.config);
    }

    #[test]
    fn rule1_and_2_shrink_the_enumerated_space_when_applicable() {
        // A chain whose materialization costs shrink towards the sink:
        // collapsing any child into its parent is always cheaper than the
        // child's own (more expensive) materialization, so rule 1 binds
        // every operator below the sink.
        let mut b = PlanDag::builder();
        let mut prev = b.free("scan", 1.0, 50.0, &[]).unwrap();
        for i in 0..4 {
            prev = b.free(format!("op{i}"), 1.0, 40.0 - 10.0 * i as f64, &[prev]).unwrap();
        }
        let plan = b.build().unwrap();
        let p = params(60.0);
        let (_, stats) =
            find_best_ft_plan(std::slice::from_ref(&plan), &p, &PruneOptions::only(1)).unwrap();
        assert!(stats.rule1_bound_ops >= 4);
        assert!(stats.configs_enumerated < stats.configs_unpruned);
    }
}
