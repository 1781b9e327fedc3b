//! Pruning-soundness oracle: cross-checks [`find_best_ft_plan`] against an
//! exhaustive enumeration of the materialization-configuration space.
//!
//! The paper's pruning rules have two distinct guarantees, and the oracle
//! checks each against exactly its own contract:
//!
//! * **Rule 3** (early path-enumeration stop, §4.3) and its memoized
//!   extension (Eq. 9) only abandon fault-tolerant plans that *provably*
//!   cannot beat the incumbent — the selected dominant-path cost must equal
//!   the exhaustive optimum **exactly**.
//! * **Rules 1/2** (§4.1/§4.2) bind operators from a pairwise comparison
//!   (child vs child-collapsed-into-materializing-parent) that is only
//!   guaranteed when the parent materializes; they may exclude marginally
//!   better configurations. Their contract is one-sided: the pruned result
//!   can never be *better* than the exhaustive optimum (that would mean the
//!   unpruned search missed a configuration), and in this reproduction it
//!   stays within [`RULE12_SLACK`] of it.
//!
//! [`MemoMirror`] checks the [`PathMemo`] dominance structure the same way:
//! a mirror list of every recorded entry replays [`PathMemo::dominates`]
//! by brute force, so the memo can never under-report (claim dominance
//! where no recorded entry actually dominates).

use ftpde_core::config::MatConfig;
use ftpde_core::cost::{estimate_ft_plan, CostParams};
use ftpde_core::dag::PlanDag;
use ftpde_core::prune::{PathMemo, PruneOptions};
use ftpde_core::search::find_best_ft_plan;
use serde::{Deserialize, Serialize};

/// Absolute tolerance for cost comparisons.
const EPS: f64 = 1e-9;

/// Multiplicative slack granted to the heuristic rules 1/2: the pruned
/// result must stay within 5% of the exhaustive optimum (the bound the
/// core crate's own regression tests enforce on the paper's plans).
pub const RULE12_SLACK: f64 = 1.05;

/// The exhaustive reference: the cheapest dominant-path cost over all
/// `2^n` materialization configurations of every candidate plan, found
/// without pruning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExhaustiveBest {
    /// Index of the candidate the optimal configuration belongs to.
    pub plan_index: usize,
    /// The optimal configuration (first one found at the optimal cost, in
    /// candidate order, then ascending bit-mask order).
    pub config: MatConfig,
    /// Its dominant-path cost `T_Pt`.
    pub dominant_cost: f64,
    /// Number of configurations enumerated (`Σ 2^n` over candidates).
    pub configs: u64,
}

/// Brute-force reference search over the full configuration space of
/// every candidate.
///
/// # Panics
/// Panics if `candidates` is empty, or a candidate has 64 or more free
/// operators (not exhaustively enumerable) — oracle plans are small by
/// construction.
pub fn exhaustive_best(candidates: &[PlanDag], params: &CostParams) -> ExhaustiveBest {
    let mut best: Option<(usize, MatConfig, f64)> = None;
    let mut configs = 0u64;
    for (plan_index, plan) in candidates.iter().enumerate() {
        for config in MatConfig::enumerate(plan) {
            configs += 1;
            let est = estimate_ft_plan(plan, &config, params);
            if best.as_ref().is_none_or(|(_, _, c)| est.dominant_cost < *c) {
                best = Some((plan_index, config, est.dominant_cost));
            }
        }
    }
    let (plan_index, config, dominant_cost) =
        best.expect("a candidate has at least the empty configuration");
    ExhaustiveBest { plan_index, config, dominant_cost, configs }
}

/// Verdict of one pruning variant against the exhaustive reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleOutcome {
    /// Which rule set ran, e.g. `"rule3"` or `"rules 1+2+3+memo"`.
    pub label: String,
    /// Whether this variant's contract is exact equality (rule 3 family)
    /// or one-sided soundness with slack (rules 1/2).
    pub exact: bool,
    /// Dominant-path cost selected by the pruned search.
    pub pruned_cost: f64,
    /// Dominant-path cost of the exhaustive optimum.
    pub exhaustive_cost: f64,
    /// `true` iff the variant honoured its contract.
    pub sound: bool,
}

/// All verdicts for one set of candidates, plus the shared exhaustive
/// reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleReport {
    /// The exhaustive reference the variants were compared against.
    pub reference: ExhaustiveBest,
    /// One verdict per pruning variant.
    pub outcomes: Vec<OracleOutcome>,
}

impl OracleReport {
    /// `true` iff every pruning variant honoured its contract.
    pub fn all_sound(&self) -> bool {
        self.outcomes.iter().all(|o| o.sound)
    }

    /// The first violated verdict, if any (for assertion messages).
    pub fn first_violation(&self) -> Option<&OracleOutcome> {
        self.outcomes.iter().find(|o| !o.sound)
    }
}

/// The pruning variants the oracle exercises: each rule individually, the
/// exact rule-3 family, and the full default stack.
fn variants() -> Vec<(String, PruneOptions, bool)> {
    let rule3_no_memo = PruneOptions { rule3_memo: false, ..PruneOptions::only(3) };
    let memo_only = PruneOptions { rule3_memo: true, ..PruneOptions::none() };
    vec![
        ("none".to_string(), PruneOptions::none(), true),
        ("rule1".to_string(), PruneOptions::only(1), false),
        ("rule2".to_string(), PruneOptions::only(2), false),
        ("rule3".to_string(), rule3_no_memo, true),
        ("rule3+memo".to_string(), PruneOptions::only(3), true),
        ("memo only".to_string(), memo_only, true),
        ("rules 1+2+3+memo".to_string(), PruneOptions::default(), false),
    ]
}

/// Runs every pruning variant of [`find_best_ft_plan`] over `candidates`
/// and checks each selected dominant-path cost against
/// [`exhaustive_best`]. With several candidates, `bestT` carries across
/// them, so rule 3 also skips whole candidates by their runtime floor.
///
/// Exact variants must reproduce the optimum to within a `1e-9` epsilon;
/// heuristic variants must never beat it and must stay within
/// [`RULE12_SLACK`].
///
/// # Panics
/// As [`exhaustive_best`], or if a search finds no finite estimate.
pub fn check_pruning_soundness(candidates: &[PlanDag], params: &CostParams) -> OracleReport {
    let reference = exhaustive_best(candidates, params);
    let outcomes = variants()
        .into_iter()
        .map(|(label, opts, exact)| {
            let (best, stats) =
                find_best_ft_plan(candidates, params, &opts).expect("a finite estimate");
            let pruned_cost = best.estimate.dominant_cost;
            let never_better = pruned_cost >= reference.dominant_cost - EPS;
            let sound = if exact {
                (pruned_cost - reference.dominant_cost).abs() <= EPS
            } else {
                never_better && pruned_cost <= reference.dominant_cost * RULE12_SLACK + EPS
            };
            // The work accounting must partition regardless of variant.
            let sound = sound && stats.partition_holds();
            OracleOutcome {
                label,
                exact,
                pruned_cost,
                exhaustive_cost: reference.dominant_cost,
                sound,
            }
        })
        .collect();
    OracleReport { reference, outcomes }
}

/// A [`PathMemo`] paired with a brute-force mirror of everything recorded
/// into it, so [`PathMemo::dominates`] can be checked for under-reporting:
/// whenever the memo claims a path is dominated, some recorded entry must
/// actually dominate it pairwise (Eq. 9), which is what makes skipping the
/// cost function sound.
#[derive(Debug, Default)]
pub struct MemoMirror {
    memo: PathMemo,
    /// Every `(sorted-descending costs, total)` ever recorded.
    entries: Vec<(Vec<f64>, f64)>,
}

impl MemoMirror {
    /// An empty mirror.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a dominant path into both the memo and the mirror.
    /// `costs` are the path's `t(c)` values in any order.
    pub fn record(&mut self, costs: &[f64], total: f64) {
        self.memo.record(costs, total);
        let mut sorted = costs.to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite costs"));
        self.entries.push((sorted, total));
    }

    /// Eq. 9 by brute force: does any recorded entry with at most as many
    /// operators dominate `probe` pairwise (missing positions count as
    /// zero-cost operators)?
    pub fn reference_dominates(&self, probe_sorted_desc: &[f64]) -> bool {
        self.entries.iter().any(|(entry, _)| {
            entry.len() <= probe_sorted_desc.len()
                && probe_sorted_desc
                    .iter()
                    .enumerate()
                    .all(|(i, &p)| p >= entry.get(i).copied().unwrap_or(0.0))
        })
    }

    /// Checks one probe: if the memo claims dominance, the brute-force
    /// mirror must agree (no under-reporting — a false claim would skip
    /// costing a path that might beat the incumbent). Over-caution (memo
    /// says no, mirror says yes) is allowed: the memo keeps only the best
    /// entry per path length. Returns `false` on an unsound claim.
    pub fn claim_is_sound(&self, probe_sorted_desc: &[f64]) -> bool {
        !self.memo.dominates(probe_sorted_desc) || self.reference_dominates(probe_sorted_desc)
    }

    /// Read access to the wrapped memo.
    pub fn memo(&self) -> &PathMemo {
        &self.memo
    }

    /// Number of recorded entries (mirror side, before per-length merging).
    pub fn recorded(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpde_core::dag::figure2_plan;

    #[test]
    fn figure2_is_sound_across_the_mtbf_range() {
        let plan = figure2_plan();
        for mtbf in [4.0, 20.0, 60.0, 1000.0, 1e6] {
            let report =
                check_pruning_soundness(std::slice::from_ref(&plan), &CostParams::new(mtbf, 0.5));
            assert_eq!(report.reference.configs, 128);
            assert!(report.all_sound(), "mtbf={mtbf}: {:?}", report.first_violation());
        }
    }

    #[test]
    fn exhaustive_best_matches_unpruned_search() {
        let plan = figure2_plan();
        let params = CostParams::new(60.0, 0.5);
        let reference = exhaustive_best(std::slice::from_ref(&plan), &params);
        let (best, _) =
            find_best_ft_plan(std::slice::from_ref(&plan), &params, &PruneOptions::none()).unwrap();
        assert!((reference.dominant_cost - best.estimate.dominant_cost).abs() < EPS);
    }

    #[test]
    fn oracle_report_round_trips_through_serde() {
        let plan = figure2_plan();
        let report =
            check_pruning_soundness(std::slice::from_ref(&plan), &CostParams::new(60.0, 0.5));
        let back: OracleReport =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn mirror_agrees_on_simple_dominance() {
        let mut m = MemoMirror::new();
        m.record(&[3.0, 1.0], 10.0);
        // A pointwise-larger path is dominated; the claim must be sound.
        assert!(m.memo().dominates(&[4.0, 2.0]));
        assert!(m.reference_dominates(&[4.0, 2.0]));
        assert!(m.claim_is_sound(&[4.0, 2.0]));
        // A pointwise-smaller path is not dominated.
        assert!(!m.memo().dominates(&[2.0, 0.5]));
        assert!(m.claim_is_sound(&[2.0, 0.5]));
        assert_eq!(m.recorded(), 1);
    }

    #[test]
    fn mirror_tolerates_over_caution_but_not_under_reporting() {
        let mut m = MemoMirror::new();
        // Two entries of the same length: the memo keeps only the cheaper
        // total, the mirror keeps both.
        m.record(&[5.0, 5.0], 20.0);
        m.record(&[1.0, 1.0], 4.0);
        // Dominated by the second entry — whatever the memo answers, the
        // claim must be sound.
        assert!(m.claim_is_sound(&[2.0, 1.5]));
        // Dominated only by the *first* (evicted or kept, depending on the
        // memo's merge policy): over-caution is fine, lying is not.
        assert!(m.claim_is_sound(&[6.0, 5.5]));
    }
}
