//! The plan linter: diagnostic passes over [`PlanDag`]s and fault-tolerant
//! plans `[P, M_P]`.
//!
//! [`PlanValidator::validate_plan`] runs the structural and hygiene passes;
//! [`PlanValidator::validate_ft_plan`] additionally verifies the collapsed
//! plan (§3.3) and the cost model (§3.5) under a concrete materialization
//! configuration. Passes are ordered so that later passes can rely on the
//! invariants earlier passes established: if the raw DAG tables are broken
//! (FT001), the semantic passes — which use the panicking typed accessors —
//! are skipped entirely.
//!
//! The FT001 pass deliberately does *not* trust [`PlanDag`]'s API: plans
//! can enter the system through serde (`ftpde lint --plan broken.json`),
//! and the derived `Deserialize` impl performs no cross-field validation.
//! The pass therefore re-serializes the plan to a `serde_json::Value` and
//! inspects the raw `ops`/`inputs`/`consumers` tables directly.

use ftpde_core::collapse::CollapsedPlan;
use ftpde_core::config::MatConfig;
use ftpde_core::cost::{estimate_ft_plan, path_cost, CostParams};
use ftpde_core::dag::PlanDag;
use ftpde_core::operator::{Binding, OpId};
use ftpde_core::paths::for_each_path;

use crate::diag::{Code, Diagnostic, Report, Severity};

/// Absolute tolerance for cost-conservation comparisons.
const EPS: f64 = 1e-9;

/// MTBF scale ladder used by the FT009 monotonicity pass: the estimate is
/// evaluated at `mtbf_cost × factor` for each factor, descending, and must
/// never decrease as the cluster gets less reliable.
const MTBF_LADDER: [f64; 5] = [4.0, 2.0, 1.0, 0.5, 0.25];

/// Runs diagnostic passes over plans and fault-tolerant plans.
#[derive(Debug, Clone, Copy)]
pub struct PlanValidator {
    params: CostParams,
}

impl PlanValidator {
    /// A validator using `params` for the cost-model passes.
    pub fn new(params: CostParams) -> Self {
        PlanValidator { params }
    }

    /// The cost parameters the validator was built with.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Lints a bare plan: structural integrity (FT001), connectedness
    /// (FT002), cost domain (FT003) and hygiene (FT010).
    pub fn validate_plan(&self, subject: &str, plan: &PlanDag) -> Report {
        let mut report = Report::new(subject);
        self.params_pass(&mut report);
        if structure_pass(plan, &mut report) {
            connectedness_pass(plan, &mut report);
            costs_pass(plan, &mut report);
            hygiene_pass(plan, &mut report);
        }
        report
    }

    /// Lints a fault-tolerant plan `[plan, config]`: all bare-plan passes
    /// plus binding consistency (FT004), the collapsed-plan partition
    /// (FT005), cost conservation (FT006) and the cost-model sanity passes
    /// (FT007–FT009).
    pub fn validate_ft_plan(&self, subject: &str, plan: &PlanDag, config: &MatConfig) -> Report {
        let mut report = self.validate_plan(subject, plan);
        if !report.is_clean() {
            // Structural or cost errors: the collapse passes would panic or
            // produce garbage diagnostics on top of the real problem.
            return report;
        }
        if !binding_pass(plan, config, &mut report) {
            return report;
        }
        let collapsed = CollapsedPlan::collapse(plan, config, self.params.pipe_const);
        partition_pass(plan, config, &collapsed, &mut report);
        conservation_pass(plan, config, &collapsed, self.params.pipe_const, &mut report);
        probability_pass(&collapsed, &self.params, &mut report);
        dominance_pass(plan, config, &self.params, &mut report);
        monotonicity_pass(plan, config, &self.params, &mut report);
        report
    }

    /// Lints an externally-supplied collapsed plan (e.g. one deserialized
    /// from a trace artifact) against `[plan, config]`: the partition
    /// (FT005), cost-conservation (FT006) and probability (FT007) passes.
    ///
    /// [`PlanValidator::validate_ft_plan`] runs the same passes on a
    /// freshly-collapsed plan — use this entry point when the collapsed
    /// plan itself is the artifact under suspicion. `plan` and `config`
    /// must already be clean (run [`PlanValidator::validate_ft_plan`]
    /// first), or the passes may panic on out-of-range ids.
    pub fn validate_collapsed(
        &self,
        subject: &str,
        plan: &PlanDag,
        config: &MatConfig,
        collapsed: &CollapsedPlan,
    ) -> Report {
        let mut report = Report::new(subject);
        partition_pass(plan, config, collapsed, &mut report);
        conservation_pass(plan, config, collapsed, self.params.pipe_const, &mut report);
        probability_pass(collapsed, &self.params, &mut report);
        report
    }
}

/// FT007 (parameter half): the cost parameters themselves must be in
/// domain, or every probability derived from them is meaningless.
impl PlanValidator {
    fn params_pass(&self, report: &mut Report) {
        if let Err(e) = self.params.validate() {
            report.push(Diagnostic::new(
                Code::FT007,
                Severity::Error,
                format!("cost parameters out of domain: {e}"),
            ));
        }
    }
}

/// FT001: raw structural integrity of the serialized DAG tables.
///
/// Returns `true` iff the plan is structurally sound enough for the typed
/// accessors (and therefore the remaining passes) to be used safely.
fn structure_pass(plan: &PlanDag, report: &mut Report) -> bool {
    let err = |report: &mut Report, msg: String| {
        report.push(Diagnostic::new(Code::FT001, Severity::Error, msg));
    };

    let value = match serde_json::to_value(plan) {
        Ok(v) => v,
        Err(e) => {
            err(report, format!("plan does not serialize: {e}"));
            return false;
        }
    };
    let (Some(ops), Some(inputs), Some(consumers)) = (
        value.get("ops").and_then(serde_json::Value::as_array),
        value.get("inputs").and_then(serde_json::Value::as_array),
        value.get("consumers").and_then(serde_json::Value::as_array),
    ) else {
        err(report, "serialized plan is missing the ops/inputs/consumers tables".to_string());
        return false;
    };

    let n = ops.len();
    let mut ok = true;
    if n == 0 {
        err(report, "plan contains no operators".to_string());
        ok = false;
    }
    if inputs.len() != n || consumers.len() != n {
        err(
            report,
            format!(
                "table shapes disagree: {n} operator(s) but {} input row(s) and {} consumer \
                 row(s)",
                inputs.len(),
                consumers.len()
            ),
        );
        ok = false;
    }

    // Edge scan. Input edges must point strictly backwards (the builder's
    // topological-order invariant, which is what makes cycles
    // unrepresentable); consumer edges strictly forwards.
    let mut edge_scan = |rows: &[serde_json::Value], table: &str, backwards: bool| {
        for (i, row) in rows.iter().enumerate() {
            let Some(row) = row.as_array() else {
                err(report, format!("{table} row of operator {i} is not an array"));
                ok = false;
                continue;
            };
            let mut seen: Vec<u64> = Vec::with_capacity(row.len());
            for e in row {
                let Some(e) = e.as_u64() else {
                    err(report, format!("{table} edge of operator {i} is not an operator id"));
                    ok = false;
                    continue;
                };
                if e >= n as u64 {
                    err(report, format!("{table} edge of operator {i} references operator {e}, out of range for {n} operator(s)"));
                    ok = false;
                } else if e == i as u64 {
                    err(report, format!("operator {i} is its own {table} (self-loop)"));
                    ok = false;
                } else if backwards == (e > i as u64) {
                    err(
                        report,
                        format!(
                            "{table} edge {i} -> {e} violates topological id order (cycle or \
                             corrupted tables)"
                        ),
                    );
                    ok = false;
                }
                if seen.contains(&e) {
                    err(report, format!("duplicate {table} edge {e} on operator {i}"));
                    ok = false;
                }
                seen.push(e);
            }
        }
    };
    edge_scan(inputs, "input", true);
    edge_scan(consumers, "consumer", false);

    // Inverse check: inputs and consumers must describe the same edge set.
    // Only meaningful once shapes and ranges are valid.
    if ok {
        for (i, row) in inputs.iter().enumerate() {
            for e in row.as_array().into_iter().flatten() {
                let u = e.as_u64().expect("validated above") as usize;
                let back = consumers[u]
                    .as_array()
                    .is_some_and(|c| c.iter().any(|x| x.as_u64() == Some(i as u64)));
                if !back {
                    err(
                        report,
                        format!("edge {u} -> {i} present in inputs but missing from consumers"),
                    );
                    ok = false;
                }
            }
        }
        for (u, row) in consumers.iter().enumerate() {
            for e in row.as_array().into_iter().flatten() {
                let i = e.as_u64().expect("validated above") as usize;
                let fwd = inputs[i]
                    .as_array()
                    .is_some_and(|inp| inp.iter().any(|x| x.as_u64() == Some(u as u64)));
                if !fwd {
                    err(
                        report,
                        format!("edge {u} -> {i} present in consumers but missing from inputs"),
                    );
                    ok = false;
                }
            }
        }
    }
    ok
}

/// FT002: the plan should be one weakly-connected component — disconnected
/// islands usually mean a plan was stitched together incorrectly.
fn connectedness_pass(plan: &PlanDag, report: &mut Report) {
    let n = plan.len();
    let mut seen = vec![false; n];
    let mut stack = vec![OpId(0)];
    seen[0] = true;
    let mut reached = 1usize;
    while let Some(v) = stack.pop() {
        for &u in plan.inputs(v).iter().chain(plan.consumers(v)) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                reached += 1;
                stack.push(u);
            }
        }
    }
    if reached < n {
        report.push(Diagnostic::new(
            Code::FT002,
            Severity::Warn,
            format!(
                "plan is not weakly connected: only {reached} of {n} operator(s) reachable from \
                 operator 0"
            ),
        ));
    }
}

/// FT003: every `tr(o)` and `tm(o)` finite and non-negative. The builder
/// enforces this, serde does not.
fn costs_pass(plan: &PlanDag, report: &mut Report) {
    for (id, op) in plan.iter() {
        for (what, value) in [("tr", op.run_cost), ("tm", op.mat_cost)] {
            if !(value.is_finite() && value >= 0.0) {
                report.push(
                    Diagnostic::new(
                        Code::FT003,
                        Severity::Error,
                        format!("{what}({}) = {value} is not a finite non-negative cost", op.name),
                    )
                    .at_op(id.0),
                );
            }
        }
    }
}

/// FT010: hygiene — findings that do not invalidate the plan but usually
/// indicate an estimation or modelling mistake.
fn hygiene_pass(plan: &PlanDag, report: &mut Report) {
    for (id, op) in plan.iter() {
        if op.run_cost == 0.0 && op.mat_cost == 0.0 {
            report.push(
                Diagnostic::new(
                    Code::FT010,
                    Severity::Lint,
                    format!("operator '{}' has zero runtime and materialization cost", op.name),
                )
                .at_op(id.0),
            );
        }
    }
    let mut names: Vec<&str> = plan.iter().map(|(_, op)| op.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    if names.len() < plan.len() {
        report.push(Diagnostic::new(
            Code::FT010,
            Severity::Lint,
            format!(
                "{} operator(s) share a name with another operator; by-name lookups are \
                 ambiguous",
                plan.len() - names.len()
            ),
        ));
    }
    let free = plan.free_count();
    if free > 63 {
        report.push(Diagnostic::new(
            Code::FT010,
            Severity::Warn,
            format!(
                "{free} free operators: the 2^{free} configuration space cannot be enumerated \
                 exhaustively; pruning rules 1/2 are mandatory"
            ),
        ));
    }
}

/// FT004: `config` must cover the plan and respect bound operators.
/// Returns `true` iff the collapse passes can run.
fn binding_pass(plan: &PlanDag, config: &MatConfig, report: &mut Report) -> bool {
    if config.len() != plan.len() {
        report.push(Diagnostic::new(
            Code::FT004,
            Severity::Error,
            format!(
                "configuration covers {} operator(s) but the plan has {}",
                config.len(),
                plan.len()
            ),
        ));
        return false;
    }
    let mut ok = true;
    for (id, op) in plan.iter() {
        let violated = match op.binding {
            Binding::AlwaysMaterialized => !config.materializes(id),
            Binding::NonMaterializable => config.materializes(id),
            Binding::Free => false,
        };
        if violated {
            report.push(
                Diagnostic::new(
                    Code::FT004,
                    Severity::Error,
                    format!(
                        "operator '{}' is bound {:?} but the configuration sets m(o) = {}",
                        op.name,
                        op.binding,
                        u8::from(config.materializes(id))
                    ),
                )
                .at_op(id.0),
            );
            ok = false;
        }
    }
    ok
}

/// FT005: the collapsed plan must partition the operator DAG (§3.3) —
/// every operator in at least one group, in more than one only if it does
/// not materialize (shared re-execution prefix), every group rooted at a
/// materializing operator or sink.
fn partition_pass(
    plan: &PlanDag,
    config: &MatConfig,
    collapsed: &CollapsedPlan,
    report: &mut Report,
) {
    let mut membership = vec![0u32; plan.len()];
    for (cid, c) in collapsed.iter() {
        if !c.members.contains(&c.root) {
            report.push(
                Diagnostic::new(
                    Code::FT005,
                    Severity::Error,
                    format!("collapsed operator does not contain its own root {}", c.root.0),
                )
                .at_stage(cid.0),
            );
        }
        if config.materializes(c.root) || plan.consumers(c.root).is_empty() {
            // Root is a legal collapse boundary.
        } else {
            report.push(
                Diagnostic::new(
                    Code::FT005,
                    Severity::Error,
                    format!(
                        "root '{}' neither materializes nor is a sink — not a collapse boundary",
                        plan.op(c.root).name
                    ),
                )
                .at_stage(cid.0),
            );
        }
        for &m in &c.members {
            membership[m.index()] += 1;
            if m != c.root && config.materializes(m) {
                report.push(
                    Diagnostic::new(
                        Code::FT005,
                        Severity::Error,
                        format!(
                            "materializing operator '{}' was collapsed into a group it does not \
                             root",
                            plan.op(m).name
                        ),
                    )
                    .at_op(m.0)
                    .at_stage(cid.0),
                );
            }
        }
    }
    for (id, op) in plan.iter() {
        match membership[id.index()] {
            0 => report.push(
                Diagnostic::new(
                    Code::FT005,
                    Severity::Error,
                    format!("operator '{}' belongs to no collapsed operator", op.name),
                )
                .at_op(id.0),
            ),
            1 => {}
            k => {
                // Multi-membership is legal exactly for non-materialized
                // operators whose output fans out to several groups.
                if config.materializes(id) {
                    report.push(
                        Diagnostic::new(
                            Code::FT005,
                            Severity::Error,
                            format!(
                                "materializing operator '{}' belongs to {k} collapsed operators; \
                                 a materialized result never needs re-execution",
                                op.name
                            ),
                        )
                        .at_op(id.0),
                    );
                }
            }
        }
    }
}

/// FT006: `tr(c)`/`tm(c)` of every collapsed operator conserve the plan's
/// operator costs modulo `CONST_pipe` (Eq. 1): the stored dominant path
/// must be a real path of group members ending at the root, its `tr` sum
/// (scaled iff it has ≥ 2 operators) must equal `tr(c)`, no other path
/// through the group may be more expensive, and `tm(c)` must equal the
/// root's `tm` (or zero for a non-materializing sink).
fn conservation_pass(
    plan: &PlanDag,
    config: &MatConfig,
    collapsed: &CollapsedPlan,
    pipe_const: f64,
    report: &mut Report,
) {
    for (cid, c) in collapsed.iter() {
        // (a) the stored dominant path is a real member path ending at root.
        let mut path_ok = c.dominant_path.last() == Some(&c.root);
        for pair in c.dominant_path.windows(2) {
            if !plan.inputs(pair[1]).contains(&pair[0]) {
                path_ok = false;
            }
        }
        if !path_ok || c.dominant_path.iter().any(|m| !c.members.contains(m)) {
            report.push(
                Diagnostic::new(
                    Code::FT006,
                    Severity::Error,
                    format!(
                        "stored dominant path {:?} is not a member path ending at the root",
                        c.dominant_path.iter().map(|o| o.0).collect::<Vec<_>>()
                    ),
                )
                .at_stage(cid.0),
            );
            continue;
        }

        // (b) Eq. 1: tr(c) = Σ tr(o) over dom(c), × CONST_pipe iff ≥ 2 ops.
        let raw: f64 = c.dominant_path.iter().map(|&o| plan.op(o).run_cost).sum();
        let expected = if c.dominant_path.len() >= 2 { raw * pipe_const } else { raw };
        if (c.run_cost - expected).abs() > EPS {
            report.push(
                Diagnostic::new(
                    Code::FT006,
                    Severity::Error,
                    format!(
                        "tr(c) = {} but the dominant path sums to {expected} (Eq. 1, CONST_pipe \
                         = {pipe_const})",
                        c.run_cost
                    ),
                )
                .at_stage(cid.0),
            );
        }

        // (c) maximality: recompute the longest tr-weighted member path.
        let mut best = std::collections::HashMap::new();
        for &v in &c.members {
            let best_in =
                plan.inputs(v).iter().filter_map(|u| best.get(u).copied()).fold(0.0f64, f64::max);
            best.insert(v, best_in + plan.op(v).run_cost);
        }
        if (best[&c.root] - raw).abs() > EPS {
            report.push(
                Diagnostic::new(
                    Code::FT006,
                    Severity::Error,
                    format!(
                        "dominant path sums to {raw} but a member path of cost {} exists",
                        best[&c.root]
                    ),
                )
                .at_stage(cid.0),
            );
        }

        // (d) tm(c) = tm(root), or 0 for a non-materializing sink.
        let expected_tm = if config.materializes(c.root) { plan.op(c.root).mat_cost } else { 0.0 };
        if (c.mat_cost - expected_tm).abs() > EPS {
            report.push(
                Diagnostic::new(
                    Code::FT006,
                    Severity::Error,
                    format!(
                        "tm(c) = {} but the root's materialization cost is {expected_tm}",
                        c.mat_cost
                    ),
                )
                .at_stage(cid.0),
            );
        }
    }
}

/// FT007: the failure model's probabilities must be probabilities —
/// `γ(c), η(c) ∈ [0, 1]`, `γ + η = 1`, `a(c) ≥ 0` (Eq. 5–7). Diverging
/// attempts (`t(c) ≫ MTBF`) are legal but almost certainly a modelling
/// accident, so they warn.
fn probability_pass(collapsed: &CollapsedPlan, params: &CostParams, report: &mut Report) {
    for (cid, c) in collapsed.iter() {
        let t = c.total_cost();
        let gamma = params.success_probability(t);
        let eta = params.failure_probability(t);
        if !(0.0..=1.0).contains(&gamma) || !(0.0..=1.0).contains(&eta) {
            report.push(
                Diagnostic::new(
                    Code::FT007,
                    Severity::Error,
                    format!("γ = {gamma}, η = {eta} for t(c) = {t} fall outside [0, 1]"),
                )
                .at_stage(cid.0),
            );
        } else if (gamma + eta - 1.0).abs() > EPS {
            report.push(
                Diagnostic::new(
                    Code::FT007,
                    Severity::Error,
                    format!("γ + η = {} ≠ 1 for t(c) = {t}", gamma + eta),
                )
                .at_stage(cid.0),
            );
        }
        let a = params.attempts(t);
        if a.is_nan() || a < 0.0 {
            report.push(
                Diagnostic::new(
                    Code::FT007,
                    Severity::Error,
                    format!("a(c) = {a} for t(c) = {t} is not a non-negative attempt count"),
                )
                .at_stage(cid.0),
            );
        } else if a.is_infinite() {
            report.push(
                Diagnostic::new(
                    Code::FT007,
                    Severity::Warn,
                    format!(
                        "t(c) = {t} with MTBF_cost = {} can never reach the success target: \
                         attempts diverge; materialize inside this stage",
                        params.mtbf_cost
                    ),
                )
                .at_stage(cid.0),
            );
        }
    }
}

/// FT008: the production estimate's dominant path must bound every
/// source→sink path cost of the collapsed plan, and be attained by one.
fn dominance_pass(plan: &PlanDag, config: &MatConfig, params: &CostParams, report: &mut Report) {
    let est = estimate_ft_plan(plan, config, params);
    let mut max_seen = f64::NEG_INFINITY;
    let mut violations = 0u32;
    for_each_path::<()>(&est.collapsed, |path| {
        let t = path_cost(&est.collapsed, path, params);
        max_seen = max_seen.max(t);
        if t > est.dominant_cost + EPS {
            violations += 1;
        }
        std::ops::ControlFlow::Continue(())
    });
    if violations > 0 {
        report.push(Diagnostic::new(
            Code::FT008,
            Severity::Error,
            format!(
                "{violations} execution path(s) cost more than the dominant path's {} (max seen \
                 {max_seen})",
                est.dominant_cost
            ),
        ));
    } else if (max_seen - est.dominant_cost).abs() > EPS {
        report.push(Diagnostic::new(
            Code::FT008,
            Severity::Error,
            format!(
                "dominant cost {} is not attained by any execution path (max path cost \
                 {max_seen})",
                est.dominant_cost
            ),
        ));
    }
}

/// FT009: shrinking the MTBF (a less reliable cluster) must never shrink
/// the estimate, and the estimate must never undercut the failure-free
/// runtime of its own dominant path.
fn monotonicity_pass(plan: &PlanDag, config: &MatConfig, params: &CostParams, report: &mut Report) {
    let mut prev: Option<(f64, f64)> = None; // (mtbf, dominant_cost)
    for factor in MTBF_LADDER {
        let scaled = CostParams { mtbf_cost: params.mtbf_cost * factor, ..*params };
        let est = estimate_ft_plan(plan, config, &scaled);
        if est.dominant_cost + EPS < est.dominant_runtime {
            report.push(Diagnostic::new(
                Code::FT009,
                Severity::Error,
                format!(
                    "negative failure penalty at MTBF_cost = {}: estimate {} undercuts the \
                     failure-free runtime {}",
                    scaled.mtbf_cost, est.dominant_cost, est.dominant_runtime
                ),
            ));
        }
        if let Some((prev_mtbf, prev_cost)) = prev {
            if est.dominant_cost + EPS < prev_cost {
                report.push(Diagnostic::new(
                    Code::FT009,
                    Severity::Error,
                    format!(
                        "estimate fell from {prev_cost} to {} as MTBF_cost shrank from \
                         {prev_mtbf} to {} — the failure penalty must be monotone in 1/MTBF",
                        est.dominant_cost, scaled.mtbf_cost
                    ),
                ));
            }
        }
        prev = Some((scaled.mtbf_cost, est.dominant_cost));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpde_core::dag::figure2_plan;

    fn validator() -> PlanValidator {
        PlanValidator::new(CostParams::new(60.0, 0.0))
    }

    fn figure3_config(plan: &PlanDag) -> MatConfig {
        MatConfig::from_materialized_free_ops(plan, &[OpId(2), OpId(4), OpId(5), OpId(6)]).unwrap()
    }

    #[test]
    fn figure2_plan_is_clean() {
        let plan = figure2_plan();
        let report = validator().validate_plan("figure2", &plan);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.diagnostics.is_empty(), "{}", report.render());
    }

    #[test]
    fn figure3_ft_plan_is_clean_for_every_config() {
        let plan = figure2_plan();
        let v = validator();
        for config in MatConfig::enumerate(&plan) {
            let report = v.validate_ft_plan("figure2", &plan, &config);
            assert!(report.diagnostics.is_empty(), "{}", report.render());
        }
    }

    #[test]
    fn corrupted_tables_trip_ft001() {
        // Deserialize a plan whose consumer table drops an edge and whose
        // input table contains a forward (cyclic) edge.
        let json = r#"{
            "ops": [
                {"name": "a", "run_cost": 1.0, "mat_cost": 0.1, "binding": "Free"},
                {"name": "b", "run_cost": 1.0, "mat_cost": 0.1, "binding": "Free"}
            ],
            "inputs": [[1], []],
            "consumers": [[], []]
        }"#;
        let plan: PlanDag = serde_json::from_str(json).unwrap();
        let report = validator().validate_plan("corrupted", &plan);
        assert!(!report.is_clean());
        assert!(report.diagnostics.iter().all(|d| d.code == Code::FT001));
        assert!(report.render().contains("violates topological id order"));
    }

    #[test]
    fn mismatched_table_shapes_trip_ft001_without_panicking() {
        let json = r#"{
            "ops": [{"name": "a", "run_cost": 1.0, "mat_cost": 0.1, "binding": "Free"}],
            "inputs": [],
            "consumers": [[]]
        }"#;
        let plan: PlanDag = serde_json::from_str(json).unwrap();
        let report = validator().validate_plan("short tables", &plan);
        assert!(!report.is_clean());
        assert!(report.render().contains("table shapes disagree"));
    }

    #[test]
    fn missing_inverse_edge_trips_ft001() {
        let json = r#"{
            "ops": [
                {"name": "a", "run_cost": 1.0, "mat_cost": 0.1, "binding": "Free"},
                {"name": "b", "run_cost": 1.0, "mat_cost": 0.1, "binding": "Free"}
            ],
            "inputs": [[], [0]],
            "consumers": [[], []]
        }"#;
        let plan: PlanDag = serde_json::from_str(json).unwrap();
        let report = validator().validate_plan("missing inverse", &plan);
        assert!(report.render().contains("missing from consumers"));
    }

    #[test]
    fn disconnected_plan_warns_ft002() {
        let mut b = PlanDag::builder();
        b.free("island a", 1.0, 0.1, &[]).unwrap();
        b.free("island b", 1.0, 0.1, &[]).unwrap();
        let plan = b.build().unwrap();
        let report = validator().validate_plan("islands", &plan);
        assert!(report.is_clean(), "disconnection is a warning, not an error");
        assert_eq!(report.count(Severity::Warn), 1);
        assert_eq!(report.diagnostics[0].code, Code::FT002);
    }

    #[test]
    fn nan_cost_smuggled_through_serde_trips_ft003() {
        let mut plan = figure2_plan();
        plan.op_mut(OpId(3)).run_cost = -2.5;
        let report = validator().validate_plan("negative tr", &plan);
        assert!(!report.is_clean());
        let d = report.diagnostics.iter().find(|d| d.code == Code::FT003).unwrap();
        assert_eq!(d.op, Some(3));
    }

    #[test]
    fn binding_violation_trips_ft004() {
        let mut plan = figure2_plan();
        let config = figure3_config(&plan);
        // Re-bind an operator the config materializes.
        plan.set_binding(OpId(2), Binding::NonMaterializable);
        let report = validator().validate_ft_plan("rebound", &plan, &config);
        assert!(!report.is_clean());
        assert!(report.diagnostics.iter().any(|d| d.code == Code::FT004 && d.op == Some(2)));
    }

    #[test]
    fn config_length_mismatch_trips_ft004() {
        let plan = figure2_plan();
        let mut b = PlanDag::builder();
        b.free("tiny", 1.0, 0.1, &[]).unwrap();
        let tiny = b.build().unwrap();
        let config = MatConfig::none(&tiny);
        let report = validator().validate_ft_plan("wrong shape", &plan, &config);
        assert!(report.diagnostics.iter().any(|d| d.code == Code::FT004));
    }

    #[test]
    fn zero_cost_and_duplicate_names_lint_ft010() {
        let mut b = PlanDag::builder();
        let a = b.free("dup", 0.0, 0.0, &[]).unwrap();
        b.free("dup", 1.0, 0.1, &[a]).unwrap();
        let plan = b.build().unwrap();
        let report = validator().validate_plan("hygiene", &plan);
        assert!(report.is_clean(), "hygiene findings are lints");
        assert_eq!(report.count(Severity::Lint), 2);
        assert!(report.diagnostics.iter().all(|d| d.code == Code::FT010));
    }

    #[test]
    fn diverging_attempts_warn_ft007() {
        // A stage whose runtime dwarfs the MTBF can never hit S = 0.95.
        let mut b = PlanDag::builder();
        b.free("monster", 1e9, 0.1, &[]).unwrap();
        let plan = b.build().unwrap();
        let config = MatConfig::none(&plan);
        let report = PlanValidator::new(CostParams::new(10.0, 1.0))
            .validate_ft_plan("monster", &plan, &config);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::FT007 && d.severity == Severity::Warn));

        // With MTTR = 0 the term `a(c) · MTTR` alone is `∞ · 0` = NaN, but
        // `op_cost` is still +∞, so the report is the same: clean, with
        // FT007's warning and no FT008/FT009 finding.
        let report = PlanValidator::new(CostParams::new(10.0, 0.0))
            .validate_ft_plan("monster", &plan, &config);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::FT007 && d.severity == Severity::Warn));
        assert!(!report.diagnostics.iter().any(|d| matches!(d.code, Code::FT008 | Code::FT009)));
    }

    #[test]
    fn invalid_params_trip_ft007() {
        let plan = figure2_plan();
        let report =
            PlanValidator::new(CostParams::new(-1.0, 0.0)).validate_plan("bad params", &plan);
        assert!(!report.is_clean());
        assert_eq!(report.diagnostics[0].code, Code::FT007);
    }

    use serde_json::Value;

    /// Mutable lookup into a serialized object (the vendored `Value` has
    /// no `IndexMut`).
    fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Object(entries) => {
                entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v).unwrap()
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    /// Mutable access to `ops[0].<field>` of a serialized collapsed plan.
    fn first_op_field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match field_mut(v, "ops") {
            Value::Array(ops) => field_mut(&mut ops[0], key),
            other => panic!("expected ops array, got {other:?}"),
        }
    }

    /// Serializes the real Figure 3 collapse, lets `mutate` corrupt the
    /// JSON, and returns the linted report of the damaged artifact.
    fn lint_corrupted_collapse(mutate: impl Fn(&mut Value)) -> Report {
        let plan = figure2_plan();
        let config = figure3_config(&plan);
        let collapsed = CollapsedPlan::collapse(&plan, &config, 1.0);
        let mut value = serde_json::to_value(&collapsed).unwrap();
        mutate(&mut value);
        let corrupted: CollapsedPlan = serde_json::from_value(&value).unwrap();
        validator().validate_collapsed("corrupted collapse", &plan, &config, &corrupted)
    }

    #[test]
    fn pristine_collapse_passes_validate_collapsed() {
        let report = lint_corrupted_collapse(|_| {});
        assert!(report.diagnostics.is_empty(), "{}", report.render());
    }

    #[test]
    fn dropped_member_trips_ft005() {
        // Remove operator 0 (scan R) from the first group: it then belongs
        // to no collapsed operator.
        let report = lint_corrupted_collapse(|v| {
            let Value::Array(members) = first_op_field(v, "members") else {
                panic!("members is an array")
            };
            members.retain(|m| m.as_u64() != Some(0));
        });
        assert!(!report.is_clean());
        assert!(
            report.diagnostics.iter().any(|d| d.code == Code::FT005 && d.op == Some(0)),
            "{}",
            report.render()
        );
    }

    #[test]
    fn tampered_run_cost_trips_ft006() {
        let report = lint_corrupted_collapse(|v| {
            *first_op_field(v, "run_cost") = Value::Float(99.0);
        });
        assert!(!report.is_clean());
        let d = report.diagnostics.iter().find(|d| d.code == Code::FT006).unwrap();
        assert_eq!(d.stage, Some(0));
        assert!(d.message.contains("Eq. 1"));
    }

    #[test]
    fn tampered_dominant_path_trips_ft006() {
        // Swap the dominant path of group 0 to the cheaper scan-R branch;
        // the maximality re-check must notice the more expensive path.
        let report = lint_corrupted_collapse(|v| {
            *first_op_field(v, "dominant_path") =
                Value::Array(vec![Value::UInt(0), Value::UInt(2)]);
            *first_op_field(v, "run_cost") = Value::Float(3.0); // 1.0 + 2.0
        });
        assert!(!report.is_clean());
        assert!(report.render().contains("a member path of cost"));
    }

    #[test]
    fn tampered_mat_cost_trips_ft006() {
        let report = lint_corrupted_collapse(|v| {
            *first_op_field(v, "mat_cost") = Value::Float(0.0);
        });
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::FT006 && d.message.contains("materialization cost")));
    }

    #[test]
    fn tpch_style_bound_plan_is_clean() {
        // Mixed bindings: the validator accepts always-materialized and
        // non-materializable operators with a conforming config.
        let mut b = PlanDag::builder();
        let s = b.free("scan", 5.0, 2.0, &[]).unwrap();
        let r = b.bound_materialized("repartition", 1.0, 0.5, &[s]).unwrap();
        let j = b.free("join", 4.0, 1.0, &[r]).unwrap();
        b.bound_pipelined("project", 0.5, 0.1, &[j]).unwrap();
        let plan = b.build().unwrap();
        let v = validator();
        for config in MatConfig::enumerate(&plan) {
            let report = v.validate_ft_plan("mixed", &plan, &config);
            assert!(report.diagnostics.is_empty(), "{}", report.render());
        }
    }
}
