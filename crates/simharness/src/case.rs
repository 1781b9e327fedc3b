//! A simulation case: one workload plus one fault schedule, derived from
//! one seed — the unit the runner executes, the shrinker minimizes and
//! the bug base commits.
//!
//! The schedule is derived *after* the workload from the same RNG
//! stream, against the workload's actual collapsed stage structure:
//! kills target real `(stage, node, attempt)` coordinates, storage
//! faults target `(op, node)` slots that the run will actually write
//! (materializing roots of non-sink stages). Both recovery modes draw
//! storage faults: a kill lands before the node reads anything, so a
//! coarse restart replays as deterministically as a fine-grained redeploy.

use ftpde_core::prelude::{CollapsedPlan, MatConfig, PlanDag};
use ftpde_sim::prelude::{FaultEvent, FaultSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::workload::{RecoveryKind, Workload};

/// A deliberately wrong behavior the case may switch on, for harness
/// self-tests and the seeded bug-base entry. Mirrors
/// [`ftpde_store::StoreBug`] as a serializable knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BugMode {
    /// Correct behavior everywhere.
    #[default]
    None,
    /// The store serves damaged rows instead of demoting them (checksum
    /// verification "disabled") — caught by the FT302 result oracle.
    ServeCorruptData,
}

impl BugMode {
    /// The store-layer bug this mode injects.
    pub fn store_bug(self) -> ftpde_store::StoreBug {
        match self {
            BugMode::None => ftpde_store::StoreBug::None,
            BugMode::ServeCorruptData => ftpde_store::StoreBug::ServeCorruptData,
        }
    }
}

/// One fully specified simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimCase {
    /// The seed this case was derived from (kept for provenance; a
    /// shrunk case no longer re-derives from it).
    pub seed: u64,
    /// The workload to run.
    pub workload: Workload,
    /// The faults to inject.
    pub schedule: FaultSchedule,
    /// Deliberate misbehavior, for self-tests ([`BugMode::None`] in
    /// normal sweeps).
    pub bug: BugMode,
}

impl SimCase {
    /// Derives the full case for `seed`: workload first, then a schedule
    /// against that workload's stage structure, from one RNG stream.
    pub fn derive(seed: u64) -> SimCase {
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = Workload::derive(&mut rng);
        let plan = workload.plan();
        let dag = plan.to_plan_dag();
        // Config resolution can only fail for `Best` under invalid cost
        // params; the derived MTBFs are all valid, so fall back to none
        // rather than poison derivation determinism with an error path.
        let config = workload.mat_config(&dag).unwrap_or_else(|_| MatConfig::none(&dag));
        let schedule = derive_schedule(&mut rng, &workload, &dag, &config);
        SimCase { seed, workload, schedule, bug: BugMode::None }
    }

    /// The same case with a deliberate bug switched on.
    pub fn with_bug(mut self, bug: BugMode) -> SimCase {
        self.bug = bug;
        self
    }
}

/// Stage roots (collapsed-plan execution units) of `dag` under `config`.
pub fn stage_roots(dag: &PlanDag, config: &MatConfig) -> Vec<u32> {
    let collapsed = CollapsedPlan::collapse(dag, config, 1.0);
    collapsed.iter().map(|(_, c)| c.root.0).collect()
}

/// `(op, node)`-addressable store slots the run will write: materializing
/// roots of non-sink stages, crossed with every node.
pub fn store_slots(dag: &PlanDag, config: &MatConfig, nodes: u32) -> Vec<(u32, u32)> {
    let collapsed = CollapsedPlan::collapse(dag, config, 1.0);
    let mut slots = Vec::new();
    for (id, c) in collapsed.iter() {
        if !collapsed.consumers(id).is_empty() && config.materializes(c.root) {
            for node in 0..nodes {
                slots.push((c.root.0, node));
            }
        }
    }
    slots
}

/// Derives a fault schedule for `workload` from `rng`: 1–2 events under
/// coarse recovery, 1–4 under fine-grained, mixing kills with storage
/// faults when the configuration materializes anything.
pub fn derive_schedule(
    rng: &mut StdRng,
    workload: &Workload,
    dag: &PlanDag,
    config: &MatConfig,
) -> FaultSchedule {
    let roots = stage_roots(dag, config);
    let slots = store_slots(dag, config, workload.nodes);
    let coarse = workload.recovery == RecoveryKind::Coarse;
    let count = if coarse { rng.gen_range(1..=2) } else { rng.gen_range(1..=4) };
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        if slots.is_empty() || rng.gen_bool(0.5) {
            let stage = roots[rng.gen_range(0..roots.len())];
            let node = rng.gen_range(0..workload.nodes);
            // Under coarse recovery the attempt coordinate is the query
            // restart count, so attempt 0 always terminates; under fine
            // recovery an attempt-1 kill only fires after another fault
            // already killed attempt 0 (often unfired — FT304's beat).
            let attempt = if !coarse && rng.gen_bool(0.2) { 1 } else { 0 };
            events.push(FaultEvent::KillNode { stage, node, attempt });
        } else {
            let (op, node) = slots[rng.gen_range(0..slots.len())];
            events.push(match rng.gen_range(0u32..4) {
                0 => FaultEvent::TornWrite { op, node },
                1 => FaultEvent::LostPut { op, node },
                2 => FaultEvent::CorruptRead { op, node, nth_get: rng.gen_range(0..=2) },
                _ => FaultEvent::DelayIo {
                    op,
                    node,
                    virtual_ms: rng.gen_range(1..=5),
                    uses: rng.gen_range(1..=3),
                },
            });
        }
    }
    FaultSchedule { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::QueryKind;

    #[test]
    fn case_derivation_is_deterministic_and_round_trips() {
        for seed in 0..32u64 {
            let a = SimCase::derive(seed);
            let b = SimCase::derive(seed);
            assert_eq!(a, b, "seed {seed}");
            assert!(!a.schedule.is_empty());
            let text = serde_json::to_string(&a).unwrap();
            let back: SimCase = serde_json::from_str(&text).unwrap();
            assert_eq!(a, back, "seed {seed}");
        }
    }

    #[test]
    fn coarse_cases_draw_storage_faults_too() {
        let coarse: Vec<SimCase> = (0..256u64)
            .map(SimCase::derive)
            .filter(|c| c.workload.recovery == RecoveryKind::Coarse)
            .collect();
        assert!(coarse.len() > 10, "only {} coarse cases in 256 seeds", coarse.len());
        assert!(
            coarse.iter().any(|c| c.schedule.events.iter().any(FaultEvent::is_store_fault)),
            "no coarse case in 256 seeds carries a storage fault"
        );
    }

    #[test]
    fn schedules_target_real_coordinates() {
        for seed in 0..64u64 {
            let c = SimCase::derive(seed);
            let plan = c.workload.plan();
            let dag = plan.to_plan_dag();
            let config = c.workload.mat_config(&dag).unwrap_or_else(|_| MatConfig::none(&dag));
            let roots = stage_roots(&dag, &config);
            let slots = store_slots(&dag, &config, c.workload.nodes);
            for e in &c.schedule.events {
                match *e {
                    FaultEvent::KillNode { stage, node, .. } => {
                        assert!(roots.contains(&stage), "seed {seed}: stage {stage}");
                        assert!(node < c.workload.nodes);
                    }
                    _ => {
                        let slot = e.slot().unwrap();
                        assert!(slots.contains(&slot), "seed {seed}: slot {slot:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn store_slots_empty_when_nothing_materializes() {
        let plan = crate::workload::random_plan(3, 2);
        let dag = plan.to_plan_dag();
        assert!(store_slots(&dag, &MatConfig::none(&dag), 3).is_empty());
    }

    #[test]
    fn bug_mode_maps_to_the_store_knob() {
        assert_eq!(BugMode::None.store_bug(), ftpde_store::StoreBug::None);
        assert_eq!(BugMode::ServeCorruptData.store_bug(), ftpde_store::StoreBug::ServeCorruptData);
        let c = SimCase::derive(1).with_bug(BugMode::ServeCorruptData);
        assert_eq!(c.bug, BugMode::ServeCorruptData);
        // Bug mode survives the wire.
        let back: SimCase = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(back.bug, BugMode::ServeCorruptData);
        assert!(matches!(
            back.workload.query,
            QueryKind::Q1 | QueryKind::Q3 | QueryKind::Q5 | QueryKind::Random { .. }
        ));
    }
}
