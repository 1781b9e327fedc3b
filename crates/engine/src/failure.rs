//! Deterministic failure injection for the execution engine.
//!
//! The paper injects process kills from pre-generated traces. Wall-clock
//! traces make in-process tests flaky, so the engine injects failures at a
//! *logical* coordinate instead: `(stage, node, attempt)` — kill node
//! `node` when it is deployed on the sub-plan rooted at `stage` for the
//! `attempt`-th time, before it reads its inputs. This exercises exactly
//! the same recovery code paths (the attempt's work lost, redeployment,
//! re-execution from the last materialized intermediate) with perfectly
//! reproducible schedules; the time-domain behaviour is the discrete-event
//! simulator's job (`ftpde-sim`). Only the coordinator asks, on its own
//! thread, before it deploys each node, so the injector holds no lock.

use std::cell::RefCell;
use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A planned node kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Injection {
    /// Root operator id of the sub-plan (stage) being executed.
    pub stage: u32,
    /// The node to kill.
    pub node: usize,
    /// Which execution attempt of that (stage, node) to kill (0 = first).
    pub attempt: u32,
}

/// A deterministic failure injector, asked by the coordinator's thread.
#[derive(Debug, Default)]
pub struct FailureInjector {
    planned: HashSet<Injection>,
    fired: RefCell<Vec<Injection>>,
}

impl FailureInjector {
    /// No failures at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fails exactly the given coordinates.
    pub fn with(injections: impl IntoIterator<Item = Injection>) -> Self {
        FailureInjector { planned: injections.into_iter().collect(), fired: RefCell::default() }
    }

    /// Randomly kills first attempts: every `(stage, node)` pair in
    /// `stages × nodes` fails its first execution with probability `p`,
    /// drawn deterministically from `seed`. (Only first attempts are
    /// killed so every query eventually terminates, mirroring the paper's
    /// one-or-two-concurrent-failures regime, §2.2.)
    pub fn random_first_attempts(stages: &[u32], nodes: usize, p: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut planned = HashSet::new();
        for &stage in stages {
            for node in 0..nodes {
                if rng.gen::<f64>() < p {
                    planned.insert(Injection { stage, node, attempt: 0 });
                }
            }
        }
        FailureInjector { planned, fired: RefCell::default() }
    }

    /// `true` iff this `(stage, node, attempt)` execution should be killed.
    /// Recording is idempotent per coordinate.
    pub fn should_fail(&self, stage: u32, node: usize, attempt: u32) -> bool {
        let inj = Injection { stage, node, attempt };
        if self.planned.contains(&inj) {
            let mut fired = self.fired.borrow_mut();
            if !fired.contains(&inj) {
                fired.push(inj);
            }
            true
        } else {
            false
        }
    }

    /// The injections that actually fired, in firing order.
    pub fn fired(&self) -> Vec<Injection> {
        self.fired.borrow().clone()
    }

    /// Number of planned injections.
    pub fn planned_count(&self) -> usize {
        self.planned.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_injection_fires_once_per_coordinate() {
        let inj = FailureInjector::with([Injection { stage: 5, node: 2, attempt: 0 }]);
        assert!(inj.should_fail(5, 2, 0));
        assert!(inj.should_fail(5, 2, 0)); // still true (same coordinate)
        assert!(!inj.should_fail(5, 2, 1)); // retry survives
        assert!(!inj.should_fail(5, 1, 0));
        assert_eq!(inj.fired().len(), 1, "recorded once");
    }

    #[test]
    fn none_never_fires() {
        let inj = FailureInjector::none();
        assert!(!inj.should_fail(0, 0, 0));
        assert!(inj.fired().is_empty());
        assert_eq!(inj.planned_count(), 0);
    }

    #[test]
    fn random_plan_is_deterministic_and_respects_probability() {
        let stages = [1u32, 2, 3, 4];
        let a = FailureInjector::random_first_attempts(&stages, 10, 0.5, 9);
        let b = FailureInjector::random_first_attempts(&stages, 10, 0.5, 9);
        assert_eq!(a.planned, b.planned);
        // 40 coordinates at p=0.5: expect roughly half.
        assert!((10..=30).contains(&a.planned_count()), "{}", a.planned_count());
        let none = FailureInjector::random_first_attempts(&stages, 10, 0.0, 9);
        assert_eq!(none.planned_count(), 0);
        let all = FailureInjector::random_first_attempts(&stages, 10, 1.0, 9);
        assert_eq!(all.planned_count(), 40);
    }

    #[test]
    fn random_plan_only_kills_first_attempts() {
        let inj = FailureInjector::random_first_attempts(&[7], 4, 1.0, 3);
        for node in 0..4 {
            assert!(inj.should_fail(7, node, 0));
            assert!(!inj.should_fail(7, node, 1));
        }
    }
}
