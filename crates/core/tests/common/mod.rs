//! Strategies shared by the property-test targets of this crate.

use proptest::prelude::*;

use ftpde_core::prelude::*;

/// Strategy: a random DAG-structured plan with `1..=max_ops` operators.
/// Each operator picks a random subset of earlier operators as inputs
/// (possibly none → extra sources), random costs, and a random binding.
pub fn arb_plan(max_ops: usize) -> impl Strategy<Value = PlanDag> {
    let op = (0.01f64..50.0, 0.0f64..20.0, 0u8..6, any::<u64>());
    collection::vec(op, 1..=max_ops).prop_map(|specs| {
        let mut b = PlanDag::builder();
        let mut ids: Vec<OpId> = Vec::new();
        for (i, (tr, tm, bind, seed)) in specs.into_iter().enumerate() {
            // Pick up to two distinct earlier ops as inputs.
            let mut inputs = Vec::new();
            if !ids.is_empty() {
                let a = (seed as usize) % (ids.len() + 1);
                if a < ids.len() {
                    inputs.push(ids[a]);
                }
                let c = ((seed >> 32) as usize) % (ids.len() + 1);
                if c < ids.len() && !inputs.contains(&ids[c]) {
                    inputs.push(ids[c]);
                }
            }
            let op = match bind {
                0..=3 => Operator::free(format!("op{i}"), tr, tm),
                4 => Operator::always_materialized(format!("op{i}"), tr, tm),
                _ => Operator::non_materializable(format!("op{i}"), tr, tm),
            };
            ids.push(b.add(op, &inputs).unwrap());
        }
        b.build().unwrap()
    })
}
