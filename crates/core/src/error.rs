//! Error type for the core fault-tolerance crate.

use std::fmt;

use crate::operator::OpId;

/// Errors produced while building plans or running the cost-based search.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A plan must contain at least one operator.
    EmptyPlan,
    /// An operator id referenced an operator that does not exist in the plan.
    UnknownOperator(OpId),
    /// An operator listed itself as one of its own inputs.
    SelfLoop(OpId),
    /// An edge was declared twice between the same pair of operators.
    DuplicateEdge { from: OpId, to: OpId },
    /// A cost value was negative or not finite.
    InvalidCost { op: OpId, what: &'static str, value: f64 },
    /// A cost-model parameter was out of its valid domain.
    InvalidParameter { what: &'static str, value: f64 },
    /// The search was invoked with an empty set of candidate plans.
    NoCandidatePlans,
    /// A candidate plan has too many free operators for its `2^n`
    /// materialization configurations to be counted in a `u64`.
    TooManyFreeOperators { plan_index: usize, free_ops: usize },
    /// The candidates' configuration counts `Σ 2^n` overflow a `u64` once
    /// candidate `plan_index` is added, so the search's counters could not
    /// hold them.
    ConfigCountOverflow { plan_index: usize },
    /// No fault-tolerant plan has a finite estimated runtime: in every
    /// configuration some path cost is +∞ — the sum overflows, or an
    /// operator's attempts `a(c)` diverge because it can never reach the
    /// success target — so the search has no winner.
    NoFiniteEstimate,
    /// A materialization configuration was built for a different plan shape.
    ConfigMismatch { expected_ops: usize, got_ops: usize },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyPlan => write!(f, "plan contains no operators"),
            CoreError::UnknownOperator(id) => write!(f, "unknown operator id {id:?}"),
            CoreError::SelfLoop(id) => {
                write!(f, "operator {id:?} lists itself as an input (self-loop)")
            }
            CoreError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge {from:?} -> {to:?}")
            }
            CoreError::InvalidCost { op, what, value } => {
                write!(f, "operator {op:?}: {what} cost {value} is not a finite non-negative number")
            }
            CoreError::InvalidParameter { what, value } => {
                write!(f, "cost parameter {what} = {value} is outside its valid domain")
            }
            CoreError::NoCandidatePlans => write!(f, "no candidate plans supplied to the search"),
            CoreError::TooManyFreeOperators { plan_index, free_ops } => write!(
                f,
                "candidate plan {plan_index} has {free_ops} free operators; the search \
                 enumerates at most 63"
            ),
            CoreError::ConfigCountOverflow { plan_index } => write!(
                f,
                "candidate plans 0..={plan_index} have more configurations in all than a u64 \
                 counts; the search's counters would overflow"
            ),
            CoreError::NoFiniteEstimate => {
                write!(
                    f,
                    "no fault-tolerant plan has a finite estimated runtime (costs overflow or \
                     attempts diverge)"
                )
            }
            CoreError::ConfigMismatch { expected_ops, got_ops } => write!(
                f,
                "materialization configuration covers {got_ops} operators but the plan has {expected_ops}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CoreError::InvalidCost { op: OpId(3), what: "runtime", value: -1.0 };
        let s = e.to_string();
        assert!(s.contains("runtime"));
        assert!(s.contains("-1"));

        let e = CoreError::ConfigMismatch { expected_ops: 5, got_ops: 3 };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: E) {}
        assert_err(CoreError::EmptyPlan);
    }
}
