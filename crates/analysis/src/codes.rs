//! The unified diagnostic registry: every coded check across the three
//! diagnostic families — plan lints (`FT0xx`), trace conformance
//! (`FT1xx`) and source discipline (`FT2xx`) — described in one table.
//!
//! Each entry carries the code, its *default* severity (passes may
//! escalate or soften individual findings), a one-line summary and a
//! long-form explanation in the spirit of `rustc --explain`. The table
//! is the single source of truth consumed by:
//!
//! * [`Code::description`](crate::diag::Code::description) — the
//!   one-liners shown in rendered reports;
//! * the `ftpde explain FT###` CLI subcommand — the long explanations;
//! * [`ft2xx_markdown_table`] — the FT2xx table embedded in `DESIGN.md`
//!   §14, regenerated verbatim by a test so the docs cannot drift.

use crate::diag::{Code, Severity};

/// One registry entry: everything the tooling knows about a code.
#[derive(Debug, Clone, Copy)]
pub struct CodeInfo {
    /// The stable code.
    pub code: Code,
    /// Default severity of findings with this code. Individual passes
    /// may deviate for specific findings (e.g. hygiene checks demoting
    /// to `Lint` when a value is merely suspicious).
    pub severity: Severity,
    /// One-line summary, shown in report renderings and tables.
    pub summary: &'static str,
    /// Long-form explanation: what the check asserts, why it matters
    /// for the recovery contract, and how to fix or suppress a finding.
    pub explanation: &'static str,
}

/// The full registry, ascending by code. [`Code::ALL`] indexes into it.
pub const REGISTRY: &[CodeInfo] = &[
    CodeInfo {
        code: Code::FT001,
        severity: Severity::Error,
        summary: "DAG structural integrity (shape, ranges, acyclicity)",
        explanation: "The serialized plan must be a well-formed DAG: cost tables sized to \
                      the operator count, every edge endpoint in range, edges listed in \
                      topological order (which implies acyclicity), and the inputs/consumers \
                      adjacency lists exact inverses of each other. Everything downstream — \
                      collapse, costing, search — indexes unchecked into these tables, so a \
                      malformed DAG invalidates every later result.",
    },
    CodeInfo {
        code: Code::FT002,
        severity: Severity::Error,
        summary: "plan is a single weakly-connected component",
        explanation: "A query plan with disconnected islands cannot have come from one query: \
                      some operator's output never reaches a sink, or a sink consumes nothing. \
                      The §3.3 collapse and the Eq. 5-7 cost terms both assume one connected \
                      data flow from sources to sinks.",
    },
    CodeInfo {
        code: Code::FT003,
        severity: Severity::Error,
        summary: "operator costs are finite and non-negative",
        explanation: "`tr(o)` (runtime) and `tm(o)` (materialization time) feed every cost \
                      sum in the paper; a NaN, infinity or negative value silently poisons \
                      dominant-path maxima and the Eq. 8 estimate. The linter rejects them \
                      at the source instead.",
    },
    CodeInfo {
        code: Code::FT004,
        severity: Severity::Error,
        summary: "materialization config respects operator bindings",
        explanation: "Operators can be *bound* (forced-materialize or forced-pipeline, e.g. \
                      blocking operators that always spill). A configuration that flips a \
                      bound operator explores a point outside the legal search space, so any \
                      cost comparison involving it is meaningless.",
    },
    CodeInfo {
        code: Code::FT005,
        severity: Severity::Error,
        summary: "collapsed plan partitions the operator DAG (§3.3)",
        explanation: "Every plan operator must belong to at least one collapsed group; an \
                      operator in several groups must be a shared non-materialized prefix; \
                      group boundaries must materialize or be sinks. This is the §3.3 \
                      partition property that makes per-group cost accounting (and the \
                      recovery contract's 'rewind to the producing stage') well defined.",
    },
    CodeInfo {
        code: Code::FT006,
        severity: Severity::Error,
        summary: "collapsed costs conserve plan costs modulo CONST_pipe (Eq. 1)",
        explanation: "The collapsed group's `tr(c)`/`tm(c)` must equal its dominant member \
                      path's summed costs up to the pipelining constant. If collapse gains \
                      or loses cost, the optimizer compares configurations against a model \
                      that no longer describes the plan it will execute.",
    },
    CodeInfo {
        code: Code::FT007,
        severity: Severity::Error,
        summary: "success probabilities in [0,1], attempts non-negative (Eq. 5-7)",
        explanation: "φ (single-attempt success), γ and η are probabilities and the expected \
                      attempt count `a(c)` is non-negative by construction; values outside \
                      their domain mean the MTBF/MTTR inputs or the closed forms were \
                      mis-evaluated, and the resulting estimate is not a cost.",
    },
    CodeInfo {
        code: Code::FT008,
        severity: Severity::Error,
        summary: "dominant path bounds every execution path (§3.4)",
        explanation: "The §3.4 estimate prices only the dominant (most expensive) path. If \
                      some source→sink path costs more than the reported dominant cost, the \
                      estimate undercounts and the cost-based choice between configurations \
                      is unsound.",
    },
    CodeInfo {
        code: Code::FT009,
        severity: Severity::Error,
        summary: "failure penalty is monotone in 1/MTBF and non-negative",
        explanation: "As failures become more frequent (1/MTBF grows) the estimated runtime \
                      under failures must not decrease, and it can never undercut the \
                      failure-free runtime. A violation means the Eq. 5-7 terms interact \
                      incorrectly for this plan shape.",
    },
    CodeInfo {
        code: Code::FT010,
        severity: Severity::Lint,
        summary: "plan hygiene (zero costs, duplicate names, enumerability)",
        explanation: "Non-fatal oddities worth a look: zero-cost operators (often a \
                      placeholder that should be bound), duplicate operator names (confusing \
                      reports), and free-operator counts beyond exhaustive enumerability \
                      (the oracle cannot cross-check the search).",
    },
    CodeInfo {
        code: Code::FT101,
        severity: Severity::Error,
        summary: "trace well-formedness (timestamps, durations, single terminal)",
        explanation: "A recorded trace must parse event by event, with sane (non-negative, \
                      in-range) timestamps and durations, at most one terminal event \
                      (`query_completed` / `query_aborted`) and nothing after it. Conformance \
                      replay builds on these basics; a torn trace is reported here rather \
                      than as a bogus contract violation.",
    },
    CodeInfo {
        code: Code::FT102,
        severity: Severity::Error,
        summary: "span/track discipline (no overlap, attempts nest in stages)",
        explanation: "Spans on one `(pid, tid)` track must nest or be disjoint — partial \
                      overlap means the recorder was driven inconsistently — and a worker's \
                      `attempt` span must fall inside its stage's span interval.",
    },
    CodeInfo {
        code: Code::FT103,
        severity: Severity::Error,
        summary: "stage identity and completeness against the collapsed plan",
        explanation: "Every traced stage must map to a stage of the collapsed plan the trace \
                      claims to execute, and a completed query must have executed (or \
                      legitimately skipped) every stage. Missing or unknown stages mean the \
                      trace and the plan disagree about what ran.",
    },
    CodeInfo {
        code: Code::FT104,
        severity: Severity::Error,
        summary: "stage ordering respects collapsed-plan dependencies",
        explanation: "No stage may complete before its collapsed-plan producers completed \
                      (or were skipped) within the same attempt: data cannot flow backwards. \
                      A violation usually indicates mislabeled stage ids or a scheduler bug.",
    },
    CodeInfo {
        code: Code::FT105,
        severity: Severity::Error,
        summary: "re-execution justified by restart, rewind or corruption (§2.2)",
        explanation: "The §2.2 recovery contract: a stage runs again only after a query \
                      restart, an `input_rewind` naming it, or a `segment_corrupt` demoting \
                      its output. Unjustified re-execution means work (and cost) the model \
                      never accounted for.",
    },
    CodeInfo {
        code: Code::FT106,
        severity: Severity::Error,
        summary: "skips only for materialized non-sink stages with a prior put",
        explanation: "A stage may be skipped on retry only if the configuration materializes \
                      it, it is not a sink, and a prior materialization (or pre-seeded store \
                      state surviving the restart window) backs the skip. Skipping anything \
                      else silently drops output.",
    },
    CodeInfo {
        code: Code::FT107,
        severity: Severity::Error,
        summary: "store lifecycle (puts, gets, corruption rewinds match config)",
        explanation: "Materializations must match the configuration (only config-materializing \
                      operators put), every cross-stage input must be available when its \
                      consumer starts, and a detected corruption must be followed by a \
                      rewind of the producing stage.",
    },
    CodeInfo {
        code: Code::FT108,
        severity: Severity::Error,
        summary: "observed stage timings conserve the collapsed cost model (Eq. 1)",
        explanation: "Observed per-stage wall-clock must agree with the collapsed cost \
                      accounting (attempt sums, Eq. 1 conservation) within tolerance; a \
                      mismatch means the trace and the model describe different executions.",
    },
    CodeInfo {
        code: Code::FT204,
        severity: Severity::Lint,
        summary: "unwrap/expect/panic! in library code",
        explanation: "A panic in library code tears down a worker thread mid-stage — the \
                      engine then observes a failure that no failure injector scheduled, \
                      which skews recovery statistics and can poison shared state. Library \
                      crates should return `Result` and let the coordinator decide. This is \
                      a hygiene lint (never fails the gate): the count is tracked so it \
                      ratchets down over time. Tests, benches, binaries and examples are \
                      exempt.",
    },
    CodeInfo {
        code: Code::FT205,
        severity: Severity::Error,
        summary: "rename on the store commit path without a paired fsync",
        explanation: "The durable store replaces a file only by write-temp → `sync_all` → \
                      rename → directory fsync: a rename that is not paired with an fsync \
                      in the same function can publish a file whose bytes are still in \
                      the page cache, so a crash leaves a checkpoint log that is torn or \
                      empty where its commits should be. Any function in `crates/store` \
                      that renames must also `sync_all`/`sync_data`.",
    },
    CodeInfo {
        code: Code::FT301,
        severity: Severity::Error,
        summary: "nondeterministic replay: same seed, different canonical trace",
        explanation: "The simulation harness runs every seeded scenario twice and compares \
                      the canonical projections of the two traces (per-track event order, \
                      sequence-index timestamps, wall-clock args stripped). Any byte \
                      difference means something outside the seed influenced execution — \
                      unshimmed randomness, hash-order iteration reaching output, a racy \
                      event emitted on a deterministic track — and every property the \
                      harness checks becomes unreproducible. Minimize with `ftpde sim \
                      --seed N --shrink` and fix the nondeterminism at its source; never \
                      quarantine an FT301 without a tracking note in the bug base.",
    },
    CodeInfo {
        code: Code::FT302,
        severity: Severity::Error,
        summary: "result divergence: faulted run disagrees with failure-free run",
        explanation: "Fault tolerance means failures may cost time but never answers: the \
                      harness executes each workload once without faults and once with the \
                      seeded schedule, then compares canonicalized result rows. A \
                      divergence means recovery lost, duplicated or corrupted data — e.g. \
                      a consumer read a damaged segment that was never demoted, or a \
                      rewind skipped a producer. This is the oracle that catches 'silently \
                      wrong answers', the worst failure class a fault-tolerant engine can \
                      have; FT1xx conformance alone cannot see it because the trace of a \
                      wrong-answer run can be perfectly contract-shaped.",
    },
    CodeInfo {
        code: Code::FT303,
        severity: Severity::Error,
        summary: "panic during simulated execution",
        explanation: "The engine must treat every injected fault — kills, torn or corrupt \
                      segments, lost writes, stragglers — as a recoverable condition: \
                      demote, rewind, redeploy or restart, but never unwind. The harness \
                      wraps each simulated run in `catch_unwind`; a caught panic (or a \
                      poisoned run that could not finish) is reported with the panic \
                      payload in the message. Shrink the seed to find the minimal fault \
                      sequence that trips it; the fix belongs in the engine or store, not \
                      in the harness.",
    },
    CodeInfo {
        code: Code::FT304,
        severity: Severity::Warn,
        summary: "scheduled faults never fired (schedule outran the run)",
        explanation: "A fault schedule is derived from the seed before the run starts, so \
                      it can name coordinates the execution never reaches — a stage that \
                      was skipped, a read ordinal past the last get, a write the \
                      configuration never performs. Unfired faults are reported as a \
                      warning: the run is still valid evidence, but coverage is lower \
                      than the schedule suggests, and a harness change that silently \
                      stops firing most faults would otherwise look like a sudden drop \
                      in found bugs. The shrinker also uses this signal: an event that \
                      did not fire is always safe to drop.",
    },
];

/// Looks up the registry entry for `code`. Every code has one; the
/// registry test enforces the bijection.
pub fn info(code: Code) -> &'static CodeInfo {
    REGISTRY
        .iter()
        .find(|ci| ci.code == code)
        .expect("every Code variant has a registry entry (enforced by tests)")
}

/// Parses `"FT105"` (case-insensitive) into a [`Code`].
pub fn parse(name: &str) -> Option<Code> {
    let name = name.trim();
    Code::ALL.iter().copied().find(|c| c.as_str().eq_ignore_ascii_case(name))
}

/// Renders the long-form explanation of one code, `rustc --explain`
/// style: header line, then the explanation re-wrapped to ~78 columns.
pub fn explain(code: Code) -> String {
    let ci = info(code);
    let mut out = format!("{} [{}]: {}\n\n", ci.code, ci.severity, ci.summary);
    let mut col = 0usize;
    for word in ci.explanation.split_whitespace() {
        if col > 0 && col + 1 + word.len() > 78 {
            out.push('\n');
            col = 0;
        } else if col > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += word.len();
    }
    out.push('\n');
    out
}

/// The FT2xx (source-discipline) rows as a Markdown table — the exact
/// text embedded in `DESIGN.md` §14 between the `FT2XX-TABLE` markers.
/// A test regenerates the table and diffs it against the docs, so the
/// table in the book cannot drift from the registry.
pub fn ft2xx_markdown_table() -> String {
    let mut out = String::from("| code | default severity | checks |\n|---|---|---|\n");
    for ci in REGISTRY.iter().filter(|ci| ci.code.as_str().starts_with("FT2")) {
        out.push_str(&format!("| {} | {} | {} |\n", ci.code, ci.severity, ci.summary));
    }
    out
}

/// The whole registry as a severity-sorted text table (most severe
/// first, ascending code within a severity) — what `ftpde explain
/// --list` prints.
pub fn registry_table() -> String {
    let mut rows: Vec<&CodeInfo> = REGISTRY.iter().collect();
    rows.sort_by_key(|ci| (std::cmp::Reverse(ci.severity), ci.code.as_str()));
    let mut out = String::from("code   severity  checks\n-----  --------  ------\n");
    for ci in rows {
        out.push_str(&format!("{:<5}  {:<8}  {}\n", ci.code.as_str(), ci.severity, ci.summary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_a_bijection_over_all_codes() {
        assert_eq!(REGISTRY.len(), Code::ALL.len());
        for (i, code) in Code::ALL.iter().enumerate() {
            assert_eq!(REGISTRY[i].code, *code, "registry sorted in Code::ALL order");
            assert!(!info(*code).summary.is_empty());
            assert!(info(*code).explanation.len() > 80, "{code}: explanation too thin");
            let text = explain(*code);
            assert!(
                text.lines().all(|l| l.len() <= 79),
                "{code}: over-long explain line in:\n{text}"
            );
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_unknowns() {
        for code in Code::ALL {
            assert_eq!(parse(code.as_str()), Some(*code));
            assert_eq!(parse(&code.as_str().to_lowercase()), Some(*code));
        }
        assert_eq!(parse("FT999"), None);
        assert_eq!(parse(""), None);
        assert_eq!(parse("ft20"), None);
    }

    #[test]
    fn explain_wraps_and_names_the_code() {
        let text = explain(Code::FT205);
        assert!(text.starts_with("FT205 [error]:"));
        assert!(text.lines().all(|l| l.len() <= 79), "over-long line in:\n{text}");
        assert!(text.contains("fsync"));
    }

    #[test]
    fn ft2xx_table_lists_exactly_the_source_codes() {
        let table = ft2xx_markdown_table();
        for code in ["FT204", "FT205"] {
            assert!(table.contains(code), "missing {code}");
        }
        assert!(!table.contains("FT105"));
        assert_eq!(table.lines().count(), 2 + 2);
    }

    #[test]
    fn registry_table_is_severity_sorted_and_complete() {
        let table = registry_table();
        for code in Code::ALL {
            assert!(table.contains(code.as_str()), "missing {code}");
        }
        // Most severe first: the first data row is an error, and no
        // error row appears after the first non-error row.
        let rows: Vec<&str> = table.lines().skip(2).collect();
        assert_eq!(rows.len(), Code::ALL.len());
        let first_non_error =
            rows.iter().position(|r| !r.contains("error")).expect("lint rows exist");
        assert!(rows[first_non_error..].iter().all(|r| !r.contains("  error  ")), "{table}");
    }
}
