//! Diagnostic model of the plan linter: coded findings with a severity,
//! collected into a renderable, serializable [`Report`].
//!
//! Every check the linter performs has a stable code (`FT001`…): CI can
//! gate on severities, dashboards can trend individual codes, and the
//! diagnostic table in `DESIGN.md` §9 documents what each one asserts.

use std::fmt;

use serde::{Deserialize, Serialize};

/// How bad a finding is. Ordering is by increasing severity.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Severity {
    /// Style/hygiene hint; never fails a build.
    #[default]
    Lint,
    /// Suspicious but not provably wrong.
    Warn,
    /// A violated invariant: the plan or the cost model is broken.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Lint => write!(f, "lint"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable identifier of one linter check. Codes order by family and
/// number (declaration order is ascending).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Code {
    /// DAG structural integrity: table shapes, edge endpoints in range,
    /// topological edge order (acyclicity), inputs/consumers inverse.
    FT001,
    /// Connectedness: the plan forms a single weakly-connected component.
    FT002,
    /// Operator costs `tr(o)` / `tm(o)` finite and non-negative.
    FT003,
    /// Binding consistency: a configuration respects bound operators.
    FT004,
    /// Collapsed-plan partition: every operator in a collapsed group,
    /// multi-membership only for shared non-materialized prefixes,
    /// boundaries materializing or sinks (§3.3).
    FT005,
    /// Cost conservation: `tr(c)`/`tm(c)` match the dominant path modulo
    /// `CONST_pipe` (Eq. 1).
    FT006,
    /// Probability domain: `φ`/`γ`/`η` in `[0, 1]`, attempts `a(c) ≥ 0`
    /// (Eq. 5–7).
    FT007,
    /// Dominant-path supremacy: the dominant cost bounds every
    /// source→sink path cost (§3.4).
    FT008,
    /// Failure-penalty monotonicity: the estimate never decreases as
    /// `1/MTBF` grows, and never undercuts the failure-free runtime.
    FT009,
    /// Plan hygiene: zero-cost operators, duplicate names, free-operator
    /// counts beyond exhaustive enumerability.
    FT010,
    /// Trace well-formedness: parseable events, sane timestamps and
    /// durations, at most one terminal (`query_completed` /
    /// `query_aborted`), nothing after the terminal.
    FT101,
    /// Span/track discipline: spans on one `(pid, tid)` track do not
    /// partially overlap; worker `attempt` spans nest inside their
    /// stage's span interval.
    FT102,
    /// Stage identity and completeness: every traced stage maps to a
    /// collapsed-plan stage, and a completed query executed (or
    /// legitimately skipped) every stage.
    FT103,
    /// Stage ordering: no stage completes before its collapsed-plan
    /// producers have completed (or been skipped) in the same attempt.
    FT104,
    /// Re-execution justification (§2.2 recovery contract): a stage runs
    /// again only after a query restart, an `input_rewind` naming it, or
    /// a `segment_corrupt` demoting its output.
    FT105,
    /// Skip legitimacy: only materializing, non-sink stages may be
    /// skipped, and a skip is backed by a prior materialization of that
    /// stage (or pre-seeded store state).
    FT106,
    /// Store lifecycle: materializations only for config-materializing
    /// operators, every cross-stage input available when its consumer
    /// starts, corruption followed by a producer rewind.
    FT107,
    /// Observed-cost conservation (Eq. 1): stage wall-clock agrees with
    /// the collapsed cost model / attempt accounting within tolerance.
    FT108,
    /// Source discipline: `unwrap`/`expect`/`panic!` in library code.
    FT204,
    /// Source discipline: fsync pairing — a rename on the store commit
    /// path without `sync_all`/`sync_data` in the same function.
    FT205,
    /// Simulation harness: replaying the same seed produced a different
    /// canonical trace (nondeterministic execution).
    FT301,
    /// Simulation harness: the faulted run's result diverged from the
    /// failure-free reference (recovery lost or corrupted data).
    FT302,
    /// Simulation harness: the engine panicked during a simulated run.
    FT303,
    /// Simulation harness: scheduled faults never fired (the schedule
    /// outran the run).
    FT304,
}

impl Code {
    /// Every code, ascending — the registry ([`crate::codes::REGISTRY`])
    /// is kept in the same order.
    pub const ALL: &'static [Code] = &[
        Code::FT001,
        Code::FT002,
        Code::FT003,
        Code::FT004,
        Code::FT005,
        Code::FT006,
        Code::FT007,
        Code::FT008,
        Code::FT009,
        Code::FT010,
        Code::FT101,
        Code::FT102,
        Code::FT103,
        Code::FT104,
        Code::FT105,
        Code::FT106,
        Code::FT107,
        Code::FT108,
        Code::FT204,
        Code::FT205,
        Code::FT301,
        Code::FT302,
        Code::FT303,
        Code::FT304,
    ];

    /// The code as it appears in reports, e.g. `"FT005"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::FT001 => "FT001",
            Code::FT002 => "FT002",
            Code::FT003 => "FT003",
            Code::FT004 => "FT004",
            Code::FT005 => "FT005",
            Code::FT006 => "FT006",
            Code::FT007 => "FT007",
            Code::FT008 => "FT008",
            Code::FT009 => "FT009",
            Code::FT010 => "FT010",
            Code::FT101 => "FT101",
            Code::FT102 => "FT102",
            Code::FT103 => "FT103",
            Code::FT104 => "FT104",
            Code::FT105 => "FT105",
            Code::FT106 => "FT106",
            Code::FT107 => "FT107",
            Code::FT108 => "FT108",
            Code::FT204 => "FT204",
            Code::FT205 => "FT205",
            Code::FT301 => "FT301",
            Code::FT302 => "FT302",
            Code::FT303 => "FT303",
            Code::FT304 => "FT304",
        }
    }

    /// One-line description of what the check asserts, from the unified
    /// registry ([`crate::codes`]).
    pub fn description(self) -> &'static str {
        crate::codes::info(self).summary
    }

    /// The default severity of findings with this code, from the unified
    /// registry ([`crate::codes`]). Passes may deviate per finding.
    pub fn default_severity(self) -> Severity {
        crate::codes::info(self).severity
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a coded, located, human-readable message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Which check fired.
    pub code: Code,
    /// How bad it is.
    pub severity: Severity,
    /// What went wrong, with the offending values spelled out.
    pub message: String,
    /// Plan operator the finding points at, if any.
    pub op: Option<u32>,
    /// Collapsed-operator (stage) the finding points at, if any.
    pub stage: Option<u32>,
    /// Source file the finding points at (workspace-relative), if any —
    /// used by the source-discipline passes. Serialized as `null` when
    /// absent (the vendored serde derive has no optional-key support).
    pub file: Option<String>,
    /// 1-based source line within [`Self::file`], if any.
    pub line: Option<u32>,
    /// 1-based source column within [`Self::line`], if any. Serialized
    /// as `null` when absent, like the other optional locations.
    pub column: Option<u32>,
}

impl Diagnostic {
    /// Creates a finding with no location.
    pub fn new(code: Code, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            op: None,
            stage: None,
            file: None,
            line: None,
            column: None,
        }
    }

    /// Attaches a plan operator location.
    #[must_use]
    pub fn at_op(mut self, op: u32) -> Self {
        self.op = Some(op);
        self
    }

    /// Attaches a collapsed-stage location.
    #[must_use]
    pub fn at_stage(mut self, stage: u32) -> Self {
        self.stage = Some(stage);
        self
    }

    /// Attaches a source-file location (workspace-relative path, 1-based
    /// line).
    #[must_use]
    pub fn at_line(mut self, file: impl Into<String>, line: u32) -> Self {
        self.file = Some(file.into());
        self.line = Some(line);
        self
    }

    /// Attaches a 1-based column to an already line-located finding.
    #[must_use]
    pub fn at_col(mut self, column: u32) -> Self {
        self.column = Some(column);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.code, self.severity)?;
        if let Some(op) = self.op {
            write!(f, " op {op}")?;
        }
        if let Some(stage) = self.stage {
            write!(f, " stage {stage}")?;
        }
        if let (Some(file), Some(line)) = (&self.file, self.line) {
            write!(f, " {file}:{line}")?;
            if let Some(col) = self.column {
                write!(f, ":{col}")?;
            }
        }
        write!(f, ": {}", self.message)
    }
}

/// All findings of one linted subject (a plan, or a fault-tolerant plan).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// What was linted, e.g. `"figure2"` or `"Q5 @ SF 100"`.
    pub subject: String,
    /// The findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> Self {
        Report { subject: subject.into(), diagnostics: Vec::new() }
    }

    /// Adds a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// `true` iff no Error-severity finding is present.
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0
    }

    /// The most severe finding present, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Renders the report as indented text, one finding per line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let verdict = if self.diagnostics.is_empty() {
            "clean".to_string()
        } else {
            format!(
                "{} error(s), {} warning(s), {} lint(s)",
                self.count(Severity::Error),
                self.count(Severity::Warn),
                self.count(Severity::Lint)
            )
        };
        let _ = writeln!(out, "{}: {verdict}", self.subject);
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        out
    }
}

/// A batch of reports (one per linted subject) with roll-up counters —
/// the JSON artifact the CI lint gate uploads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportSet {
    /// One report per subject.
    pub reports: Vec<Report>,
}

impl ReportSet {
    /// Wraps the given reports.
    pub fn new(reports: Vec<Report>) -> Self {
        ReportSet { reports }
    }

    /// Total findings at `severity` across all reports.
    pub fn count(&self, severity: Severity) -> usize {
        self.reports.iter().map(|r| r.count(severity)).sum()
    }

    /// `true` iff no report carries an Error-severity finding.
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(Report::is_clean)
    }

    /// Renders all reports followed by a one-line roll-up.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.reports {
            out.push_str(&r.render());
        }
        let _ = writeln!(
            out,
            "total: {} subject(s), {} error(s), {} warning(s), {} lint(s)",
            self.reports.len(),
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Lint)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Lint < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn report_counters_and_verdict() {
        let mut r = Report::new("test");
        assert!(r.is_clean());
        assert_eq!(r.worst(), None);
        r.push(Diagnostic::new(Code::FT010, Severity::Lint, "zero-cost operator").at_op(3));
        r.push(Diagnostic::new(Code::FT003, Severity::Error, "tr(o) is NaN").at_op(1));
        assert!(!r.is_clean());
        assert_eq!(r.worst(), Some(Severity::Error));
        assert_eq!(r.count(Severity::Lint), 1);
        let text = r.render();
        assert!(text.contains("FT003 [error] op 1"));
        assert!(text.contains("1 error(s), 0 warning(s), 1 lint(s)"));
    }

    #[test]
    fn report_set_rolls_up() {
        let mut a = Report::new("a");
        a.push(Diagnostic::new(Code::FT001, Severity::Error, "broken"));
        let b = Report::new("b");
        let set = ReportSet::new(vec![a, b]);
        assert!(!set.is_clean());
        assert_eq!(set.count(Severity::Error), 1);
        assert!(set.render().contains("total: 2 subject(s), 1 error(s)"));
    }

    #[test]
    fn diagnostics_round_trip_through_serde() {
        let mut r = Report::new("rt");
        r.push(Diagnostic::new(Code::FT005, Severity::Error, "orphan").at_op(2).at_stage(1));
        let set = ReportSet::new(vec![r]);
        let json = serde_json::to_string(&set).unwrap();
        assert!(json.contains("\"FT005\""));
        let back: ReportSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn codes_have_stable_names_and_descriptions() {
        for &code in Code::ALL {
            assert!(code.as_str().starts_with("FT"));
            assert!(!code.description().is_empty());
            assert_eq!(code.to_string(), code.as_str());
        }
    }

    #[test]
    fn source_located_diagnostics_render_and_round_trip() {
        let d = Diagnostic::new(Code::FT205, Severity::Error, "rename without fsync")
            .at_line("crates/store/src/disk.rs", 21);
        let text = d.to_string();
        assert!(text.contains("FT205 [error] crates/store/src/disk.rs:21:"), "{text}");
        let json = serde_json::to_string(&d).unwrap();
        let back: Diagnostic = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        // Unlocated diagnostics serialize the keys as explicit nulls and
        // round-trip.
        let plain = Diagnostic::new(Code::FT001, Severity::Error, "m");
        let json = serde_json::to_string(&plain).unwrap();
        assert!(json.contains(r#""file":null"#), "{json}");
        assert!(json.contains(r#""column":null"#), "{json}");
        let parsed: Diagnostic = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.file, None);
        assert_eq!(parsed.column, None);
    }

    #[test]
    fn column_located_diagnostics_render_and_round_trip() {
        let d = Diagnostic::new(Code::FT205, Severity::Error, "rename without fsync")
            .at_line("crates/store/src/disk.rs", 240)
            .at_col(13);
        let text = d.to_string();
        assert!(text.contains("crates/store/src/disk.rs:240:13:"), "{text}");
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains(r#""column":13"#), "{json}");
        let back: Diagnostic = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
