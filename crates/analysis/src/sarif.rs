//! SARIF 2.1.0 export of diagnostic report sets.
//!
//! [SARIF] (Static Analysis Results Interchange Format) is the
//! interchange schema code-scanning UIs ingest — one `run` carrying a
//! `tool` (the driver plus one *rule* per FT code, straight from the
//! [`crate::codes`] registry) and one `result` per diagnostic. The CLI
//! exposes this as `ftpde lint --source --format sarif`, and CI uploads
//! the document as a scan artifact.
//!
//! The document is built with the vendored [`serde::Value`] tree — the
//! same dependency-free path every other JSON rendering in this
//! workspace takes. Only the subset of SARIF that carries information
//! we actually have is emitted: rule metadata, severity level, message,
//! and a physical location (file, line, column) when the diagnostic is
//! source-located.
//!
//! [SARIF]: https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html

use serde::Value;

use crate::codes;
use crate::diag::{Code, Diagnostic, ReportSet, Severity};

/// The `$schema` URI of the emitted document.
pub const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// SARIF version the document declares.
pub const VERSION: &str = "2.1.0";

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

/// A SARIF message / description object: `{"text": …}`.
fn text(v: &str) -> Value {
    Value::Object(vec![("text".to_string(), s(v))])
}

/// Maps a diagnostic severity onto the SARIF result level.
fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Error => "error",
        Severity::Warn => "warning",
        Severity::Lint => "note",
    }
}

/// One `reportingDescriptor` (rule) from the registry.
fn rule(code: Code) -> Value {
    let info = codes::info(code);
    Value::Object(vec![
        ("id".to_string(), s(code.as_str())),
        ("shortDescription".to_string(), text(info.summary)),
        ("fullDescription".to_string(), text(info.explanation)),
        (
            "defaultConfiguration".to_string(),
            Value::Object(vec![("level".to_string(), s(level(info.severity)))]),
        ),
    ])
}

/// One SARIF `result` for a diagnostic. Diagnostics without a source
/// file (plan/trace findings routed through the same report set) fall
/// back to the report subject as the artifact URI.
fn result(subject: &str, d: &Diagnostic) -> Value {
    let mut fields = vec![
        ("ruleId".to_string(), s(d.code.as_str())),
        ("level".to_string(), s(level(d.severity))),
        ("message".to_string(), text(&d.message)),
    ];
    let uri = d.file.as_deref().unwrap_or(subject);
    let mut region = Vec::new();
    if let Some(line) = d.line {
        region.push(("startLine".to_string(), Value::UInt(u64::from(line))));
    }
    if let Some(col) = d.column {
        region.push(("startColumn".to_string(), Value::UInt(u64::from(col))));
    }
    let mut physical =
        vec![("artifactLocation".to_string(), Value::Object(vec![("uri".to_string(), s(uri))]))];
    if !region.is_empty() {
        physical.push(("region".to_string(), Value::Object(region)));
    }
    fields.push((
        "locations".to_string(),
        Value::Array(vec![Value::Object(vec![(
            "physicalLocation".to_string(),
            Value::Object(physical),
        )])]),
    ));
    Value::Object(fields)
}

/// Builds the SARIF 2.1.0 document for a report set as a value tree.
pub fn to_sarif(set: &ReportSet) -> Value {
    // Only rules that actually fired are listed — SARIF viewers render
    // the full rule table, and 20+ unfired entries is noise.
    let mut fired: Vec<Code> =
        set.reports.iter().flat_map(|r| r.diagnostics.iter().map(|d| d.code)).collect();
    fired.sort_unstable();
    fired.dedup();
    let rules = Value::Array(fired.into_iter().map(rule).collect());

    let results: Vec<Value> = set
        .reports
        .iter()
        .flat_map(|r| r.diagnostics.iter().map(|d| result(&r.subject, d)))
        .collect();

    let driver = Value::Object(vec![
        ("name".to_string(), s("ftpde-lint")),
        ("informationUri".to_string(), s("https://github.com/ftpde/ftpde")),
        ("rules".to_string(), rules),
    ]);
    let run = Value::Object(vec![
        ("tool".to_string(), Value::Object(vec![("driver".to_string(), driver)])),
        ("results".to_string(), Value::Array(results)),
    ]);
    Value::Object(vec![
        ("$schema".to_string(), s(SCHEMA)),
        ("version".to_string(), s(VERSION)),
        ("runs".to_string(), Value::Array(vec![run])),
    ])
}

/// The SARIF document as pretty-printed JSON.
pub fn to_sarif_string(set: &ReportSet) -> String {
    serde_json::to_string_pretty(&to_sarif(set)).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Report;

    fn sample() -> ReportSet {
        let mut r = Report::new("crates/store/src/disk.rs");
        r.push(
            Diagnostic::new(Code::FT205, Severity::Error, "fn `commit` renames without `sync_all`")
                .at_line("crates/store/src/disk.rs", 42)
                .at_col(7),
        );
        r.push(Diagnostic::new(Code::FT204, Severity::Lint, "`unwrap()` in library code"));
        ReportSet::new(vec![r])
    }

    #[test]
    fn document_shape_and_levels() {
        let doc = to_sarif(&sample());
        assert_eq!(doc.get("version").and_then(Value::as_str), Some(VERSION));
        let runs = doc.get("runs").and_then(Value::as_array).unwrap();
        assert_eq!(runs.len(), 1);
        let results = runs[0].get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("ruleId").and_then(Value::as_str), Some("FT205"));
        assert_eq!(results[0].get("level").and_then(Value::as_str), Some("error"));
        assert_eq!(results[1].get("level").and_then(Value::as_str), Some("note"));
    }

    #[test]
    fn located_results_carry_line_and_column() {
        let doc = to_sarif_string(&sample());
        assert!(doc.contains("\"startLine\": 42"), "{doc}");
        assert!(doc.contains("\"startColumn\": 7"), "{doc}");
        assert!(doc.contains(SCHEMA), "{doc}");
    }

    #[test]
    fn only_fired_rules_are_listed() {
        let doc = to_sarif_string(&sample());
        assert!(doc.contains("\"FT205\""), "{doc}");
        assert!(!doc.contains("\"FT001\""), "unfired rules must be omitted: {doc}");
    }
}
