//! End-to-end test of the `ftpde lint` CI gate: the built binary must
//! exit 0 with a clean report on every built-in plan, emit parseable JSON
//! diagnostics, and exit nonzero when fed a corrupted serialized plan.

use std::path::PathBuf;
use std::process::{Command, Output};

use ftpde::analysis::prelude::*;

fn ftpde(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftpde")).args(args).output().expect("binary runs")
}

fn tmp_file(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ftpde_lint_cli_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn lint_all_is_clean_and_exits_zero() {
    let out = ftpde(&["lint", "--all", "--sf", "1"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "stdout:\n{stdout}");
    // One report per built-in subject: figure2 + the five TPC-H queries.
    assert!(stdout.contains("figure2: clean"), "{stdout}");
    for q in ["Q1", "Q3", "Q5", "Q1C", "Q2C"] {
        assert!(stdout.contains(&format!("{q} @ SF 1: clean")), "{stdout}");
    }
    assert!(stdout.contains("total: 6 subject(s), 0 error(s)"), "{stdout}");
}

#[test]
fn lint_json_output_deserializes_into_a_report_set() {
    let out = ftpde(&["lint", "--query", "Q5", "--sf", "1", "--format", "json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let set: ReportSet = serde_json::from_str(stdout.trim()).unwrap();
    assert_eq!(set.reports.len(), 1);
    assert_eq!(set.reports[0].subject, "Q5 @ SF 1");
    assert!(set.is_clean());
}

#[test]
fn lint_rejects_a_corrupted_serialized_plan() {
    // The input table claims a backward edge 1 -> 0 (stored as a forward
    // edge on op 0) that the consumer table does not mirror: FT001.
    let path = tmp_file(
        "corrupted.json",
        r#"{
            "ops": [
                {"name": "a", "run_cost": 1.0, "mat_cost": 0.1, "binding": "Free"},
                {"name": "b", "run_cost": 1.0, "mat_cost": 0.1, "binding": "Free"}
            ],
            "inputs": [[1], []],
            "consumers": [[], []]
        }"#,
    );
    let out = ftpde(&["lint", "--plan", path.to_str().unwrap()]);
    assert!(!out.status.success(), "a corrupted plan must fail the lint gate");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("FT001"), "{stdout}");

    // The same corruption in JSON format still fails, and the diagnostics
    // artifact still parses.
    let out = ftpde(&["lint", "--plan", path.to_str().unwrap(), "--format", "json"]);
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let set: ReportSet = serde_json::from_str(stdout.trim()).unwrap();
    assert!(!set.is_clean());
    assert!(set.reports[0].diagnostics.iter().any(|d| d.code == Code::FT001));
}

#[test]
fn lint_honours_cluster_flags_and_validates_them() {
    let out = ftpde(&["lint", "--query", "Q1", "--sf", "1", "--mtbf", "600", "--mttr", "5"]);
    assert!(out.status.success());
    let out = ftpde(&["lint", "--query", "Q1", "--mtbf", "-3"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("mtbf"), "{stderr}");
}

/// A scratch workspace with one seeded FT205 violation (a store-crate
/// function that renames without an fsync), plus a clock read that only
/// clippy rejects (`crates/clippy.toml`), not the scan.
fn seeded_workspace(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("crates/store/src")).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(
        dir.join("crates/store/src/lib.rs"),
        "pub fn commit(tmp: &str, dst: &str) { let _ = std::fs::rename(tmp, dst); }\n\
         pub fn t() { let _ = std::time::Instant::now(); }\n",
    )
    .unwrap();
    dir
}

#[test]
fn lint_source_gates_on_a_seeded_violation() {
    let dir = seeded_workspace("ftpde_lint_source_seeded_text");
    let out = ftpde(&["lint", "--source", "--root", dir.to_str().unwrap()]);
    assert!(!out.status.success(), "a seeded FT205 must turn the gate red");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("FT205"), "{stdout}");
    assert!(!stdout.contains("FT202"), "clock reads are clippy's to reject: {stdout}");
    assert!(stdout.contains("crates/store/src/lib.rs:1"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_source_json_artifact_parses_and_carries_locations() {
    let dir = seeded_workspace("ftpde_lint_source_seeded_json");
    let out = ftpde(&["lint", "--source", "--root", dir.to_str().unwrap(), "--format", "json"]);
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let set: ReportSet = serde_json::from_str(stdout.trim()).unwrap();
    assert!(!set.is_clean());
    let d = &set.reports[0].diagnostics[0];
    assert_eq!(d.code, Code::FT205);
    assert_eq!(d.file.as_deref(), Some("crates/store/src/lib.rs"));
    assert_eq!(d.line, Some(1));
    // Source findings are line-located; the column is an explicit
    // null in the artifact, never absent.
    assert_eq!(d.column, None);
    assert!(stdout.contains("\"column\":null"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_source_sarif_artifact_carries_rules_and_locations() {
    let dir = seeded_workspace("ftpde_lint_source_seeded_sarif");
    let out = ftpde(&["lint", "--source", "--root", dir.to_str().unwrap(), "--format", "sarif"]);
    assert!(!out.status.success(), "the gate still gates in sarif format");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"version\": \"2.1.0\""), "{stdout}");
    assert!(stdout.contains("\"ruleId\": \"FT205\""), "{stdout}");
    assert!(stdout.contains("\"startLine\": 1"), "{stdout}");
    assert!(stdout.contains("\"uri\": \"crates/store/src/lib.rs\""), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_source_on_this_workspace_is_clean() {
    // CARGO_MANIFEST_DIR of the root integration tests IS the workspace
    // root — the CLI face of the dogfooding gate.
    let out = ftpde(&["lint", "--source", "--root", env!("CARGO_MANIFEST_DIR")]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "workspace source lint not clean:\n{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn lint_source_rejects_a_rootless_directory() {
    let dir = std::env::temp_dir().join("ftpde_lint_source_no_cargo");
    std::fs::create_dir_all(&dir).unwrap();
    let _ = std::fs::remove_file(dir.join("Cargo.toml"));
    let out = ftpde(&["lint", "--source", "--root", dir.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("workspace root"), "{stderr}");
}

/// A real traced engine run (Q3, one injected node failure), exported
/// to JSONL — the input format `ftpde check` consumes.
fn traced_run_jsonl() -> String {
    use ftpde::core::config::MatConfig;
    use ftpde::engine::prelude::*;
    use ftpde::obs::{export, MemoryRecorder};
    use ftpde::tpch::datagen::Database;

    let plan = q3_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::all(&dag);
    let sink = plan.sinks()[0];
    let injector = FailureInjector::with([Injection { stage: sink.0, node: 1, attempt: 0 }]);
    let catalog = load_catalog(&Database::generate(0.001, 42), 4);
    let rec = MemoryRecorder::new();
    run_query(&plan, &config, &catalog, &injector, &RunOptions { rec: &rec, ..Default::default() });
    export::to_jsonl(&rec.events())
}

/// Pipes `input` into `ftpde` via stdin and captures the output.
fn ftpde_stdin(args: &[&str], input: &str) -> Output {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftpde"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child.stdin.take().unwrap().write_all(input.as_bytes()).unwrap();
    child.wait_with_output().expect("binary runs")
}

#[test]
fn check_reads_a_trace_from_stdin() {
    let jsonl = traced_run_jsonl();

    // `--trace -` must reach the same verdict as the file path does.
    let out = ftpde_stdin(&["check", "--trace", "-"], &jsonl);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("<stdin>"), "{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");

    let path = tmp_file("stdin_equiv.jsonl", &jsonl);
    let from_file = ftpde(&["check", "--trace", path.to_str().unwrap()]);
    assert!(from_file.status.success());
    // Identical reports up to the subject name.
    let file_stdout = String::from_utf8(from_file.stdout).unwrap();
    assert_eq!(
        stdout.replace("<stdin>", "X"),
        file_stdout.replace(path.to_str().unwrap(), "X"),
        "stdin and file disagree"
    );
}

#[test]
fn check_stdin_with_plan_flags_still_verifies_stage_identity() {
    let jsonl = traced_run_jsonl();
    let out = ftpde_stdin(
        &["check", "--trace", "-", "--query", "Q3", "--config", "all", "--format", "json"],
        &jsonl,
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let set: ReportSet = serde_json::from_str(stdout.trim()).unwrap();
    assert!(set.is_clean(), "{stdout}");
}

#[test]
fn check_rejects_garbage_on_stdin() {
    let out = ftpde_stdin(&["check", "--trace", "-"], "this is not a JSONL event log\n");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("<stdin>"), "{stderr}");
}

#[test]
fn explain_prints_registry_text_for_every_code_family() {
    for (code, needle) in [("FT001", "structural"), ("FT105", "recovery"), ("FT205", "fsync")] {
        let out = ftpde(&["explain", code]);
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with(&format!("{code} [")), "{stdout}");
        assert!(stdout.contains(needle), "{code}: {stdout}");
    }
    // Case-insensitive, like rustc --explain.
    let out = ftpde(&["explain", "ft205"]);
    assert!(out.status.success());
    // Retired codes: checks handed to clippy and rustc, and checks whose
    // subject (shared worker state, suppression comments) is gone.
    for retired in ["FT201", "FT202", "FT203", "FT206", "FT207", "FT210", "FT211", "FT212", "FT213"]
    {
        assert!(!ftpde(&["explain", retired]).status.success(), "{retired}");
    }

    let out = ftpde(&["explain", "FT999"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown code"), "{stderr}");

    let out = ftpde(&["explain"]);
    assert!(!out.status.success(), "explain requires a code argument");
}

#[test]
fn explain_list_prints_the_full_registry_table() {
    let out = ftpde(&["explain", "--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for code in Code::ALL {
        assert!(stdout.contains(code.as_str()), "missing {code} in:\n{stdout}");
    }
    // Severity-sorted: every error row precedes every lint row.
    let first_lint = stdout.find(" lint ").expect("registry has lint-severity codes");
    let last_error = stdout.rfind(" error ").expect("registry has error-severity codes");
    assert!(last_error < first_lint, "rows are not severity-sorted:\n{stdout}");
}
