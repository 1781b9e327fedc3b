//! `ftpde` — command-line what-if tool for cost-based fault tolerance.
//!
//! ```text
//! ftpde plan     --query Q5 --sf 100 --nodes 10 --mtbf 3600 [--mttr 1]
//! ftpde simulate --query Q5 --sf 100 --nodes 10 --mtbf 3600 [--traces 10] [--seed 42]
//! ftpde success  --runtime-min 30 --nodes 10 --mtbf 3600
//! ftpde dot      --query Q5 --sf 100 --mtbf 3600 > plan.dot
//! ftpde obs      --trace run.jsonl [--format summary|calibration|prom|queries|json]
//! ftpde lint     --all | --query Q5 | --plan plan.json | --source [--root <dir>] [--format text|json]
//! ftpde explain  FT205
//! ftpde store    --inspect <dir> | --verify <dir> [--format text|json]
//! ftpde check    --trace run.jsonl|- [--query Q5 --config best] [--format text|json]
//! ftpde sim      --seed 42 | --seeds 0..64 [--shrink] [--bug serve-corrupt-data] [--bug-base tests/bug_base.jsonl]
//! ftpde sim      --replay-bug-base tests/bug_base.jsonl
//! ```
//!
//! * `plan` — run the cost-based search for a TPC-H query and explain the
//!   chosen materialization configuration.
//! * `simulate` — replay failure traces under all four fault-tolerance
//!   schemes and report overheads.
//! * `success` — probability that a query of the given runtime finishes
//!   without any mid-query failure (the paper's Figure 1 formula).
//! * `dot` — emit the chosen fault-tolerant plan as Graphviz DOT (stages
//!   as dashed clusters, checkpoints highlighted).
//! * `obs` — replay a recorded JSONL trace offline and print a trace
//!   summary, a predicted-vs-observed calibration report, the trace's
//!   metrics in Prometheus text format, one row per query (state,
//!   stages, retries, restarts, rewinds, corrupt segments, materialized
//!   volume, elapsed and predicted seconds), or the calibration report
//!   as JSON. Metrics and query rows are folds of the trace
//!   (`ftpde_obs::fold`).
//! * `lint` — run the static-analysis passes (`FT001`…) of
//!   `ftpde-analysis` over the built-in plans, one TPC-H query, or an
//!   arbitrary serialized plan; or, with `--source`, run the
//!   source-discipline analyzer (`FT204`, `FT205`) over the workspace's
//!   own Rust sources. Exits nonzero on any Error-severity diagnostic,
//!   so both modes can gate CI.
//! * `explain` — print the long-form explanation of one diagnostic code
//!   (`ftpde explain FT205`), from the same registry that defines every
//!   code's default severity.
//! * `store` — inspect a durable checkpoint-store directory (`--inspect`
//!   prints its log's committed segments, sizes, checksums and stats)
//!   or re-checksum every committed segment (`--verify`), exiting nonzero
//!   on corruption.
//! * `check` — replay a recorded JSONL trace through the
//!   trace-conformance verifier (`FT101`…`FT108`): span/track discipline,
//!   stage ordering, the recovery contract (re-execution only after a
//!   rewind or corruption, materialized stages skipped on retry), store
//!   lifecycle and Eq. 1 cost conservation. With `--query` (and
//!   optionally `--config`) the trace is verified against the collapsed
//!   plan it claims to execute; exits nonzero on any FT1xx Error.
//!   `--trace -` reads the event log from stdin.
//! * `sim` — the deterministic whole-system simulation harness: each
//!   seed derives a workload (query/SF/nodes/MTBF/materialization/
//!   recovery scheme) plus a fault schedule (node kills, torn/lost/
//!   corrupt/delayed storage), runs it on the real engine under virtual
//!   time, and judges the run with the FT0xx linter, the FT1xx trace
//!   checker, and the FT30x harness oracles (replay determinism, result
//!   divergence, panics, unfired schedules). `--shrink` minimizes each
//!   failing seed to a 1-minimal schedule; `--bug-base` records the
//!   reproductions; `--replay-bug-base` re-judges a committed base.

use std::collections::HashMap;
use std::process::ExitCode;

use ftpde::analysis::prelude::*;
use ftpde::cluster::prelude::*;
use ftpde::core::prelude::*;
use ftpde::obs;
use ftpde::sim::prelude::*;
use ftpde::tpch::prelude::*;

/// CLI result type (the core prelude shadows `std::result::Result`'s
/// two-parameter form with its own alias).
type CliResult<T> = std::result::Result<T, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("explain") {
        // `explain FT205` takes a positional code, which the uniform
        // `--flag value` grammar cannot express.
        cmd_explain(&args[1..])
    } else {
        let Some((cmd, flags)) = parse(&args) else {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        };
        match cmd.as_str() {
            "plan" => cmd_plan(&flags),
            "simulate" => cmd_simulate(&flags),
            "success" => cmd_success(&flags),
            "dot" => cmd_dot(&flags),
            "obs" => cmd_obs(&flags),
            "lint" => cmd_lint(&flags),
            "store" => cmd_store(&flags),
            "check" => cmd_check(&flags),
            "sim" => cmd_sim(&flags),
            _ => Err(format!("unknown command {cmd:?}")),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  ftpde plan     --query <Q1|Q3|Q5|Q1C|Q2C> --sf <N> --nodes <N> --mtbf <secs> [--mttr <secs>]
  ftpde simulate --query <Q1|Q3|Q5|Q1C|Q2C> --sf <N> --nodes <N> --mtbf <secs> [--mttr <secs>] [--traces <N>] [--seed <N>]
  ftpde success  --runtime-min <N> --nodes <N> --mtbf <secs>
  ftpde dot      --query <Q1|Q3|Q5|Q1C|Q2C> --sf <N> --nodes <N> --mtbf <secs>
  ftpde obs      --trace <run.jsonl> [--format <summary|calibration|prom|queries|json>]
  ftpde lint     --all | --query <Q1|Q3|Q5|Q1C|Q2C> | --plan <plan.json> | --source
                 [--sf <N>] [--nodes <N>] [--mtbf <secs>] [--mttr <secs>]
                 [--format <text|json|sarif>] [--root <dir>]
  ftpde explain  <FT001..FT304> | --list   (e.g. `ftpde explain FT301`)
  ftpde store    --inspect <dir> | --verify <dir> [--format <text|json>]
  ftpde check    --trace <run.jsonl|-> [--query <Q1|Q3|Q5|Q1C|Q2C>] [--config <none|all|best|ops:<csv>>]
                 [--sf <N>] [--nodes <N>] [--mtbf <secs>] [--mttr <secs>] [--format <text|json>]
  ftpde sim      --seed <N> | --seeds <A..B> [--shrink] [--bug <none|serve-corrupt-data>]
                 [--bug-base <file.jsonl>] [--format <text|json>]
  ftpde sim      --replay-bug-base <file.jsonl> [--format <text|json>]";

/// Splits `["cmd", "--k", "v", ...]` into the command and a flag map.
/// A flag followed by another flag (or nothing) is boolean, stored as
/// `"true"` — that is how `lint --all` parses.
fn parse(args: &[String]) -> Option<(String, HashMap<String, String>)> {
    let (cmd, rest) = args.split_first()?;
    let mut flags = HashMap::new();
    let mut it = rest.iter().peekable();
    while let Some(k) = it.next() {
        let k = k.strip_prefix("--")?;
        let v = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next()?.clone(),
            _ => "true".to_string(),
        };
        flags.insert(k.to_string(), v);
    }
    Some((cmd.clone(), flags))
}

fn get_f64(flags: &HashMap<String, String>, key: &str, default: Option<f64>) -> CliResult<f64> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: not a number: {v:?}")),
        None => default.ok_or_else(|| format!("missing required flag --{key}")),
    }
}

/// Reads a non-negative integer flag that must fit `T`. Signs, fractions,
/// exponents and out-of-range values are errors: a cast from `f64` would
/// turn `-7` into 0, `2.5` into 2 and `70000` into a `u16` of 65535.
fn get_int<T: TryFrom<u64>>(
    flags: &HashMap<String, String>,
    key: &str,
    default: Option<T>,
) -> CliResult<T> {
    let Some(v) = flags.get(key) else {
        return default.ok_or_else(|| format!("missing required flag --{key}"));
    };
    let n: u64 = v.parse().map_err(|_| format!("--{key}: not a non-negative integer: {v:?}"))?;
    T::try_from(n).map_err(|_| format!("--{key}: {n} is out of range"))
}

fn get_query(flags: &HashMap<String, String>) -> CliResult<Query> {
    let name = flags.get("query").ok_or("missing required flag --query")?;
    Query::ALL
        .into_iter()
        .find(|q| q.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown query {name:?} (expected Q1, Q3, Q5, Q1C or Q2C)"))
}

/// Resolves the shared `--format` flag against a subcommand's accepted
/// renderings — the one parser behind `obs`, `lint`, `store` and `check`.
fn get_format<'a>(
    flags: &'a HashMap<String, String>,
    allowed: &[&str],
    default: &'a str,
) -> CliResult<&'a str> {
    let format = flags.get("format").map_or(default, String::as_str);
    if allowed.contains(&format) {
        Ok(format)
    } else {
        Err(format!("unknown format {format:?} (expected {})", allowed.join(", ")))
    }
}

fn get_cluster(flags: &HashMap<String, String>) -> CliResult<ClusterConfig> {
    let nodes: usize = get_int(flags, "nodes", Some(10))?;
    let mtbf = get_f64(flags, "mtbf", None)?;
    let mttr = get_f64(flags, "mttr", Some(1.0))?;
    if nodes == 0 || mtbf <= 0.0 || mttr < 0.0 {
        return Err("nodes must be ≥ 1, mtbf > 0, mttr ≥ 0".into());
    }
    Ok(ClusterConfig::new(nodes, mtbf, mttr))
}

fn cmd_plan(flags: &HashMap<String, String>) -> CliResult<()> {
    let query = get_query(flags)?;
    let sf = get_f64(flags, "sf", Some(100.0))?;
    let cluster = get_cluster(flags)?;
    let cm = CostModel::xdb_calibrated();
    let plan = query.plan(sf, &cm);
    let params = Scheme::cost_params(&cluster);
    let (best, stats) =
        find_best_ft_plan(std::slice::from_ref(&plan), &params, &PruneOptions::default())
            .map_err(|e| e.to_string())?;

    println!(
        "{query} @ SF {sf} on {} nodes (MTBF {:.0}s, MTTR {:.0}s)",
        cluster.nodes, cluster.mtbf, cluster.mttr
    );
    println!(
        "baseline {:.1}s | estimated under failures {:.1}s\n",
        baseline_runtime(&plan, 1.0),
        best.estimate.dominant_cost
    );
    print!("{}", explain_plan(&plan, &best.config));
    println!();
    print!("{}", explain_estimate(&plan, &best.estimate, &params));
    println!(
        "\nsearch: {}/{} configurations, {} paths costed, rule3 stops: {}",
        stats.configs_enumerated,
        stats.configs_unpruned,
        stats.paths_costed,
        stats.rule3_stops()
    );
    Ok(())
}

fn cmd_simulate(flags: &HashMap<String, String>) -> CliResult<()> {
    let query = get_query(flags)?;
    let sf = get_f64(flags, "sf", Some(100.0))?;
    let cluster = get_cluster(flags)?;
    let traces_n: usize = get_int(flags, "traces", Some(10))?;
    if traces_n == 0 {
        return Err("--traces must be ≥ 1".into());
    }
    let seed: u64 = get_int(flags, "seed", Some(42))?;
    let cm = CostModel::xdb_calibrated();
    let plan = query.plan(sf, &cm);
    let opts = SimOptions::default();
    let horizon = suggested_horizon(&plan, &cluster, &opts);
    let traces = TraceSet::generate(&cluster, horizon, traces_n, seed);
    let baseline = baseline_runtime(&plan, opts.pipe_const);
    println!(
        "{query} @ SF {sf}: baseline {:.1}s, {} traces, MTBF {:.0}s/node\n",
        baseline, traces_n, cluster.mtbf
    );
    println!("{:<18} {:>12} {:>14} {:>10}", "scheme", "overhead", "completion", "checkpoints");
    for run in run_all_schemes(&plan, &cluster, &traces, &opts).map_err(|e| e.to_string())? {
        let (oh, comp) = match (run.mean_overhead_pct(), run.mean_completion()) {
            (Some(o), Some(c)) => (format!("{o:.1} %"), format!("{c:.1} s")),
            _ => ("aborted".into(), "-".into()),
        };
        println!(
            "{:<18} {:>12} {:>14} {:>10}",
            run.scheme.name(),
            oh,
            comp,
            run.config.materialized_count()
        );
    }
    Ok(())
}

fn cmd_success(flags: &HashMap<String, String>) -> CliResult<()> {
    let runtime_min = get_f64(flags, "runtime-min", None)?;
    let cluster = get_cluster(flags)?;
    let p = success_probability(&cluster, runtime_min * 60.0);
    println!(
        "P(no failure during a {runtime_min:.1}-minute query on {} nodes, MTBF {:.0}s/node) = {:.2} %",
        cluster.nodes,
        cluster.mtbf,
        p * 100.0
    );
    println!(
        "expected failures during the query: {:.2}",
        expected_failures(&cluster, runtime_min * 60.0)
    );
    Ok(())
}

fn cmd_dot(flags: &HashMap<String, String>) -> CliResult<()> {
    let query = get_query(flags)?;
    let sf = get_f64(flags, "sf", Some(100.0))?;
    let cluster = get_cluster(flags)?;
    let cm = CostModel::xdb_calibrated();
    let plan = query.plan(sf, &cm);
    let params = Scheme::cost_params(&cluster);
    let (best, _) =
        find_best_ft_plan(std::slice::from_ref(&plan), &params, &PruneOptions::default())
            .map_err(|e| e.to_string())?;
    print!("{}", to_dot(&plan, &best.config, &best.estimate.collapsed));
    Ok(())
}

/// Renders a replayed trace in the requested format.
fn render_obs(events: &[obs::Event], format: &str) -> CliResult<String> {
    let calibration = || obs::CalibrationReport::from_events(events);
    match format {
        "summary" => {
            let mut head = obs::Summary::new();
            head.banner("Trace summary");
            head.kv("events", events.len());
            let spans = events.iter().filter(|e| e.phase == obs::Phase::Span).count();
            head.kv("spans", spans);
            head.kv("instants", events.len() - spans);
            if let Some(end) = events.iter().map(|e| e.ts_us + e.dur_us).max() {
                head.kv("trace end", format!("{:.3} s", end as f64 / 1e6));
            }
            let report = calibration();
            if !report.stages.is_empty() {
                head.kv(
                    "prediction-tagged stages",
                    format!("{} (see --format calibration)", report.stages.len()),
                );
            }
            Ok(format!(
                "{}{}",
                head.render(),
                obs::metrics_summary(&obs::fold(events).metrics).render()
            ))
        }
        "calibration" => Ok(calibration().to_summary().render()),
        "prom" => {
            let mut metrics = obs::fold(events).metrics;
            calibration().export_metrics(&mut metrics);
            Ok(obs::export::to_prometheus(&metrics))
        }
        "queries" => Ok(obs::fold(events).queries_summary().render()),
        "json" => serde_json::to_string(&calibration())
            .map(|mut s| {
                s.push('\n');
                s
            })
            .map_err(|e| format!("calibration report failed to serialize: {e:?}")),
        other => Err(format!(
            "unknown format {other:?} (expected summary, calibration, prom, queries or json)"
        )),
    }
}

fn cmd_obs(flags: &HashMap<String, String>) -> CliResult<()> {
    let path = flags.get("trace").ok_or("missing required flag --trace")?;
    let format =
        get_format(flags, &["summary", "calibration", "prom", "queries", "json"], "summary")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = obs::export::from_jsonl(&text)
        .map_err(|e| format!("{path} is not a JSONL event log: {e:?}"))?;
    print!("{}", render_obs(&events, format)?);
    Ok(())
}

/// Lints one plan: static passes first, and only when those find no
/// Error does it run the search and lint the resulting fault-tolerant
/// plan (searching a structurally broken plan could panic).
fn lint_searched(validator: &PlanValidator, subject: &str, plan: &PlanDag) -> CliResult<Report> {
    let static_report = validator.validate_plan(subject, plan);
    if !static_report.is_clean() {
        return Ok(static_report);
    }
    let (best, _) =
        find_best_ft_plan(std::slice::from_ref(plan), validator.params(), &PruneOptions::default())
            .map_err(|e| e.to_string())?;
    Ok(validator.validate_ft_plan(subject, &best.plan, &best.config))
}

/// `ftpde lint --source`: the source-discipline scan (`FT2xx`) over a
/// workspace checkout — text renders the per-code rollup plus
/// every Warn/Error finding, json emits the full `ReportSet` (the CI
/// artifact). Exits nonzero iff any finding is an Error.
fn cmd_lint_source(flags: &HashMap<String, String>) -> CliResult<()> {
    let format = get_format(flags, &["text", "json", "sarif"], "text")?;
    let root = match flags.get("root") {
        Some(dir) if dir != "true" => std::path::PathBuf::from(dir),
        Some(_) => return Err("lint --root needs a directory argument".into()),
        None => std::env::current_dir().map_err(|e| format!("cannot resolve cwd: {e}"))?,
    };
    if !root.join("Cargo.toml").exists() {
        return Err(format!(
            "{} does not look like a workspace root (no Cargo.toml); use --root",
            root.display()
        ));
    }
    let scan =
        lint_workspace(&root).map_err(|e| format!("scan of {} failed: {e}", root.display()))?;
    if format == "text" {
        print!("{}", scan.render());
    } else {
        render_report_set(&scan.set, format)?;
    }
    if scan.is_clean() {
        Ok(())
    } else {
        Err(format!("source lint found {} error(s)", scan.set.count(Severity::Error)))
    }
}

/// `ftpde explain FT###`: prints the long-form explanation of one
/// diagnostic code from the unified registry, `rustc --explain` style.
/// `ftpde explain --list` prints the whole registry as a
/// severity-sorted table.
fn cmd_explain(args: &[String]) -> CliResult<()> {
    if args == ["--list"] {
        print!("{}", ftpde::analysis::codes::registry_table());
        return Ok(());
    }
    let [name] = args else {
        return Err("explain takes exactly one code (or --list), e.g. `ftpde explain FT205`".into());
    };
    let Some(code) = ftpde::analysis::codes::parse(name) else {
        let known: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        return Err(format!("unknown code {name:?} (known: {})", known.join(", ")));
    };
    print!("{}", ftpde::analysis::codes::explain(code));
    Ok(())
}

fn cmd_lint(flags: &HashMap<String, String>) -> CliResult<()> {
    if flags.contains_key("source") {
        return cmd_lint_source(flags);
    }
    // Lint doesn't require --mtbf: default to the paper's 1-hour cluster.
    let mut cluster_flags = flags.clone();
    cluster_flags.entry("mtbf".to_string()).or_insert_with(|| "3600".to_string());
    let cluster = get_cluster(&cluster_flags)?;
    let params = Scheme::cost_params(&cluster);
    let sf = get_f64(flags, "sf", Some(100.0))?;
    let format = get_format(flags, &["text", "json", "sarif"], "text")?;
    let validator = PlanValidator::new(params);
    let cm = CostModel::xdb_calibrated();

    let mut reports = Vec::new();
    if flags.contains_key("all") {
        reports.push(lint_searched(&validator, "figure2", &ftpde::core::dag::figure2_plan())?);
        for query in Query::ALL {
            let subject = format!("{query} @ SF {sf}");
            reports.push(lint_searched(&validator, &subject, &query.plan(sf, &cm))?);
        }
    } else if flags.contains_key("query") {
        let query = get_query(flags)?;
        let subject = format!("{query} @ SF {sf}");
        reports.push(lint_searched(&validator, &subject, &query.plan(sf, &cm))?);
    } else if let Some(path) = flags.get("plan") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let plan: PlanDag = serde_json::from_str(&text)
            .map_err(|e| format!("{path} is not a serialized plan: {e:?}"))?;
        reports.push(lint_searched(&validator, path, &plan)?);
    } else {
        return Err("lint needs one of --all, --query or --plan".into());
    }

    let set = ReportSet::new(reports);
    render_report_set(&set, format)?;
    if set.is_clean() {
        Ok(())
    } else {
        Err(format!("lint found {} error(s)", set.count(Severity::Error)))
    }
}

/// Renders a diagnostic report set in the shared `text`/`json`/`sarif`
/// formats (`lint` and `check` both exit through here).
fn render_report_set(set: &ReportSet, format: &str) -> CliResult<()> {
    if format == "json" {
        let json =
            serde_json::to_string(set).map_err(|e| format!("report failed to serialize: {e:?}"))?;
        println!("{json}");
    } else if format == "sarif" {
        println!("{}", ftpde::analysis::sarif::to_sarif_string(set));
    } else {
        print!("{}", set.render());
    }
    Ok(())
}

fn cmd_store(flags: &HashMap<String, String>) -> CliResult<()> {
    let format = get_format(flags, &["text", "json"], "text")?;
    let (dir, check) = if let Some(d) = flags.get("verify") {
        (d, true)
    } else if let Some(d) = flags.get("inspect") {
        (d, false)
    } else {
        return Err("store needs one of --inspect <dir> or --verify <dir>".into());
    };
    if dir == "true" {
        return Err("store --inspect/--verify need a directory argument".into());
    }
    let report = if check { ftpde::store::verify(dir) } else { ftpde::store::inspect(dir) }
        .map_err(|e| format!("cannot read store at {dir}: {e}"))?;
    if format == "json" {
        let json = serde_json::to_string(&report)
            .map_err(|e| format!("report failed to serialize: {e:?}"))?;
        println!("{json}");
    } else {
        print!("{}", report.to_summary().render());
    }
    if check && report.corrupt > 0 {
        return Err(format!("store verification failed: {} corrupt segment(s)", report.corrupt));
    }
    Ok(())
}

/// The engine-side plan mirror of a query: real topology, unit costs.
/// Collapsing it yields the same stage boundaries the coordinator runs,
/// which is all the conformance checker needs from an engine trace.
fn engine_plan_dag(query: Query) -> PlanDag {
    use ftpde::engine::prelude::{
        q1_engine_plan, q1c_engine_plan, q2c_engine_plan, q3_engine_plan, q5_engine_plan,
    };
    match query {
        Query::Q1 => q1_engine_plan(),
        Query::Q3 => q3_engine_plan(),
        Query::Q5 => q5_engine_plan(),
        Query::Q1C => q1c_engine_plan(),
        Query::Q2C => q2c_engine_plan(),
    }
    .to_plan_dag()
}

/// Resolves the `check --config` flag into a materialization
/// configuration over `plan`: `none`, `all`, `best` (run the cost-based
/// search under the cluster's failure parameters) or `ops:<csv>` (an
/// explicit list of materialized operator ids).
fn get_mat_config(spec: &str, plan: &PlanDag, cluster: &ClusterConfig) -> CliResult<MatConfig> {
    match spec {
        "none" => Ok(MatConfig::none(plan)),
        "all" => Ok(MatConfig::all(plan)),
        "best" => {
            let params = Scheme::cost_params(cluster);
            let (best, _) =
                find_best_ft_plan(std::slice::from_ref(plan), &params, &PruneOptions::default())
                    .map_err(|e| e.to_string())?;
            Ok(best.config)
        }
        other => {
            let csv = other.strip_prefix("ops:").ok_or_else(|| {
                format!("unknown config {other:?} (expected none, all, best or ops:<csv>)")
            })?;
            let ids = csv
                .split(',')
                .filter(|s| !s.trim().is_empty())
                .map(|s| {
                    let s = s.trim();
                    s.parse::<u32>()
                        .map(OpId)
                        .map_err(|_| format!("--config ops: not an operator id: {s:?}"))
                })
                .collect::<CliResult<Vec<OpId>>>()?;
            MatConfig::from_materialized_free_ops(plan, &ids).map_err(|e| e.to_string())
        }
    }
}

fn cmd_check(flags: &HashMap<String, String>) -> CliResult<()> {
    let path = flags.get("trace").ok_or("missing required flag --trace")?;
    let format = get_format(flags, &["text", "json"], "text")?;
    // `--trace -` reads the event log from stdin, so a recorder (or
    // `ftpde sim`) can pipe straight into the checker.
    let (name, text) = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).map_err(|e| format!("cannot read stdin: {e}"))?;
        ("<stdin>".to_string(), buf)
    } else {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        (path.clone(), text)
    };
    let path = &name;
    let events = obs::export::from_jsonl(&text)
        .map_err(|e| format!("{path} is not a JSONL event log: {e:?}"))?;

    // Without --query the trace is checked standalone (well-formedness,
    // track discipline, recovery justification). With it the collapsed
    // plan is rebuilt — against the engine-plan mirror when the trace
    // came from the engine, against the TPC-H cost-model plan when it
    // came from the simulator — so stage identity, ordering, skip
    // legitimacy and Eq. 1 conservation are verified too.
    let stage_plan = if flags.contains_key("query") {
        let query = get_query(flags)?;
        // Like lint, default to the paper's 1-hour cluster.
        let mut cluster_flags = flags.clone();
        cluster_flags.entry("mtbf".to_string()).or_insert_with(|| "3600".to_string());
        let cluster = get_cluster(&cluster_flags)?;
        let pipe_const = Scheme::cost_params(&cluster).pipe_const;
        let spec = flags.get("config").map_or("best", String::as_str);
        let plan = if events.iter().any(|e| e.cat == "engine") {
            engine_plan_dag(query)
        } else {
            let sf = get_f64(flags, "sf", Some(100.0))?;
            query.plan(sf, &CostModel::xdb_calibrated())
        };
        let config = get_mat_config(spec, &plan, &cluster)?;
        Some(StagePlan::new(&plan, &config, pipe_const))
    } else {
        None
    };

    let report = check_trace(path, &events, stage_plan.as_ref(), &CheckOptions::default());
    let set = ReportSet::new(vec![report]);
    render_report_set(&set, format)?;
    if set.is_clean() {
        Ok(())
    } else {
        Err(format!("check found {} error(s)", set.count(Severity::Error)))
    }
}

/// The JSON document `ftpde sim --format json` emits — the CI sim-smoke
/// artifact: every outcome in full plus the shrunk reproductions.
#[derive(serde::Serialize)]
struct SimDoc {
    /// Document identifier for downstream tooling.
    schema: String,
    /// Seeds swept.
    seeds: Vec<u64>,
    /// How many seeds produced an Error-severity finding.
    failing: u64,
    /// Per-seed verdicts, in sweep order.
    outcomes: Vec<ftpde::simharness::runner::CaseOutcome>,
    /// Minimized reproductions of the failing seeds (`--shrink` only).
    shrunk: Vec<ftpde::simharness::shrink::Shrunk>,
}

/// Parses `--seeds A..B` (half-open, like a Rust range literal).
fn parse_seed_range(spec: &str) -> CliResult<std::ops::Range<u64>> {
    let (a, b) =
        spec.split_once("..").ok_or_else(|| format!("--seeds: expected A..B, got {spec:?}"))?;
    let start: u64 = a.trim().parse().map_err(|_| format!("--seeds: not a number: {a:?}"))?;
    let end: u64 = b.trim().parse().map_err(|_| format!("--seeds: not a number: {b:?}"))?;
    if end <= start {
        return Err(format!("--seeds: empty range {spec:?}"));
    }
    Ok(start..end)
}

/// The seeds `sim` derives its cases from: `--seeds A..B` or one `--seed N`.
fn sim_seeds(flags: &HashMap<String, String>) -> CliResult<Vec<u64>> {
    if let Some(spec) = flags.get("seeds") {
        Ok(parse_seed_range(spec)?.collect())
    } else if flags.contains_key("seed") {
        Ok(vec![get_int(flags, "seed", None)?])
    } else {
        Err("missing required flag --seed <N> or --seeds <A..B>".into())
    }
}

/// Appends `entries` to the bug base at `path`, creating the file (with
/// its schema header) when missing and skipping entries whose
/// `(seed, code)` is already recorded. Returns how many were added.
fn append_bug_entries(
    path: &str,
    entries: Vec<ftpde::simharness::bugbase::BugEntry>,
) -> CliResult<usize> {
    use ftpde::simharness::bugbase::BugBase;
    let mut base = if std::path::Path::new(path).exists() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BugBase::parse(&text).map_err(|e| format!("{path}: {e}"))?
    } else {
        BugBase::default()
    };
    let mut added = 0;
    for entry in entries {
        if base.entries.iter().any(|e| e.seed == entry.seed && e.code == entry.code) {
            continue;
        }
        base.entries.push(entry);
        added += 1;
    }
    std::fs::write(path, base.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(added)
}

/// Replays a committed bug base and reports each entry's judgement.
fn sim_replay_bug_base(path: &str, format: &str) -> CliResult<()> {
    use ftpde::simharness::bugbase::BugBase;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let base = BugBase::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let results = base.replay();
    if format == "json" {
        let json = serde_json::to_string(&results)
            .map_err(|e| format!("replay results failed to serialize: {e:?}"))?;
        println!("{json}");
    } else {
        for r in &results {
            let verdict = if r.ok { "ok" } else { "FAIL" };
            println!("seed {:>4} [{}] {verdict}: {}", r.seed, r.code, r.detail);
        }
        println!("{} entr(ies), {} ok", results.len(), results.iter().filter(|r| r.ok).count());
    }
    let bad = results.iter().filter(|r| !r.ok).count();
    if bad == 0 {
        Ok(())
    } else {
        Err(format!("bug base replay: {bad} entr(ies) failed"))
    }
}

fn cmd_sim(flags: &HashMap<String, String>) -> CliResult<()> {
    use ftpde::simharness::prelude::*;
    let format = get_format(flags, &["text", "json"], "text")?;

    if let Some(path) = flags.get("replay-bug-base") {
        if path == "true" {
            return Err("--replay-bug-base needs a file argument".into());
        }
        return sim_replay_bug_base(path, format);
    }

    let seeds = sim_seeds(flags)?;
    let bug = match flags.get("bug").map(String::as_str) {
        None | Some("none") => BugMode::None,
        Some("serve-corrupt-data") => BugMode::ServeCorruptData,
        Some(other) => {
            return Err(format!("unknown bug {other:?} (expected none, serve-corrupt-data)"))
        }
    };
    let shrink = flags.contains_key("shrink");

    let mut outcomes = Vec::with_capacity(seeds.len());
    let mut shrunk = Vec::new();
    for &seed in &seeds {
        let case = SimCase::derive(seed).with_bug(bug);
        let outcome = run_case(&case);
        if format == "text" {
            println!("{}", outcome.headline());
            if outcome.failing() {
                print!("{}", outcome.report.render());
            }
        }
        if outcome.failing() && shrink {
            if let Some(min) = shrink_case(&case) {
                if format == "text" {
                    println!(
                        "  shrunk {} -> {} event(s) in {} run(s) [{}]: {}",
                        min.original_events,
                        min.case.schedule.len(),
                        min.tested,
                        min.code.as_str(),
                        serde_json::to_string(&min.case.schedule)
                            .unwrap_or_else(|_| "<unserializable>".to_string()),
                    );
                }
                shrunk.push(min);
            }
        }
        outcomes.push(outcome);
    }

    let failing = outcomes.iter().filter(|o| o.failing()).count() as u64;
    if let Some(path) = flags.get("bug-base") {
        if path == "true" {
            return Err("--bug-base needs a file argument".into());
        }
        let entries: Vec<BugEntry> = shrunk
            .iter()
            .map(|min| BugEntry {
                seed: min.case.seed,
                code: min.code.as_str().to_string(),
                status: EntryStatus::Quarantined,
                note: format!(
                    "recorded by `ftpde sim --shrink` from seed {} ({} -> {} event(s))",
                    min.case.seed,
                    min.original_events,
                    min.case.schedule.len()
                ),
                case: min.case.clone(),
            })
            .collect();
        let added = append_bug_entries(path, entries)?;
        if format == "text" {
            println!("bug base {path}: {added} new entr(ies)");
        }
    }

    if format == "json" {
        let doc = SimDoc {
            schema: "ftpde-sim-report".to_string(),
            seeds: seeds.clone(),
            failing,
            outcomes,
            shrunk,
        };
        let json = serde_json::to_string(&doc)
            .map_err(|e| format!("sim report failed to serialize: {e:?}"))?;
        println!("{json}");
    } else {
        let warn_only = outcomes.iter().filter(|o| !o.failing() && !o.report.is_clean()).count();
        println!(
            "{} seed(s): {} clean, {warn_only} warn-only, {failing} failing",
            seeds.len(),
            seeds.len() - warn_only - failing as usize,
        );
    }
    if failing == 0 {
        Ok(())
    } else {
        Err(format!("sim found {failing} failing seed(s)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn parse_splits_command_and_flags() {
        let args: Vec<String> =
            ["plan", "--query", "Q5", "--sf", "10"].iter().map(ToString::to_string).collect();
        let (cmd, f) = parse(&args).unwrap();
        assert_eq!(cmd, "plan");
        assert_eq!(f["query"], "Q5");
        assert_eq!(f["sf"], "10");
    }

    #[test]
    fn parse_rejects_malformed_flags() {
        let args: Vec<String> = ["plan", "query"].iter().map(ToString::to_string).collect();
        assert!(parse(&args).is_none());
        assert!(parse(&[]).is_none());
    }

    #[test]
    fn parse_accepts_boolean_flags() {
        let args: Vec<String> =
            ["lint", "--all", "--format", "json"].iter().map(ToString::to_string).collect();
        let (cmd, f) = parse(&args).unwrap();
        assert_eq!(cmd, "lint");
        assert_eq!(f["all"], "true");
        assert_eq!(f["format"], "json");
        // A trailing valueless flag parses too.
        let args: Vec<String> = ["lint", "--all"].iter().map(ToString::to_string).collect();
        assert_eq!(parse(&args).unwrap().1["all"], "true");
    }

    #[test]
    fn query_lookup_is_case_insensitive() {
        assert_eq!(get_query(&flags(&[("query", "q1c")])).unwrap(), Query::Q1C);
        assert!(get_query(&flags(&[("query", "Q9")])).is_err());
        assert!(get_query(&flags(&[])).is_err());
    }

    #[test]
    fn cluster_validation() {
        assert!(get_cluster(&flags(&[("mtbf", "3600")])).is_ok());
        assert!(get_cluster(&flags(&[])).is_err()); // mtbf required
        assert!(get_cluster(&flags(&[("mtbf", "-1")])).is_err());
        assert!(get_cluster(&flags(&[("mtbf", "x")])).is_err());
    }

    #[test]
    fn integer_flags_are_parsed_exactly_or_rejected() {
        let simulate = |flag: &str, value: &str| {
            let mut f = flags(&[("query", "Q1"), ("sf", "1"), ("mtbf", "600"), ("traces", "2")]);
            f.insert(flag.to_string(), value.to_string());
            cmd_simulate(&f)
        };
        for traces in ["0", "-4"] {
            assert!(simulate("traces", traces).is_err(), "--traces {traces}");
        }
        assert!(simulate("seed", "-7").is_err());
        assert!(sim_seeds(&flags(&[("seed", "-7")])).is_err());
        assert!(get_cluster(&flags(&[("mtbf", "3600"), ("nodes", "2.5")])).is_err());

        // 2^53 + 1 has no f64 representation; the simulator gets it as given.
        let seeds = sim_seeds(&flags(&[("seed", "9007199254740993")])).unwrap();
        assert_eq!(seeds, [9_007_199_254_740_993]);
    }

    #[test]
    fn commands_run_end_to_end() {
        let f = flags(&[("query", "Q3"), ("sf", "1"), ("mtbf", "600")]);
        cmd_plan(&f).unwrap();
        let f = flags(&[("query", "Q1"), ("sf", "1"), ("mtbf", "600"), ("traces", "2")]);
        cmd_simulate(&f).unwrap();
        let f = flags(&[("runtime-min", "30"), ("mtbf", "3600")]);
        cmd_success(&f).unwrap();
        let f = flags(&[("query", "Q5"), ("sf", "1"), ("mtbf", "600")]);
        cmd_dot(&f).unwrap();
    }

    #[test]
    fn lint_accepts_builtins_and_rejects_corruption() {
        // Every built-in plan lints clean (Errors would return Err).
        cmd_lint(&flags(&[("all", "true"), ("sf", "1")])).unwrap();
        cmd_lint(&flags(&[("query", "Q3"), ("sf", "1"), ("format", "json")])).unwrap();
        // Mode is mandatory, and formats are validated.
        assert!(cmd_lint(&flags(&[])).is_err());
        assert!(cmd_lint(&flags(&[("all", "true"), ("format", "yaml")])).is_err());
        assert!(cmd_lint(&flags(&[("plan", "/nonexistent/plan.json")])).is_err());

        // A valid serialized plan lints clean through --plan, while one
        // whose edge tables are not mutual inverses fails FT001.
        let dir = std::env::temp_dir().join("ftpde_cli_lint_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        let json = serde_json::to_string(&ftpde::core::dag::figure2_plan()).unwrap();
        std::fs::write(&good, &json).unwrap();
        let gp = good.to_string_lossy().to_string();
        cmd_lint(&flags(&[("plan", gp.as_str())])).unwrap();

        let broken = dir.join("broken.json");
        std::fs::write(&broken, CORRUPTED_PLAN_JSON).unwrap();
        let bp = broken.to_string_lossy().to_string();
        let err = cmd_lint(&flags(&[("plan", bp.as_str())])).unwrap_err();
        assert!(err.contains("error"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A plan whose input table claims a backward edge `1 -> 0` that the
    /// consumer table does not mirror, plus a forward edge `0 -> 1` — the
    /// FT001 structural pass must reject it.
    const CORRUPTED_PLAN_JSON: &str = r#"{
        "ops": [
            {"name": "a", "run_cost": 1.0, "mat_cost": 0.1, "binding": "Free"},
            {"name": "b", "run_cost": 1.0, "mat_cost": 0.1, "binding": "Free"}
        ],
        "inputs": [[1], []],
        "consumers": [[], []]
    }"#;

    /// A small prediction-tagged simulator trace.
    fn calibratable_events() -> Vec<obs::Event> {
        vec![
            obs::Event::instant("plan_estimate", "sim", 0)
                .arg("pred_cost_s", 5.0)
                .arg("pred_runtime_s", 4.0),
            obs::Event::span("stage 0", "sim", 0, 2_000_000)
                .arg("stage", 0u64)
                .arg("pred_run_s", 1.5)
                .arg("pred_mat_s", 0.5)
                .arg("pred_rec_s", 0.0)
                .arg("pred_cost_s", 2.0)
                .arg("dominant", true),
            obs::Event::instant("node_failure", "sim", 500_000)
                .arg("stage", 0u64)
                .arg("node", 1u64)
                .arg("lost_s", 0.5)
                .arg("resumes_at_s", 0.75),
            obs::Event::instant("query_completed", "sim", 5_500_000),
        ]
    }

    #[test]
    fn obs_renders_every_format() {
        let events = calibratable_events();
        let summary = render_obs(&events, "summary").unwrap();
        assert!(summary.contains("Trace summary"));
        assert!(summary.contains("prediction-tagged stages"));
        assert!(summary.contains("trace.span_seconds.sim"));

        let cal = render_obs(&events, "calibration").unwrap();
        assert!(cal.contains("Calibration: predicted vs observed"));
        assert!(cal.contains("rel err"));
        assert!(cal.contains("T_Pt"));

        let prom = render_obs(&events, "prom").unwrap();
        assert!(prom.contains("# TYPE trace_events_sim counter"));
        assert!(prom.contains("calibration_stage_count 1"));

        let json = render_obs(&events, "json").unwrap();
        assert!(json.contains("\"stages\""));
        assert!(json.contains("\"queries\""));

        let queries = render_obs(&events, "queries").unwrap();
        assert!(queries.contains("==== Queries ===="), "{queries}");

        let err = render_obs(&events, "nope").unwrap_err();
        assert!(err.contains("queries"), "{err}");
    }

    /// Two engine queries in one trace, the first with a node retry and
    /// a materialized stage, the second aborted after one restart: one
    /// row each, in trace order.
    #[test]
    fn obs_queries_format_prints_one_row_per_query() {
        let events = vec![
            obs::Event::instant("plan_estimate", "engine", 0).arg("pred_runtime_s", 2.0),
            obs::Event::instant("node_failure", "engine", 100).tid(1),
            obs::Event::instant("redeploy", "engine", 100).tid(1),
            obs::Event::span("stage 3", "engine", 0, 500).arg("stage", 3u64),
            obs::Event::instant("materialize", "engine", 510).arg("rows", 4u64).arg("bytes", 96u64),
            obs::Event::span("stage 7", "engine", 520, 300).arg("stage", 7u64),
            obs::Event::instant("query_completed", "engine", 1_250_000)
                .arg("rows_materialized", 4u64),
            obs::Event::span("stage 7", "engine", 0, 10).arg("stage", 7u64),
            obs::Event::instant("query_restart", "engine", 20),
            obs::Event::span("stage 7", "engine", 20, 10).arg("stage", 7u64),
            obs::Event::instant("query_aborted", "engine", 40),
        ];
        let text = render_obs(&events, "queries").unwrap();
        let rows: Vec<Vec<&str>> = text
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            rows,
            [
                [
                    "0",
                    "engine",
                    "completed",
                    "2",
                    "0",
                    "1",
                    "0",
                    "0",
                    "0",
                    "4",
                    "96",
                    "1.250",
                    "2.000"
                ],
                ["1", "engine", "aborted", "2", "0", "0", "2", "0", "0", "0", "0", "0.000", "-"],
            ],
            "{text}"
        );

        let dir = std::env::temp_dir().join(format!("ftpde_cli_queries_{}", std::process::id()));
        let path = dir.join("two.jsonl");
        obs::export::write_file(&path, &obs::export::to_jsonl(&events)).unwrap();
        let p = path.to_string_lossy().to_string();
        cmd_obs(&flags(&[("trace", p.as_str()), ("format", "queries")])).unwrap();
        let err = cmd_obs(&flags(&[("trace", p.as_str()), ("format", "rows")])).unwrap_err();
        assert!(err.contains("queries"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_command_replays_a_jsonl_file() {
        let dir = std::env::temp_dir().join("ftpde_cli_obs_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("run.jsonl");
        obs::export::write_file(&path, &obs::export::to_jsonl(&calibratable_events())).unwrap();
        let p = path.to_string_lossy().to_string();
        for format in ["summary", "calibration", "prom", "queries", "json"] {
            cmd_obs(&flags(&[("trace", p.as_str()), ("format", format)])).unwrap();
        }
        // Default format is the summary; missing/garbage traces error.
        cmd_obs(&flags(&[("trace", p.as_str())])).unwrap();
        assert!(cmd_obs(&flags(&[])).is_err());
        assert!(cmd_obs(&flags(&[("trace", "/nonexistent/x.jsonl")])).is_err());
        std::fs::write(&path, "not json\n").unwrap();
        assert!(cmd_obs(&flags(&[("trace", p.as_str())])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_command_inspects_and_verifies() {
        use ftpde::store::{int_row, DiskBackend, StoreBackend};

        let dir = std::env::temp_dir().join("ftpde_cli_store_test");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let disk = DiskBackend::open(&dir).unwrap();
            disk.put(0, 0, vec![int_row(&[1, 2]), int_row(&[3, 4])]);
            disk.put_replicated(1, vec![int_row(&[5, 6])], 4);
        }
        let d = dir.to_string_lossy().to_string();

        // A healthy store inspects and verifies cleanly in both formats.
        cmd_store(&flags(&[("inspect", d.as_str())])).unwrap();
        cmd_store(&flags(&[("inspect", d.as_str()), ("format", "json")])).unwrap();
        cmd_store(&flags(&[("verify", d.as_str())])).unwrap();

        // Mode is mandatory, flags need a directory, formats are checked.
        assert!(cmd_store(&flags(&[])).is_err());
        assert!(cmd_store(&flags(&[("inspect", "true")])).is_err());
        assert!(cmd_store(&flags(&[("inspect", d.as_str()), ("format", "yaml")])).is_err());
        assert!(cmd_store(&flags(&[("inspect", "/nonexistent/store")])).is_err());

        // Flip the last payload byte of op 0's image: verify must exit
        // nonzero, inspect still renders (it reports the segment but does
        // not re-checksum it).
        let seg = ftpde::store::inspect(&dir).unwrap().segments.remove(0);
        assert_eq!(seg.op, 0);
        let at = seg.offset as usize + ftpde::store::codec::HEADER_LEN + seg.payload_bytes as usize;
        let log = dir.join(ftpde::store::disk::LOG_FILE);
        let mut bytes = std::fs::read(&log).unwrap();
        bytes[at - 1] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();
        let err = cmd_store(&flags(&[("verify", d.as_str()), ("format", "json")])).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        cmd_store(&flags(&[("inspect", d.as_str())])).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_command_reads_a_store_that_has_no_log_yet() {
        use ftpde::store::DiskBackend;

        // `open` creates only the directory; the log comes with the first
        // put. Such a store is empty and healthy.
        let dir = std::env::temp_dir().join("ftpde_cli_empty_store_test");
        let _ = std::fs::remove_dir_all(&dir);
        drop(DiskBackend::open(&dir).unwrap());
        let d = dir.to_string_lossy().to_string();
        cmd_store(&flags(&[("verify", d.as_str())])).unwrap();
        cmd_store(&flags(&[("inspect", d.as_str()), ("format", "json")])).unwrap();
        for report in [ftpde::store::verify(&dir).unwrap(), ftpde::store::inspect(&dir).unwrap()] {
            assert!(report.segments.is_empty());
            assert!(report.is_clean());
            assert!(report.orphans.is_empty(), "{:?}", report.orphans);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn format_parser_accepts_listed_and_rejects_unknown() {
        assert_eq!(get_format(&flags(&[]), &["text", "json"], "text").unwrap(), "text");
        assert_eq!(
            get_format(&flags(&[("format", "json")]), &["text", "json"], "text").unwrap(),
            "json"
        );
        let err = get_format(&flags(&[("format", "yaml")]), &["text", "json"], "text").unwrap_err();
        assert!(err.contains("yaml") && err.contains("text, json"), "{err}");
    }

    #[test]
    fn mat_config_specs_resolve() {
        let plan = ftpde::core::dag::figure2_plan();
        let cluster = ClusterConfig::new(10, 3600.0, 1.0);
        assert_eq!(get_mat_config("none", &plan, &cluster).unwrap().materialized_count(), 0);
        assert!(get_mat_config("all", &plan, &cluster).unwrap().materialized_count() > 0);
        let best = get_mat_config("best", &plan, &cluster).unwrap();
        assert!(best.len() == plan.len());
        let explicit = get_mat_config("ops:1, 2", &plan, &cluster).unwrap();
        assert_eq!(explicit.materialized_count(), 2);
        assert!(get_mat_config("ops:x", &plan, &cluster).is_err());
        assert!(get_mat_config("nope", &plan, &cluster).is_err());
    }

    #[test]
    fn check_command_verifies_traces() {
        let dir = std::env::temp_dir().join("ftpde_cli_check_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // A real simulated run of Q1 @ SF 1 under the cost-based
        // configuration, replayed against a generated failure trace,
        // must check clean — standalone and against the rebuilt plan.
        let cm = CostModel::xdb_calibrated();
        let plan = Query::Q1.plan(1.0, &cm);
        let cluster = ClusterConfig::new(10, 600.0, 1.0);
        let config = get_mat_config("best", &plan, &cluster).unwrap();
        let rec = obs::MemoryRecorder::new();
        let opts = SimOptions { rec: &rec, ..Default::default() };
        let horizon = suggested_horizon(&plan, &cluster, &opts);
        let trace = FailureTrace::generate(&cluster, horizon, 7);
        simulate(&plan, &config, Recovery::FineGrained, &cluster, &trace, &opts);
        let clean = dir.join("clean.jsonl");
        obs::export::write_file(&clean, &obs::export::to_jsonl(&rec.events())).unwrap();
        let p = clean.to_string_lossy().to_string();
        cmd_check(&flags(&[("trace", p.as_str())])).unwrap();
        let planful = [
            ("trace", p.as_str()),
            ("query", "Q1"),
            ("sf", "1"),
            ("mtbf", "600"),
            ("format", "json"),
        ];
        cmd_check(&flags(&planful)).unwrap();

        // Damaging the trace (a duplicated terminal) must exit nonzero.
        let mut damaged_events = rec.events();
        damaged_events.push(obs::Event::instant("query_completed", "sim", u64::MAX / 2));
        let damaged = dir.join("damaged.jsonl");
        obs::export::write_file(&damaged, &obs::export::to_jsonl(&damaged_events)).unwrap();
        let dp = damaged.to_string_lossy().to_string();
        let err = cmd_check(&flags(&[("trace", dp.as_str())])).unwrap_err();
        assert!(err.contains("error"), "{err}");

        // Flag validation: --trace is required, formats and config specs
        // are parsed by the shared helpers.
        assert!(cmd_check(&flags(&[])).is_err());
        assert!(cmd_check(&flags(&[("trace", p.as_str()), ("format", "yaml")])).is_err());
        let bad = [("trace", p.as_str()), ("query", "Q1"), ("config", "nope"), ("mtbf", "600")];
        assert!(cmd_check(&flags(&bad)).is_err());
        assert!(cmd_check(&flags(&[("trace", "/nonexistent/x.jsonl")])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_stats_instants_surface_in_prom_output() {
        let mut events = calibratable_events();
        events.insert(
            events.len() - 1,
            obs::Event::instant("store_stats", "engine", 5_400_000)
                .arg("logical_rows_written", 128u64)
                .arg("physical_bytes_written", 4096u64)
                .arg("segments_committed", 3u64)
                .arg("corrupt_segments", 0u64)
                .arg("write_bytes_per_s", 1.5e6),
        );
        let prom = render_obs(&events, "prom").unwrap();
        assert!(prom.contains("store_write_bytes_per_s 1500000"), "{prom}");
        assert!(prom.contains("store_segments_committed 3"), "{prom}");
        assert!(prom.contains("store_logical_rows_written 128"), "{prom}");
    }
}
