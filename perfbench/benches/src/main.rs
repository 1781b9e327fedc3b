//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]`
//!
//! Prints a human-readable report and, as its last line, one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;

use ftpde_perfbench::{run, Settings, Workload};

const USAGE: &str =
    "usage: perfbench --workload <olap-nomat|checkpoint-disk|resume-disk|ft-planning> \
                     --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]";

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out_dir) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mut s = Settings::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    );
    s.out_dir = out_dir;
    Ok(s)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&settings) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
