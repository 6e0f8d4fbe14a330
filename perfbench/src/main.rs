//! `perfbench` — the bagcq benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload serve-hot|serve-cold|sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! `run.sh` builds the release `bagcq` binary and this program, then runs
//! one workload. With `--trace 0` the last stdout line is the JSON result
//! with the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics, preceded by a traffic summary and the stage reconciliation.
//! Every answer is checked against an in-process oracle; any mismatch
//! makes the result `"correct": false` and the exit code nonzero.

mod client;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod sweep;
mod traffic;

use std::path::PathBuf;
use std::process::ExitCode;
use traffic::ServeWorkload;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bagcq: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10, trace: false, bagcq: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("{flag}: bad number {v:?}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--bagcq" => args.bagcq = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    let serve = |w: ServeWorkload| {
        if args.trace {
            serve::run_traced(w, args.seed, args.seconds)
        } else {
            let bagcq =
                args.bagcq.as_deref().ok_or("--bagcq <path to bagcq binary> is required")?;
            serve::run(w, args.seed, args.seconds, bagcq)
        }
    };
    match args.workload.as_str() {
        "serve-hot" => serve(ServeWorkload::Hot),
        "serve-cold" => serve(ServeWorkload::Cold),
        "sweep" if args.trace => sweep::run_traced(args.seed, args.seconds),
        "sweep" => sweep::run(args.seed, args.seconds),
        other => Err(format!("unknown workload {other:?} (serve-hot, serve-cold, sweep)")),
    }
}

fn main() -> ExitCode {
    // The kernel and containment overrides would redirect both the oracle
    // and the server; the benchmark measures the default resolution.
    std::env::remove_var("BAGCQ_BACKEND");
    std::env::remove_var("BAGCQ_CONTAINMENT");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| run(&args));
    match outcome {
        Ok(outcome) => {
            if let Some(why) = &outcome.checked.first_failure {
                eprintln!(
                    "FAILED: {} of {} operations; first: {why}",
                    outcome.checked.failed, outcome.checked.attempted
                );
            }
            println!("{}", outcome.to_json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// Every metric the program reports is declared in `BENCHMARK.json`
    /// with the same unit.
    #[test]
    fn manifest_declares_every_metric() {
        let manifest = include_str!("../../BENCHMARK.json");
        let declared = |name: &str, unit: &str| {
            let key = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            manifest.contains(&key)
        };
        for (name, unit) in crate::layers::PER_LAYER {
            assert!(declared(name, unit), "per-layer {name} ({unit}) missing from BENCHMARK.json");
        }
        for (name, unit) in crate::report::END_TO_END {
            assert!(declared(name, unit), "end-to-end {name} ({unit}) missing from BENCHMARK.json");
        }
    }
}
