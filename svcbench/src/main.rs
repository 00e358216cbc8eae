//! End-to-end benchmark of the RoboADS fleet service path.
//!
//! ```text
//! svcbench --workload <slab_256|mixed_lazy_64|service_churn_32>
//!          --seed <n> --seconds <s> --trace <0|1>
//! svcbench --host-facts
//! ```
//!
//! Prints one line per metric, then, as its last line, a JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics of an untraced run (`--trace 0`) or the per-layer metrics of
//! a traced one (`--trace 1`). Exits non-zero when any served decision
//! differs from the in-process reference or a workload leaves its path.
//! See README.md.

mod measure;
mod run;
mod stream;
mod tracer;
mod workload;

use std::process::ExitCode;

use run::Metric;
use workload::{Spec, WORKLOADS};

/// End-to-end metrics whose value can be 0 or whose seed-to-seed spread
/// no regression bound can hold: printed, but carried in the JSON only
/// by the traced run (see README.md).
const NOT_BOUNDED: [&str; 2] = ["false_positive_rate", "failed_ratio"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--host-facts"] {
        let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
        println!(
            "{{\"available_parallelism\": {parallelism}, \"calibrated_parallelism\": {}}}",
            measure::calibrate_parallelism(200_000_000)
        );
        return ExitCode::SUCCESS;
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("svcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!(
            "svcbench: unknown workload {:?}; expected one of {WORKLOADS:?}",
            args.workload
        );
        return ExitCode::from(2);
    };

    let mut outcome = run::run(spec, args.seed, args.seconds, args.trace);

    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let reported: Vec<&Metric> = if args.trace {
        outcome.per_layer.iter().collect()
    } else {
        outcome
            .end_to_end
            .iter()
            .filter(|m| !NOT_BOUNDED.contains(&m.name.as_str()))
            .collect()
    };
    for m in &reported {
        if !m.value.is_finite() {
            outcome.problems.push(format!("{} is not finite", m.name));
        }
    }
    if let Some(tracer) = &outcome.spans {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}-seed{}.spans.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|mut file| tracer.write_jsonl(&mut file));
        match written {
            Ok(()) => eprintln!("svcbench: {} spans written to {path}", tracer.spans.len()),
            Err(e) => outcome.problems.push(format!("writing {path}: {e}")),
        }
    }
    for problem in &outcome.problems {
        eprintln!("svcbench: FAILED CHECK: {problem}");
    }
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse(&strings(&[
            "--workload",
            "slab_256",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, "slab_256");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(parse(&strings(&["--workload", "x", "--seed", "1"])).is_err());
        assert!(parse(&strings(&["--trace", "2"])).is_err());
        assert!(parse(&strings(&["--seconds", "-1"])).is_err());
    }
}
