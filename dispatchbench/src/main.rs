//! Command line of the dispatch benchmark; see the library docs.
//!
//! ```text
//! dispatchbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints the detail report, then, as the last line of stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

use mbta_dispatchbench::inputs::Scale;
use mbta_dispatchbench::{report, run, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dispatchbench --workload <exact_replay|sharded_rescue|online_stream|\
cluster_tcp> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return Err(format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad trace {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dispatchbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("run-{}", std::process::id()));
    let outcome = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::Full,
        &work,
    );
    let _ = std::fs::remove_dir_all(&work);
    let run = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dispatchbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let rendered = report::render(&run);
    let results = root.join("results");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let saved = std::fs::create_dir_all(&results)
        .and_then(|_| std::fs::write(results.join(format!("{stem}.json")), &rendered.detail))
        .and_then(
            |_| match run.passes.iter().rev().find_map(|p| p.tracer.as_ref()) {
                Some(t) => t.write_csv(&results.join(format!("{stem}-spans.csv"))),
                None => Ok(()),
            },
        );
    if let Err(e) = saved {
        eprintln!("dispatchbench: cannot write results: {e}");
    }
    println!("{}", rendered.detail);
    println!("{}", rendered.result);
    ExitCode::SUCCESS
}
