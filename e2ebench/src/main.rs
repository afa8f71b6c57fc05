//! `ema-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A traced run also writes its per-layer metrics to
//! `.bench_out/<workload>-seed<n>-trace.json`. Exits 1 when an output
//! check fails and 2 on a usage error.

use ema_e2ebench::workloads::{Size, Workload};
use ema_e2ebench::{run, Options, DEFAULT_SEED};
use ema_obs::Json;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: ema-e2ebench --workload <paper_quick|cohort_stream|warmstart_stream> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("invalid {flag} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad(()))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad(()));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    // One process, an executor of at most two workers: the load is
    // sized for a two-core host and stays comparable on larger ones.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size: Size::BENCH,
        threads,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts, process_start);
    eprint!("{}", report.text);
    if opts.trace {
        let path = std::path::Path::new(".bench_out").join(format!(
            "{}-seed{}-trace.json",
            opts.workload.name(),
            opts.seed
        ));
        let doc = Json::obj(vec![
            ("workload", Json::from(opts.workload.name())),
            ("seed", Json::from(opts.seed)),
            ("backend", Json::from(report.backend)),
            ("digest", Json::from(report.digest.as_str())),
            ("metrics", report.metrics_json()),
        ]);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, doc.pretty()));
        if let Err(e) = written {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    println!("{}", report.result_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
