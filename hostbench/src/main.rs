//! Runs one workload of the host-time benchmark and prints its result.
//!
//! ```sh
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload train|analyze|serve --seed 1 --seconds 20 --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics. Earlier lines name the host, the
//! workload's figures under their own names and, when traced, each
//! layer's self time. `--pin` prints the analyze digest pins instead.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use tbd_hostbench::report::{per_layer_metrics, result_line, RunReport};
use tbd_hostbench::{analyze, host, serve, spans, train, RunArgs};

struct Cli {
    workload: String,
    args: RunArgs,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".to_string());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Cli {
        workload,
        args: RunArgs {
            seed,
            window: Duration::from_secs(seconds),
            trace,
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--pin") {
        return match analyze::pin_table() {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\nusage: --workload train|analyze|serve --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let run = match cli.workload.as_str() {
        "train" => train::run,
        "analyze" => analyze::run,
        "serve" => serve::run,
        other => {
            eprintln!("error: unknown workload '{other}' (train, analyze, serve)");
            return ExitCode::from(2);
        }
    };
    let host = host::description();
    println!("# host: {host}");
    println!(
        "# workload {} seed {} window {} s trace {}",
        cli.workload,
        cli.args.seed,
        cli.args.window.as_secs(),
        u8::from(cli.args.trace)
    );
    let mut report: RunReport = match run(&cli.args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.summary.peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    for note in &report.notes {
        println!("# {}", note.replace('\n', "\n# "));
    }
    for m in &report.named {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for m in report.summary.metrics() {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for failure in &report.check_failures {
        println!("# CHECK FAILED: {failure}");
    }
    let metrics = if cli.args.trace {
        let path = PathBuf::from("hostbench/out").join(format!(
            "spans-{}-seed{}.jsonl",
            cli.workload, cli.args.seed
        ));
        let header = format!(
            "{{\"host\":\"{}\",\"workload\":\"{}\",\"seed\":{}}}",
            host.replace('"', "'"),
            cli.workload,
            cli.args.seed
        );
        match spans::write_jsonl(&path, &header, &report.spans) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        per_layer_metrics(&report.layers)
    } else {
        report.summary.metrics()
    };
    let correct = report.check_failures.is_empty() && report.failed == 0;
    println!(
        "{}",
        result_line(correct, report.attempted.max(1), report.failed, &metrics)
    );
    ExitCode::SUCCESS
}
