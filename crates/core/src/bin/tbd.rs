//! `tbd` — command-line front end of the benchmark suite.
//!
//! ```text
//! tbd suite [--gpu p4000|titanxp]             run all Table-2 implementations
//! tbd sweep <model> [--framework <fw>]        batch sweep (Fig. 4 slice)
//! tbd memory <model> [--framework <fw>]       memory breakdown (Fig. 9 slice)
//! tbd kernels <model> <framework>             kernel table (Tables 5/6 style)
//! tbd distributed                             alias of tbd scale resnet50 (MXNet, b16)
//! tbd scale <model> [--sweep] [--stragglers]  event-driven scaling report
//! tbd diagnose <model> [--cluster <label>]    trace-mining bottleneck diagnosis
//! tbd watch <model> [--port <p>] [--steps N]  live observability HTTP endpoint
//! tbd serve [--port <p>] [--workers N]        capacity-planning query service
//! tbd loadgen [--mode closed|open]            load-generate against the serve engine
//! tbd report <model> [--out run.html]         self-contained HTML run report
//! tbd json <model> <framework> <batch>        one profile as a JSON object
//! tbd list                                    models, frameworks, devices
//! ```
//!
//! Every subcommand parses its arguments through one [`Grammar`]: a table
//! of positionals and flags (`"--batch <n>"` takes a value, `"--sweep"` is
//! a switch). Unknown flags and flags missing their value are errors, flag
//! values are never read as positionals, and `tbd help` prints the same
//! tables.

use std::fmt::Write as _;
use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use tbd_core::serve::{parse_framework, parse_model};
use tbd_core::{
    kernel_table, paper_batches, Framework, GpuSpec, MemoryCategory, ModelKind, Suite,
    WorkloadProfile,
};
use tbd_frameworks::SpeedOptions;
use tbd_profiler::json::{self, Canonical, Codec};
use tbd_profiler::{observe, TraceOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let command = it.next().map(String::as_str).unwrap_or("help");
    let rest: Vec<&str> = it.map(String::as_str).collect();
    let result = match command {
        "suite" => cmd_suite(&rest),
        "sweep" => cmd_sweep(&rest),
        "memory" => cmd_memory(&rest),
        "kernels" => cmd_kernels(&rest),
        "distributed" => DISTRIBUTED
            .parse(&rest)
            .and_then(|_| cmd_scale(&["resnet50", "--framework", "mxnet", "--batch", "16"])),
        "scale" => cmd_scale(&rest),
        "chaos" => cmd_chaos(&rest),
        "diagnose" => cmd_diagnose(&rest),
        "json" => cmd_json(&rest),
        "trace" => cmd_trace(&rest),
        "metrics" => cmd_metrics(&rest),
        "watch" => cmd_watch(&rest),
        "serve" => cmd_serve(&rest),
        "loadgen" => cmd_loadgen(&rest),
        "report" => cmd_report(&rest),
        "bench" => cmd_bench(&rest),
        "dot" => cmd_dot(&rest),
        "analyze" => cmd_analyze(&rest),
        "list" => cmd_list(&rest),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try `tbd help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// One subcommand's command line, written as its usage line: the
/// command, its positionals (`[<batch>]` is optional) and its flags in
/// brackets — `[--batch <n>]` takes a value, `[--sweep]` is a switch, and
/// a value `a|b|c` lists its choices ([`Opts::choice`] defaults to the
/// first).
struct Grammar {
    usage: &'static str,
    about: &'static str,
}

const SUITE: Grammar =
    Grammar { usage: "suite [--gpu p4000|titanxp]", about: "profile all Table-2 implementations" };
const SWEEP: Grammar = Grammar {
    usage: "sweep <model> [--framework <fw>] [--gpu p4000|titanxp]",
    about: "throughput/utilisation batch sweep",
};
const MEMORY: Grammar = Grammar {
    usage: "memory <model> [--framework <fw>] [--gpu p4000|titanxp]",
    about: "Fig. 9-style memory breakdown",
};
const KERNELS: Grammar = Grammar {
    usage: "kernels <model> <framework> [--gpu p4000|titanxp]",
    about: "Tables 5/6-style kernel table",
};
const DISTRIBUTED: Grammar = Grammar {
    usage: "distributed",
    about: "Fig. 10 cluster sweep: alias of `tbd scale resnet50 --framework mxnet --batch 16`",
};
const SCALE: Grammar = Grammar {
    usage: "scale <model> [--framework <fw>] [--batch <n>] [--sweep] [--stragglers] [--seed <n>] \
            [--churn sweep|mild|heavy|<rate>] [--format md|json] [--out <f>] \
            [--check <snapshot>] [--gpu p4000|titanxp]",
    about: "event-driven Fig. 10/11 scaling report with derived overlap; --churn swaps in the \
            elastic-membership sweep below",
};
const ELASTIC: Grammar = Grammar {
    usage: "scale|chaos <model> [--churn sweep|mild|heavy|<rate>] [--framework <fw>] \
            [--batch <n>] [--seed <n>] [--steps <n>] [--format md|json] [--out <f>] \
            [--check <snapshot>] [--gpu p4000|titanxp]",
    about: "elastic-membership sweep: evictions on missed collective deadlines, degraded \
            all-reduce, rejoin catch-up",
};
const CHAOS: Grammar = Grammar {
    usage: "chaos <model> [--framework <fw>] [--batch <n>] [--steps <n>] [--seed <n>] \
            [--faults none|mild|heavy] [--policy replay-exact|default] [--threads <n>] \
            [--churn sweep|mild|heavy|<rate>] [--format md|json] [--out <f>] \
            [--check <snapshot>] [--gpu p4000|titanxp]",
    about: "fault-injection run with recovery, goodput and bit-exactness verdict; --churn \
            injects node loss instead of kernel faults (elastic sweep)",
};
const DIAGNOSE: Grammar = Grammar {
    usage: "diagnose <model> [--framework <fw>] [--batch <n>] [--cluster <label>] [--stragglers] \
            [--seed <n>] [--faults none|mild|heavy] [--steps <n>] [--threads <n>] [--fuse] \
            [--no-fuse] [--precision f32|f16|bf16] [--format md|json] [--out <f>] \
            [--check <snapshot>] [--gpu p4000|titanxp]",
    about: "trace-mining diagnosis: ranked bottleneck classes with evidence",
};
const JSON: Grammar = Grammar {
    usage: "json <model> <framework> <batch> [--gpu p4000|titanxp]",
    about: "one profile as JSON",
};
const TRACE: Grammar = Grammar {
    usage: "trace <model> [<framework>] [<batch>] [--framework <fw>] [--batch <n>] \
            [--threads <n>] [--out <f>] [--summary] [--fuse] [--no-fuse] \
            [--precision f32|f16|bf16] [--gpu p4000|titanxp]",
    about: "full-spine Chrome trace JSON (--summary for an nvprof-style table)",
};
const METRICS: Grammar = Grammar {
    usage: "metrics <model> [--framework <fw>] [--batch <n>] [--threads <n>] [--fuse] \
            [--no-fuse] [--precision f32|f16|bf16] [--format prom|json|md] [--gpu p4000|titanxp]",
    about: "streaming aggregation of a live trace into the metrics registry",
};
const WATCH: Grammar = Grammar {
    usage: "watch <model> [--framework <fw>] [--batch <n>] [--port <p>] [--steps <n>] \
            [--interval-ms <n>] [--retain-cap <n>] [--threads <n>] [--fuse] [--no-fuse] \
            [--precision f32|f16|bf16] [--gpu p4000|titanxp]",
    about: "live HTTP endpoint: /metrics /health /trace.json /report",
};
const SERVE: Grammar = Grammar {
    usage: "serve [--port <p>] [--workers <n>] [--queue <n>] [--shards <n>] [--gpu p4000|titanxp]",
    about: "capacity-planning HTTP service: GET /query?model=…&cluster=… answers iteration \
            time, exposed comm, top-1 diagnosis and $/iteration from a sharded single-flight \
            cache (deterministic responses; /health for stats)",
};
const LOADGEN: Grammar = Grammar {
    usage: "loadgen [--mode closed|open] [--clients <n>] [--requests <n>] [--rate <qps>] \
            [--gpu p4000|titanxp] [--format md|json] [--out <f>] [--check <golden>] [--bench <f>]",
    about: "drive the serve engine in-process, report q/s and p50/p95/p99 latency; --check \
            pins the golden query response, --bench attaches the summary to an existing \
            BENCH_<date>.json",
};
const REPORT: Grammar = Grammar {
    usage: "report <model> [--framework <fw>] [--batch <n>] [--out <f>] [--timestamp <t>] \
            [--check <digest-file>] [--threads <n>] [--fuse] [--no-fuse] \
            [--precision f32|f16|bf16] [--gpu p4000|titanxp]",
    about: "self-contained HTML run report (flamegraph, memory, overlap, diagnosis)",
};
const BENCH: Grammar = Grammar {
    usage: "bench [--matrix] [--out <dir>] [--check <snapshot>] [--fuse] [--no-fuse] \
            [--precision f32|f16|bf16] [--gpu p4000|titanxp]",
    about: "perf-trajectory run: writes schema-versioned BENCH_<date>.json",
};
const DOT: Grammar = Grammar { usage: "dot <model>", about: "model graph in Graphviz DOT format" };
const ANALYZE: Grammar = Grammar {
    usage: "analyze <model> <framework> <batch> [--gpu p4000|titanxp]",
    about: "full Fig. 3 analysis pipeline",
};
const LIST: Grammar = Grammar { usage: "list", about: "available models/frameworks/devices" };

/// Every grammar, in `tbd help` order.
const GRAMMARS: [&Grammar; 20] = [
    &SUITE,
    &SWEEP,
    &MEMORY,
    &KERNELS,
    &DISTRIBUTED,
    &SCALE,
    &ELASTIC,
    &CHAOS,
    &DIAGNOSE,
    &JSON,
    &TRACE,
    &METRICS,
    &WATCH,
    &SERVE,
    &LOADGEN,
    &REPORT,
    &BENCH,
    &DOT,
    &ANALYZE,
    &LIST,
];

/// The name of a flag spec (`"--batch <n>"` → `"--batch"`).
fn flag_name(spec: &str) -> &str {
    spec.split(' ').next().unwrap_or(spec)
}

impl Grammar {
    /// The usage line's items: words, each bracketed group kept whole.
    fn items(&self) -> Vec<&'static str> {
        let mut items = Vec::new();
        let mut rest = self.usage.trim_start();
        while !rest.is_empty() {
            let end = match rest.starts_with('[') {
                true => rest.find(']').map_or(rest.len(), |i| i + 1),
                false => rest.find(' ').unwrap_or(rest.len()),
            };
            items.push(&rest[..end]);
            rest = rest[end..].trim_start();
        }
        items
    }

    fn command(&self) -> &'static str {
        self.items()[0]
    }

    /// The flag specs, unbracketed (`"--batch <n>"`).
    fn flags(&self) -> Vec<&'static str> {
        let unbracket = |item: &'static str| item.strip_prefix('[')?.strip_suffix(']');
        self.items().into_iter().filter_map(unbracket).filter(|f| f.starts_with("--")).collect()
    }

    /// How many positionals the command takes: (required, at most).
    fn arity(&self) -> (usize, usize) {
        let positional: Vec<&str> =
            self.items().into_iter().skip(1).filter(|item| !item.starts_with("[--")).collect();
        (positional.iter().filter(|item| !item.starts_with('[')).count(), positional.len())
    }

    /// Splits `args` into positionals and flags checked against the table.
    fn parse<'a>(&'static self, args: &[&'a str]) -> Result<Opts<'a>, String> {
        let flags = self.flags();
        let mut opts = Opts { grammar: self, positional: Vec::new(), flags: Vec::new() };
        let mut it = args.iter().copied();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                opts.positional.push(arg);
                continue;
            }
            let spec = flags.iter().find(|spec| flag_name(spec) == arg).ok_or_else(|| {
                let valid: Vec<&str> = flags.iter().map(|spec| flag_name(spec)).collect();
                let valid = if valid.is_empty() { "none".into() } else { valid.join(", ") };
                format!("unknown flag '{arg}' for `tbd {}` (valid: {valid})", self.command())
            })?;
            let value = match spec.split_once(' ') {
                Some((_, placeholder)) => Some(
                    it.next()
                        .filter(|value| !value.starts_with("--"))
                        .ok_or_else(|| format!("{arg} needs a value ({placeholder})"))?,
                ),
                None => None,
            };
            opts.flags.push((arg, value));
        }
        let (required, most) = self.arity();
        if !(required..=most).contains(&opts.positional.len()) {
            return Err(format!("usage: tbd {}", self.usage));
        }
        Ok(opts)
    }
}

/// A parsed command line with typed getters. A repeated flag reads its
/// first occurrence.
struct Opts<'a> {
    grammar: &'static Grammar,
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

/// `text` as a positive integer of the non-zero type `N`, or an error
/// naming `what`: the one check behind `--batch` and `--steps`.
fn positive<N: std::str::FromStr<Err = std::num::ParseIntError>>(
    what: &str,
    text: &str,
) -> Result<N, String> {
    text.parse().map_err(|e| format!("{what} must be a positive integer: '{text}' ({e})"))
}

impl<'a> Opts<'a> {
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| *flag == name)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.flags.iter().find(|(flag, _)| *flag == name).and_then(|(_, value)| *value)
    }

    /// The first positional (every grammar that calls this requires it).
    fn model(&self) -> Result<ModelKind, String> {
        parse_model(self.positional[0])
    }

    /// `--framework`, else the second positional, else the first framework
    /// that supports `model`.
    fn framework(&self, model: ModelKind) -> Result<Framework, String> {
        match self.value("--framework").or(self.positional.get(1).copied()) {
            Some(name) => parse_framework(name),
            None => Framework::all()
                .into_iter()
                .find(|fw| fw.supports(model))
                .ok_or_else(|| "no framework supports this model".to_string()),
        }
    }

    /// `--batch`, else the third positional, else `default`.
    fn batch(&self, default: usize) -> Result<usize, String> {
        match self.value("--batch").or(self.positional.get(2).copied()) {
            Some(text) => positive::<NonZeroUsize>("batch", text).map(usize::from),
            None => Ok(default),
        }
    }

    /// `--steps`, else `default`.
    fn steps(&self, default: u64) -> Result<u64, String> {
        match self.value("--steps") {
            Some(text) => positive::<NonZeroU64>("steps", text).map(u64::from),
            None => Ok(default),
        }
    }

    /// Model, framework and batch (default: the model's smallest paper
    /// batch).
    fn workload(&self) -> Result<(ModelKind, Framework, usize), String> {
        let model = self.model()?;
        Ok((model, self.framework(model)?, self.batch(paper_batches(model)[0])?))
    }

    fn int<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            Some(text) => text.parse().map_err(|_| format!("{name} must be an integer")),
            None => Ok(default),
        }
    }

    /// A closed-choice flag (`--format md|json`): its value, or the first
    /// choice when absent.
    fn choice(&self, name: &str) -> Result<&'a str, String> {
        let flags = self.grammar.flags();
        let spec = flags.iter().find(|spec| flag_name(spec) == name).expect("a grammar flag");
        let choices: Vec<&str> =
            spec.split_once(' ').map_or(vec![], |(_, choices)| choices.split('|').collect());
        match self.value(name) {
            None => Ok(choices[0]),
            Some(value) if choices.contains(&value) => Ok(value),
            Some(other) => Err(format!(
                "unknown {} '{other}' ({})",
                name.trim_start_matches("--"),
                choices.join(", ")
            )),
        }
    }

    fn gpu(&self) -> Result<GpuSpec, String> {
        Ok(match self.choice("--gpu")? {
            "titanxp" => GpuSpec::titan_xp(),
            _ => GpuSpec::quadro_p4000(),
        })
    }

    /// The capture configuration of `--threads`, `--fuse`, `--no-fuse`
    /// and `--precision`, over [`TraceOptions::default`]: fusion stays on
    /// unless `--no-fuse`, and `--fuse` together with `--no-fuse` is an
    /// error. A grammar without `--threads` keeps the default thread cap.
    fn capture(&self) -> Result<TraceOptions, String> {
        if self.has("--fuse") && self.has("--no-fuse") {
            return Err("--fuse and --no-fuse contradict each other; pass one".to_string());
        }
        let defaults = TraceOptions::default();
        let precision = match self.value("--precision") {
            Some(name) => name.parse()?,
            None => defaults.speed.precision,
        };
        Ok(TraceOptions {
            intra_op_threads: self.int("--threads", defaults.intra_op_threads)?,
            speed: SpeedOptions { fuse: !self.has("--no-fuse"), precision },
            ..defaults
        })
    }

    /// Writes `rendered` to `--out`, noting `wrote(path)` on stderr, or
    /// prints it when there is no `--out`.
    fn emit(&self, rendered: &str, wrote: impl FnOnce(&str) -> String) -> Result<(), String> {
        match self.value("--out") {
            Some(path) => {
                std::fs::write(path, rendered).map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("{}", wrote(path));
            }
            None => print_all(rendered),
        }
        Ok(())
    }

    /// `--check <snapshot>`: decodes the pinned snapshot and gates
    /// `drift(&baseline)`, failing as "`what` drift vs snapshot" and
    /// noting `holds` on success. Returns the baseline when checked.
    fn check<T: Codec>(
        &self,
        what: &str,
        holds: &str,
        drift: impl FnOnce(&T) -> Result<(), String>,
    ) -> Result<Option<T>, String> {
        let Some(snapshot) = self.value("--check") else { return Ok(None) };
        let text =
            std::fs::read_to_string(snapshot).map_err(|e| format!("reading {snapshot}: {e}"))?;
        let baseline: T = json::decode_text(&text)?;
        drift(&baseline).map_err(|failures| format!("{what} drift vs {snapshot}:\n{failures}"))?;
        eprintln!("drift check vs {snapshot}: {holds}");
        Ok(Some(baseline))
    }
}

/// Writes large output without panicking when the consumer (e.g. `head`)
/// closes the pipe early.
fn print_all(text: &str) {
    use std::io::Write;
    let mut stdout = std::io::stdout();
    let _ = stdout.write_all(text.as_bytes());
    let _ = stdout.write_all(b"\n");
}

fn print_help() {
    let mut out = String::from(
        "tbd — Training Benchmark for DNNs (Rust reproduction of IISWC 2018)\n\ncommands:\n",
    );
    for grammar in GRAMMARS {
        wrap_into(&mut out, "  ", grammar.items().into_iter());
        wrap_into(&mut out, "        ", grammar.about.split(' '));
    }
    print!("{out}");
}

/// Appends `words` wrapped at 88 columns, the first line indented by
/// `first` and the rest by eight spaces.
fn wrap_into<'w>(out: &mut String, first: &str, words: impl Iterator<Item = &'w str>) {
    let mut indent = first;
    let mut line = String::new();
    for word in words {
        if !line.is_empty() && indent.len() + line.chars().count() + 1 + word.chars().count() > 88 {
            let _ = writeln!(out, "{indent}{line}");
            line.clear();
            indent = "        ";
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(word);
    }
    let _ = writeln!(out, "{indent}{line}");
}

fn cmd_suite(args: &[&str]) -> Result<(), String> {
    let opts = SUITE.parse(args)?;
    let suite = Suite::new(opts.gpu()?);
    println!("TBD suite on {}", suite.gpu().name);
    for (kind, framework) in Suite::supported_pairs() {
        let batch = *paper_batches(kind).last().expect("non-empty axis");
        // Fall back to smaller batches on OOM, as the figures do.
        let mut shown = false;
        for &b in paper_batches(kind).iter().rev() {
            if let Ok(p) = suite.run(kind, framework, b) {
                print_metrics_row(kind, framework, &p);
                shown = true;
                break;
            }
        }
        if !shown {
            println!(
                "{:<14} {:<11} no feasible batch (largest tried {batch})",
                kind.name(),
                framework.name()
            );
        }
    }
    Ok(())
}

fn print_metrics_row(kind: ModelKind, framework: Framework, p: &WorkloadProfile) {
    println!(
        "{:<14} {:<11} b{:<5} {:>8.1}/s  GPU {:>5.1}%  FP32 {:>5.1}%  CPU {:>5.1}%  {:>5.2} GB",
        kind.name(),
        framework.name(),
        p.batch,
        p.throughput,
        100.0 * p.iteration.gpu_utilization,
        100.0 * p.iteration.fp32_utilization,
        100.0 * p.iteration.cpu_utilization,
        p.memory.total() as f64 / 1e9
    );
}

fn cmd_sweep(args: &[&str]) -> Result<(), String> {
    let opts = SWEEP.parse(args)?;
    let model = opts.model()?;
    let framework = opts.framework(model)?;
    let suite = Suite::new(opts.gpu()?);
    println!("{} on {} ({})", model.name(), framework.name(), suite.gpu().name);
    for (batch, metrics) in suite.sweep(model, framework) {
        match metrics {
            Some(p) => print_metrics_row(model, framework, &p),
            None => println!("{:<14} {:<11} b{:<5} OOM", model.name(), framework.name(), batch),
        }
    }
    Ok(())
}

fn cmd_memory(args: &[&str]) -> Result<(), String> {
    let opts = MEMORY.parse(args)?;
    let model = opts.model()?;
    let framework = opts.framework(model)?;
    let suite = Suite::new(opts.gpu()?);
    println!("{} on {} — memory breakdown", model.name(), framework.name());
    for (batch, metrics) in suite.sweep(model, framework) {
        match metrics {
            Some(m) => {
                print!("  b{batch:<5} {:5.2} GB |", m.memory.total() as f64 / 1e9);
                for cat in MemoryCategory::ALL {
                    print!(" {cat} {:.2}", m.memory.peak(cat) as f64 / 1e9);
                }
                println!();
            }
            None => println!("  b{batch:<5} OOM"),
        }
    }
    // Layer-type attribution of the activations (the profiler's
    // "where does the memory go" view).
    let batch = paper_batches(model)[0];
    let built = model.build_full(batch).map_err(|e| e.to_string())?;
    let by_op = tbd_graph::lower::activation_bytes_by_op(&built.graph);
    println!("activation bytes by layer type (batch {batch}):");
    let mut rows: Vec<_> = by_op.into_iter().collect();
    rows.sort_by_key(|(_, b)| std::cmp::Reverse(*b));
    for (op, bytes) in rows.into_iter().take(8) {
        println!("  {op:<16} {:>9.1} MB", bytes as f64 / 1e6);
    }
    Ok(())
}

fn cmd_kernels(args: &[&str]) -> Result<(), String> {
    let opts = KERNELS.parse(args)?;
    let model = opts.model()?;
    let framework = opts.framework(model)?;
    let suite = Suite::new(opts.gpu()?);
    let batch = *paper_batches(model).last().expect("non-empty");
    let m = suite
        .run(model, framework, batch)
        .or_else(|_| suite.run(model, framework, paper_batches(model)[0]))
        .map_err(|e| e.to_string())?;
    println!(
        "{} on {} (b{}) — longest below-average-FP32 kernels (avg {:.1} %)",
        model.name(),
        framework.name(),
        m.batch,
        100.0 * m.iteration.fp32_utilization
    );
    for row in kernel_table(&m.iteration.records, framework, 5) {
        println!(
            "  {:>6.2}%  {:>5.1}%  {}",
            100.0 * row.duration_share,
            100.0 * row.fp32_utilization,
            row.name
        );
    }
    Ok(())
}

/// `tbd scale` — replay one profiled worker through the event-driven
/// data-parallel simulator across the Fig. 10 grid (or, with `--sweep`,
/// the full 1M1G→4M4G grid), optionally with seeded straggler injection.
fn cmd_scale(args: &[&str]) -> Result<(), String> {
    use tbd_core::ScaleReport;
    // `--churn` swaps the straggler sweep for the elastic-membership one.
    if args.contains(&"--churn") {
        return cmd_elastic(args);
    }
    let opts = SCALE.parse(args)?;
    let (model, framework, batch) = opts.workload()?;
    let sweep = opts.has("--sweep");
    let seed: Option<u64> = if opts.has("--stragglers") || opts.has("--seed") {
        Some(opts.int("--seed", 42)?)
    } else {
        None
    };
    let gpu = opts.gpu()?;
    let format = opts.choice("--format")?;
    eprintln!(
        "scaling {}/{} b{batch} across the {} grid{}...",
        model.name(),
        framework.name(),
        if sweep { "1M1G\u{2192}4M4G" } else { "Fig. 10" },
        match seed {
            Some(s) => format!(" with stragglers (seed {s})"),
            None => String::new(),
        }
    );
    let report = ScaleReport::run(model, framework, batch, &gpu, sweep, seed)?;
    let rendered =
        if format == "json" { report.to_json().to_string() } else { report.to_markdown() };
    opts.emit(&rendered, |path| {
        format!(
            "wrote {} cluster points to {path} — digest {}",
            report.entries.len(),
            report.digest_hex()
        )
    })?;
    opts.check("scale", "deterministic sweep matches the pinned snapshot", |baseline| {
        report.check_drift(baseline)
    })?;
    // Healthy runs must land where the paper's Fig. 10/11 landed
    // (Observations 12/13); a straggler-injected run is allowed to sag.
    if seed.is_none() {
        eprintln!("{}", report.observations()?);
    }
    Ok(())
}

/// `tbd scale --churn` / `tbd chaos --churn` — the elastic-membership
/// sweep: every Fig. 10 cluster is replayed under seeded worker churn
/// (evictions on missed collective deadlines, degraded all-reduce to the
/// survivors, checkpoint catch-up on rejoin), reporting churn-adjusted
/// goodput per (cluster × rate) point.
fn cmd_elastic(args: &[&str]) -> Result<(), String> {
    use tbd_core::{ElasticReport, CHURN_RATE_LADDER};
    let opts = ELASTIC.parse(args)?;
    let (model, framework, batch) = opts.workload()?;
    let seed = opts.int("--seed", 42)?;
    let steps = opts.steps(32)?;
    // The spec: the full ladder, a preset, or a bare rate — presets and
    // rates keep the 0.0 control point so goodput retention is defined.
    let spec = opts.value("--churn").ok_or_else(|| format!("usage: tbd {}", ELASTIC.usage))?;
    let rates: Vec<f64> = match spec {
        "sweep" | "ladder" => CHURN_RATE_LADDER.to_vec(),
        "mild" => vec![0.0, 0.3],
        "heavy" => vec![0.0, 0.6],
        text => {
            let rate: f64 = text
                .parse()
                .map_err(|_| format!("--churn '{text}' is not sweep, mild, heavy or a rate"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("--churn rate {rate} outside [0, 1]"));
            }
            vec![0.0, rate]
        }
    };
    let gpu = opts.gpu()?;
    let format = opts.choice("--format")?;
    eprintln!(
        "elastic sweep: {}/{} b{batch}, {steps} steps, churn '{spec}' seeded {seed} \
         across the Fig. 10 grid...",
        model.name(),
        framework.name(),
    );
    let report = ElasticReport::run_rates(model, framework, batch, &gpu, seed, steps, &rates)?;
    let rendered =
        if format == "json" { report.to_json().to_string() } else { report.to_markdown() };
    opts.emit(&rendered, |path| {
        format!(
            "wrote {} elastic points to {path} — digest {}",
            report.entries.len(),
            report.digest_hex()
        )
    })?;
    // The headline law: more churn never buys goodput, and the churn-free
    // control point retains the full healthy goodput.
    report.monotonicity()?;
    eprintln!("monotone-goodput law holds across {} points", report.entries.len());
    opts.check("elastic", "deterministic sweep matches the pinned snapshot", |baseline| {
        report.check_drift(baseline)
    })?;
    Ok(())
}

/// `tbd chaos` — run the deterministic fault-injection harness (a proxy
/// trainer parameterised by the named workload's iteration cost and OOM
/// degradation ladder), report faults, recoveries, goodput and the
/// replay-exact bit-exactness verdict.
fn cmd_chaos(args: &[&str]) -> Result<(), String> {
    use tbd_core::{ChaosReport, FaultPreset};
    use tbd_train::RecoveryPolicy;
    // `--churn` swaps the fault-injection proxy for the elastic-membership
    // sweep: node loss instead of kernel faults.
    if args.contains(&"--churn") {
        return cmd_elastic(args);
    }
    let opts = CHAOS.parse(args)?;
    let model = opts.model()?;
    let framework = opts.framework(model)?;
    // Default to the largest paper batch: for several workloads it OOMs at
    // baseline on the P4000, so the degradation ladder gets exercised.
    let batch = opts.batch(*paper_batches(model).last().expect("non-empty axis"))?;
    let steps = opts.steps(20)?;
    let seed = opts.int("--seed", 42)?;
    let preset = FaultPreset::parse(opts.value("--faults").unwrap_or("mild"))?;
    // The grammar admits only the two policy names; replay-exact is first.
    let policy = match opts.choice("--policy")? {
        name if name == RecoveryPolicy::Default.name() => RecoveryPolicy::Default,
        _ => RecoveryPolicy::ReplayExact,
    };
    let threads = opts.int("--threads", 1)?;
    let gpu = opts.gpu()?;
    let format = opts.choice("--format")?;
    eprintln!(
        "chaos run: {}/{} b{batch}, {steps} steps, '{}' faults seeded {seed}, {} policy...",
        model.name(),
        framework.name(),
        preset.name(),
        policy.name(),
    );
    let report =
        ChaosReport::run(model, framework, batch, &gpu, seed, steps, preset, policy, threads)?;
    let rendered =
        if format == "json" { report.to_json().to_string() } else { report.to_markdown() };
    opts.emit(&rendered, |path| {
        format!(
            "wrote chaos report to {path} — {} faults, {} recoveries, digest {}",
            report.faults_injected,
            report.recoveries,
            report.digest_hex()
        )
    })?;
    // The headline invariant: under the replay-exact policy a faulted run
    // must finish bitwise identical to its fault-free twin.
    if policy == RecoveryPolicy::ReplayExact {
        if !report.replay_exact {
            return Err(format!(
                "replay-exact violated: faulted params {} != fault-free {}",
                report.param_hash, report.fault_free_hash
            ));
        }
        eprintln!(
            "replay-exact holds: faulted and fault-free runs agree on param hash {}",
            report.param_hash
        );
    }
    opts.check("chaos", "deterministic run matches the pinned snapshot", |baseline| {
        report.check_drift(baseline)
    })?;
    Ok(())
}

fn cmd_diagnose(args: &[&str]) -> Result<(), String> {
    use tbd_core::{run_diagnose, DiagnoseOptions, FaultPreset};
    let opts = DIAGNOSE.parse(args)?;
    let (model, framework, batch) = opts.workload()?;
    let defaults = DiagnoseOptions::default();
    let capture = opts.capture()?;
    let diagnose = DiagnoseOptions {
        cluster: opts.value("--cluster").map(str::to_string),
        stragglers: opts.has("--stragglers"),
        seed: opts.int("--seed", defaults.seed)?,
        faults: FaultPreset::parse(opts.value("--faults").unwrap_or("none"))?,
        steps: opts.steps(defaults.steps)?,
        intra_op_threads: capture.intra_op_threads,
        speed: capture.speed,
    };
    let gpu = opts.gpu()?;
    let format = opts.choice("--format")?;
    eprintln!(
        "diagnosing {}/{} b{batch} on {}{}{}{}...",
        model.name(),
        framework.name(),
        gpu.name,
        match &diagnose.cluster {
            Some(label) => format!(", cluster '{label}'"),
            None => String::new(),
        },
        if diagnose.stragglers { ", stragglers on" } else { "" },
        if diagnose.faults == FaultPreset::None {
            String::new()
        } else {
            format!(", '{}' faults", diagnose.faults.name())
        },
    );
    let report = run_diagnose(model, framework, batch, &gpu, &diagnose)?;
    let rendered =
        if format == "json" { report.to_json().to_string() } else { report.to_markdown() };
    opts.emit(&rendered, |path| {
        format!(
            "wrote diagnosis to {path} — top-1 {}, digest {}",
            report.top1().class.label(),
            report.digest_hex()
        )
    })?;
    opts.check("diagnosis", "deterministic diagnosis matches the pinned snapshot", |baseline| {
        report.check_drift(baseline)
    })?;
    Ok(())
}

fn cmd_json(args: &[&str]) -> Result<(), String> {
    let opts = JSON.parse(args)?;
    let (model, framework, batch) = opts.workload()?;
    let suite = Suite::new(opts.gpu()?);
    let p = suite.run(model, framework, batch).map_err(|e| e.to_string())?;
    print_all(&metrics_to_json(model, framework, suite.gpu(), &p));
    Ok(())
}

/// Serialises the headline metrics as a stable JSON object (no external
/// dependencies; field order is fixed).
fn metrics_to_json(kind: ModelKind, fw: Framework, gpu: &GpuSpec, p: &WorkloadProfile) -> String {
    let mem: Vec<String> = MemoryCategory::ALL
        .iter()
        .map(|&c| format!("\"{}\": {}", c.to_string().replace(' ', "_"), p.memory.peak(c)))
        .collect();
    format!(
        "{{\"model\": \"{}\", \"framework\": \"{}\", \"gpu\": \"{}\", \"batch\": {}, \
         \"throughput\": {:.3}, \"gpu_utilization\": {:.4}, \"fp32_utilization\": {:.4}, \
         \"cpu_utilization\": {:.4}, \"memory_bytes\": {{{}}}, \"memory_total\": {}}}",
        kind.name(),
        fw.name(),
        gpu.name,
        p.batch,
        p.throughput,
        p.iteration.gpu_utilization,
        p.iteration.fp32_utilization,
        p.iteration.cpu_utilization,
        mem.join(", "),
        p.memory.total()
    )
}

/// `tbd trace` — record one workload through the whole trace spine
/// (executor → gpusim → framework → profiler) and export it.
///
/// Accepts both the positional form (`tbd trace resnet50 tf 32`) and the
/// flag form (`tbd trace resnet50 --framework tf --batch 32 --out t.json`).
fn cmd_trace(args: &[&str]) -> Result<(), String> {
    let opts = TRACE.parse(args)?;
    let (model, framework, batch) = opts.workload()?;
    let options = opts.capture()?;
    let gpu = opts.gpu()?;
    let cap = tbd_profiler::capture(model, framework, batch, &gpu, &options)
        .map_err(|e| e.to_string())?;
    if let Some(oom) = &cap.oom {
        eprintln!(
            "note: paper-scale iteration hit OOM ({oom}); trace ends at the failing allocation"
        );
    }
    if opts.has("--summary") {
        print_all(&cap.trace.nvprof_summary());
        return Ok(());
    }
    let json = cap.trace.to_chrome_json();
    opts.emit(&json, |path| {
        format!(
            "wrote {} events ({} bytes) to {path} — open in chrome://tracing or \
             https://ui.perfetto.dev (digest {})",
            cap.trace.events.len(),
            json.len(),
            cap.trace.digest_hex()
        )
    })
}

/// `tbd metrics` — capture one workload with a streaming aggregator
/// attached as a live trace sink, feed it a synthesised training run (so
/// the rolling stable-window throughput has iterations to chew on), and
/// export the resulting metrics registry.
///
/// Shares [`tbd_profiler::observe`] with `tbd watch`, so the `prom`
/// rendering here is byte-identical to what the live server answers on
/// `GET /metrics` for the same configuration.
fn cmd_metrics(args: &[&str]) -> Result<(), String> {
    let opts = METRICS.parse(args)?;
    let (model, framework, batch) = opts.workload()?;
    let options = opts.capture()?;
    let format = opts.choice("--format")?;
    let gpu = opts.gpu()?;
    let obs = observe(model, framework, batch, &gpu, &options, None).map_err(|e| e.to_string())?;
    if let Some(oom) = &obs.capture.oom {
        eprintln!("note: paper-scale iteration hit OOM ({oom}); metrics cover the partial trace");
    }
    match format {
        "prom" => print_all(&obs.registry.to_prometheus()),
        "json" => print_all(&obs.registry.to_json().to_string()),
        _ => print_all(&obs.markdown),
    }
    Ok(())
}

/// `tbd watch` — run repeated observed captures in a background worker and
/// serve the latest snapshot over plain HTTP (std-only server):
/// `/metrics` (Prometheus, byte-identical to `tbd metrics --format prom`),
/// `/health` (liveness JSON with recorder overhead), `/trace.json`
/// (Chrome trace) and `/report` (self-contained HTML).
fn cmd_watch(args: &[&str]) -> Result<(), String> {
    use std::time::Duration;
    use tbd_profiler::{LiveServer, WatchConfig};
    let opts = WATCH.parse(args)?;
    let (model, framework, batch) = opts.workload()?;
    let port: u64 = opts.int("--port", 9898)?;
    let steps = opts.int("--steps", 0)?;
    let interval_ms = opts.int("--interval-ms", 1000)?;
    let retain_cap = opts.has("--retain-cap").then(|| opts.int("--retain-cap", 0)).transpose()?;
    let gpu = opts.gpu()?;
    let config = WatchConfig {
        options: opts.capture()?,
        max_captures: steps,
        interval: Duration::from_millis(interval_ms),
        retain_cap,
        ..WatchConfig::new(model, framework, batch, gpu)
    };
    let server = LiveServer::start(config, &format!("127.0.0.1:{port}"))
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    let addr = server.local_addr();
    eprintln!("tbd watch: {}/{} b{batch} — serving http://{addr}/", model.name(), framework.name());
    eprintln!(
        "  GET /metrics     Prometheus exposition (byte-identical to `tbd metrics --format prom`)"
    );
    eprintln!("  GET /health      liveness JSON: uptime, captures, digests, recorder overhead");
    eprintln!("  GET /trace.json  latest Chrome trace (chrome://tracing, ui.perfetto.dev)");
    eprintln!("  GET /report      latest self-contained HTML run report");
    if steps > 0 {
        eprintln!("capture worker stops after {steps} capture(s); the server keeps answering until the process is killed");
    }
    // Serve until the process is killed; the worker and accept loop run on
    // their own threads, so this thread only has to stay alive.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// `tbd serve` — the capacity-planning query service: a std-only HTTP
/// front over the sharded single-flight [`tbd_core::ServeEngine`].
/// Responses are pure functions of the query (deterministic bytes; cache
/// stats live on `/health` only).
fn cmd_serve(args: &[&str]) -> Result<(), String> {
    use std::sync::Arc;
    use tbd_core::{ServeConfig, ServeEngine, ServeServer};
    let opts = SERVE.parse(args)?;
    let defaults = ServeConfig::default();
    let port: u64 = opts.int("--port", 7878)?;
    let config = ServeConfig {
        workers: opts.int("--workers", defaults.workers)?,
        queue: opts.int("--queue", defaults.queue)?,
        shards: opts.int("--shards", defaults.shards)?,
    };
    let gpu = opts.gpu()?;
    let engine = Arc::new(ServeEngine::with_shards(gpu, config.shards));
    let server = ServeServer::start(engine, &format!("127.0.0.1:{port}"), config)
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    let addr = server.local_addr();
    eprintln!(
        "tbd serve: {} workers, queue {}, {} shards — serving http://{addr}/",
        config.workers, config.queue, config.shards
    );
    eprintln!("  GET /query?model=<m>[&framework=<fw>][&batch=<n>][&fuse=0|1]");
    eprintln!("            [&precision=f32|f16|bf16][&cluster=<label>][&stragglers=<seed>]");
    eprintln!("  GET /health      cache statistics (never part of /query bytes)");
    // Serve until the process is killed; the acceptor and pool run on
    // their own threads, so this thread only has to stay alive.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `tbd loadgen` — drive the serve engine in-process (closed or open
/// loop), report throughput and tail latency, optionally pin the golden
/// query response (`--check`) or attach the summary to an existing
/// `BENCH_<date>.json` (`--bench`).
fn cmd_loadgen(args: &[&str]) -> Result<(), String> {
    use std::sync::Arc;
    use tbd_core::loadgen::{check_golden, golden_mix, run_loadgen, LoadgenConfig, LoadgenMode};
    use tbd_core::trajectory::BenchReport;
    use tbd_core::ServeEngine;
    let opts = LOADGEN.parse(args)?;
    let clients = opts.int("--clients", 4)?;
    let requests = opts.int("--requests", 10_000)?;
    let mode = match opts.choice("--mode")? {
        "closed" => LoadgenMode::Closed { clients },
        _ => LoadgenMode::Open {
            rate_qps: match opts.value("--rate") {
                Some(text) => text.parse().map_err(|_| "--rate must be a number".to_string())?,
                None => 20_000.0,
            },
            workers: clients,
        },
    };
    let format = opts.choice("--format")?;
    let gpu = opts.gpu()?;
    let engine = Arc::new(ServeEngine::new(gpu));
    if let Some(golden) = opts.value("--check") {
        check_golden(&engine, golden)?;
        eprintln!("golden check vs {golden}: serve response matches the pinned baseline");
    }
    let config = LoadgenConfig { mode, requests, mix: golden_mix(), warm: true };
    eprintln!(
        "loadgen: {} loop, {} clients, {} requests over the cache-hot golden mix...",
        mode.name(),
        clients,
        requests
    );
    let report = run_loadgen(&engine, &config)?;
    let rendered =
        if format == "json" { report.to_json().to_string() } else { report.to_markdown() };
    opts.emit(&rendered, |path| {
        format!(
            "wrote loadgen report to {path} — {:.0} q/s, p99 {:.0} µs",
            report.qps, report.p99_us
        )
    })?;
    if let Some(path) = opts.value("--bench") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let mut bench = BenchReport::from_json_text(&text)?;
        bench.loadgen = Some(report.summary());
        std::fs::write(path, bench.to_json().to_string())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "attached loadgen summary to {path} (digest unchanged: wall clock is never digested)"
        );
    }
    Ok(())
}

/// `tbd report` — render one observed capture as a self-contained HTML
/// run report (inline CSS/JS/SVG, no external references) and optionally
/// pin its deterministic digest against a golden baseline file.
fn cmd_report(args: &[&str]) -> Result<(), String> {
    use tbd_core::trajectory::iso_date_today;
    use tbd_profiler::{live::render_report, parse_digest_file};
    let opts = REPORT.parse(args)?;
    let (model, framework, batch) = opts.workload()?;
    let options = opts.capture()?;
    let gpu = opts.gpu()?;
    // The timestamp is display-only: the digest is computed over the
    // timestamp-free render, so `--timestamp` never perturbs `--check`.
    let timestamp = opts.value("--timestamp").map(str::to_string).unwrap_or_else(iso_date_today);
    let obs = observe(model, framework, batch, &gpu, &options, None).map_err(|e| e.to_string())?;
    if let Some(oom) = &obs.capture.oom {
        eprintln!("note: paper-scale iteration hit OOM ({oom}); report covers the partial trace");
    }
    let out = render_report(&obs, &timestamp);
    opts.emit(&out.html, |path| {
        format!(
            "wrote {} bytes to {path} — open in any browser (digest {})",
            out.html.len(),
            out.digest_hex
        )
    })?;
    if let Some(snapshot) = opts.value("--check") {
        let text =
            std::fs::read_to_string(snapshot).map_err(|e| format!("reading {snapshot}: {e}"))?;
        let want = parse_digest_file(&text)?;
        if want != out.digest_hex {
            return Err(format!(
                "report digest drift vs {snapshot}: baseline {want}, rendered {}",
                out.digest_hex
            ));
        }
        eprintln!("digest check vs {snapshot}: deterministic render matches the pinned baseline");
    }
    Ok(())
}

/// `tbd bench` — the perf-trajectory harness: run the golden pairs (or,
/// with `--matrix`, every supported pair) through the streaming metrics
/// layer and write a schema-versioned `BENCH_<iso-date>.json`.
fn cmd_bench(args: &[&str]) -> Result<(), String> {
    use tbd_core::trajectory::{iso_date_today, BenchReport, DRIFT_TOLERANCE};
    let opts = BENCH.parse(args)?;
    let gpu = opts.gpu()?;
    let matrix = opts.has("--matrix");
    let speed = opts.capture()?.speed;
    // An unusable `--out` fails here, not after the whole matrix has run.
    let dir = opts.value("--out").unwrap_or(".");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating output directory {dir}: {e}"))?;
    eprintln!(
        "benching {} on {} through the streaming aggregator ({}, {})...",
        if matrix { "the full supported matrix" } else { "the six golden pairs" },
        gpu.name,
        if speed.fuse { "fused" } else { "unfused" },
        speed.precision,
    );
    let report = BenchReport::run(&gpu, matrix, iso_date_today(), speed)?;
    for entry in &report.entries {
        eprintln!(
            "  {:<28} {:>8.1}/s  GPU {:>5.1}%  dominant memory: {}",
            entry.key(),
            entry.throughput,
            100.0 * entry.gpu_utilization,
            entry.dominant_memory
        );
    }
    if let Some(tier) = &report.speed_tier {
        eprintln!(
            "  speed tier ({}/{} b{}): fused {:.3}s vs unfused {:.3}s — {:.2}x capture speedup",
            tier.model,
            tier.framework,
            tier.batch,
            tier.fused_wall_s,
            tier.unfused_wall_s,
            tier.speedup()
        );
    }
    let path = format!("{}/{}", dir.trim_end_matches('/'), report.file_name());
    let json = report.to_json().to_string();
    std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "wrote {} entries ({} bytes) to {path} — digest {}",
        report.entries.len(),
        json.len(),
        report.digest_hex()
    );
    // The snapshot is written before the gate, so a drifting run still
    // leaves its BENCH file behind for inspection (CI uploads it).
    let holds = format!(
        "all {} overlapping entries within {:.0}%",
        report.entries.len(),
        100.0 * DRIFT_TOLERANCE
    );
    let checked =
        opts.check("throughput", &holds, |baseline: &BenchReport| report.check_drift(baseline))?;
    // Wall clock varies across machines, so its gate only warns.
    if let Some(baseline) = checked {
        if let Err(failures) = report.check_wall_drift(&baseline) {
            let snapshot = opts.value("--check").unwrap_or_default();
            eprintln!("warning: capture wall drift vs {snapshot} (informational):\n{failures}");
        }
    }
    Ok(())
}

fn cmd_dot(args: &[&str]) -> Result<(), String> {
    let model = DOT.parse(args)?.model()?;
    let batch = paper_batches(model)[0];
    let built = model.build_full(batch).map_err(|e| e.to_string())?;
    print_all(&tbd_graph::to_dot(&built.graph, 400));
    Ok(())
}

fn cmd_analyze(args: &[&str]) -> Result<(), String> {
    let opts = ANALYZE.parse(args)?;
    let (model, framework, batch) = opts.workload()?;
    let options =
        TraceOptions { functional: false, speed: SpeedOptions::default(), ..Default::default() };
    let obs = observe(model, framework, batch, &opts.gpu()?, &options, None)
        .map_err(|e| e.to_string())?;
    let (Some(profile), Some((start, end, sampled))) = (&obs.capture.profile, obs.stable_window())
    else {
        return Err(match &obs.capture.oom {
            Some(oom) => oom.to_string(),
            None => "training run never reached a stable throughput window".to_string(),
        });
    };
    let iteration = &profile.iteration;
    println!("{} on {} (b{batch}) — Fig. 3 analysis pipeline", model.name(), framework.name());
    println!("  stable window: iterations {start}..{end} (warm-up and autotuning excluded)");
    println!("  throughput: sampled {sampled:.1}/s vs simulator {:.1}/s", profile.throughput);
    println!(
        "  GPU {:.1}%  FP32 {:.1}%  CPU {:.1}%  memory {:.2} GB (feature maps {:.0}%)",
        100.0 * iteration.gpu_utilization,
        100.0 * iteration.fp32_utilization,
        100.0 * iteration.cpu_utilization,
        profile.memory.total() as f64 / 1e9,
        100.0 * profile.memory.feature_map_fraction()
    );
    println!("  below-average-FP32 kernels:");
    for row in kernel_table(&iteration.records, framework, 5) {
        println!(
            "    {:>6.2}%  {:>5.1}%  {}",
            100.0 * row.duration_share,
            100.0 * row.fp32_utilization,
            row.name
        );
    }
    Ok(())
}

fn cmd_list(args: &[&str]) -> Result<(), String> {
    LIST.parse(args)?;
    println!("models (Table 2):");
    for kind in ModelKind::ALL {
        let frameworks: Vec<&str> = Framework::all()
            .into_iter()
            .filter(|fw| fw.supports(kind))
            .map(|fw| fw.name())
            .collect();
        println!(
            "  {:<14} {:<28} batches {:?} on {}",
            kind.name(),
            kind.application(),
            paper_batches(kind),
            frameworks.join("/")
        );
    }
    println!("frameworks: TensorFlow, MXNet, CNTK");
    println!("devices:    p4000 (default), titanxp");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_and_framework_parsing() {
        assert_eq!(parse_model("resnet-50").unwrap(), ModelKind::ResNet50);
        assert_eq!(parse_model("ResNet50").unwrap(), ModelKind::ResNet50);
        assert_eq!(parse_model("sockeye").unwrap(), ModelKind::Seq2Seq);
        assert_eq!(parse_model("ds2").unwrap(), ModelKind::DeepSpeech2);
        assert!(parse_model("alexnet").is_err());
        assert_eq!(parse_framework("tf").unwrap().name(), "TensorFlow");
        assert!(parse_framework("theano").is_err());
    }

    #[test]
    fn analyze_fails_with_the_out_of_memory_message() {
        let err = cmd_analyze(&["resnet50", "tensorflow", "512"]).unwrap_err();
        assert!(err.contains("out of device memory"), "{err}");
    }

    #[test]
    fn bench_out_under_a_regular_file_fails_before_the_matrix_runs() {
        let file = std::env::temp_dir().join(format!("tbd-bench-out-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let dir = file.join("bench");
        let dir = dir.to_str().unwrap();
        let err = cmd_bench(&["--matrix", "--out", dir]).unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert!(err.starts_with(&format!("creating output directory {dir}: ")), "{err}");
    }

    #[test]
    fn scale_of_a_model_with_small_gradients_succeeds() {
        // A3C's ethernet exchange hides behind its compute, so Observation
        // 12 does not apply and the healthy sweep must not fail on it.
        cmd_scale(&["a3c", "--framework", "mxnet", "--batch", "8"]).expect("healthy sweep");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let suite = Suite::new(GpuSpec::quadro_p4000());
        let p = suite.run(ModelKind::A3c, Framework::mxnet(), 8).unwrap();
        let json = metrics_to_json(ModelKind::A3c, Framework::mxnet(), suite.gpu(), &p);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"model\": \"A3C\""));
        assert!(json.contains("\"feature_maps\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn flags_may_precede_the_positional_and_their_values_are_never_positional() {
        let opts = SCALE.parse(&["--framework", "mxnet", "a3c", "--batch", "8"]).unwrap();
        assert_eq!(opts.positional, ["a3c"]);
        assert_eq!(opts.model().unwrap(), ModelKind::A3c);
        assert_eq!(opts.framework(ModelKind::A3c).unwrap().name(), "MXNet");
        assert_eq!(opts.batch(32).unwrap(), 8);
        assert_eq!(opts.choice("--format").unwrap(), "md");
        assert_eq!(opts.gpu().unwrap().name, GpuSpec::quadro_p4000().name);
    }

    #[test]
    fn unknown_flags_missing_values_and_bad_choices_are_errors() {
        let err = SCALE.parse(&["a3c", "--bach", "8"]).err().unwrap();
        assert!(err.contains("'--bach'") && err.contains("--batch"), "{err}");
        let err = SCALE.parse(&["a3c", "--batch"]).err().unwrap();
        assert_eq!(err, "--batch needs a value (<n>)");
        assert!(SCALE.parse(&["a3c", "--out", "--sweep"]).is_err());
        let opts = SCALE.parse(&["a3c", "--gpu", "titan", "--format", "xml"]).unwrap();
        assert_eq!(opts.gpu().err().unwrap(), "unknown gpu 'titan' (p4000, titanxp)");
        assert_eq!(opts.choice("--format").err().unwrap(), "unknown format 'xml' (md, json)");
        assert!(SCALE.parse(&["a3c", "resnet50"]).err().unwrap().starts_with("usage: tbd scale"));
        assert!(SCALE.parse(&["--sweep"]).is_err(), "the model is required");
        assert!(LIST.parse(&["--all"]).is_err());
        for bad in ["0", "-1", "eight"] {
            let err = SCALE.parse(&["a3c", "--batch", bad]).unwrap().batch(8).unwrap_err();
            assert!(err.starts_with("batch must be a positive integer"), "{err}");
            for grammar in [&CHAOS, &ELASTIC, &DIAGNOSE] {
                let err = grammar.parse(&["a3c", "--steps", bad]).unwrap().steps(20).unwrap_err();
                assert!(err.starts_with("steps must be a positive integer"), "{err}");
            }
        }
        let err = JSON.parse(&["resnet50", "mxnet", "0"]).unwrap().workload().unwrap_err();
        assert!(err.contains("'0'"), "{err}");
        for grammar in [&TRACE, &METRICS, &WATCH, &REPORT, &DIAGNOSE, &BENCH] {
            let model: &[&str] = if grammar.arity().0 > 0 { &["a3c"] } else { &[] };
            for flags in [["--fuse", "--no-fuse"], ["--no-fuse", "--fuse"]] {
                let opts = grammar.parse(&[model, &flags].concat()).unwrap();
                let err = opts.capture().unwrap_err();
                assert!(err.contains("contradict"), "{}: {err}", grammar.command());
            }
        }
    }

    #[test]
    fn every_capturing_command_passes_its_capture_flags_through() {
        use tbd_tensor::Precision;
        let flags = ["--threads", "4", "--no-fuse", "--precision", "bf16"];
        let speed = SpeedOptions { fuse: false, precision: Precision::Bf16 };
        let flagged = TraceOptions { intra_op_threads: 4, speed, ..TraceOptions::default() };
        for grammar in [&TRACE, &METRICS, &WATCH, &REPORT, &DIAGNOSE] {
            let command = grammar.command();
            let bare = grammar.parse(&["a3c"]).unwrap().capture().unwrap();
            assert_eq!(bare, TraceOptions::default(), "{command}");
            let opts = grammar.parse(&[&["a3c"], &flags[..]].concat()).unwrap();
            assert_eq!(opts.capture().unwrap(), flagged, "{command}");
            let opts = grammar.parse(&["a3c", "--fuse"]).unwrap();
            assert_eq!(opts.capture().unwrap(), TraceOptions::default(), "{command}");
        }
        let bare = BENCH.parse(&[]).unwrap().capture().unwrap().speed;
        assert_eq!(bare, TraceOptions::default().speed);
        let opts = BENCH.parse(&flags[2..]).unwrap();
        assert_eq!(opts.capture().unwrap().speed, speed);
    }

    #[test]
    fn trace_takes_framework_and_batch_positionally_or_as_flags() {
        let positional = TRACE.parse(&["resnet50", "tf", "32"]).unwrap();
        let flags = TRACE.parse(&["resnet50", "--framework", "tf", "--batch", "32"]).unwrap();
        for opts in [positional, flags] {
            assert_eq!(opts.model().unwrap(), ModelKind::ResNet50);
            assert_eq!(opts.framework(ModelKind::ResNet50).unwrap().name(), "TensorFlow");
            assert_eq!(opts.batch(4).unwrap(), 32);
        }
        let args = ["--out", "t.json", "seq2seq", "--threads", "4", "--summary"];
        let opts = TRACE.parse(&args).unwrap();
        assert_eq!(opts.positional, ["seq2seq"]);
        assert_eq!(opts.int("--threads", 1usize).unwrap(), 4);
        assert!(opts.has("--summary"));
        assert!(TRACE.parse(&["resnet50", "tf", "32", "extra"]).is_err());
    }

    #[test]
    fn grammars_read_back_from_their_usage_lines() {
        assert_eq!(TRACE.command(), "trace");
        assert_eq!(TRACE.arity(), (1, 3));
        assert_eq!(JSON.arity(), (3, 3));
        assert_eq!(SERVE.arity(), (0, 0));
        assert_eq!(SCALE.flags()[..3], ["--framework <fw>", "--batch <n>", "--sweep"]);
        for grammar in GRAMMARS {
            let bracketed = grammar.flags().iter().any(|flag| flag.contains(['[', ']']));
            assert!(!bracketed, "{}", grammar.usage);
            assert_eq!(grammar.items().join(" "), grammar.usage, "single spaces only");
        }
    }
}
