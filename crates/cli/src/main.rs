//! `rtcg` — command-line front end for the graph-based real-time
//! toolchain.
//!
//! ```text
//! rtcg check <spec.rtcg>               validate a specification
//! rtcg analyze <spec.rtcg> [--exact] [--sweep] [--cache-stats]
//! rtcg analyze --batch <manifest> [--threads N] [--budget-ms M]
//! rtcg corpus generate <dir> [--count N] [--seed S]
//! rtcg corpus run <dir|manifest> [--cache-file FILE]
//! rtcg serve [--threads N] [--budget-ms M]
//! rtcg synthesize <spec.rtcg> [--merged|--exact] [--threads N] [--gantt N]
//! rtcg simulate <spec.rtcg> --ticks N [--seed S]
//! rtcg profile <spec.rtcg> [--ticks N]
//! rtcg sensitivity <spec.rtcg>
//! rtcg dot <spec.rtcg>
//! rtcg codegen <spec.rtcg>
//! ```
//!
//! Specifications use the `rtcg-lang` text format (see the avionics
//! example). Exit codes: 0 success, 1 usage error, 2 parse/validation
//! error, 3 infeasible.

use std::process::ExitCode;

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod commands;
mod corpus;
mod profile;
mod protocol;
mod serve;

/// The one writer behind every stdout print of the CLI ([`out!`],
/// [`outln!`]). A reader that closed the pipe early (`rtcg analyze … |
/// head`) ends the process quietly with exit code 0; any other write
/// failure exits 2 with a diagnostic.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: stdout write failed: {e}");
        std::process::exit(2);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(1)
        }
        Err(CliError::Input(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(CliError::Infeasible(msg)) => {
            eprintln!("infeasible: {msg}");
            ExitCode::from(3)
        }
    }
}

const USAGE: &str = "usage:
  rtcg check <spec.rtcg> [--cache-stats]
  rtcg analyze <spec.rtcg> [--merged|--exact] [--threads N] [--max-len L]
               [--budget B] [--lanes M] [--sweep] [--cache-stats] [--progress]
               [--metrics] [--metrics-out FILE] [--trace-out FILE]
  rtcg analyze --batch <manifest> [--merged|--exact] [--threads N]
               [--budget-ms M] [--max-len L] [--budget B] [--cache-stats]
               [--cache-file FILE] [--metrics] [--metrics-out FILE]
               [--trace-out FILE]
  rtcg corpus generate <dir> [--count N] [--seed S]
  rtcg corpus run <dir|manifest> [batch flags, e.g. --cache-file FILE]
  rtcg serve [--threads N] [--budget-ms M] [--cache-file FILE]
             [--metrics-out FILE] [--trace-out FILE]
  rtcg synthesize <spec.rtcg> [--merged|--exact] [--threads N] [--max-len L]
                  [--budget B] [--budget-ms M] [--gantt N] [--cache-stats]
                  [--progress] [--metrics] [--metrics-out FILE]
                  [--trace-out FILE]
  rtcg simulate <spec.rtcg> --ticks N [--seed S] [--metrics]
                [--metrics-out FILE] [--trace-out FILE]
  rtcg profile <spec.rtcg> [--ticks N] [--format table|prom]
               [--metrics-out FILE] [--trace-out FILE]
  rtcg sensitivity <spec.rtcg> [--merged|--exact] [--cache-stats]
  rtcg dot <spec.rtcg>
  rtcg codegen <spec.rtcg>

analysis (analyze / synthesize / sensitivity):
  --merged | --exact select the analysis pipeline (default: heuristic)
  --threads N        parallel search workers (default 1)
  --max-len L        maximum schedule length in actions (default 10)
  --budget B         search charge budget: nodes + candidates (default 5000000)
  --lanes M          schedule over M parallel processor lanes (default 1);
                     --exact runs the complete lane-matrix search, the default
                     heuristic uses critical-path list scheduling
  --budget-ms M      wall-clock budget per analysis in milliseconds
  --sweep            binary-search each constraint's minimum feasible deadline,
                     answering repeated probes from the result memo
  --cache-stats      print engine result-memo hit/miss counters

batch (analyze --batch):
  <manifest>         text file listing one spec per line: a bare path, or a
                     versioned JSONL record {\"v\":1,\"spec\":\"path\"}
                     (# comments; paths resolved relative to the manifest)
  --threads N        worker threads sharing one engine cache (default 1)
  --budget-ms M      per-request deadline budget; an exact search that
                     exceeds it degrades to the heuristic verdict
  --cache-file FILE  persistent memo snapshot: loaded before the batch
                     (if FILE exists) and saved back after it, so a re-run
                     replays from the warm memo instead of recomputing

corpus (mass-generated spec fleets):
  generate <dir>     write --count seeded specs (default 100, --seed S,
                     default 0) from five deterministic model families,
                     plus a versioned batch manifest (manifest.txt)
  run <dir|manifest> analyze the corpus via the batch engine; accepts all
                     batch flags — pair with --cache-file for the
                     cold-save / warm-load fleet flow

serve (persistent analysis daemon):
  speaks a versioned JSONL protocol on stdin/stdout — one request line in,
  one response line out, every line stamped {\"v\":1,...}. Ops: open (path
  or inline spec), delta (set_deadline, set_period, set_wcet, add_element,
  remove_element, add_channel, remove_channel, add_constraint,
  remove_constraint), undo, analyze (mode/max_len/budget/selection), stats,
  snapshot (persist the memo, path defaults to --cache-file), restore
  (merge a snapshot back in), close. Every session shares the engine's
  result memo; with --cache-file the daemon warms from the snapshot at
  startup and checkpoints on EOF shutdown; see DESIGN.md sections 13-14
  and examples/specs/serve_session.jsonl

observability:
  --metrics          print a counters/spans/histograms summary after the run
  --metrics-out FILE write metrics as Prometheus text exposition to FILE
  --progress         live exact-search progress ticker on stderr
                     (nodes/s, frontier depth, prune rate, best bound)
  --trace-out FILE   write a Chrome trace_event JSON (Perfetto, chrome://tracing)
  --format table|prom  profile output format (default: aligned tables)";

/// CLI error categories (mapped to exit codes).
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation.
    Usage(String),
    /// Unreadable/invalid input file.
    Input(String),
    /// The model has no feasible schedule (for commands that need one).
    Infeasible(String),
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    match cmd.as_str() {
        "check" => commands::check(rest(args)?, &args[2..]),
        "analyze" if args.get(1).is_some_and(|a| a == "--batch") => {
            let manifest = args.get(2).map(|s| s.as_str()).ok_or_else(|| {
                CliError::Usage("--batch needs a manifest file (one spec path per line)".into())
            })?;
            commands::analyze_batch(manifest, &args[3..])
        }
        "analyze" => commands::analyze(rest(args)?, &args[2..]),
        "corpus" => match args.get(1).map(|s| s.as_str()) {
            Some("generate") => {
                let dir = args.get(2).map(|s| s.as_str()).ok_or_else(|| {
                    CliError::Usage("corpus generate needs a target directory".into())
                })?;
                corpus::generate(dir, &args[3..])
            }
            Some("run") => {
                let target = args.get(2).map(|s| s.as_str()).ok_or_else(|| {
                    CliError::Usage("corpus run needs a corpus directory or manifest".into())
                })?;
                corpus::run(target, &args[3..])
            }
            _ => Err(CliError::Usage(
                "corpus needs a verb: generate <dir> or run <dir|manifest>".into(),
            )),
        },
        "serve" => serve::serve(&args[1..]),
        "synthesize" => commands::synthesize(rest(args)?, &args[2..]),
        "simulate" => commands::simulate(rest(args)?, &args[2..]),
        "profile" => profile::profile(rest(args)?, &args[2..]),
        "sensitivity" => commands::sensitivity(rest(args)?, &args[2..]),
        "dot" => commands::dot(rest(args)?),
        "codegen" => commands::codegen(rest(args)?),
        "--help" | "-h" | "help" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn rest(args: &[String]) -> Result<&str, CliError> {
    args.get(1)
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::Usage("missing <spec.rtcg> argument".into()))
}
