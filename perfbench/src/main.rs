//! End-to-end benchmark of rtcg's analysis paths.
//!
//! `rtcg-perfbench --workload <fleet|edit|lanes> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Inputs are generated from the seed and handed to the program as
//! `.rtcg` spec text. One closed-loop client on one thread repeats whole
//! rounds of the same ops until `--seconds` have passed, then the
//! outputs of the first round are checked apart from the program. The
//! last line of standard output is one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). See README.md for what each workload and metric means.

mod check;
mod edit;
mod fleet;
mod lanes;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use rtcg_core::model::Model;
use rtcg_engine::{AnalysisReport, Verdict};

use trace::Tracer;

/// One benchmark workload: seeded inputs, a timed set-up, rounds of ops,
/// a traced round, and checks of one round's outputs.
pub trait Workload {
    type Inputs;
    type Prepared;
    /// Outputs of one round kept for the checks.
    type Outputs;

    fn inputs(seed: u64) -> Self::Inputs;
    /// Parses and validates the spec text and opens what the ops need.
    fn setup(inputs: &Self::Inputs, tracer: Option<&mut Tracer>) -> Self::Prepared;
    /// Runs one round, pushing each op's latency in seconds. Returns one
    /// key per op (verdict and counters) plus a round key.
    fn round(
        inputs: &Self::Inputs,
        prep: &Self::Prepared,
        latencies: &mut Vec<f64>,
    ) -> (Vec<String>, Self::Outputs);
    /// The same round with spans around every layer call. Returns the
    /// op keys of the entry calls and the number of ops whose replayed
    /// layer calls reached another verdict.
    fn round_traced(
        inputs: &Self::Inputs,
        prep: &Self::Prepared,
        tracer: &mut Tracer,
    ) -> (Vec<String>, u64);
    fn check(inputs: &Self::Inputs, prep: &Self::Prepared, outputs: &Self::Outputs) -> Checked;
}

/// Result of checking one round.
#[derive(Default)]
pub struct Checked {
    /// Ops whose output failed a check or whose call returned an error.
    pub failed: u64,
    /// Ops whose verdict proves something and passed the checks.
    pub decided: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        "fleet" => run::<fleet::Fleet>(&args),
        "edit" => run::<edit::Edit>(&args),
        "lanes" => run::<lanes::Lanes>(&args),
        w => {
            eprintln!("perfbench: unknown workload `{w}` (fleet, edit, lanes)");
            std::process::exit(2);
        }
    };
    println!("{out}");
}

/// Ops a run must time so that at least ten lie beyond its p95.
const MIN_OPS: usize = 200;
/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 15;

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Nearest-rank percentile of sorted values, and the count beyond it.
fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn digest<T: AsRef<[u8]>>(parts: &[T]) -> u64 {
    // FNV-1a: a stable digest both runs of a seed can print
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in parts {
        for &b in k.as_ref().iter().chain(&[0]) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn run<W: Workload>(args: &Args) -> String {
    let inputs = W::inputs(args.seed);
    if args.trace {
        return run_traced::<W>(args, &inputs);
    }

    let mut setup_times = Vec::with_capacity(SETUP_PASSES);
    let mut prep = None;
    for _ in 0..SETUP_PASSES {
        drop(prep.take());
        let t = Instant::now();
        prep = Some(std::hint::black_box(W::setup(&inputs, None)));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let prep = prep.expect("at least one set-up pass");

    let mut latencies = Vec::new();
    let mut first: Option<(Vec<String>, W::Outputs)> = None;
    let mut rounds = 0u64;
    let mut repeat = true;
    let start = Instant::now();
    loop {
        let (keys, outputs) = W::round(&inputs, &prep, &mut latencies);
        rounds += 1;
        match &first {
            None => first = Some((keys, outputs)),
            Some((k1, _)) => repeat &= *k1 == keys,
        }
        if start.elapsed().as_secs_f64() >= args.seconds && latencies.len() >= MIN_OPS {
            break;
        }
    }
    let timed = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let (keys, outputs) = first.expect("at least one round");
    let ops_per_round = latencies.len() as u64 / rounds;
    let checked = W::check(&inputs, &prep, &outputs);

    latencies.sort_by(f64::total_cmp);
    let (p50, _) = percentile(&latencies, 0.50);
    let (p95, beyond) = percentile(&latencies, 0.95);
    eprintln!(
        "perfbench {} seed {}: {} rounds of {} ops in {:.3} s; {} ops beyond p95; \
         {:.4} s per round; verdict digest {:016x}; rounds repeat: {}",
        args.workload,
        args.seed,
        rounds,
        ops_per_round,
        timed,
        beyond,
        timed / rounds as f64,
        digest(&keys[..ops_per_round as usize]),
        repeat
    );
    let metrics = [
        ("setup_s", median(&mut setup_times), "s"),
        ("ops_per_s", latencies.len() as f64 / timed, "ops/s"),
        ("p50_ms", p50 * 1e3, "ms"),
        ("p95_ms", p95 * 1e3, "ms"),
        ("peak_rss_mb", rss, "MB"),
        ("decided", checked.decided as f64, "verdicts"),
    ];
    result_json(
        repeat,
        latencies.len() as u64,
        checked.failed * rounds,
        &metrics,
    )
}

/// Per-layer times: self seconds of the spans of that name, per round
/// (`lang.parse_s`: of the one traced set-up pass).
const LAYER_TIMES: &[&str] = &[
    "lang.parse_s",
    "fingerprint.s",
    "engine.analyze_s",
    "session.apply_s",
    "snapshot.encode_s",
    "bounds.s",
    "heuristic.pipeline_s",
    "heuristic.edf_s",
    "schedule.verify_s",
    "merged.s",
    "game.s",
    "exact.s",
    "lanes.list_s",
    "lanes.exact_s",
];

/// Per-layer counts per round, with their units.
const LAYER_COUNTS: &[(&str, &str)] = &[
    ("lang.specs", "count"),
    ("engine.result_hits", "count"),
    ("engine.result_misses", "count"),
    ("memo.leaf_evals_computed", "count"),
    ("memo.leaf_evals_saved", "count"),
    ("memo.candidates", "count"),
    ("session.slices_evicted", "count"),
    ("session.full_invalidations", "count"),
    ("snapshot.bytes", "bytes"),
    ("bounds.proofs", "count"),
    ("heuristic.edf_tries", "count"),
    ("schedule.verify_calls", "count"),
    ("game.runs", "count"),
    ("game.states", "count"),
    ("game.budget_exhausted", "count"),
    ("game.infeasible_proofs", "count"),
    ("exact.nodes", "count"),
    ("exact.candidates", "count"),
    ("lanes.list_accepted", "count"),
    ("lanes.nodes", "count"),
    ("lanes.candidates", "count"),
    ("lanes.pruned", "count"),
];

/// Ratios: name, numerator count, base count, and whether the base also
/// adds the numerator.
const LAYER_RATIOS: &[(&str, &str, &str, bool)] = &[
    (
        "memo.saved_ratio",
        "memo.leaf_evals_saved",
        "memo.leaf_evals_computed",
        true,
    ),
    (
        "heuristic.edf_accept_ratio",
        "heuristic.edf_accepted",
        "heuristic.edf_tries",
        false,
    ),
    ("game.useful_ratio", "game.useful", "game.runs", false),
];

fn run_traced<W: Workload>(args: &Args, inputs: &W::Inputs) -> String {
    let mut tracer = Tracer::new();
    // one traced set-up pass: the `lang.parse_s` spans
    tracer.op = u64::MAX;
    let prep = W::setup(inputs, Some(&mut tracer));
    let specs = tracer.counts().get("lang.specs").copied().unwrap_or(0.0);

    let mut rounds = 0u64;
    let mut mismatched = 0;
    let mut first: Option<(Vec<String>, BTreeMap<&'static str, f64>)> = None;
    let mut repeat = true;
    let start = Instant::now();
    loop {
        let before = tracer.counts().clone();
        let (keys, bad) = W::round_traced(inputs, &prep, &mut tracer);
        mismatched += bad;
        rounds += 1;
        let delta: BTreeMap<&'static str, f64> = tracer
            .counts()
            .iter()
            .map(|(&k, &v)| (k, v - before.get(k).copied().unwrap_or(0.0)))
            .collect();
        match &first {
            None => first = Some((keys, delta)),
            Some((k1, d1)) => repeat &= *k1 == keys && *d1 == delta,
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let timed = start.elapsed().as_secs_f64();
    let (keys, counts) = first.expect("at least one round");

    let selfs = tracer.self_seconds();
    let accounted: f64 = selfs
        .iter()
        .filter(|(&name, _)| name != "lang.parse_s")
        .map(|(_, s)| s)
        .sum::<f64>()
        / rounds as f64;
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    if let Err(e) = tracer.write(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    eprintln!(
        "perfbench {} seed {} traced: {} rounds in {:.3} s; layer self time {:.4} s per round; \
         verdict digest {:016x}; replay mismatches {}; rounds repeat: {}; spans in {}",
        args.workload,
        args.seed,
        rounds,
        timed,
        accounted,
        digest(&keys),
        mismatched,
        repeat,
        path.display()
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    for &name in LAYER_TIMES {
        let v = if name == "lang.parse_s" {
            selfs.get(name).copied().unwrap_or(0.0)
        } else {
            // an entry span's self time is a difference of two
            // measurements; where the entry's own work is below their
            // noise the sum can dip under zero
            (selfs.get(name).copied().unwrap_or(0.0) / rounds as f64).max(0.0)
        };
        metrics.push((name, v, "s"));
    }
    let count = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    for &(name, unit) in LAYER_COUNTS {
        let v = if name == "lang.specs" {
            specs
        } else {
            count(name)
        };
        metrics.push((name, v, unit));
    }
    for &(name, num, den, plus) in LAYER_RATIOS {
        let base = if plus {
            count(num) + count(den)
        } else {
            count(den)
        };
        let v = if base > 0.0 { count(num) / base } else { 0.0 };
        metrics.push((name, v, "ratio"));
    }
    let attempted = keys.len() as u64 * rounds;
    let failed = keys.iter().filter(|k| k.starts_with("E ")).count() as u64 * rounds;
    result_json(repeat && mismatched == 0, attempted, failed, &metrics)
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A stable description of a verdict: kind, strategy and schedule, or
/// the reason.
pub fn verdict_key(v: &Verdict) -> String {
    match v {
        Verdict::Feasible { schedule, strategy } => {
            format!("F {strategy} {:?}", schedule.actions())
        }
        Verdict::FeasibleLanes { schedule, strategy } => {
            format!("L {strategy} {:?}", schedule.rows())
        }
        Verdict::Infeasible { reason } => format!("I {reason}"),
        Verdict::Unknown { reason } => format!("U {reason}"),
    }
}

/// [`verdict_key`] plus the report's search counters.
pub fn report_key(r: &Result<AnalysisReport, String>) -> String {
    match r {
        Ok(r) => {
            let search = r.search.map(|s| {
                format!(
                    "{}/{}/{}",
                    s.nodes_visited, s.candidates_checked, s.exhausted_bound
                )
            });
            format!(
                "{} {:?} {}",
                verdict_key(&r.verdict),
                search,
                r.groups_merged
            )
        }
        Err(e) => format!("E {e}"),
    }
}

/// Checks one report against the model it analysed: a feasible schedule
/// must meet every window of the report's analysis model, which must be
/// the subject model pipelined; a necessary-condition proof must hold on
/// recomputation. Returns whether the verdict counts as decided.
pub fn check_report(subject: &Model, r: &AnalysisReport) -> Result<bool, String> {
    match &r.verdict {
        Verdict::Feasible { schedule, .. } => {
            check::analysis_model_matches(subject, &r.analysis_model)?;
            check::schedule_meets(&r.analysis_model, &[schedule.actions()])?;
            Ok(true)
        }
        Verdict::FeasibleLanes { schedule, .. } => {
            check::analysis_model_matches(subject, &r.analysis_model)?;
            let rows: Vec<&[_]> = schedule.rows().iter().map(Vec::as_slice).collect();
            check::schedule_meets(&r.analysis_model, &rows)?;
            Ok(true)
        }
        Verdict::Infeasible { reason } => {
            check::necessary_condition_holds(subject, reason)?;
            Ok(true)
        }
        Verdict::Unknown { .. } => Ok(false),
    }
}

/// Seeded splitmix64 stream for input generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x2545_f491_4f6c_dd1d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Parses spec text, recording a `lang.parse_s` span when traced.
pub fn parse(text: &str, tracer: &mut Option<&mut Tracer>) -> Model {
    let parse = || rtcg_lang::parse_model(text).expect("generated spec text parses");
    let model = match tracer {
        Some(t) => {
            t.count("lang.specs", 1.0);
            t.span("lang.parse_s", 0, parse).0
        }
        None => parse(),
    };
    model.validate().expect("generated spec validates");
    model
}
