//! Subcommand implementations.

use crate::CliError;
use rtcg_core::heuristic::synthesize as core_synthesize;
use rtcg_core::model::Model;
use rtcg_engine::{AnalysisMode, AnalysisRequest, Engine, EngineError, Verdict};
use rtcg_sim::gantt::render_gantt;
use rtcg_sim::invocation::InvocationPattern;
use rtcg_sim::report::SimReport;
use rtcg_sim::table::run_table_executor;

pub(crate) fn load(path: &str) -> Result<(String, Model), CliError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError::Input(format!("cannot read `{path}`: {e}")))?;
    let model = rtcg_lang::parse_model(&src)
        .map_err(|e| CliError::Input(format!("{path}:{}", e.render(&src))))?;
    Ok((src, model))
}

fn summary(model: &Model) -> String {
    format!(
        "{} elements, {} constraints ({} periodic, {} asynchronous), \
         deadline density {:.3}, hyperperiod {}",
        model.comm().element_count(),
        model.constraints().len(),
        model.periodic().count(),
        model.asynchronous().count(),
        model.deadline_density(),
        model.hyperperiod()
    )
}

/// The session-level options shared verbatim by `analyze`, `serve`,
/// `synthesize` and `analyze --batch`: resource knobs (`--threads`,
/// `--budget-ms`), observability sinks (`--metrics-out`, `--progress`)
/// and the persistent memo snapshot (`--cache-file`), parsed once with
/// uniform positive-value validation so every subcommand rejects
/// `--threads 0` or `--budget-ms 0` with the same usage diagnostic
/// (exit code 1).
#[derive(Debug, Clone)]
pub(crate) struct CommonOpts {
    /// Exact-search worker threads (default 1).
    pub threads: usize,
    /// Wall-clock budget per analysis, in milliseconds.
    pub budget_ms: Option<u64>,
    /// Prometheus text-exposition output file.
    pub metrics_out: Option<String>,
    /// Live stderr progress ticker.
    pub progress: bool,
    /// Memo snapshot loaded before and saved after the run.
    pub cache_file: Option<String>,
}

impl CommonOpts {
    pub fn parse(flags: &[String]) -> Result<Self, CliError> {
        Ok(CommonOpts {
            threads: positive_flag_value(flags, "--threads")?.unwrap_or(1) as usize,
            budget_ms: positive_flag_value(flags, "--budget-ms")?,
            metrics_out: crate::profile::flag_str(flags, "--metrics-out")?,
            progress: flags.iter().any(|f| f == "--progress"),
            cache_file: cache_file_flag(flags)?,
        })
    }

    /// The engine's session-level half of these options.
    pub fn engine_options(&self) -> rtcg_engine::EngineOptions {
        rtcg_engine::EngineOptions {
            threads: self.threads,
            budget_ms: self.budget_ms,
        }
    }
}

/// `--cache-file <path>`: a memo snapshot to load before and save
/// after the run. Validation is eager and usage-level (exit code 1):
/// the path must not name a directory, and a not-yet-existing file must
/// at least sit in an existing directory — so a typo'd path fails
/// before a long batch runs rather than at save time after it.
pub(crate) fn cache_file_flag(flags: &[String]) -> Result<Option<String>, CliError> {
    let Some(path) = crate::profile::flag_str(flags, "--cache-file")? else {
        return Ok(None);
    };
    let p = std::path::Path::new(&path);
    if p.is_dir() {
        return Err(CliError::Usage(format!(
            "--cache-file `{path}` is a directory, not a snapshot file"
        )));
    }
    if !p.exists() {
        if let Some(parent) = p.parent() {
            if !parent.as_os_str().is_empty() && !parent.is_dir() {
                return Err(CliError::Usage(format!(
                    "--cache-file `{path}`: parent directory `{}` does not exist",
                    parent.display()
                )));
            }
        }
    }
    Ok(Some(path))
}

/// Warms `engine` from the `--cache-file` snapshot, if one is set and
/// already exists (a missing file is the normal cold-start case, not an
/// error). Corrupt or unreadable snapshots abort the run: silently
/// recomputing cold would mask the operational problem the flag exists
/// to avoid. Returns the one-line human report, which [`load_cache`]
/// prints to stdout and `rtcg serve` routes to stderr (its stdout is
/// the JSONL response stream).
pub(crate) fn load_cache_report(
    engine: &Engine,
    common: &CommonOpts,
) -> Result<Option<String>, CliError> {
    let Some(path) = &common.cache_file else {
        return Ok(None);
    };
    if !std::path::Path::new(path).exists() {
        return Ok(Some(format!("cache: `{path}` not found, starting cold")));
    }
    let stats = engine
        .load_snapshot(path)
        .map_err(|e| CliError::Input(format!("cannot load cache `{path}`: {e}")))?;
    Ok(Some(format!(
        "cache: loaded {} section(s) from `{path}` ({} stale section(s) skipped, {} bytes)",
        stats.sections_loaded, stats.sections_skipped, stats.bytes
    )))
}

/// [`load_cache_report`], reporting on stdout.
pub(crate) fn load_cache(engine: &Engine, common: &CommonOpts) -> Result<(), CliError> {
    if let Some(line) = load_cache_report(engine, common)? {
        outln!("{line}");
    }
    Ok(())
}

/// Persists `engine`'s memos to the `--cache-file` snapshot, if set.
pub(crate) fn save_cache(engine: &Engine, common: &CommonOpts) -> Result<(), CliError> {
    let Some(path) = &common.cache_file else {
        return Ok(());
    };
    let stats = engine
        .save_snapshot(path)
        .map_err(|e| CliError::Input(format!("cannot save cache `{path}`: {e}")))?;
    outln!(
        "cache: saved {} section(s) to `{path}` ({} bytes)",
        stats.sections,
        stats.bytes
    );
    Ok(())
}

/// Maps the shared analysis flags onto one [`AnalysisRequest`]:
/// `--merged`/`--exact` select the mode, `--threads`, `--max-len` and
/// `--budget` tune the exact search.
pub(crate) fn request_from_flags(flags: &[String]) -> Result<AnalysisRequest, CliError> {
    let mut req = AnalysisRequest::default();
    if flags.iter().any(|f| f == "--merged") {
        req.mode = AnalysisMode::Merged;
    }
    if flags.iter().any(|f| f == "--exact") {
        req.mode = AnalysisMode::Exact;
    }
    req.threads = CommonOpts::parse(flags)?.threads;
    if let Some(l) = flag_value(flags, "--max-len")? {
        req.search.max_len = l as usize;
    }
    if let Some(b) = positive_flag_value(flags, "--budget")? {
        req.search.node_budget = b;
    }
    if let Some(m) = positive_flag_value(flags, "--lanes")? {
        req.lanes = m as usize;
    }
    Ok(req)
}

pub(crate) fn engine_err(e: EngineError) -> CliError {
    match e {
        EngineError::Infeasible(reason) => CliError::Infeasible(reason),
        other => CliError::Input(other.to_string()),
    }
}

pub(crate) fn print_cache_stats(engine: &Engine) {
    let s = engine.stats();
    outln!("engine cache: {} hit(s), {} miss(es)", s.hits, s.misses);
}

/// `rtcg check [--cache-stats]` — parse, validate, report bounds.
pub fn check(path: &str, flags: &[String]) -> Result<(), CliError> {
    let (_, model) = load(path)?;
    outln!("{path}: OK");
    outln!("{}", summary(&model));
    match rtcg_core::feasibility::quick_infeasible(&model)
        .map_err(|e| CliError::Input(e.to_string()))?
    {
        Some(reason) => outln!("warning: certainly infeasible — {reason}"),
        None => outln!("necessary conditions pass (density bound, span bounds)"),
    }
    for (_, c) in model.constraints_enumerated() {
        let w = c
            .computation_time(model.comm())
            .map_err(|e| CliError::Input(e.to_string()))?;
        outln!(
            "  {:<16} {:<12} p={:<6} d={:<6} w={}",
            c.name,
            if c.is_periodic() {
                "periodic"
            } else {
                "asynchronous"
            },
            c.period,
            c.deadline,
            w
        );
    }
    if flags.iter().any(|f| f == "--cache-stats") {
        // run a full feasibility analysis through the engine so the
        // stats line reflects a real workload (second run memo-hits)
        let engine = Engine::new();
        let req = request_from_flags(flags)?;
        let report = engine.analyze(&model, &req).map_err(engine_err)?;
        let verdict = match &report.verdict {
            Verdict::Feasible { strategy, .. } => format!("feasible ({strategy})"),
            Verdict::FeasibleLanes { schedule, strategy } => {
                format!("feasible ({strategy}, {} lanes)", schedule.lane_count())
            }
            Verdict::Infeasible { reason } => format!("infeasible — {reason}"),
            Verdict::Unknown { reason } => format!("unknown — {reason}"),
        };
        outln!("engine verdict: {verdict}");
        print_cache_stats(&engine);
    }
    Ok(())
}

/// `rtcg synthesize [--merged|--exact] [--threads N] [--max-len L]
/// [--budget B] [--gantt N] [--cache-file F] [--progress] [--metrics]
/// [--metrics-out F] [--trace-out F]`.
pub fn synthesize(path: &str, flags: &[String]) -> Result<(), CliError> {
    let rec = crate::profile::recorder_for(flags);
    let ticker = crate::profile::ProgressTicker::start_if(flags, rec);
    let result = synthesize_inner(path, flags);
    drop(ticker);
    if let Some(rec) = rec {
        // emit even when synthesis failed: the trace shows *where* the
        // pipeline spent its time before giving up
        crate::profile::emit(rec, flags)?;
    }
    result
}

fn synthesize_inner(path: &str, flags: &[String]) -> Result<(), CliError> {
    // flags validate before the spec loads: a usage error is a usage
    // error whether or not the file exists
    let gantt_ticks = flag_value(flags, "--gantt")?;
    let req = request_from_flags(flags)?;
    let common = CommonOpts::parse(flags)?;
    let (_, model) = load(path)?;
    let engine = Engine::new();
    load_cache(&engine, &common)?;
    let report = {
        let (query, _) = req.split();
        let mut session = engine
            .open_session_with(model, common.engine_options())
            .map_err(engine_err)?;
        session.analyze(&query).map_err(engine_err)?
    };
    save_cache(&engine, &common)?;
    if let (AnalysisMode::Exact, Some(stats)) = (req.mode, report.search) {
        outln!(
            "exact search ({} thread(s), max len {}, budget {}): {} nodes, {} candidates{}",
            req.threads,
            req.search.max_len,
            req.search.node_budget,
            stats.nodes_visited,
            stats.candidates_checked,
            if stats.exhausted_bound {
                ""
            } else {
                " — budget exhausted"
            }
        );
    }
    let result = match &report.verdict {
        Verdict::Feasible { schedule, strategy } => {
            match req.mode {
                AnalysisMode::Heuristic => outln!("latency scheduling ({strategy}):"),
                AnalysisMode::Merged => outln!(
                    "merged latency scheduling ({strategy}, {} group(s) merged):",
                    report.groups_merged
                ),
                AnalysisMode::Exact => {}
            }
            print_schedule(&report.analysis_model, schedule, gantt_ticks)
        }
        Verdict::FeasibleLanes { schedule, strategy } => {
            outln!("lane scheduling ({strategy}):");
            print_lane_schedule(&report.analysis_model, schedule)
        }
        Verdict::Infeasible { reason } => Err(CliError::Infeasible(reason.clone())),
        Verdict::Unknown { reason } => Err(CliError::Infeasible(reason.clone())),
    };
    if flags.iter().any(|f| f == "--cache-stats") {
        print_cache_stats(&engine);
    }
    result
}

/// `rtcg analyze [--merged|--exact] [--threads N] [--max-len L]
/// [--budget B] [--sweep] [--cache-stats] [--cache-file F] [--progress]
/// [--metrics] [--metrics-out F] [--trace-out F]` — the unified analysis front
/// end. Without `--sweep`, reports the verdict for the model as
/// written; with `--sweep`, binary-searches every constraint's minimum
/// feasible deadline through the engine's incremental cache.
pub fn analyze(path: &str, flags: &[String]) -> Result<(), CliError> {
    let rec = crate::profile::recorder_for(flags);
    let ticker = crate::profile::ProgressTicker::start_if(flags, rec);
    let result = analyze_inner(path, flags);
    drop(ticker);
    if let Some(rec) = rec {
        // emit even on an infeasible verdict: the metrics show what the
        // search did before concluding
        crate::profile::emit(rec, flags)?;
    }
    result
}

fn analyze_inner(path: &str, flags: &[String]) -> Result<(), CliError> {
    let req = request_from_flags(flags)?;
    let common = CommonOpts::parse(flags)?;
    let (_, model) = load(path)?;
    let engine = Engine::new();
    load_cache(&engine, &common)?;
    if flags.iter().any(|f| f == "--sweep") {
        outln!("deadline sensitivity sweep ({}):", mode_name(req.mode));
        let rows = engine
            .deadline_sensitivities(&model, &req)
            .map_err(engine_err)?;
        for r in rows {
            print_sensitivity_row(&r);
        }
        let pct = engine
            .max_uniform_tightening(&model, &req)
            .map_err(engine_err)?;
        outln!("maximum uniform tightening: {pct}% of declared deadlines");
        save_cache(&engine, &common)?;
    } else {
        let report = {
            let (query, _) = req.split();
            let mut session = engine
                .open_session_with(model, common.engine_options())
                .map_err(engine_err)?;
            session.analyze(&query).map_err(engine_err)?
        };
        save_cache(&engine, &common)?;
        if let Some(stats) = report.search {
            outln!(
                "search: {} nodes, {} candidates{}",
                stats.nodes_visited,
                stats.candidates_checked,
                if stats.exhausted_bound {
                    ""
                } else {
                    " — budget exhausted"
                }
            );
        }
        let verdict = match &report.verdict {
            Verdict::Feasible { schedule, strategy } => {
                outln!("feasible ({strategy}):");
                print_schedule(&report.analysis_model, schedule, None)
            }
            Verdict::FeasibleLanes { schedule, strategy } => {
                outln!("feasible ({strategy}):");
                print_lane_schedule(&report.analysis_model, schedule)
            }
            Verdict::Infeasible { reason } => Err(CliError::Infeasible(reason.clone())),
            Verdict::Unknown { reason } => Err(CliError::Infeasible(format!("unknown: {reason}"))),
        };
        if flags.iter().any(|f| f == "--cache-stats") {
            print_cache_stats(&engine);
        }
        return verdict;
    }
    if flags.iter().any(|f| f == "--cache-stats") {
        print_cache_stats(&engine);
    }
    Ok(())
}

/// `rtcg analyze --batch <manifest> [--threads N] [--budget-ms M]
/// [--merged|--exact] [--max-len L] [--budget B] [--cache-stats]
/// [--cache-file F]` — analyzes every spec listed in the manifest (one
/// path per line, `#` comments, paths relative to the manifest) through
/// one shared engine cache, fanned across `N` worker threads. With
/// `--budget-ms`, a request whose exact search exceeds the budget
/// degrades to the heuristic verdict instead of erroring. With
/// `--cache-file`, the engine memo is warmed from the snapshot before
/// the batch and persisted back after it.
pub fn analyze_batch(manifest: &str, flags: &[String]) -> Result<(), CliError> {
    let rec = crate::profile::recorder_for(flags);
    let result = analyze_batch_inner(manifest, flags);
    if let Some(rec) = rec {
        crate::profile::emit(rec, flags)?;
    }
    result
}

fn analyze_batch_inner(manifest: &str, flags: &[String]) -> Result<(), CliError> {
    let req = request_from_flags(flags)?;
    let common = CommonOpts::parse(flags)?;
    let opts = rtcg_engine::batch::BatchOptions {
        threads: common.threads,
        budget_ms: common.budget_ms,
    };
    let listing = std::fs::read_to_string(manifest)
        .map_err(|e| CliError::Input(format!("cannot read manifest `{manifest}`: {e}")))?;
    let base = std::path::Path::new(manifest)
        .parent()
        .map(|p| p.to_path_buf())
        .unwrap_or_default();
    let mut paths = Vec::new();
    let mut jobs = Vec::new();
    for (lineno, line) in listing.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // manifests accept two entry forms per line: a bare spec path
        // (legacy), or a versioned JSONL record `{"v":1,"spec":"path"}`
        // whose version field is checked explicitly
        let entry = if line.starts_with('{') {
            crate::protocol::manifest_entry(line)
                .map_err(|e| CliError::Input(format!("{manifest}:{}: {e}", lineno + 1)))?
        } else {
            line.to_string()
        };
        let path = base.join(&entry);
        let path = path
            .to_str()
            .ok_or_else(|| CliError::Input(format!("non-UTF-8 path in `{manifest}`")))?
            .to_string();
        let (_, model) = load(&path)?;
        paths.push(path);
        jobs.push((model, req));
    }
    if jobs.is_empty() {
        return Err(CliError::Input(format!(
            "manifest `{manifest}` lists no specs"
        )));
    }
    outln!(
        "batch: {} spec(s), {} worker thread(s), budget {}",
        jobs.len(),
        opts.threads,
        match opts.budget_ms {
            Some(ms) => format!("{ms} ms/request"),
            None => "unlimited".into(),
        }
    );
    let engine = Engine::new();
    load_cache(&engine, &common)?;
    let results = engine.analyze_batch(&jobs, &opts);
    // save before the verdict-derived exit code: an infeasible batch
    // still warmed the memo, and the next run wants that work
    save_cache(&engine, &common)?;
    let width = paths.iter().map(|p| p.len()).max().unwrap_or(0);
    let (mut feasible, mut infeasible, mut unknown, mut errors, mut degraded) = (0, 0, 0, 0, 0);
    for (path, result) in paths.iter().zip(&results) {
        let verdict = match &result.report {
            Ok(report) => match &report.verdict {
                Verdict::Feasible { strategy, .. } => {
                    feasible += 1;
                    format!("feasible ({strategy})")
                }
                Verdict::FeasibleLanes { schedule, strategy } => {
                    feasible += 1;
                    format!("feasible ({strategy}, {} lanes)", schedule.lane_count())
                }
                Verdict::Infeasible { reason } => {
                    infeasible += 1;
                    format!("infeasible — {reason}")
                }
                Verdict::Unknown { reason } => {
                    unknown += 1;
                    format!("unknown — {reason}")
                }
            },
            Err(e) => {
                errors += 1;
                format!("error — {e}")
            }
        };
        let tag = match &result.degraded {
            Some(reason) => {
                degraded += 1;
                format!("  [degraded: {reason}]")
            }
            None => String::new(),
        };
        outln!("  {path:<width$}  {verdict}{tag}");
    }
    outln!(
        "summary: {feasible} feasible, {infeasible} infeasible, {unknown} unknown, \
         {errors} error(s), {degraded} degraded"
    );
    if flags.iter().any(|f| f == "--cache-stats") {
        print_cache_stats(&engine);
    }
    if errors > 0 {
        Err(CliError::Input(format!(
            "{errors} of {} batch request(s) failed",
            results.len()
        )))
    } else if infeasible + unknown > 0 {
        Err(CliError::Infeasible(format!(
            "{} of {} batch request(s) not feasible",
            infeasible + unknown,
            results.len()
        )))
    } else {
        Ok(())
    }
}

/// One sweep table row. A row can have a minimum but no slack (the
/// minimum exceeds the declared deadline, e.g. from a degraded probe);
/// that renders as `n/a` rather than panicking mid-table.
pub(crate) fn print_sensitivity_row(r: &rtcg_core::sensitivity::DeadlineSensitivity) {
    outln!("{}", sensitivity_row(r));
}

fn sensitivity_row(r: &rtcg_core::sensitivity::DeadlineSensitivity) -> String {
    match r.minimum_feasible {
        Some(min) => {
            let slack = match r.slack() {
                Some(s) => s.to_string(),
                None => "n/a".into(),
            };
            format!(
                "  {:<16} declared d={:<6} minimum d={:<6} slack={}",
                r.name, r.declared, min, slack
            )
        }
        None => format!("  {:<16} declared d={:<6} INFEASIBLE", r.name, r.declared),
    }
}

fn mode_name(mode: AnalysisMode) -> &'static str {
    match mode {
        AnalysisMode::Heuristic => "heuristic",
        AnalysisMode::Merged => "merged",
        AnalysisMode::Exact => "exact",
    }
}

fn print_schedule(
    model: &Model,
    schedule: &rtcg_core::StaticSchedule,
    gantt_ticks: Option<u64>,
) -> Result<(), CliError> {
    let comm = model.comm();
    outln!(
        "schedule: {} actions, duration {} ticks, busy {:.1}%",
        schedule.len(),
        schedule
            .duration(comm)
            .map_err(|e| CliError::Input(e.to_string()))?,
        100.0
            * schedule
                .busy_fraction(comm)
                .map_err(|e| CliError::Input(e.to_string()))?
    );
    outln!(
        "{}",
        schedule
            .display(comm)
            .map_err(|e| CliError::Input(e.to_string()))?
    );
    let report = schedule
        .feasibility(model)
        .map_err(|e| CliError::Input(e.to_string()))?;
    out!("{report}");
    if let Some(n) = gantt_ticks {
        let trace = schedule
            .expand(comm, 2)
            .map_err(|e| CliError::Input(e.to_string()))?;
        outln!();
        out!(
            "{}",
            render_gantt(&trace, comm, 0, n).map_err(|e| CliError::Input(e.to_string()))?
        );
    }
    if !report.is_feasible() {
        return Err(CliError::Infeasible(
            "synthesized schedule failed verification".into(),
        ));
    }
    Ok(())
}

fn print_lane_schedule(
    model: &Model,
    schedule: &rtcg_core::feasibility::LaneSchedule,
) -> Result<(), CliError> {
    let comm = model.comm();
    outln!(
        "lane schedule: {} lanes, joint period {} ticks",
        schedule.lane_count(),
        schedule
            .joint_period(comm)
            .map_err(|e| CliError::Input(e.to_string()))?
    );
    outln!(
        "{}",
        schedule
            .display(comm)
            .map_err(|e| CliError::Input(e.to_string()))?
    );
    let report = schedule
        .feasibility(model)
        .map_err(|e| CliError::Input(e.to_string()))?;
    out!("{report}");
    if !report.is_feasible() {
        return Err(CliError::Infeasible(
            "synthesized lane schedule failed verification".into(),
        ));
    }
    Ok(())
}

/// `rtcg simulate --ticks N [--seed S] [--metrics] [--trace-out F]`.
pub fn simulate(path: &str, flags: &[String]) -> Result<(), CliError> {
    let rec = crate::profile::recorder_for(flags);
    let result = simulate_inner(path, flags);
    if let Some(rec) = rec {
        crate::profile::emit(rec, flags)?;
    }
    result
}

/// Synthesis-independent simulation core shared with `rtcg profile`:
/// periodic constraints invoke on their period, asynchronous ones from a
/// seeded sporadic stream.
pub(crate) fn run_simulation(
    m: &Model,
    schedule: &rtcg_core::StaticSchedule,
    ticks: u64,
    seed: u64,
) -> Result<rtcg_sim::table::TableRun, CliError> {
    let patterns: Vec<InvocationPattern> = m
        .constraints()
        .iter()
        .map(|c| {
            if c.is_periodic() {
                InvocationPattern::Periodic {
                    period: c.period,
                    offset: 0,
                }
            } else {
                InvocationPattern::SporadicRandom {
                    separation: c.period,
                    spread: c.period,
                    seed,
                }
            }
        })
        .collect();
    run_table_executor(m, schedule, &patterns, ticks).map_err(|e| CliError::Input(e.to_string()))
}

fn simulate_inner(path: &str, flags: &[String]) -> Result<(), CliError> {
    let (_, model) = load(path)?;
    let ticks = flag_value(flags, "--ticks")?
        .ok_or_else(|| CliError::Usage("simulate requires --ticks N".into()))?;
    let seed = flag_value(flags, "--seed")?.unwrap_or(0);
    let out = core_synthesize(&model).map_err(|e| CliError::Infeasible(e.to_string()))?;
    let run = run_simulation(out.model(), &out.schedule, ticks, seed)?;
    outln!("simulated {ticks} ticks (seed {seed}):");
    out!("{}", rtcg_sim::report::render_rows(&run));
    if SimReport::no_misses(&run) {
        outln!("all deadlines met");
        Ok(())
    } else {
        Err(CliError::Infeasible("deadline misses observed".into()))
    }
}

/// `rtcg sensitivity [--cache-stats]` — kept as an alias for
/// `rtcg analyze --sweep` (heuristic mode); probes route through the
/// engine cache.
pub fn sensitivity(path: &str, flags: &[String]) -> Result<(), CliError> {
    let (_, model) = load(path)?;
    let req = request_from_flags(flags)?;
    let engine = Engine::new();
    let rows = engine
        .deadline_sensitivities(&model, &req)
        .map_err(engine_err)?;
    outln!("deadline sensitivity (synthesizer-verified minima):");
    for r in rows {
        print_sensitivity_row(&r);
    }
    let pct = engine
        .max_uniform_tightening(&model, &req)
        .map_err(engine_err)?;
    outln!("maximum uniform tightening: {pct}% of declared deadlines");
    if flags.iter().any(|f| f == "--cache-stats") {
        print_cache_stats(&engine);
    }
    Ok(())
}

/// `rtcg dot`.
pub fn dot(path: &str) -> Result<(), CliError> {
    let (_, model) = load(path)?;
    out!("{}", model.comm().to_dot(path));
    Ok(())
}

/// `rtcg codegen`.
pub fn codegen(path: &str) -> Result<(), CliError> {
    let (_, model) = load(path)?;
    let (programs, _) = rtcg_synth::straightline::synthesize_programs(&model)
        .map_err(|e| CliError::Input(e.to_string()))?;
    out!(
        "{}",
        rtcg_synth::codegen::render_process_system(&model, &programs)
            .map_err(|e| CliError::Input(e.to_string()))?
    );
    let out = core_synthesize(&model).map_err(|e| CliError::Infeasible(e.to_string()))?;
    out!(
        "{}",
        rtcg_synth::codegen::render_table_scheduler(out.model().comm(), &out.schedule)
            .map_err(|e| CliError::Input(e.to_string()))?
    );
    Ok(())
}

pub(crate) fn flag_value(flags: &[String], name: &str) -> Result<Option<u64>, CliError> {
    match flags.iter().position(|f| f == name) {
        None => Ok(None),
        Some(ix) => {
            let v = flags
                .get(ix + 1)
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))?;
            v.parse::<u64>()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("{name} needs an integer, got `{v}`")))
        }
    }
}

/// Like [`flag_value`] but rejects 0 — for flags where zero is never a
/// meaningful request (worker counts, budgets).
pub(crate) fn positive_flag_value(flags: &[String], name: &str) -> Result<Option<u64>, CliError> {
    match flag_value(flags, name)? {
        Some(0) => Err(CliError::Usage(format!("{name} must be at least 1, got 0"))),
        other => Ok(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcg_core::sensitivity::DeadlineSensitivity;
    use rtcg_core::ConstraintId;

    fn row(declared: u64, minimum_feasible: Option<u64>) -> DeadlineSensitivity {
        DeadlineSensitivity {
            constraint: ConstraintId::new(0),
            name: "c".into(),
            declared,
            minimum_feasible,
        }
    }

    #[test]
    fn sweep_row_renders_slack() {
        assert!(sensitivity_row(&row(10, Some(7))).contains("slack=3"));
    }

    #[test]
    fn sweep_row_without_minimum_is_infeasible() {
        assert!(sensitivity_row(&row(10, None)).contains("INFEASIBLE"));
    }

    /// Regression: a degraded probe can report a minimum above the
    /// declared deadline; the row must render `n/a`, not panic on an
    /// underflowing subtraction.
    #[test]
    fn sweep_row_with_inverted_minimum_renders_na() {
        let r = row(5, Some(9));
        assert_eq!(r.slack(), None);
        assert!(sensitivity_row(&r).contains("slack=n/a"));
    }

    #[test]
    fn lanes_flag_reaches_the_request() {
        let flags = vec!["--lanes".to_string(), "3".to_string()];
        assert_eq!(request_from_flags(&flags).unwrap().lanes, 3);
        assert_eq!(request_from_flags(&[]).unwrap().lanes, 1);
        let zero = vec!["--lanes".to_string(), "0".to_string()];
        assert!(request_from_flags(&zero).is_err());
    }
}
