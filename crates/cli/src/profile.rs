//! `rtcg profile` and the shared `--metrics` / `--metrics-out` /
//! `--trace-out` / `--progress` plumbing.
//!
//! Profiling installs an in-memory [`rtcg_obs`] recorder, drives the
//! whole toolchain over one spec — necessary-condition bounds, a
//! budget-capped exact search (through an [`Engine`] so the sharded
//! result memo is exercised), heuristic synthesis, a table-executor
//! simulation, and a persistent-snapshot round-trip of the warmed memo
//! — and prints what the instrumentation collected:
//! counters, span timings, latency histograms, and per-shard cache
//! counters. `--trace-out` additionally dumps a Chrome `trace_event`
//! JSON loadable in Perfetto or chrome://tracing; `--format prom` or
//! `--metrics-out FILE` emit the Prometheus text exposition instead.

use crate::commands::{engine_err, load, run_simulation};
use crate::CliError;
use rtcg_core::feasibility::{quick_infeasible, SearchConfig};
use rtcg_core::heuristic::synthesize as core_synthesize;
use rtcg_engine::{AnalysisMode, AnalysisRequest, Engine, EngineStats, Verdict, SHARDS};
use rtcg_obs::MemoryRecorder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Aligned-text table (same shape as the bench crate's experiment
/// tables: padded columns, dashed rule under the header).
struct Table {
    header: Vec<&'static str>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new(header: &[&'static str]) -> Self {
        Table {
            header: header.to_vec(),
            rows: Vec::new(),
        }
    }

    fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i] - cell.len()));
            }
            line.trim_end().to_string()
        };
        let header: Vec<String> = self.header.iter().map(|h| h.to_string()).collect();
        let mut out = fmt(&header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt(row));
            out.push('\n');
        }
        out
    }
}

/// Installs the in-memory recorder when any observability flag
/// (`--metrics`, `--metrics-out`, `--trace-out`, `--progress`) is
/// present. Returns `None` when nothing asks for observability.
pub fn recorder_for(flags: &[String]) -> Option<&'static MemoryRecorder> {
    let wanted = ["--metrics", "--metrics-out", "--trace-out", "--progress"]
        .iter()
        .any(|w| flags.iter().any(|f| f == w));
    if wanted {
        Some(MemoryRecorder::install())
    } else {
        None
    }
}

/// Emits whatever the flags asked for: a Chrome trace file for
/// `--trace-out FILE`, a Prometheus text exposition file for
/// `--metrics-out FILE`, a metrics summary table for `--metrics`.
pub fn emit(rec: &MemoryRecorder, flags: &[String]) -> Result<(), CliError> {
    if let Some(path) = flag_str(flags, "--trace-out")? {
        std::fs::write(&path, rec.chrome_trace_json())
            .map_err(|e| CliError::Input(format!("cannot write `{path}`: {e}")))?;
        eprintln!("trace written to {path} (open in Perfetto or chrome://tracing)");
    }
    if let Some(path) = crate::commands::CommonOpts::parse(flags)?.metrics_out {
        std::fs::write(&path, rec.prometheus_text())
            .map_err(|e| CliError::Input(format!("cannot write `{path}`: {e}")))?;
        eprintln!("metrics written to {path} (Prometheus text exposition)");
    }
    if flags.iter().any(|f| f == "--metrics") {
        out!("{}", render_metrics(rec));
    }
    Ok(())
}

/// Live `--progress` ticker: a sampler thread that polls the
/// `search.progress.*` gauges the exact search publishes at its cancel
/// poll stride and rewrites one stderr status line. Sampling reads four
/// gauges off the recorder (no snapshot), so the cost is a handful of
/// map lookups per tick regardless of how much trace data accumulated.
/// Dropping the ticker stops the thread and prints a final sample, so
/// even a search faster than one tick leaves its closing rates visible.
pub struct ProgressTicker {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressTicker {
    /// Starts the ticker when `--progress` was given (the flag forces
    /// recorder installation via [`recorder_for`], so `rec` is `Some`
    /// whenever the flag is present). Flag parse errors surface later,
    /// from the subcommand's own [`CommonOpts::parse`] call.
    ///
    /// [`CommonOpts::parse`]: crate::commands::CommonOpts::parse
    pub fn start_if(flags: &[String], rec: Option<&'static MemoryRecorder>) -> Option<Self> {
        let wanted = crate::commands::CommonOpts::parse(flags).is_ok_and(|o| o.progress);
        if !wanted {
            return None;
        }
        let rec = rec?;
        let stop = Arc::new(AtomicBool::new(false));
        let seen = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut ticked = false;
            while !seen.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(100));
                if let Some(line) = progress_line(rec) {
                    eprint!("\r{line}");
                    ticked = true;
                }
            }
            // final sample on shutdown: short searches still report
            if let Some(line) = progress_line(rec) {
                eprintln!("\r{line}");
            } else if ticked {
                eprintln!();
            }
        });
        Some(ProgressTicker {
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for ProgressTicker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn progress_line(rec: &MemoryRecorder) -> Option<String> {
    let nps = rec.gauge("search.progress.nodes_per_sec")?;
    let depth = rec.gauge("search.progress.frontier_depth").unwrap_or(0);
    let prune = rec.gauge("search.progress.prune_rate_pct").unwrap_or(0);
    let bound = rec.gauge("search.progress.best_bound").unwrap_or(0);
    Some(format!(
        "search: {nps} nodes/s  depth {depth}  prune {prune}%  bound {bound}   "
    ))
}

/// Renders the recorder's current contents as summary tables.
pub fn render_metrics(rec: &MemoryRecorder) -> String {
    let snap = rec.snapshot();
    let mut out = String::new();

    if !snap.counters.is_empty() {
        let mut t = Table::new(&["counter", "value"]);
        for (name, v) in &snap.counters {
            t.row(vec![name.to_string(), v.to_string()]);
        }
        out.push_str("\ncounters:\n");
        out.push_str(&t.render());
    }

    if !snap.spans.is_empty() {
        // aggregate spans by name, preserving first-seen order
        let mut names: Vec<&'static str> = Vec::new();
        for s in &snap.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let mut t = Table::new(&["span", "cat", "count", "total"]);
        for name in names {
            let count = snap.spans.iter().filter(|s| s.name == name).count();
            let cat = snap
                .spans
                .iter()
                .find(|s| s.name == name)
                .map_or("", |s| s.cat);
            let total = snap.span_total(name);
            t.row(vec![
                name.to_string(),
                cat.to_string(),
                count.to_string(),
                format!("{:.3}ms", total.as_secs_f64() * 1e3),
            ]);
        }
        out.push_str("\nspans:\n");
        out.push_str(&t.render());
    }

    if !snap.histograms.is_empty() {
        let mut t = Table::new(&["histogram", "count", "mean", "p50", "p90", "p99", "max"]);
        for h in &snap.histograms {
            t.row(vec![
                h.name.to_string(),
                h.count.to_string(),
                format!("{:.1}", h.mean()),
                h.percentile(50.0).to_string(),
                h.percentile(90.0).to_string(),
                h.percentile(99.0).to_string(),
                h.max.to_string(),
            ]);
        }
        out.push_str("\nhistograms:\n");
        out.push_str(&t.render());
    }

    if !snap.events.is_empty() {
        out.push_str(&format!(
            "\n{} instant event(s) recorded\n",
            snap.events.len()
        ));
    }
    out
}

/// Renders per-shard cache counters of the engine's 16-way result memo
/// as an aligned table (plus a totals row).
pub fn render_shard_table(stats: &EngineStats) -> String {
    let mut t = Table::new(&["shard", "hits", "misses", "inserts", "poison", "occupancy"]);
    let (mut h, mut m, mut i, mut p, mut o) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for (ix, s) in stats.shards.iter().enumerate() {
        t.row(vec![
            format!("{ix:02}"),
            s.hits.to_string(),
            s.misses.to_string(),
            s.inserts.to_string(),
            s.poison_recoveries.to_string(),
            s.occupancy.to_string(),
        ]);
        h += s.hits;
        m += s.misses;
        i += s.inserts;
        p += s.poison_recoveries;
        o += s.occupancy;
    }
    t.row(vec![
        "all".into(),
        h.to_string(),
        m.to_string(),
        i.to_string(),
        p.to_string(),
        o.to_string(),
    ]);
    let mut out = String::from("\nengine result-memo shards:\n");
    out.push_str(&t.render());
    debug_assert_eq!(stats.shards.len(), SHARDS);
    out
}

/// `rtcg profile <spec.rtcg> [--ticks N] [--format table|prom]
/// [--trace-out FILE] [--metrics-out FILE]` — run the full pipeline
/// under the recorder and print the metrics summary.
pub fn profile(path: &str, flags: &[String]) -> Result<(), CliError> {
    let format = flag_str(flags, "--format")?.unwrap_or_else(|| "table".into());
    if format != "table" && format != "prom" {
        return Err(CliError::Usage(format!(
            "--format must be `table` or `prom`, got `{format}`"
        )));
    }
    let rec = MemoryRecorder::install();
    let (_, model) = load(path)?;
    let ticks = crate::commands::flag_value(flags, "--ticks")?.unwrap_or(1000);

    outln!("profiling {path}:");

    // 1. necessary-condition bounds
    let bound = quick_infeasible(&model).map_err(|e| CliError::Input(e.to_string()))?;
    outln!(
        "  bounds: {}",
        bound.map_or("pass".to_string(), |r| format!("infeasible ({r})"))
    );

    // 2. budget-capped exact search through an engine, so the run
    //    exercises (and reports) the sharded result memo. Profiling
    //    wants node counts, not an exhaustive answer, hence the
    //    deliberately small budget.
    let engine = Engine::new();
    let req = AnalysisRequest {
        mode: AnalysisMode::Exact,
        search: SearchConfig {
            max_len: 8,
            node_budget: 50_000,
        },
        ..AnalysisRequest::default()
    };
    let report = engine.analyze(&model, &req).map_err(engine_err)?;
    let schedule_cell = match report.verdict {
        Verdict::Feasible { .. } | Verdict::FeasibleLanes { .. } => "found",
        Verdict::Infeasible { .. } => "none within bound",
        Verdict::Unknown { .. } => "budget exhausted",
    };
    // a degraded request (budget fallback, warm memo hit) may answer
    // without search stats; profile the row as degraded, don't panic
    match report.search {
        Some(stats) => outln!(
            "  exact search: {} nodes, {} candidates, schedule {}",
            stats.nodes_visited,
            stats.candidates_checked,
            schedule_cell
        ),
        None => outln!("  exact search: degraded (no search stats), schedule {schedule_cell}"),
    }

    // 3. heuristic synthesis + 4. table-executor simulation
    match core_synthesize(&model) {
        Ok(out) => {
            outln!(
                "  synthesis: {} ({} actions)",
                out.strategy,
                out.schedule.len()
            );
            let run = run_simulation(out.model(), &out.schedule, ticks, 0)?;
            outln!(
                "  simulation: {ticks} ticks, {} windows checked, {} missed",
                run.total_checked(),
                run.outcomes.iter().map(|o| o.missed).sum::<usize>()
            );
        }
        Err(e) => outln!("  synthesis: infeasible ({e})"),
    }

    // 5. persistent-snapshot round-trip over the memo the steps above
    //    warmed, so the engine.snapshot.* metrics (save/load latency
    //    histograms, byte and section counters) carry real values in
    //    every output format
    let snap = std::env::temp_dir().join(format!("rtcg_profile_{}.snap", std::process::id()));
    let saved = engine
        .save_snapshot(&snap)
        .map_err(|e| CliError::Input(e.to_string()))?;
    let loaded = engine
        .load_snapshot(&snap)
        .map_err(|e| CliError::Input(e.to_string()))?;
    let _ = std::fs::remove_file(&snap);
    outln!(
        "  snapshot: {} section(s), {} bytes round-tripped ({} loaded, {} stale)",
        saved.sections,
        saved.bytes,
        loaded.sections_loaded,
        loaded.sections_skipped
    );

    // fold the shard counters into the metric stream so every output
    // format (tables, prom text, --metrics-out) sees the same data
    engine.publish_shard_metrics();

    if format == "prom" {
        out!("{}", rec.prometheus_text());
    } else {
        out!("{}", render_metrics(rec));
        out!("{}", render_shard_table(&engine.stats()));
    }

    if let Some(out) = flag_str(flags, "--metrics-out")? {
        std::fs::write(&out, rec.prometheus_text())
            .map_err(|e| CliError::Input(format!("cannot write `{out}`: {e}")))?;
        outln!("\nmetrics written to {out} (Prometheus text exposition)");
    }
    if let Some(out) = flag_str(flags, "--trace-out")? {
        std::fs::write(&out, rec.chrome_trace_json())
            .map_err(|e| CliError::Input(format!("cannot write `{out}`: {e}")))?;
        outln!("\ntrace written to {out} (open in Perfetto or chrome://tracing)");
    }
    Ok(())
}

/// Extracts a string-valued `--flag VALUE` pair.
pub fn flag_str(flags: &[String], name: &str) -> Result<Option<String>, CliError> {
    match flags.iter().position(|f| f == name) {
        None => Ok(None),
        Some(ix) => flags
            .get(ix + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| CliError::Usage(format!("{name} needs a value"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["name", "v"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
        let off = lines[0].find('v').unwrap();
        assert_eq!(lines[2].find('1'), Some(off));
    }

    #[test]
    fn flag_str_parses() {
        let flags = vec!["--trace-out".to_string(), "t.json".to_string()];
        assert_eq!(flag_str(&flags, "--trace-out").unwrap().unwrap(), "t.json");
        assert!(flag_str(&flags, "--other").unwrap().is_none());
        assert!(flag_str(&flags[..1], "--trace-out").is_err());
    }
}
