//! Persistent memo snapshots — cold-start elimination for the engine's
//! result memo (DESIGN.md §14).
//!
//! Everything the engine memoizes lives in RAM, so every process
//! restart pays the full cold-start tax. This module serializes the
//! result memo into a versioned, length-prefixed binary file and merges
//! a file back into a *live* engine without `&mut self`. The file holds
//! one **result section** per subject model: the model itself
//! (binary-encoded), its [`Model::content_digest`], and every
//! `(request, report)` pair the result memo holds for it. Files written
//! before the candidate memo was retired also carry kind-2 candidate
//! sections; loads skip those, counted like any unknown section kind.
//!
//! **Nothing in the file is trusted as a key.** Fingerprints are
//! recomputed from the decoded models on load; the stored digest only
//! *detects* staleness (a section whose recomputed digest disagrees was
//! written by an incompatible producer and is skipped, counted in
//! [`LoadStats::sections_skipped`]). Corrupt or truncated files return
//! a structured [`SnapshotError`] — never a panic — and a section is
//! fully decoded and digest-checked *before* any shard is touched, so a
//! failed load leaves the engine exactly as it was (no partial merges,
//! no poisoned locks). Merging is insert-if-absent at entry granularity:
//! live results always win over snapshot results.
//!
//! The subject models themselves are kept in a registry the engine
//! fills at memo-insert time — a fingerprint is one-way, so the memo
//! keys alone cannot be re-keyed into content-addressed sections.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rtcg_core::constraint::ConstraintKind;
use rtcg_core::feasibility::LaneSchedule;
use rtcg_core::feasibility::SearchConfig;
use rtcg_core::heuristic::SynthesisConfig;
use rtcg_core::model::{ElementId, Model, ModelBuilder};
use rtcg_core::schedule::Action;
use rtcg_core::task::TaskGraphBuilder;
use rtcg_core::StaticSchedule;

use crate::fingerprint::{model_fingerprint, request_fingerprint, FP_SCHEMA_VERSION};
use crate::session::Session;
use crate::{
    shard_of, unpoison, AnalysisMode, AnalysisReport, AnalysisRequest, Engine, SearchStats,
    Verdict, SHARDS,
};

/// File magic: the first eight bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"RTCGSNAP";

/// Wire format version; bump on any layout change.
///
/// v2: requests carry the lane count; reports can carry an m-lane
/// verdict (tag 3).
pub const FORMAT_VERSION: u32 = 2;

/// The one section kind written. Kind 2 was the retired candidate
/// section; loads skip it like any other unknown kind.
const SECTION_RESULTS: u8 = 1;

/// The closed set of strategy tags a report can carry. Verdicts hold
/// `&'static str` strategies, so decoding interns against this table;
/// an entry naming an unknown strategy (a future producer) is skipped.
const STRATEGIES: [&str; 6] = [
    "edf-half",
    "edf-wide",
    "game",
    "exact",
    "lane-list",
    "lane-exact",
];

fn intern_strategy(s: &str) -> Option<&'static str> {
    STRATEGIES.iter().find(|&&k| k == s).copied()
}

/// Structured decode/IO failure. Stale *sections* are skipped and
/// counted instead (see [`LoadStats::sections_skipped`]); an error
/// means the file itself is unusable.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file IO failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The file ends before the named structure was complete.
    Truncated(&'static str),
    /// Internally inconsistent bytes (bad index, bad UTF-8, length
    /// mismatch, unbuildable model).
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated in {what}"),
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn malformed(why: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(why.into())
}

/// What one save wrote.
#[derive(Debug, Clone, Copy, Default)]
pub struct SaveStats {
    /// Sections written.
    pub sections: u64,
    /// `(request, report)` pairs written across result sections.
    pub result_entries: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
}

/// What one load merged (or refused).
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadStats {
    /// Sections decoded, digest-verified, and merged.
    pub sections_loaded: u64,
    /// Sections skipped whole: digest mismatch, invalid model, unknown
    /// fingerprint schema, or unknown section kind (including the
    /// retired kind-2 candidate sections of older files).
    pub sections_skipped: u64,
    /// Reports inserted into the result memo.
    pub results_inserted: u64,
    /// Reports already present (live entry won).
    pub results_present: u64,
    /// Individual entries dropped inside otherwise-good sections
    /// (unknown strategy or analysis mode from a future producer).
    pub entries_skipped: u64,
    /// Decoded size in bytes.
    pub bytes: u64,
}

/// Cumulative snapshot counters, surfaced via
/// [`EngineStats::snapshot`](crate::EngineStats::snapshot) (and the
/// serve daemon's `stats` op).
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotTotals {
    /// Successful saves.
    pub saves: u64,
    /// Successful loads.
    pub loads: u64,
    /// Sections merged across all loads.
    pub sections_loaded: u64,
    /// Sections skipped across all loads.
    pub sections_skipped: u64,
    /// Bytes written across all saves.
    pub bytes_written: u64,
    /// Bytes read across all loads.
    pub bytes_read: u64,
}

/// Atomic backing of [`SnapshotTotals`], owned by the engine.
#[derive(Debug, Default)]
pub(crate) struct SnapCounters {
    saves: AtomicU64,
    loads: AtomicU64,
    sections_loaded: AtomicU64,
    sections_skipped: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl SnapCounters {
    pub(crate) fn totals(&self) -> SnapshotTotals {
        SnapshotTotals {
            saves: self.saves.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            sections_loaded: self.sections_loaded.load(Ordering::Relaxed),
            sections_skipped: self.sections_skipped.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------- codec

/// Little-endian append-only byte sink.
#[derive(Default)]
struct Wr(Vec<u8>);

impl Wr {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a byte slice. Every read
/// that would run past the end returns [`SnapshotError::Truncated`]
/// with the region name — no read ever panics, and counts from the
/// wire never pre-size allocations (a lying count runs into the bounds
/// check after at most one element).
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8], what: &'static str) -> Self {
        Rd { buf, pos: 0, what }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapshotError::Truncated(self.what));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| malformed("invalid utf-8 string"))
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Arena iteration order of `model`'s elements, plus the inverse map
/// (raw id index → position). Actions and op references are encoded as
/// *positions* in this order, so a rebuilt model with freshly assigned
/// ids decodes them consistently.
fn element_positions(model: &Model) -> (Vec<ElementId>, HashMap<usize, u32>) {
    let order: Vec<ElementId> = model.comm().elements().map(|(id, _)| id).collect();
    let pos = order
        .iter()
        .enumerate()
        .map(|(i, id)| (id.index(), i as u32))
        .collect();
    (order, pos)
}

fn encode_model(w: &mut Wr, model: &Model) -> Result<(), SnapshotError> {
    let comm = model.comm();
    let (_, pos) = element_positions(model);
    let elem_pos = |id: ElementId| -> Result<u32, SnapshotError> {
        pos.get(&id.index())
            .copied()
            .ok_or_else(|| malformed("model references an element outside its own arena"))
    };
    w.u32(comm.element_count() as u32);
    for (_, e) in comm.elements() {
        w.str(&e.name);
        w.u64(e.wcet);
        w.u8(e.pipelinable as u8);
    }
    let edges: Vec<_> = comm.graph().edges().collect();
    w.u32(edges.len() as u32);
    for edge in edges {
        w.u32(elem_pos(edge.from)?);
        w.u32(elem_pos(edge.to)?);
        match &edge.weight.label {
            Some(label) => {
                w.u8(1);
                w.str(label);
            }
            None => w.u8(0),
        }
    }
    w.u32(model.constraints().len() as u32);
    for c in model.constraints() {
        w.str(&c.name);
        w.u8(matches!(c.kind, ConstraintKind::Asynchronous) as u8);
        w.u64(c.period);
        w.u64(c.deadline);
        let ops: Vec<_> = c.task.ops().collect();
        let op_pos: HashMap<usize, u32> = ops
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (id.index(), i as u32))
            .collect();
        w.u32(ops.len() as u32);
        for (_, op) in &ops {
            w.str(&op.label);
            w.u32(elem_pos(op.element)?);
        }
        let tedges: Vec<_> = c.task.precedence_edges().collect();
        w.u32(tedges.len() as u32);
        for (u, v) in tedges {
            let p = |id: rtcg_core::task::OpId| {
                op_pos
                    .get(&id.index())
                    .copied()
                    .ok_or_else(|| malformed("task graph edge references an unknown op"))
            };
            w.u32(p(u)?);
            w.u32(p(v)?);
        }
    }
    Ok(())
}

fn decode_model(r: &mut Rd<'_>) -> Result<(Model, Vec<ElementId>), SnapshotError> {
    let mut b = ModelBuilder::new();
    let ne = r.u32()?;
    let mut ids = Vec::new();
    for _ in 0..ne {
        let name = r.str()?;
        let wcet = r.u64()?;
        let pipe = r.u8()? != 0;
        ids.push(if pipe {
            b.element(&name, wcet)
        } else {
            b.element_unpipelinable(&name, wcet)
        });
    }
    let elem = |ids: &[ElementId], p: u32| -> Result<ElementId, SnapshotError> {
        ids.get(p as usize)
            .copied()
            .ok_or_else(|| malformed("element position out of range"))
    };
    let nchan = r.u32()?;
    for _ in 0..nchan {
        let from = elem(&ids, r.u32()?)?;
        let to = elem(&ids, r.u32()?)?;
        if r.u8()? != 0 {
            let label = r.str()?;
            b.channel_labeled(from, to, &label);
        } else {
            b.channel(from, to);
        }
    }
    let ncons = r.u32()?;
    for _ in 0..ncons {
        let name = r.str()?;
        let is_async = r.u8()? != 0;
        let period = r.u64()?;
        let deadline = r.u64()?;
        let nops = r.u32()?;
        let mut tb = TaskGraphBuilder::new();
        let mut labels = Vec::new();
        for _ in 0..nops {
            let label = r.str()?;
            let e = elem(&ids, r.u32()?)?;
            tb = tb.op(&label, e);
            labels.push(label);
        }
        let nedges = r.u32()?;
        for _ in 0..nedges {
            let u = r.u32()? as usize;
            let v = r.u32()? as usize;
            let lu = labels
                .get(u)
                .ok_or_else(|| malformed("precedence edge op position out of range"))?;
            let lv = labels
                .get(v)
                .ok_or_else(|| malformed("precedence edge op position out of range"))?;
            tb = tb.edge(lu, lv);
        }
        let tg = tb
            .build()
            .map_err(|e| malformed(format!("task graph does not build: {e}")))?;
        if is_async {
            b.asynchronous(&name, tg, period, deadline);
        } else {
            b.periodic(&name, tg, period, deadline);
        }
    }
    let model = b
        .build()
        .map_err(|e| malformed(format!("model does not build: {e}")))?;
    Ok((model, ids))
}

/// `0` = idle, `1 + position` = run that element.
fn encode_actions(
    w: &mut Wr,
    actions: &[Action],
    pos: &HashMap<usize, u32>,
) -> Result<(), SnapshotError> {
    w.u32(actions.len() as u32);
    for a in actions {
        match a {
            Action::Idle => w.u32(0),
            Action::Run(id) => {
                let p = pos
                    .get(&id.index())
                    .copied()
                    .ok_or_else(|| malformed("schedule action references an unknown element"))?;
                w.u32(1 + p);
            }
        }
    }
    Ok(())
}

fn decode_actions(r: &mut Rd<'_>, ids: &[ElementId]) -> Result<Vec<Action>, SnapshotError> {
    let n = r.u32()?;
    let mut actions = Vec::new();
    for _ in 0..n {
        let code = r.u32()?;
        actions.push(if code == 0 {
            Action::Idle
        } else {
            Action::Run(
                ids.get(code as usize - 1)
                    .copied()
                    .ok_or_else(|| malformed("action element position out of range"))?,
            )
        });
    }
    Ok(actions)
}

fn encode_request(w: &mut Wr, req: &AnalysisRequest) {
    w.u8(match req.mode {
        AnalysisMode::Heuristic => 0,
        AnalysisMode::Merged => 1,
        AnalysisMode::Exact => 2,
    });
    w.u64(req.synthesis.max_hyperperiod);
    w.u64(req.synthesis.game_state_budget as u64);
    w.u64(req.search.max_len as u64);
    w.u64(req.search.node_budget);
    w.u64(req.lanes as u64);
}

/// `None` = unknown mode tag from a future producer (entry skipped).
fn decode_request(r: &mut Rd<'_>) -> Result<Option<AnalysisRequest>, SnapshotError> {
    let mode = match r.u8()? {
        0 => Some(AnalysisMode::Heuristic),
        1 => Some(AnalysisMode::Merged),
        2 => Some(AnalysisMode::Exact),
        _ => None,
    };
    let max_hyperperiod = r.u64()?;
    let game_state_budget = r.u64()? as usize;
    let max_len = r.u64()? as usize;
    let node_budget = r.u64()?;
    let lanes = r.u64()? as usize;
    if lanes == 0 {
        return Err(malformed("request with zero lanes"));
    }
    Ok(mode.map(|mode| AnalysisRequest {
        mode,
        synthesis: SynthesisConfig {
            max_hyperperiod,
            game_state_budget,
        },
        search: SearchConfig {
            max_len,
            node_budget,
        },
        threads: 1,
        lanes,
    }))
}

fn encode_report(w: &mut Wr, report: &AnalysisReport) -> Result<(), SnapshotError> {
    encode_model(w, &report.analysis_model)?;
    let (_, pos) = element_positions(&report.analysis_model);
    match &report.verdict {
        Verdict::Feasible { schedule, strategy } => {
            w.u8(0);
            w.str(strategy);
            encode_actions(w, schedule.actions(), &pos)?;
        }
        Verdict::Infeasible { reason } => {
            w.u8(1);
            w.str(reason);
        }
        Verdict::Unknown { reason } => {
            w.u8(2);
            w.str(reason);
        }
        Verdict::FeasibleLanes { schedule, strategy } => {
            w.u8(3);
            w.str(strategy);
            w.u32(schedule.lane_count() as u32);
            for row in schedule.rows() {
                encode_actions(w, row, &pos)?;
            }
        }
    }
    match &report.search {
        Some(s) => {
            w.u8(1);
            w.u64(s.nodes_visited);
            w.u64(s.candidates_checked);
            w.u8(s.exhausted_bound as u8);
        }
        None => w.u8(0),
    }
    w.u64(report.groups_merged as u64);
    Ok(())
}

/// `None` = the entry's strategy is not in [`STRATEGIES`] (skipped).
fn decode_report(r: &mut Rd<'_>) -> Result<Option<AnalysisReport>, SnapshotError> {
    let (analysis_model, ids) = decode_model(r)?;
    let verdict = match r.u8()? {
        0 => {
            let strategy = r.str()?;
            let actions = decode_actions(r, &ids)?;
            intern_strategy(&strategy).map(|strategy| Verdict::Feasible {
                schedule: StaticSchedule::new(actions),
                strategy,
            })
        }
        1 => Some(Verdict::Infeasible { reason: r.str()? }),
        2 => Some(Verdict::Unknown { reason: r.str()? }),
        3 => {
            let strategy = r.str()?;
            let n = r.u32()? as usize;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(decode_actions(r, &ids)?);
            }
            intern_strategy(&strategy).map(|strategy| Verdict::FeasibleLanes {
                schedule: LaneSchedule::new(rows),
                strategy,
            })
        }
        t => return Err(malformed(format!("unknown verdict tag {t}"))),
    };
    let search = match r.u8()? {
        0 => None,
        _ => Some(SearchStats {
            nodes_visited: r.u64()?,
            candidates_checked: r.u64()?,
            exhausted_bound: r.u8()? != 0,
        }),
    };
    let groups_merged = r.u64()? as usize;
    Ok(verdict.map(|verdict| AnalysisReport {
        verdict,
        analysis_model,
        search,
        groups_merged,
        cached: false,
    }))
}

// -------------------------------------------------------------- engine

impl Engine {
    /// Saves the engine's result memo to `path`.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<SaveStats, SnapshotError> {
        let (bytes, stats) = self.snapshot_bytes(&[])?;
        std::fs::write(path, &bytes)?;
        Ok(stats)
    }

    /// Loads `path` and merges it into the live shards.
    pub fn load_snapshot(&self, path: impl AsRef<Path>) -> Result<LoadStats, SnapshotError> {
        let bytes = std::fs::read(path)?;
        self.load_snapshot_bytes(&bytes, &mut [])
    }

    /// In-memory save: encodes every section and returns the bytes.
    /// Sections are ordered deterministically (by fingerprint), so two
    /// saves of identical cache content are byte-identical. `_sessions`
    /// is ignored: sessions hold nothing beyond the shared result memo.
    pub fn snapshot_bytes(
        &self,
        _sessions: &[&Session<'_>],
    ) -> Result<(Vec<u8>, SaveStats), SnapshotError> {
        let t0 = Instant::now();
        let mut stats = SaveStats::default();

        // result sections: group memo entries by subject model, keyed
        // through the registries (entries whose model or request shape
        // was evicted from the registry are unsaveable and dropped)
        type ModelEntries = (Model, Vec<(u64, AnalysisRequest, AnalysisReport)>);
        let requests = unpoison(self.requests.lock()).clone();
        let mut by_model: BTreeMap<u64, ModelEntries> = BTreeMap::new();
        for ix in 0..SHARDS {
            let models = unpoison(self.models[ix].lock()).clone();
            let shard = self.recover_shard(ix, self.results[ix].read());
            for (&(mfp, rfp), report) in shard.iter() {
                let (Some(model), Some(req)) = (models.get(&mfp), requests.get(&rfp)) else {
                    continue;
                };
                by_model
                    .entry(mfp)
                    .or_insert_with(|| (model.clone(), Vec::new()))
                    .1
                    .push((rfp, *req, report.clone()));
            }
        }
        let mut sections: Vec<(u8, Vec<u8>)> = Vec::new();
        for (_, (model, mut entries)) in by_model {
            entries.sort_by_key(|&(rfp, _, _)| rfp);
            let mut w = Wr::default();
            encode_model(&mut w, &model)?;
            w.u64(model.content_digest());
            w.u32(entries.len() as u32);
            for (_, req, report) in &entries {
                encode_request(&mut w, req);
                encode_report(&mut w, report)?;
            }
            stats.result_entries += entries.len() as u64;
            sections.push((SECTION_RESULTS, w.0));
        }

        let mut out = Wr::default();
        out.0.extend_from_slice(&MAGIC);
        out.u32(FORMAT_VERSION);
        out.u32(sections.len() as u32);
        for (kind, payload) in &sections {
            out.u8(*kind);
            out.u32(FP_SCHEMA_VERSION);
            out.u64(payload.len() as u64);
            out.0.extend_from_slice(payload);
        }
        stats.sections = sections.len() as u64;
        stats.bytes = out.0.len() as u64;

        self.snap.saves.fetch_add(1, Ordering::Relaxed);
        self.snap
            .bytes_written
            .fetch_add(stats.bytes, Ordering::Relaxed);
        if rtcg_obs::recorder().is_some() {
            rtcg_obs::histogram!("engine.snapshot.save_us", t0.elapsed().as_micros() as u64);
            rtcg_obs::counter!("engine.snapshot.bytes", stats.bytes);
        }
        Ok((out.0, stats))
    }

    /// In-memory load: decodes `bytes` and merges into the live shards.
    /// Each section is decoded and digest-verified in full before any
    /// shard is touched; on error the engine is left exactly as it was.
    /// `_sessions` is ignored, as in [`Engine::snapshot_bytes`].
    pub fn load_snapshot_bytes(
        &self,
        bytes: &[u8],
        _sessions: &mut [&mut Session<'_>],
    ) -> Result<LoadStats, SnapshotError> {
        let t0 = Instant::now();
        let mut stats = LoadStats {
            bytes: bytes.len() as u64,
            ..LoadStats::default()
        };
        let mut r = Rd::new(bytes, "header");
        if r.take(MAGIC.len())? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let nsections = r.u32()?;
        r.what = "section header";
        for _ in 0..nsections {
            let kind = r.u8()?;
            let schema = r.u32()?;
            let len = r.u64()? as usize;
            let payload = r.take(len)?;
            if schema != FP_SCHEMA_VERSION {
                stats.sections_skipped += 1;
                continue;
            }
            match kind {
                SECTION_RESULTS => self.merge_result_section(payload, &mut stats)?,
                _ => stats.sections_skipped += 1,
            }
        }
        if !r.done() {
            return Err(malformed("trailing bytes after the final section"));
        }

        self.snap.loads.fetch_add(1, Ordering::Relaxed);
        self.snap
            .sections_loaded
            .fetch_add(stats.sections_loaded, Ordering::Relaxed);
        self.snap
            .sections_skipped
            .fetch_add(stats.sections_skipped, Ordering::Relaxed);
        self.snap
            .bytes_read
            .fetch_add(stats.bytes, Ordering::Relaxed);
        if rtcg_obs::recorder().is_some() {
            rtcg_obs::histogram!("engine.snapshot.load_us", t0.elapsed().as_micros() as u64);
            rtcg_obs::counter!("engine.snapshot.bytes", stats.bytes);
            rtcg_obs::counter!("engine.snapshot.sections_loaded", stats.sections_loaded);
            rtcg_obs::counter!("engine.snapshot.sections_skipped", stats.sections_skipped);
        }
        Ok(stats)
    }

    fn merge_result_section(
        &self,
        payload: &[u8],
        stats: &mut LoadStats,
    ) -> Result<(), SnapshotError> {
        let mut r = Rd::new(payload, "result section");
        let (model, _ids) = decode_model(&mut r)?;
        let digest = r.u64()?;
        let n = r.u32()?;
        let mut entries = Vec::new();
        for _ in 0..n {
            let req = decode_request(&mut r)?;
            let report = decode_report(&mut r)?;
            match (req, report) {
                (Some(req), Some(report)) => entries.push((req, report)),
                _ => stats.entries_skipped += 1,
            }
        }
        if !r.done() {
            return Err(malformed("trailing bytes in result section"));
        }
        // recompute, never trust: the digest detects a stale producer,
        // the fingerprints are derived fresh from the decoded content
        if model.validate().is_err() || model.content_digest() != digest {
            stats.sections_skipped += 1;
            return Ok(());
        }
        let mfp = model_fingerprint(&model);
        let ix = shard_of(mfp);
        let mut admitted: Vec<(u64, AnalysisRequest)> = Vec::new();
        {
            let mut shard = self.recover_shard(ix, self.results[ix].write());
            for (req, report) in entries {
                let key = (mfp, request_fingerprint(&req));
                match shard.entry(key) {
                    std::collections::hash_map::Entry::Occupied(_) => stats.results_present += 1,
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(report);
                        stats.results_inserted += 1;
                        self.shard_counters[ix]
                            .inserts
                            .fetch_add(1, Ordering::Relaxed);
                        admitted.push((key.1, req));
                    }
                }
            }
        }
        // registry upkeep outside the shard lock so a later save can
        // re-key what we just merged
        if !admitted.is_empty() {
            let mut requests = unpoison(self.requests.lock());
            for (rfp, req) in admitted {
                requests.entry(rfp).or_insert(req);
            }
        }
        unpoison(self.models[ix].lock()).entry(mfp).or_insert(model);
        stats.sections_loaded += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcg_core::feasibility::SearchConfig;

    fn exact_req() -> AnalysisRequest {
        AnalysisRequest {
            search: SearchConfig {
                max_len: 6,
                node_budget: 2_000_000,
            },
            ..AnalysisRequest::exact()
        }
    }

    #[test]
    fn snapshot_round_trips_results() {
        let (m, _) = rtcg_core::mok_example::default_model();
        let engine = Engine::new();
        let cold = engine.analyze(&m, &exact_req()).unwrap();
        let heur = engine.analyze(&m, &AnalysisRequest::default()).unwrap();
        let (bytes, save) = engine.snapshot_bytes(&[]).unwrap();
        assert_eq!(save.sections, 1, "one result section per subject model");
        assert!(save.result_entries == 2);
        assert_eq!(save.bytes, bytes.len() as u64);

        let warm = Engine::new();
        let load = warm.load_snapshot_bytes(&bytes, &mut []).unwrap();
        assert_eq!(load.sections_loaded, save.sections);
        assert_eq!(load.sections_skipped, 0);
        assert_eq!(load.results_inserted, 2);

        // both replays are result-memo hits with bit-identical verdicts
        let replay = warm.analyze(&m, &exact_req()).unwrap();
        assert!(replay.cached);
        assert_eq!(
            replay.verdict.schedule().map(|s| s.actions().to_vec()),
            cold.verdict.schedule().map(|s| s.actions().to_vec())
        );
        let replay_h = warm.analyze(&m, &AnalysisRequest::default()).unwrap();
        assert!(replay_h.cached);
        assert_eq!(
            replay_h.verdict.schedule().map(|s| s.actions().to_vec()),
            heur.verdict.schedule().map(|s| s.actions().to_vec())
        );
        let stats = warm.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.snapshot.loads, 1);
        assert_eq!(stats.snapshot.bytes_read, bytes.len() as u64);

        // a second save of the merged engine reproduces the bytes
        let (bytes2, _) = warm.snapshot_bytes(&[]).unwrap();
        assert_eq!(bytes, bytes2, "snapshot encoding is deterministic");
    }

    #[test]
    fn bad_magic_and_version_are_structured_errors() {
        let engine = Engine::new();
        let (m, _) = rtcg_core::mok_example::default_model();
        engine.analyze(&m, &AnalysisRequest::default()).unwrap();
        let (mut bytes, _) = engine.snapshot_bytes(&[]).unwrap();

        let mut flipped = bytes.clone();
        flipped[0] ^= 0xff;
        assert!(matches!(
            engine.load_snapshot_bytes(&flipped, &mut []),
            Err(SnapshotError::BadMagic)
        ));

        bytes[8] = 0xee; // low byte of the format version
        match engine.load_snapshot_bytes(&bytes, &mut []) {
            Err(SnapshotError::UnsupportedVersion(v)) => assert_eq!(v & 0xff, 0xee),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn digest_mismatch_skips_the_section() {
        let engine = Engine::new();
        let (m, _) = rtcg_core::mok_example::default_model();
        engine.analyze(&m, &AnalysisRequest::default()).unwrap();
        let (bytes, save) = engine.snapshot_bytes(&[]).unwrap();
        assert_eq!(save.sections, 1);

        // the stored digest is the 8 bytes right after the encoded
        // model; flip the last payload byte groups_merged occupies
        // instead — easier: corrupt the digest by brute force: find the
        // u64 equal to the model's digest and flip it
        let digest = m.content_digest().to_le_bytes();
        let pos = bytes
            .windows(8)
            .position(|w| w == digest)
            .expect("digest bytes present");
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x01;
        let warm = Engine::new();
        let load = warm.load_snapshot_bytes(&corrupt, &mut []).unwrap();
        assert_eq!(load.sections_loaded, 0);
        assert_eq!(load.sections_skipped, 1);
        assert_eq!(load.results_inserted, 0);
        // the warm engine is untouched
        assert!(
            !warm
                .analyze(&m, &AnalysisRequest::default())
                .unwrap()
                .cached
        );
    }

    #[test]
    fn unknown_fingerprint_schema_skips_the_section() {
        let engine = Engine::new();
        let (m, _) = rtcg_core::mok_example::default_model();
        engine.analyze(&m, &AnalysisRequest::default()).unwrap();
        let (mut bytes, _) = engine.snapshot_bytes(&[]).unwrap();
        // first section header starts right after magic+version+count:
        // [kind u8][schema u32]...
        let schema_at = MAGIC.len() + 4 + 4 + 1;
        bytes[schema_at] ^= 0xff;
        let warm = Engine::new();
        let load = warm.load_snapshot_bytes(&bytes, &mut []).unwrap();
        assert_eq!(load.sections_loaded, 0);
        assert_eq!(load.sections_skipped, 1);
    }

    #[test]
    fn empty_engine_snapshot_round_trips() {
        let engine = Engine::new();
        let (bytes, save) = engine.snapshot_bytes(&[]).unwrap();
        assert_eq!(save.sections, 0);
        let load = Engine::new().load_snapshot_bytes(&bytes, &mut []).unwrap();
        assert_eq!(load.sections_loaded, 0);
        assert_eq!(load.sections_skipped, 0);
    }
}
