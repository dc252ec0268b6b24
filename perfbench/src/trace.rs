//! The benchmark's own spans and per-layer counts.
//!
//! A span records its layer name, start, end, parent and op id. Spans
//! are kept in memory and written out as JSON lines when the run ends.
//! Where the program hides a layer inside another layer's entry point,
//! the traced run re-issues the hidden calls right after the entry call
//! returns and records them as the entry span's children: the entry's
//! self time is its duration minus theirs.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Op id stamped on new spans.
    pub op: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name` under `parent` (0 = root) and
    /// returns its result with the span id.
    pub fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, u32) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = std::hint::black_box(f());
        let end = self.epoch.elapsed().as_nanos() as u64;
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            op: self.op,
            start_ns: start,
            end_ns: end,
        });
        (out, id)
    }

    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// Self time in seconds per span name: duration minus the durations
    /// of the span's children.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns) as f64 - child_ns[s.id as usize] as f64;
            *out.entry(s.name).or_insert(0.0) += own / 1e9;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
