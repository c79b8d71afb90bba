//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (around calls into public functions, and inside the model wrapper),
//! kept in memory, and written out once at exit. A layer's *self time*
//! is its span's duration minus the part of that interval its child
//! spans cover.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// `id` is the span's index + 1; `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub pass: u32,
    pub query: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Spans are recorded only while enabled, so the untraced passes of
    /// a traced run pay one relaxed load per boundary.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A panic while pushing cannot leave the vector torn.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends a span and returns its id (its index + 1).
    fn push(
        &self,
        name: &'static str,
        parent: u64,
        pass: u32,
        query: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let mut spans = self.lock();
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name,
            pass,
            query,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span and returns its id (0 when tracing is off).
    pub fn begin(&self, name: &'static str, parent: u64, pass: u32, query: u32) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let start_ns = self.now_ns();
        self.push(name, parent, pass, query, start_ns, start_ns)
    }

    pub fn end(&self, id: u64) {
        if id == 0 {
            return;
        }
        let end_ns = self.now_ns();
        self.lock()[id as usize - 1].end_ns = end_ns;
    }

    /// Records a span whose interval the caller measured itself (the
    /// model wrapper, which runs on the engine's worker threads).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        pass: u32,
        query: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.enabled() {
            self.push(name, parent, pass, query, start_ns, end_ns);
        }
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span, parallel to `spans`: duration minus the
/// union of its children's intervals (children may overlap each other —
/// model calls run on parallel lanes — and are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != 0 {
            children[span.parent as usize - 1].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total duration and self time per span name, in first-seen order.
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: Vec<(&'static str, usize, u64, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let duration = span.end_ns - span.start_ns;
        match out.iter_mut().find(|(name, ..)| *name == span.name) {
            Some(entry) => {
                entry.1 += 1;
                entry.2 += duration;
                entry.3 += self_ns;
            }
            None => out.push((span.name, 1, duration, self_ns)),
        }
    }
    out
}

/// The trace file: every span, plus the per-name roll-up.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let num = |n: u64| Json::Num(n as f64);
    Json::obj([
        ("workload", Json::Str(workload.into())),
        ("seed", num(seed)),
        (
            "layers",
            Json::Arr(
                totals_by_name(spans)
                    .into_iter()
                    .map(|(name, count, total, self_ns)| {
                        Json::obj([
                            ("name", Json::Str(name.into())),
                            ("spans", num(count as u64)),
                            ("total_ns", num(total)),
                            ("self_ns", num(self_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .zip(selfs)
                    .map(|(s, self_ns)| {
                        Json::obj([
                            ("id", num(s.id)),
                            ("parent", num(s.parent)),
                            ("name", Json::Str(s.name.into())),
                            ("pass", num(s.pass.into())),
                            ("query", num(s.query.into())),
                            ("start_ns", num(s.start_ns)),
                            ("end_ns", num(s.end_ns)),
                            ("self_ns", num(self_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            pass: 0,
            query: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "query", 0, 100),
            span(2, 1, "sql.parse", 0, 10),
            span(3, 1, "core.session.execute", 20, 90),
            // Two model calls overlapping on parallel lanes: 30..60 ∪ 50..80.
            span(4, 3, "llm.simllm.complete", 30, 60),
            span(5, 3, "llm.simllm.complete", 50, 80),
            // A child that outlives its parent is clipped to it.
            span(6, 3, "llm.simllm.complete", 85, 120),
        ];
        assert_eq!(self_times(&spans), [20, 10, 15, 30, 30, 35]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals[2], ("core.session.execute", 1, 70, 15));
        assert_eq!(totals[3], ("llm.simllm.complete", 3, 95, 95));
    }

    #[test]
    fn tracer_records_only_while_enabled() {
        let tracer = Tracer::new();
        assert_eq!(tracer.begin("query", 0, 0, 0), 0);
        tracer.end(0);
        tracer.set_enabled(true);
        let root = tracer.begin("query", 0, 1, 7);
        let child = tracer.begin("sql.parse", root, 1, 7);
        tracer.end(child);
        tracer.record("llm.simllm.complete", root, 1, 7, 5, 9);
        tracer.end(root);
        tracer.set_enabled(false);
        tracer.record("llm.simllm.complete", root, 1, 7, 5, 9);
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[1].parent, spans[1].name, spans[1].query),
            (root, "sql.parse", 7)
        );
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let file = to_json("paper_cold", 42, &spans);
        assert_eq!(Json::parse(&file.render()).unwrap(), file);
        assert_eq!(file.get("spans").unwrap().items().len(), 3);
    }
}
