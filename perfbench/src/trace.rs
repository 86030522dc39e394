//! The benchmark's own span recorder for traced runs.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer's public functions. They stay in memory until the run ends, then
//! [`Tracer::write`] stores them as one JSON document with the self time
//! of every span. A span knows its parent explicitly, so a span opened on
//! a worker thread can hang under one opened on the main thread.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use emgrid_serve::json::Json;

/// One closed span; times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub run: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl SpanRec {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span store shared by every thread of a traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can parent spans of its own.
    pub fn span<T>(
        &self,
        run: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.origin.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("span store poisoned by a panicking span")
            .push(SpanRec {
                id,
                parent,
                run,
                name,
                start,
                end,
            });
        out
    }

    /// Every span of traced iteration `run`.
    pub fn spans_of(&self, run: u64) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking span")
            .iter()
            .filter(|s| s.run == run)
            .cloned()
            .collect()
    }

    /// Writes every span, with its self time, as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking span")
            .clone();
        let rows = spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::n(s.id as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::n(p as f64)),
                    ),
                    ("run".into(), Json::n(s.run as f64)),
                    ("name".into(), Json::s(s.name)),
                    ("start_s".into(), Json::n(s.start)),
                    ("end_s".into(), Json::n(s.end)),
                    ("self_s".into(), Json::n(self_seconds(s, &spans))),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            Json::Obj(vec![("spans".into(), Json::Arr(rows))]).to_string(),
        )
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

fn children<'a>(span: &SpanRec, spans: &'a [SpanRec]) -> impl Iterator<Item = &'a SpanRec> {
    let id = span.id;
    spans.iter().filter(move |c| c.parent == Some(id))
}

/// A span's duration minus the part of it its children cover.
pub fn self_seconds(span: &SpanRec, spans: &[SpanRec]) -> f64 {
    let kids = children(span, spans).map(|c| (c.start, c.end)).collect();
    span.seconds() - covered(kids, span.start, span.end)
}

/// Gaps shorter than this are clock granularity, not uncovered work.
const MIN_GAP: f64 = 1e-6;

/// How much of `root` its direct children cover, as a share, and the
/// uncovered gaps named by the span each gap follows.
pub fn coverage(root: &SpanRec, spans: &[SpanRec]) -> (f64, Vec<(String, f64)>) {
    let mut kids: Vec<&SpanRec> = children(root, spans).collect();
    kids.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut gaps = Vec::new();
    let mut reach = root.start;
    let mut after = "start".to_owned();
    for k in &kids {
        if k.start - reach > MIN_GAP {
            gaps.push((format!("gap after {after}"), k.start - reach));
        }
        if k.end > reach {
            reach = k.end;
            after = k.name.to_owned();
        }
    }
    if root.end - reach > MIN_GAP {
        gaps.push((format!("gap after {after}"), root.end - reach));
    }
    let uncovered: f64 = gaps.iter().map(|g| g.1).sum();
    let share = 1.0 - uncovered / root.seconds().max(f64::MIN_POSITIVE);
    (share, gaps)
}
