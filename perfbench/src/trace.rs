//! The benchmark's own span recorder, used by traced runs (`--trace 1`).
//!
//! Every call into a layer that the per-layer metrics time is wrapped in
//! a span from this module: name, start, end, the enclosing span on the
//! same thread and, for serving operations, a request id. Spans stay in
//! memory and are written out as JSONL when the run ends. Untraced runs
//! never enable the recorder, so a span there costs one relaxed load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 at the root).
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id on serving operations.
    pub req: Option<u64>,
    pub thread: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        on: AtomicBool::new(false),
        origin: Instant::now(),
        next_id: AtomicU64::new(1),
        next_thread: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Ids of the spans open on this thread, outermost first, plus this
    /// thread's id (assigned on first use).
    static STACK: RefCell<(u64, Vec<u64>)> = const { RefCell::new((0, Vec::new())) };
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    recorder().on.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    recorder().on.load(Ordering::Relaxed)
}

/// Nanoseconds since the recorder started (the span time base).
pub fn now_ns() -> u64 {
    recorder().origin.elapsed().as_nanos() as u64
}

/// An open span; records itself when dropped.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    open: Option<(u64, u64, u64)>, // (id, parent, start_ns)
    name: &'static str,
    req: Option<u64>,
}

/// Opens a span named `name` under the innermost open span of this thread.
pub fn span(name: &'static str) -> Span {
    span_req(name, None)
}

/// [`span`] carrying a request id.
pub fn span_req(name: &'static str, req: Option<u64>) -> Span {
    if !enabled() {
        return Span {
            open: None,
            name,
            req,
        };
    }
    let rec = recorder();
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.1.last().copied().unwrap_or(0);
        s.1.push(id);
        parent
    });
    Span {
        open: Some((id, parent, now_ns())),
        name,
        req,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, start_ns)) = self.open else {
            return;
        };
        let end_ns = now_ns();
        let rec = recorder();
        let thread = STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.1.iter().rposition(|&x| x == id) {
                s.1.truncate(pos);
            }
            if s.0 == 0 {
                s.0 = rec.next_thread.fetch_add(1, Ordering::Relaxed);
            }
            s.0
        });
        let span = SpanRec {
            id,
            parent,
            name: self.name,
            start_ns,
            end_ns,
            req: self.req,
            thread,
        };
        // Never panic in drop: a poisoned list only loses this span.
        if let Ok(mut list) = rec.spans.lock() {
            list.push(span);
        }
    }
}

/// Times `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _sp = span(name);
    f()
}

/// A copy of every span recorded so far.
pub fn spans() -> Vec<SpanRec> {
    recorder().spans.lock().expect("span list poisoned").clone()
}

/// Durations in milliseconds of every recorded span named `name`.
pub fn durations_ms(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer over the spans that start inside `[from, to)`:
/// each span's duration minus the durations of its direct children.
/// Spans named `bench.*` only frame phases and are left out, so their
/// children count as top-level.
pub fn layer_self_ns(spans: &[SpanRec], from: u64, to: u64) -> BTreeMap<String, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.start_ns >= from && s.start_ns < to)
    {
        if layer_of(s.name) == "bench" {
            continue;
        }
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(layer_of(s.name).to_string()).or_default() += own;
    }
    out
}

/// Writes every span, one JSON object per line, followed by the lines
/// in `extra` (layer summaries, the program's own span edges, host
/// readings).
pub fn write_jsonl(
    path: &std::path::Path,
    spans: &[SpanRec],
    extra: &[String],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let req = s
            .req
            .map(|r| r.to_string())
            .unwrap_or_else(|| "null".into());
        writeln!(
            out,
            "{{\"kind\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{},\"req\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.thread, req
        )?;
    }
    for line in extra {
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            req: None,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            rec(1, 0, "bench.timed", 0, 100),
            rec(2, 1, "trainer.step", 0, 90),
            rec(3, 2, "model.forward", 10, 40),
            rec(4, 2, "model.backward", 40, 80),
        ];
        let layers = layer_self_ns(&spans, 0, 100);
        assert_eq!(layers["trainer"], 20);
        assert_eq!(layers["model"], 70);
        assert!(!layers.contains_key("bench"));
    }
}
