//! In-memory spans recorded by the benchmark's wrappers around the calls
//! into each layer. Spans nest per thread (a thread-local stack gives
//! each span its parent), are kept in memory while a repetition runs and
//! are written out as Chrome Trace Event JSON when the benchmark ends.
//! A span's self time is its duration minus the time its child spans
//! cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Small per-process thread number (1 = the first thread that
    /// recorded a span).
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// The span store of one traced repetition.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// A span that is open on the current thread.
#[derive(Debug)]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start: Instant,
}

/// Closes its span when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    open: Option<Open>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            self.tracer.close(open);
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        STACK.with(|s| s.borrow_mut().clear());
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            // Reserved up front so recording rarely reallocates inside
            // the measured loop.
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Opens a span on the current thread, child of the innermost open
    /// span there.
    pub fn open(&self, name: &'static str) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        Open {
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open`, which must be the innermost open span of this
    /// thread, and keeps it.
    pub fn close(&self, open: Open) {
        let end = Instant::now();
        self.pop(open.id);
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            tid: TID.with(|t| *t),
            start_ns: self.ns(open.start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Drops `open` without keeping it (a span the run never finished).
    pub fn discard(&self, open: Open) {
        self.pop(open.id);
    }

    fn pop(&self, id: u32) {
        STACK.with(|s| {
            let top = s.borrow_mut().pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        });
    }

    /// A span closed when the returned guard drops.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        Guard {
            tracer: self,
            open: Some(self.open(name)),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The closed spans, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Wraps an optional tracer: `None` records nothing.
pub fn span<'t>(tracer: Option<&'t Tracer>, name: &'static str) -> Option<Guard<'t>> {
    tracer.map(|t| t.span(name))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the durations of its
/// children. Children are opened and closed inside their parent on the
/// same thread, so they never overlap and their sum is the part of the
/// parent they cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += selfs[&s.id];
    }
    out
}

/// The spans as Chrome Trace Event JSON (`"ph":"X"` duration events,
/// microsecond timestamps), each carrying its self time and parent.
pub fn chrome_trace(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":2,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string()),
            selfs[&s.id] as f64 / 1e3,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            tid: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let spans = [
            span(0, None, "round", 0, 100),
            span(1, Some(0), "engine", 10, 50),
            span(2, Some(1), "gradient", 20, 30),
            span(3, Some(0), "eval", 60, 70),
        ];
        let t = totals(&spans);
        assert_eq!(t["round"].self_ns, 100 - 40 - 10);
        assert_eq!(t["engine"].self_ns, 40 - 10);
        assert_eq!(t["gradient"].self_ns, 10);
        assert_eq!(t["eval"].total_ns, 10);
    }

    #[test]
    fn nesting_follows_the_thread_stack() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
        }
        let spans = tracer.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(chrome_trace(&spans).starts_with("{\"displayTimeUnit\""));
    }
}
