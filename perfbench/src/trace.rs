//! Wall-clock spans recorded from the benchmark's own files.
//!
//! A traced run records one span per measured run, one per transaction and
//! one per timed call into the program (`generate`, `begin`, `execute`,
//! `commit`). Spans of one transaction share its sequence number. A call's
//! future is polled several times, interleaved with every other task of the
//! simulator, so each poll is also kept as a *segment* of its call: the
//! union of a call's segments is its busy wall time, and the rest of its
//! span is time it spent suspended. Everything stays in memory and is
//! written out (as a Chrome/Perfetto trace) after the run.
//!
//! When recording is off, the wrappers poll the call directly.

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::future::{poll_fn, Future};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::pin::pin;
use std::sync::OnceLock;
use std::time::Instant;

use crate::alloc::{self, Layer};
use crate::stats;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One measured run: warm-up, window and drain.
    Run,
    /// One transaction, from its generation to its outcome.
    Txn,
    /// A workload generator call.
    Generate,
    /// `Session::begin`.
    Begin,
    /// `Txn::execute_round`.
    Execute,
    /// `Txn::commit`.
    Commit,
}

impl Kind {
    /// Span name in the trace.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Txn => "txn",
            Kind::Generate => "generate",
            Kind::Begin => "begin",
            Kind::Execute => "execute",
            Kind::Commit => "commit",
        }
    }

    /// The layer that allocations inside the span are charged to.
    pub fn layer(self) -> Layer {
        match self {
            Kind::Run | Kind::Txn => Layer::Simrt,
            Kind::Generate => Layer::Workloads,
            Kind::Begin | Kind::Execute | Kind::Commit => Layer::Middleware,
        }
    }
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the process's first
/// timestamp.
#[derive(Debug, Clone, Copy)]
pub struct WallSpan {
    /// What it covers.
    pub kind: Kind,
    /// Index of the parent span, [`ROOT`] for none.
    pub parent: u32,
    /// The transaction sequence number shared by a transaction's spans.
    pub txn: u64,
    /// The terminal or session that ran it (the trace's thread lane).
    pub lane: u32,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
}

/// One poll of a timed call.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Index of the call's span.
    pub span: u32,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
}

/// Everything one traced run recorded.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans in the order they were opened.
    pub spans: Vec<WallSpan>,
    /// Poll segments of the timed calls, in time order.
    pub segments: Vec<Segment>,
}

struct Recorder {
    on: Cell<bool>,
    trace: RefCell<Trace>,
}

thread_local! {
    static REC: Recorder = Recorder {
        on: Cell::new(false),
        trace: RefCell::new(Trace::default()),
    };
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Wall nanoseconds since the process's first timestamp.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    REC.with(|r| r.on.get())
}

/// Start recording into an empty trace.
pub fn start() {
    now_ns();
    REC.with(|r| {
        *r.trace.borrow_mut() = Trace::default();
        r.on.set(true);
    });
}

/// Stop recording and take the trace.
pub fn stop() -> Trace {
    REC.with(|r| {
        r.on.set(false);
        std::mem::take(&mut *r.trace.borrow_mut())
    })
}

fn bookkeeping<R>(f: impl FnOnce(&mut Trace) -> R) -> R {
    let previous = alloc::enter(Layer::Perfbench);
    let out = REC.with(|r| f(&mut r.trace.borrow_mut()));
    alloc::leave(previous);
    out
}

/// Open a span now; returns its index ([`ROOT`] when not recording).
pub fn open(kind: Kind, parent: u32, txn: u64, lane: u32) -> u32 {
    if !enabled() {
        return ROOT;
    }
    let start = now_ns();
    bookkeeping(|t| {
        t.spans.push(WallSpan {
            kind,
            parent,
            txn,
            lane,
            start,
            end: start,
        });
        (t.spans.len() - 1) as u32
    })
}

/// Close span `index` now.
pub fn close(index: u32) {
    if index == ROOT {
        return;
    }
    let end = now_ns();
    bookkeeping(|t| t.spans[index as usize].end = end);
}

/// Time an asynchronous call into the program: a span from its first poll
/// to its completion, one segment per poll, and allocations inside the
/// polls charged to `kind`'s layer.
pub async fn call<F: Future>(kind: Kind, parent: u32, txn: u64, lane: u32, fut: F) -> F::Output {
    if !enabled() {
        return fut.await;
    }
    let span = open(kind, parent, txn, lane);
    let mut fut = pin!(fut);
    let out = poll_fn(|cx| {
        let start = now_ns();
        let previous = alloc::enter(kind.layer());
        let polled = fut.as_mut().poll(cx);
        alloc::leave(previous);
        let end = now_ns();
        bookkeeping(|t| t.segments.push(Segment { span, start, end }));
        polled
    })
    .await;
    close(span);
    out
}

/// Time a synchronous call into the program (one segment).
pub fn call_sync<R>(kind: Kind, parent: u32, txn: u64, lane: u32, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let span = open(kind, parent, txn, lane);
    let start = now_ns();
    let previous = alloc::enter(kind.layer());
    let out = f();
    alloc::leave(previous);
    let end = now_ns();
    bookkeeping(|t| {
        t.segments.push(Segment { span, start, end });
        t.spans[span as usize].start = start;
        t.spans[span as usize].end = end;
    });
    out
}

/// Busy wall time of every span: the union of its segments.
pub fn busy_ns(trace: &Trace) -> Vec<u64> {
    let mut per_span: Vec<Vec<(u64, u64)>> = vec![Vec::new(); trace.spans.len()];
    for seg in &trace.segments {
        per_span[seg.span as usize].push((seg.start, seg.end));
    }
    per_span
        .iter()
        .map(|segs| stats::union_within(segs, 0, u64::MAX))
        .collect()
}

/// Write `trace` as Chrome trace-event JSON (loadable in Perfetto or
/// `chrome://tracing`): one complete event per span, in microseconds since
/// the first span, on lane = terminal or session. `about` lands in the
/// file's `otherData` as string-valued pairs.
pub fn write_chrome(
    path: &Path,
    trace: &Trace,
    busy: &[u64],
    about: &[(&str, String)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let origin = trace.spans.iter().map(|s| s.start).min().unwrap_or(0);
    let mut out = BufWriter::new(File::create(path)?);
    let about: Vec<String> = about
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{v}\""))
        .collect();
    writeln!(
        out,
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{{}}},\"traceEvents\":[",
        about.join(",")
    )?;
    for (i, span) in trace.spans.iter().enumerate() {
        let sep = if i + 1 == trace.spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"txn\":{},\"parent\":{},\"busy_us\":{:.3}}}}}{sep}",
            span.kind.label(),
            span.kind.layer().label(),
            span.lane,
            (span.start - origin) as f64 / 1e3,
            (span.end - span.start) as f64 / 1e3,
            span.txn,
            if span.parent == ROOT {
                -1
            } else {
                span.parent as i64
            },
            busy[i] as f64 / 1e3,
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_record_spans_and_segments_only_while_recording() {
        let mut rt = geotp::Runtime::new();
        assert_eq!(call_sync(Kind::Generate, ROOT, 1, 0, || 5), 5);
        start();
        let run = open(Kind::Run, ROOT, 0, 0);
        let out = rt.block_on(call(Kind::Begin, run, 7, 3, async {
            geotp::simrt::sleep(std::time::Duration::from_millis(1)).await;
            11
        }));
        assert_eq!(out, 11);
        assert_eq!(call_sync(Kind::Generate, run, 7, 3, || 2), 2);
        close(run);
        let trace = stop();
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[1].kind, Kind::Begin);
        assert_eq!((trace.spans[1].parent, trace.spans[1].txn), (run, 7));
        // The sleep suspends the call once: two polls, two segments.
        assert_eq!(trace.segments.iter().filter(|s| s.span == 1).count(), 2);
        let busy = busy_ns(&trace);
        assert!(busy[1] <= trace.spans[1].end - trace.spans[1].start);
        assert_eq!(busy[0], 0, "the run span has no segments of its own");
        assert!(!enabled());
    }
}
