//! Tracing for the traced run: the benchmark's own request spans, an
//! allocation-free [`Recorder`] that keeps the spans the program
//! reports, and the tie between the two.
//!
//! The program reports a span as `(kind, duration)` when it ends. The
//! sink stamps the end time and the recording thread, so a server span
//! is tied to the client request whose window contains it, on the
//! worker thread that served that request's connection.

use gradest_obs::{Recorder, Span};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Nanoseconds from `epoch` to now.
pub fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A small per-thread number, assigned on a thread's first span.
fn thread_slot() -> u32 {
    // sync: a plain ticket counter; no data is published through it.
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static SLOT: Cell<u32> = const { Cell::new(u32::MAX) };
    }
    SLOT.with(|slot| {
        if slot.get() == u32::MAX {
            slot.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        slot.get()
    })
}

/// One span the program reported, with its end stamped by the sink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpan {
    /// The program's span kind.
    pub span: Span,
    /// The recording thread.
    pub thread: u32,
    /// End minus duration, ns since the run epoch.
    pub start_ns: u64,
    /// When the span was reported, ns since the run epoch.
    pub end_ns: u64,
}

impl ServerSpan {
    /// Duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A fixed-capacity span store: recording writes one preallocated slot
/// and never allocates. Spans past the capacity are counted as dropped.
#[derive(Debug)]
pub struct SpanSink {
    epoch: Instant,
    // sync: each slot is written by exactly one recorder (the index
    // comes from `next`), and read only after the recording threads
    // have been joined, so Relaxed stores suffice.
    slots: Box<[[AtomicU64; 3]]>,
    // sync: ticket counter handing out slot indices.
    next: AtomicUsize,
}

impl SpanSink {
    /// A sink holding up to `capacity` spans, timed from `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        let slots = (0..capacity).map(|_| Default::default()).collect();
        SpanSink { epoch, slots, next: AtomicUsize::new(0) }
    }

    /// Spans reported so far, in report order. Call only after every
    /// recording thread has been joined.
    pub fn spans(&self) -> Vec<ServerSpan> {
        let n = self.next.load(Ordering::Relaxed).min(self.slots.len());
        self.slots[..n]
            .iter()
            .map(|[meta, end, dur]| {
                let meta = meta.load(Ordering::Relaxed);
                let end_ns = end.load(Ordering::Relaxed);
                ServerSpan {
                    span: Span::ALL[(meta & 0xFF) as usize],
                    thread: (meta >> 8) as u32,
                    start_ns: end_ns.saturating_sub(dur.load(Ordering::Relaxed)),
                    end_ns,
                }
            })
            .collect()
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.next.load(Ordering::Relaxed).saturating_sub(self.slots.len()) as u64
    }
}

impl Recorder for SpanSink {
    fn record_span(&self, span: Span, ns: u64) {
        let end = ns_since(self.epoch);
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if let Some([meta, end_slot, dur]) = self.slots.get(i) {
            let kind = Span::ALL.iter().position(|s| *s == span).unwrap_or(0) as u64;
            meta.store(kind | u64::from(thread_slot()) << 8, Ordering::Relaxed);
            end_slot.store(end, Ordering::Relaxed);
            dur.store(ns, Ordering::Relaxed);
        }
    }
}

/// What a benchmark span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// One app session: connect, tile reads, upload, close.
    Session,
    /// `Client::connect`.
    Connect,
    /// `Client::upload`.
    Upload,
    /// `Client::tile_query`.
    Tile,
    /// `FleetEngine::process_batch_network[_recorded]`.
    Batch,
    /// `CloudAggregator::upload` of one batch trip.
    Fuse,
}

impl Op {
    /// Span name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Op::Session => "bench.session",
            Op::Connect => "bench.connect",
            Op::Upload => "bench.upload",
            Op::Tile => "bench.tile",
            Op::Batch => "bench.batch",
            Op::Fuse => "bench.fuse",
        }
    }
}

/// One span the benchmark recorded around a public call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchSpan {
    /// The call.
    pub op: Op,
    /// Request id, shared with the server spans tied to it.
    pub req: u64,
    /// Parent request id (a session, a batch), 0 for a root.
    pub parent: u64,
    /// Generator thread (caller index).
    pub caller: u32,
    /// Connection of that caller the request went over.
    pub conn: u32,
    /// Start, ns since the run epoch.
    pub start_ns: u64,
    /// End, ns since the run epoch.
    pub end_ns: u64,
    /// Whether the call succeeded and passed its checks.
    pub ok: bool,
    /// Pool trip (upload, fuse) or box (tile) index.
    pub item: u32,
    /// Edges in a tile reply.
    pub edges: u32,
}

impl BenchSpan {
    /// Duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A server frame with its child spans, tied (or not) to a request.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    /// The `service-frame` span.
    pub frame: Option<ServerSpan>,
    /// Spans on the same thread that ended inside the frame.
    pub children: Vec<ServerSpan>,
    /// Index of the tied request in the request list.
    pub req: Option<usize>,
}

impl Frame {
    /// Summed duration of the children of kind `span`, nanoseconds.
    pub fn child_ns(&self, span: Span) -> u64 {
        self.children.iter().filter(|c| c.span == span).map(ServerSpan::dur_ns).sum()
    }

    fn kind(&self) -> Option<Op> {
        if self.children.iter().any(|c| c.span == Span::ServiceDecode) {
            Some(Op::Upload)
        } else if self.children.iter().any(|c| c.span == Span::ServiceTileQuery) {
            Some(Op::Tile)
        } else {
            None
        }
    }
}

/// Groups server spans into frames (a frame owns the spans of its
/// thread that ended inside it) and ties each frame to the request in
/// whose window it starts, on the thread serving that request's
/// connection: for each connection, the thread whose frames start
/// inside the most of its request windows.
pub fn tie(server: &[ServerSpan], reqs: &[BenchSpan]) -> Vec<Frame> {
    let mut by_thread: HashMap<u32, Vec<ServerSpan>> = HashMap::new();
    for s in server {
        by_thread.entry(s.thread).or_default().push(*s);
    }
    let mut frames: Vec<Frame> = Vec::new();
    for spans in by_thread.values_mut() {
        spans.sort_by_key(|s| s.end_ns);
        let mut pending: Vec<ServerSpan> = Vec::new();
        for s in spans.iter() {
            if s.span == Span::ServiceFrame {
                let children = pending.drain(..).filter(|c| c.end_ns >= s.start_ns).collect();
                frames.push(Frame { frame: Some(*s), children, req: None });
            } else {
                pending.push(*s);
            }
        }
    }
    // Candidate (request, frame) pairs: the frame starts inside the
    // request's window and is of its kind. The server stamps a frame's
    // end after writing the reply, so the client may see the reply
    // first; the score is how far the frame's end lies from the reply.
    let mut candidates: Vec<(usize, usize, u64)> = Vec::new();
    let mut order: Vec<usize> = (0..frames.len()).collect();
    order.sort_by_key(|&f| frames[f].frame.map_or(0, |s| s.start_ns));
    let starts: Vec<u64> =
        order.iter().map(|&f| frames[f].frame.map_or(0, |s| s.start_ns)).collect();
    for (ri, r) in reqs.iter().enumerate() {
        if !matches!(r.op, Op::Upload | Op::Tile) {
            continue;
        }
        let lo = starts.partition_point(|&s| s < r.start_ns);
        for &fi in &order[lo..] {
            let Some(f) = frames[fi].frame else { continue };
            if f.start_ns > r.end_ns {
                break;
            }
            if frames[fi].kind() == Some(r.op) {
                candidates.push((ri, fi, f.end_ns.abs_diff(r.end_ns)));
            }
        }
    }
    // Each request votes for the thread of its best-scoring frame; a
    // connection is served by the thread with the most votes.
    let mut best: HashMap<usize, (u64, u32)> = HashMap::new();
    for &(ri, fi, score) in &candidates {
        let thread = frames[fi].frame.map_or(0, |s| s.thread);
        let entry = best.entry(ri).or_insert((score, thread));
        if score < entry.0 {
            *entry = (score, thread);
        }
    }
    let mut votes: HashMap<(u32, u32, u32), usize> = HashMap::new();
    for (&ri, &(_, thread)) in &best {
        *votes.entry((reqs[ri].caller, reqs[ri].conn, thread)).or_default() += 1;
    }
    let mut conn_thread: HashMap<(u32, u32), (u32, usize)> = HashMap::new();
    for (&(caller, conn, thread), &n) in &votes {
        let entry = conn_thread.entry((caller, conn)).or_insert((thread, n));
        if n > entry.1 || (n == entry.1 && thread < entry.0) {
            *entry = (thread, n);
        }
    }
    // Tie each request to its best frame on its connection's thread.
    candidates.sort_by_key(|c| c.2);
    let mut taken = vec![false; reqs.len()];
    for (ri, fi, _) in candidates {
        let r = &reqs[ri];
        let thread = frames[fi].frame.map_or(0, |s| s.thread);
        if conn_thread.get(&(r.caller, r.conn)).map(|t| t.0) == Some(thread)
            && !taken[ri]
            && frames[fi].req.is_none()
        {
            frames[fi].req = Some(ri);
            taken[ri] = true;
        }
    }
    frames
}

/// Writes the spans as JSON lines. A benchmark span carries its request
/// id and its parent's (0 for a root). A server span carries the id of
/// the request it is tied to (0 when untied) and the name of its parent
/// span (empty for a frame, whose parent is the request).
pub fn write_trace(
    path: &std::path::Path,
    reqs: &[BenchSpan],
    frames: &[Frame],
    other: &[ServerSpan],
) {
    let mut out = String::new();
    for r in reqs {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"caller\":{},\"ok\":{}}}",
            r.op.name(),
            r.start_ns,
            r.end_ns,
            r.parent,
            r.req,
            r.caller,
            r.ok
        );
    }
    let mut server_line = |s: &ServerSpan, req: u64, parent: &str| {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent_span\":\"{}\",\"req\":{},\"thread\":{}}}",
            s.span.name(),
            s.start_ns,
            s.end_ns,
            parent,
            req,
            s.thread
        );
    };
    for f in frames {
        let req = f.req.map_or(0, |i| reqs[i].req);
        if let Some(frame) = f.frame {
            server_line(&frame, req, "");
        }
        for c in &f.children {
            let parent = c.span.parent().map_or("service-frame", Span::name);
            server_line(c, req, parent);
        }
    }
    for s in other {
        server_line(s, 0, s.span.parent().map_or("", Span::name));
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(err) = std::fs::write(path, out) {
        eprintln!("warning: cannot write trace {}: {err}", path.display());
    }
}
