//! Causally-linked spans over virtual time.
//!
//! A [`Span`] records one timed piece of work: a trace id (shared by the
//! whole causal tree), its own deterministic span id, its parent's span
//! id, the node it ran on, a layer tag (`ccm.invoke`, `orb.giop`,
//! `tm.vlink`, `fabric.link`, …) and start/end stamps from the node's
//! [`SimClock`]. Spans from every node of a world land in that world's
//! [`Telemetry`], in per-node buffers merged (and canonically sorted) on
//! snapshot, so one GridCCM parallel invocation yields a single
//! connected tree spanning client ranks, redistribution, the ORB, VLink
//! and the fabric — including retry spans linked to the attempt they
//! replaced via `retry_of`.
//!
//! ## Determinism
//!
//! Span ids are *content-derived* (FNV-1a over trace id, parent id,
//! layer and name), never allocated from a global counter: two same-seed
//! runs produce byte-identical trees as long as sibling spans carry
//! distinct names (callers embed the rank / attempt / round number in the
//! name for exactly this reason).
//!
//! ## Context propagation
//!
//! The current `(trace_id, span_id)` pair lives in a thread-local
//! together with the handle of the world it records into; [`child`]
//! reads both implicitly, [`current`] extracts the pair for shipping
//! across threads or the wire, and [`adopt`] installs a received pair
//! under the receiving world's handle (the ORB does this on the server
//! side of every traced request). Only [`root`] and [`adopt`] name a
//! [`Telemetry`]. Recording is *opt-in by causality*: with no ambient
//! context, [`child`] returns a disabled guard that records and clones
//! nothing, so untraced traffic (warm-ups, MPI, background chatter) stays
//! out of the buffers.

use crate::simtime::{SimClock, Vt, VtDuration};
use crate::telemetry::Telemetry;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Head-based trace sampling policy: decided once per trace at
/// [`root`] time from a hash of the trace id, so the whole causal tree
/// — children, remote dispatches, retries — is kept or skipped as a
/// unit (a skipped root installs no ambient context, so children come
/// up disabled and the wire carries no context to adopt). The hash is a
/// pure function of the trace id, which is itself deterministic, so two
/// same-seed runs sample the identical set of traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TraceSampling {
    /// Record every trace (the default; what every test relies on).
    #[default]
    Always,
    /// Record roughly one trace in `n`, selected by trace-id hash.
    /// `SampleEvery(0)` and `SampleEvery(1)` behave like [`Always`].
    SampleEvery(u32),
}

impl Telemetry {
    /// Install this world's sampling policy (the TM applies
    /// `TmConfig::trace_sampling` here at boot).
    pub fn set_sampling(&self, policy: TraceSampling) {
        let n = match policy {
            TraceSampling::Always => 0,
            TraceSampling::SampleEvery(n) => n,
        };
        self.sample_n.store(n, Ordering::Relaxed);
    }

    /// This world's sampling policy.
    pub fn sampling(&self) -> TraceSampling {
        match self.sample_n.load(Ordering::Relaxed) {
            0 => TraceSampling::Always,
            n => TraceSampling::SampleEvery(n),
        }
    }

    /// Whether a trace with this id is recorded under this world's
    /// policy. Exposed so workloads can pre-compute which of their
    /// deterministic ids will be traced (the world bench keys per-hop
    /// instrumentation off exactly this).
    pub fn trace_sampled(&self, trace_id: u64) -> bool {
        let n = self.sample_n.load(Ordering::Relaxed);
        if n <= 1 {
            return true;
        }
        // FNV-1a over the id bytes: cheap, stable, and decorrelated from
        // sequential id allocation patterns.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in trace_id.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h.is_multiple_of(u64::from(n))
    }
}

/// One completed unit of traced work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Id of the whole causal tree (GridCCM uses the invocation id).
    pub trace_id: u64,
    /// Deterministic id of this span (content-derived, never 0).
    pub span_id: u64,
    /// Parent span id; 0 marks a root.
    pub parent: u64,
    /// Node the span executed on.
    pub node: u32,
    /// Layer tag, e.g. `"orb.giop"` — the unit of critical-path
    /// attribution.
    pub layer: &'static str,
    /// Sibling-unique human label (embeds rank/attempt/round numbers).
    pub name: String,
    /// Virtual start time on `node`'s clock.
    pub start: Vt,
    /// Virtual end time on `node`'s clock.
    pub end: Vt,
    /// Span id of the failed attempt this span replaced; 0 if none.
    pub retry_of: u64,
}

impl Span {
    pub fn duration(&self) -> VtDuration {
        self.end.saturating_sub(self.start)
    }
}

/// The propagated trace context: enough to parent a remote child.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanCtx {
    pub trace_id: u64,
    pub span_id: u64,
}

/// The thread's ambient context: the current span plus the world whose
/// telemetry its children record into.
struct Ambient {
    ctx: SpanCtx,
    telemetry: Arc<Telemetry>,
}

thread_local! {
    static CURRENT: RefCell<Option<Ambient>> = const { RefCell::new(None) };
}

/// Make `next` the thread's ambient context, returning the previous one.
fn swap_ambient(next: Option<Ambient>) -> Option<Ambient> {
    CURRENT.with(|c| c.replace(next))
}

/// The calling thread's current span context, if any. Ship this across
/// thread spawns (then [`adopt`] it) and across the wire (GIOP service
/// context, InvHeader).
pub fn current() -> Option<SpanCtx> {
    CURRENT.with(|c| c.borrow().as_ref().map(|a| a.ctx))
}

/// Install a received context as the thread's current one, recording
/// into `telemetry`; restored on drop. The ORB server side adopts the
/// wire context before dispatching.
pub fn adopt(telemetry: &Arc<Telemetry>, ctx: SpanCtx) -> CtxGuard {
    let prev = swap_ambient(Some(Ambient {
        ctx,
        telemetry: Arc::clone(telemetry),
    }));
    CtxGuard { prev }
}

/// RAII restore of the previous thread-local context.
pub struct CtxGuard {
    prev: Option<Ambient>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        swap_ambient(self.prev.take());
    }
}

/// Deterministic span id: FNV-1a over the causal coordinates. Never 0
/// (0 means "no parent" / "no retry" on the wire).
pub fn derive_span_id(trace_id: u64, parent: u64, layer: &str, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    eat(&trace_id.to_le_bytes());
    eat(&parent.to_le_bytes());
    eat(layer.as_bytes());
    eat(&[0]);
    eat(name.as_bytes());
    if h == 0 {
        1
    } else {
        h
    }
}

struct Open {
    telemetry: Arc<Telemetry>,
    clock: SimClock,
    prev: Option<Ambient>,
    explicit_end: Option<Vt>,
    detached: bool,
    span: Span,
}

/// RAII span: stamps `end` from the clock on drop, records the span into
/// its node's buffer in its world's [`Telemetry`], feeds the per-layer
/// latency histogram, and restores the previous thread-local context. A
/// disabled guard (no ambient context at [`child`] time) does nothing.
pub struct SpanGuard {
    open: Option<Open>,
}

impl SpanGuard {
    /// Open a span under `parent` (`parent.span_id` 0 for a root).
    fn start(
        telemetry: Arc<Telemetry>,
        clock: &SimClock,
        node: u32,
        parent: SpanCtx,
        layer: &'static str,
        name: String,
        retry_of: u64,
    ) -> SpanGuard {
        let SpanCtx {
            trace_id,
            span_id: parent,
        } = parent;
        let span_id = derive_span_id(trace_id, parent, layer, &name);
        let prev = swap_ambient(Some(Ambient {
            ctx: SpanCtx { trace_id, span_id },
            telemetry: Arc::clone(&telemetry),
        }));
        SpanGuard {
            open: Some(Open {
                telemetry,
                clock: clock.share(),
                prev,
                explicit_end: None,
                detached: false,
                span: Span {
                    trace_id,
                    span_id,
                    parent,
                    node,
                    layer,
                    name,
                    start: clock.now(),
                    end: 0,
                    retry_of,
                },
            }),
        }
    }

    /// This span's id (0 for a disabled guard).
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(0, |o| o.span.span_id)
    }

    /// Whether the guard records anything.
    pub fn is_active(&self) -> bool {
        self.open.is_some()
    }

    /// Pin this span's end to a virtual-time stamp computed by the
    /// instrumented operation itself, instead of reading the shared node
    /// clock at drop time. Send paths need this for reproducible traces:
    /// a send's completion time is a pure function of the seed, but the
    /// node clock can be merged forward by a receive thread delivering
    /// the very frame this send put on the wire — whether that merge
    /// lands before or after the drop is a wall-clock race. Clamped to
    /// the span start on drop; no-op on a disabled guard.
    pub fn end_at(&mut self, t: Vt) {
        if let Some(open) = &mut self.open {
            open.explicit_end = Some(t);
        }
    }

    /// Restore the thread's previous context *now* while keeping the span
    /// itself open (it still records on drop). Two-phase callers need
    /// this: an attempt span opened at `submit()` time outlives the
    /// submitting scope and is dropped from `wait()` — possibly after
    /// other guards opened later have already closed — so the LIFO
    /// save/restore discipline of the thread-local stack cannot hold.
    /// Detaching hands the context back immediately; the deferred drop
    /// then only stamps `end` and records.
    pub fn detach(&mut self) {
        if let Some(open) = &mut self.open {
            if !open.detached {
                swap_ambient(open.prev.take());
                open.detached = true;
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut open) = self.open.take() else {
            return;
        };
        if !open.detached {
            swap_ambient(open.prev.take());
        }
        open.span.end = open
            .explicit_end
            .unwrap_or_else(|| open.clock.now())
            .max(open.span.start);
        let telemetry = open.telemetry;
        let latency_name = format!("latency.{}", open.span.layer);
        telemetry.observe(&latency_name, open.span.duration());
        // The same observation windowed over virtual time: the flight
        // recorder's view of where in the run this layer was slow.
        telemetry.record(&latency_name, open.span.end, open.span.duration());
        telemetry.record_span(open.span);
    }
}

/// Open a root span recording into `telemetry`: the start of a new
/// causal tree. The caller supplies the trace id (GridCCM uses its
/// deterministic invocation id). Under a [`TraceSampling::SampleEvery`]
/// policy an unsampled trace id returns a disabled guard: no context is
/// installed, so the entire tree — local children and remote dispatches
/// alike — stays out of the buffers.
pub fn root(
    telemetry: &Arc<Telemetry>,
    clock: &SimClock,
    node: u32,
    trace_id: u64,
    layer: &'static str,
    name: impl Into<String>,
) -> SpanGuard {
    if !telemetry.trace_sampled(trace_id) {
        return SpanGuard { open: None };
    }
    let parent = SpanCtx {
        trace_id,
        span_id: 0,
    };
    SpanGuard::start(
        Arc::clone(telemetry),
        clock,
        node,
        parent,
        layer,
        name.into(),
        0,
    )
}

/// Open a child of the thread's current span; disabled (records nothing)
/// when no context is ambient.
pub fn child(
    clock: &SimClock,
    node: u32,
    layer: &'static str,
    name: impl Into<String>,
) -> SpanGuard {
    child_retry(clock, node, layer, name, 0)
}

/// Like [`child`], additionally linking this span to the failed attempt
/// it replaces (`retry_of` = the previous attempt's span id).
pub fn child_retry(
    clock: &SimClock,
    node: u32,
    layer: &'static str,
    name: impl Into<String>,
    retry_of: u64,
) -> SpanGuard {
    let parent = CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|a| (a.ctx, Arc::clone(&a.telemetry)))
    });
    match parent {
        Some((ctx, telemetry)) => {
            SpanGuard::start(telemetry, clock, node, ctx, layer, name.into(), retry_of)
        }
        None => SpanGuard { open: None },
    }
}

/// Per-node span cap: each node keeps its newest `NODE_CAP` spans in a
/// ring (~0.5 MiB at ~128 B a span), so memory does not grow with world
/// age and the latest traces stay readable. Evictions are counted, not
/// silently ignored.
pub const NODE_CAP: usize = 1 << 12;

/// Span cap across *all* nodes of one world. The per-node cap alone is
/// no bound at world scale — 100k nodes x 4k spans would be licence to
/// eat the heap node by node. Past this cap a node whose ring is not yet
/// full drops its new spans (and counts them); turn on sampling instead
/// of raising it.
const TOTAL_CAP: usize = 1 << 20;

/// The span buffers of one [`Telemetry`].
#[derive(Default)]
pub(crate) struct Buffers {
    per_node: BTreeMap<u32, VecDeque<Span>>,
    total: usize,
    dropped: u64,
}

impl Telemetry {
    fn record_span(&self, span: Span) {
        let mut buffers = self.spans.lock();
        let at_total_cap = buffers.total >= TOTAL_CAP;
        let buf = buffers.per_node.entry(span.node).or_default();
        if buf.len() >= NODE_CAP {
            buf.pop_front();
            buf.push_back(span);
            buffers.dropped += 1;
        } else if at_total_cap {
            buffers.dropped += 1;
        } else {
            buf.push_back(span);
            buffers.total += 1;
        }
    }

    /// Merge every node's buffer into one canonically-ordered list
    /// (sorted by trace id, then start/end stamps, then span id — a total
    /// order independent of which thread recorded first).
    pub fn spans(&self) -> Vec<Span> {
        let mut out: Vec<Span> = self
            .spans
            .lock()
            .per_node
            .values()
            .flat_map(|v| v.iter().cloned())
            .collect();
        out.sort_by(|a, b| {
            (a.trace_id, a.start, a.end, a.span_id).cmp(&(b.trace_id, b.start, b.end, b.span_id))
        });
        out
    }

    /// [`Telemetry::spans`] filtered to one causal tree.
    pub fn trace(&self, trace_id: u64) -> Vec<Span> {
        let mut out = self.spans();
        out.retain(|s| s.trace_id == trace_id);
        out
    }

    /// Spans evicted from a full node ring or dropped to the world-wide
    /// cap.
    pub fn spans_dropped(&self) -> u64 {
        self.spans.lock().dropped
    }

    /// Spans currently retained across every node buffer.
    pub fn spans_retained(&self) -> u64 {
        self.spans.lock().total as u64
    }
}

/// One line per span in canonical order — byte-comparable across
/// same-seed runs (the chaos determinism suite diffs exactly this).
pub fn canonical_dump(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "trace={:016x} span={:016x} parent={:016x} retry_of={:016x} node={} \
             layer={} start={} end={} name={}\n",
            s.trace_id, s.span_id, s.parent, s.retry_of, s.node, s.layer, s.start, s.end, s.name
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Critical-path analysis
// ---------------------------------------------------------------------

/// Where the end-to-end virtual latency of one trace went, by layer.
/// The per-layer self-times sum *exactly* to `total` (the root span's
/// duration): every instant of the root's window is attributed to the
/// deepest span covering it, ties broken deterministically.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CriticalPath {
    pub total: VtDuration,
    /// Layer tag → virtual nanoseconds attributed as that layer's own
    /// work (time not covered by any child span).
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl CriticalPath {
    /// Deterministic text table, widest share first.
    pub fn render(&self) -> String {
        let mut rows: Vec<(&'static str, u64)> =
            self.self_ns.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
        let mut out = format!("critical path: {} ns total\n", self.total);
        for (layer, ns) in rows {
            let pct = if self.total == 0 {
                0.0
            } else {
                ns as f64 * 100.0 / self.total as f64
            };
            out.push_str(&format!("  {layer:<18} {ns:>12} ns  {pct:5.1}%\n"));
        }
        out
    }
}

/// Attribute the root span's duration to layers. Children are clipped to
/// their parent's window and processed in (start, end, id) order; the
/// window not covered by any child is the parent's self-time. Sibling
/// overlap (concurrent fan-out measured on per-node clocks) is resolved
/// by assigning each instant to the earliest-starting sibling, so the
/// invariant `sum(self_ns) == total` always holds.
pub fn critical_path(spans: &[Span], root_span_id: u64) -> Option<CriticalPath> {
    let root = spans.iter().find(|s| s.span_id == root_span_id)?;
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 && s.span_id != root_span_id {
            children.entry(s.parent).or_default().push(s);
        }
    }
    for v in children.values_mut() {
        v.sort_by_key(|a| (a.start, a.end, a.span_id));
    }
    let mut out = CriticalPath {
        total: root.duration(),
        self_ns: BTreeMap::new(),
    };
    attribute(root, root.start, root.end, &children, &mut out.self_ns, 0);
    Some(out)
}

fn attribute(
    span: &Span,
    window_start: Vt,
    window_end: Vt,
    children: &BTreeMap<u64, Vec<&Span>>,
    self_ns: &mut BTreeMap<&'static str, u64>,
    depth: usize,
) {
    // A malformed tree (cycle via id collision) must not recurse forever.
    if depth > 64 {
        *self_ns.entry(span.layer).or_insert(0) += window_end.saturating_sub(window_start);
        return;
    }
    let mut cursor = window_start;
    if let Some(kids) = children.get(&span.span_id) {
        for child in kids {
            let s = child.start.max(cursor).min(window_end);
            let e = child.end.max(s).min(window_end);
            if e > s {
                *self_ns.entry(span.layer).or_insert(0) += s - cursor;
                attribute(child, s, e, children, self_ns, depth + 1);
                cursor = e;
            }
        }
    }
    *self_ns.entry(span.layer).or_insert(0) += window_end.saturating_sub(cursor);
}

// ---------------------------------------------------------------------
// Chrome-trace (Perfetto) export
// ---------------------------------------------------------------------

/// Minimal JSON string escaping shared by every trace exporter.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with nanosecond fraction, as Chrome's `ts`/`dur` expect.
pub fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Build the individual Chrome trace events for a span set, one JSON
/// object per string. Exposed so other exporters (the flight recorder's
/// combined export in `padico-core::observability`) can merge these
/// with their own track sets before wrapping in a `traceEvents` array.
///
/// Spans with a non-zero duration become complete ("X") slices; spans
/// whose start equals their end — breaker transitions are the canonical
/// case — become thread-scoped instant ("i") events, because a
/// zero-width slice is invisible in the Perfetto UI.
pub fn chrome_trace_events(spans: &[Span]) -> Vec<String> {
    // Stable small integer per layer for the tid.
    let mut layers: Vec<&'static str> = spans.iter().map(|s| s.layer).collect();
    layers.sort_unstable();
    layers.dedup();
    let tid_of = |layer: &str| layers.iter().position(|l| *l == layer).unwrap_or(0) + 1;

    let mut events = Vec::new();
    // Name the processes and threads so the viewer shows node/layer names.
    let mut named: Vec<u32> = spans.iter().map(|s| s.node).collect();
    named.sort_unstable();
    named.dedup();
    for node in &named {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{node},\"tid\":0,\
             \"args\":{{\"name\":\"node-{node}\"}}}}"
        ));
    }
    let mut thread_rows: Vec<(u32, &'static str)> =
        spans.iter().map(|s| (s.node, s.layer)).collect();
    thread_rows.sort_unstable();
    thread_rows.dedup();
    for (node, layer) in &thread_rows {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{node},\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            tid_of(layer),
            json_escape(layer)
        ));
    }
    for s in spans {
        let args = format!(
            "\"args\":{{\"trace\":\"{:#x}\",\"span\":\"{:#x}\",\
             \"parent\":\"{:#x}\",\"retry_of\":\"{:#x}\"}}",
            s.trace_id, s.span_id, s.parent, s.retry_of
        );
        if s.duration() == 0 {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                 \"pid\":{},\"tid\":{},{args}}}",
                json_escape(&s.name),
                json_escape(s.layer),
                us(s.start),
                s.node,
                tid_of(s.layer),
            ));
        } else {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},{args}}}",
                json_escape(&s.name),
                json_escape(s.layer),
                us(s.start),
                us(s.duration()),
                s.node,
                tid_of(s.layer),
            ));
        }
    }
    events
}

/// Export spans as Chrome trace-event JSON (load in `chrome://tracing`
/// or <https://ui.perfetto.dev>): one complete ("X") event per span
/// (instant "i" for zero-duration transitions), `pid` = node, `tid` =
/// layer, with span/parent/retry ids in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}\n",
        chrome_trace_events(spans).join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simtime::SimClock;
    use std::collections::BTreeSet;

    fn clock() -> SimClock {
        SimClock::new()
    }

    #[test]
    fn ids_are_deterministic_and_nonzero() {
        let a = derive_span_id(1, 0, "ccm.invoke", "invoke:shift");
        let b = derive_span_id(1, 0, "ccm.invoke", "invoke:shift");
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_ne!(a, derive_span_id(1, 0, "ccm.invoke", "invoke:other"));
        assert_ne!(a, derive_span_id(2, 0, "ccm.invoke", "invoke:shift"));
    }

    #[test]
    fn guards_nest_and_propagate_context() {
        let t = Telemetry::new();
        let c = clock();
        assert!(current().is_none());
        {
            let root = root(&t, &c, 0, 77, "ccm.invoke", "invoke:op");
            assert!(root.is_active());
            c.advance(100);
            let ctx = current().unwrap();
            assert_eq!(ctx.trace_id, 77);
            assert_eq!(ctx.span_id, root.id());
            {
                let kid = child(&c, 0, "orb.giop", "request:op:attempt1");
                assert!(kid.is_active());
                assert_eq!(current().unwrap().span_id, kid.id());
                c.advance(50);
            }
            // Context restored to the root after the child closes.
            assert_eq!(current().unwrap().span_id, root.id());
        }
        assert!(current().is_none());
        let spans = t.trace(77);
        assert_eq!(spans.len(), 2);
        let root_span = spans.iter().find(|s| s.parent == 0).unwrap();
        let kid_span = spans.iter().find(|s| s.parent != 0).unwrap();
        assert_eq!(kid_span.parent, root_span.span_id);
        assert_eq!(root_span.duration(), 150);
        assert_eq!(kid_span.duration(), 50);
    }

    #[test]
    fn child_without_context_is_disabled() {
        let t = Telemetry::new();
        let c = clock();
        let g = child(&c, 0, "fabric.link", "tx");
        assert!(!g.is_active());
        assert_eq!(g.id(), 0);
        drop(g);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn adopt_installs_remote_context() {
        let t = Telemetry::new();
        let c = clock();
        let ctx = SpanCtx {
            trace_id: 9,
            span_id: 1234,
        };
        {
            let _a = adopt(&t, ctx);
            let kid = child(&c, 3, "orb.dispatch", "dispatch:op:req5");
            assert!(kid.is_active());
            drop(kid);
        }
        assert!(current().is_none());
        let spans = t.trace(9);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent, 1234);
        assert_eq!(spans[0].node, 3);
    }

    #[test]
    fn retry_links_to_replaced_attempt() {
        let t = Telemetry::new();
        let c = clock();
        let r = root(&t, &c, 0, 5, "ccm.invoke", "invoke:x");
        let first_id;
        {
            let first = child(&c, 0, "orb.giop", "request:x:attempt1");
            first_id = first.id();
            c.advance(10);
        }
        {
            let _second = child_retry(&c, 0, "orb.giop", "request:x:attempt2", first_id);
            c.advance(10);
        }
        drop(r);
        let spans = t.trace(5);
        let second = spans.iter().find(|s| s.name.ends_with("attempt2")).unwrap();
        assert_eq!(second.retry_of, first_id);
    }

    #[test]
    fn critical_path_sums_to_root_duration() {
        let t = Telemetry::new();
        let c = clock();
        let root_id;
        {
            let r = root(&t, &c, 0, 11, "ccm.invoke", "invoke:op");
            root_id = r.id();
            c.advance(20); // ccm self
            {
                let _o = child(&c, 0, "orb.giop", "request:op:attempt1");
                c.advance(30); // orb self
                {
                    let _f = child(&c, 0, "fabric.link", "tx:myrinet");
                    c.advance(40);
                }
                c.advance(5); // orb self again
            }
            c.advance(5); // ccm tail
        }
        let spans = t.trace(11);
        let cp = critical_path(&spans, root_id).unwrap();
        assert_eq!(cp.total, 100);
        assert_eq!(cp.self_ns.values().sum::<u64>(), cp.total);
        assert_eq!(cp.self_ns["ccm.invoke"], 25);
        assert_eq!(cp.self_ns["orb.giop"], 35);
        assert_eq!(cp.self_ns["fabric.link"], 40);
        let rendered = cp.render();
        assert!(rendered.contains("fabric.link"));
        assert!(rendered.contains("100 ns total"));
    }

    #[test]
    fn critical_path_clips_overlapping_children() {
        // Two concurrent children measured on different node clocks can
        // overlap in virtual time; attribution must still sum exactly.
        let mk = |span_id, parent, layer, start, end| Span {
            trace_id: 1,
            span_id,
            parent,
            node: 0,
            layer,
            name: String::new(),
            start,
            end,
            retry_of: 0,
        };
        let spans = vec![
            mk(10, 0, "ccm.invoke", 0, 100),
            mk(11, 10, "ccm.target", 10, 60),
            mk(12, 10, "ccm.target", 40, 90),
        ];
        let cp = critical_path(&spans, 10).unwrap();
        assert_eq!(cp.total, 100);
        assert_eq!(cp.self_ns.values().sum::<u64>(), 100);
        assert_eq!(cp.self_ns["ccm.target"], 80); // [10,60) + [60,90)
        assert_eq!(cp.self_ns["ccm.invoke"], 20); // [0,10) + [90,100)
    }

    #[test]
    fn canonical_dump_is_order_independent() {
        let t = Telemetry::new();
        let c = clock();
        {
            let _r = root(&t, &c, 2, 42, "ccm.invoke", "invoke:a");
            c.advance(10);
        }
        {
            let _r = root(&t, &c, 1, 41, "ccm.invoke", "invoke:b");
            c.advance(10);
        }
        let dump = canonical_dump(&t.spans());
        // Sorted by trace id, not by recording (or node) order.
        let pos_a = dump.find("invoke:a").unwrap();
        let pos_b = dump.find("invoke:b").unwrap();
        assert!(pos_b < pos_a);
        assert_eq!(dump.lines().count(), 2);
    }

    #[test]
    fn chrome_export_is_balanced_json() {
        let t = Telemetry::new();
        let c = clock();
        {
            let _r = root(&t, &c, 0, 7, "ccm.invoke", "invoke:\"quoted\"");
            c.advance(1_500);
            let _k = child(&c, 0, "orb.giop", "request");
            c.advance(500);
        }
        let json = chrome_trace_json(&t.spans());
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        let braces: i64 = json
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0, "balanced braces");
        let brackets: i64 = json
            .chars()
            .map(|c| match c {
                '[' => 1,
                ']' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(brackets, 0, "balanced brackets");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"ts\":2.000") || json.contains("\"ts\":0.000"));
        assert!(json.contains("thread_name"));
    }

    #[test]
    fn span_latency_feeds_metrics() {
        let t = Telemetry::new();
        let c = clock();
        {
            let _r = root(&t, &c, 0, 3, "tm.vlink", "send:attempt1");
            c.advance(64);
        }
        let snap = t.metrics();
        let h = snap.histogram("latency.tm.vlink").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 64);
        // The windowed twin of the histogram.
        let ts = t.timeseries();
        assert_eq!(ts.series("latency.tm.vlink").unwrap().total_count(), 1);
    }

    #[test]
    fn sampling_drops_whole_trees_deterministically() {
        let t = Telemetry::new();
        let c = clock();
        t.set_sampling(TraceSampling::SampleEvery(4));
        let sampled: Vec<u64> = (0..64).filter(|id| t.trace_sampled(*id)).collect();
        assert!(!sampled.is_empty(), "some ids must pass a 1-in-4 policy");
        assert!(sampled.len() < 64, "some ids must be dropped");
        for id in 0..64u64 {
            let r = root(&t, &c, 0, id, "ccm.invoke", format!("invoke:{id}"));
            assert_eq!(r.is_active(), t.trace_sampled(id));
            // Children follow the root's fate via ambient context.
            let k = child(&c, 0, "orb.giop", format!("request:{id}"));
            assert_eq!(k.is_active(), t.trace_sampled(id));
            c.advance(10);
        }
        let spans = t.spans();
        let mut traced: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
        traced.sort_unstable();
        traced.dedup();
        assert_eq!(traced, sampled);
        // The decision is a pure function of the id: re-evaluating gives
        // the identical set.
        assert_eq!(
            (0..64)
                .filter(|id| t.trace_sampled(*id))
                .collect::<Vec<u64>>(),
            sampled
        );
        t.set_sampling(TraceSampling::Always);
        assert!(t.trace_sampled(sampled.len() as u64 + 1));
    }

    #[test]
    fn sampling_policy_is_per_telemetry() {
        let (a, b) = (Telemetry::new(), Telemetry::new());
        a.set_sampling(TraceSampling::SampleEvery(8));
        assert_eq!(a.sampling(), TraceSampling::SampleEvery(8));
        assert_eq!(b.sampling(), TraceSampling::Always);
        // Children record into the world their root belongs to.
        let c = clock();
        {
            let _r = root(&b, &c, 0, 3, "ccm.invoke", "invoke:b");
            let _k = child(&c, 0, "orb.giop", "request");
        }
        assert_eq!(b.spans().len(), 2);
        assert!(a.spans().is_empty());
    }

    #[test]
    fn node_ring_keeps_the_newest_spans_and_counts_evictions() {
        let t = Telemetry::new();
        let c = clock();
        // Each trace is a root plus one child on the same node, so the
        // ring's cap holds whole traces and `over` evicts whole ones.
        let over = 64;
        let traces = ((NODE_CAP + over) / 2) as u64;
        for id in 1..=traces {
            let _r = root(&t, &c, 1, id, "ccm.invoke", format!("invoke:{id}"));
            c.advance(10);
            let _k = child(&c, 1, "orb.giop", format!("request:{id}"));
            c.advance(10);
        }
        let kept = t.spans();
        assert_eq!(kept.len(), NODE_CAP);
        let first_kept = traces - (NODE_CAP / 2) as u64 + 1;
        assert_eq!(
            kept.iter().map(|s| s.trace_id).collect::<BTreeSet<u64>>(),
            (first_kept..=traces).collect::<BTreeSet<u64>>(),
            "the ring holds exactly the newest traces"
        );
        let last = t.trace(traces);
        assert_eq!(last.len(), 2, "the latest trace is complete");
        let root_span = last.iter().find(|s| s.parent == 0).expect("root kept");
        assert!(last.iter().any(|s| s.parent == root_span.span_id));
        assert_eq!(t.spans_dropped(), over as u64);
        assert_eq!(t.spans_retained(), NODE_CAP as u64);
    }

    #[test]
    fn zero_duration_spans_export_as_instant_events() {
        let t = Telemetry::new();
        let c = clock();
        {
            let _r = root(&t, &c, 0, 5, "tm.breaker", "open:n1");
            // No clock advance: a state transition has no duration.
        }
        {
            let _r = root(&t, &c, 0, 6, "orb.giop", "request");
            c.advance(100);
        }
        let json = chrome_trace_json(&t.spans());
        assert!(
            json.contains("\"ph\":\"i\",\"s\":\"t\""),
            "transitions must render as instant events: {json}"
        );
        assert!(json.contains("\"ph\":\"X\""), "slices still export");
        assert!(!json.contains("\"dur\":0.000"), "no invisible slices");
    }
}
