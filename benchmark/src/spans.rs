//! Benchmark-side spans: recorded around calls into the stack's public
//! functions and inside the benchmark's own servants, never inside the
//! program under test. Off unless [`enable`] was called (the traced run).
//!
//! Each thread appends to its own pre-sized vector; [`write_json`] merges
//! them when the run ends. Every operation has one root span whose id is
//! derived from its `op_id` (the sequence number the servant echoes), so a
//! span opened on another thread — inside a servant, or by the later half
//! of a split submit/wait — can name its parent without any lookup.

use crate::stats::now_ns;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// First operation id for spans around one-off set-up calls (`deploy`,
/// `boot_all`, …), clear of every workload's operation numbering.
pub const SETUP_OP: u64 = 1 << 62;

/// Spans kept per thread; later ones are counted as dropped.
const PER_THREAD_CAP: usize = 1 << 16;

#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct ThreadLog {
    spans: Vec<Span>,
    dropped: u64,
}

struct Local {
    log: Arc<Mutex<ThreadLog>>,
    /// High bits of every id this thread hands out.
    id_base: u64,
    next: u64,
    open: Vec<u64>,
}

static ON: AtomicBool = AtomicBool::new(false);
static THREADS: AtomicU64 = AtomicU64::new(1);
static LOGS: Mutex<Vec<Arc<Mutex<ThreadLog>>>> = Mutex::new(Vec::new());

impl Local {
    fn push(&self, span: Span) {
        let mut log = self.log.lock();
        if log.spans.len() < PER_THREAD_CAP {
            log.spans.push(span);
        } else {
            log.dropped += 1;
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let log = Arc::new(Mutex::new(ThreadLog {
                spans: Vec::with_capacity(PER_THREAD_CAP),
                dropped: 0,
            }));
            LOGS.lock().push(Arc::clone(&log));
            Local {
                log,
                id_base: THREADS.fetch_add(1, Ordering::Relaxed) << 40,
                next: 0,
                open: Vec::with_capacity(8),
            }
        });
        f(local)
    })
}

/// An open span; records itself when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    op_id: u64,
    name: &'static str,
    start_ns: u64,
}

/// Id of the root span of operation `op_id`.
fn root_id(op_id: u64) -> u64 {
    (1 << 63) | op_id
}

fn open(name: &'static str, op_id: u64, in_op: bool) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    Some(with_local(|l| {
        let (id, parent) = match (l.open.last(), in_op) {
            (Some(&enclosing), false) => {
                l.next += 1;
                (l.id_base | l.next, enclosing)
            }
            (None, false) => (root_id(op_id), 0),
            (_, true) => {
                l.next += 1;
                (l.id_base | l.next, root_id(op_id))
            }
        };
        l.open.push(id);
        Guard {
            id,
            parent,
            op_id,
            name,
            start_ns: now_ns(),
        }
    }))
}

/// Open a span around the code that follows; `None` when tracing is off.
/// With no span open on this thread it is the root span of `op_id`,
/// otherwise a child of the innermost open one.
#[inline]
pub fn span(name: &'static str, op_id: u64) -> Option<Guard> {
    open(name, op_id, false)
}

/// Open a span whose parent is the root span of `op_id`, wherever that
/// root was (or will be) recorded.
#[inline]
pub fn span_in_op(name: &'static str, op_id: u64) -> Option<Guard> {
    open(name, op_id, true)
}

/// Record the root span of an operation whose two halves ran apart
/// (submit now, wait later), from its measured start and end.
pub fn record_op(name: &'static str, op_id: u64, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    with_local(|l| {
        l.push(Span {
            id: root_id(op_id),
            parent: 0,
            op_id,
            name,
            start_ns,
            end_ns,
        })
    });
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        with_local(|l| {
            l.open.pop();
            l.push(Span {
                id: self.id,
                parent: self.parent,
                op_id: self.op_id,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        });
    }
}

/// Merge every thread's spans and write `{dropped, self_ns_by_name, spans}`
/// to `path`. A span's self time is its duration minus what its child
/// spans cover.
pub fn write_json(path: &std::path::Path, workload: &str) -> std::io::Result<()> {
    let mut spans = Vec::new();
    let mut dropped = 0;
    for log in LOGS.lock().iter() {
        let log = log.lock();
        spans.extend_from_slice(&log.spans);
        dropped += log.dropped;
    }
    spans.sort_by_key(|s| s.start_ns);

    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in &spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    // name -> (count, total ns, self ns)
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
    for s in &spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(s.name).or_default();
        *e = (e.0 + 1, e.1 + dur, e.2 + own);
    }

    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"workload\":\"{workload}\",\"dropped\":{dropped},")?;
    writeln!(w, "\"self_ns_by_name\":{{")?;
    for (i, (name, (count, total, own))) in by_name.iter().enumerate() {
        let comma = if i + 1 < by_name.len() { "," } else { "" };
        writeln!(
            w,
            "\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}{comma}"
        )?;
    }
    writeln!(w, "}},\n\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op_id\":{}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.op_id
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}
