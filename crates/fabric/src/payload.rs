//! Segmented message payloads.
//!
//! A [`Payload`] is a gather-list of [`Bytes`] segments, mirroring the iovec
//! style of Madeleine's `pack`/`unpack` interface. Passing a `Payload`
//! through the stack hands segments off by reference counting — the
//! zero-copy path used by omniORB-style marshalling. The copies that
//! copying middleware (Mico/ORBacus-style) makes are charged to a virtual
//! clock by its profile; a layer that needs storage of its own calls
//! [`Payload::to_contiguous`] / [`Payload::copy_from`], which really move
//! the bytes, and charges that copy itself.
//!
//! Most payloads are one segment (every fabric kernel copy, every
//! `world_ring` token), so the first segment is held inline: building,
//! cloning or dropping a one-segment payload allocates nothing for the
//! list, which goes on the heap only from the second segment on.

use bytes::{Bytes, BytesMut};
use std::fmt;

/// A message body as a list of byte segments.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Payload {
    segments: Segments,
    len: usize,
}

/// A payload's segments, never empty ones: none, one inline, or a heap
/// list once there are two or more. The form follows from the count, so
/// two payloads with equal segments compare equal.
#[derive(Clone, Default, PartialEq, Eq)]
enum Segments {
    #[default]
    None,
    One(Bytes),
    Many(Vec<Bytes>),
}

impl Segments {
    fn as_slice(&self) -> &[Bytes] {
        match self {
            Segments::None => &[],
            Segments::One(b) => std::slice::from_ref(b),
            Segments::Many(v) => v,
        }
    }

    fn push(&mut self, b: Bytes) {
        *self = match std::mem::take(self) {
            Segments::None => Segments::One(b),
            Segments::One(a) => Segments::Many(vec![a, b]),
            Segments::Many(mut v) => {
                v.push(b);
                Segments::Many(v)
            }
        };
    }
}

impl Payload {
    /// Empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Payload with one segment taken from a `Vec<u8>` (no copy).
    pub fn from_vec(v: Vec<u8>) -> Self {
        Self::from_bytes(Bytes::from(v))
    }

    /// Payload with one segment (no copy).
    pub fn from_bytes(b: Bytes) -> Self {
        let mut p = Payload::new();
        p.push_segment(b);
        p
    }

    /// Payload copied from a slice (one copy, as the caller requests).
    pub fn copy_from(slice: &[u8]) -> Self {
        Self::from_bytes(Bytes::copy_from_slice(slice))
    }

    /// Append a segment by reference (no copy).
    pub fn push_segment(&mut self, b: Bytes) {
        if b.is_empty() {
            return;
        }
        self.len += b.len();
        self.segments.push(b);
    }

    /// Append another payload's segments by reference (no copy).
    ///
    /// Bulk move: `other` already excludes empty segments (the
    /// [`Payload::push_segment`] invariant), so a multi-segment list
    /// transfers in one `Vec::append` and `len` updates once.
    pub fn append(&mut self, other: Payload) {
        match (&mut self.segments, other.segments) {
            (Segments::Many(mine), Segments::Many(mut theirs)) => mine.append(&mut theirs),
            (Segments::None, theirs) => self.segments = theirs,
            (_, Segments::None) => {}
            (_, Segments::One(b)) => self.segments.push(b),
            (Segments::One(mine), Segments::Many(mut theirs)) => {
                theirs.insert(0, std::mem::take(mine));
                self.segments = Segments::Many(theirs);
            }
        }
        self.len += other.len;
    }

    /// The first byte of the payload, if any — a peek that never copies
    /// or flattens. Protocol layers use this for 1-byte kind tags.
    pub fn first_byte(&self) -> Option<u8> {
        self.segs().first().and_then(|s| s.first()).copied()
    }

    /// Total byte length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn segs(&self) -> &[Bytes] {
        self.segments.as_slice()
    }

    /// Number of segments (1 for a freshly built contiguous payload).
    pub fn segment_count(&self) -> usize {
        self.segs().len()
    }

    /// Number of segments — `bytes`-style accessor so callers need not
    /// materialize an iterator just to count.
    pub fn segments_len(&self) -> usize {
        self.segs().len()
    }

    /// Iterate over the segments.
    pub fn segments(&self) -> impl Iterator<Item = &Bytes> {
        self.segs().iter()
    }

    /// A contiguous view. If the payload is already a single segment this
    /// is free (refcount bump); otherwise the segments are **physically
    /// copied** into one buffer — callers on a metered path must charge the
    /// copy to their clock (see [`crate::model::charge_copy`]).
    pub fn to_contiguous(&self) -> Bytes {
        match &self.segments {
            Segments::None => Bytes::new(),
            Segments::One(b) => b.clone(),
            Segments::Many(segs) => {
                let mut buf = BytesMut::with_capacity(self.len);
                for seg in segs {
                    buf.extend_from_slice(seg);
                }
                buf.freeze()
            }
        }
    }

    /// Whether [`Payload::to_contiguous`] would physically copy.
    pub fn needs_copy_for_contiguous(&self) -> bool {
        self.segment_count() > 1
    }

    /// True if the payload is at most one segment — a contiguous view is
    /// free and every byte is addressable through a single `Bytes`.
    pub fn is_contiguous(&self) -> bool {
        self.segment_count() <= 1
    }

    /// Split into the first `at` bytes and the rest, both as payloads
    /// referencing the original storage — no copies. Segments straddling
    /// the cut are sliced (refcount bumps only).
    ///
    /// This is how protocol layers peel fixed headers off a gather list
    /// without flattening the body.
    ///
    /// # Panics
    /// Panics if `at > self.len()`.
    pub fn split_at(&self, at: usize) -> (Payload, Payload) {
        assert!(
            at <= self.len,
            "split_at({at}) beyond payload of {}",
            self.len
        );
        // Segments `..i` end at or before the cut; segment `i`, if any,
        // holds byte `at`, `cut` bytes into it.
        let segs = self.segs();
        let (mut i, mut start) = (0, 0);
        while i < segs.len() && start + segs[i].len() <= at {
            start += segs[i].len();
            i += 1;
        }
        let cut = at - start;
        let head = segs[..i]
            .iter()
            .cloned()
            .chain((cut > 0).then(|| segs[i].slice(..cut)));
        let tail = segs.get(i).map(|seg| match cut {
            0 => seg.clone(),
            _ => seg.slice(cut..),
        });
        let tail = tail.into_iter().chain(segs.iter().skip(i + 1).cloned());
        (
            Payload::of_segments(i + usize::from(cut > 0), at, head),
            Payload::of_segments(segs.len() - i, self.len - at, tail),
        )
    }

    /// A payload of exactly `count` non-empty segments totalling `len`
    /// bytes, its segment list allocated once.
    fn of_segments(count: usize, len: usize, segs: impl Iterator<Item = Bytes>) -> Payload {
        let segments = match count {
            0 => Segments::None,
            1 => segs.map(Segments::One).next().unwrap_or_default(),
            n => {
                let mut list = Vec::with_capacity(n);
                list.extend(segs);
                Segments::Many(list)
            }
        };
        debug_assert_eq!(segments.as_slice().len(), count);
        Payload { segments, len }
    }

    /// Gather-copy every segment into one **pooled** slab (always a
    /// physical copy — the caller wants its own storage, e.g. the fabric's
    /// kernel-copy receive model). The slab returns to the pool when the
    /// last reference to the resulting `Bytes` drops.
    pub fn to_pooled_contiguous(&self) -> Bytes {
        let mut buf = pool::lease(self.len);
        for seg in self.segs() {
            buf.extend_from_slice(seg);
        }
        buf.freeze()
    }

    /// Copy out into a fresh `Vec<u8>` (always a physical copy).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len);
        for seg in self.segs() {
            v.extend_from_slice(seg);
        }
        v
    }

    /// Split the payload into `parts` nearly-equal contiguous chunks (block
    /// distribution helper). Chunks reference the original storage — no
    /// copies. The first `len % parts` chunks are one byte longer.
    pub fn split_blocks(&self, parts: usize) -> Vec<Payload> {
        assert!(parts > 0, "parts must be positive");
        let base = self.len / parts;
        let extra = self.len % parts;
        let mut out = Vec::with_capacity(parts);
        let mut seg_idx = 0usize;
        let mut seg_off = 0usize;
        for i in 0..parts {
            let want = base + usize::from(i < extra);
            let mut chunk = Payload::new();
            let mut remaining = want;
            while remaining > 0 {
                let seg = &self.segs()[seg_idx];
                let avail = seg.len() - seg_off;
                let take = avail.min(remaining);
                chunk.push_segment(seg.slice(seg_off..seg_off + take));
                seg_off += take;
                remaining -= take;
                if seg_off == seg.len() {
                    seg_idx += 1;
                    seg_off = 0;
                }
            }
            out.push(chunk);
        }
        out
    }
}

/// A process-global slab pool for hot-path scratch buffers — an
/// allocator cache, shared by every world in the process like `malloc`.
///
/// Wire layers (frame headers, SYN packets, cipher scratch, CDR copy
/// profiles, kernel-copy receives) used to allocate a fresh `Vec` per
/// message. [`lease`] instead hands out a recycled slab of the next
/// size class up; [`PooledBuf::freeze`] turns it into an immutable
/// [`Bytes`] whose backing `Vec` flows back onto a shelf when the
/// last reference drops — even if a receiver held the segment for a
/// while. Steady-state traffic therefore allocates nothing.
///
/// Size classes are the powers of two from 64 B to 1 MiB
/// ([`CLASS_SIZES`]), so a leased slab is less than twice the bytes asked
/// for, and a class is found by a bit scan, not a search.
///
/// Like `malloc`'s thread caches, each thread first serves itself from a
/// small shelf of its own (classes up to 4 KiB, [`LOCAL_CAP`] slabs
/// each) and only then from the process-wide shelves behind one mutex.
/// A scheduler worker that both sends and receives — every kernel copy
/// of a `world_ring` hop is leased by the sender and returned by the
/// receiver — therefore takes no process-wide lock in steady state.
///
/// Counters live in module-local atomics (not the metrics registry):
/// pool traffic depends on wall-clock thread interleaving, and the
/// registry's renders must stay byte-identical across same-seed chaos
/// runs. [`stats`] exposes them; the observability layer folds them
/// into snapshots as `pool.*`.
pub mod pool {
    use bytes::Bytes;
    use parking_lot::Mutex;
    use std::cell::RefCell;
    use std::ops::{Deref, DerefMut};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// log2 of the smallest class.
    const MIN_SHIFT: u32 = 6;

    /// Slab size classes: every power of two from 64 B to 1 MiB. A lease
    /// rounds up to the next class; larger requests are served exactly
    /// (and shelved by their true capacity on return).
    pub const CLASS_SIZES: [usize; 15] = [
        64,
        128,
        256,
        512,
        1 << 10,
        2 << 10,
        4 << 10,
        8 << 10,
        16 << 10,
        32 << 10,
        64 << 10,
        128 << 10,
        256 << 10,
        512 << 10,
        1 << 20,
    ];

    /// At most this many idle slabs kept per class on the process-wide
    /// shelves; surplus returns are simply freed.
    const PER_CLASS_CAP: usize = 64;

    /// Classes a thread shelves for itself: up to 4 KiB, where the lock
    /// would cost as much as the copy. Larger slabs go straight to the
    /// process-wide shelves.
    const LOCAL_CLASSES: usize = 7;

    /// Idle slabs a thread keeps per class before returns spill to the
    /// process-wide shelves (at most ~254 KiB a thread: 32 × 8 128 B).
    pub const LOCAL_CAP: usize = 32;

    /// Idle slabs, one shelf per size class (lazily sized on first use).
    static SHELVES: Mutex<Vec<Vec<Vec<u8>>>> = Mutex::new(Vec::new());

    thread_local! {
        /// The calling thread's own shelves, one per class below
        /// [`LOCAL_CLASSES`]. Freed with the thread.
        static LOCAL: RefCell<[Vec<Vec<u8>>; LOCAL_CLASSES]> =
            const { RefCell::new([const { Vec::new() }; LOCAL_CLASSES]) };
    }

    static HITS: AtomicU64 = AtomicU64::new(0);
    static MISSES: AtomicU64 = AtomicU64::new(0);
    static RETURNS: AtomicU64 = AtomicU64::new(0);

    /// A point-in-time view of the pool counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct PoolStats {
        /// Leases served from a shelf (no allocation).
        pub hits: u64,
        /// Leases that had to allocate (cold shelf or oversize).
        pub misses: u64,
        /// Slabs handed back (from drop or from a frozen segment's last
        /// reference dropping).
        pub returns: u64,
        /// Slabs currently leased out (including frozen, still-referenced
        /// segments): every lease is a hit or a miss, so this is
        /// `hits + misses - returns`.
        pub outstanding: u64,
    }

    /// Current pool counters.
    pub fn stats() -> PoolStats {
        // Returns first: a slab's lease is counted before its return, so
        // a racing lease-and-return can inflate the gauge for one read
        // but not push it below zero.
        let returns = RETURNS.load(Relaxed);
        let (hits, misses) = (HITS.load(Relaxed), MISSES.load(Relaxed));
        PoolStats {
            hits,
            misses,
            returns,
            outstanding: (hits + misses).saturating_sub(returns),
        }
    }

    #[cfg(test)]
    thread_local! {
        /// The calling thread's share of the counters. Unit tests run on
        /// threads of their own, so they assert on this instead of the
        /// process-wide counters their neighbours move concurrently.
        static THREAD_STATS: std::cell::Cell<PoolStats> =
            std::cell::Cell::new(PoolStats::default());
    }

    /// Bump the calling thread's counters (unit tests only).
    #[inline]
    fn note_thread(_bump: impl FnOnce(&mut PoolStats)) {
        #[cfg(test)]
        THREAD_STATS.with(|cell| {
            let mut stats = cell.get();
            _bump(&mut stats);
            cell.set(stats);
        });
    }

    /// The smallest class that holds `min` bytes, if any does.
    fn class_for_lease(min: usize) -> Option<usize> {
        let bits = min.max(1).checked_next_power_of_two()?.trailing_zeros();
        let class = bits.saturating_sub(MIN_SHIFT) as usize;
        (class < CLASS_SIZES.len()).then_some(class)
    }

    /// The largest class a slab of `capacity` bytes can serve, if any.
    fn class_for_return(capacity: usize) -> Option<usize> {
        let class = capacity.checked_ilog2()?.checked_sub(MIN_SHIFT)?;
        Some((class as usize).min(CLASS_SIZES.len() - 1))
    }

    /// Pop an idle slab of `class`: the thread's own shelf first.
    fn take(class: usize) -> Option<Vec<u8>> {
        if class < LOCAL_CLASSES {
            let local = LOCAL
                .try_with(|shelves| shelves.borrow_mut()[class].pop())
                .ok()
                .flatten();
            if local.is_some() {
                return local;
            }
        }
        SHELVES.lock().get_mut(class).and_then(Vec::pop)
    }

    fn give_back(vec: Vec<u8>) {
        RETURNS.fetch_add(1, Relaxed);
        note_thread(|s| s.returns += 1);
        // Shelve under the largest class the slab can serve.
        let Some(class) = class_for_return(vec.capacity()) else {
            return;
        };
        let mut vec = Some(vec);
        if class < LOCAL_CLASSES {
            // Unavailable only while the thread's locals are torn down.
            let _ = LOCAL.try_with(|shelves| {
                let shelf = &mut shelves.borrow_mut()[class];
                if shelf.len() < LOCAL_CAP {
                    shelf.extend(vec.take());
                }
            });
        }
        let Some(vec) = vec else { return };
        let mut shelves = SHELVES.lock();
        if shelves.is_empty() {
            shelves.resize_with(CLASS_SIZES.len(), Vec::new);
        }
        let shelf = &mut shelves[class];
        if shelf.len() < PER_CLASS_CAP {
            shelf.push(vec);
        }
    }

    /// Lease a cleared slab with capacity for at least `min` bytes.
    pub fn lease(min: usize) -> PooledBuf {
        if let Some(class) = class_for_lease(min) {
            if let Some(mut vec) = take(class) {
                HITS.fetch_add(1, Relaxed);
                note_thread(|s| s.hits += 1);
                vec.clear();
                return PooledBuf { vec, pooled: true };
            }
            MISSES.fetch_add(1, Relaxed);
            note_thread(|s| s.misses += 1);
            return PooledBuf {
                vec: Vec::with_capacity(CLASS_SIZES[class]),
                pooled: true,
            };
        }
        // Oversize: allocate exactly; the return path shelves it by its
        // real capacity, so giants still recycle.
        MISSES.fetch_add(1, Relaxed);
        note_thread(|s| s.misses += 1);
        PooledBuf {
            vec: Vec::with_capacity(min),
            pooled: true,
        }
    }

    /// Copy `data` into a pooled slab frozen as one immutable segment.
    pub fn pooled_copy(data: &[u8]) -> Bytes {
        let mut buf = lease(data.len());
        buf.extend_from_slice(data);
        buf.freeze()
    }

    /// A leased slab. Dereferences to its `Vec<u8>`; hand it back by
    /// dropping it, or [`PooledBuf::freeze`] it into a [`Bytes`] that
    /// returns the slab when its last reference drops.
    #[derive(Debug)]
    pub struct PooledBuf {
        vec: Vec<u8>,
        pooled: bool,
    }

    impl PooledBuf {
        /// Freeze into an immutable segment. The backing slab rejoins the
        /// pool when the last `Bytes` referencing it drops.
        pub fn freeze(mut self) -> Bytes {
            let vec = std::mem::take(&mut self.vec);
            let pooled = self.pooled;
            std::mem::forget(self);
            if pooled {
                Bytes::from_reclaimable(vec, give_back)
            } else {
                Bytes::from(vec)
            }
        }
    }

    impl Default for PooledBuf {
        /// An **unpooled** placeholder (e.g. for `mem::take`): dropping or
        /// freezing it never touches the pool accounting.
        fn default() -> Self {
            PooledBuf {
                vec: Vec::new(),
                pooled: false,
            }
        }
    }

    impl Drop for PooledBuf {
        fn drop(&mut self) {
            if self.pooled {
                give_back(std::mem::take(&mut self.vec));
            }
        }
    }

    impl Deref for PooledBuf {
        type Target = Vec<u8>;
        fn deref(&self) -> &Vec<u8> {
            &self.vec
        }
    }

    impl DerefMut for PooledBuf {
        fn deref_mut(&mut self) -> &mut Vec<u8> {
            &mut self.vec
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// This test thread's counters (see `THREAD_STATS`). Exact
        /// before/after comparisons use these; a monotone "went up"
        /// check can read the process-wide [`stats`].
        fn thread_stats() -> PoolStats {
            let s = THREAD_STATS.with(std::cell::Cell::get);
            let outstanding = (s.hits + s.misses).wrapping_sub(s.returns);
            PoolStats { outstanding, ..s }
        }

        #[test]
        fn lease_rounds_up_and_recycles() {
            let before = stats();
            let buf = lease(100);
            assert!(buf.capacity() >= 128, "100 B rounds up to the 128 class");
            drop(buf);
            // The shelf now holds that slab; the next lease of the same
            // class must hit.
            let buf = lease(120);
            let after = stats();
            assert!(after.hits > before.hits, "second lease served from shelf");
            drop(buf);
        }

        #[test]
        fn class_lookups_match_a_search_of_the_table() {
            let sizes = (0..=22).flat_map(|b: u32| {
                let p = 1usize << b;
                [p - 1, p, p + 1]
            });
            for n in sizes.chain([usize::MAX]) {
                assert_eq!(
                    class_for_lease(n),
                    CLASS_SIZES.iter().position(|&c| c >= n),
                    "lease of {n}"
                );
                assert_eq!(
                    class_for_return(n),
                    CLASS_SIZES.iter().rposition(|&c| c <= n),
                    "return of {n}"
                );
            }
            assert_eq!(CLASS_SIZES[0], 1 << MIN_SHIFT);
            assert!(
                CLASS_SIZES.windows(2).all(|w| w[1] == 2 * w[0]),
                "classes 2x apart"
            );
            assert_eq!(CLASS_SIZES[LOCAL_CLASSES - 1], 4096);
        }

        #[test]
        fn frozen_segment_returns_slab_on_last_drop() {
            let mut buf = lease(64);
            buf.extend_from_slice(b"hdr");
            let before = thread_stats();
            let seg = buf.freeze();
            let copy = seg.clone();
            drop(seg);
            assert_eq!(thread_stats().returns, before.returns, "clone still alive");
            drop(copy);
            let after = thread_stats();
            assert_eq!(after.returns, before.returns + 1);
            assert_eq!(after.outstanding, before.outstanding - 1);
        }

        #[test]
        fn oversize_lease_allocates_exactly_and_still_recycles() {
            let huge = 3 << 20;
            let buf = lease(huge);
            assert!(buf.capacity() >= huge);
            let before = thread_stats();
            drop(buf);
            assert_eq!(thread_stats().returns, before.returns + 1);
        }

        #[test]
        fn default_pooledbuf_is_inert() {
            let before = thread_stats();
            let buf = PooledBuf::default();
            let b = buf.freeze();
            assert!(b.is_empty());
            drop(PooledBuf::default());
            let after = thread_stats();
            assert_eq!(
                before, after,
                "unpooled placeholders never touch accounting"
            );
        }

        #[test]
        fn a_warm_thread_leases_without_the_shared_shelves() {
            // A thread with its own shelf warm leases and returns while
            // another thread holds the process-wide shelves' lock.
            let (ready_tx, ready_rx) = std::sync::mpsc::channel();
            let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                drop(lease(64));
                ready_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                for _ in 0..100 {
                    drop(pooled_copy(b"token"));
                }
                done_tx.send(thread_stats()).unwrap();
            });
            ready_rx.recv().unwrap();
            let held = SHELVES.lock();
            go_tx.send(()).unwrap();
            let done = done_rx.recv_timeout(std::time::Duration::from_secs(10));
            drop(held);
            let stats = done.expect("leases took the process-wide lock");
            assert!(stats.hits >= 100, "every lease after the first hit");
            worker.join().unwrap();
        }

        #[test]
        fn pooled_copy_matches_source() {
            let b = pooled_copy(b"abcdef");
            assert_eq!(&b[..], b"abcdef");
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Payload({} bytes in {} segments)",
            self.len,
            self.segment_count()
        )
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::from_vec(v)
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload::from_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_payload() {
        let p = Payload::new();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.segment_count(), 0);
        assert_eq!(p.to_contiguous().len(), 0);
        assert!(p.to_vec().is_empty());
    }

    #[test]
    fn single_segment_contiguous_is_free() {
        let p = Payload::from_vec(vec![1, 2, 3]);
        assert!(!p.needs_copy_for_contiguous());
        let c = p.to_contiguous();
        assert_eq!(&c[..], &[1, 2, 3]);
    }

    #[test]
    fn multi_segment_roundtrip() {
        let mut p = Payload::new();
        p.push_segment(Bytes::from_static(b"hello "));
        p.push_segment(Bytes::from_static(b"grid "));
        p.push_segment(Bytes::from_static(b"world"));
        assert_eq!(p.len(), 16);
        assert_eq!(p.segment_count(), 3);
        assert!(p.needs_copy_for_contiguous());
        assert_eq!(&p.to_contiguous()[..], b"hello grid world");
        assert_eq!(p.to_vec(), b"hello grid world");
    }

    #[test]
    fn empty_segments_are_dropped() {
        let mut p = Payload::new();
        p.push_segment(Bytes::new());
        p.push_segment(Bytes::from_static(b"x"));
        assert_eq!(p.segment_count(), 1);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn append_concatenates() {
        let mut a = Payload::from_vec(vec![1, 2]);
        a.append(Payload::from_vec(vec![3]));
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
        // Bulk append moves every segment and fixes len in one step.
        let mut b = Payload::new();
        b.push_segment(Bytes::from_static(b"xy"));
        b.push_segment(Bytes::from_static(b"z"));
        a.append(b);
        assert_eq!(a.len(), 6);
        assert_eq!(a.segments_len(), 4);
        assert_eq!(a.to_vec(), vec![1, 2, 3, b'x', b'y', b'z']);
    }

    #[test]
    fn first_byte_peeks_without_flattening() {
        assert_eq!(Payload::new().first_byte(), None);
        let mut p = Payload::new();
        p.push_segment(Bytes::from_static(b"k"));
        p.push_segment(Bytes::from_static(b"body"));
        assert_eq!(p.first_byte(), Some(b'k'));
        assert_eq!(p.segment_count(), 2, "peek must not restructure");
    }

    #[test]
    fn to_pooled_contiguous_copies_and_matches() {
        let mut p = Payload::new();
        p.push_segment(Bytes::from_static(b"ab"));
        p.push_segment(Bytes::from_static(b"cd"));
        let c = p.to_pooled_contiguous();
        assert_eq!(&c[..], b"abcd");
        // Always a physical copy, even for a single segment.
        let single = Payload::from_vec(vec![7u8; 4]);
        let c = single.to_pooled_contiguous();
        assert_ne!(c.as_ptr(), single.segments().next().unwrap().as_ptr());
        assert_eq!(&c[..], &[7u8; 4]);
    }

    #[test]
    fn split_blocks_covers_all_bytes_without_copying() {
        let data: Vec<u8> = (0..=99).collect();
        let p = Payload::from_vec(data.clone());
        let blocks = p.split_blocks(3);
        assert_eq!(blocks.len(), 3);
        // 100 = 34 + 33 + 33
        assert_eq!(blocks[0].len(), 34);
        assert_eq!(blocks[1].len(), 33);
        assert_eq!(blocks[2].len(), 33);
        let mut rejoined = Vec::new();
        for b in &blocks {
            rejoined.extend_from_slice(&b.to_vec());
        }
        assert_eq!(rejoined, data);
    }

    #[test]
    fn split_blocks_across_segment_boundaries() {
        let mut p = Payload::new();
        p.push_segment(Bytes::from((0u8..7).collect::<Vec<u8>>()));
        p.push_segment(Bytes::from((7u8..10).collect::<Vec<u8>>()));
        let blocks = p.split_blocks(4);
        let total: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(total, 10);
        let mut rejoined = Vec::new();
        for b in &blocks {
            rejoined.extend_from_slice(&b.to_vec());
        }
        assert_eq!(rejoined, (0u8..10).collect::<Vec<u8>>());
    }

    #[test]
    fn split_single_part_is_identity() {
        let p = Payload::from_vec(vec![5; 17]);
        let blocks = p.split_blocks(1);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].to_vec(), vec![5; 17]);
    }

    #[test]
    fn split_more_parts_than_bytes_yields_empty_tails() {
        let p = Payload::from_vec(vec![1, 2]);
        let blocks = p.split_blocks(5);
        assert_eq!(blocks.len(), 5);
        assert_eq!(blocks[0].len(), 1);
        assert_eq!(blocks[1].len(), 1);
        assert!(blocks[2..].iter().all(|b| b.is_empty()));
    }

    #[test]
    fn is_contiguous_tracks_segment_count() {
        assert!(Payload::new().is_contiguous());
        assert!(Payload::from_vec(vec![1, 2, 3]).is_contiguous());
        let mut p = Payload::from_vec(vec![1]);
        p.push_segment(Bytes::from_static(b"x"));
        assert!(!p.is_contiguous());
    }

    #[test]
    fn split_at_peels_headers_without_copying() {
        let mut p = Payload::new();
        p.push_segment(Bytes::from_static(b"abcd"));
        p.push_segment(Bytes::from_static(b"efgh"));
        let (head, tail) = p.split_at(6);
        assert_eq!(head.to_vec(), b"abcdef");
        assert_eq!(tail.to_vec(), b"gh");
        // A cut on a segment boundary hands segments through untouched:
        // the tail's segment is pointer-identical to the original.
        let (h2, t2) = p.split_at(4);
        assert_eq!(h2.to_vec(), b"abcd");
        assert_eq!(t2.to_vec(), b"efgh");
        let orig: Vec<_> = p.segments().collect();
        assert_eq!(h2.segments().next().unwrap().as_ptr(), orig[0].as_ptr());
        assert_eq!(t2.segments().next().unwrap().as_ptr(), orig[1].as_ptr());
        // Degenerate cuts.
        let (all, none) = p.split_at(p.len());
        assert_eq!(all.len(), 8);
        assert!(none.is_empty());
        let (none, all) = p.split_at(0);
        assert!(none.is_empty());
        assert_eq!(all.len(), 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Each chunk segment must be a sub-slice of storage owned by the
    /// original payload: same allocation, in-bounds pointer range.
    fn assert_segments_alias(original: &Payload, derived: &Payload) {
        for seg in derived.segments() {
            let start = seg.as_ptr() as usize;
            let end = start + seg.len();
            assert!(
                original.segments().any(|orig| {
                    let o_start = orig.as_ptr() as usize;
                    o_start <= start && end <= o_start + orig.len()
                }),
                "derived segment does not alias the original storage"
            );
        }
    }

    proptest! {
        /// split_blocks never copies: every chunk segment aliases the
        /// original storage and no chunk segment crosses an original
        /// segment boundary.
        #[test]
        fn split_blocks_respects_segment_boundaries(
            seg_lens in proptest::collection::vec(0usize..40, 0..6),
            parts in 1usize..8,
        ) {
            let mut p = Payload::new();
            let mut byte = 0u8;
            for len in &seg_lens {
                let seg: Vec<u8> = (0..*len).map(|_| { byte = byte.wrapping_add(1); byte }).collect();
                p.push_segment(Bytes::from(seg));
            }
            let blocks = p.split_blocks(parts);
            prop_assert_eq!(blocks.len(), parts);
            let total: usize = blocks.iter().map(|b| b.len()).sum();
            prop_assert_eq!(total, p.len());
            let mut rejoined = Vec::new();
            for b in &blocks {
                assert_segments_alias(&p, b);
                rejoined.extend_from_slice(&b.to_vec());
            }
            prop_assert_eq!(rejoined, p.to_vec());
        }

        /// split_at is exact, loss-free, and zero-copy at any cut point.
        #[test]
        fn split_at_rejoins_and_aliases(
            seg_lens in proptest::collection::vec(0usize..40, 0..6),
            cut_pct in 0usize..101,
        ) {
            let mut p = Payload::new();
            for (i, len) in seg_lens.iter().enumerate() {
                p.push_segment(Bytes::from(vec![i as u8; *len]));
            }
            let at = p.len() * cut_pct / 100;
            let (head, tail) = p.split_at(at);
            prop_assert_eq!(head.len(), at);
            prop_assert_eq!(tail.len(), p.len() - at);
            assert_segments_alias(&p, &head);
            assert_segments_alias(&p, &tail);
            let mut rejoined = head.to_vec();
            rejoined.extend_from_slice(&tail.to_vec());
            prop_assert_eq!(rejoined, p.to_vec());
        }
    }
}
