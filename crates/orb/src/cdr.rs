//! CDR (Common Data Representation) marshalling.
//!
//! CDR aligns every primitive to its natural size *relative to the start
//! of the encapsulation*. The writer tracks a global offset so alignment
//! stays correct even when large octet sequences are spliced in as
//! zero-copy segments.
//!
//! Two strategies (selected by the ORB profile):
//!
//! * [`MarshalStrategy::Copying`] — everything, including bulk octet
//!   sequences, is copied into one contiguous buffer. This is what Mico
//!   and ORBacus do ("always copy data for marshalling and
//!   unmarshalling", §4.4) and what caps them at 55–63 MB/s in Figure 7.
//! * [`MarshalStrategy::ZeroCopy`] — octet sequences at or above
//!   [`ZERO_COPY_THRESHOLD`] are appended as reference-counted segments;
//!   only the small header parts are serialized. omniORB's approach.
//!
//! This implementation always encodes little-endian and records that in
//! the encapsulation flag; readers reject the big-endian flag (a
//! documented simplification — both ends of this grid are the same
//! library).

use bytes::Bytes;
use padico_fabric::pool::{self, PooledBuf};
use padico_fabric::Payload;

use crate::error::OrbError;
pub use crate::profile::MarshalStrategy;

/// Octet sequences at least this long are spliced zero-copy (omniORB
/// applies the same idea through its `giopStream` buffer management).
pub const ZERO_COPY_THRESHOLD: usize = 1 << 10;

/// CDR encoder.
pub struct CdrWriter {
    strategy: MarshalStrategy,
    /// Completed segments (zero-copy splices and flushed buffers).
    out: Payload,
    /// Current append buffer — a pooled scratch slab, recycled between
    /// messages instead of allocated per message.
    buf: PooledBuf,
    /// Global offset = bytes already in `out` + `buf`.
    offset: usize,
}

impl CdrWriter {
    pub fn new(strategy: MarshalStrategy) -> Self {
        CdrWriter {
            strategy,
            out: Payload::new(),
            buf: pool::lease(256),
            offset: 0,
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.offset
    }

    pub fn is_empty(&self) -> bool {
        self.offset == 0
    }

    fn align(&mut self, to: usize) {
        let pad = (to - (self.offset % to)) % to;
        for _ in 0..pad {
            self.buf.push(0);
        }
        self.offset += pad;
    }

    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        self.offset += bytes.len();
    }

    /// Make room for a bulk copy of `n` bytes. One that does not fit the
    /// scratch slab moves its bytes once into a pooled slab of the right
    /// class, instead of doubling the scratch `Vec` up to size through
    /// unpooled reallocations. The body stays one segment.
    fn reserve(&mut self, n: usize) {
        let need = self.buf.len() + n;
        if need > self.buf.capacity() {
            let mut slab = pool::lease(need);
            slab.extend_from_slice(&self.buf);
            self.buf = slab;
        }
    }

    pub fn write_u8(&mut self, v: u8) {
        self.push(&[v]);
    }

    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    pub fn write_u16(&mut self, v: u16) {
        self.align(2);
        self.push(&v.to_le_bytes());
    }

    pub fn write_u32(&mut self, v: u32) {
        self.align(4);
        self.push(&v.to_le_bytes());
    }

    pub fn write_i32(&mut self, v: i32) {
        self.align(4);
        self.push(&v.to_le_bytes());
    }

    pub fn write_u64(&mut self, v: u64) {
        self.align(8);
        self.push(&v.to_le_bytes());
    }

    pub fn write_i64(&mut self, v: i64) {
        self.align(8);
        self.push(&v.to_le_bytes());
    }

    pub fn write_f32(&mut self, v: f32) {
        self.align(4);
        self.push(&v.to_le_bytes());
    }

    pub fn write_f64(&mut self, v: f64) {
        self.align(8);
        self.push(&v.to_le_bytes());
    }

    /// CORBA string: u32 length including NUL, bytes, NUL.
    pub fn write_string(&mut self, s: &str) {
        self.write_u32(s.len() as u32 + 1);
        self.push(s.as_bytes());
        self.push(&[0]);
    }

    /// Append `data` as a segment of its own, by reference: flush the
    /// scratch buffer first, so segment order stays wire order.
    fn splice(&mut self, data: Bytes) {
        if !self.buf.is_empty() {
            let flushed = std::mem::replace(&mut self.buf, pool::lease(256));
            self.out.push_segment(flushed.freeze());
        }
        self.offset += data.len();
        self.out.push_segment(data);
    }

    /// `sequence<octet>`: u32 length then raw bytes. Bulk payloads take
    /// the strategy's fast path: [`MarshalStrategy::Copying`] copies them
    /// into one pooled segment, [`MarshalStrategy::ZeroCopy`] splices
    /// them as [`CdrWriter::splice_octet_seq`] does.
    pub fn write_octet_seq(&mut self, data: Bytes) {
        match self.strategy {
            MarshalStrategy::ZeroCopy => self.splice_octet_seq(data),
            MarshalStrategy::Copying => self.write_octet_slice(&data),
        }
    }

    /// `sequence<octet>` handed off by reference under either strategy: a
    /// sequence of at least [`ZERO_COPY_THRESHOLD`] bytes rides as a
    /// segment of its own, a shorter one is copied in. For callers whose
    /// profile's marshal copy is already charged in virtual time by body
    /// length (`OrbProfile::charge_client_scaled`), so that making it
    /// too would model nothing: GridCCM's redistributed runs.
    pub fn splice_octet_seq(&mut self, data: Bytes) {
        if data.len() < ZERO_COPY_THRESHOLD {
            return self.write_octet_slice(&data);
        }
        self.write_u32(data.len() as u32);
        self.splice(data);
    }

    /// `sequence<octet>` assembled from multiple parts under one length
    /// prefix: u32 `total_len`, then each part in order. Strided
    /// redistribution runs marshal this way — the source's pieces are
    /// not contiguous in its local block, but the wire sequence is one
    /// logical octet sequence. Each part takes the strategy's fast path
    /// independently, so bulk pieces still splice zero-copy.
    pub fn write_octet_gather<I>(&mut self, total_len: usize, parts: I)
    where
        I: IntoIterator<Item = Bytes>,
    {
        self.write_u32(total_len as u32);
        if self.strategy == MarshalStrategy::Copying {
            self.reserve(total_len);
        }
        let mut written = 0usize;
        for part in parts {
            written += part.len();
            match self.strategy {
                MarshalStrategy::ZeroCopy if part.len() >= ZERO_COPY_THRESHOLD => self.splice(part),
                _ => self.push(&part),
            }
        }
        debug_assert_eq!(
            written, total_len,
            "gather parts must sum to the declared length"
        );
    }

    /// `sequence<octet>` from a borrowed slice (always copies once).
    pub fn write_octet_slice(&mut self, data: &[u8]) {
        self.write_u32(data.len() as u32);
        self.reserve(data.len());
        self.push(data);
    }

    /// `sequence<long>` (i32 elements).
    pub fn write_i32_seq(&mut self, data: &[i32]) {
        self.write_u32(data.len() as u32);
        self.align(4);
        for v in data {
            self.push(&v.to_le_bytes());
        }
    }

    /// `sequence<double>`.
    pub fn write_f64_seq(&mut self, data: &[f64]) {
        self.write_u32(data.len() as u32);
        if !data.is_empty() {
            self.align(8);
            for v in data {
                self.push(&v.to_le_bytes());
            }
        }
    }

    /// Finish and return the encoded payload.
    pub fn finish(mut self) -> Payload {
        if !self.buf.is_empty() {
            // `take` leaves an inert unpooled placeholder, so no lease is
            // wasted on a writer that is done.
            let flushed = std::mem::take(&mut self.buf);
            self.out.push_segment(flushed.freeze());
        }
        self.out
    }
}

/// CDR decoder over a gather list.
///
/// The reader walks the payload's segments in place — building one never
/// flattens the iovec. A bulk read that happens to sit inside a single
/// segment (the common case for spliced octet sequences) comes back as a
/// zero-copy slice; only reads that straddle a segment boundary gather.
pub struct CdrReader {
    segs: Vec<Bytes>,
    /// Index of the current segment.
    seg: usize,
    /// Offset within the current segment.
    off: usize,
    /// Global decode position (alignment is relative to message start).
    pos: usize,
    /// Total bytes across all segments.
    len: usize,
}

impl CdrReader {
    /// Build a reader over a payload without copying it: each segment is
    /// a reference-counted handle onto the sender's storage.
    pub fn new(payload: &Payload) -> Self {
        let segs: Vec<Bytes> = payload.segments().cloned().collect();
        let len = payload.len();
        CdrReader {
            segs,
            seg: 0,
            off: 0,
            pos: 0,
            len,
        }
    }

    pub fn from_bytes(data: Bytes) -> Self {
        let len = data.len();
        CdrReader {
            segs: vec![data],
            seg: 0,
            off: 0,
            pos: 0,
            len,
        }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.len - self.pos.min(self.len)
    }

    /// Skip to the next non-exhausted segment.
    fn normalize(&mut self) {
        while self.seg < self.segs.len() && self.off == self.segs[self.seg].len() {
            self.seg += 1;
            self.off = 0;
        }
    }

    /// Advance the cursor by `n` bytes; the global position may run past
    /// the end (the next bounded read reports the short read).
    fn skip(&mut self, n: usize) {
        self.pos += n;
        let mut left = n;
        while left > 0 && self.seg < self.segs.len() {
            let avail = self.segs[self.seg].len() - self.off;
            let take = avail.min(left);
            self.off += take;
            left -= take;
            if self.off == self.segs[self.seg].len() {
                self.seg += 1;
                self.off = 0;
            }
        }
    }

    fn align(&mut self, to: usize) {
        let pad = (to - (self.pos % to)) % to;
        self.skip(pad);
    }

    fn short_read(&self, n: usize) -> OrbError {
        OrbError::Marshal(format!(
            "short read: need {n} bytes at offset {}, have {}",
            self.pos,
            self.remaining()
        ))
    }

    /// Copy exactly `out.len()` bytes into `out`, crossing segment
    /// boundaries as needed (scalars are tiny; the copy is the decode).
    fn take_into(&mut self, out: &mut [u8]) -> Result<(), OrbError> {
        let n = out.len();
        if self.pos + n > self.len {
            return Err(self.short_read(n));
        }
        let mut done = 0;
        while done < n {
            self.normalize();
            let seg = &self.segs[self.seg];
            let take = (seg.len() - self.off).min(n - done);
            out[done..done + take].copy_from_slice(&seg[self.off..self.off + take]);
            self.off += take;
            self.pos += take;
            done += take;
        }
        Ok(())
    }

    /// Read `n` raw bytes. Zero-copy (a refcounted slice) when the run
    /// lies within one segment; gathers otherwise.
    pub fn read_bytes(&mut self, n: usize) -> Result<Bytes, OrbError> {
        if self.pos + n > self.len {
            return Err(self.short_read(n));
        }
        if n == 0 {
            return Ok(Bytes::new());
        }
        self.normalize();
        let seg = &self.segs[self.seg];
        if self.off + n <= seg.len() {
            let s = seg.slice(self.off..self.off + n);
            self.off += n;
            self.pos += n;
            return Ok(s);
        }
        let mut out = Vec::with_capacity(n);
        let mut left = n;
        while left > 0 {
            self.normalize();
            let seg = &self.segs[self.seg];
            let take = (seg.len() - self.off).min(left);
            out.extend_from_slice(&seg[self.off..self.off + take]);
            self.off += take;
            self.pos += take;
            left -= take;
        }
        Ok(Bytes::from(out))
    }

    pub fn read_u8(&mut self) -> Result<u8, OrbError> {
        let mut b = [0u8; 1];
        self.take_into(&mut b)?;
        Ok(b[0])
    }

    pub fn read_bool(&mut self) -> Result<bool, OrbError> {
        Ok(self.read_u8()? != 0)
    }

    pub fn read_u16(&mut self) -> Result<u16, OrbError> {
        self.align(2);
        let mut b = [0u8; 2];
        self.take_into(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    pub fn read_u32(&mut self) -> Result<u32, OrbError> {
        self.align(4);
        let mut b = [0u8; 4];
        self.take_into(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    pub fn read_i32(&mut self) -> Result<i32, OrbError> {
        self.align(4);
        let mut b = [0u8; 4];
        self.take_into(&mut b)?;
        Ok(i32::from_le_bytes(b))
    }

    pub fn read_u64(&mut self) -> Result<u64, OrbError> {
        self.align(8);
        let mut b = [0u8; 8];
        self.take_into(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    pub fn read_i64(&mut self) -> Result<i64, OrbError> {
        self.align(8);
        let mut b = [0u8; 8];
        self.take_into(&mut b)?;
        Ok(i64::from_le_bytes(b))
    }

    pub fn read_f32(&mut self) -> Result<f32, OrbError> {
        self.align(4);
        let mut b = [0u8; 4];
        self.take_into(&mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    pub fn read_f64(&mut self) -> Result<f64, OrbError> {
        self.align(8);
        let mut b = [0u8; 8];
        self.take_into(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }

    pub fn read_string(&mut self) -> Result<String, OrbError> {
        let len = self.read_u32()? as usize;
        if len == 0 {
            return Err(OrbError::Marshal("string with zero length".into()));
        }
        let bytes = self.read_bytes(len)?;
        let (content, nul) = bytes.split_at(len - 1);
        if nul != [0] {
            return Err(OrbError::Marshal("string not NUL-terminated".into()));
        }
        String::from_utf8(content.to_vec())
            .map_err(|_| OrbError::Marshal("string is not UTF-8".into()))
    }

    /// `sequence<octet>` without copying: slices the underlying segment.
    pub fn read_octet_seq(&mut self) -> Result<Bytes, OrbError> {
        let len = self.read_u32()? as usize;
        if self.pos + len > self.len {
            return Err(OrbError::Marshal(format!(
                "octet sequence of {len} bytes overruns buffer"
            )));
        }
        self.read_bytes(len)
    }

    pub fn read_i32_seq(&mut self) -> Result<Vec<i32>, OrbError> {
        let len = self.read_u32()? as usize;
        if len != 0 {
            self.align(4);
        }
        let bytes = self.read_bytes(len * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    pub fn read_f64_seq(&mut self) -> Result<Vec<f64>, OrbError> {
        let len = self.read_u32()? as usize;
        if len != 0 {
            self.align(8);
        }
        let bytes = self.read_bytes(len * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(strategy: MarshalStrategy) {
        let mut w = CdrWriter::new(strategy);
        w.write_u8(7);
        w.write_u32(0xdead_beef); // forces 3 bytes of padding
        w.write_string("density");
        w.write_f64(-2.5);
        w.write_bool(true);
        w.write_u64(u64::MAX - 1);
        w.write_i32_seq(&[1, -2, 3]);
        let payload = w.finish();

        let mut r = CdrReader::new(&payload);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.read_string().unwrap(), "density");
        assert_eq!(r.read_f64().unwrap(), -2.5);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.read_i32_seq().unwrap(), vec![1, -2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_copying() {
        roundtrip(MarshalStrategy::Copying);
    }

    #[test]
    fn roundtrip_zero_copy() {
        roundtrip(MarshalStrategy::ZeroCopy);
    }

    #[test]
    fn alignment_is_relative_to_message_start() {
        let mut w = CdrWriter::new(MarshalStrategy::Copying);
        w.write_u8(1); // offset 1
        w.write_u32(2); // pads to 4
        assert_eq!(w.len(), 8);
        w.write_u8(3); // offset 9
        w.write_f64(4.0); // pads to 16
        assert_eq!(w.len(), 24);
    }

    #[test]
    fn octet_gather_reads_back_as_one_sequence() {
        for strategy in [MarshalStrategy::Copying, MarshalStrategy::ZeroCopy] {
            let parts = [
                Bytes::from(vec![1u8; 16]),
                Bytes::from(vec![2u8; ZERO_COPY_THRESHOLD]),
                Bytes::from(vec![3u8; 8]),
            ];
            let total: usize = parts.iter().map(Bytes::len).sum();
            let mut w = CdrWriter::new(strategy);
            w.write_u8(42);
            w.write_octet_gather(total, parts.iter().cloned());
            w.write_u32(7);
            let payload = w.finish();

            let mut r = CdrReader::new(&payload);
            assert_eq!(r.read_u8().unwrap(), 42);
            let seq = r.read_octet_seq().unwrap();
            assert_eq!(seq.len(), total);
            assert_eq!(&seq[..16], &[1u8; 16]);
            assert_eq!(
                &seq[16..16 + ZERO_COPY_THRESHOLD],
                vec![2u8; ZERO_COPY_THRESHOLD]
            );
            assert_eq!(&seq[16 + ZERO_COPY_THRESHOLD..], &[3u8; 8]);
            assert_eq!(r.read_u32().unwrap(), 7);
            if strategy == MarshalStrategy::ZeroCopy {
                assert!(
                    payload.segment_count() >= 3,
                    "bulk middle part must splice: {} segments",
                    payload.segment_count()
                );
            }
        }
    }

    #[test]
    fn zero_copy_splices_large_octet_sequences() {
        let big = Bytes::from(vec![9u8; ZERO_COPY_THRESHOLD]);
        let mut w = CdrWriter::new(MarshalStrategy::ZeroCopy);
        w.write_u32(1);
        w.write_octet_seq(big.clone());
        w.write_u32(2);
        let payload = w.finish();
        assert!(
            payload.segment_count() >= 3,
            "header, spliced body, trailer: got {}",
            payload.segment_count()
        );
        let mut r = CdrReader::new(&payload);
        assert_eq!(r.read_u32().unwrap(), 1);
        assert_eq!(r.read_octet_seq().unwrap(), big);
        assert_eq!(r.read_u32().unwrap(), 2);
    }

    #[test]
    fn copying_strategy_never_splices() {
        let big = Bytes::from(vec![9u8; 1 << 16]);
        let mut w = CdrWriter::new(MarshalStrategy::Copying);
        w.write_octet_seq(big);
        let payload = w.finish();
        assert_eq!(payload.segment_count(), 1);
    }

    #[test]
    fn splice_octet_seq_aliases_under_both_strategies() {
        let big = Bytes::from(vec![4u8; ZERO_COPY_THRESHOLD]);
        for strategy in [MarshalStrategy::Copying, MarshalStrategy::ZeroCopy] {
            let mut w = CdrWriter::new(strategy);
            w.write_u8(1);
            w.splice_octet_seq(big.clone());
            w.splice_octet_seq(Bytes::from_static(b"tiny"));
            let payload = w.finish();
            assert_eq!(payload.segment_count(), 3, "{strategy:?}: head, bulk, tail");
            let mut r = CdrReader::new(&payload);
            assert_eq!(r.read_u8().unwrap(), 1);
            let seq = r.read_octet_seq().unwrap();
            assert_eq!(seq.as_ptr(), big.as_ptr(), "{strategy:?}: by reference");
            assert_eq!(r.read_octet_seq().unwrap(), Bytes::from_static(b"tiny"));
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn small_octet_seq_is_inlined_even_zero_copy() {
        let small = Bytes::from_static(b"tiny");
        let mut w = CdrWriter::new(MarshalStrategy::ZeroCopy);
        w.write_octet_seq(small.clone());
        let payload = w.finish();
        assert_eq!(payload.segment_count(), 1);
        let mut r = CdrReader::new(&payload);
        assert_eq!(r.read_octet_seq().unwrap(), small);
    }

    #[test]
    fn alignment_continues_after_splice() {
        // After a spliced odd-length sequence the global offset is odd;
        // the next u32 must pad relative to the message start.
        let odd = Bytes::from(vec![1u8; ZERO_COPY_THRESHOLD + 3]);
        let mut w = CdrWriter::new(MarshalStrategy::ZeroCopy);
        w.write_octet_seq(odd.clone());
        w.write_u32(0xffff_0000);
        let payload = w.finish();
        let mut r = CdrReader::new(&payload);
        assert_eq!(r.read_octet_seq().unwrap(), odd);
        assert_eq!(r.read_u32().unwrap(), 0xffff_0000);
    }

    #[test]
    fn short_reads_are_marshal_errors() {
        let mut w = CdrWriter::new(MarshalStrategy::Copying);
        w.write_u32(100); // claims a 100-element sequence
        let payload = w.finish();
        let mut r = CdrReader::new(&payload);
        assert!(matches!(r.read_octet_seq(), Err(OrbError::Marshal(_))));

        let mut r2 = CdrReader::from_bytes(Bytes::from_static(&[1, 2]));
        assert!(matches!(r2.read_u64(), Err(OrbError::Marshal(_))));
    }

    #[test]
    fn string_validation() {
        // Missing NUL terminator.
        let mut bad = CdrWriter::new(MarshalStrategy::Copying);
        bad.write_u32(3);
        bad.write_u8(b'h');
        bad.write_u8(b'i');
        bad.write_u8(b'!');
        let mut r = CdrReader::new(&bad.finish());
        assert!(matches!(r.read_string(), Err(OrbError::Marshal(_))));
    }

    #[test]
    fn f64_seq_roundtrip_with_offset() {
        let mut w = CdrWriter::new(MarshalStrategy::Copying);
        w.write_u8(1); // knock alignment off
        w.write_f64_seq(&[1.0, -2.0, 3.5]);
        w.write_f64_seq(&[]);
        let mut r = CdrReader::new(&w.finish());
        assert_eq!(r.read_u8().unwrap(), 1);
        assert_eq!(r.read_f64_seq().unwrap(), vec![1.0, -2.0, 3.5]);
        assert_eq!(r.read_f64_seq().unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn reader_over_gather_list_aliases_spliced_segment() {
        // Decoding a spliced bulk sequence from a multi-segment payload
        // must hand back the very segment the writer spliced in — no
        // flatten on construction, no copy on read.
        let big = Bytes::from(vec![3u8; ZERO_COPY_THRESHOLD * 2]);
        let big_ptr = big.as_ptr();
        let mut w = CdrWriter::new(MarshalStrategy::ZeroCopy);
        w.write_u32(42);
        w.write_octet_seq(big);
        w.write_string("tail");
        let payload = w.finish();
        assert!(payload.segment_count() >= 3);
        let mut r = CdrReader::new(&payload);
        assert_eq!(r.read_u32().unwrap(), 42);
        let seq = r.read_octet_seq().unwrap();
        assert_eq!(seq.len(), ZERO_COPY_THRESHOLD * 2);
        assert_eq!(seq.as_ptr(), big_ptr, "bulk read must alias the splice");
        assert_eq!(r.read_string().unwrap(), "tail");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn scalar_reads_cross_segment_boundaries() {
        // A u64 split across two segments still decodes (gathered into a
        // stack buffer), with alignment tracked globally.
        let mut p = Payload::new();
        p.push_segment(Bytes::from_static(&[0xEF, 0xBE, 0xAD]));
        p.push_segment(Bytes::from_static(&[0xDE, 0, 0, 0, 0]));
        let mut r = CdrReader::new(&p);
        assert_eq!(r.read_u64().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn read_octet_seq_is_zero_copy_slice() {
        let mut w = CdrWriter::new(MarshalStrategy::Copying);
        w.write_octet_slice(&[5u8; 64]);
        let payload = w.finish();
        let backing = payload.to_contiguous();
        let mut r = CdrReader::from_bytes(backing.clone());
        let seq = r.read_octet_seq().unwrap();
        // A Bytes slice of the same buffer shares the allocation.
        assert_eq!(seq.as_ptr(), backing[4..].as_ptr());
    }
}

impl std::fmt::Debug for CdrReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CdrReader(pos {} of {} bytes)", self.pos, self.len)
    }
}

impl std::fmt::Debug for CdrWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CdrWriter({} bytes, {:?})", self.offset, self.strategy)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// An arbitrary CDR write sequence, mirrored as typed expectations.
    #[derive(Debug, Clone)]
    enum Item {
        U8(u8),
        U16(u16),
        U32(u32),
        I32(i32),
        U64(u64),
        I64(i64),
        F64(f64),
        Bool(bool),
        Str(String),
        Octets(Vec<u8>),
        I32Seq(Vec<i32>),
        F64Seq(Vec<f64>),
    }

    fn item_strategy() -> impl Strategy<Value = Item> {
        prop_oneof![
            any::<u8>().prop_map(Item::U8),
            any::<u16>().prop_map(Item::U16),
            any::<u32>().prop_map(Item::U32),
            any::<i32>().prop_map(Item::I32),
            any::<u64>().prop_map(Item::U64),
            any::<i64>().prop_map(Item::I64),
            any::<f64>()
                .prop_filter("finite", |v| v.is_finite())
                .prop_map(Item::F64),
            any::<bool>().prop_map(Item::Bool),
            "[a-zA-Z0-9 _-]{0,24}".prop_map(Item::Str),
            proptest::collection::vec(any::<u8>(), 0..2048).prop_map(Item::Octets),
            proptest::collection::vec(any::<i32>(), 0..32).prop_map(Item::I32Seq),
            proptest::collection::vec(any::<f64>().prop_filter("finite", |v| v.is_finite()), 0..32)
                .prop_map(Item::F64Seq),
        ]
    }

    proptest! {
        /// Any write sequence decodes back identically under both
        /// marshalling strategies — the interoperability guarantee the
        /// mixed-ORB grid depends on.
        #[test]
        fn any_sequence_roundtrips(
            items in proptest::collection::vec(item_strategy(), 0..24),
            zero_copy: bool,
        ) {
            let strategy = if zero_copy {
                MarshalStrategy::ZeroCopy
            } else {
                MarshalStrategy::Copying
            };
            let mut w = CdrWriter::new(strategy);
            for item in &items {
                match item {
                    Item::U8(v) => w.write_u8(*v),
                    Item::U16(v) => w.write_u16(*v),
                    Item::U32(v) => w.write_u32(*v),
                    Item::I32(v) => w.write_i32(*v),
                    Item::U64(v) => w.write_u64(*v),
                    Item::I64(v) => w.write_i64(*v),
                    Item::F64(v) => w.write_f64(*v),
                    Item::Bool(v) => w.write_bool(*v),
                    Item::Str(v) => w.write_string(v),
                    Item::Octets(v) => w.write_octet_seq(Bytes::from(v.clone())),
                    Item::I32Seq(v) => w.write_i32_seq(v),
                    Item::F64Seq(v) => w.write_f64_seq(v),
                }
            }
            let payload = w.finish();
            let mut r = CdrReader::new(&payload);
            for item in &items {
                match item {
                    Item::U8(v) => prop_assert_eq!(r.read_u8().unwrap(), *v),
                    Item::U16(v) => prop_assert_eq!(r.read_u16().unwrap(), *v),
                    Item::U32(v) => prop_assert_eq!(r.read_u32().unwrap(), *v),
                    Item::I32(v) => prop_assert_eq!(r.read_i32().unwrap(), *v),
                    Item::U64(v) => prop_assert_eq!(r.read_u64().unwrap(), *v),
                    Item::I64(v) => prop_assert_eq!(r.read_i64().unwrap(), *v),
                    Item::F64(v) => prop_assert_eq!(r.read_f64().unwrap(), *v),
                    Item::Bool(v) => prop_assert_eq!(r.read_bool().unwrap(), *v),
                    Item::Str(v) => prop_assert_eq!(&r.read_string().unwrap(), v),
                    Item::Octets(v) => {
                        prop_assert_eq!(r.read_octet_seq().unwrap(), Bytes::from(v.clone()))
                    }
                    Item::I32Seq(v) => prop_assert_eq!(&r.read_i32_seq().unwrap(), v),
                    Item::F64Seq(v) => prop_assert_eq!(&r.read_f64_seq().unwrap(), v),
                }
            }
            prop_assert_eq!(r.remaining(), 0);
        }
    }
}
