//! Wire encoding of derived-interface invocations.
//!
//! A derived request (`_par_<op>`) carries an invocation header (logical
//! invocation id, the client group and its rank's completion watermark,
//! the client's rank and group size) followed by the argument list.
//! Replicated arguments are sent identically to every target;
//! distributed arguments travel as *strided chunk sets* — one
//! header per [`TransferRun`] of the redistribution schedule (destination
//! offset, piece length, destination stride, piece count) followed by a
//! single octet sequence gathering all the run's pieces. Header bytes are
//! therefore O(runs), not O(elements), and pieces of the client's local
//! block are sliced zero-copy, so an omniORB-profile transport moves bulk
//! data without any extra copy, exactly as in the paper's bandwidth
//! argument. A run whose source pieces are contiguous goes by reference
//! under a copying profile too: the ORB charges that profile's copies in
//! virtual time, and [`assemble_block`]'s scatter is the one physical
//! copy. See DESIGN.md §9 for the strided representation.

use bytes::Bytes;
use padico_orb::cdr::{CdrReader, CdrWriter};

use crate::dist::{DistSeq, Distribution};
use crate::error::GridCcmError;
use crate::redistribute::TransferRun;

/// A runtime argument or result value.
#[derive(Clone, Debug, PartialEq)]
pub enum ParValue {
    U32(u32),
    I32(i32),
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
    /// Replicated sequence: every node receives the whole thing.
    Seq {
        elem_size: u32,
        data: Bytes,
    },
    /// Distributed sequence: this side's local block.
    Dist(DistSeq),
}

impl ParValue {
    /// Payload bytes this value contributes (for cost accounting).
    pub fn byte_len(&self) -> usize {
        match self {
            ParValue::Seq { data, .. } => data.len(),
            ParValue::Dist(d) => d.data.len(),
            ParValue::Str(s) => s.len(),
            _ => 8,
        }
    }
}

const TAG_U32: u8 = 0;
const TAG_I32: u8 = 1;
const TAG_U64: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_SEQ: u8 = 6;
const TAG_DIST: u8 = 7;

/// A retried round of one invocation travels under
/// `inv_id + (round << ROUND_SHIFT)`: a fresh id for the servers' gather,
/// the same sequence number for acknowledgement.
pub const ROUND_SHIFT: u32 = 48;

/// Header of one derived invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvHeader {
    /// `group + seq + (round << ROUND_SHIFT)`: unique per logical
    /// invocation and round of one client group.
    pub inv_id: u64,
    /// The client group's id (the `ParallelRef`'s `base`, a hash of the
    /// group name) that `inv_id` is derived from; with `client_rank` it
    /// names whose acknowledgement `done_below` is.
    pub group: u64,
    /// The sending rank's completion watermark: every invocation of this
    /// client rank with a sequence number below it has returned to its
    /// caller. It is the lowest sequence number still in progress on the
    /// handle, so it never passes a call some thread still waits for.
    /// The adapter drops a kept result once every rank it served has
    /// passed it, and answers later requests below it as already
    /// completed.
    pub done_below: u64,
    pub client_rank: u32,
    pub client_size: u32,
    /// The server rank this request addresses, in the client's (possibly
    /// degraded) view of the component: when a partition has removed
    /// replicas from service, the surviving servers are renumbered
    /// `0..target_size` and told their temporary rank here, so both
    /// sides compute identical redistribution schedules over the
    /// survivors without any extra coordination round.
    pub target_rank: u32,
    /// Number of server replicas in the client's view (≤ the configured
    /// replica count; equal in the healthy case).
    pub target_size: u32,
    pub arg_count: u32,
    /// Span-trace id of the invocation's causal tree; 0 when the caller
    /// is untraced. Rides in the chunk header so the server-side gather
    /// and upcall join the client's span tree.
    pub trace_id: u64,
    /// Span id of the sending client rank's span; 0 when untraced.
    pub parent_span: u64,
    /// Absolute virtual-time deadline of the whole parallel invocation
    /// (0 = none). Every derived per-rank request inherits it, so the
    /// server-side upcall — and anything *it* invokes — is bounded by
    /// the original caller's budget.
    pub deadline: u64,
}

impl InvHeader {
    /// The invocation's sequence number in its group; every round of one
    /// invocation shares it.
    pub fn seq(&self) -> u64 {
        self.inv_id.wrapping_sub(self.group) & ((1 << ROUND_SHIFT) - 1)
    }

    pub fn write(&self, w: &mut CdrWriter) {
        w.write_u64(self.inv_id);
        w.write_u64(self.group);
        w.write_u64(self.done_below);
        w.write_u32(self.client_rank);
        w.write_u32(self.client_size);
        w.write_u32(self.target_rank);
        w.write_u32(self.target_size);
        w.write_u32(self.arg_count);
        w.write_u64(self.trace_id);
        w.write_u64(self.parent_span);
        w.write_u64(self.deadline);
    }

    pub fn read(r: &mut CdrReader) -> Result<InvHeader, GridCcmError> {
        Ok(InvHeader {
            inv_id: r.read_u64()?,
            group: r.read_u64()?,
            done_below: r.read_u64()?,
            client_rank: r.read_u32()?,
            client_size: r.read_u32()?,
            target_rank: r.read_u32()?,
            target_size: r.read_u32()?,
            arg_count: r.read_u32()?,
            trace_id: r.read_u64()?,
            parent_span: r.read_u64()?,
            deadline: r.read_u64()?,
        })
    }
}

/// Write a replicated value.
pub fn write_replicated(w: &mut CdrWriter, v: &ParValue) -> Result<(), GridCcmError> {
    match v {
        ParValue::U32(x) => {
            w.write_u8(TAG_U32);
            w.write_u32(*x);
        }
        ParValue::I32(x) => {
            w.write_u8(TAG_I32);
            w.write_i32(*x);
        }
        ParValue::U64(x) => {
            w.write_u8(TAG_U64);
            w.write_u64(*x);
        }
        ParValue::F64(x) => {
            w.write_u8(TAG_F64);
            w.write_f64(*x);
        }
        ParValue::Bool(x) => {
            w.write_u8(TAG_BOOL);
            w.write_bool(*x);
        }
        ParValue::Str(x) => {
            w.write_u8(TAG_STR);
            w.write_string(x);
        }
        ParValue::Seq { elem_size, data } => {
            w.write_u8(TAG_SEQ);
            w.write_u32(*elem_size);
            w.write_octet_seq(data.clone());
        }
        ParValue::Dist(_) => {
            return Err(GridCcmError::Protocol(
                "distributed value in replicated position".into(),
            ))
        }
    }
    Ok(())
}

/// One strided chunk set of a distributed argument headed to one
/// destination: `count` pieces of `chunk_elems` elements each, the
/// `k`-th landing at destination-local element
/// `dst_offset + k·dst_stride`. `data` concatenates the pieces in
/// order (`count · chunk_elems` elements total).
#[derive(Clone, Debug, PartialEq)]
pub struct Chunk {
    /// Destination-local element offset of the first piece.
    pub dst_offset: u64,
    /// Elements per piece.
    pub chunk_elems: u64,
    /// Destination-local element distance between consecutive pieces.
    pub dst_stride: u64,
    /// Number of pieces.
    pub count: u64,
    pub data: Bytes,
}

impl Chunk {
    pub fn elems(&self) -> u64 {
        self.chunk_elems * self.count
    }
}

/// Write the chunk set of a distributed argument for one destination.
///
/// `runs` are the schedule runs from `local.rank` to the destination.
/// Each run costs one fixed header (four u64s) plus one octet sequence
/// gathering its pieces — wire overhead is O(runs), independent of the
/// element count. A run whose pieces are contiguous in `local.data`
/// (`count == 1` or `src_stride == chunk_elems`) is one slice of it,
/// spliced by reference under every profile; a run with a strided
/// source is gathered as the profile marshals (copied into one segment,
/// or each bulk piece spliced).
pub fn write_dist_chunks(
    w: &mut CdrWriter,
    local: &DistSeq,
    dst_dist: Distribution,
    runs: &[TransferRun],
) -> Result<(), GridCcmError> {
    w.write_u8(TAG_DIST);
    w.write_u32(local.elem_size);
    w.write_u64(local.global_elems);
    let (stag, sparam) = local.distribution.code();
    w.write_u8(stag);
    w.write_u64(sparam);
    let (tag, param) = dst_dist.code();
    w.write_u8(tag);
    w.write_u64(param);
    w.write_u32(runs.len() as u32);
    let es = u64::from(local.elem_size);
    for t in runs {
        debug_assert_eq!(t.src_rank, local.rank);
        let last_start = t.src_offset + (t.count - 1) * t.src_stride;
        let max_end = ((last_start + t.chunk_elems) * es) as usize;
        if max_end > local.data.len() {
            return Err(GridCcmError::Distribution(format!(
                "transfer run overruns local block: bytes ..{max_end} of {}",
                local.data.len()
            )));
        }
        w.write_u64(t.dst_offset);
        w.write_u64(t.chunk_elems);
        w.write_u64(t.dst_stride);
        w.write_u64(t.count);
        if t.count == 1 || t.src_stride == t.chunk_elems {
            // The pieces lie back to back in the local block: the run is
            // one slice of it, handed off by reference whatever the
            // profile. A copying profile's marshal copy is charged by
            // body length in virtual time; assembly makes the one copy.
            let byte_start = (t.src_offset * es) as usize;
            let byte_end = byte_start + (t.elems() * es) as usize;
            w.splice_octet_seq(local.data.slice(byte_start..byte_end));
        } else {
            let chunk_bytes = (t.chunk_elems * es) as usize;
            let data = &local.data;
            w.write_octet_gather(
                (t.elems() * es) as usize,
                (0..t.count).map(move |k| {
                    let start = ((t.src_offset + k * t.src_stride) * es) as usize;
                    data.slice(start..start + chunk_bytes)
                }),
            );
        }
    }
    Ok(())
}

/// A parsed incoming argument.
#[derive(Clone, Debug, PartialEq)]
pub enum WireArg {
    Replicated(ParValue),
    /// Pieces of a distributed argument destined to the reading rank.
    DistChunks {
        elem_size: u32,
        global_elems: u64,
        /// The sender group's distribution.
        src_dist: Distribution,
        /// The receiving group's distribution.
        dst_dist: Distribution,
        chunks: Vec<Chunk>,
    },
}

/// Read one argument (replicated value or distributed chunk set).
pub fn read_arg(r: &mut CdrReader) -> Result<WireArg, GridCcmError> {
    let tag = r.read_u8()?;
    Ok(match tag {
        TAG_U32 => WireArg::Replicated(ParValue::U32(r.read_u32()?)),
        TAG_I32 => WireArg::Replicated(ParValue::I32(r.read_i32()?)),
        TAG_U64 => WireArg::Replicated(ParValue::U64(r.read_u64()?)),
        TAG_F64 => WireArg::Replicated(ParValue::F64(r.read_f64()?)),
        TAG_BOOL => WireArg::Replicated(ParValue::Bool(r.read_bool()?)),
        TAG_STR => WireArg::Replicated(ParValue::Str(r.read_string()?)),
        TAG_SEQ => {
            let elem_size = r.read_u32()?;
            let data = r.read_octet_seq()?;
            WireArg::Replicated(ParValue::Seq { elem_size, data })
        }
        TAG_DIST => {
            let elem_size = r.read_u32()?;
            let global_elems = r.read_u64()?;
            let stag = r.read_u8()?;
            let sparam = r.read_u64()?;
            let src_dist = Distribution::from_code(stag, sparam)?;
            let dtag = r.read_u8()?;
            let dparam = r.read_u64()?;
            let dst_dist = Distribution::from_code(dtag, dparam)?;
            let n = r.read_u32()? as usize;
            let mut chunks = Vec::with_capacity(n);
            for _ in 0..n {
                let dst_offset = r.read_u64()?;
                let chunk_elems = r.read_u64()?;
                let dst_stride = r.read_u64()?;
                let count = r.read_u64()?;
                let data = r.read_octet_seq()?;
                let expect = chunk_elems
                    .checked_mul(count)
                    .and_then(|e| e.checked_mul(u64::from(elem_size)));
                if expect != Some(data.len() as u64) {
                    return Err(GridCcmError::Protocol(format!(
                        "chunk length {} does not match {count} × {chunk_elems} × {elem_size}",
                        data.len()
                    )));
                }
                chunks.push(Chunk {
                    dst_offset,
                    chunk_elems,
                    dst_stride,
                    count,
                    data,
                });
            }
            WireArg::DistChunks {
                elem_size,
                global_elems,
                src_dist,
                dst_dist,
                chunks,
            }
        }
        other => {
            return Err(GridCcmError::Protocol(format!(
                "unknown argument tag {other}"
            )))
        }
    })
}

/// Reply body tags.
pub const REPLY_VOID: u8 = 0;
pub const REPLY_REPLICATED: u8 = 1;
pub const REPLY_DIST: u8 = 2;

/// Write a reply carrying no result.
pub fn write_reply_void(w: &mut CdrWriter) {
    w.write_u8(REPLY_VOID);
}

/// Write a reply carrying a replicated result.
pub fn write_reply_replicated(w: &mut CdrWriter, v: &ParValue) -> Result<(), GridCcmError> {
    w.write_u8(REPLY_REPLICATED);
    write_replicated(w, v)
}

/// Write a reply carrying this server rank's pieces of a distributed
/// result, destined to one client rank.
pub fn write_reply_dist(
    w: &mut CdrWriter,
    local: &DistSeq,
    client_dist: Distribution,
    runs: &[TransferRun],
) -> Result<(), GridCcmError> {
    w.write_u8(REPLY_DIST);
    write_dist_chunks(w, local, client_dist, runs)?;
    Ok(())
}

/// A parsed reply.
#[derive(Clone, Debug, PartialEq)]
pub enum WireReply {
    Void,
    Replicated(ParValue),
    Dist {
        elem_size: u32,
        global_elems: u64,
        src_dist: Distribution,
        dst_dist: Distribution,
        chunks: Vec<Chunk>,
    },
}

/// Read a reply body.
pub fn read_reply(r: &mut CdrReader) -> Result<WireReply, GridCcmError> {
    match r.read_u8()? {
        REPLY_VOID => Ok(WireReply::Void),
        REPLY_REPLICATED => match read_arg(r)? {
            WireArg::Replicated(v) => Ok(WireReply::Replicated(v)),
            WireArg::DistChunks { .. } => Err(GridCcmError::Protocol(
                "distributed chunks under replicated reply tag".into(),
            )),
        },
        REPLY_DIST => match read_arg(r)? {
            WireArg::DistChunks {
                elem_size,
                global_elems,
                src_dist,
                dst_dist,
                chunks,
            } => Ok(WireReply::Dist {
                elem_size,
                global_elems,
                src_dist,
                dst_dist,
                chunks,
            }),
            WireArg::Replicated(_) => Err(GridCcmError::Protocol(
                "replicated value under distributed reply tag".into(),
            )),
        },
        other => Err(GridCcmError::Protocol(format!("unknown reply tag {other}"))),
    }
}

/// One merged copy in a scatter plan: `len` bytes of chunk `chunk`'s
/// data, starting at `src`, land at byte `dst` of the local block.
struct CopyPiece {
    dst: usize,
    src: usize,
    chunk: usize,
    len: usize,
}

/// Build the run-merged copy plan for scattering `chunks` into a local
/// block of `total_bytes`. A chunk whose pieces are contiguous in the
/// destination (`count == 1`, or `dst_stride == chunk_elems`) collapses
/// to a single memcpy; strided chunks contribute one piece per
/// repetition. The sorted plan is validated to tile the block exactly —
/// every byte written once — which is what lets the scatter run into
/// uninitialized storage.
fn build_scatter_plan(
    es: u64,
    local_elems: u64,
    chunks: &[Chunk],
) -> Result<Vec<CopyPiece>, GridCcmError> {
    let total_bytes = (local_elems * es) as usize;
    // One piece per contiguous chunk, one per repetition of a strided
    // one. A valid piece holds at least one byte, so `count` is clamped
    // by the data length: a bogus count from the wire cannot size this.
    let pieces = chunks
        .iter()
        .map(|c| match c {
            c if c.count == 0 || c.chunk_elems == 0 => 0,
            c if c.count == 1 || c.dst_stride == c.chunk_elems => 1,
            c => c.count.min(c.data.len() as u64) as usize,
        })
        .sum();
    let mut plan = Vec::with_capacity(pieces);
    for (ci, c) in chunks.iter().enumerate() {
        let piece_bytes = (c.chunk_elems * es) as usize;
        if c.count * c.chunk_elems * es != c.data.len() as u64 {
            return Err(GridCcmError::Protocol(format!(
                "chunk carries {} bytes but declares {} pieces of {} bytes",
                c.data.len(),
                c.count,
                piece_bytes
            )));
        }
        if c.count == 0 || c.chunk_elems == 0 {
            continue;
        }
        let last_start = c.dst_offset + (c.count - 1) * c.dst_stride;
        if ((last_start + c.chunk_elems) * es) as usize > total_bytes {
            return Err(GridCcmError::Protocol(format!(
                "chunk at element {} (stride {}, count {}) overruns local block of {local_elems} elements",
                c.dst_offset, c.dst_stride, c.count
            )));
        }
        if c.count == 1 || c.dst_stride == c.chunk_elems {
            // Contiguous run: the whole chunk is one memcpy.
            plan.push(CopyPiece {
                dst: (c.dst_offset * es) as usize,
                src: 0,
                chunk: ci,
                len: c.data.len(),
            });
        } else {
            for k in 0..c.count as usize {
                plan.push(CopyPiece {
                    dst: ((c.dst_offset + k as u64 * c.dst_stride) * es) as usize,
                    src: k * piece_bytes,
                    chunk: ci,
                    len: piece_bytes,
                });
            }
        }
    }
    plan.sort_unstable_by_key(|p| p.dst);
    let mut expected = 0usize;
    for p in &plan {
        if p.dst != expected {
            return Err(GridCcmError::Protocol(format!(
                "assembled {} bytes, local block needs {total_bytes}",
                plan.iter().map(|p| p.len).sum::<usize>()
            )));
        }
        expected += p.len;
    }
    if expected != total_bytes {
        return Err(GridCcmError::Protocol(format!(
            "assembled {expected} bytes, local block needs {total_bytes}"
        )));
    }
    Ok(plan)
}

/// Run a validated plan into `out`'s spare capacity (at least
/// `total_bytes` of it). The tiling check in [`build_scatter_plan`]
/// guarantees every byte of `0..total_bytes` is written exactly once, so
/// the buffer never needs zeroing.
fn run_scatter_plan(plan: &[CopyPiece], chunks: &[Chunk], total_bytes: usize, out: &mut Vec<u8>) {
    debug_assert!(out.capacity() >= total_bytes && out.is_empty());
    let base = out.as_mut_ptr();
    for p in plan {
        let src = &chunks[p.chunk].data[p.src..p.src + p.len];
        // SAFETY: the plan tiles [0, total_bytes) exactly (validated),
        // total_bytes fits in `out`'s capacity, and src/dst never overlap
        // (dst is freshly leased storage).
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), base.add(p.dst), src.len()) };
    }
    // SAFETY: all total_bytes bytes were just initialized by the plan.
    unsafe { out.set_len(total_bytes) };
}

/// The zero-copy identity case: one chunk whose single contiguous run
/// IS the whole local block. `Bytes` is immutable, so handing back a
/// reference to the received chunk is indistinguishable from a copy.
fn whole_block_chunk<'a>(
    plan: &[CopyPiece],
    chunks: &'a [Chunk],
    total_bytes: usize,
) -> Option<&'a Bytes> {
    match plan {
        [p] if p.src == 0 && p.len == total_bytes && chunks[p.chunk].data.len() == total_bytes => {
            Some(&chunks[p.chunk].data)
        }
        _ => None,
    }
}

/// Assemble a local block from received strided chunk sets: scatter each
/// chunk's concatenated pieces to their strided destinations via a
/// run-merged copy plan. Validates exact tiling (every local byte
/// written exactly once). A block that arrives as one contiguous chunk
/// is handed back without copying; otherwise the result lives in a
/// pooled slab, recycled when the last reference drops.
pub fn assemble_block(
    elem_size: u32,
    local_elems: u64,
    chunks: &[Chunk],
) -> Result<Bytes, GridCcmError> {
    let es = u64::from(elem_size);
    let total_bytes = (local_elems * es) as usize;
    let plan = build_scatter_plan(es, local_elems, chunks)?;
    if let Some(whole) = whole_block_chunk(&plan, chunks, total_bytes) {
        return Ok(whole.clone());
    }
    let mut buf = padico_fabric::pool::lease(total_bytes);
    run_scatter_plan(&plan, chunks, total_bytes, &mut buf);
    Ok(buf.freeze())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redistribute::{schedule, sends_of};
    use padico_orb::profile::MarshalStrategy;

    #[test]
    fn replicated_values_roundtrip() {
        let values = vec![
            ParValue::U32(7),
            ParValue::I32(-3),
            ParValue::U64(1 << 40),
            ParValue::F64(2.5),
            ParValue::Bool(true),
            ParValue::Str("chemistry".into()),
            ParValue::Seq {
                elem_size: 8,
                data: Bytes::from(vec![1u8; 32]),
            },
        ];
        let mut w = CdrWriter::new(MarshalStrategy::Copying);
        let header = InvHeader {
            inv_id: 99 + (2 << ROUND_SHIFT),
            group: 90,
            done_below: 7,
            client_rank: 1,
            client_size: 4,
            target_rank: 2,
            target_size: 3,
            arg_count: values.len() as u32,
            trace_id: 0xabcd,
            parent_span: 0x1234,
            deadline: 0x5678,
        };
        header.write(&mut w);
        for v in &values {
            write_replicated(&mut w, v).unwrap();
        }
        let payload = w.finish();
        let mut r = CdrReader::new(&payload);
        assert_eq!(InvHeader::read(&mut r).unwrap(), header);
        assert_eq!(header.seq(), 9, "a retried round keeps its sequence number");
        for v in &values {
            assert_eq!(read_arg(&mut r).unwrap(), WireArg::Replicated(v.clone()));
        }
    }

    #[test]
    fn replicated_rejects_dist_value() {
        let d = DistSeq::from_i32_local(2, Distribution::Block, 0, 1, &[1, 2]).unwrap();
        let mut w = CdrWriter::new(MarshalStrategy::Copying);
        assert!(write_replicated(&mut w, &ParValue::Dist(d)).is_err());
    }

    #[test]
    fn dist_chunks_roundtrip_and_assemble() {
        // Client: 2 ranks block; server: 3 ranks block; 12 i32 elements.
        let global: Vec<i32> = (0..12).collect();
        let transfers = schedule(12, Distribution::Block, 2, Distribution::Block, 3).unwrap();
        // Simulate both client ranks sending to server rank 1 (owns [4,8)).
        let mut chunks_at_server = Vec::new();
        for client_rank in 0..2 {
            let local_vals: Vec<i32> = Distribution::Block
                .owned_ranges(12, client_rank, 2)
                .iter()
                .flat_map(|&(s, e)| (s..e).map(|i| global[i as usize]))
                .collect();
            let local =
                DistSeq::from_i32_local(12, Distribution::Block, client_rank, 2, &local_vals)
                    .unwrap();
            let sends: Vec<TransferRun> = sends_of(&transfers, client_rank)
                .filter(|t| t.dst_rank == 1)
                .cloned()
                .collect();
            if sends.is_empty() {
                continue;
            }
            let mut w = CdrWriter::new(MarshalStrategy::ZeroCopy);
            write_dist_chunks(&mut w, &local, Distribution::Block, &sends).unwrap();
            let payload = w.finish();
            let mut r = CdrReader::new(&payload);
            match read_arg(&mut r).unwrap() {
                WireArg::DistChunks {
                    elem_size,
                    global_elems,
                    src_dist,
                    dst_dist,
                    chunks,
                } => {
                    assert_eq!(elem_size, 4);
                    assert_eq!(global_elems, 12);
                    assert_eq!(src_dist, Distribution::Block);
                    assert_eq!(dst_dist, Distribution::Block);
                    chunks_at_server.extend(chunks);
                }
                other => panic!("{other:?}"),
            }
        }
        // Server rank 1's local block is elements [4, 8).
        let block = assemble_block(4, 4, &chunks_at_server).unwrap();
        let got: Vec<i32> = block
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(got, vec![4, 5, 6, 7]);
    }

    fn contiguous(dst_offset: u64, data: Bytes) -> Chunk {
        Chunk {
            dst_offset,
            chunk_elems: data.len() as u64 / 4,
            dst_stride: 0,
            count: 1,
            data,
        }
    }

    #[test]
    fn assemble_detects_gaps_and_overruns() {
        let full = contiguous(0, Bytes::from(vec![0u8; 8]));
        assert!(assemble_block(4, 2, std::slice::from_ref(&full)).is_ok());
        // Gap: only half the block provided.
        let half = contiguous(0, Bytes::from(vec![0u8; 4]));
        assert!(assemble_block(4, 2, &[half]).is_err());
        // Overrun.
        let over = contiguous(1, Bytes::from(vec![0u8; 8]));
        assert!(assemble_block(4, 2, &[over]).is_err());
        // Strided overrun: last piece lands past the block end.
        let strided = Chunk {
            dst_offset: 0,
            chunk_elems: 1,
            dst_stride: 3,
            count: 2,
            data: Bytes::from(vec![0u8; 8]),
        };
        assert!(assemble_block(4, 3, &[strided]).is_err());
    }

    #[test]
    fn assemble_scatters_strided_pieces() {
        // Two pieces of 1 element each landing at offsets 0 and 2 plus a
        // contiguous filler at offset 1.
        let strided = Chunk {
            dst_offset: 0,
            chunk_elems: 1,
            dst_stride: 2,
            count: 2,
            data: Bytes::from(vec![1, 0, 0, 0, 3, 0, 0, 0]),
        };
        let filler = contiguous(1, Bytes::from(vec![2, 0, 0, 0]));
        let block = assemble_block(4, 3, &[strided, filler]).unwrap();
        let got: Vec<i32> = block
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn reply_roundtrips() {
        // Void.
        let mut w = CdrWriter::new(MarshalStrategy::Copying);
        write_reply_void(&mut w);
        let mut r = CdrReader::new(&w.finish());
        assert_eq!(read_reply(&mut r).unwrap(), WireReply::Void);
        // Replicated.
        let mut w = CdrWriter::new(MarshalStrategy::Copying);
        write_reply_replicated(&mut w, &ParValue::F64(1.25)).unwrap();
        let mut r = CdrReader::new(&w.finish());
        assert_eq!(
            read_reply(&mut r).unwrap(),
            WireReply::Replicated(ParValue::F64(1.25))
        );
        // Distributed.
        let local = DistSeq::from_i32_local(4, Distribution::Block, 0, 1, &[9, 8, 7, 6]).unwrap();
        let transfers = schedule(4, Distribution::Block, 1, Distribution::Block, 1).unwrap();
        let mut w = CdrWriter::new(MarshalStrategy::ZeroCopy);
        write_reply_dist(&mut w, &local, Distribution::Block, &transfers).unwrap();
        let mut r = CdrReader::new(&w.finish());
        match read_reply(&mut r).unwrap() {
            WireReply::Dist { chunks, .. } => {
                let block = assemble_block(4, 4, &chunks).unwrap();
                assert_eq!(block, local.data);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_copy_chunks_share_storage() {
        // Chunk slices must reference the client's local block, not copy.
        let local = DistSeq::from_local(
            1,
            4096,
            Distribution::Block,
            0,
            1,
            Bytes::from(vec![5u8; 4096]),
        )
        .unwrap();
        let transfers = schedule(4096, Distribution::Block, 1, Distribution::Block, 1).unwrap();
        let mut w = CdrWriter::new(MarshalStrategy::ZeroCopy);
        write_dist_chunks(&mut w, &local, Distribution::Block, &transfers).unwrap();
        let payload = w.finish();
        // The bulk chunk rides as its own segment (spliced, not copied).
        assert!(payload.segment_count() > 1);
    }

    #[test]
    fn zero_copy_strided_pieces_splice_individually() {
        // Block client → BlockCyclic(512) server over 4096 i32s: the one
        // run to server rank 0 has four 2048-byte pieces, each of which
        // must splice as its own segment under the gather writer.
        let local = DistSeq::from_local(
            4,
            4096,
            Distribution::Block,
            0,
            1,
            Bytes::from(vec![5u8; 4 * 4096]),
        )
        .unwrap();
        let sched = schedule(
            4096,
            Distribution::Block,
            1,
            Distribution::BlockCyclic(512),
            2,
        )
        .unwrap();
        let sends: Vec<TransferRun> = sends_of(&sched, 0)
            .filter(|t| t.dst_rank == 0)
            .cloned()
            .collect();
        assert_eq!(sends.len(), 1, "one strided run, not per-piece transfers");
        assert_eq!(sends[0].count, 4);
        let mut w = CdrWriter::new(MarshalStrategy::ZeroCopy);
        write_dist_chunks(&mut w, &local, Distribution::BlockCyclic(512), &sends).unwrap();
        let payload = w.finish();
        assert!(
            payload.segment_count() >= 4,
            "each bulk piece splices: {} segments",
            payload.segment_count()
        );
        // And the receiver reconstructs its block exactly.
        let mut r = CdrReader::new(&payload);
        match read_arg(&mut r).unwrap() {
            WireArg::DistChunks { chunks, .. } => {
                let block = assemble_block(4, 2048, &chunks).unwrap();
                assert_eq!(block, Bytes::from(vec![5u8; 4 * 2048]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn source_contiguous_runs_travel_by_reference() {
        // The benchmark's store shape: a block-cyclic:256 client block of
        // 2 × 4096 i32s to a block server. Client rank 0's pieces bound
        // for server rank 0 lie back to back in its local block (source
        // stride = piece length), though 256 elements apart at the server.
        let (global, clients, servers) = (8192u64, 2, 2);
        let src_dist = Distribution::BlockCyclic(256);
        let global_bytes = Bytes::from(
            (0..global as i32)
                .flat_map(i32::to_le_bytes)
                .collect::<Vec<u8>>(),
        );
        let local = DistSeq::from_global(4, src_dist, 0, clients, &global_bytes).unwrap();
        let sched = schedule(global, src_dist, clients, Distribution::Block, servers).unwrap();
        let sends: Vec<TransferRun> = sends_of(&sched, 0)
            .filter(|t| t.dst_rank == 0)
            .cloned()
            .collect();
        assert_eq!(sends.len(), 1);
        let run = sends[0];
        assert!(run.count > 1 && run.src_stride == run.chunk_elems);
        assert_ne!(run.dst_stride, run.chunk_elems, "strided at the server");
        let src = &local.data[(run.src_offset * 4) as usize..];
        for strategy in [MarshalStrategy::Copying, MarshalStrategy::ZeroCopy] {
            let mut w = CdrWriter::new(strategy);
            write_dist_chunks(&mut w, &local, Distribution::Block, &sends).unwrap();
            let payload = w.finish();
            let run_bytes = (run.elems() * 4) as usize;
            let bulk: Vec<&Bytes> = payload.segments().filter(|s| s.len() >= 1024).collect();
            assert_eq!(bulk.len(), 1, "{strategy:?}: the run is one segment");
            assert_eq!(bulk[0].len(), run_bytes);
            assert_eq!(
                bulk[0].as_ptr(),
                src.as_ptr(),
                "{strategy:?}: aliases the block"
            );
            let mut r = CdrReader::new(&payload);
            match read_arg(&mut r).unwrap() {
                WireArg::DistChunks { chunks, .. } => {
                    assert_eq!(chunks.len(), 1);
                    assert_eq!(chunks[0].data.as_ptr(), src.as_ptr(), "{strategy:?}");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    /// Scatter a global payload through the strided schedule and wire
    /// encoding under `strategy`, assemble every destination rank's block,
    /// and compare it with the direct distribution of the same payload.
    fn redistribution_case(
        global: u64,
        (src_size, src_dist): (usize, Distribution),
        (dst_size, dst_dist): (usize, Distribution),
        strategy: MarshalStrategy,
    ) {
        // Distinguishable element payload: global index as i32.
        let global_bytes = Bytes::from(
            (0..global as i32)
                .flat_map(i32::to_le_bytes)
                .collect::<Vec<u8>>(),
        );
        let sched = schedule(global, src_dist, src_size, dst_dist, dst_size).unwrap();
        let locals: Vec<DistSeq> = (0..src_size)
            .map(|r| DistSeq::from_global(4, src_dist, r, src_size, &global_bytes).unwrap())
            .collect();
        for dst in 0..dst_size {
            let mut chunks = Vec::new();
            for local in &locals {
                let sends: Vec<TransferRun> = sends_of(&sched, local.rank)
                    .filter(|t| t.dst_rank == dst)
                    .cloned()
                    .collect();
                if sends.is_empty() {
                    continue; // degenerate pair: nothing to ship
                }
                let mut w = CdrWriter::new(strategy);
                write_dist_chunks(&mut w, local, dst_dist, &sends).unwrap();
                let mut r = CdrReader::new(&w.finish());
                match read_arg(&mut r).unwrap() {
                    WireArg::DistChunks { chunks: c, .. } => chunks.extend(c),
                    other => panic!("{other:?}"),
                }
            }
            let local_elems = dst_dist.local_len(global, dst, dst_size);
            let assembled = assemble_block(4, local_elems, &chunks).unwrap();
            let direct = DistSeq::from_global(4, dst_dist, dst, dst_size, &global_bytes).unwrap();
            assert_eq!(
                &assembled, &direct.data,
                "dst rank {dst} of {dst_dist:?}x{dst_size} from {src_dist:?}x{src_size} \
                 over {global} under {strategy:?}"
            );
        }
    }

    fn distribution(kind: u8, block: u64) -> Distribution {
        match kind {
            0 => Distribution::Block,
            1 => Distribution::Cyclic,
            _ => Distribution::BlockCyclic(block),
        }
    }

    fn strategy(zero_copy: bool) -> MarshalStrategy {
        if zero_copy {
            MarshalStrategy::ZeroCopy
        } else {
            MarshalStrategy::Copying
        }
    }

    proptest::proptest! {
        /// Full-path byte equality across random shapes, including
        /// degenerate ranks that own nothing, under both marshal
        /// strategies.
        #[test]
        fn redistributed_payloads_are_byte_identical(
            global in 0u64..220,
            src_size in 1usize..6,
            dst_size in 1usize..6,
            src_kind in 0u8..3,
            dst_kind in 0u8..3,
            src_bc in 1u64..7,
            dst_bc in 1u64..7,
            zero_copy: bool,
        ) {
            redistribution_case(
                global,
                (src_size, distribution(src_kind, src_bc)),
                (dst_size, distribution(dst_kind, dst_bc)),
                strategy(zero_copy),
            );
        }
    }

    /// Long mode of [`redistributed_payloads_are_byte_identical`]: 2 000
    /// cases over larger shapes, with block sizes from 1 to 600 elements
    /// so that pieces cross the zero-copy threshold, seeded from
    /// `CHAOS_SEED` (default 42).
    /// `cargo test -p padico-core --release -- --ignored redistributed`
    #[test]
    #[ignore = "long mode: random redistribution shapes"]
    fn redistributed_payloads_are_byte_identical_long() {
        let seed: u64 = std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        for case in 0..2_000u64 {
            let mut rng = proptest::TestRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case);
            let side = |rng: &mut proptest::TestRng| {
                let size = 1 + rng.below(8) as usize;
                let kind = rng.below(3) as u8;
                (size, distribution(kind, 1 + rng.below(600)))
            };
            let global = rng.below(6_000);
            let (src, dst) = (side(&mut rng), side(&mut rng));
            redistribution_case(global, src, dst, strategy(rng.below(2) == 1));
        }
    }
}
