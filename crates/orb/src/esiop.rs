//! ESIOP: an Environment-Specific Inter-ORB Protocol.
//!
//! The paper (§4.4) observes that omniORB's 20 µs latency "could be
//! lowered if we used a specific protocol (called ESIOP) instead of the
//! general GIOP protocol". This module is that specific protocol for the
//! Padico environment: a compact binary framing that drops GIOP's
//! magic/version negotiation and string-free fast-path header, cutting
//! the fixed per-request protocol work (modelled by
//! [`ESIOP_FIXED_COST_FACTOR`]).
//!
//! Frames are distinguishable from GIOP on the wire by their first byte
//! (`0xE5` vs `'G'`), so a server accepts both protocols on one endpoint
//! and a client chooses per connection.
//!
//! ```text
//! [0xE5][type:1][request_id:4][key:8][trace_id:8][parent_span:8]
//!       [deadline:8][op_len:2][op bytes][pad to 8][body …]           Request
//! [0xE5][type:1][request_id:4][status:1][body …]                     Reply
//! ```
//!
//! `trace_id`/`parent_span` carry the caller's span context (both 0 for
//! an untraced request) and `deadline` the invocation's absolute
//! virtual-time deadline (0 = none) — ESIOP has no service-context list,
//! so the three words live at fixed offsets in the head.

use bytes::Bytes;
use padico_fabric::Payload;

use crate::error::OrbError;
use crate::giop::{GiopMessage, ReplyStatus};
use crate::ior::ObjectKey;

/// First byte of every ESIOP frame.
pub const MAGIC: u8 = 0xE5;

/// Fraction of the GIOP fixed per-request protocol cost an ESIOP request
/// pays (no text header parsing, no version negotiation, fixed offsets).
pub const ESIOP_FIXED_COST_FACTOR: f64 = 0.6;

const TYPE_REQUEST: u8 = 0;
const TYPE_REQUEST_ONEWAY: u8 = 1;
const TYPE_REPLY: u8 = 2;

/// Frame a request. The argument payload is appended by reference, so
/// zero-copy splices survive. `deadline` is the invocation's absolute
/// virtual-time deadline (0 = none).
#[allow(clippy::too_many_arguments)]
pub fn encode_request(
    request_id: u32,
    response_expected: bool,
    object_key: ObjectKey,
    operation: &str,
    trace_id: u64,
    parent_span: u64,
    deadline: u64,
    args: Payload,
) -> Payload {
    debug_assert!(operation.len() <= u16::MAX as usize);
    let mut head = Vec::with_capacity(40 + operation.len());
    head.push(MAGIC);
    head.push(if response_expected {
        TYPE_REQUEST
    } else {
        TYPE_REQUEST_ONEWAY
    });
    head.extend_from_slice(&request_id.to_le_bytes());
    head.extend_from_slice(&object_key.0.to_le_bytes());
    head.extend_from_slice(&trace_id.to_le_bytes());
    head.extend_from_slice(&parent_span.to_le_bytes());
    head.extend_from_slice(&deadline.to_le_bytes());
    head.extend_from_slice(&(operation.len() as u16).to_le_bytes());
    head.extend_from_slice(operation.as_bytes());
    // Pad the head to 8 bytes so CDR argument alignment is preserved.
    while head.len() % 8 != 0 {
        head.push(0);
    }
    let mut out = Payload::new();
    out.push_segment(Bytes::from(head));
    out.append(args);
    out
}

/// Frame a reply.
pub fn encode_reply(request_id: u32, status: ReplyStatus, body: Payload) -> Payload {
    let mut head = Vec::with_capacity(8);
    head.push(MAGIC);
    head.push(TYPE_REPLY);
    head.extend_from_slice(&request_id.to_le_bytes());
    head.push(status as u8);
    head.push(0); // pad to 8
    let mut out = Payload::new();
    out.push_segment(Bytes::from(head));
    out.append(body);
    out
}

/// Whether a frame is ESIOP (vs GIOP, vs garbage).
pub fn is_esiop(first_byte: u8) -> bool {
    first_byte == MAGIC
}

/// Decode one ESIOP frame into the common message model.
///
/// The head is one segment on the encode side, so the head flattens here
/// are free slices; the body is split off the gather list untouched.
pub fn decode(frame: &Payload) -> Result<GiopMessage, OrbError> {
    let total = frame.len();
    if total < 6 {
        return Err(OrbError::Marshal("not an ESIOP frame".into()));
    }
    let prefix = frame.split_at(6).0.to_contiguous();
    if prefix[0] != MAGIC {
        return Err(OrbError::Marshal("not an ESIOP frame".into()));
    }
    let msg_type = prefix[1];
    let request_id = u32::from_le_bytes(prefix[2..6].try_into().expect("4"));
    match msg_type {
        TYPE_REQUEST | TYPE_REQUEST_ONEWAY => {
            if total < 40 {
                return Err(OrbError::Marshal("ESIOP request too short".into()));
            }
            let fixed = frame.split_at(40).0.to_contiguous();
            let object_key = ObjectKey(u64::from_le_bytes(fixed[6..14].try_into().expect("8")));
            let trace_id = u64::from_le_bytes(fixed[14..22].try_into().expect("8"));
            let parent_span = u64::from_le_bytes(fixed[22..30].try_into().expect("8"));
            let deadline = u64::from_le_bytes(fixed[30..38].try_into().expect("8"));
            let op_len = u16::from_le_bytes(fixed[38..40].try_into().expect("2")) as usize;
            if total < 40 + op_len {
                return Err(OrbError::Marshal("ESIOP operation overruns frame".into()));
            }
            let head = frame.split_at(40 + op_len).0.to_contiguous();
            let operation = std::str::from_utf8(&head[40..40 + op_len])
                .map_err(|_| OrbError::Marshal("ESIOP operation is not UTF-8".into()))?
                .to_string();
            let mut body_start = 40 + op_len;
            while !body_start.is_multiple_of(8) {
                body_start += 1;
            }
            if body_start > total {
                return Err(OrbError::Marshal("ESIOP padding overruns frame".into()));
            }
            Ok(GiopMessage::Request {
                request_id,
                response_expected: msg_type == TYPE_REQUEST,
                object_key,
                operation,
                trace_id,
                parent_span,
                deadline,
                body: frame.split_at(body_start).1,
            })
        }
        TYPE_REPLY => {
            if total < 8 {
                return Err(OrbError::Marshal("ESIOP reply too short".into()));
            }
            let head = frame.split_at(8).0.to_contiguous();
            let status = match head[6] {
                0 => ReplyStatus::NoException,
                1 => ReplyStatus::UserException,
                2 => ReplyStatus::SystemException,
                3 => ReplyStatus::Transient,
                4 => ReplyStatus::DeadlineExceeded,
                other => return Err(OrbError::Marshal(format!("bad ESIOP status {other}"))),
            };
            Ok(GiopMessage::Reply {
                request_id,
                status,
                body: frame.split_at(8).1,
            })
        }
        other => Err(OrbError::Marshal(format!("unknown ESIOP type {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::{CdrReader, CdrWriter};
    use crate::profile::MarshalStrategy;

    #[test]
    fn request_roundtrip_with_alignment() {
        let mut args = CdrWriter::new(MarshalStrategy::ZeroCopy);
        args.write_u64(0xdead_beef);
        args.write_octet_seq(Bytes::from(vec![7u8; 4096]));
        let frame = encode_request(
            9,
            true,
            ObjectKey(42),
            "density",
            0x1111,
            0x2222,
            0x3333,
            args.finish(),
        );
        assert!(is_esiop(frame.to_vec()[0]));
        match decode(&frame).unwrap() {
            GiopMessage::Request {
                request_id,
                response_expected,
                object_key,
                operation,
                trace_id,
                parent_span,
                deadline,
                body,
            } => {
                assert_eq!(request_id, 9);
                assert!(response_expected);
                assert_eq!(object_key, ObjectKey(42));
                assert_eq!(operation, "density");
                assert_eq!(trace_id, 0x1111);
                assert_eq!(parent_span, 0x2222);
                assert_eq!(deadline, 0x3333);
                let mut r = CdrReader::new(&body);
                assert_eq!(r.read_u64().unwrap(), 0xdead_beef);
                assert_eq!(r.read_octet_seq().unwrap(), Bytes::from(vec![7u8; 4096]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oneway_flag_and_reply_statuses() {
        let frame = encode_request(1, false, ObjectKey(1), "fire", 0, 0, 0, Payload::new());
        match decode(&frame).unwrap() {
            GiopMessage::Request {
                response_expected, ..
            } => assert!(!response_expected),
            other => panic!("{other:?}"),
        }
        for status in [
            ReplyStatus::NoException,
            ReplyStatus::UserException,
            ReplyStatus::SystemException,
            ReplyStatus::Transient,
            ReplyStatus::DeadlineExceeded,
        ] {
            let mut body = CdrWriter::new(MarshalStrategy::Copying);
            body.write_i32(5);
            let frame = encode_reply(7, status, body.finish());
            match decode(&frame).unwrap() {
                GiopMessage::Reply {
                    request_id,
                    status: got,
                    body,
                } => {
                    assert_eq!(request_id, 7);
                    assert_eq!(got, status);
                    let mut r = CdrReader::new(&body);
                    assert_eq!(r.read_i32().unwrap(), 5);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn esiop_header_is_smaller_than_giop() {
        let giop =
            crate::giop::encode_request(1, true, ObjectKey(1), "op", 0, 0, 0, Payload::new());
        let esiop = encode_request(1, true, ObjectKey(1), "op", 0, 0, 0, Payload::new());
        assert!(
            esiop.len() < giop.len(),
            "ESIOP head {} vs GIOP head {}",
            esiop.len(),
            giop.len()
        );
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(decode(&Payload::from_vec(vec![MAGIC])).is_err());
        assert!(decode(&Payload::from_vec(vec![0x47, 0, 0, 0, 0, 0])).is_err());
        assert!(decode(&Payload::from_vec(vec![MAGIC, 9, 0, 0, 0, 0, 0, 0])).is_err());
        // Truncated operation.
        let mut bad =
            encode_request(1, true, ObjectKey(1), "operation", 0, 0, 0, Payload::new()).to_vec();
        bad.truncate(42);
        assert!(decode(&Payload::from_vec(bad)).is_err());
    }
}
