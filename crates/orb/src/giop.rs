//! GIOP-style wire protocol.
//!
//! Each message is one VLink frame: a 12-byte header (`"GIOP"`, version,
//! flags, message type, body size) followed by a CDR body. The message
//! types of GIOP 1.2 that a working ORB needs are implemented; Fragment is
//! omitted because VLink frames are unbounded (noted divergence).

use bytes::Bytes;
use padico_fabric::Payload;

use crate::cdr::{CdrReader, CdrWriter};
use crate::error::OrbError;
use crate::ior::ObjectKey;
use crate::profile::MarshalStrategy;

/// GIOP magic bytes.
pub const MAGIC: &[u8; 4] = b"GIOP";
/// Protocol version encoded in headers (GIOP 1.2).
pub const VERSION: (u8, u8) = (1, 2);
/// Flags byte: bit 0 set = little-endian.
pub const FLAG_LITTLE_ENDIAN: u8 = 0x01;

/// GIOP message types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgType {
    Request = 0,
    Reply = 1,
    CancelRequest = 2,
    LocateRequest = 3,
    LocateReply = 4,
    CloseConnection = 5,
    MessageError = 6,
}

impl MsgType {
    fn from_u8(v: u8) -> Result<MsgType, OrbError> {
        Ok(match v {
            0 => MsgType::Request,
            1 => MsgType::Reply,
            2 => MsgType::CancelRequest,
            3 => MsgType::LocateRequest,
            4 => MsgType::LocateReply,
            5 => MsgType::CloseConnection,
            6 => MsgType::MessageError,
            other => return Err(OrbError::Marshal(format!("unknown GIOP type {other}"))),
        })
    }
}

/// Reply status codes (subset of GIOP's ReplyStatusType, plus two
/// overload-protection statuses this ORB adds beyond GIOP 1.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplyStatus {
    NoException = 0,
    UserException = 1,
    SystemException = 2,
    /// The server load-shed the request before dispatch (admission
    /// budget exhausted). The client classifies it retryable.
    Transient = 3,
    /// The request's propagated deadline had already expired when the
    /// server looked at it; dispatch was short-circuited. NOT retryable:
    /// the budget is gone, retrying cannot beat an expired deadline.
    DeadlineExceeded = 4,
}

impl ReplyStatus {
    fn from_u32(v: u32) -> Result<ReplyStatus, OrbError> {
        Ok(match v {
            0 => ReplyStatus::NoException,
            1 => ReplyStatus::UserException,
            2 => ReplyStatus::SystemException,
            3 => ReplyStatus::Transient,
            4 => ReplyStatus::DeadlineExceeded,
            other => return Err(OrbError::Marshal(format!("unknown reply status {other}"))),
        })
    }
}

/// Locate status codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LocateStatus {
    UnknownObject = 0,
    ObjectHere = 1,
}

/// One decoded GIOP message.
#[derive(Debug)]
pub enum GiopMessage {
    Request {
        request_id: u32,
        response_expected: bool,
        object_key: ObjectKey,
        operation: String,
        /// Trace id of the caller's span tree (service context); 0 when
        /// the caller is not traced.
        trace_id: u64,
        /// Span id of the caller's in-flight request span; 0 when untraced.
        parent_span: u64,
        /// Absolute virtual-time deadline of the whole invocation
        /// (service context); 0 when the caller propagates none. The
        /// server checks remaining budget against its own clock before
        /// dispatching.
        deadline: u64,
        /// CDR-encoded arguments, still the sender's gather list.
        body: Payload,
    },
    Reply {
        request_id: u32,
        status: ReplyStatus,
        /// CDR-encoded results or exception, still the sender's gather list.
        body: Payload,
    },
    CancelRequest {
        request_id: u32,
    },
    LocateRequest {
        request_id: u32,
        object_key: ObjectKey,
    },
    LocateReply {
        request_id: u32,
        status: LocateStatus,
    },
    CloseConnection,
    MessageError,
}

fn header(msg_type: MsgType, body_len: usize) -> Bytes {
    let mut h = Vec::with_capacity(12);
    h.extend_from_slice(MAGIC);
    h.push(VERSION.0);
    h.push(VERSION.1);
    h.push(FLAG_LITTLE_ENDIAN);
    h.push(msg_type as u8);
    h.extend_from_slice(&(body_len as u32).to_le_bytes());
    Bytes::from(h)
}

/// Frame a Request. `args` is the already-CDR-encoded argument payload —
/// appended as segments, so a zero-copy marshaller's splices survive all
/// the way to the fabric. `trace_id`/`parent_span` carry the caller's
/// span context (the GIOP service-context equivalent); pass 0/0 for an
/// untraced request. `deadline` is the invocation's absolute virtual-time
/// deadline (0 = none).
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
    let mut head = CdrWriter::new(MarshalStrategy::Copying);
    head.write_u32(request_id);
    head.write_bool(response_expected);
    head.write_u64(object_key.0);
    head.write_string(operation);
    head.write_u64(trace_id);
    head.write_u64(parent_span);
    head.write_u64(deadline);
    // Align the body start to 8 so argument encoding is self-consistent
    // regardless of the operation-name length.
    head.write_u64(args.len() as u64);
    let head_payload = head.finish();

    let mut out = Payload::new();
    out.push_segment(header(MsgType::Request, head_payload.len() + args.len()));
    out.append(head_payload);
    out.append(args);
    out
}

/// Frame a Reply.
pub fn encode_reply(request_id: u32, status: ReplyStatus, body: Payload) -> Payload {
    let mut head = CdrWriter::new(MarshalStrategy::Copying);
    head.write_u32(request_id);
    head.write_u32(status as u32);
    head.write_u64(body.len() as u64);
    let head_payload = head.finish();
    let mut out = Payload::new();
    out.push_segment(header(MsgType::Reply, head_payload.len() + body.len()));
    out.append(head_payload);
    out.append(body);
    out
}

/// Frame a LocateRequest.
pub fn encode_locate_request(request_id: u32, object_key: ObjectKey) -> Payload {
    let mut head = CdrWriter::new(MarshalStrategy::Copying);
    head.write_u32(request_id);
    head.write_u64(object_key.0);
    let head_payload = head.finish();
    let mut out = Payload::new();
    out.push_segment(header(MsgType::LocateRequest, head_payload.len()));
    out.append(head_payload);
    out
}

/// Frame a LocateReply.
pub fn encode_locate_reply(request_id: u32, status: LocateStatus) -> Payload {
    let mut head = CdrWriter::new(MarshalStrategy::Copying);
    head.write_u32(request_id);
    head.write_u32(status as u32);
    let head_payload = head.finish();
    let mut out = Payload::new();
    out.push_segment(header(MsgType::LocateReply, head_payload.len()));
    out.append(head_payload);
    out
}

/// Frame a CancelRequest.
pub fn encode_cancel(request_id: u32) -> Payload {
    let mut head = CdrWriter::new(MarshalStrategy::Copying);
    head.write_u32(request_id);
    let head_payload = head.finish();
    let mut out = Payload::new();
    out.push_segment(header(MsgType::CancelRequest, head_payload.len()));
    out.append(head_payload);
    out
}

/// Frame a CloseConnection.
pub fn encode_close() -> Payload {
    Payload::from_bytes(header(MsgType::CloseConnection, 0))
}

/// Frame a MessageError.
pub fn encode_message_error() -> Payload {
    Payload::from_bytes(header(MsgType::MessageError, 0))
}

/// Decode one framed message.
///
/// Splits the frame along its gather list: the 12-byte header (its own
/// segment on the encode side, so this is free), then the CDR head
/// fields, then the argument/result body — which stays the sender's
/// segments untouched.
pub fn decode(frame: &Payload) -> Result<GiopMessage, OrbError> {
    if frame.len() < 12 {
        return Err(OrbError::Marshal("GIOP frame shorter than header".into()));
    }
    let (head, rest) = frame.split_at(12);
    let whole = head.to_contiguous();
    if &whole[0..4] != MAGIC {
        return Err(OrbError::Marshal("bad GIOP magic".into()));
    }
    if whole[4] != VERSION.0 {
        return Err(OrbError::Marshal(format!(
            "unsupported GIOP major version {}",
            whole[4]
        )));
    }
    if whole[6] & FLAG_LITTLE_ENDIAN == 0 {
        return Err(OrbError::Marshal(
            "big-endian GIOP not supported by this ORB".into(),
        ));
    }
    let msg_type = MsgType::from_u8(whole[7])?;
    let body_len = u32::from_le_bytes(whole[8..12].try_into().expect("4")) as usize;
    if rest.len() != body_len {
        return Err(OrbError::Marshal(format!(
            "GIOP size mismatch: header says {body_len}, frame has {}",
            rest.len()
        )));
    }
    let mut r = CdrReader::new(&rest);
    match msg_type {
        MsgType::Request => {
            let request_id = r.read_u32()?;
            let response_expected = r.read_bool()?;
            let object_key = ObjectKey(r.read_u64()?);
            let operation = r.read_string()?;
            let trace_id = r.read_u64()?;
            let parent_span = r.read_u64()?;
            let deadline = r.read_u64()?;
            let args_len = r.read_u64()? as usize;
            let consumed = rest.len() - r.remaining();
            if r.remaining() != args_len {
                return Err(OrbError::Marshal(format!(
                    "request args length mismatch: declared {args_len}, have {}",
                    r.remaining()
                )));
            }
            Ok(GiopMessage::Request {
                request_id,
                response_expected,
                object_key,
                operation,
                trace_id,
                parent_span,
                deadline,
                body: rest.split_at(consumed).1,
            })
        }
        MsgType::Reply => {
            let request_id = r.read_u32()?;
            let status = ReplyStatus::from_u32(r.read_u32()?)?;
            let body_len = r.read_u64()? as usize;
            let consumed = rest.len() - r.remaining();
            if r.remaining() != body_len {
                return Err(OrbError::Marshal("reply body length mismatch".into()));
            }
            Ok(GiopMessage::Reply {
                request_id,
                status,
                body: rest.split_at(consumed).1,
            })
        }
        MsgType::CancelRequest => Ok(GiopMessage::CancelRequest {
            request_id: r.read_u32()?,
        }),
        MsgType::LocateRequest => Ok(GiopMessage::LocateRequest {
            request_id: r.read_u32()?,
            object_key: ObjectKey(r.read_u64()?),
        }),
        MsgType::LocateReply => {
            let request_id = r.read_u32()?;
            let status = match r.read_u32()? {
                0 => LocateStatus::UnknownObject,
                1 => LocateStatus::ObjectHere,
                other => return Err(OrbError::Marshal(format!("unknown locate status {other}"))),
            };
            Ok(GiopMessage::LocateReply { request_id, status })
        }
        MsgType::CloseConnection => Ok(GiopMessage::CloseConnection),
        MsgType::MessageError => Ok(GiopMessage::MessageError),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_preserves_zero_copy_args() {
        let blob = Bytes::from(vec![3u8; 4096]);
        let blob_ptr = blob.as_ptr();
        let mut args = CdrWriter::new(MarshalStrategy::ZeroCopy);
        args.write_octet_seq(blob);
        let frame = encode_request(
            42,
            true,
            ObjectKey(7),
            "compute_density",
            0xfeed,
            0xbeef,
            0xdead_1111,
            args.finish(),
        );
        assert!(frame.segment_count() > 1, "splice survives framing");
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
                assert_eq!(request_id, 42);
                assert!(response_expected);
                assert_eq!(object_key, ObjectKey(7));
                assert_eq!(operation, "compute_density");
                assert_eq!(trace_id, 0xfeed);
                assert_eq!(parent_span, 0xbeef);
                assert_eq!(deadline, 0xdead_1111);
                let mut r = CdrReader::new(&body);
                let seq = r.read_octet_seq().unwrap();
                assert_eq!(seq, Bytes::from(vec![3u8; 4096]));
                assert_eq!(
                    seq.as_ptr(),
                    blob_ptr,
                    "decoded args must alias the caller's splice"
                );
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn reply_roundtrip_all_statuses() {
        for status in [
            ReplyStatus::NoException,
            ReplyStatus::UserException,
            ReplyStatus::SystemException,
            ReplyStatus::Transient,
            ReplyStatus::DeadlineExceeded,
        ] {
            let mut body = CdrWriter::new(MarshalStrategy::Copying);
            body.write_i32(-5);
            let frame = encode_reply(9, status, body.finish());
            match decode(&frame).unwrap() {
                GiopMessage::Reply {
                    request_id,
                    status: got,
                    body,
                } => {
                    assert_eq!(request_id, 9);
                    assert_eq!(got, status);
                    let mut r = CdrReader::new(&body);
                    assert_eq!(r.read_i32().unwrap(), -5);
                }
                other => panic!("wrong message: {other:?}"),
            }
        }
    }

    #[test]
    fn locate_and_control_messages() {
        match decode(&encode_locate_request(1, ObjectKey(88))).unwrap() {
            GiopMessage::LocateRequest {
                request_id,
                object_key,
            } => {
                assert_eq!((request_id, object_key), (1, ObjectKey(88)));
            }
            other => panic!("{other:?}"),
        }
        match decode(&encode_locate_reply(1, LocateStatus::ObjectHere)).unwrap() {
            GiopMessage::LocateReply { status, .. } => {
                assert_eq!(status, LocateStatus::ObjectHere)
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            decode(&encode_cancel(33)).unwrap(),
            GiopMessage::CancelRequest { request_id: 33 }
        ));
        assert!(matches!(
            decode(&encode_close()).unwrap(),
            GiopMessage::CloseConnection
        ));
        assert!(matches!(
            decode(&encode_message_error()).unwrap(),
            GiopMessage::MessageError
        ));
    }

    #[test]
    fn malformed_frames_rejected() {
        // Too short.
        assert!(decode(&Payload::from_vec(vec![1, 2, 3])).is_err());
        // Bad magic.
        let mut bad = encode_close().to_vec();
        bad[0] = b'X';
        assert!(decode(&Payload::from_vec(bad)).is_err());
        // Size mismatch.
        let mut truncated = encode_cancel(1).to_vec();
        truncated.pop();
        assert!(decode(&Payload::from_vec(truncated)).is_err());
        // Big-endian flag.
        let mut be = encode_close().to_vec();
        be[6] = 0;
        assert!(decode(&Payload::from_vec(be)).is_err());
        // Unknown message type.
        let mut unk = encode_close().to_vec();
        unk[7] = 99;
        assert!(decode(&Payload::from_vec(unk)).is_err());
    }
}
