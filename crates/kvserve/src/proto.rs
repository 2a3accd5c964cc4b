//! Wire protocol: length-prefixed binary frames.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload. Requests are fixed 26 bytes:
//!
//! ```text
//! [ver: u8 = 1][op: u8][client_id: u64 LE][op_seq: u64 LE][arg: u64 LE]
//! ```
//!
//! Responses are fixed 18 bytes:
//!
//! ```text
//! [ver: u8 = 1][status: u8][op_seq: u64 LE][value: u64 LE]
//! ```
//!
//! `value` carries the engine's encoded result word verbatim
//! ([`isb::engine`]): `RES_TRUE`/`RES_FALSE` for map operations, `RES_UNIT`
//! for enqueue, `RES_EMPTY` or `RES_VAL_BASE + v` for dequeue. Replaying a
//! stored response therefore reproduces the original acknowledgement
//! byte-for-byte.
//!
//! Robustness contract: every malformed input a peer can send — truncated
//! frames, oversized or zero length prefixes, unknown opcodes, garbage
//! bytes — maps to a typed [`Status`] answered on the wire (when a length
//! prefix arrived at all) or a clean connection close (torn prefix). The
//! parser never panics and never reads past validated bounds.

use std::io::{self, Read};

/// Protocol version stamped in every frame.
pub const VERSION: u8 = 1;
/// Upper bound on accepted payload lengths. Requests are 26 bytes; anything
/// beyond this is garbage and answered [`Status::Oversized`].
pub const MAX_FRAME: usize = 1024;
/// Request payload size.
pub const REQ_BYTES: usize = 26;
/// Response payload size.
pub const RESP_BYTES: usize = 18;

/// Operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Insert `arg` as a key into the hash map → `RES_TRUE`/`RES_FALSE`.
    Put = 1,
    /// Delete key `arg` from the hash map → `RES_TRUE`/`RES_FALSE`.
    Del = 2,
    /// Membership query for key `arg` → `RES_TRUE`/`RES_FALSE`.
    Get = 3,
    /// Enqueue value `arg` → `RES_UNIT`.
    Enq = 4,
    /// Dequeue (`arg` ignored) → `RES_EMPTY` or `RES_VAL_BASE + v`.
    Deq = 5,
}

impl OpCode {
    /// Decodes a wire opcode.
    pub fn from_u8(b: u8) -> Option<OpCode> {
        Some(match b {
            1 => OpCode::Put,
            2 => OpCode::Del,
            3 => OpCode::Get,
            4 => OpCode::Enq,
            5 => OpCode::Deq,
            _ => return None,
        })
    }
}

/// A parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The operation.
    pub op: OpCode,
    /// Client identity (nonzero, below `u64::MAX`; owns one
    /// response-table slot).
    pub client_id: u64,
    /// Per-client sequence number; must be `last_acked` (retry) or
    /// `last_acked + 1` (fresh).
    pub op_seq: u64,
    /// Key (map ops) or value (enqueue); ignored by dequeue.
    pub arg: u64,
}

/// Typed response status. Everything except [`Status::Ok`] is a protocol
/// error the server answers instead of panicking or closing silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success; `value` is the encoded result.
    Ok = 0,
    /// Unknown protocol version byte (fatal: the stream is untrusted).
    BadVersion = 1,
    /// Payload length is zero or not a request's size (fatal).
    BadLength = 2,
    /// Unrecognized opcode (non-fatal; the frame was well-formed).
    UnknownOp = 3,
    /// `client_id` 0 and `u64::MAX` are reserved (non-fatal).
    BadClientId = 4,
    /// `op_seq` is below the client's ack watermark: that response was
    /// already delivered and reclaimed (non-fatal).
    StaleSeq = 5,
    /// `op_seq` skips ahead of the watermark by more than one (non-fatal).
    SeqGap = 6,
    /// The response table has no free client slots (non-fatal).
    TableFull = 7,
    /// The client's previous request died with a server process whose
    /// recovery has not resolved it yet; retry shortly (non-fatal).
    Recovering = 8,
    /// Length prefix exceeds [`MAX_FRAME`] (fatal: framing lost).
    Oversized = 9,
    /// A map key outside `[1, MAX_KEY)` ([`isb::hashmap::MAX_KEY`]) or an
    /// enqueued value of at least [`isb::queue::MAX_VALUE`] (non-fatal;
    /// rejected before any durable step).
    BadKey = 10,
}

impl Status {
    /// Decodes a wire status byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        Some(match b {
            0 => Status::Ok,
            1 => Status::BadVersion,
            2 => Status::BadLength,
            3 => Status::UnknownOp,
            4 => Status::BadClientId,
            5 => Status::StaleSeq,
            6 => Status::SeqGap,
            7 => Status::TableFull,
            8 => Status::Recovering,
            9 => Status::Oversized,
            10 => Status::BadKey,
            _ => return None,
        })
    }

    /// `true` when the error leaves the byte stream unsynchronized — the
    /// server answers it and then closes the connection.
    pub fn is_fatal(self) -> bool {
        matches!(self, Status::BadVersion | Status::BadLength | Status::Oversized)
    }
}

/// A response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Outcome.
    pub status: Status,
    /// Echo of the request's sequence number (0 when no request parsed).
    pub op_seq: u64,
    /// Encoded result word (0 unless [`Status::Ok`]).
    pub value: u64,
}

impl Response {
    /// An error response carrying no result.
    pub fn err(status: Status, op_seq: u64) -> Response {
        Response { status, op_seq, value: 0 }
    }
}

/// Encodes a request as a complete frame (prefix + payload).
pub fn encode_request(req: &Request) -> [u8; 4 + REQ_BYTES] {
    let mut f = [0u8; 4 + REQ_BYTES];
    f[..4].copy_from_slice(&(REQ_BYTES as u32).to_le_bytes());
    f[4] = VERSION;
    f[5] = req.op as u8;
    f[6..14].copy_from_slice(&req.client_id.to_le_bytes());
    f[14..22].copy_from_slice(&req.op_seq.to_le_bytes());
    f[22..30].copy_from_slice(&req.arg.to_le_bytes());
    f
}

/// Encodes a response as a complete frame (prefix + payload).
pub fn encode_response(resp: &Response) -> [u8; 4 + RESP_BYTES] {
    let mut f = [0u8; 4 + RESP_BYTES];
    f[..4].copy_from_slice(&(RESP_BYTES as u32).to_le_bytes());
    f[4] = VERSION;
    f[5] = resp.status as u8;
    f[6..14].copy_from_slice(&resp.op_seq.to_le_bytes());
    f[14..22].copy_from_slice(&resp.value.to_le_bytes());
    f
}

fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

/// Parses a request payload. Every rejection is a typed [`Status`].
pub fn parse_request(payload: &[u8]) -> Result<Request, Status> {
    if payload.len() != REQ_BYTES {
        return Err(Status::BadLength);
    }
    if payload[0] != VERSION {
        return Err(Status::BadVersion);
    }
    let Some(op) = OpCode::from_u8(payload[1]) else {
        return Err(Status::UnknownOp);
    };
    let client_id = u64_at(payload, 2);
    // 0 is "no client"; u64::MAX is the response table's tombstone.
    if client_id == 0 || client_id == u64::MAX {
        return Err(Status::BadClientId);
    }
    Ok(Request { op, client_id, op_seq: u64_at(payload, 10), arg: u64_at(payload, 18) })
}

/// Range check of a parsed request's argument against the structure it
/// targets: a map key must lie in `[1, MAX_KEY)`, an enqueued value below
/// [`isb::queue::MAX_VALUE`] ([`Status::BadKey`] otherwise). The server runs
/// it before any durable step; the structures assert the same ranges.
pub fn check_arg(req: &Request) -> Result<(), Status> {
    let ok = match req.op {
        OpCode::Put | OpCode::Del | OpCode::Get => req.arg != 0 && req.arg < isb::hashmap::MAX_KEY,
        OpCode::Enq => req.arg < isb::queue::MAX_VALUE,
        OpCode::Deq => true, // argument ignored
    };
    if ok {
        Ok(())
    } else {
        Err(Status::BadKey)
    }
}

/// Parses a response payload (client side).
pub fn parse_response(payload: &[u8]) -> Result<Response, Status> {
    if payload.len() != RESP_BYTES {
        return Err(Status::BadLength);
    }
    if payload[0] != VERSION {
        return Err(Status::BadVersion);
    }
    let Some(status) = Status::from_u8(payload[1]) else {
        return Err(Status::BadVersion);
    };
    Ok(Response { status, op_seq: u64_at(payload, 2), value: u64_at(payload, 10) })
}

/// What [`read_frame`] produced.
#[derive(Debug)]
pub enum Frame {
    /// A complete payload of in-bounds length (content not yet validated).
    Payload(Vec<u8>),
    /// The length prefix itself was unusable; the payload was **not** read
    /// (it cannot be trusted). Answer the status and close.
    Bad(Status),
}

/// Reads one frame. `Ok(None)` on clean EOF at a frame boundary or when
/// `stop()` turns true while waiting; `Err` on torn prefixes/payloads and
/// transport errors. Timeout-typed I/O errors (`WouldBlock`/`TimedOut`) are
/// retried internally so callers can use read timeouts as a stop poll.
pub fn read_frame(r: &mut impl Read, stop: &dyn Fn() -> bool) -> io::Result<Option<Frame>> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None) // clean close between frames
                } else {
                    Err(io::Error::new(io::ErrorKind::UnexpectedEof, "torn length prefix"))
                };
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if stop() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 {
        return Ok(Some(Frame::Bad(Status::BadLength)));
    }
    if len > MAX_FRAME {
        return Ok(Some(Frame::Bad(Status::Oversized)));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "torn payload"));
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if stop() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Some(Frame::Payload(payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request { op: OpCode::Put, client_id: 7, op_seq: 3, arg: 99 };
        let f = encode_request(&req);
        assert_eq!(u32::from_le_bytes(f[..4].try_into().unwrap()) as usize, REQ_BYTES);
        assert_eq!(parse_request(&f[4..]), Ok(req));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response { status: Status::Ok, op_seq: 9, value: 1234 };
        let f = encode_response(&resp);
        assert_eq!(parse_response(&f[4..]), Ok(resp));
    }

    #[test]
    fn rejects_are_typed() {
        assert_eq!(parse_request(&[]), Err(Status::BadLength));
        assert_eq!(parse_request(&[0u8; REQ_BYTES + 1]), Err(Status::BadLength));
        let mut p = encode_request(&Request { op: OpCode::Get, client_id: 1, op_seq: 1, arg: 0 });
        p[4] = 99; // version
        assert_eq!(parse_request(&p[4..]), Err(Status::BadVersion));
        let mut p = encode_request(&Request { op: OpCode::Get, client_id: 1, op_seq: 1, arg: 0 });
        p[5] = 200; // opcode
        assert_eq!(parse_request(&p[4..]), Err(Status::UnknownOp));
        let p = encode_request(&Request { op: OpCode::Get, client_id: 0, op_seq: 1, arg: 0 });
        assert_eq!(parse_request(&p[4..]), Err(Status::BadClientId));
        let p =
            encode_request(&Request { op: OpCode::Put, client_id: u64::MAX, op_seq: 1, arg: 0 });
        assert_eq!(parse_request(&p[4..]), Err(Status::BadClientId));
        for (op, arg) in [
            (OpCode::Put, 0),
            (OpCode::Put, u64::MAX),
            (OpCode::Del, isb::hashmap::MAX_KEY),
            (OpCode::Get, 0),
            (OpCode::Enq, isb::queue::MAX_VALUE),
            (OpCode::Enq, u64::MAX),
        ] {
            let req = Request { op, client_id: 1, op_seq: 1, arg };
            assert_eq!(check_arg(&req), Err(Status::BadKey), "{op:?}({arg})");
        }
        for (op, arg) in [
            (OpCode::Put, isb::hashmap::MAX_KEY - 1),
            (OpCode::Enq, 0),
            (OpCode::Enq, isb::queue::MAX_VALUE - 1),
            (OpCode::Deq, u64::MAX),
        ] {
            let req = Request { op, client_id: 1, op_seq: 1, arg };
            assert_eq!(check_arg(&req), Ok(()), "{op:?}({arg})");
        }
    }

    #[test]
    fn read_frame_flags_bad_prefixes() {
        let stop = || false;
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty, &stop), Ok(None)));
        let mut torn: &[u8] = &[1, 0];
        assert!(read_frame(&mut torn, &stop).is_err());
        let mut zero: &[u8] = &0u32.to_le_bytes()[..];
        assert!(matches!(read_frame(&mut zero, &stop), Ok(Some(Frame::Bad(Status::BadLength)))));
        let mut big: &[u8] = &(MAX_FRAME as u32 + 1).to_le_bytes()[..];
        assert!(matches!(read_frame(&mut big, &stop), Ok(Some(Frame::Bad(Status::Oversized)))));
        let mut torn_payload: Vec<u8> = 10u32.to_le_bytes().to_vec();
        torn_payload.extend_from_slice(&[1, 2, 3]);
        assert!(read_frame(&mut torn_payload.as_slice(), &stop).is_err());
    }
}
