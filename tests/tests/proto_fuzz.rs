//! Protocol fuzzing for the KV service wire format (satellite of the
//! exactly-once conformance suite).
//!
//! Two layers:
//!
//! * **Parser properties** — `parse_request`/`read_frame` over arbitrary
//!   byte soup: typed errors only, never a panic, never a read past the
//!   validated length, and encode/parse round-trips are lossless.
//! * **Live-socket fuzz** — a shared in-process [`kvserve::Server`] is fed
//!   adversarial streams (garbage bytes, torn length prefixes, truncated
//!   payloads, oversized prefixes, unknown opcodes, wrong versions, zero
//!   client IDs). Every case asserts the *wedge-freedom* invariant: after
//!   the hostile connection, a well-formed request on a fresh connection
//!   still succeeds, so one bad client can never take the service down.

use kvserve::proto::{
    check_arg, encode_request, parse_request, read_frame, Frame, OpCode, Request, Status,
    MAX_FRAME, REQ_BYTES,
};
use kvserve::{Config, Server};
use proptest::prelude::*;
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Parser properties (no server)
// ---------------------------------------------------------------------------

/// Requests over every nonzero `client_id`. A uniform draw would never hit
/// the reserved `u64::MAX`, so a quarter of the cases land on it.
fn arb_request() -> impl Strategy<Value = Request> {
    let client_id =
        (0..4u8, 1..=u64::MAX).prop_map(|(edge, id)| if edge == 0 { u64::MAX } else { id });
    // Half the arguments sit on a validation edge: 0, the map's key bound,
    // the queue's value bound, or u64::MAX (each ± 1 where it exists).
    let edges = [
        0,
        1,
        isb::hashmap::MAX_KEY - 1,
        isb::hashmap::MAX_KEY,
        isb::queue::MAX_VALUE - 1,
        isb::queue::MAX_VALUE,
        u64::MAX,
    ];
    let arg = (0..2 * edges.len(), any::<u64>()).prop_map(move |(pick, v)| {
        if pick < edges.len() {
            edges[pick]
        } else {
            v
        }
    });
    (1..=5u8, client_id, any::<u64>(), arg).prop_map(|(op, client_id, op_seq, arg)| Request {
        op: OpCode::from_u8(op).unwrap(),
        client_id,
        op_seq,
        arg,
    })
}

/// What the server's admission (`parse_request`, then `check_arg`) must
/// answer for a well-framed `req`.
fn expected_admission(req: &Request) -> Result<Request, Status> {
    let arg_ok = match req.op {
        OpCode::Put | OpCode::Del | OpCode::Get => req.arg != 0 && req.arg < isb::hashmap::MAX_KEY,
        OpCode::Enq => req.arg < isb::queue::MAX_VALUE,
        OpCode::Deq => true,
    };
    if req.client_id == u64::MAX {
        Err(Status::BadClientId)
    } else if !arg_ok {
        Err(Status::BadKey)
    } else {
        Ok(*req)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary payload bytes: `parse_request` answers a typed status or a
    /// request — it never panics, and success implies a perfectly
    /// well-formed frame (re-encoding reproduces the input).
    #[test]
    fn parse_request_total(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        match parse_request(&bytes) {
            Ok(req) => {
                let frame = encode_request(&req);
                // Strip the length prefix: parse_request sees payloads.
                prop_assert_eq!(&frame[4..], &bytes[..]);
            }
            Err(s) => prop_assert!(s != Status::Ok, "error path must carry an error status"),
        }
    }

    /// Encode → parse round-trip is lossless for every valid request; the
    /// reserved `client_id` `u64::MAX` gets its typed rejection.
    #[test]
    fn request_roundtrip(req in arb_request()) {
        let frame = encode_request(&req);
        prop_assert_eq!(frame.len(), 4 + REQ_BYTES);
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(len, REQ_BYTES);
        let admitted = parse_request(&frame[4..]).and_then(|r| check_arg(&r).map(|()| r));
        prop_assert_eq!(admitted, expected_admission(&req));
    }

    /// `read_frame` over arbitrary byte streams: every outcome is a typed
    /// frame, a clean end-of-stream, or an I/O error — never a panic, and
    /// `Oversized`/`BadLength` surface without consuming unbounded memory.
    #[test]
    fn read_frame_total(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let mut cur = Cursor::new(bytes);
        for _ in 0..32 {
            match read_frame(&mut cur, &|| false) {
                Ok(Some(Frame::Payload(p))) => prop_assert!(p.len() <= MAX_FRAME && !p.is_empty()),
                Ok(Some(Frame::Bad(s))) => {
                    prop_assert!(matches!(s, Status::BadLength | Status::Oversized));
                    break; // framing is lost; a server closes here
                }
                Ok(None) | Err(_) => break,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Live-socket fuzz
// ---------------------------------------------------------------------------

/// One shared server for every socket case (leaked for the binary's
/// lifetime; each case talks over its own connections).
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("isb_proto_fuzz_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = Config::new(dir.join("kv.heap"));
        cfg.heap_bytes = 8 << 20;
        cfg.shards = 4;
        cfg.workers = 2;
        let server = Server::start(cfg).expect("fuzz server start");
        let addr = server.local_addr();
        std::mem::forget(server);
        addr
    })
}

fn fuzz_conn() -> TcpStream {
    let s = TcpStream::connect(server_addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// Reads whatever the server answers until it closes or pauses; only used
/// to make sure replies to hostile input are themselves well-framed.
fn drain_replies(s: &mut TcpStream) -> Vec<Frame> {
    let mut out = Vec::new();
    s.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
    loop {
        match read_frame(s, &|| false) {
            Ok(Some(f)) => out.push(f),
            Ok(None) | Err(_) => return out,
        }
    }
}

/// The wedge-freedom probe: a fresh connection with a well-formed request
/// must still get `Status::Ok`. Distinct client IDs per probe keep the
/// sequence discipline trivial.
fn assert_alive() {
    static NEXT_PROBE: AtomicU64 = AtomicU64::new(1 << 32);
    let id = NEXT_PROBE.fetch_add(1, Ordering::Relaxed);
    let mut c = kvserve::KvClient::connect(server_addr(), id).expect("probe connect");
    assert!(c.put(id).expect("probe put"), "fresh key must insert");
}

/// Builds a hostile byte stream from a strategy-chosen shape.
fn hostile_stream(kind: u8, blob: &[u8], len32: u32) -> Vec<u8> {
    let mut bytes = Vec::new();
    match kind % 6 {
        // Raw garbage: whatever the strategy produced, verbatim.
        0 => bytes.extend_from_slice(blob),
        // Torn length prefix: fewer than 4 bytes, then EOF.
        1 => bytes.extend_from_slice(&len32.to_le_bytes()[..(blob.len() % 4)]),
        // Truncated payload: honest prefix, missing tail.
        2 => {
            let claim = (blob.len() as u32).saturating_add(1 + len32 % 64);
            bytes.extend_from_slice(&claim.min(MAX_FRAME as u32).to_le_bytes());
            bytes.extend_from_slice(blob);
        }
        // Oversized prefix: the server must answer `Oversized` and close
        // without ever allocating the claimed length.
        3 => {
            let claim = (MAX_FRAME as u32 + 1).saturating_add(len32);
            bytes.extend_from_slice(&claim.to_le_bytes());
            bytes.extend_from_slice(blob);
        }
        // Well-framed garbage payload (wrong size / version / opcode).
        4 => {
            bytes.extend_from_slice(&(blob.len() as u32).to_le_bytes());
            bytes.extend_from_slice(blob);
        }
        // Valid framing, hostile fields: version/opcode/client_id from the
        // blob, so `BadVersion`/`UnknownOp`/`BadClientId` all get hit.
        _ => {
            let mut payload = [0u8; REQ_BYTES];
            for (i, b) in blob.iter().take(REQ_BYTES).enumerate() {
                payload[i] = *b;
            }
            bytes.extend_from_slice(&(REQ_BYTES as u32).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Hostile streams against the live server: replies (if any) are
    /// well-framed typed errors, the connection ends cleanly, and the
    /// server keeps serving well-formed clients afterwards.
    #[test]
    fn live_server_survives_garbage(
        kind in any::<u8>(),
        blob in prop::collection::vec(any::<u8>(), 0..80),
        len32 in any::<u32>(),
    ) {
        let bytes = hostile_stream(kind, &blob, len32);
        let mut s = fuzz_conn();
        // The server may close mid-write on fatal frames; that is a valid
        // outcome, not a failure.
        let _ = s.write_all(&bytes);
        let _ = s.flush();
        let _ = s.shutdown(std::net::Shutdown::Write);
        for f in drain_replies(&mut s) {
            match f {
                Frame::Payload(p) => {
                    // A hostile blob can (rarely) form a valid request, so
                    // `Ok` is legitimate — the invariant is well-formedness.
                    kvserve::proto::parse_response(&p)
                        .expect("server reply must be well-formed");
                }
                Frame::Bad(s) => prop_assert!(false, "malformed server reply: {s:?}"),
            }
        }
        assert_alive();
    }
}

/// Deterministic spot checks for each typed rejection (the proptest sweep
/// above covers the space; these pin the exact status per shape).
#[test]
fn typed_rejections_pinned() {
    let cases: &[(&[u8], Status)] = &[
        // Oversized length prefix.
        (&[0xff, 0xff, 0xff, 0xff], Status::Oversized),
        // Zero-length frame.
        (&[0, 0, 0, 0], Status::BadLength),
        // Well-framed but wrong payload size.
        (&[2, 0, 0, 0, 1, 1], Status::BadLength),
    ];
    for (bytes, want) in cases {
        let mut s = fuzz_conn();
        s.write_all(bytes).unwrap();
        s.flush().unwrap();
        let reply = read_frame(&mut s, &|| false).expect("reply").expect("frame");
        let Frame::Payload(p) = reply else { panic!("reply not a payload frame") };
        let resp = kvserve::proto::parse_response(&p).expect("well-formed reply");
        assert_eq!(resp.status, *want, "input {bytes:?}");
        // Fatal statuses close the stream.
        let mut rest = Vec::new();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.read_to_end(&mut rest).expect("clean close");
        assert!(rest.is_empty(), "no trailing bytes after fatal reply");
    }

    // Field-level rejections on well-framed requests (BadVersion is fatal,
    // the rest are not; each must come back as its exact typed status).
    let reqs: &[([u8; REQ_BYTES], Status)] = &[
        {
            let mut p = [0u8; REQ_BYTES];
            p[0] = 7; // bad version
            (p, Status::BadVersion)
        },
        {
            let mut p = [0u8; REQ_BYTES];
            p[0] = 1;
            p[1] = 200; // unknown opcode
            p[2] = 1; // nonzero client id
            (p, Status::UnknownOp)
        },
        {
            let mut p = [0u8; REQ_BYTES];
            p[0] = 1;
            p[1] = 3; // GET with client_id 0
            (p, Status::BadClientId)
        },
        {
            let mut p = [0u8; REQ_BYTES];
            p[0] = 1;
            p[1] = 1; // PUT with client_id u64::MAX (the response table's tombstone)
            p[2..10].copy_from_slice(&u64::MAX.to_le_bytes());
            p[10] = 1; // op_seq 1
            (p, Status::BadClientId)
        },
        {
            let mut p = [0u8; REQ_BYTES];
            p[0] = 1;
            p[1] = 1; // PUT(0): below the key range
            p[2] = 1;
            p[10] = 1;
            (p, Status::BadKey)
        },
        {
            let mut p = [0u8; REQ_BYTES];
            p[0] = 1;
            p[1] = 1; // PUT(u64::MAX): above the key range
            p[2] = 1;
            p[10] = 1;
            p[18..26].copy_from_slice(&u64::MAX.to_le_bytes());
            (p, Status::BadKey)
        },
        {
            let mut p = [0u8; REQ_BYTES];
            p[0] = 1;
            p[1] = 4; // ENQ of a value the dequeue response cannot encode
            p[2] = 1;
            p[10] = 1;
            p[18..26].copy_from_slice(&isb::queue::MAX_VALUE.to_le_bytes());
            (p, Status::BadKey)
        },
    ];
    for (payload, want) in reqs {
        let mut s = fuzz_conn();
        s.write_all(&(REQ_BYTES as u32).to_le_bytes()).unwrap();
        s.write_all(payload).unwrap();
        s.flush().unwrap();
        let reply = read_frame(&mut s, &|| false).expect("reply").expect("frame");
        let Frame::Payload(p) = reply else { panic!("reply not a payload frame") };
        let resp = kvserve::proto::parse_response(&p).expect("well-formed reply");
        assert_eq!(resp.status, *want);
    }
    assert_alive();
}
