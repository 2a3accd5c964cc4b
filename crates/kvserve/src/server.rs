//! The KV server: request lanes over a recoverable [`Store`].
//!
//! # Exactly-once request path
//!
//! Connections are accepted on a listener thread; each connection gets a
//! thread that parses frames and runs every request itself, inline, on one
//! of N **lanes** picked by `hash(client_id) % N`. A lane is one of the
//! paper's processes: a registered process slot (tid) plus a lock. The
//! connection thread takes the lane's lock, assumes the lane's tid (a
//! process is an id, not an OS thread — `nvm::tid` resurrects a crashed
//! process the same way), applies the request, releases the lane and
//! writes the response. One client always maps to one lane, across
//! connections too, so the lock makes the dedup check and the apply a
//! single sequence per client, and it keeps the paper's invariant of at
//! most one pending operation per process. The in-flight request is
//! tracked by the lane's per-process recovery slot *and* by the durable
//! op-ID intent record in the [`ResponseTable`].
//!
//! Order per request (see `isb::resptable` for the crash-window argument):
//! foreign-intent (failover) check → dedup check → `note_invocation`
//! (`CP_q := 0`, persisted) → durable intent record → structure op →
//! durable response finalize → intent clear → lane release → socket
//! acknowledgement. The foreign-intent check precedes even the dedup
//! read: a dead peer's healer writes the same client slot, and only the
//! observed absence of its intent proves the slot is quiescent.
//!
//! # Restart
//!
//! [`Server::start`] opens the store with the standard attach pipeline
//! (replay → scrub → census → sweep); `Store` resolves every in-flight
//! op-ID to Completed-with-response or Restart against the replay decisions
//! before the constructor returns, and only then does the server bind and
//! accept. In shared mode a healer thread additionally runs
//! [`Store::heal_peers`], so a SIGKILLed peer server's in-flight requests
//! resolve online while this process keeps serving; until that happens,
//! requests from the dead peer's clients are answered
//! [`Status::Recovering`] rather than risking a double apply.
//!
//! # Crash injection
//!
//! For the SIGKILL conformance suite the server self-kills (real `SIGKILL`
//! via [`nvm::die_sigkill`]) at a seeded request-path stage, configured by
//! environment: `ISB_KV_KILL_POINT` ∈ `accept|parse|invoke|preack|postack`
//! and `ISB_KV_KILL_AFTER=<n>` (the n-th hit of that point dies).

use crate::proto::{
    check_arg, encode_response, parse_request, read_frame, Frame, OpCode, Request, Response, Status,
};
use isb::engine::{res_val, RES_FALSE, RES_TRUE, RES_UNIT};
use isb::hashmap::RHashMap;
use isb::queue::RQueue;
use isb::recovery::AttachError;
use isb::resptable::ResponseTable;
use isb::store::Store;
use nvm::mapped::{MappedHeap, MappedNvm};
use std::collections::HashSet;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Structure tuning arm the service opens its structures with.
pub const ARM: u8 = isb::arm::COALESCED;
/// Catalog name of the service's hash map.
pub const MAP_NAME: &str = "kv";
/// Catalog name of the service's queue.
pub const QUEUE_NAME: &str = "jobs";

/// Server configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Heap file path.
    pub path: PathBuf,
    /// Heap size on creation.
    pub heap_bytes: usize,
    /// Open the heap in live multi-process shared mode.
    pub shared: bool,
    /// Hash-map initial bucket count (power of two; the map grows its
    /// bucket directory with its keys).
    pub shards: usize,
    /// Process slots (lanes) requests run under, each on its own tid
    /// (clamped: shared mode has a 8-tid participant band — 1
    /// attach/healer tid + at most 7 lanes).
    pub workers: usize,
    /// Bind address (port 0 picks a free port).
    pub addr: SocketAddr,
}

impl Config {
    /// A loopback config with small defaults.
    pub fn new(path: impl Into<PathBuf>) -> Config {
        Config {
            path: path.into(),
            heap_bytes: 32 << 20,
            shared: false,
            shards: 8,
            workers: 2,
            addr: "127.0.0.1:0".parse().expect("loopback"),
        }
    }
}

/// Typed server failures.
#[derive(Debug)]
pub enum ServeError {
    /// Store attach failed.
    Attach(AttachError),
    /// Socket-level failure.
    Io(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Attach(e) => write!(f, "attach: {e}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<AttachError> for ServeError {
    fn from(e: AttachError) -> Self {
        ServeError::Attach(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Seeded crash-injection stage (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// After accepting a connection.
    Accept,
    /// After parsing a request frame, before dispatch.
    Parse,
    /// After the durable intent record, before the structure op.
    Invoke,
    /// After the durable response finalize, before the socket write.
    PreAck,
    /// After the acknowledgement reached the socket.
    PostAck,
}

struct KillSpec {
    point: KillPoint,
    after: AtomicU64,
}

impl KillSpec {
    fn from_env() -> Option<KillSpec> {
        let point = match std::env::var("ISB_KV_KILL_POINT").ok()?.as_str() {
            "accept" => KillPoint::Accept,
            "parse" => KillPoint::Parse,
            "invoke" => KillPoint::Invoke,
            "preack" => KillPoint::PreAck,
            "postack" => KillPoint::PostAck,
            _ => return None,
        };
        let after = std::env::var("ISB_KV_KILL_AFTER")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(1)
            .max(1);
        Some(KillSpec { point, after: AtomicU64::new(after) })
    }

    fn hit(&self, p: KillPoint) {
        if self.point == p && self.after.fetch_sub(1, Ordering::Relaxed) == 1 {
            nvm::die_sigkill();
        }
    }
}

fn maybe_kill(spec: &Option<KillSpec>, p: KillPoint) {
    if let Some(s) = spec {
        s.hit(p);
    }
}

/// One of the paper's processes: the tid a request runs under (its
/// recovery slot, intent slot and per-tid heap state) plus the lock that
/// keeps at most one operation pending on it.
struct Lane {
    tid: usize,
    busy: Mutex<()>,
}

/// State shared by the acceptor, the connection threads and the healer.
struct Shared {
    map: Arc<RHashMap<MappedNvm, ARM>>,
    queue: Arc<RQueue<MappedNvm, ARM>>,
    resptab: ResponseTable,
    /// Every tid this process may run requests under (a foreign intent is
    /// one outside it).
    own_band: Range<usize>,
    lanes: Vec<Lane>,
    stop: AtomicBool,
    kill: Option<KillSpec>,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::stop`] for a graceful shutdown (tests that SIGKILL the process
/// never get that far, by design).
pub struct Server {
    addr: SocketAddr,
    store: Arc<Store>,
    acceptor: Option<JoinHandle<()>>,
    healer: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Server {
    /// Opens (recovering) the store, binds, and starts serving. The calling
    /// thread's tid is (re)bound: tid 0 for an exclusive heap, the
    /// participant band's first tid in shared mode — that tid doubles as
    /// the healer's, so don't run structure ops on the calling thread while
    /// the server lives.
    pub fn start(cfg: Config) -> Result<Server, ServeError> {
        let kill = KillSpec::from_env();
        nvm::tid::set_tid(0);
        let store = Arc::new(if cfg.shared {
            Store::open_shared_sized(&cfg.path, cfg.heap_bytes)?
        } else {
            Store::open_sized(&cfg.path, cfg.heap_bytes)?
        });
        // Lane tids: an exclusive heap may use any tids; a shared
        // participant is confined to its 8-tid band (first tid = attach +
        // healer).
        let (base_tid, max_lanes) = if cfg.shared {
            let slot = store.heap().my_participant().expect("registered participant");
            let band = MappedHeap::tid_band(slot);
            nvm::tid::set_tid(band.start);
            (band.start, band.len() - 1)
        } else {
            (0, nvm::MAX_PROCS - 1)
        };
        let n_lanes = cfg.workers.clamp(1, max_lanes);
        let own_band = if cfg.shared { base_tid..base_tid + 1 + max_lanes } else { 0..n_lanes + 1 };
        let lanes =
            (0..n_lanes).map(|l| Lane { tid: base_tid + 1 + l, busy: Mutex::new(()) }).collect();
        let map = store.hashmap::<ARM>(MAP_NAME, cfg.shards)?;
        let queue = store.queue::<ARM>(QUEUE_NAME)?;
        let resptab = store.response_table();

        let listener = TcpListener::bind(cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            map,
            queue,
            resptab,
            own_band,
            lanes,
            stop: AtomicBool::new(false),
            kill,
            conns: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("kv-accept".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn acceptor")
        };
        let healer = if cfg.shared {
            let store = Arc::clone(&store);
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("kv-healer".into())
                    .spawn(move || {
                        nvm::tid::set_tid(base_tid);
                        let mut reported = HashSet::new();
                        while !shared.stop.load(Ordering::Acquire) {
                            // Dead peers resolve under a recovery lease;
                            // losing the lease race to another survivor is
                            // fine (they finish the job).
                            if let Err(e) = store.heal_peers() {
                                report_heal_error(&mut reported, &e);
                            }
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    })
                    .expect("spawn healer"),
            )
        } else {
            None
        };
        Ok(Server { addr, store, acceptor: Some(acceptor), healer, shared })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying store (e.g. for snapshots in tests).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Graceful shutdown: stop accepting, drain connections, join all.
    pub fn stop(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(h) = self.healer.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().unwrap());
        for c in conns {
            let _ = c.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                maybe_kill(&shared.kill, KillPoint::Accept);
                let sh = Arc::clone(&shared);
                let h = std::thread::Builder::new()
                    .name("kv-conn".into())
                    .spawn(move || conn_loop(stream, sh))
                    .expect("spawn conn");
                let mut conns = shared.conns.lock().expect("no panic holds the conns lock");
                // Reap exited connection threads, so a long-running server
                // holds handles (and stacks) for live connections only.
                for done in conns.extract_if(.., |c| c.is_finished()) {
                    let _ = done.join();
                }
                conns.push(h);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

fn conn_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let stop_fn = || shared.stop.load(Ordering::Acquire);
    loop {
        let frame = match read_frame(&mut stream, &stop_fn) {
            Ok(Some(f)) => f,
            Ok(None) => return, // clean close or stop
            Err(_) => return,   // torn frame / transport error
        };
        let payload = match frame {
            Frame::Payload(p) => p,
            Frame::Bad(status) => {
                // The stream is unsynchronized: answer typed, then close.
                let _ = stream.write_all(&encode_response(&Response::err(status, 0)));
                return;
            }
        };
        // Out-of-range arguments are answered before any durable step (the
        // structures would reject them mid-operation, holding the lane).
        let resp = match parse_request(&payload).and_then(|r| check_arg(&r).map(|()| r)) {
            Err(status) => Response::err(status, 0),
            Ok(req) => {
                maybe_kill(&shared.kill, KillPoint::Parse);
                let lane = &shared.lanes[route(req.client_id, shared.lanes.len())];
                // A lane poisoned by a panic mid-operation closes the
                // connections of every client routed to it.
                let Ok(_busy) = lane.busy.lock() else { return };
                nvm::tid::set_tid(lane.tid);
                let resp = handle(&shared, lane.tid, &req);
                // The coalescing set is per thread: every op's closing psync
                // must have drained it before another thread takes the lane.
                debug_assert_eq!(nvm::coalesce::pending(), 0);
                resp
            }
        };
        if stream.write_all(&encode_response(&resp)).is_err() {
            return;
        }
        let _ = stream.flush();
        maybe_kill(&shared.kill, KillPoint::PostAck);
        if resp.status.is_fatal() {
            return;
        }
    }
}

/// Client → lane routing. Deterministic, so one client's requests always
/// serialize on the same lane (across connections too).
fn route(client_id: u64, n: usize) -> usize {
    (client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % n
}

/// One request, applied exactly once (see module docs for the ordering).
/// Runs with `pid`'s lane held.
fn handle(ctx: &Shared, pid: usize, req: &Request) -> Response {
    let Some(client_idx) = ctx.resptab.register(req.client_id) else {
        return Response::err(Status::TableFull, req.op_seq);
    };
    // Failover guard FIRST — before the client slot is read at all. The
    // healer resolves a dead peer's intent by finalizing into the client
    // slot and only then clearing the intent, so observing no foreign
    // intent here guarantees the lookup below reads the fully resolved
    // watermark. Checking after the lookup leaves a race: a stale
    // `last_seq` read before the healer finalized could pass the
    // seq-window check once the intent clears and double-apply.
    if ctx.resptab.foreign_inflight(req.client_id, ctx.own_band.clone()) {
        // The client's previous request died with a peer process whose
        // recovery hasn't resolved it; applying now could double-apply,
        // and even the dedup pair could be read torn mid-finalize.
        return Response::err(Status::Recovering, req.op_seq);
    }
    let (last_seq, stored) = ctx.resptab.lookup(req.client_id).expect("registered above");
    if req.op_seq == last_seq && last_seq != 0 {
        // Retry of the acknowledged operation: replay the original
        // response from the durable table; nothing is re-applied.
        nvm::stats::count_kv_dedup_hits(1);
        return Response { status: Status::Ok, op_seq: req.op_seq, value: stored };
    }
    if req.op_seq <= last_seq {
        return Response::err(Status::StaleSeq, req.op_seq);
    }
    if req.op_seq != last_seq + 1 {
        return Response::err(Status::SeqGap, req.op_seq);
    }
    // The system half of the invocation (`CP_q := 0`, persisted) MUST
    // precede the intent record — this is what pins a later Completed
    // replay decision to *this* op-ID (see `isb::resptable`).
    match req.op {
        OpCode::Put | OpCode::Del | OpCode::Get => ctx.map.note_invocation(pid),
        OpCode::Enq | OpCode::Deq => ctx.queue.note_invocation(pid),
    }
    ctx.resptab.begin_op(pid, req.client_id, req.op_seq, req.op as u64, req.arg);
    maybe_kill(&ctx.kill, KillPoint::Invoke);
    let value = match req.op {
        OpCode::Put => {
            if ctx.map.insert(pid, req.arg) {
                RES_TRUE
            } else {
                RES_FALSE
            }
        }
        OpCode::Del => {
            if ctx.map.delete(pid, req.arg) {
                RES_TRUE
            } else {
                RES_FALSE
            }
        }
        OpCode::Get => {
            if ctx.map.find(pid, req.arg) {
                RES_TRUE
            } else {
                RES_FALSE
            }
        }
        OpCode::Enq => {
            ctx.queue.enqueue(pid, req.arg);
            RES_UNIT
        }
        OpCode::Deq => match ctx.queue.dequeue(pid) {
            Some(v) => res_val(v),
            None => isb::engine::RES_EMPTY,
        },
    };
    ctx.resptab.finish_op(pid, client_idx, req.op_seq, value);
    maybe_kill(&ctx.kill, KillPoint::PreAck);
    nvm::stats::count_kv_requests(1);
    Response { status: Status::Ok, op_seq: req.op_seq, value }
}

/// Reports a failed peer recovery on stderr, once per distinct error: the
/// healer retries every tick, and a recovery that keeps failing leaves the
/// dead peer's clients getting `Recovering`. Returns whether it printed.
fn report_heal_error(reported: &mut HashSet<String>, e: &AttachError) -> bool {
    let msg = e.to_string();
    let new = !reported.contains(&msg);
    if new {
        eprintln!("kvserve: peer recovery failed, its clients stay Recovering: {msg}");
        reported.insert(msg);
    }
    new
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_request, parse_response};
    use crate::KvClient;

    #[test]
    fn heal_errors_are_reported_once_each() {
        let mut reported = HashSet::new();
        let torn = || AttachError::Map(nvm::MapError::CorruptCatalog { slot: 3 });
        assert!(report_heal_error(&mut reported, &torn()));
        assert!(!report_heal_error(&mut reported, &torn()), "a repeat stays quiet");
        let other = AttachError::Map(nvm::MapError::CorruptCatalog { slot: 4 });
        assert!(report_heal_error(&mut reported, &other), "a new error is reported");
    }

    /// A server over a fresh heap in its own temp dir (returned for cleanup).
    fn test_server(name: &str, lanes: usize) -> (Server, PathBuf) {
        let dir = std::env::temp_dir().join(format!("kvserve_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = Config::new(dir.join("kv.heap"));
        cfg.heap_bytes = 8 << 20;
        cfg.shards = 4;
        cfg.workers = lanes;
        (Server::start(cfg).expect("server start"), dir)
    }

    #[test]
    fn accept_reaps_finished_connection_threads() {
        let (server, dir) = test_server("reap", 2);
        for id in 1..=100 {
            let mut c = KvClient::connect(server.local_addr(), id).expect("connect");
            assert!(c.put(id).expect("put"));
        }
        // Every connection has closed: once their threads exit, only the
        // server and the acceptor hold the shared state.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&server.shared) > 2
            || !server.shared.conns.lock().unwrap().iter().all(|c| c.is_finished())
        {
            assert!(std::time::Instant::now() < deadline, "connection threads did not exit");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The next accept reaps them all: what remains is the live
        // connection plus at most the last handle, pushed after the check.
        let mut live = KvClient::connect(server.local_addr(), 1000).expect("connect");
        assert!(live.put(1000).expect("put"));
        let held = server.shared.conns.lock().unwrap().len();
        assert!(held <= 2, "{held} connection handles held for 1 live connection");
        drop(live);
        server.stop();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn max_client_id_is_rejected_and_every_lane_serves() {
        let (server, dir) = test_server("maxid", 4);
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let req = Request { op: OpCode::Put, client_id: u64::MAX, op_seq: 1, arg: 1 };
        s.write_all(&encode_request(&req)).unwrap();
        let Some(Frame::Payload(p)) = read_frame(&mut s, &|| false).expect("reply") else {
            panic!("no reply frame");
        };
        assert_eq!(parse_response(&p), Ok(Response::err(Status::BadClientId, 0)));
        drop(s);
        let lanes = server.shared.lanes.len();
        for lane in 0..lanes {
            let id = (1..).find(|&id| route(id, lanes) == lane).unwrap();
            let mut c = KvClient::connect(server.local_addr(), id).expect("connect");
            assert!(c.put(id).expect("put on a lane after the reserved id"), "lane {lane}");
        }
        server.stop();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn out_of_range_arguments_are_rejected_and_every_lane_serves() {
        let (server, dir) = test_server("badkey", 4);
        let lanes = server.shared.lanes.len();
        let bad = [
            (OpCode::Put, 0),
            (OpCode::Put, isb::hashmap::MAX_KEY),
            (OpCode::Put, u64::MAX),
            (OpCode::Del, 0),
            (OpCode::Get, u64::MAX),
            (OpCode::Enq, isb::queue::MAX_VALUE),
        ];
        let mut next_key = 1;
        for (i, (op, arg)) in bad.into_iter().enumerate() {
            // Reaches the lane of client `i + 1` if it were ever admitted.
            let mut s = TcpStream::connect(server.local_addr()).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let req = Request { op, client_id: i as u64 + 1, op_seq: 1, arg };
            s.write_all(&encode_request(&req)).unwrap();
            let Some(Frame::Payload(p)) = read_frame(&mut s, &|| false).expect("reply") else {
                panic!("no reply frame");
            };
            assert_eq!(parse_response(&p), Ok(Response::err(Status::BadKey, 0)), "{op:?}({arg})");
            drop(s);
            for lane in 0..lanes {
                let id = (100 * (i as u64 + 1)..).find(|&id| route(id, lanes) == lane).unwrap();
                let mut c = KvClient::connect(server.local_addr(), id).expect("connect");
                assert!(c.put(next_key).expect("put after a bad frame"), "lane {lane}");
                next_key += 1;
            }
        }
        server.stop();
        let _ = std::fs::remove_dir_all(dir);
    }
}
