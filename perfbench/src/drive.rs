//! Load generation: closed-loop clients that check every answer, the
//! `kvserved` child process, and the loopback echo baseline.

use crate::chain::wire;
use crate::gen::{Op, Stream};
use crate::model::{replay_identical, Model};
use kvserve::proto::{
    encode_request, encode_response, parse_request, parse_response, read_frame, Frame,
};
use kvserve::{ClientError, KvClient, Request, Response, Status};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// No request may take longer; a wedged server fails the run instead of
/// hanging it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Errors kept verbatim for the report; the rest are only counted.
const KEPT_ERRORS: usize = 8;

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Every acknowledged request: (start, duration) in ns since the run's
    /// epoch.
    pub all: Vec<(u64, u64)>,
    /// Durations of gets.
    pub read: Vec<u64>,
    /// Durations of puts, dels, enqueues and dequeues.
    pub write: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Dedup replays sent.
    pub replays: u64,
    pub errors: Vec<String>,
}

impl ClientStats {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(why);
        }
    }

    pub fn merge(&mut self, o: ClientStats) {
        self.all.extend(o.all);
        self.read.extend(o.read);
        self.write.extend(o.write);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.replays += o.replays;
        for e in o.errors {
            if self.errors.len() < KEPT_ERRORS {
                self.errors.push(e);
            }
        }
    }
}

/// The outcome of one request.
#[derive(Debug, PartialEq, Eq)]
pub enum Step {
    /// Answered (correctly or not; a wrong answer is counted as failed).
    Done,
    /// The connection died; the request stays pending for
    /// [`LoadClient::recover`].
    Lost,
}

/// One closed-loop client: its session, its op stream and its shadow model.
pub struct LoadClient {
    pub client: KvClient,
    pub stream: Stream,
    pub model: Model,
    pub stats: ClientStats,
    /// The model op of the request left pending by a lost connection.
    pending: Option<Op>,
    epoch: Instant,
}

impl LoadClient {
    pub fn connect(
        addr: SocketAddr,
        client_id: u64,
        stream: Stream,
        model: Model,
        epoch: Instant,
    ) -> std::io::Result<LoadClient> {
        let mut client = KvClient::connect(addr, client_id)?;
        client.request_timeout = REQUEST_TIMEOUT;
        Ok(LoadClient {
            client,
            stream,
            model,
            stats: ClientStats::default(),
            pending: None,
            epoch,
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sends the stream's next request and checks the answer. Latency is
    /// recorded only when `record` is set (warm-up requests are checked but
    /// not timed).
    pub fn step(&mut self, record: bool) -> Step {
        let op = self.stream.next_op();
        if op == Op::Replay {
            if self.client.last_acked().is_none() {
                return Step::Done; // nothing acknowledged yet
            }
            self.stats.attempted += 1;
            self.stats.replays += 1;
            let t0 = self.now_ns();
            match self.client.replay_last_acked() {
                Ok(Some((replayed, original))) => {
                    let dt = self.now_ns() - t0;
                    if !replay_identical(&replayed, &original) {
                        self.stats.fail(format!("replay {replayed:?} != original {original:?}"));
                    } else if record {
                        self.stats.all.push((t0, dt));
                    }
                    Step::Done
                }
                Ok(None) => unreachable!("last_acked checked above"),
                // A replay applies nothing, so a lost one needs no retry.
                Err(ClientError::Io(_)) | Err(ClientError::TimedOut) => Step::Lost,
                Err(e) => {
                    self.stats.fail(format!("replay: {e}"));
                    Step::Done
                }
            }
        } else {
            let (code, arg) = wire(op);
            self.stats.attempted += 1;
            let t0 = self.now_ns();
            match self.client.call(code, arg) {
                Ok(value) => {
                    let dt = self.now_ns() - t0;
                    match self.model.check(op, value) {
                        Err(m) => self.stats.fail(m.to_string()),
                        Ok(()) if record => {
                            self.stats.all.push((t0, dt));
                            if op.is_read() {
                                self.stats.read.push(dt);
                            } else if op.is_write() {
                                self.stats.write.push(dt);
                            }
                        }
                        Ok(()) => {}
                    }
                    Step::Done
                }
                Err(ClientError::Io(_)) | Err(ClientError::TimedOut) => {
                    self.pending = Some(op);
                    Step::Lost
                }
                Err(e) => {
                    self.stats.fail(format!("{op:?}: {e}"));
                    Step::Done
                }
            }
        }
    }

    /// After a restart: reconnect, resolve the pending request exactly once
    /// (its answer must match the model as if applied once), then check that
    /// the last acknowledged answer replays byte-identical. Returns the
    /// instant the first re-acknowledgement arrived.
    pub fn recover(&mut self, addr: SocketAddr) -> Instant {
        if let Err(e) = self.client.reconnect(addr) {
            self.stats.fail(format!("reconnect: {e}"));
            return Instant::now();
        }
        if let Some(op) = self.pending.take() {
            let retried = self.client.retry_pending();
            let acked_at = Instant::now();
            match retried {
                Ok(Some(value)) => {
                    if let Err(m) = self.model.check(op, value) {
                        self.stats.fail(format!("retried {m}"));
                    }
                }
                Ok(None) => self.stats.fail(format!("pending {op:?} vanished from the client")),
                Err(e) => self.stats.fail(format!("retry of pending {op:?}: {e}")),
            }
            self.check_replay();
            acked_at
        } else {
            self.check_replay();
            Instant::now()
        }
    }

    /// The last acknowledged request, re-sent, must answer byte-identical.
    pub fn check_replay(&mut self) {
        match self.client.replay_last_acked() {
            Ok(Some((replayed, original))) if !replay_identical(&replayed, &original) => {
                self.stats.fail(format!("replay {replayed:?} != original {original:?}"))
            }
            Ok(_) => {}
            Err(e) => self.stats.fail(format!("replay after restart: {e}")),
        }
    }
}

/// Warms every client up with `warmup` untimed requests, then runs them
/// all, each on its own thread, for `dur` from a common start. Returns the
/// measured wall time in seconds. A lost connection against a server that
/// should not die is a failure and ends that client.
pub fn run_closed(clients: &mut [LoadClient], warmup: usize, dur: Duration) -> f64 {
    let barrier = Barrier::new(clients.len());
    let start = OnceLock::new();
    let end = Mutex::new(None::<Instant>);
    std::thread::scope(|s| {
        for d in clients.iter_mut() {
            let (barrier, start, end) = (&barrier, &start, &end);
            std::thread::Builder::new()
                .name("bench-client".into())
                .spawn_scoped(s, move || {
                    let mut alive = true;
                    for _ in 0..warmup {
                        if d.step(false) == Step::Lost {
                            d.stats.fail("connection lost in warm-up".into());
                            alive = false;
                            break;
                        }
                    }
                    barrier.wait();
                    let until = *start.get_or_init(Instant::now) + dur;
                    while alive && Instant::now() < until {
                        if d.step(true) == Step::Lost {
                            d.stats.fail("connection lost".into());
                            alive = false;
                        }
                    }
                    let now = Instant::now();
                    let mut e = end.lock().expect("end lock");
                    *e = Some(e.map_or(now, |t| t.max(now)));
                })
                .expect("spawn client thread");
        }
    });
    let t0 = start.get().copied().unwrap_or_else(Instant::now);
    let t1 = end.into_inner().expect("end lock").unwrap_or(t0);
    (t1 - t0).as_secs_f64()
}

/// A `kvserved` child over one heap. Dropping it kills and reaps it.
pub struct Kvserved {
    child: Option<Child>,
    port_file: PathBuf,
    stop_file: PathBuf,
}

impl Kvserved {
    /// Spawns the daemon with its default shards and workers. With
    /// `kill_after`, it SIGKILLs itself at the n-th request that reaches the
    /// `invoke` point (after the durable intent, before the structure op).
    pub fn spawn(bin: &Path, heap: &Path, dir: &Path, kill_after: Option<u64>) -> Kvserved {
        let port_file = dir.join("kvserved.port");
        let stop_file = dir.join("kvserved.stop");
        let _ = std::fs::remove_file(&port_file);
        let _ = std::fs::remove_file(&stop_file);
        let mut cmd = Command::new(bin);
        cmd.arg("--path")
            .arg(heap)
            .arg("--port-file")
            .arg(&port_file)
            .arg("--stop-file")
            .arg(&stop_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .env_remove("ISB_KV_KILL_POINT")
            .env_remove("ISB_KV_KILL_AFTER");
        if let Some(n) = kill_after {
            cmd.env("ISB_KV_KILL_POINT", "invoke").env("ISB_KV_KILL_AFTER", n.to_string());
        }
        let child = cmd.spawn().unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
        Kvserved { child: Some(child), port_file, stop_file }
    }

    /// Waits for the published port: the daemon writes it once recovery is
    /// done and it accepts.
    pub fn wait_addr(&mut self, timeout: Duration) -> Result<SocketAddr, String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Ok(s) = std::fs::read_to_string(&self.port_file) {
                if let Ok(port) = s.trim().parse::<u16>() {
                    return Ok(SocketAddr::from(([127, 0, 0, 1], port)));
                }
            }
            if let Some(status) = self.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(format!("kvserved exited before accepting: {status}"));
            }
            if Instant::now() >= deadline {
                return Err("kvserved did not publish its port".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Whether the daemon has died (reaping it if so).
    pub fn exited(&mut self) -> bool {
        match self.child.as_mut().map(|c| c.try_wait()) {
            Some(Ok(None)) => false,
            _ => {
                self.child = None;
                true
            }
        }
    }

    /// Waits for the daemon to die (its seeded self-kill).
    pub fn wait_exit(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.wait();
        }
    }

    /// Graceful shutdown through the stop file.
    pub fn stop(mut self) {
        std::fs::write(&self.stop_file, b"").expect("write stop file");
        self.wait_exit();
    }
}

impl Drop for Kvserved {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// A loopback echo of the service's frames, owned by the benchmark: it
/// reads request-sized frames and answers response-sized ones, so a round
/// trip costs the transport and framing but none of the server.
pub struct Echo {
    pub addr: SocketAddr,
    stop: std::sync::Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Echo {
    pub fn start(conns: usize) -> Echo {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let st = stop.clone();
        let acceptor = std::thread::Builder::new()
            .name("echo-accept".into())
            .spawn(move || {
                let mut handles = Vec::new();
                for _ in 0..conns {
                    let Ok((mut s, _)) = listener.accept() else { break };
                    let st = st.clone();
                    handles.push(
                        std::thread::Builder::new()
                            .name("echo-conn".into())
                            .spawn(move || {
                                let _ = s.set_nodelay(true);
                                let _ = s.set_read_timeout(Some(Duration::from_millis(50)));
                                let stop_fn = || st.load(Ordering::Acquire);
                                while let Ok(Some(Frame::Payload(p))) = read_frame(&mut s, &stop_fn)
                                {
                                    let req =
                                        parse_request(&p).expect("echo clients send valid frames");
                                    let resp = Response {
                                        status: Status::Ok,
                                        op_seq: req.op_seq,
                                        value: req.arg,
                                    };
                                    if s.write_all(&encode_response(&resp)).is_err() {
                                        break;
                                    }
                                }
                            })
                            .expect("spawn echo conn"),
                    );
                }
                for h in handles {
                    h.join().expect("echo conn thread");
                }
            })
            .expect("spawn echo acceptor");
        Echo { addr, stop, acceptor: Some(acceptor) }
    }

    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(a) = self.acceptor.take() {
            a.join().expect("echo acceptor");
        }
    }
}

/// One echo client: round trips of a request frame, timed like a request.
pub fn echo_client(addr: SocketAddr, until: Instant, epoch: Instant) -> Vec<(u64, u64)> {
    let mut s = TcpStream::connect(addr).expect("connect echo");
    s.set_nodelay(true).expect("nodelay");
    s.set_read_timeout(Some(Duration::from_millis(100))).expect("read timeout");
    let mut out = Vec::new();
    let mut seq = 0u64;
    let wedged = || Instant::now() > until + REQUEST_TIMEOUT;
    while Instant::now() < until {
        seq += 1;
        let req = Request { op: kvserve::OpCode::Get, client_id: 1, op_seq: seq, arg: seq };
        let t0 = epoch.elapsed().as_nanos() as u64;
        s.write_all(&encode_request(&req)).expect("echo write");
        s.flush().expect("echo flush");
        let payload = match read_frame(&mut s, &wedged) {
            Ok(Some(Frame::Payload(p))) => p,
            other => panic!("echo read: {other:?}"),
        };
        let resp = parse_response(&payload).expect("echo response parses");
        assert_eq!(resp.op_seq, seq, "echo answers in order");
        out.push((t0, epoch.elapsed().as_nanos() as u64 - t0));
    }
    out
}
