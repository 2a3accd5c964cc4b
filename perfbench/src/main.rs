//! `perfbench` — one benchmark for the exactly-once KV request.
//!
//! ```text
//! perfbench --workload kv_hot|kv_large|kv_crash --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it drives the real server closed-loop, checks every
//! answer against a shadow model and prints the end-to-end metrics. With
//! `--trace 1` it measures the layers under the same workload: the server
//! run's `nvm::stats`, heap and OS deltas, the loopback echo baseline, the
//! frame codec, an attach of the run's heap image, and the request chain
//! replayed in-process with a span at every layer boundary. The last
//! stdout line is one JSON object; the exit code is 0 only when every
//! check passed.

mod chain;
mod drive;
mod gen;
mod model;
mod osstat;
mod stats;

use chain::{Chain, Counter, Counts, Kind, KindCounts, Mark, Session, Timer};
use drive::{echo_client, run_closed, ClientStats, Echo, Kvserved, LoadClient, Step};
use gen::{fill_keys, Op, Rng, Stream, LARGE_KEYS};
use isb::store::Store;
use kvserve::server::{ARM, MAP_NAME, QUEUE_NAME};
use kvserve::{Config, Server};
use model::Model;
use stats::{median, ratio, self_time, server_self_us, Summary};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS_EMPTY: usize = 21;
const SETUPS_FILLED: usize = 3;
/// Clean restarts per in-process run, one after each of as many equal
/// slices of the measured time; `recovery_s` is their median.
const RESTARTS: usize = 21;
/// Requests per client checked but not timed before measuring.
const WARMUP: usize = 2_000;
/// Requests of the workload stream the in-process chain replays.
const CHAIN_OPS: usize = 20_000;
/// Rounds of each request kind the workload stream lacks, appended to the
/// chain so every layer's timing has samples on every workload.
const TAIL_ROUNDS: u64 = 1_000;
/// Untraced and traced chain passes, alternated; `trace.overhead_pct`
/// compares their median totals.
const CHAIN_PASSES: usize = 3;
/// Heap image attaches per traced run.
const ATTACHES: usize = 3;
/// The chain's worker tid and the band of tids the server's workers use.
const CHAIN_PID: usize = 1;
const WORKER_BAND: std::ops::Range<usize> = 0..3;
const PORT_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// In-process server, empty heap, 1 client, Zipf hot keys, write-heavy.
    Hot,
    /// In-process server over a filled store, 1 client, 95% get.
    Large,
    /// `kvserved` child over a filled store, 2 clients, seeded SIGKILLs.
    Crash,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "kv_hot" => Some(Workload::Hot),
            "kv_large" => Some(Workload::Large),
            "kv_crash" => Some(Workload::Crash),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Hot => "kv_hot",
            Workload::Large => "kv_large",
            Workload::Crash => "kv_crash",
        }
    }

    fn filled(self) -> bool {
        self != Workload::Hot
    }

    fn clients(self) -> u64 {
        if self == Workload::Crash {
            2
        } else {
            1
        }
    }

    fn stream(self, seed: u64, c: u64) -> Stream {
        match self {
            Workload::Hot => Stream::hot(seed),
            Workload::Large => Stream::large(seed),
            Workload::Crash => Stream::crash(seed, c, self.clients()),
        }
    }

    /// The shadow model of client `c` at the start: the keys it owns that
    /// the fill inserted.
    fn model(self, c: u64) -> Model {
        match self {
            Workload::Hot => Model::default(),
            Workload::Large => Model::with_keys(fill_keys()),
            Workload::Crash => {
                let span = LARGE_KEYS / self.clients();
                let own = 1 + c * span..1 + (c + 1) * span;
                Model::with_keys(fill_keys().filter(|k| own.contains(k)))
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload kv_hot|kv_large|kv_crash --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(a) = it.next() {
        let v = it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Workload::parse(&v),
            "--seed" => seed = v.parse().ok(),
            "--seconds" => seconds = v.parse().ok().filter(|&s: &u64| s > 0),
            "--trace" => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Args { workload, seed, seconds, trace }
        }
        _ => usage(),
    }
}

/// Where the run keeps its heaps (removed at exit) and its trace files.
struct Paths {
    kvserved: PathBuf,
    work: PathBuf,
    out: PathBuf,
}

impl Paths {
    fn from_env(a: &Args) -> Paths {
        let exe = std::env::current_exe().expect("own path");
        let bin_dir = exe.parent().expect("binary directory").to_path_buf();
        let kvserved = std::env::var_os("PERFBENCH_KVSERVED")
            .map(PathBuf::from)
            .unwrap_or_else(|| bin_dir.join("kvserved"));
        let base = std::env::var_os("PERFBENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| bin_dir.join("perfbench"));
        let work =
            base.join(format!("work-{}-{}-{}", a.workload.name(), a.seed, std::process::id()));
        let out = base.join("out");
        std::fs::create_dir_all(&work).expect("create work dir");
        std::fs::create_dir_all(&out).expect("create out dir");
        Paths { kvserved, work, out }
    }
}

/// Metrics in report order, plus the run's tallies.
#[derive(Default)]
struct Report {
    /// The metrics of the JSON line (`BENCHMARK.json` names them).
    metrics: Vec<(String, f64, &'static str)>,
    /// Printed with the metrics but not part of the JSON line.
    printed: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    stats: ClientStats,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// `<name>_p50_<unit>`, `<name>_p99_<unit>` and `<name>_n`.
    fn timing(&mut self, name: &str, s: &Summary, unit: &'static str) {
        self.metric(&format!("{name}_p50_{unit}"), s.p50, unit);
        self.metric(&format!("{name}_p99_{unit}"), s.tail, unit);
        self.metric(&format!("{name}_n"), s.n as f64, "count");
        if s.tail_p < 99.0 {
            self.note(format!("{name}: only {} samples; _p99 reports p{}", s.n, s.tail_p));
        }
    }

    fn print_only(&mut self, name: &str, value: f64, unit: &'static str) {
        self.printed.push((name.to_string(), value, unit));
    }

    fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    fn fail(&mut self, why: String) {
        self.stats.fail(why);
    }

    fn print(&self, a: &Args) {
        let st = &self.stats;
        println!(
            "perfbench {} seed={} seconds={} trace={} online_cpus={} pinned_cpus={} real_flush={}",
            a.workload.name(),
            a.seed,
            a.seconds,
            u8::from(a.trace),
            std::fs::read_to_string("/proc/cpuinfo")
                .map_or(0, |s| s.lines().filter(|l| l.starts_with("processor")).count()),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            nvm::flush::HAS_REAL_FLUSH
        );
        for n in &self.notes {
            println!("  note: {n}");
        }
        for (name, v, unit) in self.metrics.iter().chain(&self.printed) {
            println!("  {name:<36} {v:>14.4} {unit}");
        }
        println!(
            "  {:<36} {:>14.6} (failed {} of {} attempted)",
            "error_rate",
            ratio(st.failed as f64, st.attempted as f64),
            st.failed,
            st.attempted
        );
        for e in &st.errors {
            println!("  FAILED: {e}");
        }
        let mut json = String::new();
        write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            st.failed == 0,
            st.attempted.max(1),
            st.failed
        )
        .expect("format");
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(json, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
                .expect("format");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn main() {
    let args = parse_args();
    let paths = Paths::from_env(&args);
    let mut rep = Report::default();
    match (args.trace, args.workload) {
        (false, Workload::Crash) => crash_run(&args, &paths, &mut rep),
        (false, _) => inproc_run(&args, &paths, &mut rep),
        (true, _) => traced_run(&args, &paths, &mut rep),
    }
    let _ = std::fs::remove_dir_all(&paths.work);
    rep.print(&args);
    std::process::exit(if rep.stats.failed == 0 { 0 } else { 1 });
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Creates the service's store at `path` (the `kvserved` defaults: heap
/// size, shards, arm) and, for the filled workloads, inserts every even
/// key of `[1, LARGE_KEYS]` in ascending order through the `Store` API.
fn make_store(path: &Path, fill: bool) {
    nvm::tid::set_tid(0);
    let cfg = Config::new(path);
    let store = Store::open_sized(path, cfg.heap_bytes).expect("create store");
    let map = store.hashmap::<ARM>(MAP_NAME, cfg.shards).expect("service map");
    store.queue::<ARM>(QUEUE_NAME).expect("service queue");
    if fill {
        for k in fill_keys() {
            assert!(map.insert(0, k), "fill key {k} was new");
        }
    }
}

fn fresh(path: &Path) {
    let _ = std::fs::remove_file(path);
}

/// Heap bytes handed out by the bump allocator, per live key.
fn space_per_key(store: &Store, live_keys: usize) -> f64 {
    let bytes = store.heap().bump_granules() * nvm::mapped::GRANULE;
    ratio(bytes as f64, live_keys as f64)
}

/// Latency, throughput and the read/write split of the clients' recorded
/// requests over `serving` seconds.
fn report_requests(rep: &mut Report, st: &ClientStats, serving: f64) {
    let mut all: Vec<u64> = st.all.iter().map(|&(_, d)| d).collect();
    let lat = Summary::of(&mut all, 1000.0);
    let read = Summary::of(&mut st.read.clone(), 1000.0);
    let write = Summary::of(&mut st.write.clone(), 1000.0);
    rep.metric("throughput_rps", ratio(lat.n as f64, serving), "1/s");
    rep.metric("latency_p50_us", lat.p50, "us");
    rep.print_only("latency_p99_us", lat.tail, "us");
    rep.metric("read_p50_us", read.p50, "us");
    rep.metric("write_p50_us", write.p50, "us");
    rep.note(format!(
        "samples: all={} (tail p{}), read={}, write={}",
        lat.n, lat.tail_p, read.n, write.n
    ));
    // `Summary::of` left `all` sorted.
    if let Some(p) = stats::tail_percentile(lat.n) {
        rep.note(format!(
            "latency p{p} = {:.2} us (highest percentile with >= 10 samples beyond)",
            stats::percentile(&all, p) as f64 / 1000.0
        ));
    }
}

/// `kv_hot` / `kv_large`: an in-process `Server`, one closed-loop client.
fn inproc_run(a: &Args, p: &Paths, rep: &mut Report) {
    let w = a.workload;
    let heap = p.work.join("kv.heap");
    let cfg = Config::new(&heap);
    let mut setups = Vec::new();
    let mut server = None;
    let n = if w.filled() { SETUPS_FILLED } else { SETUPS_EMPTY };
    for i in 0..n {
        fresh(&heap);
        let t0 = Instant::now();
        if w.filled() {
            make_store(&heap, true);
        }
        let s = Server::start(cfg.clone()).expect("server start");
        setups.push(secs(t0.elapsed()));
        if i + 1 < n {
            s.stop();
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one set-up");
    let epoch = Instant::now();
    let d = LoadClient::connect(server.local_addr(), 1, w.stream(a.seed, 0), w.model(0), epoch)
        .expect("connect");
    let mut clients = vec![d];
    // Restarts are spread over the measured time, so `recovery_s` samples
    // the same stretch of machine time as the request latencies.
    let segment = Duration::from_secs(a.seconds) / RESTARTS as u32;
    let mut serving = 0.0;
    let mut restarts = Vec::new();
    for i in 0..RESTARTS {
        serving += run_closed(&mut clients, if i == 0 { WARMUP } else { 0 }, segment);
        server.stop();
        let t0 = Instant::now();
        server = Server::start(cfg.clone()).expect("server restart");
        let acked = clients[0].recover(server.local_addr());
        restarts.push(secs(acked - t0));
    }
    let live = clients[0].model.live_keys();
    let space = space_per_key(server.store(), live);
    server.stop();
    let d = clients.pop().expect("one client");
    report_requests(rep, &d.stats, serving);
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("recovery_s", median(&restarts), "s");
    rep.metric("space_bytes_per_key", space, "B");
    rep.note(format!(
        "recovery_s: median of {RESTARTS} clean restarts, spread over the run, to the first replayed ack"
    ));
    rep.note(format!("setup_s: median of {n} set-ups; space over {live} live keys"));
    rep.stats.merge(d.stats);
}

/// Separates the kill-point stream from the request streams of a seed.
const KILL_SEED: u64 = 0x00C4_A511;

/// The request past the durable intent at which the next daemon SIGKILLs
/// itself (counted over both workers).
fn next_kill(rng: &mut Rng) -> u64 {
    1_500 + rng.below(2_000)
}

/// Restart generations published by the coordinator to the clients.
struct Gen {
    n: u64,
    addr: std::net::SocketAddr,
    /// No further restart will come: waiting clients give up.
    closed: bool,
}

/// `kv_crash`: a `kvserved` child SIGKILLs itself at a seeded request;
/// the coordinator restarts it on the same heap, and each client resolves
/// its pending request and re-checks its last acknowledgement.
fn crash_run(a: &Args, p: &Paths, rep: &mut Report) {
    let w = a.workload;
    let heap = p.work.join("kv.heap");
    let mut kills = Rng::new(a.seed ^ KILL_SEED);
    let mut kill_after = || Some(next_kill(&mut kills));
    let mut setups = Vec::new();
    let mut server: Option<Kvserved> = None;
    for _ in 0..SETUPS_FILLED {
        drop(server.take()); // kills the previous set-up's daemon
        fresh(&heap);
        let t0 = Instant::now();
        make_store(&heap, true);
        let mut k = Kvserved::spawn(&p.kvserved, &heap, &p.work, kill_after());
        k.wait_addr(PORT_TIMEOUT).expect("kvserved accepts");
        setups.push(secs(t0.elapsed()));
        server = Some(k);
    }
    let mut server = server.expect("at least one set-up");
    let addr = server.wait_addr(PORT_TIMEOUT).expect("kvserved accepts");
    let epoch = Instant::now();
    let mut clients: Vec<LoadClient> = (0..w.clients())
        .map(|c| {
            LoadClient::connect(addr, c + 1, w.stream(a.seed, c), w.model(c), epoch)
                .expect("connect")
        })
        .collect();

    let gen = Mutex::new(Gen { n: 0, addr, closed: false });
    let bumped = Condvar::new();
    let stop = AtomicBool::new(false);
    let active = AtomicUsize::new(clients.len());
    let (ack_tx, ack_rx) = mpsc::channel::<(u64, Instant)>();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(a.seconds);
    let mut recoveries = Vec::new();
    let mut down = Duration::ZERO;
    std::thread::scope(|s| {
        for d in clients.iter_mut() {
            let (gen, bumped, stop, active, ack_tx) =
                (&gen, &bumped, &stop, &active, ack_tx.clone());
            s.spawn(move || {
                let mut seen = 0;
                while !stop.load(Ordering::Acquire) {
                    if d.step(true) == Step::Done {
                        continue;
                    }
                    let (g, wait) = bumped
                        .wait_timeout_while(gen.lock().expect("gen lock"), PORT_TIMEOUT, |g| {
                            g.n == seen && !g.closed
                        })
                        .expect("gen lock");
                    if g.closed || wait.timed_out() {
                        d.stats.fail("connection lost and no restart followed".into());
                        break;
                    }
                    let (n, addr) = (g.n, g.addr);
                    drop(g);
                    seen = n;
                    let acked = d.recover(addr);
                    let _ = ack_tx.send((n, acked));
                }
                active.fetch_sub(1, Ordering::AcqRel);
            });
        }
        drop(ack_tx);
        // Restart the daemon whenever it dies, until every client is done.
        while active.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                stop.store(true, Ordering::Release);
            }
            if !server.exited() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let t_spawn = Instant::now();
            let next_kill = if stop.load(Ordering::Acquire) { None } else { kill_after() };
            server = Kvserved::spawn(&p.kvserved, &heap, &p.work, next_kill);
            let restarted = server.wait_addr(PORT_TIMEOUT).and_then(|addr| {
                let n = {
                    let mut g = gen.lock().expect("gen lock");
                    g.n += 1;
                    g.addr = addr;
                    g.n
                };
                bumped.notify_all();
                let mut last = t_spawn;
                for _ in 0..w.clients() {
                    match ack_rx.recv_timeout(PORT_TIMEOUT) {
                        Ok((g, t)) if g == n => last = last.max(t),
                        other => return Err(format!("restart {n} not re-acknowledged: {other:?}")),
                    }
                }
                Ok(last)
            });
            match restarted {
                Ok(last) => {
                    recoveries.push(secs(last - t_spawn));
                    down += last - t_spawn;
                }
                Err(e) => {
                    rep.fail(e);
                    stop.store(true, Ordering::Release);
                    gen.lock().expect("gen lock").closed = true;
                    bumped.notify_all();
                    break;
                }
            }
        }
    });
    let elapsed = start.elapsed();
    server.stop();

    // The key set after the last restart must match every client's model.
    nvm::tid::set_tid(0);
    let cfg = Config::new(&heap);
    let store = Store::open_sized(&heap, cfg.heap_bytes).expect("reopen after the run");
    let map = store.hashmap::<ARM>(MAP_NAME, cfg.shards).expect("service map");
    let mut live = 0;
    for d in &clients {
        live += d.model.live_keys();
    }
    for k in 1..=LARGE_KEYS {
        let c = ((k - 1) / (LARGE_KEYS / w.clients())) as usize;
        let want = clients[c].model.contains(k);
        if map.find(0, k) != want {
            rep.fail(format!("after restart key {k}: present={} but model says {want}", !want));
        }
    }
    let space = space_per_key(&store, live);
    drop(map);
    drop(store);

    let mut all = ClientStats::default();
    for d in clients {
        all.merge(d.stats);
    }
    if recoveries.is_empty() {
        rep.fail("no kill/restart cycle completed".into());
        recoveries.push(0.0);
    }
    report_requests(rep, &all, secs(elapsed.saturating_sub(down)));
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("recovery_s", median(&recoveries), "s");
    rep.metric("space_bytes_per_key", space, "B");
    rep.note(format!(
        "{} kill/restart cycles; throughput over {:.2} s serving of {:.2} s",
        recoveries.len(),
        secs(elapsed.saturating_sub(down)),
        secs(elapsed)
    ));
    rep.stats.merge(all);
}

/// The chain's sessions, models and op list for a workload: the first
/// `CHAIN_OPS` requests of the workload's streams (clients interleaved),
/// then `TAIL_ROUNDS` of each request kind those lack.
fn chain_ops(w: Workload, seed: u64) -> (Vec<Session>, Vec<Model>, Vec<(usize, Op)>) {
    let n = w.clients();
    let mut streams: Vec<Stream> = (0..n).map(|c| w.stream(seed, c)).collect();
    let sessions = (0..n).map(|c| Session::new(c + 1)).collect();
    let models = (0..n).map(|c| w.model(c)).collect();
    let mut ops: Vec<(usize, Op)> = (0..CHAIN_OPS)
        .map(|i| {
            let c = i % n as usize;
            (c, streams[c].next_op())
        })
        .collect();
    let has = |f: fn(&Op) -> bool, ops: &[(usize, Op)]| ops.iter().any(|(_, o)| f(o));
    let (del, enq, deq, replay) = (
        has(|o| matches!(o, Op::Del(_)), &ops),
        has(|o| matches!(o, Op::Enq(_)), &ops),
        has(|o| matches!(o, Op::Deq), &ops),
        has(|o| matches!(o, Op::Replay), &ops),
    );
    for r in 0..TAIL_ROUNDS {
        if !del {
            ops.push((0, Op::Del(2 + 2 * r)));
        }
        if !enq {
            ops.push((0, Op::Enq(1 + r)));
        }
        if !deq {
            ops.push((0, Op::Deq));
        }
        if !replay {
            ops.push((0, Op::Replay));
        }
    }
    (sessions, models, ops)
}

/// Opens a copy of `template` and hands the chain to `f` on this thread,
/// running as worker tid `CHAIN_PID`.
fn with_chain<R>(template: &Path, path: &Path, f: impl FnOnce(&Chain) -> R) -> R {
    std::fs::copy(template, path).expect("copy template heap");
    nvm::tid::set_tid(0);
    let cfg = Config::new(path);
    let store = Store::open_sized(path, cfg.heap_bytes).expect("open chain store");
    let chain = Chain {
        map: store.hashmap::<ARM>(MAP_NAME, cfg.shards).expect("map"),
        queue: store.queue::<ARM>(QUEUE_NAME).expect("queue"),
        rt: store.response_table(),
        pid: CHAIN_PID,
        band: WORKER_BAND,
    };
    nvm::tid::set_tid(CHAIN_PID);
    let r = f(&chain);
    nvm::tid::set_tid(0);
    r
}

/// Checks one chain answer against the model.
fn check_chain(models: &mut [Model], c: usize, op: Op, out: &chain::Outcome, st: &mut ClientStats) {
    st.attempted += 1;
    if out.kind == Kind::DedupHit {
        if !out.replay_ok {
            st.fail(format!("chain replay of client {c} changed its answer"));
        }
    } else if let Err(m) = models[c].check(op, out.value) {
        st.fail(format!("chain: {m}"));
    }
}

/// A span of the traced chain or of a client request.
struct Span {
    req: u64,
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// Turns one request's marks into its `request` span and child spans.
fn spans_of(req: u64, kind: Kind, marks: &[(Mark, u64)], out: &mut Vec<Span>) {
    let at = |m: Mark| marks.iter().find(|(k, _)| *k == m).map(|&(_, t)| t);
    let (t0, done) = (at(Mark::Start).expect("start"), at(Mark::Done).expect("done"));
    let parent = out.len();
    out.push(Span { req, name: "request", start: t0, end: done, parent: None });
    let mut child = |name, s: Option<u64>, e: Option<u64>| {
        if let (Some(start), Some(end)) = (s, e) {
            out.push(Span { req, name, start, end, parent: Some(parent) });
        }
    };
    child("resptable.admit", at(Mark::Parsed), at(Mark::Admitted));
    if let Some(op) = kind.op_span() {
        child("recovery.note_invocation", at(Mark::Admitted), at(Mark::Noted));
        child("resptable.begin_op", at(Mark::Noted), at(Mark::Begun));
        child(op, at(Mark::Begun), at(Mark::Applied));
        child("resptable.finish_op", at(Mark::Applied), at(Mark::Finished));
    }
}

/// Per-layer persist totals of a counted chain pass.
#[derive(Default)]
struct LayerCounts {
    requests: u64,
    resptable: Counts,
    recovery: Counts,
    map_ops: u64,
    map: Counts,
    queue_ops: u64,
    queue: Counts,
    kinds: KindCounts,
}

/// Everything the chain passes produce.
struct ChainResult {
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    spans: Vec<Span>,
    counted: [LayerCounts; 2],
    updates: (u64, u64),
    deqs: (u64, u64),
}

fn run_chain(
    w: Workload,
    seed: u64,
    template: &Path,
    dir: &Path,
    st: &mut ClientStats,
) -> ChainResult {
    let (sessions, models, ops) = chain_ops(w, seed);
    let path = dir.join("chain.heap");
    let mut res = ChainResult {
        untraced_s: Vec::new(),
        traced_s: Vec::new(),
        spans: Vec::new(),
        counted: [LayerCounts::default(), LayerCounts::default()],
        updates: (0, 0),
        deqs: (0, 0),
    };
    for pass in 0..CHAIN_PASSES {
        // Untraced: the same chain with the no-op probe.
        let (mut ss, mut ms) = (sessions.clone(), models.clone());
        let outs = with_chain(template, &path, |ch| {
            let t0 = Instant::now();
            let outs: Vec<_> = ops.iter().map(|&(c, op)| ch.run(&mut ss[c], op, &mut ())).collect();
            res.untraced_s.push(secs(t0.elapsed()));
            outs
        });
        for (&(c, op), out) in ops.iter().zip(&outs) {
            if let Some(out) = out {
                check_chain(&mut ms, c, op, out, st);
            }
        }
        // Traced: a mark at every layer boundary.
        let (mut ss, mut ms) = (sessions.clone(), models.clone());
        let epoch = Instant::now();
        let mut spans = Vec::new();
        let outs = with_chain(template, &path, |ch| {
            let mut timer = Timer { epoch, marks: Vec::with_capacity(8) };
            let t0 = Instant::now();
            let outs: Vec<_> = ops
                .iter()
                .enumerate()
                .map(|(i, &(c, op))| {
                    timer.marks.clear();
                    let out = ch.run(&mut ss[c], op, &mut timer);
                    if let Some(out) = &out {
                        spans_of(i as u64, out.kind, &timer.marks, &mut spans);
                    }
                    out
                })
                .collect();
            res.traced_s.push(secs(t0.elapsed()));
            outs
        });
        for (&(c, op), out) in ops.iter().zip(&outs) {
            if let Some(out) = out {
                check_chain(&mut ms, c, op, out, st);
            }
        }
        if pass == 0 {
            res.spans = spans;
        }
    }
    // Counted, twice: nvm::stats deltas per stage. At a fixed seed the
    // per-kind totals must repeat exactly.
    for counted in res.counted.iter_mut() {
        let (mut ss, mut ms) = (sessions.clone(), models.clone());
        let mut updates = (0, 0);
        let mut deqs = (0, 0);
        with_chain(template, &path, |ch| {
            for &(c, op) in &ops {
                let mut counter = Counter::new();
                let Some(out) = ch.run(&mut ss[c], op, &mut counter) else { continue };
                check_chain(&mut ms, c, op, &out, st);
                counted.requests += 1;
                let mut total = Counts::default();
                for &(m, n) in &counter.stages {
                    total.add(n);
                    match m {
                        Mark::Admitted | Mark::Begun | Mark::Finished => counted.resptable.add(n),
                        Mark::Noted => counted.recovery.add(n),
                        Mark::Applied if matches!(out.kind, Kind::Enq | Kind::Deq) => {
                            counted.queue.add(n)
                        }
                        Mark::Applied => counted.map.add(n),
                        Mark::Start | Mark::Parsed | Mark::Done => {}
                    }
                }
                match out.kind {
                    Kind::Enq => counted.queue_ops += 1,
                    Kind::Deq => {
                        counted.queue_ops += 1;
                        deqs.0 += u64::from(out.value == isb::engine::RES_EMPTY);
                        deqs.1 += 1;
                    }
                    Kind::DedupHit => {}
                    k => {
                        counted.map_ops += 1;
                        if matches!(k, Kind::PutNew | Kind::PutDup | Kind::Del) {
                            let hit = k == Kind::PutNew
                                || (k == Kind::Del && out.value == isb::engine::RES_TRUE);
                            updates.0 += u64::from(hit);
                            updates.1 += 1;
                        }
                    }
                }
                let e = counted.kinds.entry(out.kind).or_default();
                e.0 += 1;
                e.1.add(total);
            }
        });
        res.updates = updates;
        res.deqs = deqs;
    }
    let _ = std::fs::remove_file(&path);
    res
}

/// Times `Store::open` of copies of `image`: (attach ms, attach_par_ms
/// counter, intents resolved, swept blocks), medians over `ATTACHES`.
fn attach_probe(image: &Path, dir: &Path) -> [f64; 4] {
    let path = dir.join("attach.heap");
    let mut r: [Vec<f64>; 4] = Default::default();
    for _ in 0..ATTACHES {
        std::fs::copy(image, &path).expect("copy heap image");
        nvm::tid::set_tid(0);
        let before = nvm::stats::snapshot();
        let t0 = Instant::now();
        let store = Store::open_sized(&path, Config::new(&path).heap_bytes).expect("attach image");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let d = nvm::stats::snapshot().since(&before);
        r[0].push(ms);
        r[1].push(d.attach_par_ms as f64);
        r[2].push(d.kv_intents_resolved as f64);
        r[3].push(store.summary().swept as f64);
    }
    let _ = std::fs::remove_file(&path);
    r.map(|v| median(&v))
}

/// The heap image a seeded SIGKILL leaves: `kvserved` over a copy of the
/// filled template, driven by the workload's clients until it dies.
fn killed_image(a: &Args, p: &Paths, template: &Path, st: &mut ClientStats) -> PathBuf {
    let w = a.workload;
    let heap = p.work.join("killed.heap");
    std::fs::copy(template, &heap).expect("copy template");
    let n = next_kill(&mut Rng::new(a.seed ^ KILL_SEED));
    let mut k = Kvserved::spawn(&p.kvserved, &heap, &p.work, Some(n));
    let addr = k.wait_addr(PORT_TIMEOUT).expect("kvserved accepts");
    let epoch = Instant::now();
    let mut clients: Vec<LoadClient> = (0..w.clients())
        .map(|c| {
            LoadClient::connect(addr, c + 1, w.stream(a.seed, c), w.model(c), epoch)
                .expect("connect")
        })
        .collect();
    std::thread::scope(|s| {
        for d in clients.iter_mut() {
            s.spawn(move || while d.step(false) == Step::Done {});
        }
    });
    k.wait_exit();
    for d in clients {
        st.merge(d.stats);
    }
    heap
}

/// `--trace 1`: the per-layer metrics of one workload.
fn traced_run(a: &Args, p: &Paths, rep: &mut Report) {
    let w = a.workload;
    let template = p.work.join("template.heap");
    make_store(&template, w.filled());
    let total = Duration::from_secs(a.seconds);

    // 1. The real server, untraced inside, with client-side request spans.
    let heap = p.work.join("kv.heap");
    std::fs::copy(&template, &heap).expect("copy template");
    let server = Server::start(Config::new(&heap)).expect("server start");
    let epoch = Instant::now();
    let mut clients: Vec<LoadClient> = (0..w.clients())
        .map(|c| {
            LoadClient::connect(server.local_addr(), c + 1, w.stream(a.seed, c), w.model(c), epoch)
                .expect("connect")
        })
        .collect();
    run_closed(&mut clients, WARMUP, Duration::ZERO);
    let warm: Vec<(u64, u64)> =
        clients.iter().map(|d| (d.stats.attempted, d.stats.replays)).collect();
    let os0 = osstat::sample("kv-");
    let s0 = nvm::stats::snapshot();
    run_closed(&mut clients, 0, total / 2);
    let sd = nvm::stats::snapshot().since(&s0);
    let os = osstat::delta(&os0, &osstat::sample("kv-"));
    server.stop();
    let mut client = ClientStats::default();
    let (mut reqs, mut replays) = (0, 0);
    for (d, (att, rep0)) in clients.into_iter().zip(warm) {
        reqs += d.stats.attempted - att;
        replays += d.stats.replays - rep0;
        client.merge(d.stats);
    }
    let per_req = |x: u64| ratio(x as f64, reqs as f64);
    let mut request: Vec<u64> = client.all.iter().map(|&(_, d)| d).collect();
    let request = Summary::of(&mut request, 1000.0);

    // 2. Attach of a heap image: the killed daemon's on kv_crash, the
    // stopped server's otherwise.
    let image =
        if w == Workload::Crash { killed_image(a, p, &template, &mut rep.stats) } else { heap };
    let [attach_ms, attach_par_ms, intents, swept] = attach_probe(&image, &p.work);

    // 3. The loopback echo baseline, one connection per client.
    let echo = Echo::start(w.clients() as usize);
    let until = Instant::now() + total / 4;
    let rtt: Vec<(u64, u64)> = std::thread::scope(|s| {
        let hs: Vec<_> =
            (0..w.clients()).map(|_| s.spawn(|| echo_client(echo.addr, until, epoch))).collect();
        hs.into_iter().flat_map(|h| h.join().expect("echo client")).collect()
    });
    echo.stop();
    let echo_sum = Summary::of(&mut rtt.iter().map(|&(_, d)| d).collect::<Vec<_>>(), 1000.0);

    // 4. The frame codec: encode + parse of a request and a response.
    let codec = codec_probe();

    // 5. The chain, untraced, traced and counted.
    let ch = run_chain(w, a.seed, &template, &p.work, &mut rep.stats);
    let overhead = (median(&ch.traced_s) / median(&ch.untraced_s) - 1.0) * 100.0;
    let by = |name: &str, self_of: bool| -> Summary {
        let mut v: Vec<u64> = ch
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                if self_of {
                    let kids: Vec<(u64, u64)> = ch
                        .spans
                        .iter()
                        .skip(i + 1)
                        .take_while(|k| k.parent == Some(i))
                        .map(|k| (k.start, k.end))
                        .collect();
                    self_time(s.start, s.end, &kids)
                } else {
                    s.end - s.start
                }
            })
            .collect();
        Summary::of(&mut v, 1.0)
    };
    let chain_req = by("request", false);

    // Persist counts per request kind must repeat exactly across passes.
    let [c0, c1] = &ch.counted;
    if c0.kinds != c1.kinds {
        rep.fail(format!(
            "chain persist counts differ between two passes at seed {}: {:?} vs {:?}",
            a.seed, c0.kinds, c1.kinds
        ));
    }
    write_trace(p, a, &ch.spans, &client.all, &rtt, &c0.kinds, rep);

    rep.timing("transport.echo_rtt", &echo_sum, "us");
    rep.timing("proto.codec", &codec, "ns");
    rep.timing("kvserve.request", &request, "us");
    rep.timing("chain.request", &chain_req, "ns");
    let chain_self = by("request", true);
    rep.metric("chain.request_self_p50_ns", chain_self.p50, "ns");
    rep.metric(
        "server.self_p50_us",
        server_self_us(request.p50, echo_sum.p50, chain_req.p50),
        "us",
    );
    let tps = osstat::ticks_per_second() as f64;
    rep.metric("os.cpu_us_per_req", per_req(os.cpu_ticks) * 1e6 / tps, "us");
    rep.metric("os.ctx_switches_per_req", per_req(os.voluntary_switches), "count");

    let rq = c0.requests as f64;
    rep.timing("resptable.admit", &by("resptable.admit", false), "ns");
    rep.timing("resptable.begin_op", &by("resptable.begin_op", false), "ns");
    rep.timing("resptable.finish_op", &by("resptable.finish_op", false), "ns");
    rep.metric("resptable.pwb_per_req", ratio(c0.resptable.pwb as f64, rq), "count");
    rep.metric("resptable.psync_per_req", ratio(c0.resptable.psync as f64, rq), "count");
    rep.metric(
        "resptable.dedup_hit_ratio",
        ratio(sd.kv_dedup_hits as f64, replays as f64),
        "ratio",
    );

    rep.timing("recovery.note_invocation", &by("recovery.note_invocation", false), "ns");
    rep.metric("recovery.pbarrier_per_req", ratio(c0.recovery.pbarrier as f64, rq), "count");
    rep.metric("recovery.attach_ms", attach_ms, "ms");
    rep.metric("recovery.attach_par_ms", attach_par_ms, "ms");
    rep.metric("recovery.intents_resolved", intents, "count");
    rep.metric("recovery.swept_blocks", swept, "count");

    rep.timing("hashmap.find", &by("hashmap.find", false), "ns");
    rep.timing("hashmap.insert", &by("hashmap.insert", false), "ns");
    rep.timing("hashmap.delete", &by("hashmap.delete", false), "ns");
    let mo = c0.map_ops as f64;
    rep.metric("hashmap.pwb_per_op", ratio(c0.map.pwb as f64, mo), "count");
    rep.metric("hashmap.psync_per_op", ratio(c0.map.psync as f64, mo), "count");
    rep.metric(
        "hashmap.update_hit_ratio",
        ratio(ch.updates.0 as f64, ch.updates.1 as f64),
        "ratio",
    );

    rep.timing("queue.enqueue", &by("queue.enqueue", false), "ns");
    rep.timing("queue.dequeue", &by("queue.dequeue", false), "ns");
    rep.metric("queue.psync_per_op", ratio(c0.queue.psync as f64, c0.queue_ops as f64), "count");
    rep.metric("queue.empty_ratio", ratio(ch.deqs.0 as f64, ch.deqs.1 as f64), "ratio");

    rep.metric("heap.allocs_per_req", per_req(sd.heap_allocs), "count");
    rep.metric(
        "heap.free_list_hit_ratio",
        ratio(sd.free_list_hits as f64, sd.heap_allocs as f64),
        "ratio",
    );
    rep.metric("heap.slab_refills_per_kreq", per_req(sd.slab_refills) * 1000.0, "count");

    rep.metric("persist.pwb_per_req", per_req(sd.pwb), "count");
    rep.metric("persist.pfence_per_req", per_req(sd.pfence), "count");
    rep.metric("persist.psync_per_req", per_req(sd.psync), "count");
    rep.metric("persist.pbarrier_per_req", per_req(sd.pbarrier), "count");
    rep.metric("persist.pwb_elided_per_req", per_req(sd.pwb_elided), "count");
    rep.metric("trace.overhead_pct", overhead, "%");
    rep.note(format!(
        "server run: {reqs} requests, {replays} replays; chain: {} requests",
        c0.requests
    ));
    rep.stats.merge(client);
}

/// Encode + parse of one request frame and one response frame, timed in
/// batches (a single codec round is below the clock's resolution).
fn codec_probe() -> Summary {
    use kvserve::proto::{encode_request, encode_response, parse_request, parse_response};
    const BATCH: u64 = 64;
    let mut samples = Vec::new();
    for b in 0..20_000u64 {
        let t0 = Instant::now();
        for i in 0..BATCH {
            let req = kvserve::Request {
                op: kvserve::OpCode::Put,
                client_id: 1 + (i & 3),
                op_seq: b * BATCH + i,
                arg: i,
            };
            let f = std::hint::black_box(encode_request(&req));
            let r = parse_request(&f[4..]).expect("request parses");
            let resp =
                kvserve::Response { status: kvserve::Status::Ok, op_seq: r.op_seq, value: r.arg };
            let g = std::hint::black_box(encode_response(&resp));
            std::hint::black_box(parse_response(&g[4..]).expect("response parses"));
        }
        // Picoseconds per round, so the ns summary keeps its fraction.
        samples.push(t0.elapsed().as_nanos() as u64 * 1000 / BATCH);
    }
    Summary::of(&mut samples, 1000.0)
}

/// Writes the spans (chain, client requests, echo round trips) and the
/// chain's persist counts per request kind.
fn write_trace(
    p: &Paths,
    a: &Args,
    spans: &[Span],
    requests: &[(u64, u64)],
    rtt: &[(u64, u64)],
    kinds: &KindCounts,
    rep: &mut Report,
) {
    let stem = format!("{}-seed{}", a.workload.name(), a.seed);
    let mut t = String::from("req\tname\tstart_ns\tend_ns\tparent\n");
    for s in spans {
        let parent = s.parent.map_or(String::from("-"), |i| i.to_string());
        writeln!(t, "{}\t{}\t{}\t{}\t{parent}", s.req, s.name, s.start, s.end).expect("format");
    }
    for (name, list) in [("kvserve.request", requests), ("transport.echo", rtt)] {
        for (i, &(s, d)) in list.iter().enumerate() {
            writeln!(t, "{i}\t{name}\t{s}\t{}\t-", s + d).expect("format");
        }
    }
    let trace = p.out.join(format!("trace-{stem}.tsv"));
    std::fs::write(&trace, t).expect("write trace");
    let mut c = String::from("kind\trequests\tpwb\tpfence\tpsync\tpbarrier\n");
    let seen: BTreeSet<Kind> = kinds.keys().copied().collect();
    for k in seen {
        let (n, x) = kinds[&k];
        writeln!(c, "{}\t{n}\t{}\t{}\t{}\t{}", k.name(), x.pwb, x.pfence, x.psync, x.pbarrier)
            .expect("format");
    }
    let counts = p.out.join(format!("persist-{stem}.tsv"));
    std::fs::write(&counts, &c).expect("write persist counts");
    rep.note(format!(
        "spans: {} ({} chain) -> {}",
        spans.len() + requests.len() + rtt.len(),
        spans.len(),
        trace.display()
    ));
    rep.note(format!("chain persist counts per kind -> {}", counts.display()));
    for line in c.lines().skip(1) {
        rep.note(format!("persist {}", line.replace('\t', " ")));
    }
}
