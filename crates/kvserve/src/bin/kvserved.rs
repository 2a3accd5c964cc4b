//! `kvserved` — the KV service daemon.
//!
//! ```text
//! kvserved --path HEAP [--addr 127.0.0.1:0] [--shards 8] [--workers 2]
//!          [--heap-bytes N] [--shared] [--port-file F] [--stop-file F]
//! ```
//!
//! Opens (recovering) the store heap at `--path`, binds, prints the bound
//! address, and serves until killed — or until `--stop-file` appears, which
//! triggers a graceful shutdown (used by harnesses that need the process to
//! exit without SIGKILL so no in-flight state is left behind). With
//! `--port-file` the bound port is published atomically (write + rename)
//! once the server is accepting, which doubles as the "recovery finished"
//! handshake for restart harnesses.
//!
//! `--workers` is the number of lanes: process slots (one tid each) that
//! requests run under, on their connection's thread. `--shards` is the hash
//! map's number of initial buckets (a power of two; the split-ordered map
//! doubles its bucket directory as keys arrive).

use kvserve::{Config, Server};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: kvserved --path HEAP [--addr A] [--shards N] [--workers LANES] \
         [--heap-bytes N] [--shared] [--port-file F] [--stop-file F]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut shards = 8usize;
    let mut workers = 2usize;
    let mut heap_bytes = 32usize << 20;
    let mut shared = false;
    let mut port_file: Option<std::path::PathBuf> = None;
    let mut stop_file: Option<std::path::PathBuf> = None;
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--path" => path = Some(val()),
            "--addr" => addr = val(),
            "--shards" => shards = val().parse().unwrap_or_else(|_| usage()),
            "--workers" => workers = val().parse().unwrap_or_else(|_| usage()),
            "--heap-bytes" => heap_bytes = val().parse().unwrap_or_else(|_| usage()),
            "--shared" => shared = true,
            "--port-file" => port_file = Some(val().into()),
            "--stop-file" => stop_file = Some(val().into()),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let mut cfg = Config::new(path);
    cfg.addr = addr.parse().unwrap_or_else(|_| usage());
    cfg.shards = shards;
    cfg.workers = workers;
    cfg.heap_bytes = heap_bytes;
    cfg.shared = shared;

    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("kvserved: {e}");
            std::process::exit(1);
        }
    };
    println!("kvserved listening on {}", server.local_addr());
    if let Some(pf) = &port_file {
        let tmp = pf.with_extension("tmp");
        std::fs::write(&tmp, format!("{}\n", server.local_addr().port()))
            .and_then(|()| std::fs::rename(&tmp, pf))
            .expect("publish port file");
    }
    loop {
        if let Some(sf) = &stop_file {
            if sf.exists() {
                server.stop();
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
