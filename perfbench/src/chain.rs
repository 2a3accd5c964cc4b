//! The request chain in-process: the frame codec of the connection thread
//! and the public calls `kvserve::server::handle` composes, in the same
//! order, with a probe at each layer boundary. No socket, no worker thread
//! — so on one thread the process-global `nvm::stats` deltas between two
//! marks belong to exactly one layer.

use crate::gen::Op;
use isb::engine::{res_val, RES_EMPTY, RES_FALSE, RES_TRUE, RES_UNIT};
use isb::hashmap::RHashMap;
use isb::queue::RQueue;
use isb::resptable::ResponseTable;
use kvserve::proto::{encode_request, encode_response, parse_request, parse_response};
use kvserve::server::ARM;
use kvserve::{Request, Response, Status};
use nvm::mapped::MappedNvm;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Layer boundaries of one request, in the order `handle` crosses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    Start,
    /// The request frame is encoded and parsed back.
    Parsed,
    /// register + foreign_inflight + lookup done.
    Admitted,
    /// note_invocation done.
    Noted,
    /// begin_op done.
    Begun,
    /// The structure op returned.
    Applied,
    /// finish_op done.
    Finished,
    /// The response frame is encoded: the request ends.
    Done,
}

/// Observes layer boundaries. The untraced chain uses `()`, which compiles
/// to nothing.
pub trait Probe {
    fn mark(&mut self, m: Mark);
}

impl Probe for () {
    #[inline(always)]
    fn mark(&mut self, _: Mark) {}
}

/// What a chain request was, for per-layer and per-op-type accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    PutNew,
    PutDup,
    Del,
    Get,
    Enq,
    Deq,
    DedupHit,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::PutNew => "put-new",
            Kind::PutDup => "put-dup",
            Kind::Del => "del",
            Kind::Get => "get",
            Kind::Enq => "enq",
            Kind::Deq => "deq",
            Kind::DedupHit => "dedup-hit",
        }
    }

    /// The span name of the structure op, if the request reached one.
    pub fn op_span(self) -> Option<&'static str> {
        match self {
            Kind::PutNew | Kind::PutDup => Some("hashmap.insert"),
            Kind::Del => Some("hashmap.delete"),
            Kind::Get => Some("hashmap.find"),
            Kind::Enq => Some("queue.enqueue"),
            Kind::Deq => Some("queue.dequeue"),
            Kind::DedupHit => None,
        }
    }
}

/// One client's request stream through the chain.
pub struct Chain {
    pub map: Arc<RHashMap<MappedNvm, ARM>>,
    pub queue: Arc<RQueue<MappedNvm, ARM>>,
    pub rt: ResponseTable,
    /// The worker tid the chain runs as.
    pub pid: usize,
    /// The tids the server's own workers use (`foreign_inflight`'s band).
    pub band: Range<usize>,
}

/// Per-client sequencing the chain keeps, as `KvClient` does.
#[derive(Debug, Clone, Copy)]
pub struct Session {
    pub client_id: u64,
    pub next_seq: u64,
    /// The last acknowledged request (`op`, `arg`, seq) and its answer.
    pub last: Option<(Op, u64, u64)>,
}

impl Session {
    pub fn new(client_id: u64) -> Session {
        Session { client_id, next_seq: 1, last: None }
    }
}

/// The result of one chain request.
pub struct Outcome {
    pub kind: Kind,
    pub value: u64,
    /// For a replay: whether it returned the original answer.
    pub replay_ok: bool,
}

impl Chain {
    /// Runs `op` for `sess`. A `Replay` re-sends the last acknowledged
    /// request with its original sequence number. `None` when a replay has
    /// nothing to replay.
    pub fn run(&self, sess: &mut Session, op: Op, probe: &mut impl Probe) -> Option<Outcome> {
        let (op, seq, original) = match op {
            Op::Replay => {
                let (op, seq, value) = sess.last?;
                (op, seq, Some(value))
            }
            _ => (op, sess.next_seq, None),
        };
        probe.mark(Mark::Start);
        let (code, arg) = wire(op);
        let frame =
            encode_request(&Request { op: code, client_id: sess.client_id, op_seq: seq, arg });
        let req = parse_request(&frame[4..]).expect("the chain's frames are valid");
        probe.mark(Mark::Parsed);
        let cid = req.client_id;
        let idx = self.rt.register(cid).expect("response table has room");
        let foreign = self.rt.foreign_inflight(cid, self.band.clone());
        let (last_seq, stored) = self.rt.lookup(cid).expect("registered above");
        probe.mark(Mark::Admitted);
        assert!(!foreign, "no peer process shares the chain's heap");
        if req.op_seq == last_seq && last_seq != 0 {
            let value = respond(req.op_seq, stored);
            probe.mark(Mark::Done);
            return Some(Outcome {
                kind: Kind::DedupHit,
                value,
                replay_ok: original == Some(value),
            });
        }
        assert_eq!(req.op_seq, last_seq + 1, "the chain sends sequence numbers in order");
        let pid = self.pid;
        match op {
            Op::Put(_) | Op::Del(_) | Op::Get(_) => self.map.note_invocation(pid),
            _ => self.queue.note_invocation(pid),
        }
        probe.mark(Mark::Noted);
        self.rt.begin_op(pid, cid, req.op_seq, req.op as u64, req.arg);
        probe.mark(Mark::Begun);
        let flag = |b: bool| if b { RES_TRUE } else { RES_FALSE };
        let (kind, value) = match op {
            Op::Put(k) => {
                let new = self.map.insert(pid, k);
                (if new { Kind::PutNew } else { Kind::PutDup }, flag(new))
            }
            Op::Del(k) => (Kind::Del, flag(self.map.delete(pid, k))),
            Op::Get(k) => (Kind::Get, flag(self.map.find(pid, k))),
            Op::Enq(v) => {
                self.queue.enqueue(pid, v);
                (Kind::Enq, RES_UNIT)
            }
            Op::Deq => (Kind::Deq, self.queue.dequeue(pid).map_or(RES_EMPTY, res_val)),
            Op::Replay => unreachable!("resolved above"),
        };
        probe.mark(Mark::Applied);
        self.rt.finish_op(pid, idx, req.op_seq, value);
        probe.mark(Mark::Finished);
        let value = respond(req.op_seq, value);
        probe.mark(Mark::Done);
        sess.last = Some((op, seq, value));
        sess.next_seq = seq + 1;
        Some(Outcome { kind, value, replay_ok: true })
    }
}

/// Encodes the response frame as the connection thread does and returns
/// its result word as the client parses it.
fn respond(op_seq: u64, value: u64) -> u64 {
    let frame = encode_response(&Response { status: Status::Ok, op_seq, value });
    parse_response(&frame[4..]).expect("the chain's frames are valid").value
}

/// The wire opcode and argument of a fresh op.
pub fn wire(op: Op) -> (kvserve::OpCode, u64) {
    use kvserve::OpCode;
    match op {
        Op::Put(k) => (OpCode::Put, k),
        Op::Del(k) => (OpCode::Del, k),
        Op::Get(k) => (OpCode::Get, k),
        Op::Enq(v) => (OpCode::Enq, v),
        Op::Deq => (OpCode::Deq, 0),
        Op::Replay => unreachable!("a replay re-sends an earlier op"),
    }
}

/// Records the instant of every mark, as nanoseconds since `epoch`.
pub struct Timer {
    pub epoch: Instant,
    pub marks: Vec<(Mark, u64)>,
}

impl Probe for Timer {
    #[inline]
    fn mark(&mut self, m: Mark) {
        self.marks.push((m, self.epoch.elapsed().as_nanos() as u64));
    }
}

/// Persist counts of one request, split by the stage they fell in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub pwb: u64,
    pub pfence: u64,
    pub psync: u64,
    pub pbarrier: u64,
}

impl Counts {
    fn of(s: &nvm::stats::Snapshot) -> Counts {
        Counts { pwb: s.pwb, pfence: s.pfence, psync: s.psync, pbarrier: s.pbarrier }
    }

    pub fn add(&mut self, o: Counts) {
        self.pwb += o.pwb;
        self.pfence += o.pfence;
        self.psync += o.psync;
        self.pbarrier += o.pbarrier;
    }
}

/// Takes an `nvm::stats` snapshot at every mark and attributes each delta
/// to the stage it closes.
pub struct Counter {
    last: nvm::stats::Snapshot,
    /// Deltas of the current request by the mark that ended them.
    pub stages: Vec<(Mark, Counts)>,
}

impl Counter {
    pub fn new() -> Counter {
        Counter { last: nvm::stats::snapshot(), stages: Vec::new() }
    }
}

impl Probe for Counter {
    fn mark(&mut self, m: Mark) {
        let now = nvm::stats::snapshot();
        if m != Mark::Start {
            self.stages.push((m, Counts::of(&now.since(&self.last))));
        }
        self.last = now;
    }
}

/// Persist counts summed per request kind: the table a fixed seed must
/// reproduce exactly.
pub type KindCounts = BTreeMap<Kind, (u64, Counts)>;
