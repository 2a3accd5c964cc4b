//! Shadow models: what each response must be, given every request this
//! client sent before it was applied exactly once.

use crate::gen::Op;
use isb::engine::{res_val, RES_EMPTY, RES_FALSE, RES_TRUE, RES_UNIT};
use kvserve::proto::encode_response;
use kvserve::Response;
use std::collections::{BTreeSet, VecDeque};

/// One client's view of the store: the keys it owns and its FIFO queue.
/// Exact as long as no other client touches the same keys or queue.
#[derive(Debug, Clone, Default)]
pub struct Model {
    keys: BTreeSet<u64>,
    fifo: VecDeque<u64>,
}

/// A response that the model says cannot be right.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    pub op: Op,
    pub expected: u64,
    pub got: u64,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: expected result word {} got {}", self.op, self.expected, self.got)
    }
}

impl Model {
    pub fn with_keys(keys: impl IntoIterator<Item = u64>) -> Model {
        Model { keys: keys.into_iter().collect(), fifo: VecDeque::new() }
    }

    /// Applies `op` once and returns the result word the server must answer.
    pub fn apply(&mut self, op: Op) -> u64 {
        let flag = |b: bool| if b { RES_TRUE } else { RES_FALSE };
        match op {
            Op::Put(k) => flag(self.keys.insert(k)),
            Op::Del(k) => flag(self.keys.remove(&k)),
            Op::Get(k) => flag(self.keys.contains(&k)),
            Op::Enq(v) => {
                self.fifo.push_back(v);
                RES_UNIT
            }
            Op::Deq => self.fifo.pop_front().map_or(RES_EMPTY, res_val),
            Op::Replay => unreachable!("replays are checked against the original response"),
        }
    }

    /// Applies `op` and checks the server's answer `got` against it.
    pub fn check(&mut self, op: Op, got: u64) -> Result<(), Mismatch> {
        let expected = self.apply(op);
        if expected == got {
            Ok(())
        } else {
            Err(Mismatch { op, expected, got })
        }
    }

    pub fn contains(&self, key: u64) -> bool {
        self.keys.contains(&key)
    }

    pub fn live_keys(&self) -> usize {
        self.keys.len()
    }
}

/// A dedup replay must return the original acknowledgement byte for byte.
pub fn replay_identical(replayed: &Response, original: &Response) -> bool {
    encode_response(replayed) == encode_response(original)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvserve::Status;

    #[test]
    fn set_semantics() {
        let mut m = Model::with_keys([2, 4]);
        assert_eq!(m.check(Op::Get(2), RES_TRUE), Ok(()));
        assert_eq!(m.check(Op::Put(2), RES_FALSE), Ok(()));
        assert_eq!(m.check(Op::Put(3), RES_TRUE), Ok(()));
        assert_eq!(m.check(Op::Del(4), RES_TRUE), Ok(()));
        assert_eq!(m.check(Op::Get(4), RES_FALSE), Ok(()));
        assert_eq!(m.live_keys(), 2);
    }

    #[test]
    fn fifo_semantics() {
        let mut m = Model::default();
        assert_eq!(m.check(Op::Deq, RES_EMPTY), Ok(()));
        assert_eq!(m.check(Op::Enq(7), RES_UNIT), Ok(()));
        assert_eq!(m.check(Op::Enq(9), RES_UNIT), Ok(()));
        assert_eq!(m.check(Op::Deq, res_val(7)), Ok(()));
        assert_eq!(m.check(Op::Deq, res_val(9)), Ok(()));
    }

    #[test]
    fn deliberate_mismatches_fail() {
        let mut m = Model::with_keys([2]);
        // A double-applied put answers "already present".
        assert_eq!(
            m.check(Op::Put(5), RES_FALSE),
            Err(Mismatch { op: Op::Put(5), expected: RES_TRUE, got: RES_FALSE })
        );
        // A lost delete leaves the key visible.
        assert!(m.check(Op::Del(2), RES_TRUE).is_ok());
        assert!(m.check(Op::Get(2), RES_TRUE).is_err());
        // FIFO order violated.
        m.apply(Op::Enq(1));
        m.apply(Op::Enq(2));
        assert!(m.check(Op::Deq, res_val(2)).is_err());
    }

    #[test]
    fn replay_must_be_byte_identical() {
        let orig = Response { status: Status::Ok, op_seq: 9, value: RES_TRUE };
        assert!(replay_identical(&orig, &orig));
        assert!(!replay_identical(&Response { value: RES_FALSE, ..orig }, &orig));
        assert!(!replay_identical(&Response { op_seq: 8, ..orig }, &orig));
        assert!(!replay_identical(&Response::err(Status::StaleSeq, 9), &orig));
    }
}
