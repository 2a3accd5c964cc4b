//! Recoverable elimination stack: **direct tracking** on a Treiber stack,
//! combined with the recoverable exchanger for elimination (paper Sections 1
//! and 5: "the approach can be combined with a technique we call
//! direct-tracking … to get an elimination stack").
//!
//! Direct tracking (no descriptors): the per-process recovery word `RD_q`
//! names a **node** instead of an Info structure, annotated with
//! [`crate::tag::DIRECT`] so shared-recovery-area neighbours
//! ([`crate::store::Store`]) never misread it as a descriptor.
//!
//! * A **push** announces its node in `RD_q` (durably), links it with one
//!   CAS and persists the link before returning. Post-crash detection: the
//!   push took effect iff the node is reachable, or its `popped_by` stamp
//!   is set (pushed, then popped).
//! * A **pop** announces the observed top in `RD_q` (claim announcement,
//!   [`crate::tag::TAG`] set), then **claims** it by CASing its `popped_by`
//!   word from 0 to `pid+1` — the arbitration deciding which popper owns
//!   the removal across a crash — persists the claim, then unlinks
//!   (helping poppers unlink claimed nodes they encounter).
//!
//! The paper assumes garbage collection, under which a node named by some
//! `RD_q` is never reused. We emulate that root: a claimed node is retired
//! only on its claimant's *next* operation (when its `RD_q` has moved on),
//! and the retirement first scans the recovery area — a node still
//! announced by another process parks in a limbo list instead of
//! re-entering the pool, so no crash can observe a recycled announcement.
//! (Mapped mode: limbo blocks stay committed and the next attach sweeps
//! them.)
//!
//! Under contention on `top`, colliding pushes and pops first try to
//! **eliminate** through an [`RExchanger`]: a push offers `PUSH|v`, a pop
//! offers `POP`; a (push, pop) match transfers the value without touching
//! the stack; a mismatched pair simply retries. Elimination is *volatile*
//! (the exchanger lives on the process heap), so an eliminated transfer is
//! not detectable across a crash — the mapped backend disables elimination
//! (its [`MappedLayout::open`] sets the budget to zero), and a push withdraws its
//! announcement before taking the elimination result.

use crate::counters;
use crate::engine::{res_val, val_of, RES_UNIT};
use crate::exchanger::{ExchangeResult, RExchanger};
use crate::pool::{Pool, PoolCfg, PoolItem};
use crate::recovery::{
    release_prev, AttachEnv, AttachError, MappedLayout, RecArea, Recovered, SlotOps,
};
use crate::tag;
use nvm::addr_hash::{AddrMap, AddrSet};
use nvm::mapped::{MapError, MappedHeap, MappedNvm};
use nvm::pad::CachePadded;
use nvm::{PWord, Persist, PersistWords, MAX_PROCS};
use reclaim::{Collector, Guard};
use std::cell::UnsafeCell;
use std::sync::{Arc, Mutex};

/// Store catalog-entry kind tag of a mapped `RStack`.
pub const KIND_STACK: u64 = 5;

/// A stack node.
#[repr(C)]
pub struct Node<M: Persist> {
    val: PWord<M>,
    next: PWord<M>,
    /// 0 = live; `pid+1` = claimed by that popper.
    popped_by: PWord<M>,
}

unsafe impl<M: Persist> PersistWords<M> for Node<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.val);
        f(&self.next);
        f(&self.popped_by);
    }
}

impl<M: Persist> Node<M> {
    fn alloc(val: u64, next: u64) -> *mut Node<M> {
        counters::node_alloc();
        Box::into_raw(Box::new(Node {
            val: PWord::new(val),
            next: PWord::new(next),
            popped_by: PWord::new(0),
        }))
    }

    /// Re-initialize a pool-recycled node (clears the claim stamp).
    fn init(&self, val: u64, next: u64) {
        self.val.store(val);
        self.next.store(next);
        self.popped_by.store(0);
    }
}

impl<M: Persist> PoolItem for Node<M> {
    fn fresh() -> Self {
        counters::node_alloc();
        Node { val: PWord::new(0), next: PWord::new(0), popped_by: PWord::new(0) }
    }

    fn count_reuse() {
        counters::node_reuse();
    }
}

impl<M: Persist> Drop for Node<M> {
    fn drop(&mut self) {
        counters::node_free();
    }
}

/// Reads the claim stamp (`popped_by`) of the direct-tracked node at `node`
/// — the word the recovery decision arbitrates on.
///
/// # Safety
/// `node` must be a whole-node span inside live memory (attach-time callers
/// span-validate it against the mapping first).
pub(crate) unsafe fn direct_stamp<M: Persist>(node: u64) -> u64 {
    unsafe { (*(node as *const Node<M>)).popped_by.peek() }
}

/// Reads the payload value of the direct-tracked node at `node`.
///
/// # Safety
/// As [`direct_stamp`].
pub(crate) unsafe fn direct_val<M: Persist>(node: u64) -> u64 {
    unsafe { (*(node as *const Node<M>)).val.peek() }
}

const ELIM_PUSH: u64 = 1 << 62;
const ELIM_POP: u64 = 1 << 61;

/// Where the stack's `top` cell lives: owned on the process heap, or
/// borrowed from the mapped backend's persistent arena (a root block that
/// must survive the process).
enum TopStore<M: Persist> {
    Owned(Box<PWord<M>>),
    Arena(*const PWord<M>),
}

impl<M: Persist> std::ops::Deref for TopStore<M> {
    type Target = PWord<M>;
    #[inline]
    fn deref(&self) -> &PWord<M> {
        match self {
            TopStore::Owned(b) => b,
            // SAFETY: the arena root block outlives the stack (which keeps
            // its MappedHeap alive).
            TopStore::Arena(p) => unsafe { &**p },
        }
    }
}

/// Recoverable elimination stack (see module docs). Values must stay below
/// `2^61 - 16`.
pub struct RStack<M: Persist> {
    top: TopStore<M>,
    /// Per-process recovery words (`RD_q`/`CP_q`) used for direct tracking.
    rec: RecArea<M>,
    exch: RExchanger<M>,
    // `collector` must drop before `node_pool` (drop-time drain recycles).
    collector: Collector,
    node_pool: Pool<Node<M>>,
    /// Deferred retirement: the node each process claimed with its *last*
    /// pop, retired on that process's next operation (once `RD_q` no longer
    /// names it). Each slot is touched only by its owning process.
    pending: Vec<CachePadded<UnsafeCell<*mut Node<M>>>>,
    /// Unlinked nodes that could not be recycled because some `RD_q` still
    /// announces them (or because a helper unlinked them on the claimant's
    /// behalf). Freed at drop; in mapped mode the next attach sweeps them.
    limbo: Mutex<Vec<*mut Node<M>>>,
    /// Spin budget offered to the elimination layer (0 disables it — the
    /// mapped backend, where elimination would not be detectable).
    elim_budget: usize,
    /// Mapped mode: the persistent heap everything lives in (`Some`
    /// suppresses drop-time teardown).
    mapped: Option<Arc<MappedHeap>>,
}

unsafe impl<M: Persist> Send for RStack<M> {}
unsafe impl<M: Persist> Sync for RStack<M> {}

impl<M: Persist> Default for RStack<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist> RStack<M> {
    /// New empty stack.
    pub fn new() -> Self {
        Self::with_config(PoolCfg::default())
    }

    /// New empty stack with the given pool configuration (shared by the
    /// node pool and the elimination exchanger's descriptor pool).
    pub fn with_config(pool: PoolCfg) -> Self {
        let collector = Collector::new();
        // The exchanger is volatile machinery: its descriptors never live
        // in a persistent arena even when the nodes do.
        let exch_pool = if pool.arena.is_some() { PoolCfg::default() } else { pool.clone() };
        let node_pool = Pool::new_for::<M>(pool, &collector);
        Self {
            top: TopStore::Owned(Box::new(PWord::new(0))),
            rec: RecArea::new(),
            exch: RExchanger::with_config(Collector::new(), exch_pool),
            collector,
            node_pool,
            pending: (0..MAX_PROCS)
                .map(|_| CachePadded::new(UnsafeCell::new(std::ptr::null_mut())))
                .collect(),
            limbo: Mutex::new(Vec::new()),
            elim_budget: 200,
            mapped: None,
        }
    }

    /// Draw a node: pool hit (re-initialized), or heap in passthrough mode.
    #[inline]
    fn alloc_node(&self, val: u64, next: u64) -> *mut Node<M> {
        match self.node_pool.take() {
            Some(p) => {
                unsafe { (*p).init(val, next) };
                p
            }
            None => Node::alloc(val, next),
        }
    }

    /// Whether any *other* process's `RD_q` still announces `n` (push or
    /// claim announcement). Such a node must not re-enter circulation: its
    /// claim stamp is what that process's recovery will read.
    fn announced_elsewhere(&self, pid: usize, n: *mut Node<M>) -> bool {
        let mut found = false;
        for q in 0..MAX_PROCS {
            if q == pid {
                continue;
            }
            let rd = self.rec.published(q);
            if tag::is_direct(rd) && tag::addr_of(rd) == n as u64 {
                found = true;
            }
        }
        found
    }

    /// Retires the node this process's previous pop claimed, now that its
    /// `RD_q` has moved on (deferred retirement — the GC-root emulation of
    /// the module docs).
    fn flush_pending(&self, pid: usize, g: &Guard<'_>) {
        // SAFETY: each pending slot is touched only by its owning process.
        let slot = unsafe { &mut *self.pending[pid].get() };
        let n = *slot;
        if n.is_null() {
            return;
        }
        *slot = std::ptr::null_mut();
        if self.announced_elsewhere(pid, n) {
            self.limbo.lock().unwrap().push(n);
        } else {
            // SAFETY: the node was claimed and unlinked by this process and
            // no RD_q names it any more; retired exactly once (the slot is
            // cleared above).
            unsafe { self.node_pool.retire(n, g) };
        }
    }

    /// Pushes `v`.
    pub fn push(&self, pid: usize, v: u64) {
        assert!(v < ELIM_POP - 16, "value too large");
        let g = self.collector.pin();
        let prev = self.rec.begin::<0>(pid);
        unsafe { release_prev::<M>(prev, &g) };
        self.flush_pending(pid, &g);
        let node = self.alloc_node(v, 0);
        unsafe {
            M::pwb_obj(&*node);
        }
        // Direct tracking: announce the node durably BEFORE it can become
        // reachable, so a crash after the link CAS finds RD_q naming it.
        self.rec.publish(pid, node as u64 | tag::DIRECT);
        loop {
            let t = (*self.top).load();
            unsafe { (*node).next.store(t) };
            M::pwb(unsafe { &(*node).next });
            M::pfence();
            if (*self.top).cas(t, node as u64) == t {
                M::pwb(&self.top);
                M::psync();
                return;
            }
            // Contention: try to eliminate against a pop.
            if self.elim_budget > 0 {
                if let ExchangeResult::Exchanged(other) =
                    self.exch.exchange(pid, ELIM_PUSH | v, self.elim_budget)
                {
                    if other & ELIM_POP != 0 {
                        // A pop took our value directly; the node was never
                        // published — withdraw the announcement, then
                        // straight back to the pool. (The elimination itself
                        // is volatile and not detectable; see module docs.)
                        self.rec.publish(pid, 0);
                        unsafe { self.node_pool.give(node, &g) };
                        return;
                    }
                    // push/push collision: no transfer happened — retry.
                }
            }
        }
    }

    /// Pops; `None` when empty.
    pub fn pop(&self, pid: usize) -> Option<u64> {
        let g = self.collector.pin();
        let prev = self.rec.begin::<0>(pid);
        unsafe { release_prev::<M>(prev, &g) };
        self.flush_pending(pid, &g);
        loop {
            let t = (*self.top).load() as *mut Node<M>;
            if t.is_null() {
                // The empty response is not tracked (RD_q stays Null):
                // restarting an empty pop is the weaker guarantee direct
                // tracking gives reads.
                return None;
            }
            let claimed = unsafe { (*t).popped_by.load() };
            if claimed != 0 {
                // Help unlink the claimed node, then retry. The claimant
                // (or the limbo list) owns its memory.
                unsafe {
                    M::pbarrier(&(*t).popped_by);
                    if (*self.top).cas(t as u64, (*t).next.load()) == t as u64 {
                        self.limbo.lock().unwrap().push(t);
                    }
                }
                continue;
            }
            // Announce the claim target durably BEFORE the claim CAS: the
            // stamp is the arbitration recovery reads through RD_q.
            self.rec.publish(pid, t as u64 | tag::DIRECT | tag::TAG);
            // Arbitration: claim before unlinking (exactly-once across crash).
            if unsafe { (*t).popped_by.cas(0, pid as u64 + 1) } == 0 {
                unsafe {
                    M::pbarrier(&(*t).popped_by);
                    let v = (*t).val.load();
                    if (*self.top).cas(t as u64, (*t).next.load()) == t as u64 {
                        M::pwb(&self.top);
                        // Deferred retirement: RD_q still names `t` (its
                        // stamp is this pop's durable receipt), so it parks
                        // in the pending slot until our next operation.
                        // SAFETY: slot owned by this process.
                        *self.pending[pid].get() = t;
                    }
                    // else: a helper unlinked it and parked it in limbo.
                    M::psync();
                    return Some(v);
                }
            }
            // Lost the claim: try elimination against a push.
            if self.elim_budget > 0 {
                if let ExchangeResult::Exchanged(other) =
                    self.exch.exchange(pid, ELIM_POP, self.elim_budget)
                {
                    if other & ELIM_PUSH != 0 {
                        return Some(other & !(ELIM_PUSH | ELIM_POP));
                    }
                }
            }
        }
    }

    /// Whether `node` is reachable from `top` (quiescent or EBR-protected).
    fn reachable(&self, node: u64) -> bool {
        unsafe {
            let mut n = (*self.top).load() as *mut Node<M>;
            while !n.is_null() {
                if n as u64 == node {
                    return true;
                }
                n = (*n).next.load() as *mut Node<M>;
            }
        }
        false
    }

    /// The direct-tracking recovery decision for `pid`'s last announced
    /// operation (see module docs): claims arbitrate on the stamp, push
    /// announcements on reachability-or-stamp.
    fn decide(&self, pid: usize) -> Recovered {
        let (cp, rd) = self.rec.read(pid);
        if cp != 1 || !tag::is_direct(rd) || tag::addr_of(rd) == 0 {
            return Recovered::Restart;
        }
        let node = tag::addr_of(rd);
        // SAFETY: announced nodes are kept alive by the RD_q root (deferred
        // retirement / limbo / attach-time census).
        let stamp = unsafe { direct_stamp::<M>(node) };
        if tag::is_tagged(rd) {
            if stamp == pid as u64 + 1 {
                Recovered::Completed(res_val(unsafe { direct_val::<M>(node) }))
            } else {
                Recovered::Restart
            }
        } else if stamp != 0 || self.reachable(node) {
            Recovered::Completed(RES_UNIT)
        } else {
            Recovered::Restart
        }
    }

    /// `Push.Recover`: no-op when the announced node provably entered the
    /// stack (reachable, or already popped), re-invokes otherwise.
    pub fn recover_push(&self, pid: usize, v: u64) {
        match self.decide(pid) {
            Recovered::Completed(_) => {}
            Recovered::Restart => self.push(pid, v),
        }
    }

    /// `Pop.Recover`: returns the claimed node's value when the claim stamp
    /// proves this process's pop took effect, re-invokes otherwise. (An
    /// *empty* pop is not tracked and always restarts — the read-only
    /// caveat of direct tracking.)
    pub fn recover_pop(&self, pid: usize) -> Option<u64> {
        match self.decide(pid) {
            Recovered::Completed(enc) if enc != RES_UNIT => Some(val_of(enc)),
            _ => self.pop(pid),
        }
    }

    /// Quiescent splice of every claimed node out of the chain (the
    /// stack-side scrub: a crash can leave claimed-but-not-unlinked nodes
    /// that normal pops would heal lazily). Spliced nodes park in limbo —
    /// a claimant's recovery may still read their stamp through `RD_q`.
    pub fn scrub(&self) {
        unsafe {
            // Claimed prefix.
            loop {
                let t = (*self.top).load() as *mut Node<M>;
                if t.is_null() || (*t).popped_by.load() == 0 {
                    break;
                }
                (*self.top).store((*t).next.load());
                self.limbo.lock().unwrap().push(t);
            }
            M::pwb(&self.top);
            // Interior claimed nodes.
            let mut prev = (*self.top).load() as *mut Node<M>;
            while !prev.is_null() {
                let n = (*prev).next.load() as *mut Node<M>;
                if n.is_null() {
                    break;
                }
                if (*n).popped_by.load() != 0 {
                    (*prev).next.store((*n).next.load());
                    M::pwb(&(*prev).next);
                    self.limbo.lock().unwrap().push(n);
                } else {
                    prev = n;
                }
            }
            M::psync();
        }
    }

    /// Quiescent snapshot, top first.
    pub fn snapshot_vals(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        unsafe {
            let mut n = (*self.top).load() as *mut Node<M>;
            while !n.is_null() {
                if (*n).popped_by.load() == 0 {
                    out.push((*n).val.load());
                }
                n = (*n).next.load() as *mut Node<M>;
            }
        }
        out
    }
}

impl RStack<MappedNvm> {
    /// The persistent heap backing this stack.
    pub fn heap(&self) -> &Arc<MappedHeap> {
        self.mapped.as_ref().expect("mapped-mode stack")
    }

    /// Whole-node span check against the backing heap.
    fn in_node(&self, a: u64) -> bool {
        let heap = self.heap();
        a & 7 == 0 && heap.contains_span(a as usize, std::mem::size_of::<Node<MappedNvm>>())
    }
}

impl MappedLayout for RStack<MappedNvm> {
    const KIND: u64 = KIND_STACK;
    const KIND_NAME: &'static str = "stack";
    type Cfg = ();

    fn cfg_word(_cfg: ()) -> u64 {
        0x53
    }

    fn root_bytes(_cfg: ()) -> usize {
        8 // the top cell
    }

    fn open(env: &AttachEnv, _cfg: (), root: *mut u8) -> Result<Self, AttachError> {
        let collector = env.collector();
        let node_pool = Pool::new_for::<MappedNvm>(env.pool_cfg(), &collector);
        Ok(Self {
            top: TopStore::Arena(root as *const PWord<MappedNvm>),
            rec: env.rec_area(),
            exch: RExchanger::with_config(Collector::new(), PoolCfg::default()),
            collector,
            node_pool,
            pending: (0..MAX_PROCS)
                .map(|_| CachePadded::new(UnsafeCell::new(std::ptr::null_mut())))
                .collect(),
            limbo: Mutex::new(Vec::new()),
            elim_budget: 0, // elimination is volatile: not detectable
            mapped: Some(Arc::clone(&env.heap)),
        })
    }
}

impl SlotOps for RStack<MappedNvm> {
    fn validate_image(&self, _infos: &mut AddrSet<u64>) -> Result<(), MapError> {
        // Direct tracking references no descriptors; validate the chain.
        let mut budget = self.heap().bump_granules() + 4;
        let mut n = (*self.top).peek();
        while n != 0 {
            if !self.in_node(n) {
                return Err(MapError::CorruptPointer { addr: n });
            }
            if budget == 0 {
                return Err(MapError::CorruptPointer { addr: n });
            }
            budget -= 1;
            // SAFETY: whole-node span just validated.
            n = unsafe { (*(n as *const Node<MappedNvm>)).next.peek() };
        }
        Ok(())
    }

    fn valid_install(&self, addr: u64) -> bool {
        self.in_node(addr)
    }

    fn try_scrub(&self) -> Result<(), AttachError> {
        self.scrub();
        Ok(())
    }

    unsafe fn census(&self, live: &mut AddrSet, _info_refs: &mut AddrMap<u32>) {
        // SAFETY: quiescent exclusive access post-scrub (caller).
        unsafe {
            let mut n = (*self.top).peek() as *mut Node<MappedNvm>;
            while !n.is_null() {
                live.insert(n as usize);
                n = (*n).next.peek() as *mut Node<MappedNvm>;
            }
        }
        // Limbo blocks (claimed nodes the scrub spliced out) stay live only
        // if some RD_q names them — the driver adds those; the rest are
        // swept here by omission.
    }

    fn each_cached(&mut self, f: &mut dyn FnMut(usize)) {
        self.node_pool.each_idle(|p| f(p as usize));
    }

    fn direct_reachable(&self, addr: u64) -> bool {
        self.reachable(addr)
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any + Send + Sync> {
        self
    }
}

impl<M: Persist> Drop for RStack<M> {
    fn drop(&mut self) {
        if self.mapped.is_some() {
            // Mapped mode: the arena is the durable state; the pool returns
            // its cache to the persistent free list on drop.
            return;
        }
        let parked: std::collections::HashMap<usize, unsafe fn(*mut u8)> =
            self.collector.take_parked().into_iter().map(|(p, f)| (p as usize, f)).collect();
        unsafe {
            let mut n = (*self.top).load() as *mut Node<M>;
            while !n.is_null() {
                let next = (*n).next.load() as *mut Node<M>;
                if !parked.contains_key(&(n as usize)) {
                    drop(Box::from_raw(n));
                }
                n = next;
            }
            // Unlinked nodes waiting in pending slots / limbo are disjoint
            // from the chain and from each other; free each exactly once.
            for slot in &self.pending {
                let p = *slot.get();
                if !p.is_null() && !parked.contains_key(&(p as usize)) {
                    drop(Box::from_raw(p));
                }
            }
            for p in self.limbo.lock().unwrap().drain(..) {
                if !parked.contains_key(&(p as usize)) {
                    drop(Box::from_raw(p));
                }
            }
            for (p, f) in parked {
                f(p as *mut u8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::CountingNvm;
    use std::sync::Arc;

    type S = RStack<CountingNvm>;

    #[test]
    fn lifo_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let s = S::new();
        assert_eq!(s.pop(0), None);
        s.push(0, 1);
        s.push(0, 2);
        s.push(0, 3);
        assert_eq!(s.pop(0), Some(3));
        assert_eq!(s.pop(0), Some(2));
        s.push(0, 4);
        assert_eq!(s.pop(0), Some(4));
        assert_eq!(s.pop(0), Some(1));
        assert_eq!(s.pop(0), None);
    }

    #[test]
    fn concurrent_push_pop_conserves_values() {
        let _gate = crate::counters::gate_shared();
        let s = Arc::new(S::new());
        use std::sync::atomic::{AtomicU64, Ordering};
        let sum = Arc::new(AtomicU64::new(0));
        let per = 500u64;
        let mut hs = Vec::new();
        for p in 0..2u64 {
            let s = Arc::clone(&s);
            hs.push(std::thread::spawn(move || {
                nvm::tid::set_tid(p as usize);
                for i in 0..per {
                    s.push(p as usize, 1 + p * per + i);
                }
            }));
        }
        for c in 0..2usize {
            let s = Arc::clone(&s);
            let sum = Arc::clone(&sum);
            hs.push(std::thread::spawn(move || {
                nvm::tid::set_tid(10 + c);
                let mut got = 0;
                let mut acc = 0u64;
                while got < per {
                    if let Some(v) = s.pop(10 + c) {
                        got += 1;
                        acc += v;
                    }
                }
                sum.fetch_add(acc, Ordering::Relaxed);
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), (1..=2 * per).sum::<u64>());
        let mut s = Arc::into_inner(s).unwrap();
        assert_eq!(s.snapshot_vals(), vec![]);
    }

    #[test]
    fn snapshot_order_is_lifo() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut s = S::new();
        for v in 1..=5u64 {
            s.push(0, v);
        }
        assert_eq!(s.snapshot_vals(), vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn recovery_without_crash_behaves_like_invocation() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut s = S::new();
        // Nothing announced: recovery re-invokes.
        s.recover_push(0, 7);
        assert_eq!(s.snapshot_vals(), vec![7]);
        // Crash "just after" the completed push: the node is reachable, so
        // recovery must NOT push again.
        s.recover_push(0, 7);
        assert_eq!(s.snapshot_vals(), vec![7], "completed push must not re-apply");
        // Crash "just after" a completed pop: the claim stamp names us, so
        // recovery returns the same value without popping twice.
        s.push(0, 9);
        assert_eq!(s.pop(0), Some(9));
        assert_eq!(s.recover_pop(0), Some(9));
        assert_eq!(s.snapshot_vals(), vec![7], "completed pop must not re-apply");
        // A pushed-then-popped announced node: stamp set ⇒ push completed.
        // (pid 1 pushes, pid 0 pops it, pid 1 recovers its push.)
        s.push(1, 11);
        assert_eq!(s.pop(0), Some(11));
        s.recover_push(1, 11);
        assert_eq!(s.snapshot_vals(), vec![7], "popped push must not re-apply");
    }

    #[test]
    fn mapped_attach_stack_preserves_contents_across_detach() {
        use crate::store::Store;
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = std::env::temp_dir().join(format!(
            "isb_stack_{}_{}.heap",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let store = Store::open_sized(&path, 1 << 21).unwrap();
            assert!(store.summary().heap.created);
            let s = store.stack("s").unwrap();
            for v in 1..=40u64 {
                s.push(0, v);
            }
            assert_eq!(s.pop(0), Some(40));
        }
        {
            let store = Store::open_sized(&path, 1 << 21).unwrap();
            assert!(!store.summary().heap.created);
            let s = store.stack("s").unwrap();
            drop(store);
            let mut s = Arc::into_inner(s).unwrap();
            assert_eq!(s.snapshot_vals(), (1..=39).rev().collect::<Vec<_>>());
            assert_eq!(s.pop(0), Some(39));
            s.push(0, 99);
        }
        {
            let store = Store::open_sized(&path, 1 << 21).unwrap();
            let s = store.stack("s").unwrap();
            drop(store);
            let mut s = Arc::into_inner(s).unwrap();
            let mut want: Vec<u64> = (1..=38).rev().collect();
            want.insert(0, 99);
            assert_eq!(s.snapshot_vals(), want);
        }
        let _ = std::fs::remove_file(&path);
    }
}
