//! Detectably recoverable FIFO queue: ISB-tracking applied to the
//! Michael–Scott queue (paper Section 5 and supplementary B.2; the paper
//! gives no pseudocode, so the construction — documented in DESIGN.md §6 —
//! is ours).
//!
//! Layout: a sentinel-headed singly-linked list. `Head` lives in an *anchor*
//! — a pseudo-node with `(ptr, info)` fields — so it can be tagged exactly
//! like a node. `Tail` is an uncounted hint, only ever advanced to nodes
//! whose linkage is already durable, so it can never point past the
//! persisted frontier after a crash (it may lag; walking `next` heals it).
//!
//! The tail hint lives **in the anchor**, shared by every thread *and every
//! process* attached to the heap — never cached per attachment. This is
//! load-bearing for reclamation: a dequeue heals the hint away from the old
//! sentinel *before* retiring it, so any walk that starts from the hint
//! either began inside an epoch pin that predates the retirement (EBR keeps
//! the node alive) or reads the healed value. A per-process copy of the
//! hint would break that argument — the hint is carried *across* pins, so a
//! peer's dequeue+retire+recycle can leave a private copy pointing at
//! recycled memory, and a walk starting there reads a node mid-reuse (in
//! the worst case the walker's *own* fresh allocation, whose `next == 0`
//! makes `find_last` return it as "last" and the enqueue link it to
//! itself).
//!
//! * **Enqueue(v)**: locate the last node `l` (tail hint + chase);
//!   AffectSet = `{l}` (update), WriteSet = `{⟨l.next, Null, newnd⟩}`,
//!   NewSet = `{newnd}`; response = ack. After `Help` completes, swing
//!   `Tail`.
//! * **Dequeue()**: read the anchor's info, then the sentinel `s = Head`,
//!   then `f = s.next` (that order — tag success then freezes each earlier
//!   read). Empty (`f = Null`): read-only fast path returning `Empty`,
//!   linearized at the `s.next` read (sound because `next` is monotonic:
//!   Null → node, never back). Otherwise AffectSet = `{anchor (update),
//!   s (deletion)}`, WriteSet = `{⟨Head.ptr, s, f⟩}`, response = `f.val`
//!   (precomputed, immutable). `s` is retired; `f` becomes the sentinel.
//!
//! Pointer freshness holds: `Head.ptr` and `next` fields only ever abandon a
//! value when the node holding/named by it is retired, so stale helper
//! CASes fail silently (same argument as the list).

use crate::arm;
use crate::counters;
use crate::engine::{
    help, res_val, val_of, HelpOutcome, Info, InfoFill, RES_EMPTY, RES_UNIT, RES_VAL_BASE,
};
use crate::optype;
use crate::pool::{Pool, PoolCfg, PoolItem};
use crate::recovery::{
    op_recover, release_prev, AttachEnv, AttachError, MappedLayout, RecArea, Recovered, SlotOps,
};
use crate::tag;
use nvm::addr_hash::{AddrMap, AddrSet};
use nvm::mapped::{MapError, MappedHeap, MappedNvm};
use nvm::{PWord, Persist, PersistWords};
use reclaim::{Collector, Guard};
use std::sync::Arc;

/// Store catalog-entry kind tag of a mapped `RQueue`.
pub const KIND_QUEUE: u64 = 2;

/// Enqueued values lie in `[0, MAX_VALUE)`: a dequeue's response encodes
/// its value as `v + RES_VAL_BASE` in one word.
pub const MAX_VALUE: u64 = u64::MAX - RES_VAL_BASE;

/// A queue node. Aligned to 32 bytes so it never straddles a 64-byte
/// cache line (one line per node write-back, wherever it is allocated).
#[repr(C, align(32))]
pub struct Node<M: Persist> {
    val: PWord<M>,
    next: PWord<M>,
    info: PWord<M>,
}

unsafe impl<M: Persist> PersistWords<M> for Node<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.val);
        f(&self.next);
        f(&self.info);
    }
}

impl<M: Persist> Node<M> {
    fn alloc(val: u64, next: u64, info: u64) -> *mut Node<M> {
        counters::node_alloc();
        Box::into_raw(Box::new(Node {
            val: PWord::new(val),
            next: PWord::new(next),
            info: PWord::new(info),
        }))
    }

    /// Re-initialize a pool-recycled node.
    fn init(&self, val: u64, next: u64, info: u64) {
        self.val.store(val);
        self.next.store(next);
        self.info.store(info);
    }
}

impl<M: Persist> PoolItem for Node<M> {
    fn fresh() -> Self {
        counters::node_alloc();
        Node { val: PWord::new(0), next: PWord::new(0), info: PWord::new(0) }
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

/// The head anchor: a pseudo-node holding the sentinel pointer and an info
/// cell so dequeues can tag "the head position" like any node, plus the
/// shared tail hint (see module docs for why the hint must not be cached
/// per process).
#[repr(C)]
struct Anchor<M: Persist> {
    ptr: PWord<M>,
    info: PWord<M>,
    tail: PWord<M>,
}

unsafe impl<M: Persist> PersistWords<M> for Anchor<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.ptr);
        f(&self.info);
        f(&self.tail);
    }
}

/// Where the queue's anchor lives: owned on the process heap, or borrowed
/// from the mapped backend's persistent arena (a root block that must
/// survive the process).
enum AnchorStore<M: Persist> {
    Owned(Box<Anchor<M>>),
    Arena(*const Anchor<M>),
}

impl<M: Persist> std::ops::Deref for AnchorStore<M> {
    type Target = Anchor<M>;
    #[inline]
    fn deref(&self) -> &Anchor<M> {
        match self {
            AnchorStore::Owned(b) => b,
            // SAFETY: the arena root block outlives the queue (which keeps
            // its MappedHeap alive).
            AnchorStore::Arena(p) => unsafe { &**p },
        }
    }
}

/// Detectably recoverable MS-queue (see module docs). Values must be below
/// `u64::MAX - 16` (result-word encoding).
///
/// # Example: the detectable recovery flow
///
/// A dequeue's response is persisted inside its descriptor before the queue
/// is unlocked, so recovery can return it without dequeuing twice:
///
/// ```
/// use isb::queue::RQueue;
/// use nvm::CountingNvm;
///
/// nvm::tid::set_tid(0);
/// let mut q: RQueue<CountingNvm> = RQueue::new();
/// q.enqueue(0, 5);
/// assert_eq!(q.dequeue(0), Some(5));
///
/// // Crash "just after" the completed dequeue: same response, exactly once.
/// assert_eq!(q.recover_dequeue(0), Some(5));
/// assert_eq!(q.snapshot_vals(), vec![], "value was not dequeued twice");
///
/// // A process that never published anything (process 1) ⇒ recovery
/// // re-invokes the operation.
/// q.recover_enqueue(1, 9);
/// assert_eq!(q.snapshot_vals(), vec![9]);
/// ```
pub struct RQueue<M: Persist, const ARM: u8 = 0> {
    head: AnchorStore<M>,
    rec: RecArea<M>,
    // `collector` must drop before the pools (drop-time drain recycles).
    collector: Collector,
    info_pool: Pool<Info<M>>,
    node_pool: Pool<Node<M>>,
    /// Mapped mode: the persistent heap everything lives in (`Some`
    /// suppresses drop-time teardown).
    mapped: Option<Arc<MappedHeap>>,
}

unsafe impl<M: Persist, const ARM: u8> Send for RQueue<M, ARM> {}
unsafe impl<M: Persist, const ARM: u8> Sync for RQueue<M, ARM> {}

impl<M: Persist, const ARM: u8> Default for RQueue<M, ARM> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist, const ARM: u8> RQueue<M, ARM> {
    /// New empty queue with a reclaiming collector and pooled allocation.
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// New empty queue with pooling off (the boxed ablation arm).
    pub fn boxed() -> Self {
        Self::with_config(Collector::new(), PoolCfg::boxed())
    }

    /// New empty queue with the given collector (crash-sim runs pass
    /// [`Collector::disabled`]; pooling drops to passthrough mode).
    pub fn with_collector(collector: Collector) -> Self {
        Self::with_config(collector, PoolCfg::default())
    }

    /// New empty queue with the given collector and pool configuration.
    pub fn with_config(collector: Collector, pool: PoolCfg) -> Self {
        let s0: *mut Node<M> = Node::alloc(0, 0, 0);
        let info_pool = Pool::new_for::<M>(pool.clone(), &collector);
        let node_pool = Pool::new_for::<M>(pool, &collector);
        let anchor = Box::new(Anchor {
            ptr: PWord::new(s0 as u64),
            info: PWord::new(0),
            tail: PWord::new(s0 as u64),
        });
        // The initial anchor is durable state like any later one (as in the
        // mapped `open`): enqueues write back only `tail`, so without this a
        // crash image could roll `ptr`/`info` back to never-persisted values
        // on the first dequeue's update.
        M::pbarrier_obj(&*anchor);
        Self {
            head: AnchorStore::Owned(anchor),
            rec: RecArea::new(),
            collector,
            info_pool,
            node_pool,
            mapped: None,
        }
    }

    /// The queue's collector (diagnostics).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Draw a descriptor: pool hit, or heap in passthrough mode.
    #[inline]
    fn alloc_info(&self) -> *mut Info<M> {
        self.info_pool.take().unwrap_or_else(Info::alloc)
    }

    /// Draw a node: pool hit (re-initialized), or heap in passthrough mode.
    #[inline]
    fn alloc_node(&self, val: u64, next: u64, info: u64) -> *mut Node<M> {
        match self.node_pool.take() {
            Some(p) => {
                unsafe { (*p).init(val, next, info) };
                p
            }
            None => Node::alloc(val, next, info),
        }
    }

    fn publish(&self, pid: usize, info: *mut Info<M>, published: &mut u64, g: &Guard<'_>) {
        self.rec.publish_arm::<ARM>(pid, info as u64);
        if *published != 0 && *published != info as u64 {
            unsafe { Info::<M>::release(tag::ptr_of(*published), 1, g) };
        }
        *published = info as u64;
    }

    unsafe fn retire_node(&self, node: *mut Node<M>, g: &Guard<'_>) {
        unsafe {
            let iv = (*node).info.load();
            Info::<M>::release(tag::ptr_of(iv), 1, g);
            self.node_pool.retire(node, g);
        }
    }

    /// Locate the last node: start at the tail hint and chase `next`.
    /// Returns `(last, last_info)` with the info read before confirming
    /// `last.next == Null` (gather order matters for freshness).
    unsafe fn find_last(&self) -> (*mut Node<M>, u64, u64) {
        unsafe {
            let start = self.head.tail.load();
            let mut n = start as *mut Node<M>;
            loop {
                let info = (*n).info.load();
                let next = (*n).next.load();
                if next == 0 {
                    return (n, info, start);
                }
                n = next as *mut Node<M>;
            }
        }
    }

    /// Enqueues `v` (always succeeds); `v` must be below [`MAX_VALUE`].
    pub fn enqueue(&self, pid: usize, v: u64) {
        assert!(v < MAX_VALUE, "value too large for result encoding");
        // ONE pin covers the whole operation (see set_core::insert).
        let g = self.collector.pin();
        let prev = self.rec.begin::<ARM>(pid);
        unsafe { release_prev::<M>(prev, &g) };
        let newnd = self.alloc_node(v, 0, 0);
        let mut info = self.alloc_info();
        let mut filled: u64 = 0;
        let mut published: u64 = 0;
        loop {
            let (last, last_info, walk_start) = unsafe { self.find_last() };
            if tag::is_tagged(last_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(last_info), false, &g) };
                continue;
            }
            unsafe {
                let t = tag::tagged(info as u64);
                if filled != t {
                    if filled != 0 {
                        Info::<M>::release(tag::ptr_of(filled), 1, &g);
                    }
                    (*newnd).info.store(t);
                    filled = t;
                }
                Info::fill(
                    info,
                    &InfoFill {
                        optype: optype::ENQ,
                        affect: &[(cell_addr(&(*last).info), last_info)],
                        write: &[(cell_addr(&(*last).next), 0, newnd as u64)],
                        newset: &[cell_addr(&(*newnd).info)],
                        del_mask: 0,
                        presult: RES_UNIT,
                    },
                );
                arm::pwb_obj_arm::<M, _, ARM>(&*newnd);
                if arm::is_tuned(ARM) {
                    arm::pwb_obj_arm::<M, _, ARM>(&*info);
                    M::pfence();
                } else {
                    M::pbarrier_obj(&*info);
                }
            }
            self.publish(pid, info, &mut published, &g);
            match unsafe { help::<M, ARM>(info, true, &g) } {
                HelpOutcome::Done => {
                    // Swing the tail hint; newnd's linkage is durable by now.
                    // Using the walk's starting value also heals a hint left
                    // stale by a crash image (never moves the hint backward:
                    // success implies the hint still equals walk_start, and
                    // newnd is strictly ahead of it).
                    let t = if self.head.tail.cas(walk_start, newnd as u64) == walk_start {
                        walk_start
                    } else {
                        self.head.tail.cas(last as u64, newnd as u64)
                    };
                    let _ = t;
                    M::pwb(&self.head.tail);
                    return;
                }
                HelpOutcome::FailedAt(i) => {
                    unsafe { Info::<M>::release(info, (1 - i) as u32, &g) };
                    info = self.alloc_info();
                }
            }
        }
    }

    /// Dequeues; `None` iff the queue was observed empty.
    pub fn dequeue(&self, pid: usize) -> Option<u64> {
        let g = self.collector.pin();
        let prev = self.rec.begin::<ARM>(pid);
        unsafe { release_prev::<M>(prev, &g) };
        let mut info = self.alloc_info();
        let mut published: u64 = 0;
        loop {
            // Gather order: anchor info, then sentinel, then its info, then next.
            let h_info = self.head.info.load();
            let s = self.head.ptr.load() as *mut Node<M>;
            let s_info = unsafe { (*s).info.load() };
            let f = unsafe { (*s).next.load() };
            if tag::is_tagged(h_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(h_info), false, &g) };
                continue;
            }
            if tag::is_tagged(s_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s_info), false, &g) };
                continue;
            }
            if f == 0 {
                // Empty: read-only fast path (linearized at the `s.next` read).
                unsafe {
                    Info::fill(
                        info,
                        &InfoFill {
                            optype: optype::DEQ,
                            affect: &[(cell_addr(&self.head.info), h_info)],
                            write: &[],
                            newset: &[],
                            del_mask: 0,
                            presult: RES_EMPTY,
                        },
                    );
                    M::store(&(*info).result, RES_EMPTY);
                    if arm::is_tuned(ARM) {
                        arm::pwb_obj_arm::<M, _, ARM>(&*info);
                        M::pfence();
                    } else {
                        M::pbarrier_obj(&*info);
                    }
                }
                self.publish(pid, info, &mut published, &g);
                unsafe { Info::<M>::release(info, 1, &g) };
                return None;
            }
            let fval = unsafe { (*(f as *mut Node<M>)).val.load() };
            unsafe {
                Info::fill(
                    info,
                    &InfoFill {
                        optype: optype::DEQ,
                        affect: &[
                            (cell_addr(&self.head.info), h_info),
                            (cell_addr(&(*s).info), s_info),
                        ],
                        write: &[(cell_addr(&self.head.ptr), s as u64, f)],
                        newset: &[],
                        del_mask: 0b10, // the old sentinel is deletion-tagged
                        presult: res_val(fval),
                    },
                );
                if arm::is_tuned(ARM) {
                    arm::pwb_obj_arm::<M, _, ARM>(&*info);
                    M::pfence();
                } else {
                    M::pbarrier_obj(&*info);
                }
            }
            self.publish(pid, info, &mut published, &g);
            match unsafe { help::<M, ARM>(info, true, &g) } {
                HelpOutcome::Done => {
                    // Never leave the tail hint pointing at the retired sentinel.
                    let _ = self.head.tail.cas(s as u64, f);
                    unsafe { self.retire_node(s, &g) };
                    return Some(fval);
                }
                HelpOutcome::FailedAt(i) => {
                    unsafe { Info::<M>::release(info, (2 - i) as u32, &g) };
                    info = self.alloc_info();
                }
            }
        }
    }

    /// `Enqueue.Recover`.
    pub fn recover_enqueue(&self, pid: usize, v: u64) {
        let r = {
            let g = self.collector.pin();
            unsafe { op_recover::<M, ARM>(&self.rec, pid, &g) }
        };
        match r {
            Recovered::Completed(_) => {}
            Recovered::Restart => self.enqueue(pid, v),
        }
    }

    /// `Dequeue.Recover`.
    pub fn recover_dequeue(&self, pid: usize) -> Option<u64> {
        let r = {
            let g = self.collector.pin();
            unsafe { op_recover::<M, ARM>(&self.rec, pid, &g) }
        };
        match r {
            Recovered::Completed(RES_EMPTY) => None,
            Recovered::Completed(v) => Some(val_of(v)),
            Recovered::Restart => self.dequeue(pid),
        }
    }

    /// Snapshot of queued values, front to back (requires quiescence).
    pub fn snapshot_vals(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        unsafe {
            let s = self.head.ptr.load() as *mut Node<M>;
            let mut n = (*s).next.load() as *mut Node<M>;
            while !n.is_null() {
                out.push((*n).val.load());
                n = (*n).next.load() as *mut Node<M>;
            }
        }
        out
    }

    /// Quiescent tail-hint repair: points the hint at the true last node.
    /// After a crash the image may have rolled the (uncounted) hint back to
    /// a node that was dequeued before the crash; any recovery pass or first
    /// enqueue performs exactly this repair lazily.
    pub fn heal_tail(&mut self) {
        unsafe {
            let mut n = self.head.ptr.load() as *mut Node<M>;
            loop {
                let next = (*n).next.load();
                if next == 0 {
                    break;
                }
                n = next as *mut Node<M>;
            }
            self.head.tail.store(n as u64);
            M::pwb(&self.head.tail);
        }
    }

    /// Completes helping obligations left visible by a crash: runs `Help`
    /// on every tagged info reachable from the anchor or the sentinel chain
    /// until a full pass finds none (the queue-side analogue of
    /// [`crate::set_core::SetCore::scrub`]). Call after every process ran
    /// its `recover_*` (the mapped backend's attach does, via
    /// [`RQueue::try_scrub`] so a non-quiescing image surfaces as a typed
    /// [`AttachError`] instead of killing the recovering process).
    pub fn scrub(&self) {
        self.try_scrub().unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`RQueue::scrub`] with the pass budget surfaced as a typed
    /// [`AttachError::ScrubStalled`] instead of a panic.
    pub fn try_scrub(&self) -> Result<(), AttachError> {
        const PASSES: usize = 64;
        for _ in 0..PASSES {
            let g = self.collector.pin();
            let mut dirty = false;
            unsafe {
                let hv = self.head.info.load();
                if tag::is_tagged(hv) {
                    dirty = true;
                    help::<M, ARM>(tag::ptr_of(hv), false, &g);
                }
                let mut n = self.head.ptr.load() as *mut Node<M>;
                while !n.is_null() {
                    let iv = (*n).info.load();
                    if tag::is_tagged(iv) {
                        dirty = true;
                        help::<M, ARM>(tag::ptr_of(iv), false, &g);
                    }
                    n = (*n).next.load() as *mut Node<M>;
                }
            }
            if !dirty {
                return Ok(());
            }
        }
        Err(AttachError::ScrubStalled { kind: "queue", passes: PASSES })
    }

    /// The *system* half of an invocation (`CP_q := 0`, persisted) — see
    /// [`RecArea::mark_invoked`]: write-ahead-logging callers must run this
    /// before writing their intent record.
    pub fn note_invocation(&self, pid: usize) {
        self.rec.mark_invoked(pid);
    }

    /// Structural invariants for a quiescent queue.
    pub fn check_invariants(&mut self) {
        unsafe {
            let s = self.head.ptr.load() as *mut Node<M>;
            assert!(!s.is_null(), "sentinel must exist");
            assert!(!tag::is_tagged((*s).info.load()), "sentinel tagged at quiescence");
            // The tail hint must point to a node on the sentinel chain.
            let t = self.head.tail.load();
            let mut n = s;
            let mut on_chain = false;
            while !n.is_null() {
                if n as u64 == t {
                    on_chain = true;
                }
                n = (*n).next.load() as *mut Node<M>;
            }
            assert!(on_chain, "tail hint left the chain");
        }
    }
}

#[inline]
fn cell_addr<M: Persist>(w: &PWord<M>) -> u64 {
    w as *const PWord<M> as u64
}

unsafe fn drop_node_raw<M: Persist>(p: *mut u8) {
    drop(unsafe { Box::from_raw(p as *mut Node<M>) });
}

unsafe fn drop_info_raw<M: Persist>(p: *mut u8) {
    drop(unsafe { Box::from_raw(p as *mut Info<M>) });
}

impl<const ARM: u8> RQueue<MappedNvm, ARM> {
    /// The persistent heap backing this queue.
    pub fn heap(&self) -> &Arc<MappedHeap> {
        self.mapped.as_ref().expect("mapped-mode queue")
    }

    /// Whole-node span check against the backing heap.
    fn in_node(&self, a: u64) -> bool {
        let heap = self.heap();
        a & 7 == 0 && heap.contains_span(a as usize, std::mem::size_of::<Node<MappedNvm>>())
    }
}

impl<const ARM: u8> MappedLayout for RQueue<MappedNvm, ARM> {
    const KIND: u64 = KIND_QUEUE;
    const KIND_NAME: &'static str = "queue";
    type Cfg = ();

    fn cfg_word(_cfg: ()) -> u64 {
        0x51 | (ARM as u64) << 32
    }

    fn root_bytes(_cfg: ()) -> usize {
        std::mem::size_of::<Anchor<MappedNvm>>()
    }

    fn open(env: &AttachEnv, _cfg: (), root: *mut u8) -> Result<Self, AttachError> {
        let collector = env.collector();
        let info_pool = env.info_pool();
        let node_pool = Pool::new_for::<MappedNvm>(env.pool_cfg(), &collector);
        let anchor = root as *const Anchor<MappedNvm>;
        // SAFETY: zeroed-on-creation committed root block of Anchor size.
        unsafe {
            if (*anchor).ptr.peek() == 0 {
                // Fresh (or creation cut short): allocate the first sentinel.
                let s0: *mut Node<MappedNvm> = node_pool.take().expect("arena pool always serves");
                (*s0).init(0, 0, 0);
                (*anchor).ptr.store(s0 as u64);
                (*anchor).info.store(0);
                (*anchor).tail.store(s0 as u64);
                MappedNvm::pbarrier_obj(&*anchor);
            }
            // Images written before the hint moved into the anchor have a
            // zero third word (root blocks are zeroed at creation, granule-
            // rounded, so the slot exists). Seed it from the sentinel —
            // idempotent, and any stale seed is healed by the first walk.
            if (*anchor).tail.peek() == 0 {
                (*anchor).tail.store((*anchor).ptr.peek());
                MappedNvm::pwb(&(*anchor).tail);
            }
        }
        Ok(Self {
            head: AnchorStore::Arena(anchor),
            rec: env.rec_area(),
            collector,
            info_pool,
            node_pool,
            mapped: Some(Arc::clone(&env.heap)),
        })
    }
}

impl<const ARM: u8> SlotOps for RQueue<MappedNvm, ARM> {
    fn validate_image(&self, infos: &mut AddrSet<u64>) -> Result<(), MapError> {
        // No dereference below leaves the mapping (whole-node spans), and
        // the chain must terminate within the heap's block count.
        let mut budget = self.heap().bump_granules() + 4;
        // SAFETY: the anchor is a committed root block; every node is
        // dereferenced only after its whole span passed `in_node`.
        unsafe {
            let hv = tag::untagged(self.head.info.load());
            if hv != 0 {
                infos.insert(hv);
            }
            let mut n = self.head.ptr.load();
            if !self.in_node(n) {
                return Err(MapError::CorruptPointer { addr: n });
            }
            loop {
                if budget == 0 {
                    return Err(MapError::CorruptPointer { addr: n });
                }
                budget -= 1;
                let node = n as *mut Node<MappedNvm>;
                let iv = tag::untagged((*node).info.load());
                if iv != 0 {
                    infos.insert(iv);
                }
                let next = (*node).next.load();
                if next == 0 {
                    break;
                }
                if !self.in_node(next) {
                    return Err(MapError::CorruptPointer { addr: next });
                }
                n = next;
            }
        }
        Ok(())
    }

    fn valid_install(&self, addr: u64) -> bool {
        self.in_node(addr)
    }

    fn try_scrub(&self) -> Result<(), AttachError> {
        RQueue::try_scrub(self)
    }

    fn heal(&mut self) {
        self.heal_tail();
    }

    unsafe fn census(&self, live: &mut AddrSet, info_refs: &mut AddrMap<u32>) {
        let mut bump = |v: u64| {
            let p = tag::untagged(v) as usize;
            if p != 0 {
                *info_refs.entry(p).or_insert(0) += 1;
            }
        };
        // SAFETY: quiescent exclusive access post-scrub (caller).
        unsafe {
            bump(self.head.info.load());
            let mut n = self.head.ptr.load() as *mut Node<MappedNvm>;
            while !n.is_null() {
                live.insert(n as usize);
                bump((*n).info.load());
                n = (*n).next.load() as *mut Node<MappedNvm>;
            }
        }
    }

    fn each_cached(&mut self, f: &mut dyn FnMut(usize)) {
        self.node_pool.each_idle(|p| f(p as usize));
        self.info_pool.each_idle(|p| f(p as usize));
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any + Send + Sync> {
        self
    }
}

impl<M: Persist, const ARM: u8> Drop for RQueue<M, ARM> {
    fn drop(&mut self) {
        if self.mapped.is_some() {
            // Mapped mode: the arena is the durable state; pools return
            // their caches to the persistent free list on drop.
            return;
        }
        // See RList::drop — the union of reachable and parked objects is
        // freed exactly once (crash images can resurrect reachability).
        let mut grave: std::collections::HashMap<usize, unsafe fn(*mut u8)> =
            self.collector.take_parked().into_iter().map(|(p, f)| (p as usize, f)).collect();
        self.rec.each_published(|rd| {
            if !tag::is_direct(rd) && tag::untagged(rd) != 0 {
                grave.insert(tag::untagged(rd) as usize, drop_info_raw::<M>);
            }
        });
        let anchor_info = tag::untagged(self.head.info.load());
        if anchor_info != 0 {
            grave.insert(anchor_info as usize, drop_info_raw::<M>);
        }
        unsafe {
            let mut n = self.head.ptr.load() as *mut Node<M>;
            while !n.is_null() {
                let next = (*n).next.load() as *mut Node<M>;
                let iv = tag::untagged((*n).info.load());
                if iv != 0 {
                    grave.insert(iv as usize, drop_info_raw::<M>);
                }
                grave.insert(n as usize, drop_node_raw::<M>);
                n = next;
            }
            for (p, f) in grave {
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

    type Q = RQueue<CountingNvm, 0>;
    type QOpt = RQueue<CountingNvm, 1>;

    #[test]
    fn fifo_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let q = Q::new();
        assert_eq!(q.dequeue(0), None);
        q.enqueue(0, 10);
        q.enqueue(0, 20);
        q.enqueue(0, 30);
        assert_eq!(q.dequeue(0), Some(10));
        assert_eq!(q.dequeue(0), Some(20));
        q.enqueue(0, 40);
        assert_eq!(q.dequeue(0), Some(30));
        assert_eq!(q.dequeue(0), Some(40));
        assert_eq!(q.dequeue(0), None);
    }

    #[test]
    fn snapshot_and_invariants() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut q = QOpt::new();
        for v in 1..=10u64 {
            q.enqueue(0, v);
        }
        assert_eq!(q.dequeue(0), Some(1));
        assert_eq!(q.snapshot_vals(), (2..=10).collect::<Vec<_>>());
        q.check_invariants();
    }

    #[test]
    fn no_leaks_after_drop() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let nodes0 = crate::counters::live_nodes();
        let infos0 = crate::counters::live_infos();
        {
            let mut q = Q::new();
            for v in 0..300u64 {
                q.enqueue(0, v);
            }
            for _ in 0..250 {
                q.dequeue(0);
            }
            q.check_invariants();
        }
        assert_eq!(crate::counters::live_nodes(), nodes0, "node leak/double-free");
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    #[test]
    fn concurrent_enqueue_dequeue_conserves_values() {
        let _gate = crate::counters::gate_shared();
        let q = Arc::new(Q::new());
        let producers = 2u64;
        let consumers = 2usize;
        let per = 500u64;
        use std::sync::atomic::{AtomicU64, Ordering};
        let consumed = Arc::new(AtomicU64::new(0));
        let mut hs = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            hs.push(std::thread::spawn(move || {
                nvm::tid::set_tid(p as usize);
                for i in 0..per {
                    q.enqueue(p as usize, 1 + p * per + i);
                }
            }));
        }
        for c in 0..consumers {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            hs.push(std::thread::spawn(move || {
                let pid = 10 + c;
                nvm::tid::set_tid(pid);
                let mut got = 0u64;
                let mut sum = 0u64;
                while got < per {
                    if let Some(v) = q.dequeue(pid) {
                        got += 1;
                        sum += v;
                    }
                }
                consumed.fetch_add(sum, Ordering::Relaxed);
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let expected: u64 = (1..=producers * per).sum();
        assert_eq!(
            consumed.load(Ordering::Relaxed),
            expected,
            "every value delivered exactly once"
        );
        let mut q = Arc::into_inner(q).unwrap();
        assert_eq!(q.snapshot_vals(), vec![]);
        q.check_invariants();
    }

    #[test]
    fn per_producer_fifo_order_is_preserved() {
        let _gate = crate::counters::gate_shared();
        let q = Arc::new(Q::new());
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            nvm::tid::set_tid(1);
            for i in 1..=1000u64 {
                q2.enqueue(1, i);
            }
        });
        nvm::tid::set_tid(0);
        let mut last = 0u64;
        let mut got = 0;
        while got < 1000 {
            if let Some(v) = q.dequeue(0) {
                assert!(v > last, "FIFO violated: {v} after {last}");
                last = v;
                got += 1;
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn mapped_attach_queue_preserves_contents_across_detach() {
        use crate::store::Store;
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = std::env::temp_dir().join(format!(
            "isb_q_{}_{}.heap",
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
            let q = store.queue::<0>("q").unwrap();
            for v in 1..=50u64 {
                q.enqueue(0, v);
            }
            assert_eq!(q.dequeue(0), Some(1));
        }
        {
            let store = Store::open_sized(&path, 1 << 21).unwrap();
            assert!(!store.summary().heap.created);
            let q = store.queue::<0>("q").unwrap();
            drop(store);
            let mut q = Arc::into_inner(q).unwrap();
            assert_eq!(q.snapshot_vals(), (2..=50).collect::<Vec<_>>());
            q.check_invariants();
            assert_eq!(q.dequeue(0), Some(2));
            q.enqueue(0, 99);
        }
        {
            let store = Store::open_sized(&path, 1 << 21).unwrap();
            let q = store.queue::<0>("q").unwrap();
            drop(store);
            let mut q = Arc::into_inner(q).unwrap();
            let mut want: Vec<u64> = (3..=50).collect();
            want.push(99);
            assert_eq!(q.snapshot_vals(), want);
            q.check_invariants();
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The first dequeue's update CAS is the first write to the anchor's
    /// `ptr` since construction; a crash before its write-back completes
    /// must leave the constructed value (or the new one) in the image, never
    /// a value that was never persisted.
    #[test]
    fn fresh_anchor_survives_a_crash_inside_the_first_dequeue() {
        use nvm::{sim, SimNvm};
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        for seed in 0..8 {
            let _sim = sim::begin_session();
            sim::reset();
            let q = RQueue::<SimNvm, 0>::with_collector(Collector::disabled());
            q.enqueue(0, 7);
            sim::persist_all(); // a clean start, as the crash harness models it
            let s0 = q.head.ptr.load();
            // SAFETY: quiescent queue; the sentinel is live.
            let s1 = unsafe { (*(s0 as *const Node<SimNvm>)).next.load() };
            assert_ne!(s1, 0, "the enqueued node follows the sentinel");
            assert_eq!(q.head.ptr.cas(s0, s1), s0);
            sim::trigger_crash();
            let rep = sim::build_crash_image(seed);
            let p = q.head.ptr.load();
            if rep.poisoned != 0 || (p != s0 && p != s1) {
                std::mem::forget(q); // its drop would walk the bad pointer
                panic!("seed {seed}: anchor ptr rolled back to {p:#x}, never persisted");
            }
        }
    }

    #[test]
    fn recovery_without_crash_behaves_like_invocation() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut q = Q::new();
        // No operation pending for pid 0: recovery re-invokes the enqueue.
        q.recover_enqueue(0, 5);
        assert_eq!(q.snapshot_vals(), vec![5]);
        // Crash "just after" a completed dequeue: its response is recoverable
        // from RD_q -> result, and recovery returns the same value without
        // re-executing the removal (detectability).
        assert_eq!(q.dequeue(0), Some(5));
        assert_eq!(q.recover_dequeue(0), Some(5));
        assert_eq!(q.snapshot_vals(), vec![], "recovery must not double-dequeue");
        // Empty dequeue's response is likewise recoverable.
        assert_eq!(q.dequeue(0), None);
        assert_eq!(q.recover_dequeue(0), None);
    }
}
