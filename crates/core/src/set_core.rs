//! Head-parameterized core of the detectably recoverable sorted-list set
//! (paper Section 4, Algorithms 3–5, obtained by applying ROpt-ISB).
//!
//! The ISB construction is *head-agnostic*: AffectSet/WriteSet tracking,
//! helping and Op-Recover never mention where the traversal started. This
//! module exploits that by factoring the whole search/gather/help/recover
//! algorithm out of [`crate::list::RList`] into [`SetCore`], a borrowed view
//! `(head node, &RecArea, &Collector)`. [`crate::list::RList`] is the
//! one-bucket instantiation; [`crate::hashmap::RHashMap`] is one list whose
//! operations start at permanent bucket sentinels, with **one** recovery
//! area (one pending operation per process, per the paper's model) and one
//! collector.
//!
//! The bucket is sorted by strictly increasing `u64` keys with two sentinels
//! (`0 = −∞`, `u64::MAX = +∞`); user keys must lie strictly between. Each
//! node carries an `info` field (tagged pointer, see [`crate::tag`]).
//!
//! * A node tagged **for update** has its `next` field about to change; it
//!   is untagged when the update completes.
//! * A node tagged **for deletion** stays tagged forever (the Harris mark
//!   bit) — this includes the successor that a successful *Insert*
//!   **copy-replaces**: `Insert(k)` links `pred → newnd(k) → newcurr(copy of
//!   curr)` and retires `curr`. The copy guarantees **pointer freshness**: a
//!   node only ever leaves a `next` field by being retired, so no `next` or
//!   `info` field ever holds the same value twice and stale helper CASes
//!   fail harmlessly (DESIGN.md §4).
//!
//! Read-only outcomes (`Find`, `Insert` of a present key, `Delete` of an
//! absent key) take the ROpt fast path: a single-element AffectSet, the
//! response computed from immutable fields *before* the descriptor is
//! persisted, and no call to `Help`.
//!
//! ### Deviation from the paper's pseudocode
//! Algorithm 1 reuses the same Info structure after an attempt that failed
//! without installing anything. We allocate a fresh Info for every attempt
//! that follows a *published* one: refilling a descriptor that `RD_q`
//! already points to is not crash-atomic on real hardware (a torn descriptor
//! could be helped during recovery). The single-attempt fast path is
//! unchanged.

use crate::arm;
use crate::counters;
use crate::engine::{help, HelpOutcome, Info, InfoFill, RES_FALSE, RES_TRUE};
use crate::optype;
use crate::pool::{Pool, PoolCfg, PoolItem};
use crate::recovery::{op_recover, RecArea, Recovered};
use crate::tag;
use nvm::addr_hash::{AddrMap, AddrSet};
use nvm::{PWord, Persist, PersistWords};
use reclaim::{Collector, Guard};

/// Sentinel key of a bucket head (−∞).
pub const KEY_MIN: u64 = 0;
/// Sentinel key of a bucket tail (+∞).
pub const KEY_MAX: u64 = u64::MAX;

/// A list node: `key` (immutable once published), `next`, `info`.
///
/// Aligned to 32 bytes so a node never straddles a 64-byte cache line: its
/// line-granular write-back is always exactly one line, whatever address
/// the allocator picks.
#[repr(C, align(32))]
pub struct Node<M: Persist> {
    key: PWord<M>,
    next: PWord<M>,
    info: PWord<M>,
}

unsafe impl<M: Persist> PersistWords<M> for Node<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.key);
        f(&self.next);
        f(&self.info);
    }
}

impl<M: Persist> Node<M> {
    fn alloc(key: u64, next: u64, info: u64) -> *mut Node<M> {
        counters::node_alloc();
        Box::into_raw(Box::new(Node {
            key: PWord::new(key),
            next: PWord::new(next),
            info: PWord::new(info),
        }))
    }

    /// Re-initialize a pool-recycled node (all fields — the node is dirty).
    fn init(&self, key: u64, next: u64, info: u64) {
        self.key.store(key);
        self.next.store(next);
        self.info.store(info);
    }
}

impl<M: Persist> PoolItem for Node<M> {
    fn fresh() -> Self {
        counters::node_alloc();
        Node { key: PWord::new(0), next: PWord::new(0), info: PWord::new(0) }
    }

    fn count_reuse() {
        counters::node_reuse();
    }
}

/// The descriptor/node pools of one ordered-set structure (`RList` and
/// `RHashMap` each own one pair). Pooling is forced into passthrough mode
/// under crash simulation and disabled collectors — see [`crate::pool`].
pub struct SetPools<M: Persist> {
    /// Info-descriptor pool.
    pub info: Pool<Info<M>>,
    /// List-node pool.
    pub node: Pool<Node<M>>,
}

impl<M: Persist> SetPools<M> {
    /// Pools per `cfg`, gated on the structure's collector mode.
    pub fn new(cfg: PoolCfg, collector: &Collector) -> Self {
        Self {
            info: Pool::new_for::<M>(cfg.clone(), collector),
            node: Pool::new_for::<M>(cfg, collector),
        }
    }

    /// Pools whose Info half is a clone of an existing (shared) pool — the
    /// mapped backend hands every structure in one heap the same descriptor
    /// pool, because `RD_q` hand-over releases the *previous* operation's
    /// descriptor regardless of which structure it belonged to.
    pub fn with_shared_info(info: Pool<Info<M>>, cfg: PoolCfg, collector: &Collector) -> Self {
        Self { info, node: Pool::new_for::<M>(cfg, collector) }
    }
}

impl<M: Persist> Drop for Node<M> {
    fn drop(&mut self) {
        counters::node_free();
    }
}

/// Builds a private, untagged chain `−∞ → keys… → +∞` and returns every node
/// in list order (head first, tail last); with no keys, a fresh empty
/// bucket. `keys` must be strictly increasing and lie strictly between the
/// sentinels. Nothing is published, so no tracking is needed: the caller
/// links the head into its root and owns the nodes (teardown through
/// [`grave_scan_bucket`]). With `pools`, nodes are drawn from them — the
/// mapped backend's persistent arena, so the chain survives the process;
/// this panics on a passthrough pool, because a heap-`Box` node whose
/// address gets persisted into the arena would dangle after a restart.
/// Without `pools`, nodes come from the heap.
pub fn new_chain<M: Persist>(pools: Option<&SetPools<M>>, keys: &[u64]) -> Vec<*mut Node<M>> {
    let draw = |key: u64, next: u64| match pools {
        Some(pools) => {
            let p =
                pools.node.take().expect("mapped bucket sentinels require an arena-backed pool");
            // SAFETY: a pool object is live and exclusively ours until
            // published; init rewrites every (dirty) field.
            unsafe { (*p).init(key, next, 0) };
            p
        }
        None => Node::alloc(key, next, 0),
    };
    let mut nodes = vec![std::ptr::null_mut(); keys.len() + 2];
    let mut next = draw(KEY_MAX, 0);
    nodes[keys.len() + 1] = next;
    for (i, &k) in keys.iter().enumerate().rev() {
        debug_assert!(k > KEY_MIN && k < unsafe { (*next).key.load() });
        next = draw(k, next as u64);
        nodes[i + 1] = next;
    }
    nodes[0] = draw(KEY_MIN, next as u64);
    nodes
}

/// Walks the list from `head` to its `+∞` tail (inclusive), calling
/// `f(node, key, info)` per reachable node.
///
/// # Safety
/// Requires quiescent exclusive access to a live list (or a validated one,
/// see [`validate_bucket`]), or an EBR pin on the list's collector held
/// across the call — the walk then reads the list as a search does, a racy
/// snapshot under concurrent operations.
pub unsafe fn for_each_node<M: Persist>(
    head: *mut Node<M>,
    mut f: impl FnMut(*mut Node<M>, u64, u64),
) {
    unsafe {
        let mut n = head;
        loop {
            let key = (*n).key.load();
            f(n, key, (*n).info.load());
            if key == KEY_MAX {
                break;
            }
            n = (*n).next.load() as *mut Node<M>;
        }
    }
}

/// Bounds-checked pre-validation of a bucket read from an **untrusted**
/// mapped image, run before any recovery code dereferences it: every node
/// reached from `head` must lie inside the heap (per `in_node`, a
/// whole-node span check), and the chain must terminate at a `+∞` sentinel
/// within `max_nodes` steps (cycle guard). Referenced info descriptors are
/// only *collected* into `infos`; the caller range-checks them with
/// [`crate::recovery::validate_infos`]. Returns the offending pointer value
/// on violation.
///
/// # Safety
/// Every node is dereferenced only after `in_node` passes, so the caller
/// must guarantee that `in_node(a)` implies the whole `Node<M>` at `a` is
/// mapped (the mapped backend passes a `contains_span` check).
pub unsafe fn validate_bucket<M: Persist>(
    head: *mut Node<M>,
    in_node: &impl Fn(u64) -> bool,
    max_nodes: usize,
    infos: &mut AddrSet<u64>,
) -> Result<(), u64> {
    if !in_node(head as u64) {
        return Err(head as u64);
    }
    let mut n = head;
    let mut budget = max_nodes;
    loop {
        if budget == 0 {
            return Err(n as u64); // non-terminating chain (cycle/corruption)
        }
        budget -= 1;
        unsafe {
            let iv = tag::untagged((*n).info.load());
            if iv != 0 {
                infos.insert(iv);
            }
            if (*n).key.load() == KEY_MAX {
                return Ok(());
            }
            let next = (*n).next.load();
            if !in_node(next) {
                return Err(next);
            }
            n = next as *mut Node<M>;
        }
    }
}

/// Census of one **quiescent** bucket: records every reachable node's
/// address in `nodes` and, per info descriptor still referenced from a node
/// cell, the number of referencing cells in `info_refs`. The mapped
/// backend's attach uses this (after `scrub`) to rebuild descriptor
/// reference counts and compute the live set for its arena sweep.
///
/// # Safety
/// Requires quiescent exclusive access to a live bucket.
pub unsafe fn census_bucket<M: Persist>(
    head: *mut Node<M>,
    nodes: &mut AddrSet,
    info_refs: &mut AddrMap<u32>,
) {
    unsafe {
        for_each_node(head, |n, _, info| census_node(n, info, nodes, info_refs));
    }
}

/// One node's share of [`census_bucket`]: its address into `nodes` and, if
/// its info cell references a descriptor, one count into `info_refs`.
#[inline]
pub fn census_node<M: Persist>(
    n: *mut Node<M>,
    info: u64,
    nodes: &mut AddrSet,
    info_refs: &mut AddrMap<u32>,
) {
    nodes.insert(n as usize);
    let iv = tag::untagged(info);
    if iv != 0 {
        *info_refs.entry(iv as usize).or_insert(0) += 1;
    }
}

struct SearchRes<M: Persist> {
    pred: *mut Node<M>,
    curr: *mut Node<M>,
    pred_info: u64,
    curr_info: u64,
}

/// A borrowed view of one ordered-set bucket plus the structure-wide
/// recovery area and collector — everything the ISB set algorithm needs.
/// `ARM = false` is the paper's general persistency placement ("Isb");
/// `ARM = true` is the hand-tuned one ("Isb-Opt").
///
/// `SetCore` is constructed per call by the owning structure; it holds no
/// state of its own and performs no allocation besides the operation's
/// nodes/descriptors.
pub struct SetCore<'a, M: Persist, const ARM: u8> {
    head: *mut Node<M>,
    rec: &'a RecArea<M>,
    collector: &'a Collector,
    pools: &'a SetPools<M>,
}

impl<'a, M: Persist, const ARM: u8> SetCore<'a, M, ARM> {
    /// A view over the bucket rooted at `head`.
    ///
    /// # Safety
    /// `head` must point to a live bucket created by [`new_chain`] whose
    /// nodes are only reclaimed through `collector`, `rec` must be the
    /// recovery area every operation on this bucket publishes through, and
    /// `pools` must be the pools every operation on the structure draws
    /// from (and must outlive `collector`).
    pub unsafe fn new(
        head: *mut Node<M>,
        rec: &'a RecArea<M>,
        collector: &'a Collector,
        pools: &'a SetPools<M>,
    ) -> Self {
        Self { head, rec, collector, pools }
    }

    /// Draw a descriptor: pool hit, or heap in passthrough mode.
    #[inline]
    fn alloc_info(&self) -> *mut Info<M> {
        self.pools.info.take().unwrap_or_else(Info::alloc)
    }

    /// Draw a node: pool hit (re-initialized), or heap in passthrough mode.
    #[inline]
    fn alloc_node(&self, key: u64, next: u64, info: u64) -> *mut Node<M> {
        match self.pools.node.take() {
            Some(p) => {
                unsafe { (*p).init(key, next, info) };
                p
            }
            None => Node::alloc(key, next, info),
        }
    }

    fn assert_key(key: u64) {
        assert!(key > KEY_MIN && key < KEY_MAX, "key must be in (0, u64::MAX)");
    }

    /// Algorithm 5 `Search`: returns the first node with `node.key >= key`
    /// as `curr`, its predecessor, and their info values — each info value
    /// read on first access to its node (before the node's `next`).
    ///
    /// # Safety
    /// Caller must hold an EBR pin.
    unsafe fn search(&self, key: u64) -> SearchRes<M> {
        unsafe {
            let mut curr = self.head;
            let mut curr_info = (*curr).info.load();
            let mut pred = curr;
            let mut pred_info = curr_info;
            while (*curr).key.load() < key {
                pred = curr;
                pred_info = curr_info;
                curr = (*curr).next.load() as *mut Node<M>;
                curr_info = (*curr).info.load();
            }
            SearchRes { pred, curr, pred_info, curr_info }
        }
    }

    /// Persist the attempt's new nodes and descriptor before publication
    /// (paper line 106 `pbarrier(newcurr, newnd, *opInfo)`).
    unsafe fn persist_attempt(
        &self,
        info: *mut Info<M>,
        newnd: *mut Node<M>,
        newcurr: *mut Node<M>,
    ) {
        unsafe {
            if !newnd.is_null() {
                arm::pwb_obj_arm::<M, _, ARM>(&*newnd);
            }
            if !newcurr.is_null() {
                arm::pwb_obj_arm::<M, _, ARM>(&*newcurr);
            }
            if arm::is_tuned(ARM) {
                arm::pwb_obj_arm::<M, _, ARM>(&*info);
                M::pfence(); // order descriptor write-backs before RD_q's
            } else {
                M::pbarrier_obj(&*info);
            }
        }
    }

    /// Publish `info` in `RD_q`, releasing the hold on the previously
    /// published descriptor.
    fn publish(&self, pid: usize, info: *mut Info<M>, published: &mut u64, g: &Guard<'_>) {
        self.rec.publish_arm::<ARM>(pid, info as u64);
        if *published != 0 && *published != info as u64 {
            unsafe { Info::<M>::release(tag::ptr_of(*published), 1, g) };
        }
        *published = info as u64;
    }

    /// Replace `SD_q` with `info` (0 clears it), releasing the reference
    /// the previous value held.
    fn publish_structural(&self, pid: usize, info: u64, g: &Guard<'_>) {
        let prev = self.rec.publish_structural(pid, info);
        if prev != 0 {
            unsafe { Info::<M>::release(tag::ptr_of(prev), 1, g) };
        }
    }

    /// Publish for the read-only `find` path: never touches `CP_q` (finds
    /// always restart), so it must not use the arm-aware publish that folds
    /// the coalescing arms' deferred `CP_q := 1` in.
    fn publish_ro(&self, pid: usize, info: *mut Info<M>, published: &mut u64, g: &Guard<'_>) {
        self.rec.publish(pid, info as u64);
        if *published != 0 && *published != info as u64 {
            unsafe { Info::<M>::release(tag::ptr_of(*published), 1, g) };
        }
        *published = info as u64;
    }

    /// Retire a node that left the structure, releasing its info reference.
    /// The node was published, so reuse waits out the epoch delay.
    unsafe fn retire_node(&self, node: *mut Node<M>, g: &Guard<'_>) {
        unsafe {
            let iv = (*node).info.load();
            Info::<M>::release(tag::ptr_of(iv), 1, g);
            self.pools.node.retire(node, g);
        }
    }

    /// Return never-published new nodes straight to the pool (and release
    /// their info-cell references) — the private-failure fast path.
    unsafe fn drop_pending(
        &self,
        newnd: *mut Node<M>,
        newcurr: *mut Node<M>,
        filled: u64,
        g: &Guard<'_>,
    ) {
        unsafe {
            if filled != 0 {
                Info::<M>::release(tag::ptr_of(filled), 2, g);
            }
            self.pools.node.give(newnd, g);
            self.pools.node.give(newcurr, g);
        }
    }

    /// Inserts `key`; returns `false` iff it was already present.
    /// (Algorithm 3, `Insert`.)
    pub fn insert(&self, pid: usize, key: u64) -> bool {
        self.insert_impl::<true>(pid, key).0
    }

    /// Inserts `key` **without touching the operation's recovery record**:
    /// no `RD_q := Null / CP_q := 1` prologue and no `RD_q` publication, so
    /// process `pid`'s pending operation keeps its record. Returns the node
    /// holding `key` afterwards — the one just linked, or the present one
    /// (whose insert has completed: it is found untagged, or helped).
    ///
    /// For structural nodes a structure adds on its own behalf (the hash
    /// map's bucket guards and sentinels). Each attempt's descriptor is
    /// published in `pid`'s `SD_q` instead ([`RecArea::publish_structural`],
    /// holding the reference `RD_q` would) until the insert returns, so the
    /// recovery of a crashed or killed process helps an in-flight one to
    /// completion like any published descriptor, before the process's pins
    /// are released; the caller re-inserts on its retry. A present key costs
    /// no persistency instruction at all.
    pub fn insert_untracked(&self, pid: usize, key: u64) -> *mut Node<M> {
        self.insert_impl::<false>(pid, key).1
    }

    /// [`SetCore::insert`] (`TRACKED`) or [`SetCore::insert_untracked`]:
    /// returns the response and the node holding `key` afterwards.
    fn insert_impl<const TRACKED: bool>(&self, pid: usize, key: u64) -> (bool, *mut Node<M>) {
        Self::assert_key(key);
        // ONE pin covers the whole operation: the previous descriptor's
        // release, every attempt, and all retirements (interior help calls
        // re-pin through the collector's nested fast path).
        let g = self.collector.pin();
        if TRACKED {
            let prev = self.rec.begin::<ARM>(pid);
            unsafe { crate::recovery::release_prev::<M>(prev, &g) };
        }
        // newnd → newcurr; newcurr refreshed per attempt as a copy of curr.
        let newcurr = self.alloc_node(0, 0, 0);
        let newnd = self.alloc_node(key, newcurr as u64, 0);
        let mut info = self.alloc_info();
        let mut filled: u64 = 0; // tagged-info value currently in the new nodes' cells
        let mut published: u64 = 0;
        loop {
            let s = unsafe { self.search(key) };
            // Helping phase.
            if tag::is_tagged(s.pred_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.pred_info), false, &g) };
                continue;
            }
            if tag::is_tagged(s.curr_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.curr_info), false, &g) };
                continue;
            }
            let curr_key = unsafe { (*s.curr).key.load() };
            if curr_key == key && !TRACKED {
                if published != 0 {
                    self.publish_structural(pid, 0, &g); // a failed attempt's
                }
                unsafe {
                    self.pools.info.give(info, &g); // never filled nor published
                    self.drop_pending(newnd, newcurr, filled, &g);
                }
                return (false, s.curr);
            }
            if curr_key == key {
                // ROpt read-only path: key already present.
                unsafe {
                    Info::fill(
                        info,
                        &InfoFill {
                            optype: optype::INSERT,
                            affect: &[(cell_addr(&(*s.curr).info), s.curr_info)],
                            write: &[],
                            newset: &[],
                            del_mask: 0,
                            presult: RES_FALSE,
                        },
                    );
                    // Response computed early so one barrier persists it with
                    // the descriptor (Algorithm 2, lines 73–77).
                    M::store(&(*info).result, RES_FALSE);
                    self.persist_attempt(info, std::ptr::null_mut(), std::ptr::null_mut());
                }
                self.publish(pid, info, &mut published, &g);
                unsafe {
                    Info::release(info, 1, &g); // the never-installed affect slot
                    self.drop_pending(newnd, newcurr, filled, &g);
                }
                return (false, s.curr);
            }
            // Update path: refresh the copy of curr and the new nodes' tags.
            unsafe {
                (*newcurr).key.store(curr_key);
                (*newcurr).next.store((*s.curr).next.load());
                let t = tag::tagged(info as u64);
                if filled != t {
                    if filled != 0 {
                        Info::<M>::release(tag::ptr_of(filled), 2, &g);
                    }
                    (*newnd).info.store(t);
                    (*newcurr).info.store(t);
                    filled = t;
                }
                Info::fill(
                    info,
                    &InfoFill {
                        optype: optype::INSERT,
                        affect: &[
                            (cell_addr(&(*s.pred).info), s.pred_info),
                            (cell_addr(&(*s.curr).info), s.curr_info),
                        ],
                        write: &[(cell_addr(&(*s.pred).next), s.curr as u64, newnd as u64)],
                        newset: &[cell_addr(&(*newnd).info), cell_addr(&(*newcurr).info)],
                        del_mask: 0b10, // curr is deletion-tagged (copy-replaced)
                        presult: RES_TRUE,
                    },
                );
                self.persist_attempt(info, newnd, newcurr);
            }
            if TRACKED {
                self.publish(pid, info, &mut published, &g);
            } else {
                self.publish_structural(pid, info as u64, &g);
                published = info as u64;
            }
            match crate::fault::scope(!TRACKED, || unsafe { help::<M, ARM>(info, true, &g) }) {
                HelpOutcome::Done => {
                    if !TRACKED {
                        self.publish_structural(pid, 0, &g);
                    }
                    unsafe { self.retire_node(s.curr, &g) };
                    return (true, newnd);
                }
                HelpOutcome::FailedAt(i) => {
                    // Abandon: release never-installed affect slots; fresh
                    // descriptor for the next attempt (pointer freshness —
                    // the pool's epoch delay keeps the failed descriptor's
                    // address out of circulation while it is still visible).
                    unsafe { Info::release(info, (2 - i) as u32, &g) };
                    info = self.alloc_info();
                }
            }
        }
    }

    /// Deletes `key`; returns `false` iff it was absent. (Algorithm 5.)
    pub fn delete(&self, pid: usize, key: u64) -> bool {
        Self::assert_key(key);
        let g = self.collector.pin();
        let prev = self.rec.begin::<ARM>(pid);
        unsafe { crate::recovery::release_prev::<M>(prev, &g) };
        let mut info = self.alloc_info();
        let mut published: u64 = 0;
        loop {
            let s = unsafe { self.search(key) };
            if tag::is_tagged(s.pred_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.pred_info), false, &g) };
                continue;
            }
            if tag::is_tagged(s.curr_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.curr_info), false, &g) };
                continue;
            }
            let curr_key = unsafe { (*s.curr).key.load() };
            if curr_key != key {
                // ROpt read-only path: key not present.
                unsafe {
                    Info::fill(
                        info,
                        &InfoFill {
                            optype: optype::DELETE,
                            affect: &[(cell_addr(&(*s.curr).info), s.curr_info)],
                            write: &[],
                            newset: &[],
                            del_mask: 0,
                            presult: RES_FALSE,
                        },
                    );
                    M::store(&(*info).result, RES_FALSE);
                    self.persist_attempt(info, std::ptr::null_mut(), std::ptr::null_mut());
                }
                self.publish(pid, info, &mut published, &g);
                unsafe { Info::release(info, 1, &g) };
                return false;
            }
            // succ read after the helping phase; stable once both tags hold.
            let succ = unsafe { (*s.curr).next.load() };
            unsafe {
                Info::fill(
                    info,
                    &InfoFill {
                        optype: optype::DELETE,
                        affect: &[
                            (cell_addr(&(*s.pred).info), s.pred_info),
                            (cell_addr(&(*s.curr).info), s.curr_info),
                        ],
                        write: &[(cell_addr(&(*s.pred).next), s.curr as u64, succ)],
                        newset: &[],
                        del_mask: 0b10, // curr stays deletion-tagged forever
                        presult: RES_TRUE,
                    },
                );
                self.persist_attempt(info, std::ptr::null_mut(), std::ptr::null_mut());
            }
            self.publish(pid, info, &mut published, &g);
            match unsafe { help::<M, ARM>(info, true, &g) } {
                HelpOutcome::Done => {
                    unsafe { self.retire_node(s.curr, &g) };
                    return true;
                }
                HelpOutcome::FailedAt(i) => {
                    unsafe { Info::release(info, (2 - i) as u32, &g) };
                    info = self.alloc_info();
                }
            }
        }
    }

    /// Whether `key` is present. (Algorithm 3, `Find` — fully read-only,
    /// skips the `RD_q := Null / CP_q := 1` prologue: restarting a find is
    /// always safe, but its response is still persisted for strict
    /// recoverability / nesting.)
    pub fn find(&self, pid: usize, key: u64) -> bool {
        Self::assert_key(key);
        let g = self.collector.pin();
        let prev = self.rec.begin_readonly(pid);
        let info = self.alloc_info();
        // A DIRECT previous entry carries no descriptor reference to hand
        // over (see `recovery::release_prev`).
        let mut published = if tag::is_direct(prev) { 0 } else { prev };
        loop {
            let s = unsafe { self.search(key) };
            if tag::is_tagged(s.curr_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.curr_info), false, &g) };
                continue;
            }
            let res = unsafe { (*s.curr).key.load() } == key;
            let enc = if res { RES_TRUE } else { RES_FALSE };
            unsafe {
                Info::fill(
                    info,
                    &InfoFill {
                        optype: optype::FIND,
                        affect: &[(cell_addr(&(*s.curr).info), s.curr_info)],
                        write: &[],
                        newset: &[],
                        del_mask: 0,
                        presult: enc,
                    },
                );
                M::store(&(*info).result, enc);
                self.persist_attempt(info, std::ptr::null_mut(), std::ptr::null_mut());
            }
            self.publish_ro(pid, info, &mut published, &g);
            unsafe { Info::release(info, 1, &g) };
            return res;
        }
    }

    /// Generic Op-Recover on the shared recovery area: `Completed` carries
    /// the crashed operation's persisted (encoded) response; `Restart` means
    /// the caller must re-invoke the operation with its original arguments.
    pub fn op_recover(&self, pid: usize) -> Recovered {
        let g = self.collector.pin();
        unsafe { op_recover::<M, ARM>(self.rec, pid, &g) }
    }

    /// Completes helping obligations left *visible* in this bucket by a
    /// crash: walks the bucket and runs `Help` on every tagged info until a
    /// full pass finds none. Call after every process ran its `Op.Recover`.
    ///
    /// Needed by the hand-tuned placement, which defers the cleanup-phase
    /// `psync`: the adversarial crash image may roll a completed operation's
    /// untag write-backs back, resurrecting its tags on reachable nodes.
    /// During normal execution lazy helping heals them on first contact;
    /// this performs the same (idempotent) helping eagerly so a quiescent
    /// post-recovery structure is tag-free. The effects themselves cannot
    /// roll back — an operation only reports completion after the update
    /// phase's `psync` — so re-helping can only untag, never re-apply.
    pub fn scrub(&self) {
        self.try_scrub().unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`SetCore::scrub`] with the pass budget surfaced as a typed
    /// [`crate::recovery::AttachError::ScrubStalled`] instead of a panic —
    /// the mapped attach path reports non-quiescing images as errors.
    pub fn try_scrub(&self) -> Result<(), crate::recovery::AttachError> {
        self.try_scrub_until(|_| false)
    }

    /// [`SetCore::try_scrub`] over the region from the head up to (not
    /// including) the first later node whose key satisfies `stop`, or the
    /// `+∞` tail — the hash map scrubs one bucket's stretch of its list.
    pub fn try_scrub_until(
        &self,
        stop: impl Fn(u64) -> bool,
    ) -> Result<(), crate::recovery::AttachError> {
        // Each pass helps every descriptor visible in it; descriptors are
        // finite (≤ one per process) and helping never re-tags, so a couple
        // of passes quiesce. The bound turns a logic bug into a diagnosis.
        const PASSES: usize = 64;
        for _ in 0..PASSES {
            let g = self.collector.pin();
            let mut dirty = false;
            unsafe {
                let mut n = self.head;
                loop {
                    let iv = (*n).info.load();
                    if tag::is_tagged(iv) {
                        dirty = true;
                        help::<M, ARM>(tag::ptr_of(iv), false, &g);
                    }
                    if (*n).key.load() == KEY_MAX {
                        break;
                    }
                    n = (*n).next.load() as *mut Node<M>;
                    if stop((*n).key.load()) {
                        break;
                    }
                }
            }
            if !dirty {
                return Ok(());
            }
        }
        Err(crate::recovery::AttachError::ScrubStalled {
            kind: "ordered-set bucket",
            passes: PASSES,
        })
    }

    /// Appends this bucket's user keys to `out` in bucket order (requires
    /// exclusive access ⇒ quiescence).
    pub fn snapshot_keys_into(&self, out: &mut Vec<u64>) {
        unsafe {
            let mut n = (*self.head).next.load() as *mut Node<M>;
            while (*n).key.load() != KEY_MAX {
                out.push((*n).key.load());
                n = (*n).next.load() as *mut Node<M>;
            }
        }
    }

    /// Structural invariants of this bucket: strictly sorted keys, intact
    /// sentinels, no reachable node is tagged (quiescent bucket). Panics on
    /// violation.
    pub fn check_invariants(&self) {
        unsafe {
            assert_eq!((*self.head).key.load(), KEY_MIN);
            let mut prev_key = KEY_MIN;
            let mut n = (*self.head).next.load() as *mut Node<M>;
            loop {
                let k = (*n).key.load();
                assert!(k > prev_key, "keys must be strictly increasing: {prev_key} !< {k}");
                assert!(
                    !tag::is_tagged((*n).info.load()),
                    "reachable node (key {k}) is tagged in a quiescent list"
                );
                if k == KEY_MAX {
                    break;
                }
                prev_key = k;
                n = (*n).next.load() as *mut Node<M>;
            }
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

/// Drop-time grave map: address → deallocation function, deduplicated so
/// overlapping sources (reachable scan, parked bag, published descriptors)
/// free each object exactly once.
pub type Grave = std::collections::HashMap<usize, unsafe fn(*mut u8)>;

/// Records a published `RD_q` descriptor in the grave map ([`crate::tag::DIRECT`]
/// node announcements are not descriptors and are skipped — the direct
/// structure owns those nodes).
pub fn grave_published_info<M: Persist>(grave: &mut Grave, rd: u64) {
    if !tag::is_direct(rd) && tag::untagged(rd) != 0 {
        grave.insert(tag::untagged(rd) as usize, drop_info_raw::<M>);
    }
}

/// Walks one bucket from `head` and records every reachable node — and every
/// info descriptor still referenced by a node — in the grave map. After a
/// simulated crash the NVM image may have rolled pointers back, making
/// *retired* (parked) nodes reachable again, so callers merge this scan with
/// the collector's parked bag and free the deduplicated union exactly once.
///
/// # Safety
/// Requires quiescent exclusive access to the bucket (drop-time teardown).
pub unsafe fn grave_scan_bucket<M: Persist>(head: *mut Node<M>, grave: &mut Grave) {
    unsafe {
        let mut n = head;
        while !n.is_null() {
            let next = (*n).next.load() as *mut Node<M>;
            let iv = tag::untagged((*n).info.load());
            if iv != 0 {
                grave.insert(iv as usize, drop_info_raw::<M>);
            }
            let is_tail = (*n).key.load() == KEY_MAX;
            grave.insert(n as usize, drop_node_raw::<M>);
            n = if is_tail { std::ptr::null_mut() } else { next };
        }
    }
}

/// Frees everything recorded in the grave map.
///
/// # Safety
/// Every recorded address must be a live allocation owned by the caller and
/// recorded with its matching deallocation function.
pub unsafe fn free_grave(grave: Grave) {
    for (p, f) in grave {
        unsafe { f(p as *mut u8) };
    }
}
