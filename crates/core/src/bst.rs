//! Detectably recoverable external binary search tree: ISB-tracking applied
//! to the lock-free BST of Ellen, Fatourou, Ruppert, van Breugel (paper
//! Section 6).
//!
//! The tree is leaf-oriented: internal nodes hold routing keys, leaves hold
//! the set's keys. Search goes left on `k < node.key`. Two permanent dummy
//! internals (`∞₂` root, `∞₁` below it) guarantee every real leaf has a
//! non-null parent *and* grandparent.
//!
//! ISB mapping (paper Section 6):
//! * **Insert(k)** replaces leaf `l` with a three-node subtree (new internal
//!   with the new leaf and a *copy* of `l`). AffectSet = `{p (update),
//!   l (deletion)}`, WriteSet = `{⟨p.child, l, newInternal⟩}`, NewSet =
//!   `{newInternal, newLeaf, lCopy}`.
//! * **Delete(k)** swings `gp.child` from `p` to a *copy* of `l`'s sibling.
//!   AffectSet = `{gp (update), p, l, sibling (all deletion)}` — tagged in
//!   root-ward-first order, so conflicting operations always collide on a
//!   common ancestor before any leaf. WriteSet = `{⟨gp.child, p, sibCopy⟩}`,
//!   NewSet = `{sibCopy}`.
//! * **Find(k)**: ROpt read-only path on `{l}`.
//!
//! The copies preserve pointer freshness exactly as in the list: a node
//! leaves a child pointer only by being retired.

use crate::arm;
use crate::counters;
use crate::engine::{help, HelpOutcome, Info, InfoFill, RES_FALSE, RES_TRUE};
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

/// Store catalog-entry kind tag of a mapped `RBst`.
pub const KIND_BST: u64 = 4;

/// `∞₁`: larger than every user key.
pub const KEY_INF1: u64 = u64::MAX - 1;
/// `∞₂`: larger than `∞₁`.
pub const KEY_INF2: u64 = u64::MAX;

/// A tree node; leaves have null children.
#[repr(C)]
pub struct Node<M: Persist> {
    key: PWord<M>,
    left: PWord<M>,
    right: PWord<M>,
    info: PWord<M>,
}

unsafe impl<M: Persist> PersistWords<M> for Node<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.key);
        f(&self.left);
        f(&self.right);
        f(&self.info);
    }
}

impl<M: Persist> Node<M> {
    fn alloc(key: u64, left: u64, right: u64, info: u64) -> *mut Node<M> {
        counters::node_alloc();
        Box::into_raw(Box::new(Node {
            key: PWord::new(key),
            left: PWord::new(left),
            right: PWord::new(right),
            info: PWord::new(info),
        }))
    }

    fn is_leaf(&self) -> bool {
        self.left.load() == 0
    }

    /// Re-initialize a pool-recycled node.
    fn init(&self, key: u64, left: u64, right: u64, info: u64) {
        self.key.store(key);
        self.left.store(left);
        self.right.store(right);
        self.info.store(info);
    }
}

impl<M: Persist> PoolItem for Node<M> {
    fn fresh() -> Self {
        counters::node_alloc();
        Node { key: PWord::new(0), left: PWord::new(0), right: PWord::new(0), info: PWord::new(0) }
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

struct SearchRes<M: Persist> {
    gp: *mut Node<M>,
    p: *mut Node<M>,
    l: *mut Node<M>,
    gp_info: u64,
    p_info: u64,
    l_info: u64,
    /// Child cell of `gp` pointing to `p`.
    gp_cell: *const PWord<M>,
    /// Child cell of `p` pointing to `l`.
    p_cell: *const PWord<M>,
}

/// Detectably recoverable external BST (see module docs).
pub struct RBst<M: Persist, const ARM: u8 = 0> {
    root: *mut Node<M>,
    rec: RecArea<M>,
    // `collector` must drop before the pools (drop-time drain recycles).
    collector: Collector,
    info_pool: Pool<Info<M>>,
    node_pool: Pool<Node<M>>,
    /// Mapped mode: the persistent heap everything lives in (`Some`
    /// suppresses drop-time teardown — the arena is the durable state).
    mapped: Option<Arc<MappedHeap>>,
}

unsafe impl<M: Persist, const ARM: u8> Send for RBst<M, ARM> {}
unsafe impl<M: Persist, const ARM: u8> Sync for RBst<M, ARM> {}

impl<M: Persist, const ARM: u8> Default for RBst<M, ARM> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist, const ARM: u8> RBst<M, ARM> {
    /// New empty tree.
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// New empty tree with pooling off (the boxed ablation arm).
    pub fn boxed() -> Self {
        Self::with_config(Collector::new(), PoolCfg::boxed())
    }

    /// New empty tree with the given collector (crash-sim runs pass
    /// [`Collector::disabled`]; pooling drops to passthrough mode).
    pub fn with_collector(collector: Collector) -> Self {
        Self::with_config(collector, PoolCfg::default())
    }

    /// New empty tree with the given collector and pool configuration.
    pub fn with_config(collector: Collector, pool: PoolCfg) -> Self {
        // Routing: k < node.key goes left. Dummy leaves: key 0 (below every
        // user key) on the far left, ∞ leaves on the right spine; user keys
        // always land in inner's left subtree with gp ≠ null.
        let l0: *mut Node<M> = Node::alloc(0, 0, 0, 0);
        let l1: *mut Node<M> = Node::alloc(KEY_INF1, 0, 0, 0);
        let inner: *mut Node<M> = Node::alloc(KEY_INF1, l0 as u64, l1 as u64, 0);
        let r2: *mut Node<M> = Node::alloc(KEY_INF2, 0, 0, 0);
        let root = Node::alloc(KEY_INF2, inner as u64, r2 as u64, 0);
        let info_pool = Pool::new_for::<M>(pool.clone(), &collector);
        let node_pool = Pool::new_for::<M>(pool, &collector);
        Self { root, rec: RecArea::new(), collector, info_pool, node_pool, mapped: None }
    }

    /// Draw a descriptor: pool hit, or heap in passthrough mode.
    #[inline]
    fn alloc_info(&self) -> *mut Info<M> {
        self.info_pool.take().unwrap_or_else(Info::alloc)
    }

    /// Draw a node: pool hit (re-initialized), or heap in passthrough mode.
    #[inline]
    fn alloc_node(&self, key: u64, left: u64, right: u64, info: u64) -> *mut Node<M> {
        match self.node_pool.take() {
            Some(p) => {
                unsafe { (*p).init(key, left, right, info) };
                p
            }
            None => Node::alloc(key, left, right, info),
        }
    }

    fn assert_key(key: u64) {
        assert!(key > 0 && key < KEY_INF1, "key must be in (0, u64::MAX-1)");
    }

    /// Search for `key`: returns grandparent, parent, leaf, their info
    /// values (each read on first access to its node, before its children)
    /// and the two child cells on the path.
    ///
    /// # Safety
    /// Caller must hold an EBR pin.
    unsafe fn search(&self, key: u64) -> SearchRes<M> {
        unsafe {
            let mut gp = std::ptr::null_mut();
            let mut gp_info = 0;
            let mut gp_cell: *const PWord<M> = std::ptr::null();
            let mut p = self.root;
            let mut p_info = (*p).info.load();
            let mut p_cell: *const PWord<M> =
                if key < (*p).key.load() { &(*p).left } else { &(*p).right };
            let mut l = (*p_cell).load() as *mut Node<M>;
            let mut l_info = (*l).info.load();
            while !(*l).is_leaf() {
                gp = p;
                gp_info = p_info;
                gp_cell = p_cell;
                p = l;
                p_info = l_info;
                p_cell = if key < (*p).key.load() { &(*p).left } else { &(*p).right };
                l = (*p_cell).load() as *mut Node<M>;
                l_info = (*l).info.load();
            }
            SearchRes { gp, p, l, gp_info, p_info, l_info, gp_cell, p_cell }
        }
    }

    fn publish(&self, pid: usize, info: *mut Info<M>, published: &mut u64, g: &Guard<'_>) {
        self.rec.publish_arm::<ARM>(pid, info as u64);
        if *published != 0 && *published != info as u64 {
            unsafe { Info::<M>::release(tag::ptr_of(*published), 1, g) };
        }
        *published = info as u64;
    }

    /// Publish for the read-only `find` path: never touches `CP_q` (see
    /// `SetCore::publish_ro`).
    fn publish_ro(&self, pid: usize, info: *mut Info<M>, published: &mut u64, g: &Guard<'_>) {
        self.rec.publish(pid, info as u64);
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

    unsafe fn persist_attempt(&self, info: *mut Info<M>, news: &[*mut Node<M>]) {
        unsafe {
            for &n in news {
                arm::pwb_obj_arm::<M, _, ARM>(&*n);
            }
            if arm::is_tuned(ARM) {
                arm::pwb_obj_arm::<M, _, ARM>(&*info);
                M::pfence();
            } else {
                M::pbarrier_obj(&*info);
            }
        }
    }

    /// Inserts `key`; `false` if present.
    pub fn insert(&self, pid: usize, key: u64) -> bool {
        Self::assert_key(key);
        // ONE pin covers the whole operation (see set_core::insert).
        let g = self.collector.pin();
        let prev = self.rec.begin::<ARM>(pid);
        unsafe { release_prev::<M>(prev, &g) };
        let mut info = self.alloc_info();
        let mut published: u64 = 0;
        loop {
            let s = unsafe { self.search(key) };
            if tag::is_tagged(s.p_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.p_info), false, &g) };
                continue;
            }
            if tag::is_tagged(s.l_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.l_info), false, &g) };
                continue;
            }
            let l_key = unsafe { (*s.l).key.load() };
            if l_key == key {
                // ROpt read-only path.
                unsafe {
                    Info::fill(
                        info,
                        &InfoFill {
                            optype: optype::INSERT,
                            affect: &[(cell_addr(&(*s.l).info), s.l_info)],
                            write: &[],
                            newset: &[],
                            del_mask: 0,
                            presult: RES_FALSE,
                        },
                    );
                    M::store(&(*info).result, RES_FALSE);
                    self.persist_attempt(info, &[]);
                }
                self.publish(pid, info, &mut published, &g);
                unsafe { Info::<M>::release(info, 1, &g) };
                return false;
            }
            // Build the replacement subtree: internal(max) / {leaf(k), copy(l)}.
            let t = tag::tagged(info as u64);
            let new_leaf: *mut Node<M> = self.alloc_node(key, 0, 0, t);
            let l_copy: *mut Node<M> = self.alloc_node(l_key, 0, 0, t);
            let (lc, rc, ik) =
                if key < l_key { (new_leaf, l_copy, l_key) } else { (l_copy, new_leaf, key) };
            let internal: *mut Node<M> = self.alloc_node(ik, lc as u64, rc as u64, t);
            unsafe {
                Info::fill(
                    info,
                    &InfoFill {
                        optype: optype::INSERT,
                        affect: &[
                            (cell_addr(&(*s.p).info), s.p_info),
                            (cell_addr(&(*s.l).info), s.l_info),
                        ],
                        write: &[(s.p_cell as u64, s.l as u64, internal as u64)],
                        newset: &[
                            cell_addr(&(*internal).info),
                            cell_addr(&(*new_leaf).info),
                            cell_addr(&(*l_copy).info),
                        ],
                        del_mask: 0b10, // l is copy-replaced
                        presult: RES_TRUE,
                    },
                );
                self.persist_attempt(info, &[internal, new_leaf, l_copy]);
            }
            self.publish(pid, info, &mut published, &g);
            match unsafe { help::<M, ARM>(info, true, &g) } {
                HelpOutcome::Done => {
                    unsafe { self.retire_node(s.l, &g) };
                    return true;
                }
                HelpOutcome::FailedAt(i) => {
                    unsafe {
                        // Unpublished new nodes: straight back to the pool
                        // (private-failure fast path) + release their refs.
                        Info::<M>::release(info, 3, &g); // 3 new-node cells
                        self.node_pool.give(internal, &g);
                        self.node_pool.give(new_leaf, &g);
                        self.node_pool.give(l_copy, &g);
                        Info::<M>::release(info, (2 - i) as u32, &g);
                    }
                    info = self.alloc_info();
                }
            }
        }
    }

    /// Deletes `key`; `false` if absent.
    pub fn delete(&self, pid: usize, key: u64) -> bool {
        Self::assert_key(key);
        let g = self.collector.pin();
        let prev = self.rec.begin::<ARM>(pid);
        unsafe { release_prev::<M>(prev, &g) };
        let mut info = self.alloc_info();
        let mut published: u64 = 0;
        loop {
            let s = unsafe { self.search(key) };
            if tag::is_tagged(s.gp_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.gp_info), false, &g) };
                continue;
            }
            if tag::is_tagged(s.p_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.p_info), false, &g) };
                continue;
            }
            if tag::is_tagged(s.l_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.l_info), false, &g) };
                continue;
            }
            let l_key = unsafe { (*s.l).key.load() };
            if l_key != key {
                unsafe {
                    Info::fill(
                        info,
                        &InfoFill {
                            optype: optype::DELETE,
                            affect: &[(cell_addr(&(*s.l).info), s.l_info)],
                            write: &[],
                            newset: &[],
                            del_mask: 0,
                            presult: RES_FALSE,
                        },
                    );
                    M::store(&(*info).result, RES_FALSE);
                    self.persist_attempt(info, &[]);
                }
                self.publish(pid, info, &mut published, &g);
                unsafe { Info::<M>::release(info, 1, &g) };
                return false;
            }
            // Sibling of l under p (its info gathered after p's, before its children).
            let (sib, sib_info, sib_key, sib_l, sib_r) = unsafe {
                let sib_cell: &PWord<M> =
                    if std::ptr::eq(s.p_cell, &(*s.p).left) { &(*s.p).right } else { &(*s.p).left };
                let sib = sib_cell.load() as *mut Node<M>;
                let si = (*sib).info.load();
                (sib, si, (*sib).key.load(), (*sib).left.load(), (*sib).right.load())
            };
            if tag::is_tagged(sib_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(sib_info), false, &g) };
                continue;
            }
            let t = tag::tagged(info as u64);
            // Copy of the sibling replaces p (freshness); its children are
            // frozen once sib is successfully tagged.
            let sib_copy: *mut Node<M> = self.alloc_node(sib_key, sib_l, sib_r, t);
            unsafe {
                Info::fill(
                    info,
                    &InfoFill {
                        optype: optype::DELETE,
                        affect: &[
                            (cell_addr(&(*s.gp).info), s.gp_info),
                            (cell_addr(&(*s.p).info), s.p_info),
                            (cell_addr(&(*s.l).info), s.l_info),
                            (cell_addr(&(*sib).info), sib_info),
                        ],
                        write: &[(s.gp_cell as u64, s.p as u64, sib_copy as u64)],
                        newset: &[cell_addr(&(*sib_copy).info)],
                        del_mask: 0b1110, // p, l, sib all leave the tree
                        presult: RES_TRUE,
                    },
                );
                self.persist_attempt(info, &[sib_copy]);
            }
            self.publish(pid, info, &mut published, &g);
            match unsafe { help::<M, ARM>(info, true, &g) } {
                HelpOutcome::Done => {
                    unsafe {
                        self.retire_node(s.p, &g);
                        self.retire_node(s.l, &g);
                        self.retire_node(sib, &g);
                    }
                    return true;
                }
                HelpOutcome::FailedAt(i) => {
                    unsafe {
                        Info::<M>::release(info, 1, &g); // sib_copy's cell
                        self.node_pool.give(sib_copy, &g);
                        Info::<M>::release(info, (4 - i) as u32, &g);
                    }
                    info = self.alloc_info();
                }
            }
        }
    }

    /// Membership test (ROpt read-only; no `CP/RD=Null` prologue).
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
            if tag::is_tagged(s.l_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.l_info), false, &g) };
                continue;
            }
            let res = unsafe { (*s.l).key.load() } == key;
            let enc = if res { RES_TRUE } else { RES_FALSE };
            unsafe {
                Info::fill(
                    info,
                    &InfoFill {
                        optype: optype::FIND,
                        affect: &[(cell_addr(&(*s.l).info), s.l_info)],
                        write: &[],
                        newset: &[],
                        del_mask: 0,
                        presult: enc,
                    },
                );
                M::store(&(*info).result, enc);
                self.persist_attempt(info, &[]);
            }
            self.publish_ro(pid, info, &mut published, &g);
            unsafe { Info::<M>::release(info, 1, &g) };
            return res;
        }
    }

    /// `Insert.Recover`.
    pub fn recover_insert(&self, pid: usize, key: u64) -> bool {
        let r = {
            let g = self.collector.pin();
            unsafe { op_recover::<M, ARM>(&self.rec, pid, &g) }
        };
        match r {
            Recovered::Completed(v) => v == RES_TRUE,
            Recovered::Restart => self.insert(pid, key),
        }
    }

    /// `Delete.Recover`.
    pub fn recover_delete(&self, pid: usize, key: u64) -> bool {
        let r = {
            let g = self.collector.pin();
            unsafe { op_recover::<M, ARM>(&self.rec, pid, &g) }
        };
        match r {
            Recovered::Completed(v) => v == RES_TRUE,
            Recovered::Restart => self.delete(pid, key),
        }
    }

    /// `Find.Recover` (restart-safe).
    pub fn recover_find(&self, pid: usize, key: u64) -> bool {
        let r = {
            let g = self.collector.pin();
            unsafe { op_recover::<M, ARM>(&self.rec, pid, &g) }
        };
        match r {
            Recovered::Completed(v) => v == RES_TRUE,
            Recovered::Restart => self.find(pid, key),
        }
    }

    /// Completes helping obligations left *visible* in the tree by a crash:
    /// walks every reachable node and runs `Help` on every tagged info until
    /// a full pass finds none. Call after every process ran its `recover_*`.
    ///
    /// Mirrors [`crate::set_core::SetCore::scrub`]: the adversarial crash
    /// image can surface tags the normal run would have healed lazily — a
    /// partially-tagged failed attempt whose earlier cells rolled back past
    /// the gathered expected values leaves its later tags for helping to
    /// clean, and under the tuned placement even completed operations'
    /// untag write-backs can roll back. Helping is idempotent, so eager
    /// re-helping can only untag/complete, never re-apply an effect.
    pub fn scrub(&self) {
        self.try_scrub().unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`RBst::scrub`] with the pass budget surfaced as a typed
    /// [`AttachError::ScrubStalled`] instead of a panic (the mapped attach
    /// path).
    pub fn try_scrub(&self) -> Result<(), AttachError> {
        const PASSES: usize = 64;
        for _ in 0..PASSES {
            let g = self.collector.pin();
            let mut dirty = false;
            // Iterative DFS: recursion depth is attacker-controlled here
            // (crash images), while the walk itself needs no ordering.
            let mut stack = vec![self.root];
            while let Some(n) = stack.pop() {
                unsafe {
                    let iv = (*n).info.load();
                    if tag::is_tagged(iv) {
                        dirty = true;
                        help::<M, ARM>(tag::ptr_of(iv), false, &g);
                    }
                    if !(*n).is_leaf() {
                        stack.push((*n).left.load() as *mut Node<M>);
                        stack.push((*n).right.load() as *mut Node<M>);
                    }
                }
            }
            if !dirty {
                return Ok(());
            }
        }
        Err(AttachError::ScrubStalled { kind: "bst", passes: PASSES })
    }

    /// Quiescent in-order snapshot of the user keys.
    pub fn snapshot_keys(&mut self) -> Vec<u64> {
        unsafe fn walk<M: Persist>(n: *mut Node<M>, out: &mut Vec<u64>) {
            unsafe {
                if n.is_null() {
                    return;
                }
                if (*n).is_leaf() {
                    let k = (*n).key.load();
                    if k > 0 && k < KEY_INF1 {
                        out.push(k);
                    }
                    return;
                }
                walk((*n).left.load() as *mut Node<M>, out);
                walk((*n).right.load() as *mut Node<M>, out);
            }
        }
        let mut out = Vec::new();
        unsafe { walk(self.root, &mut out) };
        out
    }

    /// Structural invariants for a quiescent tree: leaf-orientation, BST
    /// routing, untagged reachable nodes.
    pub fn check_invariants(&mut self) {
        unsafe fn walk<M: Persist>(n: *mut Node<M>, lo: u64, hi: u64) {
            unsafe {
                assert!(!n.is_null(), "null child in external tree");
                let k = (*n).key.load();
                assert!(
                    !tag::is_tagged((*n).info.load()),
                    "reachable node (key {k}) tagged at quiescence"
                );
                if (*n).is_leaf() {
                    assert!(lo <= k && k <= hi, "leaf {k} outside routing range [{lo},{hi}]");
                    return;
                }
                assert!((*n).right.load() != 0, "internal with one child");
                walk((*n).left.load() as *mut Node<M>, lo, k.saturating_sub(1));
                walk((*n).right.load() as *mut Node<M>, k, hi);
            }
        }
        unsafe { walk(self.root, 0, u64::MAX) };
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

impl<const ARM: u8> RBst<MappedNvm, ARM> {
    /// The persistent heap backing this tree.
    pub fn heap(&self) -> &Arc<MappedHeap> {
        self.mapped.as_ref().expect("mapped-mode tree")
    }

    /// Whole-node span check against the backing heap.
    fn in_node(&self, a: u64) -> bool {
        let heap = self.heap();
        a & 7 == 0 && heap.contains_span(a as usize, std::mem::size_of::<Node<MappedNvm>>())
    }
}

impl<const ARM: u8> MappedLayout for RBst<MappedNvm, ARM> {
    const KIND: u64 = KIND_BST;
    const KIND_NAME: &'static str = "bst";
    type Cfg = ();

    fn cfg_word(_cfg: ()) -> u64 {
        0x42 | (ARM as u64) << 32
    }

    fn root_bytes(_cfg: ()) -> usize {
        8 // the root node's address
    }

    fn open(env: &AttachEnv, _cfg: (), root_blk: *mut u8) -> Result<Self, AttachError> {
        let collector = env.collector();
        let info_pool = env.info_pool();
        let node_pool = Pool::new_for::<MappedNvm>(env.pool_cfg(), &collector);
        let root_w = root_blk as *mut u64;
        // SAFETY: committed 8-byte root block, single-threaded attach.
        let root = unsafe {
            if root_w.read() == 0 {
                // Fresh (or creation cut short — the root word is the last
                // store, so re-running rebuilds the dummies; the abandoned
                // blocks of a torn creation are swept once the heap attaches
                // non-fresh). Same dummy shape as `with_config`.
                let draw = |key: u64, left: u64, right: u64| {
                    let p: *mut Node<MappedNvm> =
                        node_pool.take().expect("arena pool always serves");
                    (*p).init(key, left, right, 0);
                    p
                };
                let l0 = draw(0, 0, 0);
                let l1 = draw(KEY_INF1, 0, 0);
                let inner = draw(KEY_INF1, l0 as u64, l1 as u64);
                let r2 = draw(KEY_INF2, 0, 0);
                let root = draw(KEY_INF2, inner as u64, r2 as u64);
                root_w.write(root as u64);
                MappedNvm::pbarrier(&*(root_w as *const nvm::PWord<MappedNvm>));
                root
            } else {
                root_w.read() as *mut Node<MappedNvm>
            }
        };
        Ok(Self {
            root,
            rec: env.rec_area(),
            collector,
            info_pool,
            node_pool,
            mapped: Some(Arc::clone(&env.heap)),
        })
    }
}

impl<const ARM: u8> SlotOps for RBst<MappedNvm, ARM> {
    fn validate_image(&self, infos: &mut AddrSet<u64>) -> Result<(), MapError> {
        // Iterative DFS with a step budget (cycle guard); every node is
        // dereferenced only after its whole span passed `in_node`.
        let mut budget = self.heap().bump_granules() + 8;
        if !self.in_node(self.root as u64) {
            return Err(MapError::CorruptPointer { addr: self.root as u64 });
        }
        let mut stack = vec![self.root as u64];
        while let Some(n) = stack.pop() {
            if budget == 0 {
                return Err(MapError::CorruptPointer { addr: n });
            }
            budget -= 1;
            // SAFETY: span-validated before push.
            unsafe {
                let node = n as *mut Node<MappedNvm>;
                let iv = tag::untagged((*node).info.load());
                if iv != 0 {
                    infos.insert(iv);
                }
                if (*node).is_leaf() {
                    continue;
                }
                for child in [(*node).left.load(), (*node).right.load()] {
                    if !self.in_node(child) {
                        return Err(MapError::CorruptPointer { addr: child });
                    }
                    stack.push(child);
                }
            }
        }
        Ok(())
    }

    fn valid_install(&self, addr: u64) -> bool {
        self.in_node(addr)
    }

    fn try_scrub(&self) -> Result<(), AttachError> {
        RBst::try_scrub(self)
    }

    unsafe fn census(&self, live: &mut AddrSet, info_refs: &mut AddrMap<u32>) {
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            // SAFETY: quiescent exclusive access post-scrub (caller).
            unsafe {
                live.insert(n as usize);
                let iv = tag::untagged((*n).info.load());
                if iv != 0 {
                    *info_refs.entry(iv as usize).or_insert(0) += 1;
                }
                if !(*n).is_leaf() {
                    stack.push((*n).left.load() as *mut Node<MappedNvm>);
                    stack.push((*n).right.load() as *mut Node<MappedNvm>);
                }
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

impl<M: Persist, const ARM: u8> Drop for RBst<M, ARM> {
    fn drop(&mut self) {
        if self.mapped.is_some() {
            // Mapped mode: the arena is the durable state; pools return
            // their caches to the persistent free list on drop.
            return;
        }
        // Same dedup-grave teardown as the list (crash images can resurrect
        // reachability of parked nodes).
        let mut grave: std::collections::HashMap<usize, unsafe fn(*mut u8)> =
            self.collector.take_parked().into_iter().map(|(p, f)| (p as usize, f)).collect();
        self.rec.each_published(|rd| {
            if !tag::is_direct(rd) && tag::untagged(rd) != 0 {
                grave.insert(tag::untagged(rd) as usize, drop_info_raw::<M>);
            }
        });
        unsafe fn scan<M: Persist>(
            n: *mut Node<M>,
            grave: &mut std::collections::HashMap<usize, unsafe fn(*mut u8)>,
        ) {
            unsafe {
                if n.is_null() || grave.contains_key(&(n as usize)) {
                    return;
                }
                grave.insert(n as usize, drop_node_raw::<M>);
                let iv = tag::untagged((*n).info.load());
                if iv != 0 {
                    grave.insert(iv as usize, drop_info_raw::<M>);
                }
                if !(*n).is_leaf() {
                    scan((*n).left.load() as *mut Node<M>, grave);
                    scan((*n).right.load() as *mut Node<M>, grave);
                }
            }
        }
        unsafe {
            scan(self.root, &mut grave);
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

    type T = RBst<CountingNvm, 0>;
    type TOpt = RBst<CountingNvm, 1>;

    #[test]
    fn sequential_set_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let t = T::new();
        assert!(!t.find(0, 5));
        assert!(t.insert(0, 5));
        assert!(t.find(0, 5));
        assert!(!t.insert(0, 5));
        assert!(t.insert(0, 3));
        assert!(t.insert(0, 9));
        assert!(t.delete(0, 5));
        assert!(!t.delete(0, 5));
        assert!(!t.find(0, 5));
        assert!(t.find(0, 3) && t.find(0, 9));
    }

    #[test]
    fn inorder_snapshot_is_sorted() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut t = TOpt::new();
        for k in [50u64, 20, 80, 10, 30, 70, 90, 25, 35] {
            assert!(t.insert(0, k));
        }
        assert_eq!(t.snapshot_keys(), vec![10, 20, 25, 30, 35, 50, 70, 80, 90]);
        t.check_invariants();
    }

    #[test]
    fn mixed_random_ops_match_btreeset() {
        use rand::{Rng, SeedableRng};
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut t = T::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..3000 {
            let k = rng.gen_range(1..64u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(t.insert(0, k), model.insert(k), "insert {k}"),
                1 => assert_eq!(t.delete(0, k), model.remove(&k), "delete {k}"),
                _ => assert_eq!(t.find(0, k), model.contains(&k), "find {k}"),
            }
        }
        assert_eq!(t.snapshot_keys(), model.iter().copied().collect::<Vec<_>>());
        t.check_invariants();
    }

    #[test]
    fn no_leaks_after_drop() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let nodes0 = crate::counters::live_nodes();
        let infos0 = crate::counters::live_infos();
        {
            let mut t = T::new();
            for k in 1..=100u64 {
                t.insert(0, k);
            }
            for k in (1..=100u64).step_by(2) {
                t.delete(0, k);
            }
            t.check_invariants();
        }
        assert_eq!(crate::counters::live_nodes(), nodes0, "node leak/double-free");
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let _gate = crate::counters::gate_shared();
        let t = Arc::new(T::new());
        let hs: Vec<_> = (0..4u64)
            .map(|p| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(p as usize);
                    for i in 0..150u64 {
                        assert!(t.insert(p as usize, 1 + p + i * 4));
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let mut t = Arc::into_inner(t).unwrap();
        assert_eq!(t.snapshot_keys().len(), 600);
        t.check_invariants();
    }

    #[test]
    fn concurrent_churn_keeps_invariants() {
        use rand::{Rng, SeedableRng};
        let _gate = crate::counters::gate_shared();
        let t = Arc::new(T::new());
        let hs: Vec<_> = (0..4)
            .map(|p| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(p);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(p as u64 + 7);
                    for _ in 0..1500 {
                        let k = rng.gen_range(1..32u64);
                        match rng.gen_range(0..3) {
                            0 => {
                                t.insert(p, k);
                            }
                            1 => {
                                t.delete(p, k);
                            }
                            _ => {
                                t.find(p, k);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let mut t = Arc::into_inner(t).unwrap();
        t.check_invariants();
    }

    #[test]
    fn recovery_without_crash_restarts() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let t = T::new();
        assert!(t.recover_insert(0, 42));
        assert!(t.find(0, 42));
        assert!(t.recover_delete(0, 42));
        assert!(!t.find(0, 42));
    }

    #[test]
    fn mapped_attach_bst_preserves_contents_across_detach() {
        use crate::store::Store;
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = std::env::temp_dir().join(format!(
            "isb_bst_{}_{}.heap",
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
            let t = store.bst::<0>("tree").unwrap();
            for k in [50u64, 20, 80, 10, 30, 70, 90, 25, 35] {
                assert!(t.insert(0, k));
            }
            assert!(t.delete(0, 20));
        }
        {
            let store = Store::open_sized(&path, 1 << 21).unwrap();
            assert!(!store.summary().heap.created);
            assert_eq!(store.summary().heap.poisoned, 0, "clean detach leaves no torn blocks");
            let t = store.bst::<0>("tree").unwrap();
            drop(store);
            let mut t = Arc::into_inner(t).unwrap();
            assert_eq!(t.snapshot_keys(), vec![10, 25, 30, 35, 50, 70, 80, 90]);
            t.check_invariants();
            assert!(t.insert(0, 60));
            assert!(t.delete(0, 90));
        }
        {
            let store = Store::open_sized(&path, 1 << 21).unwrap();
            let t = store.bst::<0>("tree").unwrap();
            drop(store);
            let mut t = Arc::into_inner(t).unwrap();
            assert_eq!(t.snapshot_keys(), vec![10, 25, 30, 35, 50, 60, 70, 80]);
            t.check_invariants();
        }
        let _ = std::fs::remove_file(&path);
    }
}
