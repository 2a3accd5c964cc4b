//! Split-ordered, detectably recoverable hash map (set of `u64` keys) built
//! on the head-parameterized ordered-set core (DESIGN.md §8).
//!
//! The durable state is **one** recoverable sorted list run by
//! [`crate::set_core::SetCore`], ordered by *split-order* keys (Shalev &
//! Shavit, "Split-Ordered Lists", JACM 2006). A volatile bucket directory
//! points into that list, so an operation starts its walk at its bucket's
//! sentinel instead of the head; the directory doubles once the key count
//! exceeds 32 × buckets, and growing it only inserts sentinels — nothing
//! migrates, so there is no resize crash window.
//!
//! **Key encoding.** A user key `k ∈ [1, MAX_KEY)` is scrambled by the
//! bijection `P(k) = k · FIB mod 2⁶²` and stored as `P<<2 | 2`. The list
//! orders by `P`, so the bucket of `k` at size `2ⁱ` is the low `i` bits of
//! `bitrev62(P)`. Bucket `b > 0` owns a *sentinel* `bitrev62(b)<<2 | 1` and
//! a *guard* `bitrev62(b)<<2 | 0` one below it; bucket 0 is the list head.
//! Every key of bucket `b` (at any size) sorts after its sentinel.
//!
//! **Why guards.** `SetCore::insert` copy-replaces its `curr` and retires
//! it, so an unguarded sentinel would be retired by the first insert just
//! below it and a directory pointer to it would dangle. No key fits between
//! a guard and its sentinel, so a guarded sentinel is only ever an
//! operation's `pred`: it is never deletion-tagged and never retired, and
//! the guard absorbs the copy-replacements. A directory entry points only
//! at a sentinel whose guard already precedes it.
//!
//! **Bucket initialization** runs only inside `insert`: after marking the
//! invocation (`CP_q := 0`) it inserts the guard and then the sentinel from
//! the parent bucket's sentinel with [`SetCore::insert_untracked`], which
//! leaves the pending operation's `RD_q`/`CP_q` alone — one operation
//! record per process, as the paper requires — and publishes its own
//! descriptor in the process's `SD_q`, which recovery helps to completion
//! first. `find` and `delete` start at the nearest initialized ancestor and
//! write nothing. The initial `shards` buckets are built with the map.
//!
//! All buckets share **one** [`RecArea`] and one collector; pointer
//! freshness (DESIGN.md §4) and Op-Recover are those of the single list.

use crate::engine::RES_TRUE;
use crate::pool::PoolCfg;
use crate::recovery::{AttachEnv, AttachError, MappedLayout, RecArea, Recovered, SlotOps};
use crate::set_core::{self, Node, SetCore, SetPools};
use crate::tag;
use nvm::addr_hash::{AddrMap, AddrSet};
use nvm::mapped::{MapError, MappedHeap, MappedNvm};
use nvm::{CachePadded, Persist};
use reclaim::Collector;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default initial bucket count for [`RHashMap::new`].
pub const DEFAULT_SHARDS: usize = 16;

/// Largest initial bucket count a map may be created with.
pub const MAX_SHARDS: usize = 1 << 16;

/// User keys lie in `[1, MAX_KEY)`.
pub const MAX_KEY: u64 = 1 << 62;

/// Store catalog-entry kind tag of a mapped `RHashMap`.
pub const KIND_MAP: u64 = 1;

/// Keys per bucket beyond which the directory doubles.
const LOAD: usize = 32;

/// The directory stops doubling here (a list of 32 · 2⁴⁰ keys).
const MAX_BUCKETS: usize = 1 << 40;

/// Directory segments: segment 0 holds bucket 0, segment `j ≥ 1` holds
/// buckets `[2^(j-1), 2^j)`.
const SEGS: usize = MAX_BUCKETS.trailing_zeros() as usize + 1;

/// 2⁶⁴ / φ, the fibonacci-hashing multiplier (odd, so invertible).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// `FIB⁻¹ mod 2⁶⁴` (Newton's iteration; each step doubles the good bits).
const FIB_INV: u64 = {
    let mut x = FIB; // correct to 3 bits for any odd number
    let mut i = 0;
    while i < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(FIB.wrapping_mul(x)));
        i += 1;
    }
    x
};

/// Low two bits of a node key: which kind of node it is.
const GUARD: u64 = 0;
const SENTINEL: u64 = 1;
const USER: u64 = 2;

/// Directory-entry flag: the bucket's stretch of the list held a tagged
/// node at attach and the first operation starting there scrubs it.
const SCRUB: u64 = 1;

#[inline]
fn bitrev62(x: u64) -> u64 {
    x.reverse_bits() >> 2
}

/// The list key of user key `k`; panics outside `[1, MAX_KEY)`.
#[inline]
fn user_node_key(k: u64) -> u64 {
    assert!(k != 0 && k < MAX_KEY, "key must be in [1, 2^62), got {k}");
    (k.wrapping_mul(FIB) & (MAX_KEY - 1)) << 2 | USER
}

#[inline]
fn user_key_of(node_key: u64) -> u64 {
    (node_key >> 2).wrapping_mul(FIB_INV) & (MAX_KEY - 1)
}

#[inline]
fn sentinel_key(b: usize) -> u64 {
    bitrev62(b as u64) << 2 | SENTINEL
}

#[inline]
fn guard_key(b: usize) -> u64 {
    bitrev62(b as u64) << 2 | GUARD
}

#[inline]
fn bucket_of_sentinel(key: u64) -> usize {
    bitrev62(key >> 2) as usize
}

/// Bucket `b > 0` with its highest set bit cleared: the bucket it split off.
#[inline]
fn parent(b: usize) -> usize {
    b & !(1 << (usize::BITS - 1 - b.leading_zeros()))
}

/// Guard and sentinel keys of buckets `1..shards`, in list order.
fn initial_keys(shards: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = (1..shards).flat_map(|b| [guard_key(b), sentinel_key(b)]).collect();
    keys.sort_unstable();
    keys
}

/// The volatile bucket directory: a fixed table of lazily allocated,
/// never-moving segments of entries (sentinel address, plus [`SCRUB`]).
/// Lock-free; entries go from 0 to a sentinel once and never back.
struct Directory {
    segs: [AtomicPtr<AtomicU64>; SEGS],
}

impl Directory {
    fn new() -> Self {
        Self { segs: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())) }
    }

    #[inline]
    fn locate(b: usize) -> (usize, usize) {
        if b == 0 {
            return (0, 0);
        }
        let j = (usize::BITS - b.leading_zeros()) as usize;
        (j, b - (1 << (j - 1)))
    }

    fn seg_len(j: usize) -> usize {
        if j == 0 {
            1
        } else {
            1 << (j - 1)
        }
    }

    /// Bucket `b`'s entry, if its segment exists.
    #[inline]
    fn get(&self, b: usize) -> Option<&AtomicU64> {
        let (j, off) = Self::locate(b);
        let seg = self.segs[j].load(Ordering::Acquire);
        // SAFETY: a published segment holds `seg_len(j)` entries and is
        // freed only when the directory drops.
        (!seg.is_null()).then(|| unsafe { &*seg.add(off) })
    }

    fn get_or_alloc(&self, b: usize) -> &AtomicU64 {
        if let Some(e) = self.get(b) {
            return e;
        }
        let (j, off) = Self::locate(b);
        let fresh: Box<[AtomicU64]> = (0..Self::seg_len(j)).map(|_| AtomicU64::new(0)).collect();
        let fresh = Box::into_raw(fresh) as *mut AtomicU64;
        let seg = match self.segs[j].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => fresh,
            Err(won) => {
                // SAFETY: ours, never published.
                drop(unsafe { Self::seg_box(fresh, j) });
                won
            }
        };
        // SAFETY: as in `get`.
        unsafe { &*seg.add(off) }
    }

    /// Every allocated entry with its bucket index.
    fn for_each(&self, mut f: impl FnMut(usize, &AtomicU64)) {
        for j in 0..SEGS {
            let seg = self.segs[j].load(Ordering::Acquire);
            if seg.is_null() {
                continue;
            }
            let base = if j == 0 { 0 } else { 1 << (j - 1) };
            for off in 0..Self::seg_len(j) {
                // SAFETY: as in `get`.
                f(base + off, unsafe { &*seg.add(off) });
            }
        }
    }

    /// # Safety
    /// `seg` must be segment `j`'s allocation, owned by the caller.
    unsafe fn seg_box(seg: *mut AtomicU64, j: usize) -> Box<[AtomicU64]> {
        unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(seg, Self::seg_len(j))) }
    }
}

impl Drop for Directory {
    fn drop(&mut self) {
        for j in 0..SEGS {
            let seg = *self.segs[j].get_mut();
            if !seg.is_null() {
                // SAFETY: exclusive access; allocated by `get_or_alloc`.
                drop(unsafe { Self::seg_box(seg, j) });
            }
        }
    }
}

/// Split-ordered, detectably recoverable hash map. `ARM` selects the
/// persistency placement exactly as for [`crate::list::RList`] (false =
/// "Isb", true = "Isb-Opt").
///
/// # Example: the detectable recovery flow
///
/// ```
/// use isb::hashmap::RHashMap;
/// use nvm::CountingNvm;
///
/// nvm::tid::set_tid(0);
/// let map: RHashMap<CountingNvm> = RHashMap::with_shards(8);
/// assert!(map.insert(0, 42));
/// assert!(map.delete(0, 42));
///
/// // Crash "just after" the completed delete: recovery returns its
/// // persisted response instead of deleting again (detectability)...
/// assert!(map.recover_delete(0, 42));
/// assert!(!map.find(0, 42));
/// // ...while a process that crashed before *publishing* anything
/// // (here: process 1 never ran an operation) simply re-invokes:
/// assert!(map.recover_insert(1, 42));
/// assert!(map.find(0, 42));
/// ```
///
/// With the mapped backend ([`crate::store::Store::hashmap`]) the same flow
/// runs across an actual process restart: the store's attach replays
/// Op-Recover for every process id and reports the decisions in its
/// [`crate::recovery::AttachSummary`].
pub struct RHashMap<M: Persist, const ARM: u8 = 0> {
    /// The list head: key −∞, bucket 0's sentinel.
    head: *mut Node<M>,
    dir: Directory,
    /// Current bucket count (a power of two); only grows.
    size: CachePadded<AtomicUsize>,
    /// User keys this process saw inserted minus deleted (after an attach:
    /// plus the census). Drives growth only; each process keeps its own.
    count: CachePadded<AtomicIsize>,
    /// Set when this process adopted the map from a live shared heap: its
    /// first operation fills the directory from the list.
    adopting: AtomicBool,
    rec: RecArea<M>,
    // `collector` must drop before `pools` (drop-time drain recycles into
    // the free lists).
    collector: Collector,
    pools: SetPools<M>,
    /// Mapped mode: the persistent heap every node/descriptor lives in.
    /// `Some` suppresses drop-time teardown — the contents *are* the durable
    /// state the next attach recovers.
    mapped: Option<Arc<MappedHeap>>,
}

unsafe impl<M: Persist, const ARM: u8> Send for RHashMap<M, ARM> {}
unsafe impl<M: Persist, const ARM: u8> Sync for RHashMap<M, ARM> {}

impl<M: Persist, const ARM: u8> Default for RHashMap<M, ARM> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist, const ARM: u8> RHashMap<M, ARM> {
    /// New empty map with [`DEFAULT_SHARDS`] buckets and a reclaiming
    /// collector.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// New empty map with `shards` initial buckets (a power of two).
    pub fn with_shards(shards: usize) -> Self {
        Self::with_shards_and_collector(shards, Collector::new())
    }

    /// New empty map with the given collector and [`DEFAULT_SHARDS`]
    /// buckets. Crash-simulation runs pass [`Collector::disabled`] (a crash
    /// must not free memory).
    pub fn with_collector(collector: Collector) -> Self {
        Self::with_shards_and_collector(DEFAULT_SHARDS, collector)
    }

    /// New empty map with `shards` initial buckets (a power of two) and the
    /// given collector.
    pub fn with_shards_and_collector(shards: usize, collector: Collector) -> Self {
        Self::with_shards_and_config(shards, collector, PoolCfg::default())
    }

    /// New empty map with pooling off (the fig9 "boxed" ablation arm).
    pub fn boxed_with_shards(shards: usize) -> Self {
        Self::with_shards_and_config(shards, Collector::new(), PoolCfg::boxed())
    }

    /// New empty map with `shards` initial buckets (a power of two, at most
    /// [`MAX_SHARDS`]), the given collector, and pool configuration.
    pub fn with_shards_and_config(shards: usize, collector: Collector, pool: PoolCfg) -> Self {
        assert!(shards.is_power_of_two(), "shard count must be a power of two, got {shards}");
        assert!(shards <= MAX_SHARDS, "at most {MAX_SHARDS} initial buckets, got {shards}");
        let pools = SetPools::new(pool, &collector);
        let keys = initial_keys(shards);
        let nodes = set_core::new_chain(None, &keys);
        let map = Self::assemble(nodes[0], shards, RecArea::new(), collector, pools, None);
        map.record_sentinels(&keys, &nodes[1..]);
        map
    }

    /// A map over the list at `head` whose directory knows bucket 0 only.
    fn assemble(
        head: *mut Node<M>,
        shards: usize,
        rec: RecArea<M>,
        collector: Collector,
        pools: SetPools<M>,
        mapped: Option<Arc<MappedHeap>>,
    ) -> Self {
        let map = Self {
            head,
            dir: Directory::new(),
            size: CachePadded::new(AtomicUsize::new(shards)),
            count: CachePadded::new(AtomicIsize::new(0)),
            adopting: AtomicBool::new(false),
            rec,
            collector,
            pools,
            mapped,
        };
        map.dir.get_or_alloc(0).store(head as u64, Ordering::Release);
        map
    }

    /// Records the sentinels among freshly built `nodes` (keyed `keys`).
    fn record_sentinels(&self, keys: &[u64], nodes: &[*mut Node<M>]) {
        for (&key, &n) in keys.iter().zip(nodes) {
            if key & 3 == SENTINEL {
                self.dir.get_or_alloc(bucket_of_sentinel(key)).store(n as u64, Ordering::Release);
            }
        }
    }

    /// Current number of buckets.
    pub fn shards(&self) -> usize {
        self.size.load(Ordering::Relaxed)
    }

    /// The map's collector (for diagnostics).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The core view starting at `start` (the head or a sentinel; the start
    /// does not matter for [`SetCore::op_recover`], which only reads the
    /// shared recovery area).
    #[inline]
    fn core_at(&self, start: *mut Node<M>) -> SetCore<'_, M, ARM> {
        // SAFETY: `start` is the head or a permanent sentinel of this map's
        // list; every operation shares the map's recovery area, collector
        // and pools.
        unsafe { SetCore::new(start, &self.rec, &self.collector, &self.pools) }
    }

    /// The bucket of list key `nk` at the current size (every operation's
    /// first step, so it also runs a pending adoption walk).
    #[inline]
    fn bucket_of(&self, nk: u64) -> usize {
        if self.adopting.load(Ordering::Relaxed) {
            self.index_live();
        }
        bitrev62(nk >> 2) as usize & (self.size.load(Ordering::Relaxed) - 1)
    }

    /// Bucket `b`'s sentinel if this process's directory has it, draining a
    /// pending post-attach scrub of its stretch first.
    #[inline]
    fn initialized(&self, b: usize) -> Option<*mut Node<M>> {
        let e = self.dir.get(b)?;
        let v = e.load(Ordering::Acquire);
        if v & SCRUB != 0 {
            self.scrub_region(e, v);
        }
        (v != 0).then_some((v & !SCRUB) as *mut Node<M>)
    }

    /// Fills this process's directory and key count from a walk of the
    /// live list (once, after adopting the map from a live shared heap):
    /// each sentinel that directly follows its guard. Safe against
    /// concurrent peers because sentinels are permanent.
    #[cold]
    fn index_live(&self) {
        if !self.adopting.swap(false, Ordering::AcqRel) {
            return;
        }
        let mut idx = Indexer::default();
        let _g = self.collector.pin();
        // SAFETY: the pin keeps every node reached from the head alive.
        unsafe {
            set_core::for_each_node(self.head, |n, key, _| {
                idx.visit(self, n, key);
            });
        }
        idx.finish(self);
    }

    /// Where a read-only walk for bucket `b` starts: its sentinel, or that
    /// of its nearest initialized ancestor (bucket 0, the head, always is).
    #[inline]
    fn start(&self, mut b: usize) -> *mut Node<M> {
        loop {
            if let Some(s) = self.initialized(b) {
                return s;
            }
            b = parent(b);
        }
    }

    /// Links bucket `b`'s guard and then its sentinel after the parent's
    /// sentinel (initializing the parent first if needed) with tracking-free
    /// inserts, and records the sentinel. Both inserts have completed — the
    /// link is durable — before the directory entry is set.
    #[cold]
    fn init_bucket(&self, pid: usize, b: usize) -> *mut Node<M> {
        let p = parent(b);
        let from = self.initialized(p).unwrap_or_else(|| self.init_bucket(pid, p));
        let core = self.core_at(from);
        core.insert_untracked(pid, guard_key(b));
        let s = core.insert_untracked(pid, sentinel_key(b));
        // A racing initializer found the same permanent sentinel.
        let _ = self.dir.get_or_alloc(b).compare_exchange(
            0,
            s as u64,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        s
    }

    /// Scrubs the stretch of list from the sentinel in entry `e` to the next
    /// sentinel, once per attach (the entry's [`SCRUB`] flag).
    #[cold]
    fn scrub_region(&self, e: &AtomicU64, v: u64) {
        if e.compare_exchange(v, v & !SCRUB, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            self.core_at((v & !SCRUB) as *mut Node<M>)
                .try_scrub_until(|k| k & 3 == SENTINEL && k != set_core::KEY_MAX)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    /// Drains every pending post-attach scrub (quiescent entry points).
    fn drain_pending_scrub(&self) {
        self.dir.for_each(|_, e| {
            let v = e.load(Ordering::Acquire);
            if v & SCRUB != 0 {
                self.scrub_region(e, v);
            }
        });
    }

    /// Inserts `key` (in `[1, MAX_KEY)`); returns `false` iff it was
    /// already present.
    pub fn insert(&self, pid: usize, key: u64) -> bool {
        let nk = user_node_key(key);
        let b = self.bucket_of(nk);
        let from = match self.initialized(b) {
            Some(s) => s,
            None => {
                // The invocation's `CP_q := 0` comes first: a crash inside
                // the initialization must not leave `CP_q = 1` naming the
                // previous operation's descriptor.
                self.rec.mark_invoked(pid);
                self.init_bucket(pid, b)
            }
        };
        let inserted = self.core_at(from).insert(pid, nk);
        if inserted {
            let n = self.count.fetch_add(1, Ordering::Relaxed) + 1;
            let size = self.size.load(Ordering::Relaxed);
            if n > (LOAD * size) as isize && size < MAX_BUCKETS {
                let _ = self.size.compare_exchange(
                    size,
                    size * 2,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
        }
        inserted
    }

    /// Deletes `key`; returns `false` iff it was absent.
    pub fn delete(&self, pid: usize, key: u64) -> bool {
        let nk = user_node_key(key);
        let deleted = self.core_at(self.start(self.bucket_of(nk))).delete(pid, nk);
        if deleted {
            self.count.fetch_sub(1, Ordering::Relaxed);
        }
        deleted
    }

    /// Whether `key` is present.
    pub fn find(&self, pid: usize, key: u64) -> bool {
        let nk = user_node_key(key);
        self.core_at(self.start(self.bucket_of(nk))).find(pid, nk)
    }

    /// `Insert.Recover` (generic Op-Recover on the shared recovery area,
    /// re-invoking with the original key on `Restart`).
    pub fn recover_insert(&self, pid: usize, key: u64) -> bool {
        match self.core_at(self.head).op_recover(pid) {
            Recovered::Completed(v) => v == RES_TRUE,
            Recovered::Restart => self.insert(pid, key),
        }
    }

    /// `Delete.Recover`.
    pub fn recover_delete(&self, pid: usize, key: u64) -> bool {
        match self.core_at(self.head).op_recover(pid) {
            Recovered::Completed(v) => v == RES_TRUE,
            Recovered::Restart => self.delete(pid, key),
        }
    }

    /// `Find.Recover`: finds never set `CP_q = 1`, so recovery always
    /// restarts them.
    pub fn recover_find(&self, pid: usize, key: u64) -> bool {
        match self.core_at(self.head).op_recover(pid) {
            Recovered::Completed(v) => v == RES_TRUE,
            Recovered::Restart => self.find(pid, key),
        }
    }

    /// Completes helping obligations left visible by a crash anywhere in
    /// the list (resurrected tags of completed operations under the tuned
    /// placement); call after every process ran its `recover_*`. See
    /// [`crate::set_core::SetCore::scrub`].
    pub fn scrub(&self) {
        self.try_scrub().unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`RHashMap::scrub`] with the pass budget surfaced as a typed
    /// [`AttachError`] instead of a panic.
    pub fn try_scrub(&self) -> Result<(), AttachError> {
        self.dir.for_each(|_, e| {
            e.fetch_and(!SCRUB, Ordering::AcqRel);
        });
        self.core_at(self.head).try_scrub()
    }

    /// Reachable nodes whose info cell holds a tag: operations in flight,
    /// or the leftovers of a crashed process not yet recovered (diagnostics;
    /// a racy count while operations run).
    pub fn tagged_nodes(&self) -> usize {
        let _g = self.collector.pin();
        let mut n = 0;
        // SAFETY: the pin keeps every node reached from the head alive.
        unsafe {
            set_core::for_each_node(self.head, |_, _, info| n += tag::is_tagged(info) as usize);
        }
        n
    }

    /// Sorted snapshot of the user keys (requires exclusive access ⇒
    /// quiescence).
    pub fn snapshot_keys(&mut self) -> Vec<u64> {
        self.drain_pending_scrub();
        let mut out = Vec::new();
        // SAFETY: exclusive access.
        unsafe {
            set_core::for_each_node(self.head, |_, key, _| {
                if key != set_core::KEY_MAX && key & 3 == USER {
                    out.push(user_key_of(key));
                }
            });
        }
        out.sort_unstable();
        out
    }

    /// Structural invariants of the list (sorted, untagged when quiescent)
    /// and of the directory: bucket 0 is the head, and every other entry
    /// is a reachable sentinel of its bucket whose guard precedes it.
    /// Panics on violation.
    pub fn check_invariants(&mut self) {
        self.drain_pending_scrub();
        self.core_at(self.head).check_invariants();
        let mut pos: AddrMap<(u64, u64)> = AddrMap::default(); // node → (key, prev key)
        let mut prev = 0;
        // SAFETY: exclusive access.
        unsafe {
            set_core::for_each_node(self.head, |n, key, _| {
                pos.insert(n as usize, (key, prev));
                prev = key;
            });
        }
        self.dir.for_each(|b, e| {
            let v = e.load(Ordering::Acquire);
            assert_eq!(v & SCRUB, 0, "bucket {b}: scrub still pending");
            if v == 0 {
                return;
            }
            if b == 0 {
                assert_eq!(v, self.head as u64, "bucket 0 must be the head");
                return;
            }
            let Some(&(key, before)) = pos.get(&(v as usize)) else {
                panic!("bucket {b}: directory sentinel {v:#x} is not reachable");
            };
            assert_eq!(key, sentinel_key(b), "bucket {b}: entry is not its sentinel");
            assert_eq!(before, key - 1, "bucket {b}: sentinel not preceded by its guard");
        });
    }
}

impl<const ARM: u8> RHashMap<MappedNvm, ARM> {
    /// The persistent heap backing this map.
    pub fn heap(&self) -> &Arc<MappedHeap> {
        self.mapped.as_ref().expect("mapped-mode map")
    }

    /// Whole-node span check against the backing heap.
    fn in_node(&self, a: u64) -> bool {
        let heap = self.heap();
        a & 7 == 0 && heap.contains_span(a as usize, std::mem::size_of::<Node<MappedNvm>>())
    }
}

impl<const ARM: u8> MappedLayout for RHashMap<MappedNvm, ARM> {
    const KIND: u64 = KIND_MAP;
    const KIND_NAME: &'static str = "hashmap";
    type Cfg = usize; // initial bucket count

    fn validate_cfg(shards: usize) -> Result<(), AttachError> {
        if shards.is_power_of_two() && shards <= MAX_SHARDS {
            Ok(())
        } else {
            Err(AttachError::InvalidCfg {
                kind: Self::KIND_NAME,
                reason: format!(
                    "shard count must be a power of two of at most {MAX_SHARDS}, got {shards}"
                ),
            })
        }
    }

    fn cfg_word(shards: usize) -> u64 {
        shards as u64 | (ARM as u64) << 32
    }

    fn root_bytes(_shards: usize) -> usize {
        8 // the list head's address
    }

    fn open(env: &AttachEnv, shards: usize, root: *mut u8) -> Result<Self, AttachError> {
        assert!(shards.is_power_of_two(), "shard count must be a power of two, got {shards}");
        let collector = env.collector();
        let pools = SetPools::with_shared_info(env.info_pool(), env.pool_cfg(), &collector);
        let heap = Some(Arc::clone(&env.heap));
        let head_w = root as *mut u64;
        // SAFETY: committed one-word root block, single-threaded.
        let existing = unsafe { head_w.read() };
        if existing != 0 {
            // The rest of the directory waits for the census walk, which
            // runs only after the image has been validated — or, when a
            // process adopts a live peer's map, for its first operation
            // (`adopt_live`).
            let head = existing as *mut Node<MappedNvm>;
            return Ok(Self::assemble(head, shards, env.rec_area(), collector, pools, heap));
        }
        // A private chain, linked into the root in one word: a kill before
        // the write leaves the root empty and the next open builds it again.
        let keys = initial_keys(shards);
        let nodes = set_core::new_chain(Some(&pools), &keys);
        unsafe { head_w.write(nodes[0] as u64) };
        let map = Self::assemble(nodes[0], shards, env.rec_area(), collector, pools, heap);
        map.record_sentinels(&keys, &nodes[1..]);
        Ok(map)
    }
}

impl<const ARM: u8> SlotOps for RHashMap<MappedNvm, ARM> {
    fn validate_image(&self, infos: &mut AddrSet<u64>) -> Result<(), MapError> {
        let max_nodes = self.heap().bump_granules() + 4;
        // SAFETY: `in_node` guarantees whole-node spans inside the mapping
        // for every dereference.
        unsafe { set_core::validate_bucket(self.head, &|a| self.in_node(a), max_nodes, infos) }
            .map_err(|addr| MapError::CorruptPointer { addr })
    }

    fn valid_install(&self, addr: u64) -> bool {
        self.in_node(addr)
    }

    fn try_scrub(&self) -> Result<(), AttachError> {
        // Deferred: the census below flags each bucket whose stretch holds
        // a tagged node, and the first operation starting there scrubs just
        // that stretch. Sound because (a) runtime operations help any
        // tagged descriptor they encounter — the eager pass is the same
        // idempotent helping, merely batched — and (b) the census counts
        // descriptor references through *tagged* cells too (`census_node`
        // untags before counting), so a descriptor kept alive only by an
        // unscrubbed tag survives the sweep.
        Ok(())
    }

    unsafe fn census(&self, live: &mut AddrSet, info_refs: &mut AddrMap<u32>) {
        let mut idx = Indexer::default();
        // SAFETY: quiescent exclusive access over a validated image (caller).
        unsafe {
            set_core::for_each_node(self.head, |n, key, info| {
                set_core::census_node(n, info, live, info_refs);
                let region = idx.visit(self, n, key);
                if tag::is_tagged(info) {
                    self.dir.get_or_alloc(region).fetch_or(SCRUB, Ordering::AcqRel);
                }
            });
        }
        idx.finish(self);
    }

    fn adopt_live(&self) {
        self.adopting.store(true, Ordering::Release);
    }

    fn each_cached(&mut self, f: &mut dyn FnMut(usize)) {
        self.pools.node.each_idle(|p| f(p as usize));
        self.pools.info.each_idle(|p| f(p as usize));
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any + Send + Sync> {
        self
    }
}

/// Rebuilds a map's directory and key count from a walk of its list in
/// list order (the attach census, or a live walk when a process adopts a
/// map a peer created).
#[derive(Default)]
struct Indexer {
    users: isize,
    top: usize,
    region: usize,
    prev: u64,
}

impl Indexer {
    /// Visits the next node; a sentinel that directly follows its guard
    /// enters the directory. Returns the bucket whose stretch holds the node.
    fn visit<M: Persist, const ARM: u8>(
        &mut self,
        map: &RHashMap<M, ARM>,
        n: *mut Node<M>,
        key: u64,
    ) -> usize {
        if key != set_core::KEY_MAX && key & 3 == SENTINEL && self.prev == key - 1 {
            self.region = bucket_of_sentinel(key);
            self.top = self.top.max(self.region);
            map.dir.get_or_alloc(self.region).store(n as u64, Ordering::Release);
        } else if key != set_core::KEY_MAX && key & 3 == USER {
            self.users += 1;
        }
        self.prev = key;
        self.region
    }

    /// Sets the key count and a bucket count that covers every sentinel
    /// seen and keeps at most 32 keys per bucket.
    fn finish<M: Persist, const ARM: u8>(self, map: &RHashMap<M, ARM>) {
        map.count.store(self.users, Ordering::Relaxed);
        let mut size = map.shards().max((self.top + 1).next_power_of_two());
        while self.users > (LOAD * size) as isize && size < MAX_BUCKETS {
            size *= 2;
        }
        map.size.store(size, Ordering::Relaxed);
    }
}

impl<M: Persist, const ARM: u8> RHashMap<M, ARM> {
    /// The *system* half of an invocation (`CP_q := 0`, persisted). Callers
    /// that journal their own intent records around the map (write-ahead
    /// logs driving a mapped heap) must call this **before** writing the
    /// intent record — see [`RecArea::mark_invoked`] for the crash-window
    /// argument. Plain in-process use never needs it: every operation's own
    /// prologue re-runs it.
    pub fn note_invocation(&self, pid: usize) {
        self.rec.mark_invoked(pid);
    }
}

impl<M: Persist, const ARM: u8> Drop for RHashMap<M, ARM> {
    fn drop(&mut self) {
        if self.mapped.is_some() {
            // Mapped mode: the arena contents are the durable state; the
            // pools return their caches to the persistent free list when
            // they drop, and everything else stays for the next attach.
            return;
        }
        // Quiescent teardown, as for `RList`: free the deduplicated union of
        // {reachable} ∪ {parked} ∪ {published descriptors} exactly once.
        let mut grave: set_core::Grave =
            self.collector.take_parked().into_iter().map(|(p, f)| (p as usize, f)).collect();
        self.rec.each_published(|rd| set_core::grave_published_info::<M>(&mut grave, rd));
        unsafe {
            set_core::grave_scan_bucket(self.head, &mut grave);
            set_core::free_grave(grave);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::CountingNvm;
    use std::sync::Arc;

    type H = RHashMap<CountingNvm, 0>;
    type HOpt = RHashMap<CountingNvm, 1>;

    #[test]
    fn sequential_set_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let map = H::new();
        assert!(!map.find(0, 5));
        assert!(map.insert(0, 5));
        assert!(map.find(0, 5));
        assert!(!map.insert(0, 5), "duplicate insert");
        assert!(map.insert(0, 3));
        assert!(map.insert(0, 9));
        assert!(map.delete(0, 5));
        assert!(!map.delete(0, 5), "double delete");
        assert!(!map.find(0, 5));
        assert!(map.find(0, 3) && map.find(0, 9));
    }

    #[test]
    fn shard_routing_is_total_and_stable() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        for shards in [1usize, 2, 8, 64] {
            let map: RHashMap<CountingNvm> = RHashMap::with_shards(shards);
            let mut hit = vec![false; shards];
            for k in 1..=4096u64 {
                let nk = user_node_key(k);
                let b = map.bucket_of(nk);
                assert!(b < shards);
                assert_eq!(b, map.bucket_of(nk), "routing must be deterministic");
                // Every key sorts after its bucket's sentinel and before the
                // sentinel of the next bucket at any larger size.
                assert!(b == 0 || nk > sentinel_key(b));
                hit[b] = true;
            }
            // The scramble must actually spread a dense key range.
            assert!(hit.iter().all(|&h| h), "{shards} buckets: some bucket never hit");
        }
    }

    #[test]
    fn key_encoding_round_trips_and_orders_buckets() {
        for k in (1..=5000u64).chain([MAX_KEY - 1, MAX_KEY / 2, 1 << 40]) {
            let nk = user_node_key(k);
            assert_eq!(nk & 3, USER);
            assert_eq!(user_key_of(nk), k, "key {k} must decode from its node key");
        }
        for b in 1..1024usize {
            let s = sentinel_key(b);
            assert_eq!(bucket_of_sentinel(s), b);
            assert!(sentinel_key(parent(b)) < s || parent(b) == 0);
            // No user key fits between a guard and its sentinel.
            assert_eq!(guard_key(b), s - 1);
        }
    }

    #[test]
    #[should_panic(expected = "key must be in [1, 2^62)")]
    fn out_of_range_key_rejected() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let map = H::with_shards(2);
        map.insert(0, MAX_KEY);
    }

    #[test]
    fn directory_grows_and_walks_stay_short() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut map = H::with_shards(1);
        let n = 20_000u64;
        for k in 1..=n {
            assert!(map.insert(0, k));
        }
        // 32 keys per bucket at most, once the directory caught up.
        assert!(map.shards() >= (n as usize).div_ceil(LOAD), "{} buckets", map.shards());
        assert!(map.shards() <= 2 * (n as usize).div_ceil(LOAD), "{} buckets", map.shards());
        for k in 1..=n {
            assert!(map.find(0, k), "key {k}");
        }
        assert!(!map.find(0, n + 1));
        map.check_invariants();
        assert_eq!(map.snapshot_keys(), (1..=n).collect::<Vec<_>>());
    }

    #[test]
    fn adopted_map_fills_its_directory_on_first_use() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut map = H::with_shards(1);
        for k in 1..=5000u64 {
            assert!(map.insert(0, k));
        }
        let size = map.shards();
        let known = |map: &H| {
            let mut n = 0;
            map.dir.for_each(|_, e| n += (e.load(Ordering::Relaxed) != 0) as usize);
            n
        };
        let before = known(&map);
        // What a process adopting this list from a live peer starts with:
        // bucket 0 only, the initial size, no keys counted.
        map.dir = Directory::new();
        map.dir.get_or_alloc(0).store(map.head as u64, Ordering::Release);
        map.size.store(1, Ordering::Relaxed);
        map.count.store(0, Ordering::Relaxed);
        map.adopting.store(true, Ordering::Relaxed);
        assert!(map.find(0, 4242));
        assert_eq!(map.shards(), size, "the walk restores the bucket count");
        assert_eq!(map.count.load(Ordering::Relaxed), 5000);
        assert_eq!(known(&map), before, "every sentinel in the list is in the directory");
        map.check_invariants();
    }

    #[test]
    fn bucket_initialization_leaves_the_recovery_record_alone() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let map = H::with_shards(1);
        for k in 1..=33u64 {
            assert!(map.insert(0, k));
        }
        assert_eq!(map.shards(), 2);
        // The next insert routed to bucket 1 initializes it: its two
        // structural inserts run untracked, so recovery of the user insert
        // still reports that insert's own response.
        let k = (100..).find(|&k| map.bucket_of(user_node_key(k)) == 1).unwrap();
        assert!(map.dir.get(1).is_none_or(|e| e.load(Ordering::Relaxed) == 0));
        assert!(map.insert(0, k));
        assert!(map.dir.get(1).unwrap().load(Ordering::Relaxed) != 0);
        assert!(map.recover_insert(0, k), "recovery must return the user insert's response");
        assert!(!map.insert(0, k));
    }
    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = RHashMap::<CountingNvm>::with_shards(12);
    }

    #[test]
    fn mixed_random_ops_match_model_across_shard_counts() {
        use rand::{Rng, SeedableRng};
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        for shards in [1usize, 4, 32] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(42 + shards as u64);
            let mut map: RHashMap<CountingNvm> = RHashMap::with_shards(shards);
            let mut model = std::collections::BTreeSet::new();
            for _ in 0..3000 {
                let k = rng.gen_range(1..128u64);
                match rng.gen_range(0..3) {
                    0 => assert_eq!(map.insert(0, k), model.insert(k), "insert {k}"),
                    1 => assert_eq!(map.delete(0, k), model.remove(&k), "delete {k}"),
                    _ => assert_eq!(map.find(0, k), model.contains(&k), "find {k}"),
                }
            }
            assert_eq!(map.snapshot_keys(), model.iter().copied().collect::<Vec<_>>());
            map.check_invariants();
        }
    }

    #[test]
    fn tuned_variant_same_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut map = HOpt::with_shards(8);
        for k in 1..=200u64 {
            assert!(map.insert(0, k));
        }
        for k in (1..=200u64).step_by(2) {
            assert!(map.delete(0, k));
        }
        for k in 1..=200u64 {
            assert_eq!(map.find(0, k), k % 2 == 0);
        }
        map.check_invariants();
        assert_eq!(map.snapshot_keys().len(), 100);
    }

    #[test]
    fn no_leaks_after_drop() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let nodes0 = crate::counters::live_nodes();
        let infos0 = crate::counters::live_infos();
        {
            let mut map = H::with_shards(8);
            for k in 1..=400u64 {
                map.insert(0, k);
            }
            for k in 1..=400u64 {
                map.delete(0, k);
            }
            for k in 1..=100u64 {
                map.insert(0, k);
                map.find(0, k);
            }
            map.check_invariants();
        }
        assert_eq!(crate::counters::live_nodes(), nodes0, "node leak/double-free");
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    #[test]
    fn concurrent_disjoint_inserts_all_succeed() {
        let _gate = crate::counters::gate_shared();
        let map = Arc::new(H::with_shards(16));
        let nthreads = 4u64;
        let per = 300u64;
        let hs: Vec<_> = (0..nthreads)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(t as usize);
                    for i in 0..per {
                        assert!(map.insert(t as usize, 1 + t + i * nthreads));
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let mut map = Arc::into_inner(map).unwrap();
        assert_eq!(map.snapshot_keys().len(), (nthreads * per) as usize);
        map.check_invariants();
    }

    #[test]
    fn concurrent_churn_no_leaks() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let nodes0 = crate::counters::live_nodes();
        let infos0 = crate::counters::live_infos();
        {
            // One initial bucket and a key range that crosses the growth
            // threshold several times, so buckets initialize under churn.
            let map = Arc::new(H::with_shards(1));
            let hs: Vec<_> = (0..4)
                .map(|t| {
                    let map = Arc::clone(&map);
                    std::thread::spawn(move || {
                        use rand::{Rng, SeedableRng};
                        nvm::tid::set_tid(t);
                        let mut rng = rand::rngs::StdRng::seed_from_u64(900 + t as u64);
                        for _ in 0..3000 {
                            let k = rng.gen_range(1..400u64);
                            if rng.gen_bool(0.6) {
                                map.insert(t, k);
                            } else {
                                map.delete(t, k);
                            }
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            let mut map = Arc::into_inner(map).unwrap();
            assert!(map.shards() > 1, "the directory never grew");
            // Every directory entry is a reachable, untagged sentinel right
            // after its guard: no sentinel was ever copy-replaced or deleted.
            map.check_invariants();
            drop(map);
        }
        assert_eq!(crate::counters::live_nodes(), nodes0, "node leak/double-free");
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    #[test]
    fn recovery_without_crash_restarts_cleanly() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let map = H::with_shards(8);
        assert!(map.recover_insert(0, 10));
        assert!(map.find(0, 10));
        assert!(map.recover_delete(0, 10));
        assert!(!map.find(0, 10));
        assert!(!map.recover_find(0, 10));
    }

    fn tmp_heap(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!(
            "isb_hm_{}_{}_{name}.heap",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn mapped_attach_preserves_contents_across_detach() {
        use crate::store::Store;
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp_heap("roundtrip");
        {
            let store = Store::open_sized(&path, 1 << 21).unwrap();
            assert!(store.summary().heap.created);
            let map = store.hashmap::<0>("map", 8).unwrap();
            for k in 1..=200u64 {
                assert!(map.insert(0, k));
            }
            for k in (1..=200u64).step_by(3) {
                assert!(map.delete(0, k));
            }
        }
        {
            let store = Store::open_sized(&path, 1 << 21).unwrap();
            assert!(!store.summary().heap.created);
            assert_eq!(store.summary().heap.poisoned, 0, "clean detach leaves no torn blocks");
            let map = store.hashmap::<0>("map", 8).unwrap();
            drop(store);
            let mut map = Arc::into_inner(map).unwrap();
            for k in 1..=200u64 {
                assert_eq!(map.find(0, k), k % 3 != 1, "key {k} after re-attach");
            }
            map.check_invariants();
            // The recovered map stays fully operational.
            assert!(map.insert(0, 1000));
            assert!(map.delete(0, 2));
        }
        {
            let store = Store::open_sized(&path, 1 << 21).unwrap();
            let map = store.hashmap::<0>("map", 8).unwrap();
            drop(store);
            let mut map = Arc::into_inner(map).unwrap();
            assert!(map.find(0, 1000));
            assert!(!map.find(0, 2));
            map.check_invariants();
        }
        let _ = std::fs::remove_file(&path);
    }
}
