//! Detectably recoverable sorted linked list (paper Section 4,
//! Algorithms 3–5), obtained by applying ROpt-ISB (Algorithm 2).
//!
//! `RList` is the one-bucket instantiation of the head-parameterized
//! ordered-set core in [`crate::set_core`]: it owns a single bucket head,
//! its recovery area and its collector, and delegates every operation to
//! [`SetCore`] with exactly the same persistency placement the pre-extraction
//! list had (asserted bit-for-bit by the `persist_placement` regression
//! test). The algorithm documentation lives in [`crate::set_core`]; the
//! split-ordered instantiation, whose operations start at bucket sentinels,
//! is [`crate::hashmap::RHashMap`].

use crate::engine::RES_TRUE;
use crate::pool::PoolCfg;
use crate::recovery::{AttachEnv, AttachError, MappedLayout, RecArea, Recovered, SlotOps};
use crate::set_core::{self, SetCore, SetPools};
use nvm::addr_hash::{AddrMap, AddrSet};
use nvm::mapped::{MapError, MappedHeap, MappedNvm};
use nvm::Persist;
use reclaim::Collector;
use std::sync::Arc;

pub use crate::set_core::{Node, KEY_MAX, KEY_MIN};

/// Store catalog-entry kind tag of a mapped `RList`.
pub const KIND_LIST: u64 = 3;

/// Detectably recoverable sorted linked list. `ARM = false` is the paper's
/// general persistency placement ("Isb"); `ARM = true` is the hand-tuned
/// one ("Isb-Opt").
///
/// # Example: the detectable recovery flow
///
/// After a crash, `recover_*` answers "did my interrupted operation take
/// effect?" from the per-process recovery data — returning the operation's
/// original response without re-applying it:
///
/// ```
/// use isb::list::RList;
/// use nvm::CountingNvm;
///
/// nvm::tid::set_tid(0); // register this thread as process 0
/// let list: RList<CountingNvm> = RList::new();
/// assert!(list.insert(0, 7));
///
/// // Suppose the crash hit after the insert took effect but before the
/// // caller saw the response. Recovery returns the SAME response...
/// assert!(list.recover_insert(0, 7));
/// // ...and did not apply the insert twice:
/// assert!(list.delete(0, 7));
/// // The completed delete's response is likewise recoverable, exactly once:
/// assert!(list.recover_delete(0, 7));
/// assert!(!list.find(0, 7));
/// ```
pub struct RList<M: Persist, const ARM: u8 = 0> {
    head: *mut Node<M>,
    rec: RecArea<M>,
    // `collector` must drop before `pools`: pending garbage recycles into
    // the pools' free lists when the collector drains on drop.
    collector: Collector,
    pools: SetPools<M>,
    /// Mapped mode: the persistent heap everything lives in (`Some`
    /// suppresses drop-time teardown — the arena is the durable state).
    mapped: Option<Arc<MappedHeap>>,
}

unsafe impl<M: Persist, const ARM: u8> Send for RList<M, ARM> {}
unsafe impl<M: Persist, const ARM: u8> Sync for RList<M, ARM> {}

impl<M: Persist, const ARM: u8> Default for RList<M, ARM> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist, const ARM: u8> RList<M, ARM> {
    /// New empty list with a reclaiming collector and pooled allocation.
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// New empty list with pooling off: every descriptor/node is a fresh
    /// heap allocation, as pre-pool builds behaved. The fig9 ablation and
    /// the persist-placement goldens run this side by side with [`RList::new`].
    pub fn boxed() -> Self {
        Self::with_config(Collector::new(), PoolCfg::boxed())
    }

    /// New empty list with the given collector. Crash-simulation runs pass
    /// [`Collector::disabled`] (a crash must not free memory; pooling
    /// drops to passthrough mode automatically).
    pub fn with_collector(collector: Collector) -> Self {
        Self::with_config(collector, PoolCfg::default())
    }

    /// New empty list with the given collector and pool configuration.
    pub fn with_config(collector: Collector, pool: PoolCfg) -> Self {
        let pools = SetPools::new(pool, &collector);
        Self {
            head: set_core::new_chain(None, &[])[0],
            rec: RecArea::new(),
            collector,
            pools,
            mapped: None,
        }
    }

    /// The list's collector (for diagnostics).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The core view over the list's single bucket.
    #[inline]
    fn core(&self) -> SetCore<'_, M, ARM> {
        // SAFETY: `head` is this list's live bucket; `rec`/`collector`/
        // `pools` are the area, collector and pools every operation on it
        // goes through (pools declared after the collector, so they outlive
        // its drop-time drain).
        unsafe { SetCore::new(self.head, &self.rec, &self.collector, &self.pools) }
    }

    /// Inserts `key`; returns `false` iff it was already present.
    /// (Algorithm 3, `Insert`.)
    pub fn insert(&self, pid: usize, key: u64) -> bool {
        self.core().insert(pid, key)
    }

    /// Deletes `key`; returns `false` iff it was absent. (Algorithm 5.)
    pub fn delete(&self, pid: usize, key: u64) -> bool {
        self.core().delete(pid, key)
    }

    /// Whether `key` is present. (Algorithm 3, `Find`.)
    pub fn find(&self, pid: usize, key: u64) -> bool {
        self.core().find(pid, key)
    }

    /// `Insert.Recover` (Op-Recover with the insert's arguments).
    pub fn recover_insert(&self, pid: usize, key: u64) -> bool {
        match self.core().op_recover(pid) {
            Recovered::Completed(v) => v == RES_TRUE,
            Recovered::Restart => self.insert(pid, key),
        }
    }

    /// `Delete.Recover`.
    pub fn recover_delete(&self, pid: usize, key: u64) -> bool {
        match self.core().op_recover(pid) {
            Recovered::Completed(v) => v == RES_TRUE,
            Recovered::Restart => self.delete(pid, key),
        }
    }

    /// `Find.Recover`: finds never set `CP_q = 1`, so recovery always
    /// restarts them (restart-safe by read-onlyness).
    pub fn recover_find(&self, pid: usize, key: u64) -> bool {
        match self.core().op_recover(pid) {
            Recovered::Completed(v) => v == RES_TRUE,
            Recovered::Restart => self.find(pid, key),
        }
    }

    /// Completes helping obligations left visible by a crash (resurrected
    /// tags of completed operations under the tuned placement); call after
    /// every process ran its `recover_*`. See [`SetCore::scrub`].
    pub fn scrub(&self) {
        self.core().scrub();
    }

    /// [`RList::scrub`] with the pass budget surfaced as a typed
    /// [`AttachError`] instead of a panic (the mapped attach path).
    pub fn try_scrub(&self) -> Result<(), AttachError> {
        self.core().try_scrub()
    }

    /// Snapshot of the user keys (requires exclusive access ⇒ quiescence).
    pub fn snapshot_keys(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        self.core().snapshot_keys_into(&mut out);
        out
    }

    /// Structural invariants: strictly sorted keys, intact sentinels, no
    /// reachable node is tagged (quiescent list). Panics on violation.
    pub fn check_invariants(&mut self) {
        self.core().check_invariants();
    }
}

impl<const ARM: u8> RList<MappedNvm, ARM> {
    /// The persistent heap backing this list.
    pub fn heap(&self) -> &Arc<MappedHeap> {
        self.mapped.as_ref().expect("mapped-mode list")
    }

    /// Whole-node span check against the backing heap.
    fn in_node(&self, a: u64) -> bool {
        let heap = self.heap();
        a & 7 == 0 && heap.contains_span(a as usize, std::mem::size_of::<Node<MappedNvm>>())
    }
}

impl<const ARM: u8> MappedLayout for RList<MappedNvm, ARM> {
    const KIND: u64 = KIND_LIST;
    const KIND_NAME: &'static str = "list";
    type Cfg = ();

    fn cfg_word(_cfg: ()) -> u64 {
        0x4C | (ARM as u64) << 32
    }

    fn root_bytes(_cfg: ()) -> usize {
        8 // the bucket head's address
    }

    fn open(env: &AttachEnv, _cfg: (), root_blk: *mut u8) -> Result<Self, AttachError> {
        let collector = env.collector();
        let pools = SetPools::with_shared_info(env.info_pool(), env.pool_cfg(), &collector);
        let root_w = root_blk as *mut u64;
        // SAFETY: committed 8-byte root block, single-threaded attach.
        let head = unsafe {
            if root_w.read() == 0 {
                let b = set_core::new_chain(Some(&pools), &[])[0];
                root_w.write(b as u64);
                nvm::mapped::MappedNvm::pbarrier(&*(root_w as *const nvm::PWord<MappedNvm>));
                b
            } else {
                root_w.read() as *mut Node<MappedNvm>
            }
        };
        Ok(Self {
            head,
            rec: env.rec_area(),
            collector,
            pools,
            mapped: Some(Arc::clone(&env.heap)),
        })
    }
}

impl<const ARM: u8> SlotOps for RList<MappedNvm, ARM> {
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
        RList::try_scrub(self)
    }

    unsafe fn census(&self, live: &mut AddrSet, info_refs: &mut AddrMap<u32>) {
        // SAFETY: quiescent exclusive access post-scrub (caller).
        unsafe { set_core::census_bucket(self.head, live, info_refs) };
    }

    fn each_cached(&mut self, f: &mut dyn FnMut(usize)) {
        self.pools.node.each_idle(|p| f(p as usize));
        self.pools.info.each_idle(|p| f(p as usize));
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any + Send + Sync> {
        self
    }
}

impl<M: Persist, const ARM: u8> Drop for RList<M, ARM> {
    fn drop(&mut self) {
        if self.mapped.is_some() {
            // Mapped mode: the arena is the durable state; pools return
            // their caches to the persistent free list on drop.
            return;
        }
        // Quiescent teardown. After a simulated crash the NVM image may have
        // rolled pointers back, making *retired* (parked) nodes reachable
        // again — so the reachable scan and the collector's parked bag can
        // overlap. Free the union exactly once, deduplicated by address.
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

    type L = RList<CountingNvm, 0>;
    type LOpt = RList<CountingNvm, 1>;

    #[test]
    fn sequential_set_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let list = L::new();
        assert!(!list.find(0, 5));
        assert!(list.insert(0, 5));
        assert!(list.find(0, 5));
        assert!(!list.insert(0, 5), "duplicate insert");
        assert!(list.insert(0, 3));
        assert!(list.insert(0, 9));
        assert!(list.delete(0, 5));
        assert!(!list.delete(0, 5), "double delete");
        assert!(!list.find(0, 5));
        assert!(list.find(0, 3) && list.find(0, 9));
    }

    #[test]
    fn snapshot_is_sorted() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut list = L::new();
        for k in [7u64, 3, 11, 1, 5] {
            assert!(list.insert(0, k));
        }
        assert_eq!(list.snapshot_keys(), vec![1, 3, 5, 7, 11]);
        list.check_invariants();
    }

    #[test]
    fn tuned_variant_same_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut list = LOpt::new();
        for k in 1..=50u64 {
            assert!(list.insert(0, k));
        }
        for k in (1..=50u64).step_by(2) {
            assert!(list.delete(0, k));
        }
        for k in 1..=50u64 {
            assert_eq!(list.find(0, k), k % 2 == 0);
        }
        list.check_invariants();
        assert_eq!(list.snapshot_keys().len(), 25);
    }

    #[test]
    fn insert_before_tail_copy_replaces_sentinel() {
        // Ascending inserts always hit curr = the +∞ node, exercising the
        // copy-replacement of the tail sentinel on every operation.
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut list = L::new();
        for k in 1..=100u64 {
            assert!(list.insert(0, k));
        }
        assert_eq!(list.snapshot_keys(), (1..=100).collect::<Vec<_>>());
        list.check_invariants();
    }

    #[test]
    fn mixed_random_ops_match_btreeset() {
        use rand::{Rng, SeedableRng};
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut list = L::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..3000 {
            let k = rng.gen_range(1..64u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(list.insert(0, k), model.insert(k), "insert {k}"),
                1 => assert_eq!(list.delete(0, k), model.remove(&k), "delete {k}"),
                _ => assert_eq!(list.find(0, k), model.contains(&k), "find {k}"),
            }
        }
        assert_eq!(list.snapshot_keys(), model.iter().copied().collect::<Vec<_>>());
        list.check_invariants();
    }

    #[test]
    fn no_leaks_after_drop() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let nodes0 = crate::counters::live_nodes();
        let infos0 = crate::counters::live_infos();
        {
            let mut list = L::new();
            for k in 1..=200u64 {
                list.insert(0, k);
            }
            for k in 1..=200u64 {
                list.delete(0, k);
            }
            for k in 1..=50u64 {
                list.insert(0, k);
                list.find(0, k);
            }
            list.check_invariants();
        }
        assert_eq!(crate::counters::live_nodes(), nodes0, "node leak/double-free");
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    #[test]
    fn concurrent_disjoint_inserts_all_succeed() {
        let _gate = crate::counters::gate_shared();
        let list = Arc::new(L::new());
        let nthreads = 4u64;
        let per = 200u64;
        let hs: Vec<_> = (0..nthreads)
            .map(|t| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(t as usize);
                    for i in 0..per {
                        assert!(list.insert(t as usize, 1 + t + i * nthreads));
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let mut list = Arc::into_inner(list).unwrap();
        assert_eq!(list.snapshot_keys().len(), (nthreads * per) as usize);
        list.check_invariants();
    }

    #[test]
    fn concurrent_same_key_contention_one_winner() {
        // All threads fight over each key; exactly one insert wins per key.
        let _gate = crate::counters::gate_shared();
        let list = Arc::new(L::new());
        let rounds = 100u64;
        let nthreads = 4;
        use std::sync::atomic::{AtomicU64, Ordering};
        let wins = Arc::new(AtomicU64::new(0));
        let hs: Vec<_> = (0..nthreads)
            .map(|t| {
                let list = Arc::clone(&list);
                let wins = Arc::clone(&wins);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(t);
                    for r in 0..rounds {
                        if list.insert(t, 1 + r) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::Relaxed), rounds, "exactly one winner per key");
        let mut list = Arc::into_inner(list).unwrap();
        assert_eq!(list.snapshot_keys().len(), rounds as usize);
        list.check_invariants();
    }

    #[test]
    fn concurrent_insert_delete_churn_keeps_invariants() {
        use rand::{Rng, SeedableRng};
        let _gate = crate::counters::gate_shared();
        let list = Arc::new(L::new());
        let hs: Vec<_> = (0..4)
            .map(|t| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(t);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(t as u64);
                    for _ in 0..2000 {
                        let k = rng.gen_range(1..32u64);
                        match rng.gen_range(0..3) {
                            0 => {
                                list.insert(t, k);
                            }
                            1 => {
                                list.delete(t, k);
                            }
                            _ => {
                                list.find(t, k);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let mut list = Arc::into_inner(list).unwrap();
        list.check_invariants();
    }

    #[test]
    fn concurrent_churn_no_leaks() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let nodes0 = crate::counters::live_nodes();
        let infos0 = crate::counters::live_infos();
        {
            let list = Arc::new(L::new());
            let hs: Vec<_> = (0..4)
                .map(|t| {
                    let list = Arc::clone(&list);
                    std::thread::spawn(move || {
                        use rand::{Rng, SeedableRng};
                        nvm::tid::set_tid(t);
                        let mut rng = rand::rngs::StdRng::seed_from_u64(100 + t as u64);
                        for _ in 0..1500 {
                            let k = rng.gen_range(1..24u64);
                            if rng.gen_bool(0.5) {
                                list.insert(t, k);
                            } else {
                                list.delete(t, k);
                            }
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            drop(Arc::into_inner(list).unwrap());
        }
        assert_eq!(crate::counters::live_nodes(), nodes0, "node leak/double-free");
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    #[test]
    fn recovery_without_crash_restarts_cleanly() {
        // recover_* on a fresh process id behaves like a plain invocation.
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let list = L::new();
        assert!(list.recover_insert(0, 10));
        assert!(list.find(0, 10));
        assert!(list.recover_delete(0, 10));
        assert!(!list.find(0, 10));
        assert!(!list.recover_find(0, 10));
    }

    #[test]
    fn mapped_attach_list_preserves_contents_across_detach() {
        use crate::store::Store;
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = std::env::temp_dir().join(format!(
            "isb_list_{}_{}.heap",
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
            let list = store.list::<0>("list").unwrap();
            for k in 1..=120u64 {
                assert!(list.insert(0, k));
            }
            for k in (1..=120u64).step_by(3) {
                assert!(list.delete(0, k));
            }
        }
        {
            let store = Store::open_sized(&path, 1 << 21).unwrap();
            assert!(!store.summary().heap.created);
            assert_eq!(store.summary().heap.poisoned, 0, "clean detach leaves no torn blocks");
            let list = store.list::<0>("list").unwrap();
            drop(store);
            let mut list = Arc::into_inner(list).unwrap();
            for k in 1..=120u64 {
                assert_eq!(list.find(0, k), k % 3 != 1, "key {k} after re-attach");
            }
            list.check_invariants();
            assert!(list.insert(0, 1000));
            assert!(list.delete(0, 2));
        }
        {
            let store = Store::open_sized(&path, 1 << 21).unwrap();
            let list = store.list::<0>("list").unwrap();
            drop(store);
            let mut list = Arc::into_inner(list).unwrap();
            assert!(list.find(0, 1000));
            assert!(!list.find(0, 2));
            list.check_invariants();
        }
        let _ = std::fs::remove_file(&path);
    }
}
