//! Per-thread, epoch-recycled object pools for Info descriptors and nodes.
//!
//! The paper assumes a garbage collector, so its pseudocode allocates a fresh
//! Info per attempt and fresh nodes per operation. A faithful port pays
//! malloc/free on every hot-path operation — measurably more than the CASes
//! and pwbs the paper studies. This module removes that churn without
//! touching the persistency placement:
//!
//! * A [`Pool`] keeps one free list of recycled allocations per process
//!   (tid), padded like the reclamation slots; `take`/`give` touch only the
//!   calling thread's list.
//! * Objects are ordinary `Box` allocations, refilled a fixed-size slab
//!   (`SLAB`) at a time, so every teardown path (grave scan, parked-bag
//!   dedup, leak counters) keeps working on individual allocations.
//! * **Retirement routes through the EBR collector**: [`Pool::retire`] defers
//!   a *recycle* (via [`reclaim::Guard::retire_ctx`]) exactly like a free, so
//!   an address re-enters circulation only after two global epoch advances —
//!   the same delay that makes deallocation safe, preserving the
//!   info-pointer ABA argument of DESIGN.md §5 (see §9).
//! * Objects that were **never published** — read-only descriptors, new
//!   nodes of an attempt that failed privately — skip the EBR round-trip and
//!   go straight back to the free list ([`Pool::give`]): no other thread can
//!   hold their address, per the engine's `installs` accounting.
//!
//! Crash simulation (`M::SIMULATED`) and disabled collectors run with the
//! pool in **passthrough** mode: every take is a heap allocation and every
//! give/retire a real (or parked) free, so the adversarial harness and the
//! grave-scan dedup keep seeing stable, unique addresses.
//!
//! **Mapped mode** ([`PoolCfg::mapped`]): refills allocate blocks from a
//! persistent [`nvm::mapped::MappedHeap`] (committed only after full
//! initialization), overflow and teardown return blocks to the arena's
//! persistent free list, and the per-thread caches work unchanged on top.
//! The EBR retirement path is identical — the epoch delay is what makes
//! *address* reuse safe, regardless of which allocator owns the address.
//! Arena objects never run Rust destructors: persistent objects are plain
//! words with no owned resources.

use nvm::mapped::MappedHeap;
use nvm::pad::CachePadded;
use nvm::tid;
use nvm::MAX_PROCS;
use reclaim::Guard;
use std::cell::UnsafeCell;
use std::sync::Arc;

/// Objects a [`Pool`] can manage.
///
/// # Safety-adjacent contract
/// `fresh()` must produce a fully initialized object that is safe to hand to
/// any consumer after its in-place re-initialization; `attach` (if
/// overridden) stores the opaque pool handle for owner-routed retirement.
pub trait PoolItem: Send + Sized + 'static {
    /// Construct a blank object (heap-refill path). Implementations bump
    /// their heap-allocation counter here.
    fn fresh() -> Self;
    /// Called once per object with an opaque handle to its owning pool
    /// (structures whose retirement site cannot see the pool — the Info
    /// descriptor released inside the engine — store it; nodes ignore it).
    fn attach(&mut self, _pool: *const ()) {}
    /// Called once per object with the owning process's participant slot + 1
    /// (0 ⇒ exclusive heap). On *shared* mapped heaps the Info descriptor
    /// stores it so a peer performing the final release can recognise a
    /// foreign pool handle and leak instead of dereferencing it.
    fn attach_slot(&mut self, _slot: u32) {}
    /// Counter hook: the object was served from a free list.
    fn count_reuse() {}
}

/// How many objects a heap refill allocates at once.
const SLAB: usize = 16;

/// Default per-process free-list capacity (objects beyond it are freed for
/// real). Bounds live-but-idle memory per process and per object type.
pub const DEFAULT_CAPACITY: usize = 256;

/// Pool configuration, carried by the structures' `with_*` constructors.
#[derive(Debug, Clone)]
pub struct PoolCfg {
    /// Master switch; pooling is additionally forced off under crash
    /// simulation and disabled collectors (passthrough mode).
    pub enabled: bool,
    /// Per-process free-list capacity.
    pub capacity: usize,
    /// Route every allocation through this persistent arena instead of the
    /// process heap (the mapped backend). Arena-backed pools never run in
    /// passthrough mode: a `Box` fallback would hand out volatile memory
    /// that silently vanishes on restart.
    pub arena: Option<Arc<MappedHeap>>,
}

impl Default for PoolCfg {
    fn default() -> Self {
        Self { enabled: true, capacity: DEFAULT_CAPACITY, arena: None }
    }
}

impl PoolCfg {
    /// Pooling disabled: every allocation is boxed, as pre-pool builds did.
    /// The fig9 ablation and the persist-placement golden tests run this
    /// mode side by side with the default.
    pub fn boxed() -> Self {
        Self { enabled: false, ..Self::default() }
    }

    /// Pooling with a small per-process capacity (reuse-stress tests).
    pub fn tiny(capacity: usize) -> Self {
        Self { enabled: true, capacity, arena: None }
    }

    /// All allocations drawn from (and returned to) `heap`'s persistent
    /// bump/free-list allocator; the per-thread caches layer on top.
    pub fn mapped(heap: Arc<MappedHeap>) -> Self {
        Self { enabled: true, capacity: DEFAULT_CAPACITY, arena: Some(heap) }
    }
}

/// The shared pool state. Heap-allocated behind [`Pool`] (reference-counted,
/// so clones of one pool — e.g. the Info pool a [`crate::store::Store`]
/// shares across every structure in one heap — all feed the same free
/// lists) so its address is stable across moves of the owning structure
/// (retired garbage holds raw `PoolInner` pointers until the collector
/// frees it; each structure's collector drops before its own pool clone,
/// which keeps the inner alive through the drain).
pub struct PoolInner<T: PoolItem> {
    /// Per-process free lists; each is touched only by its owning thread
    /// (same discipline as the reclamation slots).
    lists: Vec<CachePadded<UnsafeCell<Vec<*mut T>>>>,
    capacity: usize,
    /// Mapped mode: refills allocate from (and overflow/teardown frees to)
    /// this persistent arena instead of the process heap.
    arena: Option<Arc<MappedHeap>>,
}

unsafe impl<T: PoolItem> Send for PoolInner<T> {}
unsafe impl<T: PoolItem> Sync for PoolInner<T> {}

impl<T: PoolItem> PoolInner<T> {
    /// The calling thread's free list. Threads without a registered tid
    /// (drop-time teardown) use slot 0 — teardown has exclusive access.
    #[allow(clippy::mut_from_ref)] // per-tid exclusivity, as in reclaim::Slot
    fn my_list(&self) -> &mut Vec<*mut T> {
        let t = tid::try_tid().unwrap_or(0);
        unsafe { &mut *self.lists[t].get() }
    }

    /// Push a reusable object, freeing it for real if the list is full.
    ///
    /// # Safety
    /// `p` must be a live allocation from this pool's backing allocator
    /// (heap `Box` or its arena) that no thread can reach.
    unsafe fn recycle(&self, p: *mut T) {
        let list = self.my_list();
        if list.len() < self.capacity {
            list.push(p);
        } else {
            unsafe { self.dealloc(p) };
        }
    }

    /// Return `p` to the backing allocator. Arena blocks run no destructor:
    /// persistent objects hold no owned resources (plain words), and their
    /// bookkeeping counters are process-local anyway.
    ///
    /// # Safety
    /// As [`PoolInner::recycle`].
    unsafe fn dealloc(&self, p: *mut T) {
        match &self.arena {
            Some(h) => unsafe { h.free(p as *mut u8) },
            None => drop(unsafe { Box::from_raw(p) }),
        }
    }
}

impl<T: PoolItem> Drop for PoolInner<T> {
    fn drop(&mut self) {
        for l in &self.lists {
            for p in unsafe { &mut *l.get() }.drain(..) {
                // Mapped mode returns the idle objects to the arena's
                // persistent free list (so the next attach sees them as
                // FREE blocks); heap mode frees the boxes.
                unsafe { self.dealloc(p) };
            }
        }
    }
}

/// The EBR recycle hook: `ctx` is the `PoolInner` the object came from.
unsafe fn recycle_thunk<T: PoolItem>(p: *mut u8, ctx: *mut u8) {
    unsafe { (*(ctx as *const PoolInner<T>)).recycle(p as *mut T) };
}

/// A per-thread, epoch-recycled object pool (see module docs). Clones share
/// the same free lists (the underlying state is reference-counted).
pub struct Pool<T: PoolItem> {
    /// `None` when pooling is off (passthrough mode).
    inner: Option<Arc<PoolInner<T>>>,
}

impl<T: PoolItem> Clone for Pool<T> {
    fn clone(&self) -> Self {
        Self { inner: self.inner.clone() }
    }
}

impl<T: PoolItem> Pool<T> {
    /// The canonical constructor: applies `cfg` gated on the structure's
    /// persistency model and collector — pooling drops to passthrough under
    /// crash simulation or a disabled collector (see module docs). Every
    /// structure builds its pools through this so the safety-critical gate
    /// lives in exactly one place.
    pub fn new_for<M: nvm::Persist>(cfg: PoolCfg, collector: &reclaim::Collector) -> Self {
        if let Some(heap) = cfg.arena {
            // An arena-backed pool must never fall back to `Box`: the
            // fallback would hand out volatile memory whose addresses get
            // persisted into the arena and dangle after a restart.
            assert!(
                cfg.enabled && collector.is_enabled() && !M::SIMULATED,
                "arena-backed pools require pooling on, an enabled collector, \
                 and a non-simulated persistency model"
            );
            return Self::with_arena(heap, cfg.capacity);
        }
        Self::new(cfg.enabled && collector.is_enabled() && !M::SIMULATED, cfg.capacity)
    }

    /// A pool; `enabled = false` yields passthrough mode (prefer
    /// [`Pool::new_for`], which derives the flag from the model/collector).
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            inner: enabled.then(|| {
                Arc::new(PoolInner {
                    lists: (0..MAX_PROCS)
                        .map(|_| CachePadded::new(UnsafeCell::new(Vec::new())))
                        .collect(),
                    capacity,
                    arena: None,
                })
            }),
        }
    }

    /// A pool whose refills/overflows go through `heap` (the mapped
    /// backend). Prefer [`Pool::new_for`] with [`PoolCfg::mapped`].
    pub fn with_arena(heap: Arc<MappedHeap>, capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(PoolInner {
                lists: (0..MAX_PROCS)
                    .map(|_| CachePadded::new(UnsafeCell::new(Vec::new())))
                    .collect(),
                capacity,
                arena: Some(heap),
            })),
        }
    }

    /// Whether this pool actually recycles (false = passthrough).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opaque handle for owner-routed retirement ([`retire_to`]); null in
    /// passthrough mode.
    pub fn handle(&self) -> *const () {
        self.inner.as_deref().map_or(std::ptr::null(), |i| i as *const PoolInner<T> as *const ())
    }

    /// Pop a reusable object from the calling thread's free list, refilling
    /// a slab from the heap when empty. `None` in passthrough mode (the
    /// caller allocates exactly as pre-pool code did).
    ///
    /// The returned object is *dirty*: the caller must re-initialize every
    /// field it will publish.
    pub fn take(&self) -> Option<*mut T> {
        let inner = self.inner.as_deref()?;
        let list = inner.my_list();
        if let Some(p) = list.pop() {
            T::count_reuse();
            return Some(p);
        }
        let owner = inner as *const PoolInner<T> as *const ();
        let refill = SLAB.min(inner.capacity.max(1));
        if let Some(heap) = &inner.arena {
            // Mapped mode: draw blocks from the persistent arena. Each block
            // is committed only after `T::fresh()` fully initialized it, so
            // a kill mid-refill leaves torn blocks the next attach poisons.
            // The arena grows new segments on demand, so this panic now
            // means the VA reservation (or a `create_bounded` cap) is
            // genuinely exhausted, not that the initial size was guessed low.
            let oslot = if heap.is_shared() {
                heap.my_participant().map_or(0, |s| s as u32 + 1)
            } else {
                0
            };
            for _ in 0..refill {
                let raw = heap
                    .alloc(std::mem::size_of::<T>())
                    .unwrap_or_else(|e| panic!("persistent arena refill failed: {e}"))
                    as *mut T;
                // SAFETY: freshly allocated, exclusively owned block large
                // enough for a `T` (64-byte aligned payload).
                unsafe {
                    raw.write(T::fresh());
                    (*raw).attach(owner);
                    (*raw).attach_slot(oslot);
                }
                heap.commit(raw as *mut u8);
                list.push(raw);
            }
            return list.pop();
        }
        for _ in 0..refill - 1 {
            let mut b = Box::new(T::fresh());
            b.attach(owner);
            list.push(Box::into_raw(b));
        }
        let mut b = Box::new(T::fresh());
        b.attach(owner);
        Some(Box::into_raw(b))
    }

    /// Return a **never-published** object directly to the free list — the
    /// private-failure fast path, no EBR round-trip.
    ///
    /// Passthrough mode retires through `g` instead of freeing in place:
    /// under a disabled (crash-sim) collector that *parks* the object, which
    /// is load-bearing — the object's words are registered with the crash
    /// simulator, and freeing them mid-scenario would leave dangling
    /// addresses for `build_crash_image` to poke (heap corruption; the
    /// registry contract requires every registered word to stay alive until
    /// `sim::reset`).
    ///
    /// # Safety
    /// `p` must be a live `Box<T>` allocation whose address no other thread
    /// can hold (never installed in a shared cell, never passed to `help`).
    pub unsafe fn give(&self, p: *mut T, g: &Guard<'_>) {
        match self.inner.as_deref() {
            Some(inner) => unsafe { inner.recycle(p) },
            None => unsafe { g.retire_box(p) },
        }
    }

    /// Retire a **published** object: recycled only after two global epoch
    /// advances, via the collector (passthrough mode: plain EBR free).
    ///
    /// # Safety
    /// As [`reclaim::Guard::retire_box`]: `p` unreachable to any thread that
    /// pins after this call, retired exactly once.
    pub unsafe fn retire(&self, p: *mut T, g: &Guard<'_>) {
        match self.inner.as_deref() {
            Some(inner) => unsafe {
                g.retire_ctx(
                    p as *mut u8,
                    inner as *const PoolInner<T> as *mut u8,
                    recycle_thunk::<T>,
                )
            },
            None => unsafe { g.retire_box(p) },
        }
    }

    /// Objects currently waiting on free lists (diagnostics). `&mut self`
    /// because the per-thread lists are unsynchronized: reading them while
    /// other threads take/give would be a data race, so quiescent exclusive
    /// access (across every clone of this pool) is required, not merely
    /// recommended.
    pub fn idle(&mut self) -> usize {
        // SAFETY: quiescent exclusive access per the contract above.
        self.inner
            .as_deref()
            .map_or(0, |i| i.lists.iter().map(|l| unsafe { (*l.get()).len() }).sum())
    }

    /// Visits every object currently idle on the free lists (`&mut self`
    /// for the same reason as [`Pool::idle`]). The mapped backend's attach
    /// uses this to keep cache-resident blocks out of its arena sweep.
    pub fn each_idle(&mut self, mut f: impl FnMut(*mut T)) {
        if let Some(i) = self.inner.as_deref() {
            for l in i.lists.iter() {
                // SAFETY: quiescent exclusive access per the contract above.
                for &p in unsafe { &*l.get() }.iter() {
                    f(p);
                }
            }
        }
    }
}

/// Retire `p` into the pool identified by `owner` (a [`Pool::handle`]), or
/// through plain EBR when `owner` is null. Used by the engine, whose
/// release sites cannot see the owning structure.
///
/// # Safety
/// `owner` must be null or a handle of a live `Pool<T>` that outlives the
/// collector behind `g`; `p` as in [`Pool::retire`].
pub unsafe fn retire_to<T: PoolItem>(owner: *const (), p: *mut T, g: &Guard<'_>) {
    if owner.is_null() {
        unsafe { g.retire_box(p) };
    } else {
        unsafe { g.retire_ctx(p as *mut u8, owner as *mut u8, recycle_thunk::<T>) };
    }
}

/// Return a never-published `p` directly to the pool identified by `owner`,
/// or retire it through plain EBR when `owner` is null (the pre-pool
/// behaviour of a zero-refcount descriptor). Engine-side twin of
/// [`Pool::give`].
///
/// # Safety
/// As [`retire_to`] and [`Pool::give`] combined.
pub unsafe fn give_to<T: PoolItem>(owner: *const (), p: *mut T, g: &Guard<'_>) {
    if owner.is_null() {
        unsafe { g.retire_box(p) };
    } else {
        unsafe { (*(owner as *const PoolInner<T>)).recycle(p) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim::Collector;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    /// Serializes the tests: each asserts exact `LIVE` deltas.
    static LIVE_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    struct Obj(#[allow(dead_code)] u64);
    impl PoolItem for Obj {
        fn fresh() -> Self {
            LIVE.fetch_add(1, Relaxed);
            Obj(0)
        }
    }
    impl Drop for Obj {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Relaxed);
        }
    }

    #[test]
    fn take_give_reuses_addresses_immediately() {
        let _live = LIVE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        nvm::tid::set_tid(0);
        let c = Collector::new();
        let g = c.pin();
        let pool: Pool<Obj> = Pool::new(true, 64);
        let a = pool.take().unwrap();
        unsafe { pool.give(a, &g) };
        let b = pool.take().unwrap();
        assert_eq!(a, b, "give must feed the next take (LIFO)");
        unsafe { pool.give(b, &g) };
    }

    #[test]
    fn passthrough_give_retires_through_ebr() {
        let _live = LIVE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        nvm::tid::set_tid(0);
        let c = Collector::new();
        let pool: Pool<Obj> = Pool::new(false, 64);
        assert!(pool.take().is_none());
        assert!(pool.handle().is_null());
        let p = Box::into_raw(Box::new(Obj::fresh()));
        let live = LIVE.load(Relaxed);
        {
            let g = c.pin();
            unsafe { pool.give(p, &g) };
        }
        drop(c); // collector drop frees the retired object
        assert_eq!(LIVE.load(Relaxed), live - 1, "passthrough give frees via EBR");
    }

    #[test]
    fn passthrough_give_parks_under_disabled_collector() {
        // Crash-sim discipline: a disabled collector must PARK passthrough
        // gives (freeing registered words mid-scenario corrupts the crash
        // image builder).
        let _live = LIVE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        nvm::tid::set_tid(0);
        let mut c = Collector::disabled();
        let pool: Pool<Obj> = Pool::new(false, 64);
        let p = Box::into_raw(Box::new(Obj::fresh()));
        let live = LIVE.load(Relaxed);
        {
            let g = c.pin();
            unsafe { pool.give(p, &g) };
        }
        assert_eq!(LIVE.load(Relaxed), live, "parked, not freed");
        let parked = c.take_parked();
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0].0, p as *mut u8);
        for (ptr, f) in parked {
            unsafe { f(ptr) };
        }
        assert_eq!(LIVE.load(Relaxed), live - 1);
    }

    #[test]
    fn retire_recycles_only_after_epoch_advances() {
        let _live = LIVE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        nvm::tid::set_tid(0);
        let c = Collector::new();
        let mut pool: Pool<Obj> = Pool::new(true, 64);
        let p = pool.take().unwrap();
        let idle0 = pool.idle();
        {
            let g = c.pin();
            unsafe { pool.retire(p, &g) };
        }
        assert_eq!(pool.idle(), idle0, "retired object must not be reusable yet");
        for _ in 0..500 {
            drop(c.pin());
        }
        assert_eq!(pool.idle(), idle0 + 1, "recycled after the epochs advanced");
        drop(c);
        drop(pool);
    }

    #[test]
    fn capacity_bounds_the_free_list() {
        let _live = LIVE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        nvm::tid::set_tid(0);
        let c = Collector::new();
        let g = c.pin();
        let mut pool: Pool<Obj> = Pool::new(true, 4);
        let ps: Vec<_> = (0..12).map(|_| pool.take().unwrap()).collect();
        let live = LIVE.load(Relaxed);
        for p in ps {
            unsafe { pool.give(p, &g) };
        }
        assert_eq!(pool.idle(), 4, "free list capped at capacity");
        assert_eq!(LIVE.load(Relaxed), live - 8, "overflow freed for real");
    }

    #[test]
    fn pool_drop_frees_idle_objects() {
        let _live = LIVE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        nvm::tid::set_tid(0);
        let live0 = LIVE.load(Relaxed);
        {
            let c = Collector::new();
            let g = c.pin();
            let mut pool: Pool<Obj> = Pool::new(true, 1024);
            let ps: Vec<_> = (0..40).map(|_| pool.take().unwrap()).collect();
            for p in ps {
                unsafe { pool.give(p, &g) };
            }
            assert!(pool.idle() >= 40);
        }
        assert_eq!(LIVE.load(Relaxed), live0, "pool drop leaked");
    }
}
