//! Multi-structure persistent store: one [`MappedHeap`], many **named**
//! detectably recoverable structures.
//!
//! The store is the only on-disk format of the mapped backend: every
//! persistent structure, even a lone one, is a named catalog entry. Real
//! persistent-memory pools (memento's typed pool roots, PAPERS.md) host
//! *several* root objects per pool; this module is that shape for the ISB
//! stack:
//!
//! * a **catalog** root block maps names to `(kind, cfg, root block)`
//!   entries ([`nvm::mapped::CatalogEntry`]; entry creation stamps the kind
//!   word last, so a torn creation leaves an empty slot plus an orphaned —
//!   and swept — root block, never a half-valid entry);
//! * **one shared recovery area** serves every structure: the tracking
//!   model allows a single pending operation per process, regardless of
//!   which structure it touches, so `RD_q`/`CP_q` are per-*process*, not
//!   per-structure (descriptor hand-over across structures routes through
//!   one shared Info pool);
//! * attach-time recovery is one generic driver over every entry's
//!   [`crate::recovery::SlotOps`]: validation, one Op-Recover replay over
//!   the shared area (descriptor entries and the stack's
//!   [`crate::tag::DIRECT`] entries alike), per-structure scrub, and a
//!   census/sweep computed over the **union** of every entry's live set.
//!
//! ```no_run
//! use isb::store::Store;
//!
//! nvm::tid::set_tid(0);
//! let store = Store::open("/tmp/app.heap").unwrap();
//! let users = store.hashmap::<0>("users", 8).unwrap();
//! let jobs = store.queue::<0>("jobs").unwrap();
//! users.insert(0, 42);
//! jobs.enqueue(0, 7);
//! // After a kill, Store::open replays recovery for every structure and
//! // store.summary().decision(pid) resolves the in-flight operation.
//! ```

use crate::bst::RBst;
use crate::engine::Info;
use crate::hashmap::RHashMap;
use crate::list::RList;
use crate::queue::RQueue;
use crate::recovery::{
    finish_attach, recover_dead_pid_with, rootkeys, AttachEnv, AttachError, AttachSummary,
    MappedLayout, RecArea, SlotOps,
};
use crate::resptable::ResponseTable;
use crate::stack::RStack;
use nvm::mapped::{
    CatalogEntry, LeaseOutcome, MapError, MappedHeap, MappedNvm, DEFAULT_HEAP_BYTES,
};
use reclaim::Collector;
use std::any::Any;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Superblock structure-kind tag of a multi-structure store heap.
pub const KIND_STORE: u64 = 6;

/// A constructed, type-erased catalog entry.
struct Entry {
    kind: u64,
    cfg: u64,
    handle: Arc<dyn Any + Send + Sync>,
}

/// One mapped heap hosting many named recoverable structures (see module
/// docs). Handles returned by the typed accessors are `Arc`s that keep the
/// heap alive independently of the `Store`.
pub struct Store {
    heap: Arc<MappedHeap>,
    rec_base: *const u8,
    info_pool: crate::pool::Pool<Info<MappedNvm>>,
    catalog: *mut u8,
    /// Shared cross-process epoch region (null on an exclusive heap): every
    /// structure's collector attaches here, forming one epoch domain across
    /// processes.
    epochs: *mut u8,
    entries: Mutex<HashMap<String, Entry>>,
    summary: AttachSummary,
    /// The KV-service response table hosted by this heap (always present;
    /// ~20 KiB). Validated/healed by the single-owner attach, left
    /// untouched by joiners.
    resptab: ResponseTable,
}

// SAFETY: the raw pointers are into the heap mapping, which `heap` keeps
// alive; all mutation goes through the entries mutex or the (internally
// synchronized) catalog/allocator.
unsafe impl Send for Store {}
unsafe impl Sync for Store {}

impl Store {
    /// Opens (or creates, at [`DEFAULT_HEAP_BYTES`]) the store heap at
    /// `path`, constructing every cataloged structure and running the full
    /// generic restart-recovery sequence over the union of them. The
    /// calling thread must be registered ([`nvm::tid::set_tid`]); one
    /// process attaches a heap at a time.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, AttachError> {
        Self::open_sized(path, DEFAULT_HEAP_BYTES)
    }

    /// [`Store::open`] with an explicit heap size for creation (ignored
    /// when the heap already exists).
    pub fn open_sized(path: impl AsRef<Path>, heap_bytes: usize) -> Result<Self, AttachError> {
        let heap = MappedHeap::open(path.as_ref(), heap_bytes)?;
        Self::attach_heap(heap)
    }

    /// Opens the store heap at `path` for **shared multi-process** use
    /// (at [`DEFAULT_HEAP_BYTES`] on creation): up to
    /// [`nvm::mapped::PART_SLOTS`] processes attach the same heap
    /// concurrently. The *initial* attacher (file absent, or no live
    /// participant registered) runs the full restart-recovery sequence
    /// under the heap file's attach lock before admitting joiners; a
    /// *joiner* adopts the already-recovered image without replaying.
    ///
    /// Every thread of a shared-mode process must register a tid inside the
    /// process's participant band ([`MappedHeap::tid_band`] of
    /// [`MappedHeap::my_participant`]) so recovery slots, epoch announce
    /// words and allocator caches stay per-process disjoint.
    pub fn open_shared(path: impl AsRef<Path>) -> Result<Self, AttachError> {
        Self::open_shared_sized(path, DEFAULT_HEAP_BYTES)
    }

    /// [`Store::open_shared`] with an explicit creation size.
    pub fn open_shared_sized(
        path: impl AsRef<Path>,
        heap_bytes: usize,
    ) -> Result<Self, AttachError> {
        Self::open_shared_with(path, heap_bytes, nvm::liveness::default_probe())
    }

    /// [`Store::open_shared`] with an injected pid-liveness probe (tests
    /// drive "falsely dead" / pid-reuse verdicts through this).
    pub fn open_shared_with(
        path: impl AsRef<Path>,
        heap_bytes: usize,
        live: Arc<dyn nvm::liveness::PidLiveness>,
    ) -> Result<Self, AttachError> {
        let heap = MappedHeap::open_shared_with(path.as_ref(), heap_bytes, live)?;
        if heap.report().joined {
            return Self::join_shared(heap);
        }
        // Initial attacher: full recovery runs while the attach flock is
        // still held, so joiners only ever see a recovered, serviceable
        // image. Release it even when recovery fails — a wedged lock would
        // otherwise block every future open until this process exits.
        let store = Self::attach_heap(Arc::clone(&heap));
        heap.release_attach_lock();
        store
    }

    /// The common single-owner attach body: construct every cataloged
    /// entry, then (unless fresh) run the full recovery sequence. Works for
    /// exclusive heaps and for the shared-mode *initial* attacher (which at
    /// this point is the sole live participant, serialized by the attach
    /// flock).
    fn attach_heap(heap: Arc<MappedHeap>) -> Result<Self, AttachError> {
        let fresh = heap.kind() == 0;
        if !fresh && heap.kind() != KIND_STORE {
            return Err(AttachError::WrongKind {
                name: String::new(),
                expected: KIND_STORE,
                found: heap.kind(),
            });
        }
        let (rec_base, _) =
            heap.root_alloc(rootkeys::RECAREA, RecArea::<MappedNvm>::slots_bytes())?;
        heap.validate_rec_geometry(
            nvm::MAX_PROCS as u64,
            crate::recovery::ARENA_SLOT_STRIDE as u64,
        )?;
        let catalog = heap.catalog_root(rootkeys::CATALOG)?;
        let mut env = AttachEnv::new(Arc::clone(&heap), rec_base);
        let epochs = if heap.is_shared() {
            let (e, _) = heap.root_alloc(rootkeys::EPOCHS, reclaim::shared_region_bytes())?;
            // SAFETY: committed root block of the required size; we are the
            // sole live participant (attach flock held), so re-initialising
            // over a prior run's stale pins is safe — and required, since a
            // SIGKILLed fleet leaves announce words pinned forever.
            unsafe { Collector::init_shared_region(e) };
            env.set_epochs(e);
            e
        } else {
            std::ptr::null_mut()
        };
        // The KV response table rides every store heap: allocate (or
        // re-open) and validate/heal it here, where access is exclusive
        // (attach flock held / exclusive heap). In-flight op-ID intents are
        // resolved below, once the replay decisions exist.
        let (resptab, _heal) = ResponseTable::attach_excl(&heap)?;
        let resptab_base =
            heap.root_get(rootkeys::RESPTAB).expect("attach_excl registered the root") as usize;
        // SAFETY: `catalog` is this heap's committed catalog block.
        let cataloged = unsafe { heap.catalog_entries(catalog) }?;
        // Construct every existing entry (kind-dispatched) so recovery can
        // run over the complete structure set.
        let mut metas: Vec<CatalogEntry> = Vec::new();
        let mut slots: Vec<Box<dyn SlotOps>> = Vec::new();
        for e in cataloged {
            slots.push(construct_entry(&env, &e)?);
            metas.push(e);
        }
        let summary = if fresh {
            heap.set_kind(KIND_STORE);
            AttachSummary { heap: *heap.report(), recovered: Vec::new(), swept: 0 }
        } else {
            let rec = env.rec_area();
            let mut extra_live = vec![rec_base as usize, catalog as usize, resptab_base];
            if !epochs.is_null() {
                extra_live.push(epochs as usize);
            }
            extra_live.extend(metas.iter().map(|e| e.root as usize));
            // SAFETY: quiescent attach (no structure operation runs); the
            // driver may fan validation/census out over attach-scoped worker
            // threads per structure work unit. `slots` covers every
            // structure in the heap (the complete catalog), `extra_live`
            // every root/metadata block.
            let (recovered, swept) = unsafe {
                finish_attach(&heap, &rec, &mut slots, &extra_live, env.info_pool().handle())?
            };
            AttachSummary { heap: *heap.report(), recovered, swept }
        };
        // Resolve every in-flight op-ID against the replay's per-pid
        // decisions: Completed finalizes the response into the client's
        // dedup slot, Restart clears the intent so the retry re-applies.
        // Idempotent — a crash mid-resolution leaves the rec slots intact
        // (the attach replay never clears them), so the next attach
        // recomputes the same decisions and resumes.
        let mut resolved = 0u64;
        for pid in 0..nvm::MAX_PROCS {
            if resptab.resolve(pid, summary.decision(pid)).is_some() {
                resolved += 1;
            }
        }
        if resolved > 0 {
            nvm::stats::count_kv_intents_resolved(resolved);
        }
        let entries = metas
            .into_iter()
            .zip(slots)
            .map(|(e, s)| {
                (e.name, Entry { kind: e.kind, cfg: e.cfg, handle: Arc::from(s.into_any()) })
            })
            .collect();
        Ok(Self {
            heap,
            rec_base,
            info_pool: env.info_pool(),
            catalog,
            epochs,
            entries: Mutex::new(entries),
            summary,
            resptab,
        })
    }

    /// A joiner's attach: the heap is live and already recovered (the
    /// initial attacher held the attach lock through recovery), so this
    /// builds per-process volatile state only — no replay, no scrub, no
    /// sweep — and adopts every cataloged structure.
    fn join_shared(heap: Arc<MappedHeap>) -> Result<Self, AttachError> {
        if heap.kind() != KIND_STORE {
            return Err(AttachError::WrongKind {
                name: String::new(),
                expected: KIND_STORE,
                found: heap.kind(),
            });
        }
        let (rec_base, _) =
            heap.root_alloc(rootkeys::RECAREA, RecArea::<MappedNvm>::slots_bytes())?;
        heap.validate_rec_geometry(
            nvm::MAX_PROCS as u64,
            crate::recovery::ARENA_SLOT_STRIDE as u64,
        )?;
        let catalog = heap.catalog_root(rootkeys::CATALOG)?;
        let (epochs, epochs_fresh) =
            heap.root_alloc(rootkeys::EPOCHS, reclaim::shared_region_bytes())?;
        if epochs_fresh {
            // A live store heap always carries the epoch region (the initial
            // attacher installs it before releasing the lock); its absence
            // means the image predates shared mode.
            return Err(MapError::BadSuperblock("shared store without an epoch region").into());
        }
        let mut env = AttachEnv::new(Arc::clone(&heap), rec_base);
        env.set_epochs(epochs);
        // Joiners adopt the response table as-is: the initial attacher
        // validated/healed it, and live peers are mid-write in their slots.
        let resptab = ResponseTable::open(&heap)?;
        // Under the file lock that serializes entry creation (`Store::get`):
        // a creator appends the catalog record first and installs the
        // structure's roots after it, so an unlocked scan could meet a record
        // whose root block is still zeroed — and `open` would then install a
        // second, private structure there, whose every operation the other
        // processes never see.
        let entries = heap.with_file_lock(|| -> Result<_, AttachError> {
            // Peers may have grown the heap past what join mapped; make every
            // published segment visible before following catalog pointers.
            heap.refresh_segments()?;
            // SAFETY: `catalog` is this heap's committed catalog block.
            let cataloged = unsafe { heap.catalog_entries(catalog) }?;
            let mut entries = HashMap::new();
            for e in cataloged {
                let s = construct_entry(&env, &e)?;
                s.adopt_live();
                entries.insert(
                    e.name,
                    Entry { kind: e.kind, cfg: e.cfg, handle: Arc::from(s.into_any()) },
                );
            }
            Ok(entries)
        })??;
        let summary = AttachSummary { heap: *heap.report(), recovered: Vec::new(), swept: 0 };
        Ok(Self {
            heap,
            rec_base,
            info_pool: env.info_pool(),
            catalog,
            epochs,
            entries: Mutex::new(entries),
            summary,
            resptab,
        })
    }

    /// What this attach found and did: the heap-level report, the per-pid
    /// recovery decisions of the shared replay (spanning every structure),
    /// and the union sweep count.
    pub fn summary(&self) -> &AttachSummary {
        &self.summary
    }

    /// The persistent heap backing this store.
    pub fn heap(&self) -> &Arc<MappedHeap> {
        &self.heap
    }

    /// The KV-service response table hosted by this heap. By the time the
    /// constructor returns, every in-flight op-ID left by a crash has been
    /// resolved against the replay decisions (single-owner attach) or was
    /// resolved by the initial attacher before this joiner could see the
    /// heap — the handle is ready for request traffic.
    pub fn response_table(&self) -> ResponseTable {
        self.resptab.clone()
    }

    /// Names, kinds and configuration words of every cataloged structure.
    pub fn entries(&self) -> Vec<(String, u64, u64)> {
        self.entries.lock().unwrap().iter().map(|(n, e)| (n.clone(), e.kind, e.cfg)).collect()
    }

    /// Opens (or creates) the named structure with layout `L`. Typed
    /// errors: [`AttachError::WrongKind`] when the name exists with a
    /// different kind, [`AttachError::CfgMismatch`] when it exists with a
    /// different configuration (shards/tuning).
    pub fn get<L: MappedLayout + Send + Sync>(
        &self,
        name: &str,
        cfg: L::Cfg,
    ) -> Result<Arc<L>, AttachError> {
        // Reject unusable arguments BEFORE anything durable happens: a bad
        // name/config must never reach the catalog, where it would be
        // permanent (and fail every future Store::open of this heap).
        if name.is_empty() || name.len() > nvm::mapped::CATALOG_NAME_BYTES {
            return Err(AttachError::InvalidName { name: name.to_string() });
        }
        L::validate_cfg(cfg)?;
        let mut entries = self.entries.lock().unwrap();
        let cfg_word = L::cfg_word(cfg);
        if let Some(e) = entries.get(name) {
            if e.kind != L::KIND {
                return Err(AttachError::WrongKind {
                    name: name.to_string(),
                    expected: L::KIND,
                    found: e.kind,
                });
            }
            if e.cfg != cfg_word {
                return Err(AttachError::CfgMismatch {
                    name: name.to_string(),
                    expected: cfg_word,
                    found: e.cfg,
                });
            }
            return Ok(Arc::clone(&e.handle).downcast::<L>().expect("kind/cfg imply the type"));
        }
        let env = self.env();
        let s = if self.heap.is_shared() {
            // Shared heaps: a peer may have created this entry since our
            // attach. Creation (catalog append + root install) is serialized
            // under the cross-process file lock, and the catalog is
            // re-scanned under it — so two processes racing on one name
            // produce exactly one entry, and the loser adopts it fully
            // installed.
            self.heap.with_file_lock(|| -> Result<Arc<L>, AttachError> {
                self.heap.refresh_segments()?;
                // SAFETY: committed catalog block.
                let cataloged = unsafe { self.heap.catalog_entries(self.catalog) }?;
                if let Some(e) = cataloged.into_iter().find(|e| e.name == name) {
                    if e.kind != L::KIND {
                        return Err(AttachError::WrongKind {
                            name: name.to_string(),
                            expected: L::KIND,
                            found: e.kind,
                        });
                    }
                    if e.cfg != cfg_word {
                        return Err(AttachError::CfgMismatch {
                            name: name.to_string(),
                            expected: cfg_word,
                            found: e.cfg,
                        });
                    }
                    let s = L::open(&env, cfg, e.root)?;
                    s.adopt_live();
                    return Ok(Arc::new(s));
                }
                // SAFETY: committed catalog block; mutation serialized by
                // the file lock we hold.
                let root = unsafe {
                    self.heap.catalog_append(
                        self.catalog,
                        name,
                        L::KIND,
                        cfg_word,
                        L::root_bytes(cfg),
                    )
                }?;
                Ok(Arc::new(L::open(&env, cfg, root)?))
            })??
        } else {
            // New entry: root block + catalog record (kind word last), then
            // the structure's own idempotent root install. No recovery
            // needed — the entry cannot predate this attach.
            // SAFETY: committed catalog block; single attach-owner
            // discipline.
            let root = unsafe {
                self.heap.catalog_append(self.catalog, name, L::KIND, cfg_word, L::root_bytes(cfg))
            }?;
            Arc::new(L::open(&env, cfg, root)?)
        };
        entries.insert(
            name.to_string(),
            Entry {
                kind: L::KIND,
                cfg: cfg_word,
                handle: Arc::clone(&s) as Arc<dyn Any + Send + Sync>,
            },
        );
        Ok(s)
    }

    /// Typed handle: sharded hash map (`shards` must match on re-open).
    pub fn hashmap<const ARM: u8>(
        &self,
        name: &str,
        shards: usize,
    ) -> Result<Arc<RHashMap<MappedNvm, ARM>>, AttachError> {
        self.get(name, shards)
    }

    /// Typed handle: FIFO queue.
    pub fn queue<const ARM: u8>(
        &self,
        name: &str,
    ) -> Result<Arc<RQueue<MappedNvm, ARM>>, AttachError> {
        self.get(name, ())
    }

    /// Typed handle: sorted list.
    pub fn list<const ARM: u8>(
        &self,
        name: &str,
    ) -> Result<Arc<RList<MappedNvm, ARM>>, AttachError> {
        self.get(name, ())
    }

    /// Typed handle: external BST.
    pub fn bst<const ARM: u8>(&self, name: &str) -> Result<Arc<RBst<MappedNvm, ARM>>, AttachError> {
        self.get(name, ())
    }

    /// Typed handle: direct-tracked stack (elimination disabled — mapped).
    pub fn stack(&self, name: &str) -> Result<Arc<RStack<MappedNvm>>, AttachError> {
        self.get(name, ())
    }

    fn env(&self) -> AttachEnv {
        let mut env =
            AttachEnv::with_pool(Arc::clone(&self.heap), self.rec_base, self.info_pool.clone());
        if !self.epochs.is_null() {
            env.set_epochs(self.epochs);
        }
        env
    }

    // -- online peer recovery (shared heaps) --------------------------------

    /// Participant slots whose process is dead (SIGKILLed, pid recycled,
    /// zombie, or a claim torn mid-flight). Empty on an exclusive heap.
    pub fn dead_peers(&self) -> Vec<usize> {
        if !self.heap.is_shared() {
            return Vec::new();
        }
        self.heap.dead_participants()
    }

    /// Tries to take the recovery lease on dead participant `slot` without
    /// recovering yet (test harnesses use the split to widen the window in
    /// which the recoverer itself can be killed; production code calls
    /// [`Store::recover_peer`]). Re-entrant for the current holder. Returns
    /// `false` when another *live* survivor holds the lease, the slot is
    /// already reclaimed, its participant turns out to be alive (stale
    /// dead-list), or the slot is torn mid-claim (no state to recover;
    /// [`Store::recover_peer`] reclaims those under the attach flock).
    pub fn claim_recovery(&self, slot: usize) -> bool {
        matches!(self.heap.lease_try_claim(slot), LeaseOutcome::Won { .. })
    }

    /// Recovers dead participant `slot` under a CAS-claimed recovery lease,
    /// **while this process keeps serving**: replays Op-Recover for every
    /// recovery slot in the dead process's tid band, releases its pinned
    /// epochs (un-wedging reclamation), and reclaims its registry slot.
    /// Returns the per-tid recovery decisions on success (empty for a slot
    /// that was merely torn mid-claim — nothing ran under it, so there is
    /// nothing to replay), or `None` when another live survivor holds the
    /// lease (it will finish the job — a recoverer that dies mid-lease is
    /// detected and superseded by the next caller), the slot is already
    /// reclaimed, or its participant turns out to be **alive** — a live
    /// peer's slot is never recovered, however stale the caller's dead-list.
    pub fn recover_peer(
        &self,
        slot: usize,
    ) -> Result<Option<Vec<(usize, crate::recovery::Recovered)>>, AttachError> {
        match self.heap.lease_try_claim(slot) {
            LeaseOutcome::Won { .. } => {}
            // A claim torn mid-flight holds no recoverable state and may be
            // a live joiner mid-stamp: reclaim it under the attach flock
            // (which serializes all claims) instead of leasing it.
            LeaseOutcome::Torn => {
                return Ok(if self.heap.reclaim_torn_claim(slot)? {
                    nvm::stats::count_peers_recovered(1);
                    Some(Vec::new())
                } else {
                    None
                });
            }
            LeaseOutcome::Held { .. } | LeaseOutcome::Gone | LeaseOutcome::Live { .. } => {
                return Ok(None);
            }
        }
        // Replay the dead process's (at most one per thread) pending
        // operations. Help is the ordinary lock-free helping path, so this
        // runs against live traffic from every survivor.
        let rec = self.rec_area();
        let col = self.env().collector();
        let mut decisions = Vec::new();
        let mut resolved = 0u64;
        for pid in MappedHeap::tid_band(slot) {
            let g = col.pin();
            // SAFETY: `slot` is liveness-probed dead and we hold its
            // recovery lease; published descriptors are valid per the
            // tracking protocol (persisted before publication, never freed
            // while published).
            decisions.push((pid, unsafe {
                // The on-decision hook mirrors the verdict into the KV
                // response table *before* the rec slot is cleared: if this
                // recoverer dies inside the hook, a successor recomputes
                // the same decision and re-resolves (idempotent); after the
                // clear, the dead peer's client can be served again.
                recover_dead_pid_with(&rec, pid, &g, |d| {
                    if self.resptab.resolve(pid, d).is_some() {
                        resolved += 1;
                    }
                })
            }));
        }
        if resolved > 0 {
            nvm::stats::count_kv_intents_resolved(resolved);
        }
        // The dead process can no longer be inside a read-side critical
        // section: drop its pinned epochs so reclamation advances again.
        if !self.epochs.is_null() {
            // SAFETY: the band's announce words belong exclusively to the
            // dead process's threads.
            let stalls =
                unsafe { Collector::release_shared_band(self.epochs, MappedHeap::tid_band(slot)) };
            nvm::stats::count_epoch_stalls(stalls as u64);
        }
        // Registry slot last: clearing it retires the lease with it, and
        // only a fully-resolved slot may be re-claimed by a new process.
        self.heap.clear_participant(slot);
        nvm::stats::count_peers_recovered(1);
        Ok(Some(decisions))
    }

    /// Probes for dead peers and recovers each under a lease (the
    /// "survivor notices a SIGKILLed neighbour" entry point — call it
    /// periodically, or when an operation observes suspicious stalls).
    /// Returns the slots this process recovered.
    pub fn heal_peers(&self) -> Result<Vec<usize>, AttachError> {
        let mut healed = Vec::new();
        for slot in self.dead_peers() {
            if self.recover_peer(slot)?.is_some() {
                healed.push(slot);
            }
        }
        Ok(healed)
    }

    /// This process's view of the shared recovery area (per-tid slots).
    fn rec_area(&self) -> RecArea<MappedNvm> {
        // SAFETY: `rec_base` is the heap's committed recovery-area root
        // block, geometry-validated at attach; the heap Arc outlives the
        // returned area's use inside this call graph.
        unsafe { RecArea::attach_raw(self.rec_base) }
    }
}

/// Kind-dispatched construction of an existing catalog entry (the tuning
/// bit lives in the configuration word).
fn construct_entry(env: &AttachEnv, e: &CatalogEntry) -> Result<Box<dyn SlotOps>, AttachError> {
    fn open_as<L: MappedLayout>(
        env: &AttachEnv,
        cfg: L::Cfg,
        root: *mut u8,
    ) -> Result<Box<dyn SlotOps>, AttachError> {
        Ok(Box::new(L::open(env, cfg, root)?))
    }
    // The tuning arm rides in bits 32..40 of the configuration word; a value
    // outside the known ladder means the catalog record was written by an
    // incompatible (newer) build — reject rather than guess a placement.
    let arm = (e.cfg >> 32) & 0xFF;
    macro_rules! open_armed {
        ($ty:ident, $cfg:expr) => {
            match arm {
                0 => open_as::<$ty<MappedNvm, 0>>(env, $cfg, e.root),
                1 => open_as::<$ty<MappedNvm, 1>>(env, $cfg, e.root),
                2 => open_as::<$ty<MappedNvm, 2>>(env, $cfg, e.root),
                3 => open_as::<$ty<MappedNvm, 3>>(env, $cfg, e.root),
                _ => Err(MapError::CorruptCatalog { slot: e.slot }.into()),
            }
        };
    }
    match e.kind {
        crate::hashmap::KIND_MAP => {
            let shards = (e.cfg & 0xFFFF_FFFF) as usize;
            if !shards.is_power_of_two() {
                return Err(MapError::CorruptCatalog { slot: e.slot }.into());
            }
            open_armed!(RHashMap, shards)
        }
        crate::queue::KIND_QUEUE => open_armed!(RQueue, ()),
        crate::list::KIND_LIST => open_armed!(RList, ()),
        crate::bst::KIND_BST => open_armed!(RBst, ()),
        crate::stack::KIND_STACK => open_as::<RStack<MappedNvm>>(env, (), e.root),
        _ => Err(MapError::CorruptCatalog { slot: e.slot }.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::Recovered;

    fn tmp(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!(
            "isb_store_{}_{}_{name}.heap",
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
    fn five_kinds_roundtrip_one_heap() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("five");
        {
            let store = Store::open_sized(&path, 8 << 20).unwrap();
            let m = store.hashmap::<0>("users", 4).unwrap();
            let q = store.queue::<0>("jobs").unwrap();
            let l = store.list::<1>("index").unwrap();
            let t = store.bst::<0>("tree").unwrap();
            let s = store.stack("undo").unwrap();
            for k in 1..=100u64 {
                assert!(m.insert(0, k));
            }
            for v in 1..=50u64 {
                q.enqueue(0, v);
            }
            assert_eq!(q.dequeue(0), Some(1));
            for k in (1..=40u64).step_by(2) {
                assert!(l.insert(0, k));
            }
            for k in [9u64, 3, 12, 7] {
                assert!(t.insert(0, k));
            }
            s.push(0, 11);
            s.push(0, 22);
            assert_eq!(s.pop(0), Some(22));
        }
        {
            let store = Store::open_sized(&path, 8 << 20).unwrap();
            assert_eq!(store.entries().len(), 5);
            let m = store.hashmap::<0>("users", 4).unwrap();
            let q = store.queue::<0>("jobs").unwrap();
            let l = store.list::<1>("index").unwrap();
            let t = store.bst::<0>("tree").unwrap();
            let s = store.stack("undo").unwrap();
            for k in 1..=100u64 {
                assert!(m.find(0, k), "map key {k} lost");
            }
            for v in 2..=50u64 {
                assert_eq!(q.dequeue(0), Some(v), "queue order after re-attach");
            }
            assert_eq!(q.dequeue(0), None);
            for k in 1..=40u64 {
                assert_eq!(l.find(0, k), k % 2 == 1, "list key {k}");
            }
            for k in [9u64, 3, 12, 7] {
                assert!(t.find(0, k), "bst key {k} lost");
            }
            assert_eq!(s.pop(0), Some(11));
            assert_eq!(s.pop(0), None);
            // The recovered store keeps serving.
            assert!(m.insert(0, 1000));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_kind_and_cfg_mismatch_are_typed() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("typed");
        let store = Store::open_sized(&path, 4 << 20).unwrap();
        store.hashmap::<0>("users", 4).unwrap();
        match store.queue::<0>("users") {
            Err(AttachError::WrongKind { name, expected, found }) => {
                assert_eq!(name, "users");
                assert_eq!(expected, crate::queue::KIND_QUEUE);
                assert_eq!(found, crate::hashmap::KIND_MAP);
            }
            other => panic!("expected WrongKind, got {other:?}", other = other.err()),
        }
        match store.hashmap::<0>("users", 8) {
            Err(AttachError::CfgMismatch { name, .. }) => assert_eq!(name, "users"),
            other => panic!("expected CfgMismatch, got {other:?}", other = other.err()),
        }
        match store.hashmap::<1>("users", 4) {
            Err(AttachError::CfgMismatch { .. }) => {}
            other => panic!("expected CfgMismatch (tuning), got {other:?}", other = other.err()),
        }
        // The matching handle still opens, and is the same object.
        let a = store.hashmap::<0>("users", 4).unwrap();
        let b = store.hashmap::<0>("users", 4).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        drop((a, b, store));
        let _ = std::fs::remove_file(&path);
    }

    /// Unusable arguments are rejected BEFORE anything durable happens: no
    /// catalog entry is stamped, and the heap stays fully usable.
    #[test]
    fn invalid_cfg_and_name_are_rejected_before_the_catalog() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("precheck");
        {
            let store = Store::open_sized(&path, 4 << 20).unwrap();
            match store.hashmap::<0>("m", 3) {
                Err(AttachError::InvalidCfg { kind, .. }) => assert_eq!(kind, "hashmap"),
                other => panic!("expected InvalidCfg, got {:?}", other.err()),
            }
            let long = "x".repeat(nvm::mapped::CATALOG_NAME_BYTES + 1);
            match store.queue::<0>(&long) {
                Err(AttachError::InvalidName { .. }) => {}
                other => panic!("expected InvalidName, got {:?}", other.err()),
            }
            match store.queue::<0>("") {
                Err(AttachError::InvalidName { .. }) => {}
                other => panic!("expected InvalidName, got {:?}", other.err()),
            }
            assert!(store.entries().is_empty(), "nothing durable was written");
            // A valid handle still works after the rejections.
            store.hashmap::<0>("m", 4).unwrap().insert(0, 7);
        }
        // ...and the heap re-opens cleanly (a durable bad entry would brick
        // every future open with CorruptCatalog).
        let store = Store::open_sized(&path, 4 << 20).unwrap();
        assert!(store.hashmap::<0>("m", 4).unwrap().find(0, 7));
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    /// Shared open → fake dead peer with a published pending operation →
    /// a survivor's `heal_peers` resolves it online (service never stops)
    /// and reclaims the registry slot; the data survives a full reopen.
    #[test]
    fn shared_heal_recovers_fake_dead_peer_online() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("sharedheal");
        let before = nvm::stats::snapshot();
        {
            let store = Store::open_shared_sized(&path, 8 << 20).unwrap();
            assert!(store.heap().is_shared());
            let slot = store.heap().my_participant().expect("registered");
            nvm::tid::set_tid(MappedHeap::tid_band(slot).start);
            let m = store.hashmap::<0>("m", 2).unwrap();
            let q = store.queue::<0>("q").unwrap();
            for i in 1..=20u64 {
                assert!(m.insert(nvm::tid::tid(), i));
                q.enqueue(nvm::tid::tid(), i);
            }
            // A "peer" that died with a pending operation: claim a second
            // registry slot for a dead pid and publish an operation under a
            // tid in ITS band (the completed dequeue leaves RD_q holding the
            // descriptor reference a real SIGKILLed peer would leave).
            let dead_slot = store.heap().debug_register_peer(u32::MAX as u64 - 7, 1).unwrap();
            let dead_tid = MappedHeap::tid_band(dead_slot).start;
            nvm::tid::set_tid(dead_tid);
            assert_eq!(q.dequeue(dead_tid), Some(1));
            nvm::tid::set_tid(MappedHeap::tid_band(slot).start);
            assert_eq!(store.dead_peers(), vec![dead_slot]);
            let healed = store.heal_peers().unwrap();
            assert_eq!(healed, vec![dead_slot], "survivor recovered the dead peer");
            assert!(store.dead_peers().is_empty(), "registry slot reclaimed");
            assert!(
                !store.heap().participants().iter().any(|&(s, _, _)| s == dead_slot),
                "dead peer's slot is free again"
            );
            // Service continued throughout: the survivor keeps mutating.
            assert!(m.insert(nvm::tid::tid(), 1000));
            // Recovering an already-reclaimed slot is a no-op, not an error.
            assert!(store.recover_peer(dead_slot).unwrap().is_none());
        }
        let after = nvm::stats::snapshot();
        assert!(after.since(&before).peers_recovered >= 1, "counter surfaced the recovery");
        {
            // Full reopen (initial attacher again: no live participants).
            let store = Store::open_shared_sized(&path, 8 << 20).unwrap();
            assert!(!store.summary().heap.joined, "no live peers: full attach");
            let slot = store.heap().my_participant().unwrap();
            let t = MappedHeap::tid_band(slot).start;
            nvm::tid::set_tid(t);
            let m = store.hashmap::<0>("m", 2).unwrap();
            let q = store.queue::<0>("q").unwrap();
            for i in 1..=20u64 {
                assert!(m.find(t, i), "map key {i} lost");
            }
            assert!(m.find(t, 1000));
            // Queue: 1 was dequeued by the dead peer (resolved); 2.. remain.
            for i in 2..=20u64 {
                assert_eq!(q.dequeue(t), Some(i), "queue order after heal + reopen");
            }
            assert_eq!(q.dequeue(t), None);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The lease split: `claim_recovery` is re-entrant for its holder, and
    /// `recover_peer` finishes under an already-held lease.
    #[test]
    fn claim_then_recover_is_reentrant() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("lease");
        let store = Store::open_shared_sized(&path, 4 << 20).unwrap();
        let slot = store.heap().my_participant().unwrap();
        nvm::tid::set_tid(MappedHeap::tid_band(slot).start);
        let dead = store.heap().debug_register_peer(u32::MAX as u64 - 9, 1).unwrap();
        assert!(store.claim_recovery(dead));
        assert!(store.claim_recovery(dead), "re-entrant for the holder");
        let decisions = store.recover_peer(dead).unwrap().expect("recovery under the held lease");
        assert_eq!(decisions.len(), nvm::mapped::PART_TIDS, "one decision per band tid");
        assert!(!store.claim_recovery(dead), "slot reclaimed: lease is gone");
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    /// A live peer's slot is never recovered (a stale dead-list must not
    /// erase a live registration), and a claim torn mid-flight is reclaimed
    /// under the attach flock — reported as a recovery with nothing to
    /// replay — instead of being leased.
    #[test]
    fn recover_refuses_live_peers_and_reclaims_torn_claims() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("tornlive");
        let store = Store::open_shared_sized(&path, 4 << 20).unwrap();
        let slot = store.heap().my_participant().unwrap();
        nvm::tid::set_tid(MappedHeap::tid_band(slot).start);
        // A registration that probes as *alive* (our own pid and birth):
        // never in the dead list, and recovery must refuse it even when
        // named directly.
        let live = store
            .heap()
            .debug_register_peer(std::process::id() as u64, nvm::liveness::self_birth())
            .unwrap();
        assert!(store.dead_peers().is_empty());
        assert!(store.recover_peer(live).unwrap().is_none(), "live peer refused");
        assert!(!store.claim_recovery(live));
        assert!(
            store.heap().participants().iter().any(|&(s, _, _)| s == live),
            "live registration untouched"
        );
        store.heap().clear_participant(live);
        // A claim torn mid-flight: listed dead, reclaimed with an empty
        // replay (no tid of its band ever ran).
        let torn = store.heap().debug_register_peer(u32::MAX as u64 - 11, 1).unwrap();
        store.heap().debug_tear_claim(torn);
        assert_eq!(store.dead_peers(), vec![torn]);
        let decisions = store.recover_peer(torn).unwrap().expect("torn claim reclaimed");
        assert!(decisions.is_empty(), "nothing ran under a torn claim");
        assert!(!store.heap().participants().iter().any(|&(s, _, _)| s == torn));
        assert!(store.recover_peer(torn).unwrap().is_none(), "second reclaim is a no-op");
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_recovery_area_spans_structures() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("sharedrec");
        {
            let store = Store::open_sized(&path, 4 << 20).unwrap();
            let m = store.hashmap::<0>("m", 2).unwrap();
            let q = store.queue::<0>("q").unwrap();
            // Alternating ops hand the shared RD_q across structures.
            for i in 1..=50u64 {
                assert!(m.insert(0, i));
                q.enqueue(0, i);
                assert_eq!(q.dequeue(0), Some(i));
            }
            // Last mutating op was a dequeue: its response is recoverable.
            assert_eq!(q.recover_dequeue(0), Some(50));
        }
        {
            // Across a restart, the shared replay resolves the last op too.
            let store = Store::open_sized(&path, 4 << 20).unwrap();
            match store.summary().decision(0) {
                Recovered::Completed(_) | Recovered::Restart => {}
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
