//! Per-process recovery data: `RD_q` and the check-point `CP_q`.
//!
//! The detectability protocol (Algorithm 1, lines 1–5 / 16–19 and
//! Op-Recover):
//!
//! 1. The *system* sets `CP_q := 0` (persisted) just before an operation of
//!    process `q` starts — modelled by [`RecArea::begin`].
//! 2. The operation runs `RD_q := Null; pbarrier(RD_q); CP_q := 1;
//!    pwb(CP_q); psync` — the `pbarrier` **orders** the reset of `RD_q`
//!    before `CP_q = 1` becomes durable, so recovery can never observe the
//!    previous operation's info pointer together with `CP_q = 1`.
//! 3. Before each call to `Help`, the attempt's Info pointer is published:
//!    `RD_q := opInfo; pwb; psync` ([`RecArea::publish`]).
//! 4. On recovery ([`RecArea::read`]): `CP_q = 0` or `RD_q = Null` means the
//!    operation made no changes — restart it. Otherwise `Help(RD_q)` is run
//!    and the Info's `result` decides: set ⇒ the operation took effect and
//!    this is its response; unset ⇒ it did not take effect and is re-invoked.
//!
//! The hand-tuned arms (`ARM >= TUNED`, "Isb-Opt" and up in the evaluation)
//! defer the durability of `CP_q = 1` to the attempt's publish `psync`
//! (ordering is still enforced with a `pfence`), saving one `psync` per
//! operation.
//!
//! A third word, `SD_q`, names the descriptor of the process's *structural*
//! insert in flight (a node a structure adds on its own behalf, such as a
//! hash-map bucket sentinel, [`RecArea::publish_structural`]); it is
//! cleared when that insert returns. It never decides a response; recovery
//! only helps it to completion before it decides `RD_q`, so every tag a
//! dead process can leave belongs to a descriptor that recovery replays.

use crate::engine::Info;
use nvm::pad::CachePadded;
use nvm::{PWord, Persist, MAX_PROCS};

/// One process's persistent private recovery variables.
pub struct ProcRec<M: Persist> {
    /// `RD_q`: pointer to the Info structure of the last attempt.
    pub rd: PWord<M>,
    /// `CP_q`: 1 once `RD_q` has been initialised for the current operation.
    pub cp: PWord<M>,
    /// `SD_q`: the descriptor of the structural insert in flight, if any
    /// (see the module docs); holds one reference on it, like `RD_q`.
    pub sd: PWord<M>,
}

impl<M: Persist> Default for ProcRec<M> {
    fn default() -> Self {
        Self { rd: PWord::new(0), cp: PWord::new(0), sd: PWord::new(0) }
    }
}

/// Where a [`RecArea`]'s slots live: owned on the process heap (the
/// in-process backends) or borrowed from a persistent arena (the mapped
/// backend, where `RD_q`/`CP_q` must survive the process).
enum Slots<M: Persist> {
    Owned(Vec<CachePadded<ProcRec<M>>>),
    /// Base of [`MAX_PROCS`] slots at [`ARENA_SLOT_STRIDE`]-byte stride.
    Arena(*const u8),
}

/// Byte stride of one arena-resident recovery slot: the padding of the
/// owned layout without its 128-byte *alignment* demand (arena payloads are
/// 64-byte aligned).
pub const ARENA_SLOT_STRIDE: usize = 128;

/// Per-process recovery areas for one data structure.
pub struct RecArea<M: Persist> {
    slots: Slots<M>,
}

// SAFETY: all slot state is atomics behind `&self`; the arena pointer is
// only dereferenced at fixed per-pid offsets inside a mapping the owning
// structure keeps alive (attach_raw contract).
unsafe impl<M: Persist> Send for RecArea<M> {}
unsafe impl<M: Persist> Sync for RecArea<M> {}

impl<M: Persist> Default for RecArea<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs the system's (non-crashable) glue instructions: under the crash
/// simulator they execute with injection suspended; the real modes skip the
/// thread-local bookkeeping entirely (it sat on every operation's prologue).
#[inline]
fn system_glue<M: Persist>(f: impl FnOnce()) {
    if M::SIMULATED {
        nvm::sim::suspended(f)
    } else {
        f()
    }
}

impl<M: Persist> RecArea<M> {
    /// Creates recovery slots for [`MAX_PROCS`] processes.
    pub fn new() -> Self {
        Self {
            slots: Slots::Owned(
                (0..MAX_PROCS).map(|_| CachePadded::new(ProcRec::default())).collect(),
            ),
        }
    }

    /// Bytes an arena-resident recovery area occupies
    /// ([`MAX_PROCS`] × [`ARENA_SLOT_STRIDE`]).
    pub const fn slots_bytes() -> usize {
        MAX_PROCS * ARENA_SLOT_STRIDE
    }

    /// A recovery area over persistent slots at `base` (the mapped backend's
    /// root block). Zeroed memory is a valid fresh state (`CP = 0`,
    /// `RD = Null`); previously persisted slots are exactly what recovery
    /// needs to read.
    ///
    /// # Safety
    /// `base` must point to [`RecArea::slots_bytes`] bytes of 8-aligned
    /// memory that outlives the returned area and is zeroed or holds a
    /// previously persisted slot array; `M::Meta` must be zero-sized (the
    /// mapped/real models — the crash simulator keeps its shadow state on
    /// the process heap and cannot live in an arena).
    pub unsafe fn attach_raw(base: *const u8) -> Self {
        assert!(std::mem::size_of::<ProcRec<M>>() <= ARENA_SLOT_STRIDE);
        assert_eq!(std::mem::size_of::<M::Meta>(), 0, "arena slots require metadata-free models");
        Self { slots: Slots::Arena(base) }
    }

    #[inline]
    fn slot(&self, pid: usize) -> &ProcRec<M> {
        match &self.slots {
            Slots::Owned(v) => &v[pid],
            Slots::Arena(base) => {
                assert!(pid < MAX_PROCS);
                // SAFETY: in-bounds fixed-stride slot per attach_raw.
                unsafe { &*(base.add(pid * ARENA_SLOT_STRIDE) as *const ProcRec<M>) }
            }
        }
    }

    /// Steps 1–2 of the protocol (see module docs). Returns the *previous*
    /// operation's published info pointer so the caller can release its
    /// reference-count hold on it.
    pub fn begin<const ARM: u8>(&self, pid: usize) -> u64 {
        // Coalescing arms route every batched flush through the line set, so
        // a duplicate stand-alone pwb inside one fence window is a flush-diet
        // regression; arm the (feature-gated) lint. Lower arms legitimately
        // re-flush lines, so disarm.
        nvm::coalesce::lint::set_armed(crate::arm::coalesces(ARM));
        let s = self.slot(pid);
        // System glue: CP_q := 0, persisted, before the operation starts.
        // The system itself does not crash (paper Section 2), so crash
        // injection is suspended for these two instructions.
        system_glue::<M>(|| {
            s.cp.store(0);
            M::pbarrier(&s.cp);
        });
        let prev = s.rd.load();
        s.rd.store(0);
        if crate::arm::coalesces(ARM) {
            // Coalescing arms: flush RD=Null (the pfence drains the line —
            // RD=Null must be durable before CP=1 can be), but defer the
            // `CP_q := 1` *store* into `publish_arm`, where it shares the
            // slot's cache line with the RD_q flush. Between begin and
            // publish CP_q stays 0 (durably, via the glue barrier), so a
            // crash in that window decides Restart exactly as it does when
            // CP=1 with RD=Null. See DESIGN.md §12.
            crate::arm::pwb_arm::<M, ARM>(&s.rd);
            M::pfence();
        } else if crate::arm::is_tuned(ARM) {
            M::pwb(&s.rd);
            M::pfence(); // order RD=Null before CP=1 durability
            s.cp.store(1);
            M::pwb(&s.cp);
            // Durability of CP=1 deferred to the attempt's publish psync.
        } else {
            M::pbarrier(&s.rd);
            s.cp.store(1);
            M::pwb(&s.cp);
            M::psync();
        }
        prev
    }

    /// `CP_q := 0` (persisted) only — the prologue of fully read-only
    /// operations, which skip `RD_q := Null / CP_q := 1` because restarting
    /// them is always safe. Returns the previously published info pointer.
    pub fn begin_readonly(&self, pid: usize) -> u64 {
        let s = self.slot(pid);
        // System glue FIRST: `CP_q := 0` happens at invocation, before any
        // (crashable) operation code — otherwise a crash on the operation's
        // first instruction would leave `CP_q = 1` pointing at the previous
        // operation's descriptor and recovery would return a stale response.
        system_glue::<M>(|| {
            s.cp.store(0);
            M::pbarrier(&s.cp);
        });
        s.rd.load()
    }

    /// Step 3: publish the current attempt's Info pointer durably.
    pub fn publish(&self, pid: usize, info: u64) {
        let s = self.slot(pid);
        s.rd.store(info);
        M::pwb(&s.rd);
        M::psync();
    }

    /// Arm-aware [`RecArea::publish`] for descriptor-tracked mutating
    /// operations. Coalescing arms complete the `CP_q := 1` deferred by
    /// [`RecArea::begin`] here: CP and RD live in one cache line
    /// ([`ProcRec`]), so noting both in the line set makes the publish flush
    /// a single write-back where TUNED pays one in begin and one here.
    /// Read-only paths (`find`) must keep using plain `publish` — they never
    /// set `CP_q`.
    pub fn publish_arm<const ARM: u8>(&self, pid: usize, info: u64) {
        if !crate::arm::coalesces(ARM) {
            return self.publish(pid, info);
        }
        let s = self.slot(pid);
        s.cp.store(1);
        crate::arm::pwb_arm::<M, ARM>(&s.cp);
        s.rd.store(info);
        crate::arm::pwb_arm::<M, ARM>(&s.rd); // same line: elided
        M::psync();
    }

    /// Step 4 input: `(CP_q, RD_q)` as found after a crash.
    pub fn read(&self, pid: usize) -> (u64, u64) {
        let s = self.slot(pid);
        (s.cp.load(), s.rd.load())
    }

    /// The currently published info pointer (diagnostics / drop-scan).
    pub fn published(&self, pid: usize) -> u64 {
        self.slot(pid).rd.load()
    }

    /// Iterate all published info pointers, `RD_q` and `SD_q` of every
    /// process (drop-time info scan, attach validation and census).
    pub fn each_published(&self, mut f: impl FnMut(u64)) {
        for pid in 0..MAX_PROCS {
            let s = self.slot(pid);
            f(s.rd.load());
            f(s.sd.load());
        }
    }

    /// Publishes a structural insert's descriptor in `SD_q`, durably, before
    /// its first tag (store, `pwb`, `psync`, as [`RecArea::publish`]); 0
    /// clears it. Returns the previous `SD_q`, whose reference the caller
    /// releases.
    pub fn publish_structural(&self, pid: usize, info: u64) -> u64 {
        let s = self.slot(pid);
        let prev = s.sd.load();
        s.sd.store(info);
        M::pwb(&s.sd);
        M::psync();
        prev
    }

    /// The current `SD_q` of `pid`.
    pub fn structural(&self, pid: usize) -> u64 {
        self.slot(pid).sd.load()
    }

    /// The *system* half of an invocation: `CP_q := 0`, persisted. The paper
    /// models this as executing atomically **when the operation is invoked**
    /// (Section 2) — the operations' own prologues re-run it, harmlessly.
    ///
    /// Callers that write their own intent records around a mapped structure
    /// (write-ahead logs, request journals) must call this *before* logging
    /// the intent: otherwise a crash between the log write and the
    /// operation's first instruction leaves `CP_q = 1` pointing at the
    /// *previous* operation's descriptor, and recovery would hand the new
    /// operation a stale response.
    pub fn mark_invoked(&self, pid: usize) {
        let s = self.slot(pid);
        system_glue::<M>(|| {
            s.cp.store(0);
            M::pbarrier(&s.cp);
        });
    }

    /// Durably resets a dead peer's slot to the fresh state (`CP = 0`,
    /// `RD = Null`) after a survivor resolved its pending operation
    /// ([`recover_dead_pid`]). `CP` is cleared (and persisted) **first**: a
    /// superseding recoverer that reads the slot mid-clear sees `CP = 0`,
    /// decides `Restart`, and releases the still-published `RD` reference
    /// exactly as the dead recoverer would have — never a double help of a
    /// half-torn decision.
    pub fn clear_slot(&self, pid: usize) {
        let s = self.slot(pid);
        s.cp.store(0);
        M::pbarrier(&s.cp);
        s.rd.store(0);
        M::pbarrier(&s.rd);
        s.sd.store(0);
        M::pbarrier(&s.sd);
    }
}

/// Outcome of the generic recovery decision (Op-Recover, lines 22–26).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovered {
    /// The crashed operation took effect; this is its (encoded) response.
    Completed(u64),
    /// The operation did not take effect and must be re-invoked.
    Restart,
}

/// Generic Op-Recover: decide whether the pending operation of `pid` took
/// effect, completing it via `Help` if necessary. A published value carrying
/// the [`crate::tag::DIRECT`] annotation names a direct-tracked *node*, not
/// a descriptor — it belongs to a different structure's pending operation
/// (the caller's own operation therefore never began), so the decision is
/// `Restart`; the direct structure's own recovery reads it instead.
///
/// # Safety
/// Must be called in a quiescent-or-recovering context where the published
/// info pointer, if any, is a valid `Info<M>` (guaranteed by the protocol:
/// infos are persisted before publication and never freed in crash mode).
pub unsafe fn op_recover<M: Persist, const ARM: u8>(
    rec: &RecArea<M>,
    pid: usize,
    guard: &reclaim::Guard<'_>,
) -> Recovered {
    let (cp, rd) = rec.read(pid);
    if cp != 1 || rd == 0 || crate::tag::is_direct(rd) {
        return Recovered::Restart;
    }
    let info = crate::tag::ptr_of::<Info<M>>(rd);
    unsafe {
        let _ = crate::engine::help::<M, ARM>(info, true, guard);
        let res = M::load(&(*info).result);
        if res != crate::engine::RES_BOT {
            Recovered::Completed(res)
        } else {
            Recovered::Restart
        }
    }
}

/// Releases the `RD_q` reference on the *previous* operation's published
/// value (the word [`RecArea::begin`] returned). With one recovery area
/// shared by several structures ([`crate::store::Store`]) the previous
/// value may be a [`crate::tag::DIRECT`] node announcement instead of an
/// Info pointer — those carry no descriptor reference (the direct-tracked
/// structure reclaims its nodes through its own deferred-retire slots), so
/// they are skipped.
///
/// # Safety
/// As [`Info::release`]: `prev` must be the value `begin` returned for an
/// operation the caller owns, released exactly once.
pub unsafe fn release_prev<M: Persist>(prev: u64, g: &reclaim::Guard<'_>) {
    if crate::tag::is_direct(prev) {
        return;
    }
    unsafe { Info::<M>::release(crate::tag::ptr_of(prev), 1, g) };
}

/// **Online** per-pid recovery: a *survivor* of a shared heap resolves the
/// pending operation of a SIGKILLed peer while every structure keeps
/// serving. This is Op-Recover for exactly one pid — `Help` is lock-free
/// and idempotent, so replaying it concurrently with live traffic is the
/// ordinary helping path, not a special mode — followed by a durable slot
/// reset and the release of the slot's descriptor references. The
/// structural descriptor in `SD_q` is helped first: the caller releases the
/// dead process's epoch pins afterwards, and those pins are what keep the
/// values a half-tagged descriptor still expects from being recycled.
///
/// Direct-tracked announcements ([`crate::tag::DIRECT`]) are left in place
/// and decided `Restart`: their resolution needs the owning structure's
/// roots (reachability / claim-stamp reads), which the next full attach
/// performs; the untouched slot keeps the announced node alive for it.
///
/// The sequence is crash-ordered for a recoverer that itself dies: the
/// reference release runs only *after* `RD` is durably nulled, so a
/// superseding recoverer either sees the old `RD` (predecessor had not
/// released — it releases) or `RD = Null` (nothing left to do). A death
/// between the slot clear and the release leaks one reference; the next
/// full attach recomputes true counts and sweeps it.
///
/// # Safety
/// `pid` must belong to a participant that is **dead** (liveness-probed)
/// and whose recovery lease the caller holds
/// ([`nvm::mapped::MappedHeap::lease_try_claim_for`]) — the lease is what
/// makes "at most one resolver at a time" true. The published descriptor,
/// if any, must be a valid `Info` (protocol invariant: persisted before
/// publication, never freed while published).
pub unsafe fn recover_dead_pid(
    rec: &RecArea<MappedNvm>,
    pid: usize,
    guard: &reclaim::Guard<'_>,
) -> Recovered {
    // SAFETY: forwarded contract.
    unsafe { recover_dead_pid_with(rec, pid, guard, |_| {}) }
}

/// [`recover_dead_pid`] with an `on_decision` hook that runs **after** the
/// decision is computed but **before** the slot is durably cleared. Callers
/// that mirror the decision into their own durable state (the KV response
/// table resolving a dead server's op-ID intents) need exactly this window:
/// if the recoverer dies inside the hook, the slot still carries `CP`/`RD`,
/// so a superseding recoverer recomputes the *same* decision and re-runs the
/// hook — which must therefore be idempotent. Hooked work that ran is never
/// lost; work that didn't run is re-derivable.
///
/// # Safety
/// As [`recover_dead_pid`].
pub unsafe fn recover_dead_pid_with(
    rec: &RecArea<MappedNvm>,
    pid: usize,
    guard: &reclaim::Guard<'_>,
    on_decision: impl FnOnce(Recovered),
) -> Recovered {
    let sd = rec.structural(pid);
    if sd != 0 {
        // SAFETY: as for `RD_q` below — published before its first tag,
        // never freed while `SD_q` names it.
        let _ = unsafe { crate::engine::help::<MappedNvm, 0>(crate::tag::ptr_of(sd), true, guard) };
    }
    let (cp, rd) = rec.read(pid);
    let addr = crate::tag::addr_of(rd);
    if crate::tag::is_direct(rd) && addr != 0 {
        return Recovered::Restart;
    }
    let decision = if cp != 1 || addr == 0 {
        Recovered::Restart
    } else {
        // SAFETY: caller holds the recovery lease over a validated published
        // descriptor; help is the ordinary concurrent helping path.
        unsafe { op_recover::<MappedNvm, 0>(rec, pid, guard) }
    };
    on_decision(decision);
    rec.clear_slot(pid);
    // SAFETY: each slot word held one reference on its descriptor and was
    // durably cleared above, so these releases run at most once across
    // recoverer supersessions. A foreign-owned final release leaks the
    // block by design (engine owner-slot guard); full attach sweeps it.
    for p in [addr, sd] {
        if p != 0 {
            unsafe { Info::<MappedNvm>::release(crate::tag::ptr_of(p), 1, guard) };
        }
    }
    decision
}

/// Root-directory keys the mapped backend registers in a heap's superblock.
/// Every mapped heap is one [`crate::store::Store`], so the keys only need
/// to be unique within this set.
pub mod rootkeys {
    /// The heap-wide [`super::RecArea`] slot array (shared by every
    /// structure in a store: one pending operation per process).
    pub const RECAREA: u64 = 0x5245_4341; // "RECA"
    /// The [`crate::store::Store`] catalog block.
    pub const CATALOG: u64 = 0x4341_5441; // "CATA"
    /// The shared cross-process epoch region ([`reclaim::Collector::attach_shared`]):
    /// global epoch + per-participant announce words, one domain per heap.
    pub const EPOCHS: u64 = 0x4550_4F43; // "EPOC"
    /// The KV-service response table ([`crate::resptable::ResponseTable`]):
    /// per-client dedup/response slots plus per-pid op-ID intent records,
    /// resolved against the replay decisions on every attach.
    pub const RESPTAB: u64 = 0x5245_5350; // "RESP"
}

use nvm::addr_hash::{AddrMap, AddrSet};
use nvm::mapped::{MapError, MappedHeap, MappedNvm};
use reclaim::Collector;
use std::sync::Arc;

/// Typed failures of the mapped attach path ([`crate::store::Store`] and
/// the [`MappedLayout`] structures it hosts). Every shape of damaged image, mismatched
/// configuration or non-quiescing recovery surfaces here — attach never
/// panics the process and never exhibits undefined behaviour.
#[derive(Debug)]
pub enum AttachError {
    /// Heap-level failure (I/O, corruption, exhaustion).
    Map(MapError),
    /// The post-replay scrub did not quiesce within its pass budget: some
    /// tagged descriptor could not be helped to completion, which no crash
    /// of a correct execution can produce (a diagnosis, not a panic).
    ScrubStalled {
        /// Structure kind name ([`MappedLayout::KIND_NAME`]).
        kind: &'static str,
        /// Passes attempted before giving up.
        passes: usize,
    },
    /// The named entry hosts a different structure kind than the caller
    /// asked for, or the heap itself is not a store.
    WrongKind {
        /// Entry name (empty for the heap's own superblock kind).
        name: String,
        /// Kind tag the caller expected.
        expected: u64,
        /// Kind tag recorded in the image.
        found: u64,
    },
    /// The entry exists with a different configuration word (shard count /
    /// tuning) than the caller asked for.
    CfgMismatch {
        /// Entry name.
        name: String,
        /// Configuration word the caller expected.
        expected: u64,
        /// Configuration word recorded in the image.
        found: u64,
    },
    /// The caller passed an unusable configuration (e.g. a non-power-of-two
    /// shard count). Rejected **before** anything durable happens — a bad
    /// config must never reach the catalog, where it would brick the heap.
    InvalidCfg {
        /// Structure kind name.
        kind: &'static str,
        /// What was wrong.
        reason: String,
    },
    /// The caller passed an unusable entry name (empty, or longer than the
    /// catalog's inline name buffer). Rejected before anything durable
    /// happens.
    InvalidName {
        /// The offending name.
        name: String,
    },
    /// The KV response table carries state no crash of a correct execution
    /// can produce (e.g. an intent record whose state word is neither empty
    /// nor in-flight). Torn-but-reachable shapes are *healed* instead; this
    /// is the unreachable-shape diagnosis, surfaced typed rather than UB.
    CorruptResponseTable {
        /// Index of the offending slot (intent slots are indexed by pid,
        /// client slots by table position).
        slot: usize,
        /// What was wrong.
        reason: &'static str,
    },
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::Map(e) => write!(f, "{e}"),
            AttachError::ScrubStalled { kind, passes } => {
                write!(f, "{kind}: attach scrub did not quiesce after {passes} passes")
            }
            AttachError::WrongKind { name, expected, found } if name.is_empty() => {
                write!(f, "heap hosts structure kind {found}, expected {expected}")
            }
            AttachError::WrongKind { name, expected, found } => {
                write!(f, "entry {name:?} hosts structure kind {found}, expected {expected}")
            }
            AttachError::CfgMismatch { name, expected, found } => {
                write!(f, "entry {name:?} records configuration {found:#x}, expected {expected:#x}")
            }
            AttachError::InvalidCfg { kind, reason } => {
                write!(f, "unusable {kind} configuration: {reason}")
            }
            AttachError::InvalidName { name } => {
                write!(
                    f,
                    "unusable entry name {name:?} (must be 1..={} bytes)",
                    nvm::mapped::CATALOG_NAME_BYTES
                )
            }
            AttachError::CorruptResponseTable { slot, reason } => {
                write!(f, "response table slot {slot}: {reason}")
            }
        }
    }
}

impl std::error::Error for AttachError {}

impl From<MapError> for AttachError {
    fn from(e: MapError) -> Self {
        AttachError::Map(e)
    }
}

/// What the generic driver hands a [`MappedLayout::open`] implementation:
/// the attached heap, the shared recovery-slot block, and the heap-wide
/// Info-descriptor pool (shared across every structure in a store, because
/// `RD_q` hand-over on [`RecArea::begin`] releases the *previous*
/// operation's descriptor regardless of which structure it belonged to).
pub struct AttachEnv {
    /// The opened (or freshly created) heap.
    pub heap: Arc<MappedHeap>,
    rec_base: *const u8,
    /// Shared cross-process epoch region (null ⇒ exclusive heap, collectors
    /// keep private epochs). See [`AttachEnv::collector`].
    epoch_region: *mut u8,
    info_pool: crate::pool::Pool<Info<MappedNvm>>,
}

impl AttachEnv {
    /// Builds the environment over an attached heap (store use).
    pub(crate) fn new(heap: Arc<MappedHeap>, rec_base: *const u8) -> Self {
        let info_pool =
            crate::pool::Pool::with_arena(Arc::clone(&heap), crate::pool::DEFAULT_CAPACITY);
        Self::with_pool(heap, rec_base, info_pool)
    }

    /// As [`AttachEnv::new`], reusing an existing shared Info pool (the
    /// store's handle-creation path).
    pub(crate) fn with_pool(
        heap: Arc<MappedHeap>,
        rec_base: *const u8,
        info_pool: crate::pool::Pool<Info<MappedNvm>>,
    ) -> Self {
        Self { heap, rec_base, epoch_region: std::ptr::null_mut(), info_pool }
    }

    /// Routes every collector built by [`AttachEnv::collector`] through the
    /// heap's shared epoch region (the store's shared-mode open does this
    /// after allocating/initialising the [`rootkeys::EPOCHS`] root block).
    pub(crate) fn set_epochs(&mut self, region: *mut u8) {
        self.epoch_region = region;
    }

    /// A collector for one structure: a plain private-epoch collector on an
    /// exclusive heap, or one attached to the heap's shared epoch region in
    /// multi-process mode (every structure and process then forms a single
    /// epoch domain — required, since a node retired by one process may be
    /// read by any peer).
    pub fn collector(&self) -> Collector {
        let mut c = Collector::new();
        if !self.epoch_region.is_null() {
            // SAFETY: the region is the heap's committed EPOCHS root block
            // (shared_region_bytes() long, 64-aligned), initialised by the
            // initial attacher before any joiner builds structures, and kept
            // alive by the heap Arc every structure holds via pool_cfg.
            unsafe { c.attach_shared(self.epoch_region) };
        }
        c
    }

    /// A recovery-area view over the heap's shared slot block. Every
    /// structure in the heap gets its own view of the **same** slots.
    pub fn rec_area(&self) -> RecArea<MappedNvm> {
        // SAFETY: the slot block is a committed root block of
        // `RecArea::slots_bytes()` zero-initialised bytes that lives as long
        // as the heap; the structure keeps `heap` alive via `pool_cfg`.
        unsafe { RecArea::attach_raw(self.rec_base) }
    }

    /// A clone of the heap-wide Info-descriptor pool.
    pub fn info_pool(&self) -> crate::pool::Pool<Info<MappedNvm>> {
        self.info_pool.clone()
    }

    /// The pool configuration structure node pools must use (all allocation
    /// routed through the persistent arena).
    pub fn pool_cfg(&self) -> crate::pool::PoolCfg {
        crate::pool::PoolCfg::mapped(Arc::clone(&self.heap))
    }
}

/// The attach-time operations the generic driver invokes on an already
/// constructed mapped structure — the object-safe half of [`MappedLayout`]
/// (a [`crate::store::Store`] drives a heterogeneous set of these).
///
/// All methods run during the quiescent attach sequence: no structure
/// operation runs concurrently. Validation and census may be split into
/// [`SlotOps::work_units`] and run on attach-scoped worker threads (the
/// units partition the graph, so per-unit runs never touch the same node);
/// everything else stays on the attaching thread.
pub trait SlotOps: Send + Sync {
    /// Bounds-checked pre-recovery validation of the structure's graph in
    /// the **untrusted** image: every reachable node must have a whole-node
    /// span inside the mapping and the graph must terminate; referenced
    /// descriptors are only *collected* into `infos` (the driver
    /// range-checks them with [`validate_infos`]). No pointer may be
    /// dereferenced before its span check. Typed error on violation.
    fn validate_image(&self, infos: &mut AddrSet<u64>) -> Result<(), MapError>;

    /// Number of independent work units the parallel attach driver may
    /// split this structure's validation and census into (e.g. one per
    /// hash-map shard). Units must partition the structure's graph; the
    /// default is one unit — the whole structure.
    fn work_units(&self) -> usize {
        1
    }

    /// As [`SlotOps::validate_image`], restricted to work unit `unit`
    /// (`0..work_units()`). Units run concurrently on scoped threads, each
    /// with its own `infos` set; the driver merges them. The default
    /// delegates to `validate_image` (single unit).
    fn validate_unit(&self, unit: usize, infos: &mut AddrSet<u64>) -> Result<(), MapError> {
        debug_assert_eq!(unit, 0);
        self.validate_image(infos)
    }

    /// As [`SlotOps::census`], restricted to work unit `unit`. Each unit
    /// gets private `live`/`info_refs` maps; the driver merges by union and
    /// by summing reference counts, which equals the serial census because
    /// units partition the cells.
    ///
    /// # Safety
    /// Quiescent exclusive attach-time access (as `census`).
    unsafe fn census_unit(&self, unit: usize, live: &mut AddrSet, info_refs: &mut AddrMap<u32>) {
        debug_assert_eq!(unit, 0);
        // SAFETY: forwarded contract.
        unsafe { self.census(live, info_refs) }
    }

    /// Whether `addr` is a plausible node of this structure (whole-span
    /// check) — the driver validates descriptor WriteSet install values
    /// against the union of the heap's structures.
    fn valid_install(&self, addr: u64) -> bool;

    /// Completes helping obligations left visible by the crash (bounded;
    /// [`AttachError::ScrubStalled`] instead of a panic when the budget is
    /// exhausted). Runs after the Op-Recover replay.
    fn try_scrub(&self) -> Result<(), AttachError>;

    /// Post-scrub structural repair (e.g. the queue's tail-hint heal).
    fn heal(&mut self) {}

    /// Marks a structure this process adopts from a live shared heap, where
    /// no census runs, so it rebuilds its volatile per-process state (e.g.
    /// the hash map's bucket directory) from the live structure. This runs
    /// while joining, possibly before the thread registered its own tid,
    /// so it must not pin or walk: the structure defers the rebuild to its
    /// first operation. Default: nothing to rebuild.
    fn adopt_live(&self) {}

    /// Census of the quiescent structure: every reachable node's payload
    /// address into `live`, and per descriptor still referenced from a node
    /// cell the number of referencing cells into `info_refs`.
    ///
    /// # Safety
    /// Quiescent exclusive attach-time access.
    unsafe fn census(&self, live: &mut AddrSet, info_refs: &mut AddrMap<u32>);

    /// Every arena block currently cached in this structure's pools (kept
    /// out of the sweep).
    fn each_cached(&mut self, f: &mut dyn FnMut(usize));

    /// Direct tracking only: whether the node at `addr` is reachable from
    /// this structure's roots (decides a crashed push's recovery).
    fn direct_reachable(&self, _addr: u64) -> bool {
        false
    }

    /// Type-erase for the store's handle cache.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any + Send + Sync>;
}

/// A mapped structure kind: everything the generic attach driver needs to
/// create, re-open and recover one detectably recoverable structure inside
/// a [`MappedHeap`] — the per-kind constants and constructor on top of the
/// attach-time operations of [`SlotOps`].
///
/// Implementations are thin: the whole remap → validate → replay → scrub →
/// census → sweep lifecycle lives once in [`crate::store::Store`]'s attach,
/// shared by every structure it catalogs.
pub trait MappedLayout: SlotOps + Sized + std::any::Any {
    /// Structure-kind tag of a store catalog entry. Tuning variants share
    /// a kind; the configuration word carries the tuning bit.
    const KIND: u64;
    /// Human-readable kind name (errors/diagnostics).
    const KIND_NAME: &'static str;
    /// Construction parameters beyond the heap (e.g. shard count).
    type Cfg: Copy;

    /// Rejects unusable configurations with a typed error **before**
    /// anything durable happens — once a config reaches the catalog it is
    /// permanent, so a bad one must never get that far.
    fn validate_cfg(_cfg: Self::Cfg) -> Result<(), AttachError> {
        Ok(())
    }

    /// Encodes `cfg` (plus the tuning) into the persisted configuration
    /// word checked on re-attach.
    fn cfg_word(cfg: Self::Cfg) -> u64;

    /// Size of the structure's persistent root block.
    fn root_bytes(cfg: Self::Cfg) -> usize;

    /// Constructs the structure over `root` (a committed, zero-initialised
    /// on first use root block of [`MappedLayout::root_bytes`] bytes inside
    /// `env.heap`): installs fresh roots when the block is still zeroed,
    /// loads them otherwise. Must be idempotent — a creation cut short by a
    /// kill re-runs it.
    fn open(env: &AttachEnv, cfg: Self::Cfg, root: *mut u8) -> Result<Self, AttachError>;
}

/// The shared restart-recovery epilogue over an already re-attached heap:
///
/// 1. **validate** every structure's graph and every referenced descriptor
///    against the mapping (typed [`MapError::CorruptPointer`], never UB),
/// 2. **replay** the per-pid recovery decision over the shared recovery
///    area — generic Op-Recover for descriptor-tracked entries, the
///    direct-tracking decision (reachability / claim stamp) for
///    [`crate::tag::DIRECT`] entries — with refcount bookkeeping suspended,
/// 3. **scrub** every structure to quiescence (typed
///    [`AttachError::ScrubStalled`] on a non-quiescing image) and run
///    structural heals,
/// 4. **census + sweep** over the **union** of all structures' live sets:
///    rebuild every surviving descriptor's volatile bookkeeping and
///    garbage-collect blocks the dead process leaked.
///
/// # Safety
/// Quiescent single-threaded attach; `slots` must cover **every** structure
/// hosted by `heap` (a missing one would have its blocks swept), `rec` must
/// be the heap's shared recovery area, `extra_live` every root/metadata
/// block address, and `owner` the heap-wide Info pool handle. The calling
/// thread must be registered.
pub(crate) unsafe fn finish_attach(
    heap: &MappedHeap,
    rec: &RecArea<MappedNvm>,
    slots: &mut [Box<dyn SlotOps>],
    extra_live: &[usize],
    owner: *const (),
) -> Result<(Vec<(usize, Recovered)>, usize), AttachError> {
    // 1. Pre-recovery validation of the untrusted image: no pointer is
    // dereferenced by the replay/scrub/census below unless the whole object
    // graph stays inside the mapping and terminates. This is what turns a
    // tampered superblock (e.g. a rewritten base) into a typed error
    // instead of undefined behaviour. Split into per-structure work units
    // and run on scoped threads — units partition the graphs, so the walks
    // are independent.
    let par_start = std::time::Instant::now();
    let units: Vec<(usize, usize)> = slots
        .iter()
        .enumerate()
        .flat_map(|(i, s)| (0..s.work_units().max(1)).map(move |u| (i, u)))
        .collect();
    let threads = nvm::mapped::attach_threads().clamp(1, units.len().max(1));
    let mut infos: AddrSet<u64> = AddrSet::default();
    if threads <= 1 {
        for &(i, u) in &units {
            slots[i].validate_unit(u, &mut infos)?;
        }
    } else {
        let slots_ref: &[Box<dyn SlotOps>] = slots;
        let next = std::sync::atomic::AtomicUsize::new(0);
        let locals = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    sc.spawn(|| {
                        let mut local: AddrSet<u64> = AddrSet::default();
                        loop {
                            let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(&(i, u)) = units.get(k) else { break };
                            slots_ref[i].validate_unit(u, &mut local)?;
                        }
                        Ok::<_, MapError>(local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("validate worker panicked"))
                .collect::<Vec<_>>()
        });
        for l in locals {
            infos.extend(l?);
        }
    }
    let validate_elapsed = par_start.elapsed();
    let mut bad_rd = None;
    rec.each_published(|rd| {
        let p = crate::tag::addr_of(rd);
        if p == 0 {
            return;
        }
        if crate::tag::is_direct(rd) {
            // Direct entries name nodes; whole-granule span (every arena
            // object occupies at least one committed 64-byte granule).
            if p & 7 != 0 || !heap.contains_span(p as usize, nvm::mapped::GRANULE) {
                bad_rd = Some(p);
            }
        } else {
            infos.insert(p);
        }
    });
    if let Some(addr) = bad_rd {
        return Err(MapError::CorruptPointer { addr }.into());
    }
    validate_infos::<MappedNvm>(heap, &infos, |a| slots.iter().any(|s| s.valid_install(a)))?;

    // 2. Replay + scrub with refcount bookkeeping suspended: the counts the
    // dead process persisted are recomputed from scratch below.
    let recovered = crate::engine::with_release_suspended(|| {
        let col = Collector::new();
        // Structural inserts first: they never decide a response, and the
        // tags they left must be resolved now, before this process
        // allocates — their expected values are protected by nothing else.
        for pid in 0..MAX_PROCS {
            let sd = rec.structural(pid);
            if sd != 0 {
                let g = col.pin();
                // SAFETY: validated above with every published descriptor.
                let _ = unsafe {
                    crate::engine::help::<MappedNvm, 0>(crate::tag::ptr_of(sd), true, &g)
                };
            }
        }
        let decisions = (0..MAX_PROCS)
            .map(|pid| {
                let g = col.pin();
                // SAFETY (op_recover): quiescent attach; every published
                // descriptor was validated above. Replay runs the untuned
                // placement — sound for both tunings (strictly more
                // persistency instructions, identical decisions).
                let d = {
                    let (cp, rd) = rec.read(pid);
                    if cp != 1 || crate::tag::addr_of(rd) == 0 {
                        Recovered::Restart
                    } else if crate::tag::is_direct(rd) {
                        // SAFETY: span-validated direct node.
                        unsafe { direct_decide(rd, pid, slots) }
                    } else {
                        unsafe { op_recover::<MappedNvm, 0>(rec, pid, &g) }
                    }
                };
                (pid, d)
            })
            .collect::<Vec<_>>();
        for s in slots.iter() {
            s.try_scrub()?;
        }
        Ok::<_, AttachError>(decisions)
    })?;
    for s in slots.iter_mut() {
        s.heal();
    }

    // 3. Census: the union live set and the true reference count per
    // descriptor across every structure plus the RD slots. Same work-unit
    // fan-out as validation; merging unions the live sets and sums the
    // per-descriptor counts, which equals the serial census because units
    // partition the referencing cells.
    let census_start = std::time::Instant::now();
    let mut live: AddrSet = AddrSet::default();
    let mut info_refs: AddrMap<u32> = AddrMap::default();
    if threads <= 1 {
        for &(i, u) in &units {
            // SAFETY: quiescent exclusive access post-scrub.
            unsafe { slots[i].census_unit(u, &mut live, &mut info_refs) };
        }
    } else {
        let slots_ref: &[Box<dyn SlotOps>] = slots;
        let next = std::sync::atomic::AtomicUsize::new(0);
        let locals = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    sc.spawn(|| {
                        let mut l_live: AddrSet = AddrSet::default();
                        let mut l_refs: AddrMap<u32> = AddrMap::default();
                        loop {
                            let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(&(i, u)) = units.get(k) else { break };
                            // SAFETY: quiescent exclusive access post-scrub;
                            // units partition the graph, so no two workers
                            // visit the same node.
                            unsafe { slots_ref[i].census_unit(u, &mut l_live, &mut l_refs) };
                        }
                        (l_live, l_refs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("census worker panicked"))
                .collect::<Vec<_>>()
        });
        for (l_live, l_refs) in locals {
            live.extend(l_live);
            for (k, v) in l_refs {
                *info_refs.entry(k).or_insert(0) += v;
            }
        }
    }
    // Parallel-phase wall clock: validation up front plus the census here
    // (replay and scrub between them are serial by design).
    nvm::stats::count_attach_par_ms((validate_elapsed + census_start.elapsed()).as_millis() as u64);
    rec.each_published(|rd| {
        let p = crate::tag::addr_of(rd) as usize;
        if p == 0 {
            return;
        }
        if crate::tag::is_direct(rd) {
            // An announced direct node must survive the sweep even when it
            // was already unlinked: the announcing process's recovery reads
            // its claim stamp.
            live.insert(p);
        } else {
            *info_refs.entry(p).or_insert(0) += 1;
        }
    });
    live.extend(extra_live.iter().copied());
    for s in slots.iter_mut() {
        s.each_cached(&mut |p| {
            live.insert(p);
        });
    }
    // Shared heaps: descriptors this attach reclaims are re-owned by *this*
    // process's pool, so stamp our participant slot (exclusive heaps keep 0).
    let owner_slot =
        if heap.is_shared() { heap.my_participant().map_or(0, |s| s as u32 + 1) } else { 0 };
    // SAFETY: quiescent; `info_refs` holds the recomputed true counts
    // (cells + RD slots) and `live` covers roots, graphs, descriptors and
    // this process's caches across every structure in the heap.
    let swept =
        unsafe { census_epilogue::<MappedNvm>(heap, &info_refs, owner, owner_slot, &mut live) };
    Ok((recovered, swept))
}

/// The direct-tracking recovery decision (paper §1/§5, "direct tracking"):
/// a pop's claim announcement completed iff the claim stamp names the
/// claimant; a push's node announcement completed iff the node is reachable
/// from some structure's roots or carries any claim stamp (pushed, then
/// popped).
///
/// # Safety
/// `rd` must be a span-validated direct entry over a quiescent image.
unsafe fn direct_decide(rd: u64, pid: usize, slots: &[Box<dyn SlotOps>]) -> Recovered {
    let node = crate::tag::addr_of(rd);
    // Direct nodes lead with (val, next, popped_by) persistent words — the
    // stack's layout; see `RStack`'s `MappedLayout` impl.
    let stamp = unsafe { crate::stack::direct_stamp::<MappedNvm>(node) };
    if crate::tag::is_tagged(rd) {
        // Pop claim: the CAS on the stamp is the arbitration.
        if stamp == pid as u64 + 1 {
            let v = unsafe { crate::stack::direct_val::<MappedNvm>(node) };
            Recovered::Completed(crate::engine::res_val(v))
        } else {
            Recovered::Restart
        }
    } else {
        // Push announcement.
        if stamp != 0 || slots.iter().any(|s| s.direct_reachable(node)) {
            Recovered::Completed(crate::engine::RES_UNIT)
        } else {
            Recovered::Restart
        }
    }
}

/// Pre-recovery validation of every collected descriptor against the
/// mapping: the descriptor's **whole span** must lie inside the heap, and
/// (via [`Info::validate_bounds`]) every cell address it names must have an
/// in-heap 8-byte span while every value it installs must satisfy
/// `valid_install` (callers pass a node-span check — installed values are
/// node pointers the census walk will dereference). Any violation is a
/// typed [`nvm::MapError::CorruptPointer`], never a dereference.
pub fn validate_infos<M: Persist>(
    heap: &nvm::mapped::MappedHeap,
    infos: &AddrSet<u64>,
    valid_install: impl Fn(u64) -> bool + Copy,
) -> Result<(), nvm::MapError> {
    let cell_ok = |a: u64| a & 7 == 0 && heap.contains_span(a as usize, 8);
    for &info in infos {
        if info & 7 != 0 || !heap.contains_span(info as usize, std::mem::size_of::<Info<M>>()) {
            return Err(nvm::MapError::CorruptPointer { addr: info });
        }
        // SAFETY: the descriptor's whole span is inside the mapping.
        if !unsafe { (*(info as *const Info<M>)).validate_bounds(cell_ok, valid_install) } {
            return Err(nvm::MapError::CorruptPointer { addr: info });
        }
    }
    Ok(())
}

/// The census/sweep epilogue of a mapped attach: rewrite every live
/// descriptor's volatile bookkeeping (recomputed reference count, this
/// process's Info pool as `owner`, `shared` forced) and garbage-collect
/// every committed block not in `live`. Returns the number swept.
///
/// # Safety
/// Quiescent attach-time access; `info_refs` must hold the true reference
/// count per descriptor, `owner` the new Info-pool handle, and `live` every
/// payload address reachable from the structure's roots or this process's
/// caches (the descriptors themselves are added here).
pub unsafe fn census_epilogue<M: Persist>(
    heap: &nvm::mapped::MappedHeap,
    info_refs: &AddrMap<u32>,
    owner: *const (),
    owner_slot: u32,
    live: &mut AddrSet,
) -> usize {
    for (&info, &cnt) in info_refs {
        // SAFETY: quiescent; count/owner per the contract above.
        unsafe { (*(info as *const Info<M>)).reset_after_attach(cnt, owner, owner_slot) };
        live.insert(info);
    }
    // SAFETY: `live` now covers roots, graph, descriptors and caches.
    unsafe { heap.sweep_except(live) }
}

/// What a [`crate::store::Store`] attach found and did: the heap-level
/// [`nvm::mapped::AttachReport`] plus the structure-level recovery outcome.
#[derive(Debug)]
pub struct AttachSummary {
    /// Heap-level report (created / relocated / poisoned torn blocks / …).
    pub heap: nvm::mapped::AttachReport,
    /// Per-pid Op-Recover decisions of the replay pass (empty on a fresh
    /// heap). `Completed(res)` carries the crashed operation's response.
    pub recovered: Vec<(usize, Recovered)>,
    /// Committed blocks swept by the attach-time garbage collection (blocks
    /// the killed process leaked from pool caches and limbo bags).
    pub swept: usize,
}

impl AttachSummary {
    /// The replayed recovery decision for `pid` (`Restart` on a fresh heap).
    pub fn decision(&self, pid: usize) -> Recovered {
        self.recovered
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, r)| *r)
            .unwrap_or(Recovered::Restart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Info, InfoFill, RES_TRUE};
    use nvm::CountingNvm;
    use reclaim::Collector;

    type M = CountingNvm;

    #[test]
    fn begin_resets_and_publish_installs() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let rec: RecArea<M> = RecArea::new();
        assert_eq!(rec.read(3), (0, 0), "fresh slot");
        let prev = rec.begin::<0>(3);
        assert_eq!(prev, 0);
        assert_eq!(rec.read(3), (1, 0), "CP set, RD null");
        rec.publish(3, 0xABC0);
        assert_eq!(rec.read(3), (1, 0xABC0));
        // Next operation: begin returns the previous RD and resets.
        let prev = rec.begin::<1>(3);
        assert_eq!(prev, 0xABC0);
        assert_eq!(rec.read(3), (1, 0));
    }

    #[test]
    fn begin_readonly_only_clears_checkpoint() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let rec: RecArea<M> = RecArea::new();
        rec.begin::<0>(1);
        rec.publish(1, 0x1230);
        let prev = rec.begin_readonly(1);
        assert_eq!(prev, 0x1230, "RD untouched by the read-only prologue");
        assert_eq!(rec.read(1), (0, 0x1230), "CP cleared, RD kept");
    }

    /// The Op-Recover decision table (Algorithm 1, lines 22–26).
    #[test]
    fn op_recover_decision_table() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let c = Collector::new();
        let rec: RecArea<M> = RecArea::new();

        // CP = 0 ⇒ restart, regardless of RD.
        {
            let g = c.pin();
            assert_eq!(unsafe { op_recover::<M, 0>(&rec, 0, &g) }, Recovered::Restart);
        }
        // CP = 1, RD = Null ⇒ restart.
        rec.begin::<0>(0);
        {
            let g = c.pin();
            assert_eq!(unsafe { op_recover::<M, 0>(&rec, 0, &g) }, Recovered::Restart);
        }
        // CP = 1, RD → info whose help cannot proceed and result = ⊥ ⇒ restart.
        let cell: nvm::PWord<M> = nvm::PWord::new(0xDEAD0);
        let info = Info::<M>::alloc();
        unsafe {
            Info::fill(
                info,
                &InfoFill {
                    optype: 1,
                    affect: &[(&cell as *const _ as u64, 0x5550)], // stale expected
                    write: &[],
                    newset: &[],
                    del_mask: 0,
                    presult: RES_TRUE,
                },
            );
        }
        rec.publish(0, info as u64);
        {
            let g = c.pin();
            assert_eq!(unsafe { op_recover::<M, 0>(&rec, 0, &g) }, Recovered::Restart);
        }
        // CP = 1, RD → info whose help completes ⇒ Completed(result).
        let cell2: nvm::PWord<M> = nvm::PWord::new(0);
        let info2 = Info::<M>::alloc();
        unsafe {
            Info::fill(
                info2,
                &InfoFill {
                    optype: 1,
                    affect: &[(&cell2 as *const _ as u64, 0)],
                    write: &[],
                    newset: &[],
                    del_mask: 0,
                    presult: RES_TRUE,
                },
            );
        }
        rec.publish(0, info2 as u64);
        {
            let g = c.pin();
            assert_eq!(unsafe { op_recover::<M, 0>(&rec, 0, &g) }, Recovered::Completed(RES_TRUE));
        }
        // Drop the descriptors (test owns them).
        unsafe {
            drop(Box::from_raw(info));
            drop(Box::from_raw(info2));
        }
    }

    #[test]
    fn slots_are_isolated_per_process() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let rec: RecArea<M> = RecArea::new();
        rec.begin::<0>(0);
        rec.publish(0, 0x10);
        rec.begin::<0>(7);
        rec.publish(7, 0x70);
        assert_eq!(rec.read(0), (1, 0x10));
        assert_eq!(rec.read(7), (1, 0x70));
        let mut seen = Vec::new();
        rec.each_published(|rd| {
            if rd != 0 {
                seen.push(rd);
            }
        });
        seen.sort();
        assert_eq!(seen, vec![0x10, 0x70]);
    }
}
