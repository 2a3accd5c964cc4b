//! The ISB-tracking engine: the [`Info`] descriptor and the generic,
//! idempotent [`help`] procedure (Algorithm 1 of the paper).
//!
//! An operation's execution goes through phases:
//!
//! 1. **Gather** (data-structure specific): collect the *AffectSet* — the
//!    nodes the operation will lock/update/delete, as `(info cell, expected
//!    info value)` pairs — plus the *WriteSet* (CAS triples) and *NewSet*
//!    (freshly allocated nodes, pre-tagged with the operation's Info).
//! 2. **Helping**: if any gathered info value is tagged, complete that
//!    operation first and retry.
//! 3. The Info is filled, persisted, published in `RD_q`, and [`help`] runs:
//!    * **Tagging**: CAS each affect cell from its expected value to the
//!      tagged Info pointer, in AffectSet order (the invoker starts at the
//!      first element, helpers at the second). On failure, **backtrack**
//!      untags the already-tagged prefix (to `untagged(info)` — a fresh
//!      value, preserving pointer freshness) and the attempt fails.
//!    * **Update**: execute the WriteSet CASes (idempotent: re-execution
//!      fails silently), then persist the precomputed response into
//!      `result`.
//!    * **Cleanup**: untag every affect/new node still in the structure;
//!      deletion-tagged positions (mask bit set) stay tagged forever,
//!      doubling as Harris mark bits.
//!
//! ### Reference counting (`installs`)
//!
//! The paper assumes a garbage collector; we instead count, per Info, the
//! number of places that reference it: one for the owner's `RD_q` plus one
//! per affect/new cell that holds (or is destined to hold) the pointer.
//! Decrements happen when a tag-CAS overwrites an older info value (the CAS
//! winner releases it), when a node holding the info is retired, when the
//! invoker abandons never-installed slots, and when `RD_q` moves on. At
//! zero, the Info is retired through EBR, which prevents info-pointer ABA
//! through address reuse (see DESIGN.md §5).

use crate::arm;
use crate::pool::PoolItem;
use crate::tag;
use nvm::{PWord, Persist, PersistWords};
use reclaim::Guard;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, Ordering};

/// Maximum AffectSet size (BST delete uses 4: grandparent, parent, leaf, sibling).
pub const MAX_AFFECT: usize = 4;
/// Maximum WriteSet size.
pub const MAX_WRITE: usize = 2;
/// Maximum NewSet size (BST insert uses 3).
pub const MAX_NEW: usize = 3;

/// `result` encodings. The response of an operation is stored in a single
/// persistent word so that one `pwb` makes it durable.
pub const RES_BOT: u64 = 0;
/// Boolean `false` response.
pub const RES_FALSE: u64 = 1;
/// Boolean `true` response.
pub const RES_TRUE: u64 = 2;
/// Unit ("ack") response.
pub const RES_UNIT: u64 = 3;
/// "Empty" response (queue dequeue on an empty queue).
pub const RES_EMPTY: u64 = 4;
/// Values `v` are encoded as `v + RES_VAL_BASE`; callers must keep payloads
/// below `u64::MAX - RES_VAL_BASE`.
pub const RES_VAL_BASE: u64 = 16;

/// Encode a payload value as a result word.
///
/// Panics (also in release builds) when `v` is within [`RES_VAL_BASE`] of
/// `u64::MAX`: the wrapped sum would collide with the reserved encodings
/// (`RES_EMPTY`, `RES_TRUE`, …) and recovery would decode a wrong response.
#[inline]
pub fn res_val(v: u64) -> u64 {
    assert!(
        v <= u64::MAX - RES_VAL_BASE,
        "payload {v:#x} exceeds the encodable range (collides with reserved result encodings)"
    );
    v + RES_VAL_BASE
}

/// Decode a payload value from a result word.
///
/// Panics (also in release builds) when `res` is one of the reserved
/// encodings below [`RES_VAL_BASE`]: silently decoding `RES_EMPTY`/`RES_TRUE`
/// /… as a payload would hand recovery a wrong response. The twin guard of
/// [`res_val`].
#[inline]
pub fn val_of(res: u64) -> u64 {
    assert!(
        res >= RES_VAL_BASE,
        "result word {res:#x} is a reserved encoding, not a payload value"
    );
    res - RES_VAL_BASE
}

/// The Info structure: everything a helper (or the owner's recovery code)
/// needs to run the operation to completion, plus its `result`.
///
/// All descriptor fields are persistent words; the operation persists the
/// whole Info (`pbarrier(*opInfo, NewSet)`) before publishing it. The field
/// order packs the common shapes into few cache lines — a read-only
/// descriptor (one affect entry) fits entirely in the first line, and
/// two-affect/one-write/two-new descriptors (list insert/delete, queue ops)
/// in two — so the pre-publication barrier flushes 1–2 lines, matching the
/// paper's remark that "a single pwb flushes all fields fitting in a cache
/// line". [`PersistWords::used_range`] exposes exactly the used prefix.
#[repr(C, align(64))]
pub struct Info<M: Persist> {
    /// Packed `optype | naffect<<8 | nwrite<<16 | nnew<<24 | del_mask<<32`.
    pub meta: PWord<M>,
    /// Precomputed response, written before publication so every helper
    /// stores the same value into `result`.
    pub presult: PWord<M>,
    /// The operation's response; [`RES_BOT`] until the update phase ends.
    pub result: PWord<M>,
    /// AffectSet entry 0: (info-cell address, expected value).
    a0: [PWord<M>; 2],
    /// WriteSet entry 0: (cell address, old, new).
    w0: [PWord<M>; 3],
    // --- end of cache line 1 (8 words) ---
    /// AffectSet entry 1.
    a1: [PWord<M>; 2],
    /// NewSet: info-cell addresses of the new nodes.
    newset: [PWord<M>; MAX_NEW],
    /// AffectSet entry 2.
    a2: [PWord<M>; 2],
    /// AffectSet entry 3.
    a3: [PWord<M>; 2],
    /// WriteSet entry 1.
    w1: [PWord<M>; 3],
    /// Volatile reference count (see module docs). Not persistent state.
    installs: AtomicU32,
    /// Volatile: handle of the owning [`crate::pool::Pool`] (null ⇒ plain
    /// heap allocation). Written once at pool refill, read at retirement.
    owner: AtomicPtr<()>,
    /// Volatile: participant slot + 1 of the process whose pool owns this
    /// descriptor (0 ⇒ exclusive heap / plain allocation — no cross-process
    /// ambiguity). In a *shared* mapped heap the `owner` pointer above is
    /// only meaningful inside the owning process's address space: a peer
    /// performing the final release must not dereference it. Written at
    /// pool refill, read at retirement.
    owner_slot: AtomicU32,
    /// Volatile: set by [`help`] before its first tag CAS. While false the
    /// descriptor is provably private — its address was never installed in
    /// a shared cell, so at refcount zero it can re-enter the pool without
    /// the EBR round-trip (read-only fast-path descriptors, which never call
    /// `help`, hit this on every operation).
    shared: AtomicBool,
}

unsafe impl<M: Persist> Send for Info<M> {}
unsafe impl<M: Persist> Sync for Info<M> {}

impl<M: Persist> PoolItem for Info<M> {
    fn fresh() -> Self {
        crate::counters::info_alloc();
        Info {
            meta: PWord::new(0),
            presult: PWord::new(RES_BOT),
            result: PWord::new(RES_BOT),
            a0: Default::default(),
            w0: Default::default(),
            a1: Default::default(),
            newset: Default::default(),
            a2: Default::default(),
            a3: Default::default(),
            w1: Default::default(),
            installs: AtomicU32::new(0),
            owner: AtomicPtr::new(std::ptr::null_mut()),
            owner_slot: AtomicU32::new(0),
            shared: AtomicBool::new(false),
        }
    }

    fn attach(&mut self, pool: *const ()) {
        *self.owner.get_mut() = pool as *mut ();
    }

    fn attach_slot(&mut self, slot: u32) {
        *self.owner_slot.get_mut() = slot;
    }

    fn count_reuse() {
        crate::counters::info_reuse();
    }
}

impl<M: Persist> Drop for Info<M> {
    fn drop(&mut self) {
        crate::counters::info_free();
    }
}

unsafe impl<M: Persist> PersistWords<M> for Info<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.meta);
        f(&self.presult);
        f(&self.result);
        let (na, nw, nn, _) = self.counts();
        for k in 0..na.max(1) {
            let a = self.affect_slot(k);
            f(&a[0]);
            f(&a[1]);
        }
        for k in 0..nw {
            let w = self.write_slot(k);
            f(&w[0]);
            f(&w[1]);
            f(&w[2]);
        }
        for k in 0..nn {
            f(&self.newset[k]);
        }
    }

    fn used_range(&self) -> (*const u8, usize) {
        let (na, nw, nn, _) = self.counts();
        // Word offsets of the last used field per the #[repr(C)] layout.
        let mut end = 5usize; // header + a0
        if nw >= 1 {
            end = end.max(8);
        }
        if na >= 2 {
            end = end.max(10);
        }
        if nn >= 1 {
            end = end.max(10 + nn);
        }
        if na >= 3 {
            end = end.max(15);
        }
        if na >= 4 {
            end = end.max(17);
        }
        if nw >= 2 {
            end = end.max(20);
        }
        (self as *const Self as *const u8, end * 8)
    }
}

/// Parameters for [`Info::fill`].
pub struct InfoFill<'a> {
    /// Operation type tag (diagnostics only; the engine does not interpret it).
    pub optype: u8,
    /// `(info cell address, expected value)` per affected node, in tagging order.
    pub affect: &'a [(u64, u64)],
    /// `(cell address, old, new)` CAS triples.
    pub write: &'a [(u64, u64, u64)],
    /// Info-cell addresses of newly allocated nodes (pre-tagged by the caller).
    pub newset: &'a [u64],
    /// Bit `i` set ⇒ `affect[i]` is tagged **for deletion** (skip at cleanup).
    pub del_mask: u8,
    /// Precomputed response (encoded).
    pub presult: u64,
}

impl<M: Persist> Info<M> {
    /// Allocates an empty Info with `installs = 0`; [`Info::fill`] sets the
    /// real count. Returned pointer is owned by the ISB reference-count
    /// protocol. Pooled callers draw from [`crate::pool::Pool::take`]
    /// instead and fall back here in passthrough mode.
    pub fn alloc() -> *mut Info<M> {
        Box::into_raw(Box::new(Self::fresh()))
    }

    /// AffectSet slot `k` (layout is packed; see struct docs).
    #[inline]
    fn affect_slot(&self, k: usize) -> &[PWord<M>; 2] {
        match k {
            0 => &self.a0,
            1 => &self.a1,
            2 => &self.a2,
            _ => &self.a3,
        }
    }

    /// WriteSet slot `k`.
    #[inline]
    fn write_slot(&self, k: usize) -> &[PWord<M>; 3] {
        match k {
            0 => &self.w0,
            _ => &self.w1,
        }
    }

    /// Fills the descriptor for one attempt. Only legal while the Info is
    /// unreachable to other threads (never installed / fresh).
    ///
    /// Sets `installs = 1 (RD_q) + |affect| + |newset|`.
    ///
    /// # Safety
    /// `info` must be a live allocation from [`Info::alloc`] that no other
    /// thread can currently reach.
    pub unsafe fn fill(info: *mut Info<M>, f: &InfoFill<'_>) {
        let i = unsafe { &*info };
        debug_assert!(f.affect.len() <= MAX_AFFECT && !f.affect.is_empty());
        debug_assert!(f.write.len() <= MAX_WRITE);
        debug_assert!(f.newset.len() <= MAX_NEW);
        let meta = (f.optype as u64)
            | (f.affect.len() as u64) << 8
            | (f.write.len() as u64) << 16
            | (f.newset.len() as u64) << 24
            | (f.del_mask as u64) << 32;
        M::store(&i.meta, meta);
        M::store(&i.presult, f.presult);
        M::store(&i.result, RES_BOT);
        for (k, &(cell, exp)) in f.affect.iter().enumerate() {
            let slot = i.affect_slot(k);
            M::store(&slot[0], cell);
            M::store(&slot[1], exp);
        }
        for (k, &(cell, old, new)) in f.write.iter().enumerate() {
            let slot = i.write_slot(k);
            M::store(&slot[0], cell);
            M::store(&slot[1], old);
            M::store(&slot[2], new);
        }
        for (k, &cell) in f.newset.iter().enumerate() {
            M::store(&i.newset[k], cell);
        }
        // A freshly filled descriptor is private until `help` runs on it
        // (recycled descriptors may carry a stale true).
        i.shared.store(false, Ordering::Relaxed);
        i.installs.store(1 + f.affect.len() as u32 + f.newset.len() as u32, Ordering::Release);
    }

    #[inline]
    fn counts(&self) -> (usize, usize, usize, u8) {
        let m = M::load(&self.meta);
        (
            ((m >> 8) & 0xff) as usize,
            ((m >> 16) & 0xff) as usize,
            ((m >> 24) & 0xff) as usize,
            ((m >> 32) & 0xff) as u8,
        )
    }

    /// Number of AffectSet entries.
    pub fn naffect(&self) -> usize {
        self.counts().0
    }

    /// `(cell, expected)` of affect entry `k`.
    ///
    /// # Safety
    /// The stored cell address must still be live (EBR pin or quiescence).
    #[inline]
    unsafe fn affect_at(&self, k: usize) -> (&PWord<M>, u64) {
        let slot = self.affect_slot(k);
        let cell = M::load(&slot[0]) as *const PWord<M>;
        let exp = M::load(&slot[1]);
        (unsafe { &*cell }, exp)
    }

    /// Releases `n` references; retires the Info through `guard` at zero.
    ///
    /// # Safety
    /// The caller must actually own `n` references per the protocol in the
    /// module docs; `info` must be live.
    pub unsafe fn release(info: *mut Info<M>, n: u32, guard: &Guard<'_>) {
        if info.is_null() || n == 0 {
            return;
        }
        if M::MAPPED && RELEASE_SUSPENDED.with(|c| c.get()) {
            // Mapped-backend attach replay: the counts a killed process left
            // behind are not trustworthy mid-recovery; the post-scrub census
            // recomputes every live descriptor's count from scratch. The
            // `M::MAPPED` guard compiles the TLS access out of every other
            // model's hot path.
            return;
        }
        if M::SIMULATED {
            // Crash mode: the adversarial image can roll an info cell back to
            // a value whose reference was already released before the crash,
            // so exactly-once accounting cannot hold across crashes. Nothing
            // is reclaimed during a crash run anyway (disabled collector);
            // teardown frees through the deduplicated grave scan.
            return;
        }
        let i = unsafe { &*info };
        let prev = i.installs.fetch_sub(n, Ordering::AcqRel);
        debug_assert!(prev >= n, "info reference-count underflow ({prev} - {n})");
        if prev == n {
            let oslot = i.owner_slot.load(Ordering::Relaxed);
            if oslot != 0 && oslot != my_participant_slot() {
                // Shared heap, and the descriptor's pool belongs to ANOTHER
                // process (a peer, possibly dead): its `owner` pointer is an
                // address in that process's heap — dereferencing it here
                // would be arbitrary-memory corruption. Leak the descriptor
                // instead; the block stays allocated in the arena and the
                // next full (exclusive) attach sweeps it. Bounded: final
                // releases of foreign descriptors only happen when a peer
                // died mid-operation or handed off helping.
                return;
            }
            let owner = i.owner.load(Ordering::Relaxed) as *const ();
            if !owner.is_null() && !i.shared.load(Ordering::Acquire) {
                // Never passed through `help` ⇒ never installed in a shared
                // cell ⇒ only this thread can hold the address: back to the
                // pool without the EBR round-trip. Read-only descriptors
                // (70% of a read-heavy mix) take this path every operation.
                unsafe { crate::pool::give_to::<Info<M>>(owner, info, guard) };
            } else {
                // Shared (or unpooled): epoch-delayed, exactly like a free.
                unsafe { crate::pool::retire_to::<Info<M>>(owner, info, guard) };
            }
        }
    }

    /// Current reference count (tests/diagnostics).
    pub fn installs(&self) -> u32 {
        self.installs.load(Ordering::Acquire)
    }

    /// Attach-time bounds validation of a descriptor read from an
    /// **untrusted** mapped image, before `help` may dereference any of its
    /// cell addresses: the set sizes must be within the engine's capacities,
    /// every used affect/write/newset cell address must satisfy `valid_cell`
    /// (an in-arena 8-byte-span check — helping reads/CASes one word
    /// there), and every write `new` value must satisfy `valid_install`
    /// (callers pass a whole-node span check: `help` installs the value
    /// into a cell the later census walk dereferences as a node). Returns
    /// `false` on any violation.
    pub fn validate_bounds(
        &self,
        valid_cell: impl Fn(u64) -> bool,
        valid_install: impl Fn(u64) -> bool,
    ) -> bool {
        let (na, nw, nn, _) = self.counts();
        if na == 0 || na > MAX_AFFECT || nw > MAX_WRITE || nn > MAX_NEW {
            return false;
        }
        for k in 0..na {
            if !valid_cell(M::load(&self.affect_slot(k)[0])) {
                return false;
            }
        }
        for k in 0..nw {
            let w = self.write_slot(k);
            if !valid_cell(M::load(&w[0])) || !valid_install(M::load(&w[2])) {
                return false;
            }
        }
        for k in 0..nn {
            if !valid_cell(M::load(&self.newset[k])) {
                return false;
            }
        }
        true
    }

    /// Attach-time census fix-up for a descriptor that survived a process
    /// restart in a mapped arena: overwrites the volatile bookkeeping — the
    /// reference count (recomputed from the quiescent structure), the owner
    /// pool handle (the dead process's pool is gone), and the shared flag
    /// (a surviving descriptor was published, so it must take the EBR path
    /// when it is eventually released).
    ///
    /// # Safety
    /// Quiescent exclusive access (attach-time recovery only); `count` must
    /// equal the number of places that reference this descriptor (info
    /// cells holding its address plus `RD_q` slots naming it), `owner`
    /// must be the new structure's Info-pool handle (or null), and
    /// `owner_slot` the attaching process's participant slot + 1 (0 for an
    /// exclusive attach).
    pub unsafe fn reset_after_attach(&self, count: u32, owner: *const (), owner_slot: u32) {
        self.installs.store(count, Ordering::Release);
        self.owner.store(owner as *mut (), Ordering::Release);
        self.owner_slot.store(owner_slot, Ordering::Release);
        self.shared.store(true, Ordering::Release);
    }
}

/// The calling thread's participant slot + 1, derived from the tid-banding
/// convention of shared heaps: participant slot `s` owns tids
/// `s * PART_TIDS .. (s + 1) * PART_TIDS` (see
/// [`nvm::mapped::MappedHeap::tid_band`]). Exclusive-mode descriptors carry
/// `owner_slot == 0` and never reach the comparison, so the convention only
/// binds processes that joined a shared heap.
#[inline]
fn my_participant_slot() -> u32 {
    (nvm::tid::tid() / nvm::mapped::PART_TIDS) as u32 + 1
}

thread_local! {
    /// See [`with_release_suspended`].
    static RELEASE_SUSPENDED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with [`Info::release`] turned into a no-op on this thread.
///
/// Used by the mapped backend's attach-time recovery replay: `help` releases
/// references as a side effect (overwritten installs), but the counts a
/// `SIGKILL`ed process persisted may already be partially decremented, so
/// honouring them could double-release a descriptor into the arena free
/// list. Attach instead suspends the bookkeeping, brings the structure to
/// quiescence, and rebuilds every live descriptor's count with
/// [`Info::reset_after_attach`].
pub fn with_release_suspended<R>(f: impl FnOnce() -> R) -> R {
    RELEASE_SUSPENDED.with(|c| {
        let old = c.replace(true);
        let r = f();
        c.set(old);
        r
    })
}

/// Whether the calling thread is helping over a crash image in which no
/// descriptor address has been recycled since the crash: the crash
/// simulator (which never frees a descriptor) or the attach-time replay
/// (which runs before the attaching process allocates anything). A pending
/// operation's expected values stay valid there — its invoker's pins kept
/// them from being freed up to the crash.
fn replaying_crash_image<M: Persist>() -> bool {
    M::SIMULATED || RELEASE_SUSPENDED.with(|c| c.get())
}

/// Outcome of [`help`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelpOutcome {
    /// The operation took effect (its `result` is set) and cleanup ran.
    Done,
    /// Tagging failed at AffectSet position `i`; every other position that
    /// held this attempt's tag was untagged (backtracked). If `i > 0` the
    /// invoker must allocate a fresh Info for its next attempt
    /// (pointer-freshness of info fields).
    FailedAt(usize),
}

/// The idempotent helping procedure (Algorithm 1, `Help`).
///
/// `invoker` selects the tagging start position: the invoker tags from the
/// first AffectSet element; helpers — who discovered the Info through an
/// already-tagged node — start from the second. Over a crash image (the
/// crash simulator, or the attach-time replay of
/// [`with_release_suspended`]) helpers start from the first too: one
/// attempt's tags persist in any subset, so a helper can meet a surviving
/// later tag while the first one was lost, and an update applied without
/// the first tag in place races other writers of that node. A live helper
/// must not: the first position's expected value was released before the
/// helper could see the descriptor, so its address may have been recycled
/// into that very cell (DESIGN.md §4).
///
/// # Safety
/// `info` must point to a filled, live `Info` reachable per the protocol;
/// the caller must hold an EBR pin (`guard`) covering every node in the
/// descriptor.
pub unsafe fn help<M: Persist, const ARM: u8>(
    info: *mut Info<M>,
    invoker: bool,
    guard: &Guard<'_>,
) -> HelpOutcome {
    let r = unsafe { &*info };
    // From here on the descriptor's address may enter shared cells (tagged
    // or as a backtrack/cleanup placeholder): it must never skip the EBR
    // delay on reuse. Release-ordered so the flag travels with the tag CAS.
    r.shared.store(true, Ordering::Release);
    let tagged_val = tag::tagged(info as u64);
    let untagged_val = tag::untagged(info as u64);
    let (naffect, nwrite, nnew, del_mask) = r.counts();
    let start = if invoker || replaying_crash_image::<M>() { 0 } else { 1 };

    // ---- Tagging phase -------------------------------------------------
    let mut k = start;
    while k < naffect {
        let (cell, expected) = unsafe { r.affect_at(k) };
        debug_assert!(!tag::is_tagged(expected), "expected info values are untagged");
        let mut res = cell.cas(expected, tagged_val);
        if res == tag::tagged(expected)
            && tag::addr_of(expected) != 0
            && M::load(&r.result) == RES_BOT
            && replaying_crash_image::<M>()
        {
            // The cell holds the TAG of the operation X whose cleanup value
            // (untagged X) this pending operation expected: a crash image
            // that rolled X's unflushed cleanup untag back (the tuned
            // placements defer or elide it) — X completed before we
            // gathered. Redo X's idempotent cleanup of this one cell and
            // tag again. Without it a recovering invoker fails here while a
            // durable tag of ours further on survives: the operation
            // recovery reported as `Restart` is completed later by whoever
            // meets that tag (an effect applied twice, or a response lost).
            // Only sound while X's address cannot have been recycled (see
            // `replaying_crash_image`); in a live execution `tagged(X)` here
            // is a recycled address's tag and must fail like any foreign
            // value.
            let _ = cell.cas(res, expected);
            res = cell.cas(expected, tagged_val);
        }
        if !arm::is_tuned(ARM) {
            M::pwb(cell);
        }
        if res != expected && res != tagged_val {
            // A foreign value. Two cases, discriminated by `result`
            // (Algorithm 1's completion check):
            //
            // 1. `result` set ⇒ the operation ALREADY COMPLETED through a
            //    helper: the helper finished tagging, ran the update, stored
            //    the response, and its cleanup released this cell — which a
            //    later operation then re-tagged. Pointer freshness makes the
            //    discrimination sound: cell values never repeat, so a
            //    genuine pre-completion conflict can never be followed by
            //    the cell holding `expected`/our tag again, and the helper's
            //    result store happens-before the cleanup release we are
            //    reading through. Declaring failure here is the one
            //    mistake an invoker must not make — it would re-initialize
            //    its "never-published" nodes while they are reachable.
            //    Re-run the idempotent cleanup (heals crash-resurrected
            //    partial tags during scrub) and report completion.
            // 2. `result` unset ⇒ the attempt genuinely failed: backtrack.
            if M::load(&r.result) != RES_BOT {
                cleanup::<M, ARM>(r, tagged_val, untagged_val, naffect, nnew, del_mask);
                if !arm::is_tuned(ARM) {
                    M::psync();
                } else if arm::coalesces(ARM) && !arm::is_lp(ARM) {
                    M::coal_drain();
                }
                return HelpOutcome::Done;
            }
            // ---- Backtrack phase: untag the prefix, in reverse order ----
            let mut j = k;
            while j > 0 {
                j -= 1;
                let (c, _) = unsafe { r.affect_at(j) };
                let _ = c.cas(tagged_val, untagged_val);
                arm::pwb_arm::<M, ARM>(c);
            }
            // A crash image can also keep a tag of this attempt AFTER the
            // failing position (one attempt's tags persist in any subset,
            // and so do a backtrack's untags). Untag those too, or whoever
            // meets one would help this failed attempt forever. Without a
            // crash no such tag survives a genuine failure, and these CASes
            // fail without a write-back.
            for j in k + 1..naffect {
                let (c, _) = unsafe { r.affect_at(j) };
                if c.cas(tagged_val, untagged_val) == tagged_val {
                    arm::pwb_arm::<M, ARM>(c);
                }
            }
            M::psync();
            return HelpOutcome::FailedAt(k);
        }
        if res == expected {
            // We won the install: release the overwritten info value.
            let old = tag::ptr_of::<Info<M>>(expected);
            if !old.is_null() {
                unsafe { Info::release(old, 1, guard) };
            }
            #[cfg(feature = "fault-inject")]
            if k == 0 {
                crate::fault::first_tag();
            }
        }
        k += 1;
    }
    if arm::is_tuned(ARM) {
        // Batched write-backs of all tags before the phase-ending psync.
        for k in 0..naffect {
            let (cell, _) = unsafe { r.affect_at(k) };
            arm::pwb_arm::<M, ARM>(cell);
        }
    } else {
        // Hardening beyond the paper's pseudocode: positions this caller did
        // not visit (position 0 for helpers) may carry a tag whose write-back
        // the crashed invoker never completed. Re-flush them so no update is
        // ever durable while a tag it depends on is not (DESIGN.md §4).
        for k in 0..start {
            let (cell, _) = unsafe { r.affect_at(k) };
            M::pwb(cell);
        }
    }
    // Link-persist: for a single-affect operation (the queue's enqueue) the
    // tag-phase psync becomes a pfence — free under TSO — and the update-phase
    // psync below completes both phases. Sound because the descriptor and
    // RD_q are already durable (publish psync'd before help). The fence
    // stays: no update (nor `result`) may become durable before the tag it
    // depends on (DESIGN.md §4, §12). Without it an image can hold the link
    // without the tag, and a second pending enqueue that gathered the same
    // last node re-tags that node first in recovery; the first enqueue's
    // node is then linked but never completed, and its tag blocks every
    // later enqueue. Multi-affect ops keep the psync.
    if arm::is_lp(ARM) && naffect == 1 {
        M::pfence();
    } else {
        M::psync();
    }

    // ---- Update phase ---------------------------------------------------
    for w in 0..nwrite {
        let slot = r.write_slot(w);
        let cell = M::load(&slot[0]) as *const PWord<M>;
        let old = M::load(&slot[1]);
        let new = M::load(&slot[2]);
        let cell = unsafe { &*cell };
        let _ = cell.cas(old, new); // idempotent: fails silently on re-execution
        arm::pwb_arm::<M, ARM>(cell);
    }
    let presult = M::load(&r.presult);
    debug_assert_ne!(presult, RES_BOT, "presult must be precomputed before publication");
    M::store(&r.result, presult);
    arm::pwb_arm::<M, ARM>(&r.result);
    M::psync();

    // ---- Cleanup phase --------------------------------------------------
    cleanup::<M, ARM>(r, tagged_val, untagged_val, naffect, nnew, del_mask);
    if !arm::is_tuned(ARM) {
        M::psync();
    } else if arm::coalesces(ARM) && !arm::is_lp(ARM) {
        // The coalesced cleanup lines must be written back before the op
        // returns: the untag CAS released the descriptor's cells, so the
        // noted nodes may be retired/recycled once we return. No fence —
        // cleanup durability stays opportunistic exactly as in TUNED.
        M::coal_drain();
    }
    HelpOutcome::Done
}

/// The idempotent cleanup phase of [`help`]: untag every affect/new cell
/// still holding this operation's tag (deletion-tagged positions stay
/// tagged forever, doubling as Harris mark bits). Shared by the normal
/// epilogue and the completion-detected failure branch.
///
/// Under the `LP` arm the untag write-backs are elided entirely: they run
/// after the update-phase psync with no fence of their own, so no arm ever
/// *guarantees* their durability — a crash may resurrect the tag either way,
/// and the same re-sweep (scrub / lazy helping on encounter) heals it. The
/// elision only widens the window, never the set of recovery behaviours
/// (DESIGN.md §12).
fn cleanup<M: Persist, const ARM: u8>(
    r: &Info<M>,
    tagged_val: u64,
    untagged_val: u64,
    naffect: usize,
    nnew: usize,
    del_mask: u8,
) {
    for k in 0..naffect {
        if del_mask & (1 << k) != 0 {
            continue; // deletion-tagged: stays tagged forever (mark bit)
        }
        // SAFETY: descriptor cells stay live per the help() contract.
        let (cell, _) = unsafe { r.affect_at(k) };
        let _ = cell.cas(tagged_val, untagged_val);
        if !arm::is_lp(ARM) {
            arm::pwb_arm::<M, ARM>(cell);
        }
    }
    for n in 0..nnew {
        let cell = M::load(&r.newset[n]) as *const PWord<M>;
        // SAFETY: as above.
        let cell = unsafe { &*cell };
        let _ = cell.cas(tagged_val, untagged_val);
        if !arm::is_lp(ARM) {
            arm::pwb_arm::<M, ARM>(cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::CountingNvm;
    use reclaim::Collector;

    type M = CountingNvm;

    fn cellv(v: u64) -> Box<PWord<M>> {
        Box::new(PWord::new(v))
    }

    struct Ctx {
        c: Collector,
    }
    impl Ctx {
        fn new() -> Self {
            nvm::tid::set_tid(0);
            Self { c: Collector::new() }
        }
    }

    /// Build a one-write, two-affect info over the given cells.
    #[allow(clippy::too_many_arguments)] // mirrors InfoFill's shape, test-only
    unsafe fn mk_info(
        a0: &PWord<M>,
        a0exp: u64,
        a1: &PWord<M>,
        a1exp: u64,
        w: &PWord<M>,
        old: u64,
        new: u64,
        del_mask: u8,
    ) -> *mut Info<M> {
        let info = Info::<M>::alloc();
        unsafe {
            Info::fill(
                info,
                &InfoFill {
                    optype: 1,
                    affect: &[(a0 as *const _ as u64, a0exp), (a1 as *const _ as u64, a1exp)],
                    write: &[(w as *const _ as u64, old, new)],
                    newset: &[],
                    del_mask,
                    presult: RES_TRUE,
                },
            )
        };
        info
    }

    #[test]
    fn invoker_completes_clean_run() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let a0 = cellv(0);
        let a1 = cellv(0);
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        let out = unsafe { help::<M, 0>(info, true, &g) };
        assert_eq!(out, HelpOutcome::Done);
        assert_eq!(w.load(), 200, "write applied");
        assert_eq!(unsafe { &*info }.result.load(), RES_TRUE);
        // Cleanup untagged a0, a1 stays deletion-tagged.
        assert_eq!(a0.load(), tag::untagged(info as u64));
        assert_eq!(a1.load(), tag::tagged(info as u64));
        // installs: 1(RD) + 2(affect) — nothing released yet.
        assert_eq!(unsafe { &*info }.installs(), 3);
        unsafe { Info::release(info, 3, &g) };
    }

    #[test]
    fn recovering_invoker_heals_a_resurrected_cleanup_tag() {
        // Crash image under a tuned placement: X tagged a0 and completed,
        // but its cleanup untag of a0 was never flushed, so a0 reads
        // tagged(X) again; our operation D had gathered a0 = untagged(X) and
        // its tag on a1 (position 1) is durable, its update is not.
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let (x0, x1, xw) = (cellv(0), cellv(0), cellv(1));
        let x = unsafe { mk_info(&x0, 0, &x1, 0, &xw, 1, 2, 0b10) };
        let a0 = cellv(tag::tagged(x as u64));
        let a1 = cellv(0);
        let w = cellv(100);
        let d = unsafe { mk_info(&a0, tag::untagged(x as u64), &a1, 0, &w, 100, 200, 0b10) };
        a1.store(tag::tagged(d as u64));
        // Attach-time replay re-runs D as its invoker: it must complete, not
        // fail at position 0 and leave its a1 tag for a later helper.
        let out = with_release_suspended(|| unsafe { help::<M, 0>(d, true, &g) });
        assert_eq!(out, HelpOutcome::Done);
        assert_eq!(w.load(), 200, "the pending update applied");
        assert_eq!(unsafe { &*d }.result.load(), RES_TRUE);
        assert_eq!(a0.load(), tag::untagged(d as u64));
        assert_eq!(unsafe { &*x }.installs(), 2, "a0's reference to X released once");
        unsafe { Info::release(x, 2, &g) };
        unsafe { Info::release(d, 3, &g) };
    }

    /// Records the order of persistency events, so a test can check a
    /// placement's ordering (single-threaded use; CAS is not atomic).
    struct Trace;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ev {
        Store(usize),
        Pwb(usize),
        Fence,
    }

    thread_local! {
        static EVENTS: std::cell::RefCell<Vec<Ev>> = const { std::cell::RefCell::new(Vec::new()) };
    }

    fn ev(e: Ev) {
        EVENTS.with(|v| v.borrow_mut().push(e));
    }

    fn addr(w: &PWord<Trace>) -> usize {
        w.addr() as usize
    }

    impl Persist for Trace {
        const NAME: &'static str = "trace";
        type Meta = ();
        fn load(w: &PWord<Self>) -> u64 {
            w.peek()
        }
        fn store(w: &PWord<Self>, v: u64) {
            ev(Ev::Store(addr(w)));
            w.poke(v);
        }
        fn cas(w: &PWord<Self>, old: u64, new: u64) -> u64 {
            let cur = w.peek();
            if cur == old {
                ev(Ev::Store(addr(w)));
                w.poke(new);
            }
            cur
        }
        fn pwb(w: &PWord<Self>) {
            ev(Ev::Pwb(addr(w)));
        }
        fn pfence() {
            ev(Ev::Fence);
        }
        fn psync() {
            ev(Ev::Fence);
        }
        fn pbarrier(w: &PWord<Self>) {
            ev(Ev::Pwb(addr(w)));
            ev(Ev::Fence);
        }
        fn pwb_obj<T: PersistWords<Self> + ?Sized>(obj: &T) {
            obj.each_word(&mut |w| ev(Ev::Pwb(addr(w))));
        }
        fn pbarrier_obj<T: PersistWords<Self> + ?Sized>(obj: &T) {
            Self::pwb_obj(obj);
            ev(Ev::Fence);
        }
    }

    /// Under every arm an operation's tags must be written back and fenced
    /// before its update is stored (and so before its `result`, which
    /// Op-Recover reads as "took effect"): otherwise a crash image can hold
    /// the update without the tag. The link-persist arm drops the one-affect
    /// tag phase's psync (the queue's enqueue) but must keep a fence.
    #[test]
    fn every_arm_fences_the_tag_before_the_update() {
        fn run<const ARM: u8>() {
            let _gate = crate::counters::gate_shared();
            let c = Collector::new();
            let g = c.pin();
            let (a0, w) = (Box::new(PWord::<Trace>::new(0)), Box::new(PWord::<Trace>::new(0)));
            let info = Info::<Trace>::alloc();
            unsafe {
                Info::fill(
                    info,
                    &InfoFill {
                        optype: 1,
                        affect: &[(a0.addr() as u64, 0)],
                        write: &[(w.addr() as u64, 0, 200)],
                        newset: &[],
                        del_mask: 0,
                        presult: RES_TRUE,
                    },
                )
            };
            EVENTS.with(|v| v.borrow_mut().clear());
            assert_eq!(unsafe { help::<Trace, ARM>(info, true, &g) }, HelpOutcome::Done);
            let evs = EVENTS.with(|v| v.take());
            let tag_wb =
                evs.iter().position(|&e| e == Ev::Pwb(addr(&a0))).expect("tag written back");
            let update = evs.iter().position(|&e| e == Ev::Store(addr(&w))).expect("update stored");
            assert!(
                evs[tag_wb..update].contains(&Ev::Fence),
                "arm {ARM}: update stored before the tag was fenced: {evs:?}"
            );
            assert_eq!(w.load(), 200);
            unsafe { Info::release(info, 2, &g) };
        }
        nvm::tid::set_tid(0);
        run::<{ arm::PAPER }>();
        run::<{ arm::TUNED }>();
        run::<{ arm::COALESCED }>();
        run::<{ arm::LP }>();
    }

    #[test]
    fn live_help_never_untags_a_recycled_address() {
        // Live execution: D expected a0 = untagged(X), but X's address was
        // freed and recycled, and the new operation at that address has a0
        // tagged right now. That tag is not D's to clear: D fails at
        // position 0 and the live operation keeps its tag.
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let (x0, x1, xw) = (cellv(0), cellv(0), cellv(1));
        let x = unsafe { mk_info(&x0, 0, &x1, 0, &xw, 1, 2, 0b10) };
        let a0 = cellv(tag::tagged(x as u64));
        let (a1, w) = (cellv(0), cellv(100));
        let d = unsafe { mk_info(&a0, tag::untagged(x as u64), &a1, 0, &w, 100, 200, 0b10) };
        assert_eq!(unsafe { help::<M, 0>(d, true, &g) }, HelpOutcome::FailedAt(0));
        assert_eq!(a0.load(), tag::tagged(x as u64), "the live tag survives");
        assert_eq!((w.load(), a1.load()), (100, 0));
        unsafe { Info::release(x, 3, &g) };
        unsafe { Info::release(d, 3, &g) };
    }

    #[test]
    fn crash_split_tags_are_completed_or_cleared_from_position_zero() {
        // One attempt's tags persist in any subset. (a) Position 0 lost its
        // tag, position 1 kept it: a helper that meets that tag during the
        // replay re-tags position 0 before the update. (b) A backtrack's
        // untag of position 0 persisted but not the one of position 1: the
        // failed attempt's stray tag is cleared instead of being helped
        // forever.
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let (a0, a1, w) = (cellv(0), cellv(0), cellv(100));
        let d = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        a1.store(tag::tagged(d as u64));
        let out = with_release_suspended(|| unsafe { help::<M, 0>(d, false, &g) });
        assert_eq!(out, HelpOutcome::Done);
        assert_eq!((w.load(), a0.load()), (200, tag::untagged(d as u64)));

        let (b0, b1, v) = (cellv(0), cellv(0), cellv(100));
        let e = unsafe { mk_info(&b0, 0, &b1, 0, &v, 100, 200, 0b10) };
        b0.store(tag::untagged(e as u64));
        b1.store(tag::tagged(e as u64));
        assert_eq!(unsafe { help::<M, 0>(e, true, &g) }, HelpOutcome::FailedAt(0));
        assert_eq!((v.load(), b1.load()), (100, tag::untagged(e as u64)));
        unsafe { Info::release(d, 3, &g) };
        unsafe { Info::release(e, 3, &g) };
    }

    #[test]
    fn help_is_idempotent() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let a0 = cellv(0);
        let a1 = cellv(0);
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        assert_eq!(unsafe { help::<M, 0>(info, true, &g) }, HelpOutcome::Done);
        w.store(777); // someone else moved the world on

        // Re-execution (recovery): the tag CAS on a0 fails (the cell now
        // holds untagged(info) ≠ 0), and the completion check sees `result`
        // set — the operation already took effect, so help reports Done
        // WITHOUT re-running the write (Algorithm 1's completion check; an
        // invoker that mistook this for failure would re-initialize nodes
        // that are reachable).
        let out = unsafe { help::<M, 0>(info, true, &g) };
        assert_eq!(out, HelpOutcome::Done);
        assert_eq!(w.load(), 777, "idempotence: update not re-applied");
        assert_eq!(unsafe { &*info }.result.load(), RES_TRUE, "result survives");
        unsafe { Info::release(info, 3, &g) };
    }

    /// The completion check discriminates on `result`, not the cell value:
    /// a *foreign* value (a later operation's tag over our released cell)
    /// with `result` set is completion, with `result` unset it is failure.
    #[test]
    fn foreign_cell_value_is_completion_iff_result_set() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        // Completed op whose a0 was re-tagged by a later operation.
        let a0 = cellv(0);
        let a1 = cellv(0);
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        assert_eq!(unsafe { help::<M, 0>(info, true, &g) }, HelpOutcome::Done);
        a0.store(0xF0F0); // later op's value in the released cell
        w.store(777);
        assert_eq!(
            unsafe { help::<M, 0>(info, true, &g) },
            HelpOutcome::Done,
            "foreign value + result set = the operation completed"
        );
        assert_eq!(w.load(), 777, "update not re-applied");
        unsafe { Info::release(info, 3, &g) };

        // Fresh op whose a0 changed before any tag landed: genuine failure.
        let b0 = cellv(0xBAD0);
        let b1 = cellv(0);
        let w2 = cellv(100);
        let info2 = unsafe { mk_info(&b0, 0, &b1, 0, &w2, 100, 200, 0) };
        assert_eq!(
            unsafe { help::<M, 0>(info2, true, &g) },
            HelpOutcome::FailedAt(0),
            "foreign value + result unset = genuine failure"
        );
        assert_eq!(w2.load(), 100, "failed attempt applies nothing");
        unsafe { Info::release(info2, 3, &g) };
    }

    #[test]
    fn recovery_reexecution_mid_operation_completes() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let a0 = cellv(0);
        let a1 = cellv(0);
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        // Simulate a crash after tagging both nodes but before the update:
        a0.store(tag::tagged(info as u64));
        a1.store(tag::tagged(info as u64));
        let out = unsafe { help::<M, 0>(info, true, &g) };
        assert_eq!(out, HelpOutcome::Done, "re-tagging treats tagged(info) as success");
        assert_eq!(w.load(), 200);
        // Releases happened for... no prior values (tag CAS saw res == tagged).
        assert_eq!(unsafe { &*info }.installs(), 3);
        unsafe { Info::release(info, 3, &g) };
    }

    #[test]
    fn failed_tag_backtracks_prefix() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let a0 = cellv(0);
        let a1 = cellv(0xdead0); // does not match expected 0
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        let out = unsafe { help::<M, 0>(info, true, &g) };
        assert_eq!(out, HelpOutcome::FailedAt(1));
        assert_eq!(a0.load(), tag::untagged(info as u64), "prefix untagged");
        assert_eq!(a1.load(), 0xdead0, "conflicting cell untouched");
        assert_eq!(w.load(), 100, "update not performed");
        assert_eq!(unsafe { &*info }.result.load(), RES_BOT);
        unsafe { Info::release(info, 3, &g) };
    }

    #[test]
    fn helper_starts_at_second_element() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let a0 = cellv(0);
        let a1 = cellv(0);
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        // Invoker tagged a0, then stalled; a helper picks it up.
        a0.store(tag::tagged(info as u64));
        let out = unsafe { help::<M, 0>(info, false, &g) };
        assert_eq!(out, HelpOutcome::Done);
        assert_eq!(w.load(), 200);
        assert_eq!(a0.load(), tag::untagged(info as u64), "helper's cleanup untags position 0");
        unsafe { Info::release(info, 3, &g) };
    }

    #[test]
    fn helper_failure_untags_position_zero() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let a0 = cellv(0);
        let a1 = cellv(0xbeef0);
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        a0.store(tag::tagged(info as u64)); // invoker got this far, then died
        let out = unsafe { help::<M, 0>(info, false, &g) };
        assert_eq!(out, HelpOutcome::FailedAt(1));
        assert_eq!(a0.load(), tag::untagged(info as u64), "helper backtracks the invoker's tag");
        unsafe { Info::release(info, 3, &g) };
    }

    #[test]
    fn overwrite_install_releases_previous_info() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        // Old info sits untagged in a cell with one remaining reference.
        let old = Info::<M>::alloc();
        unsafe {
            Info::fill(
                old,
                &InfoFill {
                    optype: 1,
                    affect: &[(0x8, 0)], // dummy cell address, never dereferenced
                    write: &[],
                    newset: &[],
                    del_mask: 0,
                    presult: RES_TRUE,
                },
            )
        };
        // Manually model: 2 of its refs were already released; 1 cell ref + 1 RD... take 2.
        unsafe { Info::release(old, 1, &g) }; // now installs = 1: the cell below
        let a0 = cellv(tag::untagged(old as u64));
        let a1 = cellv(0);
        let w = cellv(1);
        let info = unsafe { mk_info(&a0, tag::untagged(old as u64), &a1, 0, &w, 1, 2, 0b10) };
        assert_eq!(unsafe { help::<M, 0>(info, true, &g) }, HelpOutcome::Done);
        // The winning tag CAS over `old`'s value released its last reference:
        // old has been retired (freed when the collector drains) — we can't
        // touch it; absence of double-free is checked by the collector drop.
        unsafe { Info::release(info, 3, &g) };
    }

    #[test]
    fn result_value_encoding_roundtrip() {
        let _gate = crate::counters::gate_shared();
        assert_eq!(val_of(res_val(0)), 0);
        assert_eq!(val_of(res_val(12345)), 12345);
        assert!(res_val(0) >= RES_VAL_BASE);
        assert_ne!(res_val(0), RES_BOT);
        assert_ne!(res_val(0), RES_EMPTY);
        // The largest encodable payload maps to u64::MAX without wrapping.
        assert_eq!(val_of(res_val(u64::MAX - RES_VAL_BASE)), u64::MAX - RES_VAL_BASE);
    }

    #[test]
    #[should_panic(expected = "exceeds the encodable range")]
    fn result_value_encoding_rejects_huge_payloads() {
        // Must panic in release builds too: a wrapped encoding would collide
        // with RES_EMPTY/RES_TRUE and recovery would report a wrong response.
        let _ = res_val(u64::MAX - RES_VAL_BASE + 1);
    }

    #[test]
    #[should_panic(expected = "reserved encoding")]
    fn result_value_decoding_rejects_reserved_words() {
        // The decoder guard is unconditional too: silently decoding
        // RES_EMPTY as payload 4-16 would hand recovery a wrong response.
        let _ = val_of(RES_EMPTY);
    }

    #[test]
    fn tuned_help_produces_fewer_syncs() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        // A tid no other unit test runs under, read alone: sibling tests
        // counting persists in parallel cannot perturb the comparison.
        const TID: usize = 45;
        nvm::tid::set_tid(TID);
        let mine = || nvm::stats::snapshot_of(TID..TID + 1);
        let mk = |a0: &PWord<M>, a1: &PWord<M>, w: &PWord<M>| unsafe {
            mk_info(a0, 0, a1, 0, w, 100, 200, 0b10)
        };
        let (a0, a1, w) = (cellv(0), cellv(0), cellv(100));
        let info = mk(&a0, &a1, &w);
        let before = mine();
        {
            let g = ctx.c.pin();
            unsafe { help::<M, 0>(info, true, &g) };
        }
        let paper = mine().since(&before);

        let (b0, b1, v) = (cellv(0), cellv(0), cellv(100));
        let info2 = mk(&b0, &b1, &v);
        let before = mine();
        {
            let g = ctx.c.pin();
            unsafe { help::<M, 1>(info2, true, &g) };
        }
        let tuned = mine().since(&before);
        assert!(tuned.psync < paper.psync, "tuned {tuned:?} vs paper {paper:?}");
        let g = ctx.c.pin();
        unsafe { Info::release(info, 3, &g) };
        unsafe { Info::release(info2, 3, &g) };
    }
}
