//! # `nvm` — persistency substrate for ISB-tracking
//!
//! This crate models the memory system of Attiya et al., *"Tracking in Order
//! to Recover"* (SPAA 2020), Section 2:
//!
//! * **Shared cache model** (explicit epoch persistency): main memory is
//!   non-volatile, caches are volatile. A [`Persist::pwb`] (persistent
//!   write-back) initiates a write-back of the cache line, [`Persist::pfence`]
//!   orders preceding `pwb`s before subsequent ones, and [`Persist::psync`]
//!   waits until all previous `pwb`s complete. `pbarrier = pwb; pfence`.
//! * **Private cache model**: shared variables are always persistent; all
//!   persistency instructions are free.
//!
//! Like the paper's own evaluation (no NVRAM machine was available to the
//! authors either), the *real* mode simulates `pwb` with `clflush` and
//! `psync` with `mfence` on x86_64. Under TSO `pfence` needs no simulation.
//!
//! The substrate is exposed through the [`Persist`] trait, which is threaded
//! through every data structure as a type parameter and monomorphised away:
//!
//! | impl            | `pwb`            | `psync`   | use                          |
//! |-----------------|------------------|-----------|------------------------------|
//! | [`RealNvm`]     | `clflush` + stats| `mfence`  | shared-cache benchmarks      |
//! | [`CountingNvm`] | stats only       | stats only| portable counting runs / CI  |
//! | [`NoPersist`]   | nothing          | nothing   | private-cache model          |
//! | [`SimNvm`]      | shadow tracking  | commit    | crash-injection testing      |
//! | [`MappedNvm`]   | `clflush` + stats| `mfence`  | file-backed heap, restart    |
//!
//! The first four keep all persistent words on the process heap: a "crash"
//! is simulated inside one address space. [`MappedNvm`] pairs the same
//! instruction model with [`mapped::MappedHeap`], a file-backed `mmap` arena
//! whose contents survive the death of the process — the backend real
//! restart-recovery runs on (see [`mapped`]).
//!
//! ## Safety contracts worth knowing
//!
//! * [`PWord::peek`] / [`PWord::poke`] bypass the instrumented [`Persist`]
//!   path. They are **only** for the crash simulator's image builder and for
//!   quiescent teardown/diagnostics — using them on a live structure skips
//!   shadow tracking and can invalidate a crash scenario.
//! * [`flush::clflush`] / [`flush::clflush_range`] are `unsafe`: the caller
//!   must pass addresses inside a live allocation (flushing an unmapped line
//!   faults).
//!
//! Every word of persistent state is a [`PWord`]: an `AtomicU64` plus
//! per-mode metadata (empty except under [`SimNvm`]). Pointers are stored in
//! `PWord`s with a 1-bit tag in the LSB (all nodes are at least 8-aligned).
//!
//! [`SimNvm`] additionally supports *system-wide crash* injection: a global
//! flag makes every instrumented memory operation terminate its thread, and
//! [`sim::build_crash_image`] reconstructs an adversarial NVM image (per
//! word: last guaranteed-persisted value or latest volatile value) before
//! recovery code runs. See `DESIGN.md` §3 for semantics and limitations.
//!
//! ## Flush coalescing
//!
//! [`Persist::pwb_coal`] / [`Persist::pwb_obj_coal`] are coalescing entry
//! points used by the batched persist phases of the data-structure layer:
//! instead of flushing immediately they note the target cache line in a
//! per-thread dedupe set ([`coalesce`]), and the phase-ending fence writes
//! each unique line back once. Durability is unchanged — an un-fenced `pwb`
//! is outstanding until the next fence in every model, which is also exactly
//! how [`SimNvm`] shadows it — so coalescing alters flush *counts*, never
//! the set of reachable crash images. See `DESIGN.md` §12.

#![warn(missing_docs)]

pub mod addr_hash;
pub mod coalesce;
pub mod flush;
pub mod liveness;
pub mod mapped;
pub mod pad;
pub mod persist;
pub mod pword;
pub mod sim;
pub mod stats;
pub mod tid;

pub use liveness::{die_sigkill, PidLiveness, ProcProbe};
pub use mapped::{MapError, MappedHeap, MappedNvm};
pub use pad::CachePadded;
pub use persist::{CountingNvm, NoPersist, Persist, RealNvm};
pub use pword::{PWord, PersistWords};
pub use sim::SimNvm;

/// Maximum number of registered processes (threads). Process ids are used to
/// index per-process recovery data (`RD_q`, `CP_q`), persistency-statistics
/// slots and reclamation slots, and are packed into 6 bits by some baselines.
pub const MAX_PROCS: usize = 64;

/// Cache-line size assumed for flushing and padding.
pub const CACHE_LINE: usize = 64;
