//! The [`Persist`] trait and its real-machine implementations.

use crate::coalesce;
use crate::coalesce::lint;
use crate::flush;
use crate::pword::{PWord, PersistWords};
use crate::stats;
use crate::CACHE_LINE;
use std::sync::atomic::Ordering::{Acquire, Release, SeqCst};

/// A persistency model (see crate docs). Monomorphised into every data
/// structure; the real modes compile to plain atomics plus (optionally)
/// `clflush`/`mfence` and counter bumps.
pub trait Persist: Sized + Send + Sync + 'static {
    /// Human-readable mode name (reported by the benchmark harness).
    const NAME: &'static str;
    /// True for the crash simulator (enables extra bookkeeping in callers).
    const SIMULATED: bool = false;
    /// True for the mapped (file-backed) backend: callers gate their
    /// attach-time-only bookkeeping (e.g. release suspension during the
    /// recovery replay) on this so every other model compiles it away.
    const MAPPED: bool = false;
    /// Per-word metadata (empty except for the simulator).
    type Meta: Default + Send + Sync;

    /// Atomic load (Acquire).
    fn load(w: &PWord<Self>) -> u64;
    /// Atomic store (Release).
    fn store(w: &PWord<Self>, v: u64);
    /// Atomic CAS returning the value read.
    fn cas(w: &PWord<Self>, old: u64, new: u64) -> u64;

    /// `pwb`: initiate write-back of the line containing `w` (stand-alone).
    fn pwb(w: &PWord<Self>);
    /// `pfence`: order preceding `pwb`s before subsequent ones.
    fn pfence();
    /// `psync`: wait for all preceding `pwb`s to complete.
    fn psync();

    /// `pbarrier(w)` = `pwb(w); pfence()`, counted as one barrier.
    fn pbarrier(w: &PWord<Self>);

    /// Flush every line of `obj` (stand-alone flushes).
    fn pwb_obj<T: PersistWords<Self> + ?Sized>(obj: &T);
    /// Flush every line of `obj` then fence — the paper's multi-argument
    /// `pbarrier(*opInfo, NewSet)`; counted as one barrier event.
    fn pbarrier_obj<T: PersistWords<Self> + ?Sized>(obj: &T);

    /// Coalescing `pwb`: durability-equivalent to [`Persist::pwb`] (the
    /// write-back is outstanding until the next fence either way), but modes
    /// with a physical flush may defer it into the per-thread
    /// [`crate::coalesce`] line set and write each unique line back once when
    /// the phase-ending fence drains the set. Callers must ensure a drain
    /// (any fence, or [`Persist::coal_drain`]) runs before a noted object can
    /// be freed. Defaults to plain `pwb` for modes without deferral
    /// (simulator, private-cache).
    #[inline]
    fn pwb_coal(w: &PWord<Self>) {
        Self::pwb(w);
    }
    /// Coalescing variant of [`Persist::pwb_obj`]: every line of `obj` is
    /// noted in (or elided against) the pending set instead of being flushed
    /// immediately.
    #[inline]
    fn pwb_obj_coal<T: PersistWords<Self> + ?Sized>(obj: &T) {
        Self::pwb_obj(obj);
    }
    /// Write back all pending coalesced lines *without* fencing. For phases
    /// that end without a fence (the engine's deferred cleanup) but whose
    /// noted objects may be recycled after the operation returns.
    #[inline]
    fn coal_drain() {}

    /// Crash-injection hook; no-op outside the simulator.
    #[inline]
    fn check_crash() {}
}

#[inline]
pub(crate) fn raw_load<M: Persist>(w: &PWord<M>) -> u64 {
    w.v.load(Acquire)
}
#[inline]
pub(crate) fn raw_store<M: Persist>(w: &PWord<M>, v: u64) {
    w.v.store(v, Release)
}
#[inline]
pub(crate) fn raw_cas<M: Persist>(w: &PWord<M>, old: u64, new: u64) -> u64 {
    match w.v.compare_exchange(old, new, SeqCst, SeqCst) {
        Ok(prev) => prev,
        Err(prev) => prev,
    }
}

/// Note every cache line of `[p, p+len)` in the coalescing set, counting New
/// lines as issued `pwb`s and duplicates as elisions; `flush_through` handles
/// capacity overflow (immediate write-back).
#[inline]
pub(crate) fn coal_note_range(p: *const u8, len: usize, mut flush_through: impl FnMut(u64)) {
    let mut line = coalesce::line_of(p);
    let end = p as u64 + len as u64;
    while line < end {
        match coalesce::note(line as *const u8) {
            coalesce::Note::New => stats::count_pwb(1),
            coalesce::Note::Dup => stats::count_pwb_elided(1),
            coalesce::Note::Full => {
                flush_through(line);
                stats::count_pwb(1);
            }
        }
        line += CACHE_LINE as u64;
    }
}

/// The body of a persistency model that executes real flushes: plain
/// atomic word access, `pwb` = `clflush`, `psync` = `mfence`, `pfence` =
/// no-op under TSO, coalesced lines written back at the next fence, and
/// every instruction counted. [`RealNvm`] and [`crate::mapped::MappedNvm`]
/// both expand it, so their behaviour and their counts cannot drift apart.
macro_rules! real_flush_model {
    () => {
        #[inline]
        fn load(w: &$crate::pword::PWord<Self>) -> u64 {
            $crate::persist::raw_load(w)
        }
        #[inline]
        fn store(w: &$crate::pword::PWord<Self>, v: u64) {
            $crate::persist::raw_store(w, v)
        }
        #[inline]
        fn cas(w: &$crate::pword::PWord<Self>, old: u64, new: u64) -> u64 {
            $crate::persist::raw_cas(w, old, new)
        }

        #[inline]
        fn pwb(w: &$crate::pword::PWord<Self>) {
            $crate::coalesce::lint::note_pwb(w.addr());
            // SAFETY: `w.addr()` points into the live `PWord` behind `w`.
            unsafe { $crate::flush::clflush(w.addr()) };
            $crate::stats::count_pwb(1);
        }
        #[inline]
        fn pfence() {
            // TSO: flushes of this implementation are already ordered;
            // counted only. Pending coalesced lines must still be written
            // back here so they are ordered before post-fence flushes.
            Self::coal_drain();
            $crate::coalesce::lint::fence();
            $crate::stats::count_pfence();
        }
        #[inline]
        fn psync() {
            Self::coal_drain();
            $crate::coalesce::lint::fence();
            $crate::flush::mfence();
            $crate::stats::count_psync();
        }
        #[inline]
        fn pbarrier(w: &$crate::pword::PWord<Self>) {
            Self::coal_drain();
            $crate::coalesce::lint::fence();
            // SAFETY: as in `pwb`.
            unsafe { $crate::flush::clflush(w.addr()) };
            $crate::flush::mfence();
            $crate::stats::count_pbarrier(1);
        }
        #[inline]
        fn pwb_obj<T: $crate::pword::PersistWords<Self> + ?Sized>(obj: &T) {
            let (p, len) = obj.used_range();
            // SAFETY: `used_range` is a sub-range of the live object behind
            // `obj` (PersistWords safety contract).
            let n = unsafe { $crate::flush::clflush_range(p, len) };
            $crate::stats::count_pwb(n);
        }
        #[inline]
        fn pbarrier_obj<T: $crate::pword::PersistWords<Self> + ?Sized>(obj: &T) {
            Self::coal_drain();
            $crate::coalesce::lint::fence();
            let (p, len) = obj.used_range();
            // SAFETY: as in `pwb_obj`.
            let n = unsafe { $crate::flush::clflush_range(p, len) };
            $crate::flush::mfence();
            $crate::stats::count_pbarrier(n);
        }

        #[inline]
        fn pwb_coal(w: &$crate::pword::PWord<Self>) {
            match $crate::coalesce::note(w.addr()) {
                $crate::coalesce::Note::New => $crate::stats::count_pwb(1),
                $crate::coalesce::Note::Dup => $crate::stats::count_pwb_elided(1),
                $crate::coalesce::Note::Full => {
                    // SAFETY: live `PWord` behind `w`.
                    unsafe { $crate::flush::clflush(w.addr()) };
                    $crate::stats::count_pwb(1);
                }
            }
        }
        #[inline]
        fn pwb_obj_coal<T: $crate::pword::PersistWords<Self> + ?Sized>(obj: &T) {
            let (p, len) = obj.used_range();
            // SAFETY: overflow lines lie inside the live object
            // (PersistWords safety contract).
            $crate::persist::coal_note_range(p, len, |line| unsafe {
                $crate::flush::clflush(line as *const u8)
            });
        }
        #[inline]
        fn coal_drain() {
            // SAFETY: every pending line was noted from an object that is,
            // per the `pwb_coal` contract, still live at the draining fence
            // (mapped-heap objects are never unmapped while attached).
            let n = $crate::coalesce::drain(|line| unsafe {
                $crate::flush::clflush(line as *const u8)
            });
            if n > 0 {
                $crate::stats::count_lines_coalesced(n);
            }
        }
    };
}
pub(crate) use real_flush_model;

/// Shared-cache model on real hardware: `pwb` = `clflush`, `psync` =
/// `mfence`, `pfence` = no-op under TSO (as in the paper's evaluation).
/// All persistency instructions are counted.
pub struct RealNvm;

impl Persist for RealNvm {
    const NAME: &'static str = "real";
    type Meta = ();

    real_flush_model!();
}

/// Shared-cache model with *counted but not executed* flushes. Portable,
/// used by CI and by counting-only experiments where flush latency is not
/// itself under study.
pub struct CountingNvm;

impl Persist for CountingNvm {
    const NAME: &'static str = "counting";
    type Meta = ();

    #[inline]
    fn load(w: &PWord<Self>) -> u64 {
        raw_load(w)
    }
    #[inline]
    fn store(w: &PWord<Self>, v: u64) {
        raw_store(w, v)
    }
    #[inline]
    fn cas(w: &PWord<Self>, old: u64, new: u64) -> u64 {
        raw_cas(w, old, new)
    }

    #[inline]
    fn pwb(w: &PWord<Self>) {
        lint::note_pwb(w.addr());
        stats::count_pwb(1);
    }
    #[inline]
    fn pfence() {
        Self::coal_drain();
        lint::fence();
        stats::count_pfence();
    }
    #[inline]
    fn psync() {
        Self::coal_drain();
        lint::fence();
        stats::count_psync();
    }
    #[inline]
    fn pbarrier(_w: &PWord<Self>) {
        Self::coal_drain();
        lint::fence();
        stats::count_pbarrier(1);
    }
    #[inline]
    fn pwb_obj<T: PersistWords<Self> + ?Sized>(obj: &T) {
        let (p, len) = obj.used_range();
        stats::count_pwb(flush::lines_in_range(p, len));
    }
    #[inline]
    fn pbarrier_obj<T: PersistWords<Self> + ?Sized>(obj: &T) {
        Self::coal_drain();
        lint::fence();
        let (p, len) = obj.used_range();
        stats::count_pbarrier(flush::lines_in_range(p, len));
    }

    #[inline]
    fn pwb_coal(w: &PWord<Self>) {
        match coalesce::note(w.addr()) {
            coalesce::Note::New | coalesce::Note::Full => stats::count_pwb(1),
            coalesce::Note::Dup => stats::count_pwb_elided(1),
        }
    }
    #[inline]
    fn pwb_obj_coal<T: PersistWords<Self> + ?Sized>(obj: &T) {
        let (p, len) = obj.used_range();
        coal_note_range(p, len, |_| {});
    }
    #[inline]
    fn coal_drain() {
        let n = coalesce::drain(|_| {});
        if n > 0 {
            stats::count_lines_coalesced(n);
        }
    }
}

/// Private-cache model: shared variables are always persistent, so every
/// persistency instruction is free (and uncounted). Used for Figure 4 and
/// Figure 7 (middle/right).
pub struct NoPersist;

impl Persist for NoPersist {
    const NAME: &'static str = "private-cache";
    type Meta = ();

    #[inline]
    fn load(w: &PWord<Self>) -> u64 {
        raw_load(w)
    }
    #[inline]
    fn store(w: &PWord<Self>, v: u64) {
        raw_store(w, v)
    }
    #[inline]
    fn cas(w: &PWord<Self>, old: u64, new: u64) -> u64 {
        raw_cas(w, old, new)
    }

    #[inline]
    fn pwb(_w: &PWord<Self>) {}
    #[inline]
    fn pfence() {}
    #[inline]
    fn psync() {}
    #[inline]
    fn pbarrier(_w: &PWord<Self>) {}
    #[inline]
    fn pwb_obj<T: PersistWords<Self> + ?Sized>(_obj: &T) {}
    #[inline]
    fn pbarrier_obj<T: PersistWords<Self> + ?Sized>(_obj: &T) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tid;

    #[test]
    fn counting_mode_counts() {
        let tids = stats::test_tids::PERSIST_COUNTING;
        tid::set_tid(tids.start);
        let before = stats::snapshot_of(tids.clone());
        let w: PWord<CountingNvm> = PWord::new(0);
        CountingNvm::pwb(&w);
        CountingNvm::pbarrier(&w);
        CountingNvm::psync();
        let d = stats::snapshot_of(tids).since(&before);
        assert_eq!(d.pwb, 1);
        assert_eq!(d.pbarrier, 1);
        assert_eq!(d.psync, 1);
    }

    #[test]
    fn no_persist_counts_nothing() {
        let tids = stats::test_tids::PERSIST_NONE;
        tid::set_tid(tids.start);
        let before = stats::snapshot_of(tids.clone());
        let w: PWord<NoPersist> = PWord::new(0);
        NoPersist::pwb(&w);
        NoPersist::pbarrier(&w);
        NoPersist::psync();
        let d = stats::snapshot_of(tids).since(&before);
        assert_eq!(d, stats::Snapshot::default());
    }

    #[test]
    fn real_mode_flushes_and_counts() {
        let tids = stats::test_tids::PERSIST_REAL;
        tid::set_tid(tids.start);
        let before = stats::snapshot_of(tids.clone());
        let w: PWord<RealNvm> = PWord::new(7);
        RealNvm::pwb(&w);
        RealNvm::psync();
        assert_eq!(w.load(), 7, "flushing must not corrupt the value");
        let d = stats::snapshot_of(tids).since(&before);
        assert_eq!(d.pwb, 1);
        assert_eq!(d.psync, 1);
    }

    #[test]
    fn coalesced_pwb_counts_at_issue_and_drains_at_fence() {
        tid::set_tid(stats::test_tids::PERSIST_COALESCED.start);
        for_real_and_counting();

        fn one<M: Persist>() {
            // Two words in the same line (ProcRec-style layout).
            #[repr(C, align(64))]
            struct Pair<M: Persist>(PWord<M>, PWord<M>);
            let pair: Pair<M> = Pair(PWord::new(1), PWord::new(2));
            let snap = || stats::snapshot_of(stats::test_tids::PERSIST_COALESCED);

            let before = snap();
            M::pwb_coal(&pair.0);
            M::pwb_coal(&pair.1); // same line: elided
            let d = snap().since(&before);
            assert_eq!(d.pwb, 1, "{}: first note counts as a pwb", M::NAME);
            assert_eq!(d.pwb_elided, 1, "{}: duplicate line elided", M::NAME);
            assert_eq!(d.lines_coalesced, 0, "{}: nothing drained yet", M::NAME);

            M::psync();
            let d = snap().since(&before);
            assert_eq!(d.pwb, 1, "{}: drain adds no pwb", M::NAME);
            assert_eq!(d.lines_coalesced, 1, "{}: one line drained", M::NAME);
            assert_eq!(d.psync, 1);
            assert_eq!(pair.0.load(), 1, "flush must not corrupt");
            assert_eq!(pair.1.load(), 2);

            // After the drain the same line counts fresh again, and a pfence
            // also drains (ordering would be lost otherwise).
            let before = snap();
            M::pwb_coal(&pair.0);
            M::pfence();
            let d = snap().since(&before);
            assert_eq!(d.pwb, 1, "{}", M::NAME);
            assert_eq!(d.lines_coalesced, 1, "{}: pfence drains too", M::NAME);
        }
        fn for_real_and_counting() {
            one::<RealNvm>();
            one::<CountingNvm>();
        }
    }

    #[test]
    fn cas_returns_read_value_in_all_modes() {
        fn check<M: Persist>() {
            let w: PWord<M> = PWord::new(1);
            assert_eq!(M::cas(&w, 1, 2), 1);
            assert_eq!(M::cas(&w, 1, 3), 2);
            assert_eq!(M::load(&w), 2);
        }
        check::<RealNvm>();
        check::<CountingNvm>();
        check::<NoPersist>();
    }
}
