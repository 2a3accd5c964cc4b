//! Crash points for multi-process recovery tests.
//!
//! With the `fault-inject` feature, a test process installs a hook
//! (`set_hook`) that the library calls at named points (`Point`), so it
//! can `SIGKILL` itself exactly there ([`nvm::die_sigkill`]). Without the
//! feature nothing is compiled in but a pass-through.

/// Runs `f` as a structural insert's help call when `structural` is set,
/// so the help's [`Point::StructuralFirstTag`] fires.
#[inline(always)]
pub(crate) fn scope<R>(structural: bool, f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "fault-inject")]
    if structural {
        let old = IN_STRUCTURAL.with(|c| c.replace(true));
        let r = f();
        IN_STRUCTURAL.with(|c| c.set(old));
        return r;
    }
    let _ = structural;
    f()
}

#[cfg(feature = "fault-inject")]
pub use hook::*;

#[cfg(feature = "fault-inject")]
mod hook {
    use std::sync::Mutex;

    /// Where the hook is called.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Point {
        /// A structural insert ([`crate::set_core::SetCore::insert_untracked`])
        /// just won the tag of its first affected cell: its descriptor is
        /// published in `SD_q` and tagged on one cell only.
        StructuralFirstTag,
    }

    static HOOK: Mutex<Option<fn(Point)>> = Mutex::new(None);

    thread_local! {
        pub(super) static IN_STRUCTURAL: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    /// Installs (or, with `None`, removes) the process-wide hook.
    pub fn set_hook(hook: Option<fn(Point)>) {
        *HOOK.lock().unwrap_or_else(|e| e.into_inner()) = hook;
    }

    /// Called by `help` after it won the tag of AffectSet position 0.
    pub(crate) fn first_tag() {
        if IN_STRUCTURAL.with(|c| c.get()) {
            let hook = *HOOK.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(h) = hook {
                h(Point::StructuralFirstTag);
            }
        }
    }
}

#[cfg(feature = "fault-inject")]
use hook::IN_STRUCTURAL;
