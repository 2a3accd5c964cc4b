//! # `isb` — ISB-tracking: detectably recoverable lock-free data structures
//!
//! Rust reproduction of Attiya, Ben-Baruch, Fatourou, Hendler, Kosmas,
//! *"Tracking in Order to Recover: Detectable Recovery of Lock-Free Data
//! Structures"* (SPAA 2020).
//!
//! **Detectable recovery** means: after a system-wide crash, every process
//! can determine whether its interrupted operation took effect and, if so,
//! obtain its response — without full-fledged logging. ISB-tracking piggy-
//! backs this on the *Info-structure-based helping* already present in many
//! lock-free designs: each update installs a descriptor ([`engine::Info`])
//! in the nodes it affects (tagging = soft-locking them), a per-process
//! persistent pointer `RD_q` names the descriptor of the attempt in flight,
//! and a `result` field inside the descriptor — persisted before the
//! operation unlocks anything — carries the response across the crash.
//!
//! ## Structures
//! * [`list::RList`] — detectably recoverable sorted linked list (paper §4),
//!   the one-bucket instantiation of the head-parameterized ordered-set core
//!   in [`set_core`].
//! * [`hashmap::RHashMap`] — split-ordered, detectably recoverable hash
//!   map: one [`set_core`] list with permanent, guarded bucket sentinels and
//!   a volatile bucket directory that grows (DESIGN.md §8).
//! * [`queue::RQueue`] — ISB-tracked MS-queue (paper §5 / supplementary B.2).
//! * [`bst::RBst`] — detectably recoverable external BST (paper §6).
//! * [`exchanger::RExchanger`] — detectably recoverable exchanger (paper §6).
//! * [`stack::RStack`] — direct-tracked elimination stack (paper §1/§5):
//!   `RD_q` announces *nodes* instead of descriptors, claim stamps
//!   arbitrate pops across a crash.
//! * [`store::Store`] — one mapped heap hosting many named structures
//!   (catalog + shared recovery area + union census/sweep, DESIGN.md §11).
//!
//! ## Model parameters: `M` and `ARM`
//!
//! Every structure is generic over two parameters that are monomorphised
//! away:
//!
//! * `M:` [`nvm::Persist`] — the persistency model. [`nvm::RealNvm`]
//!   executes and counts real flushes, [`nvm::CountingNvm`] only counts,
//!   [`nvm::NoPersist`] is the private-cache model, [`nvm::SimNvm`] is the
//!   adversarial crash simulator, and [`nvm::MappedNvm`] pairs real flushes
//!   with a file-backed heap ([`nvm::mapped`]) so the structure survives an
//!   actual process death. Every structure implements
//!   [`recovery::MappedLayout`], so a [`store::Store`] can host it as a
//!   named entry of one heap and recover it on re-open (remap, Op-Recover
//!   replay per process, scrub, census + leak sweep).
//! * `const ARM: u8` — the persistency *placement*, one of four cumulative
//!   arms ([`arm`]): [`arm::PAPER`] is the paper's general ROpt-ISB
//!   placement ("Isb"); [`arm::TUNED`] ("Isb-Opt") defers the durability
//!   of `CP_q := 1` and batches tag write-backs, saving one `psync` per
//!   operation (see [`recovery`]'s module docs); [`arm::COALESCED`]
//!   ("Isb-Coal") adds per-operation cache-line flush coalescing; and
//!   [`arm::LP`] ("Isb-LP") adds the link-persist elisions.
//!
//! ## Memory: pools and recycling
//!
//! Descriptors and nodes are drawn from per-thread, epoch-recycled pools
//! ([`pool`]): retirement routes through the EBR collector, so an address
//! re-enters circulation only after two global epoch advances — the same
//! delay that makes deallocation safe, preserving the info-pointer ABA
//! argument (DESIGN.md §5/§9). Never-published objects skip the EBR
//! round-trip. Under the mapped backend the same pools draw from the
//! persistent arena instead of the process heap.
//!
//! ## Quick start
//! ```
//! use isb::list::RList;
//! use nvm::CountingNvm;
//!
//! nvm::tid::set_tid(0); // register this thread as process 0
//! let list: RList<CountingNvm> = RList::new();
//! assert!(list.insert(0, 42));
//! assert!(list.find(0, 42));
//! assert!(!list.insert(0, 42)); // duplicate
//! assert!(list.delete(0, 42));
//! assert!(!list.find(0, 42));
//! ```

#![warn(missing_docs)]

pub mod arm;
pub mod bst;
pub mod counters;
pub mod engine;
pub mod exchanger;
pub mod fault;
pub mod hashmap;
pub mod list;
pub mod pool;
pub mod queue;
pub mod recovery;
pub mod resptable;
pub mod set_core;
pub mod stack;
pub mod store;
pub mod tag;

/// Operation type tags stored in Info descriptors (diagnostics only).
pub mod optype {
    /// List/BST insert.
    pub const INSERT: u8 = 1;
    /// List/BST delete.
    pub const DELETE: u8 = 2;
    /// List/BST find.
    pub const FIND: u8 = 3;
    /// Queue enqueue.
    pub const ENQ: u8 = 4;
    /// Queue dequeue.
    pub const DEQ: u8 = 5;
}
