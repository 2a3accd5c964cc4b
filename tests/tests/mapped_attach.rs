//! Attach-time corruption matrix for the mapped backend: every damaged-image
//! shape must fail with a **typed** error (`MapError` via `AttachError`) —
//! never undefined behaviour — and the benign torn states must heal. Covers
//! the superblock/bitmap/header shapes, cross-kind opens of catalog entries
//! across all five structure kinds, images of the retired single-structure
//! heap format, and catalog-entry corruption. Complements the in-crate
//! roundtrip tests and the cross-process SIGKILL harness (`restart.rs`).

use isb::recovery::{AttachError, RecArea};
use isb::store::Store;
use nvm::mapped::MappedHeap;
use nvm::{MapError, MappedNvm};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SHARDS: usize = 4;
/// Catalog name of the map the single-structure cases build.
const MAP: &str = "map";
const HEAP_BYTES: usize = 2 * 1024 * 1024;

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "isb_corrupt_{}_{}_{name}.heap",
        std::process::id(),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().subsec_nanos()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Builds a populated one-map store at `path` and detaches cleanly.
fn mk_map(path: &PathBuf) {
    nvm::tid::set_tid(0);
    let store = Store::open_sized(path, HEAP_BYTES).unwrap();
    assert!(store.summary().heap.created);
    let map = store.hashmap::<0>(MAP, SHARDS).unwrap();
    for k in 1..=128u64 {
        assert!(map.insert(0, k));
    }
}

/// Overwrites `bytes` at `offset` in the heap file.
fn patch(path: &PathBuf, offset: u64, bytes: &[u8]) {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(bytes).unwrap();
}

fn read_at(path: &PathBuf, offset: u64) -> u64 {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = std::fs::File::open(path).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut b = [0u8; 8];
    f.read_exact(&mut b).unwrap();
    u64::from_le_bytes(b)
}

fn read_word(path: &PathBuf, word: u64) -> u64 {
    read_at(path, word * 8)
}

/// Root-directory scan (superblock words 16..): payload offset for `key`.
fn root_offset(path: &PathBuf, key: u64) -> u64 {
    for s in 0..16u64 {
        if read_word(path, 16 + 2 * s) == key {
            return read_word(path, 16 + 2 * s + 1);
        }
    }
    panic!("root key {key:#x} not registered");
}

fn attach(path: &PathBuf) -> Result<(), AttachError> {
    Store::open_sized(path, HEAP_BYTES)?.hashmap::<0>(MAP, SHARDS).map(|_| ())
}

/// File offset of catalog slot 0's root block (entry word 2).
fn entry_root_offset(path: &PathBuf) -> u64 {
    read_at(path, root_offset(path, 0x4341_5441 /* rootkeys::CATALOG */) + 16)
}

/// Unwraps the heap-level error inside an `AttachError`.
fn map_err(r: Result<(), AttachError>) -> MapError {
    match r {
        Err(AttachError::Map(e)) => e,
        Err(e) => panic!("expected a heap-level MapError, got {e}"),
        Ok(()) => panic!("damaged heap must not attach"),
    }
}

#[test]
fn truncated_file_fails_typed() {
    let path = tmp("trunc");
    mk_map(&path);
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(HEAP_BYTES as u64 / 2).unwrap();
    drop(f);
    match map_err(attach(&path)) {
        MapError::Truncated { expected, found } => {
            assert_eq!(expected, HEAP_BYTES as u64);
            assert_eq!(found, HEAP_BYTES as u64 / 2);
        }
        e => panic!("expected Truncated, got {e}"),
    }
    // Sub-superblock truncation as well.
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(100).unwrap();
    drop(f);
    assert!(matches!(map_err(attach(&path)), MapError::Truncated { .. }));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_magic_fails_typed() {
    let path = tmp("magic");
    mk_map(&path);
    patch(&path, 0, &0xBAD0_BAD0_BAD0_BAD0u64.to_le_bytes());
    match map_err(attach(&path)) {
        MapError::BadMagic(m) => assert_eq!(m, 0xBAD0_BAD0_BAD0_BAD0),
        e => panic!("expected BadMagic, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_version_fails_typed() {
    let path = tmp("version");
    mk_map(&path);
    patch(&path, 8, &99u64.to_le_bytes()); // word 1: version
    match map_err(attach(&path)) {
        MapError::BadVersion(v) => assert_eq!(v, 99),
        e => panic!("expected BadVersion, got {e}"),
    }
    // A heap of the previous format (v3: per-shard hash-map bucket heads)
    // must fail typed too, never attach as a split-ordered map.
    assert_eq!(nvm::mapped::VERSION, 4);
    patch(&path, 8, &3u64.to_le_bytes());
    match map_err(attach(&path)) {
        MapError::BadVersion(v) => assert_eq!(v, 3),
        e => panic!("expected BadVersion, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn invalid_base_fails_typed() {
    let path = tmp("base");
    mk_map(&path);
    // Word 2: the recorded base. An unaligned/garbage base is rejected
    // before anything is mapped.
    patch(&path, 16, &0x0123_4567_u64.to_le_bytes());
    assert!(matches!(map_err(attach(&path)), MapError::BadSuperblock(_)));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn superblock_from_a_different_base_fails_typed_not_ub() {
    let path = tmp("rebase");
    mk_map(&path);
    // Rewrite the recorded base to a *valid-looking but wrong* page-aligned
    // address: the mapping then lands somewhere the structure's absolute
    // pointers do not reference. The pre-recovery validation walk must turn
    // this into a typed error instead of chasing wild pointers.
    let old = read_word(&path, 2);
    let wrong = old ^ 0x2000_0000_0000; // flip a high bit: stays aligned & canonical
    patch(&path, 16, &wrong.to_le_bytes());
    match map_err(attach(&path)) {
        MapError::CorruptPointer { addr } => {
            // The first out-of-window pointer is reported verbatim.
            assert_ne!(addr, 0);
        }
        // If the kernel could not map at `wrong` either, the relocation
        // pass rebases *relative to the recorded base*, which scrambles the
        // pointers the same way — still a typed CorruptPointer.
        e => panic!("expected CorruptPointer, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pointer_at_mapping_end_fails_typed_not_oob() {
    let path = tmp("oob");
    mk_map(&path);
    // Point the map's list head (the one word of its catalog entry's root
    // block) at the very last 8-aligned address of the mapping: it is
    // aligned and *starts* inside the arena, but reading a whole node there
    // would run past the mapping end. The span-aware validation must reject
    // it before any dereference.
    let base = read_word(&path, 2);
    let size = read_word(&path, 3);
    let head_off = entry_root_offset(&path);
    assert_eq!(read_at(&path, head_off) & 7, 0, "layout drifted: root word is not a node");
    patch(&path, head_off, &(base + size - 8).to_le_bytes());
    match map_err(attach(&path)) {
        MapError::CorruptPointer { addr } => assert_eq!(addr, base + size - 8),
        e => panic!("expected CorruptPointer, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bitmap_overlapping_data_region_fails_typed() {
    let path = tmp("bmfit");
    mk_map(&path);
    // Shrink the recorded data offset to the superblock page: the commit
    // bitmap would then overlap the data region, and bm_set/bm_clear would
    // silently scribble over block payloads. Must be a typed error.
    patch(&path, 6 * 8, &4096u64.to_le_bytes());
    assert!(matches!(map_err(attach(&path)), MapError::BadSuperblock(_)));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_bitmap_fails_typed() {
    let path = tmp("bitmap");
    mk_map(&path);
    // The commit bitmap starts at word 7's offset (PAGE = 4096). Set a bit
    // in the middle of a committed block's payload: a set bit with no
    // committed header under it cannot arise from any crash ordering.
    let bm_off = read_word(&path, 7);
    // Granule 1 is the first block's payload (granule 0 is its header):
    // set its bit on top of the legitimate ones.
    let word0 = read_at(&path, bm_off);
    patch(&path, bm_off, &(word0 | 0b10).to_le_bytes());
    match map_err(attach(&path)) {
        MapError::CorruptBitmap { granule } => assert_eq!(granule, 1),
        e => panic!("expected CorruptBitmap, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn committed_block_with_cleared_bit_fails_typed() {
    let path = tmp("bitclear");
    mk_map(&path);
    // Clear the whole first bitmap word: every early committed block now has
    // header COMMITTED but bit 0 — the other irreconcilable direction.
    let bm_off = read_word(&path, 7);
    patch(&path, bm_off, &0u64.to_le_bytes());
    assert!(matches!(map_err(attach(&path)), MapError::CorruptBitmap { .. }));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn smashed_block_header_fails_typed() {
    let path = tmp("header");
    mk_map(&path);
    // First block header lives at data_off (superblock word 6).
    let data_off = read_word(&path, 6);
    patch(&path, data_off, &0xFFFF_FFFF_FFFF_FFFFu64.to_le_bytes());
    match map_err(attach(&path)) {
        MapError::CorruptHeader { granule } => assert_eq!(granule, 0),
        e => panic!("expected CorruptHeader, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Kind tags of the five structures, each with an accessor that opens a
/// catalog entry as that kind.
type Open = fn(&Store, &str) -> Result<(), AttachError>;
const ACCESSORS: &[(u64, Open)] = &[
    (isb::hashmap::KIND_MAP, |s, n| s.hashmap::<0>(n, SHARDS).map(drop)),
    (isb::queue::KIND_QUEUE, |s, n| s.queue::<0>(n).map(drop)),
    (isb::list::KIND_LIST, |s, n| s.list::<0>(n).map(drop)),
    (isb::bst::KIND_BST, |s, n| s.bst::<0>(n).map(drop)),
    (isb::stack::KIND_STACK, |s, n| s.stack(n).map(drop)),
];

/// Every catalog entry refuses every other kind's accessor with a typed
/// `WrongKind` carrying the entry name and both kind tags — the full
/// cross-kind matrix, checked against the durable catalog record (each
/// open runs on a re-attached store, not on the creating process's cache).
#[test]
fn cross_kind_opens_fail_typed() {
    nvm::tid::set_tid(0);
    for &(made, create) in ACCESSORS {
        let path = tmp(&format!("cross_{made}"));
        create(&Store::open_sized(&path, HEAP_BYTES).unwrap(), "x").unwrap();
        let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
        for &(want, open) in ACCESSORS {
            if want == made {
                continue;
            }
            match open(&store, "x") {
                Err(AttachError::WrongKind { name, expected, found }) => {
                    assert_eq!(name, "x");
                    assert_eq!(expected, want, "accessor kind");
                    assert_eq!(found, made, "entry kind");
                }
                Err(e) => panic!("kind {made} opened as {want}: expected WrongKind, got {e}"),
                Ok(()) => panic!("kind {made} must not open as kind {want}"),
            }
        }
        // The matching accessor still opens the entry after the refusals.
        create(&store, "x").unwrap();
        drop(store);
        let _ = std::fs::remove_file(&path);
    }
}

/// An image of the retired single-structure heap format — superblock kind
/// = the structure's own kind, recovery area plus `META` (configuration)
/// and `STRUCT` (root block) root keys — must fail `Store::open` typed,
/// for every structure kind and both open modes, never attach or mis-walk.
#[test]
fn legacy_standalone_image_fails_store_open_typed() {
    nvm::tid::set_tid(0);
    for &(kind, _) in ACCESSORS {
        let path = tmp(&format!("legacy_{kind}"));
        {
            let heap = MappedHeap::create(&path, HEAP_BYTES).unwrap();
            heap.root_alloc(0x5245_4341 /* RECA */, RecArea::<MappedNvm>::slots_bytes()).unwrap();
            let (meta, _) = heap.root_alloc(0x4D45_5441 /* META */, 16).unwrap();
            unsafe { (meta as *mut u64).write(SHARDS as u64) };
            heap.root_alloc(0x5354_5543 /* STUC */, 8).unwrap();
            heap.set_kind(kind);
        }
        type OpenStore = fn(&PathBuf) -> Result<Store, AttachError>;
        let opens: [OpenStore; 2] =
            [|p| Store::open_sized(p, HEAP_BYTES), |p| Store::open_shared_sized(p, HEAP_BYTES)];
        for open in opens {
            match open(&path) {
                Err(AttachError::WrongKind { name, expected, found }) => {
                    assert!(name.is_empty(), "a heap-level refusal names no entry");
                    assert_eq!(expected, isb::store::KIND_STORE);
                    assert_eq!(found, kind);
                }
                Err(e) => panic!("legacy kind {kind}: expected WrongKind, got {e}"),
                Ok(_) => panic!("a legacy kind-{kind} heap must not open as a store"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn heap_level_torn_tail_is_poisoned_through_structure_attach() {
    let path = tmp("torntail");
    mk_map(&path);
    {
        // Re-open at heap level and abandon an uncommitted allocation —
        // exactly the image a kill between `alloc` and `commit` leaves.
        let heap = MappedHeap::attach(&path).unwrap();
        let p = heap.alloc(192).unwrap();
        unsafe { std::ptr::write_bytes(p, 0xAB, 192) };
        // no commit
    }
    nvm::tid::set_tid(0);
    let store = Store::open_sized(&path, HEAP_BYTES).expect("torn tail must heal, not fail");
    assert_eq!(store.summary().heap.poisoned, 1, "exactly the abandoned block is poisoned");
    let map = store.hashmap::<0>(MAP, SHARDS).unwrap();
    drop(store);
    let mut map = Arc::into_inner(map).expect("the store held the only other handle");
    assert_eq!(map.snapshot_keys(), (1..=128).collect::<Vec<u64>>());
    map.check_invariants();
    drop(map);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Catalog corruption (multi-structure store)
// ---------------------------------------------------------------------------

/// Builds a two-structure store and returns the catalog block's file offset.
fn mk_store(path: &PathBuf) -> u64 {
    nvm::tid::set_tid(0);
    {
        let store = Store::open_sized(path, HEAP_BYTES).unwrap();
        let m = store.hashmap::<0>("users", SHARDS).unwrap();
        let q = store.queue::<0>("jobs").unwrap();
        for k in 1..=64u64 {
            assert!(m.insert(0, k));
        }
        for v in 1..=32u64 {
            q.enqueue(0, v);
        }
    }
    root_offset(path, 0x4341_5441) // rootkeys::CATALOG
}

fn store_err(path: &PathBuf) -> AttachError {
    match Store::open_sized(path, HEAP_BYTES) {
        Err(e) => e,
        Ok(_) => panic!("corrupt catalog must not attach"),
    }
}

#[test]
fn catalog_root_offset_out_of_bounds_fails_typed() {
    let path = tmp("cat_root");
    let cat = mk_store(&path);
    // Entry word 2 is the root offset; point slot 0's outside the file.
    let size = read_word(&path, 3);
    patch(&path, cat + 16, &(size + 4096).to_le_bytes());
    match store_err(&path) {
        AttachError::Map(MapError::CorruptCatalog { slot }) => assert_eq!(slot, 0),
        e => panic!("expected CorruptCatalog, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn catalog_oversized_name_fails_typed() {
    let path = tmp("cat_name");
    let cat = mk_store(&path);
    // Entry word 3 is the name length; 33 exceeds the inline name buffer.
    patch(&path, cat + 24, &33u64.to_le_bytes());
    assert!(matches!(store_err(&path), AttachError::Map(MapError::CorruptCatalog { slot: 0 })));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn catalog_unknown_kind_fails_typed() {
    let path = tmp("cat_kind");
    let cat = mk_store(&path);
    // Entry word 0 is the kind (valid flag); 0xEE is no known structure.
    patch(&path, cat, &0xEEu64.to_le_bytes());
    assert!(matches!(store_err(&path), AttachError::Map(MapError::CorruptCatalog { slot: 0 })));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn catalog_second_entry_corruption_reports_its_slot() {
    let path = tmp("cat_slot1");
    let cat = mk_store(&path);
    // Slot 1 ("jobs", 64 bytes after slot 0): zero name length.
    patch(&path, cat + 64 + 24, &0u64.to_le_bytes());
    assert!(matches!(store_err(&path), AttachError::Map(MapError::CorruptCatalog { slot: 1 })));
    let _ = std::fs::remove_file(&path);
}

/// A cleared kind word is indistinguishable from a torn entry creation:
/// the slot is simply invisible, the orphaned blocks are swept, and the
/// rest of the store attaches fine.
#[test]
fn catalog_cleared_kind_word_is_a_benign_empty_slot() {
    let path = tmp("cat_torn");
    let cat = mk_store(&path);
    patch(&path, cat + 64, &0u64.to_le_bytes()); // slot 1's kind := 0
    nvm::tid::set_tid(0);
    let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
    let names: Vec<String> = store.entries().into_iter().map(|(n, _, _)| n).collect();
    assert_eq!(names, vec!["users".to_string()], "slot 1 invisible, slot 0 intact");
    assert!(store.summary().swept > 0, "the orphaned entry's blocks are reclaimed");
    let m = store.hashmap::<0>("users", SHARDS).unwrap();
    for k in 1..=64u64 {
        assert!(m.find(0, k), "surviving entry damaged by the sweep");
    }
    drop((m, store));
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Segment-directory corruption (multi-segment growth)
// ---------------------------------------------------------------------------

// Superblock geometry of the v3 format (see nvm::mapped module docs):
// word 10 = extra-segment count (the growth valid flag), words 48..80 = the
// per-segment byte lengths.
const W_SEG_COUNT: u64 = 10;
const W_SEG0: u64 = 48;

/// Builds a heap at `path` that grew past its minimal initial segment and
/// detaches cleanly. Returns the recorded total byte length.
fn mk_grown(path: &PathBuf) -> u64 {
    let heap = MappedHeap::create(path, nvm::mapped::MIN_HEAP_BYTES).unwrap();
    for i in 0..2048u64 {
        let p = heap.alloc(120).unwrap();
        unsafe { (p as *mut u64).write(i) };
        heap.commit(p);
    }
    assert!(heap.segments() > 1, "fill must outgrow the initial segment");
    drop(heap);
    let n = read_word(path, W_SEG_COUNT);
    let mut total = read_word(path, 3);
    for s in 0..n {
        total += read_word(path, W_SEG0 + s);
    }
    total
}

fn heap_err(path: &Path) -> MapError {
    match MappedHeap::attach(path) {
        Err(e) => e,
        Ok(_) => panic!("damaged segment directory must not attach"),
    }
}

#[test]
fn grown_heap_truncated_below_recorded_total_fails_typed() {
    let path = tmp("seg_trunc");
    let total = mk_grown(&path);
    // Cut the file below the directory's recorded total — the published
    // count promises bytes the file no longer has.
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(total - 4096).unwrap();
    drop(f);
    match heap_err(&path) {
        MapError::Truncated { expected, found } => {
            assert_eq!(expected, total);
            assert_eq!(found, total - 4096);
        }
        e => panic!("expected Truncated, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_growth_stamped_entry_without_count_bump_is_benign() {
    let path = tmp("seg_torn");
    let total = mk_grown(&path);
    // The exact crash window of `grow`: the file was extended and the next
    // directory entry stamped, but the count (the valid flag) never moved.
    // The attach must ignore both the entry and the extra bytes.
    let n = read_word(&path, W_SEG_COUNT);
    patch(&path, (W_SEG0 + n) * 8, &(1u64 << 20).to_le_bytes());
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(total + (1 << 20)).unwrap();
    drop(f);
    let heap = MappedHeap::attach(&path).unwrap();
    assert_eq!(heap.segments() as u64, n + 1, "unpublished segment must stay invisible");
    assert_eq!(heap.report().poisoned, 0);
    assert_eq!(heap.report().committed, 2048);
    drop(heap);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn absurd_segment_entry_fails_typed() {
    let path = tmp("seg_absurd");
    mk_grown(&path);
    // Corrupt a *published* entry: not a page multiple.
    patch(&path, W_SEG0 * 8, &12345u64.to_le_bytes());
    assert!(matches!(heap_err(&path), MapError::BadSuperblock(_)));
    // And an implausibly huge one.
    patch(&path, W_SEG0 * 8, &(1u64 << 50).to_le_bytes());
    assert!(matches!(heap_err(&path), MapError::BadSuperblock(_)));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn segment_count_beyond_file_len_fails_typed() {
    let path = tmp("seg_count");
    let total = mk_grown(&path);
    // Bump the count over a plausible entry the file has no bytes for — a
    // directory that lies about its published length.
    let n = read_word(&path, W_SEG_COUNT);
    patch(&path, (W_SEG0 + n) * 8, &(1u64 << 20).to_le_bytes());
    patch(&path, W_SEG_COUNT * 8, &(n + 1).to_le_bytes());
    match heap_err(&path) {
        MapError::Truncated { expected, found } => {
            assert_eq!(expected, total + (1 << 20));
            assert_eq!(found, total);
        }
        e => panic!("expected Truncated, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn segment_count_over_max_fails_typed() {
    let path = tmp("seg_max");
    mk_grown(&path);
    patch(&path, W_SEG_COUNT * 8, &((nvm::mapped::MAX_SEGMENTS as u64) + 1).to_le_bytes());
    assert!(matches!(heap_err(&path), MapError::BadSuperblock(_)));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn structure_survives_growth_across_attach() {
    let path = tmp("seg_struct");
    nvm::tid::set_tid(0);
    // A map on a deliberately tiny initial heap: the fill forces several
    // growth steps, and a later attach must walk every segment.
    let keys = 20_000u64;
    {
        let store = Store::open_sized(&path, nvm::mapped::MIN_HEAP_BYTES).unwrap();
        assert!(store.summary().heap.created);
        let map = store.hashmap::<0>(MAP, SHARDS).unwrap();
        for k in 1..=keys {
            assert!(map.insert(0, k));
        }
        assert!(map.heap().segments() > 1, "fill must outgrow the initial segment");
    }
    let store = Store::open_sized(&path, nvm::mapped::MIN_HEAP_BYTES).unwrap();
    let s = store.summary();
    assert!(!s.heap.created);
    assert!(s.heap.segments > 1);
    assert_eq!(s.heap.poisoned, 0);
    let map = store.hashmap::<0>(MAP, SHARDS).unwrap();
    drop(store);
    let mut map = Arc::into_inner(map).expect("the store held the only other handle");
    assert_eq!(map.snapshot_keys(), (1..=keys).collect::<Vec<u64>>());
    map.check_invariants();
    drop(map);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Response-table corruption (the KV service's exactly-once dedup state)
// ---------------------------------------------------------------------------

// Root block layout (see isb::resptable): 64-byte header (word 0 = magic
// "RTB1"), then nvm::MAX_PROCS intent slots [state, client_id, op_seq, op,
// arg], then 256 client slots [id, last_seq, resp] — 64 bytes each.
const RTAB_MAGIC: u64 = 0x5254_4231;

fn rtab_offset(path: &PathBuf) -> u64 {
    root_offset(path, 0x5245_5350) // rootkeys::RESPTAB
}

fn rtab_client_off(rtab: u64, idx: usize) -> u64 {
    rtab + 64 * (1 + nvm::MAX_PROCS as u64 + idx as u64)
}

fn rtab_intent_off(rtab: u64, pid: usize) -> u64 {
    rtab + 64 * (1 + pid as u64)
}

/// Builds a store whose response table carries one finalized client record
/// (id 42, watermark seq 5, response `RES_TRUE`); returns the table's file
/// offset and the client's slot index.
fn mk_kv_store(path: &PathBuf) -> (u64, usize) {
    nvm::tid::set_tid(0);
    let idx = {
        let store = Store::open_sized(path, HEAP_BYTES).unwrap();
        let m = store.hashmap::<0>("kv", SHARDS).unwrap();
        assert!(m.insert(0, 1));
        let tab = store.response_table();
        let idx = tab.register(42).expect("slot free");
        tab.finish_op(0, idx, 5, 2 /* RES_TRUE */);
        idx
    };
    (rtab_offset(path), idx)
}

#[test]
fn resptable_bad_magic_fails_typed() {
    let path = tmp("rtab_magic");
    let (rtab, _idx) = mk_kv_store(&path);
    assert_eq!(read_at(&path, rtab), RTAB_MAGIC, "layout drifted: header not where expected");
    patch(&path, rtab, &0xDEAD_BEEFu64.to_le_bytes());
    match store_err(&path) {
        AttachError::CorruptResponseTable { slot: 0, reason } => {
            assert!(reason.contains("magic"), "unexpected reason: {reason}");
        }
        e => panic!("expected CorruptResponseTable, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resptable_garbage_intent_state_fails_typed() {
    let path = tmp("rtab_state");
    let (rtab, _idx) = mk_kv_store(&path);
    // State words are 0 (empty) or 1 (in-flight); 7 is bit rot, not a
    // crash shape, and healing must refuse to guess.
    patch(&path, rtab_intent_off(rtab, 3), &7u64.to_le_bytes());
    match store_err(&path) {
        AttachError::CorruptResponseTable { slot, reason } => {
            assert_eq!(slot, 3, "error must name the damaged intent slot");
            assert!(reason.contains("state"), "unexpected reason: {reason}");
        }
        e => panic!("expected CorruptResponseTable, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// A client slot with `id == 0` but residue in `last_seq`/`resp` is a torn
/// registration (the ID stamp never persisted): healing zeroes it, and the
/// client re-registers fresh.
#[test]
fn resptable_torn_client_slot_heals_to_empty() {
    let path = tmp("rtab_torn");
    let (rtab, idx) = mk_kv_store(&path);
    // A torn registration in some OTHER slot than client 42's.
    let torn = (idx + 7) % 256;
    patch(&path, rtab_client_off(rtab, torn) + 8, &99u64.to_le_bytes());
    patch(&path, rtab_client_off(rtab, torn) + 16, &77u64.to_le_bytes());
    nvm::tid::set_tid(0);
    let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
    let tab = store.response_table();
    assert_eq!(tab.lookup(42), Some((5, 2)), "intact slot survives healing");
    assert_eq!(read_at(&path, rtab_client_off(rtab, torn) + 8), 0, "residue zeroed");
    assert_eq!(read_at(&path, rtab_client_off(rtab, torn) + 16), 0, "residue zeroed");
    drop((tab, store));
    let _ = std::fs::remove_file(&path);
}

/// Two slots claiming the same client ID (a crash between a slot CAS and
/// its persist can leave the retried registration in a second slot): the
/// heal is deterministic — the higher ack watermark wins, the stale slot
/// becomes a tombstone (`u64::MAX`, not 0: a mid-chain 0 would truncate
/// the probe chain of every client that passed through the slot).
#[test]
fn resptable_duplicate_client_heals_to_higher_watermark() {
    let path = tmp("rtab_dup");
    let (rtab, idx) = mk_kv_store(&path);
    let dup = (idx + 11) % 256;
    patch(&path, rtab_client_off(rtab, dup), &42u64.to_le_bytes()); // same id
    patch(&path, rtab_client_off(rtab, dup) + 8, &2u64.to_le_bytes()); // stale seq
    patch(&path, rtab_client_off(rtab, dup) + 16, &1u64.to_le_bytes()); // RES_FALSE
    nvm::tid::set_tid(0);
    let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
    let tab = store.response_table();
    assert_eq!(tab.lookup(42), Some((5, 2)), "higher watermark must win");
    assert_eq!(
        read_at(&path, rtab_client_off(rtab, dup)),
        u64::MAX,
        "stale duplicate tombstoned, not zeroed"
    );
    assert_eq!(read_at(&path, rtab_client_off(rtab, dup) + 8), 0, "residue zeroed");
    assert_eq!(read_at(&path, rtab_client_off(rtab, dup) + 16), 0, "residue zeroed");
    drop((tab, store));
    let _ = std::fs::remove_file(&path);
}

/// An in-flight intent naming a client that never (durably) registered:
/// the crash predates the client's first persisted registration, so there
/// is nothing to finalize — healing clears the intent and the client's
/// retry runs fresh.
#[test]
fn resptable_orphan_intent_heals_to_clear() {
    let path = tmp("rtab_orphan");
    let (rtab, _idx) = mk_kv_store(&path);
    let pid = 5usize;
    patch(&path, rtab_intent_off(rtab, pid) + 8, &777u64.to_le_bytes()); // unregistered id
    patch(&path, rtab_intent_off(rtab, pid) + 16, &1u64.to_le_bytes()); // op_seq
    patch(&path, rtab_intent_off(rtab, pid), &1u64.to_le_bytes()); // ST_INFLIGHT
    nvm::tid::set_tid(0);
    let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
    let tab = store.response_table();
    assert!(tab.inflight(pid).is_none(), "orphan intent must be cleared by healing");
    assert_eq!(tab.lookup(777), None, "the phantom client does not exist");
    assert_eq!(tab.lookup(42), Some((5, 2)), "unrelated state untouched");
    drop((tab, store));
    let _ = std::fs::remove_file(&path);
}
