//! Persist-placement regression test for the `set_core` extraction.
//!
//! Golden per-operation persistency-instruction counts (pwb / pbarrier /
//! pbarrier-lines / pfence / psync under `CountingNvm`), recorded from the
//! pre-extraction `RList` on a deterministic single-thread scenario. The
//! head-parameterized core must reproduce them **bit-for-bit** for both
//! persistency placements — and a one-shard `RHashMap` must match the same
//! table exactly, proving the wrapper layers add no persistency traffic.
//!
//! The tables keep a per-row `pwb` allowance for fresh nodes straddling a
//! cache-line boundary. Nodes are 32-byte aligned, so a node never straddles
//! a 64-byte line and the measured counts sit at the nominal values; every
//! other component (events, fences, syncs, barrier lines — `Info` is 64-byte
//! aligned) is exact.
//!
//! All measurement runs in ONE #[test]: the stats counters are process-global
//! and this file is its own test binary. The other test only checks the
//! golden constants and counts nothing, so it cannot disturb the measurement.
//!
//! A split-ordered hash map adds one more row: the first insert into a bucket
//! the directory just split off pays `mark_invoked` plus two tracking-free
//! inserts (the bucket's guard and sentinel, each published in `SD_q`) on
//! top of its own insert; every later operation on that bucket costs
//! exactly one list operation.
//!
//! The table is checked for **pooled** (default) and **boxed** allocation,
//! and again on a pooled list that was churned until its descriptors and
//! nodes come from the recycle path — pooling must not change persist
//! placement by a single instruction.

use isb::hashmap::RHashMap;
use isb::list::RList;
use isb::pool::PoolCfg;
use isb::queue::RQueue;
use nvm::CountingNvm;
use reclaim::Collector;

/// `(pwb, pbarrier, pbarrier_lines, pfence, psync, response, node_flushes)`;
/// `node_flushes` = number of fresh nodes flushed by the op (slack lines).
type Golden = (u64, u64, u64, u64, u64, bool, u64);

/// Pre-extraction baseline, untuned placement ("Isb").
const GOLDEN_ISB: [(&str, Golden); 6] = [
    ("insert-new", (11, 3, 4, 0, 5, true, 2)),
    ("insert-dup", (2, 3, 3, 0, 2, false, 0)),
    ("find-hit", (1, 2, 2, 0, 1, true, 0)),
    ("find-miss", (1, 2, 2, 0, 1, false, 0)),
    ("delete-hit", (7, 3, 4, 0, 5, true, 0)),
    ("delete-miss", (2, 3, 3, 0, 2, false, 0)),
];

/// Pre-extraction baseline, hand-tuned placement ("Isb-Opt").
const GOLDEN_OPT: [(&str, Golden); 6] = [
    ("insert-new", (14, 1, 1, 2, 3, true, 2)),
    ("insert-dup", (4, 1, 1, 2, 1, false, 0)),
    ("find-hit", (2, 1, 1, 1, 1, true, 0)),
    ("find-miss", (2, 1, 1, 1, 1, false, 0)),
    ("delete-hit", (10, 1, 1, 2, 3, true, 0)),
    ("delete-miss", (4, 1, 1, 2, 1, false, 0)),
];

/// Golden row for the coalescing arms: `(pwb, elided_min, pbarrier,
/// pbarrier_lines, pfence, psync, response, pwb_slack)`.
///
/// Under `CountingNvm` the `pwb` column counts *pwb-equivalents*: coalesced
/// write-backs are counted at issue (when the line enters the [`nvm::coalesce`]
/// set) and a duplicate line bumps `pwb_elided` instead. `pwb_slack` widens
/// the `pwb` assertion in BOTH directions: each fresh node line may straddle
/// a cache-line boundary (+1 pwb) or land on a line another fresh object
/// already noted (−1 pwb, +1 elided) depending on heap placement, so the
/// dedupe outcome — unlike everything else in the table — is not placement-
/// independent. `elided_min` is a lower bound: every mutating op must elide
/// at least the `RD_q` write-back that `publish_arm` dedupes against the
/// same-line `CP_q` flush. Fence/sync/barrier columns stay exact.
type GoldenCoal = (u64, u64, u64, u64, u64, u64, bool, u64);

/// Coalescing placement ("Isb-Coal", `ARM = 2`) for the ordered-set core.
const GOLDEN_COAL: [(&str, GoldenCoal); 6] = [
    ("insert-new", (13, 1, 1, 1, 2, 3, true, 2)),
    ("insert-dup", (3, 1, 1, 1, 2, 1, false, 0)),
    ("find-hit", (2, 0, 1, 1, 1, 1, true, 0)),
    ("find-miss", (2, 0, 1, 1, 1, 1, false, 0)),
    ("delete-hit", (9, 1, 1, 1, 2, 3, true, 0)),
    ("delete-miss", (3, 1, 1, 1, 2, 1, false, 0)),
];

/// Link-persist placement ("Isb-LP", `ARM = 3`) for the ordered-set core.
const GOLDEN_LP: [(&str, GoldenCoal); 6] = [
    ("insert-new", (10, 1, 1, 1, 2, 3, true, 2)),
    ("insert-dup", (3, 1, 1, 1, 2, 1, false, 0)),
    ("find-hit", (2, 0, 1, 1, 1, 1, true, 0)),
    ("find-miss", (2, 0, 1, 1, 1, 1, false, 0)),
    ("delete-hit", (8, 1, 1, 1, 2, 3, true, 0)),
    ("delete-miss", (3, 1, 1, 1, 2, 1, false, 0)),
];

/// Queue goldens, one row per scenario step (two enqueues, two successful
/// dequeues, one empty dequeue). The tuned arm's second enqueue pays one
/// extra `pwb` for the lagging-tail fix-up, so the steps are kept distinct.
/// Enqueue `pwb` nominals assume the fresh 24-byte node occupies one cache
/// line; the `node_flushes` slack absorbs a straddle (+1 line), which DOES
/// occur in some build configurations (heap placement shifts with features).
const QUEUE_ISB: [(&str, Golden); 5] = [
    ("enqueue-1", (9, 3, 4, 0, 5, true, 1)),
    ("enqueue-2", (9, 3, 4, 0, 5, true, 1)),
    ("dequeue-1", (7, 3, 4, 0, 5, true, 0)),
    ("dequeue-2", (7, 3, 4, 0, 5, true, 0)),
    ("dequeue-empty", (2, 3, 3, 0, 2, false, 0)),
];

const QUEUE_OPT: [(&str, Golden); 5] = [
    ("enqueue-1", (11, 1, 1, 2, 3, true, 1)),
    ("enqueue-2", (12, 1, 1, 2, 3, true, 1)),
    ("dequeue-1", (10, 1, 1, 2, 3, true, 0)),
    ("dequeue-2", (10, 1, 1, 2, 3, true, 0)),
    ("dequeue-empty", (4, 1, 1, 2, 1, false, 0)),
];

const QUEUE_COAL: [(&str, GoldenCoal); 5] = [
    ("enqueue-1", (10, 1, 1, 1, 2, 3, true, 1)),
    ("enqueue-2", (10, 1, 1, 1, 2, 3, true, 1)),
    ("dequeue-1", (9, 1, 1, 1, 2, 3, true, 0)),
    ("dequeue-2", (9, 1, 1, 1, 2, 3, true, 0)),
    ("dequeue-empty", (3, 1, 1, 1, 2, 1, false, 0)),
];

/// The LP queue turns the tag-phase `psync` of an enqueue (single-affect
/// help) into a `pfence`, dropping a whole round trip: `psync` 3 → 2. The
/// fence drains the node's line after the tag, so the link writes that
/// line back again: pwb 9 (8 with no fence at all, which let a crash image
/// hold the link without the tag).
const QUEUE_LP: [(&str, GoldenCoal); 5] = [
    ("enqueue-1", (9, 1, 1, 1, 3, 2, true, 1)),
    ("enqueue-2", (9, 1, 1, 1, 3, 2, true, 1)),
    ("dequeue-1", (8, 1, 1, 1, 2, 3, true, 0)),
    ("dequeue-2", (8, 1, 1, 1, 2, 3, true, 0)),
    ("dequeue-empty", (3, 1, 1, 1, 2, 1, false, 0)),
];

/// `mark_invoked`: one `CP_q := 0` barrier of one line.
const MARK_INVOKED: Golden = (0, 1, 1, 0, 0, true, 0);

/// One tracking-free insert of a new key ([`isb::set_core::SetCore::insert_untracked`]):
/// the tracked insert-new row minus `begin`/`publish`, plus publishing and
/// clearing `SD_q` (one `pwb` and one `psync` each), per arm.
const UNTRACKED_ISB: Golden = (11, 1, 2, 0, 5, true, 2);
const UNTRACKED_OPT: Golden = (13, 0, 0, 1, 4, true, 2);
const UNTRACKED_COAL: GoldenCoal = (13, 0, 0, 0, 1, 4, true, 2);
const UNTRACKED_LP: GoldenCoal = (10, 0, 0, 0, 1, 4, true, 2);

/// The bucket-initialization row: insert-new + `mark_invoked` + two
/// tracking-free inserts.
fn init_row(insert_new: Golden, untracked: Golden) -> Golden {
    let (a, b, c, d, e, _, f) = insert_new;
    let (ua, ub, uc, ud, ue, _, uf) = untracked;
    let (ma, mb, mc, md, me, _, mf) = MARK_INVOKED;
    (
        a + ma + 2 * ua,
        b + mb + 2 * ub,
        c + mc + 2 * uc,
        d + md + 2 * ud,
        e + me + 2 * ue,
        true,
        f + mf + 2 * uf,
    )
}

fn init_row_coal(insert_new: GoldenCoal, untracked: GoldenCoal) -> GoldenCoal {
    let (a, el, b, c, d, e, _, f) = insert_new;
    let (ua, _, ub, uc, ud, ue, _, uf) = untracked;
    let (ma, mb, mc, md, me, _, mf) = MARK_INVOKED;
    (
        a + ma + 2 * ua,
        el,
        b + mb + 2 * ub,
        c + mc + 2 * uc,
        d + md + 2 * ud,
        e + me + 2 * ue,
        true,
        f + mf + 2 * uf,
    )
}

/// Bucket of user key `k` once the directory holds `size` buckets, per the
/// documented split-order encoding (DESIGN.md §8): the low bits of
/// `bitrev62(k · FIB mod 2⁶²)`.
fn bucket_of(k: u64, size: u64) -> u64 {
    let p = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1 << 62) - 1);
    (p.reverse_bits() >> 2) & (size - 1)
}

/// A one-bucket map grown to two buckets (33 keys, all in bucket 0), and
/// two fresh keys of bucket 1: the first insert initializes the bucket,
/// the second runs on it.
fn grow_to_two_buckets<M: nvm::Persist, const ARM: u8>(map: &RHashMap<M, ARM>) -> (u64, u64) {
    let mut keys = (1000u64..).filter(|&k| bucket_of(k, 2) == 0);
    for k in keys.by_ref().take(33) {
        assert!(map.insert(0, k));
    }
    assert_eq!(map.shards(), 2, "33 keys must double a one-bucket directory");
    let mut fresh = (1000u64..).filter(|&k| bucket_of(k, 2) == 1);
    (fresh.next().unwrap(), fresh.next().unwrap())
}

fn init_ops<'a, M: nvm::Persist, const ARM: u8>(
    map: &'a RHashMap<M, ARM>,
    keys: (u64, u64),
) -> [OpRow<'a>; 2] {
    [
        ("insert-init", Box::new(move || map.insert(0, keys.0))),
        ("insert-new", Box::new(move || map.insert(0, keys.1))),
    ]
}

struct SetUnderTest<'a> {
    name: &'a str,
    insert: Box<dyn Fn(u64) -> bool + 'a>,
    delete: Box<dyn Fn(u64) -> bool + 'a>,
    find: Box<dyn Fn(u64) -> bool + 'a>,
}

/// One named, ready-to-run operation whose `bool` result is golden-checked.
type OpRow<'a> = (&'static str, Box<dyn Fn() -> bool + 'a>);

fn set_ops<'a>(s: &'a SetUnderTest<'a>) -> [OpRow<'a>; 6] {
    [
        ("insert-new", Box::new(|| (s.insert)(5))),
        ("insert-dup", Box::new(|| (s.insert)(5))),
        ("find-hit", Box::new(|| (s.find)(5))),
        ("find-miss", Box::new(|| (s.find)(6))),
        ("delete-hit", Box::new(|| (s.delete)(5))),
        ("delete-miss", Box::new(|| (s.delete)(5))),
    ]
}

fn queue_ops<M, const ARM: u8>(q: &RQueue<M, ARM>) -> [OpRow<'_>; 5]
where
    M: nvm::Persist,
{
    [
        (
            "enqueue-1",
            Box::new(|| {
                q.enqueue(0, 7);
                true
            }),
        ),
        (
            "enqueue-2",
            Box::new(|| {
                q.enqueue(0, 8);
                true
            }),
        ),
        ("dequeue-1", Box::new(|| q.dequeue(0) == Some(7))),
        ("dequeue-2", Box::new(|| q.dequeue(0) == Some(8))),
        ("dequeue-empty", Box::new(|| q.dequeue(0).is_some())),
    ]
}

fn check_rows(name: &str, ops: &[OpRow<'_>], golden: &[(&str, Golden)]) {
    for ((opname, op), (gname, g)) in ops.iter().zip(golden.iter()) {
        assert_eq!(opname, gname);
        let before = nvm::stats::snapshot();
        let resp = op();
        let d = nvm::stats::snapshot().since(&before);
        let (pwb, pbarrier, pblines, pfence, psync, want_resp, node_flushes) = *g;
        let ctx = format!("{name} {opname}");
        assert_eq!(resp, want_resp, "{ctx}: response changed");
        assert!(
            (pwb..=pwb + node_flushes).contains(&d.pwb),
            "{ctx}: pwb {} outside [{}, {}]",
            d.pwb,
            pwb,
            pwb + node_flushes
        );
        assert_eq!(d.pbarrier, pbarrier, "{ctx}: pbarrier count changed");
        assert_eq!(d.pbarrier_lines, pblines, "{ctx}: pbarrier lines changed");
        assert_eq!(d.pfence, pfence, "{ctx}: pfence count changed");
        assert_eq!(d.psync, psync, "{ctx}: psync count changed");
    }
}

fn check_rows_coal(name: &str, ops: &[OpRow<'_>], golden: &[(&str, GoldenCoal)]) {
    for ((opname, op), (gname, g)) in ops.iter().zip(golden.iter()) {
        assert_eq!(opname, gname);
        let before = nvm::stats::snapshot();
        let resp = op();
        let d = nvm::stats::snapshot().since(&before);
        let (pwb, elided_min, pbarrier, pblines, pfence, psync, want_resp, slack) = *g;
        let ctx = format!("{name} {opname}");
        assert_eq!(resp, want_resp, "{ctx}: response changed");
        assert!(
            (pwb.saturating_sub(slack)..=pwb + slack).contains(&d.pwb),
            "{ctx}: pwb {} outside [{}, {}]",
            d.pwb,
            pwb.saturating_sub(slack),
            pwb + slack
        );
        assert!(
            d.pwb_elided >= elided_min,
            "{ctx}: pwb_elided {} < {elided_min} — the coalescing set never deduped",
            d.pwb_elided
        );
        // Every pwb-equivalent the coalescing arms issue must eventually hit
        // a physical flush path: drained at a fence or evicted on overflow.
        assert!(
            d.lines_coalesced <= d.pwb,
            "{ctx}: drained more lines ({}) than pwbs issued ({})",
            d.lines_coalesced,
            d.pwb
        );
        assert_eq!(d.pbarrier, pbarrier, "{ctx}: pbarrier count changed");
        assert_eq!(d.pbarrier_lines, pblines, "{ctx}: pbarrier lines changed");
        assert_eq!(d.pfence, pfence, "{ctx}: pfence count changed");
        assert_eq!(d.psync, psync, "{ctx}: psync count changed");
    }
}

fn check_against(golden: &[(&str, Golden); 6], s: &SetUnderTest<'_>) {
    // The fixed scenario: every op hits a deterministic algorithm path on a
    // set whose only mutation history is this sequence.
    check_rows(s.name, &set_ops(s), golden);
}

fn check_against_coal(golden: &[(&str, GoldenCoal); 6], s: &SetUnderTest<'_>) {
    check_rows_coal(s.name, &set_ops(s), golden);
}

#[test]
fn set_core_extraction_preserves_persist_placement() {
    nvm::tid::set_tid(0);

    // Default (pooled) allocation, fresh structures.
    let list = RList::<CountingNvm, 0>::new();
    check_against(
        &GOLDEN_ISB,
        &SetUnderTest {
            name: "RList<Isb>",
            insert: Box::new(|k| list.insert(0, k)),
            delete: Box::new(|k| list.delete(0, k)),
            find: Box::new(|k| list.find(0, k)),
        },
    );
    let list = RList::<CountingNvm, 1>::new();
    check_against(
        &GOLDEN_OPT,
        &SetUnderTest {
            name: "RList<Isb-Opt>",
            insert: Box::new(|k| list.insert(0, k)),
            delete: Box::new(|k| list.delete(0, k)),
            find: Box::new(|k| list.find(0, k)),
        },
    );

    // Boxed (pre-pool) allocation must reproduce the same table bit-for-bit.
    let list = RList::<CountingNvm, 0>::boxed();
    check_against(
        &GOLDEN_ISB,
        &SetUnderTest {
            name: "RList<Isb>/boxed",
            insert: Box::new(|k| list.insert(0, k)),
            delete: Box::new(|k| list.delete(0, k)),
            find: Box::new(|k| list.find(0, k)),
        },
    );
    let list = RList::<CountingNvm, 1>::boxed();
    check_against(
        &GOLDEN_OPT,
        &SetUnderTest {
            name: "RList<Isb-Opt>/boxed",
            insert: Box::new(|k| list.insert(0, k)),
            delete: Box::new(|k| list.delete(0, k)),
            find: Box::new(|k| list.find(0, k)),
        },
    );

    // Pooled with the recycle path HOT: a tiny pool churned until reuse is
    // guaranteed (the leak counters prove it below). The scenario keys
    // (5, 6) are untouched by the churn key (9), so every op still takes
    // the same algorithm path over the same structure shape.
    let reuse0 = isb::counters::info_reuses();
    let warm = RList::<CountingNvm, 0>::with_config(Collector::new(), PoolCfg::tiny(8));
    for _ in 0..300 {
        assert!(warm.insert(0, 9));
        assert!(warm.delete(0, 9));
    }
    assert!(
        isb::counters::info_reuses() > reuse0,
        "warmup never hit the recycle path — the pooled golden run is vacuous"
    );
    check_against(
        &GOLDEN_ISB,
        &SetUnderTest {
            name: "RList<Isb>/pooled-warm",
            insert: Box::new(|k| warm.insert(0, k)),
            delete: Box::new(|k| warm.delete(0, k)),
            find: Box::new(|k| warm.find(0, k)),
        },
    );
    let reuse0 = isb::counters::info_reuses();
    let warm = RList::<CountingNvm, 1>::with_config(Collector::new(), PoolCfg::tiny(8));
    for _ in 0..300 {
        assert!(warm.insert(0, 9));
        assert!(warm.delete(0, 9));
    }
    assert!(
        isb::counters::info_reuses() > reuse0,
        "tuned warmup never hit the recycle path — the pooled golden run is vacuous"
    );
    check_against(
        &GOLDEN_OPT,
        &SetUnderTest {
            name: "RList<Isb-Opt>/pooled-warm",
            insert: Box::new(|k| warm.insert(0, k)),
            delete: Box::new(|k| warm.delete(0, k)),
            find: Box::new(|k| warm.find(0, k)),
        },
    );

    // A one-shard map is the same bucket algorithm behind a shard function
    // that performs no persistency instructions: identical placement.
    let map = RHashMap::<CountingNvm, 0>::with_shards(1);
    check_against(
        &GOLDEN_ISB,
        &SetUnderTest {
            name: "RHashMap<Isb>/1",
            insert: Box::new(|k| map.insert(0, k)),
            delete: Box::new(|k| map.delete(0, k)),
            find: Box::new(|k| map.find(0, k)),
        },
    );
    let map = RHashMap::<CountingNvm, 1>::with_shards(1);
    check_against(
        &GOLDEN_OPT,
        &SetUnderTest {
            name: "RHashMap<Isb-Opt>/1",
            insert: Box::new(|k| map.insert(0, k)),
            delete: Box::new(|k| map.delete(0, k)),
            find: Box::new(|k| map.find(0, k)),
        },
    );
    let map = RHashMap::<CountingNvm, 0>::boxed_with_shards(1);
    check_against(
        &GOLDEN_ISB,
        &SetUnderTest {
            name: "RHashMap<Isb>/1/boxed",
            insert: Box::new(|k| map.insert(0, k)),
            delete: Box::new(|k| map.delete(0, k)),
            find: Box::new(|k| map.find(0, k)),
        },
    );

    // ---- Coalescing arms (PR 6) --------------------------------------
    //
    // Same scenario, arms 2 (Isb-Coal) and 3 (Isb-LP): pooled and boxed
    // lists, a one-shard map, and a recycle-hot LP list.
    let list = RList::<CountingNvm, 2>::new();
    check_against_coal(
        &GOLDEN_COAL,
        &SetUnderTest {
            name: "RList<Isb-Coal>",
            insert: Box::new(|k| list.insert(0, k)),
            delete: Box::new(|k| list.delete(0, k)),
            find: Box::new(|k| list.find(0, k)),
        },
    );
    let list = RList::<CountingNvm, 2>::boxed();
    check_against_coal(
        &GOLDEN_COAL,
        &SetUnderTest {
            name: "RList<Isb-Coal>/boxed",
            insert: Box::new(|k| list.insert(0, k)),
            delete: Box::new(|k| list.delete(0, k)),
            find: Box::new(|k| list.find(0, k)),
        },
    );
    let list = RList::<CountingNvm, 3>::new();
    check_against_coal(
        &GOLDEN_LP,
        &SetUnderTest {
            name: "RList<Isb-LP>",
            insert: Box::new(|k| list.insert(0, k)),
            delete: Box::new(|k| list.delete(0, k)),
            find: Box::new(|k| list.find(0, k)),
        },
    );
    let list = RList::<CountingNvm, 3>::boxed();
    check_against_coal(
        &GOLDEN_LP,
        &SetUnderTest {
            name: "RList<Isb-LP>/boxed",
            insert: Box::new(|k| list.insert(0, k)),
            delete: Box::new(|k| list.delete(0, k)),
            find: Box::new(|k| list.find(0, k)),
        },
    );
    let map = RHashMap::<CountingNvm, 2>::with_shards(1);
    check_against_coal(
        &GOLDEN_COAL,
        &SetUnderTest {
            name: "RHashMap<Isb-Coal>/1",
            insert: Box::new(|k| map.insert(0, k)),
            delete: Box::new(|k| map.delete(0, k)),
            find: Box::new(|k| map.find(0, k)),
        },
    );
    let map = RHashMap::<CountingNvm, 3>::with_shards(1);
    check_against_coal(
        &GOLDEN_LP,
        &SetUnderTest {
            name: "RHashMap<Isb-LP>/1",
            insert: Box::new(|k| map.insert(0, k)),
            delete: Box::new(|k| map.delete(0, k)),
            find: Box::new(|k| map.find(0, k)),
        },
    );
    let reuse0 = isb::counters::info_reuses();
    let warm = RList::<CountingNvm, 3>::with_config(Collector::new(), PoolCfg::tiny(8));
    for _ in 0..300 {
        assert!(warm.insert(0, 9));
        assert!(warm.delete(0, 9));
    }
    assert!(
        isb::counters::info_reuses() > reuse0,
        "LP warmup never hit the recycle path — the pooled golden run is vacuous"
    );
    check_against_coal(
        &GOLDEN_LP,
        &SetUnderTest {
            name: "RList<Isb-LP>/pooled-warm",
            insert: Box::new(|k| warm.insert(0, k)),
            delete: Box::new(|k| warm.delete(0, k)),
            find: Box::new(|k| warm.find(0, k)),
        },
    );

    // ---- Bucket initialization ---------------------------------------
    let map = RHashMap::<CountingNvm, 0>::with_shards(1);
    let keys = grow_to_two_buckets(&map);
    check_rows(
        "RHashMap<Isb>/init",
        &init_ops(&map, keys),
        &[("insert-init", init_row(GOLDEN_ISB[0].1, UNTRACKED_ISB)), GOLDEN_ISB[0]],
    );
    let map = RHashMap::<CountingNvm, 1>::with_shards(1);
    let keys = grow_to_two_buckets(&map);
    check_rows(
        "RHashMap<Isb-Opt>/init",
        &init_ops(&map, keys),
        &[("insert-init", init_row(GOLDEN_OPT[0].1, UNTRACKED_OPT)), GOLDEN_OPT[0]],
    );
    let map = RHashMap::<CountingNvm, 2>::with_shards(1);
    let keys = grow_to_two_buckets(&map);
    check_rows_coal(
        "RHashMap<Isb-Coal>/init",
        &init_ops(&map, keys),
        &[("insert-init", init_row_coal(GOLDEN_COAL[0].1, UNTRACKED_COAL)), GOLDEN_COAL[0]],
    );
    let map = RHashMap::<CountingNvm, 3>::with_shards(1);
    let keys = grow_to_two_buckets(&map);
    check_rows_coal(
        "RHashMap<Isb-LP>/init",
        &init_ops(&map, keys),
        &[("insert-init", init_row_coal(GOLDEN_LP[0].1, UNTRACKED_LP)), GOLDEN_LP[0]],
    );

    // ---- Queue goldens ------------------------------------------------
    let q = RQueue::<CountingNvm, 0>::new();
    check_rows("RQueue<Isb>", &queue_ops(&q), &QUEUE_ISB);
    let q = RQueue::<CountingNvm, 1>::new();
    check_rows("RQueue<Isb-Opt>", &queue_ops(&q), &QUEUE_OPT);
    let q = RQueue::<CountingNvm, 2>::new();
    check_rows_coal("RQueue<Isb-Coal>", &queue_ops(&q), &QUEUE_COAL);
    let q = RQueue::<CountingNvm, 3>::new();
    check_rows_coal("RQueue<Isb-LP>", &queue_ops(&q), &QUEUE_LP);
}

/// The tuning arms must form a monotone ladder on the nominal tables, the
/// untouched read-only placement must be bit-for-bit identical across arms,
/// and the LP arm must clear the ≥20% pwb-equivalent reduction bar on the
/// tuned hash-map and queue hot paths. Asserted on the golden CONSTANTS so
/// the claim is placement-noise-free; the measured runs above tie the
/// constants to reality.
#[test]
fn coalescing_arms_strictly_reduce_pwb_traffic() {
    // Mutating set ops: insert-new, insert-dup, delete-hit, delete-miss.
    for i in [0usize, 1, 4, 5] {
        let opt = GOLDEN_OPT[i].1 .0;
        let coal = GOLDEN_COAL[i].1 .0;
        let lp = GOLDEN_LP[i].1 .0;
        assert!(coal < opt, "{}: coal pwb {coal} !< opt {opt}", GOLDEN_OPT[i].0);
        assert!(lp <= coal, "{}: lp pwb {lp} !<= coal {coal}", GOLDEN_OPT[i].0);
    }
    // LP's cleanup elision must show up on the ops that untag nodes.
    for i in [0usize, 4] {
        assert!(GOLDEN_LP[i].1 .0 < GOLDEN_COAL[i].1 .0, "{}: LP saved nothing", GOLDEN_OPT[i].0);
    }
    // Read-only placement is untouched: find rows identical across tuned arms.
    for i in [2usize, 3] {
        let (opt, coal, lp) = (GOLDEN_OPT[i].1, GOLDEN_COAL[i].1, GOLDEN_LP[i].1);
        assert_eq!((opt.0, opt.3, opt.4), (coal.0, coal.4, coal.5), "find parity (coal)");
        assert_eq!((opt.0, opt.3, opt.4), (lp.0, lp.4, lp.5), "find parity (lp)");
    }
    // Queue ladder, per scenario step.
    for i in 0..5 {
        let opt = QUEUE_OPT[i].1 .0;
        let coal = QUEUE_COAL[i].1 .0;
        let lp = QUEUE_LP[i].1 .0;
        assert!(coal < opt, "{}: coal pwb {coal} !< opt {opt}", QUEUE_OPT[i].0);
        assert!(lp <= coal, "{}: lp pwb {lp} !<= coal {coal}", QUEUE_OPT[i].0);
    }
    for i in 0..4 {
        assert!(QUEUE_LP[i].1 .0 < QUEUE_COAL[i].1 .0, "{}: LP saved nothing", QUEUE_OPT[i].0);
    }
    // LP enqueue drops a whole psync (3 -> 2).
    assert_eq!(QUEUE_OPT[0].1 .4, 3);
    assert_eq!(QUEUE_LP[0].1 .5, 2);

    // >= 20% fewer pwb-equivalents on the tuned hash-map mutating hot path...
    let opt_sum: u64 = [0usize, 1, 4, 5].iter().map(|&i| GOLDEN_OPT[i].1 .0).sum();
    let lp_sum: u64 = [0usize, 1, 4, 5].iter().map(|&i| GOLDEN_LP[i].1 .0).sum();
    assert!(
        lp_sum * 5 <= opt_sum * 4,
        "map hot path: LP {lp_sum} pwb-eq vs tuned {opt_sum} — under 20% reduction"
    );
    // ...and across the whole queue scenario.
    let opt_sum: u64 = QUEUE_OPT.iter().map(|r| r.1 .0).sum();
    let lp_sum: u64 = QUEUE_LP.iter().map(|r| r.1 .0).sum();
    assert!(
        lp_sum * 5 <= opt_sum * 4,
        "queue hot path: LP {lp_sum} pwb-eq vs tuned {opt_sum} — under 20% reduction"
    );
}
