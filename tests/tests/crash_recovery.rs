//! Crash-recovery integration tests: seeded system-wide crashes over the
//! NVM simulator, adversarial image reconstruction, per-process recovery,
//! and exactly-once / detectability validation (DESIGN.md §8).

use bench_harness::crash::{
    run_hashmap_coal_scenario, run_hashmap_lp_scenario, run_hashmap_opt_scenario,
    run_hashmap_scenario, run_list_scenario, run_queue_coal_scenario, run_queue_lp_scenario,
    run_queue_scenario, CrashCfg,
};

#[test]
fn list_survives_many_seeded_crashes() {
    let mut total_pending = 0;
    for seed in 0..40 {
        let rep = run_list_scenario(CrashCfg {
            procs: 3,
            ops_per_proc: 80,
            keys_per_proc: 10,
            recovery_crashes: 0,
            seed,
        });
        total_pending += rep.pending;
    }
    // Across 40 seeds, at least some crashes must have landed mid-operation,
    // otherwise the test exercises nothing.
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
}

#[test]
fn list_survives_repeated_recovery_crashes() {
    for seed in 100..115 {
        run_list_scenario(CrashCfg {
            procs: 3,
            ops_per_proc: 60,
            keys_per_proc: 8,
            recovery_crashes: 2, // recovery itself dies twice before completing
            seed,
        });
    }
}

#[test]
fn list_high_contention_crashes() {
    // Tiny key space per process ⇒ many adjacent-node conflicts and helping.
    for seed in 200..220 {
        run_list_scenario(CrashCfg {
            procs: 4,
            ops_per_proc: 100,
            keys_per_proc: 3,
            recovery_crashes: 1,
            seed,
        });
    }
}

#[test]
fn hashmap_survives_many_seeded_crashes() {
    // Sharded map, untuned placement: 16 shards with 3 × 24 disjoint keys,
    // so the fibonacci shard function scatters each process's working set —
    // and therefore the crash-pending descriptors — across different
    // buckets, all funneling through the one shared RecArea. The generic
    // driver validates exactly-once responses, leak-free teardown and the
    // post-recovery POISON scan per seed.
    let mut total_pending = 0;
    for seed in 0..12 {
        let rep = run_hashmap_scenario(CrashCfg {
            procs: 3,
            ops_per_proc: 80,
            keys_per_proc: 24,
            recovery_crashes: 0,
            seed,
        });
        total_pending += rep.pending;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
}

#[test]
fn hashmap_opt_survives_many_seeded_crashes() {
    // Hand-tuned placement over the same scenario family, different seeds.
    let mut total_pending = 0;
    for seed in 700..712 {
        let rep = run_hashmap_opt_scenario(CrashCfg {
            procs: 3,
            ops_per_proc: 80,
            keys_per_proc: 24,
            recovery_crashes: 0,
            seed,
        });
        total_pending += rep.pending;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
}

#[test]
fn hashmap_survives_repeated_recovery_crashes() {
    // Multi-crash: recovery itself dies twice per seed, in both placements.
    for seed in 800..806 {
        run_hashmap_scenario(CrashCfg {
            procs: 3,
            ops_per_proc: 60,
            keys_per_proc: 16,
            recovery_crashes: 2,
            seed,
        });
        run_hashmap_opt_scenario(CrashCfg {
            procs: 3,
            ops_per_proc: 60,
            keys_per_proc: 16,
            recovery_crashes: 2,
            seed: seed + 50,
        });
    }
}

#[test]
fn hashmap_high_contention_crashes() {
    // Tiny per-process key space ⇒ adjacent-key conflicts concentrate in few
    // shards, exercising cross-process helping inside a bucket while other
    // buckets stay idle.
    for seed in 900..910 {
        run_hashmap_scenario(CrashCfg {
            procs: 4,
            ops_per_proc: 100,
            keys_per_proc: 3,
            recovery_crashes: 1,
            seed,
        });
    }
}

#[test]
fn hashmap_coal_survives_many_seeded_crashes() {
    // Coalescing placement: a noted line is an outstanding word until the
    // next fence, and `CP_q := 1` is deferred into `publish_arm` — the image
    // builder may crash an op between `begin` and publish with a durably-zero
    // checkpoint bit, which must read as Restart.
    let mut total_pending = 0;
    for seed in 1000..1012 {
        let rep = run_hashmap_coal_scenario(CrashCfg {
            procs: 3,
            ops_per_proc: 80,
            keys_per_proc: 24,
            recovery_crashes: 0,
            seed,
        });
        total_pending += rep.pending;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
}

#[test]
fn hashmap_lp_survives_many_seeded_crashes() {
    // Link-persist placement: cleanup untag flushes are elided entirely, so
    // the adversary can resurrect tags of completed operations; the scrub /
    // lazy-helping path must heal them without double-applying effects.
    let mut total_pending = 0;
    for seed in 1100..1112 {
        let rep = run_hashmap_lp_scenario(CrashCfg {
            procs: 3,
            ops_per_proc: 80,
            keys_per_proc: 24,
            recovery_crashes: 0,
            seed,
        });
        total_pending += rep.pending;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
}

#[test]
fn hashmap_coalescing_arms_survive_repeated_recovery_crashes() {
    for seed in 1200..1206 {
        run_hashmap_coal_scenario(CrashCfg {
            procs: 3,
            ops_per_proc: 60,
            keys_per_proc: 16,
            recovery_crashes: 2,
            seed,
        });
        run_hashmap_lp_scenario(CrashCfg {
            procs: 3,
            ops_per_proc: 60,
            keys_per_proc: 16,
            recovery_crashes: 2,
            seed: seed + 50,
        });
    }
}

#[test]
fn queue_survives_many_seeded_crashes() {
    let mut total = 0;
    for seed in 0..40 {
        let rep = run_queue_scenario(CrashCfg {
            procs: 4,
            ops_per_proc: 60,
            keys_per_proc: 16, // prefill
            recovery_crashes: 0,
            seed,
        });
        total += rep.completed;
    }
    assert!(total > 0);
}

#[test]
fn queue_coal_survives_many_seeded_crashes() {
    let mut total = 0;
    for seed in 2000..2020 {
        let rep = run_queue_coal_scenario(CrashCfg {
            procs: 4,
            ops_per_proc: 60,
            keys_per_proc: 16, // prefill
            recovery_crashes: 0,
            seed,
        });
        total += rep.completed;
    }
    assert!(total > 0);
}

#[test]
fn queue_lp_survives_many_seeded_crashes() {
    // LP enqueue skips the tag-phase `psync` (single-affect help): the crash
    // image may roll the tail-link CAS back while the descriptor and RD_q
    // survive, or persist the link while `result` rolls back — both must
    // resolve to exactly-once effects via Op-Recover.
    let mut total = 0;
    for seed in 2100..2120 {
        let rep = run_queue_lp_scenario(CrashCfg {
            procs: 4,
            ops_per_proc: 60,
            keys_per_proc: 16, // prefill
            recovery_crashes: 0,
            seed,
        });
        total += rep.completed;
    }
    assert!(total > 0);
}

#[test]
fn bst_survives_many_seeded_crashes() {
    for seed in 0..25 {
        bench_harness::crash::run_bst_scenario(CrashCfg {
            procs: 3,
            ops_per_proc: 80,
            keys_per_proc: 8,
            recovery_crashes: 0,
            seed,
        });
    }
}

#[test]
fn bst_survives_repeated_recovery_crashes() {
    for seed in 500..510 {
        bench_harness::crash::run_bst_scenario(CrashCfg {
            procs: 3,
            ops_per_proc: 60,
            keys_per_proc: 6,
            recovery_crashes: 2,
            seed,
        });
    }
}

#[test]
fn hashmap_arms_survive_crashes_around_growth() {
    // The harness map starts from one bucket. 3 × 11 prefilled keys put the
    // 33rd insert — the directory's first doubling — at the end of the
    // prefill, so bucket 1's guard and sentinel are inserted (untracked,
    // under a pending operation's `mark_invoked`) by the workers, inside
    // the crash window, in every placement.
    let cfg = |seed| CrashCfg {
        procs: 3,
        ops_per_proc: 40,
        keys_per_proc: 21,
        recovery_crashes: 1,
        seed,
    };
    for seed in 1300..1306 {
        run_hashmap_scenario(cfg(seed));
        run_hashmap_opt_scenario(cfg(seed + 10));
        run_hashmap_coal_scenario(cfg(seed + 20));
        run_hashmap_lp_scenario(cfg(seed + 30));
    }
}
