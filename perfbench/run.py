#!/usr/bin/env python3
"""Builds the benchmark and the `kvserved` daemon from source, then runs it.

    python3 perfbench/run.py --workload kv_hot --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8 --trace 0

Run from the repository root. Build output goes to stderr; the benchmark's
own stdout (ending in one JSON line) passes through, and so does its exit
code. Artifacts go to $CARGO_TARGET_DIR (default `.bench_build`). With
`--workload all` it runs the three workloads in turn and exits non-zero if
any of them does.

The benchmark and the daemons it starts run pinned to one CPU. Unpinned on
a 2-vCPU VM, where the scheduler happens to place the client, connection
and worker threads decides whether each wake-up crosses CPUs, and a
1-client run lands at one of two request medians (about 29 us or 47 us)
for its whole length.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "kvserve", "--bin", "kvserved"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    env["PERFBENCH_KVSERVED"] = os.path.join(release, "kvserved")
    env["PERFBENCH_DIR"] = os.path.join(target, "perfbench")
    bench = os.path.join(release, "perfbench")
    cpu = min(os.sched_getaffinity(0))
    args = sys.argv[1:]
    runs = [args]
    i = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[i:i + 1] == ["all"]:
        runs = [args[:i] + [w] + args[i + 1:] for w in ("kv_hot", "kv_large", "kv_crash")]
    rc = 0
    for run in runs:
        rc = max(rc, subprocess.run([bench] + run, cwd=root, env=env,
                                    preexec_fn=lambda: os.sched_setaffinity(0, {cpu})).returncode)
    return rc


if __name__ == "__main__":
    sys.exit(main())
