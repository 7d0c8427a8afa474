#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root.  For every workload it makes two traced
2-second runs with the same seed and requires every per-layer count to
repeat exactly and no operation to fail; it also requires the farm's job
mix to repeat for one seed and to change with the seed.  Exits 1 on any
mismatch.
"""
import json
import subprocess
import sys

COUNTS = [
    "frontend.flops_per_lup",
    "kernel.computed_bytes_per_lup",
    "jit.compiles",
    "jit.lookups_per_step",
    "kernel.sweeps_per_step",
    "kernel.minor_words_per_lup",
    "exchange.messages_per_step",
    "exchange.bytes_per_step",
    "ckpt.bytes",
    "serve.preemptions",
    "serve.restarts",
    "serve.rejected",
    "serve.mempool_hit_rate",
    "jit.native",
]
WORKLOADS = ["p1-single", "eutectic-forest", "farm-zoo"]


def run(*args):
    out = subprocess.run(["bash", "perfbench/run.sh", *args], capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"selftest: run.sh {' '.join(args)} exited {out.returncode}\n{out.stderr}")
    return out.stdout


def main():
    bad = []
    for w in WORKLOADS:
        results = []
        for _ in range(2):
            last = run("--workload", w, "--seed", "7", "--seconds", "2", "--trace", "1")
            results.append(json.loads(last.strip().splitlines()[-1]))
        for r in results:
            if not r["correct"] or r["failed"] != 0:
                bad.append(f"{w}: correct={r['correct']} failed={r['failed']}")
        a, b = (r["metrics"] for r in results)
        for name in COUNTS:
            va, vb = a[name]["value"], b[name]["value"]
            status = "ok" if va == vb else "DIFFERS"
            print(f"{w:16s} {name:32s} {va!r:>24} {vb!r:>24} {status}")
            if va != vb:
                bad.append(f"{w}: {name} {va!r} != {vb!r}")
    mix = [run("--print-mix", "--seed", s) for s in ("1", "1", "2")]
    print(f"farm mix: seed 1 repeats: {mix[0] == mix[1]}, seed 2 differs: {mix[0] != mix[2]}")
    if mix[0] != mix[1]:
        bad.append("farm mix differs between two runs of seed 1")
    if mix[0] == mix[2]:
        bad.append("farm mix is the same for seeds 1 and 2")
    for b in bad:
        print("FAIL", b)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
