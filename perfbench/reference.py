#!/usr/bin/env python3
"""Reference figures for perfbench/README.md; none of them is a metric.

Run from the repository root: python3 perfbench/reference.py
Builds the benchmark and the rtcg CLI into $CARGO_TARGET_DIR (default
.bench_build) and writes its scratch files under perfbench/out/.

1. the traced per-layer breakdown of each workload, and the tracing
   overhead: traced against untraced time per round;
2. a generated corpus through `rtcg analyze --batch` as a subprocess,
   against the same manifest analysed in-process;
3. the deadline sweep on the paper's example at one and two threads and
   through plain `find_feasible`.
"""
import json
import os
import re
import subprocess
import time

TARGET = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
BIN = os.path.join(TARGET, "release")
OUT = "perfbench/out"
SECONDS = "20"


def sh(*cmd):
    return subprocess.run(cmd, check=True, capture_output=True, text=True)


def bench(workload, trace):
    p = sh(os.path.join(BIN, "rtcg-perfbench"), "--workload", workload, "--seed", "1",
           "--seconds", SECONDS, "--trace", str(trace))
    summary = [l for l in p.stderr.splitlines() if l.startswith("perfbench ")][-1]
    return json.loads(p.stdout.splitlines()[-1]), summary


def per_round(summary, key):
    return float(re.search(r"([0-9.]+) s " + key, summary).group(1))


def main():
    sh("cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml")
    sh("cargo", "build", "--release", "--offline", "--quiet", "-p", "rtcg-cli")
    os.makedirs(OUT, exist_ok=True)

    print("## Traced runs (seed 1, per round)\n")
    for w in ["fleet", "edit", "lanes"]:
        plain, s0 = bench(w, 0)
        traced, s1 = bench(w, 1)
        untraced_round = per_round(s0, "per round")
        rounds, wall = map(float, re.search(r"traced: (\d+) rounds in ([0-9.]+) s", s1).groups())
        accounted = per_round(s1, "per round; verdict")
        times = {k: v["value"] for k, v in traced["metrics"].items() if v["unit"] == "s" and k != "lang.parse_s"}
        print(f"### {w}\n")
        print(f"untraced round {untraced_round:.4f} s; traced round {wall / rounds:.4f} s "
              f"(spans plus replayed layer calls); layer self time {accounted:.4f} s per round, "
              f"{100 * accounted / untraced_round:.1f}% of the untraced round\n")
        print("| layer metric | s per round | share of self time |\n|---|---|---|")
        for k, v in sorted(times.items(), key=lambda kv: -kv[1]):
            if v > 0:
                print(f"| `{k}` | {v:.4f} | {100 * v / accounted:.1f}% |")
        counts = {k: v["value"] for k, v in traced["metrics"].items() if v["unit"] != "s" and v["value"]}
        print("\ncounts per round: " + ", ".join(f"`{k}` {v:g}" for k, v in counts.items()) + "\n")

    print("## CLI batch against in-process\n")
    corpus = os.path.join(OUT, "corpus")
    subprocess.run(["rm", "-rf", corpus], check=True)
    sh(os.path.join(BIN, "rtcg"), "corpus", "generate", corpus, "--count", "200", "--seed", "1")
    manifest = os.path.join(corpus, "manifest.txt")
    cli = []
    for _ in range(3):
        t = time.perf_counter()
        p = subprocess.run([os.path.join(BIN, "rtcg"), "analyze", "--batch", manifest, "--threads", "1"],
                           capture_output=True, text=True)
        cli.append(time.perf_counter() - t)
        assert p.returncode in (0, 3), p.stderr
    inproc = []
    for _ in range(3):
        out = sh(os.path.join(BIN, "reference"), "batch", manifest).stdout
        inproc.append(float(re.search(r"in ([0-9.]+) s", out).group(1)))
    print(f"`rtcg analyze --batch` (200 specs, seed 1, default request, one thread): "
          f"{sorted(cli)[1]:.3f} s median of 3 wall times")
    print(f"in-process, same manifest and request: {sorted(inproc)[1]:.3f} s median of 3 "
          f"(analysis only: no parsing, no report printing)\n")

    print("## Deadline sweep on the paper's example (exact, max_len 8)\n")
    print(sh(os.path.join(BIN, "reference"), "sweep").stdout)


if __name__ == "__main__":
    main()
