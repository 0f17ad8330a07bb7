#!/usr/bin/env python3
"""A/B-compare the campaign benchmark between a base revision and the checkout.

Run from the root of the repository:

    python3 bench/ab.py --base HEAD~1 --pairs 10 --seconds 30 --workload fuzz-boom --seed 1

The base revision is checked out into a git worktree under `.bench_build/`
and built there; the change is the working tree itself. The script then
runs `perfbench/run.py --trace 0` on each side for `--pairs` pairs,
alternating which side runs first (the base in odd pairs), and prints
one row per end-to-end metric declared in `BENCHMARK.json`: the base and change medians, the base and change
interquartile ranges, the relative change of the medians, and how many
pairs the change won (was better in, by the metric's direction). A row is
flagged `moved` when the change median lies outside the base median by
more than the base IQR, and `WORSE` when it is worse than the base median
by more than the metric's bound. A run that fails, or whose JSON line is
not `correct` with zero failures, stops the comparison with exit code 1.

`--json FILE` also writes the rows (and every sample) as JSON. The worktree
is removed at the end unless `--keep` is given; `--workload all` compares
every workload of `BENCHMARK.json` in turn.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"


def git(*args, cwd="."):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def add_worktree(rev):
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(BUILD_DIR, "base-" + sha[:12])
    if not os.path.isdir(path):
        os.makedirs(BUILD_DIR, exist_ok=True)
        git("worktree", "add", "--detach", path, sha)
    return sha, path


def remove_worktree(path):
    subprocess.run(["git", "worktree", "remove", "--force", path], check=False)
    shutil.rmtree(path, ignore_errors=True)


def run_once(cwd, workload, seed, seconds):
    """One perfbench run in [cwd]; its metric values by name."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith('{"correct"')]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"ab: perfbench failed in {cwd} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"ab: perfbench outputs incorrect in {cwd}: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def summarise(metric, base, change):
    lower = metric["better"] == "lower"
    mb, mc = statistics.median(base), statistics.median(change)
    spread = iqr(base)
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    rel = (mc - mb) / mb if mb else 0.0
    worse = (mc - mb) if lower else (mb - mc)
    flags = []
    if abs(mc - mb) > spread:
        flags.append("moved")
    if mb and worse / abs(mb) > metric["bound"]:
        flags.append("WORSE")
    return {
        "metric": metric["name"],
        "unit": metric["unit"],
        "better": metric["better"],
        "base_median": mb,
        "base_iqr": spread,
        "change_median": mc,
        "change_iqr": iqr(change),
        "relative_change": rel,
        "wins": wins,
        "pairs": len(base),
        "flags": flags,
        "base_samples": base,
        "change_samples": change,
    }


def print_rows(workload, seed, rows):
    print(f"workload {workload}, seed {seed}")
    header = (
        f"{'metric':<18} {'base median':>12} {'base IQR':>10} "
        f"{'change median':>14} {'change IQR':>10} {'change':>8} {'wins':>6}  flags"
    )
    print(header)
    for r in rows:
        print(
            f"{r['metric']:<18} {r['base_median']:>12.5g} {r['base_iqr']:>10.3g} "
            f"{r['change_median']:>14.5g} {r['change_iqr']:>10.3g} "
            f"{100 * r['relative_change']:>+7.1f}% "
            f"{r['wins']:>3}/{r['pairs']:<2}  {','.join(r['flags'])}"
        )


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--workload", default="fuzz-boom")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", help="also write the rows to this file")
    ap.add_argument("--keep", action="store_true", help="keep the base worktree")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be >= 1")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        chosen = workloads
    elif args.workload in workloads:
        chosen = [args.workload]
    else:
        ap.error(f"unknown workload {args.workload}; known: {', '.join(workloads)}")

    sha, base_dir = add_worktree(args.base)
    print(f"base {args.base} ({sha[:12]}) in {base_dir}; change = working tree")
    out = {"base": sha, "seed": args.seed, "seconds": args.seconds, "workloads": []}
    try:
        for workload in chosen:
            samples = {"base": [], "change": []}
            for i in range(args.pairs):
                order = [("base", base_dir), ("change", ".")]
                if i % 2 == 1:
                    order.reverse()
                for side, cwd in order:
                    samples[side].append(run_once(cwd, workload, args.seed, args.seconds))
                print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
            rows = [
                summarise(
                    m,
                    [s[m["name"]] for s in samples["base"]],
                    [s[m["name"]] for s in samples["change"]],
                )
                for m in bench["end_to_end"]
            ]
            print_rows(workload, args.seed, rows)
            out["workloads"].append({"workload": workload, "rows": rows})
    finally:
        if not args.keep:
            remove_worktree(base_dir)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
