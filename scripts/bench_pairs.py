#!/usr/bin/env python3
"""Runs the repository benchmark in alternating parent/change pairs.

Run from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --seed 301 \\
        --seconds 45 --out BENCH_N.json

The change side is this working tree; the parent side is `git archive`
of `--parent`, unpacked into a temporary directory and built with its own
CARGO_TARGET_DIR.  Each side runs through its own `perfbench/run.py`
with `--trace 0`, on every workload of BENCHMARK.json.  Pair i runs seed
`--seed + i` on both sides, and the side that runs first alternates from
pair to pair (each run pins the same CPU, so the two sides never run at
once).

The JSON written to `--out` records the command with `--parent` resolved
to a commit, and names the measured working tree by its git tree hash
(tracked and untracked files, ignored ones excluded), so `git diff <tree>
<commit>` shows how a commit differs from what was measured.  For each
workload and each end-to-end metric of BENCHMARK.json it holds q1,
median and q3 per side, the pairs each side won, the parent's IQR, the
metric's bound and direction, and two verdicts:

- `gain`: the change won at least nine tenths of the pairs (ties count
  for neither) and its median is better than the parent's by more than
  the parent's IQR;
- `no_regression`: `ok` when the change's median is worse than the
  parent's by at most the bound; `regressed` when by more; `unresolved`
  when either side's spread (IQR / median) exceeds the bound, unless
  every change run beats every parent run.

It also records every run's metrics, the host's `nproc`, the online CPUs
and the CPU the runs were pinned to.  A run that exits non-zero, is not
`correct` or reports a failed operation stops the script: the JSON is
still written, with every run made so far and the reason under
`aborted`, and the script exits 1.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class BadRun(Exception):
    """A run that exited non-zero, was not correct or failed an operation."""


def git(*args, env=None):
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True, env=env
    ).stdout.strip()


def working_tree():
    """The git tree hash of the working tree as it is, written through a
    scratch copy of the index so the real index is left untouched."""
    with tempfile.TemporaryDirectory() as scratch:
        index = os.path.join(scratch, "index")
        real = os.path.join(ROOT, git("rev-parse", "--git-path", "index"))
        if os.path.exists(real):
            shutil.copy(real, index)
        env = dict(os.environ, GIT_INDEX_FILE=index)
        git("add", "--all", env=env)
        return git("write-tree", env=env)


def unpack(rev, dest):
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"bench_pairs: git archive {rev} failed")


def run_once(tree, target, workload, seed, seconds):
    """One `--trace 0` run; returns (meta, result) from its last two lines."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise BadRun(f"{workload} seed {seed} in {tree} exited {proc.returncode}")
    meta, result = json.loads(lines[-2]).get("meta", {}), json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        raise BadRun(f"{workload} seed {seed} in {tree}: correct="
                     f"{result.get('correct')} failed={result.get('failed')}")
    return meta, result


def quartiles(xs):
    """Q1, median and Q3 by linear interpolation between order statistics."""
    xs = sorted(xs)

    def at(p):
        pos = p * (len(xs) - 1)
        lo, hi = math.floor(pos), math.ceil(pos)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return {"q1": at(0.25), "median": at(0.5), "q3": at(0.75)}


def summarize(spec, parent_runs, change_runs):
    """The per-metric record for one end-to-end metric of one workload."""
    name, bound = spec["name"], spec["bound"]
    lower = spec["better"] == "lower"
    parent = [r[name] for r in parent_runs]
    change = [r[name] for r in change_runs]

    def better(a, b):
        return a < b if lower else a > b

    won = sum(better(c, p) for p, c in zip(parent, change))
    lost = sum(better(p, c) for p, c in zip(parent, change))
    ps, cs = quartiles(parent), quartiles(change)
    iqr = ps["q3"] - ps["q1"]
    gain = won >= 0.9 * len(parent) and (
        ps["median"] - cs["median"] if lower else cs["median"] - ps["median"]) > iqr
    worse = (cs["median"] - ps["median"] if lower else ps["median"] - cs["median"])
    worse_ratio = worse / abs(ps["median"]) if ps["median"] else 0.0

    def spread(s):
        return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0

    if worse_ratio > bound:
        verdict = "regressed"
    elif max(spread(ps), spread(cs)) > bound and not all(
            better(c, p) for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": bound,
        "parent": ps, "change": cs, "parent_iqr": iqr,
        "median_change": (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else None,
        "pairs_won": won, "pairs_lost": lost, "pairs": len(parent),
        "gain": gain, "no_regression": verdict,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    parent = git("rev-parse", "--verify", args.parent + "^{commit}")
    report = {
        "command": " ".join([
            "python3", "scripts/bench_pairs.py", "--parent", parent, "--pairs",
            str(args.pairs), "--seed", str(args.seed), "--seconds", str(seconds),
            "--out", args.out]),
        "parent": parent,
        "change": {
            "head": git("rev-parse", "HEAD"),
            "tree": working_tree(),
            "clean": not git("status", "--porcelain"),
        },
        "seconds": seconds,
        "pairs": args.pairs,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "host": {"nproc": os.cpu_count()},
        "workloads": {},
    }

    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        parent_tree = os.path.join(scratch, "parent")
        os.mkdir(parent_tree)
        unpack(parent, parent_tree)
        sides = {
            "parent": (parent_tree, os.path.join(scratch, "target")),
            "change": (ROOT, os.environ.get("CARGO_TARGET_DIR")
                       or os.path.join(ROOT, ".bench_build")),
        }
        for workload in [w["name"] for w in bench["workloads"]]:
            runs = []
            report["workloads"][workload] = {"runs": runs}
            for i in range(args.pairs):
                seed = args.seed + i
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                pair = {"seed": seed, "first": order[0]}
                runs.append(pair)
                for side in order:
                    tree, target = sides[side]
                    meta, result = run_once(tree, target, workload, seed, seconds)
                    pair[side] = {k: v["value"] for k, v in result["metrics"].items()}
                    report["host"]["cpus_online"] = meta.get("cpus_online")
                    report["host"]["pinned_cpu"] = meta.get("affinity")
                print(f"bench_pairs: {workload} pair {i + 1}/{args.pairs} (seed {seed}) done",
                      file=sys.stderr)
            report["workloads"][workload]["metrics"] = {
                spec["name"]: summarize(spec, [r["parent"] for r in runs],
                                        [r["change"] for r in runs])
                for spec in bench["end_to_end"]
            }
    except BadRun as bad:
        report["aborted"] = str(bad)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    if "aborted" in report:
        print(f"bench_pairs: aborted: {report['aborted']}; runs so far in {args.out}",
              file=sys.stderr)
        return 1
    for workload, data in report["workloads"].items():
        for name, m in data["metrics"].items():
            print(f"{workload:12} {name:22} {m['parent']['median']:>12.4g} -> "
                  f"{m['change']['median']:>12.4g} {m['unit']:4} won {m['pairs_won']}/{m['pairs']}"
                  f"  gain={m['gain']}  {m['no_regression']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
