#!/usr/bin/env python3
"""Paired perfbench runs: a git revision against the working tree.

Extracts REV with `git archive` into a temporary directory, then runs
`perfbench/run.py` alternately there ("base") and in the working tree
("head"), for BENCHMARK.json's run_seconds, with the same seed for both
sides of a pair. The side that goes first alternates from pair to pair,
so a drift in the host's load falls on both sides alike. Each side builds
into its own directory: the working tree where run.py puts it by default,
the base under the temporary directory, whatever CARGO_TARGET_DIR says.

For every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, how many pairs the head won, and whether the head's
gain is claimable: it wins at least 9 in 10 of all the pairs it ran (a
pair without a result on both sides is a loss), the medians differ by more
than the spread between the base's quartiles (its IQR), and the head
fails no more operations than the base. It also prints failed/attempted
operations for each side. It changes nothing under perfbench/.

Run from anywhere:

    python3 scripts/perf_pairs.py --workload transclos --pairs 10
    python3 scripts/perf_pairs.py --base HEAD~1 --workload nbody
    python3 scripts/perf_pairs.py --self-test
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Pair i runs both sides with seed FIRST_SEED + i.
FIRST_SEED = 1
# Share of pairs the head must win for a claimable gain.
WIN_SHARE = 0.9


def log(msg):
    print(f"perf_pairs: {msg}", file=sys.stderr, flush=True)


def quartiles(xs):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def head_wins(base, head, better):
    """Pairs in which the head's value is strictly better than the base's."""
    if better == "lower":
        return sum(h < b for b, h in zip(base, head))
    return sum(h > b for b, h in zip(base, head))


def failed_ops(results):
    """Failed operations, summed over the runs with a result."""
    return sum(r["failed"] for r in results if r is not None)


def verdict(base, head, better, fails_ok):
    """Statistics of one metric over paired runs: base[i] pairs head[i], None
    where a run gave no result. The quartiles and wins are over the complete
    pairs; the share of wins is over all of them. `fails_ok` says whether
    the head failed no more operations than the base."""
    done = [(b, h) for b, h in zip(base, head)
            if b is not None and h is not None]
    bs = [b for b, _ in done]
    hs = [h for _, h in done]
    bq1, bmed, bq3 = quartiles(bs)
    hq1, hmed, hq3 = quartiles(hs)
    wins = head_wins(bs, hs, better)
    iqr = bq3 - bq1
    gain = bmed - hmed if better == "lower" else hmed - bmed
    claim = (fails_ok and wins >= math.ceil(WIN_SHARE * len(base))
             and gain > iqr)
    return {"base": (bq1, bmed, bq3), "head": (hq1, hmed, hq3),
            "wins": wins, "pairs": len(base), "base_iqr": iqr,
            "change": (hmed - bmed) / bmed if bmed else 0.0,
            "claimable": claim}


def self_test():
    """Checks the statistics on fixed numbers; exits non-zero on a mismatch."""
    def close(a, b):
        return abs(a - b) < 1e-12

    q = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert all(close(x, y) for x, y in zip(q, (2.0, 3.0, 4.0))), q
    q = quartiles([4.0, 1.0, 3.0, 2.0])
    assert all(close(x, y) for x, y in zip(q, (1.75, 2.5, 3.25))), q
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)

    base = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    better = [b - 3.0 for b in base]
    # Head 3 lower in every pair: 10/10 wins, gain 3 > base IQR 2.25.
    v = verdict(base, better, "lower", True)
    assert v["wins"] == 10 and close(v["base_iqr"], 2.25), v
    assert v["claimable"], v
    # 9/10 wins still claims; 8/10 does not.
    head = list(better)
    head[0] = base[0] + 1.0
    assert verdict(base, head, "lower", True)["claimable"]
    head[1] = base[1] + 1.0
    v = verdict(base, head, "lower", True)
    assert v["wins"] == 8 and not v["claimable"], v
    # A pair without a result is a loss: 1 missing of 10 still claims,
    # 2 missing (8 wins of 10 pairs) does not, whichever side failed.
    head = list(better)
    head[0] = None
    assert verdict(base, head, "lower", True)["claimable"]
    missing = list(base)
    missing[1] = None
    v = verdict(missing, head, "lower", True)
    assert v["wins"] == 8 and v["pairs"] == 10 and not v["claimable"], v
    # 10/10 wins by a margin smaller than the base's IQR does not claim.
    v = verdict(base, [b - 1.0 for b in base], "lower", True)
    assert v["wins"] == 10 and not v["claimable"], v
    # A head that fails more operations does not claim.
    assert not verdict(base, better, "lower", False)["claimable"]
    assert failed_ops([{"failed": 1}, None, {"failed": 2}]) == 3
    assert failed_ops([None]) == 0
    # A tie is not a win.
    assert head_wins([1.0, 2.0], [1.0, 1.0], "lower") == 1
    # "higher" metrics win upwards and count the gain upwards.
    v = verdict(base, [b + 3.0 for b in base], "higher", True)
    assert v["wins"] == 10 and v["claimable"], v
    assert not verdict(base, [b + 3.0 for b in base], "lower",
                       True)["claimable"]
    assert close(verdict([2.0, 2.0], [1.0, 1.0], "lower", True)["change"],
                 -0.5)
    print("perf_pairs: self-test passed")
    return 0


def run_side(root, env, workload, seconds, seed):
    """One perfbench run; its parsed result line, or None if it failed."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        log(f"run.py exited {proc.returncode} in {root}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result line from run.py in {root}")
        return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD",
                    help="git revision to compare against (default HEAD)")
    ap.add_argument("--workload",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--self-test", action="store_true",
                    help="check the statistics on fixed numbers and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    seconds = spec["run_seconds"]

    work = Path(tempfile.mkdtemp(prefix="perf_pairs-"))
    try:
        base_root = work / "tree"
        base_root.mkdir()
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(base_root)], input=archive,
                       check=True)
        base_env = dict(os.environ, CARGO_TARGET_DIR=str(work / "target"))
        sides = {"base": (base_root, base_env), "head": (ROOT, dict(os.environ))}

        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                side_root, env = sides[side]
                log(f"pair {i + 1}/{args.pairs}: {side}, seed {seed}")
                runs[side].append(
                    run_side(side_root, env, args.workload, seconds, seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    complete = sum(b is not None and h is not None
                   for b, h in zip(runs["base"], runs["head"]))
    print(f"{args.workload}: {args.base} (base) vs working tree (head), "
          f"{complete}/{args.pairs} complete pairs at {seconds:g} s")
    for side in ("base", "head"):
        done = [r for r in runs[side] if r is not None]
        failed = failed_ops(done)
        attempted = sum(r["attempted"] for r in done)
        print(f"  {side}: {failed}/{attempted} operations failed, "
              f"{args.pairs - len(done)} runs without a result")
    if not complete:
        return 1
    fails_ok = failed_ops(runs["head"]) <= failed_ops(runs["base"])
    print(f"  {'metric':<20}{'base q1 / median / q3':>32}"
          f"{'head q1 / median / q3':>32}{'change':>9}{'wins':>7}  claim")
    for m in spec["end_to_end"]:
        name, better = m["name"], m["better"]
        values = {side: [r["metrics"][name]["value"] if r else None
                         for r in runs[side]] for side in runs}
        v = verdict(values["base"], values["head"], better, fails_ok)
        cols = ["{:.4g} / {:.4g} / {:.4g}".format(*v[s]) for s in ("base", "head")]
        print(f"  {name + ' ' + m['unit']:<20}{cols[0]:>32}{cols[1]:>32}"
              f"{v['change']:>+9.1%}{v['wins']:>4}/{v['pairs']:<2}  "
              f"{'yes' if v['claimable'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
