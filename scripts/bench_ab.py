#!/usr/bin/env python3
"""Same-host A/B of perfbench: the working tree against a git revision.

Usage: python3 scripts/bench_ab.py [--pairs N] REV [WORKLOAD...]

REV is built from `git archive` into `.bench_build/<sha>/`; the working
tree is built in place. WORKLOAD defaults to every workload in
BENCHMARK.json. Each workload runs N interleaved pairs (default 5) of
the BENCHMARK.json command with `--seconds run_seconds --trace 0`, one
seed per pair shared by both sides, alternating which side runs first.
Each side runs from its own root, and its result is the last stdout
line.

For every end-to-end metric the report gives each side's median and
interquartile range (IQR), how many pairs the change won, and one
verdict (see `verdict`; a metric that meets the gain rule reads
`gained`, see `gained`). The exit code is non-zero when any metric
regressed, when a run of the working tree reports `correct: false`, or
when the working tree fails a larger share of its operations than REV.
A claimed gain should be read off at least 10 pairs.

On a clean tree, `bench_ab.py HEAD` is the A/A check: both sides build
the same source, so every verdict should read pass or unresolved.

The verdict arithmetic is checked by doctests:

    python3 -m doctest scripts/bench_ab.py
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Each side builds into its own perfbench/target.
ENV = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}


def iqr(xs):
    """Distance between the quartiles, linearly interpolated.

    >>> iqr([1.0, 2.0, 3.0, 4.0, 5.0])
    2.0
    """
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def verdict(parent, change, better, bound):
    """One metric's verdict: "pass", "regressed" or "unresolved".

    It regressed when the change's median is worse than the parent's by
    more than `bound` times the parent's median and also by more than
    the parent's IQR. It is unresolved when the parent's own IQR exceeds
    `bound` times its median, unless every change run beats every parent
    run. Otherwise it passes.

    A shift inside the bound passes:

    >>> verdict([10.0, 10.1, 10.2, 10.1, 10.0],
    ...         [10.5, 10.6, 10.4, 10.5, 10.6], "lower", 0.25)
    'pass'

    A shift beyond both the bound and the spread regresses:

    >>> verdict([10.0, 10.1, 10.2, 10.1, 10.0],
    ...         [13.0, 13.2, 13.1, 12.9, 13.0], "lower", 0.25)
    'regressed'
    >>> verdict([10.0, 10.1, 10.2, 10.1, 10.0],
    ...         [7.0, 7.2, 7.1, 6.9, 7.0], "higher", 0.25)
    'regressed'

    A spread wider than the bound reads unresolved, even with no shift:

    >>> verdict([10.0, 15.0, 10.5, 14.0, 11.0],
    ...         [10.0, 15.0, 10.5, 14.0, 11.0], "lower", 0.25)
    'unresolved'

    A change whose every run beats every parent run passes despite a
    wide spread:

    >>> verdict([10.0, 15.0, 10.5, 14.0, 11.0],
    ...         [9.0, 9.5, 9.2, 9.9, 9.1], "lower", 0.25)
    'pass'

    A shift beyond the bound but inside a wider spread is not a
    regression; it is unresolved:

    >>> verdict([10.0, 15.0, 10.5, 14.0, 11.0],
    ...         [13.8, 14.0, 14.2, 14.1, 13.9], "lower", 0.25)
    'unresolved'
    """
    pm, cm, spread = statistics.median(parent), statistics.median(change), iqr(parent)
    worse = cm - pm if better == "lower" else pm - cm
    if worse > bound * abs(pm) and worse > spread:
        return "regressed"
    if better == "lower":
        beats_all = max(change) < min(parent)
    else:
        beats_all = min(change) > max(parent)
    if spread > bound * abs(pm) and not beats_all:
        return "unresolved"
    return "pass"


def wins(parent, change, better):
    """Pairs in which the change beat the parent run with the same seed.

    >>> wins([10.0, 10.0, 10.0], [9.0, 10.0, 11.0], "lower")
    1
    >>> wins([10.0, 10.0, 10.0], [9.0, 10.0, 11.0], "higher")
    1
    """
    if better == "lower":
        return sum(1 for p, c in zip(parent, change) if c < p)
    return sum(1 for p, c in zip(parent, change) if c > p)


def gained(parent, change, better):
    """Whether the change shows a gain: it wins at least 9 in 10 pairs,
    and its median beats the parent's by more than the parent's IQR.

    Ten pairs, all won, by a shift far beyond the spread:

    >>> parent = [19.0, 19.2, 18.8, 19.1, 18.9, 19.0, 19.3, 18.7, 19.0, 19.1]
    >>> gained(parent, [x * 1.35 for x in parent], "higher")
    True

    One lost pair in ten still counts; a shift inside the parent's IQR
    does not, however many pairs it wins:

    >>> change = [x * 1.35 for x in parent[:9]] + [18.0]
    >>> gained(parent, change, "higher")
    True
    >>> gained(parent, [x + 0.1 for x in parent], "higher")
    False

    Two lost pairs in ten fail the win rule, even by a wide margin:

    >>> change = [x * 1.35 for x in parent[:8]] + [18.0, 18.0]
    >>> gained(parent, change, "higher")
    False

    For a metric where lower is better:

    >>> gained([6.3, 6.4, 6.2, 6.3, 6.5], [4.6, 4.7, 4.6, 4.5, 4.6], "lower")
    True
    """
    pm, cm = statistics.median(parent), statistics.median(change)
    better_by = pm - cm if better == "lower" else cm - pm
    return 10 * wins(parent, change, better) >= 9 * len(parent) and better_by > iqr(parent)


def failed_share(runs):
    """Failed operations over attempted ones, across a side's runs.

    >>> failed_share([{"attempted": 200, "failed": 0},
    ...               {"attempted": 200, "failed": 2}])
    0.005
    """
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def problems(parent_runs, change_runs):
    """Failures that are not per-metric: an incorrect change run, or a
    higher failed share than the parent's.

    >>> ok = {"correct": True, "attempted": 400, "failed": 0}
    >>> problems([ok, ok], [ok, ok])
    []

    A higher failed share fails:

    >>> one_failed = {"correct": True, "attempted": 400, "failed": 1}
    >>> problems([ok, ok], [ok, one_failed])
    ['failed share rose from 0.00% to 0.12%']

    So does a change run whose output checks failed:

    >>> problems([ok], [dict(ok, correct=False)])
    ['1 of 1 run(s) reported correct: false']
    """
    out = []
    wrong = sum(1 for r in change_runs if not r["correct"])
    if wrong:
        out.append(f"{wrong} of {len(change_runs)} run(s) reported correct: false")
    p, c = failed_share(parent_runs), failed_share(change_runs)
    if c > p:
        out.append(f"failed share rose from {p:.2%} to {c:.2%}")
    return out


def sh(args, cwd, **kw):
    return subprocess.run(args, cwd=cwd, env=ENV, check=True, **kw)


def checkout(rev):
    """Extracts `rev` into .bench_build/<sha>/ once, and returns the
    directory and the full sha."""
    sha = sh(["git", "rev-parse", "--verify", rev + "^{commit}"], ROOT,
             capture_output=True, text=True).stdout.strip()
    root = os.path.join(ROOT, ".bench_build", sha)
    if not os.path.isdir(root):
        tmp = root + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tar = sh(["git", "archive", "--format=tar", sha], ROOT,
                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as t:
            t.extractall(tmp)
        os.rename(tmp, root)
    return root, sha


def run_once(root, command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=root, env=ENV, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench_ab: {workload} seed {seed} in {root} printed no result "
                 f"line (exit {proc.returncode})")


def compare(workload, sides, bench, pairs):
    """Runs one workload's pairs and prints its table. Returns the
    failures it found."""
    runs = {name: [] for name, _ in sides}
    for pair in range(pairs):
        seed = pair + 1
        order = sides if pair % 2 == 0 else sides[::-1]
        for name, root in order:
            result = run_once(root, bench["command"], workload, seed,
                              bench["run_seconds"])
            runs[name].append(result)
            wall = result["metrics"]["wall_s"]["value"]
            print(f"  pair {pair + 1}/{pairs} seed {seed} {name:<6} "
                  f"wall_s {wall:.3f}", file=sys.stderr, flush=True)

    parent, change = runs["parent"], runs["change"]
    failures = []
    print(f"\n{workload} ({pairs} pairs; median [IQR])")
    print(f"  {'metric':<14} {'parent':>23} {'change':>23} {'shift':>8} "
          f"{'wins':>6}  verdict")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pm, cm = statistics.median(p), statistics.median(c)
        shift = (cm - pm) / pm if pm else 0.0
        v = verdict(p, c, m["better"], bound)
        if v != "regressed" and gained(p, c, m["better"]):
            v = "gained"
        note = ""
        if v == "unresolved":
            note = f" (parent IQR {iqr(p) / pm:.1%} of median > bound {bound:.0%})"
        elif v == "regressed":
            failures.append(f"{workload} {name} regressed {shift:+.1%}")
        won = f"{wins(p, c, m['better'])}/{len(p)}"
        print(f"  {name:<14} {pm:>12.4g} [{iqr(p):>8.3g}] {cm:>12.4g} "
              f"[{iqr(c):>8.3g}] {shift:>+8.1%} {won:>6}  {v}{note}")
    print(f"  ops: parent {sum(r['failed'] for r in parent)}/"
          f"{sum(r['attempted'] for r in parent)} failed, change "
          f"{sum(r['failed'] for r in change)}/"
          f"{sum(r['attempted'] for r in change)} failed")
    failures += [f"{workload}: {p}" for p in problems(parent, change)]
    return failures


def main(argv):
    parser = argparse.ArgumentParser(
        prog="bench_ab.py", usage=__doc__.split("\n\n")[1].removeprefix("Usage: "))
    parser.add_argument("rev", metavar="REV")
    parser.add_argument("workloads", metavar="WORKLOAD", nargs="*", default=[])
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        sys.exit(f"bench_ab: unknown workload(s) {unknown}; known: {known}")

    parent_root, sha = checkout(args.rev)
    sides = [("parent", parent_root), ("change", ROOT)]
    command = bench["command"]
    build = [command[0], "build"] + [a for a in command[2:] if a != "--"]
    for _, root in sides:
        sh(build, root)
    print(f"parent {sha[:12]} ({args.rev}) vs change (working tree)")

    failures = []
    for workload in workloads:
        failures += compare(workload, sides, bench, args.pairs)
    if failures:
        print("\nbench_ab: FAILED")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nbench_ab: ok (no regression; read unresolved rows as unknown, not as pass)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
