"""Paired benchmark runs of two source trees, alternating which runs first.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --pairs 10 --seconds 30
    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload verify --workload figures
    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload oracle_wide --json BENCH.json

PARENT_TREE and CHANGE_TREE are source checkouts (for the parent, say, one
unpacked with ``git archive``).  For each workload both trees are copied
into fresh temporary directories without ``.git``, ``__pycache__`` or
``.bench_out``, so neither side starts with compiled bytecode or old
results.  Pair i runs ``python3 bench/run.py --workload W --seed i
--seconds N --trace 0`` in each copy under ``PYTHONDONTWRITEBYTECODE=1``,
the parent first at odd seeds and the change first at even ones.  Each run
is printed as it ends; then, per workload and end-to-end metric, the
medians of both sides, the parent's quartiles, the pairs the change won,
how much worse the change's median is against the bound in the change
tree's BENCHMARK.json, the failed ops and every ``setup_s`` reading.
With ``--json PATH`` the same summaries, with each run's metrics, go to
PATH as each workload ends, under that workload's name: an existing file
keeps its other workloads, so runs of different lengths or pair counts
can share one record.  A workload's entry also names each side's git
commit (``git_sha``, null for a tree that is not a checkout or differs
from its commit) and the SHA-256 of its ``src/`` (``src_sha256``), gives
each run's host-speed reading (``host_kernel_s``, the median of the run
record's ``kernel_s`` samples, see bench/hostspeed.py) and records
``"bytecode": false``: no side starts with compiled bytecode.  Once the
workloads are done, ``--json`` also times the Tier-1 suite (TIER1) three
times in a fresh copy of each tree, the sides alternating, and records
under ``tier1`` each side's wall seconds per run, their median and each
run's last pytest line.  Temporary directories follow TMPDIR.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: What a copy leaves out: git metadata, compiled bytecode, bench results.
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".bench_out")
#: The Tier-1 suite's arguments to the interpreter, as ROADMAP.md states the
#: suite, writing no pytest cache into the copy; and the runs per side.
TIER1 = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors")
TIER1_RUNS = 3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, the parent's quartiles and the pairs won, for one metric's
    readings in pair order; better is "lower" or "higher".  A pair is won
    when the change reads strictly better; ties count for neither side.
    worsening is the share of the parent's median by which the change's
    median is worse, negative when it is better."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError(f"need two or more pairs, got {len(parent)} and {len(change)} runs")
    sign = 1.0 if better == "higher" else -1.0
    q1, _, q3 = statistics.quantiles(parent, n=4)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_q1": q1,
        "parent_q3": q3,
        "won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "worsening": sign * (1.0 - change_median / parent_median),
    }


def git_sha(tree: Path) -> str | None:
    """The commit checked out at tree, or None if tree is not the top of a
    git checkout or git status shows a change from that commit."""
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        except OSError:  # no git
            return None
        return proc.stdout if proc.returncode == 0 else None

    head = git("rev-parse", "--show-toplevel", "HEAD")
    if head is None or Path(head.split()[0]).resolve() != tree.resolve():
        return None
    return head.split()[1] if git("status", "--porcelain") == "" else None


def src_sha256(tree: Path) -> str:
    """SHA-256 of tree's src/: for each file outside __pycache__, in the
    order of their paths relative to src/, the path's UTF-8 bytes, a NUL,
    the file's size in decimal, a NUL and the file's bytes."""
    digest = hashlib.sha256()
    src = tree / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(src).as_posix()}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py invocation in tree: its metric values, ops failed
    and attempted, its setup_s samples and its host-speed reading."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {tree} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((tree / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json")
                        .read_text())
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "setup_samples": record["setup_samples"],
        "host_kernel_s": statistics.median(record["kernel_s"]),
    }


def _tier1(tree: Path) -> tuple[float, str]:
    """One Tier-1 run in tree, with src/ first on PYTHONPATH and no bytecode
    written: its wall seconds and the last line pytest printed."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                          text=True)
    seconds = time.perf_counter() - start
    return seconds, (proc.stdout.strip().splitlines() or [f"exit {proc.returncode}"])[-1]


def tier1_record(trees: dict[str, Path]) -> dict:
    """Per side of trees, TIER1_RUNS Tier-1 runs in one fresh copy of its
    tree, the sides alternating: each run's wall seconds (runs_s) and last
    pytest line (summaries), and the median of the seconds (median_s)."""
    runs: dict[str, list] = {side: [] for side in trees}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        for side, tree in trees.items():
            shutil.copytree(tree, Path(tmp) / side, ignore=_IGNORE)
        for i in range(TIER1_RUNS):
            for side in list(trees)[:: 1 if i % 2 == 0 else -1]:
                runs[side].append(_tier1(Path(tmp) / side))
    return {side: {"runs_s": [s for s, _ in r], "median_s": statistics.median(s for s, _ in r),
                   "summaries": [line for _, line in r]} for side, r in runs.items()}


def workload_summary(runs: dict[str, list[dict]], end_to_end: list[dict],
                     seconds: float, sides: dict[str, dict]) -> dict:
    """One workload's record: the sides' commits and sources (sides), per end-to-end
    metric its summary and bound, and per side the failed and attempted ops
    and each run, in pair order."""
    return {
        "pairs": len(runs["parent"]),
        "seconds": seconds,
        "sides": sides,
        "bytecode": False,
        "metrics": {m["name"]: dict(summarize([r["metrics"][m["name"]] for r in runs["parent"]],
                                              [r["metrics"][m["name"]] for r in runs["change"]],
                                              m["better"]), bound=m["bound"])
                    for m in end_to_end},
        "failed": {side: sum(r["failed"] for r in side_runs) for side, side_runs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in side_runs)
                      for side, side_runs in runs.items()},
        "runs": runs,
    }


def _report(workload: str, summary: dict) -> None:
    print(f"== {workload}: {summary['pairs']} pairs")
    for name, s in summary["metrics"].items():
        print(f"{name:12s} parent {s['parent_median']:.6g} [q1 {s['parent_q1']:.6g}, "
              f"q3 {s['parent_q3']:.6g}]  change {s['change_median']:.6g}  "
              f"won {s['won']}/{s['pairs']}  "
              f"worse by {100 * s['worsening']:+.1f} % (bound {100 * s['bound']:.0f} %)")
    for side, side_runs in summary["runs"].items():
        setups = ", ".join(f"{r['metrics']['setup_s']:.3f}" for r in side_runs)
        print(f"{side:6s} failed {summary['failed'][side]} of {summary['attempted'][side]} ops; "
              f"setup_s by seed: {setups}")


def write_record(path: Path, workload: str | None, summary: dict) -> None:
    """summary as path's entry for workload, or as its "tier1" entry for
    None, with the host it ran on; the file's other entries are kept."""
    record = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    record["host"] = {"machine": platform.machine(), "cpus": os.cpu_count(),
                      "python": platform.python_version()}
    if workload is None:
        record["tier1"] = summary
    else:
        record["workloads"][workload] = summary
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent source tree")
    parser.add_argument("change", type=Path, help="the changed source tree")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default every one in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--seconds", type=float,
                        help="run length (default run_seconds of BENCHMARK.json)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write each workload's summaries to PATH")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sides = {side: {"git_sha": git_sha(getattr(args, side)),
                    "src_sha256": src_sha256(getattr(args, side))} for side in ("parent", "change")}
    for workload in workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
            trees = {side: Path(tmp) / side for side in ("parent", "change")}
            for side, tree in trees.items():
                shutil.copytree(getattr(args, side), tree, ignore=_IGNORE)
            for seed in range(1, args.pairs + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    run = _run(trees[side], workload, seed, seconds)
                    runs[side].append(run)
                    print(f"{workload} seed {seed} {side}: " + json.dumps(
                        dict(run["metrics"], failed=run["failed"],
                             setup_samples=run["setup_samples"],
                             host_kernel_s=run["host_kernel_s"])), flush=True)
        summary = workload_summary(runs, spec["end_to_end"], seconds, sides)
        _report(workload, summary)
        if args.json:
            write_record(args.json, workload, summary)
    if args.json:
        tier1 = tier1_record({side: getattr(args, side) for side in ("parent", "change")})
        for side, entry in tier1.items():
            print(f"{side:6s} Tier-1 median {entry['median_s']:.2f} s of "
                  + ", ".join(f"{s:.2f}" for s in entry["runs_s"]))
        write_record(args.json, None, tier1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
