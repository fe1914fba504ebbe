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
can share one record.  Temporary directories follow TMPDIR.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: What a copy leaves out: git metadata, compiled bytecode, bench results.
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".bench_out")


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


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py invocation in tree: its metric values, ops failed
    and attempted, and its setup_s samples."""
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
    }


def workload_summary(runs: dict[str, list[dict]], end_to_end: list[dict],
                     seconds: float) -> dict:
    """One workload's record: per end-to-end metric its summary and bound,
    and per side the failed and attempted ops and each run, in pair order."""
    return {
        "pairs": len(runs["parent"]),
        "seconds": seconds,
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


def write_record(path: Path, workload: str, summary: dict) -> None:
    """summary as path's entry for workload, with the host it ran on; the
    file's other workloads are kept."""
    record = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    record["host"] = {"machine": platform.machine(), "cpus": os.cpu_count(),
                      "python": platform.python_version()}
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
                             setup_samples=run["setup_samples"])), flush=True)
        summary = workload_summary(runs, spec["end_to_end"], seconds)
        _report(workload, summary)
        if args.json:
            write_record(args.json, workload, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
