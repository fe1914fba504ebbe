"""In-process A/B timing of one op between two source trees.

    python3 tools/ab_inprocess.py PARENT_TREE CHANGE_TREE --rounds 400 --seed 1
    python3 tools/ab_inprocess.py PARENT_TREE CHANGE_TREE --op sweep_general --rounds 600

PARENT_TREE and CHANGE_TREE are source checkouts.  Each tree's
``src/ico_cqed`` is copied, without ``__pycache__``, into one temporary
directory under its own package name, ``ico_cqed_parent`` and
``ico_cqed_change``; every import inside ``src/`` is relative, so a renamed
copy imports as it is and both live in one process.  After a few untimed
warm-up rounds, round r runs the op once on each side, in an order drawn
from a generator seeded with SEED, and times each call with
``time.perf_counter``.  Timing both sides in one process, round by round,
takes out the process layout that moves the timings of separate runs by
several per cent.

The op of round r is, by ``--op``:

- ``verify`` (the default): ``run_verification(r, 200)``;
- ``sweep_general``: ``run_sweep(config_from_dict(cfg)).to_csv()`` on the
  config ``cfg = sweep_config(SEED, r)`` of CHANGE_TREE's
  ``bench/workloads.py``, which is imported, not changed, and whose configs
  are made before the timed rounds.

Printed: each side's median op time, the median of the per-round ratios
change / parent with a percentile bootstrap interval of that median
(Kalibera & Jones, ISMM 2013), how many rounds gave results (verify
reports, or CSV texts) whose reprs differ between the sides, and each
side's ``tracemalloc`` peak for one untimed op of round 0 after the timed
rounds, so that a change of chunk size shows its memory cost next to its
time.  Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import random
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

#: Package names of the two copies, parent first.
SIDES = ("ico_cqed_parent", "ico_cqed_change")
#: Draws per timed run_verification call.
DRAWS = 200
#: Untimed rounds before the timed ones.
WARMUP = 5
#: Bootstrap resamples of the per-round ratios, and the interval's level.
RESAMPLES = 2000
LEVEL = 0.95


def ratio_interval(parent: list[float], change: list[float],
                   seed: int = 0) -> tuple[float, float, float]:
    """The median of the per-round ratios change[i] / parent[i], and the
    percentile bootstrap interval of that median at LEVEL: the ratios
    resampled with replacement, RESAMPLES times, by a generator seeded
    with seed."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError(f"need two or more rounds, got {len(parent)} and {len(change)} times")
    ratios = np.asarray(change, dtype=float) / np.asarray(parent, dtype=float)
    draws = np.random.default_rng(seed).choice(ratios, size=(RESAMPLES, len(ratios)))
    low, high = np.quantile(np.median(draws, axis=1), [(1 - LEVEL) / 2, (1 + LEVEL) / 2])
    return float(np.median(ratios)), float(low), float(high)


def load_copy(tree: Path, name: str, directory: Path):
    """tree's src/ico_cqed copied into directory as the package name, and
    imported afresh: a module already imported under that name, the package
    or one of its submodules, is dropped first.  directory must be on
    sys.path, ahead of any other directory that holds the name."""
    shutil.copytree(tree / "src" / "ico_cqed", directory / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    return importlib.import_module(name)


def time_rounds(packages, op, rounds: int, seed: int):
    """Per package, the times of op(package, r) for r in 0..rounds-1, each
    round running the packages in an order shuffled by a generator seeded
    with seed, after WARMUP untimed rounds; and the rounds whose results'
    reprs differ between the packages."""
    order = list(range(len(packages)))
    shuffle = random.Random(seed).shuffle
    times: list[list[float]] = [[] for _ in packages]
    differ = 0
    for r in range(-WARMUP, rounds):
        shuffle(order)
        results, elapsed = [None] * len(packages), [0.0] * len(packages)
        for side in order:
            start = time.perf_counter()
            results[side] = op(packages[side], max(r, 0))
            elapsed[side] = time.perf_counter() - start
        if r >= 0:
            for side, seconds in enumerate(elapsed):
                times[side].append(seconds)
            differ += len({repr(result) for result in results}) > 1
    return times, differ


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of one call(), traced on its own."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def load_workloads(tree: Path):
    """tree's bench/workloads.py as a module of its own; it imports
    ico_cqed, so tree's src is first on sys.path while it loads."""
    spec = importlib.util.spec_from_file_location("ab_workloads", tree / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(tree / "src"))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(tree / "src"))
    return module


def make_op(name: str, change: Path, seed: int, rounds: int):
    """The op of --op name, op(package, r), with what it is called in the
    report: the timed call, the untimed call of round 0 and its results."""
    if name == "verify":
        return ((lambda package, r: package.run_verification(r, DRAWS)),
                f"run_verification(s, {DRAWS})", f"run_verification(0, {DRAWS})", "reports")
    configs = [load_workloads(change).sweep_config(seed, r) for r in range(rounds)]

    def op(package, r):
        return package.run_sweep(package.config_from_dict(configs[r])).to_csv()

    call = "run_sweep(config_from_dict(sweep_config({}, {}))).to_csv()"
    return op, call.format(seed, "r"), call.format(seed, 0), "CSV texts"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent source tree")
    parser.add_argument("change", type=Path, help="the changed source tree")
    parser.add_argument("--op", choices=("verify", "sweep_general"), default="verify",
                        help="the op each round times (default verify)")
    parser.add_argument("--rounds", type=int, default=400, help="timed rounds (default 400)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the side order and of the sweep_general configs (default 1)")
    args = parser.parse_args(argv)
    op, timed, first, results = make_op(args.op, args.change, args.seed, max(args.rounds, 1))
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        sys.path.insert(0, tmp)
        try:
            packages = [load_copy(tree, name, Path(tmp))
                        for tree, name in zip((args.parent, args.change), SIDES)]
            (parent, change), differ = time_rounds(packages, op, args.rounds, args.seed)
            peaks = [traced_peak(lambda: op(package, 0)) for package in packages]
        finally:
            sys.path.remove(tmp)
    median, low, high = ratio_interval(parent, change, seed=args.seed)
    print(f"{timed}, {args.rounds} rounds, side order seed {args.seed}")
    print(f"parent median {1e3 * statistics.median(parent):.3f} ms, "
          f"change median {1e3 * statistics.median(change):.3f} ms")
    print(f"change / parent: median {median:.4f}, {LEVEL:.0%} bootstrap interval [{low:.4f}, {high:.4f}]")
    print(f"rounds whose {results} differ: {differ}")
    print(f"tracemalloc peak of {first}: "
          f"parent {peaks[0] / 1e6:.3f} MB, change {peaks[1] / 1e6:.3f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
