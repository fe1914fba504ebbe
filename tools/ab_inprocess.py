"""In-process A/B timing of one benchmark workload between two source trees.

    python3 tools/ab_inprocess.py PARENT_TREE CHANGE_TREE --rounds 400 --seed 1
    python3 tools/ab_inprocess.py PARENT_TREE CHANGE_TREE --op figures --rounds 100

Each tree's ``src/ico_cqed`` is copied, without ``__pycache__``, into one
temporary directory as ``ico_cqed_parent`` and ``ico_cqed_change``; every
import inside ``src/`` is relative, so both copies live in one process.
CHANGE_TREE's ``bench/workloads.py`` is loaded once per side, with
``ico_cqed`` bound to that side's copy, and each side makes its own object
of the workload ``WORKLOADS[--op]`` (default ``verify``), with its own
scratch directory.  After WARMUP untimed rounds, round r runs pass r of the
workload on each side, in an order shuffled by a generator seeded with SEED:
only the ``run`` calls are timed, summed over the pass, and ``check`` runs
after each, untimed.  Timing both sides in one process, round by round,
takes out the process layout that moves the timings of separate runs by
several per cent.

Printed: each side's median pass time; from two rounds on, the median of
the per-round ratios change / parent with a percentile bootstrap interval of
that median (Kalibera & Jones, ISMM 2013); the rounds whose check verdicts,
check counters or output bits differ between the sides; each side's failed
checks; and each side's ``tracemalloc`` peak for one untimed run call, on
the first input of pass 0.  Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
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


def _entries(name: str) -> dict:
    """The sys.modules entries of the package name and its submodules."""
    return {m: module for m, module in sys.modules.items() if m == name or m.startswith(name + ".")}


@contextlib.contextmanager
def kept_modules(*names: str):
    """Puts the sys.modules entries of the packages names back as they were
    on entry when the block exits, also on error."""
    saved = [_entries(name) for name in names]
    try:
        yield
    finally:
        for name in names:
            for module in _entries(name):
                del sys.modules[module]
        for entries in saved:
            sys.modules.update(entries)


def load_copy(tree: Path, name: str, directory: Path):
    """tree's src/ico_cqed copied into directory as the package name, and
    imported afresh: a module already imported under that name, the package
    or one of its submodules, is dropped first.  directory must be on
    sys.path, ahead of any other directory that holds the name."""
    shutil.copytree(tree / "src" / "ico_cqed", directory / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module in _entries(name):
        del sys.modules[module]
    return importlib.import_module(name)


def load_workloads(tree: Path, package):
    """tree's bench/workloads.py as a module of its own, with ico_cqed bound
    to package, a copy from load_copy: the copy's cli is imported first, as
    its __init__ does not import it, and only while the file executes
    sys.modules maps ico_cqed and each ico_cqed.X to the copy's modules."""
    importlib.import_module(package.__name__ + ".cli")
    spec = importlib.util.spec_from_file_location("ab_workloads", tree / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with kept_modules("ico_cqed"):
        for name in _entries("ico_cqed"):
            del sys.modules[name]
        for name, copy in _entries(package.__name__).items():
            sys.modules["ico_cqed" + name[len(package.__name__):]] = copy
        spec.loader.exec_module(module)
    return module


def output_bits(out):
    """out bit for bit, with no class of either side in it: a float or a
    complex number in hex, a tuple or list element by element, anything with
    items() (a PureState, a dict) by its items, a dataclass field by field
    (a VerifyReport, a Table, a ket) and anything else by its repr."""
    if isinstance(out, float):
        return out.hex()
    if isinstance(out, complex):
        return out.real.hex(), out.imag.hex()
    if isinstance(out, (tuple, list)):
        return tuple(map(output_bits, out))
    if hasattr(out, "items"):
        return tuple((output_bits(key), output_bits(value)) for key, value in out.items())
    if dataclasses.is_dataclass(out):
        return tuple(output_bits(getattr(out, f.name)) for f in dataclasses.fields(out))
    return repr(out)


def run_pass(workload, r: int):
    """Pass r of a workload object: the seconds its run calls took in all,
    and its outcome, the check's verdict per input, the check's counters and
    the output bits per input."""
    seconds, verdicts, counters, bits = 0.0, [], {}, []
    for inp in workload.pass_inputs(r):
        start = time.perf_counter()
        out = workload.run(inp)
        seconds += time.perf_counter() - start
        verdicts.append(workload.check(inp, out, counters))
        bits.append(output_bits(out))
    return seconds, (verdicts, counters, bits)


def time_rounds(workloads, rounds: int, seed: int):
    """Per workload object, the times of its passes 0..rounds-1 and its count
    of failed checks, each round running the objects in an order shuffled by
    a generator seeded with seed, after WARMUP untimed rounds of pass 0; and
    the rounds whose outcomes (run_pass) differ between the objects."""
    order = list(range(len(workloads)))
    shuffle = random.Random(seed).shuffle
    times: list[list[float]] = [[] for _ in workloads]
    failed, differ = [0] * len(workloads), 0
    for r in range(-WARMUP, rounds):
        shuffle(order)
        passes = [None] * len(workloads)
        for side in order:
            passes[side] = run_pass(workloads[side], max(r, 0))
        if r >= 0:
            for side, (seconds, (verdicts, _, _)) in enumerate(passes):
                times[side].append(seconds)
                failed[side] += len(verdicts) - verdicts.count(None)
            differ += any(outcome != passes[0][1] for _, outcome in passes)
    return times, failed, differ


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of one call(), traced on its own."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent source tree")
    parser.add_argument("change", type=Path, help="the changed source tree")
    parser.add_argument("--op", default="verify",
                        help="the workload whose passes the rounds time, a key of "
                             "WORKLOADS in CHANGE_TREE's bench/workloads.py (default verify)")
    parser.add_argument("--rounds", type=int, default=400, help="timed rounds (default 400)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the side order and of the workload's inputs (default 1)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"argument --rounds: must be >= 1, got {args.rounds}")
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp, kept_modules(*SIDES):
        sys.path.insert(0, tmp)
        try:
            workloads = []
            for tree, name in zip((args.parent, args.change), SIDES):
                made = load_workloads(args.change, load_copy(tree, name, Path(tmp))).WORKLOADS
                if args.op not in made:
                    parser.error(f"argument --op: invalid choice: {args.op!r} "
                                 f"(choose from {', '.join(made)})")
                workloads.append(made[args.op](args.seed, Path(tempfile.mkdtemp(dir=tmp))))
            (parent, change), failed, differ = time_rounds(workloads, args.rounds, args.seed)
            peaks = [traced_peak(functools.partial(w.run, w.pass_inputs(0)[0])) for w in workloads]
        finally:
            sys.path.remove(tmp)
    print(f"the {args.op} workload, pass r per round, {args.rounds} rounds, "
          f"side order seed {args.seed}")
    print(f"parent median {1e3 * statistics.median(parent):.3f} ms, "
          f"change median {1e3 * statistics.median(change):.3f} ms")
    if args.rounds > 1:
        median, low, high = ratio_interval(parent, change, seed=args.seed)
        print(f"change / parent: median {median:.4f}, "
              f"{LEVEL:.0%} bootstrap interval [{low:.4f}, {high:.4f}]")
    print(f"rounds whose checks, counters or outputs differ: {differ}")
    print(f"failed checks: parent {failed[0]}, change {failed[1]}")
    print(f"tracemalloc peak of one run call on pass 0's first input: "
          f"parent {peaks[0] / 1e6:.3f} MB, change {peaks[1] / 1e6:.3f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
