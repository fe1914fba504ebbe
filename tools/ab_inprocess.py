"""In-process A/B timing of one op between two source trees.

    python3 tools/ab_inprocess.py PARENT_TREE CHANGE_TREE --rounds 400 --seed 1
    python3 tools/ab_inprocess.py PARENT_TREE CHANGE_TREE --op sweep_general --rounds 600
    python3 tools/ab_inprocess.py PARENT_TREE CHANGE_TREE --op oracle_wide --rounds 400

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
  are made before the timed rounds;
- ``oracle_wide``: the ``oracle_wide`` workload's op, ``evolve`` ->
  ``hadamard_control`` -> ``measure_control`` and ``schrodinger_phase`` for
  both outcomes, on the draws ``wide_params(SEED, r, larger)`` of
  CHANGE_TREE's ``bench/workloads.py`` for each of its ``WIDE_OCCUPATIONS``.
  Each side gets the draws as its own ``SystemParams``, made before the
  timed rounds, since a view refuses the other copy's class.  A round's
  outcomes differ when their kets, sorted, the bits of their amplitudes or
  their probabilities differ.

Printed: each side's median op time, the median of the per-round ratios
change / parent with a percentile bootstrap interval of that median
(Kalibera & Jones, ISMM 2013), how many rounds gave results (verify
reports, CSV texts or oracle outcomes) that differ between the sides, and each
side's ``tracemalloc`` peak for one untimed op of round 0 after the timed
rounds, so that a change of chunk size shows its memory cost next to its
time.  Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def time_rounds(packages, op, rounds: int, seed: int, key=repr):
    """Per package, the times of op(package, r) for r in 0..rounds-1, each
    round running the packages in an order shuffled by a generator seeded
    with seed, after WARMUP untimed rounds; and the rounds whose results'
    keys, key(result) taken after the timed calls, differ between the packages."""
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
            differ += len({key(result) for result in results}) > 1
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


def oracle_outcomes(package, draws):
    """The oracle_wide op of bench/workloads.py on each (params, time) draw:
    per control outcome, None if measure_control refuses it, else the phased
    state and the outcome's probability."""
    oracle, outcomes = package.oracle, []
    for p, t in draws:
        mixed = oracle.hadamard_control(oracle.evolve(p, t, oracle.TruncationWindow.for_params(p)))
        for j in (0, 1):
            try:
                state, prob = oracle.measure_control(mixed, j)
            except package.ImpossiblePostselectionError:
                outcomes.append(None)
                continue
            outcomes.append((oracle.schrodinger_phase(state, p.omega, t), prob))
    return outcomes


def outcome_bits(outcomes) -> str:
    """oracle_outcomes' result with no class of either side in it: each
    state as its sorted (atom, n, m) kets and the hex bits of their
    amplitudes, and each probability in hex."""
    return repr([None if outcome is None else (
        [(int(k.atom), k.n, k.m, a.real.hex(), a.imag.hex()) for k, a in outcome[0].items()],
        outcome[1].hex()) for outcome in outcomes])


def make_op(name: str, change: Path, seed: int, rounds: int, packages):
    """The op of --op name, op(package, r) for each of packages, with what it
    is called in the report: the timed call, the untimed call of round 0 and
    its results, and the key that compares results between the sides."""
    if name == "verify":
        return ((lambda package, r: package.run_verification(r, DRAWS)),
                f"run_verification(s, {DRAWS})", f"run_verification(0, {DRAWS})", "reports", repr)
    if name == "oracle_wide":
        workloads = load_workloads(change)
        made = [[workloads.wide_params(seed, r, larger) for larger in workloads.WIDE_OCCUPATIONS]
                for r in range(rounds)]
        names = [field.name for field in dataclasses.fields(made[0][0][0])]
        draws = {id(package): [[(package.SystemParams(**{f: getattr(p, f) for f in names}), t)
                                for p, t in row] for row in made] for package in packages}
        call = "the oracle_wide op on wide_params({}, {}, larger)"
        return ((lambda package, r: oracle_outcomes(package, draws[id(package)][r])),
                call.format(seed, "r"), call.format(seed, 0), "outcomes", outcome_bits)
    configs = [load_workloads(change).sweep_config(seed, r) for r in range(rounds)]

    def op(package, r):
        return package.run_sweep(package.config_from_dict(configs[r])).to_csv()

    call = "run_sweep(config_from_dict(sweep_config({}, {}))).to_csv()"
    return op, call.format(seed, "r"), call.format(seed, 0), "CSV texts", repr


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent source tree")
    parser.add_argument("change", type=Path, help="the changed source tree")
    parser.add_argument("--op", choices=("verify", "sweep_general", "oracle_wide"),
                        default="verify",
                        help="the op each round times (default verify)")
    parser.add_argument("--rounds", type=int, default=400, help="timed rounds (default 400)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the side order and of the workload's inputs (default 1)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        sys.path.insert(0, tmp)
        try:
            packages = [load_copy(tree, name, Path(tmp))
                        for tree, name in zip((args.parent, args.change), SIDES)]
            op, timed, first, results, key = make_op(args.op, args.change, args.seed,
                                                     max(args.rounds, 1), packages)
            (parent, change), differ = time_rounds(packages, op, args.rounds, args.seed, key)
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
