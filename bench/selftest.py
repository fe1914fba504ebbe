"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Runs every workload for one second, untraced and traced, and checks
   that the result line has the contract's keys, that it passes, and that
   its metric names and units are exactly those in BENCHMARK.json.
2. Perturbs one reference cell of the ``figures`` workload in a copy of
   the checkout and checks that the run counts failures instead of passing.
3. Runs the benchmark in a copy that holds only BENCHMARK.json and bench/
   and checks that it exits non-zero without printing a result.

Copies go under .bench_out/selftest and are removed afterwards.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def check_names() -> None:
    for wl in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(ROOT, wl["name"], trace)
            res = result(out)
            assert code == 0, f"{wl['name']} trace {trace}: exit {code}"
            assert set(res) == RESULT_KEYS, f"result keys {sorted(res)}"
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, f"{wl['name']} trace {trace}: {got} != {want}"
            print(f"ok  {wl['name']} trace={trace}: {len(got)} metrics, {res['attempted']} ops")


def copy_checkout(dest: Path, with_src: bool) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, dest / "bench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def check_corrupted_reference() -> None:
    dest = SCRATCH / "corrupt"
    copy_checkout(dest, with_src=True)
    ref = dest / "bench" / "reference" / "figures.json.gz"
    with gzip.open(ref, "rt") as fh:
        data = json.load(fh)
    lines = data["presets"]["fig2a"].split("\n")
    cells = lines[500].split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    lines[500] = ",".join(cells)
    data["presets"]["fig2a"] = "\n".join(lines)
    with gzip.open(ref, "wt") as fh:
        json.dump(data, fh)
    code, out = run(dest, "figures", 0)
    res = result(out)
    assert code == 0, f"corrupted run exit {code}"
    assert not res["correct"] and res["failed"] >= 1, res
    print(f"ok  perturbed reference cell: {res['failed']} of {res['attempted']} ops failed")


def check_missing_program() -> None:
    dest = SCRATCH / "bare"
    copy_checkout(dest, with_src=False)
    code, out = run(dest, "figures", 0)
    assert code != 0, "benchmark passed without the program"
    assert '"correct"' not in out, out
    print(f"ok  without src/: exit {code}, no result printed")


def main() -> int:
    try:
        check_names()
        check_corrupted_reference()
        check_missing_program()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
