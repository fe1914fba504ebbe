"""ico-cqed benchmark: one workload per invocation, end-to-end or traced.

    python3 bench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  This parent process starts fresh worker processes (this same
file with ``--worker``) with BLAS pinned to one thread.  Several of them
only set up, which gives ``setup_s``; the last one then runs the workload
in a closed loop, one client, no concurrency, for ``--seconds`` and checks
every output.  Op times are scaled to a reference host speed measured
between ops (see hostspeed.py).  The last line of standard output is the
result as JSON.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
repeats the workload's first pass, alternately untraced and traced, and
reports per-layer counts and self times (see spans.py and README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Names only: the parent process does not import the program.
WORKLOADS = ("figures", "sweep_general", "verify", "oracle_wide")

#: Fresh processes whose set-up time is measured (the last one also runs).
SETUP_SAMPLES = 7
#: Seconds a whole invocation may take; workers still running are killed.
TIME_LIMIT = 170
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "throughput": "items/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "states.SystemParams.calls": "count",
    "states.SystemParams.self_s": "s",
    "states.PureState.calls": "count",
    "states.PureState.self_s": "s",
    "engine.coeffs.calls": "count",
    "engine.coeffs.self_s": "s",
    "engine.state_after_both.self_s": "s",
    "engine.general_postselect.calls": "count",
    "engine.general_postselect.self_s": "s",
    "engine.postselect.refused": "count",
    "engine.postselect.useful_ratio": "ratio",
    "observables.condition_on_atom.self_s": "s",
    "observables.reduced_cavity0.self_s": "s",
    "observables.linear_entropy.self_s": "s",
    "observables.ket_probability.self_s": "s",
    "observables.sigma_z_expectation.self_s": "s",
    "observables.refused": "count",
    "oracle.evolve.calls": "count",
    "oracle.evolve.self_s.nmax4": "s",
    "oracle.evolve.self_s.nmax10": "s",
    "oracle.evolve.self_s.nmax20": "s",
    "oracle.evolve.matmul_flops": "flop.computed",
    "oracle.evolve.dense_bytes": "B.computed",
    "oracle.hadamard_control.self_s": "s",
    "oracle.measure_control.self_s": "s",
    "oracle.schrodinger_phase.self_s": "s",
    "sweep.config_from_dict.self_s": "s",
    "sweep.run_sweep.self_s": "s",
    "sweep.figure_table.self_s": "s",
    "sweep.to_csv.self_s": "s",
    "sweep.grid_points": "count",
    "sweep.empty_cells": "count",
    "sweep.csv_bytes_identical": "count",
    "verify.random_params.self_s": "s",
    "verify.run_verification.self_s": "s",
    "verify.skipped_outcomes": "count",
    "verify.max_amplitude_deviation": "1",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
    "trace.self_sum_residual_s": "s",
    "trace.spans": "count",
}


# --------------------------------------------------------------------------
# worker side


def _emit(tag: str, payload) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def environment(args) -> dict:
    """Everything a result depends on besides the code under test."""
    import ctypes
    import glob
    import hashlib
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so"))
    if libs:
        try:
            threads = int(ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            threads = None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ico_cqed").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run_pass(wl, inputs, counters, tracer=None, op_base=0, speed=None):
    """Run and check one pass; returns (latencies, work, failures, problems).

    Untraced, a latency is (start, seconds) and ``speed`` takes its host
    samples between ops; traced, it is the op's traced duration."""
    latencies, work, failed, problems = [], 0, 0, []
    for i, inp in enumerate(inputs):
        try:
            if tracer is None:
                if speed is not None:
                    speed.maybe_sample()
                t0 = time.perf_counter()
                out = wl.run(inp)
                dt = (t0, time.perf_counter() - t0)
            else:
                out, dt = tracer.run_op(op_base + i, wl.run, inp)
            problem = wl.check(inp, out, counters)
        except Exception as exc:  # an op or its check failed: count it, go on
            dt = None
            problem = f"{type(exc).__name__}: {exc}"
        if problem is None:
            latencies.append(dt)
            work += wl.work(inp)
        else:
            failed += 1
            problems.append(problem)
    return latencies, work, failed, problems


def measure(wl, seconds: float) -> dict:
    """Closed loop over fresh passes until the next pass would overrun.
    Op times are returned raw and calibrated to the reference host speed
    (see hostspeed.py)."""
    from hostspeed import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    timed, work, attempted, failed, problems = [], 0, 0, 0, []
    k = 0
    while True:
        started = time.perf_counter()
        inputs = wl.pass_inputs(k)
        lat, w, f, probs = _run_pass(wl, inputs, {}, speed=speed)
        timed += lat
        work += w
        attempted += len(inputs)
        failed += f
        problems += probs
        k += 1
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    speed.maybe_sample()
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "passes": k,
        "latencies": [dt for _, dt in timed],
        "calibrated": [speed.calibrate(t0, dt) for t0, dt in timed],
        "op_start": [t0 for t0, _ in timed],
        "kernel_at": speed.at,
        "kernel_s": speed.kernel_s,
        "reference_s": REFERENCE_S,
        "work": work,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer, own: list[float], counters: dict) -> dict:
    """Per-layer values of one traced pass from its spans' self times."""
    names = tracer.names
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    refused: dict[str, int] = {}
    top_coeffs = 0
    coeffs_id = tracer.name_id("engine.coeffs")
    for i, nid in enumerate(tracer.name_of):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        if tracer.raised[i]:
            refused[name] = refused.get(name, 0) + 1
        parent = tracer.parent[i]
        if nid == coeffs_id and (parent < 0 or tracer.name_of[parent] != coeffs_id):
            top_coeffs += 1
    out = {m: 0.0 for m in PER_LAYER}
    for m in PER_LAYER:
        base, _, kind = m.rpartition(".")
        if kind == "self_s":
            out[m] = self_s.get(base, 0.0)
        elif kind == "calls":
            out[m] = float(calls.get(base, 0))
    out["engine.coeffs.calls"] = float(top_coeffs)
    gp = "engine.general_postselect"
    out["engine.postselect.refused"] = float(refused.get(gp, 0))
    if calls.get(gp):
        out["engine.postselect.useful_ratio"] = (calls[gp] - refused.get(gp, 0)) / calls[gp]
    out["observables.refused"] = float(refused.get("observables.condition_on_atom", 0))

    buckets: dict[int, list[float]] = {}
    flops = dense = 0
    grid = empty = skipped = 0
    max_dev = 0.0
    for idx, (args, result) in tracer.results.items():
        name = names[tracer.name_of[idx]]
        if name == "oracle.evolve":
            p, _, window = args
            buckets.setdefault(max(p.n, p.m), []).append(own[idx])
            d = window.atom_field_dim
            props = tracer.propagators.get(idx, 0)
            products = max(props - 2, 0)
            flops += 8 * d**3 * products
            dense += 16 * d * d * (props + products)
        elif name == "sweep.run_sweep":
            grid += len(result.rows)
            empty += sum(v is None for row in result.rows for v in row)
        elif name == "verify.run_verification":
            skipped += result.skipped_outcomes
            max_dev = max(max_dev, result.max_amplitude_deviation)
    for larger in (4, 10, 20):
        out[f"oracle.evolve.self_s.nmax{larger}"] = _median(buckets.get(larger, []))
    out["oracle.evolve.matmul_flops"] = float(flops)
    out["oracle.evolve.dense_bytes"] = float(dense)
    out["sweep.grid_points"] = float(grid)
    out["sweep.empty_cells"] = float(empty)
    out["sweep.csv_bytes_identical"] = float(counters.get("sweep.csv_bytes_identical", 0))
    out["verify.skipped_outcomes"] = float(skipped)
    out["verify.max_amplitude_deviation"] = max_dev
    out["trace.spans"] = float(len(own))
    return out


def measure_traced(wl, seconds: float, trace_file: Path) -> dict:
    """Repeat pass 0 untraced then traced until time is up; per-layer values
    are medians over the traced repeats.  The spans of the last traced pass
    are written to ``trace_file`` at the end."""
    from spans import Tracer

    tracer = Tracer()
    inputs = wl.pass_inputs(0)
    deadline = time.perf_counter() + seconds
    attempted = failed = 0
    problems: list[str] = []
    rows: list[dict] = []
    while True:
        started = time.perf_counter()
        plain, _, f0, p0 = _run_pass(wl, inputs, {})
        counters: dict = {}
        tracer.clear()
        tracer.install()
        try:
            traced, _, f1, p1 = _run_pass(wl, inputs, counters, tracer)
        finally:
            tracer.uninstall()
        attempted += 2 * len(inputs)
        failed += f0 + f1
        problems += p0 + p1
        own, residual, escapes = tracer.self_times()
        values = layer_metrics(tracer, own, counters)
        values["trace.self_sum_residual_s"] = residual
        if escapes or residual > 1e-6:
            failed += 1
            problems.append(f"trace unsound: {escapes} escaping spans, residual {residual:.3e} s")
        if plain and traced:
            values["trace.overhead"] = sum(traced) / sum(dt for _, dt in plain)
        rows.append(values)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    tracer.write(trace_file, own)
    layers = {m: _median([r[m] for r in rows]) for m in PER_LAYER}
    layers["trace.self_sum_residual_s"] = max(r["trace.self_sum_residual_s"] for r in rows)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "passes": len(rows),
        "layers": layers,
    }


def worker(args) -> int:
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(SRC))
    import ico_cqed

    if Path(ico_cqed.__file__).resolve().parent != SRC / "ico_cqed":
        print(f"bench: imported ico_cqed from {ico_cqed.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS as CLASSES

    scratch = OUT / f"worker-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl = CLASSES[args.workload](args.seed, scratch)
        wl.pass_inputs(0)
        _emit("BENCH-READY", time.monotonic())
        if args.worker == "setup":
            return 0
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}.csv"
            result = measure_traced(wl, args.seconds, trace_file)
        else:
            result = measure(wl, args.seconds)
        import resource

        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment(args)
        result["unit"] = wl.unit
        _emit("BENCH-RESULT", result)
        return 0
    finally:
        for path in scratch.iterdir():
            path.unlink()
        scratch.rmdir()


# --------------------------------------------------------------------------
# parent side


def _spawn(args, role: str, deadline: float) -> tuple[float, dict | None]:
    """Start one worker and wait for it; returns (set-up seconds, result or
    None).  The worker is killed if it is still running at ``deadline``."""
    env = dict(os.environ, **BLAS_ENV)
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"bench: worker ({role}) timed out")
    ready, result = None, None
    for line in stdout.splitlines():
        tag, _, payload = line.partition(" ")
        if tag == "BENCH-READY":
            ready = json.loads(payload)
        elif tag == "BENCH-RESULT":
            result = json.loads(payload)
    if proc.returncode != 0 or ready is None:
        raise SystemExit(f"bench: worker ({role}) failed with exit code {proc.returncode}")
    return ready - t0, result


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--worker", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")
    if args.worker:
        return worker(args)
    if not (SRC / "ico_cqed" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'ico_cqed'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    setups = [_spawn(args, "setup", deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_last, result = _spawn(args, "run", deadline)
    setups.append(setup_last)
    if result is None:
        print("bench: the measuring worker returned no result", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    record = dict(result, setup_samples=setups)
    record_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record))
    print(f"ico-cqed benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(result["env"], sort_keys=True))
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"passes: {result['passes']}, ops: {attempted}, failed: {failed}, "
          f"error_rate: {failed / attempted:.6g}")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")

    if args.trace:
        values = result["layers"]
        units = PER_LAYER
    else:
        cal, raw = result["calibrated"], result["latencies"]
        tail_value, tail_pct, beyond = tail(cal) if cal else (0.0, 0.0, 0)
        values = {
            "setup_s": _median(setups),
            "throughput": result["work"] / sum(cal) if cal else 0.0,
            "op_p50_ms": 1e3 * _median(cal),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
        kernel = result["kernel_s"]
        print(f"throughput counts {result['unit']} per calibrated second of op time")
        print(f"host speed: {len(kernel)} kernel samples, median {1e3 * _median(kernel):.4f} ms, "
              f"reference {1e3 * result['reference_s']:.4f} ms")
        if raw:
            print(f"uncalibrated: throughput {result['work'] / sum(raw):.6g} "
                  f"{result['unit']}/s, op_p50_ms {1e3 * _median(raw):.6g} ms")
        # Printed, not a gated metric: see README.md.
        print(f"op_tail_ms {1e3 * tail_value:.6g} ms: p{tail_pct:.2f} of {len(cal)} calibrated "
              f"op latencies, {beyond} beyond it")
    for name, value in values.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
