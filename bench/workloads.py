"""The four benchmark workloads: inputs made from the seed, one op each, and
the check every op output must pass.

A workload hands out its inputs in passes.  ``pass_inputs(k)`` is a pure
function of the seed and k, so the traced run can repeat pass 0 and get
the same counts every time.  Only ``run`` is timed; ``check`` runs after
it and returns None or a one-line description of what is wrong.
"""

from __future__ import annotations

import gzip
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np

from ico_cqed import cli, engine, oracle, sweep, verify
from ico_cqed.errors import ImpossiblePostselectionError
from ico_cqed.states import AtomFieldKet, AtomLevel, SystemParams

REFERENCE = Path(__file__).resolve().parent / "reference" / "figures.json.gz"

#: Closed forms and matrix oracle must agree to this (as ``ico-cqed verify``).
ORACLE_TOL = 1e-9
#: Preset cells must match the seed-commit reference to this.
REFERENCE_TOL = 1e-12
#: Slack on the physical ranges of probabilities and entropies.
RANGE_SLACK = 1e-12


def load_reference(path: Path = REFERENCE) -> dict[str, bytes]:
    """Preset id -> CSV bytes captured at the seed commit."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        data = json.load(fh)
    return {fid: text.encode() for fid, text in data["presets"].items()}


def parse_csv(text: str) -> tuple[str, list[list[float | None]]]:
    """Header line and rows of cells; column ids may hold commas, so the
    header is kept whole."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    rows = [[float(c) if c else None for c in line.split(",")] for line in lines[1:-1]]
    return lines[0], rows


def compare_tables(header, rows, ref_header, ref_rows, tol: float) -> str | None:
    """None when both tables have the same columns, rows and empty cells and
    every filled cell agrees to tol."""
    if header != ref_header:
        return f"columns {header} != {ref_header}"
    if len(rows) != len(ref_rows):
        return f"{len(rows)} rows, reference has {len(ref_rows)}"
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref):
            return f"row {i} has {len(row)} cells, reference {len(ref)}"
        for j, (v, r) in enumerate(zip(row, ref)):
            if (v is None) != (r is None):
                return f"row {i} cell {j}: empty-cell pattern differs"
            if v is not None and not abs(v - r) <= tol:
                return f"row {i} cell {j}: {v!r} vs reference {r!r}"
    return None


class Figures:
    """Every preset through ``ico-cqed figure ID --out FILE``, in process."""

    name = "figures"
    unit = "grid points"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.out = scratch / "figure.csv"
        self.reference = load_reference()
        self.parsed = {fid: parse_csv(csv.decode()) for fid, csv in self.reference.items()}
        self.points = {
            fid: sum(len(sweep.grid_points(cfg)) for cfg in preset.sweeps)
            for fid, preset in sweep.FIGURE_PRESETS.items()
        }

    def pass_inputs(self, k: int) -> list[str]:
        ids = sorted(self.reference)
        random.Random(f"figures:{self.seed}:{k}").shuffle(ids)
        return ids

    def run(self, fid: str) -> int:
        return cli.main(["figure", fid, "--out", str(self.out)])

    def work(self, fid: str) -> int:
        return self.points[fid]

    def check(self, fid: str, code: int, counters: dict) -> str | None:
        if code != 0:
            return f"{fid}: exit code {code}"
        data = self.out.read_bytes()
        meta = json.loads(Path(str(self.out) + ".meta.json").read_text())
        if meta.get("figure") != fid:
            return f"{fid}: sidecar names figure {meta.get('figure')!r}"
        if data == self.reference[fid]:
            counters["sweep.csv_bytes_identical"] = counters.get("sweep.csv_bytes_identical", 0) + 1
        problem = compare_tables(*parse_csv(data.decode()), *self.parsed[fid], REFERENCE_TOL)
        return None if problem is None else f"{fid}: {problem}"


# Reachable kets relative to the initial (n, m); a ket_prob column picks two.
_KET_OFFSETS = (("e", 0, 0), ("g", 1, 0), ("g", 0, 1), ("g", 0, 0))
SWEEP_SIZE = 1001
SWEEP_STEP = 0.01
SWEEPS_PER_PASS = 3


def sweep_config(seed: int, index: int) -> dict:
    """Custom sweep ``index``; sweeps 3k..3k+2 form pass k.

    A pass holds one series sweep (C0C1 in even passes, C1C0 in odd ones)
    and both ico outcomes: ico sweeps cost about 1.5 times a series sweep,
    and with two of three ops in one group the median latency does not
    jump across the gap between the groups.  Angles and the measurement
    phase are random, n and m are in 0..8.  The ico_j1 sweep of every even
    pass keeps the balanced control preparation, whose control-1 outcome
    is impossible at gT = 0 and so takes the refused-postselection path.
    """
    rng = np.random.default_rng([seed, index])
    k, slot = divmod(index, SWEEPS_PER_PASS)
    scenario = (("series_C0C1", "series_C1C0")[k % 2], "ico_j0", "ico_j1")[slot]
    n, m = (int(v) for v in rng.integers(0, 9, size=2))
    kets = rng.choice(len(_KET_OFFSETS), size=2, replace=False)
    quantities = [
        {"kind": "ket_prob", "atom": a, "n": n + dn, "m": m + dm}
        for a, dn, dm in (_KET_OFFSETS[i] for i in kets)
    ]
    quantities += [
        {"kind": "sigma_z"},
        {"kind": "entropy", "atom_branch": "e"},
        {"kind": "entropy", "atom_branch": "g"},
    ]
    if scenario.startswith("ico"):
        quantities.insert(0, {"kind": "control_prob"})
    cfg = {
        "scenario": scenario,
        "quantities": quantities,
        "n": n,
        "m": m,
        "theta": float(rng.uniform(0.0, math.pi / 2)),
        "varphi": float(rng.uniform(0.0, 2 * math.pi)),
        "xi": float(rng.uniform(0.0, math.pi / 2)),
        "chi": float(rng.uniform(0.0, 2 * math.pi)),
        "omega_t": float(rng.uniform(0.0, 2 * math.pi)),
        "gT_start": 0.0,
        "gT_stop": (SWEEP_SIZE - 1) * SWEEP_STEP,
        "gT_step": SWEEP_STEP,
    }
    if scenario == "ico_j1" and k % 2 == 0:
        cfg["theta"], cfg["varphi"] = math.pi / 4, 0.0
    return cfg


def _column_range(q: dict) -> tuple[float, float]:
    if q["kind"] == "sigma_z":
        return -1.0, 1.0
    if q["kind"] == "entropy":
        # The first mode's reduced state spans at most three Fock levels.
        return 0.0, 2.0 / 3.0
    return 0.0, 1.0


def oracle_cells(cfg: dict, gt: float) -> list[tuple[float | None, float]]:
    """Every column of one sweep row, rebuilt through the matrix oracle.

    Each entry is (value or None, probability of the outcome the value is
    conditioned on).  Observables are computed here with numpy, not through
    ``ico_cqed.observables``.  The measurement phase omega_t is left out: no
    column depends on it.
    """
    p = SystemParams(
        g=1.0, T=gt, theta=cfg["theta"], varphi=cfg["varphi"],
        xi=cfg["xi"], chi=cfg["chi"], n=cfg["n"], m=cfg["m"],
    )
    scenario = cfg["scenario"]
    window = oracle.TruncationWindow.for_params(p)
    if scenario.startswith("series"):
        j = 0 if scenario == "series_C0C1" else 1
        full = oracle.evolve(replace(p, theta=j * math.pi / 2, varphi=0.0), 2 * gt, window)
    else:
        j = 0 if scenario == "ico_j0" else 1
        full = oracle.hadamard_control(oracle.evolve(p, 2 * gt, window))
    picked = {k.rest: a for k, a in full.items() if k.control == j}
    prob_j = math.fsum(abs(a) ** 2 for a in picked.values())
    state = None
    if prob_j >= 1e-12:
        scale = 1.0 / math.sqrt(prob_j)
        state = {k: a * scale for k, a in picked.items()}
    cells = []
    for q in cfg["quantities"]:
        kind = q["kind"]
        if kind == "control_prob":
            cells.append((prob_j, 1.0))
        elif state is None:
            cells.append((None, prob_j))
        elif kind == "ket_prob":
            ket = AtomFieldKet(AtomLevel.from_label(q["atom"]), q["n"], q["m"])
            cells.append((abs(state.get(ket, 0j)) ** 2, prob_j))
        elif kind == "sigma_z":
            cells.append((sum((1 if k.atom is AtomLevel.EXCITED else -1) * abs(a) ** 2
                              for k, a in state.items()), prob_j))
        else:
            level = AtomLevel.from_label(q["atom_branch"])
            branch = {(k.n, k.m): a for k, a in state.items() if k.atom is level}
            prob_b = math.fsum(abs(a) ** 2 for a in branch.values())
            if prob_b < 1e-12:
                cells.append((None, prob_j * prob_b))
                continue
            ns = sorted({n for n, _ in branch})
            ms = sorted({m for _, m in branch})
            psi = np.zeros((len(ns), len(ms)), dtype=complex)
            for (n, m), a in branch.items():
                psi[ns.index(n), ms.index(m)] = a
            psi /= math.sqrt(prob_b)
            rho = psi @ psi.conj().T
            cells.append((1.0 - float(np.sum(np.abs(rho) ** 2)), prob_j * prob_b))
    return cells


class SweepGeneral:
    """Seeded custom configs through config_from_dict -> run_sweep -> to_csv."""

    name = "sweep_general"
    unit = "grid points"
    oracle_rows = 4

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def pass_inputs(self, k: int) -> list[tuple[int, dict]]:
        first = k * SWEEPS_PER_PASS
        return [(i, sweep_config(self.seed, i)) for i in range(first, first + SWEEPS_PER_PASS)]

    def run(self, inp):
        table = sweep.run_sweep(sweep.config_from_dict(inp[1]))
        return table, table.to_csv()

    def work(self, inp) -> int:
        return SWEEP_SIZE

    def check(self, inp, out, counters: dict) -> str | None:
        index, cfg = inp
        table, csv = out
        where = f"sweep {index} ({cfg['scenario']})"
        header, rows = parse_csv(csv)
        if header != ",".join(table.columns) or len(rows) != SWEEP_SIZE:
            return f"{where}: CSV has {len(rows)} rows, columns {header}"
        for i, (row, parsed) in enumerate(zip(table.rows, rows)):
            if list(row) != parsed:
                return f"{where}: CSV row {i} does not round-trip"
            if row[0] != i * SWEEP_STEP:
                return f"{where}: row {i} has gT {row[0]!r}"
            for q, v in zip(cfg["quantities"], row[1:]):
                if v is None:
                    if q["kind"] == "control_prob" or (
                        cfg["scenario"].startswith("series") and q["kind"] != "entropy"
                    ):
                        return f"{where}: row {i} {q['kind']} is empty"
                    continue
                lo, hi = _column_range(q)
                if not lo - RANGE_SLACK <= v <= hi + RANGE_SLACK:
                    return f"{where}: row {i} {q['kind']} {v!r} outside [{lo}, {hi}]"
        rng = np.random.default_rng([self.seed, index, 1])
        drawn = rng.choice(np.arange(1, SWEEP_SIZE), self.oracle_rows - 1, replace=False)
        sample = [0] + [int(i) for i in drawn]
        for i in sample:
            row = table.rows[i]
            for col, v, (o, cond) in zip(table.columns[1:], row[1:], oracle_cells(cfg, row[0])):
                if (v is None) != (o is None):
                    if cond >= ORACLE_TOL:
                        return f"{where}: row {i} {col} is {v!r}, oracle gives {o!r}"
                elif v is not None and not abs(v - o) <= ORACLE_TOL:
                    return f"{where}: row {i} {col} {v!r} vs oracle {o!r}"
        return None


class Verify:
    """``run_verification(s, 200)`` as ``ico-cqed verify`` runs it."""

    name = "verify"
    unit = "draws"
    per_pass = 4
    draws = 200

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def pass_inputs(self, k: int) -> list[int]:
        first = self.seed * 100_000 + k * self.per_pass
        return list(range(first, first + self.per_pass))

    def run(self, s: int):
        return verify.run_verification(s, self.draws)

    def work(self, s: int) -> int:
        return self.draws

    def check(self, s: int, report, counters: dict) -> str | None:
        if report.draws != self.draws or not report.passed:
            return f"verify seed {s}: " + "; ".join(report.lines())
        return None


WIDE_OCCUPATIONS = (4, 10, 20)


def wide_params(seed: int, k: int, larger: int) -> tuple[SystemParams, float]:
    """A draw like verify.random_params (gT < 10) whose larger photon number
    is ``larger``; returns the parameters and the measurement time."""
    rng = np.random.default_rng([seed, k, larger])
    g = float(rng.uniform(0.5, 2.0))
    transit = float(rng.uniform(0.0, 10.0)) / g
    entry = float(rng.uniform(0.0, 2.0))
    other = int(rng.integers(0, larger + 1))
    n, m = (larger, other) if rng.random() < 0.5 else (other, larger)
    p = SystemParams(
        g=g,
        T=transit,
        omega=float(rng.uniform(0.2, 3.0)),
        theta=float(rng.uniform(0.0, math.pi / 2)),
        varphi=float(rng.uniform(0.0, 2 * math.pi)),
        xi=float(rng.uniform(0.0, math.pi / 2)),
        chi=float(rng.uniform(0.0, 2 * math.pi)),
        n=n,
        m=m,
        T0=entry,
        T1=entry + transit + float(rng.uniform(0.0, 2.0)),
    )
    return p, p.T1 + p.T + float(rng.uniform(0.0, 2.0))


class OracleWide:
    """Verify-style draws on windows of dimension 98, 338 and 1,058."""

    name = "oracle_wide"
    unit = "draws"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def pass_inputs(self, k: int) -> list[tuple[SystemParams, float]]:
        return [wide_params(self.seed, k, larger) for larger in WIDE_OCCUPATIONS]

    def run(self, inp):
        p, t = inp
        mixed = oracle.hadamard_control(oracle.evolve(p, t, oracle.TruncationWindow.for_params(p)))
        outcomes = []
        for j in (0, 1):
            try:
                state, prob = oracle.measure_control(mixed, j)
            except ImpossiblePostselectionError:
                outcomes.append(None)
                continue
            outcomes.append((oracle.schrodinger_phase(state, p.omega, t), prob))
        return outcomes

    def work(self, inp) -> int:
        return 1

    def check(self, inp, outcomes, counters: dict) -> str | None:
        p, t = inp
        where = f"draw n={p.n} m={p.m} gT={p.gT:.6g}"
        total = 0.0
        for j, numeric in enumerate(outcomes):
            try:
                analytic, prob = engine.general_postselect(j, p, p.omega * t)
            except ImpossiblePostselectionError:
                if numeric is not None and numeric[1] >= ORACLE_TOL:
                    return f"{where}: closed form refuses outcome {j}, oracle P={numeric[1]:.3e}"
                continue
            if numeric is None:
                if prob >= ORACLE_TOL:
                    return f"{where}: oracle refuses outcome {j}, closed form P={prob:.3e}"
                continue
            state, prob_numeric = numeric
            total += prob
            if not abs(prob - prob_numeric) <= ORACLE_TOL:
                return f"{where}: P({j}) {prob!r} vs oracle {prob_numeric!r}"
            worst = max(
                abs(analytic.amplitude(k) - state.amplitude(k))
                for k in set(analytic.kets()) | set(state.kets())
            )
            if not worst <= ORACLE_TOL:
                return f"{where}: outcome {j} amplitudes differ by {worst:.3e}"
        if not abs(total - 1.0) <= ORACLE_TOL:
            return f"{where}: P(0) + P(1) = {total!r}"
        return None


WORKLOADS = {wl.name: wl for wl in (Figures, SweepGeneral, Verify, OracleWide)}
