"""Randomized equivalence check between the closed-form path and the matrix
propagator path.

Both routes compute the same physical object, the conditional atom-field
state after recombining and measuring the control, through unrelated code:
one multiplies trigonometric closed forms, the other rotates state vectors.
Agreement across random parameter draws is the package's strongest internal
consistency evidence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .engine import grid_amplitudes, measurement_phase
from .errors import ImpossiblePostselectionError
from .oracle import TruncationWindow, _evolve_branches
from .states import MIN_OUTCOME_PROBABILITY, SystemParams, prune_amplitudes

DEFAULT_TOLERANCE = 1e-9

#: Most draws one run may ask for: all draws and their closed forms stay in
#: memory, about 1.5 KB per draw, so 100,000 take some 150 MB.
MAX_DRAWS = 100_000


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification run.

    The worst_* fields describe the draw with the largest amplitude
    deviation: its index in the run, the control outcome, the measurement
    time and the parameters, enough to replay it without the seed.
    """

    seed: int
    draws: int
    tolerance: float
    max_amplitude_deviation: float
    max_probability_deviation: float
    max_probability_sum_deviation: float
    skipped_outcomes: int
    worst_draw: int
    worst_outcome: int
    worst_time: float
    worst_params: SystemParams

    @property
    def passed(self) -> bool:
        return (
            self.max_amplitude_deviation <= self.tolerance
            and self.max_probability_deviation <= self.tolerance
        )

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"draws: {self.draws} (seed {self.seed})",
            f"max amplitude deviation:   {self.max_amplitude_deviation:.3e}",
            f"max probability deviation: {self.max_probability_deviation:.3e}",
            f"max |P(0)+P(1)-1|:         {self.max_probability_sum_deviation:.3e}",
            f"skipped near-zero outcomes: {self.skipped_outcomes}",
            f"{status} at tolerance {self.tolerance:.1e}",
        ]
        if not self.passed:
            lines += [
                f"worst draw: {self.worst_draw} (control outcome {self.worst_outcome}, "
                f"t = {self.worst_time!r})",
                f"worst draw params: {self.worst_params!r}",
            ]
        return lines


def random_params(rng: np.random.Generator) -> SystemParams:
    """One random parameter draw: g*T in [0, 10), all four preparation angles
    uniform over their ranges, photon numbers in 0..4, and a non-trivial
    transit schedule."""
    g = float(rng.uniform(0.5, 2.0))
    transit = float(rng.uniform(0.0, 10.0)) / g
    entry = float(rng.uniform(0.0, 2.0))
    return SystemParams(
        g=g,
        T=transit,
        omega=float(rng.uniform(0.2, 3.0)),
        theta=float(rng.uniform(0.0, math.pi / 2)),
        varphi=float(rng.uniform(0.0, 2 * math.pi)),
        xi=float(rng.uniform(0.0, math.pi / 2)),
        chi=float(rng.uniform(0.0, 2 * math.pi)),
        n=int(rng.integers(0, 5)),
        m=int(rng.integers(0, 5)),
        T0=entry,
        T1=entry + transit + float(rng.uniform(0.0, 2.0)),
    )


def _recombined(p: SystemParams, t: float, w: TruncationWindow) -> np.ndarray:
    """oracle.hadamard_control(oracle.evolve(p, t, w)) on the window's basis:
    row j holds the control-j component, pruned as a PureState would be."""
    half = _evolve_branches(p, t, w) * (1.0 / math.sqrt(2.0))
    return prune_amplitudes(np.stack((half[0] + half[1], half[0] - half[1])))


@functools.lru_cache(maxsize=16)
def _excitations(w: TruncationWindow) -> np.ndarray:
    """Atom excitation plus photon number of every basis index; read-only."""
    atom, n, m = np.indices((2, w.levels, w.levels)).reshape(3, -1)
    excitations = 1 - atom + n + m
    excitations.flags.writeable = False
    return excitations


def _conditional(
    recombined: np.ndarray, j: int, p: SystemParams, t: float, w: TruncationWindow
) -> tuple[np.ndarray, float]:
    """oracle.measure_control followed by oracle.schrodinger_phase on the
    window's basis: the normalized, phased control-j component and its
    probability.  Refuses an outcome below MIN_OUTCOME_PROBABILITY as
    measure_control does."""
    row = recombined[j]
    prob = math.fsum((row.real**2 + row.imag**2).tolist())
    if prob < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError(f"control outcome {j}", prob)
    phase = np.exp(-1j * p.omega * t * (_excitations(w) - 0.5))
    state = prune_amplitudes(row * (1.0 / math.sqrt(prob)))
    # The product written out rounds as Python's complex product does;
    # numpy's complex multiply may fuse the multiply-adds.
    phased = np.empty_like(state)
    phased.real = state.real * phase.real - state.imag * phase.imag
    phased.imag = state.real * phase.imag + state.imag * phase.real
    return prune_amplitudes(phased), prob


def _closed_forms(draws: list[tuple[SystemParams, float]]) -> list[list[tuple]]:
    """Per (params, measurement time) draw and control outcome j: the basis,
    the phased conditional amplitudes and the outcome probability, as
    general_postselect computes them, from one grid_amplitudes call per
    (n, m) group and outcome.  A draw evaluated alone gets the same bits."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (p, _) in enumerate(draws):
        groups.setdefault((p.n, p.m), []).append(i)
    out: list[list[tuple]] = [[] for _ in draws]
    for (n, m), members in groups.items():
        params = [draws[i][0] for i in members]
        transit = np.array([p.T for p in params])
        per_point = {
            name: np.array([getattr(p, name) for p in params])
            for name in ("g", "xi", "chi", "theta", "varphi")
        }
        omega_t = np.array([draws[i][0].omega * draws[i][1] for i in members])
        for scenario in ("ico_j0", "ico_j1"):
            basis, amps, prob = grid_amplitudes(
                scenario, n, m, t_first=transit, t_second=transit, **per_point
            )
            phased = measurement_phase(basis, amps, omega_t)
            for col, i in enumerate(members):
                out[i].append((basis, phased[:, col], float(prob[col])))
    return out


def _amplitude_deviation(
    basis: tuple, analytic: np.ndarray, numeric: np.ndarray, w: TruncationWindow
) -> float:
    """Largest |analytic - numeric| over the union of both supports; an
    analytic ket outside the window counts with its full magnitude.  hypot
    rounds as abs() of a Python complex does; numpy's complex abs may not."""
    diff = numeric.copy()
    outside = 0.0
    for ket, amp in zip(basis, analytic.tolist()):
        if ket.n > w.n_max or ket.m > w.n_max:
            outside = max(outside, abs(amp))
        else:
            diff[w.index(ket.atom, ket.n, ket.m)] -= amp
    return max(outside, float(np.hypot(diff.real, diff.imag).max()))


def _compare_draw(p: SystemParams, t: float, closed: list) -> list[tuple]:
    """(outcome, closed-form probability, matrix probability, amplitude
    deviation) for each control outcome the closed forms do not refuse;
    ``closed`` is the draw's entry of _closed_forms."""
    window = TruncationWindow.for_params(p)
    recombined = _recombined(p, t, window)
    rows = []
    for j, (basis, analytic, prob_analytic) in enumerate(closed):
        if prob_analytic < MIN_OUTCOME_PROBABILITY:
            continue
        numeric, prob_numeric = _conditional(recombined, j, p, t, window)
        deviation = _amplitude_deviation(basis, analytic, numeric, window)
        rows.append((j, prob_analytic, prob_numeric, deviation))
    return rows


def _check_inputs(seed: int, draws: int, tolerance: float) -> None:
    for name, value, least in (("seed", seed, 0), ("draws", draws, 1)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name}: must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name}: must be >= {least}")
    if draws > MAX_DRAWS:
        raise ValueError(f"draws: must be <= MAX_DRAWS = {MAX_DRAWS}, got {draws}")
    # The chained comparison also rejects NaN, which fails every comparison.
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance: must be finite and >= 0, got {tolerance!r}")


def run_verification(
    seed: int, draws: int, tolerance: float = DEFAULT_TOLERANCE
) -> VerifyReport:
    """Compare conditional states and outcome probabilities between the two
    independent computation paths over seeded random draws.

    The closed-form side is engine.grid_amplitudes, the kernel behind every
    sweep and figure, called once per (n, m) group of draws and control
    outcome.  The matrix side is evolve, hadamard_control, measure_control
    and schrodinger_phase carried out per draw on the window's vectors
    instead of on PureStates, with the same pruning and the same refusal of
    impossible outcomes.  seed must be an int >= 0, draws an int >= 1 and
    tolerance finite and >= 0; otherwise a ValueError names the field.
    draws may not exceed MAX_DRAWS."""
    _check_inputs(seed, draws, tolerance)
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(draws):
        p = random_params(rng)
        drawn.append((p, p.T1 + p.T + float(rng.uniform(0.0, 2.0))))
    closed = _closed_forms(drawn)
    max_amp = 0.0
    max_prob = 0.0
    max_sum = 0.0
    skipped = 0
    worst = None
    for draw, (p, t_meas) in enumerate(drawn):
        rows = _compare_draw(p, t_meas, closed[draw])
        skipped += 2 - len(rows)
        for j, prob_analytic, prob_numeric, deviation in rows:
            max_prob = max(max_prob, abs(prob_analytic - prob_numeric))
            if worst is None or deviation > max_amp:
                max_amp, worst = deviation, (draw, j, t_meas, p)
        if len(rows) == 2:
            max_sum = max(max_sum, abs(rows[0][1] + rows[1][1] - 1.0))
    # Every draw compares at least one outcome: P(0) + P(1) = 1.
    worst_draw, worst_outcome, worst_time, worst_params = worst
    return VerifyReport(
        seed=seed,
        draws=draws,
        tolerance=tolerance,
        max_amplitude_deviation=max_amp,
        max_probability_deviation=max_prob,
        max_probability_sum_deviation=max_sum,
        skipped_outcomes=skipped,
        worst_draw=worst_draw,
        worst_outcome=worst_outcome,
        worst_time=worst_time,
        worst_params=worst_params,
    )
