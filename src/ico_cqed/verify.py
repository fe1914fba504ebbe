"""Randomized equivalence check between the closed-form path and the matrix
propagator path.

Both routes compute the same physical object, the conditional atom-field
state after recombining and measuring the control, through unrelated code:
one multiplies trigonometric closed forms, the other rotates state vectors.
Agreement across random parameter draws is the package's strongest internal
consistency evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .engine import grid_amplitudes, measurement_phase
from .errors import ImpossiblePostselectionError
from .states import MIN_OUTCOME_PROBABILITY, SystemParams

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


def _closed_forms(group: list[tuple[SystemParams, float]]) -> tuple:
    """For (params, measurement time) draws that share (n, m): the basis, the
    (K, 2, N) phased conditional amplitudes, axis 1 the control outcome j,
    and the (2, N) outcome probabilities, as general_postselect computes
    them, from one grid_amplitudes call per outcome.  A draw evaluated alone
    gets the same bits."""
    params = [p for p, _ in group]
    transit = np.array([p.T for p in params])
    per_point = {
        name: np.array([getattr(p, name) for p in params])
        for name in ("g", "xi", "chi", "theta", "varphi")
    }
    omega_t = np.array([p.omega * t for p, t in group])
    amps, probs = [], []
    for scenario in ("ico_j0", "ico_j1"):
        basis, conditional, prob = grid_amplitudes(
            scenario, params[0].n, params[0].m, t_first=transit, t_second=transit, **per_point
        )
        amps.append(measurement_phase(basis, conditional, omega_t))
        probs.append(prob)
    return basis, np.stack(amps, axis=1), np.array(probs)


def _amplitude_deviation(
    basis: tuple, analytic: np.ndarray, numeric: np.ndarray, w: oracle.TruncationWindow
) -> np.ndarray:
    """Largest |analytic - numeric| over the union of both supports, per
    column: analytic is (K, ...) on the basis, numeric (atom_field_dim, ...)
    on the window.  An analytic ket outside the window counts with its full
    magnitude.  hypot rounds as abs() of a Python complex does; numpy's
    complex abs may not."""
    inside = [i for i, k in enumerate(basis) if k.n <= w.n_max and k.m <= w.n_max]
    diff = numeric.copy()
    diff[[w.index(basis[i].atom, basis[i].n, basis[i].m) for i in inside]] -= analytic[inside]
    deviation = np.hypot(diff.real, diff.imag).max(axis=0)
    outside = np.delete(analytic, inside, axis=0)
    if len(outside):
        deviation = np.maximum(deviation, np.hypot(outside.real, outside.imag).max(axis=0))
    return deviation


def _compare_group(group: list[tuple[SystemParams, float]]) -> tuple:
    """For draws that share (n, m), three (2, N) arrays, row j for control
    outcome j and column i for draw i: the closed-form probability, the
    matrix probability and the amplitude deviation.  Both sides run once for
    the whole group.  The first (draw, outcome) that the closed forms accept
    and the matrix side refuses raises ImpossiblePostselectionError."""
    window = oracle.TruncationWindow.for_params(group[0][0])
    rows = oracle.recombine(oracle._evolve_branches(group, window))
    omega, times = [p.omega for p, _ in group], [t for _, t in group]
    numeric, prob_numeric = [], []
    for j in (0, 1):
        state, prob = oracle.condition(rows, j)
        numeric.append(oracle.phase(state, omega, times, oracle.basis_excitations(window)))
        prob_numeric.append(prob)
    basis, analytic, prob_analytic = _closed_forms(group)
    prob_numeric = np.array(prob_numeric)
    refused = (prob_analytic >= MIN_OUTCOME_PROBABILITY) & (prob_numeric < MIN_OUTCOME_PROBABILITY)
    if refused.any():
        draw, j = np.argwhere(refused.T)[0]  # the first in draw-major order
        raise ImpossiblePostselectionError(f"control outcome {j}", float(prob_numeric[j, draw]))
    deviation = _amplitude_deviation(basis, analytic, np.stack(numeric, axis=1), window)
    return prob_analytic, prob_numeric, deviation


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
    outcome.  The matrix side is the oracle's chain, recombine -> condition
    -> phase, run once per (n, m) group on the window vectors of the evolved
    branches: the code behind hadamard_control, measure_control and
    schrodinger_phase.  seed must be an int >= 0, draws an int >= 1 and
    tolerance finite and >= 0; otherwise a ValueError names the field.
    draws may not exceed MAX_DRAWS."""
    _check_inputs(seed, draws, tolerance)
    rng = np.random.default_rng(seed)
    drawn = []
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(draws):
        p = random_params(rng)
        drawn.append((p, p.T1 + p.T + float(rng.uniform(0.0, 2.0))))
        groups.setdefault((p.n, p.m), []).append(i)
    analytic, numeric, deviation = np.empty((3, 2, draws))
    for members in groups.values():
        analytic[:, members], numeric[:, members], deviation[:, members] = _compare_group(
            [drawn[i] for i in members]
        )
    compared = analytic >= MIN_OUTCOME_PROBABILITY
    # Every draw compares at least one outcome, as P(0) + P(1) = 1; argmax
    # over the draw-major view names the first of equal deviations.
    worst = int(np.argmax(np.where(compared, deviation, -np.inf).T))
    worst_draw, worst_outcome = divmod(worst, 2)
    worst_params, worst_time = drawn[worst_draw]
    return VerifyReport(
        seed=seed,
        draws=draws,
        tolerance=tolerance,
        max_amplitude_deviation=float(deviation[worst_outcome, worst_draw]),
        max_probability_deviation=float(
            np.max(np.abs(analytic - numeric), where=compared, initial=0.0)
        ),
        max_probability_sum_deviation=float(np.max(
            np.abs(analytic[0] + analytic[1] - 1.0), where=compared.all(axis=0), initial=0.0
        )),
        skipped_outcomes=int(np.count_nonzero(~compared)),
        worst_draw=worst_draw,
        worst_outcome=worst_outcome,
        worst_time=worst_time,
        worst_params=worst_params,
    )
