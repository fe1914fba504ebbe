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
from .engine import _ATOM, _DN, _DM, grid_amplitudes, measurement_phase
from .errors import ImpossiblePostselectionError
from .states import MIN_OUTCOME_PROBABILITY, SystemParams, check_real, check_whole

DEFAULT_TOLERANCE = 1e-9

#: Most draws one run may ask for: the drawn SystemParams, the run's draw
#: table and the (2, draws) comparison arrays stay in memory, a tracemalloc
#: peak of about 0.75 KB per draw, plus under 1 MB for one chunk's arrays;
#: 100,000 draws peak at 74 MB above the imported package.
MAX_DRAWS = 100_000
#: Draws compared in one batch; it bounds the batch arrays, which grow with
#: the draws times the window of the largest (98 kets at n, m <= 4).  A
#: larger chunk is a little faster and holds more memory at once.
_CHUNK = 64


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


# Bounds of the eight uniform draws: g, g*T, T0, omega, theta, varphi, xi, chi.
_LOW = np.array([0.5, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0])
_SPAN = np.array([2.0, 10.0, 2.0, 3.0, math.pi / 2, 2 * math.pi, math.pi / 2, 2 * math.pi]) - _LOW


def random_params(rng: np.random.Generator) -> SystemParams:
    """One random parameter draw: g*T in [0, 10), all four preparation angles
    uniform over their ranges, photon numbers in 0..4, and a non-trivial
    transit schedule.  Each uniform value is low + (high - low) * u, as
    Generator.uniform rounds it."""
    g, gT, entry, omega, theta, varphi, xi, chi = (_LOW + _SPAN * rng.random(8)).tolist()
    # two scalar draws cost less than one of size 2, which draws the same
    n, m = int(rng.integers(0, 5)), int(rng.integers(0, 5))
    transit = gT / g
    return SystemParams(g=g, T=transit, omega=omega, theta=theta, varphi=varphi, xi=xi, chi=chi,
                        n=n, m=m, T0=entry, T1=entry + transit + 2.0 * rng.random())


def _closed_forms(table: dict[str, np.ndarray]) -> tuple:
    """For the N draws of a draw table (oracle.draw_table): per control
    outcome j the (len(engine.OFFSETS), N) phased conditional amplitudes,
    and the (2, N) outcome probabilities, as general_postselect computes
    them at omega_t = omega * t, from one grid_amplitudes call per outcome.
    A draw evaluated alone gets the same bits."""
    n, m, omega_t = table["n"], table["m"], table["omega"] * table["t"]
    per_point = {name: table[name] for name in ("g", "xi", "chi", "theta", "varphi")}
    per_point.update(t_first=table["T"], t_second=table["T"])
    amps, probs = [], []
    for scenario in ("ico_j0", "ico_j1"):
        conditional, prob = grid_amplitudes(scenario, n, m, **per_point)
        amps.append(measurement_phase(n, m, conditional, omega_t))
        probs.append(prob)
    return amps, np.array(probs)


def _amplitude_deviation(
    n: np.ndarray, m: np.ndarray, analytic: np.ndarray, numeric: np.ndarray,
    w: oracle.TruncationWindow,
) -> np.ndarray:
    """Largest |analytic - numeric| over the union of both supports, per
    column: analytic is (len(engine.OFFSETS), N) from the column's photon
    numbers n and m, as grid_amplitudes returns it, numeric
    (atom_field_dim, N) on the window.  An analytic ket outside the window
    counts with its full magnitude; a negative-occupation one is 0.  hypot
    rounds as abs() of a Python complex does; numpy's complex abs may not."""
    kn, km = n + _DN, m + _DM
    inside = (kn >= 0) & (km >= 0) & (kn <= w.n_max) & (km <= w.n_max)
    kets, columns = np.nonzero(inside)
    index = w.flat_index(_ATOM, kn, km)
    diff = numeric.copy()
    diff[index[kets, columns], columns] -= analytic[kets, columns]
    outside = np.where(inside, 0, analytic)
    return np.maximum(np.hypot(diff.real, diff.imag).max(axis=0),
                      np.hypot(outside.real, outside.imag).max(axis=0))


def _compare(table: dict[str, np.ndarray]) -> tuple:
    """For the N draws of a draw table, three (2, N) arrays, row j for
    control outcome j and column i for draw i: the closed-form probability,
    the matrix probability and the amplitude deviation.  Both sides run once
    for all draws, the matrix side on the window of the largest.  The first
    (draw, outcome) that the closed forms accept and the matrix side refuses
    raises ImpossiblePostselectionError."""
    n, m = table["n"], table["m"]
    window = oracle.TruncationWindow(int(max(n.max(), m.max())) + 2)
    outcomes = oracle.recombine(oracle._evolve_branches(table, window))
    analytic, prob_analytic = _closed_forms(table)
    prob_numeric, deviation = [], []
    for j in (0, 1):
        state, prob = oracle.condition(outcomes, j)
        numeric = oracle.phase(state, table["omega"], table["t"], oracle.basis_excitations(window))
        prob_numeric.append(prob)
        deviation.append(_amplitude_deviation(n, m, analytic[j], numeric, window))
    prob_numeric = np.array(prob_numeric)
    refused = (prob_analytic >= MIN_OUTCOME_PROBABILITY) & (prob_numeric < MIN_OUTCOME_PROBABILITY)
    if refused.any():
        draw, j = np.argwhere(refused.T)[0]  # the first in draw-major order
        raise ImpossiblePostselectionError(f"control outcome {j}", float(prob_numeric[j, draw]))
    return prob_analytic, prob_numeric, np.array(deviation)


def run_verification(
    seed: int, draws: int, tolerance: float = DEFAULT_TOLERANCE
) -> VerifyReport:
    """Compare conditional states and outcome probabilities between the two
    independent computation paths over seeded random draws.

    The draws are compared in chunks of _CHUNK, each chunk as one batch of
    mixed (n, m).  The closed-form side is engine.grid_amplitudes, the
    kernel behind every sweep and figure, called once per chunk and control
    outcome.  The matrix side is the oracle's chain, recombine -> condition
    -> phase, run once per chunk on the window vectors of the evolved
    branches, on the window of the chunk's largest draw: the code behind
    hadamard_control, measure_control and schrodinger_phase.  seed must be
    an int >= 0, draws an int in 1..MAX_DRAWS and tolerance a finite real
    >= 0; otherwise a ValueError names the field."""
    check_whole(seed, "seed", 0)
    check_whole(draws, "draws", 1, MAX_DRAWS + 1)
    check_real(tolerance, "tolerance", 0.0)
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(draws):
        p = random_params(rng)
        drawn.append((p, p.T1 + p.T + 2.0 * rng.random()))
    table = oracle.draw_table(drawn)
    analytic, numeric, deviation = np.empty((3, 2, draws))
    for start in range(0, draws, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        analytic[:, chunk], numeric[:, chunk], deviation[:, chunk] = _compare(
            {name: column[chunk] for name, column in table.items()}
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
