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
from .engine import _ATOM, _DN, _DM, _branches, _ico_outcome, measurement_phase
from .errors import ImpossiblePostselectionError
from .states import MIN_OUTCOME_PROBABILITY, SystemParams, check_real, check_whole

DEFAULT_TOLERANCE = 1e-9

#: Most draws one run may ask for: the run's draw table and the (2, draws) comparison
#: arrays stay in memory, a tracemalloc peak of about 0.19 KB per draw, plus under 1 MB
#: for one chunk's arrays; 100,000 draws peak at 19.5 MB above the imported package.
MAX_DRAWS = 100_000
#: Most draws compared in one batch; it bounds the branches evolved on 50 kets a draw
#: before the chain moves to at most ten.  tracemalloc peaks: 0.80 MB for one chunk of
#: 128 draws, 0.65 MB for 200 draws (two chunks of 100), 0.95 MB for 1,024.
_CHUNK = 128


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
    Generator.uniform rounds it.  run_verification draws from the same
    ranges but from its own stream (_draw_table): these are not its draws."""
    g, gT, entry, omega, theta, varphi, xi, chi = (_LOW + _SPAN * rng.random(8)).tolist()
    n, m = rng.integers(0, 5, 2).tolist()
    transit = gT / g
    return SystemParams(g=g, T=transit, omega=omega, theta=theta, varphi=varphi, xi=xi, chi=chi,
                        n=n, m=m, T0=entry, T1=entry + transit + 2.0 * rng.random())


def _draw_table(seed: int, draws: int) -> dict[str, np.ndarray]:
    """run_verification's draw table, a C-contiguous column per name of
    oracle._COLUMNS: draw i is made from row i of one (draws, 12)
    Generator.random call, so it does not depend on draws (README recipe)."""
    u = np.random.default_rng(seed).random((draws, 12)).T.copy()
    u[:8] *= _SPAN[:, None]
    u[:8] += _LOW[:, None]
    g, T, T0, omega, theta, varphi, xi, chi = u[:8]
    n, m = (5.0 * u[8:10]).astype(int)
    T /= g  # T, T1 and t are written over the rows of gT, u[10] and u[11]
    T1 = np.add(T0 + T, 2.0 * u[10], out=u[10])
    return dict(g=g, T=T, omega=omega, theta=theta, varphi=varphi, xi=xi, chi=chi, n=n, m=m,
                T0=T0, T1=T1, t=np.add(T1 + T, 2.0 * u[11], out=u[11]))


def _closed_forms(table: dict[str, np.ndarray]) -> tuple:
    """For the N draws of a draw table: the (2, len(engine.OFFSETS), N)
    phased conditional amplitudes and the (2, N) outcome probabilities, row
    j for control outcome j, as general_postselect computes them at omega_t =
    omega * t.  Both weighted order branches are built once, and each
    outcome recombines them as grid_amplitudes("ico_j0"/"ico_j1") does.  A
    draw evaluated alone gets the same bits."""
    n, m, omega_t = table["n"], table["m"], table["omega"] * table["t"]
    first, second = _branches("ico", n, m, table["g"], table["T"], table["T"], table["xi"],
                              table["chi"], table["theta"], table["varphi"])
    conditional, probs = zip(*(_ico_outcome(first if j else first.copy(), second, j)
                               for j in (0, 1)))
    return measurement_phase(n, m, np.array(conditional), omega_t), np.array(probs)


def _amplitude_deviation(
    n: np.ndarray, m: np.ndarray, analytic: np.ndarray, kets: np.ndarray, numeric: np.ndarray
) -> np.ndarray:
    """Largest |analytic - numeric| per control outcome and column, (2, N):
    analytic is (2, len(engine.OFFSETS), N) as grid_amplitudes returns it
    for the columns' n and m, numeric (2, K, N) on the kets (3, K, N) of
    oracle._evolve_branches.  Matched on equal (atom, n, m), an entry or an
    analytic ket with no partner counts in full; a negative-occupation one
    is 0.  hypot rounds as abs() of a Python complex does; numpy's complex
    abs may not."""
    # (len(OFFSETS), K, N): analytic ket r sits on numeric entry k of its column
    atom, kn, km = _ATOM[:, None], (n + _DN)[:, None], (m + _DM)[:, None]
    matched = (atom == kets[0]) & (kn == kets[1]) & (km == kets[2])
    # each entry's analytic partner, at most one, and 0 where it has none
    partner = analytic[:, matched.argmax(axis=0), np.arange(kets.shape[2])] * matched.any(axis=0)
    diff = numeric - partner
    unmatched = np.where(matched.any(axis=1), 0, analytic)
    return np.maximum(np.hypot(diff.real, diff.imag).max(axis=1),
                      np.hypot(unmatched.real, unmatched.imag).max(axis=1))


def _compare(table: dict[str, np.ndarray]) -> tuple:
    """For the N draws of a draw table, three (2, N) arrays, row j for
    control outcome j and column i for draw i: the closed-form probability,
    the matrix probability and the amplitude deviation.  Both sides run once
    for all draws, the matrix side on the kets each draw populates.  The
    first (draw, outcome) that the closed forms accept and the matrix side
    refuses raises ImpossiblePostselectionError."""
    kets, branches = oracle._evolve_branches(table)
    outcomes = oracle.recombine(branches)
    analytic, prob_analytic = _closed_forms(table)
    states, probs = zip(*(oracle.condition(outcomes, j) for j in (0, 1)))
    prob_numeric = np.array(probs)
    numeric = oracle.phase(np.array(states), table["omega"] * table["t"],
                           1 - kets[0] + kets[1] + kets[2])
    refused = (prob_analytic >= MIN_OUTCOME_PROBABILITY) & (prob_numeric < MIN_OUTCOME_PROBABILITY)
    if refused.any():
        draw, j = np.argwhere(refused.T)[0]  # the first in draw-major order
        raise ImpossiblePostselectionError(f"control outcome {j}", float(prob_numeric[j, draw]))
    return prob_analytic, prob_numeric, _amplitude_deviation(
        table["n"], table["m"], analytic, kets, numeric)


def run_verification(
    seed: int, draws: int, tolerance: float = DEFAULT_TOLERANCE
) -> VerifyReport:
    """Compare conditional states and outcome probabilities between the two
    independent computation paths over seeded random draws.

    The draws are made from one Generator.random call into one draw table
    (_draw_table), with no object per draw; only worst_params is built as a
    SystemParams.  They are compared in the fewest chunks of at most
    _CHUNK draws, of one size but the last, each chunk as one batch of
    mixed (n, m).  The closed-form side is the kernel behind
    every sweep and figure, engine.grid_amplitudes: both weighted order
    branches are built once per chunk, and each control outcome recombines
    them.  The matrix side is the oracle's chain, recombine -> condition
    -> phase, run once per chunk on the kets each draw populates, of the
    branches each draw evolves on its own local window: the code
    behind hadamard_control, measure_control and schrodinger_phase.  seed
    must be an int >= 0, draws an int in 1..MAX_DRAWS and tolerance a finite
    real >= 0; otherwise a ValueError names the field."""
    check_whole(seed, "seed", 0)
    check_whole(draws, "draws", 1, MAX_DRAWS + 1)
    check_real(tolerance, "tolerance", 0.0)
    table = _draw_table(seed, draws)
    analytic, numeric, deviation = np.empty((3, 2, draws))
    step = math.ceil(draws / math.ceil(draws / _CHUNK))
    for start in range(0, draws, step):
        chunk = slice(start, start + step)
        analytic[:, chunk], numeric[:, chunk], deviation[:, chunk] = _compare(
            {name: column[chunk] for name, column in table.items()}
        )
    compared = analytic >= MIN_OUTCOME_PROBABILITY
    # Every draw compares at least one outcome, as P(0) + P(1) = 1; argmax
    # over the draw-major view names the first of equal deviations.
    worst = int(np.argmax(np.where(compared, deviation, -np.inf).T))
    worst_draw, worst_outcome = divmod(worst, 2)
    # the worst draw's table row: its SystemParams fields in order, then t
    *worst_params, worst_time = (column[worst_draw].item() for column in table.values())
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
        worst_params=SystemParams(*worst_params),
    )
