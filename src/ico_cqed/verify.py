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

from .engine import general_postselect
from .errors import ImpossiblePostselectionError
from .oracle import (
    TruncationWindow,
    evolve,
    hadamard_control,
    measure_control,
    schrodinger_phase,
)
from .states import SystemParams

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification run."""

    seed: int
    draws: int
    tolerance: float
    max_amplitude_deviation: float
    max_probability_deviation: float
    max_probability_sum_deviation: float
    skipped_outcomes: int

    @property
    def passed(self) -> bool:
        return (
            self.max_amplitude_deviation <= self.tolerance
            and self.max_probability_deviation <= self.tolerance
        )

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        return [
            f"draws: {self.draws} (seed {self.seed})",
            f"max amplitude deviation:   {self.max_amplitude_deviation:.3e}",
            f"max probability deviation: {self.max_probability_deviation:.3e}",
            f"max |P(0)+P(1)-1|:         {self.max_probability_sum_deviation:.3e}",
            f"skipped near-zero outcomes: {self.skipped_outcomes}",
            f"{status} at tolerance {self.tolerance:.1e}",
        ]


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


def run_verification(
    seed: int, draws: int, tolerance: float = DEFAULT_TOLERANCE
) -> VerifyReport:
    """Compare conditional states and outcome probabilities between the two
    independent computation paths over seeded random draws."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    rng = np.random.default_rng(seed)
    max_amp = 0.0
    max_prob = 0.0
    max_sum = 0.0
    skipped = 0
    for _ in range(draws):
        p = random_params(rng)
        t_meas = p.T1 + p.T + float(rng.uniform(0.0, 2.0))
        window = TruncationWindow.for_params(p)
        mixed = hadamard_control(evolve(p, t_meas, window))
        outcome_probs = []
        for j in (0, 1):
            try:
                analytic, prob_analytic = general_postselect(j, p, p.omega * t_meas)
            except ImpossiblePostselectionError:
                skipped += 1
                continue
            outcome_probs.append(prob_analytic)
            numeric, prob_numeric = measure_control(mixed, j)
            numeric = schrodinger_phase(numeric, p.omega, t_meas)
            max_prob = max(max_prob, abs(prob_analytic - prob_numeric))
            for ket in set(analytic.kets()) | set(numeric.kets()):
                max_amp = max(
                    max_amp, abs(analytic.amplitude(ket) - numeric.amplitude(ket))
                )
        if len(outcome_probs) == 2:
            max_sum = max(max_sum, abs(outcome_probs[0] + outcome_probs[1] - 1.0))
    return VerifyReport(
        seed=seed,
        draws=draws,
        tolerance=tolerance,
        max_amplitude_deviation=max_amp,
        max_probability_deviation=max_prob,
        max_probability_sum_deviation=max_sum,
        skipped_outcomes=skipped,
    )
