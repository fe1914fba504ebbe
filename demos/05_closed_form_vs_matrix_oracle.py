"""Two unrelated computations of the same state must agree.

The closed forms multiply trigonometric factors; the oracle rotates a
truncated-Fock-space state vector through the transit schedule and measures
the control through its recombine -> condition -> phase chain.  This script
runs the seeded randomized comparison, which calls that chain on window
vectors, and then walks one draw end to end through the chain's PureState
views (hadamard_control, measure_control, schrodinger_phase), printing both
amplitude sets side by side.
"""

import numpy as np

from ico_cqed import (
    TruncationWindow,
    evolve,
    general_postselect,
    hadamard_control,
    measure_control,
    run_verification,
    schrodinger_phase,
)
from ico_cqed.verify import random_params


def main():
    report = run_verification(seed=1, draws=25)
    for line in report.lines():
        print(line)
    print()

    rng = np.random.default_rng(99)
    p = random_params(rng)
    t = p.T1 + p.T + 0.5
    print(
        f"one draw in detail: gT = {p.gT:.3f}, theta = {p.theta:.3f}, "
        f"xi = {p.xi:.3f}, n = {p.n}, m = {p.m}"
    )
    analytic, prob_a = general_postselect(0, p, p.omega * t)
    window = TruncationWindow.for_params(p)
    mixed = hadamard_control(evolve(p, t, window))
    numeric, prob_n = measure_control(mixed, 0)
    numeric = schrodinger_phase(numeric, p.omega, t)
    print(f"outcome probability: closed form {prob_a:.12f}, matrix path {prob_n:.12f}")
    print(f"{'ket':>12} {'closed form':>28} {'matrix path':>28}")
    for ket in analytic.kets():
        a, b = analytic.amplitude(ket), numeric.amplitude(ket)
        label = f"|{ket.atom.label},{ket.n},{ket.m}>"
        print(f"{label:>12} {a.real:+.12f}{a.imag:+.12f}j {b.real:+.12f}{b.imag:+.12f}j")


if __name__ == "__main__":
    main()
