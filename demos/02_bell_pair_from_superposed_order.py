"""Entangling two cavities that never interact directly.

Put the traversal order in an even superposition, recombine the control, and
keep the runs where it lands on outcome 0.  At quarter-period interaction
times the two one-emission amplitudes interfere into a two-mode Bell pair;
measuring the atom afterwards picks one of two maximally entangled field
states.
"""

import math

from ico_cqed import (
    AtomLevel,
    DegenerateBranchError,
    SystemParams,
    bell_resonance_gT,
    bell_state,
    condition_on_atom,
    general_postselect,
    linear_entropy,
    reduced_cavity0,
)

E, G = AtomLevel.EXCITED, AtomLevel.GROUND


def show_state(label, state):
    parts = ", ".join(
        f"({amp.real:+.4f}{amp.imag:+.4f}j)|{k.n},{k.m}>" for k, amp in state.items()
    )
    print(f"  {label}: {parts}")


def main():
    p = SystemParams(g=1.0, T=math.pi / 2, theta=math.pi / 4)
    p0, p1 = (general_postselect(j, p)[1] for j in (0, 1))
    print(f"control outcomes at gT = pi/2: P(0) = {p0:.3f}, P(1) = {p1:.3f}")
    st, _ = general_postselect(0, p)
    fields, prob = condition_on_atom(st, G)
    print(f"atom found ground with probability {prob:.12f}")
    show_state("field pair", fields)
    rho = reduced_cavity0(fields)
    print(f"  first-mode weights: {[float(rho[i, i].real) for i in range(len(rho))]}")
    print(f"  linear entropy: {linear_entropy(rho):.12f} (maximum for two levels: 0.5)")
    print()

    print("the same construction on higher equal fills (ground branch):")
    for n in range(4):
        gt = bell_resonance_gT(n, 1)
        pair = bell_state(G, n, 1)
        kets = " + ".join(f"|{k.n},{k.m}>" for k in pair.kets())
        print(f"  n = m = {n}: gT = {gt:.4f}, pair = ({kets})/sqrt(2)")
    print()
    print("excited branch needs photons to shuttle:")
    for n in (0, 1, 2):
        try:
            pair = bell_state(E, n, 1)
            kets = " + ".join(f"|{k.n},{k.m}>" for k in pair.kets())
            print(f"  n = m = {n}: pair = ({kets})/sqrt(2)")
        except DegenerateBranchError as exc:
            print(f"  n = m = {n}: {exc}")


if __name__ == "__main__":
    main()
