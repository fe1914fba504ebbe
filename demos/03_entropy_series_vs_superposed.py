"""How much field-field entanglement each scenario can reach.

The linear entropy of one cavity mode, after conditioning on the atom's exit
level, measures the entanglement between the two fields.  A definite order
confines each conditioned slice to two field levels (cap 1/2); the superposed
order spreads it over three (cap 2/3) and pins the ground branch at exactly
1/2 for equal fills.  For fill (n, 0) the definite order creates nothing at
all while the superposed order still entangles.
"""

from ico_cqed import AtomLevel, BranchEntropy, SweepConfig, run_sweep

E, G = AtomLevel.EXCITED, AtomLevel.GROUND


def entropy_curves(n, m, branch, start, stop, step):
    """Linear entropy of the first mode once the atom is found in ``branch``,
    for the definite order and for control outcome 0 of the balanced
    superposed order, at every g*T where that conditioning is possible."""
    curves = []
    for scenario in ("series_C0C1", "ico_j0"):
        cfg = SweepConfig(
            scenario, (BranchEntropy(branch),), n=n, m=m,
            gT_start=start, gT_stop=stop, gT_step=step,
        )
        curves.append([v for _, v in run_sweep(cfg).rows if v is not None])
    return curves


def main():
    gts = dict(start=0.01, stop=19.995, step=0.005)

    series, ico = entropy_curves(1, 1, E, **gts)
    print("one photon in each cavity, atom found excited:")
    print(f"  definite order:   max S_L = {max(series):.4f} (cap 1/2)")
    print(f"  superposed order: max S_L = {max(ico):.4f} (cap 2/3)")
    print()

    series, ico = entropy_curves(0, 0, G, **gts)
    print("empty cavities, atom found ground:")
    print(f"  definite order:   S_L spans [{min(series):.4f}, {max(series):.4f}]")
    print(f"  superposed order: S_L spans [{min(ico):.4f}, {max(ico):.4f}] (constant 1/2)")
    print()

    series, ico = entropy_curves(3, 0, E, **gts)
    print("fill (3, 0), atom found excited:")
    print(f"  definite order:   max S_L = {max(series):.2e} (no entanglement, ever)")
    print(f"  superposed order: max S_L = {max(ico):.4f}")


if __name__ == "__main__":
    main()
