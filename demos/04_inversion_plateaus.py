"""Rabi oscillations of the inversion, with and without a definite order.

Sweeping the interaction time, the definite-order inversion oscillates the
whole way, while the control-0 conditional curve develops wide plateaus:
stretches where the postselection freezes the atom near full inversion.
This script locates the widest low-variation window of each curve.
"""

import math

from ico_cqed import AtomicInversion, SweepConfig, run_sweep


def widest_flat_window(gts, values, tv_budget=0.02):
    diffs = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
    best = (0, 0)
    for start in range(len(diffs)):
        tv, end = 0.0, start
        while end < len(diffs) and tv + diffs[end] < tv_budget:
            tv += diffs[end]
            end += 1
        if end - start > best[1] - best[0]:
            best = (start, end)
    return gts[best[0]], gts[best[1]]


def inversion_scan(scenario, n, m):
    """g*T grid 0, 0.005, ..., 10 and the inversion on it, balanced control."""
    cfg = SweepConfig(scenario, (AtomicInversion(),), n=n, m=m, gT_stop=10.0, gT_step=0.005)
    gts, values = run_sweep(cfg).cells
    return list(gts), list(values)


def inversion_at(scenario, gt):
    """The inversion at the one grid point gT = gt, empty cavities."""
    cfg = SweepConfig(scenario, (AtomicInversion(),), gT_start=gt, gT_stop=gt, gT_step=1.0)
    return run_sweep(cfg).cells[1][0]


def main():
    for n, m in ((0, 0), (1, 1), (0, 1)):
        gts, ser = inversion_scan("series_C0C1", n, m)
        _, ico = inversion_scan("ico_j0", n, m)
        lo_s, hi_s = widest_flat_window(gts, ser)
        lo_i, hi_i = widest_flat_window(gts, ico)
        print(f"fill n={n}, m={m}:")
        print(f"  definite order:   widest flat window {hi_s - lo_s:.2f} wide, gT in [{lo_s:.2f}, {hi_s:.2f}]")
        print(f"  superposed order: widest flat window {hi_i - lo_i:.2f} wide, gT in [{lo_i:.2f}, {hi_i:.2f}]")
    print()
    print("spot checks for empty cavities:")
    for gt in (math.pi / 2, math.pi):
        definite, conditional = (inversion_at(s, gt) for s in ("series_C0C1", "ico_j0"))
        print(f"  gT = {gt:.4f}: definite {definite:+.6f}, conditional {conditional:+.6f}")


if __name__ == "__main__":
    main()
