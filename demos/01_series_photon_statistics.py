"""Where a definite-order transit leaves the atom and the photons.

An initially excited atom crosses cavity 0 and then cavity 1, each holding a
Fock state.  Sweeping the per-cavity interaction time shows the four exit
channels trading probability: full revival and first-cavity emission are
periodic certainties, second-cavity emission is capped near 1/4 for equal
fills, and the photon-interchange channel only opens when both cavities
start with photons.
"""

import math

from ico_cqed import (
    AtomLevel,
    CavityOrder,
    KetProbability,
    SweepConfig,
    SystemParams,
    run_sweep,
    state_after_both,
)

E, G = AtomLevel.EXCITED, AtomLevel.GROUND


def channel_maxima(n, m, step, stop):
    channels = {
        "revival        P(e,%d,%d)" % (n, m): KetProbability(E, n, m),
        "emit in C1     P(g,%d,%d)" % (n, m + 1): KetProbability(G, n, m + 1),
        "emit in C0     P(g,%d,%d)" % (n + 1, m): KetProbability(G, n + 1, m),
    }
    if m > 0:
        channels["interchange    P(e,%d,%d)" % (n + 1, m - 1)] = KetProbability(E, n + 1, m - 1)
    cfg = SweepConfig(
        "series_C0C1", tuple(channels.values()), n=n, m=m, gT_stop=stop, gT_step=step
    )
    gts, *columns = zip(*run_sweep(cfg).rows)
    best = {}
    for label, values in zip(channels, columns):
        i = max(range(len(values)), key=values.__getitem__)  # first maximum
        best[label] = (values[i], gts[i])
    return best


def main():
    for n, m in ((0, 0), (5, 5), (4, 5)):
        print(f"initial fill n={n}, m={m}")
        for label, (value, at) in channel_maxima(n, m, step=0.002, stop=29.998).items():
            print(f"  max {label} = {value:.4f}  at gT = {at:.3f}")
        print()
    print("landmarks for empty cavities:")
    for gt, desc in ((math.pi, "full revival"), (math.pi / 2, "certain emission in the first cavity")):
        p = SystemParams(g=1.0, T=gt)
        st = state_after_both(CavityOrder.C0_THEN_C1, p, p.T)
        print(f"  gT = {gt:.6f}: {desc}, support {[(k.atom.label, k.n, k.m) for k in st.kets()]}")


if __name__ == "__main__":
    main()
