"""Shared helpers for the test suite, among them the scalar references the
closed-form kernel (engine.grid_amplitudes) is checked against, the
balanced-control formulas built on the slot amplitudes (the order overlap,
P(j) and the conditional inversion) and the ket-by-ket dict reference for
the oracle's recombine -> condition -> phase chain, the full-window
evolution the oracle's local windows are checked against, the scalar draws
of verify's parameter stream, and the seeded sweep configs whose CLI output
tests/data/sweep_sha256.json pins."""

import cmath
import math

import numpy as np

from ico_cqed import (
    MIN_OUTCOME_PROBABILITY,
    PRUNE_EPSILON,
    AtomFieldKet,
    AtomLevel,
    CavityOrder,
    FullKet,
    ImpossiblePostselectionError,
    PureState,
    SystemParams,
    TruncationWindow,
    coeffs_c,
    coeffs_s,
)
from ico_cqed import oracle
from ico_cqed.sweep import SCENARIOS
from ico_cqed.states import check_outcome, prune_amplitudes

E = AtomLevel.EXCITED
G = AtomLevel.GROUND


def params(gt, **overrides):
    """SystemParams with g = 1 so that T equals the dimensionless g*T."""
    return SystemParams(g=1.0, T=gt, **overrides)


def balanced(gt, **overrides):
    """Maximally indefinite control preparation."""
    return params(gt, theta=math.pi / 4, **overrides)


def window_groups(draws):
    """(params, t) draws grouped by their tight window, TruncationWindow.for_params;
    one batch may mix several (n, m)."""
    groups = {}
    for p, t in draws:
        groups.setdefault(TruncationWindow.for_params(p), []).append((p, t))
    return groups.items()


def grid_table(t, **columns):
    """A draw table with one draw per entry of the array t, built without a
    SystemParams per draw: each other column is given as an array or as one
    value for every draw; g and T are required, the rest default as in
    SystemParams, T1 = T0 + T among them."""
    values = dict(omega=1.0, theta=0.0, varphi=0.0, xi=0.0, chi=0.0, n=0, m=0, T0=0.0, t=t)
    values.update(columns)
    values.setdefault("T1", values["T0"] + values["T"])
    return {name: np.broadcast_to(value, np.shape(t)).astype(int if name in ("n", "m") else float)
            for name, value in values.items()}


def doublet_rate(k: int, g: float) -> float:
    """The rotation rate g*sqrt(k+1) of the doublet {|e,k>, |g,k+1>}; k = -1 gives exactly 0."""
    return g * math.sqrt(k + 1)


def jc_generator(cavity: int, g: float, w: TruncationWindow):
    """Interaction matrix g(a_j^dag sigma_- + sigma_+ a_j) on the ordered
    atom x mode0 x mode1 basis (hbar = 1): the dense reference whose matrix
    exponential oracle.jc_propagator must equal."""
    h = np.zeros((w.atom_field_dim, w.atom_field_dim), dtype=complex)
    for k in range(w.n_max):
        coupling = doublet_rate(k, g)
        for spectator in range(w.levels):
            if cavity == 0:
                row, col = w.index(G, k + 1, spectator), w.index(E, k, spectator)
            else:
                row, col = w.index(G, spectator, k + 1), w.index(E, spectator, k)
            h[row, col] = coupling
            h[col, row] = coupling
    return h


def max_amp_diff(a: PureState, b: PureState) -> float:
    kets = set(a.kets()) | set(b.kets())
    return max((abs(a.amplitude(k) - b.amplitude(k)) for k in kets), default=0.0)


def phase_aligned_diff(a: PureState, b: PureState) -> float:
    """max_amp_diff after rotating b by the global phase that matches its
    largest-amplitude ket to a."""
    anchor = max(b.kets(), key=lambda k: abs(b.amplitude(k)))
    ref = a.amplitude(anchor)
    if ref == 0:
        return max_amp_diff(a, b)
    factor = ref / b.amplitude(anchor)
    factor /= abs(factor)
    rotated = PureState({k: factor * amp for k, amp in b.items()})
    return max_amp_diff(a, rotated)


def excitation_distribution(state: PureState) -> dict:
    """Probability per excitation number, for conservation checks; a
    full-flavor ket counts the excitations of its atom-field ket."""
    dist: dict = {}
    for ket, amp in state.items():
        w = amp.real * amp.real + amp.imag * amp.imag
        excitations = getattr(ket, "rest", ket).excitations
        dist[excitations] = dist.get(excitations, 0.0) + w
    return dist


def inner_product(a: PureState, b: PureState) -> complex:
    """Hermitian inner product: sum over shared kets of conj(a_k) * b_k."""
    common = set(a.kets()) & set(b.kets())
    return sum((a.amplitude(k).conjugate() * b.amplitude(k) for k in common), 0j)


def scale_and_add(alpha: complex, a: PureState, beta: complex, b: PureState) -> PureState:
    """Amplitude-wise alpha*a + beta*b; the result is pruned as usual."""
    out = {k: alpha * amp for k, amp in a.items()}
    for k, amp in b.items():
        out[k] = out.get(k, 0j) + beta * amp
    return PureState(out)


def initial_atom_field_state(p: SystemParams) -> PureState:
    """Atom-field part of the initial state: cos(xi)|e,n,m> + e^{i chi} sin(xi)|g,n,m>."""
    return PureState(
        {
            AtomFieldKet(E, p.n, p.m): math.cos(p.xi),
            AtomFieldKet(G, p.n, p.m): cmath.exp(1j * p.chi) * math.sin(p.xi),
        }
    )


# ---------------------------------------------------------------- scalar closed forms

# Basis ket of each coefficient slot, as (atom level, photon shift in cavity
# 0, photon shift in cavity 1) relative to the initial (n, m).
_SLOT_KETS = {
    CavityOrder.C0_THEN_C1: (
        (E, 0, 0), (E, -1, 0), (G, 0, +1), (G, -1, +1),
        (E, 0, -1), (E, +1, -1), (G, 0, 0), (G, +1, 0),
    ),
    CavityOrder.C1_THEN_C0: (
        (E, 0, 0), (E, 0, -1), (G, +1, 0), (G, +1, -1),
        (E, -1, 0), (E, -1, +1), (G, 0, 0), (G, 0, +1),
    ),
}


def scalar_order_branch(order: CavityOrder, p: SystemParams, tau: float) -> dict:
    """One order's atom-field amplitudes keyed by (atom, n, m), one point at
    a time on Python scalars: time T in the first cavity, tau in the second,
    amplitudes below PRUNE_EPSILON dropped, negative-occupation kets dropped
    once their amplitude is checked to vanish."""
    coeffs = coeffs_c(p, tau) if order is CavityOrder.C0_THEN_C1 else coeffs_s(p, tau)
    amps = {}
    for amp, (atom, dn, dm) in zip(coeffs, _SLOT_KETS[order]):
        amp, n, m = complex(amp), p.n + dn, p.m + dm
        if n < 0 or m < 0:
            assert abs(amp) <= 1e-30, f"negative-occupation ket ({atom.label},{n},{m})"
        elif abs(amp) >= PRUNE_EPSILON:
            amps[atom, n, m] = amp
    return amps


def scalar_state_after_both(order: CavityOrder, p: SystemParams, tau: float) -> PureState:
    """Scalar reference for engine.state_after_both."""
    return PureState(
        {AtomFieldKet(*key): amp for key, amp in scalar_order_branch(order, p, tau).items()}
    )


def scalar_postselect(j: int, p: SystemParams, omega_t: float = 0.0):
    """Scalar reference for engine.general_postselect: both order branches
    summed in one dict with the control weights, pruned, normalised by the
    math.fsum probability and phased ket by ket."""
    check_outcome(j)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    w0 = math.cos(p.theta) * inv_sqrt2
    w1 = (-1.0 if j else 1.0) * cmath.exp(1j * p.varphi) * math.sin(p.theta) * inv_sqrt2
    residual = {
        key: w0 * amp
        for key, amp in scalar_order_branch(CavityOrder.C0_THEN_C1, p, p.T).items()
    }
    for key, amp in scalar_order_branch(CavityOrder.C1_THEN_C0, p, p.T).items():
        residual[key] = residual.get(key, 0j) + w1 * amp
    residual = {key: amp for key, amp in residual.items() if abs(amp) >= PRUNE_EPSILON}
    prob = math.fsum(a.real * a.real + a.imag * a.imag for a in residual.values())
    if prob < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError(f"control outcome {j}", prob)
    scale = 1.0 / math.sqrt(prob)
    amps = {}
    for (atom, n, m), amp in residual.items():
        phase = cmath.exp(-1j * omega_t * (atom.excitation + n + m - 0.5))
        amps[AtomFieldKet(atom, n, m)] = amp * scale * phase
    return PureState(amps), prob


# ---------------------------------------------------------------- balanced-control closed forms


def overlap_orders(p: SystemParams) -> complex:
    """<psi_C0C1|psi_C1C0> at tau = T from the two orders' slot amplitudes:
    only six ket pairs are shared between the two expansions."""
    c1, c2, c3, _, c5, _, c7, c8 = coeffs_c(p, p.T)
    s1, s2, s3, _, s5, _, s7, s8 = coeffs_s(p, p.T)
    pairs = ((c1, s1), (c2, s5), (c3, s8), (c5, s2), (c7, s7), (c8, s3))
    return sum((complex(a).conjugate() * b for a, b in pairs), 0j)


def balanced_control_probability(j: int, p: SystemParams) -> float:
    """P(j) = (1 +- Re overlap) / 2 for the balanced control preparation
    (theta = pi/4, varphi = 0); the two outcomes sum to exactly 1."""
    check_outcome(j)
    p0 = 0.5 * (1.0 + overlap_orders(p).real)
    return p0 if j == 0 else 1.0 - p0


def sigma_z_ico_reference(p: SystemParams) -> float:
    """The paper's inversion of the control-0 conditional state for an atom
    prepared excited (xi = 0) and the balanced control preparation, from the
    slot amplitudes of both orders."""
    assert p.xi == 0.0
    n0_sq = balanced_control_probability(0, p)
    if n0_sq < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError("control outcome 0", n0_sq)
    c1, _, c3, _, _, c6, _, c8 = coeffs_c(p, p.T)
    s1, _, s3, _, _, s6, _, s8 = coeffs_s(p, p.T)

    def sq(z: complex) -> float:
        z = complex(z)
        return z.real * z.real + z.imag * z.imag

    numerator = sq(c1 + s1) + sq(c6) + sq(s6) - sq(c3 + s8) - sq(c8 + s3)
    return numerator / (4.0 * n0_sq)


# ---------------------------------------------------------------- dict oracle chain


def reference_hadamard_control(s: PureState) -> PureState:
    """Dict reference for oracle.hadamard_control: each ket's half amplitude
    added to both control outcomes, ket by ket in the sorted order."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    amps: dict = {}
    for ket, amp in s.items():
        half = amp * inv_sqrt2
        k0, k1 = FullKet(0, ket.rest), FullKet(1, ket.rest)
        amps[k0] = amps.get(k0, 0j) + half
        amps[k1] = amps.get(k1, 0j) + (half if ket.control == 0 else -half)
    return PureState(amps)


def reference_measure_control(s: PureState, j: int):
    """Dict reference for oracle.measure_control: the control-j kets, the
    math.fsum probability, refusal below MIN_OUTCOME_PROBABILITY."""
    picked = {ket.rest: amp for ket, amp in s.items() if ket.control == j}
    prob = math.fsum(a.real * a.real + a.imag * a.imag for a in picked.values())
    if prob < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError(f"control outcome {j}", prob)
    scale = 1.0 / math.sqrt(prob)
    return PureState({k: a * scale for k, a in picked.items()}), prob


def reference_schrodinger_phase(s: PureState, omega: float, t: float) -> PureState:
    """Dict reference for oracle.schrodinger_phase: cmath.exp ket by ket."""
    return PureState(
        {
            ket: amp * cmath.exp(-1j * omega * t * (ket.excitations - 0.5))
            for ket, amp in s.items()
        }
    )


# ---------------------------------------------------------------- window evolution

#: oracle._rotate as the package defines it, whatever a test patches in its place.
_ROTATE = oracle._rotate


def full_window_branches(table, w):
    """The two control branches of the draws of a draw table, every draw
    evolved on all of the window w: a (2, atom_field_dim, N) array on its
    basis, weights included and pruned, with no guard row checked.  This is
    the evolution that oracle._evolve_branches' local windows replaced, kept
    as their reference; it rotates with oracle._rotate at base 0, as
    jc_propagator does."""
    n, m = table["n"], table["m"]
    angle, phi = np.array([(table["xi"], table["theta"]), (table["chi"], table["varphi"])])
    cos, polar = np.cos(angle), (np.cos(phi) + 1j * np.sin(phi)) * np.sin(angle)
    size = len(n)
    vec = np.zeros((w.atom_field_dim, 2 * size), dtype=complex)
    view, columns = vec.reshape(2, w.levels, w.levels, 2 * size), np.arange(size)
    view[:, n, m, columns] = view[:, m, n, columns + size] = cos[0], polar[0]
    schedule = [table[name] for name in ("t", "T0", "T1", "T", "g")]
    t, entry0, entry1, transit, g = np.concatenate((schedule, schedule), axis=1)
    vec = _ROTATE(vec, 0, np.minimum(np.maximum(t - entry0, 0.0), transit), g, 0, w)
    vec = _ROTATE(vec, 1, np.minimum(np.maximum(t - entry1, 0.0), transit), g, 0, w)
    exchanged = vec[:, size:].reshape(2, w.levels, w.levels, size).swapaxes(1, 2)
    branches = np.empty((2, w.atom_field_dim, size), dtype=complex)
    np.multiply(cos[1], vec[:, :size], out=branches[0])
    np.multiply(polar[1], exchanged, out=branches[1].reshape(exchanged.shape))
    return prune_amplitudes(branches)


def window_branches(table, w):
    """oracle._evolve_branches on a draw table, its compact branches put
    back on the window w at each entry's (atom, n, m): (2, atom_field_dim,
    N), exactly 0 off each column's entries.  An entry beyond w must be
    exactly 0 and is left out."""
    (atom, n, m), branches = oracle._evolve_branches(table)
    inside = (n <= w.n_max) & (m <= w.n_max)
    assert not branches[:, ~inside].any(), "an amplitude beyond the window"
    columns = np.broadcast_to(np.arange(n.shape[1]), n.shape)
    rows = (atom * w.levels + n) * w.levels + m
    full = np.zeros((2, w.atom_field_dim, n.shape[1]), dtype=complex)
    full[:, rows[inside], columns[inside]] = branches[:, inside]
    return full


def leaky_rotate(table, leaks):
    """A stand-in for oracle._rotate that moves weight where a rotation must
    not: the real rotation, then, after the last one (cavity 1), each leak
    (column, control, (atom, n, m), amplitude) added onto |atom, n, m> of
    that column's control branch, on the local window of the table's draw in
    that column (levels max(k - 2, 0) and up for each mode's photon number k)."""
    size = len(table["n"])
    base = np.maximum(np.array([table["n"], table["m"]]) - 2, 0)

    def leaky(x, cavity, t, g, b, w):
        out = _ROTATE(x, cavity, t, g, b, w)
        if cavity == 1:
            view = out.reshape(2, w.levels, w.levels, -1)
            for column, control, (atom, n, m), amplitude in leaks:
                i, j = n - base[0, column], m - base[1, column]
                assert 0 <= i < w.levels and 0 <= j < w.levels, "leak beyond the local window"
                # the control-1 half of the batch holds its modes exchanged
                if control:
                    view[int(atom), j, i, size + column] += amplitude
                else:
                    view[int(atom), i, j, column] += amplitude
        return out

    return leaky


# ---------------------------------------------------------------- verify's draw stream


def reference_draw(rng):
    """One (params, measurement time) draw of ico-cqed verify as eleven
    scalar Generator.uniform/integers calls for the parameters and one more
    for the time: the stream verify.random_params and run_verification must
    reproduce."""
    g = float(rng.uniform(0.5, 2.0))
    transit = float(rng.uniform(0.0, 10.0)) / g
    entry = float(rng.uniform(0.0, 2.0))
    p = SystemParams(
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
    return p, p.T1 + p.T + float(rng.uniform(0.0, 2.0))


# ---------------------------------------------------------------- partial trace


def dense_first_mode_rho(kets, amps):
    """The outer-product partial trace that observables._first_mode_rho's
    sparse one replaced, kept as its reference: every column of amps laid
    out on the (first-mode level, second-mode level) grid, the (d, d, d_m,
    N) outer product of that grid with its conjugate, summed over d_m.
    numpy adds along that axis in ascending m for two or more columns; a
    lone column with four or more second-mode levels it adds pairwise."""
    lo = min(k.n for k in kets)
    ms = sorted({k.m for k in kets})
    psi = np.zeros((max(k.n for k in kets) - lo + 1, len(ms), amps.shape[1]), dtype=complex)
    for k, column in zip(kets, amps):
        psi[k.n - lo, ms.index(k.m)] = column
    return np.sum(psi[:, None] * psi.conj()[None, :], axis=2)


# ---------------------------------------------------------------- row-wise tables


def reference_to_csv(columns, rows) -> str:
    """The row-wise Table.to_csv that the column renderer replaced: one
    generator over the cells of each row."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if v is None else repr(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_figure_table(preset, tables):
    """figure_table's row-wise merge of a preset's sweep tables, each with
    materialised .columns and .rows: the merged (columns, rows)."""
    if len(tables) == 1:
        return tables[0].columns, tables[0].rows
    columns = ["gT"]
    for cfg, table in zip(preset.sweeps, tables):
        columns.extend(f"{cfg.scenario}:{cid}" for cid in table.columns[1:])
    rows = []
    for i in range(len(tables[0].rows)):
        row = [tables[0].rows[i][0]]
        for table in tables:
            row.extend(table.rows[i][1:])
        rows.append(tuple(row))
    return tuple(columns), tuple(rows)


#: Seeded sweep configs pinned by tests/data/sweep_sha256.json.
SEEDED_SWEEPS = 40


def seeded_sweep_config(index: int) -> dict:
    """JSON config ``index`` of the pinned seeded sweeps: the four scenarios
    in turn, random preparation angles and omega_t, n and m in 0..8, every
    quantity kind in a random order (two ket_prob columns within a photon of
    (n, m), some unreachable), and a 101-point grid.  Every eighth config is
    an ico_j1 sweep from gT = 0 with the balanced control preparation, whose
    first row has empty cells."""
    rng = np.random.default_rng(index)
    scenario = SCENARIOS[index % len(SCENARIOS)]
    n, m = (int(v) for v in rng.integers(0, 9, size=2))
    quantities = [
        {"kind": "ket_prob", "atom": "eg"[a], "n": max(n + dn, 0), "m": max(m + dm, 0)}
        for a, dn, dm in rng.integers((0, -1, -1), (2, 3, 3), size=(2, 3)).tolist()
    ]
    quantities += [{"kind": "sigma_z"}, {"kind": "entropy", "atom_branch": "e"},
                   {"kind": "entropy", "atom_branch": "g"}]
    if scenario.startswith("ico"):
        quantities.append({"kind": "control_prob"})
    step = float(rng.choice([0.01, 0.05, 0.1, 0.2]))
    cfg = {
        "scenario": scenario,
        "quantities": [quantities[i] for i in rng.permutation(len(quantities))],
        "n": n,
        "m": m,
        "theta": float(rng.uniform(0.0, math.pi / 2)),
        "varphi": float(rng.uniform(0.0, 2 * math.pi)),
        "xi": float(rng.uniform(0.0, math.pi / 2)),
        "chi": float(rng.uniform(0.0, 2 * math.pi)),
        "omega_t": float(rng.uniform(-10.0, 10.0)),
        "gT_start": float(rng.uniform(0.0, 2.0)),
        "gT_step": step,
    }
    if index % 8 == 7:
        cfg.update(theta=math.pi / 4, varphi=0.0, gT_start=0.0)
    cfg["gT_stop"] = cfg["gT_start"] + 100 * step
    return cfg
