"""Shared helpers for the test suite, among them the ket and state
arithmetic only the tests use (excitation number, window index, squared
norm), the scalar references the closed-form kernel
(engine.grid_amplitudes) is checked against, the balanced-control
formulas built on the slot amplitudes (the order overlap, P(j) and the
conditional inversion) and the ket-by-ket dict reference for the
oracle's recombine -> condition -> phase chain, the N-draw table builder
(draw_table), the full-window evolution the oracle's local windows are
checked against, the README's recipe of verify's draws, the wide draws
of the bench's oracle_wide workload, the oracle cells that preset and
boundary sweeps are checked against, and the seeded sweep configs whose
CLI output tests/data/sweep_sha256.json pins."""

import cmath
import math
import re
from itertools import chain
from pathlib import Path

import numpy as np

from ico_cqed import (
    MIN_OUTCOME_PROBABILITY,
    PRUNE_EPSILON,
    AtomFieldKet,
    AtomicInversion,
    AtomLevel,
    CavityOrder,
    ControlProbabilityColumn,
    FullKet,
    ImpossiblePostselectionError,
    KetProbability,
    PureState,
    SystemParams,
    TruncationWindow,
    coeffs_c,
    coeffs_s,
)
from ico_cqed import oracle
from ico_cqed.oracle import _COLUMNS, _params_values, condition, recombine
from ico_cqed.sweep import SCENARIOS
from ico_cqed.states import check_outcome, prune_amplitudes

E = AtomLevel.EXCITED
G = AtomLevel.GROUND
README = Path(__file__).resolve().parents[1] / "README.md"


def params(gt, **overrides):
    """SystemParams with g = 1 so that T equals the dimensionless g*T."""
    return SystemParams(g=1.0, T=gt, **overrides)


def balanced(gt, **overrides):
    """Maximally indefinite control preparation."""
    return params(gt, theta=math.pi / 4, **overrides)


def largest_finite_time(n, m):
    """The largest T at which sqrt(max(n, m, 2) + 2) * T, the largest angle
    at g = 1, the top doublet of evolve's local window, is finite."""
    factor = math.sqrt(max(n, m, 2) + 2)
    t = math.nextafter(math.inf, 0.0) / factor
    while math.isfinite(factor * math.nextafter(t, math.inf)):
        t = math.nextafter(t, math.inf)
    while not math.isfinite(factor * t):
        t = math.nextafter(t, 0.0)
    return t


def window_groups(draws):
    """(params, t) draws grouped by their tight window, TruncationWindow.for_params;
    one batch may mix several (n, m)."""
    groups = {}
    for p, t in draws:
        groups.setdefault(TruncationWindow.for_params(p), []).append((p, t))
    return groups.items()


def draw_table(draws):
    """N (params, time) draws from any iterable as a draw table: one C-contiguous
    array of N values per SystemParams field, ints for n and m and floats
    otherwise, and "t", the times, taken as they are: evolve checks its own."""
    values = np.fromiter(chain.from_iterable((*_params_values(p), t) for p, t in draws), float)
    table = dict(zip(_COLUMNS, values.reshape(-1, len(_COLUMNS)).T.copy()))
    table["n"], table["m"] = table["n"].astype(int), table["m"].astype(int)
    return table


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


def excitations(ket: AtomFieldKet) -> int:
    """Atom excitation plus total photon number; conserved by the dynamics."""
    return 1 - ket.atom + ket.n + ket.m


def window_index(w: TruncationWindow, atom, n, m):
    """Position of |atom, n, m> on the basis of the window w; arrays give arrays."""
    return (atom * w.levels + n) * w.levels + m


def squared_norm(state: PureState) -> float:
    """math.fsum of the squared magnitudes: PureState.norm before its sqrt."""
    return math.fsum(a.real * a.real + a.imag * a.imag for _, a in state.items())


def is_normalized(state: PureState, atol: float = 1e-12) -> bool:
    return abs(squared_norm(state) - 1.0) <= atol


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
                row, col = window_index(w, G, k + 1, spectator), window_index(w, E, k, spectator)
            else:
                row, col = window_index(w, G, spectator, k + 1), window_index(w, E, spectator, k)
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
        count = excitations(getattr(ket, "rest", ket))
        dist[count] = dist.get(count, 0.0) + w
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
        phase = cmath.exp(-1j * omega_t * (1 - atom + n + m - 0.5))
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


def sigma_z_series_reference(p: SystemParams) -> float:
    """The paper's inversion after both cavities in the definite order
    (first cavity 0, then cavity 1) for an atom prepared excited (xi = 0)."""
    if p.xi != 0.0:
        raise ValueError("sigma_z_series_reference requires xi = 0 (atom initially excited)")
    x = p.gT
    cos_sq_first = math.cos(x * math.sqrt(1 + p.n)) ** 2
    return (
        math.cos(2 * x * math.sqrt(1 + p.m)) * cos_sq_first
        - math.cos(2 * x * math.sqrt(p.m)) * (1.0 - cos_sq_first)
    )


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
            ket: amp * cmath.exp(-1j * omega * t * (excitations(ket) - 0.5))
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
    rates = np.sqrt(np.arange(1.0, w.levels))[:, None, None] * g
    for cavity, entry in enumerate((entry0, entry1)):
        angles = rates * np.minimum(np.maximum(t - entry, 0.0), transit)
        vec = _ROTATE(vec, cavity, np.cos(angles).astype(complex), -1j * np.sin(angles), w)
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
    rows = window_index(w, atom, n, m)
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

    def leaky(x, cavity, diag, off, w):
        out = _ROTATE(x, cavity, diag, off, w)
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


# ---------------------------------------------------------------- sweep cells from the oracle


def oracle_outcomes(cfg, grid):
    """The window, the conditional amplitudes as (atom, n, m, point) on it,
    zero where the scenario's control outcome is refused, and the outcome
    probability per point."""
    j = 0 if cfg.scenario in ("series_C0C1", "ico_j0") else 1
    series = cfg.scenario.startswith("series")
    # a definite order is the control-j branch alone
    theta, varphi = (j * math.pi / 2, 0.0) if series else (cfg.theta, cfg.varphi)
    grid = np.array(grid)
    table = grid_table(2 * grid, g=1.0, T=grid, theta=theta, varphi=varphi, xi=cfg.xi,
                       chi=cfg.chi, n=cfg.n, m=cfg.m)
    w = TruncationWindow(max(cfg.n, cfg.m) + 2)
    branches = window_branches(table, w)
    amps, probs = condition(branches if series else recombine(branches), j)
    return w, amps.reshape(2, w.levels, w.levels, len(grid)), np.array(probs)


def oracle_column(q, w, amps, probs):
    """One column of cells; NaN marks an empty cell."""
    if isinstance(q, ControlProbabilityColumn):
        return probs
    population = amps.real**2 + amps.imag**2
    empty = probs < MIN_OUTCOME_PROBABILITY
    if isinstance(q, KetProbability):
        inside = q.n <= w.n_max and q.m <= w.n_max
        cells = population[q.atom, q.n, q.m] if inside else np.zeros(len(probs))
    elif isinstance(q, AtomicInversion):
        cells = population[0].sum(axis=(0, 1)) - population[1].sum(axis=(0, 1))
    else:
        weight = population[q.atom_branch].sum(axis=(0, 1))
        empty |= weight < MIN_OUTCOME_PROBABILITY
        psi = amps[q.atom_branch] / np.sqrt(np.where(empty, 1.0, weight))
        rho = np.einsum("nmp,kmp->nkp", psi, psi.conj())
        cells = 1.0 - (np.abs(rho) ** 2).sum(axis=(0, 1))
    return np.where(empty, np.nan, cells)


# ---------------------------------------------------------------- verify's draw stream


def readme_verify_draw():
    """The README's draw recipe, verify_draw(seed, i): the (params,
    measurement time) of draw i of run_verification(seed, draws), rebuilt
    in Python floats."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    (recipe,) = [block for block in blocks if "def verify_draw(" in block]
    namespace = {}
    exec(compile(recipe, "README.md", "exec"), namespace)
    return namespace["verify_draw"]


# ---------------------------------------------------------------- the oracle_wide draws

#: The larger photon numbers the wide draws cycle through (windows 98, 338, 1,058).
WIDE_OCCUPATIONS = (4, 10, 20)


def wide_params(seed: int, k: int, larger: int):
    """bench/workloads.wide_params: a draw like verify.random_params (gT < 10)
    whose larger photon number is ``larger``; the parameters and the
    measurement time."""
    rng = np.random.default_rng([seed, k, larger])
    g = float(rng.uniform(0.5, 2.0))
    transit = float(rng.uniform(0.0, 10.0)) / g
    entry = float(rng.uniform(0.0, 2.0))
    other = int(rng.integers(0, larger + 1))
    n, m = (larger, other) if rng.random() < 0.5 else (other, larger)
    p = SystemParams(
        g=g,
        T=transit,
        omega=float(rng.uniform(0.2, 3.0)),
        theta=float(rng.uniform(0.0, math.pi / 2)),
        varphi=float(rng.uniform(0.0, 2 * math.pi)),
        xi=float(rng.uniform(0.0, math.pi / 2)),
        chi=float(rng.uniform(0.0, 2 * math.pi)),
        n=n,
        m=m,
        T0=entry,
        T1=entry + transit + float(rng.uniform(0.0, 2.0)),
    )
    return p, p.T1 + p.T + float(rng.uniform(0.0, 2.0))


def wide_draws(count: int, seed: int = 1) -> list:
    """The first count draws of the oracle_wide workload at seed: pass k holds
    one draw per larger occupation, in WIDE_OCCUPATIONS order."""
    k, larger = divmod(np.arange(count), len(WIDE_OCCUPATIONS))
    return [wide_params(seed, int(i), WIDE_OCCUPATIONS[j]) for i, j in zip(k, larger)]


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
