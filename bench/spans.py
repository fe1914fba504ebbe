"""Span tracer that times ``ico_cqed`` from outside the package.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each traced
public function (or class) with a timing wrapper in every ``ico_cqed``
module whose namespace binds it, under the name that module imported it by;
``Tracer.uninstall`` puts the originals back.  A function is also replaced
in its defining module, so calls inside that module are caught
(``figure_table`` -> ``run_sweep``).  A class is replaced only where it is
imported: its own module uses the name for ``isinstance`` checks.

Each span records its name, start, end, parent span and op id in flat
arrays kept in memory.  A layer's self time is its span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

# (defining module, attribute, span name).  coeffs_c and coeffs_s share one
# name: both evaluate one order's eight coefficients.
TARGETS = (
    ("states", "SystemParams", "states.SystemParams"),
    ("states", "PureState", "states.PureState"),
    ("engine", "coeffs_c", "engine.coeffs"),
    ("engine", "coeffs_s", "engine.coeffs"),
    ("engine", "state_after_both", "engine.state_after_both"),
    ("engine", "general_postselect", "engine.general_postselect"),
    ("observables", "condition_on_atom", "observables.condition_on_atom"),
    ("observables", "reduced_cavity0", "observables.reduced_cavity0"),
    ("observables", "linear_entropy", "observables.linear_entropy"),
    ("observables", "ket_probability", "observables.ket_probability"),
    ("observables", "sigma_z_expectation", "observables.sigma_z_expectation"),
    ("oracle", "evolve", "oracle.evolve"),
    ("oracle", "hadamard_control", "oracle.hadamard_control"),
    ("oracle", "measure_control", "oracle.measure_control"),
    ("oracle", "schrodinger_phase", "oracle.schrodinger_phase"),
    ("sweep", "config_from_dict", "sweep.config_from_dict"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("sweep", "figure_table", "sweep.figure_table"),
    ("verify", "random_params", "verify.random_params"),
    ("verify", "run_verification", "verify.run_verification"),
    ("cli", "main", "cli.main"),
)
MODULES = ("states", "engine", "observables", "oracle", "sweep", "verify", "cli")

#: Name of the root span the benchmark opens around each op.
OP = "op"


class Tracer:
    """Records nested spans while an op is open; inert otherwise."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.results: dict[int, tuple] = {}
        self.propagators: dict[int, int] = {}
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self) -> None:
        for buf in (self.name_of, self.parent, self.op_of, self.start, self.end, self.raised):
            del buf[:]
        self.results.clear()
        self.propagators.clear()

    def _wrap(self, name: str, fn, keep_result: bool):
        nid = self.name_id(name)
        names, parents, ops = self.name_of, self.parent, self.op_of
        starts, ends, raised, stack = self.start, self.end, self.raised, self._stack
        results = self.results
        tracer = self

        def traced(*args, **kwargs):
            op = tracer._op
            if op < 0:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op)
            raised.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter()
                stack.pop()
                raised[idx] = 1
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if keep_result:
                results[idx] = (args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_propagators(self, fn):
        """jc_propagator is counted, not spanned, so that building the
        propagators stays inside evolve's self time."""
        counts, stack = self.propagators, self._stack

        def counted(*args, **kwargs):
            top = stack[-1]
            counts[top] = counts.get(top, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"ico_cqed.{m}") for m in MODULES}
        keep = {"sweep.run_sweep", "verify.run_verification", "oracle.evolve"}
        for home, attr, name in TARGETS:
            original = getattr(mods[home], attr)
            wrapper = self._wrap(name, original, name in keep)
            for mod_name, mod in mods.items():
                if getattr(mod, attr, None) is not original:
                    continue
                if isinstance(original, type) and mod_name == home:
                    continue
                self._patch(mod, attr, wrapper)
        table, oracle = mods["sweep"].Table, mods["oracle"]
        self._patch(table, "to_csv", self._wrap("sweep.to_csv", table.to_csv, False))
        self._patch(oracle, "jc_propagator", self._count_propagators(oracle.jc_propagator))
        self.name_id(OP)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run_op(self, op_id: int, fn, *args):
        """Run fn(*args) as op ``op_id`` under a root span; returns
        (result, duration).  Exceptions propagate after the span closes."""
        idx = len(self.name_of)
        self.name_of.append(self._ids[OP])
        self.parent.append(-1)
        self.op_of.append(op_id)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._op = op_id
        self.start.append(perf_counter())
        try:
            result = fn(*args)
        except BaseException:
            self.raised[idx] = 1
            raise
        finally:
            self.end[idx] = perf_counter()
            self._op = -1
            self._stack.pop()
        return result, self.end[idx] - self.start[idx]

    def self_times(self) -> tuple[list[float], float, int]:
        """Self time of every span, the largest |sum of self times - root
        duration| over ops, and the number of spans that escape their
        parent's interval (0 for a sound trace)."""
        n = len(self.name_of)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        escapes = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
                if self.start[i] < self.start[p] or self.end[i] > self.end[p]:
                    escapes += 1
        own = [dur[i] - covered[i] for i in range(n)]
        per_op: dict[int, float] = {}
        root: dict[int, float] = {}
        for i in range(n):
            per_op[self.op_of[i]] = per_op.get(self.op_of[i], 0.0) + own[i]
            if self.parent[i] < 0:
                root[self.op_of[i]] = dur[i]
        residual = max((abs(per_op[o] - root[o]) for o in root), default=0.0)
        return own, residual, escapes

    def write(self, path, own: list[float]) -> None:
        """Write the recorded spans as CSV, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op,raised,self_s\n")
            for i in range(len(self.name_of)):
                fh.write(
                    f"{i},{self.names[self.name_of[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op_of[i]},"
                    f"{self.raised[i]},{own[i]:.9f}\n"
                )

