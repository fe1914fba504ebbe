"""tools/ab_inprocess.py: the ratio and bootstrap arithmetic on fixed
numbers, the side order of its rounds, a renamed package copy and the
memory peak it prints; no benchmark runs."""

import dataclasses
import importlib.util
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_inprocess.py"
_spec = importlib.util.spec_from_file_location("ab_inprocess", TOOL)
ab_inprocess = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inprocess)


def test_median_ratio_of_paired_times():
    # per-round ratios 0.5, 0.5, 1.0, 2.0 and 0.5: their median, not the
    # ratio of the medians (4.0 / 4.0)
    parent, change = [2.0, 4.0, 5.0, 1.0, 8.0], [1.0, 2.0, 5.0, 2.0, 4.0]
    median, low, high = ab_inprocess.ratio_interval(parent, change)
    assert median == 0.5
    # a bootstrap median is a median of five of the ratios
    assert 0.5 <= low <= median <= high <= 2.0


def test_equal_ratios_give_a_point_interval():
    assert ab_inprocess.ratio_interval([2.0] * 10, [1.6] * 10) == (0.8, 0.8, 0.8)


def test_bootstrap_interval_covers_a_rare_outlier_only_at_its_rate(monkeypatch):
    # ratios 1, 1, 1, 1, 5: a resampled median is 5 when three or more of
    # five draws are the 5, with probability 0.058: above 0.025, so the
    # 95 % interval reaches 5, and below 0.1, so the 80 % one stops at 1
    parent, change = [1.0] * 5, [1.0, 1.0, 1.0, 1.0, 5.0]
    assert ab_inprocess.ratio_interval(parent, change) == (1.0, 1.0, 5.0)
    monkeypatch.setattr(ab_inprocess, "LEVEL", 0.8)
    assert ab_inprocess.ratio_interval(parent, change) == (1.0, 1.0, 1.0)
    # seeded: the same interval on every call
    monkeypatch.setattr(ab_inprocess, "LEVEL", 0.9)
    again = ab_inprocess.ratio_interval(parent, change, seed=7)
    assert again == ab_inprocess.ratio_interval(parent, change, seed=7)


@pytest.mark.parametrize("parent,change", [([1.0, 2.0], [1.0]), ([1.0], [1.0])])
def test_interval_needs_two_or_more_whole_rounds(parent, change):
    with pytest.raises(ValueError, match="^need two or more rounds"):
        ab_inprocess.ratio_interval(parent, change)


def test_rounds_alternate_sides_in_a_seeded_order_and_count_differing_results(monkeypatch):
    monkeypatch.setattr(ab_inprocess, "WARMUP", 1)
    calls = []

    def op(side, r):
        calls.append((side, r))
        return r if side == "a" or r != 2 else "other"

    times, differ = ab_inprocess.time_rounds(["a", "b"], op, rounds=6, seed=3)
    assert [len(side) for side in times] == [6, 6]
    assert differ == 1  # round 2 only
    # every round runs both sides once, warm-up round first (as round 0)
    assert sorted(calls) == sorted([(s, r) for r in (0, 0, 1, 2, 3, 4, 5) for s in "ab"])
    first = [calls[i][0] for i in range(0, len(calls), 2)]
    assert set(first) == {"a", "b"}  # neither side always runs first
    calls.clear()
    ab_inprocess.time_rounds(["a", "b"], op, rounds=6, seed=3)
    assert [calls[i][0] for i in range(0, len(calls), 2)] == first


def test_a_renamed_copy_of_the_package_imports_as_its_own_package(tmp_path, monkeypatch):
    tree = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(tmp_path))
    copy = ab_inprocess.load_copy(tree, "ico_cqed_copy_under_test", tmp_path)
    assert Path(copy.__file__).parent == tmp_path / "ico_cqed_copy_under_test"
    assert copy.verify.__name__ == "ico_cqed_copy_under_test.verify"


def test_a_second_copy_under_one_name_imports_its_own_tree(tmp_path, monkeypatch):
    # two trees that differ in one constant of a submodule, copied under one
    # name into two directories: each call returns its own tree's constant,
    # in the package and in the submodule it imports
    for value in (1, 2):
        package = tmp_path / f"tree{value}" / "src" / "ico_cqed"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("from .constants import VALUE\n")
        (package / "constants.py").write_text(f"VALUE = {value}\n")
        directory = tmp_path / f"copy{value}"
        directory.mkdir()
        monkeypatch.syspath_prepend(str(directory))
        copy = ab_inprocess.load_copy(package.parents[1], "ico_cqed_stale_under_test", directory)
        assert copy.VALUE == copy.constants.VALUE == value
        assert Path(copy.__file__).parent == directory / "ico_cqed_stale_under_test"


def test_traced_peak_measures_one_call_and_stops_tracing():
    assert 1_000_000 <= ab_inprocess.traced_peak(lambda: bytearray(1_000_000)) < 1_100_000
    assert not tracemalloc.is_tracing()

    def failing():
        raise RuntimeError("op failed")

    with pytest.raises(RuntimeError, match="^op failed$"):
        ab_inprocess.traced_peak(failing)
    assert not tracemalloc.is_tracing()


def test_main_prints_each_sides_memory_peak(monkeypatch, capsys):
    # stand-in packages whose run_verification allocates 1 MB and 2 MB: the
    # last line gives each side's peak for run_verification(0, DRAWS)
    calls = []

    def package(size):
        def run_verification(seed, draws):
            calls.append((size, seed, draws))
            return bytearray(size)
        return SimpleNamespace(run_verification=run_verification)

    sides = {"ico_cqed_parent": package(1_000_000), "ico_cqed_change": package(2_000_000)}
    monkeypatch.setattr(ab_inprocess, "load_copy", lambda tree, name, directory: sides[name])
    monkeypatch.setattr(ab_inprocess, "WARMUP", 0)
    assert ab_inprocess.main(["parent", "change", "--rounds", "2"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    head = f"tracemalloc peak of run_verification(0, {ab_inprocess.DRAWS}): parent 1.0"
    assert last.startswith(head) and ", change 2.0" in last and last.endswith(" MB")
    assert calls[-2:] == [(1_000_000, 0, ab_inprocess.DRAWS), (2_000_000, 0, ab_inprocess.DRAWS)]


def test_main_leaves_sys_path_as_it_found_it(monkeypatch):
    # main puts its copies' directory first on sys.path and takes it off
    # when it returns, also when an op raises
    def package(fails):
        def run_verification(seed, draws):
            if fails:
                raise RuntimeError("op failed")
        return SimpleNamespace(run_verification=run_verification)

    monkeypatch.setattr(ab_inprocess, "WARMUP", 0)
    before = list(sys.path)
    for fails in (False, True):
        sides = {name: package(fails) for name in ab_inprocess.SIDES}
        monkeypatch.setattr(ab_inprocess, "load_copy", lambda tree, name, directory: sides[name])
        if fails:
            with pytest.raises(RuntimeError, match="^op failed$"):
                ab_inprocess.main(["parent", "change", "--rounds", "2"])
        else:
            assert ab_inprocess.main(["parent", "change", "--rounds", "2"]) == 0
        assert sys.path == before


def test_sweep_general_op_times_each_rounds_workload_config_to_its_csv(monkeypatch, capsys):
    # stand-in packages and workloads: round r runs config_from_dict ->
    # run_sweep -> to_csv on sweep_config(SEED, r), the change side's CSV
    # differs in round 1 only, and the peak is of round 0's op
    calls = []

    def package(side):
        def config_from_dict(cfg):
            return cfg

        def run_sweep(cfg):
            calls.append((side, cfg))
            text = f"csv {cfg}" if side == "parent" or cfg != (5, 1) else "other"
            return SimpleNamespace(to_csv=lambda: text)
        return SimpleNamespace(config_from_dict=config_from_dict, run_sweep=run_sweep)

    sides = {"ico_cqed_parent": package("parent"), "ico_cqed_change": package("change")}
    monkeypatch.setattr(ab_inprocess, "load_copy", lambda tree, name, directory: sides[name])
    workloads = SimpleNamespace(sweep_config=lambda seed, index: (seed, index))
    monkeypatch.setattr(ab_inprocess, "load_workloads", lambda tree: workloads)
    monkeypatch.setattr(ab_inprocess, "WARMUP", 0)
    argv = ["parent", "change", "--op", "sweep_general", "--rounds", "3", "--seed", "5"]
    assert ab_inprocess.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    call = "run_sweep(config_from_dict(sweep_config(5, {}))).to_csv()"
    assert out[0] == call.format("r") + ", 3 rounds, side order seed 5"
    assert out[3] == "rounds whose CSV texts differ: 1"
    assert out[4].startswith(f"tracemalloc peak of {call.format(0)}: parent ")
    assert sorted(calls[:6]) == sorted((side, (5, r)) for r in range(3)
                                       for side in ("parent", "change"))
    assert calls[6:] == [("parent", (5, 0)), ("change", (5, 0))]


def test_the_workloads_module_loads_from_the_tree_and_leaves_sys_path(tmp_path):
    # a tree whose bench/workloads.py imports its own src package
    (tmp_path / "src" / "pkg_under_test").mkdir(parents=True)
    (tmp_path / "src" / "pkg_under_test" / "__init__.py").write_text("SEEDS = 3\n")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "workloads.py").write_text(
        "from pkg_under_test import SEEDS\n"
        "def sweep_config(seed, index):\n"
        "    return {'seed': seed * SEEDS, 'index': index}\n")
    before = list(sys.path)
    workloads = ab_inprocess.load_workloads(tmp_path)
    assert workloads.sweep_config(2, 4) == {"seed": 6, "index": 4}
    assert sys.path == before
    sys.modules.pop("pkg_under_test", None)


def test_outcome_bits_name_kets_amplitudes_and_probabilities_without_classes():
    ket = SimpleNamespace(atom=True, n=2, m=3)  # an atom level is read as an int
    state = SimpleNamespace(items=lambda: [(ket, complex(0.5, -0.0))])
    bits = ab_inprocess.outcome_bits([None, (state, 0.25)])
    amplitude = (1, 2, 3, "0x1.0000000000000p-1", "-0x0.0p+0")
    assert bits == repr([None, ([amplitude], "0x1.0000000000000p-2")])
    # one bit of one amplitude, or of a probability, tells two outcomes apart
    other = SimpleNamespace(items=lambda: [(ket, complex(0.5, 0.0))])
    assert ab_inprocess.outcome_bits([None, (other, 0.25)]) != bits
    assert ab_inprocess.outcome_bits([None, (state, 0.25 + 2**-54)]) != bits


def test_oracle_wide_op_runs_each_sides_own_params_through_the_views(monkeypatch, capsys):
    # stand-in packages and workloads: round r runs evolve -> hadamard_control
    # -> measure_control -> schrodinger_phase on wide_params(SEED, r, larger)
    # for each larger occupation, each side on its own SystemParams class;
    # outcome 1 of larger 4 is refused, and the change side's amplitudes
    # differ in round 1 only
    @dataclasses.dataclass(frozen=True)
    class Params:
        omega: float
        n: int

    def package(side):
        class SystemParams(Params):
            pass

        class Refused(Exception):
            pass

        calls = []

        def evolve(p, t, w):
            assert type(p) is SystemParams and w == ("window", p.n)
            calls.append((p.n, t))
            return p, t

        def measure_control(mixed, j):
            p, t = mixed
            if j == 1 and p.n == 4:
                raise Refused
            return (p, t, j), 0.5

        def schrodinger_phase(measured, omega, t):
            p, _, j = measured
            amp = complex(omega * t, j) + (1e-9 if side == "change" and t == 2.0 else 0.0)
            return SimpleNamespace(items=lambda: [(SimpleNamespace(atom=j, n=p.n, m=0), amp)])

        oracle = SimpleNamespace(
            evolve=evolve, hadamard_control=lambda s: s, measure_control=measure_control,
            schrodinger_phase=schrodinger_phase,
            TruncationWindow=SimpleNamespace(for_params=lambda p: ("window", p.n)))
        return SimpleNamespace(oracle=oracle, SystemParams=SystemParams,
                               ImpossiblePostselectionError=Refused, calls=calls)

    sides = {"ico_cqed_parent": package("parent"), "ico_cqed_change": package("change")}
    monkeypatch.setattr(ab_inprocess, "load_copy", lambda tree, name, directory: sides[name])
    workloads = SimpleNamespace(
        WIDE_OCCUPATIONS=(4, 10),
        wide_params=lambda seed, r, larger: (Params(omega=float(seed), n=larger), r + 1.0))
    monkeypatch.setattr(ab_inprocess, "load_workloads", lambda tree: workloads)
    monkeypatch.setattr(ab_inprocess, "WARMUP", 0)
    argv = ["parent", "change", "--op", "oracle_wide", "--rounds", "3", "--seed", "5"]
    assert ab_inprocess.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    call = "the oracle_wide op on wide_params(5, {}, larger)"
    assert out[0] == call.format("r") + ", 3 rounds, side order seed 5"
    assert out[3] == "rounds whose outcomes differ: 1"
    assert out[4].startswith(f"tracemalloc peak of {call.format(0)}: parent ")
    for side in sides.values():
        assert sorted(side.calls[:6]) == [(n, r + 1.0) for n in (4, 10) for r in range(3)]
        assert side.calls[6:] == [(4, 1.0), (10, 1.0)]
