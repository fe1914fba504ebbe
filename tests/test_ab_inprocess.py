"""tools/ab_inprocess.py: the ratio and bootstrap arithmetic on fixed
numbers, the side order of its rounds, a renamed package copy, the bench
workloads bound to it, what a round compares and the memory peak it prints,
on stand-in trees; and one A/A round of each workload of this tree."""

import dataclasses
import importlib.util
import json
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import ico_cqed

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "ab_inprocess.py"
_spec = importlib.util.spec_from_file_location("ab_inprocess", TOOL)
ab_inprocess = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inprocess)

#: The bench's workloads, in the order of bench/workloads.py's WORKLOADS.
WORKLOAD_NAMES = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]

# A stand-in bench/workloads.py: each pass is one input, k, whose output holds
# cli.AMPLITUDE in pass 1 (else 0.5) and the size of a cli.SIZE-byte buffer;
# the check counts its calls and returns cli.VERDICT.
STAND_IN_WORKLOADS = '''
from ico_cqed import cli

class Amplitude:
    name = "amplitude"
    def __init__(self, seed, scratch):
        assert scratch.is_dir()
    def pass_inputs(self, k):
        return [k]
    def run(self, k):
        if cli.RAISES:
            raise RuntimeError("op failed")
        return {"amp": complex(cli.AMPLITUDE if k == 1 else 0.5), "size": len(bytearray(cli.SIZE))}
    def check(self, k, out, counters):
        counters["checks"] = counters.get("checks", 0) + 1
        return cli.VERDICT

class Other(Amplitude):
    name = "other"

WORKLOADS = {w.name: w for w in (Amplitude, Other)}
'''


def stand_in_tree(path: Path, **values) -> Path:
    """A source tree whose ico_cqed is an empty __init__ and a cli of
    constants (values over the defaults), with the stand-in workloads."""
    package = path / "src" / "ico_cqed"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    values = {"AMPLITUDE": 0.5, "SIZE": 0, "VERDICT": None, "RAISES": False, **values}
    (package / "cli.py").write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
    (path / "bench").mkdir()
    (path / "bench" / "workloads.py").write_text(STAND_IN_WORKLOADS)
    return path


def run_main(monkeypatch, capsys, parent: Path, change: Path, *args: str) -> list[str]:
    """main's printed lines for the two trees, with no warm-up rounds."""
    monkeypatch.setattr(ab_inprocess, "WARMUP", 0)
    assert ab_inprocess.main([str(parent), str(change), *args]) == 0
    return capsys.readouterr().out.splitlines()


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

    @dataclasses.dataclass
    class Stub:
        side: str

        def pass_inputs(self, r):
            return [r]

        def run(self, r):
            calls.append((self.side, r))
            return r if self.side == "a" or r != 2 else "other"

        def check(self, r, out, counters):
            return None if self.side == "a" or r != 4 else "failed"

    sides = [Stub("a"), Stub("b")]
    times, failed, differ = ab_inprocess.time_rounds(sides, rounds=6, seed=3)
    assert [len(side) for side in times] == [6, 6]
    assert failed == [0, 1] and differ == 2  # an output in round 2, a check in round 4
    # every round runs both sides once, warm-up round first (as round 0)
    assert sorted(calls) == sorted([(s, r) for r in (0, 0, 1, 2, 3, 4, 5) for s in "ab"])
    first = [calls[i][0] for i in range(0, len(calls), 2)]
    assert set(first) == {"a", "b"}  # neither side always runs first
    calls.clear()
    ab_inprocess.time_rounds(sides, rounds=6, seed=3)
    assert [calls[i][0] for i in range(0, len(calls), 2)] == first


def test_output_bits_name_floats_items_and_fields_without_classes():
    @dataclasses.dataclass
    class Ket:
        n: int
        amp: complex

    bits = ab_inprocess.output_bits([0.25, {"k": Ket(2, complex(0.5, -0.0))}, None])
    assert bits == ("0x1.0000000000000p-2",
                    (("'k'", ("2", ("0x1.0000000000000p-1", "-0x0.0p+0"))),), "None")
    # one bit of one amplitude tells two outputs apart
    other = ab_inprocess.output_bits([0.25, {"k": Ket(2, complex(0.5 + 2**-53, -0.0))}, None])
    assert other != bits


def test_a_renamed_copy_of_the_package_imports_as_its_own_package(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(tmp_path))
    copy = ab_inprocess.load_copy(REPO, "ico_cqed_copy_under_test", tmp_path)
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


def test_the_workloads_module_loads_from_the_tree_and_leaves_sys_path(tmp_path, monkeypatch):
    # the tree's workloads see ico_cqed as the copy, its cli included, and
    # sys.modules keeps the real ico_cqed and nothing of the binding, also
    # when the file raises
    tree = stand_in_tree(tmp_path / "tree", AMPLITUDE=0.75)
    monkeypatch.syspath_prepend(str(tmp_path))
    copy = ab_inprocess.load_copy(tree, "ico_cqed_bound_under_test", tmp_path)
    before, path = ab_inprocess._entries("ico_cqed"), list(sys.path)
    workloads = ab_inprocess.load_workloads(tree, copy)
    assert workloads.cli is copy.cli and workloads.cli.AMPLITUDE == 0.75
    assert workloads.WORKLOADS["amplitude"](1, tmp_path).run(1)["amp"] == 0.75
    (tree / "bench" / "workloads.py").write_text("import ico_cqed.cli\nraise RuntimeError('bad')\n")
    with pytest.raises(RuntimeError, match="^bad$"):
        ab_inprocess.load_workloads(tree, copy)
    assert ab_inprocess._entries("ico_cqed") == before and sys.path == path
    assert before["ico_cqed"] is ico_cqed


def test_main_prints_each_sides_memory_peak(tmp_path, monkeypatch, capsys):
    # stand-in trees whose op allocates 1 MB and 2 MB: the last line gives
    # each side's peak for one run call on pass 0's input
    parent = stand_in_tree(tmp_path / "parent", SIZE=1_000_000)
    change = stand_in_tree(tmp_path / "change", SIZE=2_000_000)
    out = run_main(monkeypatch, capsys, parent, change, "--op", "amplitude", "--rounds", "2")
    assert out[0] == "the amplitude workload, pass r per round, 2 rounds, side order seed 1"
    head = "tracemalloc peak of one run call on pass 0's first input: parent 1.0"
    assert out[-1].startswith(head) and ", change 2.0" in out[-1] and out[-1].endswith(" MB")


def test_a_flipped_amplitude_bit_counts_as_a_differing_round(tmp_path, monkeypatch, capsys):
    parent = stand_in_tree(tmp_path / "parent")
    change = stand_in_tree(tmp_path / "change", AMPLITUDE=0.5 + 2**-53)
    out = run_main(monkeypatch, capsys, parent, change, "--op", "amplitude", "--rounds", "3")
    assert out[-3:-1] == ["rounds whose checks, counters or outputs differ: 1",
                          "failed checks: parent 0, change 0"]


def test_a_failing_check_is_counted_on_its_side(tmp_path, monkeypatch, capsys):
    parent = stand_in_tree(tmp_path / "parent")
    change = stand_in_tree(tmp_path / "change", VERDICT="amplitude off")
    out = run_main(monkeypatch, capsys, parent, change, "--op", "other", "--rounds", "3")
    assert out[-3:-1] == ["rounds whose checks, counters or outputs differ: 3",
                          "failed checks: parent 0, change 3"]


def test_main_leaves_sys_path_as_it_found_it(tmp_path, monkeypatch):
    # main puts its copies' directory first on sys.path and the copies in
    # sys.modules, and takes both off when it returns, also when an op raises
    monkeypatch.setattr(ab_inprocess, "WARMUP", 0)
    before, path = dict(sys.modules), list(sys.path)
    for raises in (False, True):
        trees = [stand_in_tree(tmp_path / f"{side}{raises}", RAISES=raises)
                 for side in ("parent", "change")]
        argv = [*map(str, trees), "--op", "amplitude", "--rounds", "2"]
        if raises:
            with pytest.raises(RuntimeError, match="^op failed$"):
                ab_inprocess.main(argv)
        else:
            assert ab_inprocess.main(argv) == 0
        assert sys.modules == before and sys.path == path


@pytest.mark.parametrize("tree,names", [(None, ["amplitude", "other"]), (REPO, WORKLOAD_NAMES)])
def test_op_choices_are_the_change_trees_workloads(tree, names, tmp_path, capsys):
    tree = tree or stand_in_tree(tmp_path / "tree")
    with pytest.raises(SystemExit) as exit_:
        ab_inprocess.main([str(tree), str(tree), "--op", "nope"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    listed = re.fullmatch(r".*: argument --op: invalid choice: 'nope' \(choose from (.*)\)", err)
    assert listed[1].split(", ") == names


@pytest.mark.parametrize("op", WORKLOAD_NAMES)
def test_an_aa_round_of_each_workload_differs_nowhere(op, monkeypatch, capsys):
    start = time.perf_counter()
    out = run_main(monkeypatch, capsys, REPO, REPO, "--op", op, "--rounds", "1")
    assert time.perf_counter() - start <= 1.0
    assert out[-3:-1] == ["rounds whose checks, counters or outputs differ: 0",
                          "failed checks: parent 0, change 0"]


def test_traced_peak_measures_one_call_and_stops_tracing():
    assert 1_000_000 <= ab_inprocess.traced_peak(lambda: bytearray(1_000_000)) < 1_100_000
    assert not tracemalloc.is_tracing()

    def failing():
        raise RuntimeError("op failed")

    with pytest.raises(RuntimeError, match="^op failed$"):
        ab_inprocess.traced_peak(failing)
    assert not tracemalloc.is_tracing()
