"""tools/bench_pairs.py: the summary arithmetic of paired runs and what a
tree copy leaves out, on fixed numbers and a small tree; no benchmark runs."""

import importlib.util
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
CHANGE = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 10.0]  # the last pair ties


def test_summary_of_a_higher_is_better_metric():
    s = bench_pairs.summarize(PARENT, CHANGE, "higher")
    assert (s["parent_median"], s["change_median"]) == (5.5, 6.5)
    # the quartiles of 1..10 lie at positions 2.75 and 8.25
    assert (s["parent_q1"], s["parent_q3"]) == (2.75, 8.25)
    assert (s["won"], s["pairs"]) == (9, 10)
    assert s["worsening"] == pytest.approx(-1.0 / 5.5)


def test_summary_of_a_lower_is_better_metric():
    s = bench_pairs.summarize(PARENT, CHANGE, "lower")
    assert s["won"] == 0  # nine losses and a tie
    assert s["worsening"] == pytest.approx(1.0 / 5.5)
    assert bench_pairs.summarize(CHANGE, PARENT, "lower")["won"] == 9


@pytest.mark.parametrize("parent,change", [([1.0, 2.0], [1.0]), ([1.0], [1.0])])
def test_summary_needs_two_or_more_whole_pairs(parent, change):
    with pytest.raises(ValueError, match="^need two or more pairs"):
        bench_pairs.summarize(parent, change, "higher")


def test_tree_copy_leaves_out_git_bytecode_and_bench_results(tmp_path):
    tree = tmp_path / "tree"
    for name in ("src/pkg/mod.py", "src/pkg/__pycache__/mod.pyc", ".git/HEAD",
                 ".bench_out/result.json", "bench/run.py"):
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text("x")
    copy = tmp_path / "copy"
    shutil.copytree(tree, copy, ignore=bench_pairs._IGNORE)
    copied = sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file())
    assert copied == ["bench/run.py", "src/pkg/mod.py"]
