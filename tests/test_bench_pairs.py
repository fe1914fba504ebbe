"""tools/bench_pairs.py: the summary arithmetic of paired runs and what a
tree copy leaves out, on fixed numbers and a small tree; no benchmark runs."""

import importlib.util
import json
import os
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


def test_json_record_keeps_each_workloads_summaries_and_runs(tmp_path, monkeypatch, capsys):
    # stand-in runs in which the change reads twice the parent's throughput:
    # two calls with --json PATH leave both workloads in one record, each
    # with its own pair count and run length
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    end_to_end = [{"name": "throughput", "better": "higher", "bound": 0.25},
                  {"name": "setup_s", "better": "lower", "bound": 0.25}]
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 30, "workloads": [], "end_to_end": end_to_end}))

    def fake_run(tree, workload, seed, seconds):
        throughput = seed * (2.0 if tree.name == "change" else 1.0)
        return {"metrics": {"throughput": throughput, "setup_s": 0.1}, "failed": 0,
                "attempted": 10, "setup_samples": [0.1]}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    record = tmp_path / "record.json"
    trees = [str(tmp_path / "parent"), str(tmp_path / "change")]
    assert bench_pairs.main([*trees, "--workload", "a", "--pairs", "3", "--seconds", "2",
                             "--json", str(record)]) == 0
    assert bench_pairs.main([*trees, "--workload", "b", "--pairs", "2",
                             "--json", str(record)]) == 0
    data = json.loads(record.read_text())
    assert set(data["workloads"]) == {"a", "b"}
    assert data["host"]["cpus"] == os.cpu_count()
    a = data["workloads"]["a"]
    assert (a["pairs"], a["seconds"], data["workloads"]["b"]["seconds"]) == (3, 2.0, 30)
    assert a["metrics"]["throughput"] == dict(
        bench_pairs.summarize([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], "higher"), bound=0.25)
    assert a["metrics"]["throughput"]["won"] == 3
    assert a["failed"] == {"parent": 0, "change": 0}
    assert a["attempted"] == {"parent": 30, "change": 30}
    assert [r["metrics"]["throughput"] for r in a["runs"]["change"]] == [2.0, 4.0, 6.0]
    # the printed report is the record's
    assert "throughput   parent 2 [q1 1, q3 3]  change 4  won 3/3" in capsys.readouterr().out
