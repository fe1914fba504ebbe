"""tools/bench_pairs.py: the summary arithmetic of paired runs and what a
tree copy leaves out, on fixed numbers and a small tree; no benchmark runs."""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
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
                "attempted": 10, "setup_samples": [0.1], "host_kernel_s": 1e-3 * seed}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    tier1_seconds = iter(range(1, 13))  # two calls: six Tier-1 runs each

    def fake_tier1(tree):
        return float(next(tier1_seconds)), f"{tree.name} passed"

    monkeypatch.setattr(bench_pairs, "_tier1", fake_tier1)
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
    assert [r["host_kernel_s"] for r in a["runs"]["parent"]] == [1e-3, 2e-3, 3e-3]
    # each side, neither a checkout, and its src/ (absent: no file)
    assert a["bytecode"] is False
    empty = hashlib.sha256().hexdigest()
    assert a["sides"] == {side: {"git_sha": None, "src_sha256": empty}
                          for side in ("parent", "change")}
    # the second call's Tier-1 runs, 7..12, the parent first and then alternating
    assert data["tier1"] == {
        side: {"runs_s": runs, "median_s": runs[1], "summaries": [f"{side} passed"] * 3}
        for side, runs in (("parent", [7.0, 10.0, 11.0]), ("change", [8.0, 9.0, 12.0]))}
    # the printed report is the record's
    out = capsys.readouterr().out
    assert "throughput   parent 2 [q1 1, q3 3]  change 4  won 3/3" in out
    assert "change Tier-1 median 9.00 s of 8.00, 9.00, 12.00" in out


def write_tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_src_digest_covers_each_file_s_path_and_bytes(tmp_path):
    # the recipe on a fixed tree: path, NUL, size, NUL, bytes per file, in
    # path order; bytecode and files outside src/ do not count
    tree = write_tree(tmp_path / "t", {"src/b.py": "y\n", "src/a/m.py": "x",
                                       "src/a/__pycache__/m.pyc": "junk", "README": "r"})
    want = hashlib.sha256(b"a/m.py\x001\x00x" + b"b.py\x002\x00y\n").hexdigest()
    assert bench_pairs.src_sha256(tree) == want
    (tree / "src" / "b.py").write_text("y")
    assert bench_pairs.src_sha256(tree) != want
    # a moved byte is a change: sizes bound each file
    moved = write_tree(tmp_path / "u", {"src/a/m.py": "x\x00", "src/b.py": "\n"})
    assert bench_pairs.src_sha256(moved) != want


def test_git_sha_names_a_checkout_s_commit_and_nothing_else(tmp_path):
    tree = write_tree(tmp_path / "repo", {"src/a.py": "x"})
    assert bench_pairs.git_sha(tree) is None  # not a checkout
    git = ["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "t"]):
        subprocess.run(git + args, check=True, capture_output=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()
    assert bench_pairs.git_sha(tree) == head
    assert bench_pairs.git_sha(tree / "src") is None  # inside a checkout, not its top
    (tree / "src" / "a.py").write_text("y")
    assert bench_pairs.git_sha(tree) is None  # a change from the commit


def test_a_run_reads_its_host_speed_from_its_record(tmp_path, monkeypatch):
    # bench/run.py stood in for: its last stdout line and its run record
    tree = tmp_path / "tree"
    (tree / ".bench_out").mkdir(parents=True)
    record = {"setup_samples": [0.2, 0.1], "kernel_s": [1.0e-3, 3.0e-3, 1.2e-3]}
    (tree / ".bench_out" / "result-w-seed4-trace0.json").write_text(json.dumps(record))
    result = {"metrics": {"throughput": {"value": 5.0}}, "failed": 0, "attempted": 7}

    def fake_subprocess_run(cmd, cwd, env, capture_output, text):
        assert cwd == tree and env["PYTHONDONTWRITEBYTECODE"] == "1"
        return subprocess.CompletedProcess(cmd, 0, "log\n" + json.dumps(result), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    assert bench_pairs._run(tree, "w", 4, 1.0) == {
        "metrics": {"throughput": 5.0}, "failed": 0, "attempted": 7,
        "setup_samples": [0.2, 0.1], "host_kernel_s": 1.2e-3}


def test_a_tier1_run_is_the_suite_in_the_tree_without_bytecode(tmp_path, monkeypatch):
    # the interpreter stood in for: the suite's arguments, src/ first on the
    # path, and the last line it printed
    monkeypatch.setenv("PYTHONPATH", "elsewhere")

    def fake_subprocess_run(cmd, cwd, env, capture_output, text):
        assert cmd[1:] == ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"]
        assert cwd == tmp_path and env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert env["PYTHONPATH"] == os.pathsep.join(["src", "elsewhere"])
        return subprocess.CompletedProcess(cmd, 0, "....\n766 passed in 9.1s\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    seconds, line = bench_pairs._tier1(tmp_path)
    assert seconds >= 0.0 and line == "766 passed in 9.1s"
