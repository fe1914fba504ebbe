import errno
import hashlib
import json
import math
import os
import stat
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from ico_cqed import (
    AtomLevel,
    AtomicInversion,
    BranchEntropy,
    ConfigError,
    ControlProbabilityColumn,
    KetProbability,
    SweepConfig,
    config_from_dict,
    figure_meta,
    figure_table,
    grid_points,
    run_sweep,
    sweep_meta,
)
from ico_cqed import sweep
from ico_cqed import cli
from ico_cqed.cli import build_parser, main
from ico_cqed.sweep import FIGURE_PRESETS, MAX_GRID_POINTS, meta_json
from helpers import E, G, SEEDED_SWEEPS, largest_finite_time, seeded_sweep_config


def pk(label, n, m):
    return KetProbability(AtomLevel.from_label(label), n, m)


def single_point_config(gt, scenario="series_C0C1", quantities=None, **kw):
    return SweepConfig(
        scenario,
        tuple(quantities or (pk("e", 0, 0), pk("g", 0, 1))),
        gT_start=gt,
        gT_stop=gt,
        gT_step=1.0,
        **kw,
    )


# ---------------------------------------------------------------- configs


def test_config_from_dict_round_trip():
    data = {
        "scenario": "ico_j0",
        "quantities": [
            {"kind": "ket_prob", "atom": "g", "n": 0, "m": 1},
            {"kind": "entropy", "atom_branch": "g"},
            {"kind": "sigma_z"},
            {"kind": "control_prob"},
        ],
        "n": 0,
        "m": 0,
        "gT_start": 0.0,
        "gT_stop": 1.0,
        "gT_step": 0.5,
        "omega_t": 1.5,
    }
    cfg = config_from_dict(data)
    assert cfg.scenario == "ico_j0"
    assert cfg.quantities[0] == KetProbability(G, 0, 1)
    assert cfg.quantities[1] == BranchEntropy(G)
    assert isinstance(cfg.quantities[2], AtomicInversion)
    assert isinstance(cfg.quantities[3], ControlProbabilityColumn)
    assert cfg.to_dict()["quantities"] == data["quantities"]


@pytest.mark.parametrize(
    "mutation,field",
    [
        ({"scenario": "bogus"}, "scenario"),
        ({"quantities": []}, "quantities"),
        ({"quantities": [{"kind": "nope"}]}, "quantities[0]"),
        ({"quantities": [{"kind": "ket_prob", "atom": "q", "n": 0, "m": 0}]}, "quantities[0]"),
        ({"gT_step": 0.0}, "gT_step"),
        ({"gT_start": 2.0, "gT_stop": 1.0}, "gT_start"),
        ({"gT_start": -1.0}, "gT_start"),
        ({"n": -3}, "n"),
        ({"theta": 9.0}, "theta"),
        ({"unexpected": 1}, "unexpected"),
    ],
)
def test_config_errors_name_the_field(mutation, field):
    data = {
        "scenario": "series_C0C1",
        "quantities": [{"kind": "ket_prob", "atom": "e", "n": 0, "m": 0}],
    }
    data.update(mutation)
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert field in str(err.value)


@pytest.mark.parametrize("data,message", [
    ([], "config: expected a JSON object"),
    ({"quantities": []}, "scenario: required field is missing"),
])
def test_config_from_dict_refuses_a_non_object_and_a_missing_scenario(data, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        config_from_dict(data)


def test_quantity_entry_refuses_an_unknown_key():
    # a typo inside a quantity object is refused as one at the top level is
    data = {
        "scenario": "ico_j0",
        "quantities": [{"kind": "sigma_z"}, {"kind": "entropy", "atom_branch": "g"}],
    }
    data["quantities"][1]["atom_brnch"] = "e"
    with pytest.raises(ConfigError, match=r"^quantities\[1\]: unknown field 'atom_brnch'$"):
        config_from_dict(data)
    data["quantities"][0].update(atom="x", n=-5)
    with pytest.raises(ConfigError, match=r"^quantities\[0\]: unknown field 'atom'$"):
        config_from_dict(data)


def _in_config(entry) -> dict:
    return {"scenario": "ico_j0", "quantities": [{"kind": "sigma_z"}, entry]}


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"kind": "ket_prob", "atom": "e", "n": 0},
         "quantities[1]: ket_prob needs atom ('e'|'g'), n, m ('m')"),
        ({"kind": "ket_prob", "atom": "q", "n": 0, "m": 0},
         "quantities[1]: ket_prob needs atom ('e'|'g'), n, m "
         "(unknown atom level 'q', expected 'e' or 'g')"),
        ({"kind": "ket_prob", "atom": "q", "n": 0},
         "quantities[1]: ket_prob needs atom ('e'|'g'), n, m "
         "(unknown atom level 'q', expected 'e' or 'g')"),
        ({"kind": "ket_prob", "atom": ["e"], "n": 0, "m": 0},
         "quantities[1]: ket_prob needs atom ('e'|'g'), n, m "
         "(unknown atom level ['e'], expected 'e' or 'g')"),
        ({"kind": "ket_prob", "atom": "g", "n": -1, "m": 0},
         "quantities[1]: ket_prob needs atom ('e'|'g'), n, m "
         "(n: must lie in 0..9007199254740991, got -1)"),
        ({"kind": "ket_prob", "atom": "e", "n": True, "m": 0},
         "quantities[1]: ket_prob needs atom ('e'|'g'), n, m (n: must be an integer, got True)"),
        ({"kind": "ket_prob", "atom": "e", "n": 0, "m": 2**53},
         "quantities[1]: ket_prob needs atom ('e'|'g'), n, m "
         "(m: must lie in 0..9007199254740991, got 9007199254740992)"),
        ({"kind": "entropy"}, "quantities[1]: entropy needs atom_branch ('e'|'g') ('atom_branch')"),
        ({"kind": "entropy", "atom_branch": "x"},
         "quantities[1]: entropy needs atom_branch ('e'|'g') "
         "(unknown atom level 'x', expected 'e' or 'g')"),
        ({"kind": "sigma_z", "atom": "e"}, "quantities[1]: unknown field 'atom'"),
        ({"kind": "control_prob", "n": 0}, "quantities[1]: unknown field 'n'"),
        ({"kind": "ket_prob", "atom": "e", "n": 0, "m": 0, "b": 1, "a": 1},
         "quantities[1]: unknown field 'a'"),
        ({"kind": "nope"}, "quantities[1].kind: unknown quantity kind 'nope'"),
        ({"atom": "e"}, "quantities[1].kind: unknown quantity kind None"),
        (["ket_prob"], "quantities[1]: expected an object with a 'kind' field"),
    ],
    ids=["ket_prob missing m", "ket_prob bad atom", "ket_prob bad atom and missing m",
         "ket_prob list atom", "ket_prob negative n", "ket_prob bool n", "ket_prob huge m",
         "entropy missing atom_branch", "entropy bad label", "sigma_z extra key",
         "control_prob extra key", "ket_prob two extra keys", "unknown kind", "no kind",
         "not an object"],
)
def test_quantity_refusals_read_exactly(entry, message):
    with pytest.raises(ConfigError) as err:
        config_from_dict(_in_config(entry))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "n, m, message",
    [(-1, 0, "n: must lie in 0..9007199254740991, got -1"),
     (0, 1.0, "m: must be an integer, got 1.0")],
)
def test_ket_probability_refuses_a_bad_photon_number(n, m, message):
    # a ConfigError, as for a bad atom; it used to be a plain ValueError
    with pytest.raises(ConfigError) as err:
        KetProbability(E, n, m)
    assert str(err.value) == message


NON_FINITE = [
    ("gT_start", math.nan),
    ("gT_start", math.inf),
    ("gT_stop", math.nan),
    ("gT_stop", math.inf),
    ("gT_step", math.nan),
    ("gT_step", math.inf),
    ("omega_t", math.nan),
    ("omega_t", -math.inf),
]


@pytest.mark.parametrize("field,value", NON_FINITE)
def test_config_rejects_non_finite_floats(field, value):
    data = {
        "scenario": "ico_j0",
        "quantities": [{"kind": "sigma_z"}],
        field: value,
    }
    with pytest.raises(ConfigError, match=rf"^{field}: must be finite"):
        config_from_dict(data)


@pytest.mark.parametrize("field,value", NON_FINITE)
def test_cli_sweep_rejects_non_finite_floats(tmp_path, capsys, field, value):
    path = tmp_path / "cfg.json"
    # json writes NaN and Infinity, and reads them back as floats.
    data = {"scenario": "ico_j0", "quantities": [{"kind": "sigma_z"}], field: value}
    path.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith(f"ico-cqed: {field}: must be finite")


# From 2**53 on, n and n + 1 are one float; 10**400 overflows a float.
BAD_OCCUPATIONS = [-1, 1.7, True, "2", 2**53, 10**400]


@pytest.mark.parametrize("value", BAD_OCCUPATIONS, ids=repr)
@pytest.mark.parametrize("field", ["n", "m"])
def test_config_rejects_bad_ket_prob_occupation(field, value):
    column = {"kind": "ket_prob", "atom": "e", "n": 0, "m": 0, field: value}
    with pytest.raises(
        ConfigError,
        match=rf"^quantities\[0\]: .*\({field}: must (be an integer|lie in 0\.\.{2**53 - 1}), got ",
    ):
        config_from_dict({"scenario": "series_C0C1", "quantities": [column]})
    with pytest.raises(ValueError):
        KetProbability(E, **{"n": 0, "m": 0, field: value})


@pytest.mark.parametrize("value", BAD_OCCUPATIONS, ids=repr)
def test_cli_sweep_rejects_bad_ket_prob_occupation(tmp_path, capsys, value):
    path = tmp_path / "cfg.json"
    column = {"kind": "ket_prob", "atom": "g", "n": value, "m": 0}
    path.write_text(json.dumps({"scenario": "series_C0C1", "quantities": [column]}))
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("ico-cqed: quantities[0]: ")
    assert "Traceback" not in captured.err


def test_a_sweep_runs_at_the_largest_initial_photon_number(tmp_path, capsys):
    # 2**53 - 2: its kets at n + 1 are the last a ket accepts; one more used
    # to be accepted and refused inside run_sweep for a ket at 2**53
    top = 2**53 - 2
    cfg = {"scenario": "ico_j0", "n": top, "m": top, "gT_stop": 0.1, "gT_step": 0.05,
           "quantities": [{"kind": "sigma_z"}, {"kind": "ket_prob", "atom": "g", "n": top + 1,
                                                "m": top}]}
    assert len(run_sweep(config_from_dict(cfg)).cells[0]) == 3
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    for field in ("n", "m"):
        path.write_text(json.dumps({**cfg, field: top + 1}))
        assert main(["sweep", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"ico-cqed: {field}: must lie in 0..{top}, got {top + 1}\n"


@pytest.mark.parametrize("n,m", [(0, 0), (3, 1)])
def test_a_sweep_refuses_a_grid_whose_angle_overflows(n, m, tmp_path, capsys):
    # sqrt(max(n, m, 2) + 2) times the grid's last gT, the largest angle of
    # the oracle at g = 1, must be finite; gT = 1.5e308 at n = 3 used to warn,
    # write an empty cell and exit 0
    edge = largest_finite_time(n, m)
    quantities = (AtomicInversion(),)
    assert run_sweep(single_point_config(edge, "ico_j0", quantities, n=n, m=m)).cells[0] == (edge,)
    above = math.nextafter(edge, math.inf)
    message = f"gT_stop: must keep sqrt(max(n, m, 2) + 2)*gT finite, got gT={above} at n={n}, m={m}"
    with pytest.raises(ConfigError) as err:
        single_point_config(above, "ico_j0", quantities, n=n, m=m)
    assert str(err.value) == message
    # the grid's last point, not gT_stop, is checked: here it lies one step below
    cfg = SweepConfig("ico_j0", quantities, n=n, m=m, gT_start=edge, gT_stop=above, gT_step=edge)
    assert grid_points(cfg) == [edge]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "ico_j0", "quantities": [{"kind": "sigma_z"}], "n": 3,
                                "m": 1, "gT_start": 1.5e308, "gT_stop": 1.5e308}))
    assert main(["sweep", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", "ico-cqed: gT_stop: must keep sqrt(max(n, m, 2) + 2)*gT "
                                       "finite, got gT=1.5e+308 at n=3, m=1\n")


@pytest.mark.parametrize("field", ["n", "m"])
def test_cli_sweep_rejects_huge_photon_number(tmp_path, capsys, field):
    path = tmp_path / "cfg.json"
    data = {"scenario": "ico_j0", "quantities": [{"kind": "sigma_z"}], field: 10**400}
    path.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ico-cqed: {field}: must lie in 0..{2**53 - 2}, got a 1329-bit integer\n"


@pytest.mark.parametrize(
    "grid",
    [
        {"gT_start": 0.0, "gT_stop": 1.0, "gT_step": 1e-7},
        {"gT_start": 0.0, "gT_stop": 1e12, "gT_step": 0.01},
        {"gT_start": 0.0, "gT_stop": float(MAX_GRID_POINTS), "gT_step": 1.0},
    ],
)
def test_oversized_grid_is_refused(grid):
    data = {"scenario": "series_C0C1", "quantities": [{"kind": "sigma_z"}], **grid}
    with pytest.raises(ConfigError, match=r"^gT_step: .*MAX_GRID_POINTS"):
        config_from_dict(data)


def test_grid_of_max_size_is_accepted():
    # grid_points would give exactly MAX_GRID_POINTS points; the size check
    # uses the same count.
    SweepConfig("series_C0C1", (pk("e", 0, 0),), gT_stop=MAX_GRID_POINTS - 1.0, gT_step=1.0)


def test_sweep_at_the_grid_cap_stays_within_the_stated_memory(monkeypatch):
    # run_sweep's docstring bounds the traced peak by 1,100 + 40 * C bytes a
    # grid point for C quantities, which at MAX_GRID_POINTS is its stated
    # peak; checked at a lowered cap on the costliest sweep: ico, all ten
    # kernel rows reachable, every column kind.  The table it keeps plus
    # to_csv's peak stays below that bound, so a CLI sweep peaks in
    # run_sweep, and to_csv keeps to its own docstring's 75 + 55 * C
    monkeypatch.setattr(sweep, "MAX_GRID_POINTS", 4_000)
    quantities = (ControlProbabilityColumn(), pk("e", 1, 1), pk("g", 2, 1), AtomicInversion(),
                  BranchEntropy(E), BranchEntropy(G))
    cap = {"gT_stop": 3_999 * 0.0025, "gT_step": 0.0025}
    cfg = SweepConfig("ico_j0", quantities, n=1, m=1, xi=0.4, **cap)
    with pytest.raises(ConfigError, match="MAX_GRID_POINTS = 4000 "):
        SweepConfig("ico_j0", quantities, n=1, m=1, gT_stop=4_000 * 0.0025, gT_step=0.0025)
    tracemalloc.start()
    try:
        table = run_sweep(cfg)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        table.to_csv()
        csv_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.rows) == sweep.MAX_GRID_POINTS
    bound = (1_100 + 40 * len(quantities)) * sweep.MAX_GRID_POINTS
    assert peak <= bound
    assert csv_peak <= bound
    assert csv_peak - kept <= (75 + 55 * len(quantities)) * sweep.MAX_GRID_POINTS


def test_more_quantities_than_the_cap_are_refused():
    columns = (AtomicInversion(),) * sweep.MAX_QUANTITIES
    assert len(SweepConfig("ico_j0", columns).quantities) == 16
    message = r"^quantities: must hold at most MAX_QUANTITIES = 16 columns, got 17$"
    with pytest.raises(ConfigError, match=message):
        SweepConfig("ico_j0", columns + (AtomicInversion(),))
    # config_from_dict counts the entries before it builds one: the junk
    # seventeenth entry would be refused as quantities[16] otherwise
    entries = [{"kind": "sigma_z"}] * sweep.MAX_QUANTITIES + ["junk"]
    with pytest.raises(ConfigError, match=message):
        config_from_dict({"scenario": "ico_j0", "quantities": entries})
    with pytest.raises(ConfigError, match=r"^quantities: .* got 1000$"):
        config_from_dict({"scenario": "ico_j0", "quantities": [{"kind": "sigma_z"}] * 1000})


def test_control_prob_rejected_for_series():
    with pytest.raises(ConfigError, match=r"^quantities\[0\]: control_prob needs an ico scenario$"):
        SweepConfig("series_C0C1", (ControlProbabilityColumn(),))


def test_ket_probability_refuses_an_atom_label():
    # a label, not an AtomLevel: column_id used to raise AttributeError
    with pytest.raises(ConfigError, match="^atom: must be an AtomLevel, got 'e'$"):
        KetProbability("e", 0, 0)


def test_branch_entropy_refuses_an_atom_label():
    with pytest.raises(ConfigError, match="^atom_branch: must be an AtomLevel, got 'g'$"):
        BranchEntropy("g")


def test_sweep_config_refuses_a_column_that_is_not_a_quantity():
    # used to fail inside run_sweep with AttributeError
    message = r"^quantities\[1\]: must be a Quantity column, got 'sigma_z'$"
    with pytest.raises(ConfigError, match=message):
        SweepConfig("ico_j0", (AtomicInversion(), "sigma_z"))


def test_sweep_config_stores_its_quantities_as_a_tuple():
    # a list used to be stored as given and made the config unhashable
    cfg = SweepConfig("ico_j0", [AtomicInversion()])
    assert cfg.quantities == (AtomicInversion(),)
    assert hash(cfg) == hash(SweepConfig("ico_j0", (AtomicInversion(),)))


def test_sweep_config_stores_an_int_in_a_float_field_as_a_float():
    cfg = SweepConfig("ico_j0", (AtomicInversion(),), theta=1, gT_stop=10, gT_step=1)
    assert (cfg.theta, cfg.gT_stop, cfg.gT_step) == (1.0, 10.0, 1.0)
    assert all(type(v) is float for v in (cfg.theta, cfg.gT_stop, cfg.gT_step))
    assert '"gT_stop": 10.0' in meta_json(sweep_meta(cfg))


def test_grid_points_count_and_spacing():
    cfg = SweepConfig("series_C0C1", (pk("e", 0, 0),), gT_start=0.0, gT_stop=10.0, gT_step=0.01)
    grid = grid_points(cfg)
    assert len(grid) == 1001
    assert grid[0] == 0.0
    assert abs(grid[-1] - 10.0) < 1e-9


# ---------------------------------------------------------------- sweeps


def test_sweep_row_at_pi_reproduces_revival():
    table = run_sweep(single_point_config(math.pi))
    assert table.columns == ("gT", "P(e,0,0)", "P(g,0,1)")
    (row,) = table.rows
    assert row[1] == 1.0
    assert row[2] == 0.0
    assert table.to_csv() == "gT,P(e,0,0),P(g,0,1)\n" + repr(math.pi) + ",1.0,0.0\n"


def test_sweep_empty_cells_for_impossible_outcome():
    cfg = single_point_config(
        0.0,
        scenario="ico_j1",
        quantities=(pk("e", 0, 0), BranchEntropy(G), AtomicInversion(), ControlProbabilityColumn()),
    )
    (row,) = run_sweep(cfg).rows
    assert row[1] is None and row[2] is None and row[3] is None
    assert row[4] == 0.0  # the refused probability, not 1 - P(other outcome)
    csv_row = run_sweep(cfg).to_csv().splitlines()[1]
    assert csv_row.startswith("0.0,,,,")
    assert csv_row.split(",")[4] == repr(row[4])


def test_sweep_first_row_at_zero_time():
    cfg = SweepConfig(
        "series_C0C1",
        (pk("e", 0, 0), BranchEntropy(E), BranchEntropy(G)),
        gT_start=0.0,
        gT_stop=0.5,
        gT_step=0.5,
    )
    first = run_sweep(cfg).rows[0]
    assert first[1] == 1.0
    assert first[2] == 0.0  # excited slice is the bare initial product state
    assert first[3] is None  # ground slice cannot be postselected yet


def test_sweep_csv_is_byte_identical_across_runs():
    cfg = SweepConfig(
        "ico_j0",
        (pk("g", 0, 1), BranchEntropy(G), ControlProbabilityColumn()),
        gT_stop=2.0,
        gT_step=0.05,
    )
    assert run_sweep(cfg).to_csv() == run_sweep(cfg).to_csv()


def test_sweep_meta_contains_version_and_config():
    cfg = single_point_config(1.0)
    meta = sweep_meta(cfg)
    assert meta["library_version"]
    assert meta["config"]["scenario"] == "series_C0C1"
    parsed = json.loads(meta_json(meta))
    assert parsed == meta


# ---------------------------------------------------------------- presets


def test_every_preset_runs_fast_and_is_deterministic():
    start = time.perf_counter()
    table = figure_table("fig2a")
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert table.columns == ("gT", "P(e,0,0)", "P(g,0,1)")
    assert len(table.rows) == 1001


def test_unknown_figure_id():
    with pytest.raises(ConfigError) as table_err:
        figure_table("fig9z")
    with pytest.raises(ConfigError) as meta_err:
        figure_meta("fig9z")
    assert str(table_err.value) == str(meta_err.value) == (
        "figure: unknown id 'fig9z'; available: " + ", ".join(sorted(FIGURE_PRESETS))
    )


def test_fig4b_ico_entropy_column_is_constant_half():
    table = figure_table("fig4b")
    assert table.columns == ("gT", "series_C0C1:S_L(g)", "ico_j0:S_L(g)")
    defined = [row[2] for row in table.rows if row[2] is not None]
    assert len(defined) > 990
    assert all(abs(v - 0.5) < 1e-9 for v in defined)


def test_fig5_presets_merge_both_scenarios():
    table = figure_table("fig5a")
    assert table.columns == ("gT", "series_C0C1:sigma_z", "ico_j0:sigma_z")
    row0 = table.rows[0]
    assert row0[1] == 1.0 and row0[2] == 1.0


# ---------------------------------------------------------------- CLI


def test_cli_figure_to_stdout(capsys):
    assert main(["figure", "fig2b"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "gT,P(g,1,0)"
    assert len(lines) == 1002


def test_cli_figure_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "fig4b.csv"
    assert main(["figure", "fig4b", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "gT,series_C0C1:S_L(g),ico_j0:S_L(g)"
    meta = json.loads((tmp_path / "fig4b.csv.meta.json").read_text())
    assert meta["figure"] == "fig4b"
    assert len(meta["sweeps"]) == 2


def test_cli_presets_match_the_pinned_bytes(tmp_path):
    # SHA-256 of every preset's CSV and sidecar, as `ico-cqed figure ID --out`
    # writes them; the sidecar records library_version, so a version bump
    # changes its pin
    pinned = json.loads((Path(__file__).parent / "data" / "preset_sha256.json").read_text())
    assert sorted(pinned) == sorted(FIGURE_PRESETS)
    for figure_id, want in pinned.items():
        out = tmp_path / f"{figure_id}.csv"
        assert main(["figure", figure_id, "--out", str(out)]) == 0
        assert written_sha256(out) == want, figure_id


def written_sha256(out: Path) -> dict:
    """SHA-256 of a CSV the CLI wrote with --out and of its sidecar."""
    sidecar = Path(str(out) + ".meta.json")
    return {"csv": hashlib.sha256(out.read_bytes()).hexdigest(),
            "meta": hashlib.sha256(sidecar.read_bytes()).hexdigest()}


def test_cli_seeded_sweeps_match_the_pinned_bytes(tmp_path):
    # no preset has a control_prob column, xi != 0 or ico_j1: these pin the
    # CLI's output for helpers.seeded_sweep_config, as `ico-cqed sweep
    # --config C --out F` writes it; a library_version bump changes the
    # sidecar pins
    pinned = json.loads((Path(__file__).parent / "data" / "sweep_sha256.json").read_text())
    assert sorted(pinned, key=int) == [str(i) for i in range(SEEDED_SWEEPS)]
    empty_rows = 0
    for index, want in pinned.items():
        config, out = tmp_path / f"{index}.json", tmp_path / f"{index}.csv"
        config.write_text(json.dumps(seeded_sweep_config(int(index))))
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 102, index
        empty_rows += ",," in lines[1] or lines[1].endswith(",")
        assert written_sha256(out) == want, index
    assert empty_rows == SEEDED_SWEEPS // 8  # the balanced ico_j1 sweeps from gT = 0


def test_cli_sweep_runs_config_file(tmp_path, capsys):
    cfg = {
        "scenario": "ico_j0",
        "quantities": [{"kind": "control_prob"}],
        "gT_start": 0.0,
        "gT_stop": 0.1,
        "gT_step": 0.1,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "gT,control_prob"
    value = float(lines[1].split(",")[1])
    assert abs(value - 1.0) < 1e-12
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert meta["config"]["scenario"] == "ico_j0"


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    assert main(["figure", "fig9z"]) == 1
    assert "figure" in capsys.readouterr().err
    assert main(["verify", "--draws", "0"]) == 1
    missing = tmp_path / "absent.json"
    assert main(["sweep", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", "--config", str(bad)]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"scenario": "series_C0C1", "quantities": [], "n": 0}))
    assert main(["sweep", "--config", str(broken)]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # missing required --config
    assert exc.value.code == 1


def test_cli_out_write_failures_name_the_field(tmp_path, capsys):
    # the CSV into a missing directory, then a sidecar path taken by a directory
    csv = tmp_path / "absent" / "x.csv"
    sidecar = tmp_path / "x.csv.meta.json"
    sidecar.mkdir()
    for out, failed in ((csv, csv), (tmp_path / "x.csv", sidecar)):
        assert main(["figure", "fig2a", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ico-cqed: out: cannot write {failed} ([Errno ")
        assert captured.err.endswith(")\n") and captured.err.count("\n") == 1
    assert not csv.parent.exists()


@pytest.mark.parametrize("command", ["figure", "sweep"])
def test_cli_a_failed_sidecar_leaves_no_csv(tmp_path, capsys, command):
    # the CSV is written first; when its sidecar cannot be, the CSV goes too
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scenario": "ico_j0", "quantities": [{"kind": "control_prob"}]}))
    args = {"figure": ["figure", "fig2a"], "sweep": ["sweep", "--config", str(config)]}[command]
    out = tmp_path / "x.csv"
    sidecar = tmp_path / "x.csv.meta.json"
    sidecar.mkdir()
    assert main([*args, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ico-cqed: out: cannot write {sidecar} ([Errno ")
    assert captured.err.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "x.csv.meta.json"]
    assert not any(sidecar.iterdir())


def test_cli_a_csv_write_that_fails_part_way_leaves_the_earlier_pair(tmp_path, capsys,
                                                                    monkeypatch):
    # the disk fills half way through fig3a's CSV: fig2a's CSV and sidecar stay
    # as they were, beside no part of fig3a's files
    out = tmp_path / "x.csv"
    assert main(["figure", "fig2a", "--out", str(out)]) == 0
    earlier = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert sorted(earlier) == ["x.csv", "x.csv.meta.json"]
    capsys.readouterr()
    write_text = Path.write_text

    def disk_full_in_the_csv(path, text, *args, **kwargs):
        if text.startswith("{"):  # the sidecar's JSON
            return write_text(path, text, *args, **kwargs)
        write_text(path, text[: len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(Path, "write_text", disk_full_in_the_csv)
    assert main(["figure", "fig3a", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ico-cqed: out: cannot write {out} ([Errno 28] ")
    assert captured.err.count("\n") == 1
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == earlier


@pytest.mark.parametrize("command", ["sweep", "figure"])
def test_cli_out_help_names_the_sidecar(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "a <out>.meta.json sidecar" in " ".join(capsys.readouterr().out.split())


def test_cli_out_through_a_symlink_replaces_its_target(tmp_path):
    # the link stays a link, to the new CSV; the sidecar is named by the link
    (tmp_path / "real").mkdir()
    target, link = tmp_path / "real" / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert main(["figure", "fig2a", "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text() == figure_table("fig2a").to_csv()
    assert json.loads((tmp_path / "link.csv.meta.json").read_text()) == figure_meta("fig2a")
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "link.csv", "link.csv.meta.json", "real"]
    assert [path.name for path in target.parent.iterdir()] == ["target.csv"]


def test_cli_out_into_a_fifo_writes_through_it(tmp_path):
    # a reader waiting on a FIFO gets the whole CSV, and the FIFO stays one
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    spare = tmp_path / "spare"  # a second name, to release a reader no writer opens
    os.link(fifo, spare)
    received = []

    def read():
        with open(fifo, "rb") as stream:
            received.append(stream.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        assert main(["figure", "fig2a", "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
    finally:
        if reader.is_alive():
            os.close(os.open(spare, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
    assert received == [figure_table("fig2a").to_csv().encode()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert json.loads((tmp_path / "pipe.csv.meta.json").read_text()) == figure_meta("fig2a")


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/<pid>/fd")
@pytest.mark.parametrize("command", ["figure", "sweep"])
def test_cli_out_into_an_open_file_appends_to_it(tmp_path, command):
    # --out through a link to /proc/self/fd/N of a file opened for appending,
    # as `--out /dev/stdout >> log.txt` is: the CSV lands after the file's
    # line, the file is neither truncated nor replaced, and nothing else is
    # written, no sidecar and no temporary file
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scenario": "ico_j0", "quantities": [{"kind": "control_prob"}],
                                  "gT_stop": 1.0, "gT_step": 0.1}))
    args = {"figure": ["figure", "fig2a"], "sweep": ["sweep", "--config", str(config)]}[command]
    expected = (figure_table("fig2a") if command == "figure"
                else run_sweep(config_from_dict(json.loads(config.read_text()))))
    log, link = tmp_path / "log.txt", tmp_path / "out.csv"
    log.write_text("earlier line\n")
    inode = log.stat().st_ino
    with open(log, "a") as stream:
        link.symlink_to(f"/proc/self/fd/{stream.fileno()}")
        assert main([*args, "--out", str(link)]) == 0
    assert log.read_text() == "earlier line\n" + expected.to_csv()
    assert log.stat().st_ino == inode and link.is_symlink()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "log.txt", "out.csv"]


@pytest.mark.parametrize("path,opened", [
    ("/dev/stdout", True), ("/dev/fd/1", True), ("/proc/self/fd/2", True),
    ("/proc/1/fd/0", True), ("/proc/self/task/1/fd/3", True), ("/dev/null", False),
    ("/proc/self/fdinfo/1", False), ("out.csv", False)])
def test_cli_names_the_paths_that_are_open_files(path, opened):
    # nothing is opened: the links are only read
    if path.startswith(("/dev/std", "/dev/fd")) and not Path("/dev/fd").exists():
        pytest.skip("no /dev/fd")
    assert cli._open_file(Path(path)) is opened


def test_cli_a_directory_link_into_an_fd_table_names_open_files(tmp_path):
    # a path through a directory link to /proc/self/fd names an open file too
    (tmp_path / "fds").symlink_to("/proc/self/fd")
    assert cli._open_file(tmp_path / "fds" / "1")
    assert not cli._open_file(tmp_path / "absent" / "1")


def test_cli_sweep_refuses_a_config_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ico-cqed: config: expected a JSON object\n"


def test_cli_builds_its_parser_once(tmp_path, capsys):
    # every command dispatches through the one cached parser
    build_parser.cache_clear()
    assert main(["figure", "fig2a", "--out", str(tmp_path / "fig2a.csv")]) == 0
    assert main(["verify", "--draws", "3"]) == 0
    assert main(["figure", "fig9z"]) == 1
    assert build_parser.cache_info().misses == 1
    assert build_parser.cache_info().hits == 2


def test_cli_verify_rejects_negative_seed(capsys):
    assert main(["verify", "--seed", "-1", "--draws", "5"]) == 1
    err = capsys.readouterr().err
    assert err == "ico-cqed: seed: must be >= 0, got -1\n"


def test_cli_maps_library_value_error_to_one_line(tmp_path, capsys):
    # A ket_prob column with a negative photon number is refused by the
    # column's own check, inside the config parser.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "scenario": "series_C0C1",
        "quantities": [{"kind": "ket_prob", "atom": "e", "n": -1, "m": 0}],
        "gT_stop": 0.1,
        "gT_step": 0.1,
    }))
    assert main(["sweep", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "ico-cqed: quantities[0]: ket_prob needs atom ('e'|'g'), n, m "
        f"(n: must lie in 0..{2**53 - 1}, got -1)\n"
    )


def test_cli_verify_smoke(capsys):
    assert main(["verify", "--seed", "1", "--draws", "10"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "max amplitude deviation" in out


def test_run_verification_validates_draws():
    from ico_cqed import run_verification

    with pytest.raises(ValueError):
        run_verification(seed=1, draws=0)
    report = run_verification(seed=1, draws=10)
    assert report.passed
    assert report.max_amplitude_deviation < 1e-9
