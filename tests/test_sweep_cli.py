import json
import math
import time

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
from ico_cqed.cli import main
from ico_cqed.sweep import FIGURE_PRESETS, MAX_GRID_POINTS, meta_json
from helpers import E, G


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


@pytest.mark.parametrize("field", ["n", "m"])
def test_cli_sweep_rejects_huge_photon_number(tmp_path, capsys, field):
    path = tmp_path / "cfg.json"
    data = {"scenario": "ico_j0", "quantities": [{"kind": "sigma_z"}], field: 10**400}
    path.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ico-cqed: {field}: must lie in 0..{2**53 - 1}, got a 1329-bit integer\n"


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
