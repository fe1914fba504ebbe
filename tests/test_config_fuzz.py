"""Generated JSON configs and command lines through config_from_dict and the
CLI: a run exits 0 or 1, never shows a traceback, and a refusal is one
stderr line that names a field holding junk.

Junk is anything JSON holds that a field does not take: bools, null,
strings (also "NaN" and "Infinity"), NaN and the infinities, ints of
magnitude 2**53 and up, negative numbers, and lists and objects nested
around them.  Every accepted grid has at most 11 points, and no draw count
or grid size is drawn at its cap."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ico_cqed import config_from_dict
from ico_cqed.cli import main
from ico_cqed.sweep import FIGURE_PRESETS, SCENARIOS, grid_points
from ico_cqed.verify import MAX_DRAWS

SCALAR_JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(["NaN", "Infinity", "-inf", "1e400", "0x10", "e", "g"]),
    st.sampled_from([math.nan, math.inf, -math.inf]),  # json writes NaN, Infinity
    st.integers(min_value=2**53),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-3, allow_infinity=False),
    st.just(10**400),
)
JUNK = st.recursive(
    SCALAR_JUNK,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=4,
)
ANGLES = {
    "theta": st.floats(0.0, math.pi / 2),
    "varphi": st.floats(0.0, 6.28),
    "xi": st.floats(0.0, math.pi / 2),
    "chi": st.floats(0.0, 6.28),
}
GRID = ("gT_start", "gT_stop", "gT_step")
REQUIRED = ("scenario", "quantities", *GRID)
LEVEL = st.sampled_from(["e", "g"])


@st.composite
def quantity(draw, ico: bool) -> dict:
    kinds = ["ket_prob", "entropy", "sigma_z"] + ["control_prob"] * ico
    kind = draw(st.sampled_from(kinds))
    if kind == "ket_prob":
        return {"kind": kind, "atom": draw(LEVEL), "n": draw(st.integers(0, 4)),
                "m": draw(st.integers(0, 4))}
    if kind == "entropy":
        return {"kind": kind, "atom_branch": draw(LEVEL)}
    return {"kind": kind}


@st.composite
def config(draw) -> tuple[dict, set]:
    """A config whose every field is drawn well-formed or as junk, and the
    names a refusal may give: the junk fields, the grid fields a junk grid
    field is compared with, and the junk quantity entries."""
    scenario = draw(st.sampled_from(SCENARIOS))
    start = draw(st.floats(0.0, 1.0))
    step = draw(st.floats(0.1, 1.0))
    # at most 10 whole steps: 11 grid points
    well_formed = {
        "scenario": st.just(scenario),
        "quantities": st.lists(quantity(scenario.startswith("ico")), min_size=1, max_size=3),
        "n": st.integers(0, 3),
        "m": st.integers(0, 3),
        **ANGLES,
        "gT_start": st.just(start),
        "gT_stop": st.integers(0, 10).map(lambda k: start + k * step),
        "gT_step": st.just(step),
        "omega_t": st.floats(-20.0, 20.0),
    }
    data, names = {}, set()
    for field, strategy in well_formed.items():
        # one given field in ten is junk; scenario and quantities are
        # required, and the grid is always given: the default one has 1,001
        # points
        kind = draw(st.integers(0, 9 if field in REQUIRED else 19))
        if kind == 0:
            data[field] = draw(JUNK)
            names.add(field)
        elif kind < 10:
            data[field] = draw(strategy)
    if names & set(GRID):
        names |= {"gT_start", "gT_step"}
    if "quantities" in names:
        names |= {f"quantities[{i}]{kind}" for i in range(3) for kind in ("", ".kind")}
    elif draw(st.integers(0, 3)) == 0:
        quantities = data["quantities"]
        i = draw(st.integers(0, len(quantities) - 1))
        key = draw(st.sampled_from([None, *quantities[i]]))
        if key is None:
            quantities[i] = draw(JUNK)
        else:
            quantities[i][key] = draw(JUNK)
        names |= {f"quantities[{i}]", f"quantities[{i}].kind"}
    if draw(st.integers(0, 9)) == 0:
        key = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in well_formed))
        data[key] = draw(JUNK)
        names.add("config")
    return data, names


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """main's exit code, stdout and stderr; an argparse refusal exits 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def named_field(line: str, prefix: str = "ico-cqed: ") -> str:
    assert line.startswith(prefix), line
    return line[len(prefix):].split(": ", 1)[0]


@settings(max_examples=80)
@given(drawn=config())
def test_generated_config_runs_or_names_a_junk_field(tmp_path_factory, drawn):
    data, names = drawn
    text = json.dumps(data)
    try:
        cfg = config_from_dict(json.loads(text))
    except ValueError as exc:
        assert names, f"well-formed config refused: {exc}"
        assert named_field(str(exc), "") in names, (exc, names)
        accepted = False
    else:
        assert len(grid_points(cfg)) <= 11
        accepted = True
    path = tmp_path_factory.getbasetemp() / "config.json"
    path.write_text(text)
    code, out, err = run_cli(["sweep", "--config", str(path)])
    assert "Traceback" not in out + err
    if accepted:
        assert (code, err) == (0, "")
        assert 2 <= len(out.splitlines()) <= 12  # the header and at most 11 rows
    else:
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert named_field(err) in names, (err, names)


INT_JUNK = st.one_of(st.integers(max_value=-1), st.integers(min_value=MAX_DRAWS + 1))
NOT_AN_INT = st.sampled_from(["abc", "1.5", "", "1e3", "nan", "3j", "0x10", "True"])


@settings(max_examples=60)
@given(data=st.data())
def test_generated_verify_argv_runs_or_names_the_option(data):
    argv, junk, bad_token = ["verify"], set(), set()
    for option, well_formed in (("seed", st.integers(0, 2**80)), ("draws", st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["absent", "well-formed", "junk", "not an int"]),
                         label=option)
        if kind == "absent":
            if option == "draws":  # the default, 200 draws, runs too long here
                argv.append("--draws=1")
            continue
        if kind == "not an int":
            bad_token.add(option)
            value = data.draw(NOT_AN_INT, label=option)
        else:
            value = data.draw(INT_JUNK if kind == "junk" else well_formed, label=option)
            if kind == "junk" and (option == "draws" or value < 0):
                junk.add(option)
        argv.append(f"--{option}={value}")
    code, out, err = run_cli(argv)
    assert "Traceback" not in out + err
    lines = err.splitlines()
    if bad_token:
        # argparse refuses the token: its usage line, then one error line
        assert code == 1 and len(lines) == 2 and lines[0].startswith("usage: ico-cqed verify")
        option = named_field(lines[1], "ico-cqed verify: error: argument --")
        assert option in bad_token, lines
    elif junk:
        assert code == 1 and out == "" and len(lines) == 1
        assert named_field(lines[0]) in junk, lines
    else:
        assert (code, err) == (0, "") and "PASS" in out


@settings(max_examples=40)
@given(figure_id=st.one_of(
    st.text(max_size=8),
    st.sampled_from(["fig2", "fig6a", "FIG2A", "fig2a ", " fig2a", "fig2a\n", "fig4c"]),
).filter(lambda s: not s.startswith("-") and s not in FIGURE_PRESETS))
def test_generated_figure_id_is_refused_naming_the_figure(figure_id):
    # a known id runs its 1,001-point preset, which the preset tests cover
    code, out, err = run_cli(["figure", figure_id])
    assert (code, out) == (1, "")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert named_field(err) == "figure"


@pytest.mark.parametrize(
    "raw, reason",
    [
        ('{"scenario": "ico_j0", "n": 1' + "0" * 5000 + "}", "Exceeds the limit (4300 digits)"),
        ('{"scenario": ' + "[" * 100_000 + "]" * 100_000 + "}", "maximum recursion depth"),
    ],
    ids=["5001-digit int", "nested 100,000 deep"],
)
def test_config_json_beyond_the_parser_is_one_line(tmp_path, raw, reason):
    # both used to escape the JSON error handler: the first printed a line
    # naming no field, the second a RecursionError traceback
    path = tmp_path / "config.json"
    path.write_text(raw)
    code, out, err = run_cli(["sweep", "--config", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"ico-cqed: config: invalid JSON in {path} ({reason}")
    assert len(err.splitlines()) == 1
