"""Sweep tables by column against the row-wise code they replaced.

A Table holds one tuple of cells per column.  Its CSV, the merge behind a
two-sweep preset and the g*T grid must equal what the row-wise renderer,
the row-by-row merge and the Python grid loop gave, bit for bit; the
row-wise references live in ``helpers``.
"""

import random
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ico_cqed import AtomicInversion, SweepConfig, figure_table, grid_points, run_sweep
from ico_cqed.sweep import FIGURE_PRESETS, Table, _whole_steps
from helpers import reference_figure_table, reference_to_csv

# floats whose repr takes each form: signed zero, the smallest subnormal,
# the switch to exponent notation below 1e-4 and at 1e16, a large exponent
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e-04, 1e16, 1e22, -1e22])
VALUE = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def column_cells(draw) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """2-8 columns of 1-40 cells, each a float from a drawn pool or None;
    sometimes None in the first row of a column and sometimes a column of
    None only.  The cells are laid out by a drawn seed, which keeps the
    draws per example few."""
    width = draw(st.integers(2, 8))
    height = draw(st.integers(1, 40))
    pool = draw(st.lists(VALUE, min_size=1, max_size=12))
    none_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cells = [[None if rng.random() < none_share else rng.choice(pool) for _ in range(height)]
             for _ in range(width)]
    if draw(st.booleans()):
        cells[draw(st.integers(0, width - 1))][0] = None
    if draw(st.booleans()):
        cells[draw(st.integers(0, width - 1))] = [None] * height
    columns = ("gT",) + tuple(f"c{i}" for i in range(1, width))
    return columns, tuple(tuple(column) for column in cells)


@settings(max_examples=100)
@given(table=column_cells())
def test_column_csv_equals_the_row_wise_renderer(table):
    columns, cells = table
    rows = tuple(zip(*cells))
    assert Table(columns, cells).rows == rows
    assert Table(columns, cells).to_csv() == reference_to_csv(columns, rows)


def test_table_is_immutable_and_stores_columns_only():
    table = Table(("gT", "x"), ((0.0, 0.5), (None, 1.0)))
    assert table.rows == ((0.0, None), (0.5, 1.0))
    with pytest.raises(FrozenInstanceError):
        table.cells = ()
    with pytest.raises(AttributeError):
        table.rows = ()
    assert list(vars(table)) == ["columns", "cells"]


@pytest.mark.parametrize("figure_id", sorted(FIGURE_PRESETS))
def test_figure_table_equals_the_row_wise_merge(figure_id):
    preset = FIGURE_PRESETS[figure_id]
    tables = [run_sweep(cfg) for cfg in preset.sweeps]
    materialised = [SimpleNamespace(columns=t.columns, rows=t.rows) for t in tables]
    columns, rows = reference_figure_table(preset, materialised)
    merged = figure_table(figure_id)
    assert merged.columns == columns
    assert merged.rows == rows
    assert merged.to_csv() == reference_to_csv(columns, rows)


def test_grid_equals_the_python_loop_bit_for_bit():
    rng = random.Random(20251019)
    counts = [1, 2, 100_000] + [rng.randint(3, 30_000) for _ in range(6)]
    for count in counts:
        start = rng.choice([0.0, rng.uniform(0.0, 10.0), 10.0 ** rng.uniform(-6.0, 6.0)])
        step = 10.0 ** rng.uniform(-4.0, 1.0)
        cfg = SweepConfig("ico_j0", (AtomicInversion(),), gT_start=start,
                          gT_stop=start + (count - 1) * step, gT_step=step)
        grid = grid_points(cfg)
        loop = [cfg.gT_start + i * cfg.gT_step for i in range(int(_whole_steps(cfg)) + 1)]
        assert abs(len(grid) - count) <= 1
        assert list(map(float.hex, grid)) == list(map(float.hex, loop)), (start, step, count)
        assert all(type(v) is float for v in grid)
