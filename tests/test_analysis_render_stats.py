"""Rendering and statistics helpers."""

import numpy as np
import pytest

from repro.analysis import (
    distribution_summary,
    format_table,
    render_core_map,
    render_dcm,
)
from repro.floorplan import Floorplan
from repro.mapping import DarkCoreMap


class TestRenderCoreMap:
    def test_numeric_grid(self):
        fp = Floorplan(2, 2)
        out = render_core_map(fp, np.array([1.0, 2.0, 3.0, 4.0]), fmt="{:4.1f}")
        lines = out.splitlines()
        assert len(lines) == 2
        assert "1.0" in lines[0] and "4.0" in lines[1]

    def test_title(self):
        fp = Floorplan(2, 2)
        out = render_core_map(fp, np.zeros(4), title="Map")
        assert out.splitlines()[0] == "Map"

    def test_shade_mode_scale_line(self):
        fp = Floorplan(2, 2)
        out = render_core_map(fp, np.array([0.0, 1.0, 2.0, 3.0]), shades=True)
        assert "scale:" in out.splitlines()[-1]

    def test_shade_extremes(self):
        fp = Floorplan(1, 2)
        out = render_core_map(fp, np.array([0.0, 1.0]), shades=True)
        row = out.splitlines()[0]
        assert row.startswith("  ")  # minimum renders as spaces
        assert "@@" in row

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            render_core_map(Floorplan(2, 2), np.zeros(3))


class TestRenderDCM:
    def test_symbols(self):
        fp = Floorplan(2, 2)
        dcm = DarkCoreMap(np.array([True, False, False, True]))
        out = render_dcm(fp, dcm)
        assert out.splitlines()[0] == "[] .."
        assert out.splitlines()[1] == ".. []"


class TestStats:
    def test_summary_values(self):
        s = distribution_summary(np.array([1.0, 2.0, 3.0, 4.0]))
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert s.count == 4

    def test_summary_rejects_empty(self):
        with pytest.raises(ValueError):
            distribution_summary(np.array([]))

    def test_row_formatting(self):
        s = distribution_summary(np.array([1.0, 2.0]))
        assert len(s.row()) == 8


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        header, sep, r1, r2 = lines
        assert len(header) == len(sep) == len(r1) == len(r2)

    def test_title(self):
        out = format_table(["x"], [["1"]], title="T")
        assert out.splitlines()[0] == "T"

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["1"]])

    def test_empty_rows_ok(self):
        out = format_table(["a"], [])
        assert "a" in out
