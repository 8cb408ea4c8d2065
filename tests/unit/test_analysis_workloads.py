"""Unit tests for the analysis/report helpers."""

import math

import pytest

from repro.analysis import fmt_ns, render_table


# ------------------------------------------------------------------ tables
def test_render_table_alignment_and_content():
    text = render_table("Title", ["A", "Long header"], [[1, "x"], [22, "yy"]])
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert lines[1] == "====="
    assert "Long header" in lines[2]
    assert lines[3].count("+") == 1
    # Columns are aligned: every data row has the separator at the same spot.
    sep_at = lines[2].index("|")
    assert all(line[sep_at] == "|" for line in lines[4:])


def test_render_table_widens_for_long_cells():
    text = render_table("T", ["c"], [["wide-cell-content"]])
    header_line = text.splitlines()[2]
    assert len(header_line) >= len("wide-cell-content")


def test_render_series_is_two_column_table():
    text = render_table("S", ["x", "y"], [(1, 2), (3, 4)])
    assert "x" in text and "y" in text and "3" in text


# ----------------------------------------------------------------- formats
@pytest.mark.parametrize("ns,expect", [
    (500, "500 ns"),
    (1_500, "1.5 us"),
    (2_500_000, "2.50 ms"),
    (3_000_000_000, "3.00 s"),
])
def test_fmt_ns_units(ns, expect):
    assert fmt_ns(ns) == expect


def test_fmt_ns_nan():
    assert fmt_ns(float("nan")) == "n/a"

