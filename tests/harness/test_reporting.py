"""Tests for the harness result containers and table rendering."""

import pytest

from repro.harness import ExperimentResult, format_table


class TestFormatTable:
    def test_basic_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "22" in lines[3] or "22" in lines[2]

    def test_missing_values_render_as_dash(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3.5}])
        assert "-" in text

    def test_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_float_formatting(self):
        text = format_table([{"x": 1.23456789e-7, "y": 0.25, "z": True}])
        assert "1.235e-07" in text
        assert "0.25" in text
        assert "yes" in text


class TestExperimentResult:
    def test_add_row_and_to_text(self):
        result = ExperimentResult(experiment="figX", title="demo", paper_reference="ref")
        result.add_row(size=28, time=1.0)
        result.add_row(size=128, time=2.0)
        result.add_note("a note")
        text = result.to_text()
        assert "figX" in text
        assert "ref" in text
        assert "a note" in text
        assert result.rows == [{"size": 28, "time": 1.0}, {"size": 128, "time": 2.0}]
