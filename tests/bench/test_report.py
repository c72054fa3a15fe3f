"""Unit tests for the bench result containers and renderers."""

import pytest

from repro.bench.report import ExperimentResult, fmt_ops, format_table, \
    summarize, write_markdown


class TestExperimentResult:
    def test_add_and_column(self):
        r = ExperimentResult("figX", "test")
        r.add(system="a", ops=1)
        r.add(system="b", ops=2)
        assert r.column("ops") == [1, 2]

    def test_where_and_value(self):
        r = ExperimentResult("figX", "test")
        r.add(system="a", depth=3, ops=10)
        r.add(system="a", depth=6, ops=5)
        assert r.value("ops", system="a", depth=6) == 5
        assert len(r.where(system="a")) == 2

    def test_value_ambiguous_raises(self):
        r = ExperimentResult("figX", "test")
        r.add(system="a", ops=1)
        r.add(system="a", ops=2)
        with pytest.raises(KeyError):
            r.value("ops", system="a")

    def test_render_contains_rows_and_notes(self):
        r = ExperimentResult("figX", "My Title")
        r.add(system="abc", ops=123)
        r.note("a note")
        text = r.render()
        assert "figX" in text and "My Title" in text
        assert "abc" in text and "123" in text
        assert "a note" in text


class TestFormatting:
    def test_empty_table(self):
        assert format_table([]) == "(no rows)"

    def test_ragged_rows(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_fmt_ops_scales(self):
        assert fmt_ops(1_500_000) == "1.50M"
        assert fmt_ops(12_300) == "12.3K"
        assert fmt_ops(42.0) == "42.0"

    def test_write_markdown(self, tmp_path):
        r = ExperimentResult("figX", "title")
        r.add(a=1, b=2.5)
        r.note("note text")
        out = tmp_path / "report.md"
        write_markdown([r], str(out))
        content = out.read_text()
        assert "## figX" in content
        assert "| a | b |" in content
        assert "note text" in content


class TestSummarize:
    def test_empty_is_all_zero(self):
        assert summarize([]) == {"mean": 0.0, "p50": 0.0, "p99": 0.0,
                                 "max": 0.0}

    def test_exact_percentiles(self):
        s = summarize([float(v) for v in range(1, 101)])
        assert s["mean"] == pytest.approx(50.5)
        assert s["p50"] == pytest.approx(50.5)
        assert s["p99"] == pytest.approx(99.01)
        assert s["max"] == 100.0
