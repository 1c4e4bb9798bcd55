"""The paper scorecard: verdicts, what the rows point at, and real runs."""

import pathlib
import re

import pytest

from repro.bench import fidelity
from repro.bench.__main__ import ARTIFACTS, main
from repro.bench.fidelity import HOLDS, INF, Row, format_scorecard

ROOT = pathlib.Path(__file__).parents[2]


def _row(band=(1, 2), measure=lambda result: 1.5, **kwargs):
    return Row("table2", "Table 2", "a claim", measure, band, "a reason",
               **kwargs)


class TestVerdict:
    def test_in_band(self):
        row = _row()
        assert row.accepts(1.5) and row.accepts(1) and row.accepts(2)
        assert "1/1 rows in band" in format_scorecard([(row, 1.5)])

    def test_out_of_band(self):
        row = _row()
        assert not row.accepts(2.5) and not row.accepts(0.5)
        text = format_scorecard([(row, 2.5)])
        assert " OUT" in text and "0/1 rows in band" in text

    def test_exact_band(self):
        row = _row(0, paper=12)  # a zero fraction of the paper's value
        assert row.bounds == (12, 12)
        assert row.accepts(12) and not row.accepts(13)
        assert "= 12" in format_scorecard([(row, 12)])

    def test_strict_band_excludes_its_ends(self):
        # An ablation that stops having any effect gives a ratio of exactly 1.
        row = _row((0, 1), strict=True)
        assert row.accepts(0.9) and not row.accepts(1) and not row.accepts(0)
        assert "0 < x < 1" in format_scorecard([(row, 0.9)])
        assert "> 1" in format_scorecard([(_row((1, INF), strict=True), 2)])
        assert ">= 1" in format_scorecard([(_row((1, INF)), 2)])

    def test_qualitative_row(self):
        row = _row(HOLDS)
        assert row.accepts(True) and not row.accepts(False)
        text = format_scorecard([(row, True)])
        assert "holds" in text and "yes" in text

    def test_paper_scale_row_skipped_at_small_scale(self, monkeypatch):
        monkeypatch.setenv("JM_SCALE", "small")
        row = _row(measure=lambda result: 1 / 0, paper_scale=True)
        monkeypatch.setattr(fidelity, "ROWS", (row,))
        assert fidelity.score("table2", None) == [(row, None)]
        assert row.accepts(None)
        text = format_scorecard([(row, None)])
        assert "skipped" in text and "0/0 rows in band, 1 skipped" in text

    def test_mean_error_over_rows_with_a_paper_value(self):
        scores = [(_row(paper=2.0), 1.5), (_row(), 1.5)]
        assert "mean error vs the paper 25.0% over 1 rows" \
            in format_scorecard(scores)


def test_every_row_names_an_artifact_and_a_section():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    headings = re.findall(r"^## (.+)$", experiments, flags=re.M)
    for row in fidelity.ROWS:
        assert row.artifact in ARTIFACTS, row.claim
        assert any(h.startswith(row.section) for h in headings), row.section
        assert row.reason, row.claim


@pytest.mark.parametrize("artifact",
                         ["fig2", "table1", "table2", "table3", "fig4"])
def test_cheap_artifacts_pass_at_small_scale(artifact, monkeypatch):
    monkeypatch.setenv("JM_SCALE", "small")
    run, _ = ARTIFACTS[artifact]
    scores = fidelity.score(artifact, run())
    assert scores
    assert [(row.claim, value) for row, value in scores
            if not row.accepts(value)] == []


def test_failing_row_still_writes_the_report(tmp_path, monkeypatch):
    broken = Row("table2", "Table 2", "deliberately impossible",
                 lambda result: 0, HOLDS, "a reason")
    monkeypatch.setattr(fidelity, "ROWS", fidelity.ROWS + (broken,))
    out = tmp_path / "report.md"
    assert main(["table2", "--out", str(out)]) == 1
    text = out.read_text()
    assert "Table 2: synchronization cycles" in text
    assert "deliberately impossible" in text
    assert "6/7 rows in band" in text


def test_unknown_artifact_is_refused(capsys):
    assert main(["summary"]) == 2
    assert "unknown artifact(s) summary" in capsys.readouterr().err
