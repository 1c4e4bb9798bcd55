"""Smoke tests: every table/figure module runs and formats at tiny size.

The paper's claims are rows of ``repro.bench.fidelity``, scored by
``python -m repro.bench`` at the report's sizes; these tests only
establish that each artifact's ``run``/``format`` pipeline is
healthy, quickly enough for the unit-test suite.
"""

import pytest

from repro.bench import (fidelity, fig2, fig3, fig4, fig5, fig6, table1,
                         table2, table3, table4, table5)


def test_fig2_pipeline():
    result = fig2.run(iterations=3)
    text = fig2.format_result(result)
    assert "Figure 2" in text
    assert "Ping" in text


def test_table1_pipeline():
    result = table1.run(count=50)
    text = table1.format_result(result)
    assert "J-Machine (measured)" in text
    assert result.measured.cycles_per_msg > 0


def test_fig3_pipeline():
    result = fig3.run(warmup_cycles=500, measure_cycles=1000,
                      lengths=(2, 8), idles=(0, 800))
    latency_text = fig3.format_latency_table(result)
    efficiency_text = fig3.format_efficiency_table(result)
    assert "bisection" in latency_text.lower()
    assert "efficiency" in efficiency_text.lower()


def test_fig4_pipeline():
    result = fig4.run(sizes=(2, 8))
    text = fig4.format_result(result)
    assert "Figure 4" in text
    assert result.fraction_of_peak("discard", 8) > 0.5


def test_table2_pipeline():
    result = table2.run()
    assert all(row.accepts(value)
               for row, value in fidelity.score("table2", result))
    assert "exact match" in table2.format_result(result)


def test_table3_pipeline():
    result = table3.run(barriers=3, max_nodes=8)
    text = table3.format_result(result)
    assert set(result.measured_us) == {2, 4, 8}
    assert "IPSC/860" in text


def test_fig5_pipeline():
    result = fig5.run(max_nodes=4, apps=("lcs", "nqueens"))
    text = fig5.format_result(result)
    assert "speedup" in text
    assert result.speedup("lcs", 4) > 1


def test_fig6_pipeline():
    result = fig6.run(n_nodes=8)
    text = fig6.format_result(result)
    assert set(result.breakdowns) == {"lcs", "nqueens", "radix_sort", "tsp"}
    assert "idle %" in text


def test_table4_pipeline():
    result = table4.run(n_nodes=8)
    text = table4.format_result(result)
    assert "NxtChar" in text
    assert "WriteData" in text


def test_table5_pipeline():
    result = table5.run(n_nodes=4)
    text = table5.format_result(result)
    assert "xlates" in text
    assert result.result.extra["user_threads"] > 0
