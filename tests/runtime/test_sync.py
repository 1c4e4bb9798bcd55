"""Tests for the Table 2 synchronization-cost measurement."""

from repro.runtime.sync import measure_sync_costs


def test_tags_column_matches_paper_exactly():
    costs = measure_sync_costs()
    assert costs.tags_success == 2
    assert costs.tags_failure == 6
    assert costs.tags_write == 4


def test_no_tags_column_matches_paper_exactly():
    costs = measure_sync_costs()
    assert costs.flag_success == 5
    assert costs.flag_failure == 7
    assert costs.flag_write == 6


def test_tags_beat_flags_on_every_event():
    costs = measure_sync_costs()
    assert costs.tags_success < costs.flag_success
    assert costs.tags_failure < costs.flag_failure
    assert costs.tags_write < costs.flag_write
