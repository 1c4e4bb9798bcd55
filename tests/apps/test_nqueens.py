"""Tests for the N-Queens application."""

import pytest

from repro.apps.base import speedup
from repro.apps.nqueens import (KNOWN_COUNTS, NQueensParams, choose_depth,
                                expand_boards, run_parallel, run_sequential,
                                solve_count)


class TestSolver:
    @pytest.mark.parametrize("n,expected", [
        (1, 1), (2, 0), (3, 0), (4, 2), (5, 10), (6, 4), (7, 40),
        (8, 92), (9, 352), (10, 724),
    ])
    def test_known_counts(self, n, expected):
        solutions, _ = solve_count(n, 0, 0, 0, 0)
        assert solutions == expected

    def test_node_count_positive(self):
        _, nodes = solve_count(6, 0, 0, 0, 0)
        assert nodes > 6

    def test_expand_boards_first_level(self):
        boards, expansions = expand_boards(8, 1)
        assert len(boards) == 8
        assert expansions == 1

    def test_expand_boards_prunes_conflicts(self):
        # Depth-2 boards exclude same-column and adjacent-diagonal pairs.
        boards, expansions = expand_boards(8, 2)
        assert len(boards) == 8 * 7 - 2 * 7  # 42
        assert expansions == 1 + 8  # the root, then each first-row board

    def test_expansion_covers_solution_space(self):
        """Solutions summed over depth-2 subtrees equal the total."""
        n = 7
        total = 0
        for cols, ld, rd in expand_boards(n, 2)[0]:
            s, _ = solve_count(n, cols, ld, rd, 2)
            total += s
        assert total == KNOWN_COUNTS[n]


class TestDepthChoice:
    def test_more_nodes_more_depth(self):
        shallow = choose_depth(10, 1, 16)
        deep = choose_depth(10, 64, 16)
        assert deep > shallow

    def test_enough_tasks(self):
        depth = choose_depth(12, 16, 16)
        assert len(expand_boards(12, depth)[0]) >= 16 * 16


class TestParallel:
    @pytest.mark.parametrize("n_nodes", [1, 2, 4, 8, 16])
    def test_count_correct_at_any_size(self, n_nodes):
        params = NQueensParams(n=8)
        assert run_parallel(n_nodes, params).output == 92

    def test_larger_problem(self):
        assert run_parallel(8, NQueensParams(n=10)).output == 724

    def test_sequential_matches(self):
        assert run_sequential(NQueensParams(n=9)).output == 352

    def test_task_count_tracks_target(self):
        result = run_parallel(8, NQueensParams(n=10, tasks_per_node=8))
        tasks = result.handler_stats["NQueens"].invocations
        assert tasks >= 8 * 8

    def test_message_lengths(self):
        result = run_parallel(4, NQueensParams(n=8))
        assert result.handler_stats["NQueens"].mean_message_words == 8
        assert result.handler_stats["NQDone"].mean_message_words == 3

    def test_speedup_grows(self):
        params = NQueensParams(n=10)
        seq = run_sequential(params)
        s2 = speedup(seq, run_parallel(2, params))
        s8 = speedup(seq, run_parallel(8, params))
        assert s8 > s2 > 1.2

    def test_idle_from_static_imbalance(self):
        """Coarse unequal tasks leave nodes idle (paper: ~15% at 64)."""
        result = run_parallel(16, NQueensParams(n=10))
        assert result.breakdown["idle"] > 0.02
