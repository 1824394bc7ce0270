"""Metric tests against an independent brute-force reranking oracle."""

import numpy as np
import pytest

from stylerec.errors import ContractError
from stylerec.metrics import (
    COLUMNS,
    FULL_CATALOG,
    NEGSAMPLE,
    MetricsReport,
    format_report_table,
    metrics_at_k,
    rank_of_truth,
)


def brute_force_rank(scores, ids, truth):
    """Oracle: materialize the sorted list and find the truth's position."""
    order = sorted(range(len(ids)), key=lambda j: (-scores[j], ids[j]))
    return 1 + [ids[j] for j in order].index(truth)


def brute_force_metrics(ranks, k):
    hr = sum(1 for r in ranks if r <= k) / len(ranks)
    ndcg = sum(1.0 / np.log2(r + 1) for r in ranks if r <= k) / len(ranks)
    mrr = sum(1.0 / r for r in ranks if r <= k) / len(ranks)
    return hr, ndcg, mrr


class TestRankOfTruth:
    def test_unique_max_is_rank_one(self):
        assert rank_of_truth([0.9, 0.1, 0.5], [7, 3, 5], 7) == 1

    def test_tie_with_lower_id_is_rank_two(self):
        assert rank_of_truth([0.5, 0.5, 0.1], [9, 2, 4], 9) == 2

    def test_tie_with_higher_id_stays_first(self):
        assert rank_of_truth([0.5, 0.5, 0.1], [2, 9, 4], 2) == 1

    def test_all_equal_smallest_id_wins(self):
        assert rank_of_truth([0.3, 0.3, 0.3], [1, 2, 3], 1) == 1
        assert rank_of_truth([0.3, 0.3, 0.3], [1, 2, 3], 3) == 3

    def test_truth_absent_rejected(self):
        with pytest.raises(ContractError):
            rank_of_truth([0.5, 0.2], [1, 2], 3)

    def test_duplicate_truth_rejected(self):
        with pytest.raises(ContractError):
            rank_of_truth([0.5, 0.2], [1, 1], 1)

    @pytest.mark.parametrize("scores, ids, message", [
        ([0.5, 0.2], [1], "scores (2,) and candidates (1,) must be 1-D and equal"),
        ([[0.5, 0.2]], [[1, 2]], "scores (1, 2) and candidates (1, 2) must be 1-D and equal"),
    ], ids=["lengths-differ", "2-d"])
    def test_refusal_names_its_fault(self, scores, ids, message):
        with pytest.raises(ContractError) as refused:
            rank_of_truth(scores, ids, 1)
        assert str(refused.value) == message

    def test_matches_brute_force_on_1000_instances(self):
        rng = np.random.default_rng(70)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            ids = rng.choice(np.arange(1, 200), size=n, replace=False)
            # coarse score grid forces frequent ties
            scores = rng.integers(0, 5, size=n) / 4.0
            truth = int(ids[rng.integers(n)])
            assert rank_of_truth(scores, ids, truth) == brute_force_rank(
                list(scores), list(ids), truth)


class TestMetricsAtK:
    def test_rank_one_is_perfect(self):
        assert metrics_at_k([1], 5) == (1.0, 1.0, 1.0)

    def test_rank_three_at_five(self):
        hr, ndcg, mrr = metrics_at_k([3], 5)
        assert hr == 1.0
        assert ndcg == pytest.approx(0.5)  # 1/log2(4)
        assert mrr == pytest.approx(1.0 / 3.0)

    def test_rank_beyond_window_scores_zero(self):
        assert metrics_at_k([7], 5) == (0.0, 0.0, 0.0)

    def test_matches_brute_force_on_1000_instances(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            ranks = rng.integers(1, 40, size=int(rng.integers(1, 50)))
            k = int(rng.choice([5, 10, 20]))
            ours = metrics_at_k(ranks, k)
            oracle = brute_force_metrics(list(ranks), k)
            assert ours == pytest.approx(oracle, abs=1e-12)

    def test_bad_ranks_rejected(self):
        with pytest.raises(ContractError):
            metrics_at_k([0, 2], 5)
        with pytest.raises(ContractError):
            metrics_at_k([], 5)


class TestReport:
    def test_monotone_in_k_and_metric_ordering(self):
        rng = np.random.default_rng(72)
        for _ in range(50):
            ranks = rng.integers(1, 30, size=40)
            rep = MetricsReport(mode=NEGSAMPLE, ranks=list(ranks))
            assert rep["HR@5"] <= rep["HR@10"] <= rep["HR@20"]
            for k in (5, 10, 20):
                assert rep[f"NDCG@{k}"] <= rep[f"HR@{k}"] + 1e-12
                assert rep[f"MRR@{k}"] <= rep[f"NDCG@{k}"] + 1e-12

    def test_mode_recorded_and_validated(self):
        assert MetricsReport(mode=FULL_CATALOG, ranks=[1]).mode == FULL_CATALOG
        with pytest.raises(ContractError):
            MetricsReport(mode="whatever", ranks=[1])

    def test_machine_lines_format(self):
        rep = MetricsReport(mode=NEGSAMPLE, ranks=[1, 2, 11])
        lines = rep.machine_lines("P+Style")
        assert len(lines) == 9
        assert lines[0].split() == ["P+Style", "negsample", "HR", "5",
                                    f"{rep['HR@5']:.6f}"]
        # metric-major order: HR block, then NDCG, then MRR
        metrics = [l.split()[2] for l in lines]
        assert metrics == ["HR"] * 3 + ["NDCG"] * 3 + ["MRR"] * 3

    def test_table_column_order(self):
        rep = MetricsReport(mode=NEGSAMPLE, ranks=[1, 3])
        table = format_report_table({"P": rep})
        header = table.splitlines()[0]
        positions = [header.index(c) for c in COLUMNS]
        assert positions == sorted(positions)
        assert COLUMNS[0] == "HR@5" and COLUMNS[-1] == "MRR@20"
        assert "P" in table.splitlines()[2]
