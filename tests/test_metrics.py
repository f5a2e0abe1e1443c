"""Unit tests for the clustering agreement metrics."""

import itertools
import math

import numpy as np
import pytest

from dpgibbs.metrics import ContingencyTable, acc, ari, metrics_report, nmi

from _oracles import validate_contingency


def brute_force_acc(predicted, truth):
    """Enumerate injective mappings of the smaller label set into the larger."""
    table = ContingencyTable.from_labels(predicted, truth)
    counts = table.counts
    k1, k2 = counts.shape
    if k1 > k2:
        counts = counts.T
        k1, k2 = k2, k1
    best = 0
    for perm in itertools.permutations(range(k2), k1):
        best = max(best, sum(counts[i, perm[i]] for i in range(k1)))
    return best / table.n


class TestContingency:
    def test_marginals_consistent(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 30)
        b = rng.integers(0, 3, 30)
        validate_contingency(ContingencyTable.from_labels(a, b))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable.from_labels([0, 1], [0, 1, 2])


class TestAri:
    def test_identical_labelings(self):
        assert ari([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_permutation_invariance(self):
        assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_hand_value_minus_half(self):
        assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5

    def test_symmetry_and_relabeling(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.integers(0, 4, 20)
            b = rng.integers(0, 5, 20)
            assert math.isclose(ari(a, b), ari(b, a), rel_tol=1e-12)
            shuffled = (a + 7) % 11  # injective relabeling of a's values
            assert math.isclose(ari(a, b), ari(shuffled, b), rel_tol=1e-12)

    def test_agrees_with_sklearn(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = rng.integers(0, 6, 40)
            b = rng.integers(0, 4, 40)
            assert math.isclose(
                ari(a, b), sklearn_metrics.adjusted_rand_score(a, b), rel_tol=1e-10,
                abs_tol=1e-12,
            )


class TestNmi:
    def test_identical_nontrivial(self):
        assert math.isclose(nmi([0, 0, 1, 1], [0, 0, 1, 1]), 1.0, rel_tol=1e-12)

    def test_independent_labelings(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_both_trivial_convention(self):
        assert nmi([0, 0, 0], [5, 5, 5]) == 1.0

    def test_one_trivial(self):
        assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0

    def test_agrees_with_sklearn_arithmetic(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.integers(0, 5, 40)
            b = rng.integers(0, 3, 40)
            expected = sklearn_metrics.normalized_mutual_info_score(
                a, b, average_method="arithmetic"
            )
            assert math.isclose(nmi(a, b), expected, rel_tol=1e-9, abs_tol=1e-12)


class TestAcc:
    def test_identical(self):
        assert acc([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_relabeled(self):
        assert acc([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_hand_value_three_quarters(self):
        assert math.isclose(acc([0, 0, 0, 1], [0, 0, 1, 1]), 0.75, rel_tol=1e-12)

    def test_hungarian_equals_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k1 = int(rng.integers(1, 7))
            k2 = int(rng.integers(1, 7))
            n = int(rng.integers(4, 13))
            a = rng.integers(0, k1, n)
            b = rng.integers(0, k2, n)
            assert math.isclose(acc(a, b), brute_force_acc(a, b), rel_tol=1e-12)

    def test_symmetric_after_padding(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = rng.integers(0, 5, 12)
            b = rng.integers(0, 3, 12)
            assert math.isclose(acc(a, b), acc(b, a), rel_tol=1e-12)


class TestReport:
    def test_flat_keys(self):
        report = metrics_report([0, 0, 1, 1], [0, 0, 1, 2])
        assert set(report) == {
            "ari",
            "nmi",
            "acc",
            "num_clusters_pred",
            "num_clusters_true",
            "nmi_normalization",
        }
        assert report["num_clusters_pred"] == 2
        assert report["num_clusters_true"] == 3
