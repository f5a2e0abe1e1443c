"""External clustering agreement metrics: ARI, NMI, clustering accuracy.

All three are computed from the contingency table of two labelings and are
invariant to relabeling of either argument.  NMI uses natural logs with
arithmetic-mean normalization; accuracy solves the label matching exactly as a
linear assignment on the zero-padded square contingency table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NMI_NORMALIZATION = "arithmetic_mean"


@dataclass(frozen=True)
class ContingencyTable:
    counts: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray
    n: int

    @classmethod
    def from_labels(cls, a, b):
        a = np.asarray(a).reshape(-1)
        b = np.asarray(b).reshape(-1)
        if a.shape[0] != b.shape[0]:
            raise ValueError(
                "label vectors differ in length: %d vs %d" % (a.shape[0], b.shape[0])
            )
        _, ai = np.unique(a, return_inverse=True)
        _, bi = np.unique(b, return_inverse=True)
        k1 = int(ai.max()) + 1 if ai.size else 0
        k2 = int(bi.max()) + 1 if bi.size else 0
        counts = np.zeros((k1, k2), dtype=np.int64)
        np.add.at(counts, (ai, bi), 1)
        return cls(
            counts=counts,
            row_sums=counts.sum(axis=1),
            col_sums=counts.sum(axis=0),
            n=int(a.shape[0]),
        )


def _pairs(x):
    """Exact number of co-clustered pairs, as an arbitrary-precision int."""
    return sum(int(m) * (int(m) - 1) // 2 for m in np.asarray(x).reshape(-1))


def ari(a, b):
    """Adjusted Rand index in [-1, 1].

    The index is a ratio of integers, so numerator and denominator are
    accumulated exactly and divided once; hand-checkable values such as
    -0.5 therefore come out exact.
    """
    table = ContingencyTable.from_labels(a, b)
    if table.n < 2:
        raise ValueError("ari needs at least 2 points")
    index = _pairs(table.counts)
    pairs_a = _pairs(table.row_sums)
    pairs_b = _pairs(table.col_sums)
    total = int(table.n) * (int(table.n) - 1) // 2
    # (index - expected) / (max - expected), multiplied through by 2 * total.
    numerator = 2 * (index * total - pairs_a * pairs_b)
    denominator = (pairs_a + pairs_b) * total - 2 * pairs_a * pairs_b
    if denominator == 0:
        return 1.0
    return numerator / denominator


def _entropy(marginals, n):
    p = marginals[marginals > 0].astype(np.float64) / n
    return float(-(p * np.log(p)).sum())


def nmi(a, b):
    """Normalized mutual information, I(a;b) / mean(H(a), H(b)), natural logs.

    Both-partitions-trivial (zero entropy on both sides) is defined as 1.0.
    """
    table = ContingencyTable.from_labels(a, b)
    if table.n < 1:
        raise ValueError("nmi needs at least 1 point")
    h_a = _entropy(table.row_sums, table.n)
    h_b = _entropy(table.col_sums, table.n)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    nz = table.counts > 0
    joint = table.counts[nz].astype(np.float64) / table.n
    outer = (
        table.row_sums[:, None].astype(np.float64)
        * table.col_sums[None, :].astype(np.float64)
    )[nz] / (table.n * table.n)
    info = float((joint * np.log(joint / outer)).sum())
    value = info / (0.5 * (h_a + h_b))
    return float(min(max(value, 0.0), 1.0))


def acc(predicted, truth):
    """Clustering accuracy: best fraction matched under an injective relabeling."""
    # The only SciPy import in the package: a fit without ground truth never loads it.
    from scipy.optimize import linear_sum_assignment

    table = ContingencyTable.from_labels(predicted, truth)
    k = max(table.counts.shape)
    square = np.zeros((k, k), dtype=np.int64)
    square[: table.counts.shape[0], : table.counts.shape[1]] = table.counts
    rows, cols = linear_sum_assignment(square, maximize=True)
    return float(square[rows, cols].sum() / table.n)


def metrics_report(predicted, truth):
    """Flat metrics dict for serialization."""
    predicted = np.asarray(predicted).reshape(-1)
    truth = np.asarray(truth).reshape(-1)
    return {
        "ari": ari(predicted, truth),
        "nmi": nmi(predicted, truth),
        "acc": acc(predicted, truth),
        "num_clusters_pred": int(np.unique(predicted).size),
        "num_clusters_true": int(np.unique(truth).size),
        "nmi_normalization": NMI_NORMALIZATION,
    }
