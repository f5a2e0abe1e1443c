"""Unit tests for shard-local worker operations."""

import numpy as np
import pytest

from dpgibbs.metrics import ari
from dpgibbs.niw import (
    ModelHyperParams,
    NiwParams,
    default_prior,
    stats_from_points,
    stats_merge,
)
from dpgibbs.worker import WorkerState, apply_global_labels, summarize, worker_sweep

from _oracles import state_from_labels


def shard_hyper(data, alpha=1.0):
    return ModelHyperParams(alpha=alpha, prior=default_prior(data))


def separated_shard(n=80, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    data = np.vstack(
        [rng.standard_normal((half, 2)) - [8.0, 0.0], rng.standard_normal((n - half, 2)) + [8.0, 0.0]]
    )
    truth = np.repeat([0, 1], [half, n - half])
    return data, truth


class TestWorkerSweep:
    def test_single_point_shard(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = WorkerState.single_cluster(0, data[:1], shard_hyper(data))
        for seed in range(4):
            w = worker_sweep(w, np.random.default_rng(seed))
            assert w.local.num_clusters == 1

    def test_recovers_separated_components(self):
        # Individual samples may carry a transient singleton, so assert on
        # the posterior mode: most post-burn-in sweeps sit exactly on the
        # two-component truth and none drift far from it.
        data, truth = separated_shard(80, seed=1)
        w = WorkerState.single_cluster(3, data, shard_hyper(data))
        rng = np.random.default_rng(2)
        tail = []
        for sweep in range(60):
            w = worker_sweep(w, rng)
            if sweep >= 20:
                tail.append(ari(w.local.labels, truth))
        assert sum(v == 1.0 for v in tail) >= len(tail) // 2
        assert min(tail) >= 0.8

    def test_identical_shards_and_streams_give_identical_summaries(self):
        data, _ = separated_shard(40, seed=3)
        hyper = shard_hyper(data)
        a = WorkerState.single_cluster(0, data, hyper)
        b = WorkerState.single_cluster(1, data, hyper)
        a = worker_sweep(a, np.random.default_rng(9))
        b = worker_sweep(b, np.random.default_rng(9))
        sa, sb = summarize(a), summarize(b)
        assert len(sa.clusters) == len(sb.clusters)
        for ea, eb in zip(sa.clusters, sb.clusters):
            assert ea.local_label == eb.local_label
            assert ea.previous == eb.previous
            assert ea.stats.n == eb.stats.n
            assert np.array_equal(ea.stats.sum, eb.stats.sum)

    def test_conservation_across_sweeps(self):
        data, _ = separated_shard(50, seed=4)
        w = WorkerState.single_cluster(0, data, shard_hyper(data))
        rng = np.random.default_rng(5)
        for _ in range(5):
            w = worker_sweep(w, rng)
            assert sum(e.stats.n for e in summarize(w).clusters) == 50


class TestSummarize:
    def test_one_cluster_shard(self):
        data, _ = separated_shard(30, seed=6)
        w = WorkerState.single_cluster(2, data, shard_hyper(data))
        summary = summarize(w)
        assert len(summary.clusters) == 1
        assert summary.clusters[0].stats.n == 30
        assert summary.clusters[0].previous is None
        assert summary.worker_id == 2

    def test_entry_stats_match_direct_recomputation(self):
        data, _ = separated_shard(60, seed=7)
        w = WorkerState.single_cluster(0, data, shard_hyper(data))
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = worker_sweep(w, rng)
        summary = summarize(w)
        for entry in summary.clusters:
            members = data[w.local.labels == entry.local_label]
            ref = stats_from_points(members)
            assert entry.stats.n == ref.n
            assert np.allclose(entry.stats.sum, ref.sum, rtol=1e-10)
            assert np.allclose(entry.stats.sum_outer, ref.sum_outer, rtol=1e-10)

    def test_summary_round_trip_merges_to_whole_shard(self):
        data, _ = separated_shard(60, seed=9)
        w = WorkerState.single_cluster(0, data, shard_hyper(data))
        rng = np.random.default_rng(10)
        for _ in range(5):
            w = worker_sweep(w, rng)
        merged = stats_merge([e.stats for e in summarize(w).clusters])
        whole = stats_from_points(data)
        assert merged.n == whole.n
        assert np.allclose(merged.sum, whole.sum, rtol=1e-10)
        assert np.allclose(merged.sum_outer, whole.sum_outer, rtol=1e-10)


def _worker_with_k_clusters(seed=11, n=60):
    data, _ = separated_shard(n, seed=seed)
    w = WorkerState.single_cluster(0, data, shard_hyper(data))
    rng = np.random.default_rng(seed + 1)
    for _ in range(15):
        w = worker_sweep(w, rng)
    return w


class TestApplyGlobalLabels:
    def test_identity_map_preserves_partition(self):
        w = _worker_with_k_clusters()
        labels, clusters = w.local.labels.copy(), set(w.local.clusters)
        out = apply_global_labels(w, {h: h for h in clusters})
        assert np.array_equal(out.local.labels, labels)
        assert set(out.local.clusters) == clusters

    def test_merging_two_clusters(self):
        w = _worker_with_k_clusters()
        k = w.local.num_clusters
        if k < 2:
            pytest.skip("fixture did not split; adjust seed")
        # Map the first two local clusters to the same global id, the rest
        # to distinct ones.
        clusters = w.local.clusters
        first, second, *rest = sorted(clusters)
        label_map = {first: 100, second: 100}
        label_map.update({h: i for i, h in enumerate(rest)})
        out = apply_global_labels(w, label_map)
        assert out.local.num_clusters == k - 1
        merged = stats_merge([clusters[first], clusters[second]])
        got = out.local.clusters[100]
        assert got.n == merged.n
        assert np.array_equal(got.sum, merged.sum)
        assert np.array_equal(got.sum_outer, merged.sum_outer)

    def test_apply_is_a_coarsening(self):
        w = _worker_with_k_clusters(seed=13)
        k = w.local.num_clusters
        rng = np.random.default_rng(14)
        targets = rng.integers(0, max(1, k - 1), k)  # random merges
        labels, clusters = w.local.labels.copy(), sorted(w.local.clusters)
        out = apply_global_labels(w, {h: int(g) for h, g in zip(clusters, targets)})
        for h in clusters:
            downstream = out.local.labels[labels == h]
            assert np.unique(downstream).size == 1

    def test_missing_entry_rejected(self):
        w = _worker_with_k_clusters()
        labels = sorted(w.local.clusters)
        with pytest.raises(ValueError):
            apply_global_labels(w, {labels[0]: 0} if len(labels) > 1 else {})
        # Unknown local label in the map is also an error.
        label_map = {h: h for h in labels}
        label_map[max(labels) + 5] = 1
        with pytest.raises(ValueError):
            apply_global_labels(w, label_map)

    def test_global_label_vector_matches_map(self):
        """After an apply the local labels are the global ids of the map."""
        w = _worker_with_k_clusters(seed=15)
        labels, clusters = w.local.labels.copy(), sorted(w.local.clusters)
        out = apply_global_labels(w, {h: h + 40 for h in clusters})
        assert np.array_equal(out.local.labels, labels + 40)
        assert sorted(out.local.clusters) == [h + 40 for h in clusters]


class TestPreviousGlobalIds:
    def test_survivors_keep_their_global_id_and_a_newborn_has_none(self):
        """One local cluster empties and another is born in the same sweep.

        Global cluster 5 is a lone point beside cluster 9, which it joins;
        an outlier in cluster 3 leaves it for a cluster of its own.  The
        survivors must report their own global ids, not the ids of the
        clusters numbered below them, and the newborn must report none.
        """
        rng = np.random.default_rng(40)
        data = np.vstack([
            rng.standard_normal((20, 2)) + [-10.0, 0.0],
            [[0.0, 40.0]],
            [[10.0, 0.0]],
            rng.standard_normal((20, 2)) + [10.0, 0.0],
        ])
        local = np.repeat([0, 0, 1, 2], [20, 1, 1, 20])
        hyper = ModelHyperParams(
            alpha=1.0, prior=NiwParams(mu=np.zeros(2), kappa=1.0, nu=3.0, psi=np.eye(2))
        )
        w = WorkerState(0, data, state_from_labels(data, local, hyper))
        w = apply_global_labels(w, {0: 3, 1: 5, 2: 9})
        assert [e.previous for e in summarize(w).clusters] == [3, 5, 9]

        w = worker_sweep(w, np.random.default_rng(41))
        assert w.local.labels[20] not in (3, 5, 9)  # the outlier left for a new cluster
        assert w.local.labels[21] == 9  # global cluster 5 emptied into 9
        entries = {e.local_label: e.previous for e in summarize(w).clusters}
        assert entries == {3: 3, 9: 9, int(w.local.labels[20]): None}
        for entry in summarize(w).clusters:
            ref = stats_from_points(data[w.local.labels == entry.local_label])
            assert entry.stats.n == ref.n
            assert np.allclose(entry.stats.sum, ref.sum, rtol=1e-12)
