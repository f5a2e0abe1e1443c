"""Unit tests for master-level batch reassignment."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from dpgibbs.gibbs import PartitionState, log_joint, sample_log_weights
from dpgibbs.master import (
    GlobalLabelMap,
    GlobalState,
    global_log_joint,
    master_sweep,
)
from dpgibbs.metrics import ari
from dpgibbs.niw import (
    ModelHyperParams,
    NiwParams,
    log_marginal,
    log_posterior_predictive,
    log_prior_predictive,
    stats_from_points,
    stats_merge,
)
from dpgibbs.worker import ClusterSummary, WorkerState, WorkerSummary, global_label_vector


def make_hyper(d=2, alpha=1.0, scale=1.0):
    return ModelHyperParams(
        alpha=alpha,
        prior=NiwParams(mu=np.zeros(d), kappa=1.0, nu=d + 1.0, psi=scale * np.eye(d)),
    )


def summary_of(worker_id, batches):
    """batches: list of (n, d) arrays, one per local cluster."""
    return WorkerSummary(
        worker_id=worker_id,
        clusters=tuple(
            ClusterSummary(h, pts.shape[0], stats_from_points(pts))
            for h, pts in enumerate(batches)
        ),
    )


class TestMasterSweep:
    def test_single_batch_empty_state_opens_cluster_zero(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((5, 2))
        out = master_sweep([summary_of(0, [pts])], make_hyper(), rng)
        assert out.assignments == {(0, 0): 0}
        assert out.num_clusters == 1
        assert out.clusters[0].n == 5

    def test_tight_identical_batches_co_cluster(self):
        rng = np.random.default_rng(1)
        mean = np.array([3.0, -1.0])
        a = mean + 0.01 * rng.standard_normal((50, 2))
        b = mean + 0.01 * rng.standard_normal((50, 2))
        hyper = make_hyper(scale=25.0)  # wide prior scale, tight batches
        sa, sb = stats_from_points(a), stats_from_points(b)
        w_join = math.log(sa.n) + log_posterior_predictive(sb, sa, hyper.prior)
        w_new = math.log(hyper.alpha) + log_prior_predictive(sb, hyper.prior)
        p_join = math.exp(w_join - logsumexp([w_join, w_new]))
        assert p_join > 0.99
        out = master_sweep(
            [summary_of(0, [a, b])], hyper, np.random.default_rng(2), order=[0, 1]
        )
        assert out.assignments[(0, 0)] == out.assignments[(0, 1)]
        assert out.num_clusters == 1

    def test_fixed_seed_deterministic(self):
        rng_data = np.random.default_rng(3)
        summaries = [
            summary_of(j, [rng_data.standard_normal((4, 2)) + 5 * j for _ in range(3)])
            for j in range(3)
        ]
        a = master_sweep(summaries, make_hyper(), np.random.default_rng(7))
        b = master_sweep(summaries, make_hyper(), np.random.default_rng(7))
        assert a.assignments == b.assignments

    def test_stats_conservation(self):
        rng = np.random.default_rng(4)
        summaries = [
            summary_of(j, [rng.standard_normal((int(rng.integers(1, 8)), 2)) for _ in range(4)])
            for j in range(3)
        ]
        out = master_sweep(summaries, make_hyper(), np.random.default_rng(5))
        all_batches = [e.stats for s in summaries for e in s.clusters]
        merged_in = stats_merge(all_batches)
        merged_out = stats_merge(list(out.clusters.values()))
        assert merged_in.n == merged_out.n
        assert np.allclose(merged_in.sum, merged_out.sum, rtol=1e-10)
        assert np.allclose(merged_in.sum_outer, merged_out.sum_outer, rtol=1e-10)
        # Per-cluster stats equal the merge of their assigned batches.
        by_cluster = {}
        for s in summaries:
            for e in s.clusters:
                g = out.assignments[(s.worker_id, e.local_label)]
                by_cluster.setdefault(g, []).append(e.stats)
        for g, parts in by_cluster.items():
            ref = stats_merge(parts)
            assert out.clusters[g].n == ref.n
            assert np.allclose(out.clusters[g].sum_outer, ref.sum_outer, rtol=1e-10)

    def test_weights_match_marginal_ratio_identity(self):
        """Two-batch hand replay: recorded weights equal the ratio route."""
        rng = np.random.default_rng(6)
        b0 = rng.standard_normal((6, 2))
        b1 = rng.standard_normal((4, 2)) + 0.5
        hyper = make_hyper()
        s0, s1 = stats_from_points(b0), stats_from_points(b1)
        log = []
        master_sweep(
            [summary_of(0, [b0, b1])], hyper, np.random.default_rng(8),
            order=[0, 1], weight_log=log,
        )
        assert len(log) == 2
        # Step 1: empty state, only the new-cluster option exists.
        assert log[0].shape == (1,)
        assert math.isclose(
            log[0][0],
            math.log(hyper.alpha) + log_marginal(s0, hyper.prior),
            rel_tol=1e-12,
        )
        # Step 2: existing cluster {b0} plus new; ratio-of-marginals oracle.
        assert log[1].shape == (2,)
        ratio = log_marginal(stats_merge([s0, s1]), hyper.prior) - log_marginal(s0, hyper.prior)
        assert math.isclose(log[1][0], math.log(s0.n) + ratio, rel_tol=1e-8)
        assert math.isclose(
            log[1][1], math.log(hyper.alpha) + log_marginal(s1, hyper.prior), rel_tol=1e-12
        )

    def test_batched_scores_equal_per_candidate_predictive(self):
        """Replay a sweep with one log_posterior_predictive call per candidate."""
        rng = np.random.default_rng(23)
        for trial in range(12):
            d = int(rng.integers(1, 9))
            hyper = make_hyper(
                d, alpha=float(rng.uniform(0.2, 3.0)), scale=float(rng.uniform(0.5, 4.0))
            )
            summaries = []
            for j in range(3):
                sizes = rng.integers(1, 12, size=int(rng.integers(1, 5)))
                summaries.append(summary_of(j, [
                    rng.standard_normal((int(m), d)) + 4.0 * rng.integers(-1, 2, d)
                    for m in sizes
                ]))
            batches = {
                (s.worker_id, e.local_label): e.stats for s in summaries for e in s.clusters
            }
            keys = sorted(batches)
            initial = GlobalState(
                assignments={key: int(rng.integers(0, 3)) for key in keys},
                clusters={},
                hyper=hyper,
            )
            order = rng.permutation(len(keys))
            log = []
            master_sweep(
                summaries, hyper, np.random.default_rng(trial), initial=initial,
                order=order, weight_log=log,
            )
            replay_rng = np.random.default_rng(trial)
            assigned = dict(initial.assignments)
            for step, i in enumerate(order):
                stats = batches[keys[i]]
                del assigned[keys[i]]
                members = {}
                for key, g in assigned.items():
                    members.setdefault(g, []).append(batches[key])
                reference = [
                    math.log(sum(s.n for s in members[g]))
                    + log_posterior_predictive(stats, stats_merge(members[g]), hyper.prior)
                    for g in sorted(members)
                ]
                reference.append(math.log(hyper.alpha) + log_prior_predictive(stats, hyper.prior))
                assert np.allclose(log[step], reference, rtol=1e-12, atol=1e-12)
                choice = sample_log_weights(log[step], replay_rng.random())
                fresh = max(list(members) + [max(initial.assignments.values())]) + 1
                assigned[keys[i]] = sorted(members)[choice] if choice < len(members) else fresh

    def test_initial_state_reassignment(self):
        rng = np.random.default_rng(9)
        batches = [rng.standard_normal((3, 2)), rng.standard_normal((3, 2)) + 12.0]
        hyper = make_hyper()
        first = master_sweep([summary_of(0, batches)], hyper, np.random.default_rng(10))
        again = master_sweep(
            [summary_of(0, batches)], hyper, np.random.default_rng(11), initial=first
        )
        assert set(again.assignments) == {(0, 0), (0, 1)}
        sizes = sorted(s.n for s in again.clusters.values())
        assert sum(sizes) == 6

    def test_initial_with_unknown_batch_rejected(self):
        rng = np.random.default_rng(12)
        summary = summary_of(0, [rng.standard_normal((3, 2))])
        bogus = GlobalState(assignments={(5, 9): 0}, clusters={}, hyper=make_hyper())
        with pytest.raises(ValueError):
            master_sweep([summary], make_hyper(), np.random.default_rng(0), initial=bogus)

    def test_duplicate_worker_rejected(self):
        rng = np.random.default_rng(13)
        s = summary_of(0, [rng.standard_normal((3, 2))])
        with pytest.raises(ValueError):
            master_sweep([s, s], make_hyper(), np.random.default_rng(0))

    def test_global_labels_compacted(self):
        rng = np.random.default_rng(14)
        summaries = [
            summary_of(j, [rng.standard_normal((3, 2)) + 9 * k for k in range(3)])
            for j in range(2)
        ]
        out = master_sweep(summaries, make_hyper(), np.random.default_rng(15))
        assert sorted(out.clusters) == list(range(out.num_clusters))
        assert set(out.assignments.values()) == set(out.clusters)


def collected_labels(label_map, workers):
    """Per-point global labels as the runtime collects them: shards in worker order."""
    return np.concatenate([global_label_vector(w, label_map) for w in workers])


class TestExpansion:
    def test_identity_single_worker(self):
        rng = np.random.default_rng(16)
        data = rng.standard_normal((10, 2))
        hyper = make_hyper()
        w = WorkerState.single_cluster(0, data, 0, hyper)
        out = collected_labels(GlobalLabelMap({(0, 0): 0}), [w])
        assert np.array_equal(out, np.zeros(10, dtype=np.int64))

    def test_permuted_names_same_partition(self):
        rng = np.random.default_rng(17)
        data = rng.standard_normal((12, 2))
        hyper = make_hyper()
        w = WorkerState.single_cluster(0, data, 0, hyper)
        w.local.labels[:6] = 1
        w.local.clusters = {
            0: stats_from_points(data[6:]),
            1: stats_from_points(data[:6]),
        }
        a = collected_labels(GlobalLabelMap({(0, 0): 0, (0, 1): 1}), [w])
        b = collected_labels(GlobalLabelMap({(0, 0): 7, (0, 1): 3}), [w])
        assert ari(a, b) == 1.0

    def test_three_workers_hand_checked(self):
        hyper = make_hyper(d=1)
        data = np.arange(12, dtype=np.float64).reshape(-1, 1)
        workers = []
        for j in range(3):
            shard = data[4 * j : 4 * j + 4]
            w = WorkerState.single_cluster(j, shard, 4 * j, hyper)
            w.local.labels = np.array([0, 0, 1, 1], dtype=np.int64)
            w.local.clusters = {
                0: stats_from_points(shard[:2]),
                1: stats_from_points(shard[2:]),
            }
            workers.append(w)
        entries = {
            (0, 0): 0, (0, 1): 1,
            (1, 0): 1, (1, 1): 2,
            (2, 0): 0, (2, 1): 2,
        }
        out = collected_labels(GlobalLabelMap(entries), workers)
        assert np.array_equal(out, np.array([0, 0, 1, 1, 1, 1, 2, 2, 0, 0, 2, 2]))

    def test_coverage_gap_rejected(self):
        rng = np.random.default_rng(18)
        data = rng.standard_normal((6, 2))
        w = WorkerState.single_cluster(0, data, 0, make_hyper())
        with pytest.raises(ValueError):
            collected_labels(GlobalLabelMap({(1, 0): 0}), [w])


class TestGlobalLogJoint:
    def test_matches_central_log_joint_on_expanded_membership(self):
        rng = np.random.default_rng(19)
        hyper = make_hyper()
        data = np.vstack([rng.standard_normal((8, 2)), rng.standard_normal((7, 2)) + 10])
        workers = []
        summaries = []
        for j, sl in ((0, slice(0, 8)), (1, slice(8, 15))):
            w = WorkerState.single_cluster(j, data[sl], sl.start, hyper)
            w = replace_with_sweeps(w, seed=20 + j)
            workers.append(w)
            from dpgibbs.worker import summarize

            summaries.append(summarize(w))
        gstate = master_sweep(summaries, hyper, np.random.default_rng(22))
        membership = collected_labels(gstate.label_map(), workers)
        central = PartitionState(
            labels=membership,
            clusters={
                int(g): stats_from_points(data[membership == g])
                for g in np.unique(membership)
            },
            hyper=hyper,
        )
        assert math.isclose(
            global_log_joint(gstate, 15), log_joint(central), rel_tol=1e-10
        )


def replace_with_sweeps(w, seed, sweeps=10):
    from dpgibbs.worker import worker_sweep

    rng = np.random.default_rng(seed)
    for _ in range(sweeps):
        w = worker_sweep(w, rng)
    return w
