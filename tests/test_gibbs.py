"""Unit tests for the centralized collapsed Gibbs sampler."""

import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from dpgibbs.gibbs import (
    PartitionState,
    center_on_prior,
    cgs_sweep,
    crp_log_prob,
    log_joint,
    run_cgs,
    sample_log_weights,
)
from dpgibbs.errors import NumericalDegeneracyError
from dpgibbs.metrics import ari
from dpgibbs.niw import (
    ModelHyperParams,
    NiwParams,
    SufficientStats,
    default_prior,
    log_multigamma,
    log_posterior_predictive,
    log_prior_predictive,
    niw_posterior,
    stats_from_points,
    stats_merge,
)

import _oracles
from _oracles import state_from_labels, validate_partition


def unit_hyper(d, alpha=1.0):
    return ModelHyperParams(
        alpha=alpha, prior=NiwParams(mu=np.zeros(d), kappa=1.0, nu=d + 1.0, psi=np.eye(d))
    )


def empirical_hyper(data, alpha=1.0):
    return ModelHyperParams(alpha=alpha, prior=default_prior(data))


def separated_two_component(n=200, seed=0):
    """Two unit-covariance components at (-10, 0) and (10, 0)."""
    rng = np.random.default_rng(seed)
    half = n // 2
    data = np.vstack(
        [
            rng.standard_normal((half, 2)) + np.array([-10.0, 0.0]),
            rng.standard_normal((n - half, 2)) + np.array([10.0, 0.0]),
        ]
    )
    truth = np.repeat([0, 1], [half, n - half])
    return data, truth


def compacted(state):
    """The state's labels and statistics with its cluster ids renumbered
    0..K-1 in ascending order; the state itself is left as it is."""
    ids = sorted(state.clusters)
    lut = np.full(max(ids) + 1, -1, dtype=np.int64)
    lut[ids] = np.arange(len(ids))
    clusters = {k: state.clusters[lab] for k, lab in enumerate(ids)}
    return SimpleNamespace(labels=lut[state.labels], clusters=clusters)


def state_for_partition(data, labels, hyper):
    labels = np.asarray(labels, dtype=np.int64)
    clusters = {
        int(lab): stats_from_points(data[labels == lab]) for lab in np.unique(labels)
    }
    return PartitionState.from_stats(labels, clusters, hyper)


class TestPartitionState:
    def test_single_cluster_init_is_consistent(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((20, 2))
        state = PartitionState.single_cluster(data, unit_hyper(2))
        validate_partition(state, data)
        assert state.num_clusters == 1

    def test_validate_catches_bad_stats(self):
        data = np.zeros((3, 1))
        state = PartitionState.single_cluster(data, unit_hyper(1))
        broken = PartitionState.from_stats(
            state.labels, {0: stats_from_points(np.ones((3, 1)))}, unit_hyper(1)
        )
        with pytest.raises(ValueError):
            validate_partition(broken, data)

    @pytest.mark.parametrize("num_labels", [1, 7, 300, 70_000])
    def test_from_labels_matches_unique_and_masks(self, num_labels):
        """Dense labels and statistics bit for bit those of np.unique plus one
        boolean mask per cluster, the route the sort replaced."""
        rng = np.random.default_rng(num_labels)
        for d in (1, 2, 8):
            data = 1e6 + 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((2_000, d))
            labels = 3 * rng.integers(0, num_labels, 2_000)  # sparse ids, some absent
            _, dense = np.unique(labels, return_inverse=True)
            state = state_from_labels(data, labels, unit_hyper(d))
            assert state.labels.dtype == dense.dtype
            assert np.array_equal(state.labels, dense)
            assert list(state.clusters) == list(range(int(dense.max()) + 1))
            for k, stats in state.clusters.items():
                expected = stats_from_points(data[dense == k])
                assert stats.n == expected.n
                assert stats.sum.tobytes() == expected.sum.tobytes()
                assert stats.sum_outer.tobytes() == expected.sum_outer.tobytes()


class TestSampleLogWeights:
    def test_degenerate_weight_vector_is_deterministic(self):
        rng = np.random.default_rng(1)
        w = np.array([0.0, -np.inf, -np.inf])
        assert all(sample_log_weights(w, rng.random()) == 0 for _ in range(20))

    def test_frequencies_match_probabilities(self):
        rng = np.random.default_rng(2)
        w = np.log(np.array([0.2, 0.5, 0.3]))
        draws = np.array([sample_log_weights(w, rng.random()) for _ in range(20000)])
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.abs(freqs - [0.2, 0.5, 0.3]).max() < 0.015

    def test_shift_invariance(self):
        w = np.array([1.0, 2.0, 0.5])
        a = sample_log_weights(w, np.random.default_rng(3).random())
        b = sample_log_weights(w + 123.0, np.random.default_rng(3).random())
        assert a == b

    def test_unmasked_draws_equal_the_masked_route(self):
        """Blocks whose columns all have a finite maximum skip the masks; the
        draws are those of the masked route, and a column of -inf draws -1."""
        rng = np.random.default_rng(4)
        for rows, cols in ((1, 1), (2, 7), (9, 40), (30, 3)):
            for _ in range(20):
                w = 50.0 * rng.standard_normal((rows, cols))
                w[rng.random(rows) < 0.3] = -np.inf  # whole rows out
                w[rng.random((rows, cols)) < 0.2] = -np.inf
                if rng.random() < 0.5:
                    w[:, rng.random(cols) < 0.3] = -np.inf  # columns that draw -1
                u = rng.random(cols)
                expected = _oracles.masked_sample_log_weights(w, u)
                assert np.array_equal(sample_log_weights(w, u), expected)
                assert np.array_equal(sample_log_weights(w[:, 0], u[0]), expected[0])
                assert np.all((expected == -1) == np.isneginf(w).all(axis=0))


class TestCgsSweep:
    def test_single_point_always_one_cluster(self):
        data = np.array([[1.5]])
        for seed in range(5):
            state = PartitionState.single_cluster(data, unit_hyper(1))
            out = cgs_sweep(state, data, np.random.default_rng(seed))
            assert out.num_clusters == 1
            validate_partition(compacted(out), data)

    def test_identical_points_co_cluster_in_small_alpha_limit(self):
        hyper = unit_hyper(1, alpha=1e-8)
        data = np.array([[0.7], [0.7]])
        state = state_for_partition(data, [0, 1], hyper)
        # Explicit two-weight check for the first point after removal.
        x = stats_from_points(data[0])
        other = stats_from_points(data[1])
        w_exist = math.log(1.0) + log_posterior_predictive(x, other, hyper.prior)
        w_new = math.log(hyper.alpha) + log_prior_predictive(x, hyper.prior)
        p_share = math.exp(w_exist - logsumexp([w_exist, w_new]))
        assert p_share > 0.99
        out = cgs_sweep(state, data, np.random.default_rng(4))
        assert out.num_clusters == 1

    def test_fixed_seed_bit_identical_labels(self):
        rng_data = np.random.default_rng(5)
        data = rng_data.standard_normal((40, 2))
        a, b = (PartitionState.single_cluster(data, unit_hyper(2)) for _ in range(2))
        cgs_sweep(a, data, np.random.default_rng(17))
        cgs_sweep(b, data, np.random.default_rng(17))
        assert np.array_equal(a.labels, b.labels)

    def test_invariants_over_many_sweeps(self):
        rng = np.random.default_rng(6)
        data = np.vstack(
            [rng.standard_normal((30, 2)), rng.standard_normal((30, 2)) + 6.0]
        )
        state = PartitionState.single_cluster(data, unit_hyper(2))
        sweep_rng = np.random.default_rng(7)
        for _ in range(10):
            before = set(state.clusters)
            fresh = PartitionState.from_stats(state.labels, state.clusters, unit_hyper(2))
            cgs_sweep(fresh, data, copy.deepcopy(sweep_rng))
            state = cgs_sweep(state, data, sweep_rng)
            validate_partition(compacted(state), data)
            assert sum(s.n for s in state.clusters.values()) == data.shape[0]
            # Surviving clusters keep their labels; new ones are numbered
            # above every label the sweep started with, just as a table
            # built afresh for the sweep numbers them.
            assert all(lab in before or lab > max(before) for lab in state.clusters)
            assert np.array_equal(state.labels, fresh.labels)

    def test_cached_weights_equal_public_predictive_route(self):
        """The vectorized cluster cache and the public log_marginal route must agree."""
        rng = np.random.default_rng(30)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            data = rng.standard_normal((15, d)) * rng.uniform(0.5, 5.0)
            labels = rng.integers(0, 4, 15)
            hyper = unit_hyper(d, alpha=float(rng.uniform(0.2, 3.0)))
            state = state_for_partition(data, labels, hyper)
            cache = state.table
            x = rng.standard_normal(d)
            fast = cache.point_log_weights(x)
            xs = stats_from_points(x)
            slow = [
                math.log(state.clusters[lab].n)
                + log_posterior_predictive(xs, state.clusters[lab], hyper.prior)
                for lab in sorted(state.clusters)
            ]
            slow.append(math.log(hyper.alpha) + log_prior_predictive(xs, hyper.prior))
            assert np.allclose(fast, np.array(slow), rtol=1e-12, atol=1e-12)

    def test_own_row_weight_equals_remove_then_score(self):
        """Scoring a point inside its own cluster equals taking it out first."""
        rng = np.random.default_rng(31)
        labels = np.array([0, 0, 1, 1, 1, 2, 3, 3])
        for d in range(1, 9):
            for _ in range(5):
                data = rng.standard_normal((8, d)) * rng.uniform(0.5, 5.0)
                hyper = unit_hyper(d, alpha=float(rng.uniform(0.2, 3.0)))
                state = state_for_partition(data, labels, hyper)
                cache = state.table
                for i in (0, 1, 2, 6):
                    own = cache.row_of[int(labels[i])]
                    fast = cache.point_log_weights(data[i], own)
                    xs = stats_from_points(data[i])
                    slow = []
                    for lab in sorted(state.clusters):
                        stats = state.clusters[lab]
                        if lab == labels[i]:
                            rest = np.delete(np.arange(8), i)
                            stats = stats_from_points(data[rest][labels[rest] == lab])
                        slow.append(
                            math.log(stats.n)
                            + log_posterior_predictive(xs, stats, hyper.prior)
                        )
                    slow.append(math.log(hyper.alpha) + log_prior_predictive(xs, hyper.prior))
                    assert np.allclose(fast, np.array(slow), rtol=1e-12, atol=1e-12)

    def test_degenerate_downdate_raises_with_cluster_label(self, monkeypatch):
        from dpgibbs.gibbs import _ClusterCache

        refresh = _ClusterCache._refresh

        def inflated(cache, rows):
            refresh(cache, rows)
            # An inflated whitening map makes 1 - kappa / (kappa - 1) q negative.
            cache.whitens[rows] *= 1e3
            cache.shifts[rows] *= 1e3

        monkeypatch.setattr(_ClusterCache, "_refresh", inflated)
        data = np.random.default_rng(32).standard_normal((3, 2))
        state = state_for_partition(data, [0, 5, 5], unit_hyper(2))
        assert np.isnan(state.table.point_log_weights(data[1], own=1)[1])
        # Point 0 is a singleton and changes the table; point 1 is reached next.
        with pytest.raises(NumericalDegeneracyError) as info:
            cgs_sweep(state, data, np.random.default_rng(0))
        assert info.value.context == {"cluster_label": 5, "point_index": 1}

    def test_faults_past_a_blocks_first_move_are_not_raised(self, monkeypatch):
        """Points scored after a move in the same block are rescored, not raised."""
        from dpgibbs.gibbs import _ClusterCache

        score = _ClusterCache.point_log_weights
        blocks = []

        def faulty_first_block(cache, xs, own=None):
            weights = score(cache, xs, own)
            if not blocks:
                weights[own[0], 0] = -np.inf  # point 0 must move
                weights[own[1], 1] = np.nan  # as if point 1's downdate failed
                weights[:, 2] = np.inf  # non-finite weights for point 2
            blocks.append(xs.shape[0])
            return weights

        monkeypatch.setattr(_ClusterCache, "point_log_weights", faulty_first_block)
        data = np.random.default_rng(35).standard_normal((12, 2))
        state = state_for_partition(data, [0] * 6 + [1] * 6, unit_hyper(2))
        log = []
        out = cgs_sweep(state, data, np.random.default_rng(3), weight_log=log)
        assert blocks[0] > 3 and len(blocks) > 1
        assert len(log) == 12 and all(np.all(np.isfinite(w)) for w in log[1:])
        validate_partition(compacted(out), data)

    def test_non_finite_weights_raise_at_the_point_reached(self, monkeypatch):
        from dpgibbs.gibbs import _ClusterCache

        score = _ClusterCache.point_log_weights
        data = np.random.default_rng(36).standard_normal((10, 2))

        def infinite_for_point_4(cache, xs, own=None):
            weights = score(cache, xs, own)
            first = int(np.flatnonzero((data == xs[0]).all(axis=1))[0])
            if first <= 4 < first + xs.shape[0]:
                weights[-1, 4 - first] = np.inf
            return weights

        monkeypatch.setattr(_ClusterCache, "point_log_weights", infinite_for_point_4)
        state = state_for_partition(data, [0] * 10, unit_hyper(2))
        with pytest.raises(NumericalDegeneracyError, match="non-finite") as info:
            cgs_sweep(state, data, np.random.default_rng(4))
        assert info.value.context == {"point_index": 4}

    def test_weight_log_records_candidate_vectors(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((10, 1))
        state = PartitionState.single_cluster(data, unit_hyper(1))
        log = []
        cgs_sweep(state, data, np.random.default_rng(9), weight_log=log)
        assert len(log) == 10
        # Each vector has one entry per existing cluster plus the new option.
        assert all(w.ndim == 1 and w.shape[0] >= 1 for w in log)
        assert all(np.all(np.isfinite(w)) for w in log)

    def test_mismatched_state_rejected(self):
        data = np.zeros((4, 1))
        state = PartitionState.single_cluster(np.zeros((3, 1)), unit_hyper(1))
        with pytest.raises(ValueError):
            cgs_sweep(state, data, np.random.default_rng(0))


def _compare_with_pointwise(data, state, seed, sweeps=3):
    """Run the block sweep and the reference loop side by side.

    The reference loop makes its labels dense after every sweep and the
    block sweep keeps them, so the block sweep's state is compacted before
    the two are compared.  The reference returns a new state and the block
    sweep updates ``state`` in place, so the reference runs first.  Returns
    how many labels changed over the sweeps.
    """
    block_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    block = ref = state
    changed = 0
    for _ in range(sweeps):
        block_log, ref_log = [], []
        ref = _oracles.pointwise_cgs_sweep(ref, data, ref_rng, weight_log=ref_log)
        before = block.labels.copy()
        cgs_sweep(block, data, block_rng, weight_log=block_log)
        dense = compacted(block)
        assert np.array_equal(dense.labels, ref.labels)
        assert sorted(dense.clusters) == sorted(ref.clusters)
        for lab, stats in dense.clusters.items():
            assert stats.n == ref.clusters[lab].n
            assert np.array_equal(stats.sum, ref.clusters[lab].sum)
            assert np.array_equal(stats.sum_outer, ref.clusters[lab].sum_outer)
        assert len(block_log) == len(ref_log) == data.shape[0]
        for b, r in zip(block_log, ref_log):
            assert b.shape == r.shape
            assert np.allclose(b, r, rtol=1e-12, atol=1e-12)
        changed += int(np.count_nonzero(before != block.labels))
    assert block_rng.random() == ref_rng.random()  # one uniform per point
    return changed


class TestBlockSweepMatchesPointwiseLoop:
    """The block sweep is the point-by-point sampler: same draws, same table."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_singletons_churn_and_stillness(self, d):
        rng = np.random.default_rng(50 + d)
        n = 90
        data = rng.standard_normal((n, d)) + 6.0 * rng.integers(0, 3, (n, 1))
        prior = default_prior(data)
        # Every point starts alone: each one is a singleton when reached.
        singletons = state_from_labels(
            data, np.arange(n), ModelHyperParams(alpha=1.0, prior=prior)
        )
        assert _compare_with_pointwise(data, singletons, seed=d) > 0
        # A large alpha over many small clusters keeps points moving.
        churn = state_from_labels(
            data,
            np.unique(rng.integers(0, 30, n), return_inverse=True)[1],
            ModelHyperParams(alpha=50.0, prior=prior),
        )
        assert _compare_with_pointwise(data, churn, seed=100 + d) > n // 2
        # One tight cluster and a tiny alpha: nobody moves.
        tight = rng.standard_normal((n, d))
        still = PartitionState.single_cluster(
            tight, ModelHyperParams(alpha=1e-12, prior=default_prior(tight))
        )
        assert _compare_with_pointwise(tight, still, seed=200 + d) == 0


class TestLogJoint:
    def test_single_point_reduces_to_prior_predictive(self):
        data = np.array([[0.4]])
        hyper = unit_hyper(1, alpha=0.7)
        state = PartitionState.single_cluster(data, hyper)
        expected = log_prior_predictive(stats_from_points(data), hyper.prior)
        assert math.isclose(log_joint(state), expected, rel_tol=1e-12)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((12, 2))
        hyper = unit_hyper(2)
        labels = rng.integers(0, 3, 12)
        labels[:3] = [0, 1, 2]  # make all three labels present
        a = log_joint(state_for_partition(data, labels, hyper))
        b = log_joint(state_for_partition(data, 2 - labels, hyper))
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((3, 1))
        hyper = unit_hyper(1, alpha=1.3)
        p = hyper.prior
        partitions, oracle_log_joints, oracle_log_post = _oracles.enumeration_log_posterior(
            data, hyper.alpha, p.mu, p.kappa, p.nu, p.psi
        )
        assert len(partitions) == 5
        ours = []
        for blocks in partitions:
            labels = np.empty(3, dtype=np.int64)
            for lab, block in enumerate(blocks):
                labels[list(block)] = lab
            ours.append(log_joint(state_for_partition(data, labels, hyper)))
        ours = np.array(ours)
        assert np.allclose(ours, oracle_log_joints, rtol=1e-9)
        # Posterior of the first partition via our log_joint normalization.
        assert math.isclose(
            ours[0] - logsumexp(ours), oracle_log_post[0], rel_tol=1e-9
        )

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("prior_mean", ["zero", "nonzero"])
    def test_table_matches_niw_reference(self, d, prior_mean):
        """gibbs.log_joint and master.global_log_joint, read from the cluster
        table, against the CRP term plus one niw.log_marginal per cluster."""
        from dpgibbs.master import GlobalState, global_log_joint
        from dpgibbs.niw import log_marginal

        rng = np.random.default_rng(40 + d)
        a = rng.standard_normal((d, d))
        mu = np.zeros(d) if prior_mean == "zero" else 3.0 * rng.standard_normal(d)
        prior = NiwParams(
            mu=mu,
            kappa=float(rng.uniform(0.3, 4.0)),
            nu=d - 1.0 + float(rng.uniform(0.5, 3.0)),
            psi=a @ a.T + d * np.eye(d),
        )
        hyper = ModelHyperParams(alpha=float(rng.uniform(0.5, 5.0)), prior=prior)
        # One cluster of 20,000 points and a random partition of 300 more.
        labels = np.concatenate([np.zeros(20_000, dtype=np.int64), rng.integers(1, 13, 300)])
        means = 5.0 * rng.standard_normal((13, d))
        data = means[labels] + rng.uniform(0.2, 2.0) * rng.standard_normal((labels.size, d))
        state = state_from_labels(data, labels, hyper)
        sizes = [s.n for s in state.clusters.values()]
        assert max(sizes) == 20_000
        expected = crp_log_prob(hyper.alpha, sizes, labels.size) + sum(
            log_marginal(s, prior) for s in state.clusters.values()
        )
        gstate = GlobalState(assignments={}, table=state.table)
        assert math.isclose(log_joint(state), expected, rel_tol=1e-12)
        assert math.isclose(global_log_joint(gstate, labels.size), expected, rel_tol=1e-12)


def assert_live_table(table, labels, data):
    """Each row's count and sums are those of the points with its label, and
    its cached factors are bit for bit those of a table built afresh from
    its raw sums."""
    from dpgibbs.gibbs import _ClusterCache

    k = len(table.labels)
    assert table.labels == sorted(set(labels.tolist()))
    assert np.array_equal(table.row_of[table.labels], np.arange(k))
    for r, lab in enumerate(table.labels):
        members = data[labels == lab]
        assert table.counts[r] == members.shape[0]
        assert np.allclose(table.sums[r], members.sum(axis=0), rtol=1e-10, atol=1e-9)
        assert np.allclose(table.outers[r], members.T @ members, rtol=1e-10, atol=1e-9)
    fresh = _ClusterCache(table.prior, table.alpha, table.stats())
    for name in ("whitens", "shifts", "terms"):
        assert np.array_equal(getattr(table, name)[: k + 1], getattr(fresh, name)[: k + 1])


class TestLiveClusterTable:
    """Each sampler keeps one cluster table, updated in place."""

    @staticmethod
    def churning_shards():
        rng = np.random.default_rng(12)
        data = rng.standard_normal((240, 3)) + 4.0 * rng.integers(0, 5, (240, 1))
        return data, ModelHyperParams(alpha=40.0, prior=default_prior(data))

    def test_rows_stay_the_sums_of_their_points(self):
        """Through sweeps with churn, applies that merge and reorder rows,
        and the master's dense relabel."""
        from dpgibbs.master import master_sweep
        from dpgibbs.worker import WorkerState, apply_global_labels, summarize, worker_sweep

        data, hyper = self.churning_shards()
        shards = (data[:120], data[120:])
        workers = [WorkerState.single_cluster(j, shard, hyper) for j, shard in enumerate(shards)]
        rng = np.random.default_rng(13)
        deleted = added = 0
        for _ in range(3):
            for w in workers:
                before = set(w.local.clusters)
                worker_sweep(w, rng)
                assert_live_table(w.local.table, w.local.labels, w.data)
                deleted += len(before - set(w.local.clusters))
                added += len(set(w.local.clusters) - before)
            gstate = master_sweep([summarize(w) for w in workers], hyper, rng)
            for w in workers:
                label_map = {h: g for (j, h), g in gstate.assignments.items() if j == w.worker_id}
                apply_global_labels(w, label_map)
                assert_live_table(w.local.table, w.local.labels, w.data)
            assert gstate.table.labels == list(range(gstate.num_clusters))
            labels = np.concatenate([w.local.labels for w in workers])
            assert_live_table(gstate.table, labels, data)
        assert deleted > 0 and added > 0
        assert all(w.local.table.counts.shape[0] > 16 for w in workers)  # rows outgrew 16
        # Rows merged three at a time, in the reverse of their order; each
        # merged row holds the bits stats_merge gives.
        w = workers[0]
        before = w.local.clusters
        targets = {h: (len(before) - r) // 3 for r, h in enumerate(before)}
        apply_global_labels(w, targets)
        assert w.local.num_clusters == len(before) // 3 + 1
        assert_live_table(w.local.table, w.local.labels, w.data)
        for g, stats in w.local.clusters.items():
            merged = stats_merge([before[h] for h in before if targets[h] == g])
            assert stats.n == merged.n
            assert np.array_equal(stats.sum, merged.sum)
            assert np.array_equal(stats.sum_outer, merged.sum_outer)

    def test_one_table_per_sampler(self, monkeypatch):
        """run_cgs and a worker build one table for the run, a master sweep
        one per sweep, and the log joints none."""
        from dpgibbs.gibbs import _ClusterCache
        from dpgibbs.master import global_log_joint, master_sweep
        from dpgibbs.worker import WorkerState, apply_global_labels, summarize, worker_sweep

        built = []
        init = _ClusterCache.__init__

        def counted(table, *args, **kwargs):
            built.append(table)
            init(table, *args, **kwargs)

        monkeypatch.setattr(_ClusterCache, "__init__", counted)
        data, hyper = self.churning_shards()
        run_cgs(data, hyper, 5, seed=1)
        assert len(built) == 1
        del built[:]
        w = WorkerState.single_cluster(0, data, hyper)
        rng = np.random.default_rng(14)
        for _ in range(5):
            worker_sweep(w, rng)
            tables = len(built)
            log_joint(w.local)
            gstate = master_sweep([summarize(w)], hyper, rng)
            global_log_joint(gstate, data.shape[0])
            assert len(built) == tables + 1 and built[-1] is gstate.table
            apply_global_labels(w, {h: g for (_, h), g in gstate.assignments.items()})
        assert len(built) == 1 + 5 and built[0] is w.local.table


class TestFactorRoute:
    """The table's cached factors against NumPy's public linalg route."""

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_cached_factors_equal_the_public_numpy_route(self, d):
        """After sweeps with churn, the master's table and worker applies,
        every row's whitening factor, shift and terms equal bit for bit those
        of np.linalg.cholesky, np.linalg.inv and the un-memoized count
        constant."""
        from dpgibbs.master import master_sweep
        from dpgibbs.worker import WorkerState, apply_global_labels, summarize, worker_sweep

        rng = np.random.default_rng(60 + d)
        data = rng.standard_normal((240, d)) + 4.0 * rng.integers(0, 5, (240, 1))
        data, hyper = center_on_prior(data, ModelHyperParams(alpha=40.0, prior=default_prior(data)))
        shards = (data[:120], data[120:])
        workers = [WorkerState.single_cluster(j, shard, hyper) for j, shard in enumerate(shards)]
        tables = 0
        for _ in range(3):
            for w in workers:
                worker_sweep(w, rng)
            gstate = master_sweep([summarize(w) for w in workers], hyper, rng)
            for w in workers:
                label_map = {h: g for (j, h), g in gstate.assignments.items() if j == w.worker_id}
                apply_global_labels(w, label_map)
            for table in [gstate.table] + [w.local.table for w in workers]:
                rows = np.arange(len(table.labels) + 1)
                whitens, shifts, terms = _oracles.reference_refresh(table, rows)
                assert np.array_equal(table.whitens[rows], whitens)
                assert np.array_equal(table.shifts[rows], shifts)
                assert np.array_equal(table.terms[rows], terms)
                tables += len(rows) > 3
        assert tables > 3

    def test_fast_path_skips_numpy_linalg_wrappers(self, monkeypatch):
        """Once the states are built, sweeps, a worker round and a master
        sweep factor their rows without np.linalg.cholesky or np.linalg.inv."""
        from dpgibbs.master import global_log_joint, master_sweep
        from dpgibbs.worker import WorkerState, apply_global_labels, summarize, worker_sweep

        rng = np.random.default_rng(15)
        data = rng.standard_normal((240, 3)) + 4.0 * rng.integers(0, 5, (240, 1))
        data, hyper = center_on_prior(data, ModelHyperParams(alpha=40.0, prior=default_prior(data)))
        state = PartitionState.single_cluster(data, hyper)
        w = WorkerState.single_cluster(0, data, hyper)

        def wrapper_called(*args, **kwargs):
            raise AssertionError("a NumPy linalg wrapper was called")

        monkeypatch.setattr(np.linalg, "cholesky", wrapper_called)
        monkeypatch.setattr(np.linalg, "inv", wrapper_called)
        for _ in range(3):
            cgs_sweep(state, data, rng)
            log_joint(state)
            worker_sweep(w, rng)
            gstate = master_sweep([summarize(w)], hyper, rng)
            global_log_joint(gstate, data.shape[0])
            apply_global_labels(w, {h: g for (_, h), g in gstate.assignments.items()})
        assert state.num_clusters > 1 and gstate.num_clusters > 1


@pytest.mark.filterwarnings("error")
class TestDegenerateScales:
    """A scale that is not positive definite raises NumericalDegeneracyError
    with its coordinates, and no RuntimeWarning escapes the factorization.

    Raw sums whose outer sum is too small for their sum (a negative scatter)
    give such scales."""

    @staticmethod
    def table(d=2):
        from dpgibbs.gibbs import _ClusterCache

        rng = np.random.default_rng(70)
        clusters = {
            3: stats_from_points(rng.standard_normal((5, d))),
            8: stats_from_points(rng.standard_normal((4, d))),
        }
        return _ClusterCache(unit_hyper(d).prior, 1.0, clusters)

    def test_move_to_a_non_positive_definite_scale(self):
        table = self.table()
        with pytest.raises(NumericalDegeneracyError, match="cluster posterior scale") as info:
            table.move(None, 1, 1, np.full(2, 100.0), np.zeros((2, 2)))
        assert info.value.context == {"cluster_label": 8}
        table = self.table()
        with pytest.raises(NumericalDegeneracyError) as info:
            table.move(3, 2, 1, np.full(2, -100.0), np.zeros((2, 2)))  # a new row
        assert info.value.context == {"cluster_label": 3}

    def test_table_with_a_non_positive_definite_scale(self):
        from dpgibbs.gibbs import _ClusterCache

        good = stats_from_points(np.eye(2))
        bad = SufficientStats(2, np.full(2, 100.0), np.zeros((2, 2)))
        with pytest.raises(NumericalDegeneracyError, match="not positive definite") as info:
            _ClusterCache(unit_hyper(2).prior, 1.0, {0: good, 6: bad})
        assert info.value.context == {"cluster_label": 6}
        assert info.value.min_eigenvalue < 0.0

    def test_batch_with_a_non_positive_definite_candidate_scale(self):
        table = self.table()
        batch = SufficientStats(3, np.full(2, 1e3), np.zeros((2, 2)))
        for own in (None, 1):
            with pytest.raises(NumericalDegeneracyError, match="candidate scale matrix") as info:
                table.batch_log_weights(batch, own)
            assert info.value.min_eigenvalue < 0.0
        assert np.all(np.isfinite(table.batch_log_weights(stats_from_points(np.eye(2)))))


class TestLgammaPaths:
    """math.lgamma paths against scipy.special.gammaln as the oracle.

    Counts run up to 20,000, and each dimension also gets a non-integer nu0,
    as a caller's prior may carry.  Values agree within 1e-12 relative, or
    within a few units in the last place of the largest term summed: the
    count constants and multigamma gaps are differences of lgamma values
    near 8e4, where the two libraries part by up to 2 ulps (2.9e-11).
    """

    COUNTS = (0, 1, 2, 3, 17, 999, 19_999, 20_000)

    @staticmethod
    def priors(d):
        for nu in (d + 1.0, d - 1 + 0.37):
            yield NiwParams(mu=np.zeros(d), kappa=0.25, nu=nu, psi=np.eye(d))

    @staticmethod
    def agree(value, terms):
        terms = [float(t) for t in terms]
        scale = max(abs(t) for t in terms)
        return math.isclose(value, math.fsum(terms), rel_tol=1e-12, abs_tol=8 * math.ulp(scale))

    @staticmethod
    def multigamma_terms(d, a):
        return [d * (d - 1) / 4.0 * math.log(math.pi)] + list(gammaln(a - 0.5 * np.arange(d)))

    def oracle_multigamma(self, d, a):
        return math.fsum(self.multigamma_terms(d, a))

    def test_count_constants(self):
        from dpgibbs.gibbs import _ClusterCache

        for d in range(1, 9):
            for prior in self.priors(d):
                cache = _ClusterCache(prior, 2.5, {})
                for m in self.COUNTS:
                    kappa, nu = prior.kappa + m, prior.nu + m
                    terms = [
                        math.log(m) if m else math.log(2.5),
                        -0.5 * d * math.log(math.pi),
                        0.5 * d * (math.log(kappa) - math.log(kappa + 1.0)),
                        gammaln(0.5 * (nu + 1.0)),
                        -gammaln(0.5 * (nu + 1.0 - d)),
                    ]
                    assert self.agree(cache._count_const(m), terms)

    def test_log_multigamma(self):
        for d in range(1, 9):
            for prior in self.priors(d):
                for m in self.COUNTS:
                    a = 0.5 * (prior.nu + m)
                    assert self.agree(log_multigamma(d, a), self.multigamma_terms(d, a))

    def test_batch_weights_with_the_multigamma_gap(self):
        """Batch weights, own row included, against gammaln and dense log dets."""
        from dpgibbs.gibbs import _ClusterCache

        rng = np.random.default_rng(40)
        for d in range(1, 9):
            big = stats_from_points(rng.standard_normal((20_000, d)))
            small = stats_from_points(rng.standard_normal((7, d)) + 3.0)
            batch = stats_from_points(rng.standard_normal((40, d)) - 2.0)
            holder = SufficientStats(
                big.n + batch.n, big.sum + batch.sum, big.sum_outer + batch.sum_outer
            )
            for prior in self.priors(d):
                cache = _ClusterCache(prior, 2.5, {0: small, 1: holder})
                weights = cache.batch_log_weights(batch, own=1)
                expected = []
                for rest, log_count in ((small, math.log(7)), (big, math.log(big.n)), (None, math.log(2.5))):
                    base = prior if rest is None else niw_posterior(prior, rest)
                    post = niw_posterior(base, batch)
                    expected.append(
                        log_count
                        - 0.5 * batch.n * d * math.log(math.pi)
                        + 0.5 * d * (math.log(base.kappa) - math.log(post.kappa))
                        + self.oracle_multigamma(d, 0.5 * post.nu)
                        - self.oracle_multigamma(d, 0.5 * base.nu)
                        + 0.5 * (base.nu * base.log_det_psi - post.nu * post.log_det_psi)
                    )
                assert np.allclose(weights, expected, rtol=1e-12, atol=0.0)

    def test_crp_log_prob(self):
        for alpha in (0.3, 2.5):
            for sizes in ([1], [3, 1, 17], [20_000], [19_999, 1, 1, 999]):
                n = sum(sizes)
                terms = [len(sizes) * math.log(alpha), gammaln(alpha), -gammaln(alpha + n)]
                terms += list(gammaln(np.array(sizes, dtype=np.float64)))
                assert self.agree(crp_log_prob(alpha, sizes, n), terms)


class TestRunCgs:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            run_cgs(np.zeros((3, 1)), unit_hyper(1), 0, seed=0)

    def test_trace_length_equals_iterations(self):
        data, truth = separated_two_component(40, seed=12)
        _, trace = run_cgs(data, unit_hyper(2), 7, seed=1, ground_truth=truth)
        assert len(trace) == 7
        assert all(r.ari is not None for r in trace.records)

    def test_separated_fixture_reaches_perfect_ari(self):
        data, truth = separated_two_component(200, seed=13)
        hyper = empirical_hyper(data)
        labels, trace = run_cgs(data, hyper, 50, seed=2, ground_truth=truth)
        assert ari(labels, truth) == 1.0
        assert np.array_equal(np.unique(labels), np.arange(labels.max() + 1))
        validate_partition(state_from_labels(data, labels, hyper), data)

    def test_log_joint_moving_average_rises(self):
        data, _ = separated_two_component(200, seed=14)
        _, trace = run_cgs(data, empirical_hyper(data), 30, seed=3)
        lj = trace.log_joints
        assert lj[0:10].mean() < lj[20:30].mean()

    @pytest.mark.parametrize("transform", [lambda x: x + 1e8, lambda x: 3.0 * x])
    def test_translated_or_scaled_data_give_the_same_labels(self, transform):
        """The default prior follows the data, so the fit must not move."""
        rng = np.random.default_rng(33)
        means = np.array([[-8.0, 0.0], [8.0, 0.0], [0.0, 8.0], [0.0, -8.0]])
        data = means[rng.integers(0, 4, 2000)] + rng.standard_normal((2000, 2))

        def fit(x):
            return run_cgs(x, empirical_hyper(x), 6, seed=5)[0]

        base = fit(data)
        assert np.unique(base).size > 1
        assert ari(base, fit(transform(data))) >= 0.999


@pytest.mark.slow
class TestExchangeability:
    def test_partition_frequencies_match_enumeration(self):
        """n=4 toy chain visits partitions with the exact posterior frequencies."""
        data = np.array([[0.0], [0.4], [2.0], [2.5]])
        hyper = unit_hyper(1)
        p = hyper.prior
        partitions, _, oracle_log_post = _oracles.enumeration_log_posterior(
            data, hyper.alpha, p.mu, p.kappa, p.nu, p.psi
        )
        probs = np.exp(oracle_log_post)
        index_of = { _oracles.canonical_partition(_labels_for(blocks)): i
                     for i, blocks in enumerate(partitions) }
        state = PartitionState.single_cluster(data, hyper)
        rng = np.random.default_rng(16)
        burn_in, draws = 1000, 100_000
        counts = np.zeros(len(partitions))
        for sweep in range(burn_in + draws):
            state = cgs_sweep(state, data, rng)
            if sweep >= burn_in:
                counts[index_of[_oracles.canonical_partition(state.labels)]] += 1
        expected = probs * draws
        sigma = np.sqrt(draws * probs * (1.0 - probs))
        assert np.all(np.abs(counts - expected) <= 3.0 * sigma + 1.0)


def _labels_for(blocks):
    n = sum(len(b) for b in blocks)
    labels = np.empty(n, dtype=np.int64)
    for lab, block in enumerate(blocks):
        labels[list(block)] = lab
    return labels
