"""Unit tests for the centralized collapsed Gibbs sampler."""

import copy
import functools
import math

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from dpgibbs.gibbs import (
    PartitionState,
    augment,
    center_on_prior,
    cgs_sweep,
    crp_log_prob,
    log_joint,
    pack_stats,
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
from _oracles import state_from_labels, state_from_stats, stats_of, table_of, validate_partition


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
    """A copy of the state with its cluster ids renumbered 0..K-1 in
    ascending order; the state itself is left as it is."""
    state = copy.deepcopy(state)
    state.labels = state.table.row_of[state.labels]
    state.table.rename(np.arange(state.num_clusters))
    return state


def columns(xs):
    """Points (B, d) as the columns under a row of ones that point_log_weights scores, (d + 1, B)."""
    return np.vstack([np.ones((1, xs.shape[0])), xs.T])


def packed(stats):
    """SufficientStats as the cluster table's packed row."""
    return pack_stats(stats.n, stats.sum, stats.sum_outer)


def state_for_partition(data, labels, hyper):
    labels = np.asarray(labels, dtype=np.int64)
    clusters = {
        int(lab): stats_from_points(data[labels == lab]) for lab in np.unique(labels)
    }
    return state_from_stats(labels, clusters, hyper)


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
        broken = state_from_stats(
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
            assert state.table.labels == list(range(int(dense.max()) + 1))
            for k, stats in stats_of(state.table).items():
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
            out = cgs_sweep(state, augment(data), np.random.default_rng(seed))
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
        out = cgs_sweep(state, augment(data), np.random.default_rng(4))
        assert out.num_clusters == 1

    def test_fixed_seed_bit_identical_labels(self):
        rng_data = np.random.default_rng(5)
        data = rng_data.standard_normal((40, 2))
        a, b = (PartitionState.single_cluster(data, unit_hyper(2)) for _ in range(2))
        cgs_sweep(a, augment(data), np.random.default_rng(17))
        cgs_sweep(b, augment(data), np.random.default_rng(17))
        assert np.array_equal(a.labels, b.labels)

    def test_invariants_over_many_sweeps(self):
        rng = np.random.default_rng(6)
        data = np.vstack(
            [rng.standard_normal((30, 2)), rng.standard_normal((30, 2)) + 6.0]
        )
        state = PartitionState.single_cluster(data, unit_hyper(2))
        sweep_rng = np.random.default_rng(7)
        for _ in range(10):
            before = set(state.table.labels)
            fresh = state_from_stats(state.labels, stats_of(state.table), unit_hyper(2))
            cgs_sweep(fresh, augment(data), copy.deepcopy(sweep_rng))
            state = cgs_sweep(state, augment(data), sweep_rng)
            validate_partition(compacted(state), data)
            assert sum(s.n for s in stats_of(state.table).values()) == data.shape[0]
            # Surviving clusters keep their labels; new ones are numbered
            # above every label the sweep started with, just as a table
            # built afresh for the sweep numbers them.
            assert all(lab in before or lab > max(before) for lab in state.table.labels)
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
            x = rng.standard_normal(d)
            fast = state.table.point_log_weights(columns(x[None]))[:, 0]
            xs = stats_from_points(x)
            slow = [
                math.log(stats.n) + log_posterior_predictive(xs, stats, hyper.prior)
                for stats in stats_of(state.table).values()
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
                    own = cache.row_of[labels[i : i + 1]]
                    fast = cache.point_log_weights(columns(data[i : i + 1]), own)[:, 0]
                    xs = stats_from_points(data[i])
                    slow = []
                    for lab, stats in stats_of(cache).items():
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
            cache.maps[rows] *= 1e3

        monkeypatch.setattr(_ClusterCache, "_refresh", inflated)
        data = np.random.default_rng(32).standard_normal((3, 2))
        state = state_for_partition(data, [0, 5, 5], unit_hyper(2))
        with np.errstate(invalid="ignore"):
            assert np.isnan(state.table.point_log_weights(columns(data[1:2]), own=np.array([1]))[1, 0])
        # Point 0 is a singleton and changes the table; point 1 is reached next.
        with pytest.raises(NumericalDegeneracyError) as info:
            cgs_sweep(state, augment(data), np.random.default_rng(0))
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
            blocks.append(xs.shape[1])
            return weights

        monkeypatch.setattr(_ClusterCache, "point_log_weights", faulty_first_block)
        data = np.random.default_rng(35).standard_normal((12, 2))
        state = state_for_partition(data, [0] * 6 + [1] * 6, unit_hyper(2))
        with _oracles.recorded_weights() as log:
            out = cgs_sweep(state, augment(data), np.random.default_rng(3))
        assert blocks[0] > 3 and len(blocks) > 1
        assert len(log) == 12 and all(np.all(np.isfinite(w)) for w in log[1:])
        validate_partition(compacted(out), data)

    def test_a_failing_planned_version_raises_where_the_pointwise_sweep_does(self, monkeypatch):
        """A row version that a speculating block plans past its first
        change, and that a point-by-point sweep reaches, fails to factor:
        cgs_sweep raises at the point and cluster that pointwise_cgs_sweep
        names under the same fault."""
        from dpgibbs import gibbs

        rng = np.random.default_rng(58)
        n = 90
        data = rng.standard_normal((n, 3)) + 6.0 * rng.integers(0, 3, (n, 1))
        labels = np.unique(rng.integers(0, 30, n), return_inverse=True)[1]
        hyper = ModelHyperParams(alpha=50.0, prior=default_prior(data))
        step = gibbs._cholesky
        calls, bad = [], set()  # the rows (plus the base row) of each factoring; the rows made to fail

        def faulty(moments, signature):
            keys = [r.tobytes() for r in moments]
            calls.append(keys)
            chol = step(moments, signature=signature)
            chol[[key in bad for key in keys]] = np.nan
            return chol

        monkeypatch.setattr(gibbs, "_cholesky", faulty)

        def sweep(run, log=None):
            state = state_from_labels(data, labels, hyper)
            del calls[:]
            args = (state, augment(data) if run is cgs_sweep else data, np.random.default_rng(7))
            return run(*args) if log is None else run(*args, weight_log=log)

        sweep(_oracles.pointwise_cgs_sweep)
        reached = {key for keys in calls for key in keys}
        sweep(cgs_sweep)
        # Versions after a plan's first change (its first two rows) that the pointwise sweep reaches.
        planned = [key for keys in calls if len(keys) > 2 for key in keys[2:] if key in reached]
        assert planned
        bad.add(planned[0])
        log = []
        with pytest.raises(NumericalDegeneracyError) as ref:
            sweep(_oracles.pointwise_cgs_sweep, log)
        with pytest.raises(NumericalDegeneracyError) as info:
            sweep(cgs_sweep)
        assert any(planned[0] in keys for keys in calls if len(keys) > 2)  # the block speculated
        label = ref.value.context["cluster_label"]
        point = len(log) - 1  # the reference logs each point's weights before its move
        assert info.value.context == {"cluster_label": label, "point_index": point}
        assert info.value.message == ref.value.message

    def test_non_finite_weights_raise_at_the_point_reached(self, monkeypatch):
        from dpgibbs.gibbs import _ClusterCache

        score = _ClusterCache.point_log_weights
        data = np.random.default_rng(36).standard_normal((10, 2))

        def infinite_for_point_4(cache, xs, own=None):
            weights = score(cache, xs, own)
            first = int(np.flatnonzero((data == xs[1:, 0]).all(axis=1))[0])
            if first <= 4 < first + xs.shape[1]:
                weights[-1, 4 - first] = np.inf
            return weights

        monkeypatch.setattr(_ClusterCache, "point_log_weights", infinite_for_point_4)
        state = state_for_partition(data, [0] * 10, unit_hyper(2))
        with pytest.raises(NumericalDegeneracyError, match="non-finite") as info:
            cgs_sweep(state, augment(data), np.random.default_rng(4))
        assert info.value.context == {"point_index": 4}

    def test_mismatched_state_rejected(self):
        data = np.zeros((4, 1))
        state = PartitionState.single_cluster(np.zeros((3, 1)), unit_hyper(1))
        with pytest.raises(ValueError):
            cgs_sweep(state, augment(data), np.random.default_rng(0))


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
        ref_log = []
        ref = _oracles.pointwise_cgs_sweep(ref, data, ref_rng, weight_log=ref_log)
        before = block.labels.copy()
        with _oracles.recorded_weights() as block_log:
            cgs_sweep(block, augment(data), block_rng)
        dense = compacted(block)
        assert np.array_equal(dense.labels, ref.labels)
        expected = stats_of(ref.table)
        assert dense.table.labels == list(expected)
        for lab, stats in stats_of(dense.table).items():
            assert stats.n == expected[lab].n
            assert np.array_equal(stats.sum, expected[lab].sum)
            assert np.array_equal(stats.sum_outer, expected[lab].sum_outer)
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
    def test_singletons_churn_and_stillness(self, d, monkeypatch):
        from dpgibbs.gibbs import _ClusterCache

        rng = np.random.default_rng(50 + d)
        n = 90
        data = rng.standard_normal((n, d)) + 6.0 * rng.integers(0, 3, (n, 1))
        prior = default_prior(data)
        # Every point starts alone: each one is a singleton when reached.
        singletons = state_from_labels(
            data, np.arange(n), ModelHyperParams(alpha=1.0, prior=prior)
        )
        assert _compare_with_pointwise(data, singletons, seed=d) > 0
        # A large alpha over many small clusters keeps points moving, and a
        # scored block commits more than one of its changes.
        churn = state_from_labels(
            data,
            np.unique(rng.integers(0, 30, n), return_inverse=True)[1],
            ModelHyperParams(alpha=50.0, prior=prior),
        )
        scorings = []  # the labels as each block is scored
        score = _ClusterCache.point_log_weights

        def watched(cache, xs, own=None):
            if cache is churn.table:
                scorings.append(churn.labels.copy())
            return score(cache, xs, own)

        monkeypatch.setattr(_ClusterCache, "point_log_weights", watched)
        assert _compare_with_pointwise(data, churn, seed=100 + d) > n // 2
        monkeypatch.undo()
        committed = [np.count_nonzero(a != b) for a, b in zip(scorings, scorings[1:])]
        assert max(committed) >= 2
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
        clusters = stats_of(state.table).values()
        sizes = [s.n for s in clusters]
        assert max(sizes) == 20_000
        expected = crp_log_prob(hyper.alpha, sizes, labels.size) + sum(
            log_marginal(s, prior) for s in clusters
        )
        gstate = GlobalState(targets={}, table=state.table)
        assert math.isclose(log_joint(state), expected, rel_tol=1e-12)
        assert math.isclose(global_log_joint(gstate, labels.size), expected, rel_tol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_large_counts_of_offset_data_cancel(self, d):
        """20,000 points offset by +50 and centered, in 7 clusters of up to
        5,000: both log joints, whose count terms are about 1e5 per cluster,
        against the CRP term plus the fsum of niw.log_marginal."""
        from dpgibbs.master import GlobalState, global_log_joint
        from dpgibbs.niw import log_marginal

        rng = np.random.default_rng(70 + d)
        sizes = [5000, 4000, 3500, 3000, 2000, 1500, 1000]
        labels = np.repeat(np.arange(7), sizes)
        data = 50.0 + 6.0 * rng.standard_normal((7, d))[labels] + rng.standard_normal((labels.size, d))
        data, hyper = center_on_prior(data, ModelHyperParams(alpha=2.0, prior=default_prior(data)))
        state = state_from_labels(data, labels, hyper)
        expected = crp_log_prob(hyper.alpha, sizes, labels.size) + math.fsum(
            log_marginal(s, hyper.prior) for s in stats_of(state.table).values()
        )
        gstate = GlobalState(targets={}, table=state.table)
        assert math.isclose(log_joint(state), expected, rel_tol=1e-12)
        assert math.isclose(global_log_joint(gstate, labels.size), expected, rel_tol=1e-12)


def assert_live_table(table, labels, data):
    """Each row's count and sums are those of the points with its label, and
    its cached factors are bit for bit those of a table built afresh from
    its raw sums: its terms, and its maps where the table keeps them."""
    k = len(table.labels)
    assert table.labels == sorted(set(labels.tolist()))
    assert np.array_equal(table.row_of[table.labels], np.arange(k))
    for r, lab in enumerate(table.labels):
        members = data[labels == lab]
        count, sums, outers = _oracles.unpack(table.stats[r], table.d)
        assert count == members.shape[0]
        assert np.allclose(sums, members.sum(axis=0), rtol=1e-10, atol=1e-9)
        assert np.allclose(outers, members.T @ members, rtol=1e-10, atol=1e-9)
    fresh = table_of(table.prior, table.alpha, stats_of(table))
    for name in table._row_arrays:
        assert np.array_equal(getattr(table, name)[: k + 1], getattr(fresh, name)[: k + 1]), name


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
                before = set(w.local.table.labels)
                worker_sweep(w, rng)
                assert_live_table(w.local.table, w.local.labels, w.data)
                deleted += len(before - set(w.local.table.labels))
                added += len(set(w.local.table.labels) - before)
            gstate = master_sweep([summarize(w) for w in workers], hyper, rng)
            for w in workers:
                apply_global_labels(w, gstate.targets[w.worker_id])
                assert_live_table(w.local.table, w.local.labels, w.data)
            assert gstate.table.labels == list(range(gstate.num_clusters))
            assert gstate.table.maps is None  # the master's table scores batches only
            labels = np.concatenate([w.local.labels for w in workers])
            assert_live_table(gstate.table, labels, data)
        assert deleted > 0 and added > 0
        assert all(w.local.table.counts.shape[0] > 16 for w in workers)  # rows outgrew 16
        # Rows merged three at a time, in the reverse of their order; each
        # merged row holds the bits stats_merge gives.
        w = workers[0]
        before = stats_of(w.local.table)
        targets = [(len(before) - r) // 3 for r in range(len(before))]
        apply_global_labels(w, targets)
        assert w.local.num_clusters == len(before) // 3 + 1
        assert_live_table(w.local.table, w.local.labels, w.data)
        for g, stats in stats_of(w.local.table).items():
            merged = stats_merge([before[h] for h, t in zip(before, targets) if t == g])
            assert stats.n == merged.n
            assert np.array_equal(stats.sum, merged.sum)
            assert np.array_equal(stats.sum_outer, merged.sum_outer)

    def test_moment_matrices_stay_symmetric(self):
        """Every live row's moment matrix equals its transpose bit for bit, in
        the central, worker and master tables, after sweeps, applies and
        master sweeps.  The factor reads only the lower triangle, so a drift
        in symmetry would otherwise go unseen."""
        from dpgibbs.master import master_sweep
        from dpgibbs.worker import WorkerState, apply_global_labels, summarize, worker_sweep

        def assert_symmetric(table):
            k, d = len(table.labels), table.d
            moments = table.stats[:k].reshape(k, d + 1, d + 1)
            assert np.array_equal(moments, moments.transpose(0, 2, 1))

        data, hyper = self.churning_shards()
        state = PartitionState.single_cluster(data, hyper)
        shards = (data[:120], data[120:])
        workers = [WorkerState.single_cluster(j, shard, hyper) for j, shard in enumerate(shards)]
        rng = np.random.default_rng(14)
        for _ in range(3):
            cgs_sweep(state, augment(data), rng)
            assert_symmetric(state.table)
            for w in workers:
                worker_sweep(w, rng)
                assert_symmetric(w.local.table)
            gstate = master_sweep([summarize(w) for w in workers], hyper, rng)
            assert_symmetric(gstate.table)
            for w in workers:
                apply_global_labels(w, gstate.targets[w.worker_id])
                assert_symmetric(w.local.table)
        assert state.num_clusters > 3 and gstate.num_clusters > 3

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
            apply_global_labels(w, gstate.targets[0])
        assert len(built) == 1 + 5 and built[0] is w.local.table

    def test_packed_views_survive_table_growth(self):
        """Rows opened by move past the initial 16-row capacity: counts stays
        a view of the grown packed stats, in the table and in a deep copy of
        it, and every row holds the sums of its members."""
        rng = np.random.default_rng(81)
        data = rng.standard_normal((60, 3))
        table = table_of(unit_hyper(3).prior, 1.0, {})
        assert table.stats.shape[0] == 16
        labels = np.zeros(60, dtype=np.int64)
        for i, x in enumerate(data):
            choice = len(table.labels) if i < 30 else i % 30  # 30 new rows, then a second point each
            labels[i] = table.move(None, choice, pack_stats(1, x, np.outer(x, x)))
        assert len(table.labels) == 30 and table.stats.shape[0] > 16
        for t in (table, copy.deepcopy(table)):
            assert np.shares_memory(t.counts, t.stats)
            got = stats_of(t)
            assert sorted(got) == sorted(set(labels.tolist()))
            for lab, stats in got.items():
                want = stats_from_points(data[labels == lab])
                assert stats.n == want.n == 2
                assert np.allclose(stats.sum, want.sum, rtol=1e-12, atol=1e-12)
                assert np.allclose(stats.sum_outer, want.sum_outer, rtol=1e-12, atol=1e-12)

    @staticmethod
    def three_clusters(size):
        """A table of clusters 2, 5 and 9 over integer-valued points, whose
        sums are exact in any order, and the packed sums of cluster 5 (of
        ``size`` points)."""
        rng = np.random.default_rng(41)
        points = {lab: rng.integers(-3, 4, (m, 2)).astype(float) for lab, m in {2: 3, 5: size, 9: 2}.items()}
        table = table_of(unit_hyper(2).prior, 1.5, {lab: stats_from_points(x) for lab, x in points.items()})
        moved = points[5]
        return table, points, pack_stats(len(moved), moved.sum(axis=0), moved.T @ moved)

    @pytest.mark.parametrize("size", [1, 4], ids=["point", "batch"])
    @pytest.mark.parametrize("target", [2, 9, "new"], ids=["before", "after", "new"])
    def test_a_move_that_empties_its_source_deletes_its_row(self, target, size):
        """All of cluster 5 moves to a row before it, after it or "new": its
        row goes, the labels stay ascending, row_of forgets 5, the target's
        label comes back, and the rows are bit for bit those of a table
        built from the same sums."""
        table, points, row = self.three_clusters(size)
        label = table.next_label if target == "new" else target
        choice = len(table.labels) if target == "new" else int(table.row_of[target])
        assert table.move(5, choice, row) == label
        points[label] = np.vstack([points.get(label, np.empty((0, 2))), points.pop(5)])
        assert table.labels == sorted(points)
        assert table.row_of[5] == -1
        assert table.row_of[table.labels].tolist() == list(range(len(points)))
        sums = {lab: stats_from_points(x) for lab, x in points.items()}
        expected = table_of(table.prior, table.alpha, sums)
        rows = len(points) + 1  # the base-measure row included
        for name in table._row_arrays:
            assert np.array_equal(getattr(table, name)[:rows], getattr(expected, name)[:rows]), name

    @staticmethod
    def rotation_table(k, points, rng):
        """A d = 3 table of k clusters with labels 0, 2, 4, ... over random
        points, with maps unless ``points`` is False."""
        from dpgibbs.gibbs import _ClusterCache

        rows = []
        for j in range(k):
            x = 4.0 * rng.standard_normal(3) + rng.standard_normal((int(rng.integers(1, 9)), 3))
            rows.append(pack_stats(x.shape[0], x.sum(axis=0), x.T @ x))
        return _ClusterCache(unit_hyper(3).prior, 2.0, range(0, 2 * k, 2), rows, points=points)

    @staticmethod
    def counted_refreshes(monkeypatch):
        """A list to which each later ``_ClusterCache._refresh`` call appends its rows."""
        from dpgibbs.gibbs import _ClusterCache

        refreshes = []
        refresh = _ClusterCache._refresh
        monkeypatch.setattr(_ClusterCache, "_refresh", lambda t, rows: refreshes.append(rows) or refresh(t, rows))
        return refreshes

    @staticmethod
    def assert_same_bytes(got, want):
        assert got.labels == want.labels and got.next_label == want.next_label
        assert got.row_of.tobytes() == want.row_of.tobytes()
        assert got._row_arrays == want._row_arrays
        for name in got._row_arrays:
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("points", [True, False], ids=["maps", "no-maps"])
    @pytest.mark.parametrize("k", [14, 15], ids=["room", "grows"])
    def test_a_whole_cluster_moved_to_a_new_row_is_rotated(self, k, points, monkeypatch):
        """A whole cluster that moves to "new" with sums that come out as its
        own is rotated, without a refresh: labels, next_label, row_of and
        every row array (stats, terms and maps where kept; capacity
        included) are byte for byte those of the delete-and-refresh path,
        from each row of a table with room for the new row and of one that
        grows."""
        table = self.rotation_table(k, points, np.random.default_rng(270 + k))
        refreshes = self.counted_refreshes(monkeypatch)
        for r, label in enumerate(table.labels):
            rotated, reference = copy.deepcopy(table), copy.deepcopy(table)
            row = table.stats[r].copy()
            assert rotated.move(label, k, row) == table.next_label
            assert not refreshes
            assert _oracles.reference_move(reference, label, k, row) == table.next_label
            assert len(refreshes) == 1
            del refreshes[:]
            self.assert_same_bytes(rotated, reference)

    def test_a_negative_zero_in_the_source_takes_the_refresh_path(self, monkeypatch):
        """A singleton at x = (-0.0, 1.5) holds -0.0 sums, which the new row,
        zeros plus the moved sums, would hold as +0.0: its move to "new"
        refreshes the new row, as the delete-and-refresh path does, and the
        row holds +0.0."""
        from dpgibbs.gibbs import _ClusterCache

        x, y = np.array([-0.0, 1.5]), np.array([[2.0, -1.0], [3.0, 0.5]])
        row = pack_stats(1.0, x, np.outer(x, x))
        assert np.signbit(row[row == 0.0]).any()
        table = _ClusterCache(unit_hyper(2).prior, 1.0, [3, 7], [row, pack_stats(2.0, y.sum(axis=0), y.T @ y)])
        reference = copy.deepcopy(table)
        refreshes = self.counted_refreshes(monkeypatch)
        assert table.move(3, 2, row) == 8
        assert len(refreshes) == 1
        _oracles.reference_move(reference, 3, 2, row)
        self.assert_same_bytes(table, reference)
        moved = table.stats[table.row_of[8]]
        assert not np.signbit(moved[moved == 0.0]).any()

    def test_a_failed_draw_raises_and_leaves_the_table(self):
        table, _, row = self.three_clusters(4)
        before = {name: getattr(table, name).copy() for name in table._row_arrays}
        with pytest.raises(NumericalDegeneracyError, match="non-finite sampling weights"):
            table.move(5, -1, row)
        assert table.labels == [2, 5, 9]
        for name, rows in before.items():
            assert np.array_equal(getattr(table, name), rows), name

    def test_block_product_stays_under_the_cell_cap(self, monkeypatch):
        """Every product of augmented maps and points, rows * d * B * (d + 1)
        multiply-adds, stays within _BLOCK_CELLS.  On a stable d=8 partition
        of 60 far-apart clusters the block length reaches its cap; where two
        d=8 clusters overlap, the points after a block's first change are
        rescored against the rows its changes leave, in products of their
        own, which reach the cap too."""
        from dpgibbs import gibbs

        squares = gibbs._ClusterCache._squares
        products = {"block": [], "rescore": []}

        def recorded(cache, maps, xs):
            kind = "block" if np.shares_memory(maps, cache.maps) else "rescore"
            products[kind].append(maps.shape[0] * cache.d * xs.shape[1] * xs.shape[0])
            return squares(cache, maps, xs)

        monkeypatch.setattr(gibbs._ClusterCache, "_squares", recorded)
        rng = np.random.default_rng(82)
        d, k = 8, 60
        labels = np.repeat(np.arange(k), 20)
        data = 100.0 * rng.standard_normal((k, d))[labels] + rng.standard_normal((labels.size, d))
        state = state_for_partition(data, labels, unit_hyper(d))
        cgs_sweep(state, augment(data), np.random.default_rng(83))
        assert np.array_equal(state.labels, labels)  # stable: no block ends early
        assert max(products["block"]) <= gibbs._BLOCK_CELLS
        assert max(products["block"]) > gibbs._BLOCK_CELLS // 2
        assert not products["rescore"]

        # Two of four far-apart clusters overlap, so their points keep
        # moving while long blocks plan many moves each.
        labels = np.repeat(np.arange(4), 600)
        means = 100.0 * rng.standard_normal((4, d))
        means[1] = means[0] + 1.0
        data = means[labels] + rng.standard_normal((labels.size, d))
        state = state_for_partition(data, labels, unit_hyper(d))
        sweep_rng = np.random.default_rng(84)
        for _ in range(2):
            cgs_sweep(state, augment(data), sweep_rng)
        assert len(products["rescore"]) > 10
        assert max(products["block"] + products["rescore"]) <= gibbs._BLOCK_CELLS
        assert max(products["rescore"]) > gibbs._BLOCK_CELLS // 2


class TestFactorRoute:
    """The table's cached factors against NumPy's public linalg route."""

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_cached_factors_equal_the_public_numpy_route(self, d):
        """After sweeps with churn, the master's table and worker applies,
        every row's terms equal bit for bit those of np.linalg.cholesky of
        the row plus the base row, math.log, niw.log_multigamma and the
        un-memoized count constant, and so does every worker row's augmented
        map [-L^-1 mu | L^-1], by np.linalg.inv of the factor (the master's
        table keeps none); each row's MARGINAL less the base row's equals
        niw.log_marginal within 1e-12 relative."""
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
                apply_global_labels(w, gstate.targets[w.worker_id])
            for table in [gstate.table] + [w.local.table for w in workers]:
                rows = np.arange(len(table.labels) + 1)
                whitens, shifts, terms, log_marginals = _oracles.reference_refresh(table, rows)
                if table is not gstate.table:
                    assert np.array_equal(table.maps[rows, :, 1:], whitens)
                    assert np.array_equal(table.maps[rows, :, 0], -shifts)
                assert np.array_equal(table.terms[rows], terms)
                marginals = table.terms[rows, table._MARGINAL] - table.terms[rows[-1], table._MARGINAL]
                for got, want in zip(marginals.tolist(), log_marginals.tolist()):
                    assert math.isclose(got, want, rel_tol=1e-12)
                tables += len(rows) > 3
        assert tables > 3

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_a_rows_factors_do_not_depend_on_the_rows_factored_with_it(self, d):
        """Each row of a table of K = 24 rows (one of over _COUNT_CAP points)
        and its base row, factored alone, has bit for bit the maps and terms
        it has in stacks of 2, 17 and K + 1 rows, at any place in them.  A
        rotation moves a row with its cached factors on this ground."""
        from dpgibbs import gibbs

        rng = np.random.default_rng(40 + d)
        sizes = [int(m) for m in rng.integers(1, 60, 23)] + [gibbs._COUNT_CAP + 5]
        means = 3.0 * rng.standard_normal((len(sizes), d))
        clusters = {j: stats_from_points(means[j] + rng.standard_normal((m, d))) for j, m in enumerate(sizes)}
        table = table_of(default_prior(means), 1.5, clusters)
        rows = len(sizes) + 1
        stats = table.stats[:rows]
        for r in range(rows):
            maps, terms, _ = table._factor(stats[[r]].copy())
            for size in (2, 17, rows):
                stack = rng.choice(np.delete(np.arange(rows), r), size - 1, replace=False)
                at = int(rng.integers(size))
                stack = np.insert(stack, at, r)
                stacked_maps, stacked_terms, _ = table._factor(stats[stack].copy())
                assert stacked_maps[at].tobytes() == maps[0].tobytes(), (r, size)
                assert stacked_terms[at].tobytes() == terms[0].tobytes(), (r, size)

    @pytest.mark.parametrize("offset", [0.0, 1e8])
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_moment_factor_agrees_with_the_schur_route(self, d, offset):
        """L^-1, -L^-1 mu and log det Psi_n from the factor of a row's moment
        matrix plus the base row agree with the explicit Schur route, which
        forms Psi_n = Psi' - t t^T / kappa_n and factors it, on a row of
        20,000 points and on rows of about 5,000 whose means lie far from
        the origin, with the data offset by ``offset`` and then centered.
        The tolerances are over ten times the worst gaps measured over 20
        such inputs per case (3.2e-12, 1.2e-12 and 8.9e-14): L^-1 relative to
        its largest entry, -L^-1 mu relative to max |L^-1| max |mu|, and the
        log det relative to itself.  Against a 50-digit reference from the
        same sums, both routes err by about as much."""
        rng = np.random.default_rng(90 + d)
        labels = rng.integers(0, 4, 20_000)
        mix = rng.uniform(0.2, 2.0, (d, d))
        data = rng.uniform(-30.0, 30.0, (4, d))[labels] + rng.standard_normal((labels.size, d)) @ mix + offset
        data, hyper = center_on_prior(data, ModelHyperParams(alpha=1.0, prior=default_prior(data)))
        tables = (PartitionState.single_cluster(data, hyper).table, state_from_labels(data, labels, hyper).table)
        for table in tables:
            rows = np.arange(len(table.labels) + 1)
            whitens, shifts, log_dets, mus = _oracles.schur_route(table, rows)
            for r in rows:
                scale = np.abs(whitens[r]).max()
                assert np.abs(table.maps[r, :, 1:] - whitens[r]).max() <= 4e-11 * scale
                assert np.abs(table.maps[r, :, 0] + shifts[r]).max() <= 2e-11 * scale * np.abs(mus[r]).max()
                # BASE is the count's term less half the log det.
                terms = _oracles.count_row(table.prior, table.alpha, int(table.counts[r]))
                half = terms[table._BASE] - table.terms[r, table._BASE]
                assert math.isclose(2.0 * half, log_dets[r], rel_tol=1e-12)

    def test_batch_weights_are_the_gains_a_move_caches(self):
        """At d = 8, over random tables, a batch's weight against the row it
        then moves to is that row's CRP term plus its MARGINAL after the
        move less its MARGINAL before, bit for bit; its own entry is the CRP
        term of the row it leaves less that row's change.  The master's
        candidates and a refresh are factored by the one ``_factor``, so
        the table a draw moves into is the one it scored."""
        rng = np.random.default_rng(97)
        d = 8
        for trial in range(200):
            k = int(rng.integers(2, 8))
            means = 3.0 * rng.standard_normal((k, d))
            points = [means[j] + rng.standard_normal((int(rng.integers(3, 40)), d)) for j in range(k)]
            prior = default_prior(np.vstack(points))
            clusters = {j: stats_from_points(x) for j, x in enumerate(points)}  # labels are the rows
            table = table_of(prior, float(rng.uniform(0.2, 5.0)), clusters)
            own = int(rng.integers(k)) if trial % 2 else None
            if own is None:  # a batch from outside the table
                batch = means[int(rng.integers(k))] + rng.standard_normal((int(rng.integers(1, 20)), d))
            else:  # a batch that leaves part of its cluster behind
                batch = points[own][: int(rng.integers(1, len(points[own])))]
            row = packed(stats_from_points(batch))
            weights = table.batch_log_weights(row, own)
            choice = int(rng.choice([c for c in range(k + 1) if c != own]))
            before = table.terms.copy()
            table.move(own, choice, row)
            after = table.terms
            gain = after[choice, table._MARGINAL] - before[choice, table._MARGINAL]
            assert weights[choice] == before[choice, table._CRP] + gain
            if own is not None:
                loss = after[own, table._MARGINAL] - before[own, table._MARGINAL]
                assert weights[own] == after[own, table._CRP] - loss

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
            cgs_sweep(state, augment(data), rng)
            log_joint(state)
            worker_sweep(w, rng)
            gstate = master_sweep([summarize(w)], hyper, rng)
            global_log_joint(gstate, data.shape[0])
            apply_global_labels(w, gstate.targets[0])
        assert state.num_clusters > 1 and gstate.num_clusters > 1


@pytest.mark.filterwarnings("error")
class TestDegenerateScales:
    """A scale that is not positive definite raises NumericalDegeneracyError
    with its coordinates, and no RuntimeWarning escapes the factorization.

    Raw sums whose outer sum is too small for their sum (a negative scatter)
    give such scales."""

    @staticmethod
    def table(d=2):
        rng = np.random.default_rng(70)
        clusters = {
            3: stats_from_points(rng.standard_normal((5, d))),
            8: stats_from_points(rng.standard_normal((4, d))),
        }
        return table_of(unit_hyper(d).prior, 1.0, clusters)

    def test_move_to_a_non_positive_definite_scale(self):
        # A table's caller ignores floating-point errors, as the sweeps do.
        table = self.table()
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalDegeneracyError, match="cluster posterior scale") as info:
                table.move(None, 1, pack_stats(1, np.full(2, 100.0), np.zeros((2, 2))))
            assert info.value.context == {"cluster_label": 8}
            table = self.table()
            with pytest.raises(NumericalDegeneracyError) as info:
                table.move(3, 2, pack_stats(1, np.full(2, -100.0), np.zeros((2, 2))))  # a new row
        assert info.value.context == {"cluster_label": 3}

    def test_table_with_a_non_positive_definite_scale(self):
        good = stats_from_points(np.eye(2))
        bad = SufficientStats(2, np.full(2, 100.0), np.zeros((2, 2)))
        with pytest.raises(NumericalDegeneracyError, match="not positive definite") as info:
            table_of(unit_hyper(2).prior, 1.0, {0: good, 6: bad})
        assert info.value.context == {"cluster_label": 6}
        assert info.value.min_eigenvalue < 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_and_candidate(self, bad):
        """A non-finite row, moved into the table or scored as a batch's
        candidate, reports non-finite entries without an eigenvalue
        estimate, from a refresh and from the batch alike."""
        row = pack_stats(1, np.array([bad, 0.0]), np.zeros((2, 2)))
        with np.errstate(all="ignore"):
            refresh = "non-finite entries in cluster posterior scale"
            with pytest.raises(NumericalDegeneracyError, match=refresh) as info:
                self.table().move(None, 1, row)
            assert info.value.min_eigenvalue is None
            assert info.value.context == {"cluster_label": 8}
            for own in (None, 1):
                candidate = "non-finite entries in candidate scale matrix"
                with pytest.raises(NumericalDegeneracyError, match=candidate) as info:
                    self.table().batch_log_weights(row, own)
                assert info.value.min_eigenvalue is None
                assert "min eigenvalue" not in str(info.value)

    def test_factor_names_the_first_row_that_fails(self):
        """``_factor`` returns the first row whose factor fails, not positive
        definite or not finite, and -1 when every row factors."""
        table = self.table()
        rows = {  # two of the table's rows, one not positive definite, one not finite
            "a": table.stats[0],
            "b": table.stats[1],
            "p": pack_stats(1, np.full(2, 100.0), np.zeros((2, 2))),
            "n": pack_stats(1, np.array([np.nan, 0.0]), np.zeros((2, 2))),
        }
        with np.errstate(all="ignore"):
            for stack, first in (("aba", -1), ("abpn", 2), ("anpab", 1)):
                _, terms, failed = table._factor(np.array([rows[c] for c in stack]))
                assert failed == first
                assert np.isfinite(terms[:, table._MARGINAL]).tolist() == [c in "ab" for c in stack]

    def test_batch_with_a_non_positive_definite_candidate_scale(self):
        table = self.table()
        for own in (None, 1):
            with np.errstate(all="ignore"):
                with pytest.raises(NumericalDegeneracyError, match="candidate scale matrix") as info:
                    table.batch_log_weights(pack_stats(3, np.full(2, 1e3), np.zeros((2, 2))), own)
            assert info.value.min_eigenvalue < 0.0
        batch = stats_from_points(np.eye(2))
        assert np.all(np.isfinite(table.batch_log_weights(packed(batch))))


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
        for d in range(1, 9):
            for prior in self.priors(d):
                for m in self.COUNTS:
                    kappa, nu = prior.kappa + m, prior.nu + m
                    terms = [
                        math.log(m) if m else math.log(2.5),
                        -0.5 * d * math.log(math.pi),
                        0.5 * d * (math.log(kappa) - math.log(kappa + 1.0)),
                        gammaln(0.5 * (nu + 1.0)),
                        -gammaln(0.5 * (nu + 1.0 - d)),
                    ]
                    assert self.agree(_oracles.count_const(prior, 2.5, m), terms)

    def test_log_multigamma(self):
        for d in range(1, 9):
            for prior in self.priors(d):
                for m in self.COUNTS:
                    a = 0.5 * (prior.nu + m)
                    assert self.agree(log_multigamma(d, a), self.multigamma_terms(d, a))

    def test_batch_weights_with_the_multigamma_gap(self):
        """Batch weights, own row included, against gammaln and dense log dets."""
        rng = np.random.default_rng(40)
        for d in range(1, 9):
            big = stats_from_points(rng.standard_normal((20_000, d)))
            small = stats_from_points(rng.standard_normal((7, d)) + 3.0)
            batch = stats_from_points(rng.standard_normal((40, d)) - 2.0)
            holder = SufficientStats(
                big.n + batch.n, big.sum + batch.sum, big.sum_outer + batch.sum_outer
            )
            for prior in self.priors(d):
                cache = table_of(prior, 2.5, {0: small, 1: holder})
                weights = cache.batch_log_weights(packed(batch), own=1)
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

    def test_tables_of_one_model_share_one_memo(self):
        """Tables of one model share one array of count terms, and a table of
        another model gets its own, whose row 0 differs by log alpha, while
        the first keeps its array."""
        from dpgibbs import gibbs

        data, _ = separated_two_component(60, seed=31)
        hyper, other = empirical_hyper(data, alpha=2.0), empirical_hyper(data, alpha=3.0)
        a, b = (PartitionState.single_cluster(data, hyper).table for _ in range(2))
        assert a._count_rows is b._count_rows
        terms = a._count_rows
        assert terms.shape == (gibbs._COUNT_CAP, 8)  # every count below the cap
        c = PartitionState.single_cluster(data, other).table
        assert c._count_rows is not a._count_rows
        theirs = c._count_rows
        assert (terms[0, a._CRP], theirs[0, a._CRP]) == (math.log(2.0), math.log(3.0))
        assert theirs[0, a._BASE] - terms[0, a._BASE] == pytest.approx(math.log(1.5), rel=1e-12)
        assert np.array_equal(theirs[1:], terms[1:])  # only the base row sees alpha
        assert a._count_rows is terms

    def test_run_frees_its_models_count_terms(self):
        """Once a table of another model is built, the module keeps only that
        model's array of count terms, and a later run of the first model
        fills a fresh one and gives the labels of its first run."""
        from dpgibbs import gibbs

        data, _ = separated_two_component(60, seed=31)
        hyper, other = empirical_hyper(data, alpha=2.0), empirical_hyper(data, alpha=3.0)
        first, _ = run_cgs(data, hyper, 4, seed=5)
        held = PartitionState.single_cluster(data, hyper).table._count_rows
        assert held.shape == (gibbs._COUNT_CAP, 8)  # the run filled its model's array
        run_cgs(data, other, 4, seed=5)
        assert gibbs._count_rows.cache_info().currsize == 1
        second, _ = run_cgs(data, hyper, 4, seed=5)
        assert PartitionState.single_cluster(data, hyper).table._count_rows is not held
        assert np.array_equal(first, second)

    def test_count_memo_keeps_only_counts_below_its_cap(self, monkeypatch):
        """With the cap at 8 and chunks of 4 counts, sweeps over clusters of
        up to 60 points hold an array of 8 counts, take the larger counts'
        rows from several chunks, and give the labels and log joint of a run
        whose cap covers every count."""
        from dpgibbs import gibbs

        data, _ = separated_two_component(60, seed=31)
        data, hyper = center_on_prior(data, empirical_hyper(data, alpha=2.0))
        monkeypatch.setattr(gibbs, "_CHUNK", 4)

        def sweeps(cap):
            monkeypatch.setattr(gibbs, "_COUNT_CAP", cap)
            # memos of their own, so no array of a patched cap or chunk outlives the test
            for memo in ("_count_rows", "_count_chunks"):
                monkeypatch.setattr(gibbs, memo, functools.lru_cache(maxsize=1)(getattr(gibbs, memo).__wrapped__))
            state, points = PartitionState.single_cluster(data, hyper), augment(data)
            rng = np.random.default_rng(5)
            for _ in range(4):
                cgs_sweep(state, points, rng)
                assert state.table._count_rows.shape == (cap, 8)
            chunks = state.table._count_chunks.cache_info().currsize
            return state.labels, log_joint(state), int(state.table.counts.max()), chunks

        capped, capped_joint, largest, chunks = sweeps(8)
        uncapped, uncapped_joint, _, none = sweeps(64)  # the fill is the cap's size: never patch it huge
        assert largest >= 8 and data.shape[0] < 64  # counts pass the small cap, not the large
        assert chunks > 2 and none == 0
        assert np.unique(capped).size > 1
        assert np.array_equal(capped, uncapped)
        assert capped_joint == uncapped_joint


class TestCountTerms:
    @pytest.mark.parametrize("alpha", [0.3, 5.0])
    @pytest.mark.parametrize("kappa, extra", [(1.0, 1.0), (0.37, 3.3)], ids=["paper", "fractional"])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_bulk_fill_equals_the_scalar_route(self, d, kappa, extra, alpha):
        """Row m of the model's array is the scalar route's row of m bit for
        bit, the -inf own entries at m = 0 and 1 included, for every count
        below the cap, and _count_terms gives each row of counts on both
        sides of the cap and of chunk boundaries above it its scalar row;
        the paper's prior is kappa0 = 1, nu0 = d + 1."""
        from dpgibbs import gibbs

        prior = NiwParams(mu=np.zeros(d), kappa=kappa, nu=d + extra, psi=np.eye(d))
        gibbs._count_rows.cache_clear()
        gibbs._count_chunks.cache_clear()
        table = gibbs._ClusterCache(prior, alpha, [], np.zeros((0, (d + 1) ** 2)))
        filled = gibbs._count_rows(prior.kappa, prior.nu, d, alpha)
        scalar = np.array([_oracles.count_row(prior, alpha, float(m)) for m in range(gibbs._COUNT_CAP)])
        assert filled.shape == (gibbs._COUNT_CAP, 8)
        assert np.isneginf(filled[:2, table._OWN_BASE]).all()
        assert np.array_equal(filled, scalar)
        cap, chunk = gibbs._COUNT_CAP, gibbs._CHUNK
        edges = [cap + k * chunk + e for k in (0, 1, 5) for e in (-1, 0, 1)]
        counts = np.array([0.0, 1.0, 5.0, cap - 1.0, *edges, cap + chunk - 1.0, 3.0 * cap + 7.0, 20_000.0])
        expected = np.array([_oracles.count_row(prior, alpha, m) for m in counts.tolist()])
        assert np.array_equal(table._count_terms(counts), expected)
        assert np.array_equal(table._count_terms(counts[::-1]), expected[::-1])  # from the memo


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
        state, points = PartitionState.single_cluster(data, hyper), augment(data)
        rng = np.random.default_rng(16)
        burn_in, draws = 1000, 100_000
        counts = np.zeros(len(partitions))
        for sweep in range(burn_in + draws):
            state = cgs_sweep(state, points, rng)
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
