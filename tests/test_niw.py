"""Unit tests for the Normal-Inverse-Wishart algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpgibbs.errors import NumericalDegeneracyError
from dpgibbs.niw import (
    ModelHyperParams,
    NiwParams,
    SufficientStats,
    cholesky_logdet,
    default_prior,
    log_marginal,
    log_multigamma,
    log_posterior_predictive,
    log_prior_predictive,
    niw_posterior,
    stats_from_points,
    stats_merge,
    zero_stats,
)

import _oracles


def unit_prior_1d():
    return NiwParams(mu=[0.0], kappa=1.0, nu=2.0, psi=[[1.0]])


def random_prior(rng, d):
    a = rng.standard_normal((d, d))
    psi = a @ a.T + d * np.eye(d)
    return NiwParams(
        mu=rng.standard_normal(d),
        kappa=float(rng.uniform(0.3, 4.0)),
        nu=float(d + rng.uniform(0.5, 3.0)),
        psi=psi,
    )


class TestSufficientStats:
    def test_from_points_matches_direct_sums(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((7, 3))
        s = stats_from_points(pts)
        assert s.n == 7
        assert np.allclose(s.sum, pts.sum(axis=0), rtol=0, atol=1e-12)
        assert np.allclose(s.sum_outer, pts.T @ pts, rtol=1e-12)
        centered = pts - pts.mean(axis=0)
        assert np.allclose(s.scatter, centered.T @ centered, rtol=1e-10, atol=1e-12)

    def test_merge_matches_pooled_batch(self):
        rng = np.random.default_rng(2)
        a, b, c = (rng.standard_normal((k, 2)) for k in (3, 4, 5))
        merged = stats_merge([stats_from_points(p) for p in (a, b, c)])
        pooled = stats_from_points(np.vstack([a, b, c]))
        assert merged.n == pooled.n
        assert np.allclose(merged.sum, pooled.sum, rtol=1e-12)
        assert np.allclose(merged.sum_outer, pooled.sum_outer, rtol=1e-12)

    def test_merge_order_invariant(self):
        rng = np.random.default_rng(3)
        parts = [stats_from_points(rng.standard_normal((k, 2))) for k in (2, 3, 4)]
        m1 = stats_merge(parts)
        m2 = stats_merge(parts[::-1])
        assert np.allclose(m1.sum, m2.sum, rtol=1e-12)
        assert np.allclose(m1.sum_outer, m2.sum_outer, rtol=1e-12)

    def test_scatter_psd_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            _oracles.validate_scatter(stats_from_points(rng.standard_normal((6, 3)) * 10))

    def test_empty_stats_must_be_zero(self):
        with pytest.raises(ValueError):
            SufficientStats(0, np.ones(2), np.zeros((2, 2)))


coordinates = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def batches(draw, count):
    """``count`` non-empty batches of points of one shared dimension d."""
    d = draw(st.integers(1, 4))
    return [
        draw(arrays(np.float64, (draw(st.integers(1, 6)), d), elements=coordinates))
        for _ in range(count)
    ]


def assert_stats_close(a, b, parts):
    """Equal counts; sums equal up to the rounding of adding up ``parts``."""
    assert a.n == b.n
    sum_scale = 1.0 + sum(np.abs(p.sum).max() for p in parts)
    outer_scale = 1.0 + sum(np.abs(p.sum_outer).max() for p in parts)
    assert np.allclose(a.sum, b.sum, rtol=0, atol=1e-12 * sum_scale)
    assert np.allclose(a.sum_outer, b.sum_outer, rtol=0, atol=1e-12 * outer_scale)


class TestStatsAlgebraProperties:
    @settings(max_examples=60, deadline=None)
    @given(batches(3))
    def test_merge_is_associative(self, case):
        parts = [stats_from_points(p) for p in case]
        left = stats_merge([stats_merge(parts[:2]), parts[2]])
        right = stats_merge([parts[0], stats_merge(parts[1:])])
        assert_stats_close(left, right, parts)
        assert_stats_close(left, stats_merge(parts), parts)


class TestPosterior:
    def test_matches_manual_update(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            prior = random_prior(rng, d)
            pts = rng.standard_normal((6, d))
            post = niw_posterior(prior, stats_from_points(pts))
            mu_n, kappa_n, nu_n, psi_n = _oracles.manual_posterior(
                prior.mu, prior.kappa, prior.nu, prior.psi, pts
            )
            assert np.allclose(post.mu, mu_n, rtol=1e-12)
            assert math.isclose(post.kappa, kappa_n, rel_tol=1e-12)
            assert math.isclose(post.nu, nu_n, rel_tol=1e-12)
            assert np.allclose(post.psi, psi_n, rtol=1e-10, atol=1e-12)

    def test_sequential_equals_batch(self):
        rng = np.random.default_rng(6)
        prior = random_prior(rng, 2)
        pts = rng.standard_normal((5, 2))
        seq = prior
        for i in range(5):
            seq = niw_posterior(prior, stats_from_points(pts[: i + 1]))
        batch = niw_posterior(prior, stats_from_points(pts))
        assert np.allclose(seq.mu, batch.mu, rtol=1e-12)
        assert np.allclose(seq.psi, batch.psi, rtol=1e-10)

    def test_empty_batch_returns_prior(self):
        prior = unit_prior_1d()
        assert niw_posterior(prior, zero_stats(1)) is prior

    def test_posterior_psi_stays_positive_definite(self):
        rng = np.random.default_rng(7)
        prior = random_prior(rng, 3)
        for _ in range(20):
            post = niw_posterior(prior, stats_from_points(rng.standard_normal((4, 3)) * 5))
            cholesky_logdet(post.psi)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            niw_posterior(unit_prior_1d(), stats_from_points(np.zeros((2, 2))))


class TestLogMultigamma:
    def test_matches_term_by_term_sum(self):
        expected = 1.5 * math.log(math.pi) + sum(
            math.lgamma(2.5 + (1 - j) / 2.0) for j in (1, 2, 3)
        )
        assert math.isclose(log_multigamma(3, 2.5), expected, rel_tol=1e-14)

    def test_reduces_to_lgamma_in_1d(self):
        for a in (0.7, 1.0, 4.25):
            assert math.isclose(log_multigamma(1, a), math.lgamma(a), rel_tol=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_multigamma(3, 1.0)


class TestLogMarginal:
    def test_unit_prior_single_point_closed_form(self):
        # d=1, prior (mu=0, kappa=1, nu=2, Psi=1), x=0: density 1 / (2 sqrt(2)).
        value = log_marginal(stats_from_points([0.0]), unit_prior_1d())
        assert math.isclose(value, math.log(1.0 / (2.0 * math.sqrt(2.0))), rel_tol=1e-12)

    def test_single_point_matches_student_t(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 3):
            prior = random_prior(rng, d)
            x = rng.standard_normal(d)
            ours = log_marginal(stats_from_points(x), prior)
            oracle = _oracles.t_point_log_predictive(x, prior.mu, prior.kappa, prior.nu, prior.psi)
            assert math.isclose(ours, oracle, rel_tol=1e-10)

    def test_batch_matches_chain_rule_oracle(self):
        rng = np.random.default_rng(9)
        for d in (1, 2):
            prior = random_prior(rng, d)
            pts = rng.standard_normal((6, d)) * 2.0
            ours = log_marginal(stats_from_points(pts), prior)
            oracle = _oracles.chain_log_marginal(prior.mu, prior.kappa, prior.nu, prior.psi, pts)
            assert math.isclose(ours, oracle, rel_tol=1e-9)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(10)
        prior = random_prior(rng, 2)
        pts = rng.standard_normal((2, 2))
        ours = math.exp(log_marginal(stats_from_points(pts), prior))
        est, se = _oracles.mc_prior_predictive(
            pts, prior.mu, prior.kappa, prior.nu, prior.psi, n_draws=100_000, seed=11
        )
        assert abs(ours - est) <= 3.0 * se

    def test_empty_batch_is_log_one(self):
        assert log_marginal(zero_stats(2), random_prior(np.random.default_rng(12), 2)) == 0.0

    def test_translation_equivariance(self):
        rng = np.random.default_rng(13)
        prior = random_prior(rng, 2)
        pts = rng.standard_normal((5, 2))
        shift = np.array([100.0, -50.0])
        shifted_prior = NiwParams(prior.mu + shift, prior.kappa, prior.nu, prior.psi)
        a = log_marginal(stats_from_points(pts), prior)
        b = log_marginal(stats_from_points(pts + shift), shifted_prior)
        assert math.isclose(a, b, rel_tol=1e-9)

    def test_same_stats_same_value(self):
        rng = np.random.default_rng(14)
        prior = random_prior(rng, 2)
        pts = rng.standard_normal((4, 2))
        s1 = stats_from_points(pts)
        s2 = stats_from_points(pts)
        assert log_marginal(s1, prior) == log_marginal(s2, prior)


class TestPredictives:
    def test_posterior_predictive_is_marginal_ratio(self):
        rng = np.random.default_rng(15)
        for d in (1, 2, 3):
            prior = random_prior(rng, d)
            cluster = stats_from_points(rng.standard_normal((8, d)))
            batch = stats_from_points(rng.standard_normal((3, d)))
            direct = log_posterior_predictive(batch, cluster, prior)
            ratio = log_marginal(stats_merge([cluster, batch]), prior) - log_marginal(
                cluster, prior
            )
            assert math.isclose(direct, ratio, rel_tol=1e-10, abs_tol=1e-10)

    def test_prior_predictive_is_empty_cluster_case(self):
        rng = np.random.default_rng(16)
        prior = random_prior(rng, 2)
        batch = stats_from_points(rng.standard_normal((3, 2)))
        assert log_prior_predictive(batch, prior) == log_posterior_predictive(
            batch, zero_stats(2), prior
        )

    def test_batch_predictive_chains_over_points(self):
        rng = np.random.default_rng(17)
        prior = random_prior(rng, 2)
        cluster = stats_from_points(rng.standard_normal((5, 2)))
        pts = rng.standard_normal((4, 2))
        whole = log_posterior_predictive(stats_from_points(pts), cluster, prior)
        acc = 0.0
        grown = cluster
        for x in pts:
            acc += log_posterior_predictive(stats_from_points(x), grown, prior)
            grown = stats_merge([grown, stats_from_points(x)])
        assert math.isclose(whole, acc, rel_tol=1e-10)


class TestValidation:
    def test_non_positive_definite_psi_rejected(self):
        with pytest.raises(NumericalDegeneracyError) as info:
            NiwParams(mu=[0.0, 0.0], kappa=1.0, nu=3.0, psi=[[1.0, 2.0], [2.0, 1.0]])
        assert info.value.min_eigenvalue is not None
        assert info.value.min_eigenvalue < 0

    def test_bad_kappa_nu_rejected(self):
        with pytest.raises(ValueError):
            NiwParams(mu=[0.0], kappa=0.0, nu=2.0, psi=[[1.0]])
        with pytest.raises(ValueError):
            NiwParams(mu=[0.0, 0.0], kappa=1.0, nu=1.0, psi=np.eye(2))

    @pytest.mark.parametrize(
        "field, value",
        [("mu", [float("nan"), 0.0]), ("mu", [0.0, float("inf")]), ("kappa", float("inf")),
         ("kappa", float("nan")), ("nu", float("inf")), ("nu", float("nan"))],
    )
    def test_non_finite_mu_kappa_nu_rejected(self, field, value):
        params = dict(mu=[0.0, 0.0], kappa=1.0, nu=3.0, psi=np.eye(2))
        params[field] = value
        with pytest.raises(ValueError, match=field):
            NiwParams(**params)

    def test_asymmetric_psi_rejected(self):
        with pytest.raises(ValueError):
            NiwParams(mu=[0.0, 0.0], kappa=1.0, nu=3.0, psi=[[1.0, 0.1], [0.0, 1.0]])

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            ModelHyperParams(alpha=0.0, prior=unit_prior_1d())
        with pytest.raises(ValueError):
            ModelHyperParams(alpha=float("inf"), prior=unit_prior_1d())

    def test_cholesky_logdet_rejects_non_finite(self):
        with pytest.raises(NumericalDegeneracyError):
            cholesky_logdet(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestDefaultPrior:
    def test_recovers_identity_covariance(self):
        rng = np.random.default_rng(18)
        data = rng.standard_normal((1000, 2))
        prior = default_prior(data)
        assert prior.kappa == 1.0
        assert prior.nu == 3.0
        assert np.allclose(prior.mu, data.mean(axis=0), rtol=1e-12)
        assert np.abs(prior.psi - np.eye(2)).max() < 0.15

    def test_uses_unbiased_covariance(self):
        data = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        meta = {}
        prior = default_prior(data, metadata=meta)
        assert np.allclose(prior.psi, np.cov(data, rowvar=False, ddof=1), rtol=1e-12)
        assert meta["covariance_ridge"] == 0.0

    def test_degenerate_data_gets_ridge(self):
        line = np.linspace(0, 1, 50)
        data = np.column_stack([line, 2.0 * line])  # rank one covariance
        meta = {}
        prior = default_prior(data, metadata=meta)
        assert meta["covariance_ridge"] > 0.0
        cholesky_logdet(prior.psi)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            default_prior(np.zeros((1, 2)))
