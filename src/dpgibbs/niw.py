"""Normal-Inverse-Wishart conjugate algebra for Gaussian mixture components.

A component prior is NIW(mu0, kappa0, nu0, Psi0).  Observing a batch with
sufficient statistics (n, mean T, scatter S) gives the posterior

    kappa_n = kappa0 + n
    nu_n    = nu0 + n
    mu_n    = (kappa0 * mu0 + n * T) / kappa_n
    Psi_n   = Psi0 + S + (kappa0 * n / kappa_n) * (mu0 - T)(mu0 - T)^T

and the batch marginal likelihood in closed form

    log p(X) = -(n d / 2) log pi
             + (d / 2) (log kappa0 - log kappa_n)
             + log Gamma_d(nu_n / 2) - log Gamma_d(nu0 / 2)
             + (nu0 / 2) log det Psi0 - (nu_n / 2) log det Psi_n.

Sufficient statistics are stored as exact sums (n, sum x, sum x x^T) so that
point removal is exact; T and S are derived views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalDegeneracyError

_LOG_PI = math.log(math.pi)


def _readonly(a):
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


def cholesky_logdet(mat, what="scale matrix"):
    """Log-determinant of a symmetric positive definite matrix.

    Cholesky is the single factorization primitive: it both checks positive
    definiteness and yields the determinant.  On failure raises
    :class:`NumericalDegeneracyError` with a minimum-eigenvalue estimate
    instead of letting NaNs propagate.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if not np.all(np.isfinite(mat)):
        raise NumericalDegeneracyError("non-finite entries in %s" % what)
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(mat).min())
        raise NumericalDegeneracyError(
            "%s is not positive definite" % what, min_eigenvalue=min_eig
        ) from None
    return 2.0 * float(np.log(np.diagonal(chol)).sum())


@dataclass(frozen=True)
class NiwParams:
    """Normal-Inverse-Wishart parameters (mu, kappa, nu, Psi).

    Invariants checked on construction: kappa > 0, nu > d - 1, Psi symmetric
    and positive definite.  ``log_det_psi`` is cached from the validating
    Cholesky factorization.
    """

    mu: np.ndarray
    kappa: float
    nu: float
    psi: np.ndarray
    log_det_psi: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = _readonly(np.asarray(self.mu, dtype=np.float64).reshape(-1))
        psi = np.asarray(self.psi, dtype=np.float64)
        d = mu.shape[0]
        if psi.shape != (d, d):
            raise ValueError("psi must be (%d, %d), got %r" % (d, d, psi.shape))
        scale = max(1.0, float(np.abs(psi).max()))
        if float(np.abs(psi - psi.T).max()) > 1e-12 * scale:
            raise ValueError("psi must be symmetric within 1e-12")
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive, got %r" % (self.kappa,))
        if not self.nu > d - 1:
            raise ValueError("nu must exceed d - 1 = %d, got %r" % (d - 1, self.nu))
        psi = _readonly(0.5 * (psi + psi.T))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "log_det_psi", cholesky_logdet(psi, "psi"))

    @property
    def d(self):
        return self.mu.shape[0]


@dataclass(frozen=True)
class SufficientStats:
    """Exact additive statistics of a point batch: (n, sum x, sum x x^T)."""

    n: int
    sum: np.ndarray
    sum_outer: np.ndarray

    def __post_init__(self):
        s = _readonly(np.asarray(self.sum, dtype=np.float64).reshape(-1))
        d = s.shape[0]
        outer = np.asarray(self.sum_outer, dtype=np.float64)
        if outer.shape != (d, d):
            raise ValueError("sum_outer must be (%d, %d), got %r" % (d, d, outer.shape))
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 0):
            raise ValueError("n must be a non-negative integer, got %r" % (self.n,))
        if self.n == 0 and (np.count_nonzero(s) or np.count_nonzero(outer)):
            raise ValueError("empty statistics must have zero sums")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "sum", s)
        object.__setattr__(self, "sum_outer", _readonly(0.5 * (outer + outer.T)))

    @classmethod
    def _unchecked(cls, n, s, outer):
        """Statistics of read-only values that pass the checks, ``outer`` symmetric, as they are."""
        stats = object.__new__(cls)
        stats.__dict__.update(n=n, sum=s, sum_outer=outer)
        return stats

    @property
    def d(self):
        return self.sum.shape[0]

    @property
    def mean(self):
        """Batch mean T.  Undefined (raises) for an empty batch."""
        if self.n == 0:
            raise ValueError("mean of an empty batch is undefined")
        return self.sum / self.n

    @property
    def scatter(self):
        """Centered scatter S = sum x x^T - n T T^T, symmetrized."""
        if self.n == 0:
            return np.zeros((self.d, self.d))
        s = self.sum_outer - np.outer(self.sum, self.sum) / self.n
        return 0.5 * (s + s.T)


@dataclass(frozen=True)
class ModelHyperParams:
    """DP concentration alpha together with the NIW base measure."""

    alpha: float
    prior: NiwParams

    def __post_init__(self):
        if not 0.0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite, got %r" % (self.alpha,))
        object.__setattr__(self, "alpha", float(self.alpha))


# ---------------------------------------------------------------------------
# sufficient statistics algebra
# ---------------------------------------------------------------------------


def zero_stats(d):
    return SufficientStats(0, np.zeros(d), np.zeros((d, d)))


def stats_from_points(points):
    """Sufficient statistics of a (n, d) point array (a 1-d array is one point)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = pts.shape[0]
    if n == 0:
        raise ValueError("stats_from_points needs at least one point")
    return SufficientStats(n, pts.sum(axis=0), pts.T @ pts)


def stats_merge(parts):
    """Merge a sequence of statistics by field-wise addition."""
    parts = list(parts)
    if not parts:
        raise ValueError("stats_merge needs at least one part")
    d = parts[0].d
    n = 0
    s = np.zeros(d)
    outer = np.zeros((d, d))
    for p in parts:
        if p.d != d:
            raise ValueError("dimension mismatch in stats_merge")
        n += p.n
        s = s + p.sum
        outer = outer + p.sum_outer
    if n == 0:
        return zero_stats(d)
    return SufficientStats(n, s, outer)


# ---------------------------------------------------------------------------
# conjugate updates and marginals
# ---------------------------------------------------------------------------


def niw_posterior(prior, stats):
    """Posterior NIW parameters after absorbing a batch.  Empty batch: prior."""
    if stats.n == 0:
        return prior
    if stats.d != prior.d:
        raise ValueError("dimension mismatch: stats d=%d, prior d=%d" % (stats.d, prior.d))
    n = stats.n
    t = stats.mean
    kappa_n = prior.kappa + n
    nu_n = prior.nu + n
    mu_n = (prior.kappa * prior.mu + stats.sum) / kappa_n
    diff = prior.mu - t
    psi_n = prior.psi + stats.scatter + (prior.kappa * n / kappa_n) * np.outer(diff, diff)
    return NiwParams(mu_n, kappa_n, nu_n, psi_n)


def log_multigamma(d, a):
    """Log multivariate gamma log Gamma_d(a); requires a > (d - 1) / 2."""
    if not a > (d - 1) / 2.0:
        raise ValueError("log_multigamma needs a > (d - 1) / 2")
    return sum(math.lgamma(a - 0.5 * j) for j in range(d)) + d * (d - 1) / 4.0 * _LOG_PI


def log_marginal(stats, prior):
    """Closed-form log marginal likelihood of a batch under a NIW prior.

    The empty batch has probability one.  Raises
    :class:`NumericalDegeneracyError` when the posterior scale matrix is not
    positive definite.
    """
    if stats.n == 0:
        return 0.0
    post = niw_posterior(prior, stats)
    n, d = stats.n, stats.d
    return (
        -0.5 * n * d * _LOG_PI
        + 0.5 * d * (math.log(prior.kappa) - math.log(post.kappa))
        + log_multigamma(d, 0.5 * post.nu)
        - log_multigamma(d, 0.5 * prior.nu)
        + 0.5 * prior.nu * prior.log_det_psi
        - 0.5 * post.nu * post.log_det_psi
    )


def log_posterior_predictive(batch, cluster, prior):
    """log p(batch | cluster) with the cluster's posterior as effective prior."""
    return log_marginal(batch, niw_posterior(prior, cluster))


def log_prior_predictive(batch, prior):
    """log p(batch) under the base measure alone."""
    return log_marginal(batch, prior)


# ---------------------------------------------------------------------------
# data-driven default prior
# ---------------------------------------------------------------------------


def default_prior(data, metadata=None):
    """Empirical NIW prior: mu0 = data mean, kappa0 = 1, nu0 = d + 1,
    Psi0 = sample covariance (divisor n - 1).

    A ridge of 1e-6 * (trace / d) * I is added when the minimum eigenvalue of
    the covariance falls below 1e-9 * (trace / d); if ``metadata`` is given,
    the ridge actually applied is recorded under ``"covariance_ridge"``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("default_prior needs a (n, d) array with n >= 2")
    d = data.shape[1]
    mu0 = data.mean(axis=0)
    cov = np.cov(data, rowvar=False, ddof=1).reshape(d, d)
    cov = 0.5 * (cov + cov.T)
    mean_eig = float(np.trace(cov)) / d
    ridge = 0.0
    if float(np.linalg.eigvalsh(cov).min()) < 1e-9 * mean_eig:
        ridge = 1e-6 * mean_eig
        cov = cov + ridge * np.eye(d)
    if metadata is not None:
        metadata["covariance_ridge"] = ridge
    return NiwParams(mu=mu0, kappa=1.0, nu=d + 1.0, psi=cov)
