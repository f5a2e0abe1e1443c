"""Centralized collapsed Gibbs sampler for the DP Gaussian mixture.

Component parameters are integrated out; the sampler operates on the partition
alone.  Each sweep visits every point in index order, removes it from its
cluster, and reassigns it among existing clusters and one fresh cluster with
log-weights

    existing k: log n_k    + log p(x | cluster k's posterior)
    new:        log alpha  + log p(x | base measure)

normalized by log-sum-exp and sampled by inverse CDF on a single uniform, so
RNG consumption is exactly one draw per point per sweep.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import gammaln

from .errors import NumericalDegeneracyError
from .niw import (
    ModelHyperParams,
    NiwParams,
    SufficientStats,
    log_marginal,
    log_multigamma,
    stats_from_points,
)
from .trace import IterationRecord, RunTrace

_LOG_PI = math.log(math.pi)
_U64 = (1 << 64) - 1


def seed_to_u64(seed):
    return int(seed) & _U64


@dataclass
class PartitionState:
    """Partition of points into clusters with per-cluster exact statistics.

    ``labels`` is dense (values 0..K-1) between sweeps; ``clusters`` maps each
    label to the statistics of exactly the points carrying it.
    """

    labels: np.ndarray
    clusters: dict[int, SufficientStats]
    hyper: ModelHyperParams

    @property
    def num_clusters(self):
        return len(self.clusters)

    @classmethod
    def single_cluster(cls, data, hyper):
        data = np.asarray(data, dtype=np.float64)
        labels = np.zeros(data.shape[0], dtype=np.int64)
        return cls(labels=labels, clusters={0: stats_from_points(data)}, hyper=hyper)

    @classmethod
    def from_labels(cls, data, labels, hyper):
        """State for dense labels 0..K-1, with statistics summed from the points."""
        clusters = {k: stats_from_points(data[labels == k]) for k in range(int(labels.max()) + 1)}
        return cls(labels=labels, clusters=clusters, hyper=hyper)


def center_on_prior(data, hyper):
    """Translate the data and the prior so that the prior mean is the origin.

    The model is translation invariant, but the raw sums (sum x, sum x x^T)
    of points far from the origin cancel catastrophically when the scatter
    is formed from them; centering once at ingestion keeps them small.
    """
    p = hyper.prior
    prior = NiwParams(mu=np.zeros(p.d), kappa=p.kappa, nu=p.nu, psi=p.psi)
    return data - p.mu, ModelHyperParams(alpha=hyper.alpha, prior=prior)


def validate_partition(state, data, rtol=1e-8):
    """Check the PartitionState invariants against the raw data (test helper)."""
    labels = state.labels
    n = labels.shape[0]
    if n != np.asarray(data).shape[0]:
        raise ValueError("labels length does not match data")
    present = set(int(v) for v in np.unique(labels))
    if present != set(state.clusters):
        raise ValueError("cluster keys %r do not match labels %r" % (set(state.clusters), present))
    if present and present != set(range(len(present))):
        raise ValueError("labels are not dense 0..K-1: %r" % present)
    for lab, stats in state.clusters.items():
        member = np.asarray(data)[labels == lab]
        ref = stats_from_points(member)
        if stats.n != ref.n:
            raise ValueError("cluster %d size mismatch" % lab)
        if not np.allclose(stats.sum, ref.sum, rtol=rtol, atol=1e-9):
            raise ValueError("cluster %d sum mismatch" % lab)
        if not np.allclose(stats.sum_outer, ref.sum_outer, rtol=rtol, atol=1e-9):
            raise ValueError("cluster %d outer mismatch" % lab)
    return state


def sample_log_weights(weights, rng):
    """Categorical draw from unnormalized log-weights using one uniform."""
    m = weights.max()
    if not np.isfinite(m):
        raise NumericalDegeneracyError("non-finite sampling weights")
    probs = np.exp(weights - m)
    cum = np.cumsum(probs)
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), len(weights) - 1)


class _ClusterCache:
    """One table of cluster posteriors, scored against points and batches.

    Rows 0..K-1 hold clusters in ascending label order; row K holds the base
    measure (the new-cluster candidate: count 0, CRP weight alpha), so one
    vectorized evaluation yields the whole candidate weight vector in the
    canonical order: existing clusters by ascending label, then "new".

    Exact raw sums (n, sum x, sum x x^T) are the source of truth.  Beside
    them each row caches kappa, nu, mu, the precision Psi^-1, log det Psi and
    the count-only weight term, recomputed from the sums (never updated in
    place) whenever the row's membership changes.
    """

    _ROW_ARRAYS = (
        "counts", "sums", "outers", "kappas", "nus", "mus", "precs", "log_dets", "consts",
    )

    def __init__(self, prior, alpha, clusters):
        self.prior = prior
        self.log_alpha = math.log(alpha)
        self.d = d = prior.d
        shapes = {"sums": (d,), "mus": (d,), "outers": (d, d), "precs": (d, d)}
        for name in self._ROW_ARRAYS:
            setattr(self, name, np.zeros((16,) + shapes.get(name, ())))
        # Point-independent weight terms that depend only on the integer
        # cluster count m (through kappa0 + m and nu0 + m); grown lazily.
        self._count_consts = np.empty(0)
        self.labels = []
        self.row_of = {}
        self.next_label = 0
        self._refresh_row(0)
        for lab in sorted(clusters):
            stats = clusters[lab]
            if stats.n < 1:
                raise ValueError("cluster %d is empty" % lab)
            self.next_label = int(lab)  # create() opens its row under next_label
            self.create(stats.n, stats.sum, stats.sum_outer)

    @classmethod
    def from_partition(cls, state):
        return cls(state.hyper.prior, state.hyper.alpha, state.clusters)

    # -- row maintenance ----------------------------------------------------

    def _count_const(self, m):
        """log m plus every point-weight term that depends only on the count m.

        m = 0 is the base measure, whose CRP weight is alpha.
        """
        if m >= self._count_consts.shape[0]:
            p = self.prior
            d = self.d
            counts = np.arange(max(2 * m, 64) + 1, dtype=np.float64)
            kap = p.kappa + counts
            nu = p.nu + counts
            log_counts = np.log(np.maximum(counts, 1.0))
            log_counts[0] = self.log_alpha
            self._count_consts = (
                log_counts
                - 0.5 * d * _LOG_PI
                + 0.5 * d * (np.log(kap) - np.log(kap + 1.0))
                + gammaln(0.5 * (nu + 1.0))
                - gammaln(0.5 * (nu + 1.0 - d))
            )
        return self._count_consts[m]

    def _refresh_row(self, r):
        """Recompute the cached posterior of row r from its raw sums.

        The base-measure row holds no points and keeps the prior's scale.
        """
        p = self.prior
        m = self.counts[r]
        sumv = self.sums[r]
        kappa = p.kappa + m
        psi = p.psi
        if m:
            diff = p.mu - sumv / m
            scatter = self.outers[r] - sumv[:, None] * (sumv / m)
            psi = psi + scatter + (p.kappa * m / kappa) * (diff[:, None] * diff)
            psi = 0.5 * (psi + psi.T)
        chol, info = dpotrf(psi, lower=1)
        log_det = 2.0 * float(np.log(chol.diagonal()).sum()) if info == 0 else math.nan
        if not math.isfinite(log_det):
            finite = bool(np.all(np.isfinite(psi)))
            raise NumericalDegeneracyError(
                "cluster posterior scale is not positive definite",
                min_eigenvalue=float(np.linalg.eigvalsh(psi).min()) if finite else None,
                context={"cluster_label": self.labels[r] if m else "new"},
            )
        # The precision comes from two triangular solves, not dpotri:
        # OpenBLAS threads dpotri's dlauum step, which stalls when workers
        # share the cores.
        self.precs[r] = dpotrs(chol, np.eye(self.d), lower=1)[0]
        self.log_dets[r] = log_det
        self.kappas[r] = kappa
        self.nus[r] = p.nu + m
        self.mus[r] = (p.kappa * p.mu + sumv) / kappa
        self.consts[r] = self._count_const(int(m))

    def _grow(self, rows_needed):
        cap = self.counts.shape[0]
        if rows_needed <= cap:
            return
        new_cap = max(2 * cap, rows_needed)
        for name in self._ROW_ARRAYS:
            old = getattr(self, name)
            fresh = np.zeros((new_cap,) + old.shape[1:])
            fresh[:cap] = old
            setattr(self, name, fresh)

    # -- mutation -----------------------------------------------------------

    def add(self, label, n, sumv, outer):
        """Add n points with raw sums (sumv, outer) to an existing cluster."""
        r = self.row_of[label]
        self.counts[r] += n
        self.sums[r] += sumv
        self.outers[r] += outer
        self._refresh_row(r)

    def remove(self, label, n, sumv, outer):
        """Take n points out of a cluster; delete the cluster when it empties."""
        r = self.row_of[label]
        if self.counts[r] > n:
            self.add(label, -n, -sumv, -outer)
            return
        k = len(self.labels)
        for name in self._ROW_ARRAYS:
            arr = getattr(self, name)
            arr[r:k] = arr[r + 1 : k + 1]
        del self.labels[r]
        del self.row_of[label]
        for lab in self.labels[r:]:
            self.row_of[lab] -= 1

    def create(self, n, sumv, outer):
        """Open a fresh cluster holding n points; returns its label."""
        k = len(self.labels)
        self._grow(k + 2)
        for name in self._ROW_ARRAYS:  # the base-measure row moves down one
            arr = getattr(self, name)
            arr[k + 1] = arr[k]
        label = self.next_label
        self.next_label += 1
        self.labels.append(label)
        self.row_of[label] = k
        self.add(label, n, sumv, outer)
        return label

    # -- evaluation ---------------------------------------------------------

    def point_log_weights(self, x, own=None):
        """Log-weights of point x over (clusters by ascending label, new).

        By the matrix-determinant lemma, absorbing x changes log det Psi by
        log1p(kappa / (kappa + 1) q) with q = (x - mu)^T Psi^-1 (x - mu).
        ``own`` is the row of a cluster of two or more points that already
        holds x; its entry is x's weight with x taken out, p(C) / p(C \\ x),
        computed without changing the table.
        """
        rows = len(self.labels) + 1
        kap = self.kappas[:rows]
        diff = x - self.mus[:rows]
        q = np.einsum("ki,kij,kj->k", diff, self.precs[:rows], diff)
        weights = self.consts[:rows] - 0.5 * (
            self.log_dets[:rows] + (self.nus[:rows] + 1.0) * np.log1p(kap / (kap + 1.0) * q)
        )
        if own is not None:
            weights[own] = self._own_log_weight(own, q[own])
        return weights

    def _own_log_weight(self, r, q):
        # Taking x out gives Psi' = Psi - kappa / (kappa - 1) v v^T with
        # v = x - mu, so log det Psi' = log det Psi + log1p(-kappa q / (kappa - 1)).
        kappa = self.kappas[r]
        shrink = kappa / (kappa - 1.0) * q
        if not shrink < 1.0:
            raise NumericalDegeneracyError(
                "downdated scale matrix is not positive definite",
                context={"cluster_label": self.labels[r]},
            )
        return self._count_const(int(self.counts[r]) - 1) + 0.5 * (
            (self.nus[r] - 1.0) * math.log1p(-shrink) - self.log_dets[r]
        )

    def batch_log_weights(self, stats):
        """Log-weights of a point batch over (clusters by ascending label, new).

        Each candidate's posterior scale after absorbing the batch is formed
        from the merged raw sums, and all of them are factored by one stacked
        Cholesky.
        """
        k = len(self.labels)
        rows = k + 1
        p = self.prior
        d = self.d
        nb = stats.n
        m = self.counts[:rows] + nb
        s = self.sums[:rows] + stats.sum
        diff = p.mu - s / m[:, None]
        psi = (
            p.psi
            + self.outers[:rows]
            + stats.sum_outer
            - (s[:, :, None] * s[:, None, :]) / m[:, None, None]
            + (p.kappa * m / (p.kappa + m))[:, None, None] * (diff[:, :, None] * diff[:, None, :])
        )
        try:
            chol = np.linalg.cholesky(psi)
        except np.linalg.LinAlgError:
            raise NumericalDegeneracyError(
                "candidate scale matrix is not positive definite",
                min_eigenvalue=float(np.linalg.eigvalsh(psi).min()),
            ) from None
        log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        kap = self.kappas[:rows]
        nu = self.nus[:rows]
        return (
            np.append(np.log(self.counts[:k]), self.log_alpha)
            - 0.5 * nb * d * _LOG_PI
            + 0.5 * d * (np.log(kap) - np.log(kap + nb))
            + log_multigamma(d, 0.5 * (nu + nb))
            - log_multigamma(d, 0.5 * nu)
            + 0.5 * (nu * self.log_dets[:rows] - (nu + nb) * log_det)
        )

    def clusters_dict(self, relabel):
        """Materialize {relabel[label]: SufficientStats}."""
        out = {}
        for r, lab in enumerate(self.labels):
            out[relabel[lab]] = SufficientStats(
                int(round(self.counts[r])),
                self.sums[r].copy(),
                self.outers[r].copy(),
            )
        return out


def cgs_sweep(state, data, rng, weight_log=None):
    """One collapsed Gibbs pass over all points in ascending index order.

    A point in a cluster of two or more is scored without leaving it, and
    the table changes only when the draw moves the point.  A singleton's
    cluster is deleted before scoring.  Emptied clusters are deleted
    immediately; labels are compacted to a dense 0..K-1 range (ascending
    original label order) once at sweep end.  When ``weight_log`` is a list,
    the per-step log-weight vectors are appended to it before each draw.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if state.labels.shape[0] != n:
        raise ValueError("state covers %d points, data has %d" % (state.labels.shape[0], n))
    cache = _ClusterCache.from_partition(state)
    labels = np.array(state.labels, dtype=np.int64, copy=True)
    i = -1
    try:
        for i in range(n):
            x = data[i]
            label = int(labels[i])
            own = cache.row_of[label]
            if cache.counts[own] == 1.0:
                cache.remove(label, 1, x, None)
                own = None
            weights = cache.point_log_weights(x, own)
            if weight_log is not None:
                weight_log.append(weights.copy())
            idx = sample_log_weights(weights, rng)
            if idx == own:
                continue
            x_outer = x[:, None] * x
            if own is not None:
                cache.remove(label, 1, x, x_outer)
            if idx == len(cache.labels):
                labels[i] = cache.create(1, x, x_outer)
            else:
                labels[i] = cache.labels[idx]
                cache.add(cache.labels[idx], 1, x, x_outer)
    except NumericalDegeneracyError as err:
        err.add_context(point_index=i)
        raise
    lut = np.full(cache.next_label, -1, dtype=np.int64)
    lut[cache.labels] = np.arange(len(cache.labels))
    relabel = {lab: int(lut[lab]) for lab in cache.labels}
    return PartitionState(
        labels=lut[labels],
        clusters=cache.clusters_dict(relabel),
        hyper=state.hyper,
    )


def crp_log_prob(alpha, sizes, n):
    """Log of the exchangeable partition probability under CRP(alpha)."""
    k = len(sizes)
    total = k * math.log(alpha) + gammaln(alpha) - gammaln(alpha + n)
    for size in sizes:
        total += gammaln(size)
    return float(total)


def log_joint(state):
    """log p(x, z): CRP partition prior plus per-cluster marginal likelihoods."""
    sizes = [s.n for s in state.clusters.values()]
    value = crp_log_prob(state.hyper.alpha, sizes, int(state.labels.shape[0]))
    for stats in state.clusters.values():
        value += log_marginal(stats, state.hyper.prior)
    return value


def run_cgs(data, hyper, iterations, seed, ground_truth=None, record_trace=True):
    """Run the centralized sampler from a single-cluster initialization.

    Returns (final PartitionState, RunTrace).  The trace records log p(x, z),
    the cluster count, wall-clock seconds per iteration, and (when ground
    truth labels are supplied) the adjusted Rand index after each iteration.
    Sweeps run on the data centered on the prior mean; the returned state
    holds the statistics of ``data`` as given.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1, got %r" % (iterations,))
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("data must be a non-empty (n, d) array")
    rng = np.random.default_rng(np.random.SeedSequence(seed_to_u64(seed)))
    centered, centered_hyper = center_on_prior(data, hyper)
    state = PartitionState.single_cluster(centered, centered_hyper)
    trace = RunTrace(
        meta={
            "algorithm": "cgs",
            "iterations": int(iterations),
            "seed": int(seed),
            "alpha": hyper.alpha,
            "n": int(data.shape[0]),
            "d": int(data.shape[1]),
        }
    )
    truth = None if ground_truth is None else np.asarray(ground_truth)
    for t in range(1, iterations + 1):
        started = time.perf_counter()
        try:
            state = cgs_sweep(state, centered, rng)
        except NumericalDegeneracyError as err:
            err.add_context(iteration=t)
            raise
        if record_trace:
            score = None
            if truth is not None:
                from .metrics import ari

                score = ari(state.labels, truth)
            trace.append(
                IterationRecord(
                    iteration=t,
                    log_joint=log_joint(state),
                    num_clusters=state.num_clusters,
                    seconds=time.perf_counter() - started,
                    ari=score,
                )
            )
    return PartitionState.from_labels(data, state.labels, hyper), trace
