"""Centralized collapsed Gibbs sampler for the DP Gaussian mixture.

Component parameters are integrated out; the sampler operates on the partition
alone.  Each sweep visits every point in index order and reassigns it among
existing clusters and one fresh cluster with log-weights

    existing k: log n_k    + log p(x | cluster k's posterior, x taken out)
    new:        log alpha  + log p(x | base measure)

sampled by inverse CDF on a single uniform, so RNG consumption is exactly one
draw per point per sweep.  Points are scored in blocks.  A point is scored in
its own cluster without leaving it, so the cluster table changes only when a
point moves or a singleton is reached; a run of consecutive points is scored
against the unchanged table at once, and the block is committed up to and
including its first point that changes the table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf
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
# Block lengths in cgs_sweep.  Scoring a block costs a fixed overhead, about
# that of 1,500 (point, candidate row) cells with NumPy 2 and OpenBLAS at
# d <= 8, plus one cell per point and row; the points after the block's first
# table change are scored in vain.  With runs of mean length L between
# changes, the cost per committed point is least near sqrt(2 L overhead / rows)
# points.  L starts at 16; each block decays the earlier counts by 0.75.
# Scoring also takes rows * d * d multiply-adds per point in one matrix
# product, which OpenBLAS runs on every core above 2^18 of them (stalling
# workers that share the cores), and rows * d doubles per point of
# temporaries, so rows * d * max(d, 4) per point stays under 2^18.
_BLOCK_OVERHEAD = 1500.0
_BLOCK_CELLS = 1 << 18
_FIRST_RUN = 16.0
_RUN_DECAY = 0.75
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


def sample_log_weights(weights, u):
    """Inverse-CDF categorical draws from unnormalized log-weights.

    Candidates run along the first axis: a (K+1,) vector is drawn with the
    uniform ``u``, a (K+1, B) block column by column with the B uniforms
    ``u``.  A column whose largest weight is not finite draws -1.
    """
    m = weights.max(axis=0)
    finite = np.isfinite(m)
    cum = np.add.accumulate(np.exp(weights - np.where(finite, m, 0.0)), axis=0)
    # Counting only the first K partial sums clamps the draw to the last row.
    idx = (cum[:-1] <= u * cum[-1]).sum(axis=0)
    return np.where(finite, idx, -1)


class _ClusterCache:
    """One table of cluster posteriors, scored against points and batches.

    Rows 0..K-1 hold clusters in ascending label order; row K holds the base
    measure (the new-cluster candidate: count 0, CRP weight alpha), so one
    vectorized evaluation yields the whole candidate weight vector in the
    canonical order: existing clusters by ascending label, then "new".

    Exact raw sums (n, sum x, sum x x^T) are the source of truth.  Beside
    them each row caches log det Psi, the whitening factor L^-1 of
    Psi = L L^T, the whitened posterior mean L^-1 mu and the scalar terms of
    a point's weight (``terms``, columns named by _BASE.._OWN_POWER),
    recomputed from the sums (never updated in place) whenever the row's
    membership changes.
    """

    _ROW_ARRAYS = ("counts", "sums", "outers", "log_dets", "whitens", "shifts", "terms")
    # A point's weight against row k is BASE - POWER log1p(GAIN q); against
    # its own row, with itself taken out, OWN_BASE + OWN_POWER log1p(OWN_SHRINK q).
    _BASE, _GAIN, _POWER, _OWN_BASE, _OWN_SHRINK, _OWN_POWER = range(6)

    def __init__(self, prior, alpha, clusters):
        self.prior = prior
        self.log_alpha = math.log(alpha)
        self.d = d = prior.d
        shapes = {"sums": (d,), "shifts": (d,), "outers": (d, d), "whitens": (d, d), "terms": (6,)}
        for name in self._ROW_ARRAYS:
            setattr(self, name, np.zeros((16,) + shapes.get(name, ())))
        # Point-independent weight terms that depend only on the integer
        # cluster count m (through kappa0 + m and nu0 + m); grown lazily.
        self._count_consts = np.empty(0)
        self._identity = np.eye(d)
        self.labels = []
        self.row_of = np.full(16, -1, dtype=np.int64)  # label -> row, -1 if none
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
        m = int(self.counts[r])
        sumv = self.sums[r]
        kappa = p.kappa + m
        nu = p.nu + m
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
        # L^-1 comes from the BLAS triangular solve: OpenBLAS's own LAPACK
        # dtrtrs, dtrtri and dpotri run threaded and stall when workers share
        # the cores.
        whiten = dtrsm(1.0, chol, self._identity, lower=1)
        self.whitens[r] = whiten
        self.shifts[r] = whiten @ ((p.kappa * p.mu + sumv) / kappa)
        self.log_dets[r] = log_det
        # Taking x out of a cluster of m >= 2 gives
        # Psi' = Psi - kappa / (kappa - 1) v v^T with v = x - mu, so
        # log det Psi' = log det Psi + log1p(-kappa q / (kappa - 1)).  A
        # singleton's own entry is -inf: its only other home is "new".
        own = (-math.inf, 0.0, 0.0)
        if m > 1:
            own = (self._count_const(m - 1) - 0.5 * log_det, -kappa / (kappa - 1.0), 0.5 * (nu - 1.0))
        self.terms[r] = (
            self._count_const(m) - 0.5 * log_det, kappa / (kappa + 1.0), 0.5 * (nu + 1.0)
        ) + own

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
        self.row_of[label] = -1
        self.row_of[self.labels[r:]] -= 1

    def create(self, n, sumv, outer):
        """Open a fresh cluster holding n points; returns its label."""
        k = len(self.labels)
        self._grow(k + 2)
        for name in self._ROW_ARRAYS:  # the base-measure row moves down one
            arr = getattr(self, name)
            arr[k + 1] = arr[k]
        label = self.next_label
        self.next_label += 1
        if label >= self.row_of.shape[0]:
            self.row_of = np.append(self.row_of, np.full(label + 1, -1, dtype=np.int64))
        self.labels.append(label)
        self.row_of[label] = k
        self.add(label, n, sumv, outer)
        return label

    # -- evaluation ---------------------------------------------------------

    def point_log_weights(self, xs, own=None):
        """Log-weights of points over (clusters by ascending label, new).

        ``xs`` is one point (d,) or a block of points (B, d); candidates run
        along the first axis of the result, (K+1,) or (K+1, B).  By the
        matrix-determinant lemma, absorbing x changes log det Psi by
        log1p(kappa / (kappa + 1) q) with q = |L^-1 x - L^-1 mu|^2, so one
        matrix product scores every point against every row.

        ``own`` holds, per point, the row of the cluster that already holds
        it.  That entry is the point's weight with it taken out,
        p(C) / p(C \\ x), computed without changing the table: -inf for a
        singleton, whose row would be deleted, and NaN where the downdate is
        not positive definite.
        """
        rows = len(self.labels) + 1
        d = self.d
        z = self.whitens[:rows].reshape(rows * d, d) @ xs.reshape(-1, d).T
        z -= self.shifts[:rows].reshape(-1, 1)
        z *= z
        q = z.reshape(rows, d, -1).sum(axis=1) if d > 1 else z
        terms = self.terms[:rows, :, None]
        weights = terms[:, self._BASE] - terms[:, self._POWER] * np.log1p(terms[:, self._GAIN] * q)
        if own is not None:
            r = np.reshape(own, -1)
            cols = np.arange(r.shape[0])
            base, shrink, power = self.terms[r, self._OWN_BASE :].T
            shrink = shrink * q[r, cols]
            valid = shrink > -1.0
            degenerate = not valid.all()
            if degenerate:
                shrink[~valid] = 0.0
            own_weights = base + power * np.log1p(shrink)
            if degenerate:
                own_weights[~valid] = np.nan
            weights[r, cols] = own_weights
        return weights if xs.ndim == 2 else weights[:, 0]

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
        kap = p.kappa + self.counts[:rows]
        nu = p.nu + self.counts[:rows]
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

    A point is scored in its own cluster without leaving it, so the table
    changes only when a point moves, or when a singleton is reached (its
    cluster is deleted, and re-created under a new label if it draws
    "new").  A block of consecutive points is therefore scored against the
    unchanged table at once and drawn with uniforms taken for the whole
    sweep up front, one per point in index order.  The block is committed up
    to and including its first point that changes the table, and the next
    block starts after it.  Block lengths follow the run lengths between
    such points seen so far in the sweep; they set how much work is done,
    not which draws are made (up to last-bit rounding of the weights).
    Emptied clusters are deleted immediately; labels are compacted to a
    dense 0..K-1 range (ascending original label order) once at sweep end.
    When ``weight_log`` is a list, the log-weight vector of each point
    reached is appended to it (a singleton's without its own cluster).
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if state.labels.shape[0] != n:
        raise ValueError("state covers %d points, data has %d" % (state.labels.shape[0], n))
    cache = _ClusterCache.from_partition(state)
    labels = np.array(state.labels, dtype=np.int64, copy=True)
    uniforms = rng.random(n)
    cells = _BLOCK_CELLS // (cache.d * max(cache.d, 4))
    # Decayed counts of points reached and of table changes: the run length.
    reached, changes = _FIRST_RUN, 1.0
    i = 0
    try:
        while i < n:
            rows = len(cache.labels) + 1
            length = math.sqrt(2.0 * _BLOCK_OVERHEAD * reached / changes / rows)
            length = int(min(max(length, 1.0), max(cells // rows, 1)))
            own = cache.row_of[labels[i : i + length]]
            weights = cache.point_log_weights(data[i : i + own.shape[0]], own)
            draws = sample_log_weights(weights, uniforms[i : i + own.shape[0]])
            stops = draws != own
            stay = int(stops.argmax())
            changed = bool(stops[stay])
            if not changed:
                stay = own.shape[0]
            if weight_log is not None:
                weight_log.extend(weights[:, :stay].T.copy())
            reached = _RUN_DECAY * reached + stay + changed
            changes = _RUN_DECAY * changes + changed
            i += stay
            if not changed:
                continue
            r, idx = int(own[stay]), int(draws[stay])
            column = weights[:, stay]
            if np.isnan(column[r]):
                raise NumericalDegeneracyError(
                    "downdated scale matrix is not positive definite",
                    context={"cluster_label": cache.labels[r]},
                )
            singleton = cache.counts[r] == 1.0
            if weight_log is not None:
                weight_log.append(np.delete(column, r) if singleton else column.copy())
            if idx < 0:
                raise NumericalDegeneracyError("non-finite sampling weights")
            x = data[i]
            x_outer = x[:, None] * x
            cache.remove(int(labels[i]), 1, x, x_outer)
            if singleton and idx > r:
                idx -= 1  # deleting the singleton's row moved later rows up
            if idx == len(cache.labels):
                labels[i] = cache.create(1, x, x_outer)
            else:
                labels[i] = cache.labels[idx]
                cache.add(cache.labels[idx], 1, x, x_outer)
            i += 1
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
