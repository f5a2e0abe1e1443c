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
# What np.linalg.cholesky and .inv wrap, less their checks; a failed factor is NaN.
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky, inv as _inverse

from .errors import NumericalDegeneracyError
from .niw import (
    ModelHyperParams,
    NiwParams,
    SufficientStats,
    _readonly,
    cholesky_logdet,
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
# lgamma((b + i) / 2) for i = 0, 1, ... by b, and row terms by model and count:
# filled on demand and shared by every table, so master sweeps reuse them.
_HALF_LGAMMA = {}
_COUNT_ROWS = {}


def _half_lgamma(b, size):
    table = _HALF_LGAMMA.get(b)
    if table is None or table.shape[0] < size:
        size = max(size, 64, 0 if table is None else 2 * table.shape[0])
        table = _HALF_LGAMMA[b] = np.array([math.lgamma(0.5 * (b + i)) for i in range(size)])
    return table


def seed_to_u64(seed):
    return int(seed) & _U64


@dataclass
class PartitionState:
    """Labels of the points and the live table of their clusters' statistics.

    Row r of ``table`` holds the raw sums of the points labelled
    ``table.labels[r]`` and the posterior factors cached from them;
    ``cgs_sweep`` updates both in place.  Labels are non-negative cluster
    ids; ``table.row_of[labels]`` makes them dense (0..K-1), in order.
    """

    labels: np.ndarray
    table: _ClusterCache

    @property
    def num_clusters(self):
        return len(self.table.labels)

    @property
    def clusters(self):
        """{label: SufficientStats} in ascending label order, copied from the table."""
        return self.table.stats()

    @classmethod
    def from_stats(cls, labels, clusters, hyper):
        """State of ``labels`` (copied) and a table of ``clusters``, {label: SufficientStats}."""
        table = _ClusterCache(hyper.prior, hyper.alpha, clusters)
        return cls(labels=np.array(labels, dtype=np.int64), table=table)

    @classmethod
    def single_cluster(cls, data, hyper):
        data = np.asarray(data, dtype=np.float64)
        labels = np.zeros(data.shape[0], dtype=np.int64)
        return cls.from_stats(labels, {0: stats_from_points(data)}, hyper)


def center_on_prior(data, hyper):
    """Translate the data and the prior so that the prior mean is the origin.

    The model is translation invariant, but the raw sums (sum x, sum x x^T)
    of points far from the origin cancel catastrophically when the scatter
    is formed from them; centering once at ingestion keeps them small.
    """
    p = hyper.prior
    if data.shape[1] != p.d:
        raise ValueError("data has %d columns but the prior has %d" % (data.shape[1], p.d))
    prior = NiwParams(mu=np.zeros(p.d), kappa=p.kappa, nu=p.nu, psi=p.psi)
    return data - p.mu, ModelHyperParams(alpha=hyper.alpha, prior=prior)


def sample_log_weights(weights, u):
    """Inverse-CDF categorical draws from unnormalized log-weights.

    Candidates run along the first axis: a (K+1,) vector is drawn with the
    uniform ``u``, a (K+1, B) block column by column with the B uniforms
    ``u``.  A column whose largest weight is not finite draws -1.
    """
    m = np.maximum.reduce(weights, axis=0)  # the ufunc's reduce, not the method's wrapper
    finite = None  # every column's maximum is finite: no masks
    if not math.isfinite(np.add.reduce(m, axis=None)):
        finite = np.isfinite(m)
        m = np.where(finite, m, 0.0)
    cum = np.add.accumulate(np.exp(weights - m), axis=0)
    # Counting only the first K partial sums clamps the draw to the last row.
    idx = np.add.reduce(cum[:-1] <= u * cum[-1], axis=0)
    return idx if finite is None else np.where(finite, idx, -1)


class _ClusterCache:
    """One table of cluster posteriors, scored against points and batches.

    Rows 0..K-1 hold clusters in ascending label order; row K holds the base
    measure (the new-cluster candidate: count 0, CRP weight alpha), so one
    vectorized evaluation yields the whole candidate weight vector in the
    canonical order: existing clusters by ascending label, then "new".

    Exact raw sums (n, sum x, sum x x^T) are the source of truth.  Beside
    them each row caches the whitening factor L^-1 of Psi = L L^T, the
    whitened posterior mean L^-1 mu, and log det Psi with the scalar terms
    of a point's weight (``terms``, columns named by _LOG_DET.._OWN_POWER),
    recomputed from the sums (never updated in place) whenever the row's
    membership changes.
    """

    _ROW_ARRAYS = ("counts", "sums", "outers", "whitens", "shifts", "terms")
    # A point's weight against row k is BASE - POWER log1p(GAIN q); against
    # its own row, with itself taken out, OWN_BASE + OWN_POWER log1p(OWN_SHRINK q).
    _LOG_DET, _BASE, _GAIN, _POWER, _OWN_BASE, _OWN_SHRINK, _OWN_POWER = range(7)

    def __init__(self, prior, alpha, clusters):
        self.prior = prior
        self.alpha = alpha
        self.log_alpha = math.log(alpha)
        self.d = d = prior.d
        self._name_rows(sorted(int(lab) for lab in clusters))
        k = len(self.labels)
        shapes = {"sums": (d,), "shifts": (d,), "outers": (d, d), "whitens": (d, d), "terms": (7,)}
        for name in self._ROW_ARRAYS:
            setattr(self, name, np.zeros((max(16, k + 2),) + shapes.get(name, ())))
        for r, lab in enumerate(self.labels):
            stats = clusters[lab]
            if stats.n < 1:
                raise ValueError("cluster %d is empty" % lab)
            self.counts[r], self.sums[r], self.outers[r] = stats.n, stats.sum, stats.sum_outer
        # Psi_n = Psi0 + kappa0 mu0 mu0^T + sum x x^T - t t^T / kappa_n with
        # t = kappa0 mu0 + sum x; the first two terms are the same in every row.
        self._kappa_mu = prior.kappa * prior.mu
        self._psi_base = prior.psi + self._kappa_mu[:, None] * prior.mu
        self._count_rows = _COUNT_ROWS.setdefault((prior.kappa, prior.nu, d, alpha), {})
        self._refresh(np.arange(k + 1))

    # -- row maintenance ----------------------------------------------------

    def _name_rows(self, labels):
        """Name rows 0..K-1 by ``labels`` (ascending ints); new rows are numbered above them."""
        self.labels = labels
        self.next_label = labels[-1] + 1 if labels else 0
        self.row_of = np.full(max(16, self.next_label), -1, dtype=np.int64)  # label -> row, -1 if none
        self.row_of[labels] = np.arange(len(labels))

    def _count_const(self, m):
        """log m plus every point-weight term that depends only on the count m.

        m = 0 is the base measure, whose CRP weight is alpha.
        """
        kappa = self.prior.kappa + m
        nu = self.prior.nu + m
        return (
            (math.log(m) if m else self.log_alpha)
            - 0.5 * self.d * _LOG_PI
            + 0.5 * self.d * (math.log(kappa) - math.log(kappa + 1.0))
            + math.lgamma(0.5 * (nu + 1.0))
            - math.lgamma(0.5 * (nu + 1.0 - self.d))
        )

    def _count_row(self, m):
        """Terms BASE..OWN_POWER of a row of m points before 0.5 log det Psi, memoized."""
        terms = self._count_rows.get(m)
        if terms is None:
            kappa, nu = self.prior.kappa + m, self.prior.nu + m
            # Taking x out of a cluster of m >= 2 gives
            # Psi' = Psi - kappa / (kappa - 1) v v^T with v = x - mu, so
            # log det Psi' = log det Psi + log1p(-kappa q / (kappa - 1)).  A
            # singleton's own entry is -inf: its only other home is "new".
            own = (-math.inf, 0.0, 0.0)
            if m > 1:
                own = (self._count_const(m - 1), -kappa / (kappa - 1.0), 0.5 * (nu - 1.0))
            row = (self._count_const(m), kappa / (kappa + 1.0), 0.5 * (nu + 1.0))
            terms = self._count_rows[m] = row + own
        return terms

    def _scales(self, counts, sums, outers):
        """Posterior scales Psi_n and means mu_n of rows with these raw sums.

        ``sums`` and ``outers`` are overwritten, ``outers`` with the scales.
        Only the lower triangle of each Psi_n is exact, and only it is read.
        """
        sums += self._kappa_mu
        mus = sums / (counts + self.prior.kappa)[:, None]
        outers += self._psi_base
        outers -= sums[:, :, None] * mus[:, None, :]
        return outers, mus

    def _refresh(self, rows):
        """Recompute the cached posteriors of ``rows`` (an index array) with
        one stacked Cholesky and one stacked inverse."""
        counts = self.counts.take(rows)
        psi, mus = self._scales(counts, self.sums.take(rows, axis=0), self.outers.take(rows, axis=0))
        # L^-1 comes from LAPACK (dgesv); for d x d blocks this small
        # OpenBLAS runs it on one thread, so workers sharing the cores do not
        # stall each other.
        with np.errstate(all="ignore"):
            chol = _cholesky(psi, signature="d->d")
            whitens = _inverse(chol, signature="d->d")
        log_dets = [2.0 * sum(map(math.log, diag)) for diag in chol.diagonal(0, 1, 2).tolist()]
        if not math.isfinite(sum(log_dets)):
            for r, mat in zip(rows.tolist(), psi):  # find the row at fault
                try:
                    cholesky_logdet(mat, "cluster posterior scale")
                except NumericalDegeneracyError as err:
                    raise err.add_context(cluster_label=self.labels[r] if r < len(self.labels) else "new")
        self.whitens[rows] = whitens
        self.shifts[rows] = (whitens @ mus[:, :, None])[:, :, 0]
        for r, m, log_det in zip(rows.tolist(), counts.tolist(), log_dets):
            base, gain, power, own_base, shrink, own_power = self._count_row(m)
            half = 0.5 * log_det
            self.terms[r] = (log_det, base - half, gain, power, own_base - half, shrink, own_power)

    # -- mutation -----------------------------------------------------------

    def delete(self, label):
        """Delete a cluster and its row; later rows move up one."""
        r = self.row_of[label]
        k = len(self.labels)
        for name in self._ROW_ARRAYS:
            arr = getattr(self, name)
            arr[r:k] = arr[r + 1 : k + 1]
        self.row_of[label] = -1
        del self.labels[r]
        self.row_of[self.labels[r:]] -= 1

    def move(self, label, choice, n, sumv, outer):
        """Move n points with raw sums (sumv, outer) into candidate row ``choice``.

        The points leave cluster ``label``, which keeps at least one other
        point, or enter from outside the table when ``label`` is None.  The
        base-measure row opens a new cluster.  The source and target rows
        are refreshed together.  Returns the target's label.
        """
        k = len(self.labels)
        if choice == k:  # a new row; the base-measure row moves down one
            for name in self._ROW_ARRAYS:
                arr = getattr(self, name)
                if k + 2 > arr.shape[0]:
                    arr = np.concatenate([arr, np.zeros_like(arr)])
                    setattr(self, name, arr)
                arr[k + 1] = arr[k]
            if self.next_label >= self.row_of.shape[0]:
                self.row_of = np.append(self.row_of, np.full(self.next_label + 1, -1, dtype=np.int64))
            self.row_of[self.next_label] = k
            self.labels.append(self.next_label)
            self.next_label += 1
        rows = [choice]
        if label is not None:
            r = self.row_of[label]
            self.counts[r] -= n
            self.sums[r] -= sumv
            self.outers[r] -= outer
            rows.insert(0, r)
        self.counts[choice] += n
        self.sums[choice] += sumv
        self.outers[choice] += outer
        self._refresh(np.array(rows))
        return self.labels[choice]

    def rename(self, targets):
        """Give row r the label ``targets[r]`` (non-negative ints, one per row).

        The first row given a label takes in the later ones, in row order,
        which adds their sums in the order ``niw.stats_merge`` does; only
        such merged rows are refreshed.  Rows end in ascending label order.
        """
        labels, first, inverse = np.unique(targets, return_index=True, return_inverse=True)
        merged = set()
        for r, j in enumerate(inverse.tolist()):
            if r != first[j]:
                for arr in (self.counts, self.sums, self.outers):
                    arr[first[j]] += arr[r]
                merged.add(j)
        keep = np.append(first, len(self.labels))  # the base-measure row stays last
        for name in self._ROW_ARRAYS:
            arr = getattr(self, name)
            arr[: keep.shape[0]] = arr[keep]
        self._name_rows(labels.tolist())
        if merged:
            self._refresh(np.array(sorted(merged)))

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
        q = np.add.reduce(z.reshape(rows, d, -1), axis=1) if d > 1 else z
        terms = self.terms[:rows, :, None]
        weights = terms[:, self._BASE] - terms[:, self._POWER] * np.log1p(terms[:, self._GAIN] * q)
        if own is not None:
            r = own if xs.ndim == 2 else np.reshape(own, 1)
            at = r * q.shape[1] + np.arange(r.shape[0])  # (r, column) in q and weights, flat
            base, shrink, power = self.terms.take(r, axis=0)[:, self._OWN_BASE :].T
            shrink = shrink * q.take(at)
            if np.minimum.reduce(shrink) > -1.0:
                own_weights = base + power * np.log1p(shrink)
            else:  # NaN where the downdate is not positive definite
                valid = shrink > -1.0
                own_weights = base + power * np.log1p(np.where(valid, shrink, 0.0))
                own_weights[~valid] = np.nan
            weights.put(at, own_weights)
        return weights if xs.ndim == 2 else weights[:, 0]

    def batch_log_weights(self, stats, own=None):
        """Log-weights of a point batch over (clusters by ascending label, new).

        Each candidate's posterior scale after absorbing the batch is formed
        from the merged raw sums, and all of them are factored by one stacked
        Cholesky.  ``own`` is the row of the cluster C that holds the batch
        and other points.  That entry is the batch's weight with the batch
        taken out, p(C) / p(C \\ batch), computed without changing the table:
        its place in the stack factors the scale of C \\ batch.
        """
        k = len(self.labels)
        rows = k + 1
        nb = stats.n
        counts = self.counts[:rows]
        m = counts + nb
        s = self.sums[:rows] + stats.sum
        o = self.outers[:rows] + stats.sum_outer
        if own is not None:
            m[own] = counts[own] - nb
            s[own] = self.sums[own] - stats.sum
            o[own] = self.outers[own] - stats.sum_outer
        psi, _ = self._scales(m, s, o)
        with np.errstate(all="ignore"):
            chol = _cholesky(psi, signature="d->d")
        log_det = 2.0 * np.log(chol.diagonal(0, 1, 2)).sum(axis=1)
        if math.isnan(log_det.sum()):
            raise NumericalDegeneracyError(
                "candidate scale matrix is not positive definite",
                min_eigenvalue=float(np.linalg.eigvalsh(psi).min()),
            )
        base_log_det = self.terms[:rows, self._LOG_DET]
        if own is not None:
            base_log_det = base_log_det.copy()
            base_log_det[own], log_det[own] = log_det[own], base_log_det[own]
            counts = counts.copy()
            counts[own] -= nb
        # log Gamma_d((nu0 + c) / 2) is, up to a constant, the sum of
        # lgamma((nu0 - d + 1 + c + j) / 2) over j < d.
        d = self.d
        at = counts[:, None].astype(np.intp) + np.arange(d)
        half_lgamma = _half_lgamma(self.prior.nu - d + 1.0, int(at.max()) + nb + 1)
        multigamma = half_lgamma[at + nb].sum(axis=1) - half_lgamma[at].sum(axis=1)
        crp = np.append(np.log(counts[:k]), self.log_alpha)
        return self._plus_gains(crp, counts, nb, multigamma, base_log_det, log_det)

    def _plus_gains(self, start, counts, nb, multigamma, base_log_det, log_det):
        """``start`` plus log p(B | C) = log p(C + B) - log p(C) for each row.

        C holds ``counts`` points and has log det Psi ``base_log_det``; C + B
        holds ``nb`` more points (one batch size, or one per row) and has log
        det Psi ``log_det``.  ``multigamma`` is
        log Gamma_d((nu0 + counts + nb) / 2) - log Gamma_d((nu0 + counts) / 2).
        """
        kap = self.prior.kappa + counts
        nu = self.prior.nu + counts
        return (
            start
            - 0.5 * nb * self.d * _LOG_PI
            + 0.5 * self.d * (np.log(kap) - np.log(kap + nb))
            + multigamma
            + 0.5 * (nu * base_log_det - (nu + nb) * log_det)
        )

    def log_joint(self, n):
        """log p(x, z) of the table's n points: the CRP partition prior plus
        each cluster's log marginal, its gain over the empty base row."""
        k = len(self.labels)
        sizes = self.counts[:k]
        # K * d lgamma calls; the batch lookup table would have to be filled
        # up to the largest cluster (20,000 calls, 5.7 ms, for the first
        # record of a fit on 20,000 points).
        nu0 = self.prior.nu
        base = log_multigamma(self.d, 0.5 * nu0)
        multigamma = [log_multigamma(self.d, 0.5 * (nu0 + m)) - base for m in sizes.tolist()]
        log_dets = self.terms[: k + 1, self._LOG_DET]
        gains = self._plus_gains(
            0.0, np.zeros(k), sizes, np.array(multigamma), log_dets[k], log_dets[:k]
        )
        return crp_log_prob(self.alpha, sizes.tolist(), n) + float(gains.sum())

    def stats(self):
        """{label: SufficientStats} of the rows in ascending label order, copied
        out in one block per field, unchecked: rows hold exact, symmetric sums."""
        k = len(self.labels)
        rows = zip(self.labels, self.counts.tolist(), _readonly(self.sums[:k]), _readonly(self.outers[:k]))
        return {lab: SufficientStats._unchecked(int(n), s, o) for lab, n, s, o in rows}


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
    Emptied clusters are deleted immediately and their labels are not
    reused: surviving clusters keep their labels, and new clusters are
    numbered above the largest label the sweep started with.
    When ``weight_log`` is a list, the log-weight vector of each point
    reached is appended to it (a singleton's without its own cluster).
    The state's labels and table are updated in place; returns the state.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if state.labels.shape[0] != n:
        raise ValueError("state covers %d points, data has %d" % (state.labels.shape[0], n))
    cache = state.table
    labels = state.labels
    cache.next_label = cache.labels[-1] + 1 if cache.labels else 0
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
            if math.isnan(weights[r, stay]):
                raise NumericalDegeneracyError(
                    "downdated scale matrix is not positive definite",
                    context={"cluster_label": cache.labels[r]},
                )
            singleton = cache.counts[r] == 1.0
            if weight_log is not None:
                column = weights[:, stay]
                weight_log.append(np.delete(column, r) if singleton else column.copy())
            if idx < 0:
                raise NumericalDegeneracyError("non-finite sampling weights")
            source = int(labels[i])
            if singleton:
                cache.delete(source)
                source = None
                if idx > r:
                    idx -= 1  # deleting the singleton's row moved later rows up
            x = data[i]
            labels[i] = cache.move(source, idx, 1, x, x[:, None] * x)
            i += 1
    except NumericalDegeneracyError as err:
        err.add_context(point_index=i)
        raise
    return state


def crp_log_prob(alpha, sizes, n):
    """Log of the exchangeable partition probability under CRP(alpha)."""
    total = len(sizes) * math.log(alpha) + math.lgamma(alpha) - math.lgamma(alpha + n)
    for size in sizes:
        total += math.lgamma(size)
    return total


def log_joint(state):
    """log p(x, z): CRP partition prior plus per-cluster marginal likelihoods,
    read from the state's table."""
    return state.table.log_joint(int(state.labels.shape[0]))


def run_cgs(data, hyper, iterations, seed, ground_truth=None):
    """Run the centralized sampler from a single-cluster initialization.

    Returns (final labels, RunTrace), the labels made dense 0..K-1 in the
    order the sweeps numbered the clusters.  The trace records log p(x, z),
    the cluster count, wall-clock seconds per iteration, and (when ground
    truth labels are supplied) the adjusted Rand index after each iteration.
    Sweeps run on the data centered on the prior mean.
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
            cgs_sweep(state, centered, rng)
        except NumericalDegeneracyError as err:
            err.add_context(iteration=t)
            raise
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
    return state.table.row_of[state.labels], trace
