"""Centralized collapsed Gibbs sampler for the DP Gaussian mixture.

Component parameters are integrated out; the sampler operates on the partition
alone.  Each sweep visits every point in index order and reassigns it among
existing clusters and one fresh cluster with log-weights

    existing k: log n_k    + log p(x | cluster k's posterior, x taken out)
    new:        log alpha  + log p(x | base measure)

sampled by inverse CDF on a single uniform, so RNG consumption is exactly one
draw per point per sweep.  Points are scored in blocks.  A point is scored in
its own cluster without leaving it, so the cluster table changes only when a
point moves; a singleton's own entry is -inf, so it always moves, and the
move deletes the row it empties (``_ClusterCache.move``, which the master's
batches share).  A run of consecutive points is scored against the unchanged
table at once, with one matrix product of the rows' augmented whitening maps
and the points.  A block is committed up to and including its first point
that changes the table, or, when it plans several moves between existing
rows, up to and including the first point whose draw against the rows as
its planned moves leave them differs from the plan.  A row's raw sums are
the moment matrix of [1, x], and one Cholesky factor of it plus the base
row gives the row's whitening map and log det.  Row terms that depend only
on a count are rows filled in bulk and gathered by count: of one array per
model for counts below a cap, filled before any worker starts, and above it
of chunks of consecutive counts, each filled when first met and memoized.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np
# What np.linalg.cholesky and .inv wrap, less their checks; a failed factor is NaN.
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky, inv as _inverse

from .errors import NumericalDegeneracyError
from .niw import ModelHyperParams, NiwParams, cholesky_logdet
from .trace import run_iterations

_LOG_PI = math.log(math.pi)
# Block lengths in cgs_sweep.  Scoring a block costs a fixed overhead, about
# that of 1,500 (point, candidate row) cells with NumPy 2 and OpenBLAS at
# d <= 8, plus one cell per point and row; the points after the block's end
# are scored in vain.  With runs of mean length L committed per block that
# ends early, the cost per committed point is least near
# sqrt(2 L overhead / rows) points.  L starts at 16; each block decays the
# earlier counts by 0.75.  Rescoring a block's later points costs a cell per
# point and row version (two per planned move), so it is tried only where it
# saves more overhead than it costs.  A product takes rows * d * (d + 1)
# multiply-adds per point, which OpenBLAS runs on every core above 2^18 of
# them (stalling workers that share the cores), and rows * d doubles per
# point of temporaries, so rows * d * max(d + 1, 4) per point stays under
# 2^18, for a block and for its rescoring alike.
_BLOCK_OVERHEAD = 1500.0
_BLOCK_CELLS = 1 << 18
_FIRST_RUN = 16.0
_RUN_DECAY = 0.75
_U64 = (1 << 64) - 1
# Only counts below _COUNT_CAP have rows in a model's array of count terms,
# which keeps it at 256 KB, filled in about 2-3 ms.  On 20,000 points every
# cluster can be larger: such a row comes from a chunk of _CHUNK consecutive
# counts (8 KB), filled in about 0.1 ms when a count in it is first met; a
# model keeps its last _CHUNKS chunks (about 2 MB at most).
_COUNT_CAP = 4096
_CHUNK = 128
_CHUNKS = 256


def _calls(f, args):
    """``f`` of each entry of the float array ``args``, called once per value."""
    values = np.sort(args, axis=None)  # np.unique would import numpy.ma
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    return np.array(list(map(f, values.tolist())))[np.searchsorted(values, args)]


def _fill_counts(kappa, nu, d, alpha, start, size):
    """Terms CRP..OWN_POWER of rows of m points before their log det Psi
    (A(m) in place of MARGINAL), for the ``size`` counts m from ``start``:
    (size, 8).  Each entry is the scalar definition's, bit for bit: the
    count constant is log m (log alpha at m = 0) plus every point-weight
    term that depends only on m, by ``math.log`` and ``math.lgamma`` of
    the definition's own arguments (never ``np.log``, whose last bits may
    differ), joined by the same IEEE operations in its order."""
    lo = max(start - 1, 0)  # row m's own terms take the constant of m - 1
    m = np.arange(lo, start + size, dtype=np.float64)
    kappa, nu = kappa + m, nu + m
    args = [0.5 * nu - 0.5 * j for j in range(d)] + [0.5 * (nu + 1.0), 0.5 * (nu + 1.0 - d)]
    *gammas, up, down = _calls(math.lgamma, np.array(args))
    crp, log_kappa, log_next = _calls(math.log, np.array([np.maximum(m, 1.0), kappa, kappa + 1.0]))
    if not lo:
        crp[0] = math.log(alpha)
    const = crp - 0.5 * d * _LOG_PI + 0.5 * d * (log_kappa - log_next) + up - down
    # sum() adds the arrays one at a time from 0, as niw.log_multigamma adds its floats.
    marginal = -0.5 * d * (m * _LOG_PI + log_kappa) + (sum(gammas) + d * (d - 1) / 4.0 * _LOG_PI)
    terms = np.empty((m.shape[0], 8))
    terms[:, :5] = np.stack([crp, marginal, const, kappa / (kappa + 1.0), 0.5 * (nu + 1.0)], axis=1)
    # Taking x out of a cluster of m >= 2 gives Psi' = Psi - kappa / (kappa - 1) v v^T
    # with v = x - mu, so log det Psi' = log det Psi + log1p(-kappa q / (kappa - 1)).
    terms[1:, 5:] = np.stack([const[:-1], -kappa[1:] / (kappa[1:] - 1.0), 0.5 * (nu[1:] - 1.0)], axis=1)
    terms[m < 2.0, 5:] = (-math.inf, 0.0, 0.0)  # a singleton's only other home is "new"
    return terms[start - lo :]


@functools.lru_cache(maxsize=1)
def _count_rows(kappa, nu, d, alpha):
    """The model's array of row terms by count, (_COUNT_CAP, 8), filled once.
    Every table of the model shares it, in workers forked after
    ``run_inputs`` too.  Only the last model's is kept."""
    return _fill_counts(kappa, nu, d, alpha, 0, _COUNT_CAP)


@functools.lru_cache(maxsize=1)
def _count_chunks(kappa, nu, d, alpha):
    """The model's memo of chunks of row terms: called with (start, size),
    the rows of counts start..start + size - 1, filled on first use; it
    keeps the last _CHUNKS used.  Threads that miss one chunk at once may
    each fill it, alike.  Only the last model's is kept."""
    return functools.lru_cache(maxsize=_CHUNKS)(functools.partial(_fill_counts, kappa, nu, d, alpha))


def seed_to_u64(seed):
    return int(seed) & _U64


def pack_stats(n, sums, outers):
    """Raw sums (n, sum x, sum x x^T) packed along the last axis as the
    flattened (d + 1) x (d + 1) moment matrix of [1, x], [[n, s^T], [s, S]]."""
    top = np.concatenate((np.expand_dims(n, -1), sums), axis=-1)
    below = np.concatenate((np.expand_dims(sums, -1), outers), axis=-1)
    return np.concatenate((np.expand_dims(top, -2), below), axis=-2).reshape(top.shape[:-1] + (-1,))


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

    @classmethod
    def single_cluster(cls, data, hyper):
        data = np.asarray(data, dtype=np.float64)
        row = pack_stats(data.shape[0], data.sum(axis=0), data.T @ data)
        table = _ClusterCache(hyper.prior, hyper.alpha, [0], [row])
        return cls(labels=np.zeros(data.shape[0], dtype=np.int64), table=table)


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


def run_inputs(data, hyper, ground_truth=None):
    """Check a run's data and ground truth, and fill the model's array of
    count terms, which workers forked later inherit; returns (the
    data centered on the prior, the centered model, the truth flattened or None)."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("data must be a non-empty (n, d) array")
    if not np.isfinite(data).all():
        raise ValueError("data must be finite: it has NaN or infinite entries")
    if ground_truth is not None:
        ground_truth = np.asarray(ground_truth).reshape(-1)
        if ground_truth.shape[0] != data.shape[0]:
            raise ValueError(
                "ground truth length does not match data: %d labels for %d points"
                % (ground_truth.shape[0], data.shape[0])
            )
    data, hyper = center_on_prior(data, hyper)
    _count_rows(hyper.prior.kappa, hyper.prior.nu, hyper.prior.d, hyper.alpha)  # before any worker starts
    return data, hyper, ground_truth


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

    Exact raw sums (n, sum x, sum x x^T) are the source of truth, packed in
    one row of ``stats`` as the flattened moment matrix [[n, s^T], [s, S]]
    of [1, x] ((d + 1)^2 wide), so that a move or a merge is one add;
    ``counts`` views its first column.  Beside them each row caches the
    augmented map [-L^-1 mu | L^-1] (d x (d + 1), ``maps``) of
    Psi = L L^T and the posterior mean mu, and scalar terms
    (``terms``, columns named by _CRP.._OWN_POWER), computed from the sums
    (never updated in place) whenever they change.  Both come from one
    Cholesky factor of the row plus the base row,
    [[kappa_n, t^T], [t, Psi_n + t t^T / kappa_n]] with t = kappa_n mu:
    it is [[sqrt kappa_n, 0], [t / sqrt kappa_n, L]], and the lower d rows
    of its inverse are the augmented map.  ``_factor`` alone turns packed
    sums into these factors: a refresh's rows, a block's planned row
    versions and a batch's candidates alike.  A row's factors depend on
    its sums alone, bit for bit, not on the rows factored with it, so a row
    may move with its factors.  Only points are scored with the maps: a
    table built with ``points=False`` (the master's) keeps none, and
    skips the inverse; its ``maps`` is None.
    """
    # A view of the counts, made on each access, so that it follows
    # ``stats`` when the table grows and survives a copy or a pickle.
    counts = property(lambda self: self.stats[:, 0])
    # CRP is log m (log alpha on the base row).  MARGINAL is the row's log
    # marginal plus a constant of the table, A(m) - nu_m / 2 log det Psi with
    # A(m) = -d / 2 (m log pi + log kappa_m) + log Gamma_d(nu_m / 2), so a
    # cluster's log marginal is its MARGINAL less the base row's.  A point's
    # weight against row k is BASE - POWER log1p(GAIN q); against its own
    # row, with itself taken out, OWN_BASE + OWN_POWER log1p(OWN_SHRINK q).
    _CRP, _MARGINAL, _BASE, _GAIN, _POWER, _OWN_BASE, _OWN_SHRINK, _OWN_POWER = range(8)

    def __init__(self, prior, alpha, labels, stats, *, points=True):
        """Rows of clusters ``labels`` (ascending) copied from packed raw sums
        (K, (d + 1)^2); with ``points=False``, a table that scores batches only."""
        self.prior = prior
        self.alpha = alpha
        self.d = d = prior.d
        self._name_rows([int(lab) for lab in labels])
        k = len(self.labels)
        shapes = {"stats": ((d + 1) ** 2,), "maps": (d, d + 1), "terms": (8,)}
        self._row_arrays = ("stats", "maps", "terms") if points else ("stats", "terms")
        self.maps = None
        for name in self._row_arrays:
            setattr(self, name, np.zeros((max(16, k + 2),) + shapes[name]))
        if k:
            self.stats[:k] = stats
            if self.counts[:k].min() < 1:
                raise ValueError("cluster %d is empty" % self.labels[self.counts[:k].argmin()])
        # Adding this base row to raw sums gives [[kappa_n, t^T], [t, Psi_n + t t^T / kappa_n]] with
        # t = kappa0 mu0 + sum x, since Psi_n = Psi0 + kappa0 mu0 mu0^T + sum x x^T - t t^T / kappa_n.
        kappa_mu = prior.kappa * prior.mu
        self._base = pack_stats(prior.kappa, kappa_mu, prior.psi + kappa_mu[:, None] * prior.mu)
        self._count_rows = _count_rows(prior.kappa, prior.nu, d, alpha)
        self._count_chunks = _count_chunks(prior.kappa, prior.nu, d, alpha)
        with np.errstate(all="ignore"):
            self._refresh(np.arange(k + 1))

    # -- row maintenance ----------------------------------------------------

    def _name_rows(self, labels):
        """Name rows 0..K-1 by ``labels`` (ascending ints); new rows are numbered above them."""
        self.labels = labels
        self.next_label = labels[-1] + 1 if labels else 0
        self.row_of = np.full(max(16, self.next_label), -1, dtype=np.int64)  # label -> row, -1 if none
        self.row_of[labels] = np.arange(len(labels))

    def _count_terms(self, counts):
        """Terms CRP..OWN_POWER (R, 8, a new array) of rows of ``counts``
        (R,) before their log det Psi: rows of the model's array, and for
        counts at or above _COUNT_CAP rows of the memoized chunks of _CHUNK
        counts that hold them."""
        held, at = self._count_rows, counts.astype(np.intp)
        if np.maximum.reduce(at) < held.shape[0]:
            return held.take(at, axis=0)
        terms = held.take(np.minimum(at, held.shape[0] - 1), axis=0)
        large = np.flatnonzero(at >= held.shape[0])
        for r, m in zip(large.tolist(), at[large].tolist()):
            terms[r] = self._count_chunks(m - m % _CHUNK, _CHUNK)[m % _CHUNK]
        return terms

    def _factor_error(self, stats, what):
        """The error of a packed row plus the base row ``stats`` whose factor
        failed, as ``cholesky_logdet`` reports its explicit scale
        Psi_n = Psi' - t t^T / kappa_n: non-finite entries, or not positive
        definite with its least eigenvalue (none where rounding lets it pass)."""
        moments = stats.reshape(self.d + 1, self.d + 1)
        t = moments[1:, 0]
        try:
            cholesky_logdet(moments[1:, 1:] - np.outer(t, t / moments[0, 0]), what)
        except NumericalDegeneracyError as err:
            return err
        return NumericalDegeneracyError("%s is not positive definite" % what)

    def _factor(self, stats):
        """The augmented maps (R, d, d + 1; None on a table without maps),
        terms (R, 8) and first failed row of packed rows ``stats``
        (R, (d + 1)^2, overwritten by themselves plus the base row), whether
        the table's or not: the table's one factoring.  Each row plus the
        base row gets one Cholesky factor, whose diagonal gives half
        log det Psi_n by one reduction and whose stacked inverse gives the
        maps.  A failed factor is NaN, and so is its row's MARGINAL; the
        first row whose MARGINAL is not finite is returned, or -1 if every
        row factored.  The caller ignores floating-point errors."""
        counts = stats[:, 0].copy()
        stats += self._base
        chol = _cholesky(stats.reshape(-1, self.d + 1, self.d + 1), signature="d->d")
        half = np.add.reduce(np.log(chol.diagonal(0, 1, 2)[:, 1:]), axis=1)
        terms = self._count_terms(counts)
        terms[:, self._MARGINAL] -= (self.prior.nu + counts) * half
        terms[:, self._BASE] -= half
        terms[:, self._OWN_BASE] -= half
        marginals = terms[:, self._MARGINAL]
        failed = -1 if math.isfinite(np.add.reduce(marginals)) else int(np.isfinite(marginals).argmin())
        if self.maps is None:
            return None, terms, failed
        # The inverse comes from LAPACK (dgesv); for (d + 1) x (d + 1) blocks
        # this small OpenBLAS runs it on one thread, so workers sharing the
        # cores do not stall each other.
        return _inverse(chol, signature="d->d")[:, 1:], terms, failed

    def _refresh(self, rows):
        """Recompute the cached posteriors of ``rows`` (an index array) from
        their sums; the caller ignores floating-point errors (a failed factor
        raises here)."""
        stats = self.stats.take(rows, axis=0)
        maps, terms, failed = self._factor(stats)
        if failed >= 0:
            r = int(rows[failed])
            err = self._factor_error(stats[failed], "cluster posterior scale")
            raise err.add_context(cluster_label=self.labels[r] if r < len(self.labels) else "new")
        if maps is not None:
            self.maps[rows] = maps
        self.terms[rows] = terms

    # -- mutation -----------------------------------------------------------

    def delete(self, label):
        """Delete a cluster and its row; later rows move up one."""
        r = self.row_of[label]
        k = len(self.labels)
        for name in self._row_arrays:
            arr = getattr(self, name)
            arr[r:k] = arr[r + 1 : k + 1]
        self.row_of[label] = -1
        del self.labels[r]
        self.row_of[self.labels[r:]] -= 1

    def _open_row(self):
        """Open row K for a new cluster numbered ``next_label``: a copy of the
        base-measure row (zero sums), which moves down one."""
        k = len(self.labels)
        for name in self._row_arrays:
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

    def move(self, label, choice, row):
        """Move points with packed raw sums ``row`` into candidate row ``choice``.

        The points leave cluster ``label`` (None: they enter from outside),
        and the base-measure row opens a new cluster.  ``row`` is added to
        the target, then taken from the source, whose row is deleted if the
        move empties it and else refreshed with the target's.  A whole
        cluster that moves to a new row is rotated instead when the new
        row's sums, the base row's zeros plus ``row``, equal its own byte
        for byte (a -0.0 in its sums, which the add makes +0.0, fails):
        its row, cached factors and all, becomes the new row, as a refresh
        would cache it.  A failed draw (-1) raises before the table
        changes.  Returns the target's label.
        """
        if choice < 0:
            raise NumericalDegeneracyError("non-finite sampling weights")
        k = len(self.labels)
        r = None if label is None else self.row_of[label]
        if choice == k:
            self._open_row()
            if r is not None and (self.stats[k] + row).tobytes() == self.stats[r].tobytes():
                for name in self._row_arrays:
                    arr = getattr(self, name)
                    arr[k] = arr[r]
                self.delete(label)
                return self.labels[-1]
        self.stats[choice] += row
        target, rows = self.labels[choice], [choice]
        if r is not None:
            self.stats[r] -= row
            if self.counts[r]:
                rows.insert(0, r)
            else:
                self.delete(label)
                rows = [self.row_of[target]]
        self._refresh(np.array(rows))
        return target

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
                self.stats[first[j]] += self.stats[r]
                merged.add(j)
        keep = np.append(first, len(self.labels))  # the base-measure row stays last
        for name in self._row_arrays:
            arr = getattr(self, name)
            arr[: keep.shape[0]] = arr[keep]
        self._name_rows(labels.tolist())
        if merged:
            with np.errstate(all="ignore"):
                self._refresh(np.array(sorted(merged)))

    # -- evaluation ---------------------------------------------------------

    def point_log_weights(self, xs, own=None):
        """Log-weights of points over (clusters by ascending label, new).

        ``xs`` is a block of B points as columns under a first row of ones,
        (d + 1, B); candidates run along the first axis of the result,
        (K+1, B).  By the matrix-determinant lemma, absorbing x changes
        log det Psi by log1p(kappa / (kappa + 1) q) with
        q = |L^-1 x - L^-1 mu|^2, so one matrix product with the augmented
        maps scores every point against every row.  The caller ignores
        floating-point errors.

        ``own`` holds, per point, the row of the cluster that already holds
        it.  That entry is the point's weight with it taken out,
        p(C) / p(C \\ x), computed without changing the table: -inf for a
        singleton, whose row would be deleted, and NaN where the downdate is
        not positive definite.  A table without maps raises ValueError.
        """
        if self.maps is None:
            raise ValueError("this cluster table keeps no whitening maps: it scores batches only")
        rows = len(self.labels) + 1
        q = self._squares(self.maps[:rows], xs)
        if own is not None:
            at = own * q.shape[1] + np.arange(own.shape[0])  # (own, column) in q and weights, flat
            own_weights = self._own_weights(q.take(at), self.terms.take(own, axis=0))
        weights = self._row_weights(q, self.terms[:rows, :, None])
        if own is not None:
            weights.put(at, own_weights)
        return weights

    def _squares(self, maps, xs):
        """q = |L^-1 x - L^-1 mu|^2 of rows with augmented maps ``maps``
        (R, d, d + 1) against the point columns ``xs`` (d + 1, B), with one
        matrix product: (R, B)."""
        z = maps.reshape(-1, self.d + 1) @ xs
        z *= z
        return np.add.reduce(z.reshape(maps.shape[0], self.d, -1), axis=1) if self.d > 1 else z

    @classmethod
    def _row_weights(cls, q, terms):
        """A point's weight BASE - POWER log1p(GAIN q) against rows with
        ``terms`` (their columns along the second axis), in place on q."""
        q *= terms[:, cls._GAIN]
        np.log1p(q, out=q)
        q *= terms[:, cls._POWER]
        return np.subtract(terms[:, cls._BASE], q, out=q)

    @classmethod
    def _own_weights(cls, q, terms):
        """A point's weight OWN_BASE + OWN_POWER log1p(OWN_SHRINK q) against
        the rows with ``terms`` that hold it, with it taken out; NaN where
        the downdate is not positive definite."""
        shrink = terms[:, cls._OWN_SHRINK] * q
        weights = terms[:, cls._OWN_BASE] + terms[:, cls._OWN_POWER] * np.log1p(shrink)
        if not np.minimum.reduce(shrink, axis=None) > -1.0:
            weights[shrink <= -1.0] = np.nan
        return weights

    def batch_log_weights(self, row, own=None):
        """Log-weights of a batch with packed raw sums ``row`` over (clusters
        by ascending label, new).  The caller ignores floating-point errors.

        The candidates' merged raw sums are factored by ``_factor``, as a
        refresh factors rows, so MARGINAL(C + B) is by construction bit for
        bit what C's row caches once B moves in.  A candidate C's weight is
        its CRP term plus log p(B | C) = MARGINAL(C + B) - MARGINAL(C).
        ``own`` is the row of the cluster C that holds the batch.  That
        entry is the batch's weight with the batch taken out,
        p(C) / p(C \\ batch), computed without changing the table: its place
        in the stack factors the sums of C \\ batch, and its gain flips sign;
        it is -inf (log 0) when the batch is all of C, as for a singleton
        point.
        """
        rows = len(self.labels) + 1
        stats = self.stats[:rows] + row
        if own is not None:
            stats[own] = self.stats[own] - row
        _, terms, failed = self._factor(stats)
        if failed >= 0:
            raise self._factor_error(stats[failed], "candidate scale matrix")
        gains = terms[:, self._MARGINAL] - self.terms[:rows, self._MARGINAL]
        weights = self.terms[:rows, self._CRP] + gains
        if own is not None:
            weights[own] = (-math.inf if self.stats[own, 0] == row[0] else terms[own, self._CRP]) - gains[own]
        return weights

    def log_joint(self, n):
        """log p(x, z) of the table's n points: the CRP partition prior plus
        each cluster's log marginal, its MARGINAL less the base row's."""
        k = len(self.labels)
        marginals = self.terms[:k, self._MARGINAL] - self.terms[k, self._MARGINAL]
        return crp_log_prob(self.alpha, self.counts[:k].tolist(), n) + float(marginals.sum())


def augment(data):
    """The points ``data`` (n, d) as rows [1, x], (n, d + 1), which a run
    builds once and hands to every ``cgs_sweep``: the transpose of one
    (d + 1, n) array, so that a block of points is a slice of its columns,
    as ``_ClusterCache.point_log_weights`` scores them."""
    return np.vstack((np.ones(data.shape[0]), data.T)).T


@np.errstate(all="ignore")  # a failed factor or downdate is NaN, and raises
def cgs_sweep(state, points, rng):
    """One collapsed Gibbs pass over all points in ascending index order;
    ``points`` are the data as rows [1, x] (``augment``).

    A point is scored in its own cluster without leaving it, so the table
    changes only when a point moves; a singleton, whose own entry is -inf,
    always moves, and ``_ClusterCache.move`` deletes the row it empties.  A
    block of consecutive points is therefore scored against the unchanged
    table at once and drawn with uniforms that the sweep takes from ``rng``
    at its start, one per point in index order, and nothing else.  The
    block is committed up to and including its first point that changes
    the table, and the next block starts after it; or, when the block plans
    enough moves between existing rows to pay for it, ``_speculate``
    rescores the points after the first against the rows as the planned
    moves leave them and commits up to and including the first point whose
    redraw differs from the plan.  Block lengths follow the points
    committed per block seen so far in the sweep; they and the speculation
    set how much work is done, not which draws are made (up to last-bit
    rounding of the weights).
    Emptied clusters are deleted immediately and their labels are not
    reused: surviving clusters keep their labels, and new clusters are
    numbered above the largest label the sweep started with.
    The state's labels and table are updated in place; returns the state.
    """
    cache = state.table
    labels = state.labels
    n = labels.shape[0]
    if points.shape != (n, cache.d + 1):
        raise ValueError("state covers %d points in %d dimensions, points are %r" % (n, cache.d, points.shape))
    columns = points.T  # [1, x] per column
    cache.next_label = cache.labels[-1] + 1 if cache.labels else 0
    uniforms = rng.random(n)
    cells = _BLOCK_CELLS // (cache.d * max(cache.d + 1, 4))
    # Decayed counts of points committed and of blocks that ended early: the run length.
    reached, ends = _FIRST_RUN, 1.0
    i = 0
    try:
        while i < n:
            rows = len(cache.labels) + 1
            length = math.sqrt(2.0 * _BLOCK_OVERHEAD * reached / ends / rows)
            length = int(min(max(length, 1.0), max(cells // rows, 1)))
            own = cache.row_of[labels[i : i + length]]
            block = own.shape[0]
            xs, u = columns[:, i : i + block], uniforms[i : i + block]
            weights = cache.point_log_weights(xs, own)
            draws = sample_log_weights(weights, u)
            stops = draws != own
            count = int(np.count_nonzero(stops))
            stay, column, idx = block, None, -1  # the points committed, then the change at ``stay``
            if count:
                stay = int(stops.argmax())
                column, idx = weights[:, stay], int(draws[stay])
                # Rescoring the points after the first change saves a block's
                # overhead per further change.  It costs about one overhead
                # itself, and a cell per point and row version, two per change.
                cost = 2 * count * (block - stay - 1)
                if count > 2 and (count - 2) * _BLOCK_OVERHEAD > cost and cost <= cells:
                    planned = _speculate(cache, labels[i : i + block], xs, u, weights, own, draws, stops)
                    stay, column, idx = planned or (stay, column, idx)
            reached = _RUN_DECAY * reached + stay + (column is not None)
            ends = _RUN_DECAY * ends + (column is not None or stay < block)
            i += stay
            if column is None:
                continue
            r = int(own[stay])
            if math.isnan(column[r]):
                raise NumericalDegeneracyError(
                    "downdated scale matrix is not positive definite",
                    context={"cluster_label": cache.labels[r]},
                )
            x = columns[:, i]  # [1, x], whose moment matrix is the moved row
            labels[i] = cache.move(int(labels[i]), idx, (x[:, None] * x).ravel())
            i += 1
    except NumericalDegeneracyError as err:
        err.add_context(point_index=i)
        raise
    return state


def _speculate(cache, labels, xs, uniforms, weights, own, draws, stops):
    """Commit a scored block past its first table change, as far as its
    draws hold against the table as its changes leave it.

    ``labels``, ``xs`` and ``uniforms`` are the block's (``labels`` a view
    that is written); ``weights``, ``own``, ``draws`` and ``stops`` come
    from its scoring.  The block's changes between existing rows, up to the
    first that would open or delete a row or cannot be drawn, are the plan.
    Each row a planned change touches gets a version after each such
    change, its sums added in the sweep's order, so that it is the row the
    sweep would meet, and all versions are factored at once.  The points
    after the first change are rescored, own entry included, against the
    versions they would meet, with one product, and redrawn with their own
    uniforms; the point that ends the plan is among them.  The points are
    committed up to the first whose redraw differs from the block's draw,
    or up to the point that ends the plan, whose redraw is then the
    sweep's own.  Returns (stay, column, idx) as ``cgs_sweep`` reads them:
    the points committed, then the weights and draw of the change at
    ``stay``, or None and -1 if there is none; None if there is no plan.
    """
    base, block = len(cache.labels), own.shape[0]
    versions, plan = [], []  # two rows per change; (point, source, target)
    latest, seen = {}, []  # {row: its latest version}; ``latest`` after each change
    end = block  # the first change the plan leaves out
    moves = np.flatnonzero(stops)
    for p, a, b in zip(moves.tolist(), own[moves].tolist(), draws[moves].tolist()):
        source = versions[latest[a]] if a in latest else cache.stats[a]
        if b < 0 or b == base or source[0] == 1.0:  # the source's running count
            end = p
            break
        x = xs[:, p]
        moved = (x[:, None] * x).ravel()
        target = versions[latest[b]] if b in latest else cache.stats[b]
        versions += [source - moved, target + moved]
        latest = {**latest, a: len(versions) - 2, b: len(versions) - 1}
        plan.append((p, a, b))
        seen.append(latest)
    if not plan:
        return None
    versions = np.array(versions)
    maps, terms, failed = cache._factor(versions.copy())
    if failed >= 0:  # a change whose row fails ends the plan, and raises
        cut = failed // 2
        end = plan[cut][0]
        del plan[cut:], seen[cut:]
        if not plan:
            return None
    points = [p for p, _, _ in plan]
    lo, hi = points[0] + 1, min(end + 1, block)  # the points rescored
    # The version of each touched row that each rescored point meets, -1 for the row as scored.
    touched = list(seen[-1])
    met = np.repeat([[s.get(r, -1) for r in touched] for s in seen], np.diff(points + [hi - 1]), axis=0).T
    at_row, at = np.nonzero(met >= 0)
    version = met[at_row, at]
    rows = np.array(touched)[at_row]
    q = cache._squares(maps, xs[:, lo:hi])[version, at]
    version_terms = terms[version]
    own_weights = cache._own_weights(q, version_terms)
    row_weights = cache._row_weights(q, version_terms)  # in place on q
    rescored = weights[:, lo:hi]
    rescored[rows, at] = np.where(own[lo:hi][at] == rows, own_weights, row_weights)
    redraws = sample_log_weights(rescored, uniforms[lo:hi])
    differ = np.flatnonzero(redraws[: end - lo] != draws[lo:end])
    stop = lo + int(differ[0]) if differ.shape[0] else end
    done = bisect.bisect_left(points, stop)  # the planned changes before ``stop``
    for p, _, b in plan[:done]:
        labels[p] = cache.labels[b]
    # The rows as the last committed change leaves them, factored as a refresh would factor them.
    rows, version = list(seen[done - 1]), list(seen[done - 1].values())
    cache.stats[rows] = versions[version]
    cache.maps[rows] = maps[version]
    cache.terms[rows] = terms[version]
    if stop == block:
        return block, None, -1
    idx = int(redraws[stop - lo])
    if idx == own[stop]:  # the point stays after all
        return stop + 1, None, -1
    return stop, rescored[:, stop - lo], idx


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
    order the sweeps numbered the clusters.  Each iteration is a sweep of
    the data centered on the prior mean, run as a step of
    ``trace.run_iterations``, the loop ``run_discgs`` shares; its record
    holds log p(x, z), the cluster count, the seconds and, given ground
    truth (one label per point), the adjusted Rand index.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1, got %r" % (iterations,))
    data, hyper, truth = run_inputs(data, hyper, ground_truth)
    rng = np.random.default_rng(np.random.SeedSequence(seed_to_u64(seed)))
    state, points = PartitionState.single_cluster(data, hyper), augment(data)

    def step(t):
        cgs_sweep(state, points, rng)
        return state.labels, log_joint(state), state.num_clusters

    labels, trace = run_iterations(iterations, truth, step)
    return state.table.row_of[labels], trace
