"""Independent oracles used by the unit and acceptance tests.

Everything here is computed by routes that do not share code with the package:
Monte Carlo integration over explicit Normal-Inverse-Wishart draws, Student-t
predictive densities from scipy, and hand-rolled parameter updates.  The one
exception is the point-by-point reference sweep, which scores points on its
own but keeps its clusters in a cluster table of the package's, built afresh
from the state's statistics, so that row order and label numbering match the
sweep it checks; and ``reference_refresh``, which recomputes a table's cached
factors through NumPy's public linalg routines but takes its count constant
from ``count_const``.  ``count_const`` and ``count_row`` are the scalar
definition of the terms that depend only on a cluster's count, which the
package fills in bulk.  ``schur_route`` factors each row's posterior scale formed
explicitly, the route the table's moment-matrix factor replaces.  The
row-by-row CSV writers are the package's writers before they formatted
blocks of rows at once; tests that need a data file with a label column
write it with ``rowwise_write_dataset``.  ``state_from_stats``,
``table_of`` and ``stats_of`` build a state or a cluster table of the
package's from {label: SufficientStats} and read a table's rows back;
``unpack`` and ``packed_stats`` are the tests' one reading of the package's
packed rows of raw sums.  ``recorded_weights`` observes the candidate
weights the sweeps draw from by wrapping the package's scoring and drawing
functions, and ``FixedOrderRng`` sets the order of a master sweep's visits.
``reference_move`` and ``reference_master_sweep`` are the cluster table's
move and the master sweep without their shortcuts (a whole cluster rotated
into a new row, a table without maps, seeded rows summed before their one
factoring, the dense relabel by naming), built from the table's own
delete, refresh and rename.
"""

from __future__ import annotations

import contextlib
import csv

import numpy as np
from scipy.stats import invwishart, multivariate_t

from dpgibbs.errors import NumericalDegeneracyError


def mc_prior_predictive(points, mu0, kappa0, nu0, psi0, n_draws=100_000, seed=0):
    """Monte Carlo estimate of the batch prior predictive density.

    Draws (mu, Sigma) ~ NIW explicitly (Sigma ~ IW(nu0, Psi0), mu ~
    N(mu0, Sigma / kappa0)) and averages the Gaussian likelihood of the batch.
    Returns (mean, standard_error) of the density estimate.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, d = pts.shape
    mu0 = np.asarray(mu0, dtype=float).reshape(d)
    psi0 = np.asarray(psi0, dtype=float).reshape(d, d)
    rng = np.random.default_rng(seed)
    sigmas = invwishart.rvs(df=nu0, scale=psi0, size=n_draws, random_state=rng)
    sigmas = np.asarray(sigmas, dtype=float).reshape(n_draws, d, d)
    chols = np.linalg.cholesky(sigmas)
    z = rng.standard_normal((n_draws, d))
    mus = mu0 + (chols @ z[..., None])[..., 0] / np.sqrt(kappa0)

    diffs = pts[None, :, :] - mus[:, None, :]          # (N, m, d)
    sol = np.linalg.solve(sigmas, diffs.transpose(0, 2, 1))   # (N, d, m)
    quad = (diffs.transpose(0, 2, 1) * sol).sum(axis=(1, 2))
    logdets = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    loglik = -0.5 * m * d * np.log(2.0 * np.pi) - 0.5 * m * logdets - 0.5 * quad
    dens = np.exp(loglik)
    return float(dens.mean()), float(dens.std(ddof=1) / np.sqrt(n_draws))


def t_point_log_predictive(x, mu, kappa, nu, psi):
    """Single-point NIW predictive via the Student-t identity:
    t with df = nu - d + 1, location mu, shape Psi (kappa + 1) / (kappa df)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    d = x.shape[0]
    df = nu - d + 1.0
    shape = np.asarray(psi, dtype=float).reshape(d, d) * (kappa + 1.0) / (kappa * df)
    return float(multivariate_t.logpdf(x, loc=np.asarray(mu, float).reshape(d), shape=shape, df=df))


def manual_posterior(mu0, kappa0, nu0, psi0, pts):
    """NIW posterior parameters computed with plain numpy arithmetic."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n, d = pts.shape
    t = pts.mean(axis=0)
    centered = pts - t
    scatter = centered.T @ centered
    kappa_n = kappa0 + n
    nu_n = nu0 + n
    mu_n = (kappa0 * np.asarray(mu0, float) + n * t) / kappa_n
    diff = np.asarray(mu0, float) - t
    psi_n = np.asarray(psi0, float) + scatter + (kappa0 * n / kappa_n) * np.outer(diff, diff)
    return mu_n, kappa_n, nu_n, psi_n


def set_partitions(items):
    """All set partitions of ``items`` as lists of tuples (Bell number many)."""
    items = list(items)
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out = []
    for sub in set_partitions(rest):
        out.append([(head,)] + [tuple(b) for b in sub])
        for i in range(len(sub)):
            grown = [tuple(b) for b in sub]
            grown[i] = (head,) + grown[i]
            out.append(grown)
    return out


def crp_log_probability(alpha, sizes, n):
    """CRP partition probability by the direct product formula."""
    import math

    value = len(sizes) * math.log(alpha)
    for size in sizes:
        value += math.lgamma(size)  # log (size-1)!
    for i in range(n):
        value -= math.log(alpha + i)
    return value


def enumeration_log_posterior(data, alpha, mu0, kappa0, nu0, psi0):
    """Exact partition posterior by brute-force enumeration.

    Returns (partitions, unnormalized log joints, normalized log posteriors),
    with per-block marginals computed through the Student-t chain oracle.
    """
    from scipy.special import logsumexp

    data = np.atleast_2d(np.asarray(data, dtype=float))
    n = data.shape[0]
    partitions = set_partitions(range(n))
    log_joints = []
    for blocks in partitions:
        value = crp_log_probability(alpha, [len(b) for b in blocks], n)
        for block in blocks:
            value += chain_log_marginal(mu0, kappa0, nu0, psi0, data[list(block)])
        log_joints.append(value)
    log_joints = np.array(log_joints)
    return partitions, log_joints, log_joints - logsumexp(log_joints)


def canonical_partition(labels):
    """Hashable canonical form of a labeling: sorted tuple of sorted blocks."""
    labels = np.asarray(labels)
    blocks = {}
    for i, lab in enumerate(labels):
        blocks.setdefault(int(lab), []).append(i)
    return tuple(sorted(tuple(b) for b in blocks.values()))


def chain_log_marginal(mu0, kappa0, nu0, psi0, pts):
    """Batch marginal via the chain rule over Student-t point predictives."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    total = 0.0
    for i in range(pts.shape[0]):
        if i == 0:
            mu, kappa, nu, psi = np.asarray(mu0, float), kappa0, nu0, np.asarray(psi0, float)
        else:
            mu, kappa, nu, psi = manual_posterior(mu0, kappa0, nu0, psi0, pts[:i])
        total += t_point_log_predictive(pts[i], mu, kappa, nu, psi)
    return total


def validate_scatter(stats):
    """Check that the scatter derived from SufficientStats is PSD."""
    s = stats.scatter
    tr = float(np.trace(s))
    min_eig = float(np.linalg.eigvalsh(s).min()) if stats.n else 0.0
    if min_eig < -1e-9 * max(tr, 0.0):
        raise ValueError("scatter has eigenvalue %.3e below PSD tolerance" % min_eig)
    return stats


def validate_contingency(table):
    """Check that a ContingencyTable's total and marginals agree with its counts."""
    if int(table.counts.sum()) != table.n:
        raise ValueError("contingency total does not equal n")
    if not np.array_equal(table.counts.sum(axis=1), table.row_sums):
        raise ValueError("row marginals inconsistent")
    if not np.array_equal(table.counts.sum(axis=0), table.col_sums):
        raise ValueError("column marginals inconsistent")
    return table


def validate_partition(state, data, rtol=1e-8):
    """Check the PartitionState invariants against the raw data."""
    from dpgibbs.niw import stats_from_points

    labels = state.labels
    n = labels.shape[0]
    if n != np.asarray(data).shape[0]:
        raise ValueError("labels length does not match data")
    present = set(int(v) for v in np.unique(labels))
    clusters = stats_of(state.table)
    if present != set(clusters):
        raise ValueError("cluster keys %r do not match labels %r" % (set(clusters), present))
    if present and present != set(range(len(present))):
        raise ValueError("labels are not dense 0..K-1: %r" % present)
    for lab, stats in clusters.items():
        member = np.asarray(data)[labels == lab]
        ref = stats_from_points(member)
        if stats.n != ref.n:
            raise ValueError("cluster %d size mismatch" % lab)
        if not np.allclose(stats.sum, ref.sum, rtol=rtol, atol=1e-9):
            raise ValueError("cluster %d sum mismatch" % lab)
        if not np.allclose(stats.sum_outer, ref.sum_outer, rtol=rtol, atol=1e-9):
            raise ValueError("cluster %d outer mismatch" % lab)
    return state


def state_from_labels(data, labels, hyper):
    """PartitionState with statistics summed from the points, labels made dense 0..K-1 in order.

    ``labels`` are non-negative.  One stable sort groups each cluster's
    rows, still in index order, so the sums are those of ``data[labels == k]``.
    """
    from dpgibbs.niw import stats_from_points

    sizes = np.bincount(labels)
    present = sizes > 0
    dense = np.cumsum(present) - 1
    labels = dense[labels]
    # NumPy's stable sort of an integer type of at most 16 bits is a radix sort.
    order = np.argsort(labels.astype(np.min_scalar_type(dense[-1])), kind="stable")
    parts = np.split(data[order], np.cumsum(sizes[present])[:-1])
    return state_from_stats(labels, dict(enumerate(map(stats_from_points, parts))), hyper)


def state_from_stats(labels, clusters, hyper):
    """PartitionState of ``labels`` (copied) and a table of ``clusters``, {label: SufficientStats}."""
    from dpgibbs.gibbs import PartitionState

    table = table_of(hyper.prior, hyper.alpha, clusters)
    return PartitionState(labels=np.array(labels, dtype=np.int64), table=table)


def table_of(prior, alpha, clusters):
    """Cluster table of {label: SufficientStats}, one row per label in ascending order."""
    from dpgibbs.gibbs import _ClusterCache, pack_stats

    rows = [pack_stats(s.n, s.sum, s.sum_outer) for s in (clusters[lab] for lab in sorted(clusters))]
    return _ClusterCache(prior, alpha, sorted(clusters), rows)


def unpack(stats, d):
    """Views (n, sum x, sum x x^T) of packed raw sums, each row the flattened
    (d + 1) x (d + 1) moment matrix [[n, s^T], [s, S]] of [1, x] along the
    last axis: for (K, (d + 1)^2), (K,), (K, d) and (K, d, d).  The sum is
    read from the first column, in the lower triangle that the table's
    factor reads."""
    moments = np.asarray(stats).reshape(np.shape(stats)[:-1] + (d + 1, d + 1))
    return moments[..., 0, 0], moments[..., 1:, 0], moments[..., 1:, 1:]


def packed_stats(stats, d):
    """[SufficientStats] of each packed row of raw sums in ``stats``, copied."""
    from dpgibbs.niw import SufficientStats

    return [SufficientStats(int(n), s, o) for n, s, o in zip(*unpack(stats, d))]


def stats_of(table):
    """{label: SufficientStats} of a cluster table's rows in ascending label order, copied."""
    return dict(zip(table.labels, packed_stats(table.stats[: len(table.labels)], table.d)))


def count_const(prior, alpha, m):
    """log m plus every point-weight term that depends only on the count m,
    for the model ``prior`` and ``alpha``; m = 0 is the base measure, whose
    CRP weight is alpha."""
    import math

    d, kappa, nu = prior.d, prior.kappa + m, prior.nu + m
    return (
        (math.log(m) if m else math.log(alpha))
        - 0.5 * d * math.log(math.pi)
        + 0.5 * d * (math.log(kappa) - math.log(kappa + 1.0))
        + math.lgamma(0.5 * (nu + 1.0))
        - math.lgamma(0.5 * (nu + 1.0 - d))
    )


def count_row(prior, alpha, m):
    """Terms CRP..OWN_POWER of a cluster-table row of m points before its
    log det Psi (A(m) in place of MARGINAL), one float at a time: the
    definition that the package's bulk fill repeats bit for bit."""
    import math

    from dpgibbs.niw import log_multigamma

    d, kappa, nu = prior.d, prior.kappa + m, prior.nu + m
    crp = math.log(m) if m else math.log(alpha)
    marginal = -0.5 * d * (m * math.log(math.pi) + math.log(kappa)) + log_multigamma(d, 0.5 * nu)
    # Taking x out of a cluster of m >= 2 gives Psi' = Psi - kappa / (kappa - 1) v v^T
    # with v = x - mu; a singleton's own entry is -inf: its only other home is "new".
    own = (-math.inf, 0.0, 0.0)
    if m > 1:
        own = (count_const(prior, alpha, m - 1), -kappa / (kappa - 1.0), 0.5 * (nu - 1.0))
    row = (count_const(prior, alpha, m), kappa / (kappa + 1.0), 0.5 * (nu + 1.0))
    return (crp, marginal) + row + own


def reference_refresh(table, rows):
    """(whitens, shifts, terms, log_marginals) of a cluster table's ``rows``
    through the public route.

    Each row's moment matrix plus the base row's,
    [[kappa_n, t^T], [t, Psi_n + t t^T / kappa_n]], is factored with
    ``np.linalg.cholesky`` and the factor inverted with ``np.linalg.inv``;
    its lower d rows are [-shifts | whitens], the augmented map the table
    keeps, and the factor's diagonal after its first entry gives
    half log det Psi_n as the sum of its logs, taken with the table's one
    NumPy reduction (``np.add.reduce`` of ``np.log`` along each row), whose
    pairwise order a Python sum would not match in the last bits.  Its CRP
    term is ``math.log`` of its count (of alpha on the base row), its
    MARGINAL is A(m) - nu_m / 2 log det Psi with A(m) from
    ``niw.log_multigamma``, and its point-weight terms come from
    ``count_const``, so ``terms`` should equal the table's cached factors
    bit for bit.  ``log_marginals`` holds each row's
    log marginal by ``niw.log_marginal`` (0 on the base row), which the
    table's MARGINAL less its base row's should equal to rounding.
    """
    import math

    from dpgibbs.niw import SufficientStats, log_marginal, log_multigamma

    prior = table.prior
    d = prior.d
    rows = np.asarray(rows)
    stats = table.stats[rows]
    counts, sums, outers = unpack(stats, d)
    kappa_mu = prior.kappa * prior.mu
    base = np.block([[np.full((1, 1), prior.kappa), kappa_mu[None]],
                     [kappa_mu[:, None], prior.psi + kappa_mu[:, None] * prior.mu]])
    chol = np.linalg.cholesky(stats.reshape(-1, d + 1, d + 1) + base)
    inverse = np.linalg.inv(chol)
    whitens, shifts = inverse[:, 1:, 1:], -inverse[:, 1:, 0]
    terms = []
    log_marginals = []
    halves = np.add.reduce(np.log(chol.diagonal(0, 1, 2)[:, 1:]), axis=1)
    for m, sumv, outer, half in zip(counts.tolist(), sums, outers, halves.tolist()):
        kappa, nu = prior.kappa + m, prior.nu + m
        own = (-math.inf, 0.0, 0.0)
        if m > 1:
            own_base = count_const(prior, table.alpha, m - 1) - half
            own = (own_base, -kappa / (kappa - 1.0), 0.5 * (nu - 1.0))
        base = count_const(prior, table.alpha, m) - half
        crp = math.log(m) if m else math.log(table.alpha)
        marginal = -0.5 * d * (m * math.log(math.pi) + math.log(kappa)) + log_multigamma(d, 0.5 * nu)
        marginal -= nu * half
        terms.append((crp, marginal, base, kappa / (kappa + 1.0), 0.5 * (nu + 1.0)) + own)
        log_marginals.append(log_marginal(SufficientStats(int(m), sumv, outer), prior))
    return whitens, shifts, np.array(terms), np.array(log_marginals)


def schur_route(table, rows):
    """(whitens, shifts, log_dets, mus) of a cluster table's ``rows`` by the
    explicit Schur route: Psi_n = Psi' - t t^T / kappa_n is formed from the
    raw sums and the prior, factored with ``np.linalg.cholesky`` and the
    factor inverted with ``np.linalg.inv``; shifts are L^-1 mu."""
    prior = table.prior
    counts, sums, outers = unpack(table.stats[rows], prior.d)
    kappa = counts + prior.kappa
    t = sums + prior.kappa * prior.mu
    mus = t / kappa[:, None]
    psi = outers + (prior.psi + prior.kappa * np.outer(prior.mu, prior.mu)) - t[:, :, None] * mus[:, None, :]
    chol = np.linalg.cholesky(psi)
    whitens = np.linalg.inv(chol)
    shifts = (whitens @ mus[:, :, None])[:, :, 0]
    return whitens, shifts, 2.0 * np.log(chol.diagonal(0, 1, 2)).sum(axis=1), mus


def masked_sample_log_weights(weights, u):
    """Inverse-CDF draws from log-weights with every column's maximum masked:
    a column whose largest weight is not finite draws -1."""
    m = weights.max(axis=0)
    finite = np.isfinite(m)
    cum = np.add.accumulate(np.exp(weights - np.where(finite, m, 0.0)), axis=0)
    idx = (cum[:-1] <= u * cum[-1]).sum(axis=0)
    return np.where(finite, idx, -1)


def _pointwise_log_weight(prior, log_weight, n, sumv, outer, x, downdate):
    """Student-t predictive log-weight of x against raw sums (n, sumv, outer).

    With ``downdate`` the sums already hold x and the weight is that of x
    against the rest, p(C) / p(C \\ x), through the determinant identity
    log det(Psi - c v v^T) = log det Psi + log1p(-c v^T Psi^-1 v).
    """
    from scipy.special import gammaln

    d = x.shape[0]
    kappa = prior.kappa + n
    nu = prior.nu + n
    mu = (prior.kappa * prior.mu + sumv) / kappa
    psi = prior.psi.copy()
    if n:
        mean = sumv / n
        psi += outer - n * np.outer(mean, mean)
        psi += (prior.kappa * n / kappa) * np.outer(prior.mu - mean, prior.mu - mean)
    v = x - mu
    q = float(v @ np.linalg.solve(psi, v))
    log_det = np.linalg.slogdet(psi)[1]
    # gain = log det(Psi with x) - log det(Psi without x)
    gain = np.log1p(kappa / (kappa + 1.0) * q)
    if downdate:
        shrink = kappa / (kappa - 1.0) * q
        if not shrink < 1.0:
            raise NumericalDegeneracyError("downdated scale matrix is not positive definite")
        kappa, nu = kappa - 1.0, nu - 1.0
        gain = -np.log1p(-shrink)
        log_det -= gain
    return (
        log_weight
        - 0.5 * d * np.log(np.pi)
        + 0.5 * d * (np.log(kappa) - np.log(kappa + 1.0))
        + gammaln(0.5 * (nu + 1.0))
        - gammaln(0.5 * (nu + 1.0 - d))
        - 0.5 * log_det
        - 0.5 * (nu + 1.0) * gain
    )


def pointwise_cgs_sweep(state, data, rng, weight_log=None):
    """Reference collapsed Gibbs sweep that scores and draws one point at a time.

    Points are visited in index order.  A point in a cluster of two or more
    is scored against its own cluster with itself taken out; a singleton's
    cluster is deleted first (its logged weights hold -inf at its row, as
    the sweep's do).  Each draw takes its own ``rng.random()`` and inverts
    the CDF with ``searchsorted``.  Weights are computed from the table's
    raw sums with dense solves; the table itself (row order, label
    numbering, moves) is a new ``_ClusterCache`` of the state's statistics.
    ``state`` is left as it is; the result is a new state with labels made
    dense 0..K-1.
    """
    import math

    from dpgibbs.gibbs import PartitionState, pack_stats

    data = np.asarray(data, dtype=np.float64)
    prior = state.table.prior
    cache = table_of(prior, state.table.alpha, stats_of(state.table))
    labels = np.array(state.labels, dtype=np.int64, copy=True)
    for i in range(data.shape[0]):
        x = data[i]
        label = int(labels[i])
        own = gone = cache.row_of[label]
        if cache.counts[own] == 1.0:
            cache.delete(label)
            own = None
        weights = []
        for r in range(len(cache.labels) + 1):
            count, sumv, outer = unpack(cache.stats[r], prior.d)
            n = int(count)
            log_weight = np.log(n - (r == own)) if r < len(cache.labels) else math.log(cache.alpha)
            try:
                weights.append(_pointwise_log_weight(prior, log_weight, n, sumv, outer, x, r == own))
            except NumericalDegeneracyError as err:
                err.add_context(cluster_label=cache.labels[r], point_index=i)
                raise
        weights = np.array(weights)
        if weight_log is not None:  # as drawn by the sweep: -inf at a deleted singleton's row
            weight_log.append(weights if own is not None else np.insert(weights, gone, -np.inf))
        m = weights.max()
        if not np.isfinite(m):
            raise NumericalDegeneracyError("non-finite sampling weights", context={"point_index": i})
        cum = np.cumsum(np.exp(weights - m))
        idx = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), len(weights) - 1)
        if idx == own:
            continue
        labels[i] = cache.move(None if own is None else label, idx, pack_stats(1, x, np.outer(x, x)))
    dense = cache.row_of[labels]
    cache.rename(np.arange(len(cache.labels)))
    return PartitionState(labels=dense, table=cache)


@contextlib.contextmanager
def recorded_weights():
    """Record the candidate log-weight vectors the sweeps draw from.

    Inside the block, ``cgs_sweep`` and ``master_sweep`` append to the
    yielded list, in the order drawn, one vector per point or batch reached.
    A block of points scored by ``_ClusterCache.point_log_weights`` and drawn
    by ``gibbs.sample_log_weights`` adds its columns up to and including its
    first draw that leaves the point's own row.  When the sweep then redraws
    the block's later points against the table as its changes leave it (a
    draw not preceded by a scoring), those columns follow, up to and
    including the first redraw that differs from the block's draw: the
    points the sweep commits.  Every column is logged as drawn, so a
    singleton's holds its -inf own entry.  ``master.sample_log_weights``
    adds each batch's vector.  The functions are wrapped as they are when
    the block is entered and restored when it is left.
    """
    from dpgibbs import gibbs, master

    log = []
    scored = []  # the last block scored: (weights, own rows)
    drawn = []  # the last block drawn: (draws, own rows)
    score = gibbs._ClusterCache.point_log_weights
    point_draw, batch_draw = gibbs.sample_log_weights, master.sample_log_weights

    def score_block(table, xs, own=None):
        weights = score(table, xs, own)
        scored[:] = [(weights, own)]
        drawn[:] = []
        return weights

    def record(weights, draws, planned):
        """Log each column up to and including the first whose draw is not ``planned``."""
        for p in range(draws.shape[0]):
            log.append(weights[:, p].copy())
            if draws[p] != planned[p]:
                return

    def draw_points(weights, u):
        draws = point_draw(weights, u)
        if scored:
            block, own = scored.pop()
            assert block is weights, "a draw from weights the sweep did not score"
            record(weights, draws, own)
            drawn[:] = [(draws, own)]
            return draws
        # A redraw of the points after the block's first change; a redraw
        # ends where the sweep's plan ends.
        assert drawn, "a redraw of no scored block"
        block, own = drawn.pop()
        lo = int(np.flatnonzero(block != own)[0]) + 1
        record(weights, draws, block[lo : lo + draws.shape[0]])
        return draws

    def draw_batch(weights, u):
        log.append(weights.copy())
        return batch_draw(weights, u)

    gibbs._ClusterCache.point_log_weights = score_block
    gibbs.sample_log_weights, master.sample_log_weights = draw_points, draw_batch
    try:
        yield log
    finally:
        gibbs._ClusterCache.point_log_weights = score
        gibbs.sample_log_weights, master.sample_log_weights = point_draw, batch_draw


class FixedOrderRng:
    """A stand-in RNG for ``master_sweep`` that visits the batches in
    ``order``: its ``permutation(n)`` returns ``order`` (of length n), and
    its uniforms come from the Generator ``rng``."""

    def __init__(self, order, rng):
        self.order = np.array(order, dtype=np.int64)
        self.random = rng.random

    def permutation(self, n):
        assert n == self.order.shape[0], "the order covers %d batches, not %d" % (self.order.shape[0], n)
        return self.order.copy()


def reference_move(table, label, choice, row):
    """``_ClusterCache.move`` by delete and refresh alone: ``row`` is added
    to the target (a new row opened for the base-measure choice), then
    taken from the source, whose row is deleted if that empties it and else
    refreshed with the target's.  Returns the target's label."""
    if choice < 0:
        raise NumericalDegeneracyError("non-finite sampling weights")
    if choice == len(table.labels):
        table._open_row()
    table.stats[choice] += row
    target, rows = table.labels[choice], [choice]
    if label is not None:
        r = table.row_of[label]
        table.stats[r] -= row
        if table.counts[r]:
            rows.insert(0, r)
        else:
            table.delete(label)
            rows = [table.row_of[target]]
    with np.errstate(all="ignore"):
        table._refresh(np.array(rows))
    return target


def reference_master_sweep(summaries, hyper, rng):
    """The master sweep by its plainest route, for comparison with
    ``master_sweep``: a table of one row per seeded batch (maps included,
    so its batch scoring also inverts each candidate's factor, for the
    same terms) renamed to the batches' previous ids, which sums the rows
    that share one; each batch visited in ``rng.permutation(B)`` order,
    scored with ``batch_log_weights``, drawn with its own ``rng.random()``
    and moved by ``reference_move``; the table renamed 0..K-1 at the end.
    Returns (targets, table) as ``master_sweep``'s GlobalState holds them."""
    from dpgibbs.gibbs import _ClusterCache, sample_log_weights
    from dpgibbs.master import _collect_batches

    workers, _, previous, stats = _collect_batches(summaries, hyper.prior.d)
    seeded = np.flatnonzero(previous >= 0)
    table = _ClusterCache(hyper.prior, hyper.alpha, range(seeded.shape[0]), stats[seeded])
    table.rename(previous[seeded])
    assigned = previous
    with np.errstate(all="ignore"):
        for i in rng.permutation(len(assigned)):
            label = int(assigned[i]) if assigned[i] >= 0 else None
            own = None if label is None else int(table.row_of[label])
            choice = int(sample_log_weights(table.batch_log_weights(stats[i], own), rng.random()))
            if choice != own:
                assigned[i] = reference_move(table, label, choice, stats[i])
    dense = table.row_of[assigned]
    table.rename(np.arange(len(table.labels)))
    return {s.worker_id: dense[workers == s.worker_id].tolist() for s in summaries}, table


def rowwise_write_dataset(path, data, labels=None):
    """Header-ed CSV through csv.writer, one row and one repr() per cell."""
    data = np.asarray(data, dtype=np.float64)
    header = ["x%d" % j for j in range(data.shape[1])] + (["label"] if labels is not None else [])
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for i in range(data.shape[0]):
            row = [repr(float(v)) for v in data[i]]
            if labels is not None:
                row.append(str(int(labels[i])))
            writer.writerow(row)


def rowwise_write_labels(path, labels):
    """index,label CSV through csv.writer, one row per label."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["index", "label"])
        for i, label in enumerate(np.asarray(labels).reshape(-1)):
            writer.writerow([i, int(label)])
