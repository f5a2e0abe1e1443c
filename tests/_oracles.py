"""Independent oracles used by the unit and acceptance tests.

Everything here is computed by routes that do not share code with the package:
Monte Carlo integration over explicit Normal-Inverse-Wishart draws, Student-t
predictive densities from scipy, and hand-rolled parameter updates.  The one
exception is the point-by-point reference sweep, which scores points on its
own but keeps its clusters in a cluster table of the package's, built afresh
from the state's statistics, so that row order and label numbering match the
sweep it checks; and ``reference_refresh``, which recomputes a table's cached
factors through NumPy's public linalg routines but takes its count constant
from the table.  The row-by-row CSV writers are the package's writers before
they formatted blocks of rows at once; tests that need a data file with a
label column write it with ``rowwise_write_dataset``.
"""

from __future__ import annotations

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


def state_from_labels(data, labels, hyper):
    """PartitionState with statistics summed from the points, labels made dense 0..K-1 in order.

    ``labels`` are non-negative.  One stable sort groups each cluster's
    rows, still in index order, so the sums are those of ``data[labels == k]``.
    """
    from dpgibbs.gibbs import PartitionState
    from dpgibbs.niw import stats_from_points

    sizes = np.bincount(labels)
    present = sizes > 0
    dense = np.cumsum(present) - 1
    labels = dense[labels]
    # NumPy's stable sort of an integer type of at most 16 bits is a radix sort.
    order = np.argsort(labels.astype(np.min_scalar_type(dense[-1])), kind="stable")
    parts = np.split(data[order], np.cumsum(sizes[present])[:-1])
    return PartitionState.from_stats(labels, dict(enumerate(map(stats_from_points, parts))), hyper)


def reference_refresh(table, rows):
    """(whitens, shifts, terms) of a cluster table's ``rows`` through the public route.

    Each row's posterior scale is formed from its raw sums in the order the
    table forms it, factored with ``np.linalg.cholesky``, inverted with
    ``np.linalg.inv``, and its scalar terms are computed from the table's
    un-memoized count constant, so the result should equal the table's
    cached factors bit for bit.
    """
    import math

    prior = table.prior
    rows = np.asarray(rows)
    counts = table.counts[rows]
    kappa_mu = prior.kappa * prior.mu
    t = table.sums[rows] + kappa_mu
    mus = t / (counts + prior.kappa)[:, None]
    psi = table.outers[rows] + (prior.psi + kappa_mu[:, None] * prior.mu)
    psi -= t[:, :, None] * mus[:, None, :]
    chol = np.linalg.cholesky(psi)
    whitens = np.linalg.inv(chol)
    shifts = (whitens @ mus[:, :, None])[:, :, 0]
    terms = []
    for m, diag in zip(counts.tolist(), chol.diagonal(0, 1, 2).tolist()):
        log_det = 2.0 * sum(map(math.log, diag))
        kappa, nu = prior.kappa + m, prior.nu + m
        own = (-math.inf, 0.0, 0.0)
        if m > 1:
            own_base = table._count_const(m - 1) - 0.5 * log_det
            own = (own_base, -kappa / (kappa - 1.0), 0.5 * (nu - 1.0))
        base = table._count_const(m) - 0.5 * log_det
        terms.append((log_det, base, kappa / (kappa + 1.0), 0.5 * (nu + 1.0)) + own)
    return whitens, shifts, np.array(terms)


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
    cluster is deleted first.  Each draw takes its own ``rng.random()`` and
    inverts the CDF with ``searchsorted``.  Weights are computed from the
    table's raw sums with dense solves; the table itself (row order, label
    numbering, moves) is a new ``_ClusterCache`` of the state's statistics.
    ``state`` is left as it is; the result is a new state with labels made
    dense 0..K-1.
    """
    from dpgibbs.gibbs import PartitionState, _ClusterCache

    data = np.asarray(data, dtype=np.float64)
    prior = state.table.prior
    cache = _ClusterCache(prior, state.table.alpha, state.clusters)
    labels = np.array(state.labels, dtype=np.int64, copy=True)
    for i in range(data.shape[0]):
        x = data[i]
        label = int(labels[i])
        own = cache.row_of[label]
        if cache.counts[own] == 1.0:
            cache.delete(label)
            own = None
        weights = []
        for r in range(len(cache.labels) + 1):
            n = int(cache.counts[r])
            log_weight = np.log(n - (r == own)) if r < len(cache.labels) else cache.log_alpha
            try:
                weights.append(_pointwise_log_weight(
                    prior, log_weight, n, cache.sums[r], cache.outers[r], x, r == own
                ))
            except NumericalDegeneracyError as err:
                err.add_context(cluster_label=cache.labels[r], point_index=i)
                raise
        weights = np.array(weights)
        if weight_log is not None:
            weight_log.append(weights)
        m = weights.max()
        if not np.isfinite(m):
            raise NumericalDegeneracyError("non-finite sampling weights", context={"point_index": i})
        cum = np.cumsum(np.exp(weights - m))
        idx = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), len(weights) - 1)
        if idx == own:
            continue
        labels[i] = cache.move(None if own is None else label, idx, 1, x, np.outer(x, x))
    dense = cache.row_of[labels]
    cache.rename(np.arange(len(cache.labels)))
    return PartitionState(labels=dense, table=cache)


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
