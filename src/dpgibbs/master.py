"""Master-level batch reassignment over worker cluster statistics.

The master never sees raw points.  Each worker-local cluster is a batch,
one row of a worker's summary: (worker_id, local_label, previous global id)
and its raw sums, packed as the cluster table packs them: the flattened
moment matrix of [1, x].  One master sweep starts from the previous
assignment, visits the batches in an order drawn from the master's stream
and draws each whole batch, with one uniform from that stream, among the
current global clusters by log-weights

    existing k: log n_k    + log p(batch stats | global cluster k's posterior)
    new:        log alpha  + log p(batch stats | base measure)

mirroring the per-point centralized sweep with batches in place of points.
Global clusters live in the centralized sampler's cluster table: exact sums
maintained by field-wise add/subtract of batch statistics.  Every
candidate of a batch is factored at once by the table's one factoring,
the one that refreshes its rows, so a candidate's log marginal is bit for
bit what its row caches once the batch moves in.  The table scores no
points, so it is built without whitening maps and a factoring skips
their inverse.  Its rows start as the sums of the batches seeded
with each global id, added in batch order, and are factored once.  As a
point in the centralized sweep, a batch is scored in its own global
cluster without leaving it (-inf if it is the whole cluster), so only a
batch that moves changes the table, and the move deletes a row it
empties.  A whole-cluster batch that draws "new" with sums equal to its
row's only renames the cluster: its row, factors and all, is rotated to
the new row's place without a refactoring.  The sweep's result holds that
table, its rows named by the dense global labels, which the trace's log
joint reads, and each worker's reply: its rows' global labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError
from .gibbs import _ClusterCache, sample_log_weights


@dataclass
class GlobalState:
    """``targets[worker_id][r]``, the global label of row r of that worker's
    summary, and the cluster table whose row g holds global cluster g."""

    targets: dict
    table: _ClusterCache

    @property
    def num_clusters(self):
        return len(self.table.labels)


def _collect_batches(summaries, d):
    """Every summary's rows, joined in worker order: (worker ids, local
    labels, previous global ids, packed raw sums of dimension ``d``, each
    row the flattened (d + 1) x (d + 1) moment matrix of [1, x])."""
    summaries = sorted(summaries, key=lambda s: s.worker_id)
    ids = [s.worker_id for s in summaries]
    sizes = [len(s.clusters) for s in summaries]
    if not sum(sizes):
        raise ValueError("no batches to assign")
    for s, k, before in zip(summaries, sizes, [None] + ids):
        if s.worker_id == before:
            raise ValueError("duplicate summary for worker %d" % s.worker_id)
        shapes = [np.shape(a) for a in (s.clusters, s.previous, s.stats)]
        if shapes != [(k,), (k,), (k, (d + 1) ** 2)]:
            message = "worker %d sent shapes %r, not those of %d batches of dimension %d"
            raise ValueError(message % (s.worker_id, shapes, k, d))
        if k and np.min(s.stats[:, 0]) < 1:
            h = s.clusters[np.argmin(s.stats[:, 0])]
            raise ValueError("batch (%d, %d) is empty" % (s.worker_id, h))
    fields = zip(*((s.clusters, s.previous, s.stats) for s in summaries))
    return (np.repeat(ids, sizes),) + tuple(map(np.concatenate, fields))


@np.errstate(all="ignore")  # a failed factor is NaN, and raises
def master_sweep(summaries, hyper, rng):
    """One randomized pass reassigning every batch; returns a GlobalState.

    The sweep starts from the previous assignment the batches name: the
    batches that name a global id are summed by id, in batch order, and
    each id's row is factored once; a batch without one starts unassigned.
    ``rng`` draws the order of the visits, one permutation of the batch
    indices (summaries in worker order, each one's rows in order), then the
    uniforms of the batches' draws, one per visit in visiting order.
    """
    workers, local_labels, previous, stats = _collect_batches(summaries, hyper.prior.d)
    seeded = {}  # global id -> the sums of its batches
    for i in np.flatnonzero(previous >= 0).tolist():
        g = int(previous[i])
        if g in seeded:
            seeded[g] += stats[i]
        else:
            seeded[g] = stats[i].copy()
    labels = sorted(seeded)
    table = _ClusterCache(hyper.prior, hyper.alpha, labels, [seeded[g] for g in labels], points=False)
    assigned = previous  # each batch's global id, -1 while it has none
    order = rng.permutation(len(assigned))
    for i, u in zip(order.tolist(), rng.random(len(assigned)).tolist()):
        label = int(assigned[i]) if assigned[i] >= 0 else None
        own = None if label is None else int(table.row_of[label])
        try:
            weights = table.batch_log_weights(stats[i], own)
            choice = int(sample_log_weights(weights, u))
            if choice != own:
                assigned[i] = table.move(label, choice, stats[i])
        except NumericalDegeneracyError as err:
            err.add_context(worker_id=int(workers[i]), local_label=int(local_labels[i]))
            raise
    dense = table.row_of[assigned]
    table._name_rows(list(range(len(table.labels))))  # the labels ascend, so the rows keep their order
    return GlobalState({s.worker_id: dense[workers == s.worker_id].tolist() for s in summaries}, table)


def global_log_joint(state, n):
    """log p(x, z) of the global partition, read from the master's table."""
    total = int(state.table.counts[: state.num_clusters].sum())
    if total != n:
        raise ValueError("global cluster sizes sum to %d, expected %d" % (total, n))
    return state.table.log_joint(n)
