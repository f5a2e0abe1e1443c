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
maintained by field-wise add/subtract of batch statistics, with every
candidate scored against a batch in one vectorized evaluation.  A batch is
scored in its own global cluster without leaving it (unless it is the whole
cluster), so only a batch that moves changes the table.  The sweep's result
holds that table, its rows renamed to the dense global labels, which the
trace's log joint reads, and each worker's reply: its rows' global labels.
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
    rows of the batches that name a global id are renamed to it, which sums
    those that share one, and a batch without one starts unassigned.
    ``rng`` draws the order of the visits, one permutation of the batch
    indices (summaries in worker order, each one's rows in order), then one
    uniform per batch visited, for its draw.
    """
    workers, local_labels, previous, stats = _collect_batches(summaries, hyper.prior.d)
    seeded = np.flatnonzero(previous >= 0)
    table = _ClusterCache(hyper.prior, hyper.alpha, range(seeded.shape[0]), stats[seeded])
    table.rename(previous[seeded])
    assigned = previous  # each batch's global id, -1 while it has none
    for i in rng.permutation(len(assigned)):
        label = int(assigned[i]) if assigned[i] >= 0 else None
        own = None if label is None else int(table.row_of[label])
        if own is not None and table.counts[own] == stats[i, 0]:  # the batch is the whole cluster
            table.delete(label)
            label = own = None
        try:
            weights = table.batch_log_weights(stats[i], own)
            choice = int(sample_log_weights(weights, rng.random()))
            if choice < 0:
                raise NumericalDegeneracyError("non-finite sampling weights")
        except NumericalDegeneracyError as err:
            err.add_context(worker_id=int(workers[i]), local_label=int(local_labels[i]))
            raise
        if choice != own:
            assigned[i] = table.move(label, choice, stats[i])
    dense = table.row_of[assigned]
    table.rename(np.arange(len(table.labels)))
    return GlobalState({s.worker_id: dense[workers == s.worker_id].tolist() for s in summaries}, table)


def global_log_joint(state, n):
    """log p(x, z) of the global partition, read from the master's table."""
    total = int(state.table.counts[: state.num_clusters].sum())
    if total != n:
        raise ValueError("global cluster sizes sum to %d, expected %d" % (total, n))
    return state.table.log_joint(n)
