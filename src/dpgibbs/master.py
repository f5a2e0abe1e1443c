"""Master-level batch reassignment over worker cluster statistics.

The master never sees raw points.  Each worker-local cluster is a batch
(worker_id, local_label, previous global id, stats); one master sweep starts
from the previous assignment, visits the batches in a randomized order and
reassigns each whole batch among the current global clusters with
log-weights

    existing k: log n_k    + log p(batch stats | global cluster k's posterior)
    new:        log alpha  + log p(batch stats | base measure)

mirroring the per-point centralized sweep with batches in place of points.
Global clusters live in the centralized sampler's cluster table: exact sums
maintained by field-wise add/subtract of batch statistics, with every
candidate scored against a batch in one vectorized evaluation.  A batch is
scored in its own global cluster without leaving it (unless it is the whole
cluster), so only a batch that moves changes the table.  The sweep's result
holds that table, its rows renamed to the dense global labels, and the
trace's log joint reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError
from .gibbs import _ClusterCache, sample_log_weights
from .niw import stats_merge


@dataclass
class GlobalState:
    """Batch assignments (worker_id, local_label) -> dense global label, and
    the cluster table whose row g holds global cluster g."""

    assignments: dict
    table: _ClusterCache

    @property
    def num_clusters(self):
        return len(self.table.labels)


def _collect_batches(summaries):
    seen = set()
    batches = []
    for summary in sorted(summaries, key=lambda s: s.worker_id):
        if summary.worker_id in seen:
            raise ValueError("duplicate summary for worker %d" % summary.worker_id)
        seen.add(summary.worker_id)
        for entry in summary.clusters:
            if entry.stats.n < 1:
                raise ValueError("batch (%d, %d) is empty" % (summary.worker_id, entry.local_label))
            batches.append((summary.worker_id, entry.local_label, entry.previous, entry.stats))
    if not batches:
        raise ValueError("no batches to assign")
    d = batches[0][3].d
    if any(b[3].d != d for b in batches):
        raise ValueError("batch dimension mismatch")
    return batches


def master_sweep(summaries, hyper, rng, order=None, weight_log=None):
    """One randomized pass reassigning every batch; returns a GlobalState.

    The sweep starts from the previous assignment the batches name: each
    global cluster is rebuilt from the current statistics of the batches
    whose ``previous`` names it, and a batch without one starts unassigned.
    ``order`` overrides the random visitation order (a permutation of batch
    indices); ``weight_log`` collects the per-step candidate log-weight
    vectors.
    """
    batches = _collect_batches(summaries)
    assignments = {}
    members = {}
    for worker_id, local_label, previous, stats in batches:
        if previous is not None:
            assignments[(worker_id, local_label)] = previous
            members.setdefault(previous, []).append(stats)
    table = _ClusterCache(
        hyper.prior, hyper.alpha, {g: stats_merge(parts) for g, parts in members.items()}
    )
    if order is None:
        order = rng.permutation(len(batches))
    else:
        order = np.asarray(order, dtype=np.int64)
        if sorted(order.tolist()) != list(range(len(batches))):
            raise ValueError("order must be a permutation of batch indices")
    for i in order:
        worker_id, local_label, _, stats = batches[i]
        key = (worker_id, local_label)
        previous = assignments.get(key)
        own = None
        if previous is not None:
            own = int(table.row_of[previous])
            if table.counts[own] == stats.n:  # the batch is the whole cluster
                table.delete(previous)
                previous = own = None
        try:
            weights = table.batch_log_weights(stats, own)
            if weight_log is not None:
                weight_log.append(weights.copy())
            choice = int(sample_log_weights(weights, rng.random()))
            if choice < 0:
                raise NumericalDegeneracyError("non-finite sampling weights")
        except NumericalDegeneracyError as err:
            err.add_context(worker_id=worker_id, local_label=local_label)
            raise
        if choice != own:
            assignments[key] = table.move(previous, choice, stats.n, stats.sum, stats.sum_outer)
    dense = {g: i for i, g in enumerate(table.labels)}
    table.rename(np.arange(len(dense)))
    return GlobalState(assignments={key: dense[g] for key, g in assignments.items()}, table=table)


def global_log_joint(state, n):
    """log p(x, z) of the global partition, read from the master's table."""
    total = int(state.table.counts[: state.num_clusters].sum())
    if total != n:
        raise ValueError("global cluster sizes sum to %d, expected %d" % (total, n))
    return state.table.log_joint(n)
