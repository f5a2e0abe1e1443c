"""Master-level batch reassignment over worker cluster statistics.

The master never sees raw points.  Each worker-local cluster is a batch
(worker_id, local_label, stats); one master sweep visits the batches in a
randomized order and reassigns each whole batch among the current global
clusters with log-weights

    existing k: log n_k    + log p(batch stats | global cluster k's posterior)
    new:        log alpha  + log p(batch stats | base measure)

mirroring the per-point centralized sweep with batches in place of points.
Global clusters live in the centralized sampler's cluster table: exact sums
maintained by field-wise add/subtract of batch statistics, with every
candidate scored against a batch in one vectorized evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError
from .gibbs import _ClusterCache, crp_log_prob, sample_log_weights
from .niw import log_marginal, stats_merge


@dataclass(frozen=True)
class GlobalLabelMap:
    """Batch map (worker_id, local_label) -> dense global label."""

    entries: dict


@dataclass
class GlobalState:
    """Batch assignments plus incrementally maintained global cluster stats."""

    assignments: dict
    clusters: dict
    hyper: object

    @property
    def num_clusters(self):
        return len(self.clusters)

    def label_map(self):
        return GlobalLabelMap(entries=dict(self.assignments))


def _collect_batches(summaries):
    seen = set()
    batches = []
    for summary in sorted(summaries, key=lambda s: s.worker_id):
        if summary.worker_id in seen:
            raise ValueError("duplicate summary for worker %d" % summary.worker_id)
        seen.add(summary.worker_id)
        for entry in summary.clusters:
            if entry.stats.n != entry.size or entry.size < 1:
                raise ValueError(
                    "batch (%d, %d) size field disagrees with stats"
                    % (summary.worker_id, entry.local_label)
                )
            batches.append((summary.worker_id, entry.local_label, entry.stats))
    if not batches:
        raise ValueError("no batches to assign")
    d = batches[0][2].d
    if any(b[2].d != d for b in batches):
        raise ValueError("batch dimension mismatch")
    return batches


def master_sweep(summaries, hyper, rng, initial=None, order=None, weight_log=None):
    """One randomized pass reassigning every batch; returns a new GlobalState.

    ``initial`` seeds the sweep with a previous assignment (its cluster stats
    are rebuilt from the current batch statistics); None means every batch
    starts unassigned, which is the runtime's per-iteration mode.  ``order``
    overrides the random visitation order (a permutation of batch indices);
    ``weight_log`` collects the per-step candidate log-weight vectors.
    """
    batches = _collect_batches(summaries)
    index_of = {(j, h): i for i, (j, h, _) in enumerate(batches)}
    assignments = {}
    members = {}
    if initial is not None:
        for key, g in initial.assignments.items():
            if key not in index_of:
                raise ValueError("initial assignment for unknown batch %r" % (key,))
            assignments[key] = g
            members.setdefault(g, []).append(batches[index_of[key]][2])
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
        worker_id, local_label, stats = batches[i]
        key = (worker_id, local_label)
        previous = assignments.pop(key, None)
        if previous is not None:
            table.remove(previous, stats.n, stats.sum, stats.sum_outer)
        try:
            weights = table.batch_log_weights(stats)
        except NumericalDegeneracyError as err:
            err.add_context(worker_id=worker_id, local_label=local_label)
            raise
        if weight_log is not None:
            weight_log.append(weights.copy())
        choice = sample_log_weights(weights, rng)
        if choice == len(table.labels):
            target = table.create(stats.n, stats.sum, stats.sum_outer)
        else:
            target = table.labels[choice]
            table.add(target, stats.n, stats.sum, stats.sum_outer)
        assignments[key] = target
    dense = {g: i for i, g in enumerate(table.labels)}
    return GlobalState(
        assignments={key: dense[g] for key, g in assignments.items()},
        clusters=table.clusters_dict(dense),
        hyper=hyper,
    )


def global_log_joint(state, n):
    """log p(x, z) of the global partition, from cluster statistics alone."""
    sizes = [s.n for s in state.clusters.values()]
    if sum(sizes) != n:
        raise ValueError("global cluster sizes sum to %d, expected %d" % (sum(sizes), n))
    value = crp_log_prob(state.hyper.alpha, sizes, n)
    for stats in state.clusters.values():
        value += log_marginal(stats, state.hyper.prior)
    return value


def expand_to_global_membership(label_map, worker_states):
    """Per-point global labels in original dataset order.

    Worker shards are contiguous; each worker's points take the global label
    of their local cluster under the map.  A missing batch entry is an error.
    """
    states = sorted(worker_states, key=lambda w: w.worker_id)
    n = sum(w.data.shape[0] for w in states)
    out = np.full(n, -1, dtype=np.int64)
    for w in states:
        k = w.local.num_clusters
        lut = np.empty(k, dtype=np.int64)
        for h in range(k):
            key = (w.worker_id, h)
            if key not in label_map.entries:
                raise ValueError("label map missing batch %r" % (key,))
            lut[h] = label_map.entries[key]
        stop = w.start + w.data.shape[0]
        if w.start < 0 or stop > n:
            raise ValueError("worker %d shard range out of bounds" % w.worker_id)
        out[w.start : stop] = lut[w.local.labels]
    if np.any(out < 0):
        raise ValueError("shards do not cover the dataset")
    return out
