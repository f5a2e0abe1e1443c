"""Shard-local sampling, summarization, and application of master labels.

A worker owns a contiguous shard of the data and runs the same collapsed
Gibbs sweep as the centralized sampler, with the same concentration alpha and
base measure.  After each sweep it ships its table's rows, each cluster's
raw sums as the moment matrix of [1, x], to the master; the master's reply,
the global id of each row in the order sent, is applied by renaming and
merging local clusters, never by splitting them, and keys the local
clusters by their global ids from then on.  A worker keeps one cluster
table for its whole run: the sweep updates it in place, the summary copies
its rows, and the apply renames them, summing the rows that share a global id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gibbs import PartitionState, augment, cgs_sweep


@dataclass
class WorkerState:
    """worker_id, the local shard as rows [1, x] (``gibbs.augment``, built
    once and handed to every sweep) and its local partition.

    After an apply the local labels are global cluster ids.  A sweep numbers
    the clusters it creates above every label it starts with, so labels from
    ``first_new`` up belong to clusters born since the last apply.
    """

    worker_id: int
    points: np.ndarray
    local: PartitionState
    first_new: int = 0
    data = property(lambda self: self.points[:, 1:])  # the shard, (n, d)

    @classmethod
    def single_cluster(cls, worker_id, data, hyper):
        data = np.asarray(data, dtype=np.float64)
        return cls(int(worker_id), augment(data), PartitionState.single_cluster(data, hyper))


@dataclass(frozen=True)
class WorkerSummary:
    """The first K rows of one worker's table, by ascending local label: int64
    local labels (K,), global ids from the last apply (K,; -1 for a cluster
    born since) and the packed raw sums, (K, (d + 1)^2): moment matrices of [1, x]."""

    worker_id: int
    clusters: np.ndarray
    previous: np.ndarray
    stats: np.ndarray


def worker_sweep(w, rng):
    """One local collapsed Gibbs sweep over the shard, in place; returns ``w``."""
    cgs_sweep(w.local, w.points, rng)
    return w


def summarize(w):
    """WorkerSummary of the non-empty local clusters, copied from the table."""
    t = w.local.table
    clusters = np.array(t.labels, dtype=np.int64)
    previous = np.where(clusters < w.first_new, clusters, -1)
    return WorkerSummary(w.worker_id, clusters, previous, t.stats[: len(clusters)].copy())


def apply_global_labels(w, targets):
    """Rename local clusters to their global ids and merge collisions, in
    place; returns ``w``.

    ``targets[r]`` is the global id of row r of the last summary, which is
    row r of the table; a list of another length is an error.  Afterwards
    the local labels are the global ids; merged cluster statistics are
    field-wise sums.
    """
    table = w.local.table
    if len(targets) != len(table.labels):
        message = "worker %d has %d clusters but received %d global ids"
        raise ValueError(message % (w.worker_id, len(table.labels), len(targets)))
    targets = np.array(targets, dtype=np.int64)
    w.local.labels = targets[table.row_of[w.local.labels]]
    table.rename(targets)
    w.first_new = table.next_label
    return w
