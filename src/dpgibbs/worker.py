"""Shard-local sampling, summarization, and application of master labels.

A worker owns a contiguous shard of the data and runs the same collapsed
Gibbs sweep as the centralized sampler, with the same concentration alpha and
base measure.  After each sweep it ships per-cluster sufficient statistics to
the master; the master's reply (this worker's label map) is applied by
renaming and merging local clusters, never by splitting them, and keys the
local clusters by their global ids from then on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gibbs import PartitionState, cgs_sweep
from .niw import SufficientStats, stats_merge


@dataclass
class WorkerState:
    """worker_id, the local shard and its local partition.

    After an apply the local labels are global cluster ids.  A sweep numbers
    the clusters it creates above every label it starts with, so labels from
    ``first_new`` up belong to clusters born since the last apply.
    """

    worker_id: int
    data: np.ndarray
    local: PartitionState
    first_new: int = 0

    @classmethod
    def single_cluster(cls, worker_id, data, hyper):
        data = np.asarray(data, dtype=np.float64)
        return cls(worker_id=int(worker_id), data=data, local=PartitionState.single_cluster(data, hyper))


@dataclass(frozen=True)
class ClusterSummary:
    """One local cluster: its label, its global id from the last apply (None
    for a cluster born since), and its statistics."""

    local_label: int
    previous: int | None
    stats: SufficientStats


@dataclass(frozen=True)
class WorkerSummary:
    """Per-cluster sufficient statistics of one worker, ordered by local label."""

    worker_id: int
    clusters: tuple[ClusterSummary, ...]


def worker_sweep(w, rng):
    """One local collapsed Gibbs sweep over the shard."""
    return replace(w, local=cgs_sweep(w.local, w.data, rng))


def summarize(w):
    """WorkerSummary with one entry per non-empty local cluster."""
    entries = tuple(
        ClusterSummary(lab, lab if lab < w.first_new else None, w.local.clusters[lab])
        for lab in sorted(w.local.clusters)
    )
    return WorkerSummary(worker_id=w.worker_id, clusters=entries)


def apply_global_labels(w, label_map):
    """Rename local clusters to their global ids and merge collisions.

    ``label_map`` maps each current local label to its global id; a missing
    or unknown local label is an error.  Afterwards the local labels are the
    global ids; merged cluster statistics are field-wise sums.
    """
    if set(label_map) != set(w.local.clusters):
        missing = sorted(set(w.local.clusters) - set(label_map))
        unknown = sorted(set(label_map) - set(w.local.clusters))
        raise ValueError(
            "label map does not match worker %d clusters: missing %r, unknown %r"
            % (w.worker_id, missing, unknown)
        )
    lut = np.empty(max(label_map) + 1, dtype=np.int64)
    members = {}
    for h in sorted(label_map):
        lut[h] = label_map[h]
        members.setdefault(label_map[h], []).append(w.local.clusters[h])
    clusters = {
        g: parts[0] if len(parts) == 1 else stats_merge(parts)
        for g, parts in sorted(members.items())
    }
    return replace(
        w,
        local=PartitionState(labels=lut[w.local.labels], clusters=clusters, hyper=w.local.hyper),
        first_new=max(clusters) + 1,
    )
