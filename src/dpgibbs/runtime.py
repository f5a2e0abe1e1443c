"""End-to-end distributed run: sharding, worker actors, the global loop.

Workers are actors owning disjoint contiguous shards.  Per global iteration:
every worker runs one local sweep in parallel and sends its WorkerSummary; the
master reassigns all batches in one sweep and broadcasts the GlobalLabelMap;
workers apply it.  The only payloads crossing the worker boundary are
summaries, label maps, the small command values below, and per-point label
vectors when explicitly requested (trace ARI with ground truth, and the final
collection).

Worker RNG streams are derived as SeedSequence([seed, worker_id, iteration])
and the master stream as SeedSequence([seed]), so results are reproducible
regardless of scheduling.  The default channel backend runs workers as OS
processes connected by pipes (CPython threads cannot run the samplers in
parallel); a threaded in-process backend is provided for embedding and tests.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError, WorkerLostError
from .gibbs import center_on_prior, seed_to_u64
from .master import GlobalState, global_log_joint, master_sweep
from .niw import ModelHyperParams, NiwParams, default_prior
from .trace import IterationRecord, RunTrace
from .worker import WorkerState, apply_global_labels, global_label_vector, summarize, worker_sweep


@dataclass(frozen=True)
class RunConfig:
    alpha: float = 1.0
    iterations: int = 100
    workers: int = 1
    seed: int = 0
    prior_override: NiwParams | None = None
    record_trace: bool = True

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive, got %r" % (self.alpha,))
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1, got %r" % (self.iterations,))
        if self.workers < 1:
            raise ValueError("workers must be >= 1, got %r" % (self.workers,))


def shard(data, workers):
    """Split 0..n-1 into ``workers`` contiguous slices, sizes differing by <= 1.

    The first n mod W shards receive the extra element.
    """
    n = int(np.asarray(data).shape[0])
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > n:
        raise ValueError("more workers (%d) than points (%d)" % (workers, n))
    base, extra = divmod(n, workers)
    ranges = []
    start = 0
    for j in range(workers):
        size = base + (1 if j < extra else 0)
        ranges.append(slice(start, start + size))
        start += size
    return ranges


# ---------------------------------------------------------------------------
# messages and the worker actor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCmd:
    iteration: int


@dataclass(frozen=True)
class ApplyCmd:
    label_map: object


@dataclass(frozen=True)
class ReportLabelsCmd:
    pass


@dataclass(frozen=True)
class StopCmd:
    pass


@dataclass(frozen=True)
class WorkerFailure:
    """An exception raised in a worker, in a form that crosses the pipe.

    A NumericalDegeneracyError keeps its type, eigenvalue estimate and
    context, so the coordinator raises it again as itself; any other
    exception arrives as a RuntimeError carrying the worker's traceback.
    """

    worker_id: int
    message: str
    details: str
    error_type: type = RuntimeError
    context: dict | None = None
    min_eigenvalue: float | None = None


def worker_loop(channel, worker_id, shard_data, start, seed, hyper):
    """Actor body: serve commands over the channel until StopCmd.

    Holds the shard privately; outbound traffic is WorkerSummary per sweep and
    the shard's global label vector on explicit request.
    """
    try:
        state = WorkerState.single_cluster(worker_id, shard_data, start, hyper)
        global_labels = None
        while True:
            msg = channel.recv()
            if isinstance(msg, SweepCmd):
                rng = np.random.default_rng(
                    np.random.SeedSequence([seed, worker_id, msg.iteration])
                )
                state = worker_sweep(state, rng)
                channel.send(summarize(state))
            elif isinstance(msg, ApplyCmd):
                global_labels = global_label_vector(state, msg.label_map)
                state = apply_global_labels(state, msg.label_map)
            elif isinstance(msg, ReportLabelsCmd):
                channel.send(global_labels)
            elif isinstance(msg, StopCmd):
                return
            else:
                raise RuntimeError("unknown command %r" % (msg,))
    except BaseException as exc:  # surfaced to the coordinator, never swallowed
        failures = [WorkerFailure(worker_id, repr(exc), traceback.format_exc())]
        if isinstance(exc, NumericalDegeneracyError):
            failures.insert(0, WorkerFailure(
                worker_id, exc.message, failures[0].details,
                type(exc), exc.context, exc.min_eigenvalue,
            ))
        # A context that cannot be pickled falls back to the plain failure; if
        # nothing can be sent, the coordinator sees the channel close.
        for failure in failures:
            try:
                channel.send(failure)
                break
            except Exception:
                pass


# ---------------------------------------------------------------------------
# channel backends
# ---------------------------------------------------------------------------


def process_channels(data, ranges, seed, hyper):
    """Default backend: one OS process per worker, connected by a pipe."""
    ctx = multiprocessing.get_context()
    channels = []
    processes = []
    for j, sl in enumerate(ranges):
        parent_end, child_end = ctx.Pipe()
        proc = ctx.Process(
            target=worker_loop,
            args=(child_end, j, np.ascontiguousarray(data[sl]), sl.start, seed, hyper),
            daemon=True,
        )
        proc.start()
        child_end.close()
        channels.append(parent_end)
        processes.append(proc)

    def shutdown():
        for proc in processes:
            proc.join(timeout=5.0)
        for proc in processes:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for channel in channels:
            channel.close()

    return channels, shutdown


class LocalChannel:
    """In-memory bidirectional channel endpoint (send/recv over two queues)."""

    def __init__(self, inbox, outbox):
        self._inbox = inbox
        self._outbox = outbox

    def send(self, obj):
        self._outbox.put(obj)

    def recv(self):
        return self._inbox.get()


def thread_channels(data, ranges, seed, hyper):
    """In-process backend: worker threads over queue-backed channels."""
    channels = []
    threads = []
    for j, sl in enumerate(ranges):
        to_worker = queue.Queue()
        to_master = queue.Queue()
        worker_end = LocalChannel(to_worker, to_master)
        master_end = LocalChannel(to_master, to_worker)
        th = threading.Thread(
            target=worker_loop,
            args=(worker_end, j, data[sl], sl.start, seed, hyper),
            daemon=True,
        )
        th.start()
        channels.append(master_end)
        threads.append(th)

    def shutdown():
        for th in threads:
            th.join(timeout=5.0)

    return channels, shutdown


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------


def _receive(channels, iteration):
    """One reply from each worker, in worker order, with failures raised."""
    replies = []
    for worker_id, channel in enumerate(channels):
        try:
            msg = channel.recv()
        except (EOFError, ConnectionError) as err:
            raise WorkerLostError(worker_id, iteration) from err
        replies.append(_checked(msg, iteration))
    return replies


def _checked(msg, iteration):
    if not isinstance(msg, WorkerFailure):
        return msg
    if issubclass(msg.error_type, NumericalDegeneracyError):
        err = msg.error_type(msg.message, msg.min_eigenvalue, msg.context)
        raise err.add_context(worker_id=msg.worker_id, iteration=iteration)
    raise RuntimeError(
        "worker %d failed at iteration %d: %s\n%s"
        % (msg.worker_id, iteration, msg.message, msg.details)
    )


def _coordinate(channels, hyper, config, n, ground_truth):
    from .metrics import ari

    master_rng = np.random.default_rng(np.random.SeedSequence(seed_to_u64(config.seed)))
    trace = RunTrace(
        meta={
            "algorithm": "discgs",
            "iterations": config.iterations,
            "workers": config.workers,
            "seed": config.seed,
            "alpha": config.alpha,
            "n": n,
        }
    )
    want_ari = ground_truth is not None and config.record_trace
    final_labels = None
    carry = None
    for t in range(1, config.iterations + 1):
        started = time.perf_counter()
        for channel in channels:
            channel.send(SweepCmd(t))
        summaries = _receive(channels, t)
        initial = None
        if carry:
            # Local sweeps create and retire clusters, so only batch keys
            # still present keep their previous global assignment; the rest
            # start the sweep unassigned.
            present = {
                (s.worker_id, entry.local_label)
                for s in summaries
                for entry in s.clusters
            }
            seeded = {key: g for key, g in carry.items() if key in present}
            if seeded:
                initial = GlobalState(assignments=seeded, clusters={}, hyper=hyper)
        try:
            gstate = master_sweep(summaries, hyper, master_rng, initial=initial)
        except NumericalDegeneracyError as err:
            err.add_context(iteration=t)
            raise
        label_map = gstate.label_map()
        for channel in channels:
            channel.send(ApplyCmd(label_map))
        # Applying the map renames worker j's local clusters to dense ids
        # ordered by ascending global label, which fixes the batch keys the
        # next iteration's summaries will carry.
        per_worker = {}
        for (j, _), g in label_map.entries.items():
            per_worker.setdefault(j, set()).add(g)
        carry = {
            (j, idx): g
            for j, gs in per_worker.items()
            for idx, g in enumerate(sorted(gs))
        }
        labels = None
        if want_ari or t == config.iterations:
            for channel in channels:
                channel.send(ReportLabelsCmd())
            shards = _receive(channels, t)
            labels = np.concatenate(shards)
            if t == config.iterations:
                final_labels = labels
        if config.record_trace:
            trace.append(
                IterationRecord(
                    iteration=t,
                    log_joint=global_log_joint(gstate, n),
                    num_clusters=gstate.num_clusters,
                    seconds=time.perf_counter() - started,
                    ari=ari(labels, ground_truth) if want_ari else None,
                )
            )
    return final_labels, trace


def run_discgs(data, config, ground_truth=None, channel_factory=None):
    """Run the distributed sampler; returns (final global labels, RunTrace).

    Deterministic given (seed, workers, data); changing the worker count
    changes the sampled path by design.  ``channel_factory`` selects the
    worker backend (default: one OS process per worker).
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("data must be a non-empty (n, d) array")
    if ground_truth is not None:
        ground_truth = np.asarray(ground_truth).reshape(-1)
        if ground_truth.shape[0] != data.shape[0]:
            raise ValueError("ground truth length does not match data")
    ranges = shard(data, config.workers)
    prior_meta = {}
    if config.prior_override is not None:
        prior = config.prior_override
    else:
        prior = default_prior(data, metadata=prior_meta)
    data, hyper = center_on_prior(data, ModelHyperParams(alpha=config.alpha, prior=prior))
    factory = process_channels if channel_factory is None else channel_factory
    channels, shutdown = factory(data, ranges, seed_to_u64(config.seed), hyper)
    try:
        final_labels, trace = _coordinate(channels, hyper, config, data.shape[0], ground_truth)
        for channel in channels:
            channel.send(StopCmd())
    finally:
        shutdown()
    trace.meta.update(prior_meta)
    trace.meta["d"] = int(data.shape[1])
    return final_labels, trace
