"""End-to-end distributed run: sharding, worker actors, the global loop.

Workers are actors owning disjoint contiguous shards.  Per global iteration:
every worker runs one local sweep in parallel and sends its WorkerSummary; the
master reassigns all batches in one sweep, starting from the global ids the
batches name, and sends each worker the global ids of its summary's rows, a
list of ints in the order of the rows; workers apply it, after which their
local labels are global ids.  The only payloads crossing the worker boundary
are summaries, those lists, the small command values below, per-point label
vectors when explicitly requested (trace ARI with ground truth, and the final
collection), and a failed worker's exception with its traceback text.

Worker RNG streams are derived as SeedSequence([seed, worker_id, iteration])
and the master stream as SeedSequence([seed]), so results are reproducible
regardless of scheduling.  The default channel backend runs workers as OS
processes connected by pipes (CPython threads cannot run the samplers in
parallel); a threaded in-process backend is provided for embedding and tests.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError, WorkerLostError
from .gibbs import run_inputs, seed_to_u64
from .master import global_log_joint, master_sweep
from .niw import ModelHyperParams
from .trace import run_iterations
from .worker import WorkerState, apply_global_labels, summarize, worker_sweep


@dataclass(frozen=True)
class RunConfig:
    """The model, as ``run_cgs`` takes it, and the distributed run's settings."""

    hyper: ModelHyperParams
    iterations: int = 100
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
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
    targets: list


@dataclass(frozen=True)
class ReportLabelsCmd:
    pass


@dataclass(frozen=True)
class StopCmd:
    pass


@dataclass(frozen=True)
class WorkerFailure:
    """An exception raised in a worker, with the worker's traceback text."""

    worker_id: int
    error: BaseException
    details: str


def worker_loop(channel, worker_id, shard_data, seed, hyper):
    """Actor body: serve commands over the channel until StopCmd or EOF.

    Holds the shard privately; outbound traffic is WorkerSummary per sweep and
    the shard's global label vector on explicit request.  Closes the channel
    on return; after sending a failure, only once the coordinator has closed
    its end, so that its next send cannot break the pipe and hide the error.
    """
    try:
        state = WorkerState.single_cluster(worker_id, shard_data, hyper)
        while True:
            msg = channel.recv()
            if isinstance(msg, SweepCmd):
                rng = np.random.default_rng(
                    np.random.SeedSequence([seed, worker_id, msg.iteration])
                )
                state = worker_sweep(state, rng)
                channel.send(summarize(state))
            elif isinstance(msg, ApplyCmd):
                state = apply_global_labels(state, msg.targets)
            elif isinstance(msg, ReportLabelsCmd):
                channel.send(state.local.labels)
            elif isinstance(msg, StopCmd):
                return
            else:
                raise RuntimeError("unknown command %r" % (msg,))
    except BaseException as exc:  # surfaced to the coordinator, never swallowed
        details = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(repr(exc))
        try:
            channel.send(WorkerFailure(worker_id, exc, details))
            while True:
                channel.recv()  # until EOF
        except Exception:
            pass  # the coordinator sees the channel close
    finally:
        channel.close()


# ---------------------------------------------------------------------------
# channel backends
# ---------------------------------------------------------------------------


def _stopper(channels, workers):
    """Close the coordinator's ends, then join.

    A worker still waiting for a command reads EOF and returns, so a failed
    run does not wait out a join timeout per idle worker.
    """

    def shutdown():
        for channel in channels:
            channel.close()
        for worker in workers:
            worker.join(timeout=5.0)

    return shutdown


def _process_worker(coordinator_ends, *args):
    # A forked child inherits the coordinator's end of its own pipe and of
    # each earlier one.  A worker reads EOF only once every copy of its pipe's
    # coordinator end is closed, so each child drops the copies it holds.
    for end in coordinator_ends:
        end.close()
    worker_loop(*args)


def process_channels(data, ranges, seed, hyper):
    """Default backend: one OS process per worker, connected by a pipe."""
    ctx = multiprocessing.get_context()
    channels = []
    processes = []
    for j, sl in enumerate(ranges):
        parent_end, child_end = ctx.Pipe()
        proc = ctx.Process(
            target=_process_worker,
            args=(
                channels + [parent_end],
                child_end, j, np.ascontiguousarray(data[sl]), seed, hyper,
            ),
            daemon=True,
        )
        proc.start()
        child_end.close()
        channels.append(parent_end)
        processes.append(proc)
    return channels, _stopper(channels, processes)


def thread_channels(data, ranges, seed, hyper):
    """In-process backend: worker threads over pipe connections.

    Messages are pickled as on the process backend, so a payload that
    cannot cross a process boundary fails here too.
    """
    channels = []
    threads = []
    for j, sl in enumerate(ranges):
        master_end, worker_end = multiprocessing.Pipe()
        th = threading.Thread(
            target=worker_loop,
            args=(worker_end, j, data[sl], seed, hyper),
            daemon=True,
        )
        th.start()
        channels.append(master_end)
        threads.append(th)
    return channels, _stopper(channels, threads)


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
    err = msg.error
    if isinstance(err, NumericalDegeneracyError):
        err.add_context(worker_id=msg.worker_id)
    raise err from RuntimeError(
        "worker %d failed at iteration %d:\n%s" % (msg.worker_id, iteration, msg.details)
    )


def run_discgs(data, config, ground_truth=None, channel_factory=None):
    """Run the distributed sampler; returns (final global labels, trace).

    The model is ``config.hyper``, the same value ``run_cgs`` takes.
    Deterministic given (config, data); changing the worker count
    changes the sampled path by design.  ``channel_factory`` selects the
    worker backend (default: one OS process per worker).  Each global
    iteration is a step of ``trace.run_iterations``, as in ``run_cgs``,
    and the trace is its list of IterationRecords.
    """
    data, hyper, truth = run_inputs(data, config.hyper, ground_truth)
    ranges = shard(data, config.workers)
    master_rng = np.random.default_rng(np.random.SeedSequence(seed_to_u64(config.seed)))
    factory = process_channels if channel_factory is None else channel_factory
    channels, shutdown = factory(data, ranges, seed_to_u64(config.seed), hyper)

    def step(t):
        for channel in channels:
            channel.send(SweepCmd(t))
        gstate = master_sweep(_receive(channels, t), hyper, master_rng)
        for j, channel in enumerate(channels):
            channel.send(ApplyCmd(gstate.targets[j]))
        labels = None
        if truth is not None or t == config.iterations:
            for channel in channels:
                channel.send(ReportLabelsCmd())
            labels = np.concatenate(_receive(channels, t))
        return labels, global_log_joint(gstate, data.shape[0]), gstate.num_clusters

    try:
        labels, trace = run_iterations(config.iterations, truth, step)
        for channel in channels:
            channel.send(StopCmd())
    finally:
        shutdown()
    return labels, trace
