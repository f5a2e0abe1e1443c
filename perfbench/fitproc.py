"""Run one `dpgibbs` CLI invocation with timing hooks, as a child of run.py.

Usage: python3 fitproc.py --mode plain|trace --report OUT.json
           [--spans DIR --fit-id ID] -- <dpgibbs CLI arguments>

The hooks wrap public functions by replacing the module attributes the
program looks up at call time; nothing inside the package is edited.

* ``plain`` records only the fit's phase boundaries (entry of the CLI, start
  of the first sweep, end of sampling), a handful of clock reads per sweep,
  so it is the untraced run the end-to-end metrics come from.
* ``trace`` additionally records a span around every call into the layers
  (datasets, niw, gibbs, worker, master, runtime) and the pickled size of
  every message on the coordinator's pipes.  Worker processes are forked
  after the hooks are installed, so they inherit them; each worker writes
  its own spans to DIR when its command loop ends.

Both modes run a hostspeed.Ticker in the coordinator from before the
package is imported until the CLI returns, and report its probe samples so
run.py can scale the fit's times to the reference host speed.

Clock stamps are ``time.monotonic()``, which is system-wide on Linux, so the
parent can subtract its own launch stamp from them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hostspeed import Ticker  # noqa: E402

TICKER = Ticker()
TICKER.start()

from multiprocessing.reduction import ForkingPickler  # noqa: E402

import dpgibbs.cli as cli  # noqa: E402
import dpgibbs.gibbs as gibbs  # noqa: E402
import dpgibbs.runtime as runtime  # noqa: E402
import dpgibbs.worker as worker  # noqa: E402

now = time.monotonic


class Tracer:
    """In-memory spans of one process: id, parent, name, start, end, attrs."""

    def __init__(self, fit_id, process):
        self.fit_id = fit_id
        self.process = process
        self.spans = []
        self.stack = []
        # Per-point sampling calls are too many for a span each; they are
        # counted on the enclosing gibbs.sweep span instead.
        self.sample_calls = 0
        self.sample_seconds = 0.0
        self.sample_k_sum = 0

    def add(self, name, start, end, parent, **attrs):
        span = {
            "id": "%s/%d" % (self.process, len(self.spans)),
            "parent": parent["id"] if parent else None,
            "fit": self.fit_id,
            "name": name,
            "start": start,
            "end": end,
            "attrs": attrs,
        }
        self.spans.append(span)
        return span

    def open(self, name, **attrs):
        span = self.add(name, now(), None, self.stack[-1] if self.stack else None, **attrs)
        self.stack.append(span)
        return span

    def close(self, span, **attrs):
        span["end"] = now()
        span["attrs"].update(attrs)
        if self.stack and self.stack[-1] is span:
            self.stack.pop()

    def reset(self, process):
        self.__init__(self.fit_id, process)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def wrap(module, attr, tracer, name, attrs_of=None):
    """Replace module.attr by a version that records a span per call."""
    inner = getattr(module, attr)

    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = inner(*args, **kwargs)
        finally:
            tracer.close(span)
        if attrs_of is not None:
            span["attrs"].update(attrs_of(args, result))
        return result

    setattr(module, attr, traced)


class Phases:
    """Fit boundaries every mode records: first sweep start, sampling end."""

    def __init__(self):
        self.first_sweep = None
        self.sampling_end = None

    def sweep_started(self):
        if self.first_sweep is None:
            self.first_sweep = now()


def install_plain(phases):
    """Hooks for the untraced run: one clock read per sweep or phase."""
    cgs_sweep = gibbs.cgs_sweep

    def central_sweep(*args, **kwargs):
        phases.sweep_started()
        return cgs_sweep(*args, **kwargs)

    gibbs.cgs_sweep = central_sweep
    run_cgs = cli.run_cgs

    def timed_run_cgs(*args, **kwargs):
        try:
            return run_cgs(*args, **kwargs)
        finally:
            phases.sampling_end = now()

    cli.run_cgs = timed_run_cgs

    def factory(data, ranges, seed, hyper):
        channels, shutdown = runtime.process_channels(data, ranges, seed, hyper)
        # _coordinate sends the first SweepCmd right after the factory
        # returns, and calls shutdown right after sending StopCmd.
        phases.sweep_started()

        def timed_shutdown():
            phases.sampling_end = now()
            shutdown()

        return channels, timed_shutdown

    run_discgs = cli.run_discgs

    def run_with_factory(data, config, ground_truth=None):
        return run_discgs(data, config, ground_truth, channel_factory=factory)

    cli.run_discgs = run_with_factory


class TracedChannel:
    """Coordinator end of a worker pipe that records every message.

    It pickles exactly as ``multiprocessing.Connection.send``/``recv`` do,
    so the byte counts are the bytes the pipe carries.
    """

    def __init__(self, conn, worker_id, wire):
        self._conn = conn
        self.worker_id = worker_id
        self._wire = wire

    def send(self, obj):
        buf = ForkingPickler.dumps(obj)
        self._wire.sent(self.worker_id, obj, len(buf))
        self._conn.send_bytes(buf)

    def recv(self):
        buf = self._conn.recv_bytes()
        obj = ForkingPickler.loads(buf)
        self._wire.received(self.worker_id, obj, len(buf))
        return obj


class Wire:
    """Turns coordinator messages into iteration and collect spans.

    An iteration runs from its first SweepCmd to the next one, or to the
    first StopCmd; it counts the messages and pickled bytes it carried.
    """

    def __init__(self, tracer, phases, workers):
        self.tracer = tracer
        self.phases = phases
        self.workers = workers
        self.iteration = None
        self.collect = None

    def sent(self, worker_id, msg, size):
        first = worker_id == 0
        if isinstance(msg, runtime.SweepCmd) and first:
            self.phases.sweep_started()
            if self.iteration is not None:
                self.tracer.close(self.iteration)
            self.iteration = self.tracer.open(
                "runtime.iteration",
                iteration=msg.iteration,
                messages=0,
                summary_bytes=0,
                label_map_bytes=0,
                last_summary=None,
            )
        elif isinstance(msg, runtime.ApplyCmd):
            self.iteration["attrs"]["label_map_bytes"] += size
        elif isinstance(msg, runtime.ReportLabelsCmd) and first:
            self.collect = self.tracer.open("runtime.collect", collect_bytes=0, received=0)
        elif isinstance(msg, runtime.StopCmd) and first:
            self.tracer.close(self.iteration)
        self.iteration["attrs"]["messages"] += 1

    def received(self, worker_id, msg, size):
        attrs = self.iteration["attrs"]
        attrs["messages"] += 1
        if isinstance(msg, worker.WorkerSummary):
            attrs["summary_bytes"] += size
            attrs["last_summary"] = now()
        elif self.collect is not None:
            collect = self.collect["attrs"]
            collect["collect_bytes"] += size
            collect["received"] += 1
            if collect["received"] == self.workers:
                self.tracer.close(self.collect)
                self.collect = None


def install_trace(tracer, phases, spans_dir):
    """Hooks for the traced run: a span around each layer call."""
    wrap(cli, "read_dataset", tracer, "datasets.read_dataset")
    wrap(cli, "default_prior", tracer, "niw.default_prior")
    for attr in ("write_labels", "write_trace", "write_metrics"):
        wrap(cli, attr, tracer, "datasets." + attr)
    wrap(gibbs, "log_joint", tracer, "gibbs.log_joint")
    wrap(runtime, "master_sweep", tracer, "master.sweep", lambda args, st: {
        "batches": sum(len(s.clusters) for s in args[0]),
        "clusters": st.num_clusters,
    })
    wrap(runtime, "global_log_joint", tracer, "master.log_joint")
    wrap(runtime, "summarize", tracer, "worker.summarize",
         lambda args, summary: {"clusters": len(summary.clusters)})
    wrap(runtime, "apply_global_labels", tracer, "worker.apply")

    sample = gibbs.sample_log_weights

    def counted_sample(weights, rng):
        started = time.perf_counter()
        idx = sample(weights, rng)
        tracer.sample_seconds += time.perf_counter() - started
        tracer.sample_calls += 1
        tracer.sample_k_sum += len(weights) - 1
        return idx

    gibbs.sample_log_weights = counted_sample

    def sweep_hook(inner, record_start):
        def traced_sweep(state, data, rng, *args, **kwargs):
            if record_start:
                phases.sweep_started()
            tracer.sample_calls = tracer.sample_k_sum = 0
            tracer.sample_seconds = 0.0
            span = tracer.open("gibbs.sweep", points=len(data))
            try:
                return inner(state, data, rng, *args, **kwargs)
            finally:
                tracer.close(
                    span,
                    sample_calls=tracer.sample_calls,
                    sample_seconds=tracer.sample_seconds,
                    sample_k_sum=tracer.sample_k_sum,
                )
        return traced_sweep

    # run_cgs looks up gibbs.cgs_sweep; worker_sweep looks up worker.cgs_sweep.
    gibbs.cgs_sweep = sweep_hook(gibbs.cgs_sweep, record_start=True)
    worker.cgs_sweep = sweep_hook(worker.cgs_sweep, record_start=False)

    worker_sweep = runtime.worker_sweep
    sweeps_done = [0]

    def traced_worker_sweep(w, rng):
        sweeps_done[0] += 1
        span = tracer.open("worker.sweep", iteration=sweeps_done[0], points=len(w.data))
        try:
            return worker_sweep(w, rng)
        finally:
            tracer.close(span)

    runtime.worker_sweep = traced_worker_sweep

    worker_loop = runtime.worker_loop

    def traced_worker_loop(channel, worker_id, *args):
        # Runs in the forked worker: drop the spans copied from the parent.
        tracer.reset("w%d" % worker_id)
        span = tracer.open("worker.loop", worker=worker_id)
        try:
            worker_loop(channel, worker_id, *args)
        finally:
            tracer.close(span)
            tracer.dump(os.path.join(spans_dir, "worker-%d.json" % worker_id))

    runtime.worker_loop = traced_worker_loop

    run_cgs = cli.run_cgs

    def traced_run_cgs(*args, **kwargs):
        span = tracer.open("sampling")
        try:
            return run_cgs(*args, **kwargs)
        finally:
            phases.sampling_end = now()
            tracer.close(span)

    cli.run_cgs = traced_run_cgs

    def factory(data, ranges, seed, hyper):
        span = tracer.open("runtime.spawn", workers=len(ranges))
        channels, shutdown = runtime.process_channels(data, ranges, seed, hyper)
        tracer.close(span)
        wire = Wire(tracer, phases, len(channels))

        def traced_shutdown():
            phases.sampling_end = now()
            span = tracer.open("runtime.shutdown")
            try:
                shutdown()
            finally:
                tracer.close(span)

        return [TracedChannel(c, j, wire) for j, c in enumerate(channels)], traced_shutdown

    run_discgs = cli.run_discgs

    def traced_run_discgs(data, config, ground_truth=None):
        span = tracer.open("sampling")
        try:
            return run_discgs(data, config, ground_truth, channel_factory=factory)
        finally:
            tracer.close(span)

    cli.run_discgs = traced_run_discgs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "trace"), required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--fit-id", default="fit")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    phases = Phases()
    tracer = Tracer(args.fit_id, "coordinator")
    if args.mode == "plain":
        install_plain(phases)
    else:
        install_trace(tracer, phases, args.spans)
        fit_span = tracer.open("fit", command=cli_args[0])
    main_start = now()
    code = cli.main(cli_args)
    main_end = now()
    TICKER.stop()
    if args.mode == "trace":
        tracer.close(fit_span)
        if phases.first_sweep is not None and phases.sampling_end is not None:
            tracer.add("setup", main_start, phases.first_sweep, fit_span)
            tracer.add("outputs", phases.sampling_end, main_end, fit_span)
        tracer.dump(os.path.join(args.spans, "coordinator.json"))
    report = {
        "main_start": main_start,
        "first_sweep": phases.first_sweep,
        "sampling_end": phases.sampling_end,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # Workers have been joined by now, so this is the largest worker.
        "worker_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "probes": TICKER.samples,
    }
    with open(args.report, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
