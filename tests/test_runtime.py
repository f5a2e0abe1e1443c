"""Tests for sharding, the worker actor loop, and end-to-end distributed runs."""

import dataclasses
import multiprocessing
import threading

import numpy as np
import pytest

from dpgibbs.gibbs import run_cgs
from dpgibbs.metrics import ari
from dpgibbs.niw import NiwParams, default_prior, ModelHyperParams
from dpgibbs.runtime import (
    ApplyCmd,
    ReportLabelsCmd,
    RunConfig,
    StopCmd,
    SweepCmd,
    WorkerFailure,
    _checked,
    process_channels,
    run_discgs,
    shard,
    thread_channels,
    worker_loop,
)
from dpgibbs.worker import WorkerSummary


def two_blob_data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    data = np.vstack(
        [rng.standard_normal((half, 2)) - [9.0, 0.0], rng.standard_normal((n - half, 2)) + [9.0, 0.0]]
    )
    truth = np.repeat([0, 1], [half, n - half])
    return data, truth


def config(data, alpha=1.0, **fields):
    """RunConfig of the model both samplers fit by default: alpha and the
    empirical prior of ``data``."""
    return RunConfig(ModelHyperParams(alpha, default_prior(data)), **fields)


def churn_data():
    """Unstructured points on which local clusters retire and are born."""
    return np.random.default_rng(3).standard_normal((3000, 2))


CHURN_CONFIG = config(churn_data(), alpha=20.0, iterations=8, workers=2, seed=7)


class TestShard:
    def test_uneven_split_gives_extra_to_leading_shards(self):
        ranges = shard(np.zeros((10, 1)), 3)
        assert [r.stop - r.start for r in ranges] == [4, 3, 3]

    def test_large_even_split(self):
        ranges = shard(np.zeros((100000, 1)), 32)
        sizes = [r.stop - r.start for r in ranges]
        assert sizes == [3125] * 32

    def test_singleton_shards(self):
        ranges = shard(np.zeros((4, 1)), 4)
        assert [(r.start, r.stop) for r in ranges] == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_contiguous_and_covering(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 200))
            w = int(rng.integers(1, n + 1))
            ranges = shard(np.zeros((n, 1)), w)
            assert ranges[0].start == 0
            assert ranges[-1].stop == n
            for a, b in zip(ranges, ranges[1:]):
                assert a.stop == b.start
            sizes = [r.stop - r.start for r in ranges]
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == n

    def test_more_workers_than_points_rejected(self):
        with pytest.raises(ValueError):
            shard(np.zeros((3, 1)), 4)


class TestRunConfig:
    HYPER = ModelHyperParams(1.0, NiwParams(mu=np.zeros(2), kappa=1.0, nu=3.0, psi=np.eye(2)))

    def test_defaults_valid(self):
        cfg = RunConfig(self.HYPER)
        assert [f.name for f in dataclasses.fields(cfg)] == ["hyper", "iterations", "workers", "seed"]
        assert (cfg.iterations, cfg.workers, cfg.seed) == (100, 1, 0)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(self.HYPER, iterations=0)
        with pytest.raises(ValueError):
            RunConfig(self.HYPER, workers=0)


class RecordingChannel:
    def __init__(self, inner, sent, received):
        self.inner = inner
        self.sent = sent
        self.received = received

    def send(self, obj):
        self.sent.append(obj)
        self.inner.send(obj)

    def recv(self):
        obj = self.inner.recv()
        self.received.append(obj)
        return obj


def recording_factory(log):
    """Wrap the threaded backend so every master-side message is recorded."""

    def factory(data, ranges, seed, hyper):
        channels, shutdown = thread_channels(data, ranges, seed, hyper)
        wrapped = []
        for ch in channels:
            sent, received = [], []
            log.append((sent, received))
            wrapped.append(RecordingChannel(ch, sent, received))
        return wrapped, shutdown

    return factory


class TestRunDiscgs:
    def test_single_worker_smoke(self):
        data, truth = two_blob_data(30, seed=2)
        labels, trace = run_discgs(
            data,
            config(data, iterations=5, workers=1, seed=3),
            channel_factory=thread_channels,
        )
        assert labels.shape == (30,)
        assert labels.min() == 0
        assert set(np.unique(labels)) == set(range(labels.max() + 1))
        assert len(trace) == 5
        assert np.all(np.isfinite(trace.log_joints))

    def test_single_point_with_explicit_prior(self):
        prior = NiwParams(mu=np.zeros(2), kappa=1.0, nu=3.0, psi=np.eye(2))
        labels, trace = run_discgs(
            np.array([[0.5, -0.5]]),
            RunConfig(ModelHyperParams(1.0, prior), iterations=3, workers=1, seed=0),
            channel_factory=thread_channels,
        )
        assert np.array_equal(labels, [0])
        assert np.array_equal(trace.num_clusters, [1, 1, 1])

    def test_same_seed_same_labels(self):
        data, _ = two_blob_data(60, seed=4)
        cfg = config(data, iterations=6, workers=3, seed=11)
        a, trace_a = run_discgs(data, cfg, channel_factory=thread_channels)
        b, trace_b = run_discgs(data, cfg, channel_factory=thread_channels)
        assert np.array_equal(a, b)
        assert np.array_equal(trace_a.log_joints, trace_b.log_joints)
        assert np.array_equal(trace_a.num_clusters, trace_b.num_clusters)

    def test_negative_seed_accepted(self):
        data, _ = two_blob_data(20, seed=5)
        cfg = config(data, iterations=2, workers=2, seed=-7)
        a, _ = run_discgs(data, cfg, channel_factory=thread_channels)
        b, _ = run_discgs(data, cfg, channel_factory=thread_channels)
        assert np.array_equal(a, b)

    def test_process_backend_matches_thread_backend(self):
        blobs = two_blob_data(40, seed=6)[0]
        cases = [
            (blobs, config(blobs, iterations=3, workers=2, seed=13)),
            # Local clusters retire and are born here, so the master is
            # seeded from batches whose local labels are not dense.
            (churn_data(), CHURN_CONFIG),
        ]
        for data, cfg in cases:
            thread_labels, thread_trace = run_discgs(data, cfg, channel_factory=thread_channels)
            proc_labels, proc_trace = run_discgs(data, cfg)
            assert np.array_equal(thread_labels, proc_labels)
            assert np.array_equal(thread_trace.log_joints, proc_trace.log_joints)

    def test_master_seeds_each_batch_with_its_own_previous_global_id(self, monkeypatch):
        """A batch is seeded with the global id its cluster held after the
        last apply: a cluster that survives the sweep keeps its label, which
        is that id, and a cluster born in the sweep is seeded with none."""
        from dpgibbs import runtime

        sweep, master = runtime.worker_sweep, runtime.master_sweep
        before = {}  # (worker, iteration) -> the worker's state going into its sweep
        sweeps = {}
        rounds = []  # (summaries, result) of each master sweep

        def recording_sweep(w, rng):
            t = sweeps[w.worker_id] = sweeps.get(w.worker_id, 0) + 1
            before[(w.worker_id, t)] = w
            return sweep(w, rng)

        def recording_master(summaries, *args, **kwargs):
            out = master(summaries, *args, **kwargs)
            rounds.append((summaries, out))
            return out

        monkeypatch.setattr(runtime, "worker_sweep", recording_sweep)
        monkeypatch.setattr(runtime, "master_sweep", recording_master)
        run_discgs(churn_data(), CHURN_CONFIG, channel_factory=thread_channels)

        retired = born = seeded = 0
        for t, (summaries, _) in enumerate(rounds, start=1):
            for summary in summaries:
                j = summary.worker_id
                start = before[(j, t)].local.clusters
                labels = {e.local_label for e in summary.clusters}
                retired += len(set(start) - labels)
                applied = set()
                if t > 1:
                    applied = {g for (i, _), g in rounds[t - 2][1].assignments.items() if i == j}
                    assert set(start) == applied
                previous = [e.previous for e in summary.clusters if e.previous is not None]
                assert len(previous) == len(set(previous))
                for entry in summary.clusters:
                    if entry.local_label in applied:
                        seeded += 1
                        assert entry.previous == entry.local_label
                    else:
                        born += t > 1
                        assert entry.previous is None
        assert retired > 0 and born > 0 and seeded > 0

    @pytest.mark.parametrize("transform", [lambda x: x + 1e8, lambda x: 3.0 * x])
    def test_translated_or_scaled_data_give_the_same_labels(self, transform):
        rng = np.random.default_rng(34)
        means = np.array([[-8.0, 0.0], [8.0, 0.0], [0.0, 8.0], [0.0, -8.0]])
        data = means[rng.integers(0, 4, 2000)] + rng.standard_normal((2000, 2))

        def fit(x):
            cfg = config(x, alpha=20.0, iterations=12, workers=2, seed=5)
            return run_discgs(x, cfg, channel_factory=thread_channels)[0]

        base = fit(data)
        assert np.unique(base).size > 1
        assert ari(base, fit(transform(data))) >= 0.999

    @pytest.mark.xfail(
        reason="known defect (ROADMAP item 2): no move in either sampler splits a "
        "cluster that holds two components; each worker keeps one cluster across its "
        "shard, and run_cgs on the same data also sticks at alpha 1",
        strict=True,
    )
    def test_two_workers_keep_four_separated_components(self):
        rng = np.random.default_rng(34)
        means = np.array([[-8.0, 0.0], [8.0, 0.0], [0.0, 8.0], [0.0, -8.0]])
        truth = rng.integers(0, 4, 2000)
        data = means[truth] + rng.standard_normal((2000, 2))
        cfg = config(data, iterations=6, workers=2, seed=5)
        labels, _ = run_discgs(data, cfg, channel_factory=thread_channels)
        assert ari(labels, truth) >= 0.9

    def test_recovers_separated_components(self):
        data, truth = two_blob_data(80, seed=7)
        labels, trace = run_discgs(
            data,
            config(data, iterations=25, workers=4, seed=1),
            ground_truth=truth,
            channel_factory=thread_channels,
        )
        assert ari(labels, truth) >= 0.95
        assert trace.aris[-1] == ari(labels, truth)

    def test_trace_contents(self):
        data, truth = two_blob_data(24, seed=8)
        labels, trace = run_discgs(
            data,
            config(data, iterations=4, workers=2, seed=2),
            ground_truth=truth,
            channel_factory=thread_channels,
        )
        assert len(trace) == 4
        assert [r.iteration for r in trace.records] == [1, 2, 3, 4]
        assert all(r.ari is not None for r in trace.records)
        assert all(r.seconds >= 0 for r in trace.records)
        assert trace.meta["workers"] == 2
        assert trace.meta["n"] == 24
        assert trace.meta["d"] == 2

    def test_truth_free_run_has_no_aris(self):
        data, _ = two_blob_data(20, seed=10)
        _, trace = run_discgs(
            data,
            config(data, iterations=3, workers=2, seed=5),
            channel_factory=thread_channels,
        )
        assert trace.aris == [None, None, None]

    def test_too_many_workers_rejected(self):
        data, _ = two_blob_data(4, seed=9)
        with pytest.raises(ValueError, match="more workers"):
            run_discgs(data, config(data, iterations=1, workers=5), channel_factory=thread_channels)

    @pytest.mark.parametrize(
        "fit",
        [
            lambda data, hyper: run_cgs(data, hyper, 1, 0),
            lambda data, hyper: run_discgs(
                data, RunConfig(hyper, iterations=1, workers=2), channel_factory=thread_channels
            ),
        ],
        ids=["cgs", "discgs"],
    )
    def test_prior_of_another_dimension_rejected(self, fit):
        """Both samplers refuse a prior that does not match the data's columns."""
        with pytest.raises(ValueError, match="data has 1 columns but the prior has 2"):
            fit(np.arange(4.0).reshape(4, 1), TestRunConfig.HYPER)

    def test_truth_length_mismatch_rejected(self):
        data, _ = two_blob_data(20, seed=11)
        with pytest.raises(ValueError):
            run_discgs(
                data,
                config(data, iterations=1, workers=2),
                ground_truth=np.zeros(7, dtype=np.int64),
                channel_factory=thread_channels,
            )


class TestMessageTraffic:
    def test_truth_free_traffic_is_summaries_and_one_label_report(self):
        data, _ = two_blob_data(36, seed=12)
        log = []
        iters = 4
        run_discgs(
            data,
            config(data, iterations=iters, workers=3, seed=21),
            channel_factory=recording_factory(log),
        )
        assert len(log) == 3
        shard_sizes = [12, 12, 12]
        for size, (sent, received) in zip(shard_sizes, log):
            sweep_cmds = [m for m in sent if isinstance(m, SweepCmd)]
            apply_cmds = [m for m in sent if isinstance(m, ApplyCmd)]
            report_cmds = [m for m in sent if isinstance(m, ReportLabelsCmd)]
            stop_cmds = [m for m in sent if isinstance(m, StopCmd)]
            assert len(sweep_cmds) == iters
            assert [m.iteration for m in sweep_cmds] == list(range(1, iters + 1))
            assert len(apply_cmds) == iters
            # Each worker receives a map of exactly its own local clusters.
            summaries = [m for m in received if isinstance(m, WorkerSummary)]
            assert [set(m.label_map) for m in apply_cmds] == [
                {e.local_label for e in s.clusters} for s in summaries
            ]
            assert len(report_cmds) == 1
            assert len(stop_cmds) == 1
            assert len(sent) == 2 * iters + 2

            arrays = [m for m in received if isinstance(m, np.ndarray)]
            assert len(summaries) == iters
            assert len(arrays) == 1
            assert arrays[0].ndim == 1
            assert arrays[0].shape == (size,)
            assert len(received) == iters + 1
            # No raw point payloads in either direction.
            for msg in sent + received:
                assert not (isinstance(msg, np.ndarray) and msg.ndim == 2)

    def test_every_iteration_is_a_valid_partition(self):
        data, truth = two_blob_data(33, seed=13)
        log = []
        iters = 5
        _, trace = run_discgs(
            data,
            config(data, iterations=iters, workers=3, seed=22),
            ground_truth=truth,
            channel_factory=recording_factory(log),
        )
        shard_sizes = [11, 11, 11]
        # With ground truth, the label vector crosses once per iteration.
        per_channel_arrays = []
        for size, (sent, received) in zip(shard_sizes, log):
            arrays = [m for m in received if isinstance(m, np.ndarray)]
            summaries = [m for m in received if isinstance(m, WorkerSummary)]
            assert len(arrays) == iters
            assert all(a.shape == (size,) for a in arrays)
            assert [sum(e.stats.n for e in s.clusters) for s in summaries] == [size] * iters
            per_channel_arrays.append(arrays)
        for t in range(iters):
            labels = np.concatenate([arrays[t] for arrays in per_channel_arrays])
            assert labels.shape == (33,)
            uniq = np.unique(labels)
            assert uniq[0] == 0
            assert np.array_equal(uniq, np.arange(uniq.size))
            assert trace.records[t].num_clusters == uniq.size


class TestFitPathUsesTheClusterTable:
    def test_fits_complete_without_niw_posterior(self, monkeypatch):
        """Sweeps and the trace's log joint read the cluster table alone."""
        from dpgibbs import niw

        def forbidden(prior, stats):
            raise AssertionError("niw_posterior called on the fit path")

        monkeypatch.setattr(niw, "niw_posterior", forbidden)
        data, truth = two_blob_data(40, seed=16)
        hyper = ModelHyperParams(alpha=1.0, prior=default_prior(data))
        _, trace = run_cgs(data, hyper, 3, seed=2, ground_truth=truth)
        assert len(trace) == 3 and np.all(np.isfinite(trace.log_joints))
        labels, trace = run_discgs(
            data,
            RunConfig(hyper, iterations=3, workers=2, seed=2),
            ground_truth=truth,
            channel_factory=thread_channels,
        )
        assert labels.shape == (40,)
        assert len(trace) == 3 and np.all(np.isfinite(trace.log_joints))


class TestWorkerLoopFailure:
    def test_failure_that_cannot_be_pickled_still_reaches_the_coordinator(self, monkeypatch):
        from dpgibbs import runtime
        from dpgibbs.errors import NumericalDegeneracyError

        def failing_sweep(w, rng):
            raise NumericalDegeneracyError("forced", context={"hook": lambda: None})

        monkeypatch.setattr(runtime, "worker_sweep", failing_sweep)
        data, _ = two_blob_data(20, seed=15)
        with pytest.raises(RuntimeError, match="forced") as info:
            run_discgs(data, config(data, iterations=2, workers=2, seed=1))
        # The error's context holds a lambda, so its repr arrives instead.
        assert type(info.value) is RuntimeError
        cause = str(info.value.__cause__)
        assert "worker 0 failed at iteration 1" in cause
        assert "worker_loop" in cause

    @pytest.mark.parametrize(
        "factory", [thread_channels, process_channels], ids=["thread", "process"]
    )
    def test_shutdown_ends_idle_workers(self, monkeypatch, factory):
        """A failed run does not wait out a join timeout per idle worker."""
        import time

        from dpgibbs import runtime
        from dpgibbs.errors import NumericalDegeneracyError

        def failing_master(*args, **kwargs):
            raise NumericalDegeneracyError("forced")

        monkeypatch.setattr(runtime, "master_sweep", failing_master)
        data, _ = two_blob_data(20, seed=17)
        started = time.perf_counter()
        with pytest.raises(NumericalDegeneracyError, match="forced"):
            run_discgs(data, config(data, iterations=2, workers=2, seed=1), channel_factory=factory)
        # Each join waits up to 5 s; closing the coordinator's ends lets the
        # workers, blocked on their next command, exit at once.
        assert time.perf_counter() - started < 4.0
        assert not multiprocessing.active_children()

    def test_unknown_command_surfaces_as_worker_failure(self):
        data, _ = two_blob_data(10, seed=14)
        hyper = ModelHyperParams(alpha=1.0, prior=default_prior(data))
        master_end, worker_end = multiprocessing.Pipe()
        th = threading.Thread(
            target=worker_loop, args=(worker_end, 0, data, 1, hyper), daemon=True
        )
        th.start()
        master_end.send(SweepCmd(1))
        assert isinstance(master_end.recv(), WorkerSummary)
        master_end.send(("not", "a", "command"))
        msg = master_end.recv()
        assert isinstance(msg, WorkerFailure)
        assert msg.worker_id == 0
        assert "worker_loop" in msg.details
        with pytest.raises(RuntimeError, match="unknown command") as info:
            _checked(msg, 3)
        assert "worker 0 failed at iteration 3" in str(info.value.__cause__)
        th.join(timeout=5.0)
        assert not th.is_alive()
        master_end.close()
        worker_end.close()
