"""Tests for sharding, the worker actor loop, and end-to-end distributed runs."""

import queue
import threading

import numpy as np
import pytest

from dpgibbs.master import GlobalLabelMap
from dpgibbs.metrics import ari
from dpgibbs.niw import NiwParams, default_prior, ModelHyperParams
from dpgibbs.runtime import (
    ApplyCmd,
    LocalChannel,
    ReportLabelsCmd,
    RunConfig,
    StopCmd,
    SweepCmd,
    WorkerFailure,
    _checked,
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
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.alpha == 1.0
        assert cfg.workers == 1

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(alpha=0.0)
        with pytest.raises(ValueError):
            RunConfig(iterations=0)
        with pytest.raises(ValueError):
            RunConfig(workers=0)


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
            RunConfig(iterations=5, workers=1, seed=3),
            channel_factory=thread_channels,
        )
        assert labels.shape == (30,)
        assert labels.min() == 0
        assert set(np.unique(labels)) == set(range(labels.max() + 1))
        assert len(trace) == 5
        assert np.all(np.isfinite(trace.log_joints))

    def test_single_point_with_prior_override(self):
        prior = NiwParams(mu=np.zeros(2), kappa=1.0, nu=3.0, psi=np.eye(2))
        labels, trace = run_discgs(
            np.array([[0.5, -0.5]]),
            RunConfig(iterations=3, workers=1, seed=0, prior_override=prior),
            channel_factory=thread_channels,
        )
        assert np.array_equal(labels, [0])
        assert np.array_equal(trace.num_clusters, [1, 1, 1])

    def test_same_seed_same_labels(self):
        data, _ = two_blob_data(60, seed=4)
        cfg = RunConfig(iterations=6, workers=3, seed=11)
        a, trace_a = run_discgs(data, cfg, channel_factory=thread_channels)
        b, trace_b = run_discgs(data, cfg, channel_factory=thread_channels)
        assert np.array_equal(a, b)
        assert np.array_equal(trace_a.log_joints, trace_b.log_joints)
        assert np.array_equal(trace_a.num_clusters, trace_b.num_clusters)

    def test_negative_seed_accepted(self):
        data, _ = two_blob_data(20, seed=5)
        cfg = RunConfig(iterations=2, workers=2, seed=-7)
        a, _ = run_discgs(data, cfg, channel_factory=thread_channels)
        b, _ = run_discgs(data, cfg, channel_factory=thread_channels)
        assert np.array_equal(a, b)

    def test_process_backend_matches_thread_backend(self):
        data, _ = two_blob_data(40, seed=6)
        cfg = RunConfig(iterations=3, workers=2, seed=13)
        thread_labels, thread_trace = run_discgs(data, cfg, channel_factory=thread_channels)
        proc_labels, proc_trace = run_discgs(data, cfg)
        assert np.array_equal(thread_labels, proc_labels)
        assert np.array_equal(thread_trace.log_joints, proc_trace.log_joints)

    @pytest.mark.parametrize("transform", [lambda x: x + 1e8, lambda x: 3.0 * x])
    def test_translated_or_scaled_data_give_the_same_labels(self, transform):
        rng = np.random.default_rng(34)
        means = np.array([[-8.0, 0.0], [8.0, 0.0], [0.0, 8.0], [0.0, -8.0]])
        data = means[rng.integers(0, 4, 2000)] + rng.standard_normal((2000, 2))
        config = RunConfig(alpha=20.0, iterations=12, workers=2, seed=5)

        def fit(x):
            return run_discgs(x, config, channel_factory=thread_channels)[0]

        base = fit(data)
        assert np.unique(base).size > 1
        assert ari(base, fit(transform(data))) >= 0.999

    @pytest.mark.xfail(
        reason="known defect (ROADMAP item 3): with W=2 and alpha 1 the master "
        "merges the four components into one global cluster within 6 iterations",
        strict=True,
    )
    def test_two_workers_keep_four_separated_components(self):
        rng = np.random.default_rng(34)
        means = np.array([[-8.0, 0.0], [8.0, 0.0], [0.0, 8.0], [0.0, -8.0]])
        truth = rng.integers(0, 4, 2000)
        data = means[truth] + rng.standard_normal((2000, 2))
        config = RunConfig(alpha=1.0, iterations=6, workers=2, seed=5)
        labels, _ = run_discgs(data, config, channel_factory=thread_channels)
        assert ari(labels, truth) >= 0.9

    def test_recovers_separated_components(self):
        data, truth = two_blob_data(80, seed=7)
        labels, trace = run_discgs(
            data,
            RunConfig(iterations=25, workers=4, seed=1),
            ground_truth=truth,
            channel_factory=thread_channels,
        )
        assert ari(labels, truth) >= 0.95
        assert trace.aris[-1] == ari(labels, truth)

    def test_trace_contents(self):
        data, truth = two_blob_data(24, seed=8)
        labels, trace = run_discgs(
            data,
            RunConfig(iterations=4, workers=2, seed=2),
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

    def test_trace_disabled(self):
        data, _ = two_blob_data(20, seed=9)
        labels, trace = run_discgs(
            data,
            RunConfig(iterations=3, workers=2, seed=5, record_trace=False),
            channel_factory=thread_channels,
        )
        assert len(trace) == 0
        assert labels.shape == (20,)

    def test_truth_free_run_has_no_aris(self):
        data, _ = two_blob_data(20, seed=10)
        _, trace = run_discgs(
            data,
            RunConfig(iterations=3, workers=2, seed=5),
            channel_factory=thread_channels,
        )
        assert trace.aris == [None, None, None]

    def test_too_many_workers_rejected(self):
        with pytest.raises(ValueError):
            run_discgs(
                np.zeros((3, 2)),
                RunConfig(iterations=1, workers=5),
                channel_factory=thread_channels,
            )

    def test_truth_length_mismatch_rejected(self):
        data, _ = two_blob_data(20, seed=11)
        with pytest.raises(ValueError):
            run_discgs(
                data,
                RunConfig(iterations=1, workers=2),
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
            RunConfig(iterations=iters, workers=3, seed=21),
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
            assert all(isinstance(m.label_map, GlobalLabelMap) for m in apply_cmds)
            assert len(report_cmds) == 1
            assert len(stop_cmds) == 1
            assert len(sent) == 2 * iters + 2

            summaries = [m for m in received if isinstance(m, WorkerSummary)]
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
            RunConfig(iterations=iters, workers=3, seed=22),
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
            assert [s.total_size for s in summaries] == [size] * iters
            per_channel_arrays.append(arrays)
        for t in range(iters):
            labels = np.concatenate([arrays[t] for arrays in per_channel_arrays])
            assert labels.shape == (33,)
            uniq = np.unique(labels)
            assert uniq[0] == 0
            assert np.array_equal(uniq, np.arange(uniq.size))
            assert trace.records[t].num_clusters == uniq.size


class TestWorkerLoopFailure:
    def test_failure_that_cannot_be_pickled_still_reaches_the_coordinator(self, monkeypatch):
        from dpgibbs import runtime
        from dpgibbs.errors import NumericalDegeneracyError

        def failing_sweep(w, rng):
            raise NumericalDegeneracyError("forced", context={"hook": lambda: None})

        monkeypatch.setattr(runtime, "worker_sweep", failing_sweep)
        data, _ = two_blob_data(20, seed=15)
        with pytest.raises(RuntimeError, match="worker 0 failed at iteration 1") as info:
            run_discgs(data, RunConfig(iterations=2, workers=2, seed=1))
        assert "forced" in str(info.value)

    def test_unknown_command_surfaces_as_worker_failure(self):
        data, _ = two_blob_data(10, seed=14)
        hyper = ModelHyperParams(alpha=1.0, prior=default_prior(data))
        to_worker, to_master = queue.Queue(), queue.Queue()
        worker_end = LocalChannel(to_worker, to_master)
        master_end = LocalChannel(to_master, to_worker)
        th = threading.Thread(
            target=worker_loop, args=(worker_end, 0, data, 0, 1, hyper), daemon=True
        )
        th.start()
        master_end.send(SweepCmd(1))
        assert isinstance(master_end.recv(), WorkerSummary)
        master_end.send(("not", "a", "command"))
        msg = master_end.recv()
        assert isinstance(msg, WorkerFailure)
        assert msg.worker_id == 0
        assert "unknown command" in msg.message
        assert "worker_loop" in msg.details
        with pytest.raises(RuntimeError, match="worker 0 failed at iteration 3"):
            _checked(msg, 3)
        th.join(timeout=5.0)
        assert not th.is_alive()
