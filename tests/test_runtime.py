"""Tests for sharding, the worker actor loop, and end-to-end distributed runs."""

import dataclasses
import functools
import hashlib
import multiprocessing
import threading

import numpy as np
import pytest

import _oracles
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


# Two iterations of either sampler, scored against ``truth`` when it is given.
BOTH_SAMPLERS = pytest.mark.parametrize(
    "fit",
    [
        lambda data, hyper, truth=None: run_cgs(data, hyper, 2, seed=0, ground_truth=truth),
        lambda data, hyper, truth=None: run_discgs(
            data,
            RunConfig(hyper, iterations=2, workers=2),
            ground_truth=truth,
            channel_factory=thread_channels,
        ),
    ],
    ids=["cgs", "discgs"],
)


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
        assert np.all(np.isfinite(_oracles.log_joints(trace)))

    def test_single_point_with_explicit_prior(self):
        prior = NiwParams(mu=np.zeros(2), kappa=1.0, nu=3.0, psi=np.eye(2))
        labels, trace = run_discgs(
            np.array([[0.5, -0.5]]),
            RunConfig(ModelHyperParams(1.0, prior), iterations=3, workers=1, seed=0),
            channel_factory=thread_channels,
        )
        assert np.array_equal(labels, [0])
        assert np.array_equal(_oracles.cluster_counts(trace), [1, 1, 1])

    def test_same_seed_same_labels(self):
        data, _ = two_blob_data(60, seed=4)
        cfg = config(data, iterations=6, workers=3, seed=11)
        a, trace_a = run_discgs(data, cfg, channel_factory=thread_channels)
        b, trace_b = run_discgs(data, cfg, channel_factory=thread_channels)
        assert np.array_equal(a, b)
        assert np.array_equal(_oracles.log_joints(trace_a), _oracles.log_joints(trace_b))
        assert np.array_equal(_oracles.cluster_counts(trace_a), _oracles.cluster_counts(trace_b))

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
            assert np.array_equal(_oracles.log_joints(thread_trace), _oracles.log_joints(proc_trace))

    def test_spawned_workers_give_the_thread_backends_labels(self, monkeypatch):
        """Workers started by spawn inherit nothing from the coordinator, not
        even its array of count terms, and fill their own; the labels and
        log joints are the thread backend's."""
        get_context, methods = multiprocessing.get_context, []

        def spawn_context(method=None):
            methods.append(method or "spawn")
            return get_context(method or "spawn")

        data = two_blob_data(40, seed=6)[0]
        cfg = config(data, iterations=3, workers=2, seed=13)
        thread_labels, thread_trace = run_discgs(data, cfg, channel_factory=thread_channels)
        monkeypatch.setattr(multiprocessing, "get_context", spawn_context)
        spawn_labels, spawn_trace = run_discgs(data, cfg)
        assert methods == ["spawn"]
        assert np.array_equal(thread_labels, spawn_labels)
        assert np.array_equal(_oracles.log_joints(thread_trace), _oracles.log_joints(spawn_trace))

    def test_master_seeds_each_batch_with_its_own_previous_global_id(self, monkeypatch):
        """A batch is seeded with the global id its cluster held after the
        last apply: a cluster that survives the sweep keeps its label, which
        is that id, and a cluster born in the sweep is seeded with none."""
        from dpgibbs import runtime

        sweep, master = runtime.worker_sweep, runtime.master_sweep
        before = {}  # (worker, iteration) -> the worker's cluster labels going into its sweep
        sweeps = {}
        rounds = []  # (summaries, result) of each master sweep

        def recording_sweep(w, rng):
            t = sweeps[w.worker_id] = sweeps.get(w.worker_id, 0) + 1
            before[(w.worker_id, t)] = set(w.local.table.labels)
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
                start = before[(j, t)]
                labels = set(summary.clusters.tolist())
                retired += len(set(start) - labels)
                applied = set()
                if t > 1:
                    applied = set(rounds[t - 2][1].targets[j])
                    assert set(start) == applied
                previous = [g for g in summary.previous.tolist() if g >= 0]
                assert len(previous) == len(set(previous))
                for h, g in zip(summary.clusters.tolist(), summary.previous.tolist()):
                    if h in applied:
                        seeded += 1
                        assert g == h
                    else:
                        born += t > 1
                        assert g == -1
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
        reason="known defect (ROADMAP item 1): no move in either sampler splits a "
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
        assert _oracles.aris(trace)[-1] == ari(labels, truth)

    def test_trace_contents(self):
        data, truth = two_blob_data(24, seed=8)
        labels, trace = run_discgs(
            data,
            config(data, iterations=4, workers=2, seed=2),
            ground_truth=truth,
            channel_factory=thread_channels,
        )
        assert len(trace) == 4
        assert [r.iteration for r in trace] == [1, 2, 3, 4]
        assert all(r.ari is not None for r in trace)
        assert all(r.seconds >= 0 for r in trace)

    def test_truth_free_run_has_no_aris(self):
        data, _ = two_blob_data(20, seed=10)
        _, trace = run_discgs(
            data,
            config(data, iterations=3, workers=2, seed=5),
            channel_factory=thread_channels,
        )
        assert _oracles.aris(trace) == [None, None, None]

    def test_too_many_workers_rejected(self):
        data, _ = two_blob_data(4, seed=9)
        with pytest.raises(ValueError, match="more workers"):
            run_discgs(data, config(data, iterations=1, workers=5), channel_factory=thread_channels)

    @BOTH_SAMPLERS
    def test_prior_of_another_dimension_rejected(self, fit):
        """Both samplers refuse a prior that does not match the data's columns."""
        with pytest.raises(ValueError, match="data has 1 columns but the prior has 2"):
            fit(np.arange(4.0).reshape(4, 1), TestRunConfig.HYPER)

    @BOTH_SAMPLERS
    @pytest.mark.parametrize("data", [np.arange(4.0), np.zeros((0, 2))], ids=["1d", "empty"])
    def test_data_not_a_nonempty_matrix_rejected(self, fit, data):
        with pytest.raises(ValueError, match=r"data must be a non-empty \(n, d\) array"):
            fit(data, TestRunConfig.HYPER)

    @BOTH_SAMPLERS
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, fit, bad, monkeypatch):
        """Both samplers blame NaN or infinite data on the data, before any
        cluster table or worker is built."""
        from dpgibbs.gibbs import _ClusterCache

        built = []
        monkeypatch.setattr(_ClusterCache, "__init__", lambda *args: built.append(args))
        data, _ = two_blob_data(20, seed=12)
        data[13, 1] = data[4, 0] = bad
        with pytest.raises(ValueError, match="data must be finite: it has NaN or infinite entries"):
            fit(data, TestRunConfig.HYPER)
        assert built == []

    @BOTH_SAMPLERS
    def test_truth_length_mismatch_rejected(self, fit, monkeypatch):
        """Both samplers check the ground truth's length before any sweep."""
        from dpgibbs import gibbs, worker

        sweeps = []
        for module in (gibbs, worker):
            monkeypatch.setattr(module, "cgs_sweep", lambda *args: sweeps.append(args))
        data, _ = two_blob_data(20, seed=11)
        hyper = ModelHyperParams(1.0, default_prior(data))
        with pytest.raises(
            ValueError, match="ground truth length does not match data: 7 labels for 20 points"
        ):
            fit(data, hyper, np.zeros(7, dtype=np.int64))
        assert sweeps == []

    @BOTH_SAMPLERS
    def test_degeneracy_names_its_iteration(self, fit, monkeypatch):
        """A degeneracy in the second central or master sweep names iteration 2."""
        from dpgibbs import gibbs, runtime
        from dpgibbs.errors import NumericalDegeneracyError

        def fail_second_call(module, name):
            calls = []
            inner = getattr(module, name)

            def sweep(*args):
                calls.append(None)
                if len(calls) == 2:
                    raise NumericalDegeneracyError("forced")
                return inner(*args)

            monkeypatch.setattr(module, name, sweep)

        fail_second_call(gibbs, "cgs_sweep")
        fail_second_call(runtime, "master_sweep")
        data, _ = two_blob_data(20, seed=11)
        with pytest.raises(NumericalDegeneracyError) as info:
            fit(data, ModelHyperParams(1.0, default_prior(data)))
        assert info.value.context["iteration"] == 2

    @BOTH_SAMPLERS
    def test_seconds_exclude_ari(self, fit, monkeypatch):
        """An iteration's seconds are taken before its ARI is scored."""
        import time

        from dpgibbs import metrics

        score = metrics.ari

        def slow_ari(a, b):
            time.sleep(0.5)
            return score(a, b)

        monkeypatch.setattr(metrics, "ari", slow_ari)
        data, truth = two_blob_data(20, seed=11)
        _, trace = fit(data, ModelHyperParams(1.0, default_prior(data)), truth)
        assert all(r.ari is not None for r in trace)
        assert all(r.seconds < 0.5 for r in trace)


class TestSampledPathPin:
    """The labels both samplers draw on a fixed 8-d mixture whose clusters
    churn, and the central sampler on a 2-d mixture whose clusters pass
    _COUNT_CAP, held as the SHA-256 of their int64 bytes.  A change to how
    the sweeps compute must leave these unchanged; a change to what they
    draw updates them and says so."""

    @staticmethod
    def digest(labels):
        return hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()).hexdigest()

    @staticmethod
    def mixture():
        rng = np.random.default_rng(2023)
        data = rng.standard_normal((400, 8)) + 3.0 * rng.integers(0, 4, (400, 1))
        return data, config(data, alpha=10.0, iterations=4, workers=2, seed=7)

    def test_central_labels(self):
        data, cfg = self.mixture()
        labels, _ = run_cgs(data, cfg.hyper, cfg.iterations, seed=cfg.seed)
        assert self.digest(labels) == "0c2b78952706644615930ea7d395d651c3dddfd9033ff5425bd0f8b2182eaaca"

    def test_distributed_labels(self):
        data, cfg = self.mixture()
        labels, _ = run_discgs(data, cfg, channel_factory=thread_channels)
        assert self.digest(labels) == "60b5b691fa545d10b01080a4e1d028e263fd566ebdb56537c67f2ddc232ed600"

    def test_central_labels_past_the_count_cap(self):
        from dpgibbs import gibbs

        rng = np.random.default_rng(2030)
        data = rng.standard_normal((6000, 2)) + 4.0 * rng.integers(0, 3, (6000, 1))
        cfg = config(data, alpha=5.0, iterations=3, seed=7)
        labels, _ = run_cgs(data, cfg.hyper, cfg.iterations, seed=cfg.seed)
        assert self.digest(labels) == "f6637f1dd83c3f702addd0f51268b3f9e7d0495048a464583e9afc296ea4d22b"
        p = cfg.hyper.prior
        assert gibbs._count_chunks(p.kappa, p.nu, p.d, cfg.hyper.alpha).cache_info().currsize  # chunks were met


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
            # Each worker receives a plain list of ints, one global id per
            # row of the summary it sent in the same iteration.
            summaries = [m for m in received if isinstance(m, WorkerSummary)]
            for cmd, summary in zip(apply_cmds, summaries):
                assert type(cmd.targets) is list
                assert all(type(g) is int for g in cmd.targets)
                assert len(cmd.targets) == len(summary.clusters)
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
            assert [s.stats[:, 0].sum() for s in summaries] == [size] * iters
            per_channel_arrays.append(arrays)
        for t in range(iters):
            labels = np.concatenate([arrays[t] for arrays in per_channel_arrays])
            assert labels.shape == (33,)
            uniq = np.unique(labels)
            assert uniq[0] == 0
            assert np.array_equal(uniq, np.arange(uniq.size))
            assert trace[t].num_clusters == uniq.size


class TestFitPathUsesTheClusterTable:
    def test_fits_complete_without_niw_posterior(self, monkeypatch):
        """Sweeps and the trace's log joint read the cluster table alone, and
        statistics cross from worker table to master table as packed rows:
        neither sampler calls niw_posterior or builds a SufficientStats."""
        from dpgibbs import niw

        def forbidden(*args):
            raise AssertionError("niw_posterior or SufficientStats on the fit path")

        monkeypatch.setattr(niw, "niw_posterior", forbidden)
        monkeypatch.setattr(niw.SufficientStats, "__post_init__", forbidden)
        data, truth = two_blob_data(40, seed=16)
        hyper = ModelHyperParams(alpha=1.0, prior=default_prior(data))
        _, trace = run_cgs(data, hyper, 3, seed=2, ground_truth=truth)
        assert len(trace) == 3 and np.all(np.isfinite(_oracles.log_joints(trace)))
        labels, trace = run_discgs(
            data,
            RunConfig(hyper, iterations=3, workers=2, seed=2),
            ground_truth=truth,
            channel_factory=thread_channels,
        )
        assert labels.shape == (40,)
        assert len(trace) == 3 and np.all(np.isfinite(_oracles.log_joints(trace)))

    def test_run_frees_its_models_count_terms(self):
        """On the thread backend the workers share the coordinator's array of
        count terms; a run of another model replaces it, and a later run of
        the first model gives the labels of its first run."""
        from dpgibbs import gibbs
        from dpgibbs.gibbs import PartitionState

        data, _ = two_blob_data(40, seed=17)
        cfg = config(data, alpha=2.0, iterations=3, workers=2, seed=4)
        other = config(data, alpha=3.0, iterations=3, workers=2, seed=4)
        first, _ = run_discgs(data, cfg, channel_factory=thread_channels)
        held = PartitionState.single_cluster(data, cfg.hyper).table._count_rows
        assert held.shape == (gibbs._COUNT_CAP, 8)  # the run filled its model's array
        run_discgs(data, other, channel_factory=thread_channels)
        assert gibbs._count_rows.cache_info().currsize == 1
        second, _ = run_discgs(data, cfg, channel_factory=thread_channels)
        assert PartitionState.single_cluster(data, cfg.hyper).table._count_rows is not held
        assert np.array_equal(first, second)

    def test_a_run_fills_its_models_count_terms_once(self, monkeypatch):
        """run_cgs and run_discgs (two workers, thread backend) each fill the
        model's array of count terms once, and take the rows of counts at or
        above the cap from whole chunks, each filled at most once by each
        thread: no count's terms are computed alone."""
        from dpgibbs import gibbs

        fill = gibbs._fill_counts
        fills = []  # (thread, start, size) of each fill

        def watched_fill(*model_and_rows):
            fills.append((threading.get_ident(),) + model_and_rows[-2:])
            return fill(*model_and_rows)

        monkeypatch.setattr(gibbs, "_COUNT_CAP", 16)  # the 40-point clusters pass it
        monkeypatch.setattr(gibbs, "_CHUNK", 4)
        monkeypatch.setattr(gibbs, "_fill_counts", watched_fill)
        data, _ = two_blob_data(40, seed=19)
        cfg = config(data, alpha=2.0, iterations=3, workers=2, seed=4)
        runs = (
            lambda: run_cgs(data, cfg.hyper, 3, seed=4),
            lambda: run_discgs(data, cfg, channel_factory=thread_channels),
        )
        for run in runs:
            # memos of their own, so no array of a patched cap or chunk outlives the test
            for memo in ("_count_rows", "_count_chunks"):
                monkeypatch.setattr(gibbs, memo, functools.lru_cache(maxsize=1)(getattr(gibbs, memo).__wrapped__))
            fills.clear()
            run()
            assert gibbs._count_rows.cache_info().misses == 1
            chunks = [call for call in fills if call[1:] != (0, 16)]
            assert len(fills) - len(chunks) == 1  # the array
            assert chunks and all(start >= 16 and start % 4 == 0 and size == 4 for _, start, size in chunks)
            # Two threads that miss one chunk at once may both fill it.
            assert len(set(chunks)) == len(chunks)

    def test_threads_that_share_the_chunk_memo_draw_the_process_labels(self, monkeypatch):
        """Four workers on the thread backend, switched every microsecond on
        two cores, whose clusters pass a cap of 16, share one memo of chunks
        of 4 counts and draw the labels of four worker processes."""
        import sys

        from dpgibbs import gibbs

        monkeypatch.setattr(gibbs, "_COUNT_CAP", 16)
        monkeypatch.setattr(gibbs, "_CHUNK", 4)
        for memo in ("_count_rows", "_count_chunks"):
            monkeypatch.setattr(gibbs, memo, functools.lru_cache(maxsize=1)(getattr(gibbs, memo).__wrapped__))
        data, _ = two_blob_data(240, seed=23)
        cfg = config(data, alpha=2.0, iterations=4, workers=4, seed=6)
        expected, _ = run_discgs(data, cfg, channel_factory=process_channels)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            labels, _ = run_discgs(data, cfg, channel_factory=thread_channels)
        finally:
            sys.setswitchinterval(interval)
        p = cfg.hyper.prior
        assert gibbs._count_chunks(p.kappa, p.nu, p.d, cfg.hyper.alpha).cache_info().currsize > 1
        assert np.array_equal(labels, expected)

    def test_a_run_builds_its_points_once(self, monkeypatch):
        """run_cgs, and each worker on the thread backend, hand every sweep
        one array of the points as rows [1, x], built with the run's state."""
        from dpgibbs import gibbs, worker

        handed = {}  # id of each state swept -> the points handed with it

        def watched(sweep):
            def sweep_once(state, points, rng):
                handed.setdefault(id(state), []).append(points)
                return sweep(state, points, rng)
            return sweep_once

        for module in (gibbs, worker):
            monkeypatch.setattr(module, "cgs_sweep", watched(module.cgs_sweep))
        data, _ = two_blob_data(40, seed=19)
        cfg = config(data, alpha=2.0, iterations=3, workers=2, seed=4)
        runs = (
            (lambda: run_cgs(data, cfg.hyper, 3, seed=4), [40]),
            (lambda: run_discgs(data, cfg, channel_factory=thread_channels), [20, 20]),
        )
        for run, sizes in runs:
            handed.clear()
            run()
            assert sorted(len(points[0]) for points in handed.values()) == sizes
            for points in handed.values():
                assert len(points) == 3 and all(p is points[0] for p in points)
                assert points[0].shape[1] == 3 and (points[0][:, 0] == 1.0).all()


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
        master_end.close()  # a failed worker waits for EOF before it closes its end
        th.join(timeout=5.0)
        assert not th.is_alive()
        worker_end.close()

    @pytest.mark.parametrize("backend, workers", [("thread", 2), ("process", 8)])
    def test_setup_failure_reaches_the_coordinator_before_its_next_send(
        self, monkeypatch, backend, workers
    ):
        """A worker whose setup fails keeps its end open after sending the
        failure, so the coordinator's next send does not break the pipe and
        the worker's own error surfaces.  On the thread backend the factory
        returns only once worker 0's loop has returned (or after 1 s), so a
        worker that closed its end at once would always break that send."""
        from dpgibbs import runtime
        from dpgibbs.errors import NumericalDegeneracyError
        from dpgibbs.worker import WorkerState

        setup = WorkerState.single_cluster

        def failing_setup(cls, worker_id, data, hyper):
            if worker_id == 0:
                raise NumericalDegeneracyError("forced setup failure")
            return setup(worker_id, data, hyper)

        monkeypatch.setattr(WorkerState, "single_cluster", classmethod(failing_setup))
        factory = process_channels
        if backend == "thread":
            returned = threading.Event()
            loop = runtime.worker_loop

            def worker_loop_0_signals(channel, worker_id, *args):
                try:
                    loop(channel, worker_id, *args)
                finally:
                    if worker_id == 0:
                        returned.set()

            def factory(*args):
                channels, shutdown = thread_channels(*args)
                returned.wait(timeout=1.0)
                return channels, shutdown

            monkeypatch.setattr(runtime, "worker_loop", worker_loop_0_signals)
        data, _ = two_blob_data(20, seed=18)
        cfg = config(data, iterations=2, workers=workers, seed=1)
        with pytest.raises(NumericalDegeneracyError, match="forced setup failure") as info:
            run_discgs(data, cfg, channel_factory=factory)
        assert info.value.context == {"worker_id": 0, "iteration": 1}
        assert not multiprocessing.active_children()
