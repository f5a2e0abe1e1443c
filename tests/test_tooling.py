"""Smoke test of the benchmark's timing hooks and inputs against the program.

perfbench/fitproc.py wraps functions and tells messages apart by names it
looks up in the package (runtime.master_sweep, runtime.apply_global_labels,
runtime.ApplyCmd, worker.WorkerSummary, ...).  Running it here, as the
benchmark runs it, makes a rename in the program fail a test rather than a
benchmark run.  Likewise the benchmark's CSVs must take the reader's bulk
parse: a change that sent them to the row parser would show only as slower
setup in a benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dpgibbs import datasets
from dpgibbs.datasets import write_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FITPROC = os.path.join(ROOT, "perfbench", "fitproc.py")
ITERS = 3
POINTS = 120
EXTRA_ARGS = {"fit": [], "fit-distributed": ["--workers", "2"]}


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    rng = np.random.default_rng(0)
    data = np.vstack([
        rng.standard_normal((POINTS // 2, 2)) - [6.0, 0.0],
        rng.standard_normal((POINTS // 2, 2)) + [6.0, 0.0],
    ])
    path = tmp_path_factory.mktemp("tooling") / "data.csv"
    write_dataset(path, data)
    return str(path)


def cli_args(tmp_path, data_path, command, mode):
    """The CLI arguments of a run of ``command`` that writes to tmp_path/mode."""
    args = [command, "--data", data_path, "--iters", str(ITERS), "--seed", "1"]
    return args + ["--out", str(tmp_path / mode)] + EXTRA_ARGS[command]


def run_fitproc(tmp_path, data_path, command, mode):
    """One fitproc.py run of ``command``; returns its report and spans dir."""
    report = tmp_path / ("%s-report.json" % mode)
    spans = tmp_path / ("%s-spans" % mode)
    cmd = [sys.executable, FITPROC, "--mode", mode, "--report", str(report)]
    if mode == "trace":
        spans.mkdir()
        cmd += ["--spans", str(spans), "--fit-id", command]
    cmd += ["--"] + cli_args(tmp_path, data_path, command, mode)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text()), spans


def run_outputs(out_dir):
    """A run's labels.csv, and its trace.json without the seconds."""
    trace = json.loads((out_dir / "trace.json").read_text())
    for record in trace:
        del record["seconds"]
    return (out_dir / "labels.csv").read_text(), trace


def spans_named(path, name):
    return [s for s in json.loads(path.read_text()) if s["name"] == name]


def assert_sweeps_count_their_draws(path):
    """Every gibbs.sweep span in the file counted the block draws its sweep
    made through the module's sample_log_weights, each over K >= 1 clusters
    on the weights' first axis."""
    sweeps = spans_named(path, "gibbs.sweep")
    assert sweeps
    for span in sweeps:
        assert span["attrs"]["sample_calls"] >= 1
        assert span["attrs"]["sample_k_sum"] >= span["attrs"]["sample_calls"]


@pytest.mark.parametrize("command", sorted(EXTRA_ARGS))
def test_trace_then_plain_run(tmp_path, data_path, command):
    report, spans = run_fitproc(tmp_path, data_path, command, "trace")
    assert report["first_sweep"] is not None and report["sampling_end"] is not None
    coordinator = spans / "coordinator.json"
    if command == "fit":
        assert len(spans_named(coordinator, "gibbs.sweep")) == ITERS
        assert_sweeps_count_their_draws(coordinator)
        assert sorted(os.listdir(spans)) == ["coordinator.json"]
    else:
        iterations = spans_named(coordinator, "runtime.iteration")
        assert [s["attrs"]["iteration"] for s in iterations] == list(range(1, ITERS + 1))
        for span in iterations:
            assert span["attrs"]["label_map_bytes"] > 0
            assert span["attrs"]["summary_bytes"] > 0
        masters = spans_named(coordinator, "master.sweep")
        assert len(masters) == ITERS
        assert all(s["attrs"]["batches"] >= s["attrs"]["clusters"] >= 1 for s in masters)
        for j in range(2):
            worker = spans / ("worker-%d.json" % j)
            assert len(spans_named(worker, "worker.apply")) == ITERS
            assert_sweeps_count_their_draws(worker)
            assert all(s["attrs"]["clusters"] >= 1 for s in spans_named(worker, "worker.summarize"))

    report, _ = run_fitproc(tmp_path, data_path, command, "plain")
    assert report["first_sweep"] is not None and report["sampling_end"] is not None

    # The hooks change no output: the traced, plain and direct CLI runs
    # write the same labels and, but for the seconds, the same trace.
    path = [os.path.join(ROOT, "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    direct = [sys.executable, "-m", "dpgibbs.cli"] + cli_args(tmp_path, data_path, command, "direct")
    proc = subprocess.run(direct, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = run_outputs(tmp_path / "direct")
    assert len(expected[0].splitlines()) == 1 + POINTS
    assert len(expected[1]) == ITERS
    assert run_outputs(tmp_path / "trace") == expected
    assert run_outputs(tmp_path / "plain") == expected


def load_workloads():
    """perfbench/workloads.py as a module, without putting perfbench on sys.path."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("dim", [2, 8])
def test_benchmark_csv_takes_the_bulk_parse(tmp_path, monkeypatch, dim):
    data = np.random.default_rng(dim).standard_normal((40, dim)) * 1e3
    data[0, :2] = [-0.0, 5e-324]
    data[1, :2] = [1.7e308, -1.7e308]
    path = tmp_path / "data.csv"
    load_workloads().write_data(path, data)

    def no_row_parser(*args):
        raise AssertionError("the benchmark's CSV fell back to the row parser")

    monkeypatch.setattr(datasets, "_row_columns", no_row_parser)
    loaded = datasets.read_dataset(path)
    assert loaded.data.tobytes() == data.tobytes()
    assert loaded.labels is None
