"""End-to-end tests of the command-line surface and its file outputs."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dpgibbs
from dpgibbs.cli import main
from dpgibbs.datasets import read_dataset, read_labels, write_dataset, write_labels


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def blob_files(tmp_path, n=60, seed=0, separation=9.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    data = np.vstack(
        [
            rng.standard_normal((half, 2)) - [separation, 0.0],
            rng.standard_normal((n - half, 2)) + [separation, 0.0],
        ]
    )
    truth = np.repeat([0, 1], [half, n - half])
    data_path = tmp_path / "data.csv"
    truth_path = tmp_path / "truth.csv"
    write_dataset(data_path, data)
    write_labels(truth_path, truth)
    return str(data_path), str(truth_path)


def out_dir(tmp_path, name):
    path = tmp_path / name
    path.mkdir()
    return str(path)


class TestGenerate:
    def test_preset_writes_dataset_and_labels(self, tmp_path, capsys):
        out = out_dir(tmp_path, "gen")
        code, _, err = run_cli(
            ["generate", "--preset", "synth-20k", "--seed", "7", "--out", out], capsys
        )
        assert code == 0, err
        data_lines = (tmp_path / "gen" / "data.csv").read_text().splitlines()
        assert len(data_lines) == 20_001
        assert data_lines[0] == "x0,x1"
        labels = read_labels(tmp_path / "gen" / "labels.csv")
        assert labels.shape == (20_000,)
        manifest = json.loads((tmp_path / "gen" / "manifest.json").read_text())
        assert manifest["preset"] == "synth-20k"
        assert manifest["seed"] == 7
        assert manifest["version"]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = out_dir(tmp_path, "a"), out_dir(tmp_path, "b")
        spec = {"n": 40, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = ["generate", "--spec", str(spec_path), "--seed", "3"]
        assert run_cli(argv + ["--out", a], capsys)[0] == 0
        assert run_cli(argv + ["--out", b], capsys)[0] == 0
        for name in ("data.csv", "labels.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bad_preset_lists_presets_on_stderr(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["generate", "--preset", "nope", "--out", out_dir(tmp_path, "x")], capsys
        )
        assert code == 2
        assert err.startswith("usage-error:")
        assert "synth-20k" in err and "synth-1m" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(["generate", "--preset", "synth-20k", "--frobnicate"], capsys)
        assert code == 2
        assert err.startswith("usage-error:")


class TestFit:
    def test_separated_fixture_reaches_perfect_ari(self, tmp_path, capsys):
        data_path, truth_path = blob_files(tmp_path, n=200, seed=1, separation=10.0)
        out = out_dir(tmp_path, "fit")
        code, _, err = run_cli(
            [
                "fit", "--data", data_path, "--truth", truth_path,
                "--iters", "50", "--seed", "2", "--out", out,
            ],
            capsys,
        )
        assert code == 0, err
        metrics = json.loads((tmp_path / "fit" / "metrics.json").read_text())
        assert metrics["ari"] == 1.0
        assert metrics["num_clusters_true"] == 2
        trace = json.loads((tmp_path / "fit" / "trace.json").read_text())
        assert isinstance(trace, list) and len(trace) == 50
        labels = read_labels(tmp_path / "fit" / "labels.csv")
        assert labels.shape == (200,)
        manifest = json.loads((tmp_path / "fit" / "manifest.json").read_text())
        assert manifest["workers"] == 1
        assert manifest["prior"]["kappa"] == 1.0

    def test_zero_iters_is_usage_error(self, tmp_path, capsys):
        data_path, _ = blob_files(tmp_path)
        code, _, err = run_cli(
            ["fit", "--data", data_path, "--iters", "0", "--out", out_dir(tmp_path, "z")],
            capsys,
        )
        assert code == 2
        assert err.startswith("usage-error:")

    def test_infinite_alpha_is_usage_error(self, tmp_path, capsys):
        data_path, _ = blob_files(tmp_path)
        code, _, err = run_cli(
            ["fit", "--data", data_path, "--alpha", "inf", "--out", out_dir(tmp_path, "a")],
            capsys,
        )
        assert code == 2
        assert err.startswith("usage-error:") and len(err.splitlines()) == 1

    def test_metrics_without_truth_lack_score_keys(self, tmp_path, capsys):
        data_path, _ = blob_files(tmp_path)
        out = out_dir(tmp_path, "nt")
        code, _, _ = run_cli(
            ["fit", "--data", data_path, "--iters", "5", "--seed", "1", "--out", out], capsys
        )
        assert code == 0
        metrics = json.loads((tmp_path / "nt" / "metrics.json").read_text())
        assert "num_clusters_pred" in metrics
        for key in ("ari", "nmi", "acc"):
            assert key not in metrics

    def test_rerun_identical_apart_from_timing(self, tmp_path, capsys):
        data_path, truth_path = blob_files(tmp_path, seed=3)
        a, b = out_dir(tmp_path, "ra"), out_dir(tmp_path, "rb")
        argv = ["fit", "--data", data_path, "--truth", truth_path, "--iters", "8", "--seed", "4"]
        assert run_cli(argv + ["--out", a], capsys)[0] == 0
        assert run_cli(argv + ["--out", b], capsys)[0] == 0
        for name in ("labels.csv", "metrics.json", "manifest.json"):
            assert (tmp_path / "ra" / name).read_bytes() == (tmp_path / "rb" / name).read_bytes()
        trace_a = json.loads((tmp_path / "ra" / "trace.json").read_text())
        trace_b = json.loads((tmp_path / "rb" / "trace.json").read_text())
        for rec_a, rec_b in zip(trace_a, trace_b):
            rec_a.pop("seconds"), rec_b.pop("seconds")
        assert trace_a == trace_b

    def test_missing_data_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["fit", "--data", str(tmp_path / "absent.csv"), "--out", out_dir(tmp_path, "m")],
            capsys,
        )
        assert code == 3
        assert err.startswith("io-error:")
        assert len(err.strip().splitlines()) == 1

    def test_malformed_data_is_io_error_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0\n1.0\nzap\n")
        code, _, err = run_cli(
            ["fit", "--data", str(bad), "--out", out_dir(tmp_path, "mb")], capsys
        )
        assert code == 3
        assert err.startswith("io-error:")
        assert "line 3" in err

    def test_label_column_outside_int64_is_io_error_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,label\n1.0,0\n2.0,-99999999999999999999\n")
        code, _, err = run_cli(
            ["fit", "--data", str(bad), "--out", out_dir(tmp_path, "lb")], capsys
        )
        assert code == 3
        assert err.startswith("io-error:")
        assert "line 3" in err

    def test_truth_length_mismatch_is_usage_error(self, tmp_path, capsys, monkeypatch):
        """Every command that fits against a truth file refuses a short one
        before it sweeps or spawns a worker."""
        from dpgibbs import gibbs, runtime

        started = []
        monkeypatch.setattr(gibbs, "cgs_sweep", lambda *args: started.append("sweep"))
        monkeypatch.setattr(runtime, "process_channels", lambda *args: started.append("spawn"))
        data_path, _ = blob_files(tmp_path)
        short = tmp_path / "short.csv"
        write_labels(short, [0, 1, 0])
        commands = (
            ["fit"],
            ["fit-distributed", "--workers", "2"],
            ["bench", "--force", "--workers-list", "2"],
        )
        for command in commands:
            code, _, err = run_cli(
                command + [
                    "--data", data_path, "--truth", str(short),
                    "--iters", "2", "--out", str(tmp_path / command[0]),
                ],
                capsys,
            )
            assert code == 2
            assert err.startswith(
                "usage-error: ground truth length does not match data: 3 labels for 60 points"
            )
        assert started == []


class TestFitDistributed:
    def test_single_worker_smoke(self, tmp_path, capsys):
        data_path, _ = blob_files(tmp_path, n=30)
        out = out_dir(tmp_path, "d1")
        code, _, err = run_cli(
            [
                "fit-distributed", "--data", data_path, "--workers", "1",
                "--iters", "5", "--seed", "1", "--out", out,
            ],
            capsys,
        )
        assert code == 0, err
        labels = read_labels(tmp_path / "d1" / "labels.csv")
        assert labels.shape == (30,)
        uniq = np.unique(labels)
        assert np.array_equal(uniq, np.arange(uniq.size))

    def test_recovers_separated_fixture(self, tmp_path, capsys):
        data_path, truth_path = blob_files(tmp_path, n=60, seed=5)
        out = out_dir(tmp_path, "d2")
        code, _, err = run_cli(
            [
                "fit-distributed", "--data", data_path, "--truth", truth_path,
                "--workers", "3", "--iters", "25", "--seed", "6", "--out", out,
            ],
            capsys,
        )
        assert code == 0, err
        metrics = json.loads((tmp_path / "d2" / "metrics.json").read_text())
        assert metrics["ari"] >= 0.9
        manifest = json.loads((tmp_path / "d2" / "manifest.json").read_text())
        assert manifest["workers"] == 3

    def test_more_workers_than_rows_is_usage_error(self, tmp_path, capsys):
        small = tmp_path / "three.csv"
        write_dataset(small, np.array([[0.0], [1.0], [2.0]]))
        code, _, err = run_cli(
            [
                "fit-distributed", "--data", str(small), "--workers", "10",
                "--iters", "2", "--out", out_dir(tmp_path, "w"),
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("usage-error:")
        assert "workers" in err

    def test_rerun_identical_labels(self, tmp_path, capsys):
        data_path, _ = blob_files(tmp_path, seed=7)
        a, b = out_dir(tmp_path, "da"), out_dir(tmp_path, "db")
        argv = [
            "fit-distributed", "--data", data_path, "--workers", "4",
            "--iters", "6", "--seed", "8",
        ]
        assert run_cli(argv + ["--out", a], capsys)[0] == 0
        assert run_cli(argv + ["--out", b], capsys)[0] == 0
        assert (tmp_path / "da" / "labels.csv").read_bytes() == (
            tmp_path / "db" / "labels.csv"
        ).read_bytes()

    def test_matches_the_library_recipe(self, tmp_path, capsys):
        """The CLI fits the model the README's library example builds."""
        from dpgibbs.niw import ModelHyperParams, default_prior
        from dpgibbs.runtime import RunConfig, run_discgs, thread_channels

        data_path, truth_path = blob_files(tmp_path, n=90, seed=3, separation=4.0)
        code, _, err = run_cli(
            [
                "fit-distributed", "--data", data_path, "--truth", truth_path,
                "--alpha", "5", "--workers", "3", "--iters", "8", "--seed", "4",
                "--out", out_dir(tmp_path, "cli"),
            ],
            capsys,
        )
        assert code == 0, err
        data, truth = read_dataset(data_path).data, read_labels(truth_path)
        config = RunConfig(
            ModelHyperParams(alpha=5.0, prior=default_prior(data)), iterations=8, workers=3, seed=4
        )
        labels, trace = run_discgs(data, config, ground_truth=truth, channel_factory=thread_channels)
        write_labels(tmp_path / "recipe.csv", labels)
        assert (tmp_path / "recipe.csv").read_bytes() == (tmp_path / "cli" / "labels.csv").read_bytes()
        records = json.loads((tmp_path / "cli" / "trace.json").read_text())
        assert [r["log_joint"] for r in records] == trace.log_joints.tolist()
        assert [r["num_clusters"] for r in records] == trace.num_clusters.tolist()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_worker_numerical_error_is_exit_4(self, tmp_path, capsys, monkeypatch, backend):
        from dpgibbs import runtime
        from dpgibbs.errors import NumericalDegeneracyError

        def degenerate_sweep(w, rng):
            raise NumericalDegeneracyError("forced", min_eigenvalue=-1.0)

        monkeypatch.setattr(runtime, "worker_sweep", degenerate_sweep)
        if backend == "thread":
            monkeypatch.setattr(runtime, "process_channels", runtime.thread_channels)
        data_path, _ = blob_files(tmp_path, n=20)
        code, _, err = run_cli(
            [
                "fit-distributed", "--data", data_path, "--workers", "2",
                "--iters", "2", "--out", out_dir(tmp_path, "fail"),
            ],
            capsys,
        )
        assert code == 4
        assert err.startswith("numerical-error: forced min eigenvalue estimate -1.000e+00")
        assert "iteration=1" in err and "worker_id=0" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_degenerate_downdate_in_a_worker_sweep_is_exit_4(
        self, tmp_path, capsys, monkeypatch, backend
    ):
        from dpgibbs import gibbs, runtime

        step = gibbs._inverse

        def inflated(chol, signature):
            # The inverse of a factor shrunk 1e3-fold, its log det untouched,
            # inflates the whitening map, which makes 1 - kappa / (kappa - 1) q negative.
            return step(chol, signature=signature) * 1e3

        monkeypatch.setattr(gibbs, "_inverse", inflated)
        if backend == "thread":
            monkeypatch.setattr(runtime, "process_channels", runtime.thread_channels)
        data_path, _ = blob_files(tmp_path, n=20)
        code, _, err = run_cli(
            [
                "fit-distributed", "--data", data_path, "--workers", "2",
                "--iters", "2", "--out", out_dir(tmp_path, "fail"),
            ],
            capsys,
        )
        assert code == 4
        assert err.startswith("numerical-error: ")
        for field in ("iteration=1", "worker_id=0", "point_index=0"):
            assert field in err
        assert len(err.splitlines()) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("where", ["worker move", "master batch"])
    def test_non_positive_definite_scale_is_exit_4(
        self, tmp_path, capsys, monkeypatch, backend, where
    ):
        """Raw sums whose outer sum is too small for their sum fail to factor,
        in a worker's table or in the master's candidate scales."""
        from dataclasses import replace

        from _oracles import unpack
        from dpgibbs import runtime
        from dpgibbs.gibbs import _ClusterCache, pack_stats

        if where == "worker move":
            move = _ClusterCache.move

            def bad_move(cache, label, choice, row):
                moments = 1e3 * row.reshape(cache.d + 1, cache.d + 1)  # scales both copies of sum x
                moments[0, 0], moments[1:, 1:] = row[0], 0.0
                return move(cache, label, choice, moments.ravel())

            monkeypatch.setattr(_ClusterCache, "move", bad_move)
            fields = ("iteration=1", "worker_id=", "point_index=", "cluster_label=")
        else:
            master_sweep = runtime.master_sweep

            def bad_batch(summaries, hyper, rng):
                first = summaries[0]
                d = hyper.prior.d
                stats = first.stats.copy()
                counts, sums, _ = unpack(stats, d)
                stats[0] = pack_stats(counts[0], sums[0] + 1e3, np.zeros((d, d)))  # symmetric
                summaries = [replace(first, stats=stats)] + summaries[1:]
                return master_sweep(summaries, hyper, rng)

            monkeypatch.setattr(runtime, "master_sweep", bad_batch)
            fields = ("iteration=1", "worker_id=0", "local_label=", "min eigenvalue estimate -")
        if backend == "thread":
            monkeypatch.setattr(runtime, "process_channels", runtime.thread_channels)
        data_path, _ = blob_files(tmp_path, n=20)
        code, _, err = run_cli(
            [
                "fit-distributed", "--data", data_path, "--workers", "2",
                "--iters", "2", "--out", out_dir(tmp_path, "fail"),
            ],
            capsys,
        )
        assert code == 4
        assert err.startswith("numerical-error: ") and "not positive definite" in err
        for field in fields:
            assert field in err
        assert len(err.splitlines()) == 1

    def test_worker_death_is_exit_3(self, tmp_path, capsys, monkeypatch):
        from dpgibbs import runtime

        def dying_sweep(w, rng):
            os._exit(9)

        monkeypatch.setattr(runtime, "worker_sweep", dying_sweep)
        data_path, _ = blob_files(tmp_path, n=20)
        code, _, err = run_cli(
            [
                "fit-distributed", "--data", data_path, "--workers", "2",
                "--iters", "2", "--out", out_dir(tmp_path, "dead"),
            ],
            capsys,
        )
        assert code == 3
        assert err == "io-error: worker 0 exited at iteration 1 without replying\n"

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize(
        "error, code, prefix",
        [(OSError("forced"), 3, "io-error:"), (ValueError("forced"), 2, "usage-error:")],
        ids=["oserror", "valueerror"],
    )
    def test_worker_error_exits_as_in_fit(
        self, tmp_path, capsys, monkeypatch, backend, error, code, prefix
    ):
        from dpgibbs import runtime

        def failing_sweep(w, rng):
            raise error

        monkeypatch.setattr(runtime, "worker_sweep", failing_sweep)
        if backend == "thread":
            monkeypatch.setattr(runtime, "process_channels", runtime.thread_channels)
        data_path, _ = blob_files(tmp_path, n=20)
        got, _, err = run_cli(
            [
                "fit-distributed", "--data", data_path, "--workers", "2",
                "--iters", "2", "--out", out_dir(tmp_path, "fail"),
            ],
            capsys,
        )
        assert got == code
        assert err == "%s forced\n" % prefix


class TestEvaluate:
    def test_hand_checked_ari(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred.csv", tmp_path / "true.csv"
        write_labels(pred, [0, 0, 1, 1])
        write_labels(truth, [0, 1, 0, 1])
        out = out_dir(tmp_path, "ev")
        code, _, err = run_cli(
            ["evaluate", "--pred", str(pred), "--truth", str(truth), "--out", out], capsys
        )
        assert code == 0, err
        metrics = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert metrics["ari"] == -0.5
        assert metrics["nmi"] == 0.0
        assert metrics["num_clusters_pred"] == 2

    def test_label_outside_int64_is_io_error_with_line(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred.csv", tmp_path / "true.csv"
        write_labels(pred, [0, 0, 1])
        truth.write_text("index,label\n0,0\n1,99999999999999999999\n2,1\n")
        code, _, err = run_cli(
            ["evaluate", "--pred", str(pred), "--truth", str(truth), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert err.startswith("io-error:")
        assert "line 3" in err
        assert len(err.strip().splitlines()) == 1

    def test_length_mismatch_is_usage_error(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred.csv", tmp_path / "true.csv"
        write_labels(pred, [0, 0, 1])
        write_labels(truth, [0, 1])
        code, _, err = run_cli(
            ["evaluate", "--pred", str(pred), "--truth", str(truth), "--out", out_dir(tmp_path, "e2")],
            capsys,
        )
        assert code == 2
        assert err.startswith("usage-error:")


class TestBench:
    def test_timing_table_rows(self, tmp_path, capsys):
        data_path, _ = blob_files(tmp_path, n=40)
        out = out_dir(tmp_path, "bn")
        code, _, err = run_cli(
            [
                "bench", "--data", data_path, "--workers-list", "1,2",
                "--iters", "3", "--seed", "1", "--include-central", "--out", out,
            ],
            capsys,
        )
        assert code == 0, err
        rows = json.loads((tmp_path / "bn" / "timings.json").read_text())
        assert [r["mode"] for r in rows] == ["central", "distributed", "distributed"]
        assert [r["workers"] for r in rows] == [1, 1, 2]
        for row in rows:
            assert row["total_seconds"] > 0
            assert row["per_iteration_seconds"] == row["total_seconds"] / 3
        csv_lines = (tmp_path / "bn" / "timings.csv").read_text().splitlines()
        assert csv_lines[0] == "mode,workers,iterations,total_seconds,per_iteration_seconds"
        assert len(csv_lines) == 4

    def test_truth_without_force_refused(self, tmp_path, capsys):
        data_path, truth_path = blob_files(tmp_path, n=30)
        code, _, err = run_cli(
            [
                "bench", "--data", data_path, "--workers-list", "2",
                "--truth", truth_path, "--iters", "2", "--out", out_dir(tmp_path, "bf"),
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("usage-error:")
        assert "--force" in err

    def test_truth_with_force_writes_traces(self, tmp_path, capsys):
        data_path, truth_path = blob_files(tmp_path, n=30)
        out = out_dir(tmp_path, "bt")
        code, _, err = run_cli(
            [
                "bench", "--data", data_path, "--workers-list", "2", "--truth", truth_path,
                "--force", "--iters", "2", "--include-central", "--out", out,
            ],
            capsys,
        )
        assert code == 0, err
        assert (tmp_path / "bt" / "trace_w2.json").exists()
        trace = json.loads((tmp_path / "bt" / "trace_central.json").read_text())
        assert trace[0]["ari"] is not None

    def test_empty_workers_list_is_usage_error(self, tmp_path, capsys):
        data_path, _ = blob_files(tmp_path, n=20)
        for bad in ("", " , "):
            code, _, err = run_cli(
                [
                    "bench", "--data", data_path, "--workers-list", bad,
                    "--iters", "2", "--out", out_dir(tmp_path, "be" + repr(len(bad))),
                ],
                capsys,
            )
            assert code == 2
            assert err.startswith("usage-error:")

    def test_zero_worker_count_is_usage_error(self, tmp_path, capsys):
        data_path, _ = blob_files(tmp_path, n=20)
        code, _, err = run_cli(
            [
                "bench", "--data", data_path, "--workers-list", "2,0",
                "--iters", "2", "--out", out_dir(tmp_path, "bz"),
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("usage-error:")


def child_env():
    """Environment in which a child interpreter imports the package under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpgibbs.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


# Runs each argv given as JSON through the CLI, then prints the names of the loaded modules.
FITS_THEN_LIST_MODULES = """
import json, sys
import dpgibbs.cli
for argv in json.loads(sys.argv[1]):
    if dpgibbs.cli.main(argv) != 0:
        sys.exit(1)
print(json.dumps(sorted(sys.modules)))
"""


class TestSciPyFreeFit:
    @pytest.mark.parametrize("with_truth", [False, True])
    def test_scipy_loads_only_to_score_against_truth(self, tmp_path, with_truth):
        data_path, truth_path = blob_files(tmp_path)
        truth = ["--truth", truth_path] if with_truth else []
        fits = [
            ["fit", "--data", data_path, "--iters", "2", "--out", str(tmp_path / "c")] + truth,
            [
                "fit-distributed", "--data", data_path, "--iters", "2", "--workers", "2",
                "--out", str(tmp_path / "d"),
            ] + truth,
        ]
        result = subprocess.run(
            [sys.executable, "-c", FITS_THEN_LIST_MODULES, json.dumps(fits)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        modules = json.loads(result.stdout)
        scipy_modules = [m for m in modules if m.split(".")[0] == "scipy"]
        for out in ("c", "d"):
            metrics = json.loads((tmp_path / out / "metrics.json").read_text())
            assert ("acc" in metrics) == with_truth
        if with_truth:
            assert "scipy.optimize" in scipy_modules
        else:
            assert scipy_modules == []
            # np.unique of values alone imports numpy.ma; np.loadtxt given a
            # path opens it through numpy.lib._datasource, which imports gzip.
            assert "numpy.ma" not in modules
            assert "gzip" not in modules


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "dpgibbs.cli", "--version"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert result.stdout.strip()

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 2
        assert err.startswith("usage-error:")
