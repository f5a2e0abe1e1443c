"""Tests for synthetic generation and dataset file plumbing."""

import dataclasses
import json

import numpy as np
import pytest
from scipy import stats

from dpgibbs.datasets import (
    GmmComponent,
    GmmSpec,
    generate_gmm,
    preset_names,
    preset_spec,
    read_dataset,
    read_labels,
    spec_from_json,
    write_dataset,
    write_labels,
    write_metrics,
    write_trace,
)
from dpgibbs.errors import DatasetError
from dpgibbs.trace import IterationRecord, RunTrace


def two_component_spec(n=100, seed=0, w0=0.5):
    return GmmSpec(
        components=(
            GmmComponent(weight=w0, mean=np.array([-5.0, 0.0]), cov=np.eye(2)),
            GmmComponent(weight=1.0 - w0, mean=np.array([5.0, 0.0]), cov=np.eye(2)),
        ),
        n=n,
        seed=seed,
    )


class TestGmmSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GmmSpec(
                components=(
                    GmmComponent(weight=0.6, mean=np.zeros(1), cov=np.eye(1)),
                    GmmComponent(weight=0.6, mean=np.ones(1), cov=np.eye(1)),
                ),
                n=10,
            )

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            GmmComponent(weight=0.0, mean=np.zeros(1), cov=np.eye(1))

    def test_non_pd_covariance_rejected(self):
        from dpgibbs.errors import NumericalDegeneracyError

        with pytest.raises(NumericalDegeneracyError):
            GmmComponent(weight=1.0, mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GmmSpec(
                components=(
                    GmmComponent(weight=0.5, mean=np.zeros(1), cov=np.eye(1)),
                    GmmComponent(weight=0.5, mean=np.zeros(2), cov=np.eye(2)),
                ),
                n=10,
            )


class TestGenerateGmm:
    def test_vanishing_covariance_pins_points_to_mean(self):
        mu = np.array([2.0, -3.0])
        spec = GmmSpec(
            components=(GmmComponent(weight=1.0, mean=mu, cov=1e-12 * np.eye(2)),),
            n=500,
            seed=1,
        )
        data, labels = generate_gmm(spec)
        assert np.all(np.abs(data - mu) < 1e-5)
        assert np.all(labels == 0)

    def test_component_counts_within_binomial_bounds(self):
        n = 100_000
        data, labels = generate_gmm(two_component_spec(n=n, seed=2))
        count0 = int(np.sum(labels == 0))
        sigma = np.sqrt(n * 0.25)
        assert abs(count0 - n / 2) <= 3 * sigma

    def test_label_frequencies_chi_square(self):
        weights = [0.4, 0.3, 0.2, 0.1]
        spec = GmmSpec(
            components=tuple(
                GmmComponent(weight=w, mean=np.array([4.0 * j]), cov=np.eye(1))
                for j, w in enumerate(weights)
            ),
            n=100_000,
            seed=3,
        )
        _, labels = generate_gmm(spec)
        counts = np.bincount(labels, minlength=4)
        expected = spec.n * np.asarray(weights)
        result = stats.chisquare(counts, expected)
        assert result.pvalue > 1e-3

    def test_fixed_seed_reproducible(self):
        a_data, a_labels = generate_gmm(two_component_spec(n=300, seed=4))
        b_data, b_labels = generate_gmm(two_component_spec(n=300, seed=4))
        assert np.array_equal(a_data, b_data)
        assert np.array_equal(a_labels, b_labels)

    def test_points_follow_their_component(self):
        data, labels = generate_gmm(two_component_spec(n=2000, seed=5))
        assert np.all(data[labels == 0, 0] < 0)
        assert np.all(data[labels == 1, 0] > 0)


class TestPresets:
    def test_known_sizes(self):
        assert preset_spec("synth-20k").n == 20_000
        assert preset_spec("synth-100k").n == 100_000
        assert preset_spec("synth-1m").n == 1_000_000

    def test_shape_of_presets(self):
        spec = preset_spec("synth-20k", seed=9)
        assert len(spec.components) == 10
        for comp in spec.components:
            assert comp.weight == 0.1
            assert comp.mean.shape == (2,)
            assert np.all(np.abs(comp.mean) <= 20.0)
            assert np.array_equal(comp.cov, np.eye(2))

    def test_deterministic_per_seed(self):
        a = preset_spec("synth-40k", seed=10)
        b = preset_spec("synth-40k", seed=10)
        c = preset_spec("synth-40k", seed=11)
        assert all(np.array_equal(x.mean, y.mean) for x, y in zip(a.components, b.components))
        assert any(not np.array_equal(x.mean, y.mean) for x, y in zip(a.components, c.components))

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(ValueError, match="synth-20k"):
            preset_spec("nope")

    def test_preset_names_sorted(self):
        names = preset_names()
        assert names == sorted(names)
        assert "synth-1m" in names

    def test_small_draw_from_preset(self):
        spec = dataclasses.replace(preset_spec("synth-20k", seed=12), n=200)
        data, labels = generate_gmm(spec)
        assert data.shape == (200, 2)
        assert labels.min() >= 0 and labels.max() < 10


class TestDatasetFiles:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "data.csv"
        rng = np.random.default_rng(13)
        data = rng.standard_normal((17, 3)) * np.array([1e-8, 1.0, 1e8])
        write_dataset(path, data)
        loaded = read_dataset(path)
        assert np.array_equal(loaded.data, data)
        assert loaded.labels is None

    def test_two_by_two_round_trip(self, tmp_path):
        path = tmp_path / "tiny.csv"
        data = np.array([[1.5, -2.25], [0.1, 3.0]])
        write_dataset(path, data)
        assert np.array_equal(read_dataset(path).data, data)

    def test_label_column_split_out(self, tmp_path):
        path = tmp_path / "with_labels.csv"
        data = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        write_dataset(path, data, labels=[0, 1, 1])
        loaded = read_dataset(path)
        assert np.array_equal(loaded.data, data)
        assert np.array_equal(loaded.labels, [0, 1, 1])

    def test_header_only_errors(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x0,x1\n")
        with pytest.raises(DatasetError, match="no rows"):
            read_dataset(path)

    def test_non_numeric_cell_cites_line_seven(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = ["x0,x1"] + ["%d.0,%d.5" % (i, i) for i in range(5)] + ["oops,0.5"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 7") as err:
            read_dataset(path)
        assert err.value.line == 7

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x0\n1.0\nnan\n")
        with pytest.raises(DatasetError, match="line 3"):
            read_dataset(path)
        path.write_text("x0\ninf\n")
        with pytest.raises(DatasetError, match="line 2"):
            read_dataset(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x0,x1\n1.0,2.0\n3.0\n")
        with pytest.raises(DatasetError, match="line 3"):
            read_dataset(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "headerless.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(DatasetError, match="header"):
            read_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "void.csv"
        path.write_text("")
        with pytest.raises(DatasetError, match="header"):
            read_dataset(path)

    def test_write_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "x.csv", np.array([[np.nan]]))


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        labels = np.array([3, 1, 4, 1, 5])
        write_labels(path, labels)
        assert path.read_text().splitlines()[0] == "index,label"
        assert np.array_equal(read_labels(path), labels)

    def test_out_of_order_index_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("index,label\n0,1\n2,0\n")
        with pytest.raises(DatasetError, match="line 3"):
            read_labels(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("idx,lbl\n0,1\n")
        with pytest.raises(DatasetError, match="index,label"):
            read_labels(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("index,label\n")
        with pytest.raises(DatasetError, match="no rows"):
            read_labels(path)


class TestJsonOutputs:
    def test_metrics_round_trip(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics(path, {"ari": 1.0, "num_clusters_pred": 3})
        payload = json.loads(path.read_text())
        assert payload == {"ari": 1.0, "num_clusters_pred": 3}

    def test_trace_is_an_array_of_records(self, tmp_path):
        trace = RunTrace(meta={"seed": 1})
        trace.append(IterationRecord(iteration=1, log_joint=-10.0, num_clusters=2, seconds=0.5))
        trace.append(
            IterationRecord(iteration=2, log_joint=-9.0, num_clusters=2, seconds=0.4, ari=1.0)
        )
        path = tmp_path / "trace.json"
        write_trace(path, trace)
        payload = json.loads(path.read_text())
        assert isinstance(payload, list)
        assert len(payload) == 2
        assert payload[0]["iteration"] == 1
        assert payload[0]["ari"] is None
        assert payload[1]["ari"] == 1.0


class TestSpecFromJson:
    def test_load_and_generate(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "n": 50,
                    "seed": 3,
                    "components": [
                        {"weight": 0.5, "mean": [0.0], "cov": [[1.0]]},
                        {"weight": 0.5, "mean": [8.0], "cov": [[1.0]]},
                    ],
                }
            )
        )
        spec = spec_from_json(path)
        data, labels = generate_gmm(spec)
        assert data.shape == (50, 1)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(DatasetError, match="invalid JSON"):
            spec_from_json(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 5}))
        with pytest.raises(DatasetError, match="invalid mixture spec"):
            spec_from_json(path)
