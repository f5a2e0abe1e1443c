"""Tests for synthetic generation and dataset file plumbing."""

import csv
import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import stats

from dpgibbs import datasets
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
from dpgibbs.trace import IterationRecord

import _oracles


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
        _oracles.rowwise_write_dataset(path, data, labels=[0, 1, 1])
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

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)], ids=["1-d", "3-d"])
    def test_write_rejects_other_than_two_dimensions(self, tmp_path, shape):
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="must be 2-dimensional"):
            write_dataset(path, np.ones(shape))
        assert not path.exists()

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


def csv_file(tmp_path, text):
    path = tmp_path / "file.csv"
    with open(path, "w", newline="") as handle:
        handle.write(text)
    return path


class TestCsvContract:
    """What the readers accept and how they reject, bulk parse or row parser.

    Every case but the int64 range describes the row parser's behaviour
    before the bulk parse existed: the same values, or the same message and
    line number.  One message changed when one row parser came to serve both
    readers: a dataset's non-integer label reads "non-integer cell '3.0' in
    column 'label'", as a labels file's always did, where it read
    "non-integer label '3.0'".  TestDatasetFiles covers nan, inf and a short
    row.
    """

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("x0,x1\r\n1.5,2.0\r\n-3,4e-3\r\n", [[1.5, 2.0], [-3.0, 4e-3]]),
            ("x0,x1\r1.5,2.0\r-3,4e-3\r", [[1.5, 2.0], [-3.0, 4e-3]]),
            ('"x0","x1"\n"1.5",2.0\n-3,"4e-3"\n', [[1.5, 2.0], [-3.0, 4e-3]]),
            ("x0\n1_000\n", [[1000.0]]),
            ("x0,x1\n 1.5 ,+2\n", [[1.5, 2.0]]),
            ("x0,x1\n1.5,2.0", [[1.5, 2.0]]),
            ("x0\n1.5\n-2\n0\n", [[1.5], [-2.0], [0.0]]),
        ],
        ids=["crlf", "cr", "quoted", "underscore", "spaces", "one-row-no-newline", "one-column"],
    )
    def test_dataset_accepted(self, tmp_path, text, expected):
        loaded = read_dataset(csv_file(tmp_path, text))
        assert loaded.data.dtype == np.float64
        assert loaded.data.tolist() == expected
        assert loaded.labels is None

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("x0,x1\n1,2\n\n3,4\n", "expected 2 cells, got 0", 3),
            ("x0,x1\n1,2\n3,4\n\n", "expected 2 cells, got 0", 4),
            ("x0,x1\r\n1,2\r\n\r\n", "expected 2 cells, got 0", 3),
            ("x0\n1\n1e400\n", "non-finite value '1e400'", 3),
            ("x0,x1\n1,2,3\n", "expected 2 cells, got 3", 2),
            ("x0,x1\n1,2#3\n", "non-numeric cell '2#3'", 2),
            ("x0,label\n1.0,2\n2.0,3.0\n", "non-integer cell '3.0' in column 'label'", 3),
            ("x0,label\n1.0,2\n2.0,99999999999999999999\n", "outside the int64 range", 3),
            ("label\n0\n1\n", "no feature columns", 1),
        ],
        ids=[
            "blank-mid", "blank-end", "blank-crlf", "overflow", "long-row", "hash",
            "float-label", "label-out-of-range", "label-only",
        ],
    )
    def test_dataset_rejected(self, tmp_path, text, message, line):
        with pytest.raises(DatasetError, match=message) as err:
            read_dataset(csv_file(tmp_path, text))
        assert err.value.line == line

    def test_dataset_label_column_anywhere(self, tmp_path):
        text = "label,x0\n-9223372036854775808,1.5\n 9223372036854775807 ,2\n"
        loaded = read_dataset(csv_file(tmp_path, text))
        assert loaded.data.tolist() == [[1.5], [2.0]]
        assert loaded.labels.dtype == np.int64
        assert loaded.labels.tolist() == [-(2**63), 2**63 - 1]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("index,label\r\n0,3\r\n1,-5\r\n", [3, -5]),
            ('"index","label"\n"0","3"\n', [3]),
            ("index,label\n0,1_000\n", [1000]),
            ("index,label\n0,9223372036854775807", [2**63 - 1]),
        ],
        ids=["crlf", "quoted", "underscore", "one-row-int64-max"],
    )
    def test_labels_accepted(self, tmp_path, text, expected):
        labels = read_labels(csv_file(tmp_path, text))
        assert labels.dtype == np.int64
        assert labels.tolist() == expected

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("index,label\n0,1\n\n1,2\n", "expected 2 cells, got 0", 3),
            ("index,label\n0,1\n1,2\n\n", "expected 2 cells, got 0", 4),
            ("index,label\n0,3.0\n", "non-integer cell", 2),
            ("index,label\n0,1\n1,2,3\n", "expected 2 cells, got 3", 3),
            ("index,label\n0,1\n1,-99999999999999999999\n", "outside the int64 range", 3),
            ('"index","label"\n"0","1"\n"2","0"\n', "index 2 out of order", 3),
        ],
        ids=[
            "blank-mid", "blank-end", "float-label", "long-row", "label-out-of-range",
            "quoted-index-out-of-order",
        ],
    )
    def test_labels_rejected(self, tmp_path, text, message, line):
        with pytest.raises(DatasetError, match=message) as err:
            read_labels(csv_file(tmp_path, text))
        assert err.value.line == line


floats64 = st.floats(allow_nan=False, allow_infinity=False, width=64)
SPECIAL = np.array([[-0.0, 5e-324], [1.7e308, -1.7e308], [2.2250738585072014e-308, -1e-310]])


def int64_labels(data, draw):
    """One int64 label per row: drawn, or int64's extremes and 0 for an @example."""
    if draw is None:
        return np.array([-(2**63), 2**63 - 1, 0][: data.shape[0]], dtype=np.int64)
    return draw.draw(arrays(np.int64, data.shape[0]))


class TestRoundTripBitwise:
    @settings(max_examples=60, deadline=None)
    @given(
        data=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6), elements=floats64),
        draw=st.data(),
        with_labels=st.booleans(),
    )
    @example(data=SPECIAL, draw=None, with_labels=False)
    @example(data=SPECIAL, draw=None, with_labels=True)
    def test_read_returns_what_was_written(self, data, draw, with_labels):
        labels = int64_labels(data, draw) if with_labels else None
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            if with_labels:
                _oracles.rowwise_write_dataset(path, data, labels=labels)
            else:
                write_dataset(path, data)
            loaded = read_dataset(path)
        assert loaded.data.dtype == np.float64
        assert loaded.data.shape == data.shape
        assert loaded.data.tobytes() == data.tobytes()
        if with_labels:
            assert loaded.labels.dtype == np.int64
            assert np.array_equal(loaded.labels, labels)
        else:
            assert loaded.labels is None


class TestReadRoutesAgree:
    """The row parser returns the columns the bulk parse returns, bit for bit."""

    @staticmethod
    def both_routes(path, kinds):
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            bulk = datasets._bulk_columns(handle, kinds)
            handle.seek(0)
            reader = csv.reader(handle)
            next(reader)
            return bulk, datasets._row_columns(reader, header, kinds)

    @settings(max_examples=60, deadline=None)
    @given(
        data=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6), elements=floats64),
        draw=st.data(),
        with_labels=st.booleans(),
    )
    @example(data=SPECIAL, draw=None, with_labels=False)
    @example(data=SPECIAL, draw=None, with_labels=True)
    def test_row_parser_matches_bulk_parse(self, data, draw, with_labels):
        labels = int64_labels(data, draw) if with_labels else None
        kinds = [np.float64] * data.shape[1] + [np.int64] * with_labels
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            _oracles.rowwise_write_dataset(path, data, labels=labels)
            bulk, rows = self.both_routes(path, kinds)
        assert bulk is not None
        assert len(rows) == len(bulk) == len(kinds)
        for row_column, bulk_column, kind in zip(rows, bulk, kinds):
            assert row_column.dtype == bulk_column.dtype == kind
            assert row_column.tobytes() == bulk_column.tobytes()


class TestWriterBytes:
    """The block writers write the bytes the row-by-row csv.writer wrote."""

    @staticmethod
    def fixed_table():
        rng = np.random.default_rng(21)
        data = rng.standard_normal((5_000, 3)) * np.array([1e-8, 1.0, 1e12])
        data[:2] = SPECIAL.T
        labels = rng.integers(-(2**63), 2**63 - 1, 5_000, dtype=np.int64, endpoint=True)
        labels[:2] = [-(2**63), 2**63 - 1]
        return data, labels

    def test_dataset(self, tmp_path):
        data, _ = self.fixed_table()
        write_dataset(tmp_path / "new.csv", data)
        _oracles.rowwise_write_dataset(tmp_path / "old.csv", data)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["int64", "list", "empty"])
    def test_labels(self, tmp_path, kind):
        labels = {
            "int64": self.fixed_table()[1],
            "list": [3, 0, 2, 2],
            "empty": np.array([], dtype=np.int64),
        }[kind]
        write_labels(tmp_path / "new.csv", labels)
        _oracles.rowwise_write_labels(tmp_path / "old.csv", labels)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestJsonOutputs:
    def test_metrics_round_trip(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics(path, {"ari": 1.0, "num_clusters_pred": 3})
        payload = json.loads(path.read_text())
        assert payload == {"ari": 1.0, "num_clusters_pred": 3}

    def test_trace_is_an_array_of_records(self, tmp_path):
        trace = [
            IterationRecord(iteration=1, log_joint=-10.0, num_clusters=2, seconds=0.5),
            IterationRecord(iteration=2, log_joint=-9.0, num_clusters=2, seconds=0.4, ari=1.0),
        ]
        path = tmp_path / "trace.json"
        write_trace(path, trace)
        payload = json.loads(path.read_text())
        assert isinstance(payload, list)
        assert len(payload) == 2
        assert payload[0]["iteration"] == 1
        assert payload[0]["ari"] is None
        assert payload[1]["ari"] == 1.0


ONE_COMPONENT = {"components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]}
NAN_MEAN = {"n": 5, "components": [{"weight": 1.0, "mean": [float("nan")], "cov": [[1.0]]}]}


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

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"n": 5}, "'components'"),
            (dict(ONE_COMPONENT, n=10.7), "n and seed must be JSON integers, got 10.7 and 0"),
            (dict(ONE_COMPONENT, n=True), "n and seed must be JSON integers, got True and 0"),
            (dict(ONE_COMPONENT, n=5, seed=2.9), "n and seed must be JSON integers, got 5 and 2.9"),
            (dict(ONE_COMPONENT, n=5, seed=False), "got 5 and False"),
            (NAN_MEAN, "component mean must be finite, got \\[nan\\]"),
        ],
        ids=["missing-components", "float-n", "bool-n", "float-seed", "bool-seed", "nan-mean"],
    )
    def test_invalid_spec_rejected(self, tmp_path, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(DatasetError, match="invalid mixture spec: .*" + message):
            spec_from_json(path)
