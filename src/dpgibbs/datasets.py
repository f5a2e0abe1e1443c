"""Synthetic mixture generation and CSV/JSON dataset plumbing.

Generation side: fixed-K Gaussian mixture draws (``GmmSpec`` /
``generate_gmm``).  These hold the mixture weights and component parameters
that the samplers never see; inference works from data alone.

File side: RFC-4180-style CSV with a required header for datasets and label
vectors, JSON for metrics and traces.  Readers reject malformed or non-finite
input, and labels outside int64, with the offending line number; writers emit
shortest round-trip float text so ``read(write(x)) == x`` for finite values.

Files are read and written as whole tables, not cell by cell.  A reader parses the body after
the header with one ``np.loadtxt`` call on the open file and keeps the result
only when it parsed, is finite and has one row per line.  Otherwise the row
parser (``csv`` plus ``float()``/``int()``, one call per cell) reads the file
again: it takes what ``loadtxt`` does not (quoted cells, ``1_000``) and names
the first bad line.  A writer formats a block of rows with one ``%``.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DatasetError
from .gibbs import seed_to_u64
from .niw import cholesky_logdet


@dataclass(frozen=True)
class GmmComponent:
    """One mixture component: positive weight, mean vector, PD covariance."""

    weight: float
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        cov = np.asarray(self.cov, dtype=np.float64)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if not self.weight > 0:
            raise ValueError("component weight must be positive, got %r" % (self.weight,))
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError("covariance shape %r does not match mean dimension %d" % (cov.shape, d))
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(cov).max())):
            raise ValueError("covariance must be symmetric")
        cholesky_logdet(cov, what="mixture covariance")


@dataclass(frozen=True)
class GmmSpec:
    """Finite Gaussian mixture to sample from: components, sample size, seed."""

    components: tuple
    n: int
    seed: int = 0

    def __post_init__(self):
        components = tuple(self.components)
        object.__setattr__(self, "components", components)
        if not components:
            raise ValueError("spec needs at least one component")
        if self.n < 1:
            raise ValueError("n must be positive, got %r" % (self.n,))
        total = math.fsum(c.weight for c in components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("component weights sum to %.12f, expected 1 within 1e-9" % total)
        d = components[0].mean.shape[0]
        for c in components:
            if c.mean.shape[0] != d:
                raise ValueError("components disagree on dimension")

    @property
    def dim(self):
        return self.components[0].mean.shape[0]


def generate_gmm(spec):
    """Draw (data, labels) from a finite Gaussian mixture, deterministic per seed.

    Each point's component is a categorical draw from the weights; the point
    is then Gaussian around that component's mean.  Returns the data matrix
    and the ground-truth component labels.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed_to_u64(spec.seed)))
    weights = np.array([c.weight for c in spec.components])
    weights = weights / weights.sum()
    k = len(spec.components)
    labels = rng.choice(k, size=spec.n, p=weights)
    data = np.empty((spec.n, spec.dim))
    for j, comp in enumerate(spec.components):
        idx = np.flatnonzero(labels == j)
        if idx.size == 0:
            continue
        noise = rng.standard_normal((idx.size, spec.dim))
        chol = np.linalg.cholesky(comp.cov)
        data[idx] = comp.mean + noise @ chol.T
    return data, labels.astype(np.int64)


# ---------------------------------------------------------------------------
# named benchmark presets
# ---------------------------------------------------------------------------

PRESET_SIZES = {
    "synth-20k": 20_000,
    "synth-40k": 40_000,
    "synth-60k": 60_000,
    "synth-80k": 80_000,
    "synth-100k": 100_000,
    "synth-1m": 1_000_000,
}


def preset_names():
    return sorted(PRESET_SIZES)


def preset_spec(name, seed=0):
    """Benchmark mixture preset: 10 equal-weight planar Gaussians.

    Component means are drawn uniformly in [-20, 20]^2 from a stream derived
    from ``seed``, covariances are identity, so the same (name, seed) pair
    always describes the same mixture.
    """
    if name not in PRESET_SIZES:
        raise ValueError(
            "unknown preset %r; available presets: %s" % (name, ", ".join(preset_names()))
        )
    k = 10
    mean_rng = np.random.default_rng(np.random.SeedSequence([seed_to_u64(seed), 1]))
    means = mean_rng.uniform(-20.0, 20.0, size=(k, 2))
    components = tuple(
        GmmComponent(weight=1.0 / k, mean=means[j], cov=np.eye(2)) for j in range(k)
    )
    return GmmSpec(components=components, n=PRESET_SIZES[name], seed=seed)


def spec_from_json(path):
    """Load a GmmSpec from a JSON file: {"n", "seed", "components": [...]}."""
    with open(path, "r", newline="") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as err:
            raise DatasetError("invalid JSON: %s" % err) from err
    try:
        components = tuple(
            GmmComponent(
                weight=float(c["weight"]),
                mean=np.asarray(c["mean"], dtype=np.float64),
                cov=np.asarray(c["cov"], dtype=np.float64),
            )
            for c in payload["components"]
        )
        return GmmSpec(components=components, n=int(payload["n"]), seed=int(payload.get("seed", 0)))
    except (KeyError, TypeError, ValueError) as err:
        raise DatasetError("invalid mixture spec: %s" % err) from err


# ---------------------------------------------------------------------------
# CSV / JSON plumbing
# ---------------------------------------------------------------------------


@dataclass
class LoadedDataset:
    data: np.ndarray
    labels: np.ndarray | None = None


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# Rows formatted per % operation by the writers; bounds their temporaries.
_WRITE_ROWS = 4096


def _read_header(reader):
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetError("empty file, expected a header row") from None
    return [h.strip() for h in header]


def _rows_after_header(handle):
    """A fresh CSV reader on ``handle`` past its header record."""
    handle.seek(0)
    reader = csv.reader(handle)
    next(reader)
    return reader


def _bulk_columns(handle, kinds):
    """The rest of ``handle`` as one array per column, from one ``np.loadtxt`` call.

    ``kinds`` gives each column's dtype.  None unless every line parsed as
    one record and every float is finite: ``loadtxt`` skips blank lines (the
    line count catches them) and rejects quoted cells and ``1_000``.  What
    it accepts, ``float()`` and ``int()`` accept with the same values.
    """
    dtype = np.dtype([("c%d" % j, kind) for j, kind in enumerate(kinds)])
    lines = itertools.count()
    counted = map(operator.itemgetter(0), zip(handle, lines))  # one count per line read
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body
            table = np.loadtxt(counted, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    if not 0 < table.shape[0] == next(lines):
        return None
    columns = [np.ascontiguousarray(table[name]) for name in dtype.names]
    if not all(np.isfinite(c).all() for c in columns if c.dtype.kind == "f"):
        return None
    return columns


def _parse_cell(text, line_num, column):
    try:
        value = float(text)
    except ValueError:
        raise DatasetError(
            "non-numeric cell %r in column %r" % (text, column), line=line_num
        ) from None
    if not math.isfinite(value):
        raise DatasetError("non-finite value %r in column %r" % (text, column), line=line_num)
    return value


def _check_label(value, text, line_num):
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise DatasetError("label %r outside the int64 range" % (text,), line=line_num)
    return value


def _looks_numeric(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_dataset(path):
    """Read a header-ed CSV of observations; a ``label`` column is split out.

    Errors cite the 1-based physical line number of the offending row.
    """
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(reader)
        if all(_looks_numeric(h) for h in header):
            raise DatasetError("missing header row", line=1)
        label_col = header.index("label") if "label" in header else None
        feature_cols = [i for i in range(len(header)) if i != label_col]
        if not feature_cols:
            raise DatasetError("no feature columns", line=1)
        kinds = [np.int64 if i == label_col else np.float64 for i in range(len(header))]
        columns = _bulk_columns(handle, kinds)
        if columns is None:
            return _dataset_rows(_rows_after_header(handle), header, label_col, feature_cols)
    return LoadedDataset(
        data=np.column_stack([columns[i] for i in feature_cols]),
        labels=None if label_col is None else columns[label_col],
    )


def _dataset_rows(reader, header, label_col, feature_cols):
    """Row-by-row parse of a dataset body: the files the bulk parse does
    not take, and the first bad line of a malformed one."""
    rows = []
    labels = []
    for row in reader:
        if len(row) != len(header):
            raise DatasetError(
                "expected %d cells, got %d" % (len(header), len(row)),
                line=reader.line_num,
            )
        rows.append([_parse_cell(row[i], reader.line_num, header[i]) for i in feature_cols])
        if label_col is not None:
            try:
                label = int(row[label_col])
            except ValueError:
                raise DatasetError(
                    "non-integer label %r" % (row[label_col],), line=reader.line_num
                ) from None
            labels.append(_check_label(label, row[label_col], reader.line_num))
    if not rows:
        raise DatasetError("no rows after the header")
    return LoadedDataset(
        data=np.asarray(rows, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64) if label_col is not None else None,
    )


def _write_table(path, header, row_format, table):
    """Write a CSV header line, then one ``row_format`` line per row of
    ``table``, formatting a block of rows with one % operation."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, table.shape[0], _WRITE_ROWS):
            block = table[start : start + _WRITE_ROWS]
            handle.write(row_format * block.shape[0] % tuple(block.ravel().tolist()))


def write_dataset(path, data):
    """Write observations as header-ed CSV; floats use shortest round-trip text."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be 2-dimensional, got shape %r" % (data.shape,))
    if not np.all(np.isfinite(data)):
        raise ValueError("refusing to write non-finite values")
    d = data.shape[1]
    _write_table(path, ["x%d" % j for j in range(d)], ",".join(["%r"] * d) + "\n", data)


def read_labels(path):
    """Read an (index,label) CSV; indices must be exactly 0..n-1 in order."""
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(reader)
        if header != ["index", "label"]:
            raise DatasetError("expected header 'index,label', got %r" % ",".join(header), line=1)
        columns = _bulk_columns(handle, [np.int64, np.int64])
        if columns is None or not np.array_equal(columns[0], np.arange(columns[0].shape[0])):
            return _label_rows(_rows_after_header(handle))
    return columns[1]


def _label_rows(reader):
    """Row-by-row parse of a labels body, as ``_dataset_rows`` is for data."""
    labels = []
    for row in reader:
        if len(row) != 2:
            raise DatasetError("expected 2 cells, got %d" % len(row), line=reader.line_num)
        try:
            idx, label = int(row[0]), int(row[1])
        except ValueError:
            raise DatasetError(
                "non-integer cell in row %r" % (row,), line=reader.line_num
            ) from None
        if idx != len(labels):
            raise DatasetError(
                "index %d out of order, expected %d" % (idx, len(labels)),
                line=reader.line_num,
            )
        labels.append(_check_label(label, row[1], reader.line_num))
    if not labels:
        raise DatasetError("no rows after the header")
    return np.asarray(labels, dtype=np.int64)


def write_labels(path, labels):
    labels = np.asarray(labels).reshape(-1)
    table = np.column_stack([np.arange(labels.shape[0]), labels])
    _write_table(path, ["index", "label"], "%d,%d\n", table)


def write_metrics(path, metrics):
    write_json(path, dict(metrics))


def write_trace(path, trace):
    """Trace file is a JSON array of a run's IterationRecords, one object each."""
    write_json(path, [asdict(r) for r in trace])


def write_json(path, payload):
    """The one JSON format of every output file: sorted keys, indent 2, a final newline."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
