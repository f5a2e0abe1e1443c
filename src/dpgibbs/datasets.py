"""Synthetic mixture generation and CSV/JSON dataset plumbing.

Generation side: fixed-K Gaussian mixture draws (``GmmSpec`` /
``generate_gmm``).  These hold the mixture weights and component parameters
that the samplers never see; inference works from data alone.

File side: RFC-4180-style CSV with a required header for datasets and label
vectors, JSON for metrics and traces.  Readers reject malformed or non-finite
input, and labels outside int64, with the offending line number; writers emit
shortest round-trip float text so ``read(write(x)) == x`` for finite values.

Files are read and written as whole tables, not cell by cell.  Both readers
take one route: a reader checks the header and gives each column's dtype,
then one ``np.loadtxt`` call on the open file parses the body, kept only
when it parsed, is finite and has one row per line.  Otherwise one row
parser, the same for datasets and label files, reads the file again with
``csv`` and one ``float()`` or ``int()`` call per cell, by the column's
dtype: it takes what ``loadtxt`` does not (quoted cells, ``1_000``) and
names the first bad cell.  A writer formats a block of rows with one ``%``.
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
    """One mixture component: positive weight, finite mean vector, PD covariance."""

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
        if not np.isfinite(mean).all():
            raise ValueError("component mean must be finite, got %r" % (mean.tolist(),))
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
        n, seed = payload["n"], payload.get("seed", 0)
        if type(n) is not int or type(seed) is not int:  # not a float, nor a bool
            raise ValueError("n and seed must be JSON integers, got %r and %r" % (n, seed))
        return GmmSpec(components=components, n=n, seed=seed)
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


def _read_table(path, kinds_of):
    """The header and the columns of the CSV at ``path``.

    ``kinds_of(header)`` checks the header and gives each column's dtype.
    The body is then read by the bulk parse, or else by the row parser.
    """
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetError("empty file, expected a header row") from None
        kinds = kinds_of(header)
        columns = _bulk_columns(handle, kinds)
        if columns is None:
            handle.seek(0)
            reader = csv.reader(handle)
            next(reader)
            columns = _row_columns(reader, header, kinds)
    return header, columns


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


def _row_columns(reader, header, kinds):
    """The rest of ``reader`` as ``_bulk_columns`` returns it for ``kinds``.

    One ``float()`` or ``int()`` call per cell, by its column's dtype: it
    takes the files the bulk parse does not, and names the first bad cell,
    left to right, of a malformed one.
    """
    floats = [np.dtype(kind).kind == "f" for kind in kinds]
    rows = []
    for row in reader:
        line = reader.line_num
        if len(row) != len(kinds):
            raise DatasetError("expected %d cells, got %d" % (len(kinds), len(row)), line=line)
        values = []
        for text, column, is_float in zip(row, header, floats):
            try:
                value = float(text) if is_float else int(text)
            except ValueError:
                what = "non-numeric" if is_float else "non-integer"
                raise DatasetError(
                    "%s cell %r in column %r" % (what, text, column), line=line
                ) from None
            if is_float and not math.isfinite(value):
                raise DatasetError("non-finite value %r in column %r" % (text, column), line=line)
            if not is_float and not _INT64_MIN <= value <= _INT64_MAX:
                raise DatasetError("%s %r outside the int64 range" % (column, text), line=line)
            values.append(value)
        rows.append(values)
    if not rows:
        raise DatasetError("no rows after the header")
    return [np.array(column, dtype=kind) for column, kind in zip(zip(*rows), kinds)]


def _looks_numeric(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _dataset_kinds(header):
    if all(_looks_numeric(h) for h in header):
        raise DatasetError("missing header row", line=1)
    if header == ["label"]:
        raise DatasetError("no feature columns", line=1)
    kinds = [np.float64] * len(header)
    if "label" in header:
        kinds[header.index("label")] = np.int64
    return kinds


def read_dataset(path):
    """Read a header-ed CSV of observations; its first ``label`` column is split out.

    Errors cite the 1-based physical line number of the offending row.
    """
    header, columns = _read_table(path, _dataset_kinds)
    labels = columns.pop(header.index("label")) if "label" in header else None
    return LoadedDataset(data=np.column_stack(columns), labels=labels)


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


def _label_kinds(header):
    if header != ["index", "label"]:
        raise DatasetError("expected header 'index,label', got %r" % ",".join(header), line=1)
    return [np.int64, np.int64]


def read_labels(path):
    """Read an (index,label) CSV; indices must be exactly 0..n-1 in order.

    An index out of order cites line i + 2, the physical line of a one-line
    record i.
    """
    _, (index, labels) = _read_table(path, _label_kinds)
    wrong = np.flatnonzero(index != np.arange(index.shape[0]))
    if wrong.size:
        i = int(wrong[0])
        raise DatasetError("index %d out of order, expected %d" % (index[i], i), line=i + 2)
    return labels


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
