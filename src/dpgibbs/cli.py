"""Command-line driver: generate, fit, fit-distributed, evaluate, bench.

Every run writes a reproducibility manifest (seed, alpha, prior, worker
count, iterations, code version) next to its outputs, and reruns with the
same flags produce identical files apart from wall-clock timing fields.
Errors exit nonzero with a single-line prefixed message on stderr:
``usage-error:`` (exit 2), ``io-error:`` (exit 3; also a worker process that
dies), ``numerical-error:`` (exit 4).  An error raised in a worker exits as it
would in ``fit``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import time

import numpy as np

from . import __version__
from .datasets import (
    generate_gmm,
    preset_spec,
    read_dataset,
    read_labels,
    spec_from_json,
    write_dataset,
    write_json,
    write_labels,
    write_metrics,
    write_trace,
)
from .errors import DatasetError, NumericalDegeneracyError
from .gibbs import run_cgs
from .metrics import metrics_report
from .niw import ModelHyperParams, default_prior
from .runtime import RunConfig, run_discgs


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _positive_float(text):
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError("must be positive and finite, got %r" % text)
    return value


def _workers_list(text):
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError("workers list is empty")
    values = []
    for tok in tokens:
        value = int(tok)
        if value < 1:
            raise argparse.ArgumentTypeError("worker counts must be >= 1, got %d" % value)
        values.append(value)
    return values


def build_parser():
    parser = _Parser(prog="dpgibbs", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("generate", help="write a synthetic mixture dataset")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="named benchmark preset")
    source.add_argument("--spec", help="JSON mixture spec file")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_generate)

    fit = sub.add_parser("fit", help="centralized sampler run")
    _add_fit_args(fit)
    fit.set_defaults(func=cmd_fit)

    fitd = sub.add_parser("fit-distributed", help="distributed sampler run")
    _add_fit_args(fitd)
    fitd.add_argument("--workers", type=_positive_int, required=True)
    fitd.set_defaults(func=cmd_fit_distributed)

    ev = sub.add_parser("evaluate", help="metrics between two label files")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out", required=True, help="output directory")
    ev.set_defaults(func=cmd_evaluate)

    bench = sub.add_parser("bench", help="wall-clock timing across worker counts")
    bench.add_argument("--data", required=True)
    bench.add_argument("--workers-list", type=_workers_list, required=True)
    bench.add_argument("--iters", type=_positive_int, default=10)
    bench.add_argument("--alpha", type=_positive_float, default=1.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--truth", default=None)
    bench.add_argument("--include-central", action="store_true")
    bench.add_argument(
        "--force", action="store_true", help="allow per-iteration trace scoring during timing"
    )
    bench.add_argument("--out", required=True, help="output directory")
    bench.set_defaults(func=cmd_bench)
    return parser


def _add_fit_args(sub_parser):
    sub_parser.add_argument("--data", required=True)
    sub_parser.add_argument("--alpha", type=_positive_float, default=1.0)
    sub_parser.add_argument("--iters", type=_positive_int, default=100)
    sub_parser.add_argument("--seed", type=int, default=0)
    sub_parser.add_argument("--truth", default=None)
    sub_parser.add_argument("--out", required=True, help="output directory")


def _prior_payload(prior, prior_meta):
    payload = {
        "mu": [float(v) for v in prior.mu],
        "kappa": float(prior.kappa),
        "nu": float(prior.nu),
        "psi": [[float(v) for v in row] for row in prior.psi],
    }
    payload.update(prior_meta)
    return payload


def _write_manifest(out_dir, payload):
    # Commands without a sampler run record its keys as null.
    run_keys = dict.fromkeys(("seed", "alpha", "iterations", "workers", "prior"))
    payload = {**run_keys, **payload, "version": __version__}
    write_json(os.path.join(out_dir, "manifest.json"), payload)


def _load_fit_inputs(args):
    """Data, truth labels or None, the model both samplers take, manifest prior."""
    loaded = read_dataset(args.data)
    truth = None if args.truth is None else read_labels(args.truth)
    prior_meta = {}
    prior = default_prior(loaded.data, metadata=prior_meta)
    hyper = ModelHyperParams(alpha=args.alpha, prior=prior)
    return loaded.data, truth, hyper, _prior_payload(prior, prior_meta)


def _write_fit_outputs(args, labels, trace, truth, workers, prior_payload):
    write_labels(os.path.join(args.out, "labels.csv"), labels)
    write_trace(os.path.join(args.out, "trace.json"), trace)
    if truth is not None:
        metrics = metrics_report(labels, truth)
    else:
        # Not np.unique, which imports numpy.ma (about 20 ms) to test for a mask.
        metrics = {"num_clusters_pred": int(np.count_nonzero(np.bincount(labels)))}
    write_metrics(os.path.join(args.out, "metrics.json"), metrics)
    _write_manifest(
        args.out,
        {
            "command": args.subcommand,
            "data": args.data,
            "truth": args.truth,
            "seed": args.seed,
            "alpha": args.alpha,
            "iterations": args.iters,
            "workers": workers,
            "prior": prior_payload,
        },
    )


def cmd_generate(args):
    if args.preset is not None:
        spec = preset_spec(args.preset, seed=args.seed)
        source = {"preset": args.preset}
    else:
        # The --seed flag always controls generation, overriding any seed
        # recorded inside the spec file.
        spec = dataclasses.replace(spec_from_json(args.spec), seed=args.seed)
        source = {"spec": args.spec}
    data, labels = generate_gmm(spec)
    write_dataset(os.path.join(args.out, "data.csv"), data)
    write_labels(os.path.join(args.out, "labels.csv"), labels)
    manifest = {
        "command": "generate",
        "seed": args.seed,
        "n": spec.n,
        "d": spec.dim,
        "num_components": len(spec.components),
    }
    manifest.update(source)
    _write_manifest(args.out, manifest)


def cmd_fit(args):
    data, truth, hyper, prior_payload = _load_fit_inputs(args)
    labels, trace = run_cgs(data, hyper, args.iters, args.seed, ground_truth=truth)
    _write_fit_outputs(args, labels, trace, truth, 1, prior_payload)


def cmd_fit_distributed(args):
    data, truth, hyper, prior_payload = _load_fit_inputs(args)
    config = RunConfig(hyper, iterations=args.iters, workers=args.workers, seed=args.seed)
    labels, trace = run_discgs(data, config, ground_truth=truth)
    _write_fit_outputs(args, labels, trace, truth, args.workers, prior_payload)


def cmd_evaluate(args):
    pred = read_labels(args.pred)
    truth = read_labels(args.truth)
    if pred.shape[0] != truth.shape[0]:
        raise ValueError(
            "label files disagree on length: %d vs %d" % (pred.shape[0], truth.shape[0])
        )
    write_metrics(os.path.join(args.out, "metrics.json"), metrics_report(pred, truth))
    _write_manifest(
        args.out,
        {
            "command": "evaluate",
            "pred": args.pred,
            "truth": args.truth,
        },
    )


def cmd_bench(args):
    if args.truth is not None and not args.force:
        raise ValueError(
            "per-iteration trace scoring during a timing run pollutes the numbers; "
            "pass --force to do it anyway"
        )
    data, truth, hyper, prior_payload = _load_fit_inputs(args)
    for workers in args.workers_list:
        if workers > data.shape[0]:
            raise ValueError(
                "more workers (%d) than points (%d)" % (workers, data.shape[0])
            )
    rows = []
    if args.include_central:
        started = time.perf_counter()
        _, trace = run_cgs(data, hyper, args.iters, args.seed, ground_truth=truth)
        total = time.perf_counter() - started
        rows.append(_timing_row("central", 1, args.iters, total))
        if truth is not None:
            write_trace(os.path.join(args.out, "trace_central.json"), trace)
    for workers in args.workers_list:
        config = RunConfig(hyper, iterations=args.iters, workers=workers, seed=args.seed)
        started = time.perf_counter()
        _, trace = run_discgs(data, config, ground_truth=truth)
        total = time.perf_counter() - started
        rows.append(_timing_row("distributed", workers, args.iters, total))
        if truth is not None:
            write_trace(os.path.join(args.out, "trace_w%d.json" % workers), trace)
    _write_timings(args.out, rows)
    _write_manifest(
        args.out,
        {
            "command": "bench",
            "data": args.data,
            "truth": args.truth,
            "seed": args.seed,
            "alpha": args.alpha,
            "iterations": args.iters,
            "workers": args.workers_list,
            "include_central": args.include_central,
            "prior": prior_payload,
        },
    )


def _timing_row(mode, workers, iterations, total_seconds):
    return {
        "mode": mode,
        "workers": workers,
        "iterations": iterations,
        "total_seconds": total_seconds,
        "per_iteration_seconds": total_seconds / iterations,
    }


def _write_timings(out_dir, rows):
    columns = ["mode", "workers", "iterations", "total_seconds", "per_iteration_seconds"]
    with open(os.path.join(out_dir, "timings.csv"), "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    write_json(os.path.join(out_dir, "timings.json"), rows)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        os.makedirs(args.out, exist_ok=True)
        args.func(args)
        return 0
    except (DatasetError, OSError) as err:
        print("io-error: %s" % err, file=sys.stderr)
        return 3
    except NumericalDegeneracyError as err:
        print("numerical-error: %s" % err, file=sys.stderr)
        return 4
    except ValueError as err:
        print("usage-error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
