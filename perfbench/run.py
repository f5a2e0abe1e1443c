"""dpgibbs benchmark: end-to-end fit metrics and a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload central-20k --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Each run generates its workload's fixed dataset, writes it as CSV, derives
the fits' sampler seeds from ``--seed``, then runs complete `dpgibbs fit` /
`fit-distributed` invocations (through perfbench/fitproc.py, without
--truth) for about ``--seconds`` seconds.
Every fit's outputs are checked and scored here; a fit that exits non-zero,
times out or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics, each the median over the run's
fits.  Times are scaled to a reference host speed: fitproc.py times a fixed
probe (hostspeed.py) every 50 ms inside each fit, and each phase's wall
seconds are multiplied by the phase's mean ``REFERENCE_PROBE_S / probe``, so
that the shared machine's changes of speed within and between runs cancel.

``--trace 1`` alternates untraced and traced fits of one sampler seed and
reports the per-layer metrics of BENCHMARK.json from the traced fits'
spans, the tracing overhead on iter_s, and checks that the exact counts and
the labels repeat between fits.  Both print every metric they measured as
``workload metric value unit`` lines, then one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    WORKLOADS,
    CheckFailed,
    adjusted_rand,
    check_outputs,
    make_inputs,
    sampler_seed,
    write_data,
)
from hostspeed import at_reference  # noqa: E402

FITPROC = os.path.join(HERE, "fitproc.py")
RUN_LIMIT_S = 170.0  # a run must end within 180 s, hung fits included
MIN_PLAIN_FITS = 3
MIN_TRACED_FITS = 2

END_TO_END_UNITS = {"fit_s": "s", "setup_s": "s", "iter_s": "s", "peak_rss_mb": "MB"}
# End-to-end times are reported at the reference host speed; the raw wall
# seconds are kept as raw_<name> and printed beside them.
SCALED = ("fit_s", "setup_s", "iter_s")

# Per-layer counts that depend only on the code and the seed; they must
# repeat exactly between traced fits.
EXACT_COUNTS = (
    "gibbs.sample_calls",
    "gibbs.clusters_mean",
    "worker.local_clusters_mean",
    "master.batches",
    "master.clusters",
    "runtime.messages",
    "runtime.summary_bytes",
    "runtime.label_map_bytes",
    "runtime.collect_bytes",
    "metrics.ari",
)


class FitFailed(Exception):
    pass


def _bench_units():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _stop_group(pgid):
    """SIGKILL a fit's process group and wait until no member is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_fit(root, work, workload, data_path, n, seed, mode, index, timeout):
    """One CLI invocation; returns its timings, labels and (traced) spans."""
    out = os.path.join(work, "fit-%d" % index)
    report_path = out + "-report.json"
    cmd = [sys.executable, FITPROC, "--mode", mode, "--report", report_path]
    if mode == "trace":
        spans_dir = out + "-spans"
        os.makedirs(spans_dir)
        cmd += ["--spans", spans_dir, "--fit-id", "%s-%d" % (workload.name, index)]
    cmd += [
        "--", workload.command, "--data", data_path, "--alpha", repr(workload.alpha),
        "--iters", str(workload.iterations), "--seed", str(seed), "--out", out,
    ]
    if workload.command == "fit-distributed":
        cmd += ["--workers", str(workload.workers)]
    launched = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True
    )
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        raise FitFailed("timed out after %.0f s" % timeout) from None
    finally:
        _stop_group(proc.pid)
    ended = time.monotonic()
    if proc.returncode != 0:
        raise FitFailed("exit %d: %s" % (proc.returncode, err.decode(errors="replace")[-400:]))
    with open(report_path) as handle:
        report = json.load(handle)
    first_sweep, sampling_end, probes = report["first_sweep"], report["sampling_end"], report["probes"]
    if first_sweep is None or sampling_end is None:
        raise FitFailed("the fit ran no sweep")
    if not probes:
        raise FitFailed("no host speed probe ran")

    def scaled(seconds, start, end):
        return at_reference(seconds, [p for p in probes if start <= p[0] < end] or probes)

    sampling = sampling_end - first_sweep
    fit = {
        "raw_fit_s": ended - launched,
        "raw_setup_s": first_sweep - launched,
        "raw_iter_s": sampling / workload.iterations,
        "fit_s": scaled(ended - launched, launched, ended),
        "setup_s": scaled(first_sweep - launched, launched, first_sweep),
        "iter_s": scaled(sampling, first_sweep, sampling_end) / workload.iterations,
        "probe_ms": 1e3 * statistics.median(s for _, s in probes),
        # Coordinator plus the largest worker (0 for a centralized fit).
        "peak_rss_mb": (report["rss_kb"] + report["worker_rss_kb"]) / 1024.0,
        "startup_s": report["main_start"] - launched,
        "labels": check_outputs(out, n, workload, seed),
    }
    if mode == "trace":
        fit["spans"] = []
        for name in sorted(os.listdir(spans_dir)):
            with open(os.path.join(spans_dir, name)) as handle:
                fit["spans"].extend(json.load(handle))
    return fit


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(fit):
    """Per-layer numbers of one traced fit, from its spans."""
    spans = defaultdict(list)
    for span in fit["spans"]:
        spans[span["name"]].append(span)

    def dur(span):
        return span["end"] - span["start"]

    def total(*names):
        return sum(dur(s) for name in names for s in spans[name])

    def per_call(name):
        return _mean(dur(s) for s in spans[name])

    m = {}
    m["datasets.read_s"] = total("datasets.read_dataset")
    m["datasets.write_s"] = total(
        "datasets.write_labels", "datasets.write_trace", "datasets.write_metrics"
    )
    m["niw.default_prior_s"] = total("niw.default_prior")

    sweeps = spans["gibbs.sweep"]
    points = sum(s["attrs"]["points"] for s in sweeps)
    calls = sum(s["attrs"]["sample_calls"] for s in sweeps)
    m["gibbs.sweep_s"] = per_call("gibbs.sweep")
    m["gibbs.us_per_point"] = 1e6 * total("gibbs.sweep") / points if points else 0.0
    m["gibbs.sample_calls"] = calls
    m["gibbs.sample_us"] = (
        1e6 * sum(s["attrs"]["sample_seconds"] for s in sweeps) / calls if calls else 0.0
    )
    m["gibbs.clusters_mean"] = (
        sum(s["attrs"]["sample_k_sum"] for s in sweeps) / calls if calls else 0.0
    )
    m["gibbs.log_joint_s"] = per_call("gibbs.log_joint")

    by_iteration = defaultdict(dict)
    by_worker = defaultdict(list)
    for s in spans["worker.sweep"]:
        worker_id = s["id"].split("/")[0]
        by_iteration[s["attrs"]["iteration"]][worker_id] = dur(s)
        by_worker[worker_id].append(dur(s))
    slowest = {t: max(v.values()) for t, v in by_iteration.items()}
    worker_points = sum(s["attrs"]["points"] for s in spans["worker.sweep"])
    m["worker.sweep_s_max"] = _mean(slowest.values())
    m["worker.sweep_s_mean"] = per_call("worker.sweep")
    for j in range(2):
        m["worker.w%d.sweep_s" % j] = _mean(by_worker["w%d" % j])
    m["worker.us_per_point"] = (
        1e6 * total("worker.sweep") / worker_points if worker_points else 0.0
    )
    m["worker.straggler_ratio"] = _mean(
        max(v.values()) / _mean(v.values()) for v in by_iteration.values()
    )
    m["worker.summarize_s"] = per_call("worker.summarize")
    m["worker.apply_s"] = per_call("worker.apply")
    m["worker.local_clusters_mean"] = _mean(s["attrs"]["clusters"] for s in spans["worker.summarize"])

    master = spans["master.sweep"]
    scores = sum(s["attrs"]["batches"] * (s["attrs"]["clusters"] + 1) for s in master)
    m["master.sweep_s"] = per_call("master.sweep")
    m["master.batches"] = _mean(s["attrs"]["batches"] for s in master)
    m["master.clusters"] = _mean(s["attrs"]["clusters"] for s in master)
    m["master.us_per_score"] = 1e6 * total("master.sweep") / scores if scores else 0.0
    m["master.log_joint_s"] = per_call("master.log_joint")
    m["master.serial_ratio"] = (
        m["master.sweep_s"] / m["worker.sweep_s_max"] if m["worker.sweep_s_max"] else 0.0
    )

    iterations = spans["runtime.iteration"]
    m["runtime.spawn_s"] = total("runtime.spawn")
    m["runtime.wait_s"] = _mean(
        s["attrs"]["last_summary"] - s["start"] - slowest[s["attrs"]["iteration"]]
        for s in iterations
    )
    for key in ("summary_bytes", "label_map_bytes", "messages"):
        m["runtime." + key] = _mean(s["attrs"][key] for s in iterations)
    m["runtime.collect_s"] = total("runtime.collect")
    m["runtime.collect_bytes"] = sum(s["attrs"]["collect_bytes"] for s in spans["runtime.collect"])
    m["runtime.shutdown_s"] = total("runtime.shutdown")

    m["cli.startup_s"] = fit["startup_s"]
    m["cli.self_s"] = total("fit") - total(
        "datasets.read_dataset", "niw.default_prior", "sampling",
        "datasets.write_labels", "datasets.write_trace", "datasets.write_metrics",
    )
    m["trace.iter_s"] = fit["iter_s"]
    m["host.probe_ms"] = fit["probe_ms"]
    return m


def score(labels, truth):
    """ARI by dpgibbs.metrics, cross-checked against an independent formula."""
    from dpgibbs.metrics import ari

    started = time.perf_counter()
    value = ari(labels, truth)
    elapsed = time.perf_counter() - started
    if abs(value - adjusted_rand(labels, truth)) > 1e-9:
        raise CheckFailed("dpgibbs.metrics.ari disagrees with the reference ARI")
    return value, elapsed


def run_workload(root, work, workload, seed, seconds, trace, log):
    """Fits for about ``seconds`` seconds; returns (result dict, printed rows)."""
    data, truth = make_inputs(workload)
    work = os.path.join(work, workload.name)
    os.makedirs(work)
    data_path = os.path.join(work, "data.csv")
    write_data(data_path, data)
    # Untimed warm-up: load and byte-compile the package before the first fit.
    subprocess.run(
        [sys.executable, "-c", "import dpgibbs.cli"], cwd=root, check=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
    )
    started = time.monotonic()
    deadline = started + seconds
    plain, traced, failures = [], [], []
    attempted = 0
    longest = 0.0
    while True:
        # A traced run goes plain, trace, trace, then alternates.
        mode = "trace" if trace and plain and len(traced) <= len(plain) else "plain"
        # The untraced run uses one sampler seed per fit, so the median spans
        # several sampled paths; the traced run repeats one seed so its counts
        # and labels can be compared exactly.
        fit_seed = sampler_seed(seed, 0 if trace else attempted)
        attempted += 1
        try:
            fit = run_fit(
                root, work, workload, data_path, len(data), fit_seed, mode, attempted,
                RUN_LIMIT_S - (time.monotonic() - started),
            )
            fit["ari"], fit["ari_s"] = score(fit["labels"], truth)
            longest = max(longest, fit["raw_fit_s"])
            (traced if mode == "trace" else plain).append(fit)
            log(
                "%s fit %d (%s, seed %d): fit_s %.3f setup_s %.3f iter_s %.4f "
                "(raw %.3f %.3f %.4f, probe %.2f ms) ari %.4f" % (
                    workload.name, attempted, mode, fit_seed, fit["fit_s"], fit["setup_s"],
                    fit["iter_s"], fit["raw_fit_s"], fit["raw_setup_s"], fit["raw_iter_s"],
                    fit["probe_ms"], fit["ari"],
                )
            )
        except (FitFailed, CheckFailed, OSError) as err:
            failures.append("%s fit %d: %s" % (workload.name, attempted, err))
            log("FAILED %s" % failures[-1])
            break
        if trace:
            enough = plain and len(traced) >= MIN_TRACED_FITS
        else:
            enough = len(plain) >= MIN_PLAIN_FITS
        if enough and time.monotonic() + longest > deadline:
            break

    correct = not failures
    metrics = {}
    rows = []
    if plain:
        for name, unit in END_TO_END_UNITS.items():
            value = statistics.median(f[name] for f in plain)
            rows.append((name, value, unit))
            if not trace:
                metrics[name] = {"value": value, "unit": unit}
        for name in SCALED:
            rows.append(("raw_" + name, statistics.median(f["raw_" + name] for f in plain), "s"))
    if trace and traced:
        per_fit = [layer_metrics(f) for f in traced]
        for f, m in zip(traced, per_fit):
            m["metrics.ari"] = f["ari"]
            m["metrics.ari_s"] = f["ari_s"]
        for name in EXACT_COUNTS:
            if len({m[name] for m in per_fit}) != 1:
                correct = False
                log("MISMATCH %s differs between traced fits: %r" % (name, [m[name] for m in per_fit]))
        reference = (plain + traced)[0]["labels"]
        if any((f["labels"] != reference).any() for f in plain + traced):
            correct = False
            log("MISMATCH labels differ between fits of one seed")
        units = _bench_units()
        for name, unit in units.items():
            if name == "trace.overhead_iter_s":
                value = statistics.median(m["trace.iter_s"] for m in per_fit) - statistics.median(
                    f["iter_s"] for f in plain
                )
            else:
                value = statistics.median(m[name] for m in per_fit)
            rows.append((name, value, unit))
            metrics[name] = {"value": value, "unit": unit}
    if not trace and plain:
        rows.append(("ari", statistics.median(f["ari"] for f in plain), "index"))
    result = {
        "correct": correct and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dpgibbs", "cli.py")):
        print("perfbench: run from the repository root (no src/dpgibbs here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    def log(text):
        print(text, file=sys.stderr, flush=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work = os.path.join(root, ".perfbench_work", "run-%d" % os.getpid())
    os.makedirs(work)
    results = {}
    try:
        for name in names:
            result, rows = run_workload(
                root, work, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), log
            )
            for metric, value, unit in rows:
                print("%-12s %-28s %14.6f %s" % (name, metric, value, unit))
            results[name] = result
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                "%s/%s" % (name, metric): value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
