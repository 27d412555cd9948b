"""Run one workload in this (fresh) process and print its result as JSON.

``run.py`` starts this file once per workload run, so that peak memory and
the library's cache counters belong to that workload alone.  It can also be
run by hand from the repository root:

    python3 bench/worker.py --workload towers --seed 1 --seconds 25 --trace 0
    python3 bench/worker.py --workload towers --seed 1 --setup-only

The last line of stdout is one JSON object.  Set-up time runs from the top
of this file, before the library is imported, to the end of the workload's
construction of problems, towers and reductions.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
from tracing import LAYERS, Tracer, install, perf  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


#: how often, between two ops, a run times the pace kernel (``metrics.pace``)
PACE_EVERY_S = 0.5


@dataclass
class Record:
    kind: str
    latency: float
    ok: bool
    valid: bool
    queries: int
    segment: int  # the stretch between two pace checks in which the op ran


def import_library():
    """Import the workbench from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    package = importlib.import_module("sci_workbench")
    if Path(package.__file__).resolve().parent != (src / "sci_workbench").resolve():
        raise SystemExit(f"sci_workbench imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{layer: importlib.import_module(f"sci_workbench.{layer}") for layer in LAYERS})


def closed_loop(workload, specs, seconds, on_op=None):
    """One client runs ``specs`` in order; the next op starts when the previous one has finished.

    The run ends at the first block boundary after ``seconds``, so it holds
    whole blocks and every run has the same mix of op kinds.  An op that
    raises is a failed op; the run goes on.  Every ``PACE_EVERY_S``, between
    two ops, the pace kernel is timed; the stretches between pace checks are
    the segments.  Returns the records, the elapsed wall time, the failures
    and the segments as (wall times, paces at their ends).
    """
    tracer = workload.tracer
    period = len(workload.block())
    records, failures = [], []
    walls, paces = [], [metrics.pace()]
    start = segment_start = perf()
    for i, spec in enumerate(specs):
        if i and i % period == 0 and perf() - start >= seconds:
            break
        if perf() - segment_start >= PACE_EVERY_S:
            walls.append(perf() - segment_start)
            paces.append(metrics.pace())
            segment_start = perf()
        tracer.op = i
        began = perf()
        try:
            result = workload.run(spec)
            ok, queries, error = result.ok, result.queries, "output check failed"
        except Exception as exc:  # a raising op is counted, never fatal
            ok, queries, error = False, 0, f"{type(exc).__name__}: {exc}"
        records.append(Record(spec.kind, perf() - began, ok, spec.valid, queries, len(walls)))
        if not ok:
            failures.append({"op": i, "kind": spec.kind, "valid": spec.valid, "error": error,
                             "spec": repr(spec.data)[:300]})
        if on_op is not None:
            on_op(i, records, spec)
    walls.append(perf() - segment_start)
    paces.append(metrics.pace())
    return records, perf() - start, failures, (walls, paces)


def clear_caches(lib) -> None:
    """Empty the library's memo caches, so that a traced phase and its untraced replay start alike."""
    lib.integration._grid_ids.cache_clear()
    lib.spectral._rational_block.cache_clear()


def cache_info(lib):
    return lib.integration._grid_ids.cache_info(), lib.spectral._rational_block.cache_info()


def traced_run(lib, workload, seconds):
    """Traced phase (wrappers on) for half of ``seconds``, then the same ops untraced."""
    tracer = workload.tracer
    grid_before, _ = cache_info(lib)
    fingerprint, digest, ran = {}, hashlib.sha256(), []

    def on_op(i, records, spec):
        ran.append(spec)
        if i < workload.window:
            digest.update(repr(spec).encode())
        if i + 1 == workload.window:
            grid, blocks = cache_info(lib)
            window = records[: workload.window]
            fingerprint.update({
                "ops": len(window),
                "failed": sum(not r.ok for r in window),
                "core.queries": sum(r.queries for r in window),
                "core.run_algorithm.calls": tracer.count["core.run_algorithm"],
                "core.resolve.calls": tracer.count["core.QueryFamily.resolve"],
                "core.protocol_calls": workload.counters["protocol"].calls,
                "reductions.pullback.inner_steps": workload.counters["inner"].calls,
                "reductions.pullback.plan_rule_calls": workload.counters["rules"].calls,
                "koopman.grid_points": tracer.count["koopman.sigma_inf"],
                "koopman.hausdorff_pairs": int(tracer.acc["koopman.hausdorff_pairs"][0]),
                "integration.grid_cache.entries": grid.currsize,
                "spectral.rational_block.entries": blocks.currsize,
                "catalog.loads": tracer.count["catalog.load_catalog"],
                "input_digest": digest.hexdigest(),
            })

    clear_caches(lib)
    uninstall = install(tracer)
    workload.count(True)
    try:
        # the untraced replay of the same ops takes the other half, or less
        records, elapsed, failures, _ = closed_loop(workload, workload.specs(), seconds / 2, on_op)
    finally:
        uninstall()
    counters = workload.counters
    workload.count(False)
    grid_after, _ = cache_info(lib)
    cache_delta = (grid_after.hits - grid_before.hits, grid_after.misses - grid_before.misses)

    workload.tracer = Tracer(keep=0)
    clear_caches(lib)
    _, untraced_elapsed, _, _ = closed_loop(workload, ran, float("inf"))
    layer = metrics.per_layer(tracer, records, elapsed, counters, fingerprint, cache_delta,
                              untraced_elapsed)
    return records, failures, layer, fingerprint


def provenance(lib) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    status = Path("/proc/self/status")
    threads = None
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "pinned_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS", "PYTHONHASHSEED")},
        "process_threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lib = import_library()
    tracer = Tracer()
    workload = WORKLOADS[args.workload](lib, args.seed, tracer)
    setup_s = perf() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "setup_s": setup_s}
    if args.trace:
        records, failures, layer, fingerprint = traced_run(lib, workload, args.seconds)
        result["metrics"] = layer
        result["fingerprint"] = fingerprint
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["span_aggregates"] = {
            name: {"count": tracer.count[name], "total_s": tracer.total[name],
                   "self_s": tracer.self_time[name]}
            for name in sorted(tracer.count)
        }
    else:
        records, _, failures, segments = closed_loop(workload, workload.specs(), args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"], result["notes"] = metrics.end_to_end(records, segments, setup_s,
                                                                peak_rss_mb)
    result.update({
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "failed_valid": sum(r.valid and not r.ok for r in records),
        "failures": failures[:20],
        "provenance": provenance(lib),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
