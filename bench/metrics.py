"""Metric names, units and how each is computed from a run.

End-to-end metrics come from an untraced run; its op times are paced (see
``end_to_end``).  Per-layer metrics come from
the traced phase of a ``--trace 1`` run: mean durations of spans (``.ms``),
unit costs (time over a count of work), shares, and exact counts taken over
the workload's fingerprint window (the first ``window`` ops), which repeat
exactly for a given seed.  Every metric is returned as (value, samples).
"""

from __future__ import annotations

import statistics
from time import perf_counter

from workloads import (
    DECIDE_N1, KOOPMAN_EPS, KOOPMAN_FINE, KOOPMAN_N, PULLBACK_N, RECT_N, Cli, eps_grid, grid_points,
)

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("queries_per_s", "queries/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("ok_op_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

GRID_SIZES = tuple(grid_points(eps_grid(eps)) for eps in KOOPMAN_EPS + KOOPMAN_FINE[1:])
HAUSDORFF_BUCKETS = ("le1e3", "le1e4", "le1e5", "le1e6", "gt1e6")

PER_LAYER = (
    ("core.run_algorithm.ms", "ms", "lower"),
    ("core.queries", "count", "lower"),
    ("core.us_per_query", "us/query", "lower"),
    ("core.resolve.share", "ratio", "lower"),
    ("core.protocol_calls_per_query", "calls/query", "lower"),
    ("core.probe_convergence.ms", "ms", "lower"),
    ("integration.stage_build.ms", "ms", "lower"),
    ("integration.grid_cache.hit_ratio", "ratio", "higher"),
    ("integration.grid_cache.entries", "count", "lower"),
    ("integration.reference.ms", "ms", "lower"),
    *((f"integration.us_per_query.n{n}", "us/query", "lower") for n in RECT_N),
    ("spectral.stage_build.ms", "ms", "lower"),
    ("spectral.oracle.ms", "ms", "lower"),
    ("spectral.rational_block.entries", "count", "lower"),
    *((f"spectral.us_per_query.n{n}", "us/query", "lower") for n in DECIDE_N1),
    ("reductions.verify.ms", "ms", "lower"),
    ("reductions.verify.us_per_query", "us/query", "lower"),
    ("reductions.compose.ms", "ms", "lower"),
    ("reductions.pullback.ms", "ms", "lower"),
    ("reductions.pullback.inner_steps_per_source_query", "steps/query", "lower"),
    ("reductions.pullback.plan_rules_per_source_query", "calls/query", "lower"),
    ("reductions.pullback.slowdown_vs_native", "ratio", "lower"),
    *((f"reductions.pullback.ms.n{n}", "ms", "lower") for n in PULLBACK_N),
    ("certificates.verdict.ms", "ms", "lower"),
    ("degrees.construct.ms", "ms", "lower"),
    ("koopman.target.ms", "ms", "lower"),
    ("koopman.grid_points", "count", "lower"),
    ("koopman.us_per_grid_point", "us/point", "lower"),
    ("koopman.hausdorff.ms", "ms", "lower"),
    ("koopman.hausdorff_pairs", "count", "lower"),
    ("koopman.ns_per_hausdorff_pair", "ns/pair", "lower"),
    ("koopman.eigen_oracle.ms", "ms", "lower"),
    *((f"koopman.ap_eps.us_per_grid_point.N{n}", "us/point", "lower") for n in KOOPMAN_N),
    *((f"koopman.ap_eps.ms.grid{g}", "ms", "lower") for g in GRID_SIZES),
    *((f"koopman.hausdorff.ns_per_pair.{b}", "ns/pair", "lower") for b in HAUSDORFF_BUCKETS),
    ("catalog.load.ms", "ms", "lower"),
    ("catalog.loads_per_op", "loads/op", "lower"),
    ("cli.dispatch.ms", "ms", "lower"),
    ("cli.render.ms", "ms", "lower"),
    *((f"cli.{command}.p50_ms", "ms", "lower") for command in Cli.COMMANDS),
    ("trace.ops_per_s", "ops/s", "higher"),
    ("trace.untraced_ops_per_s", "ops/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (latency, percentile).  With fewer than eleven samples the
    maximum stands in, at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


#: median time of the pace kernel on the 2-vCPU VM the bounds were proven on
PACE_REFERENCE_S = 1.4e-3


def pace() -> float:
    """The interpreter's pace now: median time of five runs of a fixed pure-Python loop.

    It calls no library code.  On a shared machine the pace of the same code
    swings by up to 1.5x over tens of seconds, with load from outside the
    process; the op times of the same seconds swing with it.
    """
    times = []
    for _ in range(5):
        began = perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        times.append(perf_counter() - began)
    return statistics.median(times)


def end_to_end(records, segments, setup_s: float, peak_rss_mb: float) -> dict:
    """Op times are paced: each wall time is rescaled to the reference pace.

    A segment's wall time, and the latency of every op in it, is multiplied
    by ``PACE_REFERENCE_S`` over the mean pace at the segment's two ends.
    Throughput is the ops (and queries) that passed over the paced sum of
    the segments.  The unscaled figures go into the notes.
    """
    walls, paces = segments
    scale = [PACE_REFERENCE_S / ((a + b) / 2) for a, b in zip(paces, paces[1:])]
    elapsed = sum(wall * s for wall, s in zip(walls, scale))
    done = [r for r in records if r.ok]
    latencies = [r.latency * scale[r.segment] for r in done] or [0.0]
    raw = [r.latency for r in done] or [0.0]
    tail_s, percentile = tail(latencies)
    attempted = len(records)
    return {
        "setup_s": (setup_s, 1),
        "ops_per_s": (len(done) / elapsed, len(done)),
        "queries_per_s": (sum(r.queries for r in done) / elapsed, len(done)),
        "op_p50_ms": (statistics.median(latencies) * 1e3, len(done)),
        "op_tail_ms": (tail_s * 1e3, len(done)),
        "ok_op_ratio": (len(done) / attempted, attempted),
        "peak_rss_mb": (peak_rss_mb, 1),
    }, {
        "op_tail_percentile": percentile,
        "op_tail_samples": len(done),
        "pace_checks": len(paces),
        "pace_median_ms": statistics.median(paces) * 1e3,
        "unpaced": {
            "ops_per_s": len(done) / sum(walls),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": tail(raw)[0] * 1e3,
        },
    }


def per_layer(tracer, records, elapsed, counters, fingerprint, cache_delta, untraced_elapsed) -> dict:
    """Every per-layer metric of the traced phase, as name -> (value, samples)."""
    count, total, acc = tracer.count, tracer.total, tracer.acc
    scoped_total, scoped_count = tracer.scoped_total, tracer.scoped_count

    def mean_ms(name):
        n = count.get(name, 0)
        return (total[name] / n * 1e3 if n else 0.0, n)

    def quotient(num, den, samples, scale=1.0):
        return (num / den * scale if den else 0.0, samples)

    def weighted(name):  # sum of values over sum of weights
        value, weight, samples = acc[name]
        return quotient(value, weight, samples)

    def fixed(name):
        return (fingerprint.get(name, 0), fingerprint.get("ops", 0))

    run = "core.run_algorithm"
    resolve, evaluate = "core.QueryFamily.resolve", "core.Query.evaluate"
    verify = "reductions.verify_reduction"
    pulled_queries = acc["reductions.pullback.source_queries"][0]
    counted_queries, _, counted_runs = acc["core.counted_queries"]
    trace_queries = acc["core.trace_queries"][0]
    pairs = acc["koopman.hausdorff_pairs"][0]
    hits, misses = cache_delta
    ops = len(records)

    metrics = {
        "core.run_algorithm.ms": mean_ms(run),
        "core.queries": fixed("core.queries"),
        "core.us_per_query": quotient(total[run], trace_queries, count[run], 1e6),
        "core.resolve.share": quotient(
            scoped_total[run, resolve] + scoped_total[run, evaluate], total[run],
            scoped_count[run, resolve],
        ),
        "core.protocol_calls_per_query": quotient(
            counters["protocol"].calls, counted_queries, counted_runs
        ),
        "core.probe_convergence.ms": mean_ms("core.probe_convergence"),
        "integration.stage_build.ms": mean_ms("integration.stage_build"),
        "integration.grid_cache.hit_ratio": quotient(hits, hits + misses, hits + misses),
        "integration.grid_cache.entries": fixed("integration.grid_cache.entries"),
        "integration.reference.ms": mean_ms("integration.reference"),
        "spectral.stage_build.ms": mean_ms("spectral.stage_build"),
        "spectral.oracle.ms": mean_ms("spectral.oracle"),
        "spectral.rational_block.entries": fixed("spectral.rational_block.entries"),
        "reductions.verify.ms": mean_ms(verify),
        "reductions.verify.us_per_query": quotient(
            total[verify], scoped_count[verify, resolve], count[verify], 1e6
        ),
        "reductions.compose.ms": mean_ms("reductions.compose"),
        "reductions.pullback.ms": mean_ms("reductions.pullback"),
        "reductions.pullback.inner_steps_per_source_query": quotient(
            counters["inner"].calls, pulled_queries, count["reductions.pullback"]
        ),
        "reductions.pullback.plan_rules_per_source_query": quotient(
            counters["rules"].calls, pulled_queries, count["reductions.pullback"]
        ),
        "reductions.pullback.slowdown_vs_native": quotient(
            total["reductions.pullback"], total["reductions.native_stage"], count["reductions.pullback"]
        ),
        "certificates.verdict.ms": mean_ms("certificates.verdict"),
        "degrees.construct.ms": mean_ms("degrees.construct"),
        "koopman.target.ms": mean_ms("koopman.target"),
        "koopman.grid_points": fixed("koopman.grid_points"),
        "koopman.us_per_grid_point": quotient(
            total["koopman.sigma_ap_eps"], count["koopman.sigma_inf"], count["koopman.sigma_ap_eps"], 1e6
        ),
        "koopman.hausdorff.ms": mean_ms("koopman.hausdorff"),
        "koopman.hausdorff_pairs": fixed("koopman.hausdorff_pairs"),
        "koopman.ns_per_hausdorff_pair": quotient(
            total["koopman.hausdorff"], pairs, count["koopman.hausdorff"], 1e9
        ),
        "koopman.eigen_oracle.ms": mean_ms("koopman.eigenvalue_oracle"),
        "catalog.load.ms": mean_ms("catalog.load_catalog"),
        "catalog.loads_per_op": quotient(count["catalog.load_catalog"], ops, ops),
        "cli.dispatch.ms": mean_ms("cli.dispatch"),
        "cli.render.ms": quotient(
            total["cli.main"] - scoped_total["cli.main", "cli.dispatch"], count["cli.main"],
            count["cli.main"], 1e3,
        ),
        "trace.ops_per_s": quotient(ops, elapsed, ops),
        "trace.untraced_ops_per_s": quotient(ops, untraced_elapsed, ops),
        "trace.overhead_ratio": quotient(elapsed, untraced_elapsed, ops),
    }
    for name, _unit, _better in PER_LAYER:
        if name in metrics:
            continue
        if name.startswith("cli.") and name.endswith(".p50_ms"):
            kind = name[: -len(".p50_ms")]
            latencies = [r.latency for r in records if r.kind == kind and r.ok]
            metrics[name] = (statistics.median(latencies) * 1e3 if latencies else 0.0, len(latencies))
        else:
            metrics[name] = weighted(name)
    return {name: metrics[name] for name, _unit, _better in PER_LAYER}
