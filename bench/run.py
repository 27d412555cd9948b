"""Workbench benchmark: four workloads, each in its own fresh process.

Run from the repository root:

    python3 bench/run.py                                  # all workloads, development seed
    python3 bench/run.py --workload towers --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload cli --trace 1         # per-layer split

Each workload runs as a closed loop with one client, issuing ops from the
seed's fixed op sequence for ``--seconds``.  With ``--trace 0`` the run
prints the end-to-end metrics; set-up time is the median of several
set-ups, each in a fresh process.  With ``--trace 1`` it prints the
per-layer metrics of a separate traced run, plus the tracing overhead and
the exact-count fingerprint.  Every metric is printed with its
unit and sample count; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
with provenance, are written to ``.bench_results/``.

The command exits non-zero when a valid op fails its output check.  A
malformed request that is not refused cleanly counts as a failed op without
making the run incorrect.  Seeds: use the development seed while working on
a change and the held-out seed for the claim.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("towers", "transport", "koopman", "cli")
DEV_SEED = 1
HELDOUT_SEED = 7919
RUN_SECONDS = 25
SETUP_SAMPLES = 9  # four probes before the measured run, its own set-up, four probes after
WORKLOAD_BUDGET_S = 170  # all processes of one workload

#: numpy's OpenBLAS would otherwise start one thread per core; a fixed hash
#: seed makes one seed's runs hash (and so lay out sets and dicts) alike
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


def child(args: list[str], timeout: float = WORKLOAD_BUDGET_S) -> dict:
    """Run the worker in a fresh process, one at a time, and parse its last line."""
    env = dict(os.environ, **PINNED_ENV)
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {' '.join(args)} timed out after {timeout:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker {' '.join(args)} failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # an exported tree; git would look in the directories above
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    probes = SETUP_SAMPLES // 2 if not trace else 0
    deadline = time.monotonic() + WORKLOAD_BUDGET_S

    def setup_probes():
        return [child(common + ["--setup-only"], deadline - time.monotonic())["setup_s"]
                for _ in range(probes)]

    # probes on both sides of the measured run sample the machine at more moments
    setups = setup_probes()
    result = child(common + ["--seconds", str(seconds), "--trace", str(trace)],
                   deadline - time.monotonic())
    if not trace:
        setups += [result["setup_s"]] + setup_probes()
        result["metrics"]["setup_s"] = [statistics.median(setups), len(setups)]
        result["setup_samples"] = setups
    result["provenance"].update(git_commit=git_commit(), command=sys.argv)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    return result


def units() -> dict[str, str]:
    sys.path.insert(0, str(BENCH))
    import metrics  # the worker's metric table; imports no library code

    return {name: unit for name, unit, _ in metrics.END_TO_END + metrics.PER_LAYER}


def report(result: dict, unit_of: dict[str, str]) -> None:
    name = result["workload"]
    print(f"# {name}  seed {result['seed']}  trace {result['trace']}  "
          f"attempted {result['attempted']}  failed {result['failed']} "
          f"(valid ops failed: {result['failed_valid']})")
    for metric, (value, samples) in result["metrics"].items():
        print(f"{name:10s} {metric:52s} {value:16.6f} {unit_of[metric]:12s} n={samples}")
    if "notes" in result:
        notes = result["notes"]
        print(f"{name:10s} op_tail_ms is p{notes['op_tail_percentile']:.2f} "
              f"of {notes['op_tail_samples']} completed ops; "
              f"failed_op_ratio {result['failed'] / result['attempted']:.6f}")
        unpaced = " ".join(f"{k} {v:.6f}" for k, v in notes["unpaced"].items())
        print(f"{name:10s} unpaced {unpaced}; pace kernel median {notes['pace_median_ms']:.4f} ms "
              f"over {notes['pace_checks']} checks")
    if "fingerprint" in result:
        print(f"{name:10s} fingerprint {json.dumps(result['fingerprint'], sort_keys=True)}")
    for failure in result["failures"][:5]:
        print(f"{name:10s} failed op {json.dumps(failure)}")
    prov = result["provenance"]
    print(f"{name:10s} provenance nproc={prov['nproc']} python={prov['python']} "
          f"numpy={prov['numpy']} blas={prov['blas'].get('name')} {prov['blas'].get('version')} "
          f"threads={prov['process_threads']} commit={prov['git_commit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Workbench benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEV_SEED,
                        help=f"development seed {DEV_SEED}, held-out seed {HELDOUT_SEED}")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    unit_of = units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    for result in results:
        report(result, unit_of)

    def metric_block(result, prefix=""):
        return {prefix + m: {"value": v, "unit": unit_of[m]} for m, (v, _) in result["metrics"].items()}

    metrics_out = {}
    for result in results:
        metrics_out.update(metric_block(result, "" if len(results) == 1 else result["workload"] + "."))
    correct = all(r["failed_valid"] == 0 for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics_out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
