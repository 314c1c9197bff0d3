"""kdvlab benchmark: times the package's public functions from outside it.

Run from the root of a checkout (no build step; the package is imported from
``src/``):

    python3 perfbench/run.py --workload error-scan --seed 1 --seconds 25 --trace 0

Every pass runs in a fresh interpreter (``worker.py``), the way a ``kdvlab``
command runs, so work done once per process, such as a table built on first
use, is paid in every pass.  Each pass is one process, ``workers=1``, BLAS
threads capped at nproc; passes run one after another for ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the passes; timings are at reference speed (``speed.py``), so that the
shared host's changing speed does not show as a change of kdvlab.  ``--trace 1`` alternates untraced and traced passes (spans
from ``spans.py``) and reports the per-layer metrics, as medians over the
traced passes, with ``trace.overhead_s``.

The last line of standard output is the result object; the line before it
holds the environment block and per-pass details.  Without ``src/kdvlab`` in
the checkout the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import stolen_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 5
MIN_TRACE_PASSES = 2
PASS_TIMEOUT_S = 150
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMING_NOTE = ("only the benchmark's own processes are timed: each pass is a fresh "
               "interpreter started by this one; wall by time/perf_counter, CPU by "
               "process_time, peak RSS by getrusage(RUSAGE_SELF) in the pass; "
               "timings leave out steal time (/proc/stat) and are scaled to reference "
               "speed by the pass's own speed meter (speed.py), raw ones are in details; no system-wide tracing or cache "
               "control is used")


def parse_args(workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def _commit() -> str:
    """HEAD of the checkout, or 'unknown' where it is not a git work tree."""
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kdvlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(args, mode: str, index: int, env: dict) -> dict:
    """One pass in a fresh interpreter; its report is the last line it prints."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           mode, str(index)]
    started, stolen = time.time(), stolen_s()
    out = subprocess.run(cmd + [repr(started), repr(stolen)], env=env, cwd=ROOT, capture_output=True,
                         text=True, timeout=PASS_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"{mode} pass {index} exited with {out.returncode}:\n"
                           f"{out.stderr[-4000:]}")
    return json.loads(out.stdout.splitlines()[-1])


def run_passes(budget: float, min_passes: int, one_pass) -> list:
    """one_pass(i) for i = 0, 1, ...: at least min_passes, then while the next fits budget."""
    reports = []
    start = time.perf_counter()
    while True:
        reports.append(one_pass(len(reports)))
        elapsed = time.perf_counter() - start
        if len(reports) >= min_passes and elapsed * (len(reports) + 1) / len(reports) > budget:
            return reports


def median_of(reports, key):
    return statistics.median(r[key] for r in reports)


def main() -> int:
    if not (SRC / "kdvlab" / "__init__.py").is_file():
        print(f"kdvlab sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args([w["name"] for w in spec["workloads"]])

    nproc = len(os.sched_getaffinity(0))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(HERE)))}
    # OpenBLAS and OpenMP read these once, when NumPy loads them
    env.update({var: str(nproc) for var in BLAS_ENV})
    (HERE / ".work").mkdir(exist_ok=True)

    if args.trace:
        # alternate untraced and traced passes so both see the same machine
        reports = run_passes(args.seconds, 2 * MIN_TRACE_PASSES,
                             lambda i: run_pass(args, ("timed", "traced")[i % 2], i, env))
        untraced, traced = reports[0::2], reports[1::2]
        values = {n: statistics.median(r["layers"][n] for r in traced)
                  for n in traced[0]["layers"]}
        values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
        declared = spec["per_layer"]
    else:
        reports = untraced = run_passes(args.seconds, MIN_PASSES,
                                        lambda i: run_pass(args, "timed", i, env))
        values = {
            "setup_s": median_of(untraced, "setup_s"),
            "wall_s": median_of(untraced, "wall_s"),
            "task_p50_s": statistics.median(w for r in untraced for w in r["task_wall_s"]),
            "cpu_s": median_of(untraced, "cpu_s"),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        }
        declared = spec["end_to_end"]

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    missed = [m for r in reports for m in r["self_test"]]
    details = {
        "passes": len(reports),
        "tasks": attempted,
        **{key: [r[key] for r in reports]
           for key in ("import_s", "setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                       "raw_setup_s", "raw_wall_s", "raw_cpu_s", "kernel_s",
                       "kernel_samples")},
        "pass_mode": ["traced" if "layers" in r else "timed" for r in reports],
        "problems": [p for r in reports for p in r["problems"]][:10],
        "self_test": missed or "ok",
    }
    env_block = {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": reports[0]["numpy"],
        "blas_threads": nproc,
        "workers": 1,
        "timing": TIMING_NOTE,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"environment": env_block, "details": details}))
    print(json.dumps({
        "correct": failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
