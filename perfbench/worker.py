"""One benchmark pass in a fresh interpreter, started by run.py.

    PYTHONPATH=src:perfbench python3 perfbench/worker.py WORKLOAD SEED MODE PASS STARTED STOLEN

MODE is ``timed`` (end-to-end figures) or ``traced`` (per-layer figures from
spans.py).  STARTED is the parent's ``time.time()`` just before it started
this process, and STOLEN the machine's steal time then (``speed.stolen_s``),
so ``setup_s`` runs from process start, through the import of
NumPy and kdvlab and the workload's set-up, to the first timed task: what a
``kdvlab`` command pays on every call.  The pass then runs each task once,
timed; checks its outputs and the self-test outside the timing; and prints
one JSON line.  From the import of kdvlab to the end of the last task, a
speed meter (``speed.py``) samples the CPU's speed; the timings leave out
steal time and are reported at reference speed, next to the raw ones.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

import numpy

from spans import Tracer
from speed import SpeedMeter, running_s, stolen_s
from workloads import WORKLOADS, failures, self_test

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("spectral", "hamiltonians", "flows", "solver", "data", "experiments", "cli")


def main(workload: str, seed: int, mode: str, pass_index: int, started: float,
         stolen0: float) -> int:
    meter = SpeedMeter()
    meter.start()
    try:
        return run_pass(meter, workload, seed, mode, pass_index, started, stolen0)
    finally:
        meter.stop()


def run_pass(meter: SpeedMeter, workload: str, seed: int, mode: str, pass_index: int,
             started: float, stolen0: float) -> int:
    import kdvlab
    import kdvlab.cli  # noqa: F401  (loads every submodule)

    import_s = time.time() - started - meter.spent_wall
    if Path(kdvlab.__file__).resolve().parent != SRC / "kdvlab":
        print(f"kdvlab imported from {kdvlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    modules = {"kdvlab": kdvlab, **{m: getattr(kdvlab, m) for m in MODULES}}
    kd = types.SimpleNamespace(**modules)
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install(modules)
        tracer.begin(pass_index)

    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / ".work")
    try:
        tasks = WORKLOADS[workload](kd, seed, workdir)
        raw_setup_s = time.time() - started - meter.spent_wall
        setup_s = running_s(raw_setup_s, time.process_time() - meter.spent_cpu,
                            stolen_s() - stolen0)

        raw_walls, walls, cpus, outputs = [], [], [], []
        for task in tasks:
            w0, c0, s0 = time.perf_counter(), time.process_time(), stolen_s()
            mw0, mc0 = meter.spent_wall, meter.spent_cpu
            try:
                out, error = task.run(), None
            except Exception:  # a task that raises counts as failed
                out, error = None, traceback.format_exc(limit=4)
            raw_walls.append(time.perf_counter() - w0 - (meter.spent_wall - mw0))
            cpus.append(time.process_time() - c0 - (meter.spent_cpu - mc0))
            walls.append(running_s(raw_walls[-1], cpus[-1], stolen_s() - s0))
            outputs.append((task, out, error))
        meter.stop()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.active = False

        problems, missed = [], []
        for task, out, error in outputs:
            try:
                bad = [error] if error else failures(task.summarize(out), task.checks)
                if not bad:
                    missed += self_test(task, out)
            except Exception:
                bad = [traceback.format_exc(limit=4)]
            if bad:
                problems.append({"task": task.label, "failures": bad})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    k = meter.factor()
    report = {
        "import_s": import_s, "setup_s": setup_s * k, "wall_s": sum(walls) * k,
        "cpu_s": sum(cpus) * k, "task_wall_s": [w * k for w in walls],
        "raw_setup_s": raw_setup_s, "raw_wall_s": sum(raw_walls), "raw_cpu_s": sum(cpus),
        "kernel_s": meter.kernel_s(), "kernel_samples": len(meter.samples),
        "peak_rss_mb": rss_mb,
        "attempted": len(outputs), "failed": len(problems), "problems": problems,
        "self_test": missed, "numpy": numpy.__version__,
    }
    if tracer is not None:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        report["layers"] = tracer.layer_metrics(pass_index,
                                                [m["name"] for m in spec["per_layer"]])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    name, seed, mode, index, started, stolen = sys.argv[1:7]
    sys.exit(main(name, int(seed), mode, int(index), float(started), float(stolen)))
