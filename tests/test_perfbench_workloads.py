"""The benchmark's own output checks pass on the current kdvlab.

perfbench/workloads.py checks each workload's output against acceptance
bounds (drift, constants, slopes, the h^{3/2} monitor) and self-tests every
check with a corrupted copy of the real output.  A src/ change that breaks a
check, or a quantity a check reads, otherwise shows only in a benchmark run,
so this builds every workload once, runs each of its tasks and applies the
same checks and self-test as a benchmark pass.
"""

import pathlib
import sys
import types

import pytest

import kdvlab
import kdvlab.cli  # noqa: F401  (the envelope-scan task runs cli.main)

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
MODULES = ("spectral", "hamiltonians", "flows", "solver", "data", "experiments", "cli")


def load_workloads():
    # compiled in memory, so the suite writes no bytecode cache under perfbench/;
    # registered while it runs, as @dataclass looks its module up by name
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


BENCH = load_workloads()


@pytest.mark.parametrize("workload", sorted(BENCH.WORKLOADS))
def test_workload_outputs_pass_their_checks(workload, tmp_path):
    kd = types.SimpleNamespace(kdvlab=kdvlab, **{m: getattr(kdvlab, m) for m in MODULES})
    tasks = BENCH.WORKLOADS[workload](kd, 1, str(tmp_path))
    assert tasks
    for task in tasks:
        out = task.run()
        assert BENCH.failures(task.summarize(out), task.checks) == []
        assert BENCH.self_test(task, out) == []
