"""The benchmark's run-time tracer still binds to kdvlab.

perfbench/spans.py wraps kdvlab's public functions from outside the package
and its observers read arguments by name (u0, steps, cfg, spec, q).  A src/
refactor that renames one breaks only the traced benchmark passes, so this
installs the unmodified tracer, makes one tiny call of each observed
function, and checks that every observer filled its counters.
"""

import pathlib
import types

import kdvlab
import kdvlab.cli  # noqa: F401  (the tracer patches cli.main too)

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = ("spectral", "hamiltonians", "flows", "solver", "data", "experiments", "cli")


def load_spans():
    # compiled in memory, so the suite writes no bytecode cache under perfbench/
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_observers_fill_their_counters():
    tracer = load_spans().Tracer()
    modules = {"kdvlab": kdvlab, **{m: getattr(kdvlab, m) for m in MODULES}}
    tracer.install(modules)
    try:
        tracer.begin("probe")
        lat = kdvlab.ModeLattice(16, 49)
        u0 = kdvlab.sequence_from_modes(lat, {4: 0.1, -4: 0.1})
        kdvlab.solver.evolve(u0, kdvlab.SolverConfig(dt=1e-3, t_final=5e-3, lattice=lat))
        kdvlab.solver.envelope_evolve(u0, 0.1, steps=4)
        kdvlab.flows.flow(kdvlab.F1, u0, 1.0, kdvlab.FlowConfig(substeps=8))
        for _ in range(2):
            kdvlab.hamiltonians.gradient(kdvlab.F2, u0)
    finally:
        tracer.uninstall()
    assert kdvlab.solver.evolve.__module__ == "kdvlab.solver"
    assert not hasattr(kdvlab.solver.evolve, "__wrapped__")
    counts = tracer.counters["probe"]
    assert counts["solver.evolve.steps"] == 5
    # the closure {+-4, +-8, +-12, +-16}: 8 of the 32 active modes
    assert counts["spectral.state_density"] == [8 / 32]
    assert counts["solver.envelope_evolve.steps"] == 4
    assert counts["solver.envelope_evolve.closure_modes"] == 8
    assert counts["flows.flow.F1.substeps"] == 8
    assert counts["hamiltonians.gradient.F2.support_repeats"] == 1
    names = {span[0] for span in tracer.spans}
    assert {"solver.evolve", "solver.envelope_evolve", "flows.flow.F1",
            "hamiltonians.gradient.F2"} <= names
