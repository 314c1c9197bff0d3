"""Kernel invariants of the package source, read from its syntax trees.

Each module of src/kdvlab is parsed with ast, so names in docstrings and
comments do not count.  The rules:

- exactly one np.convolve call, in hamiltonians._product: every quadratic
  term outside the ETDRK4 stepper is that one exact spectral product;
- no np.add.at: scatters are np.bincount (hamiltonians._scatter_add);
- numpy.fft is reached only through spectral._fft, which imports it on a
  helper thread.  An np.fft access on the main thread could meet a signal
  handler that re-enters NumPy's lazy numpy.fft import and recurses without
  end (see tests/test_dependencies.py);
- the solver's ETDRK4 step and its small-K product (solver._etdrk4_stepper
  and solver._quadratic, nested functions included) call none of _mirror,
  np.concatenate, np.convolve or _product: a stage is written into the run's
  own buffer and multiplied against a fixed Toeplitz view of it;
- the nested functions of solver._etdrk4_stepper and solver._quadratic (the
  stage algebra and the product) contain no binary operator: every per-step
  array operation is a ufunc or transform with out= writing into a run
  buffer, so a step allocates no array;
- the solver's time loop (solver._time_loop and the _record it appends
  through) calls neither SpectralSequence nor _full_lattice, so a record
  stays O(K): the trajectory builds full-lattice states only when read;
- flows.flow, nested functions included, never calls gradient, and its one
  SpectralSequence call is in its return statement: the RK4 stages pass raw
  arrays to hamiltonians._gradient_values, and a flow builds one state, its
  result;
- the one function of hamiltonians that hamiltonians.eval_hamiltonian calls
  is _gradient_values, and hamiltonians reaches neither spectral._fft nor
  spectral._fft_size: a value is Euler's identity on the gradient kernel,
  with no second value path beside it;
- nothing imports concurrent, and only solver calls stability_budget: a scan
  runs its epsilon points serially at the configured dt, and evolve alone
  applies the stability heuristic;
- in experiments, make_data is called only in _scan, and evolve and
  envelope_evolve only in _at_horizon: one driver makes each grid point's
  data, and one helper runs it to the horizon with the config's integrator.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kdvlab"
FFT_GATE = ("spectral", "_fft")


def _walk(node, scope):
    """(scope, node) for every node below node; scope is the dotted name of
    the enclosing function or class, "" at module level."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield inner, child
        yield from _walk(child, inner)


def _nodes():
    """(module, scope, node) over every module of the package."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, node in _walk(tree, ""):
            yield path.stem, scope, node


def _dotted(node) -> str:
    """"np.fft.rfft" for an attribute chain on a name, else ""."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


def _is_numpy_fft(node) -> bool:
    if isinstance(node, ast.Attribute):
        return _dotted(node) in ("np.fft", "numpy.fft")
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.fft") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        mod = node.module or ""
        return mod.startswith("numpy.fft") or (
            mod == "numpy" and any(alias.name == "fft" for alias in node.names))
    # importlib.import_module("numpy.fft") and the like
    return isinstance(node, ast.Constant) and node.value == "numpy.fft"


def test_one_convolution_in_product():
    sites = [(module, scope) for module, scope, node in _nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "convolve"]
    assert sites == [("hamiltonians", "_product")]


def test_no_add_at():
    sites = [(module, scope) for module, scope, node in _nodes()
             if isinstance(node, ast.Attribute) and node.attr == "at"
             and isinstance(node.value, ast.Attribute) and node.value.attr == "add"]
    assert sites == []


def test_numpy_fft_only_behind_gate():
    sites = [(module, scope) for module, scope, node in _nodes()
             if _is_numpy_fft(node)]
    assert sites and set(sites) == {FFT_GATE}


def test_etdrk4_step_builds_no_full_state():
    stepper = ("_etdrk4_stepper", "_quadratic")
    scopes = {scope for module, scope, _ in _nodes() if module == "solver"}
    assert set(stepper) <= scopes
    sites = [(scope, _dotted(node.func)) for module, scope, node in _nodes()
             if module == "solver" and scope.split(".")[0] in stepper
             and isinstance(node, ast.Call)
             and _dotted(node.func).split(".")[-1] in ("_mirror", "concatenate",
                                                       "convolve", "_product")]
    assert sites == []


def test_etdrk4_stages_write_into_buffers():
    stepper = ("_etdrk4_stepper", "_quadratic")
    nested = [(scope, node) for module, scope, node in _nodes()
              if module == "solver" and scope.split(".")[0] in stepper and "." in scope]
    assert {"_etdrk4_stepper.increment", "_quadratic.product"} <= {s for s, _ in nested}
    sites = [(scope, type(node.op).__name__) for scope, node in nested
             if isinstance(node, ast.BinOp)]
    assert sites == []


def test_time_loop_builds_no_full_state():
    loop = ("_time_loop", "_record")
    scopes = {scope for module, scope, _ in _nodes() if module == "solver"}
    assert set(loop) <= scopes
    sites = [(scope, _dotted(node.func)) for module, scope, node in _nodes()
             if module == "solver" and scope.split(".")[0] in loop
             and isinstance(node, ast.Call)
             and _dotted(node.func).split(".")[-1] in ("SpectralSequence", "_full_lattice")]
    assert sites == []


def test_flow_stages_build_no_state():
    body = [node for module, scope, node in _nodes()
            if module == "flows" and scope.split(".")[0] == "flow"]
    assert body
    returned = {id(node) for ret in body if isinstance(ret, ast.Return)
                for node in ast.walk(ret)}
    sites = [(_dotted(node.func), id(node) in returned) for node in body
             if isinstance(node, ast.Call)
             and _dotted(node.func).split(".")[-1] in ("SpectralSequence", "gradient")]
    assert sites == [("SpectralSequence", True)]


def test_values_come_from_the_gradient_kernel():
    nodes = [(scope, node) for module, scope, node in _nodes() if module == "hamiltonians"]
    defined = {node.name for scope, node in nodes
               if isinstance(node, ast.FunctionDef) and scope == node.name}
    assert {"eval_hamiltonian", "_gradient_values"} <= defined
    calls = [_dotted(node.func) for scope, node in nodes
             if scope.split(".")[0] == "eval_hamiltonian" and isinstance(node, ast.Call)]
    assert [name for name in calls if name in defined] == ["_gradient_values"]
    fft_names = ("_fft", "_fft_size")
    sites = [scope for scope, node in nodes
             if (isinstance(node, ast.Name) and node.id in fft_names)
             or (isinstance(node, ast.Attribute) and node.attr in fft_names)
             or (isinstance(node, ast.alias) and node.name in fft_names)]
    assert sites == []


def test_scans_run_serially_at_the_configured_dt():
    pools = [(module, scope) for module, scope, node in _nodes()
             if (isinstance(node, ast.Import)
                 and any(alias.name.split(".")[0] == "concurrent" for alias in node.names))
             or (isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "concurrent")]
    assert pools == []
    budget = {module for module, scope, node in _nodes()
              if isinstance(node, ast.Call)
              and _dotted(node.func).split(".")[-1] == "stability_budget"}
    assert budget == {"solver"}


def test_one_scan_driver_and_one_horizon_run():
    scopes = {scope for module, scope, _ in _nodes() if module == "experiments"}
    assert {"_scan", "_at_horizon"} <= scopes
    sites = sorted((_dotted(node.func), scope.split(".")[0])
                   for module, scope, node in _nodes()
                   if module == "experiments" and isinstance(node, ast.Call)
                   and _dotted(node.func).split(".")[-1] in ("make_data", "evolve",
                                                              "envelope_evolve"))
    assert sites == [("envelope_evolve", "_at_horizon"), ("evolve", "_at_horizon"),
                     ("make_data", "_scan")]
