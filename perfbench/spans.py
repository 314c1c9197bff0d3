"""Spans around kdvlab's public functions, installed from outside the package.

A traced run replaces each function in TARGETS, in every kdvlab namespace that
holds it, by a wrapper that records a span: name, start, end, parent span and
run id.  Patching every namespace matters because callers look functions up
where they imported them (``kdvlab.flows.gradient``,
``kdvlab.experiments.evolve``, ``kdvlab.solver.diagnostics_of``).  Spans and
counters stay in memory until the run ends.  Nothing under ``src/`` changes;
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np


def _kind(bound) -> str:
    return bound.arguments["spec"].kind.value


def _closure_size(support, n_max: int) -> int:
    """Size of the smallest mode set holding support and closed under sums.

    Computed here, independently of the solver, so the count survives a
    rewrite of the solver's own closure routine.
    """
    modes = {int(n) for n in support}
    while True:
        new = {a + b for a in modes for b in modes
               if a + b != 0 and abs(a + b) <= n_max} - modes
        if not new:
            return len(modes)
        modes |= new


def _evolve_steps(cfg) -> int:
    # evolve rounds t_final/dt so the final time is hit exactly
    return max(1, round(cfg.t_final / cfg.dt)) if cfg.t_final > 0 else 0


def _observe_evolve(tracer, bound, result):
    tracer.add("solver.evolve.steps", _evolve_steps(bound.arguments["cfg"]))
    # nonzero share of the lattice in the evolved state: near 1 for dense
    # traffic, 2*floor(N/N0)/(2N) for single-pair data on the N0-sublattice
    final = result[0][-1][1].values
    tracer.sample("spectral.state_density", np.count_nonzero(final) / (final.size - 1))


def _observe_envelope(tracer, bound, result):
    u0 = bound.arguments["u0"]
    tracer.add("solver.envelope_evolve.steps", bound.arguments["steps"])
    tracer.peak("solver.envelope_evolve.closure_modes",
                _closure_size(u0.support(), u0.lattice.n_max))


def _observe_flow(tracer, bound, result):
    tracer.add(f"flows.flow.{_kind(bound)}.substeps", bound.arguments["cfg"].substeps)


def _observe_gradient(tracer, bound, result):
    if _kind(bound) != "F2":
        return
    support = np.flatnonzero(bound.arguments["q"].values).tobytes()
    if support == tracer.last_f2_support:
        tracer.add("hamiltonians.gradient.F2.support_repeats", 1)
    tracer.last_f2_support = support


# (module, function) -> (span name, or "{kind}" template on the spec argument;
#                        observer recording exact counts, or None)
TARGETS = {
    ("spectral", "weighted_from_physical"): ("spectral.weighted_from_physical", None),
    ("spectral", "l2s_norm"): ("spectral.l2s_norm", None),
    ("spectral", "linear_phase"): ("spectral.linear_phase", None),
    ("hamiltonians", "eval_hamiltonian"): ("hamiltonians.eval_hamiltonian.{kind}", None),
    ("hamiltonians", "gradient"): ("hamiltonians.gradient.{kind}", _observe_gradient),
    ("flows", "flow"): ("flows.flow.{kind}", _observe_flow),
    ("flows", "u_of_q"): ("flows.u_of_q", None),
    ("flows", "q_of_u"): ("flows.q_of_u", None),
    ("flows", "near_identity_report"): ("flows.near_identity_report", None),
    ("solver", "evolve"): ("solver.evolve", _observe_evolve),
    ("solver", "diagnostics_of"): ("solver.diagnostics_of", None),
    ("solver", "kdv_step"): ("solver.kdv_step", None),
    ("solver", "envelope_evolve"): ("solver.envelope_evolve", _observe_envelope),
    ("data", "make_data"): ("data.make_data", None),
    ("data", "membership"): ("data.membership", None),
    ("experiments", "scan_error_term"): ("experiments.scan.error_term", None),
    ("experiments", "scan_near_identity"): ("experiments.scan.near_identity", None),
    ("experiments", "scan_linear_proximity"): ("experiments.scan.linear_proximity", None),
    ("cli", "main"): ("cli.main", None),
}

_SPAN_FIELDS = ("calls", "busy_s", "self_s")


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, run id, child seconds]
        self.spans = []
        self.counters = {}
        self.run_id = None
        self.active = False
        self.last_f2_support = None
        self._stack = []
        self._patched = []

    def begin(self, run_id) -> None:
        """Start recording spans and counters under run_id."""
        self.run_id = run_id
        self.last_f2_support = None
        self.active = True

    # -- counters ------------------------------------------------------------
    def _counts(self) -> dict:
        return self.counters.setdefault(self.run_id, {})

    def add(self, key: str, value) -> None:
        c = self._counts()
        c[key] = c.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        c = self._counts()
        c[key] = max(c.get(key, 0), value)

    def sample(self, key: str, value: float) -> None:
        self._counts().setdefault(key, []).append(float(value))

    # -- patching ------------------------------------------------------------
    def install(self, modules: dict) -> None:
        """Wrap every TARGETS function wherever a kdvlab module holds it."""
        for (mod_name, fn_name), (span, observe) in TARGETS.items():
            orig = getattr(modules[mod_name], fn_name)
            wrapper = self._wrap(orig, span, observe)
            for mod in modules.values():
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, orig))

    def uninstall(self) -> None:
        for mod, fn_name, orig in reversed(self._patched):
            setattr(mod, fn_name, orig)
        self._patched.clear()

    def _wrap(self, fn, span_name: str, observe):
        sig = inspect.signature(fn)
        templated = "{kind}" in span_name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            bound = None
            if templated or observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            name = span_name.format(kind=_kind(bound)) if templated else span_name
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.run_id, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][5] += span[2] - span[1]
            if observe is not None:
                observe(self, bound, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------
    def layer_metrics(self, run_id, names) -> dict:
        """Per-layer metric values of one traced pass, 0 where a layer is idle.

        ``calls``, ``busy_s`` and ``self_s`` come from spans named by the
        metric's prefix; self time is a span's duration minus the time its
        child spans cover.
        """
        stats = {}
        for name, start, end, _, rid, child in self.spans:
            if rid == run_id:
                s = stats.setdefault(name, [0, 0.0, 0.0])
                s[0] += 1
                s[1] += end - start
                s[2] += end - start - child
        counts = self.counters.get(run_id, {})
        out = {}
        for metric in names:
            prefix, _, field = metric.rpartition(".")
            if field in _SPAN_FIELDS:
                out[metric] = stats.get(prefix, [0, 0.0, 0.0])[_SPAN_FIELDS.index(field)]
            elif metric == "solver.evolve.step_s":
                steps = counts.get("solver.evolve.steps", 0)
                out[metric] = stats["solver.evolve"][2] / steps if steps else 0.0
            elif metric == "hamiltonians.gradient.F2.support_repeat_frac":
                calls = stats.get("hamiltonians.gradient.F2", [0])[0]
                repeats = counts.get("hamiltonians.gradient.F2.support_repeats", 0)
                out[metric] = repeats / calls if calls else 0.0
            elif metric == "spectral.state_density":
                samples = counts.get(metric, [])
                out[metric] = sum(samples) / len(samples) if samples else 0.0
            else:
                out[metric] = counts.get(metric, 0)
        return out
