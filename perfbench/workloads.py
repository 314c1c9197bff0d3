"""The four workloads: inputs, the tasks of one pass, and their output checks.

Each workload stands for a real command at the inputs of an acceptance line
(AC3-AC6), cut so that one pass takes seconds.  ``setup(kd, seed, workdir)``
builds the inputs and returns the pass as a list of Tasks.  A task's ``run``
is the timed call into kdvlab; ``summarize`` reduces its output to the numbers
the checks read, outside the timed region.  Each Check carries a corruption of
the real output that must break it, which ``self_test`` confirms.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


@dataclass
class Check:
    """One acceptance bound on a task's summary, with a corruption of the
    task's real output that must break it."""
    key: str
    op: str  # "<=", ">=" or "=="
    limit: object
    corrupt: Callable[[object], object]


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    checks: list  # of Check


def failures(summary: dict, checks) -> list:
    """Checks the summary breaks; a missing or NaN quantity breaks its check."""
    bad = []
    for check in checks:
        value = summary.get(check.key, math.nan)
        if check.op == "<=":
            ok = value <= check.limit
        elif check.op == ">=":
            ok = value >= check.limit
        else:
            ok = value == check.limit
        if not ok:
            bad.append(f"{check.key}={value!r} violates {check.op} {check.limit!r}")
    return bad


def self_test(task: Task, out) -> list:
    """Checks that pass a corrupted copy of a real, passing output.

    Each corruption moves one quantity of the output a small relative margin
    (PAST) beyond its bound; the copy then goes through the task's own
    summarize, so the reductions are tested along with the comparisons.
    """
    return [f"{task.label}: corrupted {c.key} {c.op} {c.limit!r} passed"
            for c in task.checks
            if not failures(task.summarize(c.corrupt(out)), [c])]


# how far past its bound a corruption moves a quantity, as a factor
PAST = 1.01


def _with_constant(s, value):
    """Corruption: a scan report whose constant C(s) reads value."""
    return lambda rep: replace(rep, constants={**rep.constants, s: value})


def _with_column(col: int, value, first_only: bool = False):
    """Corruption: a scan report whose rows (or first row) read value in col."""
    def corrupt(rep):
        rows = [r[:col] + (value,) + r[col + 1:] if i == 0 or not first_only else r
                for i, r in enumerate(rep.rows)]
        return replace(rep, rows=rows)
    return corrupt


# ---------------------------------------------------------------------------
# evolve-dense: direct ETDRK4 at N = 512 (AC3's inputs, horizons cut)
# ---------------------------------------------------------------------------

KAPPA = 4.0
DRIFT_MAX = 1e-8
SOLITON_ERR_MAX = 1e-3


def _drift(series) -> float:
    return abs(series[-1] - series[0]) / abs(series[0])


def _with_drift(name: str):
    """Corruption: evolve output whose diagnostic `name` drifts just past DRIFT_MAX."""
    def corrupt(out):
        traj, diags = out
        series = getattr(diags, name)
        last = series[0] * (1.0 + DRIFT_MAX * PAST)
        return traj, replace(diags, **{name: series[:-1] + [last]})
    return corrupt


def evolve_dense(kd, seed: int, workdir: str) -> list:
    """Random-band data and the kappa = 4 soliton, both from the seed.

    The drift checks apply to the band run (dt = 5e-6, as AC3(c)); the
    soliton runs at dt = 1e-4, where AC3 checks transport error only.
    """
    sp = kd.spectral
    lat = sp.ModeLattice(512, 1537)
    rng = np.random.default_rng(seed)
    band = kd.data.make_data(kd.data.DataSpec(
        family=kd.data.Family.RANDOM_BAND, epsilon=0.1, rho=1.0, lattice=lat,
        bandwidth=1, seed=int(rng.integers(2**31))))
    # 500 steps, like the soliton run, so both tasks cost about the same and
    # the task median does not fall in the gap between two clusters
    band_cfg = kd.solver.SolverConfig(dt=5e-6, t_final=2.5e-3, lattice=lat)
    x0 = float(rng.uniform(-math.pi, math.pi))
    soliton = sp.weighted_from_physical(kd.solver.soliton_reference(KAPPA, 0.0, x0, lat))
    t_end = 0.05
    sol_cfg = kd.solver.SolverConfig(dt=1e-4, t_final=t_end, lattice=lat)

    def band_summary(out) -> dict:
        _, diags = out
        return {"drift_h": _drift(diags.H), "drift_k": _drift(diags.K)}

    def soliton_reference():
        shift = 6.0 * kd.solver.soliton_mean(KAPPA) * t_end
        return sp.weighted_from_physical(
            kd.solver.soliton_reference(KAPPA, t_end, x0 + shift, lat))

    def rel_err(values, ref) -> float:
        diff = sp.SpectralSequence(lat, values - ref.values, real_type=False)
        return sp.l2s_norm(diff, 0.5) / sp.l2s_norm(ref, 0.5)

    def soliton_summary(out) -> dict:
        traj, _ = out
        return {"rel_err": rel_err(traj[-1][1].values, soliton_reference())}

    def with_soliton_error(out):
        # the final state's own error, scaled to just past SOLITON_ERR_MAX
        traj, diags = out
        t, final = traj[-1]
        ref = soliton_reference()
        scale = SOLITON_ERR_MAX * PAST / rel_err(final.values, ref)
        bad = sp.SpectralSequence(lat, ref.values + (final.values - ref.values) * scale,
                                  real_type=False)
        return traj[:-1] + [(t, bad)], diags

    return [
        Task("band", lambda: kd.solver.evolve(band, band_cfg), band_summary,
             [Check("drift_h", "<=", DRIFT_MAX, _with_drift("H")),
              Check("drift_k", "<=", DRIFT_MAX, _with_drift("K"))]),
        Task("soliton", lambda: kd.solver.evolve(soliton, sol_cfg), soliton_summary,
             [Check("rel_err", "<=", SOLITON_ERR_MAX, with_soliton_error)]),
    ]


# ---------------------------------------------------------------------------
# the scans: inputs fixed by ScanConfig, so the seed is not used
# ---------------------------------------------------------------------------

def _scan_config(kd, grid, n_max, s_values, **overrides):
    lat = kd.spectral.ModeLattice(n_max, 3 * n_max + 1)
    base = dict(
        epsilon_grid=grid, rho=1.0, horizon_exponent=0.25, s_values=s_values,
        data=kd.data.DataSpec(family=kd.data.Family.SINGLE_PAIR, epsilon=grid[0],
                              rho=1.0, lattice=lat),
        solver=kd.solver.SolverConfig(dt=1e-4, t_final=1.0, lattice=lat),
    )
    base.update(overrides)
    return kd.experiments.ScanConfig(**base)


def error_scan(kd, seed: int, workdir: str) -> list:
    """scan_error_term on single-pair data, AC5's epsilon shape cut to seconds.

    N = 64, dt = 5e-4 and 8 flow substeps keep AC5's bounds (C(0) = 0.765,
    C(0.5) = 0.858, median order 1.96 on the seed code) at ~4 s per scan.
    The grid stays (0.1, 0.08, 0.06, 0.05): the finer (0.05, ..., 0.025)
    grid gives a consistency order near 3.
    """
    lat_n = 64
    lat = kd.spectral.ModeLattice(lat_n, 3 * lat_n + 1)
    cfg = _scan_config(kd, (0.1, 0.08, 0.06, 0.05), lat_n, (0.0, 0.5),
                       horizon_exponent=0.02,
                       solver=kd.solver.SolverConfig(dt=5e-4, t_final=1.0, lattice=lat),
                       flow=kd.flows.FlowConfig(substeps=8))

    def summary(rep) -> dict:
        return {"C0": rep.constants[0.0], "C05": rep.constants[0.5],
                "median_order": statistics.median(r[3] for r in rep.rows)}

    order = 3  # column of consistency_order
    return [Task("scan", lambda: kd.experiments.scan_error_term(cfg), summary,
                 [Check("C0", "<=", 1.0, _with_constant(0.0, 1.0 * PAST)),
                  Check("C05", "<=", 1.0, _with_constant(0.5, 1.0 * PAST)),
                  Check("median_order", ">=", 1.6, _with_column(order, 1.6 / PAST)),
                  Check("median_order", "<=", 2.4, _with_column(order, 2.4 * PAST))])]


def transform_scan(kd, seed: int, workdir: str) -> list:
    """scan_near_identity on AC4's config, unchanged (N = 256)."""
    cfg = _scan_config(kd, (0.1, 0.05, 0.025, 0.0125), 256, (0.0, 0.5, 1.0))

    def summary(rep) -> dict:
        return {"membership_all": all(r[3] for r in rep.rows),
                "C0": rep.constants[0.0], "C05": rep.constants[0.5],
                "C1": rep.constants[1.0]}

    return [Task("scan", lambda: kd.experiments.scan_near_identity(cfg), summary,
                 [Check("membership_all", "==", True,
                        _with_column(3, False, first_only=True)),  # membership_after
                  Check("C0", "<=", 0.05, _with_constant(0.0, 0.05 * PAST)),
                  Check("C05", "<=", 0.05, _with_constant(0.5, 0.05 * PAST)),
                  Check("C1", "<=", 0.05, _with_constant(1.0, 0.05 * PAST))])]


BRIDGE_TOL = 1e-12


def envelope_scan(kd, seed: int, workdir: str) -> list:
    """`kdvlab scan-theorem --json` in-process on AC6's config (N = 512).

    A task's output is (exit code, path of the JSON report); corruptions
    write an edited copy of the report next to it.
    """
    config = os.path.join(workdir, "envelope-scan.json")
    output = os.path.join(workdir, "envelope-scan.out.json")
    doc = {
        "epsilon_grid": [0.04, 0.02, 0.01, 0.005],
        "rho": 1.0,
        "horizon_exponent": 0.25,
        "s_values": [0.0, 0.5],
        "data": {"family": "single_pair", "lattice": {"n_max": 512, "m_samples": 1537}},
        "solver": {"dt": 1e-4},
        "integrator": "envelope",
        "envelope_steps": 256,
        "max_constants": {"0.5": 0.6},
    }
    with open(config, "w") as fh:
        json.dump(doc, fh)
    argv = ["scan-theorem", "--config", config, "--json", "--output", output]

    def run():
        if os.path.exists(output):
            os.remove(output)
        return kd.cli.main(argv), output

    def summary(out) -> dict:
        code, path = out
        with open(path) as fh:
            rep = json.load(fh)
        rows = [r for r in rep["rows"] if r["s"] == 0.5]
        return {
            "exit_code": code,
            "C05": rep["constants"]["0.5"],
            "slope": rep["fits"]["0.5"]["slope"],
            "monitor": max(rep["extras"]["h32_monitor_max_ratio"].values()),
            "bridge_exact": bool(rows) and all(
                abs(r["v_deviation"] - SQRT_TWO_PI * r["deviation"])
                <= BRIDGE_TOL * max(r["v_deviation"], 1.0) for r in rows),
        }

    def edited(edit):
        def corrupt(out):
            code, path = out
            with open(path) as fh:
                rep = json.load(fh)
            edit(rep)
            bad = os.path.join(workdir, "envelope-scan.corrupt.json")
            with open(bad, "w") as fh:
                json.dump(rep, fh)
            return code, bad
        return corrupt

    def set_constant(rep):
        rep["constants"]["0.5"] = 0.6 * PAST

    def set_slope(rep):
        rep["fits"]["0.5"]["slope"] = 0.4 / PAST

    def set_monitor(rep):
        ratios = rep["extras"]["h32_monitor_max_ratio"]
        ratios[next(iter(ratios))] = 2.0 * PAST

    def break_bridge(rep):
        row = next(r for r in rep["rows"] if r["s"] == 0.5)
        tol = BRIDGE_TOL * max(row["v_deviation"], 1.0)
        row["v_deviation"] = SQRT_TWO_PI * row["deviation"] + 1.5 * tol

    return [Task("cli", run, summary,
                 [Check("exit_code", "==", 0, lambda out: (1, out[1])),
                  Check("C05", "<=", 0.6, edited(set_constant)),
                  Check("slope", ">=", 0.4, edited(set_slope)),
                  Check("monitor", "<=", 2.0, edited(set_monitor)),
                  Check("bridge_exact", "==", True, edited(break_bridge))])]


WORKLOADS = {
    "evolve-dense": evolve_dense,
    "error-scan": error_scan,
    "transform-scan": transform_scan,
    "envelope-scan": envelope_scan,
}
