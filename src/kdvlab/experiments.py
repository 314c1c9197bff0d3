"""Scaling-law scans, identity checker, slope fitting, and report emission.

Each scan walks a decreasing epsilon grid, measures a deviation at the horizon
t = eps^{-beta}, and reports both log-log slopes and uniform-constant ratios
against its target rate, most with a fixed exponent haircut (default 0.05).
A scan is a per-epsilon measure function plus its target exponent p(s); the
one driver _scan runs the measures, sorts the rows, fits the slopes and takes
the constants C(s) = max deviation / eps^p(s) for all three.  Scans are
deterministic per (config, seed) and independent of the worker count.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import DataSpec, make_data
from .flows import FlowConfig, near_identity_report, q_of_u
from .hamiltonians import (F1, F2, H3, LAMBDA2, QUARTIC_RESONANT, eval_hamiltonian,
                           fd_gradient, gradient, poisson_bracket)
from .solver import (SolverConfig, envelope_evolve, evolve, kdv_step,
                     stability_budget)
from .spectral import (ModeLattice, SpectralSequence, _full_lattice, _is_finite_number,
                       _require_int, l2s_norm, linear_phase)

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    max_residual: float
    n_points: int


def slope_fit(points) -> SlopeFit:
    """Ordinary least squares on (log x, log y); rejects non-finite and
    nonpositive inputs."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("slope_fit needs at least 2 points")
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
        raise ValueError("slope_fit requires finite coordinates")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("slope_fit requires strictly positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = np.max(np.abs(ly - (slope * lx + intercept)))
    return SlopeFit(float(slope), float(intercept), float(resid), len(pts))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanConfig:
    epsilon_grid: tuple
    rho: float
    horizon_exponent: float
    s_values: tuple
    data: DataSpec
    solver: SolverConfig
    flow: FlowConfig = FlowConfig()
    workers: int = 1
    haircut: float = 0.05
    integrator: str = "direct"
    envelope_steps: int = 64

    def __post_init__(self) -> None:
        _require_int("workers", self.workers, 1)
        if not _is_finite_number(self.haircut):
            raise ValueError(f"haircut must be a finite number, got {self.haircut!r}")
        if self.integrator not in ("direct", "envelope"):
            raise ValueError("integrator must be 'direct' or 'envelope'")
        _require_int("envelope_steps", self.envelope_steps, 1)
        if not all(_is_finite_number(s) for s in self.s_values):
            raise ValueError(f"s_values must be finite numbers, got {self.s_values!r}")
        grid = tuple(float(e) for e in self.epsilon_grid)
        object.__setattr__(self, "epsilon_grid", grid)
        object.__setattr__(self, "s_values", tuple(float(s) for s in self.s_values))
        if len(grid) < 4:
            raise ValueError("epsilon_grid needs at least 4 points")
        if any(a <= b for a, b in zip(grid, grid[1:])):
            raise ValueError("epsilon_grid must be strictly decreasing")
        if grid[0] < 2.0 * grid[-1]:
            raise ValueError("epsilon_grid must span at least one octave")
        if not 0.0 < self.horizon_exponent < 0.5:
            raise ValueError("horizon_exponent must lie in (0, 0.5)")
        # every grid point yields valid data if both ends do: the largest
        # epsilon must be <= 0.25 and the smallest has the highest carrier
        for eps in (grid[0], grid[-1]):
            _data_spec_for(self, eps)


def config_from_dict(doc: dict) -> ScanConfig:
    lat = ModeLattice(**doc["data"]["lattice"])
    data_doc = dict(doc["data"])
    data_doc["lattice"] = lat
    data_doc.setdefault("epsilon", doc["epsilon_grid"][0])
    data_doc.setdefault("rho", doc.get("rho", 1.0))
    data = DataSpec(**data_doc)
    solver_doc = dict(doc["solver"])
    solver_doc.setdefault("t_final", 1.0)
    solver_doc["lattice"] = lat
    solver = SolverConfig(**solver_doc)
    flow_cfg = FlowConfig(**doc.get("flow", {}))
    return ScanConfig(
        epsilon_grid=tuple(doc["epsilon_grid"]),
        rho=doc.get("rho", 1.0),
        horizon_exponent=doc.get("horizon_exponent", 0.25),
        s_values=tuple(doc.get("s_values", (0.0, 0.5))),
        data=data,
        solver=solver,
        flow=flow_cfg,
        workers=doc.get("workers", 1),
        haircut=doc.get("haircut", 0.05),
        integrator=doc.get("integrator", "direct"),
        envelope_steps=doc.get("envelope_steps", 64),
    )


def config_from_json(path) -> ScanConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


@dataclass
class ScanReport:
    kind: str
    columns: list
    rows: list
    fits: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        lines += [",".join(_fmt(v) for v in row) for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "rows": [dict(zip(self.columns, row)) for row in self.rows],
            "fits": {str(k): vars(v) for k, v in self.fits.items()},
            "constants": {str(k): v for k, v in self.constants.items()},
            "extras": self.extras,
        }
        return json.dumps(doc, indent=2, default=float)


# ---------------------------------------------------------------------------
# scan machinery
# ---------------------------------------------------------------------------

def _data_spec_for(cfg: ScanConfig, eps: float) -> DataSpec:
    return replace(cfg.data, epsilon=eps, rho=cfg.rho)


def _solver_for(cfg: ScanConfig, u0: SpectralSequence, t_final: float) -> SolverConfig:
    # clamp dt to 0.45 of the stability budget, deterministically: a
    # heuristic that does not bound the scheme (solver.stability_budget)
    dt = min(cfg.solver.dt, 0.45 / max(stability_budget(u0, cfg.data.lattice), 1e-300))
    return SolverConfig(dt=dt, t_final=t_final, lattice=cfg.data.lattice,
                        record_every=cfg.solver.record_every)


def _run_tasks(tasks, worker, n_workers: int) -> dict:
    """Evaluate worker over tasks, possibly in parallel; keyed, order-free."""
    if n_workers <= 1:
        return {t: worker(t) for t in tasks}
    with concurrent.futures.ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = {t: pool.submit(worker, t) for t in tasks}
        return {t: f.result() for t, f in futures.items()}


def _scan(cfg: ScanConfig, kind: str, columns: list, measure, exponent) -> ScanReport:
    """Run measure over the epsilon grid; fit and bound the deviation per s.

    measure(eps) returns a list of points (s, y, row): row is a report row,
    whose first entry is the effective epsilon, and y the deviation it fits.
    Rows are sorted by (epsilon, s).  For each s, in the order measure first
    returns it, the log-log slope is fitted on the finite points with y > 0,
    so slope_fit never rejects a scan's points, and the uniform constant is
    C(s) = max y / epsilon^exponent(s).
    """
    results = _run_tasks(cfg.epsilon_grid, measure, cfg.workers)
    points = [p for eps in cfg.epsilon_grid for p in results[eps]]
    s_order = dict.fromkeys(s for s, _, _ in points)
    points.sort(key=lambda p: (p[2][0], p[0]))
    report = ScanReport(kind=kind, columns=columns, rows=[row for _, _, row in points])
    for s in s_order:
        pts = [(row[0], y) for s_p, y, row in points if s_p == s]
        positive = [(e, y) for e, y in pts if math.isfinite(y) and y > 0]
        if len(positive) >= 2:
            report.fits[s] = slope_fit(positive)
        report.constants[s] = max(y / e ** exponent(s) for e, y in pts)
    return report


def scan_linear_proximity(cfg: ScanConfig) -> ScanReport:
    """Deviation from the free Airy flow at t = eps^{-beta} per (eps, s).

    The v-side column is sqrt(2 pi) times the s = 1/2 deviation, which equals
    the physical L^2 distance from the linear solution.  The fitted deviation
    is the l^2_s one over <t>, against the rate eps^{1/2 - haircut}.
    """
    monitor = {}

    def measure(eps: float):
        spec = _data_spec_for(cfg, eps)
        u0 = make_data(spec)
        eps_eff = spec.effective_epsilon
        t_end = eps_eff ** (-cfg.horizon_exponent)
        if cfg.integrator == "envelope":
            trajectory, diags = envelope_evolve(u0, t_end, steps=cfg.envelope_steps)
        else:
            trajectory, diags = evolve(u0, _solver_for(cfg, u0, t_end))
        t, u_t = trajectory[-1]
        free = linear_phase(u0, t)
        diff = SpectralSequence(u0.lattice, u_t.values - free.values, real_type=False)
        devs = {s: l2s_norm(diff, s) for s in set(cfg.s_values) | {0.5}}
        monitor[eps] = eps_eff, max(h * eps_eff / cfg.rho for h in diags.h1_weighted)
        bracket = math.sqrt(1.0 + t * t)
        return [(s, devs[s] / bracket,
                 (eps_eff, t, s, devs[s], bracket, SQRT_TWO_PI * devs[0.5]))
                for s in cfg.s_values]

    report = _scan(cfg, "linear_proximity",
                   ["epsilon", "t", "s", "deviation", "bracket_t", "v_deviation"],
                   measure, lambda s: 0.5 - cfg.haircut)
    report.extras = {
        "h32_monitor_max_ratio": dict(monitor[eps] for eps in cfg.epsilon_grid),
        "horizon_exponent": cfg.horizon_exponent,
    }
    return report


def scan_near_identity(cfg: ScanConfig) -> ScanReport:
    """Near-identity deviation of the composed transformation per (eps, s),
    against the rate eps^{1 - s - haircut}."""

    def measure(eps: float):
        spec = _data_spec_for(cfg, eps)
        q = make_data(spec)
        eps_eff = spec.effective_epsilon
        rep = near_identity_report(q, eps_eff, cfg.rho, cfg.flow)
        return [(s, dev, (eps_eff, s, dev, rep.membership_after))
                for s, dev in sorted(rep.deviations.items())]

    return _scan(cfg, "near_identity", ["epsilon", "s", "deviation", "membership_after"],
                 measure, lambda s: 1.0 - s - cfg.haircut)


def scan_error_term(cfg: ScanConfig) -> ScanReport:
    """Norm of the residual field E(q) = qdot - i n^3 q at the horizon time.

    q(t) = q_of_u(u(t)); the derivative is taken by a phase-exact central
    difference (the integrating factor removes the linear rotation from the
    difference quotient).  The probe step satisfies dt_fd * (2 N0)^3 = 0.1 for
    carrier N0: the residual field is carried by modes up to about twice the
    carrier, and this window stays below the higher-order regime.  It does
    not keep the h^2 truncation above the round-off floor on every row: the
    quotient divides the round-off of q_of_u (~1e-16 |q|) by 2 dt_fd, and
    the Richardson order under step halving (consistency_order, ~2 where the
    truncation dominates) then measures rounding.  On the error-scan
    benchmark's config, scaling u(t) by 1 + 1e-15 (4.5 ulp) moves the orders
    at eps = 1/17 and 1/20 (2.09 and 1.42 at s = 0) by up to 5.9e-6 and
    7.0e-6, against 3.3e-11 at eps = 0.1; on AC5's grid the eps = 0.0125
    rows read 3.80 and 3.90, which the median order hides.  The target rate
    is eps^{0.9 (1 - s)}: 0.9 at s = 0, 0.45 at s = 1/2.
    """

    def measure(eps: float):
        spec = _data_spec_for(cfg, eps)
        u0 = make_data(spec)
        eps_eff = spec.effective_epsilon
        lat = cfg.data.lattice
        t_end = eps_eff ** (-cfg.horizon_exponent)
        trajectory, _ = evolve(u0, _solver_for(cfg, u0, t_end))
        _, u_t = trajectory[-1]
        n3 = lat.modes.astype(np.float64) ** 3
        dt_fd = 0.1 / (2.0 * spec.carrier) ** 3

        def error_field(h: float) -> np.ndarray:
            qp = q_of_u(kdv_step(u_t, h), cfg.flow).values
            qm = q_of_u(kdv_step(u_t, -h), cfg.flow).values
            return (np.exp(-1j * n3 * h) * qp - np.exp(1j * n3 * h) * qm) / (2.0 * h)

        fields = {h: error_field(h) for h in (dt_fd, dt_fd / 2, dt_fd / 4)}
        points = []
        for s in cfg.s_values:
            def ns(v):
                return l2s_norm(SpectralSequence(lat, v, real_type=False), s)
            coarse = ns(fields[dt_fd] - fields[dt_fd / 2])
            fine = ns(fields[dt_fd / 2] - fields[dt_fd / 4])
            order = math.log2(coarse / fine) if fine > 0 and coarse > 0 else float("nan")
            enorm = ns(fields[dt_fd / 4])
            points.append((s, enorm, (eps_eff, s, enorm, order)))
        return points

    return _scan(cfg, "error_term", ["epsilon", "s", "error_norm", "consistency_order"],
                 measure, lambda s: 0.9 * (1.0 - s))


# ---------------------------------------------------------------------------
# identity checker
# ---------------------------------------------------------------------------

def random_state(lattice: ModeLattice, rng: np.random.Generator,
                 scale: float = 0.3) -> SpectralSequence:
    """Random real_type sequence with 1/|n|-decaying mode amplitudes."""
    pos = np.arange(1, lattice.n_max + 1)
    z = (rng.standard_normal(pos.size) + 1j * rng.standard_normal(pos.size))
    z *= scale / pos
    return SpectralSequence(lattice, _full_lattice(z, pos, lattice.n_max), real_type=True)


def check_identities(n: int = 8, trials: int = 50, seed: int = 1) -> dict:
    """Exact factorization sweeps plus homological-identity residuals.

    Returns a report dict with an 'ok' flag; residual tolerances are 1e-11
    (identity I, relative to ||q||^3_{l^2_1}) and 1e-10 (identity II, relative
    to the largest participating term).  Raises ValueError unless n >= 1,
    trials >= 1 and seed >= 0 are integers.
    """
    _require_int("n", n, 1)
    _require_int("trials", trials, 1)
    _require_int("seed", seed, 0)
    report = {}

    # exhaustive triple factorization, |n_i| <= 64
    r = np.arange(-64, 65)
    n1 = r[:, None]
    n2 = r[None, :]
    n3 = -(n1 + n2)
    mask = (n1 != 0) & (n2 != 0) & (n3 != 0) & (np.abs(n3) <= 64)
    cube = n1**3 + n2**3 + n3**3
    report["triples_checked"] = int(np.sum(mask))
    report["triples_exact"] = bool(np.all((cube == 3 * n1 * n2 * n3)[mask]))
    report["triples_nonresonant"] = bool(np.all(cube[mask] != 0))

    # exhaustive quadruple factorization, |n_i| <= 64
    q1 = r[:, None, None].astype(np.int64)
    q2 = r[None, :, None].astype(np.int64)
    q3 = r[None, None, :].astype(np.int64)
    q4 = -(q1 + q2 + q3)
    qmask = (q1 != 0) & (q2 != 0) & (q3 != 0) & (q4 != 0) & (np.abs(q4) <= 64)
    qcube = q1**3 + q2**3 + q3**3 + q4**3
    signed = 3 * (q1 + q2) * (q1 + q3) * (q1 + q4)
    pairwise = 3 * np.abs(q1 + q2) * np.abs(q1 + q3) * np.abs(q2 + q3)
    report["quadruples_checked"] = int(np.sum(qmask))
    report["quadruples_signed_exact"] = bool(np.all((qcube == signed)[qmask]))
    report["quadruples_abs_exact"] = bool(np.all((np.abs(qcube) == pairwise)[qmask]))
    zmask = qmask & (q1 + q2 != 0)
    report["quadruples_zero_set"] = bool(
        np.all(((qcube == 0) == ((q1 + q3 == 0) | (q2 + q3 == 0)))[zmask])
    )

    # homological identities on random states.  The state lives on modes
    # |m| <= n but the bracket {H3, F1} pairs gradient output modes up to
    # 2n, so brackets are evaluated on a lattice with double headroom.
    lat = ModeLattice(n, 3 * n + 1)
    big = ModeLattice(2 * n, 6 * n + 1)
    rng = np.random.default_rng(seed)
    res1 = res2 = 0.0
    for _ in range(trials):
        small = random_state(lat, rng)
        vals = np.zeros(big.size, dtype=np.complex128)
        vals[big.n_max - lat.n_max: big.n_max + lat.n_max + 1] = small.values
        q = SpectralSequence(big, vals)
        b1 = poisson_bracket(LAMBDA2, F1, q)
        h3 = eval_hamiltonian(H3, q)
        scale1 = l2s_norm(q, 1.0) ** 3
        res1 = max(res1, abs(b1 + h3) / scale1)

        # The resonant quartic produced by the normal form is
        # -(3/2) i sum |q(m)|^4 with the generator signs fixed by identity I.
        b2 = poisson_bracket(LAMBDA2, F2, q)
        bh = poisson_bracket(H3, F1, q)
        target = -1.5j * float(np.sum(np.abs(q.values) ** 4))
        scale2 = max(abs(b2), abs(0.5 * bh), abs(target), 1e-300)
        res2 = max(res2, abs(b2 + 0.5 * bh - target) / scale2)
    report["identity1_max_residual"] = res1
    report["identity2_max_residual"] = res2

    # analytic gradient vs central finite differences
    grad_rows = {}
    for spec in (LAMBDA2, H3, F1, F2, QUARTIC_RESONANT):
        worst = 0.0
        for _ in range(5):
            q = random_state(lat, rng)
            ga = gradient(spec, q).values
            gf = fd_gradient(lambda qq, s=spec: eval_hamiltonian(s, qq), q).values
            scale = max(float(np.max(np.abs(ga))), 1e-300)
            worst = max(worst, float(np.max(np.abs(ga - gf))) / scale)
        grad_rows[spec.kind.value] = worst
    report["gradient_fd_max_relative"] = grad_rows

    report["ok"] = bool(
        report["triples_exact"]
        and report["triples_nonresonant"]
        and report["quadruples_signed_exact"]
        and report["quadruples_abs_exact"]
        and report["quadruples_zero_set"]
        and res1 <= 1e-11
        and res2 <= 1e-10
        and all(v <= 1e-6 for v in grad_rows.values())
    )
    return report
