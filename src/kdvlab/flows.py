"""Time-tau Hamiltonian flow maps of the normal-form generators.

The flow of a generator F solves dw(n)/dtau = sigma(n) dF/dw(-n) from w(0) = q;
the time-1 maps of F1 and F2 compose into the near-identity change of variables
u = Phi_{F1} o Phi_{F2}(q) and its inverse (negative-time integration).
Each RK4 stage is sigma(n) times hamiltonians._gradient_values on a raw
value array; the one SpectralSequence a flow builds is its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .hamiltonians import (F1, F2, Functional, HamiltonianSpec, _gradient_values,
                           eval_hamiltonian, poisson_bracket)
from .spectral import SpectralSequence, _is_finite_number, _require_int, l2s_norm


class FlowDivergenceError(RuntimeError):
    """Raised when a flow leaves the near-identity regime."""


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step classical RK4 on tau in [0, tau_end]."""

    substeps: int = 32

    def __post_init__(self) -> None:
        _require_int("substeps", self.substeps, 8)


@dataclass(frozen=True)
class TransformReport:
    epsilon: float
    deviations: dict
    membership_after: bool


def flow(spec: HamiltonianSpec, q: SpectralSequence, tau: float,
         cfg: FlowConfig = FlowConfig()) -> SpectralSequence:
    """Integrate the flow of spec for time tau with fixed-step RK4.

    Aborts with FlowDivergenceError if the l^2 norm grows past 10x its initial
    value mid-flow (data outside the near-identity regime).  A tau that is not
    a finite real number raises ValueError.
    """
    if not _is_finite_number(tau):
        raise ValueError(f"tau must be a finite number, got {tau!r}")
    lat = q.lattice
    sign = np.sign(lat.modes)
    w = q.values.copy()
    h = tau / cfg.substeps
    guard = 10.0 * max(l2s_norm(q, 0.0), 1e-300)
    for _ in range(cfg.substeps):
        k1 = sign * _gradient_values(spec, w)
        k2 = sign * _gradient_values(spec, w + 0.5 * h * k1)
        k3 = sign * _gradient_values(spec, w + 0.5 * h * k2)
        k4 = sign * _gradient_values(spec, w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(w)) or math.sqrt(float(np.sum(np.abs(w) ** 2))) > guard:
            raise FlowDivergenceError(
                f"flow of {spec.kind.value} left the near-identity regime "
                f"(||w|| > 10 ||q||) at tau step of size {h}"
            )
    return SpectralSequence(lat, w, real_type=q.real_type)


def u_of_q(q: SpectralSequence, cfg: FlowConfig = FlowConfig()) -> SpectralSequence:
    """Composed change of variables u = Phi^1_{F1}(Phi^1_{F2}(q))."""
    return flow(F1, flow(F2, q, 1.0, cfg), 1.0, cfg)


def q_of_u(u: SpectralSequence, cfg: FlowConfig = FlowConfig()) -> SpectralSequence:
    """Inverse change of variables q = Phi^{-1}_{F2}(Phi^{-1}_{F1}(u))."""
    return flow(F2, flow(F1, u, -1.0, cfg), -1.0, cfg)


def near_identity_report(q: SpectralSequence, epsilon: float, rho: float,
                         cfg: FlowConfig = FlowConfig(),
                         s_values=(0.0, 0.5, 1.0, 1.5)) -> TransformReport:
    """Deviation of the composed transformation from the identity on class data.

    Rejects q outside X_eps^rho; reports ||u(q) - q||_{l^2_s} for s in
    s_values and whether u(q) stays in X_eps^{2 rho}.
    """
    member = data_mod.membership(q, epsilon, rho)
    if not member.in_class:
        raise ValueError(
            f"q outside X_eps^rho (l2 ratio {member.l2_ratio:.3f}, "
            f"l2_3/2 ratio {member.l2_32_ratio:.3f})"
        )
    u = u_of_q(q, cfg)
    diff = SpectralSequence(q.lattice, u.values - q.values, real_type=False)
    deviations = {s: l2s_norm(diff, s) for s in s_values}
    after = data_mod.membership(u, epsilon, 2.0 * rho).in_class
    return TransformReport(epsilon=epsilon, deviations=deviations, membership_after=after)


def taylor_check(h: HamiltonianSpec, f: HamiltonianSpec, q: SpectralSequence,
                 k: int, cfg: FlowConfig = FlowConfig()) -> float:
    """Residual of the order-k Taylor expansion of H along the flow of F:

        | H(Phi_F^1(q)) - sum_{j<=k} (1/j!) g_F^j H(q) |,

    where g_F^j H is the j-fold Poisson bracket with F.  Brackets beyond the
    first are taken through finite-difference gradients, so k <= 3.
    """
    if k > 3:
        raise ValueError("finite-difference nesting supports k <= 3")
    lhs = eval_hamiltonian(h, flow(f, q, 1.0, cfg))

    def bracket_power(depth: int) -> Functional:
        if depth == 0:
            return h
        inner = bracket_power(depth - 1)
        return lambda qq, _inner=inner: poisson_bracket(_inner, f, qq)

    total = eval_hamiltonian(h, q)
    fact = 1.0
    for j in range(1, k + 1):
        fact *= j
        term = bracket_power(j - 1)
        total += poisson_bracket(term, f, q) / fact
    return abs(lhs - total)
