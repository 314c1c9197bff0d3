"""Time-tau Hamiltonian flow maps of the normal-form generators.

The flow of a generator F solves dw(n)/dtau = sigma(n) dF/dw(-n) from w(0) = q;
the time-1 maps of F1 and F2 compose into the near-identity change of variables
u = Phi_{F1} o Phi_{F2}(q) and its inverse (negative-time integration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .hamiltonians import HamiltonianSpec, Functional, gradient, poisson_bracket
from .spectral import SpectralSequence, _require_int, l2s_norm


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


def _vector_field(spec: HamiltonianSpec, lat, values: np.ndarray) -> np.ndarray:
    w = SpectralSequence(lat, values, real_type=False)
    g = gradient(spec, w).values
    return np.sign(lat.modes) * g


def flow(spec: HamiltonianSpec, q: SpectralSequence, tau: float,
         cfg: FlowConfig = FlowConfig()) -> SpectralSequence:
    """Integrate the flow of spec for time tau with fixed-step RK4.

    Aborts with FlowDivergenceError if the l^2 norm grows past 10x its initial
    value mid-flow (data outside the near-identity regime).
    """
    lat = q.lattice
    w = q.values.copy()
    h = tau / cfg.substeps
    guard = 10.0 * max(l2s_norm(q, 0.0), 1e-300)
    for _ in range(cfg.substeps):
        k1 = _vector_field(spec, lat, w)
        k2 = _vector_field(spec, lat, w + 0.5 * h * k1)
        k3 = _vector_field(spec, lat, w + 0.5 * h * k2)
        k4 = _vector_field(spec, lat, w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(w)) or math.sqrt(float(np.sum(np.abs(w) ** 2))) > guard:
            raise FlowDivergenceError(
                f"flow of {spec.kind.value} left the near-identity regime "
                f"(||w|| > 10 ||q||) at tau step of size {h}"
            )
    return SpectralSequence(lat, w, real_type=q.real_type)


def u_of_q(q: SpectralSequence, cfg: FlowConfig = FlowConfig()) -> SpectralSequence:
    """Composed change of variables u = Phi^1_{F1}(Phi^1_{F2}(q))."""
    from .hamiltonians import F1, F2
    return flow(F1, flow(F2, q, 1.0, cfg), 1.0, cfg)


def q_of_u(u: SpectralSequence, cfg: FlowConfig = FlowConfig()) -> SpectralSequence:
    """Inverse change of variables q = Phi^{-1}_{F2}(Phi^{-1}_{F1}(u))."""
    from .hamiltonians import F1, F2
    return flow(F2, flow(F1, u, -1.0, cfg), -1.0, cfg)


def near_identity_report(q: SpectralSequence, epsilon: float, rho: float,
                         cfg: FlowConfig = FlowConfig()) -> TransformReport:
    """Deviation of the composed transformation from the identity on class data.

    Rejects q outside X_eps^rho; reports ||u(q) - q||_{l^2_s} for
    s in {0, 1/2, 1, 3/2} and whether u(q) stays in X_eps^{2 rho}.
    """
    member = data_mod.membership(q, epsilon, rho)
    if not member.in_class:
        raise ValueError(
            f"q outside X_eps^rho (l2 ratio {member.l2_ratio:.3f}, "
            f"l2_3/2 ratio {member.l2_32_ratio:.3f})"
        )
    u = u_of_q(q, cfg)
    diff = SpectralSequence(q.lattice, u.values - q.values, real_type=False)
    deviations = {s: l2s_norm(diff, s) for s in (0.0, 0.5, 1.0, 1.5)}
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
    from .hamiltonians import eval_hamiltonian

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
