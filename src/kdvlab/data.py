"""Generators and membership tests for the high-frequency class X_eps^rho.

X_eps^rho = { u : u(0) = 0, u(-n) = conj u(n),
              ||u||_{l^2} <= rho sqrt(eps), ||u||_{l^2_{3/2}} <= rho/eps }.

The carrier frequency is N0 = round(1/eps); eps is then redefined as 1/N0 so
that scaling fits are exact in the abscissa.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .spectral import (ModeLattice, SpectralSequence, _full_lattice, _is_finite_number,
                       _require_int, l2s_norm)

# slack for floating-point saturation of the defining bounds
_MEMBER_TOL = 1e-9


class Family(enum.Enum):
    SINGLE_PAIR = "single_pair"
    DETERMINISTIC_BAND = "deterministic_band"
    RANDOM_BAND = "random_band"


@dataclass(frozen=True)
class DataSpec:
    family: Family
    epsilon: float
    rho: float
    lattice: ModeLattice
    bandwidth: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        fam = self.family if isinstance(self.family, Family) else Family(self.family)
        object.__setattr__(self, "family", fam)
        if not _is_finite_number(self.epsilon) or not 0.0 < self.epsilon <= 0.25:
            raise ValueError(f"epsilon must lie in (0, 0.25], got {self.epsilon!r}")
        if not _is_finite_number(self.rho) or self.rho <= 0.0:
            raise ValueError(f"rho must be a finite number > 0, got {self.rho!r}")
        _require_int("bandwidth", self.bandwidth, 0)
        _require_int("seed", self.seed, 0)
        n0 = self.carrier
        if n0 * (1 + self.bandwidth) > self.lattice.n_max // 2:
            raise ValueError(
                f"lattice too small: carrier band up to {n0 * (1 + self.bandwidth)} "
                f"exceeds n_max/2 = {self.lattice.n_max // 2}"
            )

    @property
    def carrier(self) -> int:
        return max(1, round(1.0 / self.epsilon))

    @property
    def effective_epsilon(self) -> float:
        """eps redefined as 1/N0 so the carrier sits exactly at 1/eps."""
        return 1.0 / self.carrier


@dataclass(frozen=True)
class MembershipReport:
    in_class: bool
    l2_ratio: float
    l2_32_ratio: float


def membership(u: SpectralSequence, epsilon: float, rho: float) -> MembershipReport:
    """Check the two defining norm bounds; ratios are norm/bound."""
    if not u.real_type:
        raise ValueError("membership requires a real_type sequence")
    r0 = l2s_norm(u, 0.0) / (rho * math.sqrt(epsilon))
    r32 = l2s_norm(u, 1.5) / (rho / epsilon)
    ok = r0 <= 1.0 + _MEMBER_TOL and r32 <= 1.0 + _MEMBER_TOL
    return MembershipReport(in_class=ok, l2_ratio=r0, l2_32_ratio=r32)


def make_data(spec: DataSpec) -> SpectralSequence:
    """Build a class element; deterministic per (spec, seed).

    single_pair saturates both bounds exactly at modes +-N0.  Band families
    spread an |n|^{-3/2} amplitude profile over [N0, N0*(1+bandwidth)] and
    rescale to saturate the l^2 bound, which leaves l^2_{3/2} slack.
    """
    lat = spec.lattice
    n0 = spec.carrier
    eps = spec.effective_epsilon

    if spec.family is Family.SINGLE_PAIR:
        amp = spec.rho * math.sqrt(eps) / math.sqrt(2.0)
        return SpectralSequence(lat, _full_lattice(amp, n0, lat.n_max), real_type=True)

    band = np.arange(n0, n0 * (1 + spec.bandwidth) + 1)
    profile = band.astype(np.float64) ** -1.5
    if spec.family is Family.RANDOM_BAND:
        rng = np.random.default_rng(spec.seed)
        phases = np.exp(2j * math.pi * rng.random(band.size))
    else:
        phases = np.ones(band.size)
    vals = _full_lattice(profile * phases, band, lat.n_max)
    u = SpectralSequence(lat, vals, real_type=True)
    scale = spec.rho * math.sqrt(eps) / l2s_norm(u, 0.0)
    # keep the heavy-weight norm inside its bound too (n^{-3/2} profile leaves
    # ample room, but the guard makes membership unconditional)
    r32 = scale * l2s_norm(u, 1.5) / (spec.rho / eps)
    if r32 > 1.0:
        scale /= r32
    return SpectralSequence(lat, vals * scale, real_type=True)
