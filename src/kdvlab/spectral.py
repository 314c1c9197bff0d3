"""Mode lattice, weighted Fourier transform, sequence norms, and the free Airy phase flow.

The spatial domain is the 2*pi-periodic circle sampled at x_j = -pi + 2*pi*j/M.
Spectral coefficients live on the truncated lattice n in [-N, N] with the zero
mode structurally absent; the weighted coordinates are u(n) = vhat(n)/sqrt(|n|)
with vhat(n) = (1/2pi) * integral of v(x) exp(-i n x) dx, so that
v(x) = sum_n sqrt(|n|) exp(i n x) u(n).

The transforms between grid samples and weighted coordinates are one real
FFT on the M-point grid each; the grid origin at -pi contributes the phase
(-1)^n.  Products in mode space (the solver's nonlinear term from its
crossover up, the grid cube of its H diagnostic) run on a grid of
_fft_size(N) points, the smallest 5-smooth length that is alias-free for
cubic sums of modes |n| <= N.
"""

from __future__ import annotations

import functools
import importlib
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Tolerance for the conjugate-symmetry check on real_type sequences.  Individual
# operations are exactly symmetric by construction; long evolutions accumulate
# only rounding-level asymmetry, so this is a loose sanity bound.
_REALITY_TOL = 1e-11


@functools.cache
def _fft():
    """numpy.fft, imported at the first transform.

    NumPy 2 imports numpy.fft lazily and kdvlab keeps it so: a command that
    does no transform does not load it.  The import runs on a helper thread.
    Python runs signal handlers on the main thread only, and a handler that
    touches np.fft (a sampling profiler or timer, say) while the main thread
    is itself inside this import re-enters it through NumPy's module
    __getattr__ and recurses without end.  Against the helper's import the
    handler just waits on the module lock until the import is done.
    """
    loader = threading.Thread(target=importlib.import_module, args=("numpy.fft",))
    loader.start()
    loader.join()
    return importlib.import_module("numpy.fft")


def _is_finite_number(x) -> bool:
    """A finite real number; bools are not numbers here."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _require_int(name: str, value, minimum: int) -> None:
    """Reject a value that is not an integer >= minimum; bools are not integers here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _sublattice_gcd(values: np.ndarray, zero: int = 0) -> int:
    """d of the sublattice d Z that carries values, whose slot i holds mode
    i - zero: the gcd of the nonzero modes, 0 for the zero state.

    A product of states on d1 Z and d2 Z lives on gcd(d1, d2) Z, and the
    sum-closure of a conjugate-symmetric support with gcd d is exactly
    d Z in [-N, N] minus 0 (for 0 < a < b in it, so is b - a: Euclid
    reaches d).  So KdV and the normal-form flows keep a state on d Z.
    """
    return int(np.gcd.reduce(np.flatnonzero(values) - zero))


@functools.lru_cache(maxsize=64)
def _fft_size(n_max: int) -> int:
    """Smallest 5-smooth integer L >= 3 n_max + 1.

    On L points a sum of three modes |n_i| <= n_max is 0 mod L only if it is
    0, so cubic grid sums and quadratic products truncated to |n| <= n_max
    are alias-free; 5-smooth lengths are the fast ones for numpy.fft.
    """
    size = 3 * n_max + 1
    while True:
        rest = size
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


@dataclass(frozen=True)
class ModeLattice:
    """Truncated mode lattice: active modes n in [-n_max, n_max] \\ {0}.

    m_samples >= 3*n_max + 1 keeps quadratic grid products alias-safe after
    truncation back to the lattice.
    """

    n_max: int
    m_samples: int

    def __post_init__(self) -> None:
        _require_int("n_max", self.n_max, 1)
        _require_int("m_samples", self.m_samples, 3 * self.n_max + 1)

    @property
    def modes(self) -> np.ndarray:
        """Integer modes -n_max..n_max (the zero slot is carried but unused)."""
        return np.arange(-self.n_max, self.n_max + 1)

    @property
    def size(self) -> int:
        return 2 * self.n_max + 1

    def index(self, n) -> int:
        """Slot of mode n; ValueError for a mode outside -n_max..n_max."""
        if not -self.n_max <= n <= self.n_max:
            raise ValueError(f"mode {n} outside lattice")
        return n + self.n_max

    def grid(self) -> np.ndarray:
        j = np.arange(self.m_samples)
        return -math.pi + TWO_PI * j / self.m_samples


@dataclass(frozen=True, eq=False)
class SpectralSequence:
    """Complex coefficients u(n) on a mode lattice.

    real_type marks sequences representing real functions, for which
    u(-n) = conj(u(n)).  The zero mode is forced to zero on construction.
    Two sequences are equal when lattice, real_type and values are.
    """

    lattice: ModeLattice
    values: np.ndarray
    real_type: bool = True

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        if vals.shape != (self.lattice.size,):
            raise ValueError(
                f"values must have shape ({self.lattice.size},), got {vals.shape}"
            )
        vals[self.lattice.n_max] = 0.0
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if self.real_type:
            scale = float(np.max(np.abs(vals)))
            # a comparison with NaN is False: test finiteness first
            if not math.isfinite(scale):
                raise ValueError("real_type sequence has non-finite values")
            asym = np.max(np.abs(vals[::-1].conj() - vals))
            scale = max(scale, 1e-300)
            if asym > _REALITY_TOL * scale:
                raise ValueError(
                    f"real_type sequence is not conjugate-symmetric "
                    f"(relative asymmetry {asym / scale:.3e})"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralSequence):
            return NotImplemented
        return (self.lattice == other.lattice and self.real_type == other.real_type
                and np.array_equal(self.values, other.values))

    def value_at(self, n: int) -> complex:
        return complex(self.values[self.lattice.index(n)])

    def support(self) -> np.ndarray:
        """Modes with nonzero coefficient (exact zeros excluded)."""
        return self.lattice.modes[self.values != 0]


def _mirror(half: np.ndarray) -> np.ndarray:
    """The full lattice values -N..N of the real_type state whose half
    spectrum on modes 0..N is half: u(-n) = conj u(n)."""
    return np.concatenate((half[:0:-1].conj(), half))


def _full_lattice(h, modes, n_max: int) -> np.ndarray:
    """_mirror of the half spectrum that is h on modes (in 0..n_max) and 0
    elsewhere."""
    half = np.zeros(n_max + 1, dtype=np.complex128)
    half[modes] = h
    return _mirror(half)


def zero_sequence(lattice: ModeLattice, real_type: bool = True) -> SpectralSequence:
    return SpectralSequence(lattice, np.zeros(lattice.size, dtype=np.complex128), real_type)


def sequence_from_modes(lattice: ModeLattice, entries: dict, real_type: bool = True) -> SpectralSequence:
    """Build a sequence from a {mode: value} mapping (test/data convenience)."""
    vals = np.zeros(lattice.size, dtype=np.complex128)
    for n, v in entries.items():
        if n == 0:
            raise ValueError("zero mode is structurally absent")
        vals[lattice.index(n)] = v
    return SpectralSequence(lattice, vals, real_type)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real samples of a mean-zero function on the uniform M-point grid.

    Two grid functions are equal when lattice and samples are.
    """

    lattice: ModeLattice
    samples: np.ndarray

    def __post_init__(self) -> None:
        s = np.array(self.samples, dtype=np.float64, copy=True)
        if s.shape != (self.lattice.m_samples,):
            raise ValueError(
                f"samples must have shape ({self.lattice.m_samples},), got {s.shape}"
            )
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)
        scale = float(np.max(np.abs(s)))
        # a comparison with NaN is False: test finiteness first
        if not math.isfinite(scale):
            raise ValueError("samples must be finite")
        mean = abs(float(np.mean(s)))
        scale = max(scale, 1e-300)
        if mean > 1e-12 * scale:
            raise ValueError(
                f"samples are not mean-zero (|mean| = {mean:.3e}, scale {scale:.3e})"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.lattice == other.lattice and np.array_equal(self.samples, other.samples)


@dataclass(frozen=True)
class NormSpec:
    """Weighted sequence norm ||u||_{l^p_s}: p in {1, 2, inf}, weight |k|^s."""

    p: float
    s: float

    def __post_init__(self) -> None:
        if self.p not in (1, 2, math.inf):
            raise ValueError(f"p must be 1, 2, or inf, got {self.p}")


def norm(u: SpectralSequence, spec: NormSpec) -> float:
    """Exact weighted p-norm over active modes."""
    n = u.lattice.modes
    mask = n != 0
    w = np.abs(n[mask]).astype(np.float64) ** spec.s
    a = w * np.abs(u.values[mask])
    if spec.p == math.inf:
        return float(np.max(a)) if a.size else 0.0
    if spec.p == 1:
        return float(np.sum(a))
    return float(math.sqrt(np.sum(a * a)))


def l2s_norm(u: SpectralSequence, s: float) -> float:
    return norm(u, NormSpec(2, s))


def _origin_phase(pos: np.ndarray) -> np.ndarray:
    """exp(-i n x_0) = (-1)^n for the grid origin x_0 = -pi."""
    return np.where(pos % 2 == 0, 1.0, -1.0)


def weighted_from_physical(v: GridFunction) -> SpectralSequence:
    """u(n) = vhat(n)/sqrt(|n|) by exact DFT quadrature on the M-point grid."""
    lat = v.lattice
    pos = np.arange(1, lat.n_max + 1)
    # (1/2pi) integral -> (1/M) sum for band-limited v
    vhat_pos = _fft().rfft(v.samples, norm="forward")[1:lat.n_max + 1]
    u_pos = _origin_phase(pos) * vhat_pos / np.sqrt(pos)
    return SpectralSequence(lat, _full_lattice(u_pos, pos, lat.n_max), real_type=True)


def physical_from_weighted(u: SpectralSequence) -> GridFunction:
    """v(x) = sum_n sqrt(|n|) exp(i n x) u(n); requires a real_type sequence."""
    if not u.real_type:
        raise ValueError("physical_from_weighted requires a real_type sequence")
    lat = u.lattice
    pos = np.arange(1, lat.n_max + 1)
    coef = np.zeros(lat.n_max + 1, dtype=np.complex128)
    coef[1:] = _origin_phase(pos) * np.sqrt(pos) * u.values[lat.n_max + 1:]
    # M > 2 N, so the half spectrum has no Nyquist term: 2 Re sum_n coef e^{inx}
    samples = _fft().irfft(coef, lat.m_samples, norm="forward")
    # exact synthesis of a finite real trig polynomial is mean-zero; remove the
    # rounding-level residue so the GridFunction invariant is exact
    samples -= np.mean(samples)
    return GridFunction(lat, samples)


def linear_phase(u: SpectralSequence, t: float) -> SpectralSequence:
    """Free Airy flow: multiply mode n by exp(i n^3 t)."""
    n = u.lattice.modes.astype(np.float64)
    vals = u.values * np.exp(1j * n**3 * t)
    return SpectralSequence(u.lattice, vals, u.real_type)
