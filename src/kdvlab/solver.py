"""Pseudospectral KdV integration in weighted coordinates.

The equation is udot(n) = i n^3 u(n) + N(u)(n) with
N(u)(n) = 3 i sigma(n) sqrt|n| sum_{n1+n2=n} sqrt|n1 n2| u(n1) u(n2),
stepped with ETDRK4 (Cox-Matthews) whose linear part is exact.  The phi
functions of the diagonal (purely imaginary) linear symbol are evaluated
directly, with a Taylor branch near zero to avoid cancellation.  Plain
integrating-factor RK4 suffers resonance instabilities at high carrier modes;
ETDRK4 does not.

Both integrators take real_type states and step one layout, the half
spectrum on the sublattice of the initial support (ETDRK4 in the
coordinates w below): the modes n = d k with d
the gcd of the positive support modes (_sublattice), k = 0..K = N // d for
evolve and kdv_step, k = 1..K for envelope_evolve's envelope.  The other
modes stay exact zeros: this is the KdV scaling u(d k, t) = d^{3/2} w(k, d^3 t),
and a single pair at carrier N0 has K = N // N0.  One time loop (_time_loop)
runs both.  A record is O(K): its time, the half spectrum on the sublattice,
and K, H and ||u||_{l^2_{3/2}} computed from that half spectrum
(_half_diagnostics; diagnostics_of is the same formula for a given state).
The trajectory (_Trajectory) rebuilds a full-lattice state
(spectral._full_lattice) only when an item is read, so every state a caller
sees is exactly conjugate-symmetric and has passed the SpectralSequence
checks.

ETDRK4 steps the Fourier coefficients of v on the sublattice,
w = sqrt(n) h, for which wdot = i n^3 w + 3 i n P(w) with the quadratic
term P(w)(n) = sum_{n1+n2=n} w(n1) w(n2).  _etd_coeffs folds 3 i n into the
four nonlinear ETD weights once per run, so a stage is one product P and no
weight multiply; evolve and kdv_step convert h to w on entry and back
(_half_of, mode 0 staying 0) only where a state is recorded or returned.
Each run owns a stage buffer (_quadratic).  For K < _FFT_CROSSOVER, P is
one matrix-vector product of a fixed Toeplitz view of that buffer, which
holds the stage and its conjugate mirror, exact and alias-free; from it on,
P = rfft(g^2)[:K + 1] with g the irfft of w on the alias-free grid of
spectral._fft_size(K) points.  nonlinear_term,
N(u) = sigma(n) grad H3(u)(n) = 3 i sqrt(n) P(w) on the full lattice, is
hamiltonians' exact convolution; the tests hold both branches to it.

envelope_evolve's step contracts two static term tables, for outputs n > 0
and unordered input pairs only, scattered by the np.bincount helper that also
sums the quartic table (hamiltonians._scatter_add).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import H3, _gradient_values, _scatter_add
from .spectral import (GridFunction, ModeLattice, NormSpec, SpectralSequence,
                       _fft, _fft_size, _full_lattice, _is_finite_number,
                       _require_int, _sublattice_gcd, norm)


class SolverDivergenceError(RuntimeError):
    """Raised when the time stepper produces non-finite values."""

    def __init__(self, message: str, trajectory=None, diagnostics=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_final: float
    lattice: ModeLattice
    record_every: int = 100

    def __post_init__(self) -> None:
        if not _is_finite_number(self.dt) or self.dt <= 0.0:
            raise ValueError(f"dt must be a finite positive number, got {self.dt!r}")
        if not _is_finite_number(self.t_final) or self.t_final < 0.0:
            raise ValueError(f"t_final must be a finite number >= 0, got {self.t_final!r}")
        _require_int("record_every", self.record_every, 1)


@dataclass
class Diagnostics:
    times: list = field(default_factory=list)
    P: list = field(default_factory=list)
    K: list = field(default_factory=list)
    H: list = field(default_factory=list)
    h1_weighted: list = field(default_factory=list)


def stability_budget(u: SpectralSequence, lattice: ModeLattice) -> float:
    """Nonlinear scale 3 sqrt(N) ||u||_{l^1_{1/2}} entering the dt constraint.

    A heuristic, not a stability bound: dt times it <= 0.5 admits runs that
    blow up.  A pair at mode 1 with amplitude 1e3 on N = 32, stepped at 0.45
    of the budget, goes non-finite at step 13.
    """
    return 3.0 * math.sqrt(lattice.n_max) * norm(u, NormSpec(1, 0.5))


def nonlinear_term(u: SpectralSequence) -> SpectralSequence:
    """N(u)(n) = 3 i sigma(n) sqrt|n| sum_{n1+n2=n} sqrt|n1 n2| u(n1) u(n2)."""
    lat = u.lattice
    # N(u) = sigma(n) grad H3(u)(n): the flow of H3 in the canonical bracket
    vals = np.sign(lat.modes) * _gradient_values(H3, u.values)
    return SpectralSequence(lat, vals, u.real_type)


# P(w) is the Toeplitz product below this many sublattice modes K and the
# irfft/rfft pair on _fft_size(K) points from it on.  Per call (best of 7 x
# 2,000) on a 2-core Xeon VM with NumPy 2.4, the Toeplitz product took 1.9 us
# and the FFT pair 13.5 us at K = 8; from K ~ 56 to 80 the two stay within
# the VM's run-to-run noise of each other (Toeplitz 14.0 and 21.2 us, FFT
# 16.7 and 17.0 us at K = 63 and 80), and above that the FFT wins (28 against
# 23 us at K = 96, 67 against 32 us at K = 128).
_FFT_CROSSOVER = 64


def _sublattice(h: np.ndarray) -> np.ndarray:
    """The modes 0, d, 2d, ... <= N of the sublattice d Z that carries the
    real_type state with half spectrum h = u[N:], d = spectral._sublattice_gcd(h);
    the zero state, whose closure is empty, keeps the zero mode only.
    """
    return np.arange(0, h.size, _sublattice_gcd(h) or h.size)


def _quadratic(k_max: int) -> tuple:
    """(stage, product) of one run on the sublattice modes d k, k = 0..K:
    stage the run's own buffer for the coefficients w(d k) of v, product()
    the quadratic term P(w)(d k) = sum_{n1+n2=d k} w(n1) w(n2) of what stage
    holds, with w(-n) = conj w(n).

    From _FFT_CROSSOVER up, P is rfft of the squared irfft on the alias-free
    grid of _fft_size(K) points.  Below it, stage is the slice K..2K of a
    zero-padded buffer of 3K + 1 slots whose slots 0..2K hold w(-K..K):
    product() writes the conjugate mirror into slots 0..K-1 and takes one
    matrix-vector product of the fixed Toeplitz view (row k is the window
    k..k+2K of the buffer) with the reversed slots 2K..0, so
    P(d k) = sum_c buf[k + c] buf[2K - c] with the padding closing the sum.
    """
    if k_max >= _FFT_CROSSOVER:
        fft, size = _fft(), _fft_size(k_max)
        stage = np.zeros(k_max + 1, dtype=np.complex128)

        def product() -> np.ndarray:
            g = fft.irfft(stage, size, norm="forward")
            return fft.rfft(g * g, norm="forward")[:k_max + 1]

        return stage, product
    buf = np.zeros(3 * k_max + 1, dtype=np.complex128)
    stage, mirror, tail = buf[k_max:2 * k_max + 1], buf[:k_max], buf[2 * k_max:k_max:-1]
    toeplitz = np.lib.stride_tricks.sliding_window_view(buf, 2 * k_max + 1)
    reversed_full = buf[2 * k_max::-1]

    def product() -> np.ndarray:
        np.conjugate(tail, out=mirror)
        return toeplitz @ reversed_full

    return stage, product


def _phi123(z: np.ndarray) -> tuple:
    """phi_k(z) = (e^z - sum_{j<k} z^j/j!) / z^k for k = 1, 2, 3.

    Direct formulas away from zero; a 10-term Taylor branch for |z| < 0.25
    where the direct quotients lose precision to cancellation.
    """
    small = np.abs(z) < 0.25
    zs = np.where(small, 1.0, z)
    ez = np.exp(z)
    p1 = (ez - 1.0) / zs
    p2 = (ez - 1.0 - z) / zs**2
    p3 = (ez - 1.0 - z - 0.5 * z * z) / zs**3
    out = []
    for k, direct in ((1, p1), (2, p2), (3, p3)):
        series = np.zeros_like(z)
        for j in range(9, -1, -1):
            series = series * z + 1.0 / math.factorial(j + k)
        out.append(np.where(small, series, direct))
    return tuple(out)


def _etd_coeffs(dt: float, modes: np.ndarray) -> tuple:
    """Cox-Matthews ETDRK4 coefficient arrays for the symbol i n^3 on modes,
    (e^z, e^{z/2}, q, f1, 2 f2, f3) with z = i n^3 dt and 3 i n folded into
    the four nonlinear weights: the step multiplies them by P(w) itself."""
    n = modes.astype(np.float64)
    z = 1j * n ** 3 * dt
    e_full = np.exp(z)
    e_half = np.exp(0.5 * z)
    fold = 3j * n
    q = fold * 0.5 * dt * _phi123(0.5 * z)[0]
    p1, p2, p3 = _phi123(z)
    f1 = fold * dt * (p1 - 3.0 * p2 + 4.0 * p3)
    f2 = fold * 2.0 * dt * (p2 - 2.0 * p3)
    f3 = fold * dt * (4.0 * p3 - p2)
    return e_full, e_half, q, f1, f2, f3


def _etdrk4_stepper(dt: float, modes: np.ndarray) -> tuple:
    """(rotation, increment) of the ETDRK4 step of the coefficients
    w = sqrt(n) h of v on the sublattice modes, wdot = i n^3 w + 3 i n P(w):
    the step is w -> rotation * w + increment(w), rotation = e^{i n^3 dt} the
    exact free flow.  increment steps through its own stage buffer
    (_quadratic): a stage is one product, no weight multiply."""
    e_full, e_half, q, f1, f2, f3 = _etd_coeffs(dt, modes)
    stage, product = _quadratic(modes.size - 1)

    def increment(w: np.ndarray) -> np.ndarray:
        ew = e_half * w
        stage[:] = w
        pw = product()
        np.multiply(q, pw, out=stage)
        np.add(stage, ew, out=stage)
        ea = e_half * stage
        pa = product()
        np.multiply(q, pa, out=stage)
        np.add(stage, ew, out=stage)
        pb = product()
        np.multiply(q, 2.0 * pb - pw, out=stage)
        np.add(stage, ea, out=stage)
        return f1 * pw + f2 * (pa + pb) + f3 * product()

    return e_full, increment


def _half_of(w: np.ndarray, root: np.ndarray) -> np.ndarray:
    """The half spectrum h = w / sqrt(n) of the coefficients w of v on the
    sublattice modes with square roots root; mode 0 stays 0."""
    return np.divide(w, root, out=np.zeros_like(w), where=root > 0.0)


def kdv_step(u: SpectralSequence, dt: float) -> SpectralSequence:
    """Advance a real_type state a single step of size dt (dt may be negative;
    used for micro-steps in experiments).

    The free rotation acts on h itself and only the O(dt) increment passes
    through w: scan_error_term divides the difference of a +dt and a -dt
    step by 2 dt, so the O(1) part of the step takes one rounding, not the
    three of the round trip h -> w -> h.  A non-finite step raises
    SolverDivergenceError, as in evolve.
    """
    if not u.real_type:
        raise ValueError("kdv_step requires a real_type state")
    n_max = u.lattice.n_max
    h = u.values[n_max:]
    modes = _sublattice(h)
    root = np.sqrt(modes)
    rotation, increment = _etdrk4_stepper(dt, modes)
    h = rotation * h[modes] + _half_of(increment(root * h[modes]), root)
    if not np.isfinite(h).all():
        raise SolverDivergenceError(f"non-finite state after a step of dt = {dt:.6g}")
    return SpectralSequence(u.lattice, _full_lattice(h, modes, n_max), real_type=True)


def _diagnostics_kernel(modes: np.ndarray) -> tuple:
    """(n, n^3, sqrt(n), slots, K, L) of _half_diagnostics on the sublattice
    modes n = d k: slots k = n / d, K the largest slot and L = _fft_size(K)."""
    n = modes.astype(np.float64)
    slots = modes // (int(np.gcd.reduce(modes)) or 1)
    k_max = int(slots.max(initial=0))
    return n, n ** 3, np.sqrt(n), slots, k_max, _fft_size(k_max)


def _half_diagnostics(half: np.ndarray, kernel: tuple) -> tuple:
    """(K, H, ||u||_{l^2_{3/2}}) of the real_type u on d Z whose half spectrum
    is h = half on the sublattice modes n = d k of kernel
    (_diagnostics_kernel), by exact quadrature over n > 0 (the mirror doubles
    each sum): K = 2 pi ||u||^2_{l^2_{1/2}} = 4 pi sum n |h|^2 and
    H = 2 pi Im(Lambda2(u) + H3(u)) = 2 pi (sum n^3 |h|^2 + (1/L) sum_j G_j^3),
    with G the irfft of sqrt(n) h at slot k = n / d on L = _fft_size(K)
    points, alias-free on the sublattice: an O(K log K) grid cube in place
    of the O(K^2) product of hamiltonians' H3 value.
    """
    n, cubes, root, slots, k_max, size = kernel
    power = half.real ** 2 + half.imag ** 2
    cubed = float(power @ cubes)
    w = np.zeros(k_max + 1, dtype=np.complex128)
    w[slots] = root * half
    grid = _fft().irfft(w, size, norm="forward")
    # grid * grid * grid: np.power with exponent 3 is ~20x slower
    cubic = float(np.sum(grid * grid * grid)) / size
    return (4.0 * math.pi * float(power @ n), 2.0 * math.pi * (cubed + cubic),
            math.sqrt(2.0 * cubed))


def diagnostics_of(u: SpectralSequence) -> tuple:
    """(P, K, H) of a real_type state by exact quadrature in mode space.

    P = 0 structurally; K = 2 pi ||u||^2_{l^2_{1/2}} and
    H = 2 pi Im(Lambda2(u) + H3(u)), as the mode-space Hamiltonian equals
    i H / (2 pi).  Both are summed on the sublattice of u's support
    (_half_diagnostics), as evolve and envelope_evolve record them.
    """
    if not u.real_type:
        raise ValueError("diagnostics_of requires a real_type state")
    half = u.values[u.lattice.n_max:]
    modes = _sublattice(half)
    k, h, _ = _half_diagnostics(half[modes], _diagnostics_kernel(modes))
    return 0.0, k, h


def evolve(u0: SpectralSequence, cfg: SolverConfig):
    """Integrate to t_final; returns (trajectory, diagnostics).

    The trajectory is a read-only sequence (_Trajectory) of (t,
    SpectralSequence) recorded every record_every steps (plus the initial and
    final states); item 0 is u0 itself.  The step count is rounded so the
    final time is hit exactly.
    """
    if not u0.real_type:
        raise ValueError("evolve requires real_type initial data")
    lat = cfg.lattice
    if u0.lattice != lat:
        raise ValueError("initial data lattice does not match solver lattice")
    steps = max(1, round(cfg.t_final / cfg.dt)) if cfg.t_final > 0 else 0
    dt = cfg.t_final / steps if steps else cfg.dt
    # checked against the dt actually stepped with, which rounding can raise
    # up to 1.5x above the requested one; a heuristic guard that rejects
    # gross steps but does not bound the scheme (stability_budget)
    budget = dt * stability_budget(u0, lat)
    if budget > 0.5:
        raise ValueError(
            f"stability budget violated: dt * 3 sqrt(N) ||u||_l1_1/2 = {budget:.3f} > 0.5"
        )
    h = u0.values[lat.n_max:]
    modes = _sublattice(h)
    root = np.sqrt(modes)
    rotation, increment = _etdrk4_stepper(dt, modes)
    return _time_loop(u0, modes, root * h[modes], steps, dt, cfg.record_every,
                      lambda w, t0: rotation * w + increment(w),
                      lambda w, t: _half_of(w, root))


class _Trajectory(Sequence):
    """The (t, SpectralSequence) records of one run, read-only.

    A record keeps its time and the half spectrum on the run's sublattice
    modes, O(K).  Reading an item builds its full-lattice state
    (spectral._full_lattice) through the SpectralSequence constructor, anew
    at every read; item 0 is the run's u0 itself.  Negative indices count
    from the end, and a slice is a plain list of (t, state) pairs.
    """

    def __init__(self, u0: SpectralSequence, modes: np.ndarray, records: list):
        self._u0 = u0
        self._modes = modes
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        t, half = self._records[i]
        if i == 0:
            return t, self._u0
        lat = self._u0.lattice
        return t, SpectralSequence(lat, _full_lattice(half, self._modes, lat.n_max),
                                   real_type=True)


def _time_loop(u0: SpectralSequence, modes: np.ndarray, state: np.ndarray,
               steps: int, dt: float, record_every: int, advance, half_at):
    """(trajectory, diagnostics) of steps steps of size dt from u0: advance(state, t0)
    steps from time t0, half_at(state, t) is the half spectrum on modes at time t.
    A non-finite state raises SolverDivergenceError with the records made so far."""
    records, diags = [], Diagnostics()
    kernel = _diagnostics_kernel(modes)
    _record(records, diags, 0.0, u0.values[u0.lattice.n_max + modes], kernel)
    for step in range(1, steps + 1):
        state = advance(state, (step - 1) * dt)
        if not np.isfinite(state).all():
            raise SolverDivergenceError(
                f"non-finite state at t = {step * dt:.6g}",
                trajectory=_Trajectory(u0, modes, records), diagnostics=diags,
            )
        if step % record_every == 0 or step == steps:
            t = step * dt
            _record(records, diags, t, half_at(state, t), kernel)
    return _Trajectory(u0, modes, records), diags


def _record(records: list, diags: Diagnostics, t: float, half: np.ndarray,
            kernel: tuple) -> None:
    """Append the half spectrum at time t and its diagnostics (P = 0)."""
    k, h, h1 = _half_diagnostics(half, kernel)
    records.append((t, half))
    diags.times.append(t)
    diags.P.append(0.0)
    diags.K.append(k)
    diags.H.append(h)
    diags.h1_weighted.append(h1)


def _osc_integral(omega: np.ndarray, h: float) -> np.ndarray:
    """int_0^h exp(i omega tau) dtau, exactly (omega = 0 gives h)."""
    omega = np.asarray(omega, dtype=np.float64)
    out = np.full(omega.shape, h, dtype=np.complex128)
    nz = omega != 0
    out[nz] = (np.exp(1j * omega[nz] * h) - 1.0) / (1j * omega[nz])
    return out


class _EnvelopeStepper:
    """Interaction-picture stepper with exact oscillatory quadrature.

    Writing u(n, t) = e^{i n^3 t} a(n, t), the envelope obeys
    adot(n) = sum_{n1+n2=n} c(n, n1, n2) e^{i Delta t} a(n1) a(n2) with
    c = 3 i sigma(n) sqrt|n n1 n2| and Delta = n1^3 + n2^3 - n^3 = -3 n1 n2 n.
    A step of size h applies the second Dyson iterate with the single- and
    double-phase integrals evaluated in closed form, so arbitrarily fast triad
    phases cost nothing; h only needs to resolve the slow envelope rates.
    This is the right tool for sparse high-carrier states where the smallest
    |Delta| is far above the envelope rate and direct stepping would need
    dt ~ 1/|Delta|.  First order in h on the envelope; refine steps to verify.

    Every phase is an integer resonance function (input cubes minus the output
    cube), so it factors exactly into per-mode rotations p(n) = e^{i n^3 t0}:
    e^{i Delta t0} = p(n1) p(n2) / p(n), and the double phase at third mode nj
    and output n' = m1 + m2 + nj is p(m1) p(m2) p(nj) / p(n').  A step rotates
    b = p a, contracts two static tables of nonzero terms (the single-phase
    weights per pair, the double-phase weights per third mode and pair) and
    rotates back with conj(p).  As in evolve, a is a real_type state's
    envelope on the positive sublattice modes: the tables hold the outputs
    n > 0 only and read inputs of both signs from the conjugate mirror of b,
    as p(-n) a(-n) = conj(p(n) a(n)).  Both tables hold each unordered pair
    {m1, m2} once, an off-diagonal one with weight 2, as (m1, m2) and
    (m2, m1) share coefficient, phases and product b(m1) b(m2).
    """

    def __init__(self, pos: np.ndarray, n_max: int, h: float):
        self.cubes = pos.astype(np.float64) ** 3
        modes = np.concatenate((-pos[::-1], pos))
        size = modes.size
        # pair p = i * size + k holds (m1, m2) = (modes[i], modes[k]), i <= k
        i, k = np.triu_indices(size)
        m1, m2 = modes[i], modes[k]
        msum = m1 + m2
        keep = (msum != 0) & (np.abs(msum) <= n_max)
        pair = (i * size + k)[keep]
        weight = np.where(i == k, 1.0, 2.0)[keep]
        m1, m2, msum = m1[keep], m2[keep], msum[keep]
        # delta1 != 0 (divided by below): no mode and no kept pair sum is 0
        delta1 = (-3 * msum * m1 * m2).astype(np.float64)
        ctil = weight * 3j * np.sign(msum) * np.sqrt(np.abs(msum * m1 * m2).astype(np.float64))
        # pos is sorted and sum-closed, so every positive sum has an index
        out = msum > 0
        self.first = ((ctil * _osc_integral(delta1, h))[out], pair[out],
                      np.searchsorted(pos, msum[out]))
        # second order, one third mode nj = modes[j] at a time: the pair
        # forms n1 = m1 + m2 and the output n = n1 + nj
        second = []
        for j, nj in enumerate(modes):
            n_out = msum + nj
            ok = (n_out > 0) & (n_out <= n_max)
            n1, n_out, dprime = msum[ok], n_out[ok], delta1[ok]
            d_out = (-3 * n1 * nj * n_out).astype(np.float64)
            c_out = 3j * np.sign(n_out) * np.sqrt(np.abs(n_out * n1 * nj).astype(np.float64))
            # J = int_0^h e^{i d_out tau} int_0^tau e^{i d' sigma} dsigma dtau
            joint = (_osc_integral(d_out + dprime, h)
                     - _osc_integral(d_out, h)) / (1j * dprime)
            second.append((2.0 * c_out * ctil[ok] * joint, pair[ok],
                           np.full(n_out.size, j), np.searchsorted(pos, n_out)))
        self.second = tuple(np.concatenate(column) for column in zip(*second))

    def step(self, a: np.ndarray, t0: float) -> np.ndarray:
        p = np.exp(1j * self.cubes * t0)
        b = p * a
        signed = np.concatenate((b[::-1].conj(), b))
        bb = np.multiply.outer(signed, signed).ravel()
        update = np.zeros(a.size, dtype=np.complex128)
        coef, pair, out = self.first
        _scatter_add(update, out, coef * bb[pair])
        coef, pair, third, out = self.second
        _scatter_add(update, out, coef * bb[pair] * signed[third])
        return a + p.conj() * update


_MAX_SUPPORT = 128  # the densest closure envelope_evolve takes, both signs counted


def envelope_evolve(u0: SpectralSequence, t_final: float, steps: int = 64,
                    record_every: int = 1):
    """Integrate sparse data to t_final by oscillatory envelope quadrature.

    Same return shape as evolve: (trajectory, diagnostics), the trajectory a
    read-only sequence (_Trajectory) of (t, SpectralSequence).  The envelope
    is stepped on the positive modes of the sum-closure of the support, the
    nonzero modes of the sublattice evolve steps on (_sublattice); cost per
    step is O(S^3) for S closure modes, independent of how fast the triad
    phases are.  Use for high-carrier states whose closure is genuinely
    sparse: a closure of more than _MAX_SUPPORT modes is rejected, because
    direct stepping with evolve is the right tool for dense states.
    """
    if not u0.real_type:
        raise ValueError("envelope_evolve requires real_type initial data")
    if not _is_finite_number(t_final) or t_final < 0.0:
        raise ValueError(f"t_final must be a finite number >= 0, got {t_final!r}")
    _require_int("steps", steps, 1)
    _require_int("record_every", record_every, 1)
    n_max = u0.lattice.n_max
    pos = _sublattice(u0.values[n_max:])[1:]
    if 2 * pos.size > _MAX_SUPPORT:
        raise ValueError(
            f"support closure has {2 * pos.size} modes > {_MAX_SUPPORT}; "
            "use evolve for dense states"
        )
    dt = t_final / steps
    if t_final == 0.0 or pos.size == 0:  # nothing to step
        steps = 0
    advance = _EnvelopeStepper(pos, n_max, dt).step if steps else None
    cubes = pos.astype(np.float64) ** 3
    return _time_loop(u0, pos, u0.values[n_max + pos], steps, dt, record_every,
                      advance, lambda a, t: a * np.exp(1j * cubes * t))


def soliton_reference(kappa: float, t: float, x0: float, lattice: ModeLattice) -> GridFunction:
    """Periodized traveling soliton v = -2 kappa^2 sech^2(kappa (x - 4 kappa^2 t - x0)).

    The mean (-2 kappa / pi for the periodized profile) is removed so the
    result lives in the zero-momentum frame used throughout; in that frame the
    profile travels at speed 4 kappa^2 + 6 * mean.
    """
    if kappa < 3.0:
        raise ValueError("kappa >= 3 keeps the periodization tail below 1e-8")
    x = lattice.grid()
    center = 4.0 * kappa**2 * t + x0
    prof = np.zeros_like(x)
    # wrap enough images for a < 1e-16 tail at kappa >= 3
    for k in range(-3, 4):
        arg = kappa * (x - center + 2.0 * math.pi * k)
        prof += -2.0 * kappa**2 / np.cosh(arg) ** 2
    prof -= np.mean(prof)
    return GridFunction(lattice, prof)


def soliton_mean(kappa: float) -> float:
    """Mean of the periodized sech^2 profile before removal: -2 kappa / pi."""
    return -2.0 * kappa / math.pi
