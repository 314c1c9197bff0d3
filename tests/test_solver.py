"""Solver tests against independent physical-space and closed-form oracles.

The sublattice stepper, which steps the coefficients w = sqrt(n) h of v, is
checked against the full-lattice ETDRK4 step of h it replaced, whose N(u) is
nonlinear_term (the exact np.convolve product), on both branches of its
product P(w), and against the KdV scaling symmetry.  Its stages, which write
into per-run buffers, are checked byte for byte against the same algebra
written with plain binary operators (binary_op_stepper).
Its sublattice is checked against the set-based fixed point of the sum-closure
(set_closure).
The envelope stepper is checked against the per-third-mode loop it replaced,
which evaluates every triad phase e^{i Delta t0} on the full S x S pair grid
and scatters with np.add.at.  The recorded diagnostics, computed from the
half spectrum on the sublattice, are checked against the full-lattice
formulas they replaced (assert_diagnostics_match).
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvlab.data import DataSpec, Family, make_data
from kdvlab.hamiltonians import H3, LAMBDA2, eval_hamiltonian, gradient
from kdvlab.solver import (_FFT_CROSSOVER, SolverConfig, SolverDivergenceError,
                           _diagnostics_kernel, _EnvelopeStepper, _etd_coeffs,
                           _etdrk4_stepper, _half_diagnostics, _half_of, _osc_integral,
                           _phi123, _quadratic, _sublattice,
                           diagnostics_of, envelope_evolve, evolve, kdv_step,
                           nonlinear_term, soliton_mean, soliton_reference,
                           stability_budget)
from kdvlab.spectral import (GridFunction, ModeLattice, NormSpec, SpectralSequence,
                             _fft, _fft_size, _full_lattice, l2s_norm, linear_phase,
                             norm, sequence_from_modes, weighted_from_physical)
from test_quartic_table import set_closure

LAT = ModeLattice(16, 49)


def random_real_sequence(lat, rng, scale=0.1, step=1):
    """A random real_type state on every nonzero multiple of step."""
    pos = scale * (rng.standard_normal(lat.n_max) + 1j * rng.standard_normal(lat.n_max))
    pos /= np.arange(1, lat.n_max + 1)
    pos[np.arange(1, lat.n_max + 1) % step != 0] = 0.0
    vals = np.zeros(lat.size, dtype=np.complex128)
    vals[lat.n_max + 1:] = pos
    vals[:lat.n_max] = pos[::-1].conj()
    return SpectralSequence(lat, vals, real_type=True)


def full_etdrk4_step(u, dt):
    """One Cox-Matthews ETDRK4 step on the full lattice, N(u) by nonlinear_term."""
    lat = u.lattice
    z = 1j * lat.modes.astype(np.float64) ** 3 * dt
    e_half = np.exp(0.5 * z)
    q = 0.5 * dt * _phi123(0.5 * z)[0]
    p1, p2, p3 = _phi123(z)
    f1 = dt * (p1 - 3.0 * p2 + 4.0 * p3)
    f2 = dt * (p2 - 2.0 * p3)
    f3 = dt * (4.0 * p3 - p2)

    def nl(values):
        return nonlinear_term(SpectralSequence(lat, values, real_type=False)).values

    v = u.values
    nu = nl(v)
    a = e_half * v + q * nu
    na = nl(a)
    b = e_half * v + q * na
    nb = nl(b)
    c = e_half * a + q * (2.0 * nb - nu)
    nc = nl(c)
    return np.exp(z) * v + f1 * nu + 2.0 * f2 * (na + nb) + f3 * nc


def binary_op_stepper(dt, modes):
    """(rotation, increment) of the sublattice ETDRK4 step written with plain
    binary operators, a fresh array at every operation: the operation order
    the buffered stepper keeps.  P(w) is a Toeplitz matmul of a freshly built
    zero-padded buffer below the crossover and rfft(irfft(w)^2) from it on."""
    e_full, e_half, q, f1, f2, f3 = _etd_coeffs(dt, modes)
    k_max = modes.size - 1
    size = _fft_size(k_max)

    def product(w):
        if k_max >= _FFT_CROSSOVER:
            g = _fft().irfft(w, size, norm="forward")
            return _fft().rfft(g * g, norm="forward")[:k_max + 1]
        buf = np.concatenate((w[:0:-1].conj(), w, np.zeros(k_max)))
        toeplitz = np.lib.stride_tricks.sliding_window_view(buf, 2 * k_max + 1)
        return toeplitz @ buf[2 * k_max::-1]

    def increment(w):
        ew = e_half * w
        pw = product(w)
        a = q * pw + ew
        ea = e_half * a
        pa = product(a)
        b = q * pa + ew
        pb = product(b)
        c = q * (2.0 * pb - pw) + ea
        return f1 * pw + f2 * (pa + pb) + f3 * product(c)

    return e_full, increment


def off_closure(u):
    """Mask over modes 0..N of the nonnegative modes outside the sum-closure
    of u's support."""
    n_max = u.lattice.n_max
    off = np.ones(n_max + 1, dtype=bool)
    closure = set_closure(u.support(), n_max)
    off[closure[closure >= 0]] = False
    return off


@st.composite
def real_states(draw, max_n=64):
    """A random real_type state on N <= max_n: dense, or on 1-3 random pairs."""
    n_max = draw(st.integers(1, max_n))
    lat = ModeLattice(n_max, 3 * n_max + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = rng.standard_normal(n_max) + 1j * rng.standard_normal(n_max)
    pos *= 10.0 ** draw(st.floats(-3.0, 1.0)) / np.arange(1, n_max + 1)
    if draw(st.booleans()):
        kept = draw(st.lists(st.integers(1, n_max), min_size=1, max_size=3, unique=True))
        sparse = np.zeros(n_max, dtype=np.complex128)
        sparse[np.array(kept) - 1] = pos[np.array(kept) - 1]
        pos = sparse
    vals = np.zeros(lat.size, dtype=np.complex128)
    vals[n_max + 1:] = pos
    vals[:n_max] = pos[::-1].conj()
    return SpectralSequence(lat, vals, real_type=True)


def assert_records_before_failure(err, u0, dt):
    """err holds u0 and the states recorded at each step before the failure."""
    times = err.diagnostics.times
    assert len(err.trajectory) == len(times) >= 2
    assert err.trajectory[0][1] is u0
    assert times == [t for t, _ in err.trajectory] == [k * dt for k in range(len(times))]
    assert all(np.all(np.isfinite(u.values)) for _, u in err.trajectory)
    assert err.trajectory[-1][0] == times[-1]
    assert [t for t, _ in err.trajectory[1:]] == times[1:]
    assert str(err).endswith(f"t = {len(times) * dt:.6g}")


# relative agreement of the half-spectrum diagnostics with the full lattice:
# the same sums in another order, the H3 cube on a smaller grid
DIAG_TOL = 1e-13


def assert_diagnostics_match(u, k, h, h1):
    """k, h, h1 agree with the full-lattice formulas K = 2 pi ||u||^2_{l^2_{1/2}},
    H = 2 pi Im(Lambda2(u) + H3(u)) and ||u||_{l^2_{3/2}}; H is held relative
    to the sum of its two parts' sizes, which may cancel."""
    k_ref = 2.0 * math.pi * l2s_norm(u, 0.5) ** 2
    lam = 2.0 * math.pi * eval_hamiltonian(LAMBDA2, u).imag
    cubic = 2.0 * math.pi * eval_hamiltonian(H3, u).imag
    h1_ref = l2s_norm(u, 1.5)
    assert abs(k - k_ref) <= DIAG_TOL * k_ref
    assert abs(h - (lam + cubic)) <= DIAG_TOL * (abs(lam) + abs(cubic))
    assert abs(h1 - h1_ref) <= DIAG_TOL * h1_ref


def ramp_integral(omega, h):
    """int_0^h tau e^{i omega tau} dtau, exactly (omega = 0 gives h^2/2)."""
    out = np.full(omega.shape, 0.5 * h * h, dtype=np.complex128)
    nz = omega != 0
    w = 1j * omega[nz]
    out[nz] = (np.exp(w * h) * (w * h - 1.0) + 1.0) / w**2
    return out


def loop_envelope_update(modes, n_max, h, a, t0):
    """One envelope step's update as a loop over the third mode j."""
    n1 = modes[:, None]
    n2 = modes[None, :]
    nsum = n1 + n2
    valid = (nsum != 0) & (np.abs(nsum) <= n_max)
    prod = np.where(valid, nsum * n1 * n2, 1)
    ctil = np.where(valid, 3j * np.sign(nsum) * np.sqrt(np.abs(prod).astype(np.float64)), 0.0)
    delta1 = np.where(valid, (-3 * prod).astype(np.float64), 0.0)
    aa = a[:, None] * a[None, :]
    update = np.zeros(modes.size, dtype=np.complex128)
    contrib = ctil * _osc_integral(delta1, h) * np.exp(1j * delta1 * t0) * aa
    np.add.at(update, np.where(valid, np.searchsorted(modes, nsum), 0),
              np.where(valid, contrib, 0.0))
    for j, nj in enumerate(modes):
        n_out = nsum + nj
        ok = valid & (n_out != 0) & (np.abs(n_out) <= n_max)
        d_out = np.where(ok, (-3.0 * nsum * nj * n_out).astype(np.float64), 0.0)
        c_out = np.where(ok, 3j * np.sign(n_out)
                         * np.sqrt(np.abs(n_out * nsum * nj).astype(np.float64)), 0.0)
        joint = np.where(
            delta1 != 0,
            (_osc_integral(d_out + delta1, h) - _osc_integral(d_out, h))
            / np.where(delta1 != 0, 1j * delta1, 1.0),
            ramp_integral(d_out, h),
        )
        contrib = 2.0 * c_out * ctil * joint * np.exp(1j * (d_out + delta1) * t0) * aa * a[j]
        np.add.at(update, np.where(ok, np.searchsorted(modes, n_out), 0),
                  np.where(ok, contrib, 0.0))
    return update


@st.composite
def envelope_cases(draw):
    """The sum-closure of 1-3 random modes and their negatives on N <= 32, a
    random envelope on its positive modes, h, t0."""
    n_max = draw(st.integers(1, 32))
    support = draw(st.lists(st.integers(1, n_max), min_size=1, max_size=3, unique=True))
    modes = set_closure(support + [-n for n in support], n_max)
    pos = modes[modes > 0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(pos.size) + 1j * rng.standard_normal(pos.size)
    h = draw(st.floats(1e-3, 0.5))
    t0 = draw(st.floats(0.0, 4.0))
    return modes, n_max, h, a, t0


class TestNonlinearTerm:
    def test_pinned_two_mode(self):
        # u(+-1) = 1: only pair (1, 1) feeds mode 2, so N(2) = 3 i sqrt(2)
        u = sequence_from_modes(LAT, {1: 1.0, -1: 1.0})
        nl = nonlinear_term(u)
        assert nl.value_at(2) == pytest.approx(3j * math.sqrt(2), abs=1e-14)
        assert nl.value_at(-2) == pytest.approx(-3j * math.sqrt(2), abs=1e-14)
        assert nl.value_at(1) == 0.0  # pairs (0,1) and (2,-1) are absent
        assert nl.value_at(0) == 0.0

    def test_physical_space_oracle(self):
        # N(u) must be the weighted transform of 6 v v_x (alias-free on the
        # 3 n_max + 1 grid since the product is band-limited to 2 n_max)
        rng = np.random.default_rng(31)
        u = random_real_sequence(LAT, rng, scale=0.5)
        n = LAT.modes.astype(np.float64)
        vhat = np.sqrt(np.abs(n)) * u.values
        x = LAT.grid()
        phase = np.exp(1j * np.outer(x, n))
        v = (phase @ vhat).real
        vx = (phase @ (1j * n * vhat)).real
        w = 6.0 * v * vx
        expected = weighted_from_physical(GridFunction(LAT, w - np.mean(w)))
        got = nonlinear_term(u)
        assert np.max(np.abs(got.values - expected.values)) < 1e-11

    def test_matches_h3_gradient(self):
        # the evolution is Hamiltonian: N(u)(n) = sigma(n) dH3/du(-n)
        rng = np.random.default_rng(32)
        u = random_real_sequence(LAT, rng, scale=0.5)
        g = gradient(H3, u).values
        expected = np.sign(LAT.modes) * g
        assert np.max(np.abs(nonlinear_term(u).values - expected)) < 1e-12


class TestHalfSpectrum:
    """N(u) = 3 i sqrt(n) P(w) on the sublattice half spectrum, P of the
    coefficients w = sqrt(n) h of v by the Toeplitz product below the
    crossover and by irfft/rfft from it on, against the full-lattice
    convolution."""

    @staticmethod
    def check_against_convolution(u):
        n_max = u.lattice.n_max
        h = u.values[n_max:]
        modes = _sublattice(h)
        root = np.sqrt(modes)
        stage, product = _quadratic(modes.size - 1)
        stage[:] = root * h[modes]
        p = np.empty(modes.size, dtype=np.complex128)
        product(p)
        got = np.zeros(n_max + 1, dtype=np.complex128)
        got[modes] = 3j * root * p
        expected = nonlinear_term(u).values[n_max:]
        # N vanishes identically only when every pair sum leaves the lattice;
        # the FFT then leaves round-off on the closure, measured against the
        # a-priori product scale 3 sqrt(N) ||u||^2_{l^1_{1/2}}
        scale = (np.max(np.abs(expected))
                 or 3.0 * math.sqrt(n_max) * norm(u, NormSpec(1, 0.5)) ** 2)
        assert np.max(np.abs(got - expected)) <= 1e-14 * scale
        assert np.all(got[off_closure(u)] == 0.0)
        return modes.size - 1

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(u=real_states())
    def test_matches_convolution(self, u):
        self.check_against_convolution(u)

    def test_matches_convolution_n512(self):
        lat = ModeLattice(512, 1537)
        self.check_against_convolution(random_real_sequence(lat, np.random.default_rng(41)))
        self.check_against_convolution(make_data(DataSpec(
            family=Family.SINGLE_PAIR, epsilon=0.02, rho=1.0, lattice=lat)))

    @pytest.mark.parametrize("k_max", [_FFT_CROSSOVER - 1, _FFT_CROSSOVER])
    @pytest.mark.parametrize("step", [1, 3])
    def test_both_branches_at_crossover(self, k_max, step):
        n_max = step * k_max + step - 1  # the largest lattice with N // step = k_max
        lat = ModeLattice(n_max, 3 * n_max + 1)
        u = random_real_sequence(lat, np.random.default_rng(k_max + step), step=step)
        assert self.check_against_convolution(u) == k_max

    def test_matches_convolution_fft_on_sublattice(self):
        # carrier 2 on N = 512: the FFT branch on K = 256 sublattice modes
        lat = ModeLattice(512, 1537)
        u = random_real_sequence(lat, np.random.default_rng(42), step=2)
        assert self.check_against_convolution(u) == 256

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(u=real_states(max_n=32), dt=st.floats(1e-5, 1e-3), sign=st.sampled_from((1, -1)))
    def test_step_matches_full_lattice_oracle(self, u, dt, sign):
        # both signs of dt: scan_error_term differentiates with kdv_step(u, -h)
        expected = full_etdrk4_step(u, sign * dt)
        got = kdv_step(u, sign * dt).values
        scale = max(np.max(np.abs(expected)), 1e-300)
        assert np.max(np.abs(got - expected)) <= 1e-13 * scale
        assert np.all(got[u.lattice.n_max:][off_closure(u)] == 0.0)

    def test_evolve_stays_on_closure(self):
        lat = ModeLattice(64, 193)
        u0 = make_data(DataSpec(family=Family.SINGLE_PAIR, epsilon=0.1, rho=1.0, lattice=lat))
        traj, _ = evolve(u0, SolverConfig(dt=5e-4, t_final=0.05, lattice=lat,
                                          record_every=20))
        closure = set(set_closure(u0.support(), lat.n_max).tolist())
        assert closure == {n for n in range(-64, 65) if n and n % 10 == 0}
        for _, u in traj:
            assert set(u.support().tolist()) <= closure
        assert set(traj[-1][1].support().tolist()) == closure

    @pytest.mark.parametrize("n_max", [60, 200])  # K = 20 and 66: both branches
    def test_exact_zeros_off_sublattice(self, n_max):
        lat = ModeLattice(n_max, 3 * n_max + 1)
        u0 = random_real_sequence(lat, np.random.default_rng(n_max), scale=1e-3, step=3)
        on = lat.modes % 3 == 0
        on[n_max] = False
        traj, _ = evolve(u0, SolverConfig(dt=1e-6, t_final=1e-5, lattice=lat,
                                          record_every=4))
        for u in [u for _, u in traj] + [kdv_step(u0, 1e-6), kdv_step(u0, -1e-6)]:
            assert np.all(u.values[~on] == 0.0)
            assert np.all(u.values[on] != 0.0)

    @pytest.mark.parametrize("carrier, n_max, amp", [(10, 64, 0.2), (4, 512, 0.02)])
    def test_scaling_oracle(self, carrier, n_max, amp):
        # u(N0 k, t) = N0^{3/2} w(k, N0^3 t): a pair at carrier N0 on N modes
        # is a pair at carrier 1 on N // N0 modes (K = 6: convolution;
        # K = 128: FFT), evolved with dt and t scaled by N0^3
        k_max = n_max // carrier
        lat, lat_w = ModeLattice(n_max, 3 * n_max + 1), ModeLattice(k_max, 3 * k_max + 1)
        u0 = sequence_from_modes(lat, {carrier: amp, -carrier: amp})
        w0 = sequence_from_modes(lat_w, {1: amp * carrier**-1.5, -1: amp * carrier**-1.5})
        dt, t_final = 1e-5, 4e-4
        traj_u, _ = evolve(u0, SolverConfig(dt=dt, t_final=t_final, lattice=lat,
                                            record_every=10))
        traj_w, _ = evolve(w0, SolverConfig(dt=carrier**3 * dt, t_final=carrier**3 * t_final,
                                            lattice=lat_w, record_every=10))
        assert len(traj_u) == len(traj_w) == 5
        for (t_u, u), (t_w, w) in zip(traj_u, traj_w):
            assert t_w == pytest.approx(carrier**3 * t_u, rel=1e-14)
            expected = carrier**1.5 * w.values
            got = u.values[lat.n_max - carrier * lat_w.n_max:: carrier]
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
            # the step spreads the pair over every harmonic it can reach
            assert np.count_nonzero(w.values) == (2 * lat_w.n_max if t_w else 2)

    def test_zero_state(self):
        # the empty support: no sublattice mode is nonzero, and none becomes so
        lat = ModeLattice(16, 49)
        u0 = SpectralSequence(lat, np.zeros(lat.size, dtype=np.complex128))
        assert _sublattice(u0.values[lat.n_max:]).tolist() == [0]
        traj, _ = evolve(u0, SolverConfig(dt=1e-3, t_final=1e-2, lattice=lat))
        assert np.all(traj[-1][1].values == 0.0)
        assert np.all(kdv_step(u0, 1e-3).values == 0.0)

    def test_kdv_step_requires_real_type(self):
        u = SpectralSequence(LAT, np.zeros(LAT.size, dtype=np.complex128),
                             real_type=False)
        with pytest.raises(ValueError):
            kdv_step(u, 1e-3)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, True, "0.1", None])
    def test_kdv_step_rejects_bad_dt(self, dt):
        # NaN and inf used to step into SolverDivergenceError, True to step
        # with dt = 1 and a string to fail inside NumPy
        u = sequence_from_modes(LAT, {1: 0.1, -1: 0.1})
        with pytest.raises(ValueError, match="dt must be a finite number"):
            kdv_step(u, dt)

    def test_kdv_step_raises_on_non_finite_step(self):
        # a pair at 1e150 overflows in one step; the step used to come back
        # as a non-finite real_type state
        lat = ModeLattice(16, 49)
        u = sequence_from_modes(lat, {1: 1e150, -1: 1e150})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDivergenceError, match="non-finite state"):
                kdv_step(u, 1e-3)


class TestStepper:
    def test_linear_limit(self):
        # tiny amplitude: one step must match the exact Airy phase to O(amp^2)
        amp = 1e-8
        u = sequence_from_modes(LAT, {3: amp, -3: amp})
        stepped = kdv_step(u, 0.01)
        free = linear_phase(u, 0.01)
        assert np.max(np.abs(stepped.values - free.values)) < 1e-16

    def test_kdv_step_matches_evolve(self):
        rng = np.random.default_rng(33)
        u = random_real_sequence(LAT, rng)
        one = kdv_step(u, 1e-3)
        traj, _ = evolve(u, SolverConfig(dt=1e-3, t_final=1e-3, lattice=LAT))
        assert np.max(np.abs(one.values - traj[-1][1].values)) < 1e-15

    def test_budget_guard(self):
        u = sequence_from_modes(LAT, {1: 1.0, -1: 1.0})
        # ||u||_{l^1_{1/2}} = 2, so the budget is 6 sqrt(16) = 24
        assert stability_budget(u, LAT) == pytest.approx(24.0, rel=1e-14)
        with pytest.raises(ValueError):
            evolve(u, SolverConfig(dt=0.1, t_final=1.0, lattice=LAT))

    def test_budget_guard_uses_rounded_dt(self):
        # t_final = 1.4 dt rounds to one step of 1.4 dt: budget 0.45 -> 0.63
        lat = ModeLattice(64, 193)
        u = make_data(DataSpec(family=Family.SINGLE_PAIR, epsilon=0.1, rho=1.0,
                               lattice=lat))
        dt = 0.45 / stability_budget(u, lat)
        evolve(u, SolverConfig(dt=dt, t_final=dt, lattice=lat))
        with pytest.raises(ValueError, match="0.630 > 0.5"):
            evolve(u, SolverConfig(dt=dt, t_final=1.4 * dt, lattice=lat))

    def test_evolve_validation(self):
        u = SpectralSequence(LAT, np.zeros(LAT.size, dtype=np.complex128),
                             real_type=False)
        with pytest.raises(ValueError):
            evolve(u, SolverConfig(dt=1e-3, t_final=1.0, lattice=LAT))
        other = ModeLattice(8, 25)
        w = sequence_from_modes(other, {1: 0.1, -1: 0.1})
        with pytest.raises(ValueError):
            evolve(w, SolverConfig(dt=1e-3, t_final=1.0, lattice=LAT))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, t_final=1.0, lattice=LAT)
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-3, t_final=1.0, lattice=LAT, record_every=0)

    @pytest.mark.parametrize("dt, t_final", [
        (1e-3, -0.5), (1e-3, math.inf), (1e-3, math.nan), (1e-3, "x"), (1e-3, None),
        (math.nan, 1.0), (math.inf, 1.0), (-1e-3, 1.0), ("0.001", 1.0),
    ])
    def test_config_rejects_bad_times(self, dt, t_final):
        # a negative t_final used to run zero steps and return u0 silently
        with pytest.raises(ValueError):
            SolverConfig(dt=dt, t_final=t_final, lattice=LAT)

    def test_zero_t_final(self):
        u = sequence_from_modes(LAT, {1: 0.1, -1: 0.1})
        traj, diags = evolve(u, SolverConfig(dt=1e-3, t_final=0.0, lattice=LAT))
        assert [t for t, _ in traj] == [0.0] and diags.times == [0.0]

    def test_divergence_keeps_records(self):
        # a pair at mode 1 on N = 32, stepped within the budget: the step
        # outruns the nonlinear time scale of the harmonics the pair spreads
        # into, and the scheme blows up, K growing from 1x to ~3x, ~6e7x and
        # ~5e128x its initial value over steps 10-12; step 13 overflows
        lat = ModeLattice(32, 97)
        u0 = sequence_from_modes(lat, {1: 1e3, -1: 1e3})
        dt = 0.45 / stability_budget(u0, lat)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDivergenceError, match="non-finite state") as err:
                evolve(u0, SolverConfig(dt=dt, t_final=400 * dt, lattice=lat, record_every=1))
        assert_records_before_failure(err.value, u0, dt)
        assert err.value.diagnostics.K[-1] > 1e6 * err.value.diagnostics.K[0]


class TestDiagnostics:
    def test_cosine_oracle(self):
        # v = 2 cos x: K = int v^2 = 4 pi, H = int (v_x^2 / 2 + v^3) = 2 pi
        u = sequence_from_modes(LAT, {1: 1.0, -1: 1.0})
        p, k, h = diagnostics_of(u)
        assert p == 0.0
        assert k == pytest.approx(4.0 * math.pi, rel=1e-13)
        assert h == pytest.approx(2.0 * math.pi, rel=1e-13)

    def test_energy_physical_quadrature(self):
        # H agrees with the trapezoidal (spectrally exact) integral of
        # v_x^2 / 2 + v^3 for band-limited v
        rng = np.random.default_rng(34)
        u = random_real_sequence(LAT, rng, scale=0.5)
        n = LAT.modes.astype(np.float64)
        vhat = np.sqrt(np.abs(n)) * u.values
        x = LAT.grid()
        phase = np.exp(1j * np.outer(x, n))
        v = (phase @ vhat).real
        vx = (phase @ (1j * n * vhat)).real
        expected = 2.0 * math.pi * np.mean(0.5 * vx**2 + v**3)
        _, _, h = diagnostics_of(u)
        assert h == pytest.approx(expected, rel=1e-12)

    def test_requires_real_type(self):
        u = sequence_from_modes(LAT, {1: 1.0, -1: 1.0})
        with pytest.raises(ValueError, match="real_type"):
            diagnostics_of(SpectralSequence(LAT, u.values, real_type=False))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(u=real_states(), step=st.integers(1, 8))
    def test_half_spectrum_matches_full_lattice(self, u, step):
        # u kept on the multiples of step: a dense state (gcd 1), a sublattice
        # state, or 1-3 pairs whose gcd is the sublattice
        lat = u.lattice
        u = SpectralSequence(lat, np.where(lat.modes % step == 0, u.values, 0.0))
        half = u.values[lat.n_max:]
        modes = _sublattice(half)
        k, h, h1 = _half_diagnostics(half[modes], _diagnostics_kernel(modes))
        assert_diagnostics_match(u, k, h, h1)
        assert diagnostics_of(u) == (0.0, k, h)

    def test_evolve_records_match_full_lattice(self):
        lat = ModeLattice(64, 193)
        u0 = random_real_sequence(lat, np.random.default_rng(35))
        traj, diags = evolve(u0, SolverConfig(dt=1e-4, t_final=0.01, lattice=lat,
                                              record_every=10))
        assert len(traj) == 11
        for (_, u), k, h, h1 in zip(traj, diags.K, diags.H, diags.h1_weighted):
            assert_diagnostics_match(u, k, h, h1)

    def test_envelope_records_match_full_lattice(self):
        # AC6's lattice and its first config, carrier 25
        lat = ModeLattice(512, 1537)
        u0 = make_data(DataSpec(family=Family.SINGLE_PAIR, epsilon=0.04, rho=1.0,
                                lattice=lat))
        traj, diags = envelope_evolve(u0, 0.04 ** -0.25, steps=256)
        assert len(traj) == 257
        for (_, u), k, h, h1 in zip(traj, diags.K, diags.H, diags.h1_weighted):
            assert_diagnostics_match(u, k, h, h1)


def per_record_diagnostics(half, modes):
    """_half_diagnostics with its constants recomputed from the modes at
    every record, as each record once did."""
    n = modes.astype(np.float64)
    power = half.real ** 2 + half.imag ** 2
    cubed = float(power @ n ** 3)
    slots = modes // (int(np.gcd.reduce(modes)) or 1)
    k_max = int(slots.max(initial=0))
    w = np.zeros(k_max + 1, dtype=np.complex128)
    w[slots] = np.sqrt(n) * half
    size = _fft_size(k_max)
    grid = _fft().irfft(w, size, norm="forward")
    cubic = float(np.sum(grid * grid * grid)) / size
    return (4.0 * math.pi * float(power @ n), 2.0 * math.pi * (cubed + cubic),
            math.sqrt(2.0 * cubed))


def eager_run(u0, modes, state, steps, dt, record_every, advance, half_at):
    """(times, states, diagnostics) of a time loop that builds each record's
    full-lattice state as it records it."""
    lat = u0.lattice
    times, states = [0.0], [u0]
    values = [per_record_diagnostics(u0.values[lat.n_max + modes], modes)]
    for step in range(1, steps + 1):
        state = advance(state, (step - 1) * dt)
        if step % record_every == 0 or step == steps:
            t = step * dt
            half = half_at(state, t)
            times.append(t)
            states.append(SpectralSequence(lat, _full_lattice(half, modes, lat.n_max),
                                           real_type=True))
            values.append(per_record_diagnostics(half, modes))
    return times, states, values


def assert_same_run(out, expected):
    """The trajectory and diagnostics of out equal the eager run's exactly."""
    traj, diags = out
    times, states, values = expected
    assert [t for t, _ in traj] == diags.times == times
    for (_, u), ref in zip(traj, states, strict=True):
        assert np.array_equal(u.values, ref.values)
    assert list(zip(diags.K, diags.H, diags.h1_weighted)) == values
    assert diags.P == [0.0] * len(times)


class TestRecords:
    """Records keep the half spectrum on the sublattice; the trajectory builds
    a full-lattice state when an item is read, the same state the eager
    build gave."""

    @pytest.mark.parametrize("n_max, step", [(64, 1), (60, 3), (200, 3)])
    def test_evolve_states_match_eager_build(self, n_max, step):
        # d = 1 and d = 3, K = 20 (convolution) and 66 (FFT)
        lat = ModeLattice(n_max, 3 * n_max + 1)
        u0 = random_real_sequence(lat, np.random.default_rng(n_max + step), step=step)
        steps, t_final = 60, 60 * 1e-5
        out = evolve(u0, SolverConfig(dt=1e-5, t_final=t_final, lattice=lat,
                                      record_every=7))
        modes = _sublattice(u0.values[n_max:])
        dt = t_final / steps  # the dt evolve steps with
        root = np.sqrt(modes)
        rotation, increment = _etdrk4_stepper(dt, modes)
        assert_same_run(out, eager_run(
            u0, modes, root * u0.values[n_max + modes], steps, dt, 7,
            lambda w, t0: rotation * w + increment(w), lambda w, t: _half_of(w, root)))

    @pytest.mark.parametrize("n_max", [32, 80])  # K = 32 (Toeplitz) and 80 (FFT)
    def test_concurrent_runs_match_serial(self, n_max):
        # each run steps through its own stage buffer: two runs on one lattice,
        # interleaved on two threads, give the bytes each gives alone
        lat = ModeLattice(n_max, 3 * n_max + 1)
        cfg = SolverConfig(dt=1e-6, t_final=4e-4, lattice=lat, record_every=40)
        u0s = [random_real_sequence(lat, np.random.default_rng(seed)) for seed in (51, 52)]
        serial = [evolve(u0, cfg) for u0 in u0s]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(evolve, u0, cfg) for u0 in u0s]
                concurrent = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for (traj, diags), (ref, ref_diags) in zip(concurrent, serial, strict=True):
            assert len(traj) == len(ref) == 11
            for (t, u), (t_ref, u_ref) in zip(traj, ref):
                assert t == t_ref
                assert u.values.tobytes() == u_ref.values.tobytes()
            assert (diags.K, diags.H) == (ref_diags.K, ref_diags.H)

    @pytest.mark.parametrize("eps", [0.04, 0.02, 0.01, 0.005])
    def test_envelope_states_match_eager_build(self, eps):
        # AC6's lattice and configs
        lat = ModeLattice(512, 1537)
        u0 = make_data(DataSpec(family=Family.SINGLE_PAIR, epsilon=eps, rho=1.0,
                                lattice=lat))
        t_final, steps = eps ** -0.25, 256
        out = envelope_evolve(u0, t_final, steps=steps)
        pos = _sublattice(u0.values[lat.n_max:])[1:]
        dt = t_final / steps
        cubes = pos.astype(np.float64) ** 3
        assert_same_run(out, eager_run(
            u0, pos, u0.values[lat.n_max + pos], steps, dt, 1,
            _EnvelopeStepper(pos, lat.n_max, dt).step,
            lambda a, t: a * np.exp(1j * cubes * t)))

    def test_sequence_protocol(self):
        lat = ModeLattice(64, 193)
        u0 = make_data(DataSpec(family=Family.SINGLE_PAIR, epsilon=0.1, rho=1.0,
                                lattice=lat))
        traj, diags = evolve(u0, SolverConfig(dt=5e-4, t_final=0.01, lattice=lat,
                                              record_every=5))
        states = list(traj)
        assert len(traj) == len(states) == 5
        assert [t for t, _ in states] == diags.times
        assert traj[0][1] is u0 and traj[-5][1] is u0
        t_last, u_last = traj[-1]
        assert t_last == diags.times[-1] == traj[4][0]
        assert np.array_equal(u_last.values, states[-1][1].values)
        assert u_last is not traj[-1][1]  # built anew at every read
        # so in, index and count compare states by value
        assert (t_last, u_last) in traj and traj.index((t_last, u_last)) == 4
        assert traj.count(traj[2]) == 1 and (t_last, u0) not in traj
        head = traj[:-1]
        assert type(head) is list and [t for t, _ in head] == diags.times[:-1]
        assert head[0][1] is u0
        assert [t for t, _ in traj[::-2]] == diags.times[::-2]
        assert traj[7:] == []
        extended = traj[:-1] + [(t_last, u0)]
        assert type(extended) is list and len(extended) == 5 and extended[-1][1] is u0
        for index in (5, -6):
            with pytest.raises(IndexError):
                traj[index]
        with pytest.raises(TypeError):
            traj[0] = (0.0, u0)

    def test_no_state_built_until_read(self, monkeypatch):
        # a 256-step envelope run on N = 512 constructs no SpectralSequence;
        # each read constructs one, except item 0, which is u0
        lat = ModeLattice(512, 1537)
        u0 = make_data(DataSpec(family=Family.SINGLE_PAIR, epsilon=0.04, rho=1.0,
                                lattice=lat))
        built = []
        post_init = SpectralSequence.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(SpectralSequence, "__post_init__", counting)
        traj, _ = envelope_evolve(u0, 0.04 ** -0.25, steps=256)
        assert len(traj) == 257 and built == []
        traj[0]
        assert built == []
        _, u = traj[-1]
        assert built == [u]
        list(traj)
        assert len(built) == 257


class TestBufferedStep:
    """evolve and kdv_step, whose stages write into per-run buffers, give the
    bytes of binary_op_stepper's fresh-array algebra."""

    @staticmethod
    def dense_state(n_max):
        lat = ModeLattice(n_max, 3 * n_max + 1)
        return random_real_sequence(lat, np.random.default_rng(n_max + 7))

    @pytest.mark.parametrize("n_max", [32, 80, 512])  # Toeplitz, FFT, FFT
    def test_evolve_matches_binary_op_oracle(self, n_max):
        u0 = self.dense_state(n_max)
        steps, t_final = 30, 30 * 1e-5
        traj, diags = evolve(u0, SolverConfig(dt=1e-5, t_final=t_final,
                                              lattice=u0.lattice, record_every=10))
        modes = _sublattice(u0.values[n_max:])
        assert modes.size - 1 == n_max
        root = np.sqrt(modes)
        rotation, increment = binary_op_stepper(t_final / steps, modes)
        times, states, values = eager_run(
            u0, modes, root * u0.values[n_max + modes], steps, t_final / steps, 10,
            lambda w, t0: rotation * w + increment(w), lambda w, t: _half_of(w, root))
        assert [t for t, _ in traj] == times
        for (_, u), ref in zip(traj, states, strict=True):
            assert u.values.tobytes() == ref.values.tobytes()
        assert list(zip(diags.K, diags.H, diags.h1_weighted)) == values

    @pytest.mark.parametrize("n_max", [32, 80, 512])
    @pytest.mark.parametrize("dt", [1e-5, -1e-5])
    def test_kdv_step_matches_binary_op_oracle(self, n_max, dt):
        u0 = self.dense_state(n_max)
        h = u0.values[n_max:]
        modes = _sublattice(h)
        root = np.sqrt(modes)
        rotation, increment = binary_op_stepper(dt, modes)
        w = root * h[modes]
        assert _etdrk4_stepper(dt, modes)[1](w).tobytes() == increment(w).tobytes()
        expected = rotation * h[modes] + _half_of(increment(w), root)
        got = kdv_step(u0, dt).values
        assert got.tobytes() == _full_lattice(expected, modes, n_max).tobytes()

    def test_increment_reuses_its_buffer(self):
        # increment returns the run's accumulator: the next call overwrites it
        modes = np.arange(33)
        w = self.dense_state(32).values[32:] * np.sqrt(modes)
        _, increment = _etdrk4_stepper(1e-5, modes)
        first = increment(w)
        kept = first.copy()
        assert increment(2.0 * w) is first
        assert first.tobytes() != kept.tobytes()
        assert increment(w).tobytes() == kept.tobytes()


class TestSoliton:
    LAT_S = ModeLattice(128, 385)

    def _spectral(self, kappa, t):
        return weighted_from_physical(soliton_reference(kappa, t, 0.0, self.LAT_S))

    def test_reference_properties(self):
        prof = soliton_reference(3.0, 0.0, 0.0, self.LAT_S)
        assert np.mean(prof.samples) == pytest.approx(0.0, abs=1e-13)
        # trough equals -2 kappa^2 - mean up to the half-grid-spacing offset
        # (x = 0 is not a sample point)
        assert np.min(prof.samples) == pytest.approx(
            -2.0 * 9.0 - soliton_mean(3.0), rel=2e-3)
        with pytest.raises(ValueError):
            soliton_reference(2.0, 0.0, 0.0, self.LAT_S)

    def test_short_propagation(self):
        # in the zero-momentum frame the profile travels at 4 kappa^2 + 6 mean
        kappa, t_end = 3.0, 0.02
        u0 = self._spectral(kappa, 0.0)
        traj, _ = evolve(u0, SolverConfig(dt=1e-4, t_final=t_end,
                                          lattice=self.LAT_S, record_every=10**9))
        u_end = traj[-1][1]
        shift = 6.0 * soliton_mean(kappa) * t_end
        ref = weighted_from_physical(
            soliton_reference(kappa, t_end, shift, self.LAT_S))
        rel = (l2s_norm(SpectralSequence(self.LAT_S, u_end.values - ref.values,
                                         real_type=False), 0.5)
               / l2s_norm(ref, 0.5))
        assert rel < 1e-4

    def test_conservation(self):
        u0 = self._spectral(3.0, 0.0)
        traj, diags = evolve(u0, SolverConfig(dt=1e-4, t_final=0.02,
                                              lattice=self.LAT_S,
                                              record_every=10**9))
        for series in (diags.K, diags.H):
            drift = abs(series[-1] - series[0]) / abs(series[0])
            assert drift < 1e-7
        assert max(abs(p) for p in diags.P) == 0.0


class TestEnvelope:
    def test_matches_direct_integration(self):
        # carrier-10 pair, where direct stepping can fully resolve the triad
        # phases: both integrators must land on the same state
        lat = ModeLattice(64, 193)
        amp = math.sqrt(0.05)
        u0 = sequence_from_modes(lat, {10: amp, -10: amp})
        t_end = 1.0
        traj_d, _ = evolve(u0, SolverConfig(dt=2e-5, t_final=t_end,
                                            lattice=lat, record_every=10**9))
        traj_e, _ = envelope_evolve(u0, t_end, steps=512)
        direct = traj_d[-1][1].values
        env = traj_e[-1][1].values
        err = np.max(np.abs(direct - env)) / np.max(np.abs(direct))
        assert err < 2e-3

    def test_norm_conservation(self):
        lat = ModeLattice(64, 193)
        amp = math.sqrt(0.05)
        u0 = sequence_from_modes(lat, {10: amp, -10: amp})
        _, diags = envelope_evolve(u0, 1.0, steps=512)
        drift = abs(diags.K[-1] - diags.K[0]) / abs(diags.K[0])
        assert drift < 1e-3

    def test_guards(self):
        with pytest.raises(ValueError, match="closure has 130 modes > 128"):
            envelope_evolve(sequence_from_modes(ModeLattice(65, 196), {1: 0.1, -1: 0.1}), 1.0)
        lat = ModeLattice(64, 193)
        u0 = sequence_from_modes(lat, {1: 0.1, -1: 0.1})
        with pytest.raises(ValueError):
            envelope_evolve(u0, 1.0, steps=0)
        with pytest.raises(ValueError):
            envelope_evolve(u0, 1.0, record_every=0)
        for t_final in (math.nan, math.inf):  # ran into SolverDivergenceError
            with pytest.raises(ValueError, match="t_final"):
                envelope_evolve(u0, t_final)
        bad = SpectralSequence(lat, np.zeros(lat.size, dtype=np.complex128),
                               real_type=False)
        with pytest.raises(ValueError):
            envelope_evolve(bad, 1.0)

    def test_divergence_keeps_records(self):
        # at amplitude 1e3 the envelope rate is far above 1/h, so the explicit
        # step grows the envelope until it overflows
        lat = ModeLattice(64, 193)
        u0 = sequence_from_modes(lat, {10: 1e3, -10: 1e3})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDivergenceError, match="non-finite state") as err:
                envelope_evolve(u0, 1.0, steps=64)
        assert_records_before_failure(err.value, u0, 1.0 / 64)

    def test_records_are_conjugate_symmetric(self):
        # every state recorded on AC6's lattice and config, exactly: the
        # negative modes are the conjugate mirror of the stepped positive ones
        lat = ModeLattice(512, 1537)
        for eps in (0.04, 0.02, 0.01, 0.005):
            u0 = make_data(DataSpec(family=Family.SINGLE_PAIR, epsilon=eps, rho=1.0,
                                    lattice=lat))
            traj, _ = envelope_evolve(u0, eps ** -0.25, steps=256)
            assert len(traj) == 257
            for _, u in traj:
                assert np.array_equal(u.values[::-1].conj(), u.values)

    def test_zero_data(self):
        lat = ModeLattice(16, 49)
        u0 = SpectralSequence(lat, np.zeros(lat.size, dtype=np.complex128),
                              real_type=True)
        traj, _ = envelope_evolve(u0, 1.0)
        assert np.max(np.abs(traj[-1][1].values)) == 0.0

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(case=envelope_cases())
    def test_step_matches_loop_oracle(self, case):
        # the per-mode rotations round the phases n^3 t0 in place of Delta t0;
        # the stepper takes the positive modes, the oracle the mirrored envelope
        modes, n_max, h, a, t0 = case
        mirrored = np.concatenate((a[::-1].conj(), a))
        expected = loop_envelope_update(modes, n_max, h, mirrored, t0)[a.size:]
        got = _EnvelopeStepper(modes[a.size:], n_max, h).step(a, t0) - a
        rel = max(1e-12, 8 * 2.0**-52 * np.max(np.abs(modes)) ** 3 * t0)
        assert np.max(np.abs(got - expected)) <= rel * np.max(np.abs(expected))
