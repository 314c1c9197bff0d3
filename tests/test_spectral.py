"""Lattice, transforms, and norm tests with independently computed oracles."""

import math

import numpy as np
import pytest

from kdvlab.spectral import (GridFunction, ModeLattice, NormSpec, SpectralSequence,
                             _fft_size, l2s_norm, linear_phase, norm,
                             physical_from_weighted, sequence_from_modes,
                             weighted_from_physical, zero_sequence)

LAT = ModeLattice(16, 49)


def random_real_sequence(lat, rng, scale=1.0):
    vals = np.zeros(lat.size, dtype=np.complex128)
    pos = scale * (rng.standard_normal(lat.n_max) + 1j * rng.standard_normal(lat.n_max))
    vals[lat.n_max + 1:] = pos
    vals[:lat.n_max] = pos[::-1].conj()
    return SpectralSequence(lat, vals, real_type=True)


def dft_matrix(lat):
    """The literal N x M matrix e^{-i n x_j}, n = 1..N, x_j = -pi + 2 pi j / M.

    Each phase n x_j = -n pi + 2 pi (n j mod M) / M is reduced in integers
    first: with x_j itself, arguments up to N pi carry rounding of
    ulp(N pi) ~ 1e-13 rad at N = 512, more than the FFT's own error.
    """
    pos = np.arange(1, lat.n_max + 1)
    j = np.arange(lat.m_samples)
    turns = np.outer(pos, j) % lat.m_samples
    sign = np.where(pos % 2 == 0, 1.0, -1.0)[:, None]
    return sign * np.exp(-2j * math.pi * turns / lat.m_samples)


def dft_weighted_from_physical(v):
    """u(n) = (1/M) sum_j v(x_j) e^{-i n x_j} / sqrt(n), n = 1..N."""
    lat = v.lattice
    pos = np.arange(1, lat.n_max + 1)
    return dft_matrix(lat) @ v.samples / lat.m_samples / np.sqrt(pos)


def dft_physical_from_weighted(u):
    """v(x_j) = 2 Re sum_{n=1..N} sqrt(n) e^{i n x_j} u(n)."""
    lat = u.lattice
    pos = np.arange(1, lat.n_max + 1)
    return 2.0 * np.real(dft_matrix(lat).conj().T @ (np.sqrt(pos) * u.values[lat.n_max + 1:]))


def is_5_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def test_fft_size():
    for n_max, size in ((1, 4), (16, 50), (64, 200), (256, 800), (512, 1600)):
        assert _fft_size(n_max) == size
    # the smallest 5-smooth length >= 3 N + 1
    for n_max in range(1, 200):
        size = _fft_size(n_max)
        assert is_5_smooth(size)
        assert not any(is_5_smooth(k) for k in range(3 * n_max + 1, size))


class TestModeLattice:
    def test_modes_and_index(self):
        lat = ModeLattice(3, 10)
        assert list(lat.modes) == [-3, -2, -1, 0, 1, 2, 3]
        assert lat.size == 7
        assert lat.index(-3) == 0 and lat.index(0) == 3 and lat.index(3) == 6

    def test_rejects_small_sampling(self):
        with pytest.raises(ValueError):
            ModeLattice(4, 12)  # needs >= 13
        ModeLattice(4, 13)

    def test_rejects_nonpositive_n_max(self):
        with pytest.raises(ValueError):
            ModeLattice(0, 10)

    def test_grid_spans_period(self):
        lat = ModeLattice(2, 9)
        x = lat.grid()
        assert x.shape == (9,)
        assert x[0] == pytest.approx(-math.pi)
        assert x[1] - x[0] == pytest.approx(2 * math.pi / 9)


class TestSpectralSequence:
    def test_zero_mode_forced(self):
        vals = np.ones(LAT.size, dtype=np.complex128)
        u = SpectralSequence(LAT, vals, real_type=True)
        assert u.value_at(0) == 0.0

    def test_rejects_asymmetric_real_type(self):
        vals = np.zeros(LAT.size, dtype=np.complex128)
        vals[LAT.index(3)] = 1.0 + 1.0j  # no conjugate partner
        with pytest.raises(ValueError):
            SpectralSequence(LAT, vals, real_type=True)
        SpectralSequence(LAT, vals, real_type=False)

    def test_support(self):
        u = sequence_from_modes(LAT, {2: 1.0, -2: 1.0, 5: 1j, -5: -1j})
        assert sorted(u.support()) == [-5, -2, 2, 5]
        assert zero_sequence(LAT).support().size == 0

    def test_sequence_from_modes_rejects_zero(self):
        with pytest.raises(ValueError):
            sequence_from_modes(LAT, {0: 1.0})

    def test_sequence_from_modes_rejects_outside_lattice(self):
        # -6 would wrap around to mode 3, 6 would index past the end
        lat = ModeLattice(4, 13)
        for n in (-6, 6):
            with pytest.raises(ValueError, match="outside lattice"):
                sequence_from_modes(lat, {n: 1.0}, real_type=False)

    def test_equality_by_value(self):
        lat = ModeLattice(4, 13)
        u = sequence_from_modes(lat, {1: 0.1, -1: 0.1})
        assert (u == SpectralSequence(lat, u.values)) is True
        assert (u == sequence_from_modes(lat, {2: 0.1, -2: 0.1})) is False
        assert u != SpectralSequence(lat, u.values, real_type=False)
        assert u != sequence_from_modes(ModeLattice(4, 14), {1: 0.1, -1: 0.1})

    def test_values_immutable(self):
        u = sequence_from_modes(LAT, {1: 1.0, -1: 1.0})
        with pytest.raises(ValueError):
            u.values[0] = 5.0

    def test_value_at_outside_lattice(self):
        u = zero_sequence(LAT)
        with pytest.raises(ValueError):
            u.value_at(17)


class TestNorms:
    # hand-computed oracle: u(+-2) = 1, u(+-5) = +-2i
    def _u(self):
        return sequence_from_modes(LAT, {2: 1.0, -2: 1.0, 5: 2j, -5: -2j})

    def test_l2s_values(self):
        u = self._u()
        for s in (0.0, 0.5, 1.5):
            expect = math.sqrt(2 * 2 ** (2 * s) * 1.0 + 2 * 5 ** (2 * s) * 4.0)
            assert l2s_norm(u, s) == pytest.approx(expect, rel=1e-14)

    def test_l1_and_linf(self):
        u = self._u()
        assert norm(u, NormSpec(1, 0.5)) == pytest.approx(
            2 * math.sqrt(2) + 4 * math.sqrt(5), rel=1e-14)
        assert norm(u, NormSpec(math.inf, 1.0)) == pytest.approx(10.0, rel=1e-14)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            NormSpec(3, 0.0)

    def test_zero_norms(self):
        assert l2s_norm(zero_sequence(LAT), 1.5) == 0.0


class TestTransforms:
    def test_cosine_oracle(self):
        # v = 2 cos(3x) -> vhat(+-3) = 1 -> u(+-3) = 1/sqrt(3)
        x = LAT.grid()
        v = GridFunction(LAT, 2.0 * np.cos(3 * x))
        u = weighted_from_physical(v)
        assert u.value_at(3) == pytest.approx(1 / math.sqrt(3), abs=1e-13)
        assert u.value_at(-3) == pytest.approx(1 / math.sqrt(3), abs=1e-13)

    def test_sine_oracle(self):
        # v = 2 sin(2x) -> vhat(2) = -i -> u(2) = -i/sqrt(2)
        x = LAT.grid()
        v = GridFunction(LAT, 2.0 * np.sin(2 * x))
        u = weighted_from_physical(v)
        assert u.value_at(2) == pytest.approx(-1j / math.sqrt(2), abs=1e-13)

    # prime M = 3 * 64 + 1, an even M, and the N = 512 lattice's M
    @pytest.mark.parametrize("n_max, m_samples", [(64, 193), (64, 256), (512, 1537)])
    def test_dft_matrix_oracle(self, n_max, m_samples):
        lat = ModeLattice(n_max, m_samples)
        rng = np.random.default_rng(n_max + m_samples)
        u = random_real_sequence(lat, rng)
        v = physical_from_weighted(u)
        expected = dft_physical_from_weighted(u)
        scale = np.max(np.abs(expected))
        # physical_from_weighted also removes the rounding-level mean
        assert np.max(np.abs(v.samples - expected)) <= 1e-14 * scale
        w = rng.standard_normal(m_samples)
        g = GridFunction(lat, w - np.mean(w))
        got = weighted_from_physical(g).values[lat.n_max + 1:]
        expected = dft_weighted_from_physical(g)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        u = random_real_sequence(LAT, rng)
        v = physical_from_weighted(u)
        u2 = weighted_from_physical(v)
        assert np.max(np.abs(u2.values - u.values)) < 1e-12

    def test_parseval_bridge(self):
        # ||v||^2_{L^2} = 2 pi ||u||^2_{l^2_{1/2}} (quadrature exact, band-limited)
        rng = np.random.default_rng(12)
        u = random_real_sequence(LAT, rng)
        v = physical_from_weighted(u)
        l2_sq = 2 * math.pi * np.mean(v.samples ** 2)
        assert l2_sq == pytest.approx(2 * math.pi * l2s_norm(u, 0.5) ** 2, rel=1e-12)

    def test_grid_function_equality_by_value(self):
        lat = ModeLattice(4, 13)
        g = physical_from_weighted(sequence_from_modes(lat, {1: 0.1, -1: 0.1}))
        assert (g == GridFunction(g.lattice, g.samples)) is True
        assert (g == physical_from_weighted(sequence_from_modes(lat, {2: 0.1, -2: 0.1}))) is False
        other = physical_from_weighted(sequence_from_modes(ModeLattice(4, 14), {1: 0.1, -1: 0.1}))
        assert g != other

    def test_grid_function_rejects_nonzero_mean(self):
        with pytest.raises(ValueError):
            GridFunction(LAT, np.ones(LAT.m_samples))

    def test_physical_requires_real_type(self):
        u = SpectralSequence(LAT, np.zeros(LAT.size, dtype=np.complex128),
                             real_type=False)
        with pytest.raises(ValueError):
            physical_from_weighted(u)


class TestLinearPhase:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(13)
        u = random_real_sequence(LAT, rng)
        assert np.array_equal(linear_phase(u, 0.0).values, u.values)

    def test_modulus_preserved(self):
        rng = np.random.default_rng(14)
        u = random_real_sequence(LAT, rng)
        w = linear_phase(u, 0.37)
        assert np.max(np.abs(np.abs(w.values) - np.abs(u.values))) < 1e-14

    def test_single_mode_phase(self):
        u = sequence_from_modes(LAT, {2: 1.0, -2: 1.0})
        t = 0.1
        w = linear_phase(u, t)
        assert w.value_at(2) == pytest.approx(np.exp(1j * 8 * t), abs=1e-14)
        assert w.value_at(-2) == pytest.approx(np.exp(-1j * 8 * t), abs=1e-14)

    def test_group_property(self):
        rng = np.random.default_rng(15)
        u = random_real_sequence(LAT, rng)
        a = linear_phase(linear_phase(u, 0.2), 0.3)
        b = linear_phase(u, 0.5)
        assert np.max(np.abs(a.values - b.values)) < 1e-13
