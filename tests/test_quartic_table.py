"""The shared kernels against the loops they replaced.

The oracles below are the original per-k1 implementations of the degree-4
gradient, value and f2_apply: for every support mode k1 they evaluate the
coefficient on the full support x support grid, mask output modes outside
0 < |m| <= n_max and scatter with np.add.at.  f1_apply is checked against a
literal double sum, the degree-3 values (a cube summed on the FFT grid)
against a literal triple sum, and the solver's sublattice (the gcd of a
support) against the set-based fixed point of its sum-closure.  Errors are
measured against the sum of the absolute values of the terms, so cancelling
sums are not over-weighted.

The quadratic terms (grad H3, grad F1, nonlinear_term and f1_apply) run on the
compact slice of the sublattice d Z that carries their inputs.  Their oracle
is the full-lattice np.convolve of the same formulas, which reaches every
mode whatever the support.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvlab import flows, hamiltonians
from kdvlab.data import DataSpec, Family
from kdvlab.experiments import ScanConfig, scan_near_identity
from kdvlab.hamiltonians import (F1, F2, H3, QUARTIC_RESONANT, HamiltonianSpec, _f2_raw,
                                 _gradient_values, eval_hamiltonian, f1_apply,
                                 f2_apply, gradient)
from kdvlab.solver import SolverConfig, _sublattice, nonlinear_term
from kdvlab.spectral import ModeLattice, SpectralSequence

TOL = 1e-13


def loop_gradient(spec, lat, vals):
    sup = lat.modes[vals != 0]
    out = np.zeros(lat.size, dtype=np.complex128)
    if sup.size == 0:
        return out
    qs = vals[sup + lat.n_max]
    k2 = sup[:, None]
    k3 = sup[None, :]
    q23 = qs[:, None] * qs[None, :]
    for k1, q1 in zip(sup, qs):
        m = k1 + k2 + k3
        mask = (np.abs(m) <= lat.n_max) & (m != 0)
        c = spec.coefficient(np.int64(k1), k2, k3, -m)
        contrib = 4.0 * np.where(mask, c, 0.0) * q1 * q23
        np.add.at(out, np.clip(m + lat.n_max, 0, lat.size - 1), np.where(mask, contrib, 0.0))
    out[lat.n_max] = 0.0
    return out


def loop_value(spec, lat, vals):
    sup = lat.modes[vals != 0]
    if sup.size == 0:
        return 0.0 + 0.0j
    qs = vals[sup + lat.n_max]
    total = 0.0 + 0.0j
    n2 = sup[:, None]
    n3 = sup[None, :]
    q23 = qs[:, None] * qs[None, :]
    for k1, q1 in zip(sup, qs):
        n4 = -(k1 + n2 + n3)
        mask = (np.abs(n4) <= lat.n_max) & (n4 != 0)
        q4 = np.where(mask, vals[np.clip(n4 + lat.n_max, 0, lat.size - 1)], 0.0)
        c = spec.coefficient(np.int64(k1), n2, n3, n4)
        total += q1 * complex(np.sum(np.where(mask, c, 0.0) * q23 * q4))
    return total


def loop_f2_apply(lat, v1, v2, v3, magnitude=False):
    """f2_apply(q1, q2, q3) as a per-k1 loop; |kernel| and |q| if magnitude."""
    if magnitude:
        v1, v2, v3 = np.abs(v1), np.abs(v2), np.abs(v3)
    out = np.zeros(lat.size, dtype=np.complex128)
    s1, s2, s3 = (lat.modes[v != 0] for v in (v1, v2, v3))
    if 0 in (s1.size, s2.size, s3.size):
        return out
    a2 = v2[s2 + lat.n_max][:, None]
    a3 = v3[s3 + lat.n_max][None, :]
    n2 = s2[:, None]
    n3 = s3[None, :]
    for k1 in s1:
        m = -(k1 + n2 + n3)  # output mode n
        mask = (np.abs(m) <= lat.n_max) & (m != 0)
        kern = 2.0 * (_f2_raw(m, np.int64(k1), n2, n3) + _f2_raw(np.int64(k1), n2, n3, m))
        if magnitude:
            kern = np.abs(kern)
        contrib = np.where(mask, kern, 0.0) * v1[k1 + lat.n_max] * a2 * a3
        np.add.at(out, np.clip(m + lat.n_max, 0, lat.size - 1), np.where(mask, contrib, 0.0))
    out[lat.n_max] = 0.0
    return out


def sum_f1_apply(lat, v1, v2, magnitude=False):
    """f1_apply(q1, q2) as the literal double sum over n1, n2 with n = -(n1 + n2)."""
    out = np.zeros(lat.size, dtype=np.complex128)
    for n1 in lat.modes:
        for n2 in lat.modes:
            n = -(n1 + n2)
            if n1 * n2 * n == 0 or abs(n) > lat.n_max:
                continue
            c = np.sign(n1 * n2 * n) / math.sqrt(abs(n1 * n2 * n))
            term = c * v1[n1 + lat.n_max] * v2[n2 + lat.n_max]
            out[n + lat.n_max] += abs(term) if magnitude else term
    return out


def triple_sum_value(spec, lat, vals, magnitude=False):
    """A degree-3 value as the literal sum over ordered zero-sum triples;
    the sum of |terms| if magnitude."""
    total = 0.0
    for n1 in lat.modes:
        for n2 in lat.modes:
            n3 = -(n1 + n2)
            if n1 * n2 * n3 == 0 or abs(n3) > lat.n_max:
                continue
            term = (complex(spec.coefficient(n1, n2, n3)) * vals[n1 + lat.n_max]
                    * vals[n2 + lat.n_max] * vals[n3 + lat.n_max])
            total += abs(term) if magnitude else term
    return total


def grid_floor(spec, lat, vals):
    """2^-52 (sum |w(n)|)^3, w = sqrt|n| q for H3 and q/sqrt|n| for F1: the
    rounding of a grid sum of cubes, present even where no zero-sum triple
    exists and the literal sum is exactly 0."""
    root = np.sqrt(np.maximum(np.abs(lat.modes), 1))
    w = np.abs(vals) * (root if spec is H3 else 1.0 / root)
    return 2.0**-52 * np.sum(w) ** 3


def set_closure(support, n_max):
    modes = {int(n) for n in support}
    while True:
        new = {a + b for a in modes for b in modes
               if a + b != 0 and abs(a + b) <= n_max} - modes
        if not new:
            return np.array(sorted(modes), dtype=np.int64)
        modes |= new


def absolute(spec):
    """The spec with |coefficient|: the oracle on it and |q| sums |terms|."""
    return HamiltonianSpec(spec.kind, 4, lambda *n: np.abs(spec.coefficient(*n)))


def assert_matches_oracle(spec, q):
    lat, vals = q.lattice, q.values
    bound = absolute(spec)
    if spec is F2:  # the resonant gradient has a closed form of its own
        scale = np.max(loop_gradient(bound, lat, np.abs(vals)).real)
        err = np.max(np.abs(gradient(spec, q).values - loop_gradient(spec, lat, vals)))
        assert err <= TOL * scale
    scale = loop_value(bound, lat, np.abs(vals)).real
    assert abs(eval_hamiltonian(spec, q) - loop_value(spec, lat, vals)) <= TOL * scale


def state(lat, modes, amplitudes):
    vals = np.zeros(lat.size, dtype=np.complex128)
    vals[np.asarray(modes, dtype=int) + lat.n_max] = amplitudes
    return SpectralSequence(lat, vals, real_type=False)


amplitude = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                               allow_nan=False, allow_infinity=False)


@st.composite
def states(draw, modes_for):
    """A random complex state on N <= 16 whose support modes_for draws."""
    n_max = draw(st.integers(1, 16))
    lat = ModeLattice(n_max, 3 * n_max + 1)
    modes = draw(modes_for(n_max))
    amps = draw(st.lists(amplitude, min_size=len(modes), max_size=len(modes)))
    return state(lat, modes, amps)


def random_support(n_max):
    nonzero = [n for n in range(-n_max, n_max + 1) if n != 0]
    return st.lists(st.sampled_from(nonzero), min_size=1, max_size=12, unique=True)


def sublattice_support(n_max):
    # {+-N0, +-2 N0, ...} up to n_max
    return st.integers(1, n_max).map(
        lambda n0: [s * k for k in range(n0, n_max + 1, n0) for s in (1, -1)])


def resonant_support(n_max):
    # {+-a, +-b}: the pairings (a, -a, b, -b) have vanishing cube sum
    return st.lists(st.integers(1, n_max), min_size=1, max_size=2, unique=True).map(
        lambda ab: [s * k for k in ab for s in (1, -1)])


def top_support(n_max):
    # modes in the upper half: most triple sums land past n_max
    top = [s * k for k in range((n_max + 1) // 2, n_max + 1) for s in (1, -1)]
    return st.lists(st.sampled_from(top), min_size=1, max_size=8, unique=True)


@pytest.mark.parametrize("spec", [F2, QUARTIC_RESONANT], ids=lambda s: s.kind.value)
@pytest.mark.parametrize("modes_for", [random_support, sublattice_support,
                                       resonant_support, top_support],
                         ids=lambda f: f.__name__)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_matches_loop_oracle(spec, modes_for, data):
    assert_matches_oracle(spec, data.draw(states(modes_for)))


@pytest.mark.parametrize("spec", [H3, F1], ids=lambda s: s.kind.value)
@pytest.mark.parametrize("real_type", [True, False], ids=["real_type", "complex"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cubic_value_matches_triple_sum(spec, real_type, data):
    # real_type H3 synthesises on the grid by irfft, the rest by a complex
    # ifft; fd_gradient evaluates on non-real_type perturbations
    modes_for = data.draw(st.sampled_from([random_support, sublattice_support, top_support]))
    q = data.draw(states(modes_for))
    lat = q.lattice
    if real_type:
        q = SpectralSequence(lat, q.values + q.values[::-1].conj(), real_type=True)
    expected = triple_sum_value(spec, lat, q.values)
    bound = (TOL * triple_sum_value(spec, lat, q.values, magnitude=True)
             + 8.0 * grid_floor(spec, lat, q.values))
    assert abs(eval_hamiltonian(spec, q) - expected) <= bound


@st.composite
def sparse_states(draw, count):
    """count independent random complex states on one lattice with N <= 12."""
    n_max = draw(st.integers(1, 12))
    lat = ModeLattice(n_max, 3 * n_max + 1)
    out = []
    for _ in range(count):
        modes = draw(random_support(n_max))
        amps = draw(st.lists(amplitude, min_size=len(modes), max_size=len(modes)))
        out.append(state(lat, modes, amps))
    return out


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(qs=sparse_states(3))
def test_f2_apply_matches_loop_oracle(qs):
    lat = qs[0].lattice
    vals = [q.values for q in qs]
    scale = np.max(loop_f2_apply(lat, *vals, magnitude=True).real)
    err = np.max(np.abs(f2_apply(*qs).values - loop_f2_apply(lat, *vals)))
    assert err <= TOL * scale


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(qs=sparse_states(2))
def test_f1_apply_matches_double_sum(qs):
    lat = qs[0].lattice
    vals = [q.values for q in qs]
    scale = np.max(sum_f1_apply(lat, *vals, magnitude=True).real)
    err = np.max(np.abs(f1_apply(*qs).values - sum_f1_apply(lat, *vals)))
    assert err <= TOL * scale


def full_convolution(term, lat, v1, v2, magnitude=False):
    """A quadratic term on the full lattice, outer(n) sum_{n1+n2=n} w1(n1) w2(n2)
    with (w1, w2, outer) = term(modes, v1, v2); f1_apply's sum runs over
    n1 + n2 = -n.  The sum of |terms| if magnitude."""
    w1, w2, outer = term(lat.modes, v1, v2)
    if magnitude:
        w1, w2, outer = np.abs(w1), np.abs(w2), np.abs(outer)
    conv = np.convolve(w1, w2)[lat.n_max: 3 * lat.n_max + 1]
    if term is f1_apply_formula:
        conv = conv[::-1]
    out = outer * conv
    out[lat.n_max] = 0.0
    return out


def root(n):
    return np.sqrt(np.abs(n).astype(np.float64))


def signed_inv_root(n):
    return np.sign(n) / np.sqrt(np.maximum(np.abs(n), 1).astype(np.float64))


def h3_gradient_formula(n, v1, v2):
    return root(n) * v1, root(n) * v2, 3j * root(n)


def nonlinear_formula(n, v1, v2):
    return root(n) * v1, root(n) * v2, 3j * np.sign(n) * root(n)


def f1_gradient_formula(n, v1, v2):
    return signed_inv_root(n) * v1, signed_inv_root(n) * v2, -signed_inv_root(n)


def f1_apply_formula(n, v1, v2):
    return signed_inv_root(n) * v1, signed_inv_root(n) * v2, signed_inv_root(n)


@st.composite
def sublattice_states(draw, n_max, kind):
    """A state on a random subset of the modes of d Z, d in 1..N//2; kind is
    "real_type", "complex" or "zero".  Amplitudes come from a seeded
    generator, so no two terms cancel exactly by accident."""
    lat = ModeLattice(n_max, 3 * n_max + 1)
    d = draw(st.integers(1, n_max // 2))
    vals = np.zeros(lat.size, dtype=np.complex128)
    if kind != "zero":
        on = [k for k in range(-n_max, n_max + 1) if k % d == 0 and k != 0]
        modes = np.array(draw(st.lists(st.sampled_from(on), min_size=1, unique=True)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        vals[modes + n_max] = rng.standard_normal(modes.size) + 1j * rng.standard_normal(modes.size)
        if kind == "real_type":
            vals = vals + vals[::-1].conj()
    return d, SpectralSequence(lat, vals, real_type=kind == "real_type")


def assert_matches_convolution(got, term, lat, v1, v2):
    expected = full_convolution(term, lat, v1, v2)
    np.testing.assert_array_equal(got == 0, expected == 0)
    scale = full_convolution(term, lat, v1, v2, magnitude=True).real
    assert np.all(np.abs(got - expected) <= 1e-14 * scale)


@pytest.mark.parametrize("kind", ["real_type", "complex", "zero"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_quadratic_terms_match_full_convolution(kind, data):
    # q1 on d1 Z and q2 on another sublattice d2 Z, d1 != d2; f1_apply(q1, q2)
    # lives on gcd(d1, d2) Z, which neither argument alone gives
    n_max = data.draw(st.integers(4, 64))
    d1, q1 = data.draw(sublattice_states(n_max, kind))
    _, q2 = data.draw(sublattice_states(n_max, "complex").filter(lambda s: s[0] != d1))
    lat, v1, v2 = q1.lattice, q1.values, q2.values
    assert_matches_convolution(_gradient_values(H3, v1), h3_gradient_formula, lat, v1, v1)
    assert_matches_convolution(gradient(H3, q1).values, h3_gradient_formula, lat, v1, v1)
    assert_matches_convolution(nonlinear_term(q1).values, nonlinear_formula, lat, v1, v1)
    assert_matches_convolution(gradient(F1, q1).values, f1_gradient_formula, lat, v1, v1)
    assert_matches_convolution(f1_apply(q1, q2).values, f1_apply_formula, lat, v1, v2)
    assert_matches_convolution(f1_apply(q2, q1).values, f1_apply_formula, lat, v2, v1)


def test_f2_supports_on_transform_scan(monkeypatch):
    # AC4's config: the flows keep single-pair data on the carrier's
    # sublattice, so grad F2 sees few supports and its table cache hits
    supports = []
    kernel = flows._gradient_values

    def recording(spec, vals):
        if spec is F2:
            supports.append(np.flatnonzero(vals).tobytes())
        return kernel(spec, vals)

    # the name the flows call
    monkeypatch.setattr(flows, "_gradient_values", recording)
    lat = ModeLattice(256, 769)
    scan_near_identity(ScanConfig(
        epsilon_grid=(0.1, 0.05, 0.025, 0.0125), rho=1.0, horizon_exponent=0.25,
        s_values=(0.0, 0.5, 1.0),
        data=DataSpec(family=Family.SINGLE_PAIR, epsilon=0.1, rho=1.0, lattice=lat),
        solver=SolverConfig(dt=1e-4, t_final=1.0, lattice=lat)))
    assert (len(supports), len(set(supports))) == (512, 13)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n_max=st.integers(1, 12), data=st.data())
def test_closure_matches_set_fixed_point(n_max, data):
    # the gcd rule covers conjugate-symmetric supports, the only ones the
    # real_type solvers see: draw one and symmetrize it
    drawn = data.draw(random_support(n_max))
    support = np.array(sorted({s * abs(n) for n in drawn for s in (1, -1)}), dtype=np.int64)
    half = np.zeros(n_max + 1)
    half[support[support > 0]] = 1.0
    pos = _sublattice(half)[1:]
    np.testing.assert_array_equal(np.concatenate((-pos[::-1], pos)),
                                  set_closure(support, n_max))


class TestCache:
    def test_equal_size_supports_do_not_collide(self):
        lat = ModeLattice(8, 25)
        hamiltonians._quartic_table.cache_clear()
        a = state(lat, [1, -1, 2, -2], [1.0, 0.5j, 0.3, -0.7])
        b = state(lat, [1, -1, 3, -3], [1.0, 0.5j, 0.3, -0.7])
        for q in (a, b, a, b):
            assert_matches_oracle(F2, q)
        info = hamiltonians._quartic_table.cache_info()
        assert info.currsize == 2  # one table per support
        assert info.hits > 0

    def test_one_support_on_two_lattices(self):
        # on N = 4 the outputs 5 and 6 are cut off, on N = 8 they are kept
        modes, amps = [2, -2, 3, -3], [1.0, 0.4 - 0.2j, 0.6j, 0.8]
        small = state(ModeLattice(4, 13), modes, amps)
        large = state(ModeLattice(8, 25), modes, amps)
        for q in (small, large, small):
            assert_matches_oracle(F2, q)
        assert gradient(F2, large).value_at(6) != 0.0

    def test_support_above_budget_is_not_cached(self):
        # 66 modes: 66^3 triples exceed the budget of 2^18 = 64^3
        lat = ModeLattice(33, 100)
        rng = np.random.default_rng(1)
        q = state(lat, [n for n in lat.modes if n != 0],
                  rng.standard_normal(66) + 1j * rng.standard_normal(66))
        assert 66**3 > hamiltonians._TABLE_ENTRY_BUDGET
        hamiltonians._quartic_table.cache_clear()
        assert_matches_oracle(F2, q)
        assert hamiltonians._quartic_table.cache_info().currsize == 0
