"""Polynomial Hamiltonians on the mode lattice and their calculus.

Implements the quadratic flow generator Lambda2, the cubic interaction H3, the
two normal-form generators F1 (cubic) and F2 (quartic), and the resonant
quartic (3/2) i sum |q(n)|^4, together with gradient sequences, the canonical
Poisson bracket, the literal multilinear maps f1/f2, and resonance predicates.

All square roots are taken of absolute values.  Sums run over zero-sum index
tuples of nonzero modes; quartic terms with vanishing cube-sum denominator are
skipped by exact integer test.

One kernel per degree.  Every quadratic term (grad H3, grad F1, f1_apply and
solver.nonlinear_term, N(u) = sigma grad H3) is one spectral product,
_product, an exact np.convolve, run on the gcd sublattice of its input
(_on_sublattice): for inputs on d Z (spectral._sublattice_gcd; for f1_apply
the gcd of both arguments' d) it convolves the 2K + 1 modes d k,
|k| <= K = N // d, and every other mode is an exact zero.  Single-pair data
at carrier N0 keeps every state of the F1 and F2 flows on N0 Z, so N // N0
modes stand in for N.  These stay off the FFT on purpose: flows
evaluate them on sparse states whose exact zeros key the quartic table cache
(an FFT would leave round-off on every mode), and nonlinear_term is the
oracle the tests hold both branches of the solver's sublattice stepper to:
a Toeplitz product on sublattices of K < solver._FFT_CROSSOVER positive
modes, an irfft/rfft pair on larger ones.  The degree-3 values H3 and F1 have
separable coefficients c w(n1) w(n2) w(n3), so each is one grid cube,
c (1/L) sum_j G(x_j)^3 with G the synthesis of w on the alias-free
L = spectral._fft_size(N) grid.  Every quartic term (grad F2, the degree-4
values and f2_apply) contracts one quartic table per support: the nonzero
coefficients c(k1, k2, k3, -m) over the ordered triples of active modes with
0 < |m| <= n_max, with the indices of k1, of the pair (k2, k3) and of m.  A
gradient or f2_apply is an np.bincount of the terms over m (f2_apply takes
its three arguments on their union support), a value the same terms
weighted by q(-m).  Tables live in an LRU cache of 8 keyed on
(spec, n_max, support), so a flow, which revisits one support on almost every
RK4 stage, evaluates coefficients only when a support is first seen.  A
support of more than 64 modes (2^18 ordered triples, the entry budget) is
contracted block by block and not cached; a cached table takes at most 8 MiB.

Kernels take raw value arrays of the modes -N..N, N = vals.size // 2.  The
flows, solver.nonlinear_term and poisson_bracket call the gradient kernel
_gradient_values directly; gradient is its validated public wrapper.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .spectral import SpectralSequence, _fft, _fft_size, _sublattice_gcd


class Kind(enum.Enum):
    LAMBDA2 = "Lambda2"
    H3 = "H3"
    F1 = "F1"
    F2 = "F2"
    QUARTIC_RESONANT = "QuarticResonant"


# ---------------------------------------------------------------------------
# coefficient kernels (vectorized over integer arrays)
# ---------------------------------------------------------------------------

def _sgn(x: np.ndarray) -> np.ndarray:
    return np.sign(x).astype(np.float64)


def _f1_kernel(n1, n2, n3) -> np.ndarray:
    """sigma(n1 n2 n3) / (3 sqrt|n1 n2 n3|); zero if any index vanishes.

    The sign is fixed by the homological identity {Lambda2, F1} + H3 = 0: the
    time-1 flow of this generator cancels the cubic interaction exactly.
    """
    n1 = np.asarray(n1, dtype=np.int64)
    n2 = np.asarray(n2, dtype=np.int64)
    n3 = np.asarray(n3, dtype=np.int64)
    prod = n1 * n2 * n3
    nz = prod != 0
    with np.errstate(divide="ignore", invalid="ignore"):
        val = _sgn(prod) / (3.0 * np.sqrt(np.abs(prod)))
    return np.where(nz, val, 0.0)


def _f2_raw(a, b, c, d) -> np.ndarray:
    """-(3/2) sqrt|ab/(cd)| sigma(cd) / cube_sum off the resonant set, else zero.

    Literal (unsymmetrized) kernel with numerator pair (a, b) and denominator
    pair (c, d); the vanishing-denominator set is excluded by integer test.
    The overall sign matches the F1 convention fixed by the homological
    identities.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    d = np.asarray(d, dtype=np.int64)
    cube = a**3 + b**3 + c**3 + d**3
    nz = (a != 0) & (b != 0) & (c != 0) & (d != 0) & (cube != 0)
    ab = np.abs(a * b).astype(np.float64)
    cd = np.abs(c * d).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -1.5 * np.sqrt(ab / np.where(cd == 0, 1.0, cd)) * _sgn(c * d) / np.where(
            cube == 0, 1, cube
        )
    return np.where(nz, val, 0.0)


def _f2_sym_kernel(a, b, c, d) -> np.ndarray:
    """Permutation-symmetric F2 coefficient: average over the 3 pairings x 2
    orientations (the kernel is already symmetric within each pair)."""
    return (
        _f2_raw(a, b, c, d)
        + _f2_raw(c, d, a, b)
        + _f2_raw(a, c, b, d)
        + _f2_raw(b, d, a, c)
        + _f2_raw(a, d, b, c)
        + _f2_raw(b, c, a, d)
    ) / 6.0


def _f2_trilinear_kernel(n1, n2, n3, n) -> np.ndarray:
    """f2_apply's two-term kernel 2 [raw(n, n1 | n2, n3) + raw(n1, n2 | n3, n)]:
    (2/3) times the overall 3 of the displayed map."""
    return 2.0 * (_f2_raw(n, n1, n2, n3) + _f2_raw(n1, n2, n3, n))


def _lambda2_kernel(n1, n2) -> np.ndarray:
    n1 = np.asarray(n1, dtype=np.int64)
    n2 = np.asarray(n2, dtype=np.int64)
    ok = (n1 + n2 == 0) & (n1 != 0)
    return np.where(ok, 0.5j * np.abs(n1).astype(np.float64) ** 3, 0.0)


def _h3_kernel(n1, n2, n3) -> np.ndarray:
    n1 = np.asarray(n1, dtype=np.int64)
    n2 = np.asarray(n2, dtype=np.int64)
    n3 = np.asarray(n3, dtype=np.int64)
    prod = n1 * n2 * n3
    return np.where(prod != 0, 1j * np.sqrt(np.abs(prod).astype(np.float64)), 0.0)


def _quartic_kernel(a, b, c, d) -> np.ndarray:
    """i/2 on permutations of (n, n, -n, -n), else zero."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    d = np.asarray(d, dtype=np.int64)
    ok = (
        (a != 0)
        & (np.abs(a) == np.abs(b))
        & (np.abs(a) == np.abs(c))
        & (np.abs(a) == np.abs(d))
        & (a + b + c + d == 0)
    )
    return np.where(ok, 0.5j, 0.0)


@dataclass(frozen=True)
class HamiltonianSpec:
    """A homogeneous polynomial Hamiltonian given by a symmetric coefficient.

    coefficient maps a zero-sum integer tuple (as arrays, one per slot) to the
    coefficient of the corresponding ordered monomial q(n1)...q(nd).
    """

    kind: Kind
    degree: int
    coefficient: Callable[..., np.ndarray]


LAMBDA2 = HamiltonianSpec(Kind.LAMBDA2, 2, _lambda2_kernel)
H3 = HamiltonianSpec(Kind.H3, 3, _h3_kernel)
F1 = HamiltonianSpec(Kind.F1, 3, _f1_kernel)
F2 = HamiltonianSpec(Kind.F2, 4, _f2_sym_kernel)
QUARTIC_RESONANT = HamiltonianSpec(Kind.QUARTIC_RESONANT, 4, _quartic_kernel)
# the coefficient of f2_apply, contracted on the quartic table like F2
_F2_TRILINEAR = HamiltonianSpec(Kind.F2, 4, _f2_trilinear_kernel)


# ---------------------------------------------------------------------------
# validated scalar coefficient entry points
# ---------------------------------------------------------------------------

def _check_tuple(ns: Sequence[int]) -> None:
    if any(n == 0 for n in ns):
        raise ValueError(f"indices must be nonzero, got {tuple(ns)}")
    if sum(ns) != 0:
        raise ValueError(f"indices must sum to zero, got {tuple(ns)}")


def f1_coeff(n1: int, n2: int, n3: int) -> float:
    """Cubic generator coefficient sigma(n1 n2 n3)/(3 sqrt|n1 n2 n3|)."""
    _check_tuple((n1, n2, n3))
    return float(_f1_kernel(n1, n2, n3))


def f2_coeff(n1: int, n2: int, n3: int, n4: int) -> float:
    """Quartic generator coefficient (literal form, numerator pair (n1, n2));
    exactly zero on the resonant set n1^3+n2^3+n3^3+n4^3 = 0."""
    _check_tuple((n1, n2, n3, n4))
    return float(_f2_raw(n1, n2, n3, n4))


# ---------------------------------------------------------------------------
# resonance analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResonanceWitness:
    tuple: tuple
    cube_sum: int
    factored: int
    resonant: bool


def resonance_witness(ns: Sequence[int]) -> ResonanceWitness:
    """Exact integer cube-sum and its factored form for a zero-sum tuple.

    Triples: n1^3+n2^3+n3^3 = 3 n1 n2 n3 exactly.  Quadruples: the signed
    identity is n1^3+...+n4^3 = 3 (n1+n2)(n1+n3)(n1+n4); absolute values agree
    with the pairwise form 3 |n1+n2||n1+n3||n2+n3|.
    """
    ns = tuple(int(n) for n in ns)
    if len(ns) not in (3, 4):
        raise ValueError(f"tuple must have length 3 or 4, got {len(ns)}")
    _check_tuple(ns)
    cube = sum(n**3 for n in ns)
    if len(ns) == 3:
        fact = 3 * ns[0] * ns[1] * ns[2]
    else:
        fact = 3 * (ns[0] + ns[1]) * (ns[0] + ns[2]) * (ns[0] + ns[3])
    return ResonanceWitness(ns, cube, fact, cube == 0)


# ---------------------------------------------------------------------------
# quartic table: the degree-4 terms over a support, built once and cached
# ---------------------------------------------------------------------------

_TABLE_CACHE_SIZE = 8
# most ordered triples S^3 of a cached support; an entry takes 32 bytes
_TABLE_ENTRY_BUDGET = 1 << 18
# candidate triples per build block: temporaries near one S x S per-k1 slice
_BLOCK_TRIPLES = 1 << 12


def _quartic_blocks(spec: HamiltonianSpec, n_max: int, support: np.ndarray):
    """Nonzero quartic terms over the ordered support triples, in k1 blocks.

    support holds the lattice indices of the active modes.  Each block is
    (coef, i1, p, m): the coefficient spec.coefficient(k1, k2, k3, -(k1+k2+k3))
    of the triple k1 = mode of support[i1], (k2, k3) = pair p of support x
    support (row-major), and the lattice index m of k1 + k2 + k3, kept when
    0 < |k1 + k2 + k3| <= n_max.  Terms come in (k1, k2, k3) order, the order
    of a per-k1 loop; zero coefficients are dropped.
    """
    k = support - n_max
    s = k.size
    pair_sum = (k[:, None] + k[None, :]).ravel()
    step = max(1, _BLOCK_TRIPLES // (s * s))
    for start in range(0, s, step):
        rows = np.arange(start, min(start + step, s))
        m = k[rows, None] + pair_sum[None, :]
        r, p = np.nonzero((np.abs(m) <= n_max) & (m != 0))
        i1 = rows[r]
        m = m[r, p]
        coef = spec.coefficient(k[i1], k[p // s], k[p % s], -m)
        keep = coef != 0
        yield coef[keep], i1[keep], p[keep], m[keep] + n_max


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _quartic_table(spec: HamiltonianSpec, n_max: int, support_key: bytes) -> tuple:
    """All blocks of _quartic_blocks joined into read-only flat arrays.

    Keyed on the spec, the lattice size and the support's index bytes, so one
    support on two lattices, or two supports of equal size, never share a
    table.
    """
    support = np.frombuffer(support_key, dtype=np.intp)
    blocks = list(zip(*_quartic_blocks(spec, n_max, support)))
    table = tuple(np.concatenate(parts) for parts in blocks)
    for arr in table:
        arr.flags.writeable = False
    return table


def _quartic_terms(spec: HamiltonianSpec, n_max: int, support: np.ndarray,
                   q1: np.ndarray, q2: np.ndarray, q3: np.ndarray):
    """Yield (w, m) per table block of support (lattice indices): the term
    w = coef q1(k1) q2(k2) q3(k3) of each table entry, for q1, q2, q3 given on
    the support, and the lattice index m of its output mode k1 + k2 + k3.

    With q1 = q2 = q3 = q, the gradient of a quartic spec at mode m is 4 times
    the sum of the terms with that output, and its value is the sum of the
    terms weighted by q(-m).
    """
    if support.size == 0:
        return
    if support.size**3 <= _TABLE_ENTRY_BUDGET:
        blocks = [_quartic_table(spec, n_max, support.tobytes())]
    else:
        blocks = _quartic_blocks(spec, n_max, support)
    q23 = np.multiply.outer(q2, q3).ravel()
    for coef, i1, p, m in blocks:
        yield coef * q1[i1] * q23[p], m


def _quartic_sum(spec: HamiltonianSpec, n_max: int, support: np.ndarray,
                 *qs: np.ndarray) -> np.ndarray:
    """The quartic contraction on modes -n_max..n_max: the terms of
    _quartic_terms summed per output mode."""
    out = np.zeros(2 * n_max + 1, dtype=np.complex128)
    for w, m in _quartic_terms(spec, n_max, support, *qs):
        _scatter_add(out, m, w)
    return out


def _scatter_add(out: np.ndarray, index: np.ndarray, terms: np.ndarray) -> None:
    """out[index] += terms, repeated indices summed: one np.bincount per part."""
    out.real += np.bincount(index, terms.real, out.size)
    out.imag += np.bincount(index, terms.imag, out.size)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_hamiltonian(spec: HamiltonianSpec, q: SpectralSequence) -> complex:
    """Sum the coefficient over all ordered zero-sum tuples of active modes."""
    lat = q.lattice
    vals = q.values
    if spec.degree == 2:
        n = lat.modes
        c = spec.coefficient(n, -n)
        return complex(np.sum(c * vals * vals[::-1]))

    if spec.degree == 3:
        return _cubic_value(spec, q)

    # degree 4: the quartic table's terms, each weighted by q(-m)
    support = np.flatnonzero(vals)
    qs = vals[support]
    reflected = vals[::-1]
    terms = _quartic_terms(spec, lat.n_max, support, qs, qs, qs)
    return complex(sum(np.sum(w * reflected[m]) for w, m in terms))


def _cubic_weights(kind: Kind, vals: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """w with H3 = i sum w(n1) w(n2) w(n3) and F1 = (1/3) sum w(n1) w(n2) w(n3)
    over zero-sum triples: w = sqrt|n| q for H3, sigma(n) q / sqrt|n| for F1,
    for q given on modes."""
    absn = np.abs(modes).astype(np.float64)
    if kind is Kind.H3:
        return np.sqrt(absn) * vals
    return np.where(modes != 0,
                    _sgn(modes) * vals / np.sqrt(np.where(modes == 0, 1.0, absn)), 0.0)


_CUBIC_CONSTANT = {Kind.H3: 1j, Kind.F1: 1.0 / 3.0}


def _cubic_value(spec: HamiltonianSpec, q: SpectralSequence) -> complex:
    """H3 or F1 as c (1/L) sum_j G(x_j)^3, G the synthesis of w on L points.

    The coefficient is separable, c w(n1) w(n2) w(n3), and on L >= 3N + 1
    points a sum of three modes is 0 mod L only if it is 0, so the grid sum
    is exactly the sum over zero-sum triples.  H3 of a real_type q has a
    conjugate-symmetric w and synthesises through irfft.  F1 (whose w on a
    real_type q is anti-symmetric, w(-n) = -conj(w(n))) and any non-real_type
    q, such as fd_gradient's perturbed states, go through a complex ifft.
    """
    if spec.kind not in _CUBIC_CONSTANT:
        raise ValueError(f"no degree-3 value rule for {spec.kind}")
    lat = q.lattice
    w = _cubic_weights(spec.kind, q.values, lat.modes)
    size = _fft_size(lat.n_max)
    if spec.kind is Kind.H3 and q.real_type:
        grid = _fft().irfft(w[lat.n_max:], size, norm="forward")
    else:
        # mode n in slot n mod L
        spread = np.zeros(size, dtype=np.complex128)
        spread[:lat.n_max + 1] = w[lat.n_max:]
        spread[size - lat.n_max:] = w[:lat.n_max]
        grid = _fft().ifft(spread, norm="forward")
    # grid * grid * grid: np.power with exponent 3 is ~20x slower
    return complex(_CUBIC_CONSTANT[spec.kind] * np.sum(grid * grid * grid) / size)


# ---------------------------------------------------------------------------
# gradients:  gradient(spec, q)(n) = d(spec)/dq(-n)
# ---------------------------------------------------------------------------

def _product(a: np.ndarray, b: np.ndarray, n_max: int) -> np.ndarray:
    """The quadratic spectral product sum_{n1+n2=n} a(n1) b(n2) on |n| <= N:
    the central slice of the full linear convolution, exact and alias-free."""
    return np.convolve(a, b)[n_max: 3 * n_max + 1]


def _on_sublattice(term: Callable[..., np.ndarray], *vals: np.ndarray) -> np.ndarray:
    """A quadratic term of the states vals on the sublattice d Z that carries
    them all: d is the gcd of their spectral._sublattice_gcd.

    term(modes, *v) evaluates the term on the 2K + 1 modes d k, |k| <= K = N // d,
    from the values v there: the compact slice vals[N % d :: d].  Its result
    is scattered into zeros, so every mode off d Z is an exact 0.0, as in the
    full convolution of the sparse states; d = 0, all states zero, gives zeros.
    """
    n_max = vals[0].size // 2
    d = math.gcd(*(_sublattice_gcd(v, n_max) for v in vals))
    out = np.zeros(vals[0].size, dtype=np.complex128)
    if d:
        on = slice(n_max % d, None, d)
        out[on] = term(np.arange(-n_max, n_max + 1)[on], *(v[on] for v in vals))
    return out


def _signed_inv_root(modes: np.ndarray) -> np.ndarray:
    """sigma(n) / sqrt|n|, zero at n = 0."""
    return _sgn(modes) / np.sqrt(np.maximum(np.abs(modes), 1).astype(np.float64))


def _h3_gradient_terms(modes: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """grad H3 = 3 i sqrt|n| sum_{n1+n2=n} sqrt|n1 n2| q(n1) q(n2) on modes -K..K."""
    root = np.sqrt(np.abs(modes).astype(np.float64))
    w = root * vals
    return 3j * root * _product(w, w, modes.size // 2)


def _f1_gradient_terms(modes: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """grad F1 = -sigma(n)/sqrt|n| sum_{n1+n2=n} z(n1) z(n2), z the F1 weights."""
    z = _cubic_weights(Kind.F1, vals, modes)
    return -_signed_inv_root(modes) * _product(z, z, modes.size // 2)


def _f1_apply_terms(modes: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """f1(q1, q2)(n) = sigma(n)/sqrt|n| sum_{n1+n2=-n} z1(n1) z2(n2)."""
    z1 = _cubic_weights(Kind.F1, v1, modes)
    z2 = _cubic_weights(Kind.F1, v2, modes)
    return _signed_inv_root(modes) * _product(z1, z2, modes.size // 2)[::-1]


def _gradient_values(spec: HamiltonianSpec, vals: np.ndarray) -> np.ndarray:
    """grad spec on raw values of the modes -N..N, N = vals.size // 2: the
    kernel behind gradient, the flows, nonlinear_term and the bracket."""
    n_max = vals.size // 2
    if spec.kind is Kind.LAMBDA2:
        return 1j * np.abs(np.arange(-n_max, n_max + 1)).astype(np.float64) ** 3 * vals
    if spec.kind is Kind.H3:
        return _on_sublattice(_h3_gradient_terms, vals)
    if spec.kind is Kind.F1:
        return _on_sublattice(_f1_gradient_terms, vals)
    if spec.kind is Kind.QUARTIC_RESONANT:
        # d/dq(-n) of (3/2) i sum_m q(m)^2 q(-m)^2
        return 6j * vals * vals * vals[::-1]
    if spec.degree == 4:
        support = np.flatnonzero(vals)
        qs = vals[support]
        return 4.0 * _quartic_sum(spec, n_max, support, qs, qs, qs)
    raise ValueError(f"no gradient rule for {spec.kind}")


def gradient(spec: HamiltonianSpec, q: SpectralSequence) -> SpectralSequence:
    """Gradient sequence n -> d(spec)/dq(-n); non-real_type in general."""
    return SpectralSequence(q.lattice, _gradient_values(spec, q.values), real_type=False)


Functional = Union[HamiltonianSpec, Callable[[SpectralSequence], complex]]


def fd_gradient(func: Callable[[SpectralSequence], complex], q: SpectralSequence,
                step: float | None = None) -> SpectralSequence:
    """Central-difference gradient sequence of a black-box functional.

    The holomorphic derivative d/dq(-n) is obtained by perturbing the -n slot
    in the real direction; polynomial functionals make this exact to O(step^2).
    """
    lat = q.lattice
    if step is None:
        scale = float(np.max(np.abs(q.values))) or 1.0
        step = 1e-6 * scale
    out = np.zeros(lat.size, dtype=np.complex128)
    base = q.values
    for i, n in enumerate(lat.modes):
        if n == 0:
            continue
        j = lat.index(-n)
        vp = base.copy()
        vp[j] += step
        vm = base.copy()
        vm[j] -= step
        fp = func(SpectralSequence(lat, vp, real_type=False))
        fm = func(SpectralSequence(lat, vm, real_type=False))
        out[lat.index(n)] = (fp - fm) / (2.0 * step)
    return SpectralSequence(lat, out, real_type=False)


def _gradient_of(a: Functional, q: SpectralSequence, fd_step: float | None) -> np.ndarray:
    if isinstance(a, HamiltonianSpec):
        return _gradient_values(a, q.values)
    return fd_gradient(a, q, fd_step).values


def poisson_bracket(a: Functional, b: Functional, q: SpectralSequence,
                    fd_step: float | None = None) -> complex:
    """{A, B}(q) = sum_{n != 0} sigma(n) dA/dq(n) dB/dq(-n).

    Either argument may be a black-box functional, in which case its gradient
    is taken by central finite differences.
    """
    ga = _gradient_of(a, q, fd_step)
    gb = _gradient_of(b, q, fd_step)
    sgn = _sgn(q.lattice.modes)
    # dA/dq(n) is the gradient sequence evaluated at -n
    return complex(np.sum(sgn * ga[::-1] * gb))


# ---------------------------------------------------------------------------
# literal multilinear maps of the a-priori estimates
# ---------------------------------------------------------------------------

def f1_apply(q1: SpectralSequence, q2: SpectralSequence) -> SpectralSequence:
    """f1(q1, q2)(n) = sum_{n1+n2+n=0} sigma(n1 n2 n)/sqrt|n1 n2 n| q1(n1) q2(n2),
    on the sublattice gcd(d1, d2) Z of the arguments' sublattices d1 Z, d2 Z."""
    return SpectralSequence(q1.lattice, _on_sublattice(_f1_apply_terms, q1.values, q2.values),
                            real_type=False)


def f2_apply(q1: SpectralSequence, q2: SpectralSequence, q3: SpectralSequence) -> SpectralSequence:
    """Trilinear map with the displayed two-term quartic kernel,

    f2(q1,q2,q3)(n) = -3 sum_{n+n1+n2+n3=0}
        [sqrt|n n1/(n2 n3)| sigma(n2 n3) + sqrt|n1 n2/(n3 n)| sigma(n3 n)]
        / (n^3+n1^3+n2^3+n3^3) * q1(n1) q2(n2) q3(n3),

    with vanishing-denominator tuples skipped.  The terms come from the
    quartic table of the union support of the arguments, which indexes them
    by k1 + k2 + k3 = -n.
    """
    lat = q1.lattice
    args = (q1.values, q2.values, q3.values)
    support = np.flatnonzero(np.any(args, axis=0))
    out = _quartic_sum(_F2_TRILINEAR, lat.n_max, support, *(v[support] for v in args))
    return SpectralSequence(lat, out[::-1], real_type=False)
