"""Flow-map tests: reversibility, conservation, order, and Taylor consistency."""

import math

import numpy as np
import pytest

from kdvlab.data import DataSpec, Family, make_data
from kdvlab.flows import (FlowConfig, FlowDivergenceError, flow,
                          near_identity_report, q_of_u, taylor_check, u_of_q)
from kdvlab.hamiltonians import F1, F2, LAMBDA2, eval_hamiltonian
from kdvlab.spectral import ModeLattice, SpectralSequence, l2s_norm

LAT = ModeLattice(16, 49)
LAT_DATA = ModeLattice(24, 73)  # fits the eps = 0.1 carrier band


def class_data(eps=0.1, rho=1.0, lat=LAT_DATA):
    return make_data(DataSpec(family=Family.SINGLE_PAIR, epsilon=eps, rho=rho,
                              lattice=lat))


def random_state(lat, rng, scale):
    pos = scale * (rng.standard_normal(lat.n_max) + 1j * rng.standard_normal(lat.n_max))
    pos /= np.arange(1, lat.n_max + 1)
    vals = np.zeros(lat.size, dtype=np.complex128)
    vals[lat.n_max + 1:] = pos
    vals[:lat.n_max] = pos[::-1].conj()
    return SpectralSequence(lat, vals, real_type=True)


class TestFlowBasics:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(substeps=4)
        with pytest.raises(TypeError):  # unknown fields are rejected
            FlowConfig(order=2)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, True, "1.0", None])
    def test_rejects_bad_tau(self, tau):
        # NaN used to end in FlowDivergenceError, inf in a RuntimeWarning and
        # True to flow for time 1
        with pytest.raises(ValueError, match="tau must be a finite number"):
            flow(F1, class_data(), tau)

    def test_zero_time_is_identity(self):
        q = class_data()
        w = flow(F1, q, 0.0)
        assert np.max(np.abs(w.values - q.values)) == 0.0

    def test_reversibility(self):
        rng = np.random.default_rng(21)
        q = random_state(LAT, rng, 0.3)
        back = flow(F1, flow(F1, q, 1.0), -1.0)
        assert np.max(np.abs(back.values - q.values)) < 1e-9

    def test_generator_self_conservation(self):
        # F1 is constant along its own flow
        rng = np.random.default_rng(22)
        q = random_state(LAT, rng, 0.3)
        before = eval_hamiltonian(F1, q)
        after = eval_hamiltonian(F1, flow(F1, q, 1.0, FlowConfig(substeps=128)))
        assert abs(after - before) < 1e-10 * abs(before)

    def test_rk4_order(self):
        rng = np.random.default_rng(23)
        q = random_state(LAT, rng, 0.5)
        ref = flow(F1, q, 1.0, FlowConfig(substeps=128)).values

        def err(substeps):
            w = flow(F1, q, 1.0, FlowConfig(substeps=substeps)).values
            return np.max(np.abs(w - ref))

        ratio = err(8) / err(16)
        assert 10.0 < ratio < 22.0  # 2^4 = 16 up to higher-order pollution

    def test_divergence_guard(self):
        big = SpectralSequence(
            LAT,
            np.where(np.abs(LAT.modes) == 1, 60.0, 0.0).astype(np.complex128),
            real_type=True,
        )
        with pytest.raises(FlowDivergenceError):
            flow(F1, big, 1.0, FlowConfig(substeps=8))


def count_states(monkeypatch) -> list:
    """The list that every SpectralSequence constructed from now on joins."""
    built = []
    post_init = SpectralSequence.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SpectralSequence, "__post_init__", counting)
    return built


class TestStatesBuilt:
    """The flows run on raw value arrays: a flow constructs one
    SpectralSequence, its result, and u_of_q one per flow."""

    @pytest.mark.parametrize("spec", [F1, F2])
    def test_flow_builds_its_result_only(self, spec, monkeypatch):
        q = class_data()
        built = count_states(monkeypatch)
        w = flow(spec, q, 1.0, FlowConfig(substeps=8))
        assert len(built) == 1 and built[0] is w

    def test_u_of_q_builds_two(self, monkeypatch):
        q = class_data()
        built = count_states(monkeypatch)
        u = u_of_q(q)
        assert len(built) == 2 and built[-1] is u


class TestComposedTransform:
    def test_round_trip(self):
        q = class_data()
        back = q_of_u(u_of_q(q))
        assert np.max(np.abs(back.values - q.values)) < 1e-9

    def test_near_identity_report(self):
        q = class_data(eps=0.1)
        rep = near_identity_report(q, 0.1, 1.0)
        assert rep.membership_after
        # deviations shrink with s-weight removed and are near-identity small
        assert rep.deviations[0.0] < 0.05
        assert rep.deviations[0.0] <= rep.deviations[1.5]

    def test_report_rejects_nonmember(self):
        rng = np.random.default_rng(24)
        q = random_state(LAT, rng, 5.0)
        with pytest.raises(ValueError):
            near_identity_report(q, 0.1, 1.0)

    def test_zero_data_fixed_point(self):
        q = SpectralSequence(LAT, np.zeros(LAT.size, dtype=np.complex128),
                             real_type=True)
        u = u_of_q(q)
        assert np.max(np.abs(u.values)) == 0.0


class TestTaylorConsistency:
    def test_invariant_quadratic_case(self):
        # the flow of Lambda2 is a phase rotation, which preserves Lambda2:
        # every bracket term vanishes and the residual is machine-size.
        # A one-mode lattice keeps the rotation frequency RK4-resolvable.
        lat = ModeLattice(1, 5)
        rng = np.random.default_rng(25)
        q = random_state(lat, rng, 0.3)
        assert taylor_check(LAMBDA2, LAMBDA2, q, 2, FlowConfig(substeps=256)) < 1e-12

    def test_remainder_scaling(self):
        # H = Lambda2 (degree 2), F = F1 (degree 3): the j-th bracket term has
        # degree j + 2, so the k = 2 remainder scales like amplitude^5
        rng = np.random.default_rng(26)
        base = random_state(LAT, rng, 1.0)

        def residual(lam):
            q = SpectralSequence(LAT, lam * base.values, real_type=True)
            return taylor_check(LAMBDA2, F1, q, 2)

        slope = math.log2(residual(0.4) / residual(0.2))
        assert slope == pytest.approx(5.0, abs=0.6)

    def test_rejects_deep_nesting(self):
        q = class_data()
        with pytest.raises(ValueError):
            taylor_check(LAMBDA2, F1, q, 4)
