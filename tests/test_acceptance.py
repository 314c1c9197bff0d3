"""Acceptance gate: the seven pinned criteria, one pass/fail line each.

Constants marked FROZEN were calibrated once from converged measurements and
then fixed; the tests assert against the frozen values, not against freshly
fitted numbers.
"""

import math
import statistics

import numpy as np
import pytest

from kdvlab.data import DataSpec, Family, make_data
from kdvlab.experiments import (ScanConfig, check_identities, random_state,
                                scan_error_term, scan_linear_proximity,
                                scan_near_identity)
from kdvlab.hamiltonians import (F1, F2, H3, LAMBDA2, eval_hamiltonian,
                                 fd_gradient, gradient)
from kdvlab.solver import (SolverConfig, diagnostics_of, evolve,
                           soliton_mean, soliton_reference)
from kdvlab.spectral import (ModeLattice, SpectralSequence, l2s_norm,
                             weighted_from_physical)

RESULTS = []

LAT256 = ModeLattice(256, 769)
LAT512 = ModeLattice(512, 1537)


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} -- {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _scan_config(grid, lattice, s_values, **overrides):
    base = dict(
        epsilon_grid=grid,
        rho=1.0,
        horizon_exponent=0.25,
        s_values=s_values,
        data=DataSpec(family=Family.SINGLE_PAIR, epsilon=grid[0], rho=1.0,
                      lattice=lattice),
        solver=SolverConfig(dt=1e-4, t_final=1.0, lattice=lattice),
    )
    base.update(overrides)
    return ScanConfig(**base)


def test_ac1_identity_suite():
    rep = check_identities(n=8, trials=50, seed=1)
    ok = (rep["triples_exact"] and rep["triples_nonresonant"]
          and rep["quadruples_signed_exact"] and rep["quadruples_abs_exact"]
          and rep["quadruples_zero_set"]
          and rep["identity1_max_residual"] <= 1e-11
          and rep["identity2_max_residual"] <= 1e-10)
    _report(
        "AC1 identity suite", ok,
        f"triples={rep['triples_checked']} quadruples={rep['quadruples_checked']} "
        f"idI={rep['identity1_max_residual']:.2e} "
        f"idII={rep['identity2_max_residual']:.2e}",
    )


def test_ac2_gradient_correctness():
    lat = ModeLattice(8, 25)
    rng = np.random.default_rng(2)
    worst = {}
    for spec in (LAMBDA2, H3, F1, F2):
        err = 0.0
        for _ in range(20):
            q = random_state(lat, rng)
            ga = gradient(spec, q).values
            gf = fd_gradient(lambda qq, s=spec: eval_hamiltonian(s, qq), q).values
            err = max(err, float(np.max(np.abs(ga - gf)))
                      / max(float(np.max(np.abs(ga))), 1e-300))
        worst[spec.kind.value] = err
    ok = all(v <= 1e-6 for v in worst.values())
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report("AC2 gradient correctness", ok, detail)


@pytest.mark.slow
def test_ac3_solver_validation():
    kappa, t_end = 4.0, 0.05

    def soliton_state(t, x0):
        return weighted_from_physical(soliton_reference(kappa, t, x0, LAT256))

    u0 = soliton_state(0.0, 0.0)

    # (a) transport error against the traveling reference at dt = 1e-4
    traj, _ = evolve(u0, SolverConfig(dt=1e-4, t_final=t_end, lattice=LAT256,
                                      record_every=10**9))
    shift = 6.0 * soliton_mean(kappa) * t_end
    ref = soliton_state(t_end, shift)
    rel_err = (l2s_norm(SpectralSequence(LAT256, traj[-1][1].values - ref.values,
                                         real_type=False), 0.5)
               / l2s_norm(ref, 0.5))

    # (b) order-4 self-convergence under dt halving
    finals = {}
    for dt in (2.5e-5, 1.25e-5, 6.25e-6):
        t2, _ = evolve(u0, SolverConfig(dt=dt, t_final=t_end, lattice=LAT256,
                                        record_every=10**9))
        finals[dt] = t2[-1][1].values
    e_coarse = np.max(np.abs(finals[2.5e-5] - finals[1.25e-5]))
    e_fine = np.max(np.abs(finals[1.25e-5] - finals[6.25e-6]))
    ratio = e_coarse / e_fine

    # (c) conservation on eps = 0.1 band data over T = 1
    band = make_data(DataSpec(family=Family.DETERMINISTIC_BAND, epsilon=0.1,
                              rho=1.0, lattice=LAT256, bandwidth=1))
    _, diags = evolve(band, SolverConfig(dt=5e-6, t_final=1.0, lattice=LAT256,
                                         record_every=20000))
    drift_h = abs(diags.H[-1] - diags.H[0]) / abs(diags.H[0])
    drift_k = abs(diags.K[-1] - diags.K[0]) / abs(diags.K[0])
    p_max = max(abs(p) for p in diags.P)

    ok = (rel_err <= 1e-3 and 12.0 <= ratio <= 20.0
          and drift_h <= 1e-8 and drift_k <= 1e-8 and p_max <= 1e-12)
    _report(
        "AC3 solver validation", ok,
        f"soliton_rel={rel_err:.2e} conv_ratio={ratio:.1f} "
        f"Hdrift={drift_h:.2e} Kdrift={drift_k:.2e} Pmax={p_max:.1e}",
    )


def test_ac4_near_identity_scaling():
    cfg = _scan_config((0.1, 0.05, 0.025, 0.0125), LAT256, (0.0, 0.5, 1.0))
    rep = scan_near_identity(cfg)
    frozen = {0.0: 0.05, 0.5: 0.05, 1.0: 0.05}  # FROZEN: measured <= 0.029
    members = all(row[3] for row in rep.rows)
    ok = members and all(rep.constants[s] <= frozen[s] for s in frozen)
    detail = " ".join(f"C({s})={rep.constants[s]:.4f}<={frozen[s]}" for s in frozen)
    _report("AC4 near-identity scaling", ok,
            detail + f" membership={'all' if members else 'violated'}")


@pytest.mark.slow
def test_ac5_error_term_scaling():
    cfg = _scan_config((0.1, 0.05, 0.025, 0.0125), LAT256, (0.0, 0.5))
    rep = scan_error_term(cfg)
    frozen = {0.0: 1.0, 0.5: 1.0}  # FROZEN: measured 0.76 / 0.85
    orders = [row[3] for row in rep.rows]
    median_order = statistics.median(orders)
    ok = (all(rep.constants[s] <= frozen[s] for s in frozen)
          and 1.6 <= median_order <= 2.4)
    _report(
        "AC5 error-term scaling", ok,
        f"C(0)={rep.constants[0.0]:.3f} C(0.5)={rep.constants[0.5]:.3f} "
        f"median_order={median_order:.2f}",
    )


def test_ac6_main_theorem_scan():
    cfg = _scan_config((0.04, 0.02, 0.01, 0.005), LAT512, (0.0, 0.5),
                       integrator="envelope", envelope_steps=256)
    rep = scan_linear_proximity(cfg)
    frozen_c = 0.6  # FROZEN: measured 0.465 at s = 1/2
    slope = rep.fits[0.5].slope
    bridge_ok = all(
        abs(row[5] - math.sqrt(2.0 * math.pi) * row[3]) <= 1e-12 * max(row[5], 1.0)
        for row in rep.rows if row[2] == 0.5
    )
    monitor = max(rep.extras["h32_monitor_max_ratio"].values())
    ok = (rep.constants[0.5] <= frozen_c and slope >= 0.4
          and bridge_ok and monitor <= 2.0)
    _report(
        "AC6 main theorem scan", ok,
        f"C(0.5)={rep.constants[0.5]:.3f}<={frozen_c} slope={slope:.2f}>=0.4 "
        f"bridge={'exact' if bridge_ok else 'broken'} monitor={monitor:.3f}<=2",
    )


def test_ac7_reproducibility():
    def run():
        cfg = _scan_config((0.04, 0.02, 0.01, 0.005), LAT512, (0.0, 0.5),
                           integrator="envelope", envelope_steps=256)
        return scan_linear_proximity(cfg).to_csv().encode()

    first, second = run(), run()
    ok = first == second
    _report("AC7 reproducibility", ok,
            f"csv bytes {'identical' if ok else 'differ'} across two runs "
            f"({len(first)} bytes)")
