"""Scan, report, and CLI tests on small lattices."""

import json
import math

import numpy as np
import pytest

from kdvlab import experiments
from kdvlab.cli import main
from kdvlab.data import DataSpec, Family
from kdvlab.experiments import (ScanConfig, ScanReport, check_identities,
                                config_from_dict, scan_error_term,
                                scan_linear_proximity, scan_near_identity,
                                slope_fit)
from kdvlab.flows import FlowConfig
from kdvlab.solver import SolverConfig, envelope_evolve
from kdvlab.spectral import ModeLattice

LAT = ModeLattice(48, 145)
GRID = (0.25, 0.2, 1 / 6, 0.125)  # carriers 4, 5, 6, 8


def small_config(**overrides):
    base = dict(
        epsilon_grid=GRID,
        rho=1.0,
        horizon_exponent=0.25,
        s_values=(0.0, 0.5),
        data=DataSpec(family=Family.SINGLE_PAIR, epsilon=0.25, rho=1.0, lattice=LAT),
        solver=SolverConfig(dt=1e-3, t_final=1.0, lattice=LAT),
    )
    base.update(overrides)
    return ScanConfig(**base)


def config_doc(**overrides):
    doc = {
        "epsilon_grid": list(GRID),
        "rho": 1.0,
        "horizon_exponent": 0.25,
        "s_values": [0.0, 0.5],
        "data": {"family": "single_pair", "lattice": {"n_max": 48, "m_samples": 145}},
        "solver": {"dt": 1e-3},
    }
    doc.update(overrides)
    return doc


class TestSlopeFit:
    def test_exact_power_law(self):
        pts = [(x, 3.0 * x**2) for x in (0.1, 0.2, 0.4, 0.8)]
        fit = slope_fit(pts)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.max_residual < 1e-12
        assert fit.n_points == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            slope_fit([(1.0, 1.0)])
        with pytest.raises(ValueError):
            slope_fit([(1.0, 1.0), (2.0, -1.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # used to return a NaN slope
        with pytest.raises(ValueError, match="finite"):
            slope_fit([(1.0, 2.0), (2.0, bad), (3.0, 4.0)])
        with pytest.raises(ValueError, match="finite"):
            slope_fit([(1.0, 2.0), (bad, 3.0), (3.0, 4.0)])


class TestScanConfig:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            small_config(epsilon_grid=(0.25, 0.2, 0.125))  # too few
        with pytest.raises(ValueError):
            small_config(epsilon_grid=(0.25, 0.25, 0.2, 0.125))  # not decreasing
        with pytest.raises(ValueError):
            small_config(epsilon_grid=(0.25, 0.24, 0.23, 0.22))  # < one octave
        with pytest.raises(ValueError):
            small_config(horizon_exponent=0.6)
        with pytest.raises(ValueError):
            small_config(integrator="magic")
        with pytest.raises(ValueError):
            small_config(envelope_steps=0)

    def test_rejects_contradictory_fields(self):
        # a scan used to run at rho and drop data.rho, and on data's lattice
        with pytest.raises(ValueError, match="data.rho 3.0 must equal rho 1.0"):
            small_config(data=DataSpec(family=Family.SINGLE_PAIR, epsilon=0.25,
                                       rho=3.0, lattice=LAT))
        with pytest.raises(ValueError, match="solver.lattice must equal data.lattice"):
            small_config(solver=SolverConfig(dt=1e-3, t_final=1.0,
                                             lattice=ModeLattice(64, 193)))

    def test_config_from_dict(self):
        cfg = config_from_dict(config_doc())
        assert cfg.epsilon_grid == GRID
        assert cfg.data.lattice.n_max == 48
        assert cfg.integrator == "direct"

    def test_config_from_dict_missing_section(self):
        doc = config_doc()
        del doc["solver"]
        with pytest.raises(KeyError):
            config_from_dict(doc)


class TestReport:
    def test_csv_formatting(self):
        rep = ScanReport(kind="demo", columns=["a", "b", "ok"],
                         rows=[(0.1, 1.0 / 3.0, True), (0.2, 2.0, False)])
        text = rep.to_csv()
        lines = text.split("\n")
        assert lines[0] == "a,b,ok"
        # repr round-trips floats exactly; booleans are lowercase words
        assert lines[1] == f"{0.1!r},{1.0 / 3.0!r},true"
        assert lines[2] == "0.2,2.0,false"
        assert text.endswith("\n") and "\r" not in text

    def test_json_round_trip(self):
        rep = ScanReport(kind="demo", columns=["a"], rows=[(0.5,)])
        doc = json.loads(rep.to_json())
        assert doc["kind"] == "demo"
        assert doc["rows"] == [{"a": 0.5}]


class TestScans:
    def test_near_identity_scan(self):
        rep = scan_near_identity(small_config())
        assert rep.columns == ["epsilon", "s", "deviation", "membership_after"]
        assert all(row[3] for row in rep.rows)  # stays in X_eps^{2 rho}
        assert all(row[2] >= 0.0 for row in rep.rows)
        # the rows follow s_values; they used to be s in {0, 1/2, 1, 3/2}
        assert {row[1] for row in rep.rows} == set(rep.constants) == {0.0, 0.5}

    def test_linear_proximity_scan(self):
        rep = scan_linear_proximity(small_config())
        assert rep.columns == ["epsilon", "t", "s", "deviation", "bracket_t",
                               "v_deviation"]
        for eps, t, s, dev, bracket, v_dev in rep.rows:
            assert bracket == pytest.approx(math.sqrt(1.0 + t * t), rel=1e-14)
            assert t == pytest.approx(eps ** -0.25, rel=1e-14)
        # the physical-side bridge: v column is sqrt(2 pi) x the s = 1/2 row
        by_eps = {r[0]: r for r in rep.rows if r[2] == 0.5}
        for eps, row in by_eps.items():
            assert row[5] == pytest.approx(math.sqrt(2 * math.pi) * row[3],
                                           rel=1e-12)
        assert "h32_monitor_max_ratio" in rep.extras

    @pytest.mark.parametrize("scan", [scan_linear_proximity, scan_error_term])
    def test_dt_past_budget_raises(self, scan):
        # the scans used to clamp dt to 0.45 of the budget without saying so
        cfg = small_config(solver=SolverConfig(dt=0.5, t_final=1.0, lattice=LAT))
        with pytest.raises(ValueError, match="stability budget violated"):
            scan(cfg)

    def test_envelope_integrator_path(self):
        rep = scan_linear_proximity(small_config(integrator="envelope",
                                                 envelope_steps=64))
        assert len(rep.rows) == len(GRID) * 2
        assert all(np.isfinite(row[3]) for row in rep.rows)
        assert 0.5 in rep.constants

    def test_error_term_scan_honours_integrator(self, monkeypatch):
        # scan_error_term used to run evolve whatever the integrator
        calls = []

        def spy(u0, t_final, steps):
            calls.append(t_final)
            return envelope_evolve(u0, t_final, steps=steps)

        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve called with integrator 'envelope'")

        monkeypatch.setattr(experiments, "envelope_evolve", spy)
        monkeypatch.setattr(experiments, "evolve", no_evolve)
        rep = scan_error_term(small_config(integrator="envelope", envelope_steps=8,
                                           flow=FlowConfig(substeps=8)))
        assert calls == [(1 / round(1 / eps)) ** -0.25 for eps in GRID]
        assert len(rep.rows) == len(GRID) * 2
        assert all(row[2] > 0.0 for row in rep.rows)

    @pytest.mark.slow
    def test_error_term_scan(self):
        rep = scan_error_term(small_config())
        assert rep.columns == ["epsilon", "s", "error_norm", "consistency_order"]
        assert all(row[2] > 0.0 for row in rep.rows)
        assert all(np.isfinite(row[3]) for row in rep.rows)


class TestCheckIdentities:
    def test_report_ok(self):
        rep = check_identities(n=4, trials=3, seed=5)
        assert rep["ok"]
        assert rep["triples_exact"] and rep["quadruples_signed_exact"]
        assert rep["identity1_max_residual"] < 1e-11
        assert rep["identity2_max_residual"] < 1e-10


class TestCli:
    def _write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_scan_theorem_csv_output(self, tmp_path):
        cfg = self._write_config(tmp_path, config_doc())
        out = tmp_path / "report.csv"
        code = main(["scan-theorem", "--config", cfg, "--output", str(out)])
        assert code == 0
        expected = scan_linear_proximity(config_from_dict(config_doc())).to_csv()
        assert out.read_bytes() == expected.encode()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = self._write_config(tmp_path, {"epsilon_grid": [0.1]})
        assert main(["scan-theorem", "--config", cfg]) == 2

    def test_carrier_past_lattice_exit_code(self, tmp_path, capsys):
        # eps = 0.1 fits N = 64 (carrier 10 <= 32), eps = 0.0125 does not (80)
        doc = config_doc(epsilon_grid=[0.1, 0.05, 0.025, 0.0125])
        doc["data"]["lattice"] = {"n_max": 64, "m_samples": 193}
        cfg = self._write_config(tmp_path, doc)
        assert main(["scan-transform", "--config", cfg]) == 2
        assert "lattice too small" in capsys.readouterr().err

    def test_envelope_closure_past_max_support_exit_code(self, tmp_path, capsys):
        # a band [N0, 2 N0] with both signs sum-closes to all 256 modes of N = 128
        doc = config_doc(integrator="envelope")
        doc["data"] = {"family": "random_band", "bandwidth": 1,
                       "lattice": {"n_max": 128, "m_samples": 385}}
        cfg = self._write_config(tmp_path, doc)
        assert main(["scan-theorem", "--config", cfg]) == 2
        assert "invalid config: support closure has 256 modes" in capsys.readouterr().err

    def test_residual_exit_code(self, tmp_path):
        doc = config_doc(max_constants={"0.5": 1e-12})
        cfg = self._write_config(tmp_path, doc)
        out = tmp_path / "r.csv"
        assert main(["scan-theorem", "--config", cfg, "--output", str(out)]) == 3

    @pytest.mark.parametrize("limits", [{"1.0": 1e-12}, {"0.5": 1e3, "1.0": 1e3}],
                             ids=["tight", "loose"])
    def test_max_constants_at_unreported_s_exit_code(self, tmp_path, capsys, limits):
        # a bound at an s the scan does not report used to pass silently
        cfg = self._write_config(tmp_path, config_doc(max_constants=limits))
        assert main(["scan-theorem", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "invalid config: max_constants names s = [1.0]" in err

    def test_transform_max_constants_at_unreported_s_exit_code(self, tmp_path, capsys):
        # scan-transform used to report s = 1 whatever s_values asked
        cfg = self._write_config(tmp_path, config_doc(max_constants={"1.0": 1e3}))
        assert main(["scan-transform", "--config", cfg]) == 2
        assert "max_constants names s = [1.0]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan-theorem", "simulate"])
    @pytest.mark.parametrize("key, value", [("integrater", "envelope"),
                                            ("envelope_step", 7), ("max_constant", 0.6),
                                            ("workers", 2), ("t_final", 0.01)])
    def test_unknown_key_exit_code(self, tmp_path, capsys, command, key, value):
        # a misspelt key used to be ignored: the scan ran on the defaults.
        # workers was read by no scan, and a top-level t_final spelt
        # solver.t_final a second time
        doc = config_doc(**{key: value})
        doc["solver"]["t_final"] = 0.01
        cfg = self._write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--output", str(out)]) == 2
        assert f"invalid config: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize("command", ["scan-theorem", "simulate"])
    def test_contradictory_rho_exit_code(self, tmp_path, capsys, command):
        # the scan used to run at the top-level default rho 1.0, simulate at 3.0
        doc = config_doc()
        del doc["rho"]
        doc["data"]["rho"] = 3.0
        cfg = self._write_config(tmp_path, doc)
        assert main([command, "--config", cfg]) == 2
        assert "invalid config: data.rho 3.0 must equal rho 1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("limits", [
        [0.5], 0.6, {"x": 0.6}, {"0.5": "big"}, {"0.5": None}, {"0.5": True},
        {"0.5": math.nan}, {"nan": 0.6},
    ], ids=["list", "number", "key-x", "limit-string", "limit-null", "limit-true",
            "limit-nan", "key-nan"])
    def test_bad_max_constants_exit_code(self, tmp_path, capsys, limits):
        # a list, a number, a non-numeric key and a string or null limit used to
        # exit 1 with a traceback after the whole scan; true and NaN limits and
        # a NaN key compared silently
        cfg = self._write_config(tmp_path, config_doc(max_constants=limits))
        out = tmp_path / "r.csv"
        assert main(["scan-theorem", "--config", cfg, "--output", str(out)]) == 2
        assert "invalid config: max_constants" in capsys.readouterr().err
        assert not out.exists()  # rejected before the scan ran

    @pytest.mark.parametrize("command", ["scan-theorem", "simulate"])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, command):
        # used to exit 1 with a FileNotFoundError traceback
        doc = config_doc()
        doc["solver"]["t_final"] = 0.01
        cfg = self._write_config(tmp_path, doc)
        out = tmp_path / "missing" / "out.csv"
        assert main([command, "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert str(out) in err

    def test_simulate(self, tmp_path):
        doc = config_doc()
        doc["solver"]["t_final"] = 0.01
        cfg = self._write_config(tmp_path, doc)
        out = tmp_path / "diag.csv"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "time,P,K,H,h1_weighted"
        assert len(lines) >= 2

    def test_simulate_unstable_dt_exit_code(self, tmp_path, capsys):
        doc = config_doc()
        doc["solver"]["dt"] = 0.5
        cfg = self._write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 2
        assert "stability budget violated" in capsys.readouterr().err

    def test_scan_unstable_dt_exit_code(self, tmp_path, capsys):
        # used to clamp dt to ~0.015 and exit 0
        doc = config_doc()
        doc["solver"]["dt"] = 0.5
        cfg = self._write_config(tmp_path, doc)
        assert main(["scan-theorem", "--config", cfg]) == 2
        assert "stability budget violated" in capsys.readouterr().err

    @pytest.mark.parametrize("t_final", [-1, "x"])
    def test_simulate_bad_t_final_exit_code(self, tmp_path, capsys, t_final):
        # simulate runs to solver.t_final, the one spelling of the run's end
        doc = config_doc()
        doc["solver"]["t_final"] = t_final
        cfg = self._write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 2
        assert "invalid config: t_final" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan-theorem", "simulate"])
    def test_solver_lattice_exit_code(self, tmp_path, capsys, command):
        # used to be overwritten by data.lattice without a word
        doc = config_doc()
        doc["solver"]["lattice"] = {"n_max": 64, "m_samples": 193}
        cfg = self._write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--output", str(out)]) == 2
        assert "invalid config: solver.lattice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, section, field, value", [
        ("scan-theorem", None, "envelope_steps", 2.5),
        ("scan-error", "flow", "substeps", 8.5),
        ("scan-theorem", "lattice", "n_max", 64.5),
        ("scan-transform", "data", "bandwidth", 1.5),
        ("simulate", "data", "bandwidth", 1.5),
        ("scan-transform", "data", "seed", 1.5),
        ("scan-theorem", "solver", "record_every", 2.5),
        ("scan-theorem", None, "haircut", "x"),
        ("scan-theorem", None, "haircut", math.nan),
        ("simulate", "solver", "dt", True),
        ("scan-theorem", None, "rho", math.nan),
        ("scan-theorem", None, "rho", math.inf),
        pytest.param("scan-theorem", None, "s_values", [0.0, math.nan],
                     id="scan-theorem-None-s_values-nan"),
        pytest.param("scan-theorem", None, "s_values", [0.0, math.inf],
                     id="scan-theorem-None-s_values-inf"),
    ])
    def test_non_integer_or_non_finite_field_exit_code(self, tmp_path, capsys,
                                                       command, section, field, value):
        # each used to exit 1 (TypeError, IndexError), run on silently
        # (record_every 2.5 recorded at multiples of 5, dt true stepped with
        # dt = 1, s_values inf wrote NaN rows), pass NaN constants, or fail
        # only after stepping (rho NaN diverged, s_values NaN left max() no
        # points)
        doc = config_doc(epsilon_grid=[0.25, 0.2, 0.125, 0.1])
        doc["data"] = {"family": "deterministic_band", "bandwidth": 1,
                       "lattice": {"n_max": 64, "m_samples": 197}}
        if field == "seed":
            doc["data"]["family"] = "random_band"
        target = {None: doc, "flow": doc.setdefault("flow", {}), "data": doc["data"],
                  "lattice": doc["data"]["lattice"], "solver": doc["solver"]}[section]
        target[field] = value
        cfg = self._write_config(tmp_path, doc)
        assert main([command, "--config", cfg]) == 2
        assert f"invalid config: {field}" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        doc = config_doc(integrator="envelope", rho=1e3)
        cfg = self._write_config(tmp_path, doc)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["scan-theorem", "--config", cfg]) == 4
        assert "solver divergence: non-finite state" in capsys.readouterr().err

    def test_fit_subcommand(self, tmp_path, capsys):
        src = tmp_path / "points.csv"
        src.write_text("x,y\n0.1,0.01\n0.2,0.04\n0.4,0.16\n")
        assert main(["fit", "--input", str(src), "--x-col", "x",
                     "--y-col", "y"]) == 0
        captured = capsys.readouterr().out
        assert "slope: " in captured
        assert float(captured.split("slope: ")[1].splitlines()[0]) == pytest.approx(
            2.0, abs=1e-10)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_fit_non_finite_exit_code(self, tmp_path, capsys, bad):
        # used to exit 0 and print "slope: nan"
        src = tmp_path / "points.csv"
        src.write_text(f"x,y\n1,2\n2,{bad}\n3,4\n")
        assert main(["fit", "--input", str(src), "--x-col", "x", "--y-col", "y"]) == 2
        assert "invalid input: slope_fit requires finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--n", "0"), ("--n", "-3"), ("--seed", "-1"),
                                             ("--trials", "0"), ("--trials", "-1")])
    def test_check_identities_bad_argument_exit_code(self, capsys, flag, value):
        # --n and --seed used to exit 1 with a traceback; --trials 0 and -1
        # ran no trial and reported ok
        assert main(["check-identities", flag, value]) == 2
        assert f"invalid config: {flag[2:]} must be an integer" in capsys.readouterr().err

    def test_json_emission(self, tmp_path):
        cfg = self._write_config(tmp_path, config_doc())
        out = tmp_path / "report.json"
        assert main(["scan-transform", "--config", cfg, "--output", str(out),
                     "--json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "near_identity"
