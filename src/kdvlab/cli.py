"""Command-line interface.

Exit codes: 0 success, 2 invalid config (checked before any work, except a
dt past the stability budget and a max_constants bound at an s the scan does
not report) or an --output path that cannot be written, 3 acceptance
residual exceeded, 4 solver divergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .data import make_data
from .experiments import (ScanReport, check_identities, config_from_dict,
                          scan_error_term, scan_linear_proximity,
                          scan_near_identity, slope_fit)
from .flows import FlowDivergenceError
from .solver import SolverDivergenceError, evolve
from .spectral import _is_finite_number

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_RESIDUAL = 3
EXIT_DIVERGENCE = 4


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_output(text: str, path) -> int:
    """Write text to path, or to stdout without one; a path that cannot be
    written is EXIT_BAD_CONFIG with a one-line message."""
    if not path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return EXIT_OK


def _max_constants(doc: dict) -> dict:
    """{s: limit} of the config's optional max_constants object, whose keys
    are finite numbers written as strings and whose limits are finite numbers."""
    limits = doc.get("max_constants", {})
    if not isinstance(limits, dict):
        raise ValueError(f"max_constants must be an object, got {limits!r}")
    out = {}
    for key, limit in limits.items():
        try:
            s = float(key)
        except ValueError:
            s = math.nan
        if not math.isfinite(s) or not _is_finite_number(limit):
            raise ValueError(
                f"max_constants must map finite s to finite limits, got {key!r}: {limit!r}")
        out[s] = limit
    return out


def _check_constants(report: ScanReport, limits: dict) -> int:
    """EXIT_BAD_CONFIG if a limit names an s the report has no constant for,
    else EXIT_RESIDUAL if a constant exceeds its limit."""
    missing = [s for s in limits if s not in report.constants]
    if missing:
        print(f"invalid config: max_constants names s = {missing}, which the scan "
              f"does not report (it reports {sorted(report.constants)})", file=sys.stderr)
        return EXIT_BAD_CONFIG
    for s, limit in limits.items():
        if report.constants[s] > limit:
            print(
                f"acceptance residual exceeded: C(s={s}) = "
                f"{report.constants[s]:.6g} > {limit}",
                file=sys.stderr,
            )
            return EXIT_RESIDUAL
    return EXIT_OK


def _run_scan(scan_fn, args) -> int:
    try:
        doc = _load_config(args.config)
        cfg = config_from_dict(doc)
        limits = _max_constants(doc)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        report = scan_fn(cfg)
    except ValueError as exc:  # a closure too dense for the envelope, a dt past the budget
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (SolverDivergenceError, FlowDivergenceError) as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    text = report.to_json() if args.json else report.to_csv()
    return _write_output(text, args.output) or _check_constants(report, limits)


def _cmd_check_identities(args) -> int:
    try:
        report = check_identities(n=args.n, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    for key, val in report.items():
        if isinstance(val, dict):
            for k2, v2 in val.items():
                print(f"{key}.{k2}: {v2}")
        else:
            print(f"{key}: {val}")
    return EXIT_OK if report["ok"] else EXIT_RESIDUAL


def _cmd_simulate(args) -> int:
    try:
        cfg = config_from_dict(_load_config(args.config))
        u0 = make_data(cfg.data)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        _, diags = evolve(u0, cfg.solver)
    except ValueError as exc:  # a dt that breaks the stability budget
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SolverDivergenceError as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    rows = zip(diags.times, diags.P, diags.K, diags.H, diags.h1_weighted)
    text = "time,P,K,H,h1_weighted\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    return _write_output(text, args.output)


def _cmd_fit(args) -> int:
    try:
        with open(args.input, newline="") as fh:
            rows = list(csv.DictReader(fh))
        pts = [(float(r[args.x_col]), float(r[args.y_col])) for r in rows]
        fit = slope_fit(pts)
    except (OSError, ValueError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    print(f"slope: {fit.slope!r}")
    print(f"intercept: {fit.intercept!r}")
    print(f"max_residual: {fit.max_residual!r}")
    print(f"n_points: {fit.n_points}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdvlab",
        description="Numerical laboratory for near-linear KdV dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-identities", help="exact identity and residual suite")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=_cmd_check_identities)

    p = sub.add_parser("simulate", help="run one KdV evolution, emit diagnostics CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_simulate)

    for name, scan in (
        ("scan-theorem", scan_linear_proximity),
        ("scan-transform", scan_near_identity),
        ("scan-error", scan_error_term),
    ):
        p = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} scan")
        p.add_argument("--config", required=True)
        p.add_argument("--output")
        p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
        p.set_defaults(fn=lambda args, _scan=scan: _run_scan(_scan, args))

    p = sub.add_parser("fit", help="log-log slope fit over two CSV columns")
    p.add_argument("--input", required=True)
    p.add_argument("--x-col", required=True)
    p.add_argument("--y-col", required=True)
    p.set_defaults(fn=_cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
