"""Command-line front end.

Subcommands expose the kernel, Green-function, indicatrix and invariant
computations and write plot-ready CSV/JSON artifacts.  Exit codes: 0 on
success, 1 on validation errors, 2 on numerical failures.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import bergman, checks, domains, green1d, indicatrix, suita
from .domains import Annulus, EllipsoidFamilyParams
from .indicatrix import EnvelopeGapError
from .numerics import BracketError, ConvergenceError, SampleStream

_NUMERICAL_ERRORS = (
    ConvergenceError,
    BracketError,
    green1d.CriticalLevelError,
    EnvelopeGapError,
    ArithmeticError,
)


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _build_parser():
    parser = _Parser(prog="suitaverify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="Bergman kernel diagonal value")
    p.add_argument("--domain", help="domain spec as inline JSON")
    p.add_argument("--annulus", type=float, help="annulus inner radius")
    p.add_argument("--g2", action="store_true", help="symmetrized bidisk at 0")
    p.add_argument("--w", default="0", help="base point ('sqrt' = sqrt of the inner radius)")
    p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("green", help="annulus Green function diagnostics ('modes': strip images summed)")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--w", default="sqrt")
    p.add_argument("--levels", default="", help="comma-separated negative levels to trace")
    p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("indicatrix", help="indicatrix profile and volume")
    p.add_argument("--family", choices=("ell1", "p", "g2"), default="ell1")
    p.add_argument("--m", type=float, default=0.5)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--b", type=float, default=0.5)
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("suita-f", help="the invariant F at a supported point")
    p.add_argument("--g2", action="store_true")
    p.add_argument("--domain", help="domain spec as inline JSON")
    p.add_argument("--annulus", type=float)
    p.add_argument("--w", default="0")
    p.add_argument("--b", type=float, help="axis coordinate for ellipsoid specs")
    p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("scan", help="figure tables (b, F) along a family")
    p.add_argument("--family", choices=("ell1", "p"), required=True)
    p.add_argument("--m", type=float, default=0.5)
    p.add_argument("--n", default="2..6", help="n range like 2..6 (ell1 family)")
    p.add_argument("--m-list", default="0.5,2,8,32,128", help="m values (p family)")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("experiment", help="sublevel-volume monotonicity experiment")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--w", default="sqrt")
    p.add_argument("--t-grid", default="-6,-5,-4,-3,-2,-1,-0.5")
    p.add_argument("--seed", type=int, default=0, help="sample stream seed")
    p.add_argument(
        "--samples",
        type=int,
        default=2**20,
        help="hit-count points for the cross-check of the traced volumes and for any level that falls back",
    )
    p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("verify-all", help="run the full verification table")
    p.add_argument("--quick", action="store_true", help="skip sampling-heavy checks")
    return parser


def _parse_w(text, r=None):
    if text == "sqrt":
        if r is None:
            raise _ArgumentError("--w sqrt needs an annulus radius")
        return complex(math.sqrt(r))
    try:
        return complex(text)
    except ValueError as exc:
        raise _ArgumentError(f"cannot parse base point {text!r}") from exc


def _emit(args, payload, path=None):
    """Print the payload as JSON, or write it to ``path`` (by default ``--out``)."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    path = path or args.out
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)


def _write_csv(path, header, rows):
    """One header line, then one line per row; numbers as 12 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else f"{v:.12g}" for v in row])


def _cmd_kernel(args):
    if args.g2:
        k = bergman.kernel_g2_center()
    elif args.annulus is not None:
        if not 0.0 < args.annulus < 1.0:
            raise _ArgumentError(f"annulus radius {args.annulus} outside (0, 1)")
        w = _parse_w(args.w, args.annulus)
        k = bergman.kernel_annulus(args.annulus, w)
    elif args.domain:
        dom = domains.from_json(args.domain)
        w = np.asarray(json.loads(args.w), dtype=complex) if args.w != "0" else np.zeros(dom.dimension)
        k = bergman.kernel_reinhardt(dom, w)
    else:
        raise _ArgumentError("choose one of --g2, --annulus, --domain")
    _emit(args, {"value": k.value, "method": k.method, "error_bound": k.error_bound, "terms": k.terms})
    return 0


def _cmd_green(args):
    w = _parse_w(args.w, args.r)
    g = green1d.AnnulusGreen(args.r, w)
    payload = {
        "r": args.r,
        "w": [w.real, w.imag],
        "modes": g.n_modes,
        "robin": g.robin,
        "capacity": green1d.robin_capacity(g),
        "covering_bound": green1d.covering_capacity_bound(args.r) if abs(w - math.sqrt(args.r)) < 1e-12 else None,
        "tail_bound": g.tail_bound,
    }
    levels = [float(t) for t in args.levels.split(",") if t.strip()]
    if levels:
        payload["levels"] = []
        for t in levels:
            st = green1d.level_flux_and_isoperimetric(g, t)
            payload["levels"].append(
                {
                    "t": t,
                    "flux": st.flux,
                    "density": st.density,
                    "length": st.length,
                    "area": st.area,
                    "area_err": st.area_err,
                    "iso_ratio": st.iso_ratio,
                }
            )
    _emit(args, payload)
    return 0


def _require_out_for_csv(args):
    if args.format == "csv" and not args.out:
        raise _ArgumentError("--format csv writes files and needs --out")


def _cmd_indicatrix(args):
    _require_out_for_csv(args)
    if args.family == "p" and args.format == "csv":
        raise _ArgumentError("the p family has no radial profile to write as CSV")
    if args.family == "g2":
        profile = indicatrix.azukawa_g2_center()
        payload = {"family": "g2", "volume": profile.volume()}
    elif args.family == "ell1":
        params = EllipsoidFamilyParams(m=args.m, n=args.n, b=args.b)
        profile = indicatrix.kobayashi_profile_p1half(args.m, args.n, args.b)
        payload = {
            "family": "ell1",
            "m": args.m,
            "n": args.n,
            "b": args.b,
            "volume_closed": indicatrix.indicatrix_volume_closed(params),
            "volume_quadrature": profile.volume(),
        }
    else:
        vol = indicatrix.indicatrix_volume_numeric((args.m, 1.0), args.b)
        payload = {"family": "p", "m": args.m, "b": args.b, "volume_numeric": vol}
    if args.format == "csv":
        rs = np.linspace(0.0, profile.r_max, 512)
        _write_csv(args.out, ["r", "gamma"], zip(rs, profile.gamma(rs)))
        print(f"wrote {args.out}")
        return 0
    _emit(args, payload)
    return 0


def _cmd_suita_f(args):
    if args.g2:
        ratio = suita.suita_F(domains.SymmetrizedBidisk())
    elif args.annulus is not None:
        w = _parse_w(args.w, args.annulus)
        ratio = suita.suita_F(Annulus(args.annulus), np.array([w]))
    elif args.domain:
        dom = domains.from_json(args.domain)
        w = np.zeros(dom.dimension, dtype=complex)
        if args.b is not None:
            w[0] = args.b
        ratio = suita.suita_F(dom, w)
    else:
        raise _ArgumentError("choose one of --g2, --annulus, --domain")
    print(f"F = {ratio.F:.7f}")
    _emit(
        args,
        {
            "F": ratio.F,
            "kernel": ratio.kernel.value,
            "indicatrix_volume": ratio.indicatrix_volume,
            "n": ratio.n,
            "classification": ratio.classification,
        },
    )
    return 0


def _parse_range(text):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",") if x.strip()]


def _cmd_scan(args):
    _require_out_for_csv(args)
    if args.grid < 2:
        raise _ArgumentError("grid must have at least 2 points")
    b_grid = np.linspace(1e-3, 1.0 - 1e-3, args.grid)
    if args.family == "ell1":
        report = suita.figure_scan("ell1", b_grid, m=args.m, n_list=_parse_range(args.n))
    else:
        m_list = [float(x) for x in getattr(args, "m_list").split(",") if x.strip()]
        report = suita.figure_scan("p", b_grid, m_list=m_list)
    if args.format == "csv":
        rows = ((row["curve"], row["b"], row["F"]) for row in report.samples)
        _write_csv(args.out, ["curve", "b", "F"], rows)
        print(f"wrote {args.out}")
        _emit(args, asdict(report), args.out + ".json")
    else:
        _emit(args, asdict(report))
    return 0


def _cmd_experiment(args):
    w = _parse_w(args.w, args.r)
    t_grid = [float(t) for t in getattr(args, "t_grid").split(",") if t.strip()]
    stream = SampleStream(dimension=2, seed=args.seed)
    report = suita.monotonicity_experiment(args.r, w, t_grid, stream, args.samples)
    _emit(args, asdict(report))
    failed = [k for k, v in report.verdicts.items() if v is False]
    return 2 if failed else 0


def _cmd_verify_all(args):
    rows = []
    for check in checks.CHECKS:
        if args.quick and check.sampling:
            continue
        try:
            verdicts, detail = check.fn()
            ok = all(verdicts.values())
        except _NUMERICAL_ERRORS as exc:
            ok, detail = False, f"numerical failure: {exc}"
        rows.append((check.name, ok, detail))
    width = max(len(name) for name, _, _ in rows)
    for name, ok, detail in rows:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    failures = sum(not ok for _, ok, _ in rows)
    print(f"{failures} of {len(rows)} checks failed" if failures else "all checks passed")
    return 2 if failures else 0


_COMMANDS = {
    "kernel": _cmd_kernel,
    "green": _cmd_green,
    "indicatrix": _cmd_indicatrix,
    "suita-f": _cmd_suita_f,
    "scan": _cmd_scan,
    "experiment": _cmd_experiment,
    "verify-all": _cmd_verify_all,
}


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    # first: BracketError is also a ValueError
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (_ArgumentError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
