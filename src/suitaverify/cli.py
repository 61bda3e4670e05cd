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
from .domains import Annulus, EllipsoidFamilyParams, SymmetrizedBidisk
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


# the options each family uses, with their defaults; a family refuses the others
_INDICATRIX_OPTIONS = {"ell1": {"m": 0.5, "n": 2, "b": 0.5}, "p": {"m": 0.5, "b": 0.5}, "g2": {}}
_SCAN_OPTIONS = {"ell1": {"m": 0.5, "n": "2..6"}, "p": {"m_list": "0.5,2,8,32,128"}}


def _family_options(args, options):
    """Refuse a given option that ``args.family`` does not use; give the ones it uses their defaults."""
    used = options[args.family]
    for name in sorted(set().union(*options.values()) - used.keys()):
        if getattr(args, name) is not None:
            raise _ArgumentError(f"--{name.replace('_', '-')} does not apply to --family {args.family}")
    vars(args).update({name: v for name, v in used.items() if getattr(args, name) is None})


_W_HELP = "base point: a JSON list, on the annulus also a number or 'sqrt' (default: origin; sqrt(R) on the annulus)"


def _add_domain_options(p):
    """The domain selector, base point and JSON ``--out`` of ``kernel`` and ``suita-f``."""
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--g2", action="store_true", help="the symmetrized bidisk")
    sel.add_argument("--annulus", type=float, metavar="R", help="the annulus { R < |z| < 1 }")
    sel.add_argument("--domain", metavar="SPEC", help="any domain spec as inline JSON")
    p.add_argument("--w", help=_W_HELP)
    p.add_argument("--out", type=_json_path, help="JSON output file path")


def _json_path(text):
    if text.endswith(".csv"):
        raise argparse.ArgumentTypeError("this command writes JSON; only indicatrix and scan write CSV")
    return text


def _build_parser():
    parser = _Parser(prog="suitaverify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="Bergman kernel diagonal value at a point of a domain")
    _add_domain_options(p)

    p = sub.add_parser("green", help="annulus Green function diagnostics ('modes': strip images summed)")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--w", help=_W_HELP)
    p.add_argument("--levels", default="", help="comma-separated negative levels to trace")
    p.add_argument("--out", type=_json_path, help="JSON output file path")

    p = sub.add_parser("indicatrix", help="indicatrix volume and boundary")
    p.add_argument("--family", choices=tuple(_INDICATRIX_OPTIONS), default="ell1")
    p.add_argument("--m", type=float, help="exponent m (ell1 and p; default 0.5)")
    p.add_argument("--n", type=int, help="dimension (ell1; default 2)")
    p.add_argument("--b", type=float, help="axis coordinate (ell1 and p; default 0.5)")
    p.add_argument("--out", help="output file path; a .csv path writes the boundary as (rho, S) rows")

    p = sub.add_parser("suita-f", help="the invariant F at a point of a domain")
    _add_domain_options(p)

    p = sub.add_parser("scan", help="figure tables (b, F) along a family")
    p.add_argument("--family", choices=tuple(_SCAN_OPTIONS), required=True)
    p.add_argument("--m", type=float, help="exponent m (ell1; default 0.5)")
    p.add_argument("--n", help="n range like 2..6 (ell1; default 2..6)")
    p.add_argument("--m-list", help="m values (p; default 0.5,2,8,32,128)")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--out", help="output file path; a .csv path writes the curves and a .json beside them")

    p = sub.add_parser("experiment", help="sublevel-volume monotonicity experiment")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--w", help=_W_HELP)
    p.add_argument("--t-grid", default="-6,-5,-4,-3,-2,-1,-0.5")
    p.add_argument("--seed", type=int, default=0, help="sample stream seed")
    p.add_argument(
        "--samples",
        type=int,
        default=2**20,
        help="hit-count points for the cross-check of the traced volumes and for any level that falls back",
    )
    p.add_argument("--out", type=_json_path, help="JSON output file path")

    p = sub.add_parser("verify-all", help="run the full verification table")
    p.add_argument("--quick", action="store_true", help="skip sampling-heavy checks")
    return parser


def _base_point(domain, text):
    """The point ``--w`` names on ``domain``, as a complex array of its dimension."""
    annulus = isinstance(domain, Annulus)
    if text is None or annulus and text == "sqrt":
        w = math.sqrt(domain.inner) if annulus else np.zeros(domain.dimension)
    else:
        try:
            w = complex(text) if annulus and not text.lstrip().startswith("[") else json.loads(text)
        except ValueError as exc:
            raise _ArgumentError(f"cannot parse base point {text!r}") from exc
    return domains._as_point(domain, w)


def _selected(args):
    """(domain, base point) from the selector and ``--w`` of ``kernel`` and ``suita-f``."""
    if args.g2:
        dom = SymmetrizedBidisk()
    elif args.annulus is not None:
        dom = Annulus(args.annulus)
    else:
        dom = domains.from_json(args.domain)
    return dom, _base_point(dom, args.w)


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
    dom, w = _selected(args)
    if isinstance(dom, SymmetrizedBidisk):
        if w.any():
            raise _ArgumentError("the symmetrized bidisk kernel is known at the origin only")
        k = bergman.kernel_g2_center()
    elif isinstance(dom, Annulus):
        k = bergman.kernel_annulus(dom.inner, w[0])
    else:
        k = bergman.kernel_reinhardt(dom, w)
    _emit(args, asdict(k))
    return 0


def _cmd_green(args):
    w = _base_point(Annulus(args.r), args.w)[0]
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
        payload["levels"] = [asdict(green1d.level_flux_and_isoperimetric(g, t)) for t in levels]
    _emit(args, payload)
    return 0


# the CSV boundary takes _ARC_NODES nodes on each extremal-disc arc, and measures arc length
# on _ARC_TRIALS steps in u and as many in (b/u)^{2 p1}
_ARC_NODES, _ARC_TRIALS = 256, 4096


def _arc_nodes(p1, b):
    """u on the 1-in-A arc at equal steps of (rho, S) arc length, from u = b up towards 1.

    Equal steps in u miss a corner: S climbs from 0 as (b/u)^{2 p1} falls, within a sliver of
    u next to b when p1 is large or b small.
    """
    steps = np.arange(_ARC_TRIALS + 1) / _ARC_TRIALS
    trial = np.concatenate((b + (1.0 - b) * steps, b * steps[1:] ** (-0.5 / p1)))
    trial = np.unique(np.minimum(trial, 1.0))
    rho, s = indicatrix.extremal_disc_arcs(p1, b, trial, [])[0]
    length = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(rho), np.diff(s)))))
    return np.interp(length[-1] * np.arange(_ARC_NODES) / _ARC_NODES, length, trial)


def _indicatrix_boundary(args):
    """(rho, S) = (|X_1|, |X_2|^{2 p_2}) along the indicatrix boundary, sorted by rho."""
    if args.family == "g2":
        rho = np.linspace(0.0, 2.0, 2 * _ARC_NODES)
        return rho, ((2.0 - rho) / 2.0) ** 2  # |X1| + 2 |X2| = 2
    if args.family == "ell1":
        EllipsoidFamilyParams(m=args.m, n=args.n, b=args.b)  # refuses what the volumes refuse
    # the ell1 boundary is the arcs' at p1 = 1/2, whatever m and n; the p family's has p1 = m
    b, p1 = args.b, 0.5 if args.family == "ell1" else args.m
    arcs = indicatrix.extremal_disc_arcs(p1, b, _arc_nodes(p1, b), np.linspace(0.0, 1.0, _ARC_NODES))
    rho, s = np.concatenate(arcs, axis=1)
    order = np.argsort(rho)
    return rho[order], s[order]


def _cmd_indicatrix(args):
    _family_options(args, _INDICATRIX_OPTIONS)
    if (args.out or "").endswith(".csv"):
        _write_csv(args.out, ["rho", "S"], zip(*_indicatrix_boundary(args)))
        print(f"wrote {args.out}")
        return 0
    if args.family == "g2":
        payload = {"family": "g2", "volume": suita.suita_F(SymmetrizedBidisk()).indicatrix_volume}
    elif args.family == "ell1":
        params = EllipsoidFamilyParams(m=args.m, n=args.n, b=args.b)
        payload = {
            "family": "ell1",
            "m": args.m,
            "n": args.n,
            "b": args.b,
            "volume_closed": indicatrix.indicatrix_volume_closed(params),
            "volume_quadrature": indicatrix.indicatrix_volume_quadrature(params),
        }
    else:
        vol = indicatrix.indicatrix_volume_numeric((args.m, 1.0), args.b)
        check = math.pi**2 * indicatrix._arc_volume(args.m, args.b, 1.0)
        payload = {"family": "p", "m": args.m, "b": args.b, "volume_numeric": vol, "volume_quadrature": check}
    _emit(args, payload)
    return 0


def _cmd_suita_f(args):
    ratio = suita.suita_F(*_selected(args))
    print(f"F = {ratio.F:.7f}")
    _emit(args, {**asdict(ratio), "kernel": ratio.kernel.value})
    return 0


def _parse_range(text):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",") if x.strip()]


def _cmd_scan(args):
    _family_options(args, _SCAN_OPTIONS)
    if args.grid < 2:
        raise _ArgumentError("grid must have at least 2 points")
    b_grid = np.linspace(1e-3, 1.0 - 1e-3, args.grid)
    if args.family == "ell1":
        report = suita.figure_scan("ell1", b_grid, m=args.m, n_list=_parse_range(args.n))
    else:
        m_list = [float(x) for x in getattr(args, "m_list").split(",") if x.strip()]
        report = suita.figure_scan("p", b_grid, m_list=m_list)
    if (args.out or "").endswith(".csv"):
        rows = ((row["curve"], row["b"], row["F"]) for row in report.samples)
        _write_csv(args.out, ["curve", "b", "F"], rows)
        print(f"wrote {args.out}")
        _emit(args, asdict(report), args.out + ".json")
    else:
        _emit(args, asdict(report))
    return 0


def _cmd_experiment(args):
    w = _base_point(Annulus(args.r), args.w)[0]
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
