"""Workload runners: call suitaverify through its public modules and check every output.

Each runner returns a list of ``Check`` records, one per verified quantity.
A quantity with a high-precision reference (``oracle``) carries its relative
error, from which the correct-digit metrics are computed; the others are
checked against theorems (F >= 1, flux 2 pi, Green = 0 on the boundary, ...).
Library calls go through module attributes (``bergman.kernel_reinhardt``),
so the traced run sees them.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import re
import traceback
from dataclasses import dataclass, field

import numpy as np

import oracle
from gen import GREEN_ORACLE_GRADS, GREEN_ORACLE_VALUES, SUBLEVEL_COUNT
from suitaverify import bergman, cli, domains, green1d, indicatrix, suita
from suitaverify.numerics import SampleStream

__all__ = ["Check", "KNOWN_DEFECTS", "defect_in_digits", "known_defect", "references", "run"]

# Tolerances.  Series and closed-form quantities use 1e-8 relative, the bound
# of the repository's own kernel cross-validation criterion, or tighter where
# the library works at machine precision; the extremal-disc envelope pipeline
# gets the 5e-4 slack that figure_scan itself allows it.
TOL_SERIES = 1e-8
TOL_GREEN = 1e-10
TOL_CLOSED = 1e-9
TOL_ENVELOPE = 5e-4
TOL_FLUX = 1e-6
TOL_BOUNDARY = 1e-8
TOL_ROUNDING = 1e-12
# domains.volume(SymmetrizedBidisk()) hit-counts this many points by default
G2_SAMPLES = 2**21


@dataclass
class Check:
    id: str
    ok: bool
    rel_err: float | None = None
    params: dict = field(default_factory=dict)
    detail: str = ""


@dataclass(frozen=True)
class Defect:
    name: str
    workload: str
    description: str
    matches: object
    # False when the size of the error depends on the seed: its checks then count
    # in pass_ratio but not in the digit metrics, which would jitter with it
    in_digits: bool = True


def _off_positive_axis(w):
    return not (w[1] == 0.0 and w[0] > 0.0)


# Known defects of the library at the commit that introduced this benchmark.
# Their checks still run and count as failed; they only keep a run "correct".
KNOWN_DEFECTS = (
    Defect(
        "ell1-cancellation",
        "family-scan",
        "the ell1 closed forms cancel catastrophically at small b: F < 1 for b <= 1e-6 "
        "(0.99999999947 at 1e-8), and kernel_ellipsoid_closed loses digits with it",
        lambda c: c.id.startswith("ell1.") and c.params["b"] <= 1e-6,
    ),
    Defect(
        "p-envelope-edges",
        "family-scan",
        "p-family F < 1 near both ends of b (to 0.99952 at m=128, b=0.005): the envelope "
        "pipeline's error exceeds F - 1 there, and figure_scan's 5e-4 slack hides it",
        lambda c: c.id == "p.scan.F>=1" and (c.params["b"] < 0.1 or c.params["b"] > 0.97),
    ),
    Defect(
        "criterion-2b",
        "verify-all",
        "verify-all pins F* = 1.004178 for criterion 2b; the maximum is 1.0041179 (1 of 12 rows fails)",
        lambda c: c.id in ("row:ellipsoid family maximum (m=1/2, n=3)", "exit-code"),
    ),
    Defect(
        "robin-off-axis",
        "annulus-green",
        "AnnulusGreen.robin evaluates the harmonic part at |w| instead of w, so the capacity "
        "(and the monotonicity limit pi/c^2) is wrong for a pole off the positive real axis",
        lambda c: c.id in ("green.capacity", "monotonicity.limit") and _off_positive_axis(c.params["w"]),
        in_digits=False,
    ),
)


def _defect(workload, check):
    return next((d for d in KNOWN_DEFECTS if d.workload == workload and d.matches(check)), None)


def known_defect(workload, check):
    """Name of the known defect that explains a failed check, or None."""
    d = _defect(workload, check)
    return d and d.name


def defect_in_digits(workload, check):
    """Whether a failed check's error counts in the digit metrics."""
    d = _defect(workload, check)
    return d is None or d.in_digits


class _Checks(list):
    def compare(self, id, value, ref, tol, **params):
        err = abs(value - ref) / abs(ref)
        self.append(Check(id, bool(err <= tol), float(err), params, f"{value!r} vs reference {ref!r}"))

    def theorem(self, id, ok, detail="", **params):
        self.append(Check(id, bool(ok), None, params, detail))

    def call(self, id, fn, *args, **params):
        """fn(*args), or None after recording a failed check if it raises."""
        try:
            return fn(*args)
        except Exception as exc:  # a raising library call is a failed case, not a crash
            tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.append(Check(id + ".raised", False, None, params, tb))
            return None


def _complex(pairs):
    return np.array([complex(a, b) for a, b in pairs])


# ---------------------------------------------------------------- references


def _family_refs(inp):
    return {
        "p": {b: oracle.ell1_F(1.0, 2, b) for b in inp["p_b"]},
        "ell1": {
            (m, n, b): oracle.ell1_F(m, n, b)
            for m in inp["ell1_m"]
            for n in inp["ell1_n"]
            for b in inp["ell1_b"]
        },
        "ell1_volume": {
            (m, n, b): oracle.ell1_indicatrix_volume(m, n, b)
            for m in inp["ell1_m"]
            for n in inp["ell1_n"]
            for b in inp["ell1_b"]
        },
        # {|z1| + |z2|^{2m} < 1} is the ellipsoid {|z1| + |z2|^{2/p} < 1} with p = 1/m
        "ell1_kernel": {(m, b): oracle.ellipsoid_axis_kernel(1.0 / m, b) for m in inp["ell1_m"] for b in inp["ell1_b"]},
        "max_ell1": oracle.ell1_F_max(inp["max_ell1"]["m"], inp["max_ell1"]["n"]),
        # the p family at m = 1/2 is the ell1 family at m = 1, n = 2
        "max_p": oracle.ell1_F_max(1.0, 2),
    }


def _annulus_refs(inp):
    mono = inp["monotonicity"]
    # pi/c^2, the limit of e^{-2t} lambda({G < t}) as t -> -infinity
    limit = math.pi * math.exp(-2.0 * oracle.annulus_robin(mono["r"], complex(*mono["w"])))
    refs = {"cases": [], "monotonicity_limit": limit}
    for case in inp["cases"]:
        r, w = case["r"], complex(*case["w"])
        z = _complex(case["z"])
        refs["cases"].append(
            {
                "values": [oracle.annulus_green(r, w, c) for c in z[:GREEN_ORACLE_VALUES]],
                "grads": [oracle.annulus_green_grad(r, w, c) for c in z[:GREEN_ORACLE_GRADS]],
                "capacity": math.exp(oracle.annulus_robin(r, w)),
                "kernel": oracle.annulus_kernel(r, w),
                "reverse_kernel": oracle.annulus_kernel(r, math.sqrt(r)),
                "reverse_capacity": math.exp(oracle.annulus_robin(r, math.sqrt(r))),
            }
        )
    return refs


def _offaxis_refs(inp):
    points = []
    for pt in inp["points"]:
        w = _complex(pt["w"])
        in_ball = np.sum(np.abs(w) ** 2) < 1.0
        points.append({"ball": oracle.ball_kernel(w) if in_ball else None, "polydisk": oracle.polydisk_kernel(w)})
    return {
        "points": points,
        "axis": [oracle.ellipsoid_axis_kernel(a["p"], a["b"]) for a in inp["axis"]],
        "g2": oracle.g2_volume(),
    }


def _verify_refs(inp):
    return {"family_max": oracle.ell1_F_max(0.5, 3), "g2_F": 2.0 / math.sqrt(3.0)}


def references(workload, inp):
    """Oracle values for the inputs of one workload (computed once, outside the timing)."""
    return {
        "family-scan": _family_refs,
        "annulus-green": _annulus_refs,
        "offaxis-kernel": _offaxis_refs,
        "verify-all": _verify_refs,
    }[workload](inp)


# ------------------------------------------------------------------- runners


def _run_family_scan(inp, ref):
    out = _Checks()
    rep = out.call("p.scan", suita.figure_scan, "p", inp["p_b"], 0.5, (), inp["p_m"])
    if rep is not None:
        for (m, b), row in zip(itertools.product(inp["p_m"], inp["p_b"]), rep.samples):
            f = row["F"]
            out.theorem("p.scan.F>=1", f >= 1.0, f"F={f!r}", m=m, b=b)
            out.theorem("p.scan.F<=4", f <= 4.0, f"F={f!r}", m=m, b=b)
            if m == 0.5:
                out.compare("p.scan.F", f, ref["p"][b], TOL_ENVELOPE, m=m, b=b)
    for m in inp["ell1_m"]:
        rep = out.call("ell1.scan", suita.figure_scan, "ell1", inp["ell1_b"], m, inp["ell1_n"])
        for (n, b), row in zip(itertools.product(inp["ell1_n"], inp["ell1_b"]), rep.samples if rep else ()):
            f = row["F"]
            out.theorem("ell1.scan.F>=1", f >= 1.0, f"F={f!r}", m=m, n=n, b=b)
            out.compare("ell1.scan.F", f, ref["ell1"][(m, n, b)], TOL_CLOSED, m=m, n=n, b=b)
        for n, b in itertools.product(inp["ell1_n"], inp["ell1_b"]):
            vol = indicatrix.indicatrix_volume_closed(domains.EllipsoidFamilyParams(m, n, b))
            out.compare("ell1.indicatrix", vol, ref["ell1_volume"][(m, n, b)], TOL_CLOSED, m=m, n=n, b=b)
        for b in inp["ell1_b"]:
            k = bergman.kernel_ellipsoid_closed(1.0 / m, b).value
            out.compare("ell1.kernel", k, ref["ell1_kernel"][(m, b)], TOL_CLOSED, m=m, n=2, b=b)
    m, n = inp["max_ell1"]["m"], inp["max_ell1"]["n"]
    res = out.call("ell1.max", suita.maximize_F, m, n)
    if res is not None:
        out.compare("ell1.max.F", res[1], ref["max_ell1"][1], 1e-10, m=m, n=n)
        out.compare("ell1.max.b", res[0], ref["max_ell1"][0], 1e-4, m=m, n=n)
    m = inp["max_p"]["m"]
    res = out.call("p.max", suita.maximize_F, m, 2, 1e-6, "p")
    if res is not None:
        out.compare("p.max.F", res[1], ref["max_p"][1], TOL_ENVELOPE, m=m)
        out.compare("p.max.b", res[0], ref["max_p"][0], 1e-2, m=m)
    return out


def _run_annulus_case(out, case, ref, nodes, sublevel_seed):
    r, w, t = case["r"], complex(*case["w"]), case["t"]
    p = {"r": r, "w": case["w"]}
    g = out.call("green.build", green1d.AnnulusGreen, r, w, **p)
    if g is None:
        return
    out.compare("green.capacity", green1d.robin_capacity(g), ref["capacity"], TOL_GREEN, **p)
    z = _complex(case["z"])
    vals = g.value(z)
    # far from the pole of a thin annulus G is below rounding level, so allow
    # positive values up to the library's default absolute tolerance
    out.theorem("green.value<=0", bool(np.all(vals <= TOL_ROUNDING)), f"max G={vals.max()!r}", **p)
    for v, rv in zip(vals, ref["values"]):
        out.compare("green.value", float(v), rv, TOL_GREEN, **p)
    grads = g.grad(z)
    for v, rv in zip(grads, ref["grads"]):
        out.compare("green.grad", complex(v), rv, TOL_SERIES, **p)
    circle = np.exp(1j * np.linspace(0.0, 2 * math.pi, 720, endpoint=False))
    res = max(float(np.abs(g.value(circle)).max()), float(np.abs(g.value(r * circle)).max()))
    out.theorem("green.boundary", res <= TOL_BOUNDARY, f"max |G| on the circles {res:.3g}", **p)
    k = out.call("kernel_annulus", bergman.kernel_annulus, r, w, **p)
    if k is not None:
        out.compare("kernel_annulus", k.value, ref["kernel"], TOL_SERIES, **p)
    rev = out.call("reverse_suita", suita.check_reverse_suita, r, **p)
    if rev is not None:
        out.theorem("reverse_suita.ratio>=bound", rev.ratio >= rev.bound, **p)
        out.compare("reverse_suita.kernel", rev.kernel, ref["reverse_kernel"], TOL_SERIES, **p)
        out.compare("reverse_suita.capacity", rev.capacity, ref["reverse_capacity"], TOL_GREEN, **p)
    st = out.call("level", green1d.level_flux_and_isoperimetric, g, t, nodes, r=r, w=case["w"], t=t)
    if st is None:
        return
    out.compare("level.flux", st.flux, 2 * math.pi, TOL_FLUX, t=t, **p)
    out.theorem("level.iso>=1", st.iso_ratio >= 1.0, f"iso={st.iso_ratio!r}", t=t, **p)
    vol = out.call("sublevel", green1d.sublevel_volume, g, t, SampleStream(2, seed=sublevel_seed), SUBLEVEL_COUNT, **p)
    if vol is not None:
        v, se = vol
        out.theorem(
            "sublevel=area", abs(v - st.area) <= 3.0 * se, f"{v!r} vs traced {st.area!r} (stderr {se:.3g})", t=t, **p
        )


def _run_annulus_green(inp, ref):
    out = _Checks()
    for case, cref in zip(inp["cases"], ref["cases"]):
        _run_annulus_case(out, case, cref, inp["nodes"], inp["sublevel_seed"])
    mono = inp["monotonicity"]
    p = {"r": mono["r"], "w": mono["w"]}
    rep = out.call(
        "monotonicity",
        suita.monotonicity_experiment,
        mono["r"],
        complex(*mono["w"]),
        mono["t_grid"],
        SampleStream(2, seed=mono["stream_seed"]),
        mono["count"],
        **p,
    )
    if rep is not None:
        out.theorem("monotonicity.monotone", rep.verdicts["normalized_non_decreasing_3sigma"], **p)
        # the library's own limit_within_2pct verdict measures against its own
        # capacity, so it passes or fails with the size of the robin-off-axis
        # error; the limit itself is checked against the oracle instead, and the
        # sampled volume at the lowest level against the oracle's limit
        limit = ref["monotonicity_limit"]
        out.compare("monotonicity.limit", rep.metadata["limit_pi_over_c2"], limit, TOL_GREEN, **p)
        dev = abs(rep.samples[0]["normalized"] / limit - 1.0)
        out.theorem("monotonicity.near_limit", dev <= 0.02, f"rel dev {dev:.3g} from the oracle's pi/c^2", **p)
    return out


def _run_offaxis_kernel(inp, ref):
    out = _Checks()
    for pt, pref in zip(inp["points"], ref["points"]):
        kind, exps = pt["kind"], pt["exps"]
        n = len(exps)
        if kind == "ball":
            dom = domains.ball(n)
        elif kind == "polydisk":
            dom = domains.Polydisk(n)
        else:
            dom = domains.Ellipsoid(tuple(exps))
        w = _complex(pt["w"])
        p = {"kind": kind, "n": n, "exps": exps}
        k = out.call("kernel", bergman.kernel_reinhardt, dom, w, **p)
        if k is None:
            continue
        if kind == "ellipsoid":
            # exponents >= 1 put the ellipsoid inside the polydisk, and the ball inside
            # the ellipsoid; the Bergman kernel decreases as the domain grows
            lo, hi = pref["polydisk"], pref["ball"]
            if hi is None:  # w lies outside the ball
                out.theorem("kernel.ellipsoid.above_polydisk", lo < k.value, f"{lo!r} < {k.value!r}", **p)
            else:
                out.theorem("kernel.ellipsoid.between", lo < k.value < hi, f"{lo!r} < {k.value!r} < {hi!r}", **p)
        else:
            out.compare(f"kernel.{kind}", k.value, pref[kind], TOL_SERIES, **p)
    for a, kref in zip(inp["axis"], ref["axis"]):
        dom = domains.Ellipsoid((0.5, 1.0 / a["p"]))
        k = out.call("kernel.axis", bergman.kernel_reinhardt, dom, np.array([a["b"], 0.0], dtype=complex), **a)
        if k is not None:
            out.compare("kernel.axis", k.value, kref, TOL_SERIES, **a)
    v = out.call("volume.g2", domains.volume, domains.SymmetrizedBidisk())
    if v is not None:
        frac = v / 64.0  # share of the 64-volume bounding box that the sampler hits
        sigma = 64.0 * math.sqrt(frac * (1.0 - frac) / G2_SAMPLES)
        err = abs(v - ref["g2"]) / ref["g2"]
        out.append(Check("volume.g2", abs(v - ref["g2"]) <= 3.0 * sigma, err, {}, f"{v!r} vs pi^2/2"))
    return out


_ROW = re.compile(r"^(?P<name>.*?)\s+(?P<status>PASS|FAIL)  (?P<detail>.*)$")
_NUM = r"([-+0-9.eE]+)"


def _run_verify_all(inp, ref):
    out = _Checks()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = out.call("cli.run", cli.run, list(inp["argv"]))
    rows = [m.groupdict() for m in map(_ROW.match, buf.getvalue().splitlines()) if m]
    out.theorem("rows", len(rows) == 12, f"{len(rows)} rows")
    for row in rows:
        detail = row["detail"]
        err = None
        if m := re.search(r"max rel dev " + _NUM, detail):
            err = float(m.group(1))
        elif m := re.search(r"flux dev " + _NUM, detail):
            err = float(m.group(1)) / (2 * math.pi)
        out.append(Check("row:" + row["name"], row["status"] == "PASS", err, {}, detail))
        if m := re.search(r"b\*=" + _NUM + r" F\*=" + _NUM, detail):
            b_ref, f_ref = ref["family_max"]
            out.compare("family_max.F", float(m.group(2)), f_ref, 1e-6)
            out.compare("family_max.b", float(m.group(1)), b_ref, 1e-4)
        elif m := re.search(r"^F=" + _NUM, detail):
            out.compare("g2.F", float(m.group(1)), ref["g2_F"], TOL_CLOSED)
    failed_rows = sum(r["status"] == "FAIL" for r in rows)
    out.theorem("exit-code", code == 0, f"exit {code}, {failed_rows} failed rows")
    return out


def run(workload, inp, ref):
    """One pass over the workload's case list; returns its checks."""
    return {
        "family-scan": _run_family_scan,
        "annulus-green": _run_annulus_green,
        "offaxis-kernel": _run_offaxis_kernel,
        "verify-all": _run_verify_all,
    }[workload](inp, ref)
