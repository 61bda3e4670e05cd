"""The pinned acceptance criteria, as one registry of checks.

``CHECKS`` holds criteria 1-12 in order; entry ``i`` pins criterion
``i + 1``.  ``suitaverify verify-all`` renders the registry one row per
entry, and ``tests/test_acceptance.py`` runs the same entries as tests, so
every threshold is written once, here.  Criterion 13 (the property suite)
is test-only.

A check function takes no arguments and returns ``(verdicts, detail)``: a
dict of named booleans and a one-line summary of the measured quantities.
A check passes when every verdict holds.  Entries marked ``sampling`` count
sample points in the plane and are skipped by ``verify-all --quick``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bergman, domains, green1d, indicatrix, suita
from .domains import Annulus, Ellipsoid, EllipsoidFamilyParams
from .numerics import SampleStream

__all__ = ["Check", "CHECKS"]


@dataclass(frozen=True)
class Check:
    name: str
    fn: Callable
    sampling: bool = False


def product_formula_consistency():
    worst = deflation = 0.0
    for b in (0.1, 0.5, 0.9):
        for m in (0.5, 1.0, 2.0):
            for n in (2, 3, 4):
                params = EllipsoidFamilyParams(m=m, n=n, b=b)
                v = suita.product_closed_form(params)
                k = bergman.kernel_deflated(params).value
                f = k * indicatrix.indicatrix_volume_closed(params)
                worst = max(worst, abs(f / v - 1.0))
                other = bergman.kernel_deflated_via_identity(params).value
                deflation = max(deflation, abs(other / k - 1.0))
    verdicts = {"factors_agree": worst < 1e-12, "deflation_identity": deflation <= 1e-10}
    return verdicts, f"max rel dev {worst:.2e}, deflation dev {deflation:.2e}"


def family_maximum():
    b_star, f_star = suita.maximize_F(0.5, 3)
    target = 1.004178
    verdicts = {"location": abs(b_star - 0.163501) <= 5e-5, "value": abs(f_star - target) <= 5e-6}
    return verdicts, f"b*={b_star:.6f} F*={f_star:.7f} (printed target {target})"


def symmetrized_bidisk():
    res = suita.suita_F(domains.SymmetrizedBidisk())
    verdicts = {
        "F": abs(res.F - 2.0 / math.sqrt(3.0)) <= 1e-10,
        "kernel_exact": res.kernel.value == 2.0 / math.pi**2,
        "volume_exact": res.indicatrix_volume == 2.0 * math.pi**2 / 3.0,
    }
    return verdicts, f"F={res.F:.10f}"


def volume_formula():
    worst = 0.0
    for p in (1, 2, 5):
        v = domains.volume(Ellipsoid((0.5, 1.0 / p)))
        worst = max(worst, abs(v / (2.0 * math.pi**2 / ((p + 1) * (p + 2))) - 1.0))
    return {"gamma_product": worst < 1e-12}, f"max rel dev {worst:.2e}"


def kernel_cross_validation():
    worst = 0.0
    for p in (1, 2):
        for b in (0.3, 0.6):
            dom = Ellipsoid((0.5, 1.0 / p))
            k = bergman.kernel_reinhardt(dom, np.array([b, 0.0], dtype=complex))
            kc = bergman.kernel_ellipsoid_closed(p, b)
            worst = max(worst, abs(k.value / kc.value - 1.0))
    return {"series_matches_closed": worst < 1e-8}, f"max rel dev {worst:.2e}"


def geodesic_pipeline():
    worst = 0.0
    for m in (0.5, 1.0, 2.0):
        for b in (0.2, 0.5):
            v = indicatrix.indicatrix_volume_numeric((0.5, m), b)
            c = indicatrix.indicatrix_volume_closed(EllipsoidFamilyParams(m=m, n=2, b=b))
            worst = max(worst, abs(v / c - 1.0))
    return {"numeric_matches_closed": worst < 1e-4}, f"max rel dev {worst:.2e}"


def large_m_limit():
    _, f_star = suita.maximize_F(128.0, family="p")
    return {"value": abs(f_star - 1.010182) <= 2e-3}, f"F*={f_star:.7f}"


def reverse_suita_failure():
    results = [suita.check_reverse_suita(r) for r in (0.5, 0.1, 0.01)]
    held = all(res.ratio >= res.bound for res in results)
    # the ratio keeps growing from r = 1e-2 (the last result) down to r = 1e-4
    growing = suita.check_reverse_suita(1e-4).ratio > results[-1].ratio
    forward = all(
        green1d.robin_capacity(green1d.AnnulusGreen(0.2, w)) ** 2
        < math.pi * bergman.kernel_annulus(0.2, w).value
        for w in np.linspace(0.25, 0.95, 10)
    )
    verdicts = {"bound_held": held, "unbounded": growing, "forward_strict": forward}
    return verdicts, f"bound held={held}, unbounded={growing}, forward strict={forward}"


def green_solver_quality():
    r = 0.2
    g = green1d.AnnulusGreen(r, math.sqrt(r))
    th = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
    residual = max(
        float(np.abs(g.value(np.exp(1j * th))).max()),
        float(np.abs(g.value(r * np.exp(1j * th))).max()),
    )
    flux_dev = max(
        abs(green1d.level_flux_and_isoperimetric(g, t).flux - 2 * math.pi)
        for t in (-1.0, -2.0, -3.0)
    )
    # G(z, w) = G(w, z) on 20 random pairs of separated interior points
    rng = np.random.default_rng(0)
    sym_dev, pairs = 0.0, 0
    while pairs < 20:
        z = complex(*rng.uniform(-1, 1, 2))
        w = complex(*rng.uniform(-1, 1, 2))
        if r + 0.02 < abs(z) < 0.98 and r + 0.02 < abs(w) < 0.98 and abs(z - w) > 0.05:
            a = green1d.AnnulusGreen(r, z).value(np.array([w]))[0]
            b = green1d.AnnulusGreen(r, w).value(np.array([z]))[0]
            sym_dev = max(sym_dev, abs(a - b))
            pairs += 1
    verdicts = {
        "boundary_residual": residual < 1e-8,
        "flux": flux_dev < 1e-6,
        "symmetry": sym_dev < 1e-8,
    }
    return verdicts, f"residual {residual:.2e}, flux dev {flux_dev:.2e}, symmetry dev {sym_dev:.2e}"


def normalized_sublevel_curve():
    report = suita.monotonicity_experiment(
        0.2, math.sqrt(0.2), [-6, -5, -4, -3, -2, -1, -0.5], SampleStream(2, seed=0)
    )
    keys = ("normalized_non_decreasing_3sigma", "limit_within_2pct", "hit_count_matches_trace_3sigma")
    verdicts = {k: report.verdicts[k] for k in keys}
    meta = report.metadata
    detail = f"limit dev {meta['limit_rel_dev']:.2e}, hit count {meta['hit_count_gap_sigma']:.2g} sigma from trace"
    return verdicts, detail


def lower_bound_margins():
    exact = all(
        suita.check_lower_bound_est1(domains.disk(), None, t) == (0.0, 0.0)
        for t in (-3.0, -2.0, -1.0)
    )
    margin, sigma = suita.check_lower_bound_est1(Annulus(0.2), math.sqrt(0.2), -2.0)
    verdicts = {
        "disk_exact": exact,
        "annulus_within_3sigma": margin >= -3 * sigma,
        "annulus_positive": margin > 0,
    }
    return verdicts, f"annulus margin {margin:.4f} (sigma {sigma:.1e})"


def convex_bounds():
    vals = [
        suita.suita_F(Ellipsoid((0.5,) + (m,) * (n - 1)), (b,) + (0.0,) * (n - 1)).F
        for m in (0.5, 1.0, 2.0)
        for n in (2, 3)
        for b in (0.1, 0.5, 0.9)
    ]
    centers = [suita.suita_F(dom).F for dom in (domains.ball(2), Ellipsoid((0.5, 1.0)))]
    verdicts = {
        "family_in_range": all(1.0 - 1e-10 <= v <= 4.0 for v in vals),
        "centers_symmetric_bound": all(f <= 16.0 / math.pi**2 for f in centers),
    }
    return verdicts, f"range [{min(vals):.6f}, {max(vals):.6f}], centers F={max(centers):.6f}"


CHECKS = (
    Check("product formula vs factors (27-point grid)", product_formula_consistency),
    Check("ellipsoid family maximum (m=1/2, n=3)", family_maximum),
    Check("symmetrized bidisk F = 2/sqrt(3)", symmetrized_bidisk),
    Check("Gamma-product ellipsoid volumes", volume_formula),
    Check("monomial series vs closed-form kernels", kernel_cross_validation),
    Check("extremal-disc pipeline vs closed volumes", geodesic_pipeline),
    Check("large-m limit of the second family", large_m_limit),
    Check("reverse capacity inequality fails on annuli", reverse_suita_failure),
    Check("Green solver boundary residual and flux", green_solver_quality),
    Check("normalized sublevel monotonicity and limit", normalized_sublevel_curve, sampling=True),
    Check("kernel lower bound margins", lower_bound_margins),
    Check("convex bounds on computed F values", convex_bounds),
)
