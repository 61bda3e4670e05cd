"""The kernel-times-indicatrix invariant and the inequality experiments.

F(w) = (K(w) * lambda(I(w)))^{1/n} is at least 1 for pseudoconvex domains
and bounded above on C-convex ones.  This module evaluates F on the model
domains, maximizes it along the ellipsoid families, checks the sublevel
lower bound and the annulus counterexample to the reverse capacity
inequality, and packages grid experiments into reproducible reports.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import bergman, domains, green1d, indicatrix
from .bergman import KernelValue
from .domains import Annulus, Ellipsoid, EllipsoidFamilyParams, Polydisk, SymmetrizedBidisk
from .numerics import SampleStream, golden_section_max

__all__ = [
    "SuitaRatio",
    "ExperimentReport",
    "ReverseSuitaResult",
    "CLASSIFICATION_BOUNDS",
    "product_closed_form",
    "suita_F",
    "maximize_F",
    "check_lower_bound_est1",
    "check_reverse_suita",
    "monotonicity_experiment",
    "figure_scan",
]

log = logging.getLogger(__name__)

CLASSIFICATION_BOUNDS = {
    "c-convex": 16.0,
    "convex": 4.0,
    "symmetric": 16.0 / math.pi**2,
    "none": math.inf,
}


@dataclass(frozen=True)
class SuitaRatio:
    kernel: KernelValue
    indicatrix_volume: float
    n: int
    F: float
    classification: str

    @property
    def bound(self):
        return CLASSIFICATION_BOUNDS[self.classification]


@dataclass
class ExperimentReport:
    """Grid experiment with enough metadata to re-derive every verdict."""

    kind: str
    grid: dict
    samples: list
    verdicts: dict
    metadata: dict = field(default_factory=dict)

    def to_json(self, path=None):
        payload = {
            "kind": self.kind,
            "grid": self.grid,
            "samples": self.samples,
            "verdicts": self.verdicts,
            "metadata": self.metadata,
        }
        text = json.dumps(payload, indent=2, sort_keys=True, default=float)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def _correction(a, b):
    """((1+b)^a - (1-b)^a - 2ab) / (2ab).

    Below b = 0.1 the difference cancels against 2ab, so the odd binomial
    series sum_{j=3,5,...} C(a,j) b^{j-1} / a is summed instead.  The cutoff
    lies below the bracket that maximize_F(0.5, 3) narrows, so b* and F*
    there do not depend on it.
    """
    if b >= 0.1:
        return ((1.0 + b) ** a - (1.0 - b) ** a - 2.0 * a * b) / (2.0 * a * b)
    term = total = (a - 1.0) * (a - 2.0) / 6.0 * b * b  # j = 3
    j = 3
    while j <= a or abs(term) > 1e-17 * total:  # once j > a, each term is below b^2 times the last
        term *= (a - j) * (a - j - 1.0) / ((j + 1.0) * (j + 2.0)) * b * b
        total += term
        j += 2
    return total


def product_closed_form(params: EllipsoidFamilyParams):
    """K((b,0,...,0)) * lambda(I^K) for the family { |z1| + sum |z_j|^{2m} < 1 }.

    Equals 1 + (1-b)^a ((1+b)^a - (1-b)^a - 2ab) / (2ab(1+b)^a).  Its
    agreement with the product of the two closed-form factors is criterion 1.
    """
    a, b = params.a, params.b
    return 1.0 + (1.0 - b) ** a * _correction(a, b) / (1.0 + b) ** a


def _closed_ratio(params: EllipsoidFamilyParams):
    """F at (b, 0, ..., 0) on { |z1| + sum |z_j|^{2m} < 1 }, all in closed form."""
    k = bergman.kernel_deflated(params)
    vol = indicatrix.indicatrix_volume_closed(params)
    f = product_closed_form(params) ** (1.0 / params.n)
    return SuitaRatio(k, vol, params.n, f, "convex")


def _numeric_ratio(domain: Ellipsoid, b):
    """F at (b, 0) on a two-dimensional ellipsoid: the monomial series summed
    to rounding times the extremal-disc envelope volume."""
    k = bergman.kernel_reinhardt(domain, np.array([b, 0.0], dtype=complex))
    vol = indicatrix.indicatrix_volume_numeric(domain.exponents, b)
    return SuitaRatio(k, vol, 2, math.sqrt(k.value * vol), "convex")


def _is_axis_point(w, n):
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if w.shape != (n,):
        raise ValueError("base point has wrong dimension")
    return bool(np.all(w[1:] == 0)), w


def suita_F(domain, w=None):
    """Invariant F at a supported (domain, base point) combination.

    Balanced domains at the center give exactly 1; the symmetrized bidisk
    center uses its explicit kernel and indicatrix; ellipsoid axis points
    take the closed route when the first exponent is 1/2 and the others are
    equal, else the numeric route in two dimensions; the annulus uses the
    series kernel together with the capacity form pi/c^2 of the
    one-dimensional indicatrix volume.
    """
    if isinstance(domain, SymmetrizedBidisk):
        k = bergman.kernel_g2_center()
        vol = 2.0 * math.pi**2 / 3.0
        f = math.sqrt(k.value * vol)
        return SuitaRatio(k, vol, 2, f, "c-convex")
    if isinstance(domain, Annulus):
        wc = complex(np.atleast_1d(np.asarray(w, dtype=complex))[0])
        k = bergman.kernel_annulus(domain.inner, wc)
        g = green1d.AnnulusGreen(domain.inner, wc)
        vol = math.pi / green1d.robin_capacity(g) ** 2
        return SuitaRatio(k, vol, 1, k.value * vol, "none")
    if isinstance(domain, (Ellipsoid, Polydisk)):
        n = domain.dimension
        if w is None:
            w = np.zeros(n, dtype=complex)
        on_axis, w = _is_axis_point(w, n)
        if not w.any():
            vol = domains.volume(domain)
            k = KernelValue(1.0 / vol, "closed-form")
            return SuitaRatio(k, vol, n, 1.0, "symmetric")
        if not isinstance(domain, Ellipsoid) or not on_axis:
            raise ValueError("off-axis base points are not supported")
        b = abs(w[0])
        p = domain.exponents
        if any(r != 1.0 for r in domain.radii):
            raise ValueError("axis-point evaluation expects unit radii")
        if p[0] == 0.5 and n >= 2 and len(set(p[1:])) == 1:
            return _closed_ratio(EllipsoidFamilyParams(m=p[1], n=n, b=b))
        if n == 2:
            return _numeric_ratio(domain, b)
        raise ValueError("unsupported exponent pattern for an axis point with n > 2")
    raise TypeError(f"unsupported domain {domain!r}")


def maximize_F(m, n=2, tol=1e-6, family="ell1"):
    """Maximum of b -> F(b, 0, ..., 0) over (0, 1).

    family 'ell1' uses the closed form for { |z1| + sum |z_j|^{2m} < 1 };
    family 'p' runs the numeric pipeline for { |z1|^{2m} + |z2|^2 < 1 }.
    Returns (b_star, F_star).
    """
    if family == "ell1":

        def objective(b):
            return _closed_ratio(EllipsoidFamilyParams(m=m, n=n, b=b)).F

        return golden_section_max(objective, 1e-4, 1.0 - 1e-4, tol=tol)
    if family == "p":
        dom = Ellipsoid((float(m), 1.0))

        def objective(b):
            return _numeric_ratio(dom, b).F

        return golden_section_max(objective, 1e-3, 1.0 - 1e-3, tol=max(tol, 1e-5))
    raise ValueError(f"unknown family {family!r}")


def check_lower_bound_est1(domain, w, t):
    """Margin K(w) - 1/(e^{-2nt} lambda({G < t})) of the sublevel lower bound.

    Returns (margin, sigma).  Balanced domains at the center are exact
    (sigma 0, margin 0 by scaling); the annulus propagates the error bound of
    the traced sublevel area, and raises CriticalLevelError at a level that
    is not a radial graph around the pole.
    """
    if t > 0:
        raise ValueError("require t <= 0")
    if isinstance(domain, (Ellipsoid, Polydisk)):
        on_axis, w = _is_axis_point(w if w is not None else np.zeros(domain.dimension), domain.dimension)
        if w.any():
            raise ValueError("balanced case is evaluated at the center")
        # K = 1/lambda at the center and e^{-2nt} lambda({G<t}) = lambda exactly
        return 0.0, 0.0
    if isinstance(domain, Annulus):
        wc = complex(np.atleast_1d(np.asarray(w, dtype=complex))[0])
        k = bergman.kernel_annulus(domain.inner, wc)
        g = green1d.AnnulusGreen(domain.inner, wc)
        st = green1d.level_flux_and_isoperimetric(g, t)
        norm = math.exp(-2.0 * t) * st.area
        norm_err = math.exp(-2.0 * t) * st.area_err
        margin = k.value - 1.0 / norm
        sigma = norm_err / norm**2
        return margin, sigma
    raise TypeError(f"unsupported domain {domain!r}")


@dataclass(frozen=True)
class ReverseSuitaResult:
    radius: float
    kernel: float
    capacity: float
    ratio: float
    bound: float


def check_reverse_suita(r):
    """K(sqrt r)/c(sqrt r)^2 against its divergent lower bound -2 log r / pi^3.

    The ratio grows without bound as r -> 0, so no inequality K <= C c^2 can
    hold uniformly.
    """
    w = math.sqrt(r)
    k = bergman.kernel_annulus(r, w)
    g = green1d.AnnulusGreen(r, w)
    c = green1d.robin_capacity(g)
    ratio = k.value / c**2
    bound = -2.0 * math.log(r) / math.pi**3
    if ratio < bound:
        raise ArithmeticError(f"annulus ratio {ratio} fell below its bound {bound}")
    return ReverseSuitaResult(radius=r, kernel=k.value, capacity=c, ratio=ratio, bound=bound)


def monotonicity_experiment(r, w, t_grid, stream=None, count=2**20):
    """Normalized sublevel curve on the annulus with monotonicity verdicts.

    Checks that e^{-2t} lambda({G < t}) is non-decreasing within 3 standard
    errors, reports discrete convexity evidence for log lambda({G < t}) from
    the differences of its slopes between grid levels (evidence only: the
    conjecture is open), and compares the most negative grid value against
    the capacity limit pi/c^2.  The volumes are traced areas; a level that
    is not a radial graph around the pole falls back to hit counting
    ``count`` points of ``stream.split(i)``, and at the largest traced level
    the same count is hit-counted as well, to agree within 3 standard
    errors.  Raises ValueError for an empty t grid or a repeated level.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid or len(set(t_grid)) < len(t_grid):
        raise ValueError("t grid must be non-empty, without repeated levels")
    if stream is None:
        stream = SampleStream(dimension=2, seed=0)
    wc = complex(w)
    g = green1d.AnnulusGreen(r, wc)
    samples = []
    for i, t in enumerate(t_grid):
        try:
            st = green1d.level_flux_and_isoperimetric(g, t)
            v, e, route = st.area, st.area_err, "trace"
        except green1d.CriticalLevelError:
            (v, e), route = green1d.sublevel_volume(g, t, stream.split(i), count), "hit-count"
        log.debug("sublevel volume at t=%g: %s %.17g +- %.3g", t, route, v, e)
        scale = math.exp(-2.0 * t)
        samples.append(
            {
                "t": t,
                "lambda": v,
                "stderr": e,
                "normalized": scale * v,
                "normalized_stderr": scale * e,
                "route": route,
            }
        )
    c = green1d.robin_capacity(g)
    limit = math.pi / c**2

    norm = np.array([row["normalized"] for row in samples])
    err = np.array([row["normalized_stderr"] for row in samples])
    diffs = np.diff(norm)
    sigma = np.sqrt(err[:-1] ** 2 + err[1:] ** 2)
    monotone = bool(np.all(diffs >= -3.0 * sigma))

    # divided differences: the grid need not be uniform
    slopes = np.diff(np.log([row["lambda"] for row in samples])) / np.diff(t_grid)
    slope_diffs = np.diff(slopes)
    limit_dev = abs(norm[0] / limit - 1.0)

    # every headline volume twice: hit-count the largest traced level again
    traced = [i for i, row in enumerate(samples) if row["route"] == "trace"]
    hit_t = hit = hit_err = gap = None
    if traced:
        i = traced[-1]
        hit_t = t_grid[i]
        hit, hit_err = green1d.sublevel_volume(g, hit_t, stream.split(i), count)
        gap = abs(hit - samples[i]["lambda"]) / math.hypot(hit_err, samples[i]["stderr"])

    return ExperimentReport(
        kind="monotonicity",
        grid={"r": r, "w": [wc.real, wc.imag], "t_grid": t_grid},
        samples=samples,
        verdicts={
            "normalized_non_decreasing_3sigma": monotone,
            "limit_within_2pct": bool(limit_dev <= 0.02),
            "log_volume_convexity_evidence": bool(np.all(slope_diffs >= -1e-2)) if slope_diffs.size else None,
            "hit_count_matches_trace_3sigma": bool(gap <= 3.0) if traced else None,
        },
        metadata={
            "seed": stream.seed,
            "count": count,
            "capacity": c,
            "limit_pi_over_c2": limit,
            "limit_rel_dev": limit_dev,
            "log_volume_slope_differences": slope_diffs.tolist(),
            "hit_count_t": hit_t,
            "hit_count": hit,
            "hit_count_stderr": hit_err,
            "hit_count_gap_sigma": gap,
        },
    )


def figure_scan(family, b_grid, m=0.5, n_list=(2, 3, 4, 5, 6), m_list=(0.5, 2.0, 8.0, 32.0, 128.0)):
    """(b, F) tables along the two ellipsoid families.

    family 'ell1' scans n in ``n_list`` at fixed m via the closed form;
    family 'p' scans m in ``m_list`` through the numeric pipeline.
    """
    b_grid = [float(b) for b in b_grid]
    if not b_grid:
        raise ValueError("b grid must be non-empty")
    samples = []
    if family == "ell1":
        for n in n_list:
            for b in b_grid:
                f = _closed_ratio(EllipsoidFamilyParams(m=m, n=int(n), b=b)).F
                samples.append({"curve": f"ell1 m={m} n={n}", "b": b, "F": f})
        grid = {"family": "ell1", "m": m, "n_list": list(n_list), "b_grid": b_grid}
    elif family == "p":
        for mm in m_list:
            dom = Ellipsoid((float(mm), 1.0))
            # numeric at m = 1/2 too, where suita_F would take the closed form
            for b in b_grid:
                samples.append({"curve": f"p m={mm}", "b": b, "F": _numeric_ratio(dom, b).F})
        grid = {"family": "p", "m_list": list(m_list), "b_grid": b_grid}
    else:
        raise ValueError(f"unknown family {family!r}")
    if not samples:  # the b grid is not empty, so the family's list is
        raise ValueError(f"{'n_list' if family == 'ell1' else 'm_list'} must be non-empty")
    values = [row["F"] for row in samples]
    # the closed form is exact; the numeric envelope pipeline is only
    # accurate to a few 1e-5 relative, so its verdict gets matching slack
    one_slack = 1e-10 if family == "ell1" else 5e-4
    return ExperimentReport(
        kind="figure-scan",
        grid=grid,
        samples=samples,
        verdicts={
            "all_at_least_one": bool(min(values) >= 1.0 - one_slack),
            "all_below_convex_bound": bool(max(values) <= 4.0),
        },
        metadata={"max_F": max(values), "min_F": min(values)},
    )
