"""Azukawa and Kobayashi indicatrices of the model domains.

Balanced domains are their own indicatrix at the center; the symmetrized
bidisk center has an explicit balanced indicatrix; convex complex
ellipsoids with first exponent 1/2 have a closed radial profile, and for
general two-dimensional ellipsoids the boundary is swept by the extremal
disc parametrization, whose upper envelope gives the volume numerically.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import domains
from .domains import EllipsoidFamilyParams
from .numerics import DEFAULT_TOL, integrate_1d

log = logging.getLogger(__name__)

__all__ = [
    "IndicatrixProfile",
    "GeodesicParams",
    "EnvelopeGapError",
    "azukawa_balanced",
    "azukawa_g2_center",
    "kobayashi_profile_p1half",
    "indicatrix_volume_closed",
    "geodesic_boundary_point",
    "indicatrix_volume_numeric",
]


class EnvelopeGapError(RuntimeError):
    """The sampled boundary arcs fail to cover the radial range."""


def _slice_ball_volume(m, k):
    """Volume of { sum_{j<=k} |X_j|^{2m} < 1 } in C^k."""
    return math.exp(k * math.log(math.pi) + k * gammaln(1.0 + 1.0 / m) - gammaln(1.0 + k / m))


@dataclass(frozen=True)
class IndicatrixProfile:
    """Rotation-invariant indicatrix description.

    kind 'balanced-identity' carries the domain itself; 'radial-profile'
    carries gamma with { |X_2|^{2m} + ... + |X_n|^{2m} <= gamma(|X_1|) } on
    [0, r_max], with kink locations listed in ``knots``.
    """

    kind: str
    dimension: int
    domain: object = None
    gamma: object = None
    r_max: float = 0.0
    knots: tuple = ()
    slice_exponent: float = 1.0

    def gamma_values(self, r):
        if self.kind != "radial-profile":
            raise TypeError("only radial profiles expose gamma")
        return self.gamma(np.asarray(r, dtype=float))

    def volume(self, tol=DEFAULT_TOL):
        if self.kind == "balanced-identity":
            return domains.volume(self.domain)
        k = self.dimension - 1
        m = self.slice_exponent
        omega = _slice_ball_volume(m, k)
        integrand = lambda r: r * float(self.gamma(np.asarray(r))) ** (k / m)
        return 2.0 * math.pi * omega * integrate_1d(
            integrand, 0.0, self.r_max, tol, knots=self.knots
        )

    def to_csv(self, path, count=512):
        import csv

        rs = np.linspace(0.0, self.r_max, count)
        gs = self.gamma_values(rs)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "gamma"])
            for r, g in zip(rs, gs):
                writer.writerow([f"{r:.12g}", f"{g:.12g}"])


def azukawa_balanced(domain):
    """At the center of a balanced domain the indicatrix is the domain itself."""
    if not domains.is_balanced(domain):
        raise TypeError("balanced-identity indicatrix needs a balanced spec")
    return IndicatrixProfile(
        kind="balanced-identity", dimension=domain.dimension, domain=domain
    )


def azukawa_g2_center():
    """Indicatrix of the symmetrized bidisk at 0: { |X1| + 2 |X2| < 2 }."""

    def gamma(r):
        return ((2.0 - np.asarray(r, dtype=float)) / 2.0) ** 2

    return IndicatrixProfile(
        kind="radial-profile",
        dimension=2,
        gamma=gamma,
        r_max=2.0,
        knots=(),
        slice_exponent=1.0,
    )


def kobayashi_profile_p1half(m, n, b):
    """Radial profile for { |z1| + |z2|^{2m} + ... + |z_n|^{2m} < 1 } at (b, 0, ..., 0).

    gamma(r) = 1 - b - r^2/(4b(1-b)) up to the kink at r = 2b(1-b), then
    1 - b^2 - r down to the support endpoint 1 - b^2.
    """
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    if m < 0.5 or n < 2:
        raise ValueError("need m >= 1/2 and n >= 2")
    knot = 2.0 * b * (1.0 - b)

    def gamma(r):
        r = np.asarray(r, dtype=float)
        inner = 1.0 - b - r**2 / (4.0 * b * (1.0 - b))
        outer = 1.0 - b**2 - r
        return np.where(r <= knot, inner, np.clip(outer, 0.0, None))

    return IndicatrixProfile(
        kind="radial-profile",
        dimension=n,
        gamma=gamma,
        r_max=1.0 - b**2,
        knots=(knot,),
        slice_exponent=float(m),
    )


def indicatrix_volume_closed(params: EllipsoidFamilyParams):
    """Closed volume 2 pi omega (1-b)^a ((1-b)^a + 2ab) / (a (a-1))."""
    a = params.a
    b = params.b
    return (
        2.0
        * math.pi
        * params.omega
        * (1.0 - b) ** a
        * ((1.0 - b) ** a + 2.0 * a * b)
        / (a * (a - 1.0))
    )


@dataclass(frozen=True)
class GeodesicParams:
    """Extremal-disc parameters for a two-dimensional ellipsoid axis point.

    ``branch`` records whether the first component of the disc vanishes
    somewhere ('1-in-A') or not ('1-not-in-A'); ``u`` is the modulus of the
    first zero parameter alpha_1.
    """

    p: tuple
    b: float
    branch: str
    u: float

    def __post_init__(self):
        if len(self.p) != 2 or any(q < 0.5 for q in self.p):
            raise ValueError("need two exponents >= 1/2")
        if not 0.0 < self.b < 1.0:
            raise ValueError("b must lie in (0, 1)")
        if self.branch not in ("1-in-A", "1-not-in-A"):
            raise ValueError(f"unknown branch {self.branch!r}")


def geodesic_boundary_point(g: GeodesicParams):
    """Boundary datum (rho, S) = (|X_1|, |X_2|^{2 p_2}) for one extremal disc.

    On branch '1-in-A' the admissible range is u in [b, 1); on '1-not-in-A'
    it is u in [0, 1].  The second branch uses the general-exponent factor
    (1 - b^{2 p_1})/p_1 derived from the disc derivative at the origin.
    """
    p1 = g.p[0]
    b, u = g.b, g.u
    lb = 2.0 * p1 * math.log(b)
    if g.branch == "1-in-A":
        if not b <= u < 1.0:
            raise ValueError(f"u={u} outside [b, 1) for branch 1-in-A")
        # powers like b^{2 p1} u^{2-2 p1} overflow separately for large p1,
        # so they are combined in log space
        lu = math.log(u)
        t_mid = math.exp(lb + (2.0 - 2.0 * p1) * lu)
        t_low = math.exp(lb - 2.0 * p1 * lu)
        rho = (b / u) * abs(1.0 + (1.0 / p1 - 1.0) * u**2 - t_mid / p1)
        s = (1.0 - t_low) * (1.0 - t_mid)
    else:
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"u={u} outside [0, 1] for branch 1-not-in-A")
        b2p = math.exp(lb)
        rho = u * b * (1.0 - b2p) / p1
        s = (1.0 - b2p) * (1.0 - b2p * u**2)
    return rho, max(s, 0.0)


def _arc_samples(p, b, n_samples):
    """(rho, S) arrays along both boundary arcs."""
    p1 = p[0]
    lb = 2.0 * p1 * math.log(b)
    arcs = []
    u = np.linspace(b, 1.0, n_samples)
    u[-1] = 1.0 - 1e-13  # open endpoint of the 1-in-A branch
    # combine b^{2 p1} u^{...} in log space: the factors overflow separately
    # for large exponents
    lu = np.log(u)
    t_mid = np.exp(lb + (2.0 - 2.0 * p1) * lu)
    t_low = np.exp(lb - 2.0 * p1 * lu)
    rho = (b / u) * np.abs(1.0 + (1.0 / p1 - 1.0) * u**2 - t_mid / p1)
    s = (1.0 - t_low) * (1.0 - t_mid)
    arcs.append((rho, np.clip(s, 0.0, None)))
    u = np.linspace(0.0, 1.0, n_samples)
    b2p = math.exp(lb)
    rho = u * b * (1.0 - b2p) / p1
    s = np.full_like(u, 1.0 - b2p) * (1.0 - b2p * u**2)
    arcs.append((rho, np.clip(s, 0.0, None)))
    return arcs


def _envelope_volume(p, b, n_grid, n_samples):
    p2 = p[1]
    arcs = _arc_samples(p, b, n_samples)
    rho_max = max(float(r.max()) for r, _ in arcs)
    grid = np.linspace(0.0, rho_max, n_grid)
    height = np.full(n_grid, -np.inf)
    for r, s in arcs:
        y = s ** (1.0 / (2.0 * p2))
        # split into monotone pieces of r so interpolation is well defined
        splits = np.flatnonzero(np.diff(np.sign(np.diff(r))) != 0) + 1
        bounds = [0, *splits.tolist(), len(r) - 1]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rs = r[lo : hi + 1]
            ys = y[lo : hi + 1]
            if len(rs) < 2:
                continue
            if rs[0] > rs[-1]:
                rs, ys = rs[::-1], ys[::-1]
            mask = (grid >= rs[0]) & (grid <= rs[-1])
            height[mask] = np.maximum(height[mask], np.interp(grid[mask], rs, ys))
    uncovered = ~np.isfinite(height)
    if np.any(uncovered):
        raise EnvelopeGapError(
            f"boundary arcs leave {int(uncovered.sum())} of {n_grid} radial cells uncovered"
        )
    return 2.0 * math.pi**2 * float(np.trapezoid(grid * height**2, grid))


def indicatrix_volume_numeric(p, b, n_grid=2048, rel_change=1e-5, max_doublings=4):
    """Kobayashi indicatrix volume of a 2-d ellipsoid at (b, 0) by arc envelope.

    Samples both extremal-disc arcs, builds the upper envelope of
    |X_2| against |X_1| and integrates the resulting body of revolution;
    the grid is doubled until the volume stabilizes, or until ``max_doublings``
    runs out: then the last estimate is returned with a logged warning.
    """
    p = tuple(float(q) for q in p)
    if len(p) != 2:
        raise ValueError("numeric pipeline is two-dimensional")
    if any(q < 0.5 for q in p):
        raise ValueError("extremal-disc parametrization needs convex exponents >= 1/2")
    prev, change = _envelope_volume(p, b, n_grid, 2 * n_grid + 1), math.inf
    for _ in range(max_doublings):
        n_grid *= 2
        cur = _envelope_volume(p, b, n_grid, 2 * n_grid + 1)
        change, prev = abs(cur - prev) / abs(cur), cur
        if change <= rel_change:
            return cur
    log.warning("indicatrix_volume_numeric(p=%s, b=%g): grid %d, last relative change %.2g > %.2g",
                p, b, n_grid, change, rel_change)
    return prev
