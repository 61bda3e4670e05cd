"""Azukawa and Kobayashi indicatrices of the model domains.

Balanced domains are their own indicatrix at the center, so no profile is
needed there (``domains.volume``); the symmetrized bidisk center has an
explicit balanced indicatrix; convex complex ellipsoids with first
exponent 1/2 have a closed radial profile, and for general
two-dimensional ellipsoids the boundary is swept by the extremal disc
parametrization, whose upper envelope gives the volume numerically.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .domains import EllipsoidFamilyParams
from .numerics import integrate_1d

log = logging.getLogger(__name__)

__all__ = [
    "IndicatrixProfile",
    "EnvelopeGapError",
    "azukawa_g2_center",
    "kobayashi_profile_p1half",
    "indicatrix_volume_closed",
    "extremal_disc_arcs",
    "indicatrix_volume_numeric",
]


class EnvelopeGapError(RuntimeError):
    """The sampled boundary arcs fail to cover the radial range."""


def _slice_ball_volume(m, k):
    """Volume of { sum_{j<=k} |X_j|^{2m} < 1 } in C^k."""
    return math.exp(k * math.log(math.pi) + k * gammaln(1.0 + 1.0 / m) - gammaln(1.0 + k / m))


@dataclass(frozen=True)
class IndicatrixProfile:
    """Rotation-invariant indicatrix as a radial profile.

    gamma describes { |X_2|^{2m} + ... + |X_n|^{2m} <= gamma(|X_1|) } on
    [0, r_max], with kink locations listed in ``knots``.
    """

    dimension: int
    gamma: object
    r_max: float
    knots: tuple = ()
    slice_exponent: float = 1.0

    def gamma_values(self, r):
        return self.gamma(np.asarray(r, dtype=float))

    def volume(self):
        k = self.dimension - 1
        m = self.slice_exponent
        omega = _slice_ball_volume(m, k)
        integrand = lambda r: r * float(self.gamma(np.asarray(r))) ** (k / m)
        return 2.0 * math.pi * omega * integrate_1d(integrand, 0.0, self.r_max, knots=self.knots)


def azukawa_g2_center():
    """Indicatrix of the symmetrized bidisk at 0: { |X1| + 2 |X2| < 2 }."""

    def gamma(r):
        return ((2.0 - np.asarray(r, dtype=float)) / 2.0) ** 2

    return IndicatrixProfile(
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


def extremal_disc_arcs(p1, b, u_in, u_out):
    """Boundary data (rho, S) = (|X_1|, |X_2|^{2 p_2}) along both extremal-disc arcs.

    The arcs belong to a two-dimensional ellipsoid with first exponent p1 at
    the axis point (b, 0).  ``u`` is the modulus of the first zero parameter
    alpha_1.  On branch '1-in-A' the first component of the disc vanishes
    somewhere, and ``u_in`` must lie in [b, 1); on '1-not-in-A' it does not,
    and ``u_out`` must lie in [0, 1].  The second branch uses the
    general-exponent factor (1 - b^{2 p_1})/p_1 derived from the disc
    derivative at the origin.  Returns ((rho, S) on '1-in-A', (rho, S) on
    '1-not-in-A'), with S clipped at 0.
    """
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    u_in, u_out = np.asarray(u_in, dtype=float), np.asarray(u_out, dtype=float)
    if np.any(u_in < b) or np.any(u_in >= 1.0):
        raise ValueError("u outside [b, 1) on branch 1-in-A")
    if np.any(u_out < 0.0) or np.any(u_out > 1.0):
        raise ValueError("u outside [0, 1] on branch 1-not-in-A")
    lb = 2.0 * p1 * math.log(b)
    # combine b^{2 p1} u^{...} in log space: the factors overflow separately
    # for large exponents
    lu = np.log(u_in)
    t_mid = np.exp(lb + (2.0 - 2.0 * p1) * lu)
    t_low = np.exp(lb - 2.0 * p1 * lu)
    rho_in = (b / u_in) * np.abs(1.0 + (1.0 / p1 - 1.0) * u_in**2 - t_mid / p1)
    s_in = (1.0 - t_low) * (1.0 - t_mid)
    b2p = math.exp(lb)
    rho_out = u_out * b * (1.0 - b2p) / p1
    s_out = (1.0 - b2p) * (1.0 - b2p * u_out**2)
    return (rho_in, np.clip(s_in, 0.0, None)), (rho_out, np.clip(s_out, 0.0, None))


def _arc_samples(p, b, n_samples):
    """(rho, S) arrays along both boundary arcs."""
    u = np.linspace(b, 1.0, n_samples)
    u[-1] = 1.0 - 1e-13  # open endpoint of the 1-in-A branch
    return extremal_disc_arcs(p[0], b, u, np.linspace(0.0, 1.0, n_samples))


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
