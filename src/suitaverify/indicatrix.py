"""Azukawa and Kobayashi indicatrices of the model domains.

Balanced domains are their own indicatrix at the center (``domains.volume``),
and the symmetrized bidisk's at its center is { |X1| + 2 |X2| < 2 }.  On
convex complex ellipsoids, Lempert's extremal discs through the axis point
sweep out the boundary: its two arcs are the one boundary representation,
and in two dimensions their upper envelope gives the volume numerically.
At first exponent 1/2 the volume is closed, and its check route is a
tanh-sinh quadrature of pi omega S^q d(rho^2) along the two arcs.
"""
from __future__ import annotations

import logging
import math

import numpy as np

from .domains import EllipsoidFamilyParams
from .numerics import integrate_1d

log = logging.getLogger(__name__)

__all__ = [
    "EnvelopeGapError",
    "indicatrix_volume_closed",
    "indicatrix_volume_quadrature",
    "extremal_disc_arcs",
    "indicatrix_volume_numeric",
]


class EnvelopeGapError(RuntimeError):
    """The sampled boundary arcs fail to cover the radial range."""


def indicatrix_volume_closed(params: EllipsoidFamilyParams):
    """Closed volume 2 pi omega (1-b)^a ((1-b)^a + 2ab) / (a (a-1))."""
    a, b = params.a, params.b
    return 2.0 * math.pi * params.omega * (1.0 - b) ** a * ((1.0 - b) ** a + 2.0 * a * b) / (a * (a - 1.0))


def indicatrix_volume_quadrature(params: EllipsoidFamilyParams):
    """The closed volume's check route: pi omega times the arc integral at first exponent 1/2."""
    return math.pi * params.omega * _arc_volume(0.5, params.b, (params.n - 1) / float(params.m))


def extremal_disc_arcs(p1, b, u_in, u_out):
    """Boundary data (rho, S) = (|X_1|, |X_2|^{2 p_2}) along both extremal-disc arcs.

    The arcs belong to a two-dimensional ellipsoid with first exponent p1 at the axis point (b, 0).
    ``u`` is the modulus of the first zero parameter alpha_1.  On branch '1-in-A' the first
    component of the disc vanishes somewhere, and ``u_in`` must lie in [b, 1]; on '1-not-in-A' it
    does not, and ``u_out`` must lie in [0, 1].  The second branch uses the general-exponent factor
    (1 - B)/p_1, B = b^{2 p_1}, derived from the disc derivative at the origin.  The branches meet
    at u = 1, in (b (1-B)/p_1, (1-B)^2).  Every factor is a sum or product of non-negative terms,
    so nothing cancels and S >= 0 needs no clipping.  Returns ((rho, S) on '1-in-A', (rho, S) on
    '1-not-in-A').
    """
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    if p1 < 0.5:
        raise ValueError("extremal-disc parametrization needs convex exponents >= 1/2")
    u_in, u_out = np.asarray(u_in, dtype=float), np.asarray(u_out, dtype=float)
    if np.any(u_in < b) or np.any(u_in > 1.0):
        raise ValueError("u outside [b, 1] on branch 1-in-A")
    if np.any(u_out < 0.0) or np.any(u_out > 1.0):
        raise ValueError("u outside [0, 1] on branch 1-not-in-A")
    # 1-in-A: v = (b/u)^{2 p1}, rho = (b/u)((1-u)(1+u) + (u^2/p1)(1-v)), S = (1-v)(1 - u^2 v),
    # with log v and log(u^2 v) <= 0 in log space, so the factors neither overflow nor cancel
    lv = -2.0 * p1 * np.log1p((u_in - b) / b)
    one_v = -np.expm1(lv)
    rho_in = (b / u_in) * ((1.0 - u_in) * (1.0 + u_in) + (u_in**2 / p1) * one_v)
    s_in = one_v * -np.expm1(lv + 2.0 * np.log(u_in))
    lb = 2.0 * p1 * math.log(b)
    one_b = -math.expm1(lb)
    rho_out = u_out * b * one_b / p1
    s_out = one_b * (one_b + math.exp(lb) * (1.0 - u_out) * (1.0 + u_out))
    return (rho_in, s_in), (rho_out, s_out)


def _in_arc(p1, b, y):
    """(P, Q, S) on '1-in-A' at u = b e^y, where rho = e^{-y} P and -d(rho^2)/dy = 2 e^{-2y} P Q.

    log u^2 is 2 (log b + y), never the log of a rounded u.  P and S are extremal_disc_arcs' factors
    and Q = (1-u)(1+u) + (2 - 1/p1) u^2 (1-v): all non-negative for p1 >= 1/2, so rho falls.
    """
    log_u2 = 2.0 * (math.log(b) + y)
    one_v, one_u2, u2 = -np.expm1(-2.0 * p1 * y), -np.expm1(log_u2), np.exp(log_u2)
    s = one_v * -np.expm1(log_u2 - 2.0 * p1 * y)
    return one_u2 + (u2 / p1) * one_v, one_u2 + (2.0 - 1.0 / p1) * u2 * one_v, s


def _arc_volume(p1, b, q):
    """Integral of S^q d(rho^2) over both extremal-disc arcs; the volume is pi omega times it.

    '1-not-in-A', rho = c u with c = b (1-B)/p1, is integrated in u on [0, 1], and '1-in-A' in
    y = log(u/b) on [0, -log b], with the root singularity of S^q at the end y = 0.
    """
    lb = 2.0 * p1 * math.log(b)
    one_b = -math.expm1(lb)
    out = integrate_1d(lambda u: 2.0 * u * (one_b * (one_b + math.exp(lb) * (1.0 - u) * (1.0 + u))) ** q, 0.0, 1.0)

    def inner(y):
        big_p, big_q, s = _in_arc(p1, b, y)
        return 2.0 * np.exp(-2.0 * y) * big_p * big_q * s**q

    return (b * one_b / p1) ** 2 * out + integrate_1d(inner, 0.0, -math.log(b))


def _envelope_volume(p, b, n_grid, n_samples):
    arcs = extremal_disc_arcs(p[0], b, np.linspace(b, 1.0, n_samples), np.linspace(0.0, 1.0, n_samples))
    rho_max = max(float(r.max()) for r, _ in arcs)
    grid = np.linspace(0.0, rho_max, n_grid)
    height = np.full(n_grid, -np.inf)
    # rho rises along '1-not-in-A' and falls along '1-in-A' (see _in_arc); the arcs meet at a
    # junction rho computed two ways, which may differ by an ulp, hence the maximum
    for r, s in arcs:
        y = s ** (1.0 / (2.0 * p[1]))
        if r[0] > r[-1]:
            r, y = r[::-1], y[::-1]
        mask = (grid >= r[0]) & (grid <= r[-1])
        height[mask] = np.maximum(height[mask], np.interp(grid[mask], r, y))
    uncovered = ~np.isfinite(height)
    if np.any(uncovered):
        raise EnvelopeGapError(
            f"boundary arcs leave {int(uncovered.sum())} of {n_grid} radial cells uncovered"
        )
    return 2.0 * math.pi**2 * float(np.trapezoid(grid * height**2, grid))


# the envelope grid starts at _N_GRID cells and doubles until the volume changes
# by at most _REL_CHANGE, at most _MAX_DOUBLINGS times
_N_GRID, _REL_CHANGE, _MAX_DOUBLINGS = 2048, 1e-5, 4


def indicatrix_volume_numeric(p, b):
    """Kobayashi indicatrix volume of a 2-d ellipsoid at (b, 0) by arc envelope.

    Samples both extremal-disc arcs, builds the upper envelope of
    |X_2| against |X_1| and integrates the resulting body of revolution;
    the grid is doubled until the volume stabilizes, or until the doublings
    run out: then the last estimate is returned with a logged warning.
    """
    p = tuple(float(q) for q in p)
    if len(p) != 2:
        raise ValueError("numeric pipeline is two-dimensional")
    if any(q < 0.5 for q in p):
        raise ValueError("extremal-disc parametrization needs convex exponents >= 1/2")
    n_grid = _N_GRID
    prev, change = _envelope_volume(p, b, n_grid, 2 * n_grid + 1), math.inf
    for _ in range(_MAX_DOUBLINGS):
        n_grid *= 2
        cur = _envelope_volume(p, b, n_grid, 2 * n_grid + 1)
        change, prev = abs(cur - prev) / abs(cur), cur
        if change <= _REL_CHANGE:
            return cur
    log.warning("indicatrix_volume_numeric(p=%s, b=%g): grid %d, last relative change %.2g > %.2g",
                p, b, n_grid, change, _REL_CHANGE)
    return prev
