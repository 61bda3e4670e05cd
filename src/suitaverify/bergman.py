"""Bergman kernel diagonal values on the model domains.

Monomial orthogonal series for Reinhardt domains, the explicit annulus
series, closed forms for the axis points of complex ellipsoids, the
deflation identity linking them, and the symmetrized bidisk center value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domains
from .domains import Ellipsoid, EllipsoidFamilyParams, Polydisk
from .numerics import DEFAULT_TOL, ConvergenceError

__all__ = [
    "KernelValue",
    "kernel_reinhardt",
    "kernel_annulus",
    "kernel_ellipsoid_closed",
    "kernel_deflated",
    "kernel_deflated_via_identity",
    "kernel_g2_center",
]


@dataclass(frozen=True)
class KernelValue:
    """Kernel diagonal value with its provenance and truncation error bound."""

    value: float
    method: str
    error_bound: float = 0.0

    def __float__(self):
        return self.value


def _degree_block(n, degree):
    """Multi-indices alpha >= 0 with |alpha| = degree."""
    if n == 0:
        if degree == 0:
            yield ()
        return
    if n == 1:
        yield (degree,)
        return
    for head in range(degree + 1):
        for tail in _degree_block(n - 1, degree - head):
            yield (head,) + tail


def kernel_reinhardt(domain, w, tol=DEFAULT_TOL, max_degree=20000):
    """K(w) = sum over monomials of |w^alpha|^2 / ||z^alpha||^2.

    Terms are summed in blocks of equal total degree; the block sums decay
    geometrically in the Minkowski functional of w, which also provides the
    tail estimate.  Points on or outside the boundary trip the divergence
    guard.
    """
    if not isinstance(domain, (Ellipsoid, Polydisk)):
        raise TypeError("monomial-series kernel needs a Reinhardt spec")
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if w.shape != (domain.dimension,):
        raise ValueError("base point has wrong dimension")
    if not domains.contains(domain, w):
        raise ValueError("base point on or outside the boundary: series diverges")
    absw = np.abs(w)
    active = absw > 0.0  # coordinates with w_j = 0 contribute only alpha_j = 0
    total = 0.0
    last_blocks = []
    degree = 0
    while degree <= max_degree:
        block = 0.0
        for alpha in _degree_block(int(np.sum(active)), degree):
            full = np.zeros(domain.dimension, dtype=int)
            full[active] = alpha
            term = float(np.prod(absw[active] ** (2 * np.asarray(alpha))))
            block += term / domains.monomial_norm(domain, full)
        total += block
        last_blocks.append(block)
        if degree >= 8 and block <= tol.abs_tol + tol.rel_tol * total:
            # geometric tail estimate from the last two block ratios
            ratio = last_blocks[-1] / last_blocks[-2] if last_blocks[-2] > 0 else 0.0
            if ratio < 1.0:
                tail = block * ratio / (1.0 - ratio) if ratio > 0 else block
                return KernelValue(total, "monomial-series", tail)
        degree += 1
    raise ConvergenceError("kernel series did not converge within the degree budget")


def kernel_annulus(r, w, tol=DEFAULT_TOL):
    """Kernel of { r < |z| < 1 } on the diagonal.

    K(w) = (1/(pi |w|^2)) (1/(-2 log r) + sum_{j != 0} j |w|^{2j}/(1 - r^{2j})).
    The j = 0 slot of the Laurent series is the 1/(-2 log r) term (its
    continuity limit), so the sum runs over the nonzero indices.
    """
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError("inner radius must lie in (0, 1)")
    w0 = abs(complex(w))
    if not r < w0 < 1.0:
        raise ValueError("base point must lie inside the annulus")
    total = 1.0 / (-2.0 * math.log(r))
    j = 1
    err = 0.0
    while True:
        t_pos = j * w0 ** (2 * j) / (1.0 - r ** (2 * j))
        # j -> -j term rewritten with positive powers of r/w0
        q = (r / w0) ** (2 * j)
        t_neg = j * q / (1.0 - r ** (2 * j))
        total += t_pos + t_neg
        if j > 4 and t_pos + t_neg < tol.abs_tol + tol.rel_tol * total:
            # both tails are geometric with ratios w0^2 and (r/w0)^2
            err = t_pos * w0**2 / (1.0 - w0**2) + t_neg * q / (1.0 - q)
            break
        j += 1
        if j > 100000:
            raise ConvergenceError("annulus kernel series did not converge")
    scale = 1.0 / (math.pi * w0**2)
    return KernelValue(scale * total, "annulus-series", scale * err)


def kernel_ellipsoid_closed(p, b):
    """Closed form for { |z1| + |z2|^{2/p} < 1 } at (b, 0).

    K = (p+1)/(4 pi^2 b) ((1-b)^{-p-2} - (1+b)^{-p-2}), with the difference
    evaluated without cancellation.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    val = (p + 1.0) / (4.0 * math.pi**2 * b) * _power_difference(p + 2.0, b)
    return KernelValue(val, "closed-form")


def _power_difference(q, b):
    """(1-b)^{-q} - (1+b)^{-q}; ((1-b)/(1+b))^q = exp(-2q atanh b), and expm1 of
    the negated exponent neither cancels at small b nor amplifies rounding at large b."""
    return -((1.0 - b) ** (-q)) * math.expm1(-2.0 * q * math.atanh(b))


def kernel_deflated(params: EllipsoidFamilyParams):
    """Axis-point kernel of the family { |z1| + sum |z_j|^{2m} < 1 }.

    K((b,0,...,0)) = (a-1)/(4 pi omega b) ((1-b)^{-a} - (1+b)^{-a}) with
    a = (n-1)/m + 2.  The deflation route through the two-dimensional
    ellipsoid { |z1| + |z2|^{2m/(n-1)} < 1 } must agree; both are exposed and
    cross-checked here.
    """
    a = params.a
    b = params.b
    val = (a - 1.0) / (4.0 * math.pi * params.omega * b) * _power_difference(a, b)
    other = kernel_deflated_via_identity(params).value
    if abs(other / val - 1.0) > 1e-10:
        raise ArithmeticError(
            f"deflation identity violated: closed {val} vs deflated {other}"
        )
    return KernelValue(val, "closed-form")


def kernel_deflated_via_identity(params: EllipsoidFamilyParams):
    """Deflation route: scale the 2-d ellipsoid kernel by the volume ratio."""
    q = (params.n - 1) / params.m  # two-dimensional exponent pair (1/2, 1/q)
    lam_small = 2.0 * math.pi**2 / ((q + 1.0) * (q + 2.0))
    k_small = kernel_ellipsoid_closed(q, params.b).value
    return KernelValue(lam_small / params.domain_volume() * k_small, "deflation")


def kernel_g2_center():
    """Kernel of the symmetrized bidisk at the origin: 2/pi^2."""
    return KernelValue(2.0 / math.pi**2, "closed-form")
