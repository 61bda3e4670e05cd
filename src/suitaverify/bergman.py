"""Bergman kernel diagonal values on the model domains.

Monomial orthogonal series for Reinhardt domains, the annulus kernel as a
sum of strip images whose count depends on r alone, closed forms for the axis
points of complex ellipsoids with first exponent 1/2 or second exponent 1,
the deflation identity linking dimensions, and the symmetrized bidisk center
value.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import domains, green1d
from .domains import Ellipsoid, EllipsoidFamilyParams, Polydisk
from .numerics import ConvergenceError

__all__ = [
    "KernelValue",
    "kernel_reinhardt",
    "kernel_annulus",
    "kernel_ellipsoid_closed",
    "kernel_ellipsoid_axis",
    "kernel_deflated",
    "kernel_deflated_via_identity",
    "kernel_g2_center",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class KernelValue:
    """Kernel diagonal value with its provenance and truncation error bound."""

    value: float
    method: str
    error_bound: float = 0.0
    # multi-indices summed by the monomial series, images by the annulus sum; None for closed forms
    terms: int | None = None

    def __float__(self):
        return self.value


# The default stop: a degree block, or the annulus images left out, below this
# share of the running total no longer moves a double.
ROUNDING_SHARE = 1e-17
# Most terms the series may evaluate before it gives up.
TERM_BUDGET = 2**22
# Chunk sizes in terms: the first chunk, and the cap on memory held at once.
_FIRST_CHUNK = 2**8
_CHUNK = 2**16


def _chunk_end(k, lo, rows):
    """Degree hi > lo such that degrees lo .. hi-1 hold at most ``rows``
    multi-indices in N^k, or just degree lo when that alone holds more."""
    if k == 1:
        return lo + rows
    hi, count = lo + 1, math.comb(lo + k - 1, k - 1)
    while count + (nxt := math.comb(hi + k - 1, k - 1)) <= rows:
        count += nxt
        hi += 1
    return hi


def _rows(lo, hi, tables):
    """The rows of every alpha in N^k, k >= 2, with lo <= |alpha| < hi, in lexicographic
    order: (degree, sums), each row's |alpha| (int64) and, for each table t of shape
    (k, >= hi), the row's t[0][alpha_0] + ... + t[k-1][alpha_{k-1}], added left to right.

    The first coordinate takes every value below hi; each later one repeats the rows
    made so far once per value it may take, and the last one takes only the values
    that bring the row's degree into lo .. hi-1.
    """
    k = len(tables[0])
    degree = np.arange(hi)
    sums = [t[0][:hi] for t in tables]
    for j in range(1, k):
        start = np.maximum(lo - degree, 0) if j == k - 1 else 0
        counts = hi - degree - start
        col = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - start, counts)
        degree = np.repeat(degree, counts) + col
        sums = [np.repeat(s, counts) + t[j][col] for s, t in zip(sums, tables)]
    return degree, sums


def kernel_reinhardt(domain, w):
    """K(w) = sum over monomials of |w^alpha|^2 / ||z^alpha||^2.

    Terms are evaluated in log space, exp(2 alpha . log|w| - log ||z^alpha||^2),
    so degrees in the thousands neither overflow nor underflow.  They are
    taken in chunks of whole degree blocks that grow from 2^8 to 2^16
    multi-indices; only a single block in four or more active coordinates
    can hold more.  The log term of a row is a sum of per-coordinate table
    entries ``alpha_j log|w_j|^2 - own_j(alpha_j)`` (``domains.log_norm_parts``)
    plus the coupling term, which is taken once per degree where the active
    exponents are equal and once per row otherwise; coordinates with w_j = 0
    enter only through alpha_j = 0.  One active coordinate takes its tables
    for the chunk's degrees only; several take theirs from alpha_j = 0 on,
    made once and extended as the degree grows, so each table entry costs
    one log-gamma evaluation per call.  A chunk holds per row its degree and
    one index column (int64) and two float64 arrays, the log terms and their
    exponentials, and one more while a per-row coupling is taken.  The block sums
    decay geometrically in the Minkowski functional of w, which also gives
    the tail estimate reported in ``error_bound``.  All terms are positive,
    so the partial sum is a one-sided lower bound on K(w); ``terms`` counts
    the multi-indices summed.

    The series is summed to rounding: it stops at the first degree from 8 on
    whose block is below ROUNDING_SHARE of the total.  Past TERM_BUDGET terms
    the series raises ConvergenceError; it never returns a truncated sum.
    Points on or outside the boundary trip the divergence guard.
    """
    if not isinstance(domain, (Ellipsoid, Polydisk)):
        raise TypeError("monomial-series kernel needs a Reinhardt spec")
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if w.shape != (domain.dimension,):
        raise ValueError("base point has wrong dimension")
    if not domains.contains(domain, w):
        raise ValueError("base point on or outside the boundary: series diverges")
    active = np.flatnonzero(w)
    if active.size == 0:
        norm = domains.monomial_norm(domain, np.zeros(domain.dimension), log=True)
        return KernelValue(math.exp(-norm), "monomial-series", terms=1)
    k = active.size
    log_w2 = 2.0 * np.log(np.abs(w[active]))
    own0, share0 = domains.log_norm_parts(domain, np.zeros(domain.dimension))
    # coordinates that no table carries contribute their alpha_j = 0 parts as constants
    keep = np.ones(domain.dimension, dtype=bool)
    keep[active] = False
    rest = -float(np.sum(own0[keep]))
    coupled = share0 is not None
    # with equal active exponents, every row of degree d has the coupling of the
    # row that puts all of d on the first active coordinate
    by_degree = coupled and bool(np.all(share0[active] == share0[active[0]]))
    if coupled:
        keep[active[1:]] = by_degree
        share_rest = float(np.sum(share0[keep]))

    def tables(a):
        """At the values a: the tables, a row per active coordinate with rest and
        share_rest on the first, and the coupling at degree a where it is by degree."""
        own, share = domains.log_norm_parts(domain, a[:, None], active, share_rest if by_degree else None)
        log_t = (a[:, None] * log_w2 - own).T
        log_t[0] = rest + log_t[0]
        if by_degree or not coupled:
            return [log_t], share
        share = share.T
        share[0] = share_rest + share[0]
        return [log_t, share], None

    total, prev, lo, terms, size = 0.0, 0.0, 0, 0, 0
    while True:
        room = TERM_BUDGET - terms
        if math.comb(lo + k - 1, k - 1) > room:
            raise ConvergenceError(f"kernel series did not converge within {TERM_BUDGET} terms")
        hi = _chunk_end(k, lo, min(_CHUNK, max(_FIRST_CHUNK, terms), room))
        if k == 1:
            # one active coordinate: row j of the chunk is alpha = lo + j, a block of its own
            tabs, coupling = tables(np.arange(lo, hi))
            log_terms = tabs[0][0]
            if coupling is not None:
                log_terms += coupling
            blocks = np.exp(log_terms)
            terms += hi - lo
        else:
            if hi > size:
                # several active coordinates index their tables from 0 on: the tables
                # of the first chunk are kept, and at least doubled when outgrown
                more, more_coupling = tables(np.arange(size, max(hi, 2 * size)))
                if size:
                    more = [np.concatenate(pair, axis=1) for pair in zip(tabs, more)]
                    if by_degree:
                        more_coupling = np.concatenate((coupling, more_coupling))
                tabs, coupling, size = more, more_coupling, more[0].shape[1]
            degree, sums = _rows(lo, hi, tabs)
            log_terms = sums[0]
            if by_degree:
                log_terms += coupling[degree]
            elif coupled:
                log_terms += domains.log_norm_coupling(sums[1])
            blocks = np.bincount(degree - lo, weights=np.exp(log_terms), minlength=hi - lo)
            terms += len(degree)
        # the first degree from 8 on whose block is small against the total and below the one before
        for stop in np.flatnonzero(blocks <= ROUNDING_SHARE * (total + np.cumsum(blocks))).tolist():
            before = blocks[stop - 1] if stop else prev
            r = blocks[stop] / before if before > 0 else 0.0
            if lo + stop < 8 or r >= 1.0:
                continue
            total += float(np.sum(blocks[: stop + 1]))
            block = blocks[stop]
            # geometric tail estimate from the last two block ratios
            tail = float(block * r / (1.0 - r) if r > 0 else block)
            log.debug(
                "monomial series: degree %d, %d terms, tail estimate %.3g",
                lo + stop, terms, tail,
            )
            # degrees 0 .. lo + stop of N^k hold comb(lo + stop + k, k) multi-indices
            return KernelValue(total, "monomial-series", tail, math.comb(lo + stop + k, k))
        total += float(np.sum(blocks))
        prev, lo = blocks[-1], hi


def kernel_annulus(r, w):
    """Kernel of { r < |z| < 1 } on the diagonal, summed over strip images.

    K(w) = (2/pi) d^2 G / dz d conj(w) at z = w on the image sum of ``green1d.AnnulusGreen``:
    K(w) = (c^2 / (pi |w|^2)) (1/s^2 + sum_{k>=1} 2 Re 1/sin^2(theta + i k kappa)), with
    h = -log r, c = pi/(2h), kappa = pi^2/h, theta = pi min(x0, h - x0)/h, x0 = log(|w|/r)
    and s = sin theta.  The image count depends on r alone and leaves the omitted images
    below ROUNDING_SHARE: 7 at r = 0.2, 1 from r ~ 0.79 on.  Images change sign, so
    ``error_bound`` is two-sided: the omitted 2/sinh^2(k kappa), scaled by c^2/(pi |w|^2).
    """
    w0 = abs(complex(w))
    st = green1d._Strip(float(r), w0, ROUNDING_SHARE)
    scale = (st.c / w0) ** 2 / math.pi
    err = scale * st.tail
    images = 2 * st.n + 1
    log.debug("annulus series: %d images, tail bound %.3g", images, err)
    return KernelValue(scale / st.s**2 * (1.0 + st.kernel_images), "annulus-series", err, images)


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


def kernel_ellipsoid_axis(m, b):
    """Closed form for { |z1|^{2m} + |z2|^2 < 1 } at (b, 0).

    ||z1^j||^2 = pi^2 m / ((j+1)(j+1+m)) sums to K = ((1+x) + m(1-x)) / (pi^2 m (1-x)^3), x = b^2
    (Boas, Fu & Straube, Proc. AMS 1999), with 1 - x taken as (1-b)(1+b), which keeps its digits
    as b -> 1.  The monomial series is its check route.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    if not 0.0 <= b < 1.0:
        raise ValueError("b must lie in [0, 1)")
    x, omx = b * b, (1.0 - b) * (1.0 + b)
    return KernelValue(((1.0 + x) + m * omx) / (math.pi**2 * m * omx**3), "closed-form")


def _power_difference(q, b):
    """(1-b)^{-q} - (1+b)^{-q}; ((1-b)/(1+b))^q = exp(-2q atanh b), and expm1 of
    the negated exponent neither cancels at small b nor amplifies rounding at large b."""
    return -((1.0 - b) ** (-q)) * math.expm1(-2.0 * q * math.atanh(b))


def kernel_deflated(params: EllipsoidFamilyParams):
    """Axis-point kernel of the family { |z1| + sum |z_j|^{2m} < 1 }.

    K((b,0,...,0)) = (a-1)/(4 pi omega b) ((1-b)^{-a} - (1+b)^{-a}) with
    a = (n-1)/m + 2.  The deflation route through the two-dimensional
    ellipsoid { |z1| + |z2|^{2m/(n-1)} < 1 }, ``kernel_deflated_via_identity``,
    is its check route (criterion 1).
    """
    a = params.a
    b = params.b
    val = (a - 1.0) / (4.0 * math.pi * params.omega * b) * _power_difference(a, b)
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
