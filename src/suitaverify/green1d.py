"""One-dimensional Green functions with logarithmic pole.

Closed form on the unit disk, a sum of strip images on the annulus
{ r < |z| < 1 }, plus the quantities built on top of them: Robin constant
and logarithmic capacity, the covering-map upper bound for the capacity,
traced level curves with flux / co-area density / isoperimetric ratio
(their area is the sublevel-set volume), and deterministic hit counting as
the check route for that volume.  The count settles whole Harnack cells of
its box from the value of G at each centre, coarse to fine, so G is
evaluated only at the centres of the cells that a coarser level left open
and at the points of the cells that straddle the level; it takes its points
a block at a time as Sobol words, finds their cells by xor on the words, and
holds no more than the cell table and a few blocks, whatever their count.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .numerics import SOBOL_BITS, find_root_monotone

__all__ = [
    "DiskGreen",
    "AnnulusGreen",
    "CriticalLevelError",
    "LevelStats",
    "robin_capacity",
    "covering_capacity_bound",
    "level_flux_and_isoperimetric",
    "sublevel_volume",
]

log = logging.getLogger(__name__)

# A level whose gradient drops below this passes too near a critical point to trace.
GRAD_FLOOR = 1e-4
# A level whose sums still move by more than this (relative, from n/2 nodes) at the node ceiling is refused:
# rounding moves them by at most 2.4e-14, and r = 0.05, w = 0.6 at t = -0.1 by 1.25e-3 (flux 1.4e-4 off 2 pi).
_CEILING_CHANGE = 1e-8
# Level crossings relative to s alone: the flux integrand moves to first order with the root,
# and an absolute floor such as 1e-12, up to 5e-10 of a small s, moves it by up to
# 1e-13.  Below 1e-12 the roots reach the rounding of G, which moves the flux more, not less.
_TRACE_REL_TOL = 1e-12
# A trace starts at s = gap e^t / 1.2, and the rounding of the points next to the pole moves the
# flux by about 0.02 spacing(|w|) / s (measured); a start within this many spacings of the pole
# would cost the flux more than 2e-8, so such a level is refused.
_START_SPACINGS = 2.0**20
# Below half the float spacing at 1, 1 - |w| keeps no digit of |w|, and the strip's
# x1 = -log1p(|w| - 1) is wrong or infinite: the annulus refuses such a pole.
_POLE_MIN = 2.0**-53
# Hit counting settles a cell whose Harnack bounds clear the level by _CELL_MARGIN (1 + |t|), plus what
# covers the centre's value (see _cell_bounds): 2^-16 is more than 100 times the worst relative error of
# value against perfbench/oracle.annulus_green (1.1e-7, at r = 1e-16 and w = sqrt(r)), so no point of a
# settled cell can count otherwise under value(z) < t.
_CELL_MARGIN = 2.0**-16
# ... and enlarges each cell's half-diagonal by _CELL_SLACK: the box, the sublevel component padded by a
# fifth of its extent, lies within 1.4 of 0, where every rounding of a point, of a centre and of their
# distances is below 1e-15, so a settled cell holds no point that in_domain would refuse.
_CELL_SLACK = 2.0**-44
# The count takes its Sobol points in blocks of this many, and cell centres and the open cells' points go
# through value and in_domain in chunks of this many (128 KiB per float array): its memory is O(_CHUNK),
# besides the table of cell states.
_CHUNK = 2**14
# Cells are settled first on a grid of this side, and an open cell is split into four down to the final side.
_COARSE_SIDE = 16
# The count's box is fitted to the crossings of this many rays.
_BOX_RAYS = 128


class CriticalLevelError(RuntimeError):
    """The requested level cannot be traced: it passes too near a critical point, the pole or the boundary,
    or the trace's nodes do not resolve it."""


class DiskGreen:
    """Green function of the unit disk: log |z - w| / |1 - conj(w) z|."""

    def __init__(self, w):
        w = complex(w)
        if abs(w) >= 1.0:
            raise ValueError("pole must lie in the open unit disk")
        self.pole = w
        # the pole's distance to the boundary
        self.gap = 1.0 - abs(w)
        # Robin constant lim (G - log|z - w|) = -log(1 - |w|^2); 1 - |w|^2 as a product
        # does not cancel near the circle
        self.robin = -math.log((1.0 - abs(w)) * (1.0 + abs(w)))

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        w = self.pole
        return np.log(np.abs(z - w)) - np.log(np.abs(1.0 - np.conj(w) * z))

    def clearance(self, z):
        """Distance from each z to the unit circle, negative outside the disk."""
        return 1.0 - np.abs(z)

    def grad(self, z):
        """Gradient gx + i gy; conj(f') for f = log(z - w) - log(1 - conj(w) z)."""
        z = np.asarray(z, dtype=complex)
        wc = np.conj(self.pole)
        return np.conj(1.0 / (z - self.pole) + wc / (1.0 - wc * z))

    def in_domain(self, z):
        return np.abs(z) < 1.0

    def boundary_distance(self, phi):
        """Distance from the pole to the boundary along direction e^{i phi}."""
        d = np.exp(1j * np.asarray(phi, dtype=float))
        beta = np.real(np.conj(self.pole) * d)
        return -beta + np.sqrt(beta**2 + 1.0 - abs(self.pole) ** 2)


def _square(a):
    """a^2 as p + e exactly (Dekker's splitting), in place on its temporaries where a is an array."""
    p, hi = a * a, 134217729.0 * a
    hi -= hi - a
    lo = a - hi
    # e = ((hi hi - p) + 2 hi lo) + lo lo
    e = hi * hi
    e -= p
    hi *= 2.0
    hi *= lo
    e += hi
    lo *= lo
    e += lo
    return p, e


def _log_moduli(z, az, r):
    """log(|z|/r) and -log|z|, az = np.abs(z).  Next to the circle |z| = rho each is log1p(x)/2,
    x = |z|^2/rho^2 - 1, with |z|^2 - rho^2 summed from exact squares: its error is then relative to
    the distance from the circle, where the rounding of az is relative to |z| itself.  The steps
    work in place, as value's do, which takes this on every point it evaluates.  Where rho^2 would
    underflow, z and rho are scaled by 2^-e, rho = f 2^e, which is exact, and z capped at 1e100."""
    lm, out, scale = np.log(az), [], None
    for rho in (r, 1.0):
        k = 1.0 if rho > 1e-145 else 2.0 ** -math.frexp(rho)[1]
        if k != scale:
            scale, re, im = k, z.real, z.imag
            if k != 1.0:
                re, im = np.clip(re * k, -1e100, 1e100), np.clip(im * k, -1e100, 1e100)
            px, ex = _square(re)
            py, ey = _square(im)
            s = px + py
            # |z|^2 = s + low (two-sum): low = (px - (s - v)) + (py - v) + ex + ey, v = s - px
            v = s - px
            low = s - v
            np.subtract(px, low, out=low)
            del px
            py -= v
            low += py
            low += ex
            low += ey
            del ex, py, ey, v
        pr, er = _square(rho * k)
        # s - pr is exact for x >= -1/2 (Sterbenz); below that, and past 1e190, where z may be capped, log|z|
        x = s - pr
        x += low - er
        x /= pr
        far = (x < -0.5) | (x > 1e190)
        np.maximum(x, -0.5, out=x)
        np.log1p(x, out=x)
        x *= 0.5
        np.subtract(lm, math.log(rho), out=x, where=far)
        out.append(x)
    return out[0], np.negative(out[1], out=out[1])


class _Strip:
    """The annulus { r < |z| < 1 } as a strip, with the images of a pole of modulus w0.

    log(z/r) maps the annulus onto the strip 0 < Re < h, h = -log r, of period 2 pi i,
    and the annulus's Green function is the strip's summed over the pole's images.  Scaled
    by c = pi/(2h), the pole sits at c x0, x0 = log(w0/r), and its images kappa = pi^2/h
    apart.  Image k != 0 moves G, the Robin constant and s^2 times the kernel, s = sin(2 c x0),
    by less than 4p/(1 - p)^2, p = e^{-(2|k|-1) kappa}; the ``n`` images on each side, n a
    closed formula in r, leave a ``tail`` below ``share``.
    """

    def __init__(self, r, w0, share):
        if not 0.0 < r < 1.0:
            raise ValueError("inner radius must lie in (0, 1)")
        if not r < w0 < 1.0:
            raise ValueError("the point must lie inside the annulus")
        if w0 < _POLE_MIN:
            raise ValueError(f"pole modulus {w0:.3g} is below {_POLE_MIN:.3g}: 1 - |w| keeps none of its digits")
        h = -math.log(r)
        self.c, kappa = math.pi / (2.0 * h), math.pi**2 / h
        # x0 and x1 = h - x0 = -log w0, each without cancellation next to its circle
        self.x0, self.x1 = math.log1p((w0 - r) / r), -math.log1p(w0 - 1.0)
        theta = math.pi * min(self.x0, self.x1) / h
        self.s = math.sin(theta)
        # sum_{k>n} 8 p_k / (1 - p_k)^2 <= 8 p_{n+1} / ((1 - p_{n+1})^2 (1 - e^{-2 kappa}))
        gap = -math.expm1(-2.0 * kappa)
        self.n = n = max(0, math.ceil((math.log(8.0 / (share * gap)) / kappa - 1.0) / 2.0))
        p = math.exp(-(2 * n + 1) * kappa)
        self.tail = 8.0 * p / ((1.0 - p) ** 2 * gap)
        self.shifts = kappa * np.arange(1, n + 1)
        # sum_{k>=1} log1p(s^2 / sinh^2(k kappa)), and s^2 sum_{k>=1} 2 Re 1/sin^2(theta + i k kappa)
        self.robin_images = float(np.sum(np.log1p((self.s / np.sinh(self.shifts)) ** 2)))
        self.kernel_images = self.s**2 * float(np.sum(2.0 * np.real(np.sin(theta + 1j * self.shifts) ** -2)))


def _images(y, st):
    """e^{y_k} and e^{-y_k}, y_k = y + k kappa for the images k = +-1, ..., +-n of strip ``st``, from
    one exp of y: their half difference and half sum are sinh y_k and cosh y_k, where |y_k| >= kappa/2,
    so no difference of exponentials cancels, and there are images only where kappa is moderate."""
    e = np.exp(y) if st.n else None
    for grow in np.exp(np.concatenate((st.shifts, -st.shifts))):
        ek = e * grow
        yield ek, 1.0 / ek


class AnnulusGreen:
    """Green function of { r < |z| < 1 } as a sum of strip images.

    With xa = c log|z/w|, xb = c log(|z| |w| / r^2) and y_k = c arg(z conj w) + k kappa in the
    notation of ``_Strip``, G = 1/2 sum_k log((sin^2 xa + sinh^2 y_k) / (sin^2 xb + sinh^2 y_k)):
    Jacobi's imaginary transformation (Whittaker & Watson, ch. 21) of the Schottky-Klein
    prime-function product (Crowdy, CMFT 2010).  The sum stops after the ``n_modes`` images
    |k| <= n, and ``tail_bound`` bounds what the others add to G and to ``robin``.
    """

    def __init__(self, r, w):
        self.inner = float(r)
        self.pole = complex(w)
        # G is of order one near the pole: sum to rounding
        self._strip = st = _Strip(self.inner, abs(self.pole), 2.0**-53)
        self._disk = DiskGreen(self.pole)
        self.gap = min(self._disk.gap, abs(self.pole) - self.inner)
        self.n_modes, self.tail_bound = 2 * st.n + 1, st.tail
        # lim G - log|z - w|: log(c / |w|) - log s from k = 0, -log1p(s^2 / sinh^2(k kappa)) from each +-k
        self.robin = math.log(st.c / abs(self.pole)) - math.log(st.s) - st.robin_images
        log.debug("annulus Green function: %d images, tail bound %.3g", self.n_modes, self.tail_bound)

    def _coords(self, z):
        """xa + i y = c log(z/w); xb = c log(|z| |w| / r^2), or xb - pi past pi/2; and the log of the
        modulus ratio to the nearer circle, min(log(|z|/r), -log|z|).  Next to the pole, log|z/w| =
        log1p(x)/2, x = |z/w|^2 - 1, and the angle of z conj(w) = |w|^2 + (z - w) conj(w) cancel in
        neither part; xb - pi = -c (-log|z| - log|w|) does not cancel next to the outer circle."""
        st, w = self._strip, self.pole
        d = z - w
        dw, w2 = d * np.conj(w), abs(w) ** 2
        x = (d.real**2 + d.imag**2 + 2.0 * dw.real) / w2
        near, az = np.abs(x) < 0.5, np.abs(z)
        xa = st.c * np.where(near, 0.5 * np.log1p(np.where(near, x, 0.0)), np.log(az / abs(w)))
        lz, lzc = _log_moduli(z, az, self.inner)
        xb = st.c * np.where(lz <= st.x1, lz + st.x0, -(lzc + st.x1))
        return xa, st.c * np.arctan2(dw.imag, w2 + dw.real), xb, np.minimum(lz, lzc)

    def value(self, z):
        xa, y, xb, lm = self._coords(np.asarray(z, dtype=complex))
        st = self._strip
        # every step works in place, in the arrays of _coords and in each image's fresh e^{y_k} and
        # e^{-y_k}: value is the inner loop of level tracing and hit counting
        # a = sin^2 xa - sin^2 xb = -s sin(2c min(lz, lzc)), the same for every image
        a = np.multiply(2.0 * st.c, lm, out=lm)
        np.sin(a, out=a)
        a *= -st.s
        sb2 = np.sin(xb, out=xb)
        np.square(sb2, out=sb2)
        # k = 0 through 1/(sin^2 xb + sinh^2 y) = 4q / (4q sin^2 xb + expm1(-2|y|)^2), q = e^{-2|y|},
        # which does not overflow at large |y|, and through both logs next to the pole:
        # num = 4q sin^2 xa + em^2 and den = 4q sin^2 xb + em^2, q4 = 4q, em = expm1(-2|y|)
        em = np.abs(y)
        em *= -2.0
        q4 = np.exp(em)
        q4 *= 4.0
        np.expm1(em, out=em)
        np.square(em, out=em)
        num = np.sin(xa, out=xa)
        np.square(num, out=num)
        num *= q4
        num += em
        den = np.multiply(q4, sb2)
        den += em
        # g = log(num) - log(den) next to the pole, log1p(a q4/den) off it, where its argument
        # cannot round to -1
        near = num < np.multiply(0.5, den, out=em)
        del em
        g = np.divide(q4, den, out=q4)
        g *= a
        g[near] = 0.0
        np.log1p(g, out=g)
        np.log(num, out=num)
        np.log(den, out=den)
        num -= den
        np.copyto(g, num, where=near)
        del xa, num, den, near
        # the images in one log1p of prod_k (1 + a / (sin^2 xb + sinh^2 y_k)) - 1, all factors on one side of 1
        e = np.zeros_like(g)
        for ek, inv in _images(y, st):
            # x = a / (sin^2 xb + sinh^2 y_k); e += x + e x
            ek -= inv
            ek *= 0.5
            np.square(ek, out=ek)
            ek += sb2
            x = np.divide(a, ek, out=ek)
            np.multiply(e, x, out=inv)
            inv += x
            e += inv
        # G = (g + log1p(e)) / 2
        np.log1p(e, out=e)
        g += e
        g *= 0.5
        return g

    def grad(self, z):
        """Gradient gx + i gy; conj(f') for f' = (c s / z) sum_k 1/(sin(xa + i y_k) sin(xb + i y_k))."""
        z = np.asarray(z, dtype=complex)
        xa, y, xb, _ = self._coords(z)
        # 1/(sin u sin v) = -4 e^{i(u + v)} / (expm1(2iu) expm1(2iv)), with u and v negated
        # where Im u = Im v < 0: bounded for every y, and exact next to the pole
        sg = np.where(y < 0.0, -1.0, 1.0)
        u, v = sg * (xa + 1j * y), sg * (xb + 1j * y)
        total = -4.0 * np.exp(1j * (u + v)) / (np.expm1(2j * u) * np.expm1(2j * v))
        # sin(x + iy) = sin x cosh y + i cos x sinh y for the images, whose |y_k| stays moderate
        sa, ca, sb, cb = np.sin(xa), np.cos(xa), np.sin(xb), np.cos(xb)
        for ek, inv in _images(y, self._strip):
            sh, ch = 0.5 * (ek - inv), 0.5 * (ek + inv)
            total += 1.0 / ((sa * ch + 1j * ca * sh) * (sb * ch + 1j * cb * sh))
        # each term times sin(xb - xa) is cot(xa + i y_k) - cot(xb + i y_k); s = sin(xb - xa) holds in exact
        # arithmetic, and the computed difference keeps an error in xb to the reflected part
        return np.conj(self._strip.c * np.sin(xb - xa) / z * total)

    def in_domain(self, z):
        az = np.abs(z)
        return (az < 1.0) & (az > self.inner)

    def clearance(self, z):
        """Distance from each z to the nearer circle, negative outside the annulus."""
        az = np.abs(z)
        return np.minimum(1.0 - az, az - self.inner)

    def boundary_distance(self, phi):
        d = np.exp(1j * np.asarray(phi, dtype=float))
        beta = np.real(np.conj(self.pole) * d)
        disc = beta**2 - (abs(self.pole) ** 2 - self.inner**2)
        root = np.sqrt(np.abs(disc))
        s_in = np.where((disc >= 0) & (-beta - root > 0), -beta - root, np.inf)
        return np.minimum(self._disk.boundary_distance(phi), s_in)


def robin_capacity(green):
    """Logarithmic capacity c(w) = exp of the Robin constant."""
    return math.exp(green.robin)


def covering_capacity_bound(r):
    """Upper bound pi / (-2 sqrt(r) log r) = 1/|p'(0)| for the capacity at sqrt(r),
    p the covering map of the unit disk onto the annulus with p(0) = sqrt(r)."""
    if not 0.0 < r < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    return math.pi / (-2.0 * math.sqrt(r) * math.log(r))


def _crossings(green, t, phis):
    """First s > 0 with G(pole + s e^{i phi}) = t along each ray phi.

    Every ray starts below the level, at s = gap e^t / 1.2, gap the pole's distance to the
    boundary: G(z) - log|z - w| is harmonic, and on the boundary it is -log|z - w| <= -log gap,
    so by the maximum principle G < t wherever |z - w| < gap e^t.  The bound is attained at the
    centre of the disk, hence the margin 1.2.
    """
    w = green.pole
    d = np.exp(1j * phis)
    s_max = green.boundary_distance(phis) * (1.0 - 1e-12)
    start = green.gap * math.exp(t) / 1.2
    if start < _START_SPACINGS * np.spacing(abs(w)):
        raise CriticalLevelError(f"level t={t} lies too close to the pole to trace (start {start:.3g})")
    lo = np.full(phis.size, start)
    # geometric x1.2 steps, one value() call per step for all unbracketed
    # rays; a bracket ends at the first step at or above the level
    f_lo, hi, f_hi = np.full_like(lo, np.nan), np.empty_like(lo), np.empty_like(lo)
    todo = np.arange(phis.size)
    while todo.size:
        stuck = todo[lo[todo] >= s_max[todo]]
        if stuck.size:
            # G = 0 > t on the boundary, so a crossing must exist; landing here
            # means the level hugs the boundary beyond resolution
            raise CriticalLevelError(f"no level crossing found along ray phi={phis[stuck[0]]}")
        step = np.minimum(lo[todo] * 1.2, s_max[todo])
        f = green.value(w + step * d[todo]) - t
        above = f >= 0.0
        hi[todo[above]], f_hi[todo[above]] = step[above], f[above]
        lo[todo[~above]], f_lo[todo[~above]] = step[~above], f[~above]
        todo = todo[~above]
    # the first step lands on the bound gap e^t, so it reaches the level only where G attains the
    # bound; only there is G at the start still unknown
    first = np.isnan(f_lo)
    if first.any():
        f_lo[first] = green.value(w + lo[first] * d[first]) - t
    return find_root_monotone(
        lambda s, d: green.value(w + s * d) - t, lo, hi, _TRACE_REL_TOL, args=(d,), f_lo=f_lo, f_hi=f_hi
    )


@dataclass
class LevelStats:
    """Traced level curve { G = t } and its integral quantities.

    ``area`` is the volume of the sublevel component around the pole and
    ``area_err`` bounds its error: the change from the n/2-node sum plus what
    the roots' stopping tolerance can move it.  ``nodes``: the final grid's n.
    """

    t: float
    flux: float
    density: float
    length: float
    area: float
    area_err: float
    iso_ratio: float
    nodes: int


def _level_sums(s, g, phis):
    """Trapezoid sums of flux, length, density and area over radii s and gradients g at uniform angles phis."""
    absg, d = np.abs(g), np.exp(1j * phis)
    g_s = np.real(np.conj(g) * d)  # radial derivative along the ray
    g_phi = np.real(np.conj(g) * (1j * s * d))
    s_prime = -g_phi / g_s  # implicit differentiation of G(s(phi)) = t
    speed = np.abs(s_prime + 1j * s)  # |z'(phi)|
    sums = np.array([np.sum(absg * speed), np.sum(speed), np.sum(speed / absg), 0.5 * np.sum(s**2)])
    return sums * (2.0 * math.pi / s.size)


def level_flux_and_isoperimetric(green, t, n_nodes=2048):
    """Flux, co-area density and isoperimetric ratio of a regular level.

    flux    = integral of |grad G| over { G = t }          (2 pi for any level
              enclosing the pole),
    density = integral of d sigma / |grad G|               (= d/dt of the
              sublevel volume),
    iso_ratio = length^2 / (4 pi area)                     (>= 1 by the
              isoperimetric inequality),
    area    = (1/2) integral of s(phi)^2 d phi             (the sublevel volume).

    Raises CriticalLevelError for a level that is not a radial graph around
    the pole, or whose sums still move by more than ``_CEILING_CHANGE`` at
    ``n_nodes``.  The curve is traced in polar form s(phi) about the pole on
    a uniform phi grid, so the periodic trapezoid sums converge spectrally.
    The grid starts at ``n_nodes`` halved while it stays even and at least
    256, and doubles, up to ``n_nodes``, until each of the four sums is
    within 4 ulp of its sum on the even n/2 nodes.  A doubling traces only
    the new odd nodes, so every root equals that of a one-shot trace of the
    grid.  A DEBUG record gives the nodes, the largest relative change from
    n/2 nodes, and whether ``n_nodes`` stopped the trace; ``n_nodes`` must
    be even and at least 8.
    """
    if t >= 0.0:
        raise ValueError("levels must be negative")
    if n_nodes < 8 or n_nodes % 2:
        raise ValueError(f"n_nodes must be even and at least 8, not {n_nodes}")
    n = n_nodes
    while n % 4 == 0 and n >= 512:
        n //= 2
    phis = np.arange(n) * (2.0 * math.pi / n)
    s = _crossings(green, t, phis)
    g = green.grad(green.pole + s * np.exp(1j * phis))
    half, sums = _level_sums(s[::2], g[::2], phis[::2]), _level_sums(s, g, phis)
    while True:
        change = float(np.max(np.abs(sums - half) / np.abs(sums)))
        moving = not change <= 4 * 2.0**-52  # a NaN sum is moving
        if not moving or n == n_nodes:
            break
        # the odd nodes as a one-shot trace of 2n nodes forms them (not phis + dphi/2), interleaved
        new = np.arange(1, 2 * n, 2) * (2.0 * math.pi / (2 * n))
        s_new = _crossings(green, t, new)
        g_new = green.grad(green.pole + s_new * np.exp(1j * new))
        phis, s, g = (np.column_stack(pair).ravel() for pair in ((phis, new), (s, s_new), (g, g_new)))
        n *= 2
        # the n/2-node sums of the doubled grid are the sums just taken
        half, sums = sums, _level_sums(s, g, phis)
    dphi = 2.0 * math.pi / n
    log.debug("level t=%g: %d nodes, largest relative change %.3g from n/2, ceiling reached: %s", t, n, change, moving)
    # a level through (or shadowed past) a critical point is not a radial
    # graph around the pole: the first-crossing radius then jumps between
    # level components, which shows up as a discontinuity in s(phi)
    ds = np.abs(np.diff(np.append(s, s[0])))
    jump_scale = 10.0 * (float(np.median(ds)) + float(s.max()) * dphi)
    if float(ds.max()) > jump_scale:
        raise CriticalLevelError(
            f"level t={t} is not a radial graph around the pole "
            f"(trace jump {ds.max():.3g} vs scale {jump_scale:.3g})"
        )
    absg = np.abs(g)
    if float(absg.min()) < GRAD_FLOOR:
        raise CriticalLevelError(
            f"level t={t} passes near a critical point (min |grad G| = {absg.min():.3g})"
        )
    if not change <= _CEILING_CHANGE:
        raise CriticalLevelError(f"level t={t} is not resolved on {n} nodes (sums move by {change:.3g} from n/2)")
    flux, length, density, area = (float(x) for x in sums)
    # each root is good to the bracket width at which find_root_monotone stops, rel_tol * s
    root_err = float(np.sum(s * (_TRACE_REL_TOL * s)) * dphi)
    iso = length**2 / (4.0 * math.pi * area)
    return LevelStats(
        t=t,
        flux=flux,
        density=density,
        length=length,
        area=area,
        area_err=abs(area - float(half[3])) + root_err,
        iso_ratio=iso,
        nodes=n,
    )


def _sublevel_box(green, t):
    """Axis-aligned bounding box of { G < t }, from a coarse polar trace."""
    phis = np.arange(_BOX_RAYS) * (2.0 * math.pi / _BOX_RAYS)
    pts = green.pole + _crossings(green, t, phis) * np.exp(1j * phis)
    x0, x1 = pts.real.min(), pts.real.max()
    y0, y1 = pts.imag.min(), pts.imag.max()
    pad = 0.2 * max(x1 - x0, y1 - y0)
    return x0 - pad, x1 + pad, y0 - pad, y1 + pad


def _cell_bounds(green, c, rho):
    """Lower and upper bounds on G over each disc |z - c| <= rho, for centres c whose distances to
    the pole and to the boundary exceed rho, and the part of a cell's margin that covers them.

    Both domains lie in the unit disk, so G is at least the disk's Green function with the same
    pole, G_D = log|z - w| - log|1 - conj(w) z|, and H = G - G_D is harmonic (the poles cancel) and
    non-negative (zero on the disk itself).  On a disc of radius R about c inside the domain,
    Harnack's inequality (Ransford, Potential Theory in the Complex Plane, 1995, 1.3) gives
    q H(c) <= H(z) <= H(c)/q for |z - c| <= rho < R, q = (R - rho)/(R + rho); G_D is bounded by the
    ranges |c - w| -+ rho and |1 - conj(w) c| +- |w| rho of its two moduli.  H is of order one
    where G is large, next to the pole, so the bounds stay about as narrow as G's own change across
    the disc.  The margin part, _CELL_MARGIN |G(c)|/q, covers the error of value at c, which 1/q
    magnifies in the bounds.
    """
    w = green.pole
    d, e, big = np.abs(c - w), np.abs(1.0 - np.conj(w) * c), green.clearance(c)
    g, q = green.value(c), (big - rho) / (big + rho)
    h = g - (np.log(d) - np.log(e))
    # e >= 1 - |c| >= big > rho > |w| rho, so every log is finite
    low = q * h + (np.log(d - rho) - np.log(e + abs(w) * rho))
    high = h / q + (np.log(d + rho) - np.log(e - abs(w) * rho))
    return low, high, _CELL_MARGIN * np.abs(g) / q


def _cell_states(green, t, x0, dx, y0, dy, side):
    """Which of the side x side cells of the box [x0, x0 + dx] x [y0, y0 + dy] are settled, and how
    many centres took ``value``.  Cell ix + side iy is 1 where every point in it is a hit, 0 where
    none is, and -1 where the points must be counted one by one.  A cell settles when both bounds
    of ``_cell_bounds`` over the disc of its half-diagonal rho clear t by the margin, or when it
    lies outside the domain altogether; the pole's own cell and the cells the boundary crosses stay
    open.  The cells are settled coarse to fine: first on a grid of side ``_COARSE_SIDE`` (or
    ``side``, if smaller), then each open cell is split into four, down to ``side``.  A settled cell
    settles its sub-cells, whose points lie in its own disc, so only the open cells' sub-cells take
    ``value`` at their centres.
    """
    n = min(_COARSE_SIDE, side)
    state, centres = np.full((n, n), -1, dtype=np.int8), 0
    while True:
        rho = 0.5 * math.hypot(dx, dy) / n + _CELL_SLACK
        todo = np.flatnonzero(state < 0)
        for lo in range(0, todo.size, _CHUNK):
            k = todo[lo : lo + _CHUNK]
            c = (x0 + dx * ((k % n + 0.5) / n)) + 1j * (y0 + dy * ((k // n + 0.5) / n))
            clear = green.clearance(c)
            part = np.full(k.size, -1, dtype=np.int8)
            part[clear < -rho] = 0
            inner = (clear > rho) & (np.abs(c - green.pole) > rho)
            if np.any(inner):
                low, high, slack = _cell_bounds(green, c[inner], rho)
                margin = _CELL_MARGIN * (1.0 + abs(t)) + slack
                part[inner] = np.where(high < t - margin, 1, np.where(low > t + margin, 0, -1))
                centres += low.size
            state.flat[k] = part
        if n == side:
            return state.ravel(), centres
        # each cell's four sub-cells take its state
        fine = np.empty((2 * n, 2 * n), dtype=np.int8)
        fine.reshape(n, 2, n, 2)[...] = state[:, None, :, None]
        state, n = fine, 2 * n


def _open_hits(green, t, box, words):
    """Hits among the points of the box (x0, dx, y0, dy) at the Sobol words (x, y) that lie in the domain,
    and their number."""
    (x0, dx, y0, dy), (x, y), scale = box, words, 2.0**-SOBOL_BITS
    z = (x0 + dx * (x * scale)) + 1j * (y0 + dy * (y * scale))
    z = z[green.in_domain(z)]
    return (int(np.count_nonzero(green.value(z) < t)) if z.size else 0), z.size


def sublevel_volume(green, t, stream, count=2**20):
    """Volume of { G < t }, t < 0, of a Green object, with its hit-counting standard error.

    ``count`` points of ``stream`` are counted inside a bounding box fitted
    to the sublevel component around the pole.  The box is split into side x
    side Harnack cells, side = 2^k = 2^max(0, floor(log2 count)//2 - 2) (256
    at 2^20 points), so a point's cell is floor(u side) of its Sobol
    coordinates: the top k bits of their words.  ``value`` at a cell's centre
    bounds G on the whole cell, by Harnack's inequality for G less the disk's
    Green function (``_cell_bounds``); a cell whose bounds clear t by the
    margin, or that lies outside the domain, is counted whole, and only the
    points of the other cells take ``in_domain`` and ``value``.  The cells
    are settled coarse to fine (``_cell_states``).  The count is that of ``value(z) < t``
    over the points in the domain.  The points come from ``stream.words`` in
    aligned blocks of ``_CHUNK``, each the first block B xor-ed with a key;
    the cell index commutes with that xor, so B's cells are found once and a
    block's by one xor with the key's cell and one gather from the cell
    table.  Only the open cells' points become floats, and they take
    ``value`` whenever a full ``_CHUNK`` of them has gathered, so memory does
    not grow with ``count`` beyond the table of side^2 <= count/16 bytes, and
    the count is that over ``stream.points(count)`` (``value`` works point by
    point).  A DEBUG record gives the points, the hits, the cells, the cells
    settled, the centres and the points that took ``value``.  This is the
    check route for the traced area of ``level_flux_and_isoperimetric``.
    """
    if t >= 0.0:
        raise ValueError("levels must be negative: at t = 0 the sublevel set is the domain")
    x0, x1, y0, y1 = _sublevel_box(green, t)
    dx, dy = x1 - x0, y1 - y0
    k = max(0, (int(count).bit_length() - 1) // 2 - 2)
    side = 1 << k
    cells, centres = _cell_states(green, t, x0, dx, y0, dy, side)
    box = x0, dx, y0, dy
    # cell (iy << k) | ix of the words x, y, ix and iy their top k bits: shifts and the or of disjoint
    # bits commute with xor, so the cell of B ^ key is the cell of B xor the cell of key
    drop = SOBOL_BITS - k

    def cell(x, y):
        return ((y >> drop) << k) | (x >> drop)

    # the open cells' words gather in held and take value a full chunk at a time: on the few hundred
    # open points of one block its cost is mostly per call
    hit_count, evaluated, base_cells = 0, 0, None
    held, n_held = np.empty((2, _CHUNK), dtype=np.uint32), 0
    for base, key in stream.words(count, _CHUNK):
        if base_cells is None:
            base_cells = cell(base[0], base[1]).astype(np.intp)
        state = cells[base_cells[: base.shape[1]] ^ int(cell(key[0], key[1]))]
        hit_count += int(np.count_nonzero(state == 1))
        rest = base[:2].take(np.flatnonzero(state < 0), axis=1)
        rest ^= key[:2, None]
        take = min(_CHUNK - n_held, rest.shape[1])
        held[:, n_held : n_held + take] = rest[:, :take]
        n_held += take
        if n_held == _CHUNK:
            hits, took = _open_hits(green, t, box, held)
            hit_count, evaluated = hit_count + hits, evaluated + took
            n_held = rest.shape[1] - take
            held[:, :n_held] = rest[:, take:]
    hits, took = _open_hits(green, t, box, held[:, :n_held])
    hit_count, evaluated = hit_count + hits, evaluated + took
    log.debug(
        "hit count at t=%g: %d points, %d hits, %d cells, %d settled, %d centres took value, %d points took value",
        t, count, hit_count, cells.size, np.count_nonzero(cells >= 0), centres, evaluated,
    )
    p = hit_count / count
    box_area = dx * dy
    value = box_area * p
    stderr = box_area * math.sqrt(max(p * (1.0 - p), 1.0 / count) / count)
    return value, stderr
