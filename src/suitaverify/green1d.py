"""One-dimensional Green functions with logarithmic pole.

Closed form on the unit disk, prime-function product on the annulus
{ r < |z| < 1 }, plus the quantities built on top of them: Robin constant
and logarithmic capacity, the covering-map upper bound for the capacity,
traced level curves with flux / co-area density / isoperimetric ratio
(their area is the sublevel-set volume), and deterministic hit counting as
the check route for that volume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domains
from .numerics import DEFAULT_TOL, SampleStream, find_root_monotone

__all__ = [
    "DiskGreen",
    "AnnulusGreen",
    "CriticalLevelError",
    "LevelStats",
    "robin_capacity",
    "covering_capacity_bound",
    "trace_level",
    "level_flux_and_isoperimetric",
    "sublevel_volume",
]

# A level whose gradient drops below this passes too near a critical point to trace.
GRAD_FLOOR = 1e-4


class CriticalLevelError(RuntimeError):
    """The requested level passes too close to a critical point of G."""


class DiskGreen:
    """Green function of the unit disk: log |z - w| / |1 - conj(w) z|."""

    def __init__(self, w):
        w = complex(w)
        if abs(w) >= 1.0:
            raise ValueError("pole must lie in the open unit disk")
        self.pole = w
        self.domain = domains.disk()
        # Robin constant lim (G - log|z - w|) = -log(1 - |w|^2); 1 - |w|^2 as a product
        # does not cancel near the circle
        self.robin = -math.log((1.0 - abs(w)) * (1.0 + abs(w)))

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        w = self.pole
        return np.log(np.abs(z - w)) - np.log(np.abs(1.0 - np.conj(w) * z))

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


class AnnulusGreen:
    """Green function of { r < |z| < 1 } from the Schottky-Klein prime function.

    With q = r^2 and P(x) = (1 - x) prod_{k>=1} (1 - q^k x)(1 - q^k / x),
    G(z) = log|w| + log|P(z/w)| - log|P(z conj w)| + c log|z|, c = -log|w| / log r
    (Crowdy, CMFT 2010).  The (1 - x) factors make the disk Green function; the
    product stops after ``n_modes`` pairs, and ``tail_bound`` bounds what the
    omitted pairs add to G and to ``robin``.
    """

    def __init__(self, r, w):
        r = float(r)
        w = complex(w)
        if not 0.0 < r < 1.0:
            raise ValueError("inner radius must lie in (0, 1)")
        if r > 0.999:
            # the pair count grows like 1 / (1 - r): 22158 pairs at r = 0.999
            raise ValueError("inner radius too close to 1: the product converges like r^(2k), too slowly")
        w0 = abs(w)
        if not r < w0 < 1.0:
            raise ValueError("pole must lie inside the annulus")
        self.inner = r
        self.pole = w
        self.domain = domains.Annulus(r)
        self._disk = DiskGreen(w)
        q = r * r
        # in the annulus |x|, 1/|x| < m for x = z/w and for x = z conj(w), so the k-th
        # pairs' factors are 1 - u, |u| < q^k m, and |log|1 - u|| <= |u| / (1 - |u|)
        self._m = (max(1.0 / w0, w0 / r), 1.0 / (r * w0))
        tail = lambda n: sum(2.0 * a / (1.0 - a) for a in (q ** (n + 1) * m for m in self._m)) / (1.0 - q)
        # G is of order one near the pole and pairs are cheap: truncate below rounding
        n = 1
        while tail(n) > 2.0**-53:
            n += 1
        self.n_modes, self.tail_bound = n, tail(n)
        self._qk = qk = q ** np.arange(1, n + 1)
        self.c_log = -math.log(w0) / math.log(r)
        # the disk's robin plus the pairs of log(P(1)^2 / P(|w|^2)), which combine to
        # 1 + q^k (1 - a)^2 / (a (1 - q^k a)(1 - q^k / a)), a = |w|^2; 1 - a and
        # a (1 - q^k / a) = (|w| - r^k)(|w| + r^k) as products cancel near neither circle
        rk = r ** np.arange(1, n + 1)
        oma = (1.0 - w0) * (1.0 + w0)
        pairs = np.log1p(qk * oma**2 / ((1.0 - qk * w0 * w0) * (w0 - rk) * (w0 + rk)))
        self.robin = self._disk.robin + float(np.sum(pairs)) + self.c_log * math.log(w0)

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        w, qk = self.pole, self._qk
        # summing the differences keeps the partial sums, and their rounding, of the order of G
        twice = np.zeros(z.shape)
        pairs = zip(_twice_log_pairs(z / w, self._m[0], qk), _twice_log_pairs(z * np.conj(w), self._m[1], qk))
        for a, b in pairs:
            twice += a - b
        return self._disk.value(z) + 0.5 * twice + self.c_log * np.log(np.abs(z))

    def grad(self, z):
        """Gradient gx + i gy; conj(f') for the analytic f with G = Re f."""
        z = np.asarray(z, dtype=complex)
        w, qk = self.pole, self._qk
        df = _dlog_pairs(z / w, qk) / w - np.conj(w) * _dlog_pairs(z * np.conj(w), qk) + self.c_log / z
        return self._disk.grad(z) + np.conj(df)

    def in_domain(self, z):
        return self._disk.in_domain(z) & (np.abs(z) > self.inner)

    def boundary_distance(self, phi):
        d = np.exp(1j * np.asarray(phi, dtype=float))
        beta = np.real(np.conj(self.pole) * d)
        disc = beta**2 - (abs(self.pole) ** 2 - self.inner**2)
        root = np.sqrt(np.abs(disc))
        s_in = np.where((disc >= 0) & (-beta - root > 0), -beta - root, np.inf)
        return np.minimum(self._disk.boundary_distance(phi), s_in)


def _twice_log_pairs(x, m, qk):
    """2 log|(1 - c x)(1 - c / x)| = 2 log|1 + c^2 - c (x + 1/x)| for each c in qk."""
    xinv = 1.0 / x
    v = x + xinv
    vr, vv = v.real, v.real**2 + v.imag**2
    for c in qk:
        if c * m > 0.3:
            # a factor may come close to 0, where the pair and |pair|^2 - 1 both cancel
            yield 2.0 * (np.log(np.abs(1.0 - c * x)) + np.log(np.abs(1.0 - c * xinv)))
        else:
            # log1p(|pair|^2 - 1), rounded to the order of the pair's distance from 1
            yield np.log1p(c * (c * (vv + (2.0 + c * c)) - (2.0 * (1.0 + c * c)) * vr))


def _dlog_pairs(x, qk):
    """d/dx sum_{c in qk} log((1 - c x)(1 - c / x)) = sum c / (c x - 1) + c / (x (x - c))."""
    xinv = 1.0 / x
    return sum(c / (c * x - 1.0) + c * xinv / (x - c) for c in qk)


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
    """First s > 0 with G(pole + s e^{i phi}) = t along each ray phi."""
    w = green.pole
    d = np.exp(1j * phis)
    s_max = green.boundary_distance(phis) * (1.0 - 1e-12)
    lo = np.minimum(0.25 * math.exp(t - green.robin), 0.5 * s_max)
    # halve the start of every ray that does not yet start below the level
    todo = np.arange(phis.size)
    while (todo := todo[green.value(w + lo[todo] * d[todo]) >= t]).size:
        lo[todo] *= 0.5
        if lo[todo].min() < 1e-300:
            raise CriticalLevelError(f"could not start below the level along ray phi={phis[todo[0]]}")
    # geometric x1.2 steps, one value() call per step for all unbracketed
    # rays; a bracket ends at the first step at or above the level
    hi = np.empty_like(lo)
    todo = np.arange(phis.size)
    while todo.size:
        stuck = todo[lo[todo] >= s_max[todo]]
        if stuck.size:
            # G = 0 > t on the boundary, so a crossing must exist; landing here
            # means the level hugs the boundary beyond resolution
            raise CriticalLevelError(f"no level crossing found along ray phi={phis[stuck[0]]}")
        step = np.minimum(lo[todo] * 1.2, s_max[todo])
        above = green.value(w + step * d[todo]) >= t
        hi[todo[above]] = step[above]
        lo[todo[~above]] = step[~above]
        todo = todo[~above]
    return find_root_monotone(lambda s, d: green.value(w + s * d) - t, lo, hi, args=(d,))


@dataclass
class LevelStats:
    """Traced level curve { G = t } and its integral quantities.

    ``area`` is the volume of the sublevel component around the pole and
    ``area_err`` bounds its error: the change from the n/2-node sum plus what
    the roots' stopping tolerance can move it.
    """

    t: float
    flux: float
    density: float
    length: float
    area: float
    area_err: float
    iso_ratio: float


def trace_level(green, t, n_nodes=2048):
    """Polar trace s(phi) of the level curve around the pole.

    Returns (phi, s) arrays; phi is a uniform grid so periodic trapezoid
    sums over the curve converge spectrally.
    """
    if t >= 0.0:
        raise ValueError("levels must be negative")
    phis = np.arange(n_nodes) * (2.0 * math.pi / n_nodes)
    return phis, _crossings(green, t, phis)


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
    the pole.
    """
    phis, s = trace_level(green, t, n_nodes)
    # a level through (or shadowed past) a critical point is not a radial
    # graph around the pole: the first-crossing radius then jumps between
    # level components, which shows up as a discontinuity in s(phi)
    ds = np.abs(np.diff(np.append(s, s[0])))
    dphi_step = 2.0 * math.pi / n_nodes
    jump_scale = 10.0 * (float(np.median(ds)) + float(s.max()) * dphi_step)
    if float(ds.max()) > jump_scale:
        raise CriticalLevelError(
            f"level t={t} is not a radial graph around the pole "
            f"(trace jump {ds.max():.3g} vs scale {jump_scale:.3g})"
        )
    z = green.pole + s * np.exp(1j * phis)
    g = green.grad(z)
    absg = np.abs(g)
    if float(absg.min()) < GRAD_FLOOR:
        raise CriticalLevelError(
            f"level t={t} passes near a critical point (min |grad G| = {absg.min():.3g})"
        )
    d = np.exp(1j * phis)
    g_s = np.real(np.conj(g) * d)  # radial derivative along the ray
    g_phi = np.real(np.conj(g) * (1j * s * d))
    s_prime = -g_phi / g_s  # implicit differentiation of G(s(phi)) = t
    speed = np.abs(s_prime + 1j * s)  # |z'(phi)|
    dphi = 2.0 * math.pi / len(phis)
    flux = float(np.sum(absg * speed) * dphi)
    length = float(np.sum(speed) * dphi)
    density = float(np.sum(speed / absg) * dphi)
    area = 0.5 * float(np.sum(s**2) * dphi)
    # the even nodes are the n/2-node grid; each root is good to the bracket
    # width at which find_root_monotone stops, abs_tol + rel_tol * s
    trapezoid_err = abs(area - float(np.sum(s[::2] ** 2) * dphi))
    root_err = float(np.sum(s * (DEFAULT_TOL.abs_tol + DEFAULT_TOL.rel_tol * s)) * dphi)
    iso = length**2 / (4.0 * math.pi * area)
    return LevelStats(
        t=t,
        flux=flux,
        density=density,
        length=length,
        area=area,
        area_err=trapezoid_err + root_err,
        iso_ratio=iso,
    )


def _sublevel_box(green, t, n_rays=128):
    """Axis-aligned bounding box of { G < t }, from a coarse polar trace."""
    phis = np.arange(n_rays) * (2.0 * math.pi / n_rays)
    pts = green.pole + _crossings(green, t, phis) * np.exp(1j * phis)
    x0, x1 = pts.real.min(), pts.real.max()
    y0, y1 = pts.imag.min(), pts.imag.max()
    pad = 0.2 * max(x1 - x0, y1 - y0)
    return x0 - pad, x1 + pad, y0 - pad, y1 + pad


def sublevel_volume(obj, t, stream=None, count=2**20):
    """Volume of { G < t } with its hit-counting standard error.

    ``obj`` is either a balanced domain spec (sublevel volume is the exact
    scaling e^{2nt} lambda(domain) of the Minkowski functional) or a Green
    object, in which case points are counted inside a bounding box fitted to
    the sublevel component around the pole.  This is the check route for
    the traced area of ``level_flux_and_isoperimetric``.
    """
    if t > 0.0:
        raise ValueError("require t <= 0")
    if isinstance(obj, (domains.Ellipsoid, domains.Polydisk)):
        n = obj.dimension
        return domains.volume(obj) * math.exp(2 * n * t), 0.0
    green = obj
    if t == 0.0:
        raise ValueError("t = 0 needs no sampling: the sublevel set is the domain")
    if stream is None:
        stream = SampleStream(dimension=2, seed=0)
    x0, x1, y0, y1 = _sublevel_box(green, t)
    box_area = (x1 - x0) * (y1 - y0)
    u = stream.points(count)
    z = (x0 + (x1 - x0) * u[:, 0]) + 1j * (y0 + (y1 - y0) * u[:, 1])
    hit_count = 0
    for lo in range(0, count, 65536):  # chunked: bounds the per-factor temporaries
        chunk = z[lo : lo + 65536]
        mask = green.in_domain(chunk)
        if np.any(mask):
            hit_count += int(np.count_nonzero(green.value(chunk[mask]) < t))
    p = hit_count / count
    value = box_area * p
    stderr = box_area * math.sqrt(max(p * (1.0 - p), 1.0 / count) / count)
    return value, stderr
