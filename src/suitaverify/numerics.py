"""Shared numerical kernels: root bracketing, tanh-sinh quadrature, sample streams.

Everything here is pure and reentrant; streams are scrambled Sobol value
objects that can be split by seed derivation for parallel grids.  The root
finder takes one relative tolerance and raises at its first failure.

All of it is numpy only: the sampler reproduces scipy's scrambled Sobol
engine bit for bit without loading ``scipy.stats``, and no command loads
any scipy module.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "BracketError",
    "ConvergenceError",
    "SOBOL_BITS",
    "SampleStream",
    "find_root_monotone",
    "integrate_1d",
    "golden_section_max",
]


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its budget or met a non-finite value."""


log = logging.getLogger(__name__)
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
# iteration budget of find_root_monotone
_ROOT_MAX_ITER = 200


def find_root_monotone(f, lo, hi, rel_tol=1e-10, args=(), f_lo=None, f_hi=None):
    """Root of a continuous monotone function on a bracketing interval.

    Chandrupatla's bracketing method (Adv. Eng. Software 28, 1997) with the
    termination rules of ``scipy.optimize.elementwise.find_root``: ``f`` acts
    elementwise, ``lo``/``hi`` may be arrays of brackets broadcast with the
    per-element data in ``args``, and every bracket is solved at once, each
    call of ``f`` taking the unfinished ones only.  A bracket is done when f
    at one end is at rounding or its width is below ``rel_tol`` (at least
    4 eps) times the end with the smaller |f|.  ``f_lo``/``f_hi``, when
    given, are f at the ends and save the two initial calls.  The first step
    is the secant, and the root returned is the secant point of the final
    bracket, which costs no call.  Raises BracketError when some f(lo) and
    f(hi) have the same strict sign, and ConvergenceError at the first NaN
    value or non-finite point, or when a bracket is unfinished after
    ``_ROOT_MAX_ITER`` steps.
    """
    shape = np.broadcast_shapes(np.shape(lo), np.shape(hi), *(np.shape(a) for a in args))
    # the unfinished elements: their flat indices and their entries of ``args``
    idx, extra = np.arange(math.prod(shape)), [np.broadcast_to(a, shape).ravel() for a in args]
    x1, x2 = (np.array(np.broadcast_to(x, shape), dtype=float).ravel() for x in (lo, hi))

    def call(x):
        return np.asarray(f(x, *extra), dtype=float).reshape(x.shape)

    f1 = call(x1) if f_lo is None else np.array(np.broadcast_to(f_lo, shape), dtype=float).ravel()
    f2 = call(x2) if f_hi is None else np.array(np.broadcast_to(f_hi, shape), dtype=float).ravel()
    # checked once: each step keeps a sign change between f1 and f2
    flat = (np.sign(f1) == np.sign(f2)) & (np.minimum(np.abs(f1), np.abs(f2)) > _TINY)
    if flat.any():
        raise BracketError(f"no sign change on {np.count_nonzero(flat)} of {flat.size} brackets")
    rel_tol = max(rel_tol, 4 * _EPS)
    x3 = f3 = None
    root, width = np.empty(x1.size), np.empty(x1.size)
    nit = 0
    while True:
        with np.errstate(all="ignore"):
            small = np.abs(f1) < np.abs(f2)
            xmin, fmin = np.where(small, x1, x2), np.where(small, f1, f2)
            dx, tol_x = np.abs(x2 - x1), np.abs(xmin) * rel_tol + 1e-300
            if not np.isfinite(dx).all() or np.isnan(f1).any() or np.isnan(f2).any():
                raise ConvergenceError(f"root finder met a non-finite point or value after {nit} iterations")
            done = (dx < tol_x) | (np.abs(fmin) <= _TINY)
            if done.any():
                sec = xmin - fmin * ((x2 - x1) / (f2 - f1))
                sec = np.where(np.isfinite(sec), np.clip(sec, np.minimum(x1, x2), np.maximum(x1, x2)), xmin)
                i = idx[done]
                root[i], width[i] = sec[done], dx[done]
                keep = ~done
                idx, extra = idx[keep], [a[keep] for a in extra]
                x1, f1, x2, f2, dx, tol_x = x1[keep], f1[keep], x2[keep], f2[keep], dx[keep], tol_x[keep]
                if x3 is not None:
                    x3, f3 = x3[keep], f3[keep]
            if not x1.size:
                break
            if nit == _ROOT_MAX_ITER:
                raise ConvergenceError(f"{x1.size} brackets unfinished after {_ROOT_MAX_ITER} iterations")
            if x3 is None:
                # first step: the secant through the ends
                t = f1 / (f1 - f2)
                t = np.where(np.isfinite(t), t, 0.5)
            else:
                # inverse quadratic interpolation where the last three points allow it, else bisection
                xi1, phi1 = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                quad = (1.0 - np.sqrt(1.0 - xi1) < phi1) & (phi1 < np.sqrt(xi1))
                t = np.where(quad, f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            tl = 0.5 * tol_x / dx
            x = x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1)
        fx = call(x)
        nit += 1
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
    log.debug(
        "root finder: %d brackets, %d iterations, widest final bracket %.3g", root.size, nit, width.max(initial=0.0)
    )
    return float(root[0]) if shape == () else root.reshape(shape)


# tanh-sinh nodes t in [-_TS_T, _TS_T], the outermost 4e-17 half-widths from the ends, with
# step 1/2 halved at most _TS_LEVELS - 1 times; two levels agree, and the part beyond the
# outermost nodes is negligible, within _TS_ROUNDING of the sum of |terms|
_TS_T, _TS_LEVELS, _TS_ROUNDING = 3.2, 8, 64 * _EPS


def integrate_1d(f, a, b):
    """Integral of f on [a, b] by the tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974).

    x = (a + b)/2 + (b - a)/2 tanh(pi/2 sinh t) for t in [-3.2, 3.2]; the trapezoid rule in t
    converges double-exponentially, also at an algebraic singularity x^(-0.1) or milder at an
    end.  ``f`` acts elementwise and is called once per level, on the level's new nodes less
    those that round onto an end; the step halves from 1/2 until two levels agree to rounding.
    Nodes come to 1e-17 of the width from an end at 0, but to other ends only to their float
    spacing, so a caller writes f in the distance from an end where it kinks or cancels.
    Raises ConvergenceError when the levels run out, or when |f| times the distance from the
    outermost nodes to their ends is not negligible (a non-integrable end, such as 1/x on [0, 1]).
    """
    if a > b:
        raise ValueError("require a <= b")
    if a == b:
        return 0.0
    half = 0.5 * (b - a)
    total = spread = 0.0  # sums of w f and |w f| over the nodes so far
    calls, outer = 0, []  # nodes evaluated; per level, its largest t and what lies beyond it
    estimate = change = math.nan
    for level in range(_TS_LEVELS):
        h = 0.5 ** (level + 1)
        k = np.arange(-int(_TS_T / h), int(_TS_T / h) + 1)
        t = h * (k if level == 0 else k[k % 2 == 1])
        e = np.exp(-math.pi * np.sinh(np.abs(t)))
        dist = 2.0 * half * e / (1.0 + e)  # to the end on the node's side: half (1 - tanh)
        x = np.where(t < 0, a + dist, b - dist)
        keep = (x != a) & (x != b)
        w = math.pi * np.cosh(t[keep]) * dist[keep] / (1.0 + e[keep])  # half pi/2 cosh t sech^2
        fx = np.broadcast_to(np.asarray(f(x[keep]), dtype=float), w.shape)  # f may return a constant
        calls += fx.size
        total += float(np.sum(w * fx))
        spread += float(np.sum(w * np.abs(fx)))
        # |f| times the distance left to the end; none where the outermost node rounds onto it
        outer.append((t[-1], max(keep[0] and dist[0] * abs(fx[0]), keep[-1] and dist[-1] * abs(fx[-1]))))
        estimate, change = h * total, abs(h * total - estimate)
        if change <= _TS_ROUNDING * h * spread:
            break
    log.debug("quadrature: %d levels, %d nodes, last change %.3g", level + 1, calls, change)
    tol = _TS_ROUNDING * h * spread
    if not change <= tol:
        raise ConvergenceError(f"quadrature levels still differ by {change:.3g} after {_TS_LEVELS} levels")
    beyond = max(outer)[1]
    if not beyond <= tol:
        raise ConvergenceError(f"quadrature misses {beyond:.3g} beyond its outermost nodes (non-integrable end?)")
    return estimate


# Sobol direction numbers of SOBOL_BITS bits, so at most 2^30 points, each coordinate a word times
# 2^-SOBOL_BITS; dimension 1 is van der Corput, and dimensions 2-4 take Joe & Kuo's primitive
# polynomial (degree s, coefficient bits a) and initial numbers m_1..m_s
SOBOL_BITS = 30
_SOBOL_POLYS = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)))
_SOBOL_MAX_DIM = len(_SOBOL_POLYS) + 1
# points makes its points in blocks of this many (512 KiB of words in four dimensions)
_SOBOL_BLOCK = 2**15


def _sobol_directions(dimension):
    """Direction numbers v[j, k], bit k of dimension j at the top of a 30-bit word."""
    v = np.empty((dimension, SOBOL_BITS), dtype=np.uint32)
    v[0] = [1 << (SOBOL_BITS - 1 - k) for k in range(SOBOL_BITS)]
    for j, (s, a, m) in enumerate(_SOBOL_POLYS[: dimension - 1], start=1):
        row = [mk << (SOBOL_BITS - 1 - k) for k, mk in enumerate(m)]
        for k in range(s, SOBOL_BITS):
            x = row[k - s] ^ (row[k - s] >> s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    x ^= row[k - i]
            row.append(x)
        v[j] = row
    return v


@dataclass(frozen=True)
class SampleStream:
    """Deterministic scrambled Sobol point stream in the unit cube, dimensions 1 to 4.

    Sobol points with Joe & Kuo's direction numbers (SIAM J. Sci. Comput. 30, 2008), scrambled
    by a random lower-triangular matrix and a digital shift (Matousek, J. Complexity 14, 1998),
    in the Gray-code order of Antonov & Saleev (USSR Comput. Math. Math. Phys. 19, 1979).  The
    random bits come from ``np.random.default_rng(seed)`` in the order scipy's engine draws
    them, so ``points(n)`` is byte-identical to
    ``scipy.stats.qmc.Sobol(dimension, scramble=True, seed=seed).random(n)``, in numpy only.
    The same (dimension, seed) always reproduces the identical sequence.

    In that order every aligned block of 2^s points is the first block xor-ed with one word per
    dimension, so ``words`` gives the points a block at a time as that first block and a key, in
    memory that does not grow with their count; ``points`` fills one array from the same blocks.
    """

    dimension: int
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.dimension <= _SOBOL_MAX_DIM:
            raise ValueError(f"dimension must lie in 1..{_SOBOL_MAX_DIM}")

    def points(self, count):
        """The first ``count`` points, an array of shape (count, dimension)."""
        blocks = self.words(count, _SOBOL_BLOCK)
        sample, lo = np.empty((count, self.dimension)), 0
        for base, key in blocks:
            hi = lo + base.shape[1]
            np.multiply(base.T ^ key, 2.0**-SOBOL_BITS, out=sample[lo:hi])
            lo = hi
        return sample

    def words(self, count, size):
        """The first ``count`` points in consecutive blocks of ``size`` = 2^s points, the last one
        possibly shorter, each as the pair (B, key): block c is the words ``B ^ key[:, None]``, and
        point i of it has coordinates ``(B[:, i] ^ key) * 2^-SOBOL_BITS``.  ``B`` is the read-only
        (dimension, min(size, count)) array of uint32 words of the first block without the digital
        shift, the same array in every pair (cut to the last block's length), and ``key`` holds one
        word per dimension.  Joined, the blocks are ``points(count)`` byte for byte.

        Point i is the shift xor the v_k of the bits k of gray(i) = i ^ (i >> 1).  For i = c 2^s + j,
        j < 2^s, the low s bits of gray(i) are gray(j) with bit s - 1 flipped where c is odd, and the
        others are gray(c), so block c is B xor-ed with shift ^ (v_{s-1} if c is odd) ^ the v_{s+k}
        of the bits k of gray(c).  B and the scramble are made once per call, and B takes 4 bytes per
        point and coordinate, whatever the count.  Raises ValueError at once for a count outside
        1..2^30 or a size that is not a power of two.
        """
        if not 1 <= count <= 2**SOBOL_BITS:
            raise ValueError(f"count must lie in 1..2^{SOBOL_BITS}")
        if size < 1 or size & (size - 1):
            raise ValueError(f"block size {size} is not a power of two")
        return self._words(count, size)

    def _words(self, count, size):
        d, bits = self.dimension, SOBOL_BITS
        rng = np.random.default_rng(self.seed)
        up = np.arange(bits, dtype=np.uint32)
        # scipy's draws in its order: the bits of the digital shift, lowest first, then the matrices,
        # whose diagonal scipy sets to 1
        shift = rng.integers(2, size=(d, bits), dtype=np.uint32) @ (np.uint32(1) << up)
        ltm = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32))
        ltm[:, up, up] = 1
        down = up[::-1]
        # the scramble multiplies the bit columns of v, top bit first, by ltm over GF(2)
        v_bits = (_sobol_directions(d)[:, None, :] >> down[:, None]) & 1
        v = ((ltm @ v_bits) & 1).transpose(0, 2, 1) @ (np.uint32(1) << down)
        # B: each bit doubles the points so far, xor-ing v_k into them in reverse order
        n, s = min(size, count), size.bit_length() - 1
        base = np.zeros((d, n), dtype=np.uint32)
        for a, vj in zip(base, v):
            h = 1
            for vk in vj:
                if h >= n:
                    break
                m = min(h, n - h)
                np.bitwise_xor(a[h - 1 :: -1][:m], vk, out=a[h : h + m])
                h *= 2
        base.flags.writeable = False
        key = shift
        for c, lo in enumerate(range(0, count, size)):
            if c:
                # gray(c) and gray(c - 1) differ in bit ctz(c), and c and c - 1 in parity
                key = key ^ v[:, s + (c & -c).bit_length() - 1]
                if s:
                    key = key ^ v[:, s - 1]
            yield base[:, : min(size, count - lo)], key

    def split(self, index):
        """Derived stream for parallel cell ``index`` of a grid."""
        return replace(self, seed=(self.seed ^ (0x9E3779B9 * (index + 1))) & (2**64 - 1))


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
# golden-section steps before the bracket must have shrunk to ``tol``
_GOLDEN_MAX_ITER = 200


def golden_section_max(f, lo, hi, tol=1e-8, coarse=64):
    """Maximize a smooth unimodal-ish function on [lo, hi].

    A coarse scan first localizes the global maximum (guards mild
    multi-modality), then golden-section narrows the bracket to ``tol``.
    Returns (x*, f(x*)).
    """
    xs = np.linspace(lo, hi, coarse)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, coarse - 1)]
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAX_ITER):
        if b - a <= tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
    else:
        raise ConvergenceError("golden-section budget exhausted")
    xm = 0.5 * (a + b)
    return xm, f(xm)
