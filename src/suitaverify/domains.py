"""Model-domain catalogue.

Membership tests, Minkowski functionals of balanced domains, Lebesgue
volumes, and squared monomial norms on complex ellipsoids and the
polydisk.  Points in C^n are numpy complex arrays of length n; volumes
are with respect to Lebesgue measure on C^n = R^2n.  The Gamma factors of
the volumes and norms come from ``log_gamma``, a numpy port of Cephes
``lgam``, so the module needs numpy only.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import find_root_monotone

__all__ = [
    "Ellipsoid",
    "Annulus",
    "Polydisk",
    "SymmetrizedBidisk",
    "EllipsoidFamilyParams",
    "ball",
    "disk",
    "contains",
    "minkowski_functional",
    "volume",
    "monomial_norm",
    "log_norm_parts",
    "log_norm_coupling",
    "from_json",
    "log_gamma",
]


@dataclass(frozen=True)
class Ellipsoid:
    """{ sum_j |z_j / R_j|^{2 p_j} < 1 } with positive exponents.

    Exponents >= 1/2 give the convex complex ellipsoids; smaller ones still
    define valid Reinhardt domains (they appear through deflation).  Unit
    radii reproduce the standard normalization; explicit radii exist so
    scaling covariance can be exercised.
    """

    exponents: tuple
    radii: tuple = None

    def __post_init__(self):
        exps = tuple(float(p) for p in self.exponents)
        if not exps or any(p <= 0 for p in exps):
            raise ValueError("exponents must be positive and non-empty")
        radii = self.radii
        if radii is None:
            radii = (1.0,) * len(exps)
        radii = tuple(float(r) for r in radii)
        if len(radii) != len(exps) or any(r <= 0 for r in radii):
            raise ValueError("radii must be positive and match exponents in length")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "radii", radii)

    @property
    def dimension(self):
        return len(self.exponents)


@dataclass(frozen=True)
class Annulus:
    """{ z in C : inner < |z| < 1 }."""

    inner: float

    def __post_init__(self):
        if not 0.0 < self.inner < 1.0:
            raise ValueError("inner radius must lie in (0, 1)")

    dimension = 1


@dataclass(frozen=True)
class Polydisk:
    """Unit polydisk in C^n."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")

    @property
    def dimension(self):
        return self.dim


@dataclass(frozen=True)
class SymmetrizedBidisk:
    """Image of the bidisk under (s, t) -> (s + t, s t)."""

    dimension = 2


def ball(n):
    """Euclidean unit ball in C^n (ellipsoid with all exponents 1)."""
    return Ellipsoid((1.0,) * n)


def disk():
    return ball(1)


def _as_point(domain, z):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (domain.dimension,):
        raise ValueError(f"point has dimension {z.size}, domain expects {domain.dimension}")
    return z


def contains(domain, z):
    z = _as_point(domain, z)
    if isinstance(domain, Ellipsoid):
        p = np.asarray(domain.exponents)
        r = np.asarray(domain.radii)
        return float(np.sum((np.abs(z) / r) ** (2 * p))) < 1.0
    if isinstance(domain, Annulus):
        return domain.inner < abs(z[0]) < 1.0
    if isinstance(domain, Polydisk):
        return bool(np.all(np.abs(z) < 1.0))
    if isinstance(domain, SymmetrizedBidisk):
        # (z1, z2) = (s + t, s t) with both roots of x^2 - z1 x + z2 in the disk
        roots = np.roots([1.0, -z[0], z[1]])
        return bool(np.all(np.abs(roots) < 1.0))
    raise TypeError(f"unsupported domain {domain!r}")


# Cephes lgam (S. L. Moshier, Cephes Mathematical Library), the algorithm of
# scipy.special.gammaln.  From 13 up: Stirling's series plus a correction polynomial in
# 1/x^2 over x (Cephes' shorter one from 1000 up and none above 1e8 round alike).  Below 13:
# a shift into [2, 3) and t _NUM(t) / _DEN(t) of t = x - 2 there.  Coefficients highest power first.
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_NUM = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
        -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_DEN = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
        -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178
# the shifts x - 1, ..., x - 10 that bring x < 13 down into [2, 3)
_SHIFTS = np.arange(1.0, 11.0)[:, None]
# up to this many arguments below 13, the float loop is cheaper than array code
_FEW = 16


def _horner(coefs, x):
    """The polynomial at x in Horner's order; for an array x, one new array updated in place."""
    acc = coefs[0] * x
    for c in coefs[1:-1]:
        acc += c
        acc *= x
    acc += coefs[-1]
    return acc


def _log_gamma_float(x):
    if x < 13.0:
        z, shift, u = 1.0, 0.0, x
        while u >= 3.0:
            shift -= 1.0
            u = x + shift
            z *= u
        while u < 2.0:
            z /= u
            shift += 1.0
            u = x + shift
        if u == 2.0:
            return math.log(z)
        t = x + (shift - 2.0)
        return math.log(z) + t * _horner(_NUM, t) / _horner(_DEN, t)
    return (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI + _horner(_STIRLING, 1.0 / (x * x)) / x


def _log_gamma_stirling(x):
    # x >= 13; above 1.3e154 x * x overflows to inf, and 1/(12 x) is far below the rounding of q
    q = x - 0.5
    q *= np.log(x)
    q -= x
    q += _LOG_SQRT_2PI
    with np.errstate(over="ignore"):
        p = x * x
    np.divide(1.0, p, out=p)
    p = _horner(_STIRLING, p)
    p /= x
    q += p
    return q


def _log_gamma_small(x):
    # 0 < x < 13, one-dimensional.  The shift into [2, 3): z = 1/x on [1, 2) and 1/x/(x+1)
    # below 1; from 3 up z = (x-1)(x-2)...(x-n+2), n = floor(x), multiplied left to right.
    # Every shifted argument is exact, so the one in [2, 3) is t + 2 with t = x - n.
    n = np.floor(x)
    t = x - n
    shifts = _SHIFTS[: max(int(n.max()) - 2, 0)]
    z = np.multiply.reduce(x - shifts, axis=0, where=shifts <= n - 2.0, initial=1.0)
    np.divide(z, x, out=z, where=x < 2.0)
    np.divide(z, x + 1.0, out=z, where=x < 1.0)
    out = t * _horner(_NUM, t)
    out /= _horner(_DEN, t)
    out += np.log(z)
    return out


def log_gamma(x):
    """log Gamma(x) for x > 0: a float for a float or 0-d input, else an array of x's shape.

    A port of Cephes ``lgam`` (S. L. Moshier), the algorithm of ``scipy.special.gammaln``,
    with one Stirling correction from 13 up where Cephes has three that round alike: it differs
    from scipy only where ``np.log`` and the C library's ``log`` round differently, within
    4e-15 absolute below 13 and 4e-16 relative above.  x <= 0 is not checked and gives nonsense.
    """
    if np.ndim(x) == 0:
        return _log_gamma_float(float(x))
    x = np.asarray(x, dtype=float)
    small = x < 13.0
    count = np.count_nonzero(small)
    if count == 0:
        return _log_gamma_stirling(x)
    if count <= _FEW:
        values = [_log_gamma_float(v) for v in x[small].tolist()]
    else:
        values = _log_gamma_small(x[small])
    if count == x.size:
        return np.reshape(values, x.shape)
    out = _log_gamma_stirling(np.maximum(x, 13.0))
    out[small] = values
    return out


def minkowski_functional(domain, z):
    """h(z) with z / h(z) on the boundary; h(0) = 0, h(cz) = |c| h(z).

    Only defined for balanced specs centered at the origin.  The root is
    resolved to machine precision so homogeneity holds to the last digits.
    """
    if not isinstance(domain, (Ellipsoid, Polydisk)):
        raise TypeError("Minkowski functional requires a balanced domain")
    z = _as_point(domain, z)
    a = np.abs(z)
    if not a.any():
        return 0.0
    if isinstance(domain, Polydisk):
        return float(a.max())
    p = np.asarray(domain.exponents)
    r = np.asarray(domain.radii)
    if np.all(p == 1.0):
        return float(np.sqrt(np.sum((a / r) ** 2)))

    def defect(s):
        return np.sum((a / (r * np.asarray(s)[..., None])) ** (2 * p), axis=-1) - 1.0

    hi = float(np.sum(a / r)) + 1.0
    lo = 1e-12 * hi
    while defect(lo) < 0:  # z microscopically small: shrink bracket
        lo *= 1e-3
    return find_root_monotone(defect, lo, hi, 1e-15)


def _log_ellipsoid_volume(exponents, radii):
    p = np.asarray(exponents)
    r = np.asarray(radii)
    n = len(p)
    return (
        n * math.log(math.pi)
        + float(np.sum(log_gamma(1.0 + 1.0 / p)) - log_gamma(1.0 + np.sum(1.0 / p)))
        + 2.0 * float(np.sum(np.log(r)))
    )


def volume(domain):
    """Lebesgue volume of the domain.

    Ellipsoids use the Gamma-product formula, the annulus is pi (1 - r^2),
    and the symmetrized bidisk is pi^2 / 2: (s, t) -> (s + t, s t) is 2-to-1
    with Jacobian |s - t|^2, whose integral over the bidisk is pi^2.
    """
    if isinstance(domain, Ellipsoid):
        return math.exp(_log_ellipsoid_volume(domain.exponents, domain.radii))
    if isinstance(domain, Annulus):
        return math.pi * (1.0 - domain.inner**2)
    if isinstance(domain, Polydisk):
        return math.pi**domain.dim
    if isinstance(domain, SymmetrizedBidisk):
        return math.pi**2 / 2.0
    raise TypeError(f"unsupported domain {domain!r}")


def log_norm_parts(domain, alpha, coords=None, coupling_rest=None):
    """The parts of log ||z^alpha||^2 that each depend on one entry alpha_j: (own, share).

    log ||z^alpha||^2 = sum_j own_j - log_norm_coupling(sum_j share_j), summed over all
    n coordinates.  On an ellipsoid own_j = log(pi / p_j) + log Gamma((alpha_j + 1) / p_j)
    + 2 (alpha_j + 1) log R_j and share_j = (alpha_j + 1) / p_j; on the polydisk
    own_j = log(pi / (alpha_j + 1)) and share is None, for it has no coupling term.
    The last axis of ``alpha`` runs over the coordinates ``coords`` (all by default),
    so a column of exponents gives one table per coordinate.  With ``coupling_rest`` the
    second item is log_norm_coupling(coupling_rest + share[..., 0]) instead, from the
    same log-gamma evaluation as own.
    """
    a1 = np.asarray(alpha, dtype=float) + 1.0
    if isinstance(domain, Polydisk):
        return math.log(math.pi) - np.log(a1), None
    if not isinstance(domain, Ellipsoid):
        raise TypeError(f"unsupported domain {domain!r}")
    sel = slice(None) if coords is None else coords
    p = np.asarray(domain.exponents)[sel]
    share = a1 / p
    if coupling_rest is None:
        gamma = log_gamma(share)
    else:
        lead = 1.0 + (coupling_rest + share[..., 0])
        both = log_gamma(np.concatenate((share.ravel(), lead.ravel())))
        gamma = both[: share.size].reshape(share.shape)
        share = both[share.size :].reshape(lead.shape)
    own = (math.log(math.pi) - np.log(p)) + gamma
    if any(r != 1.0 for r in domain.radii):
        own += 2.0 * a1 * np.log(np.asarray(domain.radii)[sel])
    return own, share


def log_norm_coupling(share_sum):
    """The term of log ||z^alpha||^2 that couples the coordinates, from sum_j share_j."""
    return log_gamma(1.0 + share_sum)


def monomial_norm(domain, alpha, log=False):
    """Squared L^2 norm of z^alpha over an ellipsoid or polydisk, or its natural log.

    ``alpha`` is a multi-index of non-negative integers, or an array of them
    indexed by the last axis, which gives an array of norms; any other entry
    raises ValueError.  The log form, assembled from ``log_norm_parts``,
    neither overflows nor underflows at high degree.
    """
    alpha = np.atleast_1d(np.asarray(alpha))
    if alpha.shape[-1] != domain.dimension:
        raise ValueError("multi-index must have the domain dimension")
    if not np.all(np.isfinite(alpha) & (alpha >= 0) & (alpha == np.floor(alpha))):
        raise ValueError("multi-index entries must be non-negative integers")
    own, share = log_norm_parts(domain, alpha)
    lg = np.sum(own, axis=-1)
    if share is not None:
        lg = lg - log_norm_coupling(np.sum(share, axis=-1))
    out = lg if log else np.exp(lg)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EllipsoidFamilyParams:
    """The one-parameter family { |z1| + |z2|^{2m} + ... + |z_n|^{2m} < 1 }.

    Carries the derived exponent a = (n-1)/m + 2 and the volume omega of the
    (n-1)-dimensional slice ellipsoid { sum |z_j|^{2m} < 1 }, computed once per object.
    """

    m: float
    n: int
    b: float

    def __post_init__(self):
        if self.m < 0.5:
            raise ValueError("m must be >= 1/2")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not 0.0 < self.b < 1.0:
            raise ValueError("b must lie in (0, 1)")

    @property
    def a(self):
        return (self.n - 1) / self.m + 2.0

    @cached_property
    def omega(self):
        return volume(Ellipsoid((self.m,) * (self.n - 1)))

    def domain_volume(self):
        a = self.a
        return 2.0 * math.pi * self.omega / (a * (a - 1.0))


def from_json(text):
    """Domain spec from its JSON object (a string or a dict), keyed by ``variant``.

    Raises ValueError for a spec that is not an object or lacks a key of its variant.
    """
    obj = json.loads(text) if isinstance(text, str) else text
    if not isinstance(obj, dict):
        raise ValueError(f"a domain spec is a JSON object, not {type(obj).__name__}")
    variant = obj.get("variant")
    try:
        if variant == "ellipsoid":
            return Ellipsoid(tuple(obj["p"]), tuple(obj["radii"]) if "radii" in obj else None)
        if variant == "annulus":
            return Annulus(float(obj["r"]))
        if variant == "polydisk":
            return Polydisk(int(obj["n"]))
    except KeyError as exc:
        raise ValueError(f"{variant} spec lacks the key {exc}") from None
    if variant == "symmetrized_bidisk":
        return SymmetrizedBidisk()
    raise ValueError(f"unknown domain variant {variant!r}")
