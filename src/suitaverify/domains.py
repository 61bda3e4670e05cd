"""Model-domain catalogue.

Membership tests, Minkowski functionals of balanced domains, Lebesgue
volumes, and squared monomial norms on complex ellipsoids, the annulus and
the polydisk.  Points in C^n are numpy complex arrays of length n; volumes
are with respect to Lebesgue measure on C^n = R^2n.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .numerics import Tolerance, find_root_monotone

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
    "from_json",
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
    return find_root_monotone(defect, lo, hi, Tolerance(abs_tol=1e-300, rel_tol=1e-15))


def _log_ellipsoid_volume(exponents, radii):
    p = np.asarray(exponents)
    r = np.asarray(radii)
    n = len(p)
    return (
        n * math.log(math.pi)
        + float(np.sum(gammaln(1.0 + 1.0 / p)) - gammaln(1.0 + np.sum(1.0 / p)))
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


def monomial_norm(domain, alpha, log=False):
    """Squared L^2 norm of z^alpha over the domain, or its natural log.

    For the annulus ``alpha`` is a single (possibly negative) integer.  For
    ellipsoids and polydisks it is a multi-index of non-negative integers,
    or an array of them indexed by the last axis, which gives an array of
    norms.  The log form neither overflows nor underflows at high degree.
    """
    if isinstance(domain, Annulus):
        j = int(alpha) if np.isscalar(alpha) else int(np.asarray(alpha).item())
        r = domain.inner
        if j == -1:
            norm = -2.0 * math.pi * math.log(r)
        else:
            norm = math.pi * (1.0 - r ** (2 * j + 2)) / (j + 1)
        return math.log(norm) if log else norm
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.shape[-1] != domain.dimension or np.any(alpha < 0):
        raise ValueError("multi-index must be non-negative of the domain dimension")
    a1 = alpha + 1.0
    n = domain.dimension
    if isinstance(domain, Polydisk):
        lg = n * math.log(math.pi) - np.sum(np.log(a1), axis=-1)
    elif isinstance(domain, Ellipsoid):
        p = np.asarray(domain.exponents)
        r = np.asarray(domain.radii)
        lg = (
            n * math.log(math.pi)
            - float(np.sum(np.log(p)))
            + np.sum(gammaln(a1 / p), axis=-1)
            - gammaln(1.0 + np.sum(a1 / p, axis=-1))
            + 2.0 * np.sum(a1 * np.log(r), axis=-1)
        )
    else:
        raise TypeError(f"unsupported domain {domain!r}")
    out = lg if log else np.exp(lg)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EllipsoidFamilyParams:
    """The one-parameter family { |z1| + |z2|^{2m} + ... + |z_n|^{2m} < 1 }.

    Carries the derived exponent a = (n-1)/m + 2 and the volume omega of the
    (n-1)-dimensional slice ellipsoid { sum |z_j|^{2m} < 1 }.
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

    @property
    def omega(self):
        k = self.n - 1
        return math.exp(
            k * math.log(math.pi)
            + k * gammaln(1.0 + 1.0 / self.m)
            - gammaln(1.0 + k / self.m)
        )

    def domain_volume(self):
        a = self.a
        return 2.0 * math.pi * self.omega / (a * (a - 1.0))


_VARIANTS = {
    "ellipsoid": Ellipsoid,
    "annulus": Annulus,
    "polydisk": Polydisk,
    "symmetrized_bidisk": SymmetrizedBidisk,
}


def from_json(text):
    """Domain spec from its JSON object (a string or a dict), keyed by ``variant``."""
    obj = json.loads(text) if isinstance(text, str) else dict(text)
    variant = obj.get("variant")
    if variant == "ellipsoid":
        return Ellipsoid(tuple(obj["p"]), tuple(obj["radii"]) if "radii" in obj else None)
    if variant == "annulus":
        return Annulus(float(obj["r"]))
    if variant == "polydisk":
        return Polydisk(int(obj["n"]))
    if variant == "symmetrized_bidisk":
        return SymmetrizedBidisk()
    raise ValueError(f"unknown domain variant {variant!r}")
