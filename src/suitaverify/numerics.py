"""Shared numerical kernels: root bracketing, adaptive quadrature, sample streams.

Everything here is pure and reentrant; streams are value objects that can be
split by seed derivation for parallel grids.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate
from scipy.optimize import elementwise
from scipy.stats import qmc

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "BracketError",
    "ConvergenceError",
    "SampleStream",
    "find_root_monotone",
    "integrate_1d",
    "golden_section_max",
]


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its iteration budget."""


@dataclass(frozen=True)
class Tolerance:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


DEFAULT_TOL = Tolerance()


def find_root_monotone(f, lo, hi, tol=DEFAULT_TOL, args=()):
    """Root of a continuous monotone function on a bracketing interval.

    Chandrupatla's bracketing method (``scipy.optimize.elementwise``): ``f``
    acts elementwise, ``lo``/``hi`` may be arrays of brackets broadcast with
    the per-element data in ``args``, and every bracket is solved at once.
    Raises BracketError when some f(lo) and f(hi) have the same strict sign
    and ConvergenceError when any other element fails (iteration budget,
    non-finite values).
    """
    res = elementwise.find_root(
        f,
        (lo, hi),
        args=args,
        tolerances=dict(xatol=max(tol.abs_tol, 1e-300), xrtol=max(tol.rel_tol, 4 * np.finfo(float).eps)),
        maxiter=tol.max_iter,
    )
    status = np.asarray(res.status)
    if np.any(status == -1):
        raise BracketError(f"no sign change on {np.count_nonzero(status == -1)} of {status.size} brackets")
    if np.any(status != 0):
        raise ConvergenceError(f"root finder failed (status {status.min()}) within {tol.max_iter} iterations")
    return float(res.x) if np.ndim(res.x) == 0 else res.x


def integrate_1d(f, a, b, tol=DEFAULT_TOL, knots=()):
    """Adaptive quadrature of f on [a, b].

    ``knots`` lists interior points where the integrand has a kink; the
    interval is split there so each panel sees a smooth integrand.
    """
    if a > b:
        raise ValueError("require a <= b")
    if a == b:
        return 0.0
    pts = sorted(x for x in knots if a < x < b)
    edges = [a] + pts + [b]
    total = 0.0
    err_total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for x0, x1 in zip(edges[:-1], edges[1:]):
            try:
                val, err = integrate.quad(
                    f,
                    x0,
                    x1,
                    epsabs=tol.abs_tol,
                    epsrel=max(tol.rel_tol, 1e-13),
                    limit=max(tol.max_iter, 50),
                )
            except integrate.IntegrationWarning as exc:
                raise ConvergenceError(
                    f"quadrature did not converge on [{x0}, {x1}]: {exc}"
                ) from exc
            total += val
            err_total += err
    bound = max(tol.abs_tol, tol.rel_tol * abs(total))
    if err_total > max(bound, 1e-10 * abs(total) + 1e-14):
        raise ConvergenceError(
            f"quadrature error estimate {err_total:.3g} exceeds requested {bound:.3g}"
        )
    return total


@dataclass(frozen=True)
class SampleStream:
    """Deterministic point stream in the unit cube.

    The same (dimension, seed, kind) always reproduces the identical sequence.
    ``kind`` is 'low-discrepancy' (scrambled Sobol) or 'pseudo-random' (PCG64).
    """

    dimension: int
    seed: int = 0
    kind: str = "low-discrepancy"

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.kind not in ("low-discrepancy", "pseudo-random"):
            raise ValueError(f"unknown stream kind {self.kind!r}")

    def points(self, count):
        if count < 1:
            raise ValueError("count must be >= 1")
        if self.kind == "pseudo-random":
            rng = np.random.default_rng(self.seed)
            return rng.random((count, self.dimension))
        with warnings.catch_warnings():
            # balance warning for non power-of-two counts is informational
            warnings.simplefilter("ignore", UserWarning)
            engine = qmc.Sobol(d=self.dimension, scramble=True, seed=self.seed)
            return engine.random(count)

    def split(self, index):
        """Derived stream for parallel cell ``index`` of a grid."""
        return replace(self, seed=(self.seed ^ (0x9E3779B9 * (index + 1))) & (2**64 - 1))


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo, hi, tol=1e-8, max_iter=200, coarse=64):
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
    for _ in range(max_iter):
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
