"""Seeded input generation for the benchmark workloads.

Uses numpy only: the library under test never sees the seed, just the
plain numbers made here.  Every workload draws its varying inputs from
fixed strata, so the amount of work, and hence the timing, changes little
from seed to seed while the inputs themselves do.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["WORKLOADS", "generate"]

# p family {|z1|^{2m} + |z2|^2 < 1}: the m values of the paper's figure, fixed
# edge points in b, where the envelope pipeline is least accurate (it gives
# F < 1 up to b = 0.05 at m = 128 and from b = 0.99 at m = 1/2), and seeded
# points between them.  The edge zone holds fixed points only, so that every
# seed meets the known defect there at the same points, and a run's count of
# failed checks does not depend on the seed.
P_M = (0.5, 2.0, 8.0, 32.0, 128.0)
P_EDGES = (0.001, 0.005, 0.01, 0.02, 0.03, 0.05, 0.99, 0.995)
P_SEEDED_RANGE = (0.08, 0.95)
P_SEEDED = 8
# ell1 family {|z1| + sum |z_j|^{2m} < 1}: closed form, down to b = 1e-8
ELL1_M = (0.5, 1.0, 2.0)
ELL1_N = (2, 3, 4, 5, 6)
ELL1_SMALL_B = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
ELL1_SEEDED = 8

# annulus cases: (r range, log-uniform?, |w| jitter); the last is the fixed
# r = 0.9 edge with its pole at sqrt(r), so the mode count (and memory) is fixed.
# A level curve's cost (brentq steps per ray) depends on where the level sits,
# so each range holds several cases, with r and the level in equal strata.
ANNULUS_STRATA = ((0.01, 0.1, True, 0.15), (0.1, 0.6, False, 0.15), (0.9, 0.9, False, 0.0))
CASES_PER_STRATUM = 2
LEVEL_NODES = 1024
GREEN_BATCH = 1024
GREEN_ORACLE_VALUES = 16
GREEN_ORACLE_GRADS = 4
SUBLEVEL_COUNT = 2**14
MONOTONICITY_COUNT = 2**15

# off-axis kernel points: (kind, n, Minkowski-functional range, points).  The
# series' cost grows steeply with the functional h, about like |log h|^-n, so
# each range is cut into strata of equal cost, one point each: the total work,
# and with it the timing, then varies little from seed to seed.
OFFAXIS_STRATA = (
    ("ball", 2, 0.3, 0.85, 4),
    ("polydisk", 2, 0.3, 0.85, 4),
    ("ellipsoid", 2, 0.3, 0.85, 4),
    ("ball", 3, 0.4, 0.65, 4),
    ("polydisk", 3, 0.4, 0.65, 4),
    ("ellipsoid", 3, 0.4, 0.65, 4),
)
AXIS_ANCHORS = 2

WORKLOADS = ("family-scan", "annulus-green", "offaxis-kernel", "verify-all")


def _rng(workload, seed):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _logit_strata(rng, lo, hi, count):
    """One point per equal-width stratum of logit(b) over [logit(lo), logit(hi)]."""
    a, b = math.log(lo / (1 - lo)), math.log(hi / (1 - hi))
    x = a + (b - a) * (np.arange(count) + rng.random(count)) / count
    return [float(v) for v in 1.0 / (1.0 + np.exp(-x))]


def _family_scan(rng):
    p_b = sorted(P_EDGES + tuple(_logit_strata(rng, *P_SEEDED_RANGE, P_SEEDED)))
    ell1_b = sorted(ELL1_SMALL_B + tuple(_logit_strata(rng, 1e-3, 0.999, ELL1_SEEDED)))
    return {
        "p_m": list(P_M),
        "p_b": p_b,
        "ell1_m": list(ELL1_M),
        "ell1_n": list(ELL1_N),
        "ell1_b": ell1_b,
        "max_ell1": {"m": float(0.5 + 3.5 * rng.random()), "n": int(rng.integers(2, 5))},
        # m = 1/2 is the one p-family member with a closed-form maximum
        "max_p": {"m": 0.5},
    }


def _annulus_green(rng):
    cases = []
    for lo, hi, log_uniform, jitter in ANNULUS_STRATA:
        for i in range(CASES_PER_STRATUM):
            u, v = (i + rng.random(2)) / CASES_PER_STRATUM
            r = math.exp(math.log(lo) + u * math.log(hi / lo)) if log_uniform else lo + u * (hi - lo)
            w0 = math.sqrt(r) * r ** (jitter * (2.0 * rng.random() - 1.0))
            phase = 2 * math.pi * rng.random()
            w = w0 * complex(math.cos(phase), math.sin(phase))
            d = min(1.0 - w0, w0 - r)
            # G_annulus >= G_unit_disk, so {G < log(s d)} lies inside the disc's
            # pseudo-hyperbolic ball of radius s*d around the pole, well away from
            # both circles: one regular level curve, below the saddle value
            t = math.log((0.15 + 0.2 * v) * d)
            # the oracle checks the first points, placed within d of the pole where G and
            # its gradient are of order one; the rest spread over the annulus
            k = max(GREEN_ORACLE_VALUES, GREEN_ORACLE_GRADS)
            near = w + d * (0.2 + 0.7 * rng.random(k)) * np.exp(2j * math.pi * rng.random(k))
            rho = r + (1 - r) * (0.1 + 0.8 * rng.random(4 * GREEN_BATCH))
            far = rho * np.exp(2j * math.pi * rng.random(4 * GREEN_BATCH))
            z = np.concatenate((near, far[np.abs(far - w) > 0.1 * d]))[:GREEN_BATCH]
            cases.append({"r": r, "w": [w.real, w.imag], "t": t, "z": [[c.real, c.imag] for c in z]})
    first = cases[0]
    monotonicity = {
        "r": first["r"],
        "w": first["w"],
        "t_grid": [first["t"] - k for k in (3.0, 2.0, 1.0, 0.0)],
        "stream_seed": int(rng.integers(2**31)),
        "count": MONOTONICITY_COUNT,
    }
    return {
        "cases": cases,
        "nodes": LEVEL_NODES,
        "monotonicity": monotonicity,
        "sublevel_seed": int(rng.integers(2**31)),
    }


def _direction(rng, kind, exps):
    """|u_j| of a boundary point: sum |u_j|^{2 p_j} = 1 (max |u_j| = 1 for the polydisk)."""
    n = len(exps)
    if kind == "polydisk":
        mags = np.concatenate(([1.0], 0.2 + 0.8 * rng.random(n - 1)))
        return rng.permutation(mags)
    theta = rng.dirichlet(np.full(n, 2.0))
    return theta ** (1.0 / (2.0 * np.asarray(exps)))


def _offaxis_kernel(rng):
    points = []
    for kind, n, lo, hi, count in OFFAXIS_STRATA:
        c_lo, c_hi = (-math.log(lo)) ** -n, (-math.log(hi)) ** -n
        cost = c_lo + (c_hi - c_lo) * (np.arange(count) + rng.random(count)) / count
        for h in np.exp(-(cost ** (-1.0 / n))):
            exps = [1.0] * n if kind != "ellipsoid" else [float(p) for p in 1.0 + 3.0 * rng.random(n)]
            mags = h * _direction(rng, kind, exps)
            phases = np.exp(2j * math.pi * rng.random(n))
            w = mags * phases
            points.append({"kind": kind, "exps": exps, "w": [[c.real, c.imag] for c in w]})
    anchors = [
        {"p": float(0.5 + 1.5 * rng.random()), "b": float(0.2 + 0.6 * rng.random())}
        for _ in range(AXIS_ANCHORS)
    ]
    return {"points": points, "axis": anchors}


def generate(workload, seed):
    """Inputs of ``workload`` for ``seed``: plain lists, floats and ints."""
    rng = _rng(workload, seed)
    if workload == "family-scan":
        return _family_scan(rng)
    if workload == "annulus-green":
        return _annulus_green(rng)
    if workload == "offaxis-kernel":
        return _offaxis_kernel(rng)
    if workload == "verify-all":
        return {"argv": ["verify-all"]}
    raise ValueError(f"unknown workload {workload!r}")
