"""High-precision reference values for the benchmark, independent of suitaverify.

Everything here is evaluated with mpmath at ``DPS`` significant digits (more
where a formula cancels) and returned as Python floats.  The formulas are
written out from the mathematics, not from the package's code:

* Bergman kernels of the ball and the polydisk, and of the ellipsoid
  ``{|z1| + |z2|^{2/p} < 1}`` at the axis point ``(b, 0)``;
* the annulus Bergman kernel as the Laurent sum ``sum_j |w|^{2j} / ||z^j||^2``
  over the squared monomial norms ``||z^j||^2 = pi (1 - r^{2j+2}) / (j + 1)``
  (``-2 pi log r`` for ``j = -1``);
* the annulus Green function from the Schottky-Klein prime function
  ``P(x) = (1 - x) prod_k (1 - q^k x)(1 - q^k / x)``, ``q = r^2``
  (Crowdy, CMFT 2010), with its Robin constant;
* the indicatrix volume at ``(b, 0, ..., 0)`` of the family below;
* ``F = (K * lambda(I))^{1/n}`` on the family ``{|z1| + sum |z_j|^{2m} < 1}``
  at ``(b, 0, ..., 0)`` as the product of the kernel and indicatrix-volume
  closed forms, and its maximum over ``b``;
* the symmetrized-bidisk volume ``pi^2 / 2``.
"""
from __future__ import annotations

import math

import mpmath as mp

DPS = 30

__all__ = [
    "DPS",
    "ball_kernel",
    "polydisk_kernel",
    "ellipsoid_axis_kernel",
    "annulus_kernel",
    "annulus_green",
    "annulus_green_grad",
    "annulus_robin",
    "ell1_F",
    "ell1_F_max",
    "ell1_indicatrix_volume",
    "g2_volume",
]


def ball_kernel(w):
    """K(w) = n! / pi^n (1 - |w|^2)^{-(n+1)} on the unit ball of C^n."""
    with mp.workdps(DPS):
        n = len(w)
        s = mp.fsum(mp.mpf(abs(x)) ** 2 for x in w)
        return float(mp.factorial(n) / mp.pi**n / (1 - s) ** (n + 1))


def polydisk_kernel(w):
    """K(w) = prod_j 1 / (pi (1 - |w_j|^2)^2) on the unit polydisk."""
    with mp.workdps(DPS):
        k = mp.mpf(1)
        for x in w:
            k /= mp.pi * (1 - mp.mpf(abs(x)) ** 2) ** 2
        return float(k)


def ellipsoid_axis_kernel(p, b):
    """K((b, 0)) = (p+1)/(4 pi^2 b) ((1-b)^{-p-2} - (1+b)^{-p-2}) on {|z1| + |z2|^{2/p} < 1}."""
    with mp.workdps(DPS + 20):
        p, b = mp.mpf(p), mp.mpf(b)
        return float((p + 1) / (4 * mp.pi**2 * b) * ((1 - b) ** (-p - 2) - (1 + b) ** (-p - 2)))


def annulus_kernel(r, w):
    """Bergman kernel of {r < |z| < 1} at w from the Laurent monomial norms."""
    with mp.workdps(DPS):
        r, x = mp.mpf(r), mp.mpf(abs(complex(w))) ** 2
        eps = mp.mpf(10) ** (-DPS - 5)
        total = x**-1 / (-2 * mp.pi * mp.log(r))
        j = 0
        while True:
            # j >= 0 and its mirror -j-2 (the j = -1 slot is the log term above)
            up = x**j * (j + 1) / (mp.pi * (1 - r ** (2 * j + 2)))
            k = j + 1
            down = x ** (-k - 1) * k * r ** (2 * k) / (mp.pi * (1 - r ** (2 * k)))
            total += up + down
            if up + down < eps * total:
                return float(total)
            j += 1


def _prime(x, q, eps):
    prod = 1 - x
    qk = q
    while qk > eps:
        prod *= (1 - qk * x) * (1 - qk / x)
        qk *= q
    return prod


def _green_mp(r, w, z):
    r = mp.mpf(r)
    w = mp.mpc(w)
    z = mp.mpc(z)
    q = r * r
    eps = mp.mpf(10) ** (-mp.mp.dps - 2)
    lw = mp.log(abs(w))
    return (
        lw
        + mp.log(abs(_prime(z / w, q, eps)))
        - mp.log(abs(_prime(z * mp.conj(w), q, eps)))
        - lw / mp.log(r) * mp.log(abs(z))
    )


def annulus_green(r, w, z):
    """Green function of {r < |z| < 1} with pole w, evaluated at z.

    G = log|w| + log|P(z/w)| - log|P(z conj(w))| - (log|w| / log r) log|z|;
    the last two terms make G vanish on |z| = 1 and on |z| = r.
    """
    with mp.workdps(DPS):
        return float(_green_mp(r, complex(w), complex(z)))


def annulus_green_grad(r, w, z):
    """Gradient gx + i gy of the Green function by central differences (step 1e-12)."""
    with mp.workdps(DPS + 10):
        h = mp.mpf(10) ** -12
        z = mp.mpc(complex(z))
        gx = (_green_mp(r, w, z + h) - _green_mp(r, w, z - h)) / (2 * h)
        gy = (_green_mp(r, w, z + 1j * h) - _green_mp(r, w, z - 1j * h)) / (2 * h)
        return complex(float(gx), float(gy))


def annulus_robin(r, w):
    """lim_{z->w} G(z) - log|z - w| for the prime-function Green function."""
    with mp.workdps(DPS):
        r = mp.mpf(r)
        a = mp.mpf(abs(complex(w)))
        q = r * r
        eps = mp.mpf(10) ** (-DPS - 2)
        s = mp.mpf(0)
        qk = q
        while qk > eps:
            s += 2 * mp.log(1 - qk)
            qk *= q
        return float(s - mp.log(_prime(a * a, q, eps)) - mp.log(a) ** 2 / mp.log(r))


def _ell1_F_mp(m, n, b):
    a = (n - 1) / mp.mpf(m) + 2
    # K (b,0,..) * lambda(I): kernel closed form times indicatrix-volume closed form;
    # the slice volume omega cancels between the two factors
    prod = (
        ((1 - b) ** (-a) - (1 + b) ** (-a))
        * (1 - b) ** a
        * ((1 - b) ** a + 2 * a * b)
        / (2 * a * b)
    )
    return prod ** (mp.mpf(1) / n)


def ell1_F(m, n, b):
    """F at (b, 0, ..., 0) on {|z1| + |z2|^{2m} + ... + |z_n|^{2m} < 1}."""
    # the product cancels like b^2 against 1, so carry extra digits
    with mp.workdps(DPS + 40):
        return float(_ell1_F_mp(m, n, mp.mpf(b)))


def ell1_indicatrix_volume(m, n, b):
    """Volume of the Kobayashi indicatrix at (b, 0, ..., 0) of the ell1 family.

    2 pi omega (1-b)^a ((1-b)^a + 2ab) / (a (a-1)), a = (n-1)/m + 2, where
    omega = pi^k Gamma(1 + 1/m)^k / Gamma(1 + k/m) is the volume of the slice
    {sum_{j<=k} |z_j|^{2m} < 1}, k = n - 1.
    """
    with mp.workdps(DPS):
        m, b, k = mp.mpf(m), mp.mpf(b), n - 1
        a = k / m + 2
        omega = mp.pi**k * mp.gamma(1 + 1 / m) ** k / mp.gamma(1 + k / m)
        return float(2 * mp.pi * omega * (1 - b) ** a * ((1 - b) ** a + 2 * a * b) / (a * (a - 1)))


def ell1_F_max(m, n):
    """(b*, F*) maximizing ell1_F over b in (0, 1)."""
    with mp.workdps(DPS + 40):
        f = lambda b: _ell1_F_mp(m, n, b)
        grid = [mp.mpf(i) / 64 for i in range(1, 64)]
        i = max(range(len(grid)), key=lambda j: f(grid[j]))
        bracket = (grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)])
        b_star = mp.findroot(
            lambda b: mp.diff(f, b), bracket, solver="anderson", tol=mp.mpf(10) ** (-2 * DPS)
        )
        return float(b_star), float(f(b_star))


def g2_volume():
    """Lebesgue volume pi^2 / 2 of the symmetrized bidisk."""
    return math.pi**2 / 2.0
