import cmath
import logging
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from suitaverify import domains
from suitaverify.green1d import (
    AnnulusGreen,
    CriticalLevelError,
    DiskGreen,
    covering_capacity_bound,
    level_flux_and_isoperimetric,
    robin_capacity,
    sublevel_volume,
    trace_level,
)
from suitaverify.numerics import DEFAULT_TOL, SampleStream
from suitaverify.suita import monotonicity_experiment

R = 0.2
W = math.sqrt(R)


@pytest.fixture(scope="module")
def annulus_green():
    return AnnulusGreen(R, W)


class SeriesGreen:
    """Reference route for the annulus: G = log|z - w| + H, H a cosine-mode series.

    H solves the Dirichlet problem with data -log|z - w| on both circles.
    After rotating the pole onto the positive axis the data is even, so H
    needs a log rho term and modes A_k rho^k + B_k rho^{-k}; each mode is a
    2x2 solve against the cosine expansion of log|z - w0| on a circle.  The
    modes converge like max(w0, r/w0)^k, independently of the product.
    """

    def __init__(self, r, w, target=1e-16):
        w0 = abs(w)
        self.r, self.w0, self.phase = r, w0, w / w0
        rate = max(w0, r / w0)
        n_modes = max(16, int(math.log(target * (1.0 - rate)) / math.log(rate)) + 1)
        k = np.arange(1, n_modes + 1, dtype=float)
        # cosine data of -log|z - w0|: 0 on rho = 1, -log w0 on rho = r; B rho^{-k}
        # is stored as btil (r/rho)^k with btil = B r^{-k}, bounded for every mode
        p_out = w0**k / k
        p_in = (r / w0) ** k / k
        rk = r**k
        self.btil = (p_in - p_out * rk) / (1.0 - rk * rk)
        self.a = p_out - self.btil * rk
        self.k = k
        self.c_log = -math.log(w0) / math.log(r)
        self.robin = self._harmonic(np.array([w]))[0]

    def _polar(self, z):
        zeta = np.asarray(z, dtype=complex) * np.conj(self.phase)
        return zeta, np.abs(zeta), np.angle(zeta)

    def _harmonic(self, z):
        _, rho, th = self._polar(z)
        rr = rho[..., None]
        modes = self.a * rr**self.k + self.btil * (self.r / rr) ** self.k
        return self.c_log * np.log(rho) + np.sum(modes * np.cos(self.k * th[..., None]), axis=-1)

    def value(self, z):
        zeta, _, _ = self._polar(z)
        return np.log(np.abs(zeta - self.w0)) + self._harmonic(z)

    def grad(self, z):
        zeta, rho, th = self._polar(z)
        k = self.k
        rr = rho[..., None]
        pk = self.a * rr**k
        qk = self.btil * (self.r / rr) ** k
        h_rho = self.c_log / rho + np.sum(k * (pk - qk) * np.cos(k * th[..., None]), axis=-1) / rho
        h_th = -np.sum(k * (pk + qk) * np.sin(k * th[..., None]), axis=-1)
        g_pole = (zeta - self.w0) / np.abs(zeta - self.w0) ** 2
        return (g_pole + zeta / rho * (h_rho + 1j * h_th / rho)) * self.phase


def _mp_green(r, w, z):
    """G from the prime-function product at 40 digits, factors down to 1e-42."""
    with mp.workdps(40):
        r, w, z = mp.mpf(r), mp.mpc(w), mp.mpc(z)
        q = r * r

        def prime(x):
            p, c = 1 - x, q
            while c > mp.mpf(10) ** -42:
                p *= (1 - c * x) * (1 - c / x)
                c *= q
            return p

        lw = mp.log(abs(w))
        pw = mp.log(abs(prime(z / w))) - mp.log(abs(prime(z * mp.conj(w))))
        return lw + pw - lw / mp.log(r) * mp.log(abs(z))


# on-axis pole sqrt(r) and an off-axis pole nearer the inner circle
SERIES_CASES = [
    pytest.param(r, w, id=f"r{r}-{where}")
    for r in (0.05, 0.2, 0.5, 0.9)
    for where, w in (("axis", math.sqrt(r)), ("off-axis", r**0.6 * cmath.exp(2.3j)))
]


class TestDiskGreen:
    def test_closed_form_values(self):
        g = DiskGreen(0.3 + 0.1j)
        z = np.array([0.5 - 0.2j])
        w = 0.3 + 0.1j
        expected = math.log(abs(z[0] - w) / abs(1 - np.conj(w) * z[0]))
        assert g.value(z)[0] == pytest.approx(expected, abs=1e-15)

    def test_vanishes_on_boundary(self):
        g = DiskGreen(0.4)
        th = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        assert np.abs(g.value(np.exp(1j * th))).max() < 1e-14

    def test_capacity_center(self):
        assert robin_capacity(DiskGreen(0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_capacity_offcenter(self):
        # exp of the Robin constant: G - log|z-w| -> -log(1 - |w|^2)
        assert robin_capacity(DiskGreen(0.5)) == pytest.approx(1.0 / 0.75, rel=1e-14)

    def test_pole_outside_rejected(self):
        with pytest.raises(ValueError):
            DiskGreen(1.2)


class TestAnnulusSolve:
    @pytest.mark.parametrize("r", [0.1, 0.2, 0.5])
    def test_boundary_residual(self, r):
        g = AnnulusGreen(r, math.sqrt(r))
        th = np.linspace(0, 2 * math.pi, 720, endpoint=False)
        outer = np.abs(g.value(np.exp(1j * th))).max()
        inner = np.abs(g.value(r * np.exp(1j * th))).max()
        assert max(outer, inner) < 1e-8

    def test_inversion_symmetry(self, annulus_green):
        # z -> r/z maps the annulus to itself and fixes the pole sqrt(r)
        rng = np.random.default_rng(1)
        zs = []
        while len(zs) < 50:
            z = complex(*rng.uniform(-1, 1, 2))
            if R + 0.02 < abs(z) < 0.98 and abs(z - W) > 0.05 and abs(R / z - W) > 0.05:
                zs.append(z)
        zs = np.array(zs)
        assert np.abs(annulus_green.value(R / zs) - annulus_green.value(zs)).max() < 1e-8

    def test_negative_inside(self, annulus_green):
        xs = np.linspace(-0.999, 0.999, 100)
        zz = xs[:, None] + 1j * xs[None, :]
        mask = (np.abs(zz) > R + 1e-6) & (np.abs(zz) < 1 - 1e-6) & (np.abs(zz - W) > 0.05)
        assert np.all(annulus_green.value(zz)[mask] < 0.0)

    def test_capacity_below_covering_bound(self, annulus_green):
        c = robin_capacity(annulus_green)
        assert c <= covering_capacity_bound(R)
        assert c == pytest.approx(covering_capacity_bound(R), rel=1e-4)

    @pytest.mark.parametrize("theta", [0.7, 2.0, 3.1])
    def test_robin_rotation_invariant(self, theta):
        # rotations are automorphisms of the annulus, so the Robin constant
        # depends on |w| only
        base = AnnulusGreen(R, 0.5).robin
        assert AnnulusGreen(R, 0.5 * np.exp(1j * theta)).robin == pytest.approx(base, abs=1e-12)

    def test_pole_validation(self):
        with pytest.raises(ValueError):
            AnnulusGreen(0.2, 0.1)
        with pytest.raises(ValueError):
            AnnulusGreen(0.9995, 0.9997)

    @pytest.mark.parametrize("r,w", SERIES_CASES)
    def test_product_matches_mode_series(self, r, w):
        g, ref = AnnulusGreen(r, w), SeriesGreen(r, w)
        rng = np.random.default_rng(7)
        rho = r + (1.0 - r) * rng.uniform(0.02, 0.98, 400)
        z = rho * np.exp(2j * math.pi * rng.random(400))
        # keep off the pole, where both routes' rounding grows with |grad G|
        z = z[np.abs(z - w) > 0.2 * min(1.0 - abs(w), abs(w) - r)]
        assert np.abs(g.value(z) - ref.value(z)).max() <= 1e-12
        assert np.abs(g.grad(z) - ref.grad(z)).max() <= 1e-12
        assert g.robin == pytest.approx(ref.robin, abs=1e-13)

    @pytest.mark.parametrize("r,w", [(0.2, 0.3 + 0.25j), (0.9, 0.93 * cmath.exp(-1j))], ids=["r0.2", "r0.9"])
    def test_value_matches_mpmath_product(self, r, w):
        g = AnnulusGreen(r, w)
        d = min(1.0 - abs(w), abs(w) - r)
        z = w + d * np.linspace(0.2, 0.6, 5) * np.exp(1j * np.linspace(0.0, 5.0, 5))
        ref = np.array([float(_mp_green(r, w, c)) for c in z])
        assert np.all(np.abs(ref) > 0.1)
        assert np.abs(g.value(z) / ref - 1.0).max() <= 1e-14

    def test_no_silent_cap_near_one(self):
        # the mode series stopped at 4000 modes here, with a tail bound of 9.2e-11
        r = 0.99
        g = AnnulusGreen(r, math.sqrt(r))
        assert g.tail_bound <= DEFAULT_TOL.abs_tol
        th = np.linspace(0, 2 * math.pi, 720, endpoint=False)
        assert np.abs(g.value(np.exp(1j * th))).max() <= 1e-12
        assert np.abs(g.value(r * np.exp(1j * th))).max() <= 1e-12

    def test_gradient_matches_finite_differences(self, annulus_green):
        h = 1e-7
        for z in (0.6 + 0.2j, -0.4 + 0.3j, 0.3 - 0.5j):
            g = annulus_green.grad(np.array([z]))[0]
            fx = (
                annulus_green.value(np.array([z + h]))[0]
                - annulus_green.value(np.array([z - h]))[0]
            ) / (2 * h)
            fy = (
                annulus_green.value(np.array([z + 1j * h]))[0]
                - annulus_green.value(np.array([z - 1j * h]))[0]
            ) / (2 * h)
            assert g.real == pytest.approx(fx, abs=1e-6)
            assert g.imag == pytest.approx(fy, abs=1e-6)


class TestCoveringMap:
    def test_bound_special_radius(self):
        # r = e^{-pi}: bound = pi / (2 e^{-pi/2} pi) = e^{pi/2} / 2
        assert covering_capacity_bound(math.exp(-math.pi)) == pytest.approx(
            math.exp(math.pi / 2) / 2, rel=1e-14
        )


class TestLevelCurves:
    @pytest.mark.parametrize("t", [-1.0, -2.0, -3.0])
    def test_flux_is_two_pi(self, annulus_green, t):
        stats = level_flux_and_isoperimetric(annulus_green, t)
        assert stats.flux == pytest.approx(2 * math.pi, abs=1e-6)

    def test_iso_ratio_at_least_one(self, annulus_green):
        for t in (-1.0, -2.0, -3.0):
            stats = level_flux_and_isoperimetric(annulus_green, t)
            assert stats.iso_ratio >= 1.0 - 1e-6

    def test_density_bounds_twice_area(self, annulus_green):
        # differential form of the sublevel monotonicity for n = 1
        stats = level_flux_and_isoperimetric(annulus_green, -2.0)
        assert stats.density >= 2.0 * stats.area

    def test_disk_circles(self):
        g = DiskGreen(0.0)
        for t in (-0.5, -1.5):
            stats = level_flux_and_isoperimetric(g, t)
            assert stats.flux == pytest.approx(2 * math.pi, abs=1e-9)
            assert stats.density == pytest.approx(2 * math.pi * math.exp(2 * t), rel=1e-9)
            assert stats.iso_ratio == pytest.approx(1.0, abs=1e-9)
            assert stats.area == pytest.approx(math.pi * math.exp(2 * t), rel=1e-9)

    def test_disk_density_near_zero_level(self):
        # d/dt lambda({G<t}) -> 2 lambda(disk) = 2 pi as t -> 0^-
        g = DiskGreen(0.0)
        stats = level_flux_and_isoperimetric(g, -1e-3)
        assert stats.density == pytest.approx(2 * math.pi, rel=1e-2)

    @pytest.mark.parametrize("t", [-4.0, -1.0, -0.1])
    @pytest.mark.parametrize("w", [0.0, 0.5, 0.6 * cmath.exp(2j), 0.9], ids=["0", "0.5", "0.6e^2i", "0.9"])
    def test_disk_traced_area_within_its_error(self, w, t):
        # { G < t } is the pseudo-hyperbolic disc of radius rho = e^t around w
        rho2, a = math.exp(2 * t), abs(w) ** 2
        exact = math.pi * rho2 * (1 - a) ** 2 / (1 - rho2 * a) ** 2
        stats = level_flux_and_isoperimetric(DiskGreen(w), t)
        assert abs(stats.area - exact) <= stats.area_err
        assert abs(stats.area - exact) <= 1e-11 * exact

    def test_critical_level_refused(self, annulus_green):
        with pytest.raises(CriticalLevelError):
            level_flux_and_isoperimetric(annulus_green, _saddle_level(annulus_green))

    def test_positive_level_rejected(self, annulus_green):
        with pytest.raises(ValueError):
            level_flux_and_isoperimetric(annulus_green, 0.5)

    def test_trace_matches_one_call_per_step_walk(self):
        # at t = -0.3 the rays need different numbers of steps
        g = AnnulusGreen(R, 0.5 * cmath.exp(2.0j))
        _assert_trace_matches_walk(g, -0.3, 64)

    def test_trace_takes_the_first_crossing_near_the_saddle(self):
        # just below the saddle value a ray past the inner circle leaves the
        # sublevel set, enters it again and leaves it once more; the trace
        # must bracket the first crossing, as the x1.2 walk does
        g = AnnulusGreen(R, 0.5 * cmath.exp(2.0j))
        e = cmath.exp(1j * (2.0 - math.pi))
        res = minimize_scalar(
            lambda x: float(np.abs(g.grad(np.array([x * e]))[0])),
            bounds=(R + 0.02, 0.95),
            method="bounded",
        )
        t = float(g.value(np.array([res.x * e]))[0]) - 0.02
        phis = np.arange(64) * (2.0 * math.pi / 64)
        crossings = []
        for phi in phis:
            s = np.linspace(0.0, float(g.boundary_distance(phi)) * (1.0 - 1e-12), 20001)[1:]
            above = g.value(g.pole + s * cmath.exp(1j * phi)) >= t
            crossings.append(int(np.count_nonzero(np.diff(above))))
        assert max(crossings) > 1
        _assert_trace_matches_walk(g, t, 64)


def _saddle_level(g):
    """Value of G at its saddle, on the negative real axis between the two circles."""
    res = minimize_scalar(
        lambda x: float(np.abs(g.grad(np.array([x + 0j]))[0])),
        bounds=(-0.95, -R - 0.02),
        method="bounded",
    )
    return float(g.value(np.array([res.x + 0j]))[0])


def _assert_trace_matches_walk(g, t, n_rays):
    """The traced radii lie in the brackets of a one-call-per-step walk and
    match a scalar brentq root at machine precision."""

    def walk(phi):
        d = cmath.exp(1j * phi)

        def f(s):
            return float(g.value(np.array([g.pole + s * d]))[0]) - t

        s_max = float(g.boundary_distance(phi)) * (1.0 - 1e-12)
        s_lo = min(0.25 * math.exp(t - g.robin), 0.5 * s_max)
        while f(s_lo) >= 0.0:
            s_lo *= 0.5
        while f(min(s_lo * 1.2, s_max)) < 0.0:
            s_lo = min(s_lo * 1.2, s_max)
        s_hi = min(s_lo * 1.2, s_max)
        return s_lo, s_hi, brentq(f, s_lo, s_hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)

    phis, s = trace_level(g, t, n_rays)
    lo, hi, root = np.array([walk(p) for p in phis]).T
    assert np.all((lo <= s) & (s <= hi))
    assert np.all(np.abs(s - root) <= 1e-12 + 1e-10 * s)


class TestSublevelVolume:
    def test_disk_center_monte_carlo(self):
        g = DiskGreen(0.0)
        for t in (-1.0, -2.0):
            v, e = sublevel_volume(g, t, SampleStream(2, seed=0), 2**18)
            assert abs(v - math.pi * math.exp(2 * t)) < max(3 * e, 1e-4)

    def test_balanced_exact(self):
        dom = domains.Ellipsoid((0.5, 1.0))
        v, e = sublevel_volume(dom, -1.0)
        assert e == 0.0
        assert v == pytest.approx(domains.volume(dom) * math.exp(-4.0), rel=1e-14)

    def test_annulus_normalized_limit(self, annulus_green):
        v, e = sublevel_volume(annulus_green, -4.0, SampleStream(2, seed=3), 2**19)
        normalized = math.exp(8.0) * v
        limit = math.pi / robin_capacity(annulus_green) ** 2
        assert abs(normalized / limit - 1.0) < 0.02

    def test_curve_monotone_within_errors(self):
        report = monotonicity_experiment(R, W, [-4, -3, -2, -1], SampleStream(2, seed=5), 2**17)
        norm = np.array([row["normalized"] for row in report.samples])
        err = np.array([row["normalized_stderr"] for row in report.samples])
        diffs = np.diff(norm)
        sigma = np.sqrt(err[:-1] ** 2 + err[1:] ** 2)
        assert np.all(diffs >= -3 * sigma)

    def test_curve_falls_back_to_hit_counting_at_the_saddle(self, annulus_green, caplog):
        t_saddle = _saddle_level(annulus_green)
        stream = SampleStream(2, seed=5)
        with caplog.at_level(logging.DEBUG, logger="suitaverify.suita"):
            report = monotonicity_experiment(R, W, [-2.0, t_saddle], stream, 2**14)
        routes = [row["route"] for row in report.samples]
        assert routes == ["trace", "hit-count"]
        v, e = sublevel_volume(annulus_green, t_saddle, stream.split(1), 2**14)
        assert (report.samples[1]["lambda"], report.samples[1]["stderr"]) == (v, e)
        assert report.samples[0]["lambda"] == level_flux_and_isoperimetric(annulus_green, -2.0).area
        logged = [r.getMessage().split(": ")[1].split()[0] for r in caplog.records]
        assert logged == routes

    def test_positive_t_rejected(self, annulus_green):
        with pytest.raises(ValueError):
            sublevel_volume(annulus_green, 0.5)
