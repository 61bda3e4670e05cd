import cmath
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from suitaverify.green1d import (
    AnnulusGreen,
    CriticalLevelError,
    DiskGreen,
    covering_capacity_bound,
    level_flux_and_isoperimetric,
    robin_capacity,
    sublevel_volume,
)
from suitaverify.green1d import _CEILING_CHANGE, _CELL_MARGIN, _cell_bounds, _cell_states, _crossings, _sublevel_box
from suitaverify.numerics import SampleStream
from suitaverify.suita import monotonicity_experiment

import oracle  # perfbench/oracle.py, the mpmath references the benchmark checks against

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


# on-axis pole sqrt(r) and an off-axis pole nearer the inner circle
SERIES_CASES = [
    pytest.param(r, w, id=f"r{r}-{where}")
    for r in (0.05, 0.2, 0.5, 0.9)
    for where, w in (("axis", math.sqrt(r)), ("off-axis", r**0.6 * cmath.exp(2.3j)))
]

# regular levels whose trapezoid sums settle at or below 2048 nodes: seven at the fixture's pole,
# three at each of three more poles, up to t = -0.1; at (0.05, 0.6), whose saddle lies at t = -0.076,
# the level t = -0.1 still moves by 1e-3 at 2048 nodes, so its highest level is -0.2
REGULAR_LEVELS = [(R, W, t) for t in (-6.0, -5.0, -4.0, -3.0, -2.0, -1.0, -0.5)] + [
    (r, w, t)
    for r, w, ts in ((0.2, 0.5, (-1.0, -0.5, -0.1)), (0.05, 0.6, (-1.0, -0.5, -0.2)), (0.5, 0.7, (-1.0, -0.5, -0.1)))
    for t in ts
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

    @pytest.mark.parametrize("r", [0.015, 0.2, 0.9])
    @pytest.mark.parametrize("where", ["next-to-inner", "sqrt", "next-to-outer"])
    def test_robin_matches_mpmath_next_to_the_circles(self, r, where):
        # 1 - |w|^2 and 1 - r^2 / |w|^2 cancel next to the circles unless taken as products
        w0 = {"next-to-inner": r * (1.0 + 1e-7), "sqrt": math.sqrt(r), "next-to-outer": 1.0 - 1e-7}[where]
        assert AnnulusGreen(r, w0).robin == pytest.approx(oracle.annulus_robin(r, w0), abs=1e-14)

    def test_pole_validation(self):
        with pytest.raises(ValueError):
            AnnulusGreen(0.2, 0.1)

    def test_logs_its_image_count(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="suitaverify"):
            g = AnnulusGreen(R, W)
        (rec,) = [r for r in caplog.records if r.name == "suitaverify.green1d"]
        assert rec.levelno == logging.DEBUG
        assert rec.args == (g.n_modes, g.tail_bound)
        assert g.n_modes == 7

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
        ref = np.array([oracle.annulus_green(r, w, c) for c in z])
        assert np.all(np.abs(ref) > 0.1)
        assert np.abs(g.value(z) / ref - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("r,w", [(0.2, 0.45 * cmath.exp(-2j)), (0.9, 0.95 * cmath.exp(1.1j))], ids=["r0.2", "r0.9"])
    def test_value_next_to_the_circles_matches_mpmath_product(self, r, w):
        # G vanishes on the circles, so there its relative error is that of log(|z|/r) and -log|z|,
        # which the rounding of |z| alone would make 1e-16 / (distance from the circle)
        g = AnnulusGreen(r, w)
        gap = (1.0 - r) * np.geomspace(1e-3, 0.1, 12)
        phase = np.angle(w) + np.random.default_rng(3).uniform(-0.3, 0.3, 24)
        z = np.concatenate((r + gap, 1.0 - gap)) * np.exp(1j * phase)
        ref = np.array([oracle.annulus_green(r, w, c) for c in z])
        assert np.abs(g.value(z) / ref - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("r", [1e-160, 1e-200])
    def test_value_where_r_squared_underflows(self, r):
        # |z|^2 - r^2 is then summed from z and r scaled by a power of two; log|z| - log r would be
        # 3.4e-12 off at |z| = 1.001 r
        z = np.array([-0.9, 0.3j, 0.75 + 0.1j, 1e-3 - 2e-3j, math.sqrt(r) * 1j, 1.001 * r])
        z = np.append(z, 2.0 * r * cmath.exp(1j))
        ref = np.array([oracle.annulus_green(r, 0.5, c) for c in z])
        assert np.abs(AnnulusGreen(r, 0.5).value(z) / ref - 1.0).max() <= 1e-14

    def test_no_silent_cap_near_one(self):
        # the mode series stopped at 4000 modes here, with a tail bound of 9.2e-11
        r = 0.99
        g = AnnulusGreen(r, math.sqrt(r))
        assert g.tail_bound <= 1e-12
        th = np.linspace(0, 2 * math.pi, 720, endpoint=False)
        assert np.abs(g.value(np.exp(1j * th))).max() <= 1e-12
        assert np.abs(g.value(r * np.exp(1j * th))).max() <= 1e-12

    def test_next_to_r_equal_one(self):
        # a product or q-series in r^2 would need some 10^5 pairs here; one strip image suffices
        r = 0.9999
        g = AnnulusGreen(r, math.sqrt(r))
        assert g.n_modes == 1
        th = np.linspace(0, 2 * math.pi, 720, endpoint=False)
        assert np.abs(g.value(np.exp(1j * th))).max() <= 1e-12
        assert np.abs(g.value(r * np.exp(1j * th))).max() <= 1e-12
        # far from the pole, |Im| of the strip coordinates reaches pi^2 / (2h) ~ 5e4
        assert np.all(np.isfinite(g.grad(math.sqrt(r) * np.exp(1j * th[1:]))))
        for t in (-0.5, -2.0):
            st = level_flux_and_isoperimetric(g, t)
            assert st.flux == pytest.approx(2 * math.pi, abs=1e-6)
            hit, err = sublevel_volume(g, t, SampleStream(2, seed=1), 2**16)
            assert abs(hit - st.area) <= 3.0 * math.hypot(err, st.area_err)

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

    @pytest.mark.parametrize("r,w0,t", [(0.015, 0.08, -4.5), (0.02, 0.087, -4.5), (0.4, 0.66, -2.5)])
    def test_flux_is_two_pi_to_rounding(self, r, w0, t):
        # the flux moves to first order with the crossing radius s, and these levels have a small s
        stats = level_flux_and_isoperimetric(AnnulusGreen(r, w0 * cmath.exp(0.7j)), t)
        assert stats.flux == pytest.approx(2 * math.pi, abs=1e-14)

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

    @pytest.mark.parametrize("r,w,t", REGULAR_LEVELS)
    def test_regular_level_on_few_nodes(self, r, w, t):
        g = AnnulusGreen(r, w)
        st = level_flux_and_isoperimetric(g, t)
        ref = _one_shot_area(g, t, 2048)
        assert abs(st.area - ref) <= 4e-15 * ref
        assert abs(st.flux - 2 * math.pi) <= 5e-15
        if (r, w) == (R, W):
            # at t = -6 the density sum moves by 7.5 ulp from 128 to 256 nodes, rounding of its small s
            assert st.nodes == (512 if t == -6.0 else 256)
        if (r, w, t) == (0.05, 0.6, -0.2):
            # 128 nodes are 1.9e-11 off here
            assert st.nodes == 512

    def test_doubled_grid_is_a_one_shot_grid(self, caplog):
        # the sums at r = 0.9 carry rounding noise of some 1e-15, so this level reaches the ceiling
        g = AnnulusGreen(0.9, math.sqrt(0.9))
        with caplog.at_level(logging.DEBUG, logger="suitaverify.green1d"):
            st = level_flux_and_isoperimetric(g, -4.5, 1024)
        assert st.nodes == 1024
        assert st.area == _one_shot_area(g, -4.5, 1024)
        (rec,) = [r for r in caplog.records if r.getMessage().startswith("level t=")]
        t, nodes, change, ceiling = rec.args
        assert (t, nodes, ceiling) == (-4.5, 1024, True)
        assert 4 * 2.0**-52 < change < 1e-14
        assert st.area_err < 1e-11 * st.area

    def test_logs_its_nodes(self, annulus_green, caplog):
        with caplog.at_level(logging.DEBUG, logger="suitaverify.green1d"):
            st = level_flux_and_isoperimetric(annulus_green, -2.0)
        (rec,) = [r for r in caplog.records if r.name == "suitaverify.green1d"]
        assert rec.levelno == logging.DEBUG
        t, nodes, change, ceiling = rec.args
        assert (t, nodes, ceiling) == (-2.0, st.nodes, False) and st.nodes == 256
        assert change <= 4 * 2.0**-52

    @pytest.mark.parametrize("r, w", [(R, W), (0.05, 0.6), (0.5, 0.7)])
    def test_levels_near_the_saddle_refused_or_as_on_2048_nodes(self, r, w):
        g = AnnulusGreen(r, w)
        t0, accepted = _saddle_level(g), 0
        levels = [t0 - 10.0**-k for k in range(1, 9)] + [t0 + 10.0**-k for k in range(3, 9)]
        # at (0.5, 0.7) the saddle lies at -2.6e-6, and the levels above it that reach 0 are no levels
        for t in [t for t in levels if t < 0.0]:
            try:
                st = level_flux_and_isoperimetric(g, t)
            except CriticalLevelError:
                continue
            accepted += 1
            assert abs(st.area - _one_shot_area(g, t, 2048)) <= 1e-12
        assert accepted

    def test_level_still_moving_at_the_ceiling_refused(self):
        # 0.024 below the saddle value (-0.076): at 2048 nodes its sums still move by 1.25e-3 from 1024,
        # and its flux would be 1.4e-4 off 2 pi
        with pytest.raises(CriticalLevelError, match=r"t=-0\.1 is not resolved on 2048 nodes \(sums move by 0\.00125 from n/2\)"):
            level_flux_and_isoperimetric(AnnulusGreen(0.05, 0.6), -0.1)

    def test_level_slow_at_the_ceiling_kept(self, caplog):
        # its sums move by 3.9e-9 from 1024 to 2048 nodes, far above rounding and below the refusal
        with caplog.at_level(logging.DEBUG, logger="suitaverify.green1d"):
            st = level_flux_and_isoperimetric(AnnulusGreen(0.5, 0.7), -0.01)
        (rec,) = [r for r in caplog.records if r.getMessage().startswith("level t=")]
        t, nodes, change, ceiling = rec.args
        assert (nodes, ceiling) == (2048, True) and 1e-9 < change < _CEILING_CHANGE
        assert st.nodes == 2048 and abs(st.flux - 2 * math.pi) <= 5e-15

    def test_level_with_a_small_gradient_refused(self):
        # no critical point: on a thin annulus this level runs along the outer circle far from the pole,
        # where |grad G| falls to 3.1e-5
        with pytest.raises(CriticalLevelError, match=r"min \|grad G\| = 3\.14e-05"):
            level_flux_and_isoperimetric(AnnulusGreen(0.99, math.sqrt(0.99)), -1e-7)

    def test_level_hugging_the_boundary_refused(self):
        # 1e-12 below 0 the ray through the saddle, phi = pi, meets no crossing before the inner circle
        with pytest.raises(CriticalLevelError, match=f"no level crossing found along ray phi={re.escape(str(math.pi))}$"):
            level_flux_and_isoperimetric(AnnulusGreen(0.5, 0.7), -1e-12)

    def test_odd_or_few_nodes_refused(self, annulus_green):
        # s[::2] of an odd grid is no uniform half grid: at 101 nodes area_err was 1.1e-2 of the area
        for n_nodes in (101, 2047, 6, 0, -2):
            with pytest.raises(ValueError, match="n_nodes"):
                level_flux_and_isoperimetric(annulus_green, -2.0, n_nodes)
        st = level_flux_and_isoperimetric(annulus_green, -2.0, 100)
        assert st.nodes == 100 and st.area_err < 1e-11 * st.area

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        r=st.floats(1e-4, 0.999),
        inner=st.booleans(),
        where=st.floats(0.0, 1.0),
        arg=st.floats(0.0, 2.0 * math.pi),
        t=st.floats(-30.0, -1e-3),
    )
    def test_every_ray_starts_below_the_level(self, r, inner, where, arg, t):
        # the trace starts at gap e^t / 1.2 (maximum principle for G - log|z - w|); |w| lies
        # between 1e-7 off one circle and sqrt(r), log-uniformly in its distance to that circle
        far = math.sqrt(r) - r if inner else 1.0 - math.sqrt(r)
        delta = 1e-7 * (far / 1e-7) ** where
        w0 = r + delta if inner else 1.0 - delta
        g = AnnulusGreen(r, w0 * cmath.exp(1j * arg))
        assert g.gap == pytest.approx(min(1.0 - w0, w0 - r), rel=1e-8)
        # a uniform grid of rays and the ray towards the nearest boundary point
        phis = np.append(np.arange(512) * (2.0 * math.pi / 512), arg + (math.pi if inner else 0.0))
        lo = g.gap * math.exp(t) / 1.2
        # below the spacing of floats at w a start rounds to the pole itself, where G = -inf
        with np.errstate(divide="ignore"):
            assert np.all(g.value(g.pole + lo * np.exp(1j * phis)) < t)
        disk = DiskGreen(0.0)
        assert np.all(disk.value(disk.gap * math.exp(t) / 1.2 * np.exp(1j * phis)) < t)

    def test_level_too_near_the_pole_refused(self, annulus_green):
        # e^t underflows: the trace has no start below the level
        with pytest.raises(CriticalLevelError):
            level_flux_and_isoperimetric(annulus_green, -800.0)

    @pytest.mark.parametrize("t", [-20.0, -22.0])
    def test_level_whose_start_rounds_at_the_pole_refused(self, t):
        # 1e-7 from the outer circle the start gap e^t / 1.2 lies 1.5 (t = -20) or 0.2 (t = -22)
        # float spacings from the pole: the traced flux would be 4e-3 or 1e3 off
        with pytest.raises(CriticalLevelError):
            level_flux_and_isoperimetric(AnnulusGreen(0.2, 1.0 - 1e-7), t)

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
    """Value of G at its saddle, on the negative real axis between the two circles, for a pole on the positive axis."""
    res = minimize_scalar(
        lambda x: float(np.abs(g.grad(np.array([x + 0j]))[0])),
        bounds=(-0.95, -g.inner - 0.02),
        method="bounded",
    )
    return float(g.value(np.array([res.x + 0j]))[0])


def _one_shot_area(g, t, n_nodes):
    """The area 0.5 sum s^2 dphi of one trace of all n_nodes rays."""
    dphi = 2.0 * math.pi / n_nodes
    s = _crossings(g, t, np.arange(n_nodes) * dphi)
    return 0.5 * float(np.sum(s**2) * dphi)


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

    phis = np.arange(n_rays) * (2.0 * math.pi / n_rays)
    s = _crossings(g, t, phis)
    lo, hi, root = np.array([walk(p) for p in phis]).T
    assert np.all((lo <= s) & (s <= hi))
    assert np.all(np.abs(s - root) <= 1e-12 + 1e-10 * s)


class TestSublevelVolume:
    def test_disk_center_monte_carlo(self):
        g = DiskGreen(0.0)
        for t in (-1.0, -2.0):
            v, e = sublevel_volume(g, t, SampleStream(2, seed=0), 2**18)
            assert abs(v - math.pi * math.exp(2 * t)) < max(3 * e, 1e-4)

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

    def test_curve_falls_back_to_hit_counting_where_the_trace_is_unresolved(self):
        # the level of test_level_still_moving_at_the_ceiling_refused
        stream = SampleStream(2, seed=5)
        report = monotonicity_experiment(0.05, 0.6, [-0.5, -0.1], stream, 2**14)
        assert [row["route"] for row in report.samples] == ["trace", "hit-count"]
        v, e = sublevel_volume(AnnulusGreen(0.05, 0.6), -0.1, stream.split(1), 2**14)
        assert (report.samples[1]["lambda"], report.samples[1]["stderr"]) == (v, e)
        assert report.verdicts["hit_count_matches_trace_3sigma"] is True

    def test_positive_t_rejected(self, annulus_green):
        # and t = 0, where the sublevel set is the whole domain
        for t in (0.5, 0.0):
            with pytest.raises(ValueError, match="levels must be negative"):
                sublevel_volume(annulus_green, t, SampleStream(2, seed=0))


# (r, pole, level) of the Harnack-cell hit count: from r = 1e-8 to a thin annulus, poles off the axis
# and next to a circle (1e-9 from it the pole's cell reaches the circle), a level near the pole and
# levels next to the boundary
COUNT_CASES = [
    pytest.param(1e-8, 1e-4, -0.5, id="r1e-8"),
    pytest.param(1e-6, 1e-3, -0.5, id="r1e-6"),
    pytest.param(0.01, 0.3 * cmath.exp(1j), -1e-3, id="r0.01-off-axis-t-1e-3"),
    pytest.param(0.2, W * cmath.exp(2.5j), -8.0, id="r0.2-off-axis-near-the-pole"),
    pytest.param(0.2, 1.0 - 1e-6, -1.0, id="r0.2-pole-next-to-the-outer-circle"),
    pytest.param(0.77, 1.0 - 1e-9, -0.5, id="r0.77-pole-1e-9-from-the-outer-circle"),
    pytest.param(0.9, 0.95 * cmath.exp(-1j), -0.5, id="r0.9-off-axis"),
    pytest.param(0.99, math.sqrt(0.99), -1e-3, id="r0.99-t-1e-3"),
]


def _count_record(caplog):
    """points, hits, cells, cells settled, centres and points that took value, from the count's DEBUG record."""
    (msg,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("hit count")]
    return [int(part.split()[0]) for part in msg.split(": ")[1].split(", ")]


def _assert_cells_agree(g, t, stream, record):
    """The count's DEBUG record against value(z) < t on every Sobol point in the domain, cell by cell: each
    point of a settled cell must be a hit where its cell's state is 1 and none where it is 0, so that no
    error in one cell can hide behind a compensating error in another."""
    count, hits, cells, settled = record[:4]
    x0, x1, y0, y1 = _sublevel_box(g, t)
    side = math.isqrt(cells)
    states, _ = _cell_states(g, t, x0, x1 - x0, y0, y1 - y0, side)
    u = stream.points(count)
    state = states[(u[:, 1] * side).astype(np.intp) * side + (u[:, 0] * side).astype(np.intp)]
    z = (x0 + (x1 - x0) * u[:, 0]) + 1j * (y0 + (y1 - y0) * u[:, 1])
    hit = np.zeros(count, dtype=bool)
    for lo in range(0, count, 2**16):
        part = z[lo : lo + 2**16]
        inside = g.in_domain(part)
        hit[lo : lo + 2**16][inside] = g.value(part[inside]) < t
    assert np.all(hit[state == 1]) and not np.any(hit[state == 0])
    assert settled == int(np.count_nonzero(states >= 0))
    assert hits == int(np.count_nonzero(hit))


def _assert_count_is_brute_force(caplog, g, t, count):
    """The cell count of sublevel_volume against value(z) < t on every Sobol point in the domain."""
    with caplog.at_level(logging.DEBUG, logger="suitaverify.green1d"):
        sublevel_volume(g, t, SampleStream(2, seed=4), count)
    points, hits, cells, settled, centres, took_value = record = _count_record(caplog)
    assert points == count
    _assert_cells_agree(g, t, SampleStream(2, seed=4), record)
    assert cells == CELLS[count] and settled <= cells and centres + took_value <= cells + count


# the counts and their side x side cells, side = 2^max(0, floor(log2 count)//2 - 2)
CELLS = {1: 1, 3000: 8**2, 2**14: 32**2, 2**16: 64**2}
COUNTS = list(CELLS)


class TestHarnackCells:
    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("r, w, t", COUNT_CASES)
    def test_count_is_brute_force(self, caplog, r, w, t, count):
        _assert_count_is_brute_force(caplog, AnnulusGreen(r, w), t, count)

    @pytest.mark.parametrize("count", COUNTS)
    def test_count_is_brute_force_at_the_saddle(self, caplog, annulus_green, count):
        # the level of test_curve_falls_back_to_hit_counting_at_the_saddle, where G is flat
        _assert_count_is_brute_force(caplog, annulus_green, _saddle_level(annulus_green), count)

    @pytest.mark.parametrize("count", COUNTS)
    def test_count_is_brute_force_on_the_disk(self, caplog, count):
        _assert_count_is_brute_force(caplog, DiskGreen(0.6 * cmath.exp(0.7j)), -0.7, count)

    def test_criterion_10_count_is_pinned(self, annulus_green, caplog):
        # criterion 10's cross-check of the trace at t = -0.5, the same count since before the cells
        with caplog.at_level(logging.DEBUG, logger="suitaverify.green1d"):
            sublevel_volume(annulus_green, -0.5, SampleStream(2, seed=0).split(6), 2**20)
        points, hits, cells, settled, centres, took_value = record = _count_record(caplog)
        assert (points, hits, cells) == (2**20, 397856, 256**2)
        # the centres and the points of the cells left open
        assert settled > cells * 9 // 10 and centres + took_value < 2**20 // 8
        # coarse to fine from 16 x 16 cells: 10,386 centres, against 63,462 on the final grid alone
        assert centres <= 12_000
        _assert_cells_agree(annulus_green, -0.5, SampleStream(2, seed=0).split(6), record)

    def test_count_memory_does_not_grow_with_the_count(self, annulus_green):
        # the points come a block at a time, so criterion 10's count holds the same few MiB at any
        # count (tracemalloc's peak, in MiB: 7.1 at 2^18 and 40.1 at 2^21 with all points at once)
        def peak(count):
            tracemalloc.start()
            try:
                sublevel_volume(annulus_green, -0.5, SampleStream(2, seed=0).split(6), count)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        small, large = peak(2**18), peak(2**21)
        assert large < 8.0 and large - small < 1.5

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        r=st.floats(1e-6, 0.95),
        inner=st.booleans(),
        where=st.floats(0.0, 1.0),
        arg=st.one_of(st.just(0.0), st.floats(0.0, 2.0 * math.pi)),
        centre=st.floats(0.0, 1.0),
        turn=st.floats(0.0, 2.0 * math.pi),
        share=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_value_lies_within_the_harnack_bounds(self, r, inner, where, arg, centre, turn, share, seed):
        # _cell_bounds for a pole between 1e-12 off one circle and sqrt(r), log-uniformly, a centre
        # anywhere in the annulus and a disc of radius rho below its distances to the pole and the boundary
        far = math.sqrt(r) - r if inner else 1.0 - math.sqrt(r)
        delta = 1e-12 * (far / 1e-12) ** where
        g = AnnulusGreen(r, (r + delta if inner else 1.0 - delta) * cmath.exp(1j * arg))
        c = (r + (1.0 - r) * centre) * cmath.exp(1j * turn)
        big = min(abs(c - g.pole), float(g.clearance(c)))
        assume(big > 0.0)
        rho = share * big
        rng = np.random.default_rng(seed)
        z = c + rho * np.sqrt(rng.uniform(0.0, 1.0, 256)) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 256))
        z[:16] = c + rho * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 16))  # on the disc's rim, where the bounds are met
        low, high, slack = (float(b[0]) for b in _cell_bounds(g, np.array([c]), rho))
        v = g.value(z)
        margin = _CELL_MARGIN * (1.0 + np.abs(v)) + slack
        assert np.all(low - margin <= v) and np.all(v <= high + margin)

    @pytest.mark.parametrize(
        "r, w, t",
        [
            pytest.param(0.2, W * cmath.exp(2.5j), -8.0, id="t-8"),
            pytest.param(0.0147, 0.1083 * cmath.exp(2j), -3.8, id="r0.0147-t-3.8"),
            pytest.param(0.9, math.sqrt(0.9), -4.5, id="r0.9-t-4.5"),
        ],
    )
    def test_deep_levels_settle_most_cells(self, caplog, r, w, t):
        # levels like the benchmark's, where G is large across the box: bounds on G itself left
        # 77-97% of these cells open, and the cells along the level curve are about a tenth
        with caplog.at_level(logging.DEBUG, logger="suitaverify.green1d"):
            sublevel_volume(AnnulusGreen(r, w), t, SampleStream(2, seed=4), 2**14)
        points, hits, cells, settled, centres, took_value = _count_record(caplog)
        assert settled > cells * 4 // 5 and centres + took_value < 2**14 // 4
