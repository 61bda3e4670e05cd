import math

import numpy as np
import pytest
from scipy.stats import qmc

from suitaverify.domains import EllipsoidFamilyParams
from suitaverify.indicatrix import indicatrix_volume_closed, kobayashi_profile_p1half
from suitaverify.numerics import (
    DEFAULT_TOL,
    BracketError,
    ConvergenceError,
    SampleStream,
    Tolerance,
    find_root_monotone,
    golden_section_max,
    integrate_1d,
)


class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_TOL.abs_tol == 1e-12
        assert DEFAULT_TOL.rel_tol == 1e-10
        assert DEFAULT_TOL.max_iter == 200

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=0.0, rel_tol=0.0)

    def test_rejects_bad_iter(self):
        with pytest.raises(ValueError):
            Tolerance(max_iter=0)


class TestRootFinder:
    def test_sqrt2(self):
        x = find_root_monotone(lambda x: x * x - 2.0, 0.0, 2.0)
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_linear(self):
        assert find_root_monotone(lambda x: x - 0.5, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_log(self):
        assert find_root_monotone(np.log, 0.5, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root_monotone(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bracket_stable(self):
        # re-running from a tight bracket around the returned root reproduces it
        f = lambda x: x**3 - 2.0 * x - 5.0
        x = find_root_monotone(f, 1.0, 3.0)
        x2 = find_root_monotone(f, x - 1e-6, x + 1e-6)
        assert abs(x2 - x) <= 1e-10

    def test_array_of_brackets(self):
        c = np.array([0.5, 2.0, 7.0])
        x = find_root_monotone(lambda x, c: x * x - c, np.zeros(3), np.full(3, 3.0), args=(c,))
        assert x.shape == (3,)
        assert np.abs(x - np.sqrt(c)).max() <= 1e-12

    def test_root_on_an_endpoint(self):
        c = np.array([0.0, 0.5, 1.0])
        x = find_root_monotone(lambda x, c: x - c, np.zeros(3), np.ones(3), args=(c,))
        assert x.tolist() == [0.0, pytest.approx(0.5, abs=1e-12), 1.0]

    def test_one_element_without_sign_change(self):
        c = np.array([0.5, -1.0, 2.0])
        with pytest.raises(BracketError):
            find_root_monotone(lambda x, c: x * x - c, np.zeros(3), np.full(3, 3.0), args=(c,))

    def test_iteration_budget(self):
        with pytest.raises(ConvergenceError):
            find_root_monotone(lambda x: x**3 - 2.0 * x - 5.0, 1.0, 3.0, Tolerance(max_iter=1))


class TestQuadrature:
    def test_linear(self):
        assert integrate_1d(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_sine(self):
        assert integrate_1d(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)

    def test_cubic_exact(self):
        val = integrate_1d(lambda x: 3 * x**3 - x**2 + 2 * x - 7, -1.0, 2.0)
        exact = 3 / 4 * (16 - 1) - (8 + 1) / 3 + (4 - 1) - 7 * 3
        assert val == pytest.approx(exact, rel=1e-12)

    def test_divergent_integral(self):
        with pytest.raises(ConvergenceError):
            integrate_1d(lambda x: 1.0 / x, 0.0, 1.0)

    def test_kinked_profile_matches_closed_volume(self):
        # radial integral of the two-branch profile against its closed form
        m, n, b = 1.0, 2, 0.5
        params = EllipsoidFamilyParams(m=m, n=n, b=b)
        profile = kobayashi_profile_p1half(m, n, b)
        integral = integrate_1d(
            lambda r: r * float(profile.gamma(np.asarray(r))) ** ((n - 1) / m),
            0.0,
            1.0 - b**2,
            knots=profile.knots,
        )
        expected = indicatrix_volume_closed(params) / (2.0 * math.pi * params.omega)
        assert integral == pytest.approx(expected, rel=1e-10)


class TestSampleStream:
    def test_determinism_byte_identical(self):
        a = SampleStream(dimension=3, seed=42).points(1000)
        b = SampleStream(dimension=3, seed=42).points(1000)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.filterwarnings("ignore:The balance properties")
    @pytest.mark.parametrize("d, seed, n", [(2, 0, 2**10), (4, 11, 1000)])
    def test_is_scrambled_sobol(self, d, seed, n):
        expected = qmc.Sobol(d=d, scramble=True, seed=seed).random(n)
        assert SampleStream(d, seed).points(n).tobytes() == expected.tobytes()

    def test_seeds_differ(self):
        a = SampleStream(2, seed=0).points(100)
        b = SampleStream(2, seed=1).points(100)
        assert not np.array_equal(a, b)

    def test_split_is_deterministic(self):
        s = SampleStream(2, seed=7)
        assert s.split(3) == s.split(3)
        assert s.split(3) != s.split(4)

    def test_ball4_volume_low_discrepancy(self):
        # hit counting of the unit 4-ball against the closed form pi^2/2
        pts = SampleStream(4, seed=0).points(2**20)
        x = 2.0 * pts - 1.0
        frac = np.mean(np.sum(x * x, axis=1) < 1.0)
        assert abs(16.0 * frac - math.pi**2 / 2.0) < 1e-3


class TestGoldenSection:
    def test_parabola(self):
        x, fx = golden_section_max(lambda x: -(x - 0.3) ** 2 + 1.0, 0.0, 1.0, tol=1e-10)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert fx == pytest.approx(1.0, abs=1e-12)

    def test_picks_global_peak(self):
        # two humps: the coarse scan must find the taller one
        f = lambda x: math.exp(-200 * (x - 0.2) ** 2) + 2.0 * math.exp(-200 * (x - 0.8) ** 2)
        x, _ = golden_section_max(f, 0.0, 1.0, tol=1e-8)
        assert x == pytest.approx(0.8, abs=1e-4)
