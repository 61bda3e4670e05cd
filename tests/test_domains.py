import math

import mpmath as mp
import numpy as np
import pytest

from suitaverify.domains import (
    Annulus,
    Ellipsoid,
    EllipsoidFamilyParams,
    Polydisk,
    SymmetrizedBidisk,
    ball,
    contains,
    disk,
    from_json,
    log_gamma,
    minkowski_functional,
    monomial_norm,
    volume,
)
from suitaverify.bergman import kernel_g2_center
from suitaverify.numerics import SampleStream, integrate_1d


class TestContains:
    def test_ball2(self):
        assert contains(ball(2), np.array([0.5, 0.5]))
        assert not contains(ball(2), np.array([1.0, 0.5]))

    def test_annulus(self):
        assert not contains(Annulus(0.3), np.array([0.2]))
        assert contains(Annulus(0.3), np.array([0.5 + 0.1j]))

    def test_g2_center(self):
        assert contains(SymmetrizedBidisk(), np.array([0.0, 0.0]))

    def test_g2_from_bidisk_points(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s, t = [complex(*c) for c in rng.uniform(-0.7, 0.7, (2, 2))]
            assert contains(SymmetrizedBidisk(), np.array([s + t, s * t]))
        # a root outside the disk must be rejected
        s, t = 1.5, 0.2
        assert not contains(SymmetrizedBidisk(), np.array([s + t, s * t]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains(ball(2), np.array([0.1]))


class TestMinkowskiFunctional:
    def test_ball_is_norm(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert minkowski_functional(ball(3), z) == pytest.approx(np.linalg.norm(z), rel=1e-12)

    def test_axis_point(self):
        dom = Ellipsoid((0.5, 1.0))
        assert minkowski_functional(dom, np.array([0.3, 0.0])) == pytest.approx(0.3, rel=1e-10)

    def test_homogeneity(self):
        dom = Ellipsoid((0.5, 1.5, 3.0))
        rng = np.random.default_rng(2)
        c = 2.0 + 1.0j
        for _ in range(10):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            h = minkowski_functional(dom, z)
            assert minkowski_functional(dom, c * z) == pytest.approx(abs(c) * h, rel=1e-12)

    def test_zero_point(self):
        assert minkowski_functional(ball(2), np.zeros(2)) == 0.0

    def test_membership_equivalence(self):
        dom = Ellipsoid((0.7, 2.0), radii=(1.2, 0.8))
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = 0.8 * (rng.normal(size=2) + 1j * rng.normal(size=2))
            h = minkowski_functional(dom, z)
            if abs(h - 1.0) > 1e-12:
                assert contains(dom, z) == (h < 1.0)

    def test_rejects_unbalanced(self):
        with pytest.raises(TypeError):
            minkowski_functional(Annulus(0.2), np.array([0.5]))


class TestVolume:
    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_two_dim_family(self, p):
        dom = Ellipsoid((0.5, 1.0 / p))
        assert volume(dom) == pytest.approx(2 * math.pi**2 / ((p + 1) * (p + 2)), rel=1e-12)

    def test_ball2(self):
        assert volume(ball(2)) == pytest.approx(math.pi**2 / 2.0, rel=1e-12)

    def test_balls_general(self):
        for n in (1, 3, 4):
            assert volume(ball(n)) == pytest.approx(math.pi**n / math.factorial(n), rel=1e-12)

    def test_family_parameterization(self):
        params = EllipsoidFamilyParams(m=1.0, n=2, b=0.5)
        assert params.a == pytest.approx(3.0)
        assert params.omega == pytest.approx(math.pi, rel=1e-12)
        assert params.domain_volume() == pytest.approx(math.pi**2 / 3.0, rel=1e-12)
        assert volume(Ellipsoid((0.5, 1.0))) == pytest.approx(math.pi**2 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("m", [0.5, 1.0, 8.0])
    def test_family_slice_volume_is_the_disk_area(self, m):
        # at n = 2 the slice { |z_2|^{2m} < 1 } is the unit disk, whatever m
        assert EllipsoidFamilyParams(m=m, n=2, b=0.5).omega == math.pi

    def test_annulus(self):
        assert volume(Annulus(0.3)) == pytest.approx(math.pi * 0.91, rel=1e-12)

    def test_polydisk(self):
        assert volume(Polydisk(3)) == pytest.approx(math.pi**3, rel=1e-12)

    @pytest.mark.parametrize("p", [(0.5, 1.0), (1.0, 1.0), (2.0, 2.0)])
    def test_monte_carlo_cross_check(self, p):
        dom = Ellipsoid(p)
        pts = SampleStream(4, seed=11).points(2**17)
        z = (2.0 * pts[:, 0] - 1.0) + 1j * (2.0 * pts[:, 1] - 1.0)
        w = (2.0 * pts[:, 2] - 1.0) + 1j * (2.0 * pts[:, 3] - 1.0)
        pp = np.asarray(p)
        inside = np.abs(z) ** (2 * pp[0]) + np.abs(w) ** (2 * pp[1]) < 1.0
        frac = float(np.mean(inside))
        est = 16.0 * frac
        sigma = 16.0 * math.sqrt(frac * (1 - frac) / len(pts))
        assert abs(est - volume(dom)) < 3.0 * sigma

    def test_radii_scaling(self):
        base = Ellipsoid((0.5, 1.0))
        scaled = Ellipsoid((0.5, 1.0), radii=(2.0, 2.0))
        assert volume(scaled) == pytest.approx(16.0 * volume(base), rel=1e-12)

    def test_g2_volume_hit_counting_cross_check(self):
        # (z1, z2) lies in the symmetrized bidisk iff both roots of
        # x^2 - z1 x + z2 lie in the unit disk; box |z1| <= 2, |z2| <= 1
        count = 2**21
        u = SampleStream(4, seed=0).points(count)
        z1 = (4.0 * u[:, 0] - 2.0) + 1j * (4.0 * u[:, 1] - 2.0)
        z2 = (2.0 * u[:, 2] - 1.0) + 1j * (2.0 * u[:, 3] - 1.0)
        d = np.sqrt(z1 * z1 - 4.0 * z2)
        frac = float(np.mean((np.abs(z1 + d) < 2.0) & (np.abs(z1 - d) < 2.0)))
        sigma = 64.0 * math.sqrt(frac * (1.0 - frac) / count)
        assert abs(64.0 * frac - volume(SymmetrizedBidisk())) < 3.0 * sigma

    def test_g2_volume_is_the_center_kernel_reciprocal(self):
        # (z1, z2) -> (c z1, c^2 z2) with |c| <= 1 maps the symmetrized bidisk
        # into itself, so only the constants reach the center: K(0) = 1 / volume
        assert kernel_g2_center().value == pytest.approx(1.0 / volume(SymmetrizedBidisk()), rel=1e-15)


class TestMonomialNorm:
    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_disk(self, k):
        assert monomial_norm(disk(), [k]) == pytest.approx(math.pi / (k + 1), rel=1e-12)

    def test_polydisk(self):
        assert monomial_norm(Polydisk(2), [2, 3]) == pytest.approx(math.pi**2 / 12.0, rel=1e-12)

    def test_quadrature_oracle(self):
        # reduce the 2-d ellipsoid integral to one radial quadrature:
        # ||z^a||^2 = (2 pi)^2 int r1^{2a1+1} (1-r1^{2p1})^{(a2+1)/p2} / (2a2+2) dr1
        rng = np.random.default_rng(5)
        dom = Ellipsoid((0.8, 1.7))
        p1, p2 = dom.exponents
        for _ in range(10):
            a1, a2 = [int(k) for k in rng.integers(0, 5, 2)]

            def radial(r1):
                return r1 ** (2 * a1 + 1) * (1.0 - r1 ** (2 * p1)) ** ((a2 + 1) / p2) / (2 * a2 + 2)

            oracle = (2 * math.pi) ** 2 * integrate_1d(radial, 0.0, 1.0)
            assert monomial_norm(dom, [a1, a2]) == pytest.approx(oracle, rel=1e-8)

    def test_radii_scaling(self):
        base = monomial_norm(Ellipsoid((0.5, 1.0)), [2, 1])
        scaled = monomial_norm(Ellipsoid((0.5, 1.0), radii=(2.0, 2.0)), [2, 1])
        # each coordinate contributes R^{2 alpha_j + 2}
        assert scaled == pytest.approx(2.0 ** (2 * 2 + 2) * 2.0 ** (2 * 1 + 2) * base, rel=1e-12)

    @pytest.mark.parametrize(
        "dom",
        [
            Ellipsoid((0.7, 1.5, 2.0), radii=(1.0, 0.9, 1.1)),
            Polydisk(3),
            Ellipsoid((1.5, 1.5, 1.5)),
            Ellipsoid((0.6, 1.0, 2.5, 4.0), radii=(1.0, 1.2, 0.8, 1.0)),
        ],
        ids=["ellipsoid", "polydisk", "equal-exponents", "ellipsoid4"],
    )
    def test_array_and_log_forms_match_rows(self, dom):
        alpha = np.array([[0, 0, 0, 0], [3, 1, 4, 1], [200, 0, 7, 5], [50, 60, 70, 80]])[:, : dom.dimension]
        logs = monomial_norm(dom, alpha, log=True)
        assert logs.shape == (4,)
        for row, lg in zip(alpha, logs):
            assert lg == pytest.approx(math.log(monomial_norm(dom, row)), rel=1e-14, abs=1e-14)
        assert np.allclose(monomial_norm(dom, alpha), np.exp(logs), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("dom", [Ellipsoid((0.5, 1.0)), Polydisk(2)], ids=["ellipsoid", "polydisk"])
    @pytest.mark.parametrize(
        "alpha", [[-1, 2], [1, 2, 3], [0.5, 1], [1.7, 0], [np.inf, 0]], ids=["negative", "length", "half", "fraction", "inf"]
    )
    def test_rejects_what_is_not_a_multi_index(self, dom, alpha):
        with pytest.raises(ValueError):
            monomial_norm(dom, alpha)

    def test_log_form_beyond_double_range(self):
        # on {|z1/R| + |z2|^2 < 1}: ||z1^j||^2 = 2 pi^2 R^(2j+2) / ((2j+2)(2j+3)),
        # which underflows at R = 0.01, j = 5000 while its log stays exact
        dom = Ellipsoid((0.5, 1.0), radii=(0.01, 1.0))
        j = 5000
        expected = math.log(2.0 * math.pi**2 / ((2 * j + 2) * (2 * j + 3))) + (2 * j + 2) * math.log(0.01)
        assert monomial_norm(dom, [j, 0]) == 0.0
        assert monomial_norm(dom, [j, 0], log=True) == pytest.approx(expected, rel=1e-13)


def _log_gamma_points():
    """Log-uniform points in (1e-8, 13) and [13, 1e10], the arguments (a+1)/p of the series'
    tables, and the neighbours of the zeros at 1 and 2 and of Cephes' branch points."""
    rng = np.random.default_rng(21)
    low = np.exp(rng.uniform(math.log(1e-8), math.log(13.0), 3000))
    high = np.exp(rng.uniform(math.log(13.0), math.log(1e10), 3000))
    tables = [a / p for p in (0.5, 1.0, 1.5, 2.0, 3.0, 8.0, 128.0) for a in range(1, 200)]
    near = []
    for edge in (1.0, 2.0, 13.0, 1000.0, 1e8):
        near += [edge * (1.0 + s * 10.0**-j) for s in (-1.0, 1.0) for j in range(1, 16)]
        for toward in (0.0, math.inf):
            x = edge
            for _ in range(4):
                near.append(x)
                x = math.nextafter(x, toward)
    return np.concatenate((low, high, tables, near))


class TestLogGamma:
    POINTS = _log_gamma_points()

    @staticmethod
    def _errors(values, points):
        """Absolute errors below 13 and relative errors from 13 up, against 40 digits."""
        below, above = [], []
        with mp.workdps(40):
            for v, x in zip(values, points):
                ref = mp.loggamma(mp.mpf(float(x)))
                err = abs(mp.mpf(float(v)) - ref)
                if x < 13.0:
                    below.append(float(err))
                else:
                    above.append(float(err / abs(ref)))
        return max(below), max(above)

    def test_points_cover_both_ranges(self):
        x = self.POINTS
        assert len(x) >= 6000 and x.min() < 1e-7 and x.max() > 1e9
        assert np.count_nonzero(x < 13.0) >= 3000 and np.count_nonzero(x >= 13.0) >= 3000

    def test_array_path_against_40_digits(self):
        below, above = self._errors(log_gamma(self.POINTS), self.POINTS)
        assert below <= 4e-15
        assert above <= 4e-16

    def test_float_path_against_40_digits(self):
        below, above = self._errors([log_gamma(float(x)) for x in self.POINTS], self.POINTS)
        assert below <= 4e-15
        assert above <= 4e-16

    def test_agrees_with_scipy_gammaln(self):
        from scipy.special import gammaln

        x = self.POINTS
        ref = gammaln(x)
        for got in (log_gamma(x), np.array([log_gamma(float(v)) for v in x])):
            below = x < 13.0
            assert np.max(np.abs(got - ref)[below]) <= 4e-15
            assert np.max(np.abs(got - ref)[~below] / ref[~below]) <= 4e-16
            # the same algorithm: bits differ only where the two log functions round apart
            assert np.mean(got == ref) > 0.99

    def test_exact_at_the_integers(self):
        # Cephes returns log((n-1)!) from the exact product there, and 0 at 1 and 2
        for n in range(1, 13):
            assert log_gamma(float(n)) == math.log(math.factorial(n - 1))
        assert log_gamma(np.arange(1.0, 13.0)).tolist() == [math.log(math.factorial(n - 1)) for n in range(1, 13)]

    def test_float_in_float_out(self):
        for x in (0.3, 2.5, 12.5, 13.0, 40.0, 5e3, 2e8):
            for form in (x, np.float64(x), np.array(x)):
                assert type(log_gamma(form)) is float
                assert log_gamma(form) == log_gamma(x)

    @pytest.mark.parametrize(
        "low,high",
        [(0.1, 12.9), (13.0, 900.0), (0.1, 40.0), (500.0, 5e8), (0.01, 3.0)],
        ids=["below-13", "stirling", "mixed", "upper-branches", "shift-up"],
    )
    @pytest.mark.parametrize("shape", [(0,), (1,), (5,), (40,), (4, 10), (2, 3, 7)])
    def test_arrays_keep_their_shape(self, low, high, shape):
        x = np.random.default_rng(3).uniform(low, high, shape)
        got = log_gamma(x)
        assert isinstance(got, np.ndarray) and got.shape == shape
        want = np.array([log_gamma(float(v)) for v in x.ravel()]).reshape(shape)
        assert np.allclose(got, want, rtol=4e-16, atol=4e-15)


class TestSerialization:
    @pytest.mark.parametrize(
        "dom",
        [
            ('{"variant": "ellipsoid", "p": [0.5, 2.0], "radii": [1.0, 1.5]}', Ellipsoid((0.5, 2.0), (1.0, 1.5))),
            ('{"variant": "annulus", "r": 0.25}', Annulus(0.25)),
            ('{"variant": "polydisk", "n": 3}', Polydisk(3)),
            ('{"variant": "symmetrized_bidisk"}', SymmetrizedBidisk()),
        ],
    )
    def test_round_trip(self, dom):
        spec, expected = dom
        assert from_json(spec) == expected

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            from_json('{"variant": "torus"}')

    @pytest.mark.parametrize(
        "spec",
        ["[1, 2]", '"ellipsoid"', '{"variant": "ellipsoid"}', '{"variant": "annulus"}', '{"variant": "polydisk"}'],
        ids=["list", "string", "ellipsoid-without-p", "annulus-without-r", "polydisk-without-n"],
    )
    def test_malformed_spec(self, spec):
        with pytest.raises(ValueError):
            from_json(spec)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            Ellipsoid((-1.0,))
        with pytest.raises(ValueError):
            Annulus(1.2)
        with pytest.raises(ValueError):
            EllipsoidFamilyParams(m=1.0, n=1, b=0.5)
