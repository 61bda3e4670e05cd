import logging
import math

import mpmath as mp
import numpy as np
import pytest

from suitaverify.domains import EllipsoidFamilyParams, SymmetrizedBidisk
from suitaverify.indicatrix import (
    _arc_volume,
    _in_arc,
    extremal_disc_arcs,
    indicatrix_volume_closed,
    indicatrix_volume_numeric,
    indicatrix_volume_quadrature,
)
from suitaverify.numerics import integrate_1d
from suitaverify.suita import suita_F


class TestG2Indicatrix:
    def test_volume(self):
        # the indicatrix at 0 is { |X1| + 2 |X2| < 2 }: 2 pi^2 int_0^2 r ((2-r)/2)^2 dr = 2 pi^2 / 3
        quadrature = 2.0 * math.pi**2 * integrate_1d(lambda r: r * ((2.0 - r) / 2.0) ** 2, 0.0, 2.0)
        assert suita_F(SymmetrizedBidisk()).indicatrix_volume == pytest.approx(quadrature, rel=1e-14)


class TestVolumeQuadrature:
    @pytest.mark.parametrize("m,n", [(0.5, 2), (1.0, 2), (1.0, 3), (2.0, 4)])
    def test_matches_closed(self, m, n):
        params = EllipsoidFamilyParams(m=m, n=n, b=0.35)
        assert indicatrix_volume_quadrature(params) == pytest.approx(indicatrix_volume_closed(params), rel=1e-9)

    @pytest.mark.parametrize("b", [1e-6, 1e-3, 0.1, 0.35, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6])
    def test_to_rounding(self, b):
        # next to b = 1 the '1-in-A' arc shrinks to y in [0, -log b]; its factors, written from y, do not cancel
        for m in (0.5, 1.0, 2.0, 8.0, 128.0):
            for n in (2, 3, 5):
                params = EllipsoidFamilyParams(m=m, n=n, b=b)
                closed = indicatrix_volume_closed(params)
                assert indicatrix_volume_quadrature(params) == pytest.approx(closed, rel=1e-13, abs=0.0), (m, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            indicatrix_volume_quadrature(EllipsoidFamilyParams(m=1.0, n=2, b=1.5))
        with pytest.raises(ValueError):
            indicatrix_volume_quadrature(EllipsoidFamilyParams(m=0.2, n=2, b=0.5))


class TestArcVolume:
    @pytest.mark.parametrize("b", [1e-3, 0.2, 0.4, 0.9, 0.999])
    def test_ball(self, b):
        # p1 = q = 1 is the 2-ball, whose indicatrix volume is pi^2/2 (1-b^2)^3 = pi^2 times this
        assert _arc_volume(1.0, b, 1.0) == pytest.approx(((1.0 - b) * (1.0 + b)) ** 3 / 2.0, rel=1e-14, abs=0.0)

    @staticmethod
    def _arc_volume_mp(p1, b, q):
        """Both integrals at 40 digits in u, with v = (b/u)^{2 p1}, a = 1/p1 - 1, e = 2 - 2 p1:
        c^2 int_0^1 2u S^q du with S = (1-B)(1 - B u^2), and int_b^1 2 b^2 u^{-3} P Q S^q du with
        P = 1 + a u^2 - (u^2/p1) v, Q = 1 - a u^2 + (e-1)(u^2/p1) v and S = (1-v)(1 - u^2 v)."""
        with mp.workdps(40):
            p1, b, q = mp.mpf(p1), mp.mpf(b), mp.mpf(q)
            big_b, a, e = b ** (2 * p1), 1 / p1 - 1, 2 - 2 * p1
            c = b * (1 - big_b) / p1
            out = c * c * mp.quad(lambda u: 2 * u * ((1 - big_b) * (1 - big_b * u * u)) ** q, [0, 1])

            def inner(u):
                v = (b / u) ** (2 * p1)
                big_p = 1 + a * u * u - u * u / p1 * v
                big_q = 1 - a * u * u + (e - 1) * u * u / p1 * v
                return 2 * b * b / u**3 * big_p * big_q * ((1 - v) * (1 - u * u * v)) ** q

            # S climbs from 0 within log(u/b) of order 1/p1
            knots = sorted({u for u in (b * mp.exp(y) for y in (0, 1 / (2 * p1), 4 / p1)) if u < 1} | {1})
            return out + mp.quad(inner, knots)

    @pytest.mark.parametrize("p1,b", [(128.0, 0.001), (8.0, 0.5), (2.0, 0.999)])
    @pytest.mark.parametrize("q", [1.0, 0.25])
    def test_against_40_digits(self, p1, b, q):
        ref = self._arc_volume_mp(p1, b, q)
        assert abs(_arc_volume(p1, b, q) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("p1", [0.5, 0.7, 1.0, 2.0, 8.0, 128.0])
    def test_factors_are_the_arc(self, p1):
        # P = rho u/b and S of extremal_disc_arcs at u = b e^y; the arcs take the rounded u, which
        # moves y by an ulp of 1 and S by up to 2 p1 times that
        for b in (1e-3, 0.1, 0.5, 0.9, 0.99):
            y = -math.log(b) * np.arange(257) / 256
            y = np.concatenate((y, np.arange(1, 33) / (32 * p1)))
            y = y[y <= -math.log(b)]
            u = np.minimum(b * np.exp(y), 1.0)
            big_p, big_q, s = _in_arc(p1, b, y)
            (rho, s_arc), _ = extremal_disc_arcs(p1, b, u, [])
            assert np.abs(big_p - rho * u / b).max() <= 2e-15, b
            assert np.abs(s - s_arc).max() <= 2e-15 * p1, b
            assert np.all(big_q >= 0.0), b

    @pytest.mark.parametrize("p1", [0.5, 0.7, 1.0, 2.0, 8.0, 128.0])
    def test_rho_falls_along_1_in_a(self, p1):
        # the grid envelope interpolates '1-in-A' as one piece; these are its first samples
        for b in (1e-3, 0.1, 0.5, 0.9, 0.999):
            (rho, _), _ = extremal_disc_arcs(p1, b, np.linspace(b, 1.0, 4097), [])
            assert np.all(np.diff(rho) < 0.0), b


class TestClosedVolume:
    def test_small_b_limit_is_domain_volume(self):
        # the indicatrix fills the domain as the point moves to the center
        params = EllipsoidFamilyParams(m=1.0, n=2, b=1e-8)
        assert indicatrix_volume_closed(params) == pytest.approx(
            params.domain_volume(), rel=1e-6
        )

    def test_decreasing_in_b(self):
        vols = [
            indicatrix_volume_closed(EllipsoidFamilyParams(m=1.0, n=3, b=b))
            for b in (0.1, 0.4, 0.8)
        ]
        assert vols[0] > vols[1] > vols[2]


class TestGeodesicArcs:
    def test_branch_endpoint_meets_axis(self):
        # u = b: the disc degenerates onto the first axis at rho = 1 - b^2
        for p1 in (0.5, 1.0, 2.0):
            (rho, s), _ = extremal_disc_arcs(p1, 0.3, [0.3], [])
            assert rho[0] == pytest.approx(1.0 - 0.3**2, rel=1e-12)
            assert s[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("b", [1e-6, 1e-3, 0.1, 0.4, 0.9, 0.999, 1.0 - 1e-9, 1.0 - 1e-15])
    def test_branches_agree_at_junction(self, b):
        # u = 1 on both branches is the one point (b (1-B)/p1, (1-B)^2), B = b^{2 p1}
        for p1 in (0.5, 1.0, 2.0, 128.0):
            (r1, s1), (r2, s2) = extremal_disc_arcs(p1, b, [1.0], [1.0])
            assert abs(r1[0] - r2[0]) <= 8 * np.spacing(r2[0]), p1
            assert abs(s1[0] - s2[0]) <= 8 * np.spacing(s2[0]), p1

    def test_s_is_non_negative_next_to_b_1(self):
        b = 1.0 - 2.0**-50
        for p1 in (0.5, 1.0, 2.0, 128.0):
            u = b + (1.0 - b) * np.arange(5) / 4
            (_, s_in), (_, s_out) = extremal_disc_arcs(p1, b, u, np.linspace(0.0, 1.0, 5))
            assert np.all(s_in >= 0.0) and np.all(s_out >= 0.0), p1

    @staticmethod
    def _arcs_mp(p1, b, u_in, u_out):
        """Both arcs at 50 digits, as written: with v = (b/u)^{2 p1} and B = b^{2 p1}, '1-in-A' is
        rho = (b/u)(1 - u^2 + (u^2/p1)(1 - v)), S = (1 - v)(1 - u^2 v), and '1-not-in-A' is
        rho = u b (1 - B)/p1, S = (1 - B)(1 - B u^2)."""
        with mp.workdps(50):
            p1, b = mp.mpf(p1), mp.mpf(b)
            big_b = b ** (2 * p1)
            arc_in, arc_out = [], []
            for u in map(mp.mpf, u_in):
                v = (b / u) ** (2 * p1)
                arc_in.append(((b / u) * (1 - u * u + u * u / p1 * (1 - v)), (1 - v) * (1 - u * u * v)))
            for u in map(mp.mpf, u_out):
                arc_out.append((u * b * (1 - big_b) / p1, (1 - big_b) * (1 - big_b * u * u)))
            return arc_in, arc_out

    @pytest.mark.parametrize("p1", [0.5, 1.0, 2.0, 8.0, 128.0])
    def test_to_rounding_against_50_digits(self, p1):
        # written as 1 + a u^2 - (B/p1) u^e and (1 - B u^{-2 p1})(1 - B u^e), the 1-in-A arc cancels:
        # 1.5e-10 off in rho and 4.2e-9 in S at b = 0.999999; nodes b s^{-1/(2 p1)} reach the corner
        # next to u = b, where S climbs from 0
        s = np.arange(1, 33) / 32
        for b in (1e-3, 0.01, 0.2, 0.8, 0.99, 0.999, 0.999999):
            u_in = np.concatenate((b + (1.0 - b) * np.arange(32) / 32, b * s ** (-0.5 / p1)))
            u_in, u_out = u_in[u_in <= 1.0], np.linspace(0.0, 1.0, 33)
            for arc, ref in zip(extremal_disc_arcs(p1, b, u_in, u_out), self._arcs_mp(p1, b, u_in, u_out)):
                for got, want in zip(np.transpose(arc), ref):
                    for x, y in zip(got, want):
                        assert abs(x - y) <= 2e-15 * abs(y), (b, float(x), float(y))

    def test_half_exponent_junction_values(self):
        b = 0.25
        _, (rho, s) = extremal_disc_arcs(0.5, b, [], [1.0])
        assert rho[0] == pytest.approx(2.0 * b * (1.0 - b), rel=1e-12)
        assert s[0] == pytest.approx((1.0 - b) ** 2, rel=1e-12)

    @pytest.mark.parametrize("b", [0.2, 0.4, 0.8])
    def test_half_exponent_arcs_are_the_ell1_boundary(self, b):
        # the CSV of the ell1 family rests on this: at p1 = 1/2, '1-not-in-A' is
        # rho = 2b(1-b)u, S = (1-b)(1 - b u^2), and '1-in-A' is the line S = 1 - b^2 - rho
        u_in, u_out = b + (1.0 - b) * np.arange(256) / 256, np.linspace(0.0, 1.0, 256)
        (rho_in, s_in), (rho_out, s_out) = extremal_disc_arcs(0.5, b, u_in, u_out)
        tol = 1e-13 * max(s_in.max(), s_out.max())
        assert np.abs(rho_out - 2.0 * b * (1.0 - b) * u_out).max() <= tol
        assert np.abs(s_out - (1.0 - b) * (1.0 - b * u_out**2)).max() <= tol
        assert np.abs(s_in - (1.0 - b**2 - rho_in)).max() <= tol

    def test_u_range_validation(self):
        with pytest.raises(ValueError):
            extremal_disc_arcs(1.0, 0.3, [0.1], [])
        with pytest.raises(ValueError):
            extremal_disc_arcs(1.0, 0.3, [0.5, 1.0 + 2.0**-52], [])
        with pytest.raises(ValueError):
            extremal_disc_arcs(1.0, 0.3, [], [1.5])

    def test_params_validation(self):
        for b in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                extremal_disc_arcs(1.0, b, [0.5], [0.5])
        with pytest.raises(ValueError):
            extremal_disc_arcs(0.3, 0.5, [0.5], [0.5])


class TestNumericVolume:
    @pytest.mark.parametrize("m,b", [(0.5, 0.2), (1.0, 0.35), (2.0, 0.5)])
    def test_matches_closed_p1_half(self, m, b):
        v = indicatrix_volume_numeric((0.5, m), b)
        closed = indicatrix_volume_closed(EllipsoidFamilyParams(m=m, n=2, b=b))
        assert v == pytest.approx(closed, rel=1e-4)

    def test_ball_oracle(self):
        # Kobayashi indicatrix of the 2-ball at (b, 0): semiaxes 1-b^2 and
        # sqrt(1-b^2), volume pi^2/2 (1-b^2)^3
        for b in (0.2, 0.4):
            v = indicatrix_volume_numeric((1.0, 1.0), b)
            assert v == pytest.approx(math.pi**2 / 2.0 * (1 - b * b) ** 3, rel=1e-5)

    def test_shortfall_is_logged(self, caplog):
        # at p = (128, 1), b = 0.02 the last doubling still moves the volume by 2e-4
        with caplog.at_level(logging.WARNING, logger="suitaverify"):
            v = indicatrix_volume_numeric((128.0, 1.0), 0.02)
        (rec,) = caplog.records
        assert rec.name == "suitaverify.indicatrix"
        assert rec.levelno == logging.WARNING
        assert "grid 32768" in rec.getMessage()
        assert "last relative change 0.0002" in rec.getMessage()
        assert v == pytest.approx(9.784452792514628, rel=1e-10)

    def test_converged_volume_logs_nothing(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="suitaverify"):
            indicatrix_volume_numeric((2.0, 1.0), 0.3)
        assert caplog.records == []

    def test_validation(self):
        with pytest.raises(ValueError):
            indicatrix_volume_numeric((0.5, 1.0, 1.0), 0.3)
        with pytest.raises(ValueError):
            indicatrix_volume_numeric((0.3, 1.0), 0.3)
