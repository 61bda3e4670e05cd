import logging
import math

import pytest

from suitaverify.domains import EllipsoidFamilyParams
from suitaverify.indicatrix import (
    azukawa_g2_center,
    extremal_disc_arcs,
    indicatrix_volume_closed,
    indicatrix_volume_numeric,
    kobayashi_profile_p1half,
)


class TestG2Indicatrix:
    def test_volume(self):
        # 2 pi^2 int_0^2 r ((2-r)/2)^2 dr = 2 pi^2 / 3
        prof = azukawa_g2_center()
        assert prof.volume() == pytest.approx(2.0 * math.pi**2 / 3.0, rel=1e-14)

    def test_profile_endpoints(self):
        prof = azukawa_g2_center()
        assert prof.gamma(0.0) == pytest.approx(1.0)
        assert prof.gamma(2.0) == pytest.approx(0.0)


class TestRadialProfile:
    def test_values_and_kink(self):
        b = 0.3
        prof = kobayashi_profile_p1half(1.0, 2, b)
        knot = 2.0 * b * (1.0 - b)
        assert prof.gamma(0.0) == pytest.approx(1.0 - b)
        # both branches give (1-b)^2 at the kink, with matching slope -1
        assert prof.gamma(knot) == pytest.approx((1.0 - b) ** 2, rel=1e-12)
        h = 1e-7
        left = (prof.gamma(knot) - prof.gamma(knot - h)) / h
        right = (prof.gamma(knot + h) - prof.gamma(knot)) / h
        assert left == pytest.approx(-1.0, abs=1e-6)
        assert right == pytest.approx(-1.0, abs=1e-6)
        assert prof.gamma(prof.r_max) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m,n", [(0.5, 2), (1.0, 2), (1.0, 3), (2.0, 4)])
    def test_profile_volume_matches_closed(self, m, n):
        b = 0.35
        prof = kobayashi_profile_p1half(m, n, b)
        closed = indicatrix_volume_closed(EllipsoidFamilyParams(m=m, n=n, b=b))
        assert prof.volume() == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("b", [1e-6, 1e-3, 0.1, 0.35, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6])
    def test_profile_volume_to_rounding(self, b):
        # next to b = 1, 1 - b^2 and 1 - b - r^2/(4b(1-b)) cancel; the pieces in their end distances do not
        for m in (0.5, 1.0, 2.0, 8.0, 128.0):
            for n in (2, 3, 5):
                closed = indicatrix_volume_closed(EllipsoidFamilyParams(m=m, n=n, b=b))
                assert kobayashi_profile_p1half(m, n, b).volume() == pytest.approx(closed, rel=1e-13, abs=0.0), (m, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            kobayashi_profile_p1half(1.0, 2, 1.5)
        with pytest.raises(ValueError):
            kobayashi_profile_p1half(0.2, 2, 0.5)


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

    def test_branches_agree_at_junction(self):
        # u -> 1 on both branches lands on the same boundary point
        for p1 in (0.5, 1.0, 2.0):
            (r1, s1), (r2, s2) = extremal_disc_arcs(p1, 0.4, [1.0 - 1e-10], [1.0])
            assert r1[0] == pytest.approx(r2[0], rel=1e-8)
            assert s1[0] == pytest.approx(s2[0], rel=1e-8)

    def test_half_exponent_junction_values(self):
        b = 0.25
        _, (rho, s) = extremal_disc_arcs(0.5, b, [], [1.0])
        assert rho[0] == pytest.approx(2.0 * b * (1.0 - b), rel=1e-12)
        assert s[0] == pytest.approx((1.0 - b) ** 2, rel=1e-12)

    def test_u_range_validation(self):
        with pytest.raises(ValueError):
            extremal_disc_arcs(1.0, 0.3, [0.1], [])
        with pytest.raises(ValueError):
            extremal_disc_arcs(1.0, 0.3, [0.5, 1.0], [])
        with pytest.raises(ValueError):
            extremal_disc_arcs(1.0, 0.3, [], [1.5])

    def test_params_validation(self):
        for b in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                extremal_disc_arcs(1.0, b, [0.5], [0.5])


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
