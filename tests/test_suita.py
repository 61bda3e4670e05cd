import dataclasses
import json
import math

import numpy as np
import pytest

from suitaverify import bergman, domains, green1d, indicatrix
from suitaverify.domains import Annulus, Ellipsoid, EllipsoidFamilyParams, Polydisk, SymmetrizedBidisk, ball
from suitaverify.numerics import SampleStream
from suitaverify.suita import (
    ExperimentReport,
    check_lower_bound_est1,
    check_reverse_suita,
    figure_scan,
    maximize_F,
    monotonicity_experiment,
    product_closed_form,
    suita_F,
)


class TestProductClosedForm:
    def test_matches_factors_by_construction(self):
        # the formula alone; the factors are its check route (criterion 1)
        params = EllipsoidFamilyParams(m=1.0, n=2, b=0.5)
        v = product_closed_form(params)
        factors = bergman.kernel_deflated(params).value * indicatrix.indicatrix_volume_closed(params)
        assert v > 1.0
        assert v == pytest.approx(factors, rel=1e-13)

    def test_small_b_limit(self):
        v = product_closed_form(EllipsoidFamilyParams(m=1.0, n=3, b=1e-7))
        assert v == pytest.approx(1.0, abs=1e-6)

    def test_b_to_one_limit(self):
        # (1-b)^a kills the correction: F^n -> 1 as b -> 1
        v = product_closed_form(EllipsoidFamilyParams(m=1.0, n=3, b=1.0 - 1e-7))
        assert v == pytest.approx(1.0, abs=1e-5)

    def test_always_at_least_one(self):
        for m in (0.5, 1.0, 4.0):
            for n in (2, 3, 5):
                for b in np.linspace(0.05, 0.95, 10):
                    assert product_closed_form(EllipsoidFamilyParams(m=m, n=n, b=b)) >= 1.0


class TestSuitaF:
    def test_balanced_center_exact(self):
        for dom in (ball(2), Ellipsoid((0.5, 2.0)), domains.Polydisk(2)):
            res = suita_F(dom)
            assert res.F == 1.0
            assert res.classification == "symmetric"

    def test_g2_center(self):
        res = suita_F(SymmetrizedBidisk())
        assert res.F == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)
        assert res.kernel.value == pytest.approx(2.0 / math.pi**2)
        assert res.indicatrix_volume == pytest.approx(2.0 * math.pi**2 / 3.0)
        assert res.classification == "c-convex"
        assert res.F <= 16.0

    def test_annulus(self):
        res = suita_F(Annulus(0.2), 0.5)
        assert res.n == 1
        assert res.F >= 1.0
        assert res.classification == "none"

    @pytest.mark.parametrize("r", [1e-4, 0.015, 0.05, 0.2, 0.35, 0.5, 0.7, 0.9, 0.99])
    def test_annulus_at_least_one_next_to_the_circles(self, r):
        # F - 1 is about 1e-31 here; pi K times pi / c^2 rounds below 1 at some of these points
        for w0 in (r * (1.0 + 1e-7), r * (1.0 + 1e-5), 1.0 - 1e-5, 1.0 - 1e-7):
            assert suita_F(Annulus(r), [w0]).F >= 1.0

    @pytest.mark.parametrize("r", [0.015, 0.2, 0.9])
    def test_annulus_matches_its_factors_inside(self, r):
        for w0 in (r + 0.1 * (1.0 - r), math.sqrt(r), 1.0 - 0.1 * (1.0 - r)):
            res = suita_F(Annulus(r), [w0])
            assert res.F == pytest.approx(res.kernel.value * res.indicatrix_volume, rel=1e-14)

    def test_axis_point_closed_family(self):
        res = suita_F(Ellipsoid((0.5, 1.0)), np.array([0.3, 0.0]))
        expected = product_closed_form(EllipsoidFamilyParams(m=1.0, n=2, b=0.3)) ** 0.5
        assert res.F == pytest.approx(expected, rel=1e-12)
        assert res.classification == "convex"

    def test_axis_point_numeric_pipeline(self):
        res = suita_F(Ellipsoid((1.0, 1.0)), np.array([0.4, 0.0]))
        # the ball is homogeneous, so F is the same at every point
        assert res.F == pytest.approx(1.0, rel=1e-4)

    def test_closed_and_numeric_routes_agree(self):
        closed = suita_F(Ellipsoid((0.5, 2.0)), np.array([0.35, 0.0]))
        numeric = suita_F(Ellipsoid((0.5000001, 2.0)), np.array([0.35, 0.0]))
        assert numeric.F == pytest.approx(closed.F, rel=1e-4)

    def test_numeric_kernel_is_summed_to_rounding(self):
        # on {|z1|^{2m} + |z2|^2 < 1}: K((b,0)) = ((1+x) + m(1-x)) / (pi^2 m (1-x)^3), x = b^2,
        # which the numeric route takes in closed form; another second exponent takes the series
        m, b = 2.0, 0.9
        x, omx = b * b, (1.0 - b) * (1.0 + b)
        expected = ((1.0 + x) + m * omx) / (math.pi**2 * m * omx**3)
        res = suita_F(Ellipsoid((m, 1.0)), [b, 0.0])
        assert res.kernel.value == pytest.approx(expected, rel=1e-13)
        assert res.kernel.method == "closed-form"
        series = suita_F(Ellipsoid((m, 2.0)), [b, 0.0]).kernel
        assert series.method == "monomial-series"
        assert series.value == bergman.kernel_reinhardt(Ellipsoid((m, 2.0)), np.array([b, 0.0], dtype=complex)).value

    @pytest.mark.xfail(strict=True, reason="the grid envelope of indicatrix_volume_numeric misses the volume near b = 0")
    def test_numeric_F_at_least_one_near_the_centre(self):
        # the grid gives F = 0.50033 here (0.49999998509 at b = 1e-300), where pi^2 _arc_volume(2, b, 1) gives
        # F = 1 to rounding; the arc volume (ROADMAP item 2) turns this into a pass
        assert suita_F(Ellipsoid((2.0, 1.0)), (1e-8, 0.0)).F >= 1.0 - 1e-12

    def test_off_axis_rejected(self):
        # off the axis, off the symmetrized-bidisk origin, or of the wrong dimension
        for call in (
            lambda: suita_F(Ellipsoid((0.5, 1.0)), np.array([0.2, 0.3])),
            lambda: suita_F(SymmetrizedBidisk(), [0.5, 0.2]),
            lambda: suita_F(Annulus(0.2), [0.5, 0.9]),
            lambda: suita_F(ball(2), [0.3]),
            lambda: check_lower_bound_est1(Annulus(0.2), [0.5, 0.9], -2.0),
        ):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("w", [[0.5, 0.0], [0.0, 0.5], [0.2, 0.3]], ids=["axis", "second-axis", "off-axis"])
    def test_polydisk_off_the_origin_rejected_by_name(self, w):
        with pytest.raises(ValueError, match="^the polydisk is evaluated at the origin only$"):
            suita_F(Polydisk(2), w)

    def test_high_dim_irregular_rejected(self):
        with pytest.raises(ValueError):
            suita_F(Ellipsoid((1.0, 1.0, 2.0)), np.array([0.3, 0.0, 0.0]))


class TestMaximizeF:
    def test_m_half_n2_known_maximum(self):
        b_star, f_star = maximize_F(0.5, 2)
        # closed-form family maximum, from an independent dense scan
        grid = np.linspace(1e-4, 1 - 1e-4, 20001)
        vals = [
            product_closed_form(EllipsoidFamilyParams(m=0.5, n=2, b=b)) ** 0.5
            for b in grid
        ]
        i = int(np.argmax(vals))
        assert f_star == pytest.approx(vals[i], abs=1e-8)
        assert abs(b_star - grid[i]) < 1e-3

    def test_maximum_exceeds_one(self):
        _, f_star = maximize_F(1.0, 3)
        assert f_star > 1.0

    def test_unknown_family(self):
        # the p family is two-dimensional only
        for n, family in ((2, "q"), (3, "p")):
            with pytest.raises(ValueError):
                maximize_F(1.0, n, family=family)


class TestLowerBound:
    def test_balanced_center_is_tight(self):
        margin, sigma = check_lower_bound_est1(ball(2), np.zeros(2), -1.0)
        assert margin == 0.0
        assert sigma == 0.0

    def test_balanced_off_center_rejected(self):
        with pytest.raises(ValueError):
            check_lower_bound_est1(ball(2), np.array([0.3, 0.0]), -1.0)

    def test_annulus_margin_positive(self):
        margin, sigma = check_lower_bound_est1(Annulus(0.2), math.sqrt(0.2), -2.0)
        assert margin > 3.0 * sigma
        assert sigma > 0.0

    def test_annulus_level_around_the_hole_refused(self):
        # at r = 0.01 and w = 0.901 e^{2i} the trace of t = -0.01 settles around the hole too, with an area
        # at least pi r^2 too large, and its flux falls short of 2 pi: the margin would read 8.62 +- 8.2e-13
        with pytest.raises(green1d.CriticalLevelError, match="flux"):
            check_lower_bound_est1(Annulus(0.01), 0.901 * np.exp(2j), -0.01)

    def test_annulus_at_level_zero_is_exact(self):
        # the sublevel set at t = 0 is the whole annulus, of volume pi (1 - r^2); tracing would refuse it
        margin, sigma = check_lower_bound_est1(Annulus(0.2), 0.45, 0.0)
        assert (margin, sigma) == (bergman.kernel_annulus(0.2, 0.45).value - 1.0 / (math.pi * (1.0 - 0.2**2)), 0.0)
        assert margin > 0.0

    def test_positive_t_rejected(self):
        with pytest.raises(ValueError):
            check_lower_bound_est1(ball(2), np.zeros(2), 1.0)


class TestReverseSuita:
    def test_ratio_above_bound(self):
        for r in (0.5, 0.1, 0.01):
            res = check_reverse_suita(r)
            assert res.ratio >= res.bound

    def test_ratio_unbounded(self):
        assert check_reverse_suita(1e-4).ratio > check_reverse_suita(1e-2).ratio

    def test_special_radius_unit_bound(self):
        # r = e^{-pi^3/2} makes the lower bound exactly 1
        res = check_reverse_suita(math.exp(-math.pi**3 / 2.0))
        assert res.bound == pytest.approx(1.0, rel=1e-12)
        assert res.ratio >= 1.0

    def test_forward_direction_holds(self):
        # pi K >= c^2 across the annulus
        from suitaverify import bergman, green1d

        for w in np.linspace(0.25, 0.95, 8):
            k = bergman.kernel_annulus(0.2, w).value
            c = green1d.robin_capacity(green1d.AnnulusGreen(0.2, w))
            assert math.pi * k >= c**2


class TestExperiments:
    def test_monotonicity_report(self):
        report = monotonicity_experiment(
            0.2, math.sqrt(0.2), [-4, -3, -2, -1], SampleStream(2, seed=2), 2**17
        )
        assert report.kind == "monotonicity"
        assert report.verdicts["normalized_non_decreasing_3sigma"] is True
        assert report.verdicts["limit_within_2pct"] is True
        payload = json.loads(json.dumps(dataclasses.asdict(report), default=float))
        assert payload["grid"]["r"] == 0.2
        assert len(payload["samples"]) == 4

    def test_cross_check_counts_the_last_levels_stream(self):
        stream = SampleStream(2, seed=4)
        report = monotonicity_experiment(0.2, math.sqrt(0.2), [-3, -2, -1], stream, 2**14)
        assert [row["route"] for row in report.samples] == ["trace"] * 3
        assert report.verdicts["hit_count_matches_trace_3sigma"] is True
        g = green1d.AnnulusGreen(0.2, math.sqrt(0.2))
        hit, err = green1d.sublevel_volume(g, -1.0, stream.split(2), 2**14)
        assert report.metadata["hit_count_t"] == -1.0
        assert report.metadata["hit_count"] == hit
        assert report.metadata["hit_count_stderr"] == err

    def test_level_next_to_zero_is_hit_counted_in_full(self):
        # the trace refuses t = -1e-6; the count must hold all of { G < t }, which reaches within about 1e-6 of
        # both circles
        report = monotonicity_experiment(0.5, 0.7, [-0.5, -1e-6], SampleStream(2, seed=0), 2**16)
        row = report.samples[1]
        assert row["route"] == "hit-count"
        # the reference: value itself, with membership from |z|, on 2^18 points over [-1, 1]^2
        u = SampleStream(2, seed=1).points(2**18)
        z = (2.0 * u[:, 0] - 1.0) + 1j * (2.0 * u[:, 1] - 1.0)
        z = z[(np.abs(z) < 1.0) & (np.abs(z) > 0.5)]
        reference = 4.0 * np.count_nonzero(green1d.AnnulusGreen(0.5, 0.7).value(z) < -1e-6) / u.shape[0]
        assert abs(row["lambda"] - reference) <= 3.0 * row["stderr"]

    def test_level_around_the_hole_is_hit_counted(self):
        report = monotonicity_experiment(0.01, 0.901 * np.exp(2j), [-0.5, -0.01], SampleStream(2, seed=0), 2**16)
        assert [row["route"] for row in report.samples] == ["trace", "hit-count"]
        assert report.metadata["hit_count_t"] == -0.5

    def test_wrong_traced_area_fails_the_cross_check(self, monkeypatch):
        level = green1d.level_flux_and_isoperimetric

        def five_percent_high(green, t, *args):
            st = level(green, t, *args)
            return dataclasses.replace(st, area=1.05 * st.area)

        monkeypatch.setattr(green1d, "level_flux_and_isoperimetric", five_percent_high)
        report = monotonicity_experiment(0.2, math.sqrt(0.2), [-3, -2, -1], SampleStream(2, seed=4), 2**14)
        assert report.verdicts["normalized_non_decreasing_3sigma"] is True
        assert report.verdicts["hit_count_matches_trace_3sigma"] is False

    def test_report_round_trip_file(self, tmp_path):
        report = monotonicity_experiment(
            0.2, 0.5, [-3, -2], SampleStream(2, seed=3), 2**14
        )
        path = tmp_path / "report.json"
        dump = lambda rep: json.dumps(dataclasses.asdict(rep), indent=2, sort_keys=True, default=float)
        path.write_text(dump(report))
        assert dump(ExperimentReport(**json.loads(path.read_text()))) == dump(report)

    def test_figure_scan_ell1(self):
        report = figure_scan("ell1", [0.1, 0.3, 0.5], n_list=(2, 3))
        assert report.verdicts["all_at_least_one"] is True
        assert report.verdicts["all_below_convex_bound"] is True
        assert len(report.samples) == 6

    def test_figure_scan_p_family(self):
        report = figure_scan("p", [0.3], m_list=(1.0, 2.0))
        assert report.verdicts["all_at_least_one"] is True
        assert len(report.samples) == 2

    def test_figure_scan_p_family_stays_numeric_at_half(self, monkeypatch):
        # Ellipsoid((0.5, 1)) has a closed form, but the p family scans every m
        # through the envelope volume
        calls = []
        numeric = indicatrix.indicatrix_volume_numeric

        def counted(p, b):
            calls.append((p, b))
            return numeric(p, b)

        monkeypatch.setattr(indicatrix, "indicatrix_volume_numeric", counted)
        figure_scan("p", [0.3], m_list=(0.5,))
        assert calls == [((0.5, 1.0), 0.3)]

    def test_figure_scan_validation(self):
        with pytest.raises(ValueError):
            figure_scan("ell1", [])
        with pytest.raises(ValueError):
            figure_scan("spiral", [0.1])
        with pytest.raises(ValueError, match="m_list must be non-empty"):
            figure_scan("p", [0.1], m_list=[])
        with pytest.raises(ValueError, match="n_list must be non-empty"):
            figure_scan("ell1", [0.1], n_list=range(5, 2))
