import itertools
import logging
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suitaverify import bergman, domains
from suitaverify.bergman import (
    KernelValue,
    kernel_annulus,
    kernel_deflated,
    kernel_deflated_via_identity,
    kernel_ellipsoid_axis,
    kernel_ellipsoid_closed,
    kernel_g2_center,
    kernel_reinhardt,
)
from suitaverify.domains import Ellipsoid, EllipsoidFamilyParams, Polydisk, ball, disk
from suitaverify.numerics import ConvergenceError

import oracle  # perfbench/oracle.py, the mpmath references the benchmark checks against


def _annulus_kernel_q_mp(r, w0):
    """(1/(pi |w|^2)) (1/(-2 log r) + sum_k sum_{a in {x, y}} a q^k / (1 - a q^k)^2) at 40 digits,
    x = |w|^2, y = (r/|w|)^2, q = r^2, summed until q^k/(1 - q), which bounds the tail's share,
    is below 1e-40; unlike oracle.annulus_kernel's Laurent sum it reaches points next to the circles."""
    with mp.workdps(40):
        r, w0 = mp.mpf(r), mp.mpf(w0)
        q = r * r
        total, qk = 1 / (-2 * mp.log(r)), mp.mpf(1)
        while qk > mp.mpf(10) ** -40 * (1 - q):
            total += sum(a * qk / (1 - a * qk) ** 2 for a in (w0 * w0, (r / w0) ** 2))
            qk *= q
        return float(total / (mp.pi * w0 * w0))


def _annulus_kernel_images_mp(r, w0):
    """(c^2 / (pi |w|^2)) (1/sin^2 theta + sum_{k>=1} 2 Re 1/sin^2(theta + i k kappa)) at 40 digits,
    h = -log r, c = pi/(2h), kappa = pi^2/h, theta = pi log(|w|/r)/h, summed until an image is
    below 1e-45 of the total; its image count falls as r -> 1, where both k-sums above slow down."""
    with mp.workdps(40):
        r, w0 = mp.mpf(r), mp.mpf(w0)
        h = -mp.log(r)
        kappa, theta = mp.pi**2 / h, mp.pi * mp.log(w0 / r) / h
        total, k = 1 / mp.sin(theta) ** 2, 1
        while True:
            image = 2 * mp.re(1 / mp.sin(theta + 1j * k * kappa) ** 2)
            total += image
            if abs(image) < mp.mpf(10) ** -45 * total:
                return float((mp.pi / (2 * h)) ** 2 / (mp.pi * w0 * w0) * total)
            k += 1


class TestKernelReinhardt:
    def test_disk_closed_form(self):
        # K(w) = 1 / (pi (1 - |w|^2)^2)
        for w in (0.0, 0.3, 0.5 + 0.2j):
            k = kernel_reinhardt(disk(), np.array([w]))
            expected = 1.0 / (math.pi * (1.0 - abs(w) ** 2) ** 2)
            assert k.value == pytest.approx(expected, rel=1e-10)

    def test_ball2_closed_form(self):
        # K(w) = 2 / (pi^2 (1 - |w|^2)^3)
        w = np.array([0.3, 0.2 + 0.4j])
        k = kernel_reinhardt(ball(2), w)
        nrm = float(np.sum(np.abs(w) ** 2))
        assert k.value == pytest.approx(2.0 / (math.pi**2 * (1.0 - nrm) ** 3), rel=1e-9)

    def test_polydisk_product(self):
        w = np.array([0.4, -0.3 + 0.2j])
        k = kernel_reinhardt(Polydisk(2), w)
        expected = np.prod([1.0 / (math.pi * (1.0 - abs(c) ** 2) ** 2) for c in w])
        assert k.value == pytest.approx(float(expected), rel=1e-10)

    def test_center_is_reciprocal_volume(self):
        for dom in (disk(), ball(2), Ellipsoid((0.5, 2.0)), Polydisk(3)):
            k = kernel_reinhardt(dom, np.zeros(dom.dimension))
            assert k.value == pytest.approx(1.0 / domains.volume(dom), rel=1e-12)
            assert k.error_bound == 0.0
            assert k.terms == 1

    @pytest.mark.parametrize("p,b", [(1.0, 0.3), (2.0, 0.6), (5.0, 0.2)])
    def test_matches_closed_form_axis(self, p, b):
        dom = Ellipsoid((0.5, 1.0 / p))
        k = kernel_reinhardt(dom, np.array([b, 0.0], dtype=complex))
        kc = kernel_ellipsoid_closed(p, b)
        assert k.value == pytest.approx(kc.value, rel=1e-9)

    @pytest.mark.parametrize("m", [0.5, 2.0, 8.0, 128.0])
    @pytest.mark.parametrize("b", [1e-3, 0.1, 0.5, 0.9, 0.99])
    def test_axis_kernel_closed_form(self, m, b):
        # on {|z1|^{2m} + |z2|^2 < 1}, ||z1^j||^2 = pi^2 m / ((j+1)(j+1+m)), so
        # K((b,0)) = ((1+x) + m(1-x)) / (pi^2 m (1-x)^3) with x = b^2
        # (Boas, Fu & Straube, Proc. AMS 1999): the series is the closed kernel's check route
        x, omx = b * b, (1.0 - b) * (1.0 + b)
        expected = ((1.0 + x) + m * omx) / (math.pi**2 * m * omx**3)
        k = kernel_reinhardt(Ellipsoid((m, 1.0)), np.array([b, 0.0], dtype=complex))
        assert k.value == pytest.approx(expected, rel=1e-13)
        closed = kernel_ellipsoid_axis(m, b)
        assert closed.method == "closed-form"
        assert closed.value == pytest.approx(k.value, rel=1e-13)

    @pytest.mark.parametrize("b", [1e-8, 0.5, 0.99, 0.999, 1.0 - 1e-6])
    def test_axis_kernel_closed_form_to_rounding(self, b):
        # at m = 1/2 the domain is {|z1| + |z2|^2 < 1}, the ell1 family's p = 1; the series is
        # 9.2e-13 off at b = 0.999, where its log-gamma terms carry ulps of size 1e4
        k = kernel_ellipsoid_axis(0.5, b)
        assert k.value == pytest.approx(oracle.ellipsoid_axis_kernel(1.0, b), rel=1e-14)

    def test_axis_kernel_closed_form_validation(self):
        assert kernel_ellipsoid_axis(2.0, 0.0).value == pytest.approx(3.0 / (2.0 * math.pi**2), rel=1e-15)
        for m, b in ((0.0, 0.5), (-1.0, 0.5), (2.0, 1.0), (2.0, -0.1)):
            with pytest.raises(ValueError):
                kernel_ellipsoid_axis(m, b)

    @pytest.mark.parametrize(
        "dom,w,reference",
        [
            (ball(2), [0.6, 0.45j], oracle.ball_kernel),
            (ball(3), [0.8, 0.05, 0.02], oracle.ball_kernel),
            (ball(3), [0.5 - 0.3j, 0.0, 0.4j], oracle.ball_kernel),
            (Polydisk(3), [0.5, 0.4, 0.3], oracle.polydisk_kernel),
        ],
        ids=["ball2", "ball3", "ball3-zero-coordinate", "polydisk3"],
    )
    def test_off_axis_to_rounding(self, dom, w, reference):
        w = np.array(w, dtype=complex)
        k = kernel_reinhardt(dom, w)
        assert k.value == pytest.approx(reference(w), rel=1e-14)
        # the partial sum of positive terms is a lower bound; the tail is at rounding
        assert k.error_bound < 1e-15 * k.value

    @pytest.mark.parametrize(
        "dom,w",
        [
            (Ellipsoid((0.7, 1.5, 2.0)), [0.15, 0.2j, -0.3]),
            (Ellipsoid((0.7, 1.5, 2.0), radii=(1.3, 0.8, 1.1)), [0.2, 0.15j, -0.3]),
            # a zero coordinate whose exponent differs from the active ones,
            # which are equal in the first case and unequal in the second
            (Ellipsoid((3.0, 1.0, 1.0)), [0.0, 0.3, 0.25j]),
            (Ellipsoid((0.7, 3.0, 2.0), radii=(1.0, 0.9, 1.0)), [0.25, 0.0, -0.3]),
        ],
        ids=["unit-radii", "radii", "zero-coordinate", "zero-coordinate-unequal"],
    )
    def test_off_axis_ellipsoid_matches_loop_reference(self, dom, w):
        # one multi-index at a time with the scalar norm, summed to degree 30:
        # the neglected tail is about (h^2)^30 with h the Minkowski functional,
        # and h < 0.46 because w / 0.46 lies in the domain
        w = np.array(w, dtype=complex)
        absw = np.abs(w)
        ref = math.fsum(
            float(np.prod(absw ** (2.0 * np.array(alpha)))) / domains.monomial_norm(dom, alpha)
            for d in range(31)
            for a1 in range(d + 1)
            for alpha in ((a1, a2, d - a1 - a2) for a2 in range(d - a1 + 1))
        )
        assert domains.contains(dom, w / 0.46) and 0.46**60 < 1e-20
        assert kernel_reinhardt(dom, w).value == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("k,lo,hi", [(2, 0, 9), (2, 5, 12), (3, 0, 7), (3, 4, 9), (4, 2, 6)])
    def test_rows_match_a_loop_over_the_degree_blocks(self, k, lo, hi):
        rng = np.random.default_rng(10 * k + lo)
        tables = [rng.standard_normal((k, hi)), rng.standard_normal((k, hi + 3))]
        degree, sums = bergman._rows(lo, hi, tables)
        alphas = [a for a in itertools.product(range(hi), repeat=k) if lo <= sum(a) < hi]
        assert degree.tolist() == [sum(a) for a in alphas]
        for t, s in zip(tables, sums):
            want = []
            for a in alphas:
                acc = t[0][a[0]]
                for j in range(1, k):
                    acc = acc + t[j][a[j]]
                want.append(float(acc))
            assert s.tolist() == want

    def test_term_budget_raises(self, monkeypatch):
        monkeypatch.setattr(bergman, "TERM_BUDGET", 10_000)
        with pytest.raises(ConvergenceError):
            kernel_reinhardt(ball(3), np.array([0.9, 0.3, 0.2]))

    def test_logs_its_convergence(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="suitaverify"):
            k = kernel_reinhardt(ball(2), np.array([0.5, 0.3]))
        (rec,) = [r for r in caplog.records if r.name == "suitaverify.bergman"]
        assert rec.levelno == logging.DEBUG
        degree, terms, tail = rec.args
        assert degree >= 8 and terms >= (degree + 1) * (degree + 2) // 2
        assert tail == k.error_bound
        # the value sums degrees 0 .. degree; the logged count also holds the rest of the last chunk
        assert k.terms == (degree + 1) * (degree + 2) // 2

    def test_error_bound_is_honest(self, monkeypatch):
        # stopped far from rounding, the tail estimate must still cover the neglected terms
        monkeypatch.setattr(bergman, "ROUNDING_SHARE", 1e-6)
        w = np.array([0.5, 0.3])
        k = kernel_reinhardt(ball(2), w)
        expected = oracle.ball_kernel(w)
        assert 1e-9 * expected < expected - k.value <= k.error_bound

    def test_monotone_in_base_point(self):
        vals = [
            kernel_reinhardt(ball(2), np.array([b, 0.0])).value for b in (0.0, 0.3, 0.6)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_boundary_point_rejected(self):
        with pytest.raises(ValueError):
            kernel_reinhardt(disk(), np.array([1.0]))
        with pytest.raises(ValueError):
            kernel_reinhardt(ball(2), np.array([0.8, 0.8]))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            kernel_reinhardt(ball(2), np.array([0.1]))

    def test_non_reinhardt_rejected(self):
        with pytest.raises(TypeError):
            kernel_reinhardt(domains.Annulus(0.2), np.array([0.5]))

    def test_float_protocol(self):
        k = kernel_reinhardt(disk(), np.array([0.0]))
        assert float(k) == k.value
        assert isinstance(k, KernelValue)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    n=st.integers(2, 4),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    share=st.floats(0.0, 1.0),
)
def test_ball_kernel_closed_form(n, direction, share):
    # |w|^2 up to 0.7, and up to 0.4 in n = 4, whose degree blocks reach thousands of rows
    x = share * (0.7 if n < 4 else 0.4)
    u = np.array(direction[:n]) + 1j * np.array(direction[n : 2 * n])
    size = np.linalg.norm(u)
    w = u * (math.sqrt(x) / size) if size > 1e-100 else np.zeros(n, dtype=complex)
    x = float(np.sum(np.abs(w) ** 2))
    expected = math.factorial(n) / (math.pi**n * (1.0 - x) ** (n + 1))
    assert kernel_reinhardt(ball(n), w).value == pytest.approx(expected, rel=1e-13)


class TestKernelAnnulus:
    def test_series_vs_quadrature_norms(self):
        # independent route: the truncated Laurent sum of w^{2j} / ||z^j||^2, with
        # ||z^j||^2 = pi (1 - r^{2j+2}) / (j+1), and -2 pi log r at j = -1
        r, w0 = 0.3, 0.55

        def norm(j):
            return -2.0 * math.pi * math.log(r) if j == -1 else math.pi * (1.0 - r ** (2 * j + 2)) / (j + 1)

        total = sum(w0 ** (2 * j) / norm(j) for j in range(-60, 61))
        k = kernel_annulus(r, w0)
        assert k.value == pytest.approx(total, rel=1e-10)

    def test_rotation_invariance(self):
        a = kernel_annulus(0.2, 0.5)
        b = kernel_annulus(0.2, 0.5 * np.exp(1j * 1.234))
        assert a.value == pytest.approx(b.value, rel=1e-14)

    def test_inversion_symmetry(self):
        # z -> r/z is an automorphism; K transforms with |(r/z^2)|^2
        r = 0.2
        w = 0.6
        lhs = kernel_annulus(r, r / w).value * (r / w**2) ** 2
        rhs = kernel_annulus(r, w).value
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_blows_up_near_boundary(self):
        assert kernel_annulus(0.2, 0.98).value > kernel_annulus(0.2, 0.6).value * 10

    @pytest.mark.parametrize("r", [0.015, 0.2, 0.9])
    @pytest.mark.parametrize("where", ["near-inner", "sqrt", "near-outer"])
    def test_matches_laurent_oracle(self, r, where):
        w0 = {"near-inner": 1.05 * r, "sqrt": math.sqrt(r), "near-outer": 0.95}[where]
        k = kernel_annulus(r, w0)
        expected = oracle.annulus_kernel(r, w0)
        assert k.value == pytest.approx(expected, rel=1e-13)
        assert k.error_bound <= 1e-16 * k.value

    @pytest.mark.parametrize("r", [1e-4, 0.015, 0.2, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("where", ["next-to-inner", "sqrt", "next-to-outer"])
    def test_matches_q_series_oracle_next_to_the_circles(self, r, where):
        w0 = {"next-to-inner": r * (1.0 + 1e-7), "sqrt": math.sqrt(r), "next-to-outer": 1.0 - 1e-7}[where]
        k = kernel_annulus(r, w0)
        assert k.value == pytest.approx(_annulus_kernel_q_mp(r, w0), rel=1e-15)
        assert k.error_bound <= 1e-16 * k.value

    @pytest.mark.parametrize("r", [0.015, 0.2, 0.9])
    @pytest.mark.parametrize("where", ["near-inner", "sqrt", "near-outer"])
    def test_the_two_oracles_agree(self, r, where):
        w0 = {"near-inner": 1.05 * r, "sqrt": math.sqrt(r), "near-outer": 0.95}[where]
        laurent = oracle.annulus_kernel(r, w0)
        assert _annulus_kernel_q_mp(r, w0) == pytest.approx(laurent, rel=1e-15)
        assert _annulus_kernel_images_mp(r, w0) == pytest.approx(laurent, rel=1e-15)

    @pytest.mark.parametrize("r", [1e-4, 0.015, 0.2, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("where", ["next-to-inner", "sqrt", "next-to-outer"])
    def test_image_oracle_matches_q_series_oracle_next_to_the_circles(self, r, where):
        w0 = {"next-to-inner": r * (1.0 + 1e-7), "sqrt": math.sqrt(r), "next-to-outer": 1.0 - 1e-7}[where]
        assert _annulus_kernel_images_mp(r, w0) == pytest.approx(_annulus_kernel_q_mp(r, w0), rel=1e-15)

    def test_error_bound_is_honest(self, monkeypatch):
        # stopped far from rounding, the two-sided tail bound must still cover the omitted
        # images; at small r they are large enough to show (at r = 0.9 the first is 1e-81 of K)
        monkeypatch.setattr(bergman, "ROUNDING_SHARE", 1e-6)
        for r, w0 in ((0.015, 0.05), (1e-4, 0.01), (1e-4, 0.5)):
            k = kernel_annulus(r, w0)
            expected = oracle.annulus_kernel(r, w0)
            assert 1e-9 * expected < abs(expected - k.value) <= k.error_bound

    @pytest.mark.parametrize("w0", [(1.0 - 1e-6) * (1.0 + 1e-7), 1.0 - 5e-7, 1.0 - 1e-7])
    def test_next_to_r_equal_one(self, w0):
        # a q-series would need about 2.6e7 terms here; the k = 0 image alone is exact
        r = 1.0 - 1e-6
        k = kernel_annulus(r, w0)
        assert k.value == pytest.approx(_annulus_kernel_images_mp(r, w0), rel=1e-15)
        assert k.error_bound <= 1e-16 * k.value

    def test_logs_its_convergence(self, caplog):
        # the fewest images |k| <= n whose omitted bounds 8 p_k / (1 - p_k)^2,
        # p_k = e^{-(2k-1) kappa}, sum below ROUNDING_SHARE, whatever the base point
        kappa = math.pi**2 / -math.log(0.2)
        p = lambda k: math.exp(-(2 * k - 1) * kappa)
        tail = lambda n: sum(8 * p(k) / (1 - p(k)) ** 2 for k in range(n + 1, n + 50))
        n = next(n for n in range(100) if tail(n) <= bergman.ROUNDING_SHARE)
        assert 2 * n + 1 == 7
        for w0 in (0.20000002, 0.7, 0.9999999):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="suitaverify"):
                k = kernel_annulus(0.2, w0)
            (rec,) = [r for r in caplog.records if r.name == "suitaverify.bergman"]
            assert rec.levelno == logging.DEBUG
            images, tail = rec.args
            assert images == k.terms == 2 * n + 1
            assert tail == k.error_bound

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_annulus(1.5, 0.5)
        with pytest.raises(ValueError):
            kernel_annulus(0.3, 0.2)


class TestClosedForms:
    def test_small_b_limit(self):
        # K((b,0)) -> 1/volume as b -> 0
        p = 2.0
        dom = Ellipsoid((0.5, 1.0 / p))
        assert kernel_ellipsoid_closed(p, 1e-6).value == pytest.approx(
            1.0 / domains.volume(dom), rel=1e-5
        )

    def test_deflation_identity_grid(self):
        for m in (0.5, 1.0, 2.0):
            for n in (2, 3, 4):
                for b in (0.2, 0.7):
                    params = EllipsoidFamilyParams(m=m, n=n, b=b)
                    closed = kernel_deflated(params)
                    via = kernel_deflated_via_identity(params)
                    assert closed.value == pytest.approx(via.value, rel=1e-12)

    def test_deflated_reduces_to_2d(self):
        params = EllipsoidFamilyParams(m=1.0, n=2, b=0.4)
        assert kernel_deflated(params).value == pytest.approx(
            kernel_ellipsoid_closed(1.0, 0.4).value, rel=1e-13
        )

    def test_deflated_matches_series_3d(self):
        params = EllipsoidFamilyParams(m=1.0, n=3, b=0.3)
        k = kernel_reinhardt(
            Ellipsoid((0.5, 1.0, 1.0)), np.array([0.3, 0.0, 0.0], dtype=complex)
        )
        assert k.value == pytest.approx(kernel_deflated(params).value, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_ellipsoid_closed(-1.0, 0.5)
        with pytest.raises(ValueError):
            kernel_ellipsoid_closed(1.0, 1.5)


class TestG2Center:
    def test_value(self):
        assert kernel_g2_center().value == pytest.approx(2.0 / math.pi**2, abs=0.0)
