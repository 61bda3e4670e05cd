import logging
import math
import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from suitaverify import numerics
from suitaverify.domains import EllipsoidFamilyParams
from suitaverify.indicatrix import indicatrix_volume_closed
from suitaverify.numerics import (
    BracketError,
    ConvergenceError,
    SampleStream,
    find_root_monotone,
    golden_section_max,
    integrate_1d,
)


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

    def test_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(numerics, "_ROOT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            find_root_monotone(lambda x: x**3 - 2.0 * x - 5.0, 1.0, 3.0)

    @pytest.mark.parametrize(
        "f",
        [
            lambda x, c: x**3 - c,
            lambda x, c: np.exp(x) - c,
            lambda x, c: np.arctan(x - c),
            lambda x, c: x + 0.5 * np.sin(x) - c,
            lambda x, c: np.log1p(x) - 0.1 * c,
            lambda x, c: np.tanh(5.0 * (x - c)) + 1e-3 * (x - c),
        ],
        ids=["cube", "exp", "arctan", "sine", "log1p", "tanh"],
    )
    def test_matches_scipy_elementwise(self, f):
        from scipy.optimize import elementwise

        c = np.linspace(0.5, 10.0, 40)
        x = find_root_monotone(f, -0.9, 20.0, rel_tol=1e-15, args=(c,))
        ref = elementwise.find_root(f, (-0.9, 20.0), args=(c,), tolerances=dict(xatol=1e-300, xrtol=1e-15)).x
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).min()

    def test_end_values_save_two_calls(self):
        c = np.array([0.5, 2.0, 7.0])
        lo, hi = np.zeros(3), np.full(3, 3.0)
        calls = []

        def f(x, c):
            calls.append(x.size)
            return x * x - c

        x = find_root_monotone(f, lo, hi, args=(c,))
        n = len(calls)
        x_ends = find_root_monotone(f, lo, hi, args=(c,), f_lo=lo * lo - c, f_hi=hi * hi - c)
        assert len(calls) - n == n - 2
        assert x_ends.tolist() == x.tolist()

    def test_non_finite_values(self):
        with pytest.raises(ConvergenceError):
            find_root_monotone(lambda x: np.full_like(x, np.nan), 0.0, 1.0)

    def test_first_nan_ends_the_solve(self):
        values = []

        def f(x):
            values.append(np.where(x > 0.5, np.nan, -1.0))
            return values[-1]

        with pytest.raises(ConvergenceError):
            find_root_monotone(f, 0.0, 1.0, f_lo=-1.0, f_hi=1.0)
        assert [bool(np.isnan(v).any()) for v in values] == [False] * (len(values) - 1) + [True]

    def test_scalar_bracket_gives_a_float(self):
        assert type(find_root_monotone(lambda x: x * x - 2.0, 0.0, 2.0)) is float
        assert find_root_monotone(lambda x: x * x - 2.0, np.zeros(1), 2.0).shape == (1,)

    def test_no_runtime_warnings(self):
        # infinite end values, roots on the ends, non-finite values and a failed bracket
        # go through divisions by zero and infinities; none of them may warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_root_monotone(np.log, 0.0, 2.0, f_lo=-np.inf) == pytest.approx(1.0, abs=1e-12)
            assert find_root_monotone(lambda x: x, 0.0, 1.0) == 0.0
            assert find_root_monotone(lambda x: x - 1.0, 0.0, 1.0) == 1.0
            with pytest.raises(ConvergenceError):
                find_root_monotone(lambda x: np.where(x > 0.5, np.nan, -1.0), 0.0, 1.0, f_hi=1.0)
            with pytest.raises(BracketError):
                find_root_monotone(lambda x: x + 1.0, 0.0, 1.0)

    def test_logs_each_call(self, caplog):
        c = np.array([0.5, 2.0, 7.0])
        with caplog.at_level(logging.DEBUG, logger="suitaverify.numerics"):
            x = find_root_monotone(lambda x, c: x * x - c, np.zeros(3), np.full(3, 3.0), args=(c,))
        (rec,) = [r for r in caplog.records if r.name == "suitaverify.numerics"]
        assert rec.levelno == logging.DEBUG
        brackets, iterations, widest = rec.args
        assert brackets == 3 and 1 <= iterations <= numerics._ROOT_MAX_ITER
        assert 0.0 < widest <= 1e-10 * x.max()


class TestQuadrature:
    def test_linear(self):
        assert integrate_1d(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_constant(self):
        assert integrate_1d(lambda x: 2.0, 0.0, 1.5) == pytest.approx(3.0, rel=1e-15)

    def test_sine(self):
        assert integrate_1d(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)

    def test_cubic_exact(self):
        val = integrate_1d(lambda x: 3 * x**3 - x**2 + 2 * x - 7, -1.0, 2.0)
        exact = 3 / 4 * (16 - 1) - (8 + 1) / 3 + (4 - 1) - 7 * 3
        assert val == pytest.approx(exact, rel=1e-12)

    def test_divergent_integral(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="suitaverify.numerics"):
            with pytest.raises(ConvergenceError):
                integrate_1d(lambda x: 1.0 / x, 0.0, 1.0)
        (rec,) = [r for r in caplog.records if r.name == "suitaverify.numerics"]
        assert rec.levelno == logging.DEBUG
        levels, nodes, change = rec.args
        assert levels >= 1 and nodes > 0 and change > 0.0

    def test_end_singularity_too_strong_to_resolve(self):
        # x^-0.2 is integrable, but its part below the outermost node is 6e-14, not rounding
        with pytest.raises(ConvergenceError, match="beyond its outermost nodes"):
            integrate_1d(lambda x: x**-0.2, 0.0, 1.0)

    @pytest.mark.parametrize("f, exact", [(np.log, -1.0), (np.sqrt, 2.0 / 3.0), (lambda x: x**-0.1, 1.0 / 0.9)])
    def test_mild_end_singularities(self, f, exact):
        assert integrate_1d(f, 0.0, 1.0) == pytest.approx(exact, rel=1e-14)

    def test_calls_f_once_per_level_on_arrays(self, caplog):
        calls = []

        def f(x):
            assert np.all((0.0 < x) & (x < 1.0))  # no node on an end
            calls.append(x.size)
            return np.exp(x)

        with caplog.at_level(logging.DEBUG, logger="suitaverify.numerics"):
            assert integrate_1d(f, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)
        (rec,) = [r for r in caplog.records if r.name == "suitaverify.numerics"]
        levels, nodes, _ = rec.args
        assert len(calls) == levels and sum(calls) == nodes

    def test_kinked_profile_matches_closed_volume(self):
        # radial integral of the two-branch profile against its closed form, split at the kink
        m, n, b = 1.0, 2, 0.5
        params = EllipsoidFamilyParams(m=m, n=n, b=b)
        knot, a = 2.0 * b * (1.0 - b), (n - 1) / m
        inner = integrate_1d(lambda r: r * (1.0 - b - r**2 / (4.0 * b * (1.0 - b))) ** a, 0.0, knot)
        outer = integrate_1d(lambda r: r * (1.0 - b**2 - r) ** a, knot, 1.0 - b**2)
        expected = indicatrix_volume_closed(params) / (2.0 * math.pi * params.omega)
        assert inner + outer == pytest.approx(expected, rel=1e-10)


class TestSampleStream:
    def test_determinism_byte_identical(self):
        a = SampleStream(dimension=3, seed=42).points(1000)
        b = SampleStream(dimension=3, seed=42).points(1000)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.filterwarnings("ignore:The balance properties")
    @pytest.mark.parametrize("n", [1, 2, 1000, 1024, 2**14 + 3, 2**20])
    @pytest.mark.parametrize("seed", [0, 12345, SampleStream(2, 0).split(3).seed])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_is_scrambled_sobol(self, d, seed, n):
        expected = qmc.Sobol(d=d, scramble=True, seed=seed).random(n)
        assert SampleStream(d, seed).points(n).tobytes() == expected.tobytes()

    # every pair but 2^20 one-point blocks, which take about 20 s; the other sizes cover 2^20 points
    @pytest.mark.parametrize(
        "count,size",
        [(n, k) for n in (1, 3000, 2**14 + 77, 2**20) for k in (2**0, 2**4, 2**10, 2**14) if (n, k) != (2**20, 1)],
    )
    @pytest.mark.parametrize("d", [2, 4])
    def test_words_join_to_the_points(self, d, count, size):
        stream = SampleStream(d, seed=9)
        blocks = list(stream.words(count, size))
        lengths = [base.shape[1] for base, _ in blocks]
        assert lengths[:-1] == [size] * (len(blocks) - 1) and 1 <= lengths[-1] <= size
        # one first block B, shared by every pair, and one key word per dimension
        first = blocks[0][0]
        for base, key in blocks:
            assert base.dtype == key.dtype == np.uint32 and key.shape == (d,)
            assert base.base is first.base and not base.flags.writeable
            assert base.tobytes() == first[:, : base.shape[1]].tobytes()
        joined = np.concatenate([(base ^ key[:, None]).T * 2.0**-numerics.SOBOL_BITS for base, key in blocks])
        assert joined.tobytes() == stream.points(count).tobytes()

    @pytest.mark.parametrize("size", [0, 3, 2**14 + 1, -4])
    def test_block_size_not_a_power_of_two_is_refused(self, size):
        # refused at the call, before the first block is asked for
        with pytest.raises(ValueError, match="power of two"):
            SampleStream(2).words(100, size)

    def test_dimension_above_four_is_refused(self):
        with pytest.raises(ValueError, match="dimension"):
            SampleStream(5)

    def test_count_above_two_to_the_thirty_is_refused(self):
        # raised before any allocation: 2^30 + 1 points would take 16 GiB
        with pytest.raises(ValueError, match="count"):
            SampleStream(2).points(2**30 + 1)
        with pytest.raises(ValueError, match="count"):
            SampleStream(2).words(2**30 + 1, 2**14)

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
