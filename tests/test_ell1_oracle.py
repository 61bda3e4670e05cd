"""The ell1-family closed forms against the mpmath oracle of perfbench/oracle.py.

The family is { |z1| + |z2|^{2m} + ... + |z_n|^{2m} < 1 } at (b, 0, ..., 0),
with a = (n-1)/m + 2.  The grid reaches b = 1e-12, where the textbook
expressions cancel catastrophically, and b = 1 - 1e-6.  The family maximum
is checked against the oracle's, and F >= 1 as a property over (m, n, b).
"""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suitaverify.bergman import kernel_deflated, kernel_ellipsoid_closed
from suitaverify.domains import EllipsoidFamilyParams
from suitaverify.indicatrix import indicatrix_volume_closed
from suitaverify.suita import maximize_F, product_closed_form

import oracle  # perfbench/oracle.py, the mpmath references the benchmark checks against

B_GRID = [1e-12, 1e-8, 1e-6, *np.logspace(-5.0, math.log10(1.0 - 1e-6), 30).tolist(), 0.1, 1.0 - 1e-6]


def test_oracle_is_the_benchmark_oracle():
    # a stray module named oracle earlier on the path must not become the reference
    assert Path(oracle.__file__).resolve().parent == Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 8.0, 128.0])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_F_matches_oracle_and_is_at_least_one(m, n):
    for b in B_GRID:
        f = product_closed_form(EllipsoidFamilyParams(m=m, n=n, b=b)) ** (1.0 / n)
        assert f >= 1.0, b
        assert abs(f / oracle.ell1_F(m, n, b) - 1) <= 1e-15, b


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 8.0, 128.0])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_product_matches_factors(m, n):
    # neither route cancels, so they agree to rounding
    for b in B_GRID:
        params = EllipsoidFamilyParams(m=m, n=n, b=b)
        factors = kernel_deflated(params).value * indicatrix_volume_closed(params)
        assert abs(factors / product_closed_form(params) - 1.0) <= 1e-13, b


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 8.0, 128.0])
def test_kernel_matches_oracle(m):
    for b in B_GRID:
        k = kernel_ellipsoid_closed(1.0 / m, b).value
        assert abs(k / oracle.ellipsoid_axis_kernel(1.0 / m, b) - 1) <= 4e-15, b


def test_family_maximum_matches_oracle():
    """maximize_F(1/2, 3) against the maximum of the oracle's F.

    The oracle gives F* = 1.00411786609845 at b* = 0.163501754936633.
    Criterion 2b pins F* = 1.004178, which is this value with two digits
    transposed; that pinned value and its tolerance stay as published.
    """
    b_star, f_star = oracle.ell1_F_max(0.5, 3)
    assert abs(b_star - 0.163501754936633) <= 1e-14
    assert abs(f_star - 1.00411786609845) <= 1e-14
    b, f = maximize_F(0.5, 3)
    assert abs(f - f_star) <= 1e-12
    assert abs(b - b_star) <= 1e-6


# b log-uniform near 0 and near 1
_B = st.one_of(
    st.floats(-12.0, math.log10(0.5)).map(lambda s: 10.0**s),
    st.floats(-6.0, math.log10(0.5)).map(lambda s: 1.0 - 10.0**s),
)


@settings(derandomize=True, deadline=None)
@given(m=st.floats(0.5, 128.0), n=st.integers(2, 8), b=_B)
def test_F_is_at_least_one(m, n, b):
    assert product_closed_form(EllipsoidFamilyParams(m=m, n=n, b=b)) ** (1.0 / n) >= 1.0
