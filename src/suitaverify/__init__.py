"""Numerical verification of kernel and indicatrix inequalities on model domains."""

import logging

from .bergman import (
    KernelValue,
    kernel_annulus,
    kernel_deflated,
    kernel_ellipsoid_axis,
    kernel_ellipsoid_closed,
    kernel_g2_center,
    kernel_reinhardt,
)
from .domains import (
    Annulus,
    Ellipsoid,
    EllipsoidFamilyParams,
    Polydisk,
    SymmetrizedBidisk,
    ball,
    contains,
    disk,
    minkowski_functional,
    monomial_norm,
    volume,
)
from .green1d import (
    AnnulusGreen,
    DiskGreen,
    covering_capacity_bound,
    level_flux_and_isoperimetric,
    robin_capacity,
    sublevel_volume,
)
from .indicatrix import (
    extremal_disc_arcs,
    indicatrix_volume_closed,
    indicatrix_volume_numeric,
    indicatrix_volume_quadrature,
)
from .numerics import SampleStream, find_root_monotone, integrate_1d
from .suita import (
    ExperimentReport,
    SuitaRatio,
    check_lower_bound_est1,
    check_reverse_suita,
    figure_scan,
    maximize_F,
    monotonicity_experiment,
    product_closed_form,
    suita_F,
)

__version__ = "0.1.0"
# convergence shortfalls are logged; nothing prints unless the application configures logging
logging.getLogger("suitaverify").addHandler(logging.NullHandler())
