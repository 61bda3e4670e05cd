"""Numerical verification of kernel and indicatrix inequalities on model domains."""

import logging

from . import bergman, domains, green1d, indicatrix, numerics, suita

__version__ = "0.1.0"
# convergence shortfalls are logged; nothing prints unless the application configures logging
logging.getLogger("suitaverify").addHandler(logging.NullHandler())
