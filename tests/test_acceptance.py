"""Acceptance suite: one test per pinned criterion.

Criteria 1-12 are the entries of ``suitaverify.checks.CHECKS``, the same
registry ``suitaverify verify-all`` renders; entry ``i`` becomes
``test_criterion_<i+1>_<check function name>``.  The family maximum
(criterion 2) gives one test per verdict, so its location (2a) and value
(2b) pass or fail separately.  Criterion 13, the property suite, is
test-only.  Each test prints a PASS/FAIL line with the measured quantity
before asserting, so a full run doubles as a verification report.
"""
import functools

import numpy as np

from suitaverify import bergman, checks, domains, suita
from suitaverify.domains import Ellipsoid

# checks whose verdicts are separate criteria: 2a (location) and 2b (value)
SPLIT_BY_VERDICT = {"family_maximum": ("location", "value")}


@functools.lru_cache(maxsize=None)
def _outcome(index):
    return checks.CHECKS[index].fn()


def _report(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _make_test(name, index, verdict=None):
    check = checks.CHECKS[index]

    def test():
        verdicts, detail = _outcome(index)
        keys = list(verdicts) if verdict is None else [verdict]
        failed = [k for k in keys if not verdicts[k]]
        label = f"criterion {index + 1}: {check.name}" + (f" [{verdict}]" if verdict else "")
        assert _report(label, not failed, detail), f"failed verdicts: {failed}"

    test.__name__ = name
    return test


for _i, _check in enumerate(checks.CHECKS):
    _stem = f"test_criterion_{_i + 1:02d}_{_check.fn.__name__}"
    for _verdict in SPLIT_BY_VERDICT.get(_check.fn.__name__, [None]):
        _name = f"{_stem}_{_verdict}" if _verdict else _stem
        globals()[_name] = _make_test(_name, _i, _verdict)


def test_criterion_13_property_suite():
    # C^1 contact of the two gamma branches at the kink r0 = 2b(1-b)
    contact = 0.0
    for b in (0.2, 0.5, 0.8):
        r0 = 2.0 * b * (1.0 - b)
        inner = 1.0 - b - r0**2 / (4.0 * b * (1.0 - b))
        outer = 1.0 - b**2 - r0
        d_inner = -2.0 * r0 / (4.0 * b * (1.0 - b))
        contact = max(contact, abs(inner - outer), abs(d_inner - (-1.0)))
    contact_ok = contact < 1e-12

    # balanced-center identities: F = 1 and e^{-2nt} lambda({G<t}) = lambda, a zero margin of the lower bound
    center_ok = True
    for dom in (domains.ball(2), Ellipsoid((0.5, 2.0)), domains.Polydisk(2)):
        center_ok = center_ok and suita.suita_F(dom).F == 1.0
        for t in (-2.0, -0.5):
            center_ok = center_ok and suita.check_lower_bound_est1(dom, None, t) == (0.0, 0.0)

    # scaling covariance: K_{c Omega}(c w) = K_Omega(w) / c^{2n}
    c = 1.7
    scale_dev = 0.0
    for p, w in (((0.5, 1.0), (0.3, 0.0)), ((1.0, 1.0), (0.2, 0.4))):
        base = Ellipsoid(p)
        scaled = Ellipsoid(p, radii=(c,) * len(p))
        k0 = bergman.kernel_reinhardt(base, np.array(w, dtype=complex)).value
        k1 = bergman.kernel_reinhardt(scaled, c * np.array(w, dtype=complex)).value
        scale_dev = max(scale_dev, abs(k1 * c ** (2 * len(p)) / k0 - 1.0))
        # F at the center is scale invariant (and exactly 1)
        scale_dev = max(scale_dev, abs(suita.suita_F(scaled).F - 1.0))
    scale_ok = scale_dev < 1e-12

    ok = contact_ok and center_ok and scale_ok
    assert _report(
        "criterion 13: property suite",
        ok,
        f"gamma contact {contact:.1e}, center identities={center_ok}, "
        f"scaling dev {scale_dev:.1e}",
    )
