"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Budgets:
criterion 1 < 60 s, criterion 2 < 5 min, criterion 4 < 10 min; everything
else runs in seconds.

Criterion 6 checks the remainder of the nterms=4 F_b expansion.  For the
generic values b = 1/2 and b = 7/6 the remainder is a theta^4 term, and the
normalized ratio stays inside a strict two-sided band over THETAS.  At
b = 1 every odd Bernoulli polynomial vanishes at 1/2, so no theta^4 term
exists.  Poisson summation of
F_1(theta) = 1/2 e^(theta/4) sum_{n in Z} e^(-(n+1/2)^2 theta) gives instead
F_direct - F_expansion = -e^(theta/4) sqrt(pi/theta) e^(-pi^2/theta)
                         (1 + O(e^(-3 pi^2/theta))),
exactly, for every real theta > 0.  On THETAS that tail lies below float64
resolution (1.5e-21 at theta = 0.2, an underflow at 0.0125), so the
difference there is rounding noise; the b = 1 case therefore checks the
tail on its own grid B1_THETAS, where it is resolved, against an explicit
rounding-plus-truncation budget.
"""

import math
import sys
import time
from fractions import Fraction

import mpmath as mp
import pytest

from theta_trunc.analytic import (
    QuadratureSpec,
    arc_split_diagnostic,
    min_samples,
    wright_coefficient,
)
from theta_trunc.asymptotics import (
    LogValue,
    bessel_I_scaled,
    logvalue_ratio,
    mainterm_family,
)
from theta_trunc.families import (
    FamilySpec,
    GRID_RS,
    decompose_family,
    default_grid,
    genfun_B,
    genfun_Bprime,
    genfun_family,
    genfun_family_via_decomposition,
    pentagonal_sides,
    quintuple_product_sides,
    scan_signs,
    truncated_pentagonal_sides,
)
from theta_trunc.series import ProductSpec, ThetaParams

from oracles import PAPER_RUNGS, paper_block_rationals
from paper_lemmas import (
    TauPoint,
    eval_product_inv,
    F_direct,
    F_expansion,
    mp_main_factor_gap,
    transformed_pair_product,
)

HALF = Fraction(1, 2)


def report(label, ok, detail=""):
    print("ACCEPTANCE %-38s %s%s" % (label, "PASS" if ok else "FAIL", detail))
    return ok


# -- criterion 1: exact identity suite --------------------------------------

def test_c1_identity_suite():
    t0 = time.monotonic()
    ok = True
    lhs, rhs = pentagonal_sides(200)
    ok &= lhs == rhs
    for k in range(1, 7):
        lhs, rhs = truncated_pentagonal_sides(k, 200)
        ok &= lhs == rhs
    for R, S in GRID_RS:
        lhs, rhs = quintuple_product_sides(R, S, 200)
        ok &= lhs == rhs
    for spec in default_grid():
        ok &= genfun_family(spec, 300) == genfun_family_via_decomposition(spec, 300)
    dt = time.monotonic() - t0
    ok &= dt < 60.0
    assert report("1 identity-suite", ok, " (%.1fs)" % dt)


# -- criterion 2: conjecture scans -------------------------------------------

def test_c2_conjecture_scans():
    t0 = time.monotonic()
    violations = []
    for spec in default_grid():
        bad = scan_signs(spec, 2000)
        if bad:
            violations.append((spec, bad[:3]))
    dt = time.monotonic() - t0
    ok = not violations and dt < 300.0
    assert report(
        "2 conjecture-scans", ok, " (%d specs, %.1fs)%s"
        % (len(default_grid()), dt, "" if not violations else " %r" % violations)
    )


# -- criterion 3: collapse identity -------------------------------------------

def test_c3_collapse_identity():
    # exact: the blocks' rung rationals as the paper writes them, summed
    # with their signs, leave only the last rung, at w S
    bad = []
    for spec in default_grid():
        variant, weight = PAPER_RUNGS[spec.family]
        rows = [
            [sign * r for r in paper_block_rationals(p, spec.R, spec.S, variant)]
            for sign, p in decompose_family(spec)
        ]
        if tuple(map(sum, zip(*rows))) != (0, 0, 0, weight(spec.k) * spec.S):
            bad.append(spec)
    ok = not bad
    assert report(
        "3 collapse-identity", ok, " (%d specs exact)%s"
        % (len(default_grid()), "" if ok else " %r" % bad)
    )


# -- criterion 4: asymptotic convergence --------------------------------------

def test_c4_asymptotic_convergence():
    t0 = time.monotonic()
    ns = (1000, 2000, 4000, 8000)
    ok = True
    details = []
    for family in ("C", "Cprime", "D"):
        spec = FamilySpec(family, 3, 1, 1)
        series = genfun_family(spec, ns[-1] + 1)
        devs = []
        for N in ns:
            r = logvalue_ratio(
                LogValue.from_int(series[N]), mainterm_family(spec, N, "elementary")
            )
            assert r != "sign-mismatch"
            devs.append(abs(r - 1))
        decreasing = all(a > b for a, b in zip(devs, devs[1:]))
        ok &= decreasing
        if family == "C":
            ok &= devs[-1] < 0.5
        details.append("%s %.3f->%.3f" % (family, devs[0], devs[-1]))
    dt = time.monotonic() - t0
    ok &= dt < 600.0
    assert report("4 asymptotic-convergence", ok, " (%s, %.1fs)" % ("; ".join(details), dt))


# -- criterion 5: circle quadrature -------------------------------------------

QUAD_INSTANCES = (
    (Fraction(6), Fraction(7), 2, 3, 1),
    (Fraction(6), Fraction(11), 5, 3, 1),
    (Fraction(6), Fraction(13), 7, 3, 1),
    (Fraction(8), Fraction(10), 3, 4, 1),
    (Fraction(10), Fraction(11), 3, 5, 2),
    (Fraction(9, 2), Fraction(21, 2), 6, 3, 1),
    (Fraction(9, 2), Fraction(9, 2), 1, 3, 1),
    (Fraction(15, 2), Fraction(23, 2), 4, 5, 2),
    (Fraction(1), Fraction(0), 0, 3, 1),
    (Fraction(3, 2), Fraction(1, 2), 0, 4, 1),
)


def test_c5_wright_quadrature():
    ok = True
    worst = 0.0
    for a, c, d, R, S in QUAD_INSTANCES:
        p = ThetaParams(a, c, d)
        for N in (20, 50):
            for which, variant in (("B", "threeR"), ("Bprime", "twoR")):
                quad = QuadratureSpec(N, min_samples(N, R, variant), variant)
                val = wright_coefficient(p, R, S, quad)
                genfun = genfun_B if which == "B" else genfun_Bprime
                exact = genfun(p, R, S, N + 1)[N]
                err = abs(val - round(val))
                worst = max(worst, err)
                ok &= err < 1e-3 and round(val) == exact
    assert report("5 wright-quadrature", ok, " (40 runs, worst %.1e)" % worst)


# -- criterion 6: saddle expansion remainder ----------------------------------

THETAS = (0.2, 0.1, 0.05, 0.025, 0.0125)
B1_THETAS = (1.0, 0.8, 0.6, 0.5)


def _c6_theta4_band(b):
    ratios = []
    for theta in THETAS:
        diff = abs(F_direct(b, theta, 1e-18) - F_expansion(b, theta, 4))
        ratios.append(diff / theta**4)
    band = max(ratios) / min(ratios)
    ok = band <= 4.0
    report("6 remainder-band b=%s" % b, ok, " (spread %.2e)" % band)
    assert ok, (
        "normalized remainder theta^-4 (F_direct - F_expansion) spans a "
        "factor %.2e over the theta grid, outside the band 4" % band
    )


def _c6_poisson_tail(b):
    # (F_direct - F_expansion) / tail must be 1 up to float64 rounding of
    # F_direct (16 eps |F|, relative to the tail) and the next Poisson
    # term e^(-4 pi^2/theta), i.e. e^(-3 pi^2/theta) relative to the tail.
    eps = sys.float_info.epsilon
    worst = worst_budget = 0.0
    ok = True
    for theta in B1_THETAS:
        direct = F_direct(b, theta, 1e-18)
        tail = -math.exp(theta / 4) * math.sqrt(math.pi / theta) * math.exp(-math.pi**2 / theta)
        dev = abs((direct - F_expansion(b, theta, 4)) / tail - 1)
        budget = 16 * eps * abs(direct) / abs(tail) + math.exp(-3 * math.pi**2 / theta)
        ok &= dev <= budget <= 1e-6
        worst = max(worst, dev)
        worst_budget = max(worst_budget, budget)
    report(
        "6 remainder-band b=%s" % b, ok,
        " (tail |ratio-1| worst %.1e, budget worst %.1e)" % (worst, worst_budget),
    )
    assert ok, (
        "remainder / (-e^(theta/4) sqrt(pi/theta) e^(-pi^2/theta)) deviates "
        "from 1 by %.2e, outside the budget, or a budget exceeds 1e-6 "
        "(worst %.2e)" % (worst, worst_budget)
    )


@pytest.mark.parametrize("b", (HALF, Fraction(1), Fraction(7, 6)), ids=("b=1/2", "b=1", "b=7/6"))
def test_c6_expansion_remainder_band(b):
    if b == 1:  # every B_{2n+1}(1/2) vanishes: only the Poisson tail is left
        _c6_poisson_tail(b)
    else:
        _c6_theta4_band(b)


# -- criterion 7: pair-product transformation ---------------------------------

def test_c7_transformation_identity():
    ok = True
    # corrected transformation vs direct evaluation, 10 main-arc samples
    worst = 0.0
    samples = [
        (3, 1, 0.00, 0.010), (3, 1, 0.01, 0.020), (3, 1, -0.03, 0.050),
        (4, 1, 0.02, 0.040), (4, 1, 0.00, 0.100), (5, 2, 0.05, 0.060),
        (5, 2, -0.01, 0.015), (7, 3, 0.00, 0.030), (7, 3, 0.07, 0.080),
        (3, 2, 0.01, 0.012),
    ]
    for R, S, x, y in samples:
        tau = TauPoint(x, y)
        direct = eval_product_inv(ProductSpec([(S, R), (R - S, R)]), tau, 1e-18)
        corr = transformed_pair_product(R, S, tau, corrected=True, tol=1e-18)
        rel = abs(corr - direct) / abs(direct)
        worst = max(worst, rel)
        ok &= rel < 1e-9
    # main-factor-only gap at tau = iy, measured at high precision
    worst_margin = 0.0
    for R, S in GRID_RS:
        for y in (0.05, 0.02):
            with mp.workdps(130):
                gap = mp_main_factor_gap(R, S, y)
                bound = 10 * mp.exp(-2 * mp.pi / (R * y))
                ok &= gap <= bound
                worst_margin = max(worst_margin, float(gap / bound))
    assert report(
        "7 transformation-identity", ok,
        " (corrected worst %.1e; gap/bound worst %.2f)" % (worst, worst_margin),
    )


# -- criterion 8: Bessel layer -------------------------------------------------

def test_c8_bessel_layer():
    ok = True
    # recurrence to 1e-9
    for nu in (-HALF, HALF, Fraction(-3, 2), 1, 2, Fraction(5, 2), -3):
        for x in (1.0, 10.0, 100.0):
            lhs = bessel_I_scaled(nu - 1, x) - bessel_I_scaled(nu + 1, x)
            rhs = 2 * float(nu) / x * bessel_I_scaled(nu, x)
            ok &= abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1e-300)
    # half-integer closed forms to 1e-10
    for x in (0.5, 3.0, 40.0, 200.0):
        want_m = math.sqrt(2 / (math.pi * x)) * math.cosh(x) * math.exp(-x)
        want_p = math.sqrt(2 / (math.pi * x)) * math.sinh(x) * math.exp(-x)
        ok &= abs(bessel_I_scaled(-HALF, x) / want_m - 1) < 1e-10
        ok &= abs(bessel_I_scaled(HALF, x) / want_p - 1) < 1e-10
    # scaled large-x limit within 1% at x = 500 for the orders in use
    for nu in (-HALF, -1, Fraction(-3, 2), -2, Fraction(-5, 2)):
        val = bessel_I_scaled(nu, 500.0) * math.sqrt(2 * math.pi * 500.0)
        ok &= abs(val - 1) < 0.01
    assert report("8 bessel-layer", ok)


# -- criterion 9: arc dominance -----------------------------------------------

def test_c9_arc_dominance():
    ok = True
    details = []
    for a, c, d, R, S in ((Fraction(6), Fraction(7), 2, 3, 1), (Fraction(8), Fraction(10), 3, 4, 1)):
        p = ThetaParams(a, c, d)
        ratios = []
        for N in (50, 100, 200, 400):
            split = arc_split_diagnostic(p, R, S, N, min_samples(N, R))
            ratios.append(split.ratio)
        ok &= all(u > v for u, v in zip(ratios, ratios[1:]))
        details.append("R=%d: %.1e->%.1e" % (R, ratios[0], ratios[-1]))
    assert report("9 arc-dominance", ok, " (%s)" % "; ".join(details))
