"""asymptotics: scaled Bessel, LogValue, the family main terms, and the
family rung against the paper's block ladders built in tests/oracles.py."""

import math
import random
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from theta_trunc.asymptotics import (
    THREE_R,
    TWO_R,
    LogValue,
    bessel_I_scaled,
    bessel_argument,
    family_rung,
    logvalue_ratio,
    mainterm_family,
    power_scale,
)
from theta_trunc.families import FAMILIES, FamilySpec, decompose_family, default_grid
from theta_trunc.series import ThetaParams

from oracles import (
    PAPER_RUNGS,
    bernoulli_poly,
    mp_family_mainterm,
    paper_block_ladder,
    paper_block_rationals,
    paper_scaled_ladder,
)

HALF = Fraction(1, 2)


class TestBernoulli:
    """The general recurrence of tests/oracles.py, which the paper's rung
    rationals are built from, against printed values and mpmath."""

    def test_printed_values(self):
        assert bernoulli_poly(1, Fraction(0)) == Fraction(-1, 2)
        assert bernoulli_poly(3, HALF) == 0
        assert bernoulli_poly(3, Fraction(1)) == 0  # 1 - 3/2 + 1/2

    def test_odd_vanish_at_half(self):
        for n in (1, 3, 5, 7, 9, 11):
            assert bernoulli_poly(n, HALF) == 0

    def test_against_mpmath(self):
        rng = random.Random(7)
        with mp.workdps(30):
            for _ in range(20):
                n = rng.randrange(0, 13)
                x = Fraction(rng.randrange(-8, 9), rng.choice([1, 2, 3, 4]))
                mine = bernoulli_poly(n, x)
                ref = mp.bernpoly(n, mp.mpf(x.numerator) / x.denominator)
                assert abs(float(mine) - float(ref)) <= 1e-12 * max(1.0, abs(float(ref)))

    def test_float_input(self):
        assert bernoulli_poly(1, 0.25) == Fraction(-1, 4)


class TestBesselScaled:
    def test_minus_half_closed_form(self):
        # I_{-1/2}(x) = sqrt(2/(pi x)) cosh x
        for x in (0.7, 1.0, 12.0, 80.0):
            want = math.sqrt(2 / (math.pi * x)) * math.cosh(x) * math.exp(-x)
            assert bessel_I_scaled(-HALF, x) == pytest.approx(want, rel=1e-10)
        assert bessel_I_scaled(-HALF, 1.0) == pytest.approx(0.4529332469, rel=1e-9)

    def test_plus_half_closed_form(self):
        for x in (0.7, 1.0, 12.0, 80.0):
            want = math.sqrt(2 / (math.pi * x)) * math.sinh(x) * math.exp(-x)
            assert bessel_I_scaled(HALF, x) == pytest.approx(want, rel=1e-10)

    def test_integer_symmetry(self):
        for x in (0.5, 5.0, 50.0):
            assert bessel_I_scaled(-2, x) == bessel_I_scaled(2, x)

    def test_large_x_limit(self):
        # sqrt(2 pi x) e^-x I_nu(x) -> 1 within 1% at x = 500 for the five
        # orders the main terms use (the first correction is (4nu^2-1)/(8x),
        # so orders beyond |nu| = 3 would need larger x)
        for nu in (-HALF, -1, Fraction(-3, 2), -2, Fraction(-5, 2)):
            val = bessel_I_scaled(nu, 500.0) * math.sqrt(2 * math.pi * 500.0)
            assert abs(val - 1) < 0.01

    def test_against_mpmath_grid(self):
        orders = [Fraction(n, 2) for n in range(-8, 9)]
        with mp.workdps(30):
            for nu in orders:
                for x in (0.3, 3.0, 29.5, 30.5, 200.0):
                    ref = float(
                        mp.besseli(mp.mpf(nu.numerator) / nu.denominator, x)
                        * mp.exp(-x)
                    )
                    assert bessel_I_scaled(nu, x) == pytest.approx(ref, rel=5e-11)

    def test_recurrence(self):
        # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x), scaled form
        for nu in (-HALF, HALF, Fraction(-3, 2), 1, 2, Fraction(5, 2), -3):
            for x in (1.0, 10.0, 100.0):
                lhs = bessel_I_scaled(nu - 1, x) - bessel_I_scaled(nu + 1, x)
                rhs = 2 * float(nu) / x * bessel_I_scaled(nu, x)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-18)

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="integer or half-integer in"):
            bessel_I_scaled(Fraction(9, 2), 10.0)
        with pytest.raises(ValueError, match="integer or half-integer in"):
            bessel_I_scaled(Fraction(1, 3), 10.0)


class TestLogValue:
    def test_from_int_huge(self):
        v = 10**500 + 12345
        lv = LogValue.from_int(v)
        assert lv.sign == 1
        assert lv.lnmag == pytest.approx(500 * math.log(10), rel=1e-13)
        assert LogValue.from_int(-v).sign == -1
        assert LogValue.from_int(0).sign == 0

    def test_ratio_and_mismatch(self):
        a = LogValue(1, math.log(6.0))
        b = LogValue(1, math.log(2.0))
        assert logvalue_ratio(a, b) == pytest.approx(3.0)
        assert logvalue_ratio(a, LogValue(-1, b.lnmag)) == "sign-mismatch"
        assert logvalue_ratio(LogValue.zero(), b) == "sign-mismatch"


def scaled_value(ladder, N, R, variant):
    """(value / e^x, x) of the ladder sum coeff s^p I_{-p}(x) over its rungs
    (coeff, p), with x and s of the circle at N."""
    s = power_scale(N, R, variant)
    x = bessel_argument(N, R, variant)
    return sum(coeff * s ** float(power) * bessel_I_scaled(-power, x) for coeff, power in ladder), x


def paper_block_mainterm(p, R, S, N, variant):
    """(ladder, value) of the paper's four-rung Bessel main term of a block."""
    ladder = paper_block_ladder(p, R, S, variant)
    return ladder, LogValue.from_scaled(*scaled_value(ladder, N, R, variant))


def mp_mainterm_B(a, c, d, R, S, N, variant):
    """Independent high-precision evaluation of the four-term expansion."""
    with mp.workdps(50):
        a, c, d = mp.mpf(a), mp.mpf(c), mp.mpf(d)
        sin0 = mp.sin(mp.pi * S / R)
        if variant == THREE_R:
            x = 2 * mp.pi * mp.sqrt(mp.mpf(N) / (3 * R))
            s = mp.pi / mp.sqrt(mp.mpf(3 * R * N))
            e = d - c * c / (4 * a) + mp.mpf(R) / 12 - mp.mpf(S) / 2 + mp.mpf(S * S) / (2 * R)
        else:
            x = 2 * mp.pi * mp.sqrt(mp.mpf(N) / (2 * R))
            s = mp.pi / mp.sqrt(mp.mpf(2 * R * N))
            e = d - c * c / (4 * a) + mp.mpf(R) / 8 - mp.mpf(S) / 2 + mp.mpf(S * S) / (2 * R)
        b1 = mp.bernpoly(1, c / (2 * a))
        b3 = mp.bernpoly(3, c / (2 * a))
        if variant == THREE_R:
            val = (
                mp.sqrt(mp.pi / a) / (4 * sin0) * mp.sqrt(s) * mp.besseli(-0.5, x)
                - b1 / (2 * sin0) * s * mp.besseli(-1, x)
                - mp.sqrt(mp.pi / a) * e / (4 * sin0) * s**1.5 * mp.besseli(-1.5, x)
                + (e * b1 + a * b3 / 3) / (2 * sin0) * s**2 * mp.besseli(-2, x)
            )
        else:
            val = (
                mp.sqrt(mp.mpf(R) / (2 * a)) / (4 * sin0) * s * mp.besseli(-1, x)
                - mp.sqrt(mp.mpf(R) / (2 * mp.pi)) * b1 / (2 * sin0) * s**1.5 * mp.besseli(-1.5, x)
                - mp.sqrt(mp.mpf(R) / (2 * a)) * e / (4 * sin0) * s**2 * mp.besseli(-2, x)
                + (e * b1 + a * b3 / 3) * mp.sqrt(mp.mpf(R) / (2 * mp.pi)) / (2 * sin0) * s**2.5 * mp.besseli(-2.5, x)
            )
        return val


def mp_elementary(spec, N):
    """The Cprime, D and Dprime closed forms of the mainterm_family docstring,
    in mpmath (C has its own checks below)."""
    with mp.workdps(50):
        R, S, k = spec.R, spec.S, spec.k
        N = mp.mpf(N)
        sin0 = mp.sin(mp.pi * S / R)
        if spec.family == "Cprime":
            grow2 = mp.exp(2 * mp.pi * mp.sqrt(N / (2 * R)))
            return mp.pi * k * S * N ** mp.mpf(-1.5) / (8 * mp.sqrt(2 * R) * sin0) * grow2
        grow3 = mp.exp(2 * mp.pi * mp.sqrt(N / (3 * R)))
        if spec.family == "D":
            return mp.pi * (2 * k + 1) * S * N ** mp.mpf(-1.25) / (4 * mp.mpf(3 * R) ** mp.mpf(0.75) * sin0) * grow3
        return -mp.pi * k * S * N ** mp.mpf(-1.25) / (mp.mpf(3 * R) ** mp.mpf(0.75) * sin0) * grow3


class TestMainTerms:
    P = ThetaParams(Fraction(6), Fraction(7), 2)

    def test_leading_coefficient_B(self):
        ladder, _ = paper_block_mainterm(self.P, 3, 1, 100, THREE_R)
        coeff, power = ladder[0]
        want = math.sqrt(math.pi / 6) / (4 * math.sin(math.pi / 3))
        assert coeff == pytest.approx(want)
        assert power == Fraction(1, 2)

    def test_leading_coefficient_Bprime(self):
        ladder, _ = paper_block_mainterm(self.P, 3, 1, 100, TWO_R)
        coeff, power = ladder[0]
        want = math.sqrt(3 / 12) / (4 * math.sin(math.pi / 3))
        assert coeff == pytest.approx(want)
        assert power == Fraction(1)

    def test_bernoulli_zero_kills_terms(self):
        # c/(2a) = 1/2 makes B1 and B3 vanish
        p = ThetaParams(Fraction(2), Fraction(2), 0)
        ladder, _ = paper_block_mainterm(p, 3, 1, 50, THREE_R)
        assert ladder[1][0] == 0.0 and ladder[3][0] == 0.0
        ladder2, _ = paper_block_mainterm(p, 3, 1, 50, TWO_R)
        assert ladder2[1][0] == 0.0 and ladder2[3][0] == 0.0

    def test_B_against_independent_evaluation(self):
        _, lv = paper_block_mainterm(self.P, 3, 1, 400, THREE_R)
        ref = mp_mainterm_B(6, 7, 2, 3, 1, 400, THREE_R)
        assert lv.sign == mp.sign(ref)
        assert lv.lnmag == pytest.approx(float(mp.log(abs(ref))), rel=1e-12)

    def test_Bprime_against_independent_evaluation(self):
        _, lv = paper_block_mainterm(self.P, 3, 1, 400, TWO_R)
        ref = mp_mainterm_B(6, 7, 2, 3, 1, 400, TWO_R)
        assert lv.sign == mp.sign(ref)
        assert lv.lnmag == pytest.approx(float(mp.log(abs(ref))), rel=1e-12)

    def test_C_elementary_lnmag_formula(self):
        spec = FamilySpec("C", 3, 1, 1)
        for N in (100, 5000):
            lv = mainterm_family(spec, N, "elementary")
            want = (
                math.log(math.pi)
                - 1.25 * math.log(N)
                - math.log(4 * 9**0.75 * math.sin(math.pi / 3))
                + 2 * math.pi * math.sqrt(N / 9)
            )
            assert lv.sign == 1
            assert lv.lnmag == pytest.approx(want, rel=1e-14)

    def test_Dprime_is_negative(self):
        spec = FamilySpec("Dprime", 3, 1, 1)
        for N in (10, 1000):
            assert mainterm_family(spec, N, "elementary").sign == -1
            assert mainterm_family(spec, N, "bessel").sign == -1

    def test_elementary_vs_independent(self):
        spec = FamilySpec("C", 3, 1, 1)
        lv = mainterm_family(spec, 10**4, "elementary")
        with mp.workdps(50):
            ref = (
                mp.pi
                * mp.mpf(10**4) ** mp.mpf("-1.25")
                / (4 * mp.mpf(9) ** mp.mpf("0.75") * mp.sin(mp.pi / 3))
                * mp.exp(2 * mp.pi * mp.sqrt(mp.mpf(10**4) / 9))
            )
            assert lv.sign == 1
            assert lv.lnmag == pytest.approx(float(mp.log(ref)), rel=1e-13)

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("Cprime", 5, 2, 2),
            FamilySpec("Cprime", 3, 1, 1),
            FamilySpec("D", 7, 3, 0),
            FamilySpec("D", 5, 2, 1),
            FamilySpec("Dprime", 4, 1, 2),
            FamilySpec("Dprime", 3, 1, 1),
        ],
        ids=lambda s: "%s-%d-%d-%d" % (s.family, s.R, s.S, s.k),
    )
    def test_elementary_against_closed_form(self, spec):
        for N in (10**2, 10**4):
            lv = mainterm_family(spec, N, "elementary")
            ref = mp_elementary(spec, N)
            assert lv.sign == mp.sign(ref)
            assert lv.lnmag == pytest.approx(float(mp.log(abs(ref))), rel=1e-13)

    def test_bessel_against_mpmath_reference(self):
        # the collapsed family rung against the paper's, evaluated apart
        worst = 0.0
        for spec in default_grid():
            for N in (1, 7, 50, 333, 1000, 2500, 4000, 10**4):
                lv = mainterm_family(spec, N, "bessel")
                ref = mp_family_mainterm(spec, N)
                assert lv.sign == mp.sign(ref), (spec, N)
                worst = max(worst, abs(lv.lnmag - float(mp.log(abs(ref)))))
        assert worst <= 1e-12

    def test_elementary_close_to_bessel(self):
        # leading-term substitution: |elementary/bessel - 1| <= 5/x
        for spec in (
            FamilySpec("C", 3, 1, 1),
            FamilySpec("Cprime", 5, 2, 2),
            FamilySpec("D", 7, 3, 0),
            FamilySpec("Dprime", 4, 1, 2),
        ):
            for N in (10**3, 10**4, 10**5):
                el = mainterm_family(spec, N, "elementary")
                be = mainterm_family(spec, N, "bessel")
                r = logvalue_ratio(el, be)
                assert r != "sign-mismatch"
                x = be.lnmag  # dominated by the Bessel argument
                variant = TWO_R if spec.family == "Cprime" else THREE_R
                arg = bessel_argument(N, spec.R, variant)
                assert abs(r - 1) <= 5.0 / arg


def paper_family_rung(spec):
    """(variant, sums, rung): the paper's rung rationals of the blocks of
    ``decompose_family`` summed with their signs on the family's circle, and
    the last (coefficient, power) rung of those sums, scaled."""
    variant, _ = PAPER_RUNGS[spec.family]
    blocks = decompose_family(spec)
    assert len({p.a for _, p in blocks}) == 1
    sums = [Fraction(0)] * 4
    for sign, p in blocks:
        for i, r in enumerate(paper_block_rationals(p, spec.R, spec.S, variant)):
            sums[i] += sign * r
    return variant, sums, paper_scaled_ladder(sums, blocks[0][1].a, spec.R, spec.S, variant)[3]


@st.composite
def family_specs(draw, max_R, max_k):
    """Valid family specs with R <= max_R and k <= max_k."""
    family = draw(st.sampled_from(FAMILIES))
    pair = family in ("C", "Cprime")
    R = draw(st.integers(2 if pair else 3, max_R))
    top = R - 1 if pair else (R - 1) // 2
    S = draw(st.sampled_from([s for s in range(1, top + 1) if gcd(R, s) == 1]))
    k = draw(st.integers(0 if family == "D" else 1, max_k))
    return FamilySpec(family, R, S, k)


class TestCollapse:
    def test_e_constant_shared(self):
        # the third rung rational is -E
        for spec in default_grid():
            variant, _ = PAPER_RUNGS[spec.family]
            es = {
                paper_block_rationals(p, spec.R, spec.S, variant)[2]
                for _, p in decompose_family(spec)
            }
            assert len(es) == 1

    def test_rung_rationals_collapse_exactly(self):
        # A block's rung coefficients are these rationals times
        # sqrt(pi/a) odd/(4 sin0) (rungs 1, 3) or odd/(2 sin0) (rungs 2, 4).  The
        # blocks of a family share a, R and S, so the collapse onto the last
        # rung is the exact identity sum sign * rationals = (0, 0, 0, w S)
        # with the paper's weight w, and family_rung is that rung, scaled.
        for spec in default_grid():
            variant, sums, rung = paper_family_rung(spec)
            assert sums == [0, 0, 0, PAPER_RUNGS[spec.family][1](spec.k) * spec.S], spec
            assert family_rung(spec) == (variant, *rung), spec

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(family_specs(60, 30))
    @example(FamilySpec("C", 3, 1, 10**6))
    @example(FamilySpec("Cprime", 7, 3, 10**6))
    @example(FamilySpec("D", 11, 5, 10**6))
    @example(FamilySpec("D", 3, 1, 999983))
    @example(FamilySpec("Dprime", 5, 2, 10**6))
    @example(FamilySpec("Cprime", 60, 59, 123457))
    def test_one_rung_survives(self, spec):
        # sum sign = 0 and shared a, E cancel rungs 1 and 3, sum sign c = 0
        # rung 2; the last rung is left at weight w S, which family_rung
        # states: the pinned specs check it far past the drawn k <= 30
        variant, sums, rung = paper_family_rung(spec)
        assert sums == [0, 0, 0, PAPER_RUNGS[spec.family][1](spec.k) * spec.S]
        assert family_rung(spec) == (variant, *rung)

    def test_expansion_scaled_value_consistency(self):
        spec = FamilySpec("C", 3, 1, 2)
        _, _, rung = paper_family_rung(spec)
        v, x = scaled_value([rung], 500, spec.R, THREE_R)
        lv = mainterm_family(spec, 500, "bessel")
        assert lv.lnmag == pytest.approx(math.log(v) + x)
