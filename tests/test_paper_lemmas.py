"""The paper's lemmas at a point: the evaluators of tests/paper_lemmas.py
against mpmath, the exact series and their closed forms."""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from theta_trunc.families import genfun_B, pair_product_spec, triple_product_spec
from theta_trunc.series import ProductSpec, ThetaParams
from oracles import mainarc_bracket
from paper_lemmas import (
    TauPoint,
    bound_check_away,
    eval_G,
    eval_product_inv,
    F_direct,
    F_expansion,
    mainarc_L_expansion,
    mp_main_factor_gap,
    mp_product_inv,
    transformed_pair_product,
)
from test_acceptance import QUAD_INSTANCES

P672 = ThetaParams(Fraction(6), Fraction(7), 2)
P210 = ThetaParams(Fraction(2), Fraction(1), 0)
# L = G / pair and L' = G / triple at (R, S) = (3, 1)
PAIR31, TRIPLE31 = pair_product_spec(3, 1), triple_product_spec(3, 1)


class TestEvalG:
    def test_squares_at_tau_i(self):
        got = eval_G(ThetaParams(Fraction(1), Fraction(0), 0), TauPoint(0.0, 1.0))
        with mp.workdps(30):
            ref = complex(mp.nsum(lambda j: mp.exp(-2 * mp.pi * j * j), [0, mp.inf]))
        assert got == pytest.approx(ref, rel=1e-14)
        assert got.real == pytest.approx(1.0018674, rel=1e-6)

    def test_d_shift_is_q_power(self):
        tau = TauPoint(0.11, 0.21)
        p0 = ThetaParams(Fraction(2), Fraction(1), 0)
        p3 = ThetaParams(Fraction(2), Fraction(1), 3)
        assert eval_G(p3, tau) == pytest.approx(eval_G(p0, tau) * tau.q**3, rel=1e-12)

    def test_modulus_bound(self):
        # |G| <= 1/(1 - |q|)
        rng = random.Random(13)
        for _ in range(15):
            tau = TauPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.01, 0.4))
            g = eval_G(P672, tau)
            assert abs(g) <= 1.0 / (1.0 - tau.q_abs) + 1e-12

    def test_empty_sum_is_complex(self):
        # the cutoff (about 19.6) lies below d = 22, so no term is summed
        got = eval_G(ThetaParams(Fraction(6), Fraction(23), 22), TauPoint(0.123, 0.3))
        assert type(got) is complex
        assert got == 0j


class TestEvalProduct:
    def test_partition_product_at_tau_i(self):
        got = eval_product_inv(ProductSpec([(1, 1)]), TauPoint(0.0, 1.0))
        with mp.workdps(30):
            ref = complex(1 / mp.nprod(lambda k: 1 - mp.exp(-2 * mp.pi * k), [1, mp.inf]))
        assert got == pytest.approx(ref, rel=1e-13)

    def test_empty_spec(self):
        assert eval_product_inv(ProductSpec([]), TauPoint(0.1, 0.1)) == 1.0

    def test_periodic_in_x(self):
        spec = ProductSpec([(1, 3), (2, 3)])
        a = eval_product_inv(spec, TauPoint(0.3, 0.07))
        b = eval_product_inv(spec, TauPoint(1.3, 0.07))
        assert a == pytest.approx(b, rel=1e-12)

    def test_mpmath_path_matches_float_path(self):
        # The float product, one exp per part, against mpmath.qp at 40
        # digits; the worst seen is 5.4e-15, at y = 0.002.
        for spec in (ProductSpec([(1, 3), (2, 3)]), ProductSpec([(1, 3), (2, 3), (3, 3)])):
            for tau in (TauPoint(0.02, 0.05), TauPoint(0.0, 0.005), TauPoint(0.02, 0.005),
                        TauPoint(0.0, 0.002), TauPoint(0.02, 0.002)):
                a = eval_product_inv(spec, tau, 1e-16)
                with mp.workdps(40):
                    b = mp_product_inv(spec, tau)
                assert a == pytest.approx(complex(b), rel=1e-12)


class TestEvalL:
    def test_matches_exact_series(self):
        tau = TauPoint(0.0, 0.3)
        series = genfun_B(P210, 3, 1, 200)
        q = tau.q
        ref = sum(series[n] * q**n for n in range(200))
        got = eval_G(P210, tau, 1e-18) * eval_product_inv(PAIR31, tau, 1e-18)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_Lprime_is_L_times_extra_factor(self):
        tau = TauPoint(0.04, 0.09)
        extra = eval_product_inv(ProductSpec([(3, 3)]), tau)
        g = eval_G(P210, tau)
        assert g * eval_product_inv(TRIPLE31, tau) == pytest.approx(
            g * eval_product_inv(PAIR31, tau) * extra, rel=1e-12
        )

    def test_constant_term_limit(self):
        # as y -> infinity, L -> 1 for d = 0 and -> 0 for d > 0
        tau = TauPoint(0.0, 40.0)
        assert eval_G(P210, tau) * eval_product_inv(PAIR31, tau) == pytest.approx(1.0, abs=1e-100)
        p_d2 = ThetaParams(Fraction(2), Fraction(1), 2)
        assert abs(eval_G(p_d2, tau) * eval_product_inv(PAIR31, tau)) < 1e-100


class TestFb:
    def test_direct_value(self):
        got = F_direct(1, 0.1)
        with mp.workdps(30):
            ref = complex(mp.nsum(lambda n: mp.exp(-(n * n + n) * mp.mpf("0.1")), [0, mp.inf]))
        assert got == pytest.approx(ref, rel=1e-13)
        assert got.real == pytest.approx(2.8734411, rel=1e-7)

    def test_direct_requires_positive_real_part(self):
        with pytest.raises(ValueError):
            F_direct(1, complex(-0.1, 0.0))

    def test_b1_expansion_is_closed_form(self):
        # every Bernoulli term vanishes at b = 1
        for theta in (0.3, 0.1 + 0.05j):
            got = F_expansion(1, theta, 2)
            want = cmath.exp(theta / 4) * cmath.sqrt(math.pi / theta) / 2
            assert got == pytest.approx(want, rel=1e-14)

    def test_remainder_shrinks_like_theta4(self):
        b = Fraction(1, 2)
        diffs = []
        for theta in (0.2, 0.1, 0.05, 0.025, 0.0125):
            diffs.append(abs(F_direct(b, theta, 1e-18) - F_expansion(b, theta, 4)))
        ratios = [diffs[i] / diffs[i + 1] for i in range(len(diffs) - 1)]
        for r in ratios:
            assert 8 <= r <= 32  # about 2^4 per halving

    def test_sector_violation(self):
        with pytest.raises(ValueError, match="outside the sector"):
            F_expansion(1, complex(0.1, 0.2), 4)

    def test_nterms_range(self):
        with pytest.raises(ValueError):
            F_expansion(1, 0.1, 5)


class TestTransformedPairProduct:
    def test_corrected_equals_direct(self):
        spec = ProductSpec([(1, 3), (2, 3)])
        for x, y in ((0.0, 0.05), (0.03, 0.05), (-0.01, 0.02)):
            tau = TauPoint(x, y)
            direct = eval_product_inv(spec, tau, 1e-18)
            corr = transformed_pair_product(3, 1, tau, corrected=True, tol=1e-18)
            assert corr == pytest.approx(direct, rel=1e-10)

    def test_main_factor_magnitude(self):
        for R, S, y in ((3, 1, 0.05), (5, 2, 0.03)):
            got = abs(transformed_pair_product(R, S, TauPoint(0.0, y)))
            want = (
                math.exp(-math.pi * y * (R / 6 - S + S * S / R))
                * math.exp(math.pi / (6 * R * y))
                / (2 * math.sin(math.pi * S / R))
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_main_factor_gap_bound(self):
        # |direct/main - 1| <= 10 exp(-2 pi/(R y)) at tau = i y; needs mpmath
        for y in (0.05, 0.02):
            with mp.workdps(100):
                gap = mp_main_factor_gap(3, 1, y)
                assert gap <= 10 * mp.exp(-2 * mp.pi / (3 * y))

    def test_rejects_bad_rs(self):
        with pytest.raises(ValueError):
            transformed_pair_product(4, 2, TauPoint(0.0, 0.05))


class TestMainArc:
    def test_ratio_converges_monotonically(self):
        gaps = []
        for y in (0.04, 0.02, 0.01, 0.005):
            tau = TauPoint(0.0, y)
            L = eval_G(P672, tau, 1e-18) * eval_product_inv(PAIR31, tau, 1e-18)
            gaps.append(abs(L / mainarc_L_expansion(P672, 3, 1, tau) - 1))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_bernoulli_terms_drop_when_c_is_a(self):
        p = ThetaParams(Fraction(2), Fraction(2), 0)
        tau = TauPoint(0.004, 0.01)
        got = mainarc_L_expansion(p, 3, 1, tau)
        t = tau.tau
        w = -2j * math.pi * t
        e = float(Fraction(0) - Fraction(2, 4) + Fraction(3, 12) - Fraction(1, 2) + Fraction(1, 6))
        pref = cmath.exp(1j * math.pi / (18 * t)) / (2 * math.sin(math.pi / 3))
        want = pref * (
            0.5 * math.sqrt(math.pi / 2) / cmath.sqrt(w)
            - 0.5 * e * math.sqrt(math.pi / 2) * cmath.sqrt(w)
        )
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("a, c, d, R, S", QUAD_INSTANCES[::3])
    def test_matches_explicit_bracket(self, a, c, d, R, S):
        # The ladder-based expansion against the four-term bracket written out
        # with its own E and Bernoulli values, on and at the edge of the arc.
        p = ThetaParams(a, c, d)
        for tau in (TauPoint(0.0, 0.05), TauPoint(-0.01, 0.01), TauPoint(0.001, 0.002)):
            want = mainarc_bracket(p, R, S, tau)
            assert mainarc_L_expansion(p, R, S, tau) == pytest.approx(want, rel=1e-13)

    def test_prefactor_magnitude(self):
        # |exp(pi i/(6 R tau))| = exp(pi/(6 R y)) at tau = i y
        for R, y in ((3, 0.02), (7, 0.05)):
            got = abs(cmath.exp(1j * math.pi / (6 * R * complex(0, y))))
            assert got == pytest.approx(math.exp(math.pi / (6 * R * y)), rel=1e-12)

    def test_violation(self):
        with pytest.raises(ValueError, match="on the main arc"):
            mainarc_L_expansion(P672, 3, 1, TauPoint(0.05, 0.01))


class TestBoundCheck:
    def test_lhs_below_shape(self):
        r = bound_check_away(1, 3, TauPoint(0.05, 0.05))
        assert r.lhs < r.rhs_shape

    def test_ratio_decays_with_y(self):
        r1 = bound_check_away(1, 3, TauPoint(0.10, 0.05))
        r2 = bound_check_away(1, 3, TauPoint(0.04, 0.02))
        assert r2.ratio < r1.ratio

    def test_real_negative_q(self):
        r = bound_check_away(1, 2, TauPoint(0.5, 0.03))
        assert math.isfinite(r.lhs) and math.isfinite(r.rhs_shape)

    def test_range_violation(self):
        with pytest.raises(ValueError, match=r"need y <= \|x\| <= 1/2"):
            bound_check_away(1, 3, TauPoint(0.01, 0.05))
        with pytest.raises(ValueError, match=r"need y <= \|x\| <= 1/2"):
            bound_check_away(1, 3, TauPoint(0.7, 0.05))

    def test_requires_coprime(self):
        with pytest.raises(ValueError, match="need coprime B > A >= 1"):
            bound_check_away(2, 4, TauPoint(0.1, 0.05))
