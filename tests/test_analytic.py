"""The paper's lemmas at a point (tests/paper_lemmas.py), then the circle
quadrature of analytic."""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from theta_trunc import analytic, cli
from theta_trunc.analytic import (
    _integrand_grid,
    ArcSplit,
    QuadratureSpec,
    arc_split_diagnostic,
    circle_y,
    min_samples,
    wright_coefficient,
)
from theta_trunc.families import genfun_B, genfun_Bprime, pair_product_spec, triple_product_spec
from theta_trunc.series import ProductSpec, ThetaParams
from oracles import (
    full_fft_grid,
    full_integrand_grid,
    mainarc_bracket,
    mp_integrand_samples,
)
from paper_lemmas import (
    TauPoint,
    _denominator,
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


# The point evaluators of tests/paper_lemmas.py.

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


# The circle quadrature that analytic runs for the CLI.

class TestQuadrature:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(10, 1000)  # not a power of two
        with pytest.raises(ValueError):
            QuadratureSpec(0, 1024)
        with pytest.raises(ValueError):
            QuadratureSpec(10, 1024, "fourR")

    def test_bandwidth_rule(self):
        with pytest.raises(ValueError, match="aliasing-safe minimum"):
            wright_coefficient(P672, 3, 1, QuadratureSpec(50, 256))

    def test_rounds_to_exact_both_variants(self):
        # 20 seeded (p, R, S, N <= 60) draws, each in both variants
        rng = random.Random(2026)
        pool = [
            (P672, 3, 1),
            (ThetaParams(Fraction(6), Fraction(11), 5), 3, 1),
            (ThetaParams(Fraction(8), Fraction(10), 3), 4, 1),
            (ThetaParams(Fraction(8), Fraction(14), 9), 4, 3),
            (ThetaParams(Fraction(9, 2), Fraction(21, 2), 6), 3, 1),
            (ThetaParams(Fraction(9, 2), Fraction(9, 2), 1), 3, 1),
            (ThetaParams(Fraction(10), Fraction(11), 3), 5, 2),
            (ThetaParams(Fraction(15, 2), Fraction(23, 2), 4), 5, 2),
            (ThetaParams(Fraction(1), Fraction(0), 0), 3, 1),
            (ThetaParams(Fraction(3, 2), Fraction(1, 2), 0), 7, 3),
        ]
        for p, R, S in 2 * pool:
            N = rng.randrange(12, 61)
            for which, variant in (("B", "threeR"), ("Bprime", "twoR")):
                quad = QuadratureSpec(N, min_samples(N, R, variant), variant)
                val = wright_coefficient(p, R, S, quad)
                fn = genfun_B if which == "B" else genfun_Bprime
                exact = fn(p, R, S, N + 1)[N]
                assert abs(val - round(val)) < 1e-3
                assert round(val) == exact

    def test_constant_term(self):
        # N=1 quadrature on a d=0 block reproduces the small coefficient
        p = ThetaParams(Fraction(1), Fraction(0), 0)
        quad = QuadratureSpec(1, min_samples(1, 3))
        val = wright_coefficient(p, 3, 1, quad)
        assert round(val) == genfun_B(p, 3, 1, 2)[1]

    def test_error_budget_on_300_cases(self):
        # The criterion-5 instances x both variants x N = 50, 75, ..., 400.
        # Every error stays within 64 eps mean|v_k| of the grid values v_k
        # (worst seen: 13.2), and 243 of the 300 round to the exact value.
        eps = np.finfo(float).eps
        worst, exact_count = 0.0, 0
        for a, c, d, R, S in QUAD_INSTANCES:
            p = ThetaParams(a, c, d)
            for variant, genfun in (("threeR", genfun_B), ("twoR", genfun_Bprime)):
                exact = genfun(p, R, S, 401)
                for N in range(50, 401, 25):
                    quad = QuadratureSpec(N, min_samples(N, R, variant), variant)
                    val = wright_coefficient(p, R, S, quad)
                    vals = _integrand_grid(p, R, S, N, quad.samples, variant)
                    err = abs(val - exact[N]) / (eps * np.abs(vals).mean())
                    worst = max(worst, err)
                    exact_count += round(val) == exact[N]
        assert worst <= 64
        assert exact_count >= 243


class TestIntegrandGrid:
    CASES = [
        (ThetaParams(a, c, d), R, S, N, which, variant)
        for a, c, d, R, S in QUAD_INSTANCES
        for which, variant in (("B", "threeR"), ("Bprime", "twoR"))
        for N in (50, 300)
    ]
    # One case per instance, cycling through the four (variant, N) pairs:
    # mpmath at 40 digits costs ~40 us per part, so all 40 would take ~6 s.
    MP_CASES = [case for i, case in enumerate(CASES) if i % 4 == i // 4 % 4]

    @pytest.mark.parametrize("p, R, S, N, which, variant", CASES)
    def test_matches_per_part_loop(self, p, R, S, N, which, variant):
        # The FFT grid rounds differently from one exp and one division per
        # part; the worst relative difference seen is 7.0e-14.
        samples = min_samples(N, R, variant)
        vals = _integrand_grid(p, R, S, N, samples, variant)
        ref = full_integrand_grid(p, R, S, N, samples, variant, which, 1e-20)
        assert vals.shape == ref.shape
        assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("p, R, S, N, which, variant", MP_CASES)
    def test_cutoffs_match_per_part_loop(self, monkeypatch, p, R, S, N, which, variant):
        # At TAIL_TOL the last part of a class moves a value by ~1e-20, below
        # any float check; at 1e-3 a part too many or too few shows.
        monkeypatch.setattr(analytic, "TAIL_TOL", 1e-3)
        _integrand_grid.cache_clear()
        samples = min_samples(N, R, variant)
        vals = _integrand_grid(p, R, S, N, samples, variant)
        _integrand_grid.cache_clear()  # its key does not hold TAIL_TOL
        ref = full_integrand_grid(p, R, S, N, samples, variant, which, 1e-3)
        assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("p, R, S, N, which, variant", MP_CASES)
    def test_matches_mpmath(self, p, R, S, N, which, variant):
        samples = min_samples(N, R, variant)
        half = samples // 2
        arc = half - math.floor(circle_y(N, R, variant) * samples)  # |x| <= y
        ks = [0, half // 2, arc, half, samples - 1 - half // 3]
        vals = _integrand_grid(p, R, S, N, samples, variant)[ks]
        ref = mp_integrand_samples(p, R, S, N, samples, variant, which, 1e-20, ks)
        assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("p, R, S, N, which, variant", CASES)
    def test_half_grid_matches_full_grid_bitwise(self, p, R, S, N, which, variant):
        # The upper half is the conjugate mirror of the lower half, bit for
        # bit.  Against the same polynomials evaluated at every sample by a
        # full complex FFT, with no mirror, every value agrees to 1e-13
        # relative; the worst difference seen is 8.4e-15.
        samples = min_samples(N, R, variant)
        half = samples // 2
        vals = _integrand_grid(p, R, S, N, samples, variant)
        mirror = np.conj(vals[half - 1:0:-1])
        assert np.array_equal(vals[half + 1:].view(np.uint64), mirror.view(np.uint64))
        full = full_fft_grid(p, R, S, N, samples, variant, which, 1e-20)
        assert vals.shape == full.shape
        assert np.all(np.abs(vals - full) <= 1e-13 * np.abs(full))

    def test_poly_on_grid_folds_high_exponents(self):
        # Exponents up to three times the sample count, some repeated:
        # folding them mod samples gives the direct sum of c_n q_k^n.
        rng = np.random.default_rng(7)
        samples, ln_r = 64, -2 * math.pi * 0.002
        n = np.r_[rng.integers(0, 3 * samples, 200), 5, 5, samples + 5, 3 * samples - 1]
        c = rng.standard_normal(n.size)
        got = analytic._poly_on_grid(n, c, ln_r, samples)
        ln_q = ln_r + 2j * math.pi * (-0.5 + np.arange(samples // 2 + 1) / samples)
        want = (c[:, None] * np.exp(n[:, None] * ln_q)).sum(axis=0)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(c) @ np.exp(n * ln_r)))

    @pytest.mark.parametrize(
        "spec_of, variant",
        [(pair_product_spec, "threeR"), (triple_product_spec, "twoR")],
        ids=("pair", "triple"),
    )
    def test_log_denominator_matches_scalar_product(self, spec_of, variant):
        # exp of the log-product polynomial on the grid against the scalar
        # product, at the ends of the half grid and on and off the main arc.
        R, S, N = 5, 2, 300
        spec = spec_of(R, S)
        y = circle_y(N, R, variant)
        _, product_order, log_order = analytic._tail_orders(y, analytic.TAIL_TOL)
        samples = min_samples(N, R, variant)
        half, ln_r = samples // 2, -2 * math.pi * y
        terms = analytic._log_denominator_terms(spec, product_order, log_order)
        grid = np.exp(analytic._poly_on_grid(*terms, ln_r, samples))
        for k in (0, half // 3, half - math.floor(y * samples), half):
            ln_q = complex(ln_r, 2 * math.pi * (k / samples - 0.5))
            want = _denominator(spec, ln_q, product_order)
            assert grid[k] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("R, S", [(2, 1), (7, 3)])
    @pytest.mark.parametrize("which, variant", [("B", "threeR"), ("Bprime", "twoR")])
    def test_n_ceiling(self, R, S, which, variant):
        # The one division takes the largest values (|v| ~ 1e135 on the
        # main arc) without overflow; compare a spread of samples and the
        # main arc with the per-part loop.
        N = cli.N_CEILING
        samples = min_samples(N, R, variant)
        half = samples // 2
        vals = _integrand_grid(P672, R, S, N, samples, variant)
        assert np.isfinite(vals).all()
        ks = np.unique(np.r_[np.arange(0, samples, samples // 64), half - 8 : half + 9])
        ref = full_integrand_grid(P672, R, S, N, samples, variant, which, 1e-20, ks)
        assert np.all(np.abs(vals[ks] - ref) <= 1e-11 * np.abs(ref))

    def test_grid_is_read_only(self):
        vals = _integrand_grid(P672, 3, 1, 20, min_samples(20, 3), "threeR")
        assert not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[0] = 0.0

    def test_cmd_circle_builds_one_grid(self, capsys):
        _integrand_grid.cache_clear()
        assert cli.cmd_circle(P672, 3, 1, 20, "threeR") == 0
        info = _integrand_grid.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestArcSplit:
    def test_partition_of_range(self):
        N = 100
        for variant in ("threeR", "twoR"):
            M = min_samples(N, 3, variant)
            split = arc_split_diagnostic(P672, 3, 1, N, M, variant=variant)
            total = wright_coefficient(P672, 3, 1, QuadratureSpec(N, M, variant))
            assert isinstance(split, ArcSplit)
            recombined = (split.I_main + split.I_error).real
            assert recombined == pytest.approx(total, rel=1e-12)
            assert split.ratio < 1

    def test_ratio_decreases(self):
        prev = None
        for N in (50, 100, 200, 400):
            split = arc_split_diagnostic(P672, 3, 1, N, min_samples(N, 3))
            if prev is not None:
                assert split.ratio < prev
            prev = split.ratio


class TestGridDefaults:
    def test_min_samples_power_of_two(self):
        for N in (20, 50, 400):
            m = min_samples(N, 3)
            assert m & (m - 1) == 0
            assert m >= 2 * (math.ceil(math.log(1e20) / (2 * math.pi * circle_y(N, 3))) + N)
