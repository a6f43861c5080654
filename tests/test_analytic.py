"""analytic: the circle quadrature the CLI runs, its integrand grid and
arc split; the paper's lemmas at a point are in test_paper_lemmas.py."""

import math
import random
from fractions import Fraction

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
from theta_trunc.series import ThetaParams
from oracles import full_fft_grid, full_integrand_grid, log_denominator_terms, mp_integrand_samples
from paper_lemmas import _denominator
from test_acceptance import QUAD_INSTANCES

P672 = ThetaParams(Fraction(6), Fraction(7), 2)


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
        # (worst seen: 12.0), and 245 of the 300 round to the exact value.
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
        assert exact_count >= 245


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
        # part and a separate factor q^(-N); the worst relative difference
        # seen is 1.7e-13.
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
        # relative; the worst difference seen is 1.3e-14.
        samples = min_samples(N, R, variant)
        half = samples // 2
        vals = _integrand_grid(p, R, S, N, samples, variant)
        mirror = np.conj(vals[half - 1:0:-1])
        assert np.array_equal(vals[half + 1:].view(np.uint64), mirror.view(np.uint64))
        full = full_fft_grid(p, R, S, N, samples, variant, which, 1e-20)
        assert vals.shape == full.shape
        assert np.all(np.abs(vals - full) <= 1e-13 * np.abs(full))

    def test_poly_on_grid_folds_high_exponents(self):
        # Exponents from minus twice to three times the sample count, some
        # repeated: folding them mod samples gives the direct sum of
        # c_n q_k^n, for the negative exponents of the q^(-N) shift too.
        rng = np.random.default_rng(7)
        samples, ln_r = 64, -2 * math.pi * 0.002
        n = np.r_[
            rng.integers(-2 * samples, 3 * samples, 200),
            5, 5, samples + 5, 3 * samples - 1, -1, -1, -samples - 5, -2 * samples,
        ]
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
        terms = analytic._log_denominator(spec, product_order, log_order)
        grid = np.exp(analytic._poly_on_grid(*terms, ln_r, samples))
        for k in (0, half // 3, half - math.floor(y * samples), half):
            ln_q = complex(ln_r, 2 * math.pi * (k / samples - 0.5))
            want = _denominator(spec, ln_q, product_order)
            assert grid[k] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("tol", [1e-20, 1e-3])
    @pytest.mark.parametrize("R, S", [(3, 1), (5, 2), (7, 3)])
    @pytest.mark.parametrize(
        "spec_of, variant",
        [(pair_product_spec, "threeR"), (triple_product_spec, "twoR")],
        ids=("pair", "triple"),
    )
    def test_divisor_sums_match_term_enumeration(self, spec_of, variant, R, S, tol):
        # -sigma(n)/n, sigma(n) the parts below product_order dividing n,
        # against the bincount of -1/j over every (m, j) with m j below
        # log_order.  At 1e-3 log_order is about six times product_order,
        # so parts >= product_order would divide n with j > 1 as well, and
        # none of them may enter.
        spec = spec_of(R, S)
        _, product_order, log_order = analytic._tail_orders(circle_y(300, R, variant), tol)
        assert log_order > (6 if tol == 1e-3 else 1) * product_order
        n, c = analytic._log_denominator(spec, product_order, log_order)
        exps, coeffs = log_denominator_terms(spec, product_order, log_order)
        want = np.bincount(exps, weights=coeffs, minlength=log_order)
        assert np.array_equal(n, np.arange(1, log_order))
        assert np.all(np.abs(c - want[1:]) <= 1e-15 * np.abs(want[1:]))

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

    def test_main_arc_start_matches_mask(self):
        # The lower-half index from which |x_k| <= y, against that mask
        # over the whole grid: it must be exactly k0 <= k <= samples - k0.
        for R in (2, 3, 4, 5, 7, 11):
            for variant in ("threeR", "twoR"):
                for N in range(1, 2001):
                    samples = min_samples(N, R, variant)
                    y = circle_y(N, R, variant)
                    k0 = analytic._main_arc_start(y, samples)
                    mask = np.abs(-0.5 + np.arange(samples) / samples) <= y
                    assert 1 <= k0 <= samples // 2
                    assert mask.sum() == samples - 2 * k0 + 1
                    assert mask[k0] and not mask[k0 - 1], (R, variant, N)

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
