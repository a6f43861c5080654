"""series-core: exact arithmetic, q-products, theta partial sums."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from theta_trunc.series import (
    PowerSeries,
    ProductSpec,
    ThetaParams,
    pochhammer,
    ps_div_pochhammer,
    ps_inv,
    ps_mul,
    qbinomial,
    theta_exponents,
    theta_partial,
    theta_terms,
)
from theta_trunc import families
from theta_trunc.families import pair_product_spec, triple_product_spec
from oracles import (
    brute_theta_terms,
    count_partitions,
    dense_theta_div_pochhammer,
    divide_by_parts,
    naive_finite_pochhammer,
    qbinomial_by_division,
    theta_series,
)


def geometric(order):
    return PowerSeries([1] * order, order)


class TestPowerSeries:
    def test_coefficients_at_or_past_order_are_cut(self):
        f = PowerSeries([1, 2, 3], 2)
        assert f.coeffs == [1, 2]
        assert f == PowerSeries([1, 2], 2)
        assert PowerSeries([1, 2], 4).coeffs == [1, 2, 0, 0]


class TestPsMul:
    def test_difference_of_squares(self):
        f = PowerSeries([1, 1], 4)
        g = PowerSeries([1, -1], 4)
        assert ps_mul(f, g) == PowerSeries([1, 0, -1, 0], 4)

    def test_identity(self):
        f = PowerSeries([3, 1, 4, 1, 5], 5)
        assert ps_mul(f, PowerSeries([1], 5)) == f

    def test_geometric_telescopes(self):
        f = PowerSeries([1, -1], 8)
        assert ps_mul(f, geometric(8)) == PowerSeries([1], 8)

    def test_truncates_to_smaller_order(self):
        f = PowerSeries([1, 1, 1], 3)
        g = PowerSeries([1, 1], 7)
        assert ps_mul(f, g).order == 3

    def test_commutative_associative_random(self):
        rng = random.Random(20260809)
        for _ in range(40):
            n = rng.randrange(1, 30)
            f, g, h = (
                PowerSeries([rng.randrange(-9, 10) for _ in range(n)], n)
                for _ in range(3)
            )
            assert ps_mul(f, g) == ps_mul(g, f)
            assert ps_mul(ps_mul(f, g), h) == ps_mul(f, ps_mul(g, h))


class TestPsInv:
    def test_geometric(self):
        assert ps_inv(PowerSeries([1, -1], 6)) == geometric(6)

    def test_one(self):
        assert ps_inv(PowerSeries([1], 4)) == PowerSeries([1], 4)

    def test_partition_numbers(self):
        # independent oracle: enumerate partitions of n <= 5
        inv = ps_inv(pochhammer(ProductSpec([(1, 1)]), 6))
        expect = [count_partitions(n, range(1, 6)) for n in range(6)]
        assert inv.coeffs == expect == [1, 1, 2, 3, 5, 7]

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="constant term must be"):
            ps_inv(PowerSeries([2, 1], 4))

    def test_roundtrip_random_units(self):
        rng = random.Random(97)
        for _ in range(100):
            n = rng.randrange(1, 40)
            coeffs = [rng.choice([1, -1])] + [
                rng.randrange(-5, 6) for _ in range(n - 1)
            ]
            f = PowerSeries(coeffs, n)
            assert ps_mul(f, ps_inv(f)) == PowerSeries([1], n)


class TestFinitePochhammer:
    """(q; q)_n from the oracle ``naive_finite_pochhammer``, which
    ``qbinomial_by_division`` expands its numerator and denominator with."""

    def test_empty_product(self):
        assert naive_finite_pochhammer(0, 5) == [1, 0, 0, 0, 0]

    def test_n2(self):
        assert naive_finite_pochhammer(2, 5) == [1, -1, -1, 1, 0]

    def test_n3_against_naive_expansion(self):
        assert naive_finite_pochhammer(3, 8) == [1, -1, -1, 0, 1, 1, -1, 0]

    def test_large_n_matches_naive(self):
        # q-binomial theorem: (q; q)_n = sum_k (-1)^k q^(k(k+1)/2) [n, k]_q,
        # and past the order (q; q)_n is the Euler product.
        order = 25
        want = [0] * order
        for k in range(10):
            shift, b = k * (k + 1) // 2, qbinomial(9, k, order)
            for i in range(shift, order):
                want[i] += (-1) ** k * b[i - shift]
        assert naive_finite_pochhammer(9, order) == want
        euler = pochhammer(ProductSpec([(1, 1)]), order)
        assert naive_finite_pochhammer(order + 3, order) == euler.coeffs


class TestQBinomial:
    def test_smallest_nontrivial(self):
        assert qbinomial(2, 1, 5) == PowerSeries([1, 1, 0, 0, 0], 5)

    def test_out_of_range_is_zero(self):
        assert qbinomial(4, -1, 5) == PowerSeries([], 5)
        assert qbinomial(3, 4, 5) == PowerSeries([], 5)

    def test_l4_k2_by_polynomial_division(self):
        assert qbinomial(4, 2, 8).coeffs == qbinomial_by_division(4, 2, 8)
        assert qbinomial(4, 2, 8).coeffs == [1, 1, 2, 1, 1, 0, 0, 0]

    def test_nonneg_and_degree(self):
        order = 50
        for L in range(13):
            for K in range(L + 1):
                poly = qbinomial(L, K, order)
                assert all(c >= 0 for c in poly.coeffs)
                deg = max((i for i, c in enumerate(poly.coeffs) if c), default=0)
                assert deg == K * (L - K)

    def test_matches_division_randomly(self):
        rng = random.Random(5)
        for _ in range(10):
            L = rng.randrange(0, 9)
            K = rng.randrange(0, L + 1)
            assert qbinomial(L, K, 30).coeffs == qbinomial_by_division(L, K, 30)


class TestPochhammerInv:
    def test_partition_numbers(self):
        # (q; q)_inf is the triple product (q, q^2, q^3; q^3)_inf
        got = ps_div_pochhammer(PowerSeries([1], 6), triple_product_spec(3, 1))
        expect = [count_partitions(n, range(1, 6)) for n in range(6)]
        assert got.coeffs == expect

    def test_parts_avoiding_multiples_of_three(self):
        got = ps_div_pochhammer(PowerSeries([1], 6), ProductSpec([(1, 3), (2, 3)]))
        parts = [p for p in range(1, 6) if p % 3]
        expect = [count_partitions(n, parts) for n in range(6)]
        assert got.coeffs == expect == [1, 1, 2, 2, 4, 5]

    def test_coefficients_non_negative(self):
        for spec in (pair_product_spec(2, 1), pair_product_spec(5, 2)):
            assert all(c >= 0 for c in ps_div_pochhammer(PowerSeries([1], 80), spec).coeffs)

    def test_div_pochhammer_equals_mul_by_inverse(self):
        rng = random.Random(11)
        spec = ProductSpec([(1, 3), (2, 3)])
        f = PowerSeries([rng.randrange(-4, 5) for _ in range(40)], 40)
        inverse = ps_div_pochhammer(PowerSeries([1], 40), spec)
        assert ps_div_pochhammer(f, spec) == ps_mul(f, inverse)

    @pytest.mark.parametrize("residues", [
        [],
        [(1, 5)],
        [(1, 1)],
        [(1, 5), (4, 5), (2, 5), (3, 5)],
        [(1, 5), (4, 6)],
        [(1, 5), (4, 5), (5, 6)],
    ])
    def test_rejects_other_products(self, residues):
        with pytest.raises(ValueError, match="pair or triple product"):
            ps_div_pochhammer(PowerSeries([1], 7), ProductSpec(residues))


@st.composite
def product_specs(draw):
    """The pair or the triple product of a coprime (R, S), 2 <= R <= 12,
    its residues listed in any order."""
    R = draw(st.integers(2, 12))
    S = draw(st.sampled_from([s for s in range(1, R) if gcd(R, s) == 1]))
    spec = draw(st.sampled_from([pair_product_spec, triple_product_spec]))(R, S)
    return ProductSpec(draw(st.permutations(spec.residues)))


@st.composite
def numerators(draw):
    order = draw(st.integers(1, 400))
    coeffs = draw(
        st.lists(st.integers(-(10**6), 10**6), min_size=order, max_size=order)
    )
    return PowerSeries(coeffs, order)


class TestThetaDivision:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(numerators(), product_specs())
    @example(PowerSeries([1, -2, 3] * 50, 150), pair_product_spec(7, 3))
    @example(PowerSeries([5, 0, -1, 4] * 60, 240), triple_product_spec(11, 4))
    # R = 2: the pair lists the residue 1 twice
    @example(PowerSeries([2, -1] * 70, 140), pair_product_spec(2, 1))
    @example(PowerSeries([1, 3] * 80, 160), triple_product_spec(2, 1))
    # (q; q)_inf
    @example(PowerSeries([1] * 90, 90), triple_product_spec(3, 1))
    def test_matches_per_part_chain(self, f, spec):
        got = ps_div_pochhammer(f, spec)
        assert got.coeffs == divide_by_parts(f.coeffs, spec.residues)

    def test_theta_is_the_triple_product(self):
        # Jacobi triple product, exactly; S | R covers (q^B; q^B) = theta_{3B,B}
        for R in range(2, 10):
            for S in range(1, R):
                forward = pochhammer(triple_product_spec(R, S), 600)
                assert theta_series(R, S, 600) == forward.coeffs, (R, S)

    def test_theta_is_sparse(self):
        plus, minus = theta_exponents(3, 1, 8001)
        assert len(plus) + len(minus) == 145
        assert plus == sorted(plus) and minus == sorted(minus)
        assert min(plus + minus) == 1

    def test_theta_repeats_colliding_exponents(self):
        # theta_{2,1} = sum (-1)^n q^(n^2) = 1 - 2q + 2q^4 - 2q^9 + ...
        assert theta_series(2, 1, 17)[:10] == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2]

    def test_theta_rejects_bad_residue(self):
        for R, S in ((3, 0), (3, 3), (2, 5)):
            with pytest.raises(ValueError):
                theta_exponents(R, S, 10)

    def test_pair_inverse_counts_partitions(self):
        for R, S in ((4, 1), (5, 1), (5, 2), (7, 3)):
            got = ps_div_pochhammer(PowerSeries([1], 60), pair_product_spec(R, S))
            parts = [p for p in range(1, 60) if p % R in (S, R - S)]
            assert got.coeffs == [count_partitions(n, parts) for n in range(60)]


class TestSparseThetaProduct:
    """ps_div_pochhammer against the route with a dense theta multiply."""

    def test_default_grid_numerators(self):
        # the 52 default-grid family numerators over their denominators
        for spec in families.default_grid():
            blocks, ranges, alternating = families._family_numerator(spec)
            f = families._theta_sum(blocks, 2001, ranges, alternating)
            den = families.family_denominator(spec)
            assert ps_div_pochhammer(f, den).coeffs == dense_theta_div_pochhammer(f.coeffs, den), spec

    def test_colliding_exponents(self):
        # R = 2S: theta_{2,1} lists each exponent twice
        spec = pair_product_spec(2, 1)
        f = theta_partial(ThetaParams(Fraction(3, 2), Fraction(1, 2), 2), 900)
        assert ps_div_pochhammer(f, spec).coeffs == dense_theta_div_pochhammer(f.coeffs, spec)


class TestProductSpec:
    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            ProductSpec([(0, 3)])
        with pytest.raises(ValueError):
            ProductSpec([(4, 3)])

    def test_allows_equal_pair(self):
        # (q^R; q^R)_inf needs A == B
        assert ProductSpec([(3, 3)]).parts(10) == [3, 6, 9]

    def test_parts_listed_per_residue_pair_in_order(self):
        # not merged or sorted: residue by residue, each ascending; a pair
        # whose first part is at or past the order contributes nothing
        assert ProductSpec([(2, 5), (1, 3), (7, 7)]).parts(12) == [2, 7, 1, 4, 7, 10, 7]
        assert ProductSpec([(2, 5), (12, 12)]).parts(12) == [2, 7]


@st.composite
def theta_term_args(draw):
    """Valid (a, c, d), an order, an n range and the alternating flag."""
    two_a = draw(st.integers(1, 12))
    a_plus_c = draw(st.integers(0, 20))
    p = ThetaParams(Fraction(two_a, 2), Fraction(2 * a_plus_c - two_a, 2), draw(st.integers(0, 30)))
    bound = st.one_of(st.none(), st.integers(-5, 5))
    return p, draw(st.integers(1, 600)), draw(bound), draw(bound), draw(st.booleans())


class TestThetaTerms:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(theta_term_args())
    # theta_{2,1}: n and -n share each exponent
    @example((ThetaParams(1, 0, 0), 50, None, None, True))
    # a n^2 + c n + d negative for n < 0
    @example((ThetaParams(Fraction(1, 2), Fraction(19, 2), 0), 30, None, None, False))
    # n = -1, -2, -3 give 7, 6, 7: the exponent at -1 is the order, the
    # one after it drops below, and the one after that climbs again
    @example((ThetaParams(1, 4, 10), 7, None, None, False))
    # an exponent equal to the order, and empty ranges
    @example((ThetaParams(Fraction(3, 2), Fraction(-1, 2), 0), 12, -3, 3, True))
    @example((ThetaParams(2, 1, 0), 40, 3, -2, True))
    def test_matches_brute_force(self, args):
        p, order, n_min, n_max, alternating = args
        got = theta_terms(p, order, n_min, n_max, alternating)
        assert got == brute_theta_terms(p.a, p.c, p.d, order, n_min, n_max, alternating)


class TestThetaPartial:
    def test_basic_exponents(self):
        p = ThetaParams(Fraction(2), Fraction(1), 0)
        got = theta_partial(p, 12)
        assert [i for i, c in enumerate(got.coeffs) if c] == [0, 3, 10]

    def test_pentagonal_exponents(self):
        # j(3j+1)/2 = 0, 2, 7, 15, ...
        p = ThetaParams(Fraction(3, 2), Fraction(1, 2), 0)
        got = theta_partial(p, 16)
        assert [i for i, c in enumerate(got.coeffs) if c] == [0, 2, 7, 15]

    def test_half_denominators(self):
        p = ThetaParams(Fraction(9, 2), Fraction(11, 2), 1)
        got = theta_partial(p, 12)
        assert [i for i, c in enumerate(got.coeffs) if c] == [1, 11]

    def test_invariant_validation(self):
        with pytest.raises(ValueError, match="a must be positive"):
            ThetaParams(Fraction(-1), Fraction(0), 0)
        with pytest.raises(ValueError, match=r"a\*j\^2 \+ c\*j must be integral"):
            ThetaParams(Fraction(1, 2), Fraction(0), 0)
        with pytest.raises(ValueError, match="a and c must have denominator 1 or 2"):
            ThetaParams(Fraction(1, 3), Fraction(2, 3), 0)
        with pytest.raises(ValueError, match=r"a\*j\^2 \+ c\*j must be non-negative"):
            ThetaParams(Fraction(1), Fraction(-2), 0)
        with pytest.raises(ValueError, match="d must be a non-negative integer"):
            ThetaParams(Fraction(1), Fraction(0), -1)

    def test_params_held_as_fractions(self):
        a, c = Fraction(3, 2), Fraction(1, 2)
        p = ThetaParams(a, c, 0)
        assert p.a is a and p.c is c
        q = ThetaParams(2, 1, 0)
        assert type(q.a) is Fraction and type(q.c) is Fraction
        assert q == ThetaParams(Fraction(2), Fraction(1), 0)

    def test_colliding_exponents_accumulate(self):
        # a + c = 0 sends j = 0 and j = 1 to the same exponent
        p = ThetaParams(Fraction(1), Fraction(-1), 0)
        got = theta_partial(p, 13)
        assert got[0] == 2
        assert [i for i, c in enumerate(got.coeffs) if c] == [0, 2, 6, 12]

    def test_from_terms_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            PowerSeries.from_terms([(-1, 1)], 5)


class TestPentagonalIdentity:
    def test_order_200(self):
        from theta_trunc.families import pentagonal_sides

        lhs, rhs = pentagonal_sides(200)
        assert lhs == rhs
