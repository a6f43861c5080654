"""families: decompositions, generating functions, classical identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from theta_trunc import families
from theta_trunc.families import (
    GRID_RS,
    FamilySpec,
    decompose_family,
    default_grid,
    family_denominator,
    genfun_B,
    genfun_Bprime,
    genfun_family,
    genfun_family_via_decomposition,
    pair_product_spec,
    quintuple_product_sides,
    scan_signs,
    triple_product_spec,
    truncated_pentagonal_sides,
)
from theta_trunc.series import PowerSeries, ProductSpec, ThetaParams, pochhammer, ps_mul, theta_terms
from oracles import count_partitions, dense_truncated_pentagonal_rhs, paper_blocks
from test_asymptotics import family_specs


class TestFamilySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FamilySpec("C", 2, 4, 1)  # gcd
        with pytest.raises(ValueError):
            FamilySpec("C", 3, 3, 1)  # S < R and gcd
        with pytest.raises(ValueError):
            FamilySpec("C", 3, 1, 0)  # k >= 1
        with pytest.raises(ValueError):
            FamilySpec("D", 3, 2, 1)  # S < R/2
        with pytest.raises(ValueError):
            FamilySpec("Dprime", 3, 1, 0)  # k >= 1
        with pytest.raises(ValueError):
            FamilySpec("X", 3, 1, 1)
        assert FamilySpec("D", 3, 1, 0).k == 0
        assert FamilySpec("C", 3, 2, 1).S == 2  # C allows R/2 <= S < R


class TestDecompositions:
    def test_C_311(self):
        terms = decompose_family(FamilySpec("C", 3, 1, 1))
        got = [(s, p.a, p.c, p.d) for s, p in terms]
        assert got == [
            (1, 6, 7, 2),
            (-1, 6, 11, 5),
            (-1, 6, 13, 7),
            (1, 6, 17, 12),
        ]
        assert family_denominator(FamilySpec("C", 3, 1, 1)) == pair_product_spec(3, 1)
        cprime = FamilySpec("Cprime", 3, 1, 1)
        assert family_denominator(cprime) == triple_product_spec(3, 1)
        assert decompose_family(cprime) == terms

    def test_C_211(self):
        terms = decompose_family(FamilySpec("C", 2, 1, 1))
        got = [(p.a, p.c, p.d) for _, p in terms]
        assert got == [(4, 4, 1), (4, 8, 4), (4, 8, 4), (4, 12, 9)]

    def test_C_offset_gaps(self):
        # T2 - T1 = (2k+1) S and T4 - T3 = (2k+3) S, by integer arithmetic
        for spec in default_grid(("C",)):
            t1, t2, t3, t4 = (p.d for _, p in decompose_family(spec))
            assert t2 - t1 == (2 * spec.k + 1) * spec.S
            assert t4 - t3 == (2 * spec.k + 3) * spec.S
            assert t3 - t2 == (spec.k + 1) * (spec.R - 2 * spec.S)

    def test_D_310(self):
        terms = decompose_family(FamilySpec("D", 3, 1, 0))
        assert [p.d for _, p in terms] == [6, 1, 3, 10]
        assert [s for s, _ in terms] == [-1, 1, -1, 1]
        assert terms[0][1].a == Fraction(9, 2)
        assert terms[0][1].c == Fraction(21, 2)

    def test_D_521(self):
        terms = decompose_family(FamilySpec("D", 5, 2, 1))
        assert terms[0][1].d == 37  # R(3k+2)(k+1)/2 + S(3k+3)

    def test_Dprime_311(self):
        terms = decompose_family(FamilySpec("Dprime", 3, 1, 1))
        assert [p.d for _, p in terms] == [21, 10, 3, 10]

    def test_Dprime_511(self):
        terms = decompose_family(FamilySpec("Dprime", 5, 1, 1))
        assert terms[2][1].d == 7  # Rk(3k+1)/2 - 3kS

    def test_Dprime_shares_H1_H2_with_D(self):
        for R, S in ((3, 1), (5, 2)):
            d_terms = decompose_family(FamilySpec("D", R, S, 2))
            dp_terms = decompose_family(FamilySpec("Dprime", R, S, 2))
            assert d_terms[0] == dp_terms[0]
            assert d_terms[1] == dp_terms[1]

    def test_paper_closed_forms_on_grid(self):
        for spec in default_grid():
            assert decompose_family(spec) == paper_blocks(spec), spec

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(family_specs(60, 30))
    def test_paper_closed_forms_random_specs(self, spec):
        assert decompose_family(spec) == paper_blocks(spec)

    def test_theta_params_always_valid(self):
        # a j^2 + c j integral for all decomposition blocks on the grid
        for spec in default_grid():
            for _, p in decompose_family(spec):
                theta_terms(p, 100)


class TestGenfuns:
    def test_B_tiny_order_against_enumeration(self):
        # G_{2,1,0} = 1 + q^3 + ... over parts not divisible by 3
        got = genfun_B(ThetaParams(Fraction(2), Fraction(1), 0), 3, 1, 6)
        parts = [p for p in range(1, 6) if p % 3]
        pstar = [count_partitions(n, parts) for n in range(6)]
        expect = [pstar[n] + (pstar[n - 3] if n >= 3 else 0) for n in range(6)]
        assert got.coeffs == expect == [1, 1, 2, 3, 5, 7]

    def test_B_constant_term(self):
        got = genfun_B(ThetaParams(Fraction(1), Fraction(0), 0), 3, 1, 4)
        assert got[0] == 1

    def test_B_and_Bprime_non_negative(self):
        p = ThetaParams(Fraction(2), Fraction(1), 0)
        assert all(c >= 0 for c in genfun_B(p, 3, 1, 60).coeffs)
        assert all(c >= 0 for c in genfun_Bprime(p, 3, 1, 60).coeffs)

    def test_C_311(self):
        got = genfun_family(FamilySpec("C", 3, 1, 1), 6)
        assert got.coeffs == [0, 0, 1, 1, 2, 1]

    def test_Cprime_constant_term(self):
        for k in (1, 2, 3):
            got = genfun_family(FamilySpec("Cprime", 3, 1, k), 4)
            assert got[0] == (1 if (k - 1) % 2 == 0 else -1)

    def test_D_310_first_coefficient(self):
        got = genfun_family(FamilySpec("D", 3, 1, 0), 3)
        assert got[1] == 1  # lowest block is +q^(H2) = +q^1

    def test_definition_equals_decomposition_small_grid(self):
        for family in ("C", "Cprime", "D", "Dprime"):
            spec = FamilySpec(family, 5, 2, 1)
            assert genfun_family(spec, 150) == genfun_family_via_decomposition(
                spec, 150
            )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(family_specs(12, 4))
    def test_definition_equals_decomposition_random_specs(self, spec):
        assert genfun_family(spec, 150) == genfun_family_via_decomposition(spec, 150)

    def test_C_is_Cprime_times_q_R_product(self):
        # C_k = (q^R; q^R)_inf (Cprime_k + (-1)^k), by the Jacobi triple
        # product: the triple is the pair times (q^R; q^R)_inf, so this
        # checks the pair division against the triple division.
        order = 2001
        for R, S in GRID_RS:
            q_R = pochhammer(ProductSpec([(R, R)]), order)
            for k in (1, 2, 3):
                cprime = genfun_family(FamilySpec("Cprime", R, S, k), order)
                shifted = cprime + PowerSeries.from_terms([(0, (-1) ** k)], order)
                want = genfun_family(FamilySpec("C", R, S, k), order)
                assert ps_mul(q_R, shifted) == want, (R, S, k)

    def test_corrupted_offset_reports_lowest_exponent(self):
        # mutate T1 upward by one and locate the first mismatch
        spec = FamilySpec("C", 3, 1, 1)
        good = genfun_family(spec, 80)
        terms = decompose_family(spec)
        t0 = terms[0][1]
        bad_terms = [(1, ThetaParams(t0.a, t0.c, t0.d + 1))] + terms[1:]
        bad = PowerSeries.zero(80)
        for s, p in bad_terms:
            block = genfun_B(p, 3, 1, 80)
            bad = bad + block if s > 0 else bad - block
        assert good.first_mismatch(bad) == t0.d


class TestTruncatedPentagonal:
    def test_k1_k2_exact(self):
        for k in (1, 2):
            lhs, rhs = truncated_pentagonal_sides(k, 50)
            assert lhs == rhs

    def test_constant_term(self):
        lhs, rhs = truncated_pentagonal_sides(1, 30)
        assert lhs[0] == rhs[0] == 1

    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            truncated_pentagonal_sides(0, 30)

    @pytest.mark.parametrize("order", [50, 200])
    def test_rhs_matches_dense_oracle(self, order):
        for k in range(1, 7):
            _, rhs = truncated_pentagonal_sides(k, order)
            assert rhs.coeffs == dense_truncated_pentagonal_rhs(k, order), k

    def test_sides_agree_at_order_1000(self):
        for k in range(1, 7):
            lhs, rhs = truncated_pentagonal_sides(k, 1000)
            assert lhs.first_mismatch(rhs) is None, k

    def test_empty_sum_edge(self):
        # k = 6: the first term starts at q^57, so below order 50 the right
        # side is the constant 1 alone; at order 58 it is that one term.
        lhs, rhs = truncated_pentagonal_sides(6, 50)
        assert rhs == PowerSeries.one(50)
        assert lhs == rhs
        lhs, rhs = truncated_pentagonal_sides(6, 58)
        assert rhs.coeffs == [1] + [0] * 56 + [-1]
        assert lhs == rhs


class TestQuintuple:
    def test_exact_31_52(self):
        for R, S in ((3, 1), (5, 2)):
            lhs, rhs = quintuple_product_sides(R, S, 100)
            assert lhs == rhs

    def test_n0_term(self):
        # below order R - 2S only the n = 0 summand 1 - q^S is left
        lhs, _ = quintuple_product_sides(7, 1, 4)
        assert lhs.coeffs == [1, -1, 0, 0]

    def test_rejects_bad_rs(self):
        with pytest.raises(ValueError):
            quintuple_product_sides(4, 2, 50)


class TestScans:
    def test_C_312_clean(self):
        assert scan_signs(FamilySpec("C", 3, 1, 2), 1, 400) == []

    def test_C_R_equals_3S_clean(self):
        assert scan_signs(FamilySpec("C", 3, 1, 3), 1, 300) == []

    def test_Dprime_311_all_nonpositive(self):
        assert scan_signs(FamilySpec("Dprime", 3, 1, 1), 1, 400) == []

    def test_D_with_k0(self):
        assert scan_signs(FamilySpec("D", 3, 1, 0), 1, 50) == []

    def test_violations_in_order_over_the_closed_range(self, monkeypatch):
        fake = PowerSeries([9, -1, -5, 2, -3, -7], 6)
        monkeypatch.setattr(families, "genfun_family", lambda spec, order: fake)
        assert scan_signs(FamilySpec("C", 3, 1, 1), 2, 5) == [(2, -5), (4, -3), (5, -7)]
        assert scan_signs(FamilySpec("Dprime", 3, 1, 1), 2, 5) == [(3, 2)]
