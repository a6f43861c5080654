"""families: decompositions, generating functions, classical identities."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from theta_trunc import families
from theta_trunc.families import (
    FAMILIES,
    GRID_RS,
    FamilySpec,
    block_coefficient,
    decompose_family,
    default_grid,
    family_coefficients,
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
from theta_trunc.series import (
    PowerSeries,
    ProductSpec,
    ThetaParams,
    pochhammer,
    ps_div_pochhammer,
    ps_mul,
    theta_partial,
    theta_rs_params,
    theta_terms,
)
from theta_trunc.asymptotics import VARIANTS
from oracles import count_partitions, dense_truncated_pentagonal_rhs, family_by_division, paper_blocks
from test_acceptance import QUAD_INSTANCES
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
        for spec in (s for s in default_grid() if s.family == "C"):
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
                cprime.coeffs[0] += (-1) ** k
                want = genfun_family(FamilySpec("C", R, S, k), order)
                assert ps_mul(q_R, cprime) == want, (R, S, k)

    def test_corrupted_offset_reports_lowest_exponent(self):
        # mutate T1 upward by one and locate the first mismatch
        spec = FamilySpec("C", 3, 1, 1)
        good = genfun_family(spec, 80)
        terms = decompose_family(spec)
        t0 = terms[0][1]
        bad_terms = [(1, ThetaParams(t0.a, t0.c, t0.d + 1))] + terms[1:]
        bad = [0] * 80
        for s, p in bad_terms:
            bad = [b + s * c for b, c in zip(bad, genfun_B(p, 3, 1, 80).coeffs)]
        assert next(i for i, (g, b) in enumerate(zip(good.coeffs, bad)) if g != b) == t0.d


# The default grid and C/Cprime at (2, 1), where the pair repeats every odd
# part, so that its 1/den has the largest coefficients of any (R, S).
HOLDS_SPECS = default_grid() + [FamilySpec(f, 2, 1, k) for f in ("C", "Cprime") for k in (1, 2, 3, 4)]


def flip_lowest_block(monkeypatch, flipped):
    """Make ``decompose_family`` negate the block of least offset d of each
    spec of ``flipped``, for the packed and the per-spec route alike."""
    decompose = families.decompose_family

    def flipping(spec):
        blocks = decompose(spec)
        if spec in flipped:
            i = min(range(len(blocks)), key=lambda i: blocks[i][1].d)
            sign, p = blocks[i]
            blocks[i] = (-sign, p)
        return blocks

    monkeypatch.setattr(families, "decompose_family", flipping)


class TestDecompositionHolds:
    """``decomposition_sides``, one packed division per denominator, spec by
    spec against ``genfun_family`` and ``genfun_family_via_decomposition``."""

    @staticmethod
    def check(specs, order):
        """The sides of ``specs`` at ``order``, each route checked against
        its per-spec build."""
        sides = families.decomposition_sides(specs, order)
        assert sorted(sides) == sorted(specs)
        for spec in specs:
            lhs, rhs = sides[spec]
            assert lhs == genfun_family(spec, order), (spec, order)
            assert rhs == genfun_family_via_decomposition(spec, order), (spec, order)
        return sides

    def test_groups_are_the_shared_denominators(self):
        sides = self.check(default_grid(), 1)
        assert len(sides) == 52
        assert len({family_denominator(s) for s in sides}) == 8

    @pytest.mark.parametrize("order", [1, 2, 50, 300])
    def test_agrees_with_the_per_spec_route(self, order):
        sides = self.check(HOLDS_SPECS, order)
        assert all(lhs == rhs for lhs, rhs in sides.values())

    @pytest.mark.parametrize("flipped", [
        [FamilySpec("D", 5, 2, 2)],        # a middle field of (5, 2)'s pair
        [FamilySpec("C", 3, 1, 1)],        # field 0
        [FamilySpec("Dprime", 7, 3, 3)],   # the top field of (7, 3)'s pair
        [FamilySpec("Cprime", 2, 1, 4)],   # the pair of (2, 1) repeats its parts
    ])
    @pytest.mark.parametrize("order", [100, 300])
    def test_a_flipped_block_fails_its_group_only(self, flipped, order, monkeypatch):
        flip_lowest_block(monkeypatch, flipped)
        sides = self.check(HOLDS_SPECS, order)
        assert [s for s in HOLDS_SPECS if sides[s][0] != sides[s][1]] == flipped

    def test_one_flipped_block_per_group_fails_every_group(self, monkeypatch):
        firsts = list({family_denominator(s): s for s in reversed(HOLDS_SPECS)}.values())
        flip_lowest_block(monkeypatch, firsts)
        sides = self.check(HOLDS_SPECS, 300)
        assert {s for s in HOLDS_SPECS if sides[s][0] != sides[s][1]} == set(firsts)

    @pytest.mark.parametrize("flipped", [[], [FamilySpec("D", 5, 2, 2)]])
    def test_a_longer_cached_record_leaves_the_widths(self, flipped, monkeypatch):
        """(5, 2)'s 1/pair cached to 2001 first, with larger bits than at
        300: every group at 300 takes the widths of an empty cache, and
        every field still decodes."""
        width, read = families._width, []
        monkeypatch.setattr(families, "_width", lambda b, t: read.append((b, t)) or width(b, t))
        flip_lowest_block(monkeypatch, flipped)
        reads = []
        for warm in (False, True):
            families._QUOTIENTS.clear()
            if warm:
                genfun_family(FamilySpec("D", 5, 2, 2), 2001)
                coeffs = families._QUOTIENTS[5, 2]["pair"][0]
                assert max(coeffs).bit_length() > max(coeffs[:300]).bit_length()
            read.clear()
            sides = self.check(HOLDS_SPECS, 300)
            assert [s for s in HOLDS_SPECS if sides[s][0] != sides[s][1]] == flipped
            reads.append(list(read))
        assert len(reads[0]) == 10 and reads[1] == reads[0]

    @pytest.mark.parametrize("bits", [1, 8, 64])
    @pytest.mark.parametrize("terms", [1, 255, 256, 257])
    def test_width_holds_every_field(self, bits, terms):
        """Fields of ``terms`` values of magnitude 2^bits - 1, of either
        sign, plus or minus 1, packed as the sum of ``terms`` packed
        integers: each lies in (-h, h) and decodes through the bias."""
        width = families._width(bits, terms)
        h, m = 1 << width - 1, 2**bits - 1
        signs, ones = (1, 1, -1, -1), (1, -1, 1, -1)
        fields = [s * terms * m + c for s, c in zip(signs, ones)]
        assert width % 8 == 0 and all(-h < f < h for f in fields)
        packed = sum(s * m << i * width for i, s in enumerate(signs))
        x = sum(packed for _ in range(terms)) + sum(c << i * width for i, c in enumerate(ones))
        biased = x + families._tops(len(fields), width // 8)
        assert [(biased >> i * width & 2 * h - 1) - h for i in range(len(fields))] == fields


@st.composite
def cached_route_cases(draw):
    """(spec, order): coprime R <= 12 (R = 2S included), every family the
    pair admits, k <= 8, and orders 1, 2, around the smallest theta_{R,S}
    exponent min(S, R - S), or up to 400."""
    R = draw(st.integers(2, 12))
    S = draw(st.sampled_from([s for s in range(1, R) if gcd(R, s) == 1]))
    family = draw(st.sampled_from(FAMILIES if 2 * S < R else ("C", "Cprime")))
    k = draw(st.integers(0 if family == "D" else 1, 8))
    e = min(S, R - S)
    order = draw(st.sampled_from(sorted({1, 2, max(e - 1, 1), e, e + 1})) | st.integers(1, 400))
    return FamilySpec(family, R, S, k), order


@st.composite
def block_cases(draw):
    """(ThetaParams, R, S, order) for ``genfun_B`` and ``genfun_Bprime``."""
    A = draw(st.integers(1, 12))
    C = draw(st.integers(-A, 20).filter(lambda c: (A + c) % 2 == 0))
    p = ThetaParams(Fraction(A, 2), Fraction(C, 2), draw(st.integers(0, 30)))
    R = draw(st.integers(2, 12))
    S = draw(st.sampled_from([s for s in range(1, R) if gcd(R, s) == 1]))
    return p, R, S, draw(st.integers(1, 300))


class TestPointReads:
    """Single coefficients as dot products over the cached quotients,
    against the whole series read from the same shifts."""

    @pytest.mark.parametrize("quotient", sorted(v.quotient for v in VARIANTS.values()))
    def test_block_reads_match_the_series(self, quotient):
        # The criterion-5 instances, each N read on its own.
        genfun = {"pair": genfun_B, "triple": genfun_Bprime}[quotient]
        for a, c, d, R, S in QUAD_INSTANCES:
            p = ThetaParams(a, c, d)
            for N in range(1, 401):
                assert block_coefficient(p, R, S, N, quotient) == genfun(p, R, S, N + 1)[N], (p, R, S, N)

    def test_block_below_its_first_exponent_reads_zero(self):
        p = ThetaParams(Fraction(6), Fraction(13), 7)  # G starts at q^7
        for N in range(7):
            assert block_coefficient(p, 3, 1, N, "pair") == block_coefficient(p, 3, 1, N, "triple") == 0
        assert block_coefficient(p, 3, 1, 7, "pair") == block_coefficient(p, 3, 1, 7, "triple") == 1

    def test_family_reads_match_the_series(self):
        extra = [FamilySpec(f, R, S, 10) for f in FAMILIES for R, S in ((3, 1), (7, 3))]
        for spec in default_grid() + extra:
            want = genfun_family(spec, 401).coeffs
            assert family_coefficients(spec, range(401)) == want, spec
            assert family_coefficients(spec, [400, 3, 3, 0]) == [want[400], want[3], want[3], want[0]]

    def test_negative_n_is_a_value_error(self):
        with pytest.raises(ValueError, match="N must be >= 0"):
            family_coefficients(FamilySpec("C", 3, 1, 1), [5, -1])

    def test_empty_ns_is_a_value_error(self):
        with pytest.raises(ValueError, match="ns must list at least one N"):
            family_coefficients(FamilySpec("C", 3, 1, 1), [])

    def test_ns_may_be_a_generator(self):
        spec = FamilySpec("C", 3, 1, 1)
        want = family_coefficients(spec, [3, 5])
        assert family_coefficients(spec, (n for n in (3, 5))) == want == [1, 1]


class TestCachedRoute:
    """``genfun_family`` and the blocks as shifted sums of the cached
    per-(R, S) quotients, against the numerator-over-denominator route."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cached_route_cases())
    @example((FamilySpec("C", 2, 1, 8), 2))
    @example((FamilySpec("Cprime", 2, 1, 3), 300))
    def test_matches_the_division_route(self, case):
        spec, order = case
        assert genfun_family(spec, order) == family_by_division(spec, order)

    def test_default_grid_at_order_2001(self):
        # grid-scan's order, served from the quotients of its first spec
        for spec in default_grid():
            assert genfun_family(spec, 2001) == family_by_division(spec, 2001), spec

    @pytest.mark.parametrize("orders", [(900, 301, 1), (1, 301, 900)])
    def test_shorter_order_is_a_prefix_longer_order_regrows(self, orders):
        families._QUOTIENTS.clear()
        specs = [FamilySpec(f, 5, 2, 2) for f in FAMILIES]
        for order in orders:
            for spec in specs:
                assert genfun_family(spec, order) == family_by_division(spec, order), (spec, order)
            # every piece is as long as the longest order asked so far
            lengths = {len(record[0]) for record in families._QUOTIENTS[5, 2].values()}
            assert lengths == {max(orders[:orders.index(order) + 1])}
        assert sorted(families._QUOTIENTS[5, 2]) == ["Q/pair", "pair", "theta/pair", "triple"]

    @pytest.mark.parametrize("R, S", GRID_RS + ((2, 1), (8, 3)))
    def test_theta_over_pair_is_the_forward_product(self, R, S):
        # theta_{R,S}/pair = theta_{3R,R} = (q^R; q^R)_inf, against the
        # forward product and against theta_{R,S} divided by the pair.
        families._QUOTIENTS.clear()
        for order in (1, 301, 2001):
            got = families._quotient("theta/pair", R, S, order)[0][:order]
            assert got == pochhammer(ProductSpec([(R, R)]), order).coeffs, (R, S, order)
            terms = theta_terms(theta_rs_params(R, S), order, None, None, True)
            theta = PowerSeries.from_terms(terms, order)
            assert got == ps_div_pochhammer(theta, pair_product_spec(R, S)).coeffs, (R, S, order)

    def test_holds_at_most_four_rs_least_recently_used_out(self):
        families._QUOTIENTS.clear()
        rs = [(3, 1), (4, 1), (5, 2), (7, 3), (5, 1)]
        for R, S in rs:
            spec = FamilySpec("C", R, S, 1)
            assert genfun_family(spec, 200) == family_by_division(spec, 200)
            assert len(families._QUOTIENTS) <= 4
        assert list(families._QUOTIENTS) == rs[1:]
        genfun_family(FamilySpec("Cprime", 4, 1, 2), 200)  # (4, 1) used again
        genfun_family(FamilySpec("C", 8, 3, 1), 200)
        assert list(families._QUOTIENTS) == [(7, 3), (5, 1), (4, 1), (8, 3)]

    def test_mutating_a_result_leaves_the_next_unchanged(self):
        p = ThetaParams(Fraction(3), Fraction(2), 1)
        calls = [lambda n, f=f: genfun_family(FamilySpec(f, 3, 1, 1), n) for f in FAMILIES]
        calls += [lambda n: genfun_B(p, 3, 1, n), lambda n: genfun_Bprime(p, 3, 1, n)]
        for call in calls:
            for order in (300, 120):
                want = list(call(order).coeffs)
                got = call(order)
                got.coeffs[:] = [7] * order
                assert call(order).coeffs == want

    def test_unknown_quotient_is_a_value_error(self):
        families._QUOTIENTS.clear()
        p = ThetaParams(Fraction(6), Fraction(7), 2)
        assert block_coefficient(p, 3, 1, 20, "pair") == 140
        with pytest.raises(ValueError, match="unknown quotient 'bogus'"):
            block_coefficient(p, 3, 1, 20, "bogus")
        assert sorted(families._QUOTIENTS[3, 1]) == ["pair"]

    def test_unknown_quotient_leaves_the_cache_as_it_was(self):
        # A rejected kind neither files a (R, S) entry nor moves or evicts one.
        families._QUOTIENTS.clear()
        for R, S in ((4, 1), (5, 2), (7, 3), (5, 1)):
            genfun_family(FamilySpec("D", R, S, 1), 40)
        before = [(rs, {kind: list(record) for kind, record in entry.items()})
                  for rs, entry in families._QUOTIENTS.items()]
        lists = [id(record[0]) for entry in families._QUOTIENTS.values() for record in entry.values()]
        p = ThetaParams(Fraction(6), Fraction(7), 2)
        for rs in ((3, 1), (4, 1)):
            with pytest.raises(ValueError, match="unknown quotient 'bogus'"):
                block_coefficient(p, *rs, 20, "bogus")
        after = [(rs, {kind: list(record) for kind, record in entry.items()})
                 for rs, entry in families._QUOTIENTS.items()]
        assert after == before
        assert [id(record[0]) for entry in families._QUOTIENTS.values() for record in entry.values()] == lists

    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_one_is_a_value_error(self, order):
        p = ThetaParams(Fraction(3), Fraction(2), 1)
        calls = [lambda f=f: genfun_family(FamilySpec(f, 3, 1, 1), order) for f in FAMILIES]
        calls += [lambda: genfun_B(p, 3, 1, order), lambda: genfun_Bprime(p, 3, 1, order)]
        for call in calls:
            with pytest.raises(ValueError, match="order must be positive"):
                call()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(block_cases())
    def test_blocks_match_the_division_route(self, case):
        p, R, S, order = case
        num = theta_partial(p, order)
        assert genfun_B(p, R, S, order) == ps_div_pochhammer(num, pair_product_spec(R, S))
        assert genfun_Bprime(p, R, S, order) == ps_div_pochhammer(num, triple_product_spec(R, S))


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
            assert lhs == rhs, k

    def test_empty_sum_edge(self):
        # k = 6: the first term starts at q^57, so below order 50 the right
        # side is the constant 1 alone; at order 58 it is that one term.
        lhs, rhs = truncated_pentagonal_sides(6, 50)
        assert rhs == PowerSeries([1], 50)
        assert lhs == rhs
        lhs, rhs = truncated_pentagonal_sides(6, 58)
        assert rhs.coeffs == [1] + [0] * 56 + [-1]
        assert lhs == rhs


    @pytest.mark.parametrize("k", range(1, 7))
    def test_cprime_3_1_is_the_truncated_pentagonal_theorem(self, k):
        """Cprime 3 1 k is (-1)^(k-1) times the left side, and the right
        side, whose sum is built from nonnegative seeds by divisions by
        1 - q^m and adds, is 1 plus (-1)^(k-1) times a nonnegative series.
        So Cprime 3 1 k >= 0 for 1 <= N <= 2000 is the truncated pentagonal
        number theorem (Andrews and Merca, 2012), a check of scan's clean
        verdicts independent of the packed sign test."""
        sign = (-1) ** (k - 1)
        lhs, rhs = truncated_pentagonal_sides(k, 2001)
        spec = FamilySpec("Cprime", 3, 1, k)
        assert genfun_family(spec, 2001).coeffs == [sign * c for c in lhs.coeffs]
        assert lhs == rhs
        assert min(sign * (c - (n == 0)) for n, c in enumerate(rhs.coeffs)) >= 0
        assert scan_signs(spec, 2000) == []


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


def plant_series(monkeypatch, series_of):
    """Make the series of each family spec ``series_of(spec)``, truncated to
    the order asked, for both of its reads, the packed sign test and the
    slice adds: each spec's shifts are one term, q^0 over a quotient named
    by the spec itself.  ``_quotient`` admits only its own kinds, so a
    stand-in files the record (see ``_QUOTIENTS``) of that series under
    the spec in a fresh quotient cache."""
    monkeypatch.setattr(families, "_QUOTIENTS", {})

    def quotient(spec, R, S, order):
        entry = families._QUOTIENTS.setdefault((R, S), {})
        record = entry.get(spec)
        if record is None or len(record[0]) < order:
            coeffs = list(series_of(spec)[:order])
            record = entry[spec] = [coeffs, max(map(abs, coeffs)).bit_length(), 0, 0]
        return record

    monkeypatch.setattr(families, "_family_shifts", lambda spec, order: [(spec, [(0, 1)])])
    monkeypatch.setattr(families, "_quotient", quotient)


class TestScans:
    def test_C_312_clean(self):
        assert scan_signs(FamilySpec("C", 3, 1, 2), 400) == []

    def test_C_R_equals_3S_clean(self):
        assert scan_signs(FamilySpec("C", 3, 1, 3), 300) == []

    def test_Dprime_311_all_nonpositive(self):
        assert scan_signs(FamilySpec("Dprime", 3, 1, 1), 400) == []

    def test_D_with_k0(self):
        assert scan_signs(FamilySpec("D", 3, 1, 0), 50) == []

    def test_violations_in_order_over_the_closed_range(self, monkeypatch):
        # N = 0 (9, a violation for Dprime) and N = 6 (-2) lie outside [1, 5].
        fake = [9, -1, -5, 2, -3, -7, -2]
        plant_series(monkeypatch, lambda spec: fake)
        assert scan_signs(FamilySpec("C", 3, 1, 1), 5) == [(1, -1), (2, -5), (4, -3), (5, -7)]
        assert scan_signs(FamilySpec("Dprime", 3, 1, 1), 5) == [(3, 2)]

    @pytest.mark.parametrize("family, bad", [("C", -1), ("Cprime", -1), ("D", -1), ("Dprime", 1)])
    def test_screen_edges(self, family, bad, monkeypatch):
        """Window [1, 6] of a planted series of zeros and good signs: a
        violation at either end is reported, one just outside (N = 0 or
        N = 7) is not."""
        spec = FamilySpec(family, 3, 1, 1)

        def planted(*at):
            c = [-bad * (i % 2) for i in range(9)]
            for i in at:
                c[i] = bad
            plant_series(monkeypatch, lambda spec: c)

        planted()
        assert scan_signs(spec, 6) == []
        planted(0, 7)
        assert scan_signs(spec, 6) == []
        planted(1)
        assert scan_signs(spec, 6) == [(1, bad)]
        planted(6)
        assert scan_signs(spec, 6) == [(6, bad)]
        planted(0, 1, 6, 7)
        assert scan_signs(spec, 6) == [(1, bad), (6, bad)]
        plant_series(monkeypatch, lambda spec: [0] * 9)
        assert scan_signs(spec, 6) == []
        planted(*range(9))
        assert scan_signs(spec, 0) == []

    def test_empty_window_is_clean_at_any_n_hi(self):
        # n_hi = -1 would ask the shifts at order n_hi + 1 = 0
        for n_hi in (-3, -1, 0):
            assert scan_signs(FamilySpec("C", 3, 1, 1), n_hi) == []


def flipped(shifts):
    """The shifts of the negated series."""
    return [(kind, [(e, -sign) for e, sign in terms]) for kind, terms in shifts]


def unpack(packed, width, count):
    """The ``count`` fields of ``width`` bits that ``families._pack`` packed
    into ``packed``."""
    size, h = width // 8, 1 << (width - 1)
    raw = (packed + families._tops(count, size)).to_bytes(count * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") - h for i in range(0, len(raw), size)]


@st.composite
def sign_windows(draw):
    """(spec, n_hi, sign, negate): coprime R <= 12, every family the pair
    admits, k <= 12, orders up to 1500, windows [1, n_hi] empty, of one N
    or any, and either sign of either the series or its negation."""
    R = draw(st.integers(2, 12))
    S = draw(st.sampled_from([s for s in range(1, R) if gcd(R, s) == 1]))
    family = draw(st.sampled_from(FAMILIES if 2 * S < R else ("C", "Cprime")))
    k = draw(st.integers(0 if family == "D" else 1, 12))
    n_hi = draw(st.sampled_from([0, 1]) | st.integers(0, 1499))
    return FamilySpec(family, R, S, k), n_hi, draw(st.sampled_from([1, -1])), draw(st.booleans())


class TestPackedSigns:
    """The sign test over the packed quotients, against the series the
    slice adds build from the same shifts."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(sign_windows())
    @example((FamilySpec("C", 3, 1, 1), 0, 1, False))
    @example((FamilySpec("Cprime", 3, 1, 2), 1, 1, False))
    @example((FamilySpec("Dprime", 7, 3, 12), 1499, -1, True))
    def test_packed_verdict_is_the_list_verdict(self, case):
        spec, n_hi, sign, negate = case
        shifts = families._family_shifts(spec, n_hi + 1)
        if negate:
            shifts = flipped(shifts)
        window = families._series(spec.R, spec.S, shifts, n_hi + 1).coeffs[1:]
        want = all(sign * c >= 0 for c in window)
        assert families._signs_hold(spec.R, spec.S, shifts, n_hi, sign) == want

    @pytest.mark.parametrize("R, S", [(3, 1), (7, 3)])
    def test_packed_fields_give_back_the_lists(self, R, S):
        families._QUOTIENTS.clear()
        for spec in default_grid():
            if (spec.R, spec.S) == (R, S):
                scan_signs(spec, 600)
        entry = families._QUOTIENTS[R, S]
        assert sorted(entry) == ["Q/pair", "pair", "theta/pair", "triple"]
        for kind in ("Q/pair", "pair", "theta/pair", "triple"):
            coeffs, bits, width, packed = entry[kind]
            assert unpack(packed, width, len(coeffs)) == coeffs, kind
            assert bits == max(map(abs, coeffs)).bit_length()
        assert min(entry["theta/pair"][0]) < 0 and min(entry["Q/pair"][0]) < 0

    @pytest.mark.parametrize("count, width", [(255, 24), (257, 32)])
    def test_width_takes_the_term_count(self, count, width, monkeypatch):
        """15-bit coefficients and T terms at q^0: a field is T times one,
        which in 24 bits (15 + 8 + 1) reads with the wrong sign for T = 257."""
        for c in (2**15 - 1, -(2**15 - 1)):
            plant_series(monkeypatch, lambda spec: [c] * 8)
            shifts = [("pair", [(0, 1)] * count)]
            assert families._signs_hold(3, 1, shifts, 7, 1) == (c > 0)
            assert families._QUOTIENTS[3, 1]["pair"][2] == width
        narrow = [(count * c + 2**23) % 2**24 >= 2**23 for c in (2**15 - 1, -(2**15 - 1))]
        assert narrow == ([True, False] if count < 256 else [False, True])

    def test_longer_packed_quotient_serves_a_shorter_order(self):
        families._QUOTIENTS.clear()
        spec = FamilySpec("D", 5, 2, 2)
        shifts = families._family_shifts(spec, 801)
        assert families._signs_hold(5, 2, flipped(shifts), 800, 1) is False
        record = families._QUOTIENTS[5, 2]["pair"]
        for n_hi in (800, 300, 1):
            want = families._series(5, 2, shifts, n_hi + 1).coeffs[1:]
            assert families._signs_hold(5, 2, shifts, n_hi, 1) == (min(want) >= 0)
        assert families._QUOTIENTS[5, 2]["pair"] is record
        assert len(record[0]) == 801

    def test_longer_order_replaces_the_whole_record(self):
        """Scans of (5, 2) at n-hi 800, 1500 and 300, each checked on the
        series and its negation: the 1500 scan packs a new record, whose
        packing decodes to its 1501-long list, and the 300 scan reads that
        same record."""
        families._QUOTIENTS.clear()
        spec, records = FamilySpec("D", 5, 2, 2), []
        for n_hi in (800, 1500, 300):
            shifts = families._family_shifts(spec, n_hi + 1)
            for negate, terms in enumerate((shifts, flipped(shifts))):
                got = families._signs_hold(5, 2, terms, n_hi, 1)
                want = min(families._series(5, 2, terms, n_hi + 1).coeffs[1:]) >= 0
                assert got == want != negate, (n_hi, negate)
            records.append(families._QUOTIENTS[5, 2]["pair"])
        assert records[0][2] > 0 and records[0] is not records[1] and records[1] is records[2]
        coeffs, _, width, packed = records[1]
        assert len(coeffs) == 1501 and unpack(packed, width, 1501) == coeffs
