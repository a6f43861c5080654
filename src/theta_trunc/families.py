"""Exact generating functions of the truncated theta coefficient families.

Four families of integer coefficient sequences are built here, all of the
shape (signed theta tail sum) / (q-Pochhammer product):

  C        tail of the Jacobi-triple-product theta series over the pair
           product (q^S, q^(R-S); q^R)_inf,
  Cprime   the complementary finite sum over the triple product
           (q^S, q^(R-S), q^R; q^R)_inf,
  D        two-sided tail of the quintuple-product theta series (k >= 0),
  Dprime   the asymmetric-range variant (k >= 1).

Every numerator here, and every identity side that is a theta series, is a
signed sum of q^(a n^2 + c n + d) over a range of n, listed by
``series.theta_terms``: C and Cprime take ranges of the Jacobi triple
product series theta_{R,S}, D and Dprime ranges of the quintuple product
series Q, the G_{a,c,d} blocks the range n >= 0.

Each family also decomposes into four signed unilateral theta blocks
G_{a,c,d}, which ``decompose_family`` derives from the same numerator as
(sign, ThetaParams) pairs, over the family's one denominator
``family_denominator``: the triple product for Cprime, the pair product
for the others.
``genfun_family_via_decomposition`` rebuilds the series from that
decomposition, and exact equality of the two routes is one of the identity
suites.  The classical pentagonal, truncated pentagonal and quintuple
product identities are provided as further exact oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from operator import add

from . import kernels
from .series import (
    PowerSeries,
    ProductSpec,
    ThetaParams,
    pochhammer,
    ps_div_pochhammer,
    # Unused here, but perfbench/layers.py patches vars(families)["qbinomial"].
    qbinomial,
    theta_partial,
    theta_rs_params,
    theta_terms,
)

FAMILIES = ("C", "Cprime", "D", "Dprime")


@dataclass(frozen=True)
class FamilySpec:
    """One family instance: tag in {C, Cprime, D, Dprime} plus (R, S, k)."""

    family: str
    R: int
    S: int
    k: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        if self.R < 1 or self.S < 1:
            raise ValueError("R and S must be positive")
        if gcd(self.R, self.S) != 1:
            raise ValueError("R and S must be coprime")
        if self.family in ("C", "Cprime"):
            if not self.S < self.R:
                raise ValueError("need 1 <= S < R")
            if self.k < 1:
                raise ValueError("need k >= 1 for %s" % self.family)
        else:
            if not 2 * self.S < self.R:
                raise ValueError("need 1 <= S < R/2")
            if self.family == "Dprime" and self.k < 1:
                raise ValueError("need k >= 1 for Dprime")
            if self.k < 0:
                raise ValueError("need k >= 0")


def pair_product_spec(R: int, S: int) -> ProductSpec:
    """(q^S, q^(R-S); q^R)_inf."""
    return ProductSpec([(S, R), (R - S, R)])


def triple_product_spec(R: int, S: int) -> ProductSpec:
    """(q^S, q^(R-S), q^R; q^R)_inf."""
    return ProductSpec([(S, R), (R - S, R), (R, R)])


def family_denominator(spec: FamilySpec) -> ProductSpec:
    """The q-product under the family's numerator and all four of its
    blocks: the triple product for Cprime, the pair product for the rest."""
    product = triple_product_spec if spec.family == "Cprime" else pair_product_spec
    return product(spec.R, spec.S)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def genfun_B(p: ThetaParams, R: int, S: int, order: int) -> PowerSeries:
    """G_{a,c,d} / (q^S, q^(R-S); q^R)_inf, truncated."""
    return ps_div_pochhammer(theta_partial(p, order), pair_product_spec(R, S))


def genfun_Bprime(p: ThetaParams, R: int, S: int, order: int) -> PowerSeries:
    """G_{a,c,d} / (q^S, q^(R-S), q^R; q^R)_inf, truncated."""
    return ps_div_pochhammer(
        theta_partial(p, order), triple_product_spec(R, S)
    )


def _quintuple_theta(R: int, S: int):
    """The quintuple product theta series as (sign, params) blocks:

      Q = sum_n q^((3R/2) n^2 + (R/2 - 3S) n)
        - sum_n q^((3R/2) n^2 + (R/2 + 3S) n + S).
    """
    a = Fraction(3 * R, 2)
    return [
        (1, ThetaParams(a, Fraction(R, 2) - 3 * S, 0)),
        (-1, ThetaParams(a, Fraction(R, 2) + 3 * S, S)),
    ]


def _theta_sum(blocks, order, ranges, alternating=False):
    """Sum of sign * q^(a n^2 + c n + d) over (sign, params) in ``blocks`` and
    n in each (n_min, n_max) of ``ranges``, truncated below ``order``."""
    return PowerSeries.from_terms(
        [
            (e, sign * v)
            for sign, p in blocks
            for n_min, n_max in ranges
            for e, v in theta_terms(p, order, n_min, n_max, alternating)
        ],
        order,
    )


def _family_numerator(spec: FamilySpec):
    """The family's numerator as ``_theta_sum`` arguments (blocks, ranges,
    alternating), a signed range of one theta series:
      C        (-1)^k     theta_{R,S} over n <= -k and n >= k+1
      Cprime   (-1)^(k-1) theta_{R,S} over -(k-1) <= n <= k
      D        -Q over n <= -(k+1) and n >= k+1
      Dprime   -Q over n <= -(k+1) and n >= k
    with theta_{R,S} from ``theta_rs_params`` and Q from ``_quintuple_theta``.
    """
    R, S, k = spec.R, spec.S, spec.k
    sign = -1 if k % 2 else 1
    if spec.family == "C":
        return [(sign, theta_rs_params(R, S))], [(None, -k), (k + 1, None)], True
    if spec.family == "Cprime":
        return [(-sign, theta_rs_params(R, S))], [(1 - k, k)], True
    first = k + 1 if spec.family == "D" else k
    minus_q = [(-s, p) for s, p in _quintuple_theta(R, S)]
    return minus_q, [(None, -(k + 1)), (first, None)], False


def genfun_family(spec: FamilySpec, order: int) -> PowerSeries:
    """The family series from its defining expression: the numerator of
    ``_family_numerator`` over ``family_denominator(spec)``."""
    blocks, ranges, alternating = _family_numerator(spec)
    num = _theta_sum(blocks, order, ranges, alternating)
    return ps_div_pochhammer(num, family_denominator(spec))


def decompose_family(spec: FamilySpec):
    """The family's four blocks as (sign, ThetaParams) pairs, each standing
    for sign * G_{a,c,d} over ``family_denominator(spec)``.

    Each one-sided range of ``_family_numerator`` is reindexed to j >= 0
    by n = n0 + s t j: n0 is the range's finite end, s = +-1 its direction,
    and t = 2 when the series alternates (one pass per parity of n, n0
    moved one step by s for the second), else t = 1.  A term
    q^(a n^2 + c n + d) then sums to

        G_{a t^2, s t (2 a n0 + c), a n0^2 + c n0 + d},

    times (-1)^n0 when alternating.  Cprime takes the C blocks: its finite
    range is theta_{R,S} minus the C tails, and theta_{R,S} is the triple
    product, so over it the range leaves the constant (-1)^(k-1), which
    ``genfun_family_via_decomposition`` adds.

    In the paper's offsets, C (a = 2R) is T1..T4 and D (a = 3R/2) H1..H4:
      T1 = R k(k+1)/2 - S k              c = (2k+1)R - 2S     sign +
      T2 = R k(k+1)/2 + S(k+1)           c = (2k+1)R + 2S     sign -
      T3 = R (k+2)(k+1)/2 - S(k+1)       c = (2k+3)R - 2S     sign -
      T4 = R (k+2)(k+1)/2 + S(k+2)       c = (2k+3)R + 2S     sign +
      H1 = R(3k+2)(k+1)/2 + S(3k+3)      c = (6k+5)R/2 + 3S   sign -
      H2 = R(3k+2)(k+1)/2 - S(3k+2)      c = (6k+5)R/2 - 3S   sign +
      H3 = R(3k+4)(k+1)/2 - S(3k+3)      c = (6k+7)R/2 - 3S   sign -
      H4 = R(3k+4)(k+1)/2 + S(3k+4)      c = (6k+7)R/2 + 3S   sign +
    Dprime (k >= 1) is H1, H2, H3', H4' with
      H3' = R k(3k+1)/2 - 3kS            c = (6k+1)R/2 - 3S   sign -
      H4' = R k(3k+1)/2 + S(3k+1)        c = (6k+1)R/2 + 3S   sign +
    """
    if spec.family == "Cprime":
        spec = replace(spec, family="C")
    blocks, ranges, alternating = _family_numerator(spec)
    t = 2 if alternating else 1
    out = []
    for parity in range(t):
        for n_min, n_max in ranges:
            s = 1 if n_max is None else -1
            n0 = (n_max if n_min is None else n_min) + s * parity
            flip = -1 if alternating and n0 % 2 else 1
            for sign, p in blocks:
                a, c = Fraction(p.A * t * t, 2), Fraction(s * t * (2 * p.A * n0 + p.C), 2)
                out.append((flip * sign, ThetaParams(a, c, (p.A * n0 + p.C) * n0 // 2 + p.d)))
    return out


def genfun_family_via_decomposition(spec: FamilySpec, order: int) -> PowerSeries:
    """The family series rebuilt from ``decompose_family``: the blocks'
    signed theta sums over n >= 0, divided once by the shared denominator,
    plus the constant (-1)^(k-1) for Cprime.
    """
    num = _theta_sum(decompose_family(spec), order, [(0, None)])
    total = ps_div_pochhammer(num, family_denominator(spec))
    if spec.family == "Cprime":
        const = 1 if (spec.k - 1) % 2 == 0 else -1
        total = total + PowerSeries.from_terms([(0, const)], order)
    return total


# ---------------------------------------------------------------------------
# classical identities (exact oracles)
# ---------------------------------------------------------------------------

def pentagonal_sides(order: int):
    """(q; q)_inf versus theta_{3,1} = sum_n (-1)^n q^(n(3n-1)/2)."""
    rhs = _theta_sum([(1, theta_rs_params(3, 1))], order, [(None, None)], True)
    return pochhammer(ProductSpec([(1, 1)]), order), rhs


def truncated_pentagonal_sides(k: int, order: int):
    """Both sides of the truncated pentagonal number theorem.

    LHS: (1/(q;q)_inf) sum_{j=0..k-1} (-1)^j q^(j(3j+1)/2) (1 - q^(2j+1)),
         whose numerator is theta_{3,1} over -(k-1) <= n <= k, divided by
         (q;q)_inf as the triple product (q, q^2, q^3; q^3)_inf.
    RHS: 1 + (-1)^(k-1) sum_{n>=1} q^((k+1)n + k(k-1)/2) / (q;q)_n
                                  * [n-1 choose k-1]_q.

    The right side is built in division form, with adds only: the
    q-binomial vanishes for n < k, and for n >= k

        [n-1, k-1]_q / (q;q)_n = 1 / ((q;q)_{k-1} (q;q)_{n-k} (1 - q^n)),

    so 1/(q;q)_{n-k} is kept as a running series (one division by
    1 - q^(n-k) per step), each term divides its shifted slice by 1 - q^n,
    and the sum is divided by (q;q)_{k-1} once.  It uses neither
    theta_{3,1} nor the left side, so equality of the two sides stays an
    independent check of the theta division.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    num = _theta_sum([(1, theta_rs_params(3, 1))], order, [(1 - k, k)], True)
    lhs = ps_div_pochhammer(num, triple_product_spec(3, 1))

    total = [0] * order
    inv_pochh = [1] + [0] * (order - 1)  # 1/(q;q)_{n-k}, starting at n = k
    n = k
    while True:
        lead = (k + 1) * n + k * (k - 1) // 2
        if lead >= order:
            break
        del inv_pochh[order - lead:]  # later terms start higher still
        if n > k:
            kernels.div_one_minus(inv_pochh, n - k)
        term = inv_pochh[:]
        kernels.div_one_minus(term, n)
        total[lead:] = map(add, total[lead:], term)
        n += 1
    for j in range(1, k):
        kernels.div_one_minus(total, j)
    if (k - 1) % 2:
        total = [-c for c in total]
    total[0] += 1
    return lhs, PowerSeries(total, order)


def quintuple_product_sides(R: int, S: int, order: int):
    """Both sides of the quintuple product identity, truncated.

    LHS: Q = sum_{n in Z} q^(n(3n+1)R/2) (q^(-3nS) - q^((3n+1)S)).
    RHS: (q^S, q^(R-S), q^R; q^R)_inf (q^(R-2S), q^(R+2S); q^(2R))_inf.
    """
    if not (1 <= S and 2 * S < R):
        raise ValueError("need 1 <= S < R/2")
    if gcd(R, S) != 1:
        raise ValueError("R and S must be coprime")
    lhs = _theta_sum(_quintuple_theta(R, S), order, [(None, None)])
    rhs = pochhammer(
        ProductSpec(
            [(S, R), (R - S, R), (R, R), (R - 2 * S, 2 * R), (R + 2 * S, 2 * R)]
        ),
        order,
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# grids and scans
# ---------------------------------------------------------------------------

GRID_RS = ((3, 1), (4, 1), (5, 2), (7, 3))


def default_grid(families=FAMILIES):
    """The standard (R, S) x k test grid; D additionally gets k = 0."""
    specs = []
    for family in families:
        ks = (0, 1, 2, 3) if family == "D" else (1, 2, 3)
        for R, S in GRID_RS:
            for k in ks:
                specs.append(FamilySpec(family, R, S, k))
    return specs


def scan_signs(spec: FamilySpec, n_lo: int, n_hi: int):
    """Check the conjectured sign pattern of the coefficients.

    C, Cprime and D must be >= 0, Dprime must be <= 0, for every N in
    [n_lo, n_hi].  Returns the list of (N, coefficient) violations.
    """
    series = genfun_family(spec, n_hi + 1)
    bad = []
    for n, v in enumerate(series.coeffs[n_lo:n_hi + 1], n_lo):
        if spec.family == "Dprime":
            if v > 0:
                bad.append((n, v))
        elif v < 0:
            bad.append((n, v))
    return bad
