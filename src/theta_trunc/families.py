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
Exact equality of the series and its decomposition, divided once, is one
of the identity suites: ``decomposition_sides`` divides all the specs over
one denominator at once, packed into one integer per coefficient, one
field per spec, and reads each spec's divided side back from its field.
``genfun_family_via_decomposition``, the same division per spec, is the
reference of the tests and the benchmark, not a CLI route.  The classical
pentagonal, truncated pentagonal and quintuple product identities are
further exact oracles.

``genfun_family``, ``genfun_B`` and ``genfun_Bprime`` divide once per
(R, S), not per call.  By the Jacobi triple and quintuple products each of
their series is a few shifted copies of four quotients per (R, S)
(``_quotient``): 1/pair, 1/triple and Q/pair, each divided once, and
theta_{R,S}/pair = theta_{3R,R} = (q^R; q^R)_inf, which needs no division.
They are kept in a per-process cache of the last four (R, S): the terms of
a finite range of theta_{R,S} or Q, or of a block G_{a,c,d}, are slice
adds in C.  The reuse is within one process; a lone C or Cprime still
costs one division, a lone D or Dprime two.  ``PRODUCTS`` maps the names
"pair" and "triple" to their products, and is the one place that says
which product a series is over; ``family_quotient`` names a family's.

Each series is stated once, as its shifts: (quotient, signed exponents)
pairs, ``_family_shifts`` for a family and the theta terms of G_{a,c,d}
over 1/pair or 1/triple for a block.  The shifts are read three ways: the
whole truncated series by slice adds (``genfun_family``, ``genfun_B``,
``genfun_Bprime``); as point reads, single coefficients
(``family_coefficients``, ``block_coefficient``), which is what
``compare`` and ``circle`` print; and as the sign test of a window that
``scan_signs`` runs (``_signs_hold``).  A point read [q^N] is one dot
product, sum sign * quotient[N - e] over the terms with e <= N, on
quotients built once to the largest N asked, so a few coefficients cost
the terms of the shifts, not the whole series.  The sign test packs each
cached quotient into one integer once, which its one cache record keeps
with its list, adds one shifted copy per term, and tells by one AND
whether the whole window has its sign.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from operator import add, sub

from . import kernels
from .series import (
    PowerSeries,
    ProductSpec,
    ThetaParams,
    pochhammer,
    ps_div_pochhammer,
    # Unused here, but perfbench/layers.py patches vars(families)["qbinomial"]
    # and vars(families)["theta_partial"].
    qbinomial,
    theta_exponents,
    theta_partial,
    theta_rs_params,
    theta_terms,
)

FAMILIES = ("C", "Cprime", "D", "Dprime")


class FamilySpec(namedtuple("FamilySpec", "family R S k")):
    """One family instance: tag in {C, Cprime, D, Dprime} plus (R, S, k)."""

    __slots__ = ()

    def __new__(cls, family, R, S, k):
        if family not in FAMILIES:
            raise ValueError("unknown family %r" % (family,))
        if not all(isinstance(v, int) for v in (R, S, k)):
            raise ValueError("R, S and k must be integers")
        if R < 1 or S < 1:
            raise ValueError("R and S must be positive")
        if gcd(R, S) != 1:
            raise ValueError("R and S must be coprime")
        if family in ("C", "Cprime"):
            if not S < R:
                raise ValueError("need 1 <= S < R")
            if k < 1:
                raise ValueError("need k >= 1 for %s" % family)
        else:
            if not 2 * S < R:
                raise ValueError("need 1 <= S < R/2")
            if family == "Dprime" and k < 1:
                raise ValueError("need k >= 1 for Dprime")
            if k < 0:
                raise ValueError("need k >= 0")
        return super().__new__(cls, family, R, S, k)


def pair_product_spec(R: int, S: int) -> ProductSpec:
    """(q^S, q^(R-S); q^R)_inf."""
    return ProductSpec([(S, R), (R - S, R)])


def triple_product_spec(R: int, S: int) -> ProductSpec:
    """(q^S, q^(R-S), q^R; q^R)_inf."""
    return ProductSpec([(S, R), (R - S, R), (R, R)])


# The product each quotient name divides by: the one statement of which
# product a series is over.
PRODUCTS = {"pair": pair_product_spec, "triple": triple_product_spec}


def family_quotient(spec: FamilySpec) -> str:
    """The ``PRODUCTS`` name of the family's denominator: "triple" for
    Cprime, "pair" for the rest."""
    return "triple" if spec.family == "Cprime" else "pair"


def family_denominator(spec: FamilySpec) -> ProductSpec:
    """The q-product under the family's numerator and all four of its
    blocks."""
    return PRODUCTS[family_quotient(spec)](spec.R, spec.S)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

# The per-(R, S) quotients of ``_quotient``, least recently used first:
# (R, S) -> {kind: [coeffs, bits, width, packed]}, coeffs as long as the
# longest order asked, bits their largest |coefficient| bit length, and
# width and packed the packing of ``_signs_hold``, width 0 until it packs.
_QUOTIENTS = {}
_QUOTIENT_RS = 4


def _build_quotient(kind, R, S, order):
    """The quotient ``kind`` of (R, S), truncated below ``order``:
      pair        1/pair = theta_{3R,R} / theta_{R,S}
      triple      1/triple = 1 / theta_{R,S}
      theta/pair  theta_{R,S}/pair = theta_{3R,R} = (q^R; q^R)_inf, a theta
                  series, with no division
      Q/pair      (q^R; q^R)_inf (q^(R-2S), q^(R+2S); q^(2R))_inf by the
                  quintuple product, that is theta_{3R,R} theta_{2R,R-2S}
                  over (q^(2R); q^(2R))_inf, the triple product at (6R, 2R),
                  whose theta series is sparser than theta_{R,S}.
    ``_quotient`` has rejected any other kind.
    """
    if kind in PRODUCTS:
        return ps_div_pochhammer(PowerSeries([1], order), PRODUCTS[kind](R, S)).coeffs
    theta = _theta_sum([(1, theta_rs_params(3 * R, R))], order, [(None, None)], True)
    if kind == "theta/pair":
        return theta.coeffs
    kernels.mul_sparse(theta.coeffs, *theta_exponents(2 * R, R - 2 * S, order))
    return ps_div_pochhammer(theta, triple_product_spec(6 * R, 2 * R)).coeffs


def _quotient(kind, R, S, order):
    """The record (see ``_QUOTIENTS``) of the truncated quotient ``kind``
    of (R, S) (see ``_build_quotient``), its coeffs at least ``order`` long.

    A truncated quotient is a prefix of every longer one, so each (R, S)
    keeps the longest built and serves shorter orders from it; a longer
    order replaces the whole record.  The cache holds the last
    ``_QUOTIENT_RS`` (R, S) used, with no knob.  For (3, 1) the four lists
    take 0.27 MB at order 2001, 1.7 MB at 10^4 and 32 MB at 10^5, where
    they take 12-15 s to build (Intel Xeon, sizes by sys.getsizeof of each
    list and int).  Callers read coeffs and never change them.  An unknown
    kind raises before the cache is touched.
    """
    if kind not in PRODUCTS and kind not in ("theta/pair", "Q/pair"):
        raise ValueError("unknown quotient %r" % (kind,))
    if order < 1:
        raise ValueError("order must be positive")
    entry = _QUOTIENTS[R, S] = _QUOTIENTS.pop((R, S), {})
    if len(_QUOTIENTS) > _QUOTIENT_RS:
        del _QUOTIENTS[next(iter(_QUOTIENTS))]
    record = entry.get(kind)
    if record is None or len(record[0]) < order:
        coeffs = _build_quotient(kind, R, S, order)
        record = entry[kind] = [coeffs, max(map(abs, coeffs)).bit_length(), 0, 0]
    return record


def _add_shifted(out, terms, quotient):
    """Add sign * q^e * quotient to ``out`` in place for each (e, sign) of
    ``terms``, signs +-1, every e below len(out) and the quotient at least
    that long: one slice add in C per term, which ``map`` stops at the end
    of ``out``."""
    for e, sign in terms:
        out[e:] = map(add if sign > 0 else sub, out[e:], quotient)


def _series(R, S, shifts, order):
    """The series of ``shifts``, truncated below ``order``: each term of
    each (kind, terms) pair is one slice add in C of its cached quotient
    ``_quotient(kind, R, S, order)``."""
    out = [0] * order
    for kind, terms in shifts:
        _add_shifted(out, terms, _quotient(kind, R, S, order)[0])
    return PowerSeries(out, order)


def _coefficients(R, S, shifts_to, ns):
    """[q^N] for each N of ``ns`` of the series whose shifts, every term
    below order = max(ns) + 1, ``shifts_to(order)`` lists, on quotients
    built (once) to that order.  ``ns`` may be any iterable."""
    ns = list(ns)
    if not ns:
        raise ValueError("ns must list at least one N")
    if min(ns) < 0:
        raise ValueError("N must be >= 0")
    order = max(ns) + 1
    read = [(_quotient(kind, R, S, order)[0], terms) for kind, terms in shifts_to(order)]
    return [sum(sign * q[N - e] for q, terms in read for e, sign in terms if e <= N) for N in ns]


def _tops(fields, size):
    """sum h 2^(i W) over i < fields, W = 8 size and h = 2^(W-1): the top
    bit of each of ``fields`` fields of ``size`` bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * fields, "little")


def _width(bits, terms):
    """The field width W, in bits, of a packed sum of ``terms`` values each
    below 2^bits in magnitude, plus or minus 1: bits +
    max(8, terms.bit_length()) + 1 rounded up to whole bytes, so that every
    field lies in (-h, h), h = 2^(W-1), since terms (2^bits - 1) + 1 <=
    terms 2^bits < 2^(bits + terms.bit_length())."""
    return -(-(bits + max(8, terms.bit_length()) + 1) // 8) * 8


def _pack(coeffs, width):
    """sum coeffs[i] 2^(i width), each |coeffs[i]| below 2^(width-1): the
    fields biased to bytes, one int.from_bytes, the packed bias taken off."""
    size, h = width // 8, 1 << (width - 1)
    raw = b"".join([(c + h).to_bytes(size, "little") for c in coeffs])
    return int.from_bytes(raw, "little") - _tops(len(coeffs), size)


def _signs_hold(R, S, shifts, n_hi, sign):
    """Whether sign * [q^N] of the series of ``shifts`` is >= 0 for every N
    in [1, n_hi]: with P = sum q[i] 2^(i W) each cached quotient packed,
    x = sum sign * (P << e W) over the terms, and the window holds iff
    x + bias, h = 2^(W-1) added to each field below n_hi + 1, has the top
    bit of every field but field 0 set.

    W is ``_width`` of the largest |coefficient| bit length of the
    quotients read and the term count, or wider if a quotient is packed
    wider already.  Carries only move upward, so the fields below n_hi + 1
    are exact though the shifted copies run past them, and a quotient
    packed at a longer order serves a shorter one."""
    order, count = n_hi + 1, sum(len(terms) for _, terms in shifts)
    read = [(_quotient(kind, R, S, order), terms) for kind, terms in shifts]
    bits = max(record[1] for record, _ in read)
    width = max([_width(bits, count)] + [record[2] for record, _ in read])
    x = 0
    for record, terms in read:
        if record[2] < width:
            record[2:] = width, _pack(record[0], width)
        for e, s in terms:
            x = (add if s * sign > 0 else sub)(x, record[3] << e * width)
    bias = _tops(order, width // 8)
    top = bias >> width << width
    return (x + bias) & top == top


def genfun_B(p: ThetaParams, R: int, S: int, order: int) -> PowerSeries:
    """G_{a,c,d} / (q^S, q^(R-S); q^R)_inf, truncated: the ~sqrt(order/a)
    terms of G_{a,c,d} as shifted copies of the cached 1/pair."""
    return _series(R, S, [("pair", theta_terms(p, order))], order)


def genfun_Bprime(p: ThetaParams, R: int, S: int, order: int) -> PowerSeries:
    """G_{a,c,d} / (q^S, q^(R-S), q^R; q^R)_inf, truncated, over the cached
    1/triple as ``genfun_B`` is over 1/pair."""
    return _series(R, S, [("triple", theta_terms(p, order))], order)


def block_coefficient(p: ThetaParams, R: int, S: int, N: int, quotient: str) -> int:
    """[q^N] of G_{a,c,d} over the product ``PRODUCTS[quotient]``: of
    ``genfun_B`` for "pair", of ``genfun_Bprime`` for "triple"."""
    return _coefficients(R, S, lambda order: [(quotient, theta_terms(p, order))], [N])[0]


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
    return PowerSeries.from_terms(_signed_terms(blocks, order, ranges, alternating), order)


def _signed_terms(blocks, order, ranges, alternating):
    """The (exponent, sign) terms that ``_theta_sum`` adds up."""
    return [
        (e, sign * v)
        for sign, p in blocks
        for n_min, n_max in ranges
        for e, v in theta_terms(p, order, n_min, n_max, alternating)
    ]


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


def _family_shifts(spec: FamilySpec, order: int):
    """The family series as shifts (see ``_series``), terms below ``order``.

    With P_k = theta_{R,S} over 1-k <= n <= k and Q_[lo, hi] = Q over
    lo <= n <= hi, the Jacobi triple product (theta_{R,S} is the triple
    product) and the quintuple product give

      Cprime_k = (-1)^(k-1) P_k / triple           2k terms
      C_k      = (-1)^k (theta/pair - P_k / pair)
      D_k      = Q_[-k, k] / pair - Q/pair         4k + 2 terms
      Dprime_k = Q_[-k, k-1] / pair - Q/pair

    from the numerator of ``_family_numerator``: the two tails n <= hi and
    n >= lo of C, D and Dprime are the whole theta series, with the sign of
    the first block, minus its range hi < n < lo, and over the pair the
    whole theta_{R,S} is theta/pair and the whole Q is Q/pair.
    """
    blocks, ranges, alternating = _family_numerator(spec)
    quotient = family_quotient(spec)
    if spec.family == "Cprime":
        return [(quotient, _signed_terms(blocks, order, ranges, alternating))]
    (_, hi), (lo, _) = ranges
    whole = "theta/pair" if spec.family == "C" else "Q/pair"
    minus = [(-sign, p) for sign, p in blocks]
    middle = _signed_terms(minus, order, [(hi + 1, lo - 1)], alternating)
    return [(whole, [(0, blocks[0][0])]), (quotient, middle)]


def genfun_family(spec: FamilySpec, order: int) -> PowerSeries:
    """The family series: the numerator of ``_family_numerator`` over
    ``family_denominator(spec)``, as the shifted copies of cached quotients
    that ``_family_shifts`` lists.

    A spec costs its terms' slice adds once its (R, S) has the quotients
    (``_quotient``), and a truncated quotient is exact to its order, so the
    series equals the numerator-over-denominator route's bit for bit.
    """
    return _series(spec.R, spec.S, _family_shifts(spec, order), order)


def family_coefficients(spec: FamilySpec, ns):
    """[q^N] of ``genfun_family(spec, ...)`` for each N >= 0 of ``ns``, in
    that order."""
    return _coefficients(spec.R, spec.S, lambda order: _family_shifts(spec, order), ns)


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
        spec = spec._replace(family="C")
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
    plus the constant (-1)^(k-1) for Cprime.  The per-spec reference of
    the tests and the benchmark; the CLI reads ``decomposition_sides``.
    """
    num = _theta_sum(decompose_family(spec), order, [(0, None)])
    total = ps_div_pochhammer(num, family_denominator(spec))
    if spec.family == "Cprime":
        total.coeffs[0] += (-1) ** (spec.k - 1)
    return total


def decomposition_sides(specs, order):
    """{spec: (route A, route B)} for each spec of ``specs`` to ``order``:
    A is ``genfun_family``, B the series of
    ``genfun_family_via_decomposition``, one division per denominator.

    For the m specs of one ``family_denominator``, B packs the blocks'
    signed terms (those ``_theta_sum`` adds) into one integer per
    coefficient, sum_j num_j[n] 2^(jW), and divides that once.  Division is
    exact and linear, so field j of the quotient is spec j's num_j/den, and
    field j of x is ((x + sum_i h 2^(iW)) >> jW & (2^W - 1)) - h,
    h = 2^(W-1); each Cprime then adds its constant (-1)^(k-1) at q^0.  W
    is ``_width`` of the bit length of the first ``order`` coefficients of
    the cached 1/den (``_quotient``), all nonnegative, and of the longest
    numerator's term count T: each field is at most T of them, signed, so
    it lies in (-h, h) whether or not the identity holds.
    """
    groups = {}
    for spec in specs:
        groups.setdefault(family_denominator(spec), []).append(spec)
    sides = {}
    for den, group in groups.items():
        nums = [_signed_terms(decompose_family(spec), order, [(0, None)], False) for spec in group]
        inverse = _quotient(family_quotient(group[0]), group[0].R, group[0].S, order)[0]
        width = _width(max(inverse[:order]).bit_length(), max(map(len, nums)))
        num = PowerSeries.from_terms(
            [(e, v << j * width) for j, terms in enumerate(nums) for e, v in terms], order
        )
        bias, h, mask = _tops(len(group), width // 8), 1 << width - 1, (1 << width) - 1
        biased = [x + bias for x in ps_div_pochhammer(num, den).coeffs]
        for j, spec in enumerate(group):
            fields = [(x >> j * width & mask) - h for x in biased]
            if spec.family == "Cprime":
                fields[0] += (-1) ** (spec.k - 1)
            sides[spec] = genfun_family(spec, order), PowerSeries(fields, order)
    return sides


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
         whose numerator is theta_{3,1} over -(k-1) <= n <= k, over
         (q;q)_inf as the triple product: (-1)^(k-1) Cprime 3 1 k.
    RHS: 1 + (-1)^(k-1) sum_{n>=1} q^((k+1)n + k(k-1)/2) / (q;q)_n
                                  * [n-1 choose k-1]_q.

    The right side is built in division form, with adds only: the
    q-binomial vanishes for n < k, and for n >= k

        [n-1, k-1]_q / (q;q)_n = 1 / ((q;q)_{k-1} (q;q)_{n-k} (1 - q^n)),

    so 1/(q;q)_{n-k} is kept as a running series (one division by
    1 - q^(n-k) per step), each term divides its shifted slice by 1 - q^n,
    and the sum is divided by (q;q)_{k-1} once.  It uses neither
    theta_{3,1} nor the left side, so equality of the two sides checks
    the route of ``coeffs`` and ``scan`` (``genfun_family``: the cached
    1/triple, slice adds).  ``FamilySpec`` rejects k < 1.
    """
    lhs = genfun_family(FamilySpec("Cprime", 3, 1, k), order)
    if k % 2 == 0:
        lhs.coeffs = [-c for c in lhs.coeffs]

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


def default_grid():
    """The standard (R, S) x k test grid; D additionally gets k = 0."""
    specs = []
    for family in FAMILIES:
        ks = (0, 1, 2, 3) if family == "D" else (1, 2, 3)
        for R, S in GRID_RS:
            for k in ks:
                specs.append(FamilySpec(family, R, S, k))
    return specs


def scan_signs(spec: FamilySpec, n_hi: int):
    """The (N, coefficient) violations of the conjectured sign pattern:
    C, Cprime and D must be >= 0, Dprime must be <= 0, for every N in
    [1, n_hi], not N = 0 (Cprime 3 1 k is -1 there for even k).  One AND
    over the cached quotients packed into integers (``_signs_hold``) tests
    the window first and builds no series; only a failing window is built
    from the same shifts by ``_series`` and walked for the violations.
    """
    if n_hi < 1:
        return []
    sign = -1 if spec.family == "Dprime" else 1
    shifts = _family_shifts(spec, n_hi + 1)
    if _signs_hold(spec.R, spec.S, shifts, n_hi, sign):
        return []
    window = _series(spec.R, spec.S, shifts, n_hi + 1).coeffs[1:]
    return [(n, v) for n, v in enumerate(window, 1) if sign * v < 0]
