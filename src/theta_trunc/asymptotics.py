"""Closed-form main terms: Bernoulli polynomials, scaled Bessel functions,
and the rung ladders of the B / B' coefficient blocks and of the families.

A main term is a ladder: rungs (coeff, p), each standing for
coeff * s^p * I_{-p}(x), all evaluated by ``ladder_value_scaled``.  Every
coefficient family grows like exp(2*pi*sqrt(N/(3R))) (or with 2R in place
of 3R), so all values are carried either as exponentially scaled floats or
as LogValue, a (sign, log of magnitude) pair.

The B ladder has four rungs; with x = 2*pi*sqrt(N/(3R)), s = pi/sqrt(3RN),
E = d - c^2/(4a) + R/12 - S/2 + S^2/(2R), h = c/(2a), sin0 = sin(S*pi/R):

    sqrt(pi/a)/(4 sin0) * s^(1/2) I_{-1/2}(x)
  - B1(h)/(2 sin0)      * s       I_{-1}(x)
  - sqrt(pi/a) E/(4 sin0) * s^(3/2) I_{-3/2}(x)
  + [E B1(h) + a B3(h)/3]/(2 sin0) * s^2 I_{-2}(x)

The B' ladder replaces R/12 by R/8 in E, uses x = 2*pi*sqrt(N/(2R)),
s = pi/sqrt(2RN), and shifts the ladder to orders -1 .. -5/2 with
coefficients sqrt(R/2a) and sqrt(R/2pi) in place of sqrt(pi/a) and 1.
These differences, with the circle and the denominator of each block, are
the two entries of ``VARIANTS``.  A family takes the circle of
``families.family_denominator``; its ladder is what survives of its blocks'
exact rung rationals summed with their signs: the last rung.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .families import FamilySpec, decompose_family, family_denominator
from .families import pair_product_spec, triple_product_spec
from .series import ThetaParams

_LN2 = math.log(2)


# ---------------------------------------------------------------------------
# LogValue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogValue:
    """Signed magnitude stored as (sign, ln|value|); zero is (0, -inf)."""

    sign: int
    lnmag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(0, -math.inf)

    @classmethod
    def from_int(cls, v: int) -> "LogValue":
        """Exact integer to log space via bit length plus leading word."""
        if v == 0:
            return cls.zero()
        n = abs(v)
        shift = max(0, n.bit_length() - 64)
        return cls(1 if v > 0 else -1, math.log(n >> shift) + shift * _LN2)

    @classmethod
    def from_scaled(cls, v: float, x: float) -> "LogValue":
        """The value v * e^x, for a float v scaled by e^(-x)."""
        if v == 0.0:
            return cls.zero()
        return cls(1 if v > 0 else -1, math.log(abs(v)) + x)


def logvalue_ratio(num: LogValue, den: LogValue):
    """num/den as a float, or the string 'sign-mismatch' when signs differ."""
    if num.sign == 0 or den.sign == 0 or num.sign != den.sign:
        return "sign-mismatch"
    return math.exp(num.lnmag - den.lnmag)


# ---------------------------------------------------------------------------
# Bernoulli polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli_number(n: int) -> Fraction:
    """B_n (B_1 = -1/2) by the standard recurrence."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * _bernoulli_number(j)
    return -acc / (n + 1)


def bernoulli_poly(n: int, x):
    """B_n(x) = sum_k C(n,k) B_k x^(n-k), exact: x goes through Fraction,
    which converts a float exactly too.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    x = Fraction(x)
    acc = Fraction(0)
    for k in range(n + 1):
        acc += math.comb(n, k) * _bernoulli_number(k) * x ** (n - k)
    return acc


# ---------------------------------------------------------------------------
# scaled modified Bessel function of the first kind
# ---------------------------------------------------------------------------

def _check_order(nu) -> Fraction:
    v = Fraction(nu)
    if (2 * v).denominator != 1 or not (-4 <= v <= 4):
        raise ValueError(
            "order must be an integer or half-integer in [-4, 4], got %s" % (nu,)
        )
    return v


def bessel_I_scaled(nu, x: float) -> float:
    """exp(-x) * I_nu(x) for x > 0.

    Ascending series for x <= 30, large-x asymptotic expansion beyond;
    both deliver at least ten significant digits at the switch point.
    Negative integer orders use I_{-n} = I_n.
    """
    v = _check_order(nu)
    if x <= 0:
        raise ValueError("x must be positive")
    if v.denominator == 1 and v < 0:
        v = -v
    if x <= 30.0:
        return _bessel_series(float(v), x)
    return _bessel_asymptotic(float(v), x)


def _bessel_series(v: float, x: float) -> float:
    # I_v(x) = sum_m (x/2)^(2m+v) / (m! Gamma(m+v+1)); for the half-integer
    # negative orders Gamma never hits a pole.
    h = x / 2.0
    lead = h**v
    acc = 0.0
    term_pow = 1.0  # (x/2)^(2m) / m!
    m = 0
    while True:
        g = math.gamma(m + v + 1)
        t = term_pow / g
        acc += t
        m += 1
        term_pow *= h * h / m
        if m > 25 and abs(term_pow / math.gamma(m + v + 1)) < 1e-18 * abs(acc):
            break
        if m > 500:  # pragma: no cover
            break
    return lead * acc * math.exp(-x)


def _bessel_asymptotic(v: float, x: float) -> float:
    # e^(-x) I_v(x) ~ (2 pi x)^(-1/2) sum_k (-1)^k a_k(v) / x^k with
    # a_k = prod_{j=1..k} (4v^2 - (2j-1)^2) / (k! 8^k); ten terms suffice
    # for 1e-10 relative accuracy at x > 30 (the e^(-2x) reflection term
    # is below 1e-26 there).
    four_v2 = 4.0 * v * v
    acc = 1.0
    num = 1.0
    for k in range(1, 10):
        num *= four_v2 - (2 * k - 1) ** 2
        acc += (-1) ** k * num / (math.factorial(k) * 8.0**k * x**k)
    return acc / math.sqrt(2.0 * math.pi * x)


# ---------------------------------------------------------------------------
# main-term ladders
# ---------------------------------------------------------------------------

THREE_R = "threeR"
TWO_R = "twoR"


# Everything that differs between the two circles, with the block that goes
# with each: B blocks (pair product) take the 3R circle, B' blocks (triple
# product) the 2R circle.  m gives the circle height y = 1/(2 sqrt(mRN)), the
# Bessel argument x = 2 pi sqrt(N/(mR)) and the power base s = pi/sqrt(mRN);
# E carries e_r * R; the block ladder starts at power ``first`` with
# prefactor odd(R) on its odd rungs and sqrt(pi/a) * odd(R) on its even ones
# (sqrt(pi/a) on threeR, sqrt(R/(2a)) on twoR);
# denominator(R, S) is the q-product of the circle's blocks and families.
CircleVariant = namedtuple("CircleVariant", "m e_r first odd denominator")

VARIANTS = {
    THREE_R: CircleVariant(3, Fraction(1, 12), Fraction(1, 2), lambda R: 1.0, pair_product_spec),
    TWO_R: CircleVariant(
        2, Fraction(1, 8), Fraction(1), lambda R: math.sqrt(R / (2 * math.pi)), triple_product_spec,
    ),
}


def bessel_argument(N: int, R: int, variant: str) -> float:
    return 2.0 * math.pi * math.sqrt(N / (VARIANTS[variant].m * R))


def power_scale(N: int, R: int, variant: str) -> float:
    return math.pi / math.sqrt(VARIANTS[variant].m * R * N)


def ladder_value_scaled(ladder, N: int, R: int, variant: str):
    """(value / e^x, x) of the ladder sum coeff * s^p * I_{-p}(x) over its
    rungs (coeff, p), with x and s of the variant at N.

    Summing in scaled space keeps the rungs, which all carry the factor
    e^x, inside float range at any N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    s = power_scale(N, R, variant)
    x = bessel_argument(N, R, variant)
    acc = 0.0
    for coeff, power in ladder:
        acc += coeff * s ** float(power) * bessel_I_scaled(-power, x)
    return acc, x


def e_constant(p: ThetaParams, R: int, S: int, variant: str) -> Fraction:
    """E = d - c^2/(4a) + R/12 - S/2 + S^2/(2R), with R/8 for the twoR form.

    For every four-term decomposition all four blocks share one value of E,
    which is what makes the leading Bessel orders cancel exactly.
    """
    base = Fraction(p.d) - p.c * p.c / (4 * p.a) - Fraction(S, 2) + Fraction(S * S, 2 * R)
    return base + R * VARIANTS[variant].e_r


def block_rationals(p: ThetaParams, R: int, S: int, variant: str):
    """The exact rung rationals 1, -B1(h), -E, E B1(h) + a B3(h)/3, h = c/2a."""
    h = p.c / (2 * p.a)
    e = e_constant(p, R, S, variant)
    b1 = bernoulli_poly(1, h)
    return (Fraction(1), -b1, -e, e * b1 + p.a * bernoulli_poly(3, h) / 3)


def scaled_ladder(rationals, a, R: int, S: int, variant: str):
    """The (coefficient, power) rungs of rung rationals: rung i at power
    first + i/2 of the variant, times sqrt(pi/a) odd(R)/(4 sin0) for even i
    and odd(R)/(2 sin0) for odd i."""
    v = VARIANTS[variant]
    sin0 = math.sin(math.pi * S / R)
    odd = v.odd(R)
    scales = ((math.sqrt(math.pi / float(a)) * odd, 4 * sin0), (odd, 2 * sin0))
    return tuple(
        (float(r) * scales[i % 2][0] / scales[i % 2][1], v.first + Fraction(i, 2))
        for i, r in enumerate(rationals)
    )


def block_ladder(p: ThetaParams, R: int, S: int, variant: str):
    """The four (coefficient, power) rungs of a block's main term; the
    main-arc expansion of L in ``tests/paper_lemmas.py`` reads them too."""
    return scaled_ladder(block_rationals(p, R, S, variant), p.a, R, S, variant)


def mainterm_block(p: ThetaParams, R: int, S: int, N: int, variant: str):
    """Four-rung Bessel main term of a block on the variant's circle
    (threeR for B, twoR for B'); returns (ladder, value)."""
    ladder = block_ladder(p, R, S, variant)
    return ladder, LogValue.from_scaled(*ladder_value_scaled(ladder, N, R, variant))


@lru_cache(maxsize=256)
def _family_term(spec: FamilySpec):
    """(variant, ladder) of a family on the circle of its denominator: its blocks'
    rung rationals summed with their signs, scaled, keeping the non-zero sums."""
    R, S = spec.R, spec.S
    den = family_denominator(spec)
    (variant,) = [name for name, v in VARIANTS.items() if v.denominator(R, S) == den]
    blocks = decompose_family(spec)  # (sign, ThetaParams) pairs
    rows = [[sign * r for r in block_rationals(p, R, S, variant)] for sign, p in blocks]
    sums = [sum(column) for column in zip(*rows)]
    ladder = scaled_ladder(sums, blocks[0][1].a, R, S, variant)
    return variant, tuple(rung for rung, r in zip(ladder, sums) if r)


def family_ladder(spec: FamilySpec):
    """The rungs (coeff, power) that survive the four-block cancellation: the
    last one, at weight w S (w = k, k, 2k+1, -4k for C, Cprime, D, Dprime)."""
    return _family_term(spec)[1]


def mainterm_family(spec: FamilySpec, N: int, form: str) -> LogValue:
    """Closed-form main term of the family coefficient at N.

    ``form='bessel'`` evaluates the surviving Bessel term coeff s^p I_{-p}(x);
    ``'elementary'`` replaces e^(-x) I_{-p}(x) by its leading term
    1/sqrt(2 pi x), which gives

      C:        pi k S N^(-5/4) / (4 (3R)^(3/4) sin0) * e^(2 pi sqrt(N/3R))
      Cprime:   pi k S N^(-3/2) / (8 sqrt(2R) sin0)   * e^(2 pi sqrt(N/2R))
      D:        as C with (2k+1) S in place of k S
      Dprime:   - pi k S N^(-5/4) / ((3R)^(3/4) sin0) * e^(2 pi sqrt(N/3R))
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if form not in ("bessel", "elementary"):
        raise ValueError("form must be 'bessel' or 'elementary'")
    variant, ladder = _family_term(spec)
    if form == "bessel":
        return LogValue.from_scaled(*ladder_value_scaled(ladder, N, spec.R, variant))
    ((coeff, power),) = ladder
    x = bessel_argument(N, spec.R, variant)
    ln = (
        math.log(abs(coeff))
        + float(power) * math.log(power_scale(N, spec.R, variant))
        - 0.5 * math.log(2 * math.pi * x)
        + x
    )
    return LogValue(1 if coeff > 0 else -1, ln)
