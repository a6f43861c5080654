"""Closed-form main terms: scaled Bessel functions and the one Bessel rung of
each family.

A family's main term is one rung coeff * s^p * I_{-p}(x).  Every
coefficient family grows like exp(2*pi*sqrt(N/(3R))) (or with 2R in place
of 3R), so all values are carried either as exponentially scaled floats or
as LogValue, a (sign, log of magnitude) pair.

The rung is what survives of the paper's four-rung main terms of the
family's B / B' blocks, which only the tests build (``tests/oracles.py``).
With x = 2*pi*sqrt(N/(3R)), s = pi/sqrt(3RN),
E = d - c^2/(4a) + R/12 - S/2 + S^2/(2R), h = c/(2a), sin0 = sin(S*pi/R)
and the Bernoulli polynomials B1(h) = h - 1/2 and
B3(h) = h (h - 1/2) (h - 1), a B block's main term is

    sqrt(pi/a)/(4 sin0) * s^(1/2) I_{-1/2}(x)
  - B1(h)/(2 sin0)      * s       I_{-1}(x)
  - sqrt(pi/a) E/(4 sin0) * s^(3/2) I_{-3/2}(x)
  + [E B1(h) + a B3(h)/3]/(2 sin0) * s^2 I_{-2}(x)

The B' ladder replaces R/12 by R/8 in E, uses x = 2*pi*sqrt(N/(2R)),
s = pi/sqrt(2RN), and shifts the ladder to orders -1 .. -5/2 with
coefficients sqrt(R/2a) and sqrt(R/2pi) in place of sqrt(pi/a) and 1.
A family's blocks share a and E, and their signed sum cancels the first
three rungs; ``family_rung`` derives the last from B3 alone, on the
circle of ``families.family_quotient``.  What differs between the two
circles, with the quotient of each, is the two entries of ``VARIANTS``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .families import FamilySpec, decompose_family, family_quotient

_LN2 = math.log(2)


# ---------------------------------------------------------------------------
# LogValue
# ---------------------------------------------------------------------------

class LogValue(namedtuple("LogValue", "sign lnmag")):
    """Signed magnitude stored as (sign, ln|value|); zero is (0, -inf)."""

    __slots__ = ()

    def __new__(cls, sign, lnmag):
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        return super().__new__(cls, sign, lnmag)

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
# family main terms
# ---------------------------------------------------------------------------

THREE_R = "threeR"
TWO_R = "twoR"


# Everything that differs between the two circles, with the blocks that go
# with each: B blocks (pair product) take the 3R circle, B' blocks (triple
# product) the 2R circle.  m gives the circle height y = 1/(2 sqrt(mRN)), the
# Bessel argument x = 2 pi sqrt(N/(mR)) and the power base s = pi/sqrt(mRN);
# power is that of a family's one rung, the last of its blocks' four, and
# odd(R) its prefactor; quotient names, in ``families.PRODUCTS``, the
# q-product of the circle's blocks and families.
CircleVariant = namedtuple("CircleVariant", "m power odd quotient")

VARIANTS = {
    THREE_R: CircleVariant(3, Fraction(2), lambda R: 1.0, "pair"),
    TWO_R: CircleVariant(
        2, Fraction(5, 2), lambda R: math.sqrt(R / (2 * math.pi)), "triple",
    ),
}


def bessel_argument(N: int, R: int, variant: str) -> float:
    return 2.0 * math.pi * math.sqrt(N / (VARIANTS[variant].m * R))


def power_scale(N: int, R: int, variant: str) -> float:
    return math.pi / math.sqrt(VARIANTS[variant].m * R * N)


@lru_cache(maxsize=256)
def family_rung(spec: FamilySpec):
    """(variant, coeff, power) of a family's main term coeff s^p I_{-p}(x),
    on the circle of its quotient.

    coeff is odd(R)/(2 sin0) times the signed sum of the blocks' last rung
    rationals E B1(h) + a B3(h)/3.  The blocks of ``decompose_family`` share
    a and E, with sum sign = 0 and sum sign B1(h) = 0, so that sum is
    (a/3) sum sign B3(h), h = c/(2a): w S, with w = k, k, 2k+1, -4k for C,
    Cprime, D, Dprime.  With A = 2a, C = 2c and A shared, it is one
    integer sum over one division: sum sign C (C - A) (C - 2A) / (48 A^2).
    """
    (variant,) = [name for name, v in VARIANTS.items() if v.quotient == family_quotient(spec)]
    v = VARIANTS[variant]
    blocks = decompose_family(spec)  # (sign, ThetaParams) pairs
    A = blocks[0][1].A
    r = Fraction(sum(sign * p.C * (p.C - A) * (p.C - 2 * A) for sign, p in blocks), 48 * A * A)
    return variant, float(r) * v.odd(spec.R) / (2 * math.sin(math.pi * spec.S / spec.R)), v.power


def mainterm_family(spec: FamilySpec, N: int, form: str) -> LogValue:
    """Closed-form main term of the family coefficient at N.

    ``form='bessel'`` evaluates the family's rung coeff s^p I_{-p}(x);
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
    variant, coeff, power = family_rung(spec)
    s = power_scale(N, spec.R, variant)
    x = bessel_argument(N, spec.R, variant)
    if form == "bessel":
        return LogValue.from_scaled(coeff * s ** float(power) * bessel_I_scaled(-power, x), x)
    ln = (
        math.log(abs(coeff))
        + float(power) * math.log(s)
        - 0.5 * math.log(2 * math.pi * x)
        + x
    )
    return LogValue(1 if coeff > 0 else -1, ln)
