"""Closed-form main terms: Bernoulli polynomials, scaled Bessel functions,
and the four-term expansions for the B / B' coefficient blocks.

Every coefficient family grows like exp(2*pi*sqrt(N/(3R))) (or with 2R in
place of 3R), so all values are carried either as exponentially scaled
floats or as LogValue, a (sign, log of magnitude) pair.

The B expansion evaluates, with x = 2*pi*sqrt(N/(3R)), s = pi/sqrt(3RN),
E = d - c^2/(4a) + R/12 - S/2 + S^2/(2R) and sin0 = sin(S*pi/R):

    sqrt(pi/a)/(4 sin0) * s^(1/2) I_{-1/2}(x)
  - B1(c/2a)/(2 sin0)   * s       I_{-1}(x)
  - sqrt(pi/a) E/(4 sin0) * s^(3/2) I_{-3/2}(x)
  + [E B1(c/2a) + a B3(c/2a)/3]/(2 sin0) * s^2 I_{-2}(x)

The B' expansion replaces R/12 by R/8 in E, uses x = 2*pi*sqrt(N/(2R)),
s = pi/sqrt(2RN), and shifts the ladder to orders -1 .. -5/2 with
coefficients sqrt(R/2a) and sqrt(R/2pi) in place of sqrt(pi/a) and 1.
These differences, with the circle and the denominator of each block, are
the two entries of ``VARIANTS``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .families import FamilySpec, decompose_family, pair_product_spec, triple_product_spec
from .series import ThetaParams

_LN2 = math.log(2)


class UnsupportedOrder(ValueError):
    """Bessel order outside the supported integer/half-integer range."""


# ---------------------------------------------------------------------------
# LogValue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogValue:
    """Signed magnitude stored as (sign, ln|value|); sign 0 means zero."""

    sign: int
    lnmag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(0, 0.0)

    @classmethod
    def from_float(cls, v: float) -> "LogValue":
        if v == 0.0:
            return cls.zero()
        return cls(1 if v > 0 else -1, math.log(abs(v)))

    @classmethod
    def from_int(cls, v: int) -> "LogValue":
        """Exact integer to log space via bit length plus leading word."""
        if v == 0:
            return cls.zero()
        n = abs(v)
        shift = max(0, n.bit_length() - 64)
        return cls(1 if v > 0 else -1, math.log(n >> shift) + shift * _LN2)

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0 or other.sign == 0:
            return LogValue.zero()
        return LogValue(self.sign * other.sign, self.lnmag + other.lnmag)

    def __neg__(self) -> "LogValue":
        return LogValue(-self.sign, self.lnmag)

    def to_float(self) -> float:
        return 0.0 if self.sign == 0 else self.sign * math.exp(self.lnmag)


def logvalue_sum(values) -> LogValue:
    """Signed sum via the larger-magnitude factoring trick.

    Factors out the largest magnitude M and sums sign_i * exp(l_i - M) in
    plain floats, so a shared exponential growth factor cancels exactly.
    """
    live = [v for v in values if v.sign != 0]
    if not live:
        return LogValue.zero()
    m = max(v.lnmag for v in live)
    s = 0.0
    for v in live:
        s += v.sign * math.exp(v.lnmag - m)
    if s == 0.0:
        return LogValue.zero()
    return LogValue(1 if s > 0 else -1, m + math.log(abs(s)))


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
    """B_n(x) = sum_k C(n,k) B_k x^(n-k).

    Exact (Fraction) for rational x, float for float x.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if isinstance(x, float):
        return sum(
            math.comb(n, k) * float(_bernoulli_number(k)) * x ** (n - k)
            for k in range(n + 1)
        )
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
        raise UnsupportedOrder(
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
# main-term expansions
# ---------------------------------------------------------------------------

THREE_R = "threeR"
TWO_R = "twoR"


# Everything that differs between the two circles, with the block that goes
# with each: B blocks (pair product) take the 3R circle, B' blocks (triple
# product) the 2R circle.  m gives the circle height y = 1/(2 sqrt(mRN)), the
# Bessel argument x = 2 pi sqrt(N/(mR)) and the power base s = pi/sqrt(mRN);
# E carries e_r * R; the block ladder starts at power ``first`` with
# prefactor even(a, R) on its even rungs and odd(R) on its odd ones;
# denominator(R, S) is the block's q-product.
CircleVariant = namedtuple("CircleVariant", "m e_r first even odd denominator")

VARIANTS = {
    THREE_R: CircleVariant(
        3, Fraction(1, 12), Fraction(1, 2),
        lambda a, R: math.sqrt(math.pi / a), lambda R: 1.0, pair_product_spec,
    ),
    TWO_R: CircleVariant(
        2, Fraction(1, 8), Fraction(1),
        lambda a, R: math.sqrt(R / (2 * a)), lambda R: math.sqrt(R / (2 * math.pi)),
        triple_product_spec,
    ),
}


@dataclass(frozen=True)
class BesselExpansion:
    """A finite sum of coeff * s^power * I_nu(x) terms.

    ``argument_scale`` is the common Bessel argument x; ``variant`` picks
    the power base s = pi/sqrt(mRN) from ``VARIANTS``.
    """

    argument_scale: float
    terms: tuple
    variant: str

    def __post_init__(self):
        if not self.terms:
            raise ValueError("term list must be non-empty")
        powers = [p for _, _, p in self.terms]
        if any(b >= a for a, b in zip(powers[1:], powers)):
            raise ValueError("powers must be strictly increasing")
        if self.variant not in VARIANTS:
            raise ValueError("variant must be threeR or twoR")


def bessel_argument(N: int, R: int, variant: str) -> float:
    return 2.0 * math.pi * math.sqrt(N / (VARIANTS[variant].m * R))


def power_scale(N: int, R: int, variant: str) -> float:
    return math.pi / math.sqrt(VARIANTS[variant].m * R * N)


def expansion_value_scaled(exp: BesselExpansion, N: int, R: int) -> float:
    """The expansion value divided by e^x, as a plain float.

    Summing in scaled space keeps full double precision through the strong
    cancellation between the four decomposition blocks.
    """
    s = power_scale(N, R, exp.variant)
    x = exp.argument_scale
    acc = 0.0
    for coeff, nu, power in exp.terms:
        acc += coeff * s ** float(power) * bessel_I_scaled(nu, x)
    return acc


def expansion_to_logvalue(exp: BesselExpansion, N: int, R: int) -> LogValue:
    v = expansion_value_scaled(exp, N, R)
    if v == 0.0:
        return LogValue.zero()
    return LogValue(1 if v > 0 else -1, math.log(abs(v)) + exp.argument_scale)


def e_constant(p: ThetaParams, R: int, S: int, variant: str) -> Fraction:
    """E = d - c^2/(4a) + R/12 - S/2 + S^2/(2R), with R/8 for the twoR form.

    For every four-term decomposition all four blocks share one value of E,
    which is what makes the leading Bessel orders cancel exactly.
    """
    base = Fraction(p.d) - p.c * p.c / (4 * p.a) - Fraction(S, 2) + Fraction(S * S, 2 * R)
    return base + R * VARIANTS[variant].e_r


def _sin_factor(R: int, S: int) -> float:
    return math.sin(math.pi * S / R)


def block_ladder(p: ThetaParams, R: int, S: int, variant: str):
    """The four (coefficient, power) rungs of a block's main term.

    Powers first, first + 1/2, first + 1, first + 3/2 of the variant, with
    coefficients even/(4 sin0), -odd B1/(2 sin0), -even E/(4 sin0) and
    odd (E B1 + a B3/3)/(2 sin0), B_n at c/(2a) (see the module docstring).
    The Bessel main term and ``analytic.mainarc_L_expansion`` both read it.
    """
    v = VARIANTS[variant]
    even, odd = v.even(float(p.a), R), v.odd(R)
    sin0 = _sin_factor(R, S)
    b1 = float(bernoulli_poly(1, p.c / (2 * p.a)))
    b3 = float(bernoulli_poly(3, p.c / (2 * p.a)))
    e = float(e_constant(p, R, S, variant))
    coeffs = (
        even / (4 * sin0),
        -odd * b1 / (2 * sin0),
        -even * e / (4 * sin0),
        (e * b1 + float(p.a) * b3 / 3) * odd / (2 * sin0),
    )
    return tuple((coeff, v.first + Fraction(i, 2)) for i, coeff in enumerate(coeffs))


def _mainterm_block(p: ThetaParams, R: int, S: int, N: int, variant: str):
    """Shared body of mainterm_B and mainterm_Bprime: coeff s^w I_{-w}(x) per rung."""
    if N < 1:
        raise ValueError("N must be >= 1")
    terms = tuple((coeff, -w, w) for coeff, w in block_ladder(p, R, S, variant))
    exp = BesselExpansion(bessel_argument(N, R, variant), terms, variant)
    return exp, expansion_to_logvalue(exp, N, R)


def mainterm_B(p: ThetaParams, R: int, S: int, N: int):
    """Four-term Bessel main term for a B block; returns (expansion, value).

    Term ladder: powers 1/2, 1, 3/2, 2 with orders -1/2, -1, -3/2, -2 and
    signs +, -, -, +.
    """
    return _mainterm_block(p, R, S, N, THREE_R)


def mainterm_Bprime(p: ThetaParams, R: int, S: int, N: int):
    """Four-term Bessel main term for a B' block (twoR variant).

    Term ladder: powers 1, 3/2, 2, 5/2 with orders -1, -3/2, -2, -5/2 and
    signs +, -, -, +; E carries R/8 in place of R/12.
    """
    return _mainterm_block(p, R, S, N, TWO_R)


# Per family: its blocks' variant and the weight w of the surviving last
# rung, w S odd(R) / (2 sin0) * s^p I_{-p}(x) at the ladder's last power p.
_FAMILY_RUNGS = {
    "C": (THREE_R, lambda k: k),
    "Cprime": (TWO_R, lambda k: k),
    "D": (THREE_R, lambda k: 2 * k + 1),
    "Dprime": (THREE_R, lambda k: -4 * k),
}


def family_bessel_expansion(spec: FamilySpec, N: int) -> BesselExpansion:
    """The single surviving Bessel term after the four-block cancellation."""
    R, S = spec.R, spec.S
    variant, weight = _FAMILY_RUNGS[spec.family]
    v = VARIANTS[variant]
    coeff = weight(spec.k) * S * v.odd(R) / (2 * _sin_factor(R, S))
    power = v.first + Fraction(3, 2)
    return BesselExpansion(bessel_argument(N, R, variant), ((coeff, -power, power),), variant)


def mainterm_family(spec: FamilySpec, N: int, form: str = "elementary") -> LogValue:
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
    exp = family_bessel_expansion(spec, N)
    if form == "bessel":
        return expansion_to_logvalue(exp, N, spec.R)
    ((coeff, _, power),) = exp.terms
    x = exp.argument_scale
    ln = (
        math.log(abs(coeff))
        + float(power) * math.log(power_scale(N, spec.R, exp.variant))
        - 0.5 * math.log(2 * math.pi * x)
        + x
    )
    return LogValue(1 if coeff > 0 else -1, ln)


def mainterm_family_sum(spec: FamilySpec, N: int):
    """The signed four-block sum in scaled space plus its LogValue.

    This is the left side of the collapse identity: summed with the shared
    e^x factored out, so the cancellation costs no precision beyond the
    doubles themselves.
    """
    variant, _ = _FAMILY_RUNGS[spec.family]
    acc = 0.0
    x = None
    for t in decompose_family(spec):
        exp, _ = _mainterm_block(t.params, spec.R, spec.S, N, variant)
        if x is None:
            x = exp.argument_scale
        acc += t.sign * expansion_value_scaled(exp, N, spec.R)
    if acc == 0.0:
        return 0.0, LogValue.zero()
    lv = LogValue(1 if acc > 0 else -1, math.log(abs(acc)) + x)
    return acc, lv
