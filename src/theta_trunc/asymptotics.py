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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .families import FamilySpec, decompose_family
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


@dataclass(frozen=True)
class BesselExpansion:
    """A finite sum of coeff * (pi/sqrt(3RN))^power * I_nu(x) terms.

    ``argument_scale`` is the common Bessel argument x; ``variant`` records
    whether the power base is pi/sqrt(3RN) or pi/sqrt(2RN).
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
        if self.variant not in (THREE_R, TWO_R):
            raise ValueError("variant must be threeR or twoR")


def bessel_argument(N: int, R: int, variant: str) -> float:
    if variant == THREE_R:
        return 2.0 * math.pi * math.sqrt(N / (3.0 * R))
    return 2.0 * math.pi * math.sqrt(N / (2.0 * R))


def power_scale(N: int, R: int, variant: str) -> float:
    if variant == THREE_R:
        return math.pi / math.sqrt(3.0 * R * N)
    return math.pi / math.sqrt(2.0 * R * N)


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
    if variant == THREE_R:
        return base + Fraction(R, 12)
    return base + Fraction(R, 8)


def _sin_factor(R: int, S: int) -> float:
    return math.sin(math.pi * S / R)


# Per variant: the power of the first rung of the four-rung ladder, and the
# prefactors (even rungs, odd rungs) as functions of (a, R).
_BLOCK_LADDERS = {
    THREE_R: (Fraction(1, 2), lambda a, R: (math.sqrt(math.pi / a), 1.0)),
    TWO_R: (Fraction(1), lambda a, R: (math.sqrt(R / (2 * a)), math.sqrt(R / (2 * math.pi)))),
}


def _mainterm_block(p: ThetaParams, R: int, S: int, N: int, variant: str):
    """Shared body of mainterm_B and mainterm_Bprime (see the module docstring)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    first, prefactors = _BLOCK_LADDERS[variant]
    even, odd = prefactors(float(p.a), R)
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
    powers = [first + Fraction(i, 2) for i in range(4)]
    terms = tuple((coeff, -w, w) for coeff, w in zip(coeffs, powers))
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


def family_bessel_expansion(spec: FamilySpec, N: int) -> BesselExpansion:
    """The single surviving Bessel term after the four-block cancellation."""
    R, S, k = spec.R, spec.S, spec.k
    sin0 = _sin_factor(R, S)
    half = Fraction(1, 2)
    if spec.family == "C":
        terms = ((k * S / (2 * sin0), Fraction(-2), Fraction(2)),)
        variant = THREE_R
    elif spec.family == "Cprime":
        coeff = k * S * math.sqrt(R / (2 * math.pi)) / (2 * sin0)
        terms = ((coeff, -5 * half, 5 * half),)
        variant = TWO_R
    elif spec.family == "D":
        terms = (((2 * k + 1) * S / (2 * sin0), Fraction(-2), Fraction(2)),)
        variant = THREE_R
    else:
        terms = ((-2 * k * S / sin0, Fraction(-2), Fraction(2)),)
        variant = THREE_R
    return BesselExpansion(bessel_argument(N, R, variant), terms, variant)


def mainterm_family(spec: FamilySpec, N: int, form: str = "elementary") -> LogValue:
    """Closed-form main term of the family coefficient at N.

    ``form='bessel'`` evaluates the surviving Bessel term; ``'elementary'``
    uses its leading e^x / sqrt(2 pi x) simplification:

      C:        pi k S N^(-5/4) / (4 (3R)^(3/4) sin0) * e^(2 pi sqrt(N/3R))
      Cprime:   pi k S N^(-3/2) / (8 sqrt(2R) sin0)   * e^(2 pi sqrt(N/2R))
      D:        as C with (2k+1) S in place of k S
      Dprime:   - pi k S N^(-5/4) / ((3R)^(3/4) sin0) * e^(2 pi sqrt(N/3R))
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if form == "bessel":
        exp = family_bessel_expansion(spec, N)
        return expansion_to_logvalue(exp, N, spec.R)
    if form != "elementary":
        raise ValueError("form must be 'bessel' or 'elementary'")
    R, S, k = spec.R, spec.S, spec.k
    sin0 = _sin_factor(R, S)
    if spec.family == "C":
        ln = (
            math.log(math.pi * k * S)
            - 1.25 * math.log(N)
            - math.log(4 * (3 * R) ** 0.75 * sin0)
        )
        return LogValue(1, ln + bessel_argument(N, R, THREE_R))
    if spec.family == "Cprime":
        ln = (
            math.log(math.pi * k * S)
            - 1.5 * math.log(N)
            - math.log(8 * math.sqrt(2 * R) * sin0)
        )
        return LogValue(1, ln + bessel_argument(N, R, TWO_R))
    if spec.family == "D":
        ln = (
            math.log(math.pi * (2 * k + 1) * S)
            - 1.25 * math.log(N)
            - math.log(4 * (3 * R) ** 0.75 * sin0)
        )
        return LogValue(1, ln + bessel_argument(N, R, THREE_R))
    ln = (
        math.log(math.pi * k * S)
        - 1.25 * math.log(N)
        - math.log((3 * R) ** 0.75 * sin0)
    )
    return LogValue(-1, ln + bessel_argument(N, R, THREE_R))


def mainterm_family_sum(spec: FamilySpec, N: int):
    """The signed four-block sum in scaled space plus its LogValue.

    This is the left side of the collapse identity: summed with the shared
    e^x factored out, so the cancellation costs no precision beyond the
    doubles themselves.
    """
    terms = decompose_family(spec)
    block = mainterm_Bprime if spec.family == "Cprime" else mainterm_B
    acc = 0.0
    x = None
    for t in terms:
        exp, _ = block(t.params, spec.R, spec.S, N)
        if x is None:
            x = exp.argument_scale
        acc += t.sign * expansion_value_scaled(exp, N, spec.R)
    if acc == 0.0:
        return 0.0, LogValue.zero()
    lv = LogValue(1 if acc > 0 else -1, math.log(abs(acc)) + x)
    return acc, lv
