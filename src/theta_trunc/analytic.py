"""Complex-plane evaluation and circle-method quadrature.

Everything here works with q = exp(2 pi i tau), tau = x + i y, y > 0.  The
scalar evaluators (eval_G, eval_product_inv, eval_L, ...) sum/multiply the
defining series and products directly to a tolerance.  The coefficient
quadrature integrates L(q) q^(-N) over the circle |q| = exp(-2 pi y) with
y = 1/(2 sqrt(3RN)) (threeR) or 1/(2 sqrt(2RN)) (twoR); on that circle the
trapezoid rule is exact for band-limited integrands, which gives back the
exact integer coefficients at desk scale.  The integrand grid is evaluated
on its lower half only (the upper half is the conjugate mirror, since L has
real coefficients) and the last grid is cached, so a coefficient and its
arc split cost one grid evaluation between them.

eval_product_inv and transformed_pair_product accept an optional ``dps``:
the identity they satisfy holds to exp(-2 pi / (R y)) relative, far below
double precision for small y, so verifying it needs mpmath.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .asymptotics import TWO_R, THREE_R, bernoulli_poly, e_constant
from .families import pair_product_spec, triple_product_spec
from .series import ProductSpec, ThetaParams


class SectorViolation(ValueError):
    """theta outside the sector |Im theta| <= Re theta."""


class MainArcViolation(ValueError):
    """tau outside the main-arc box |x| <= y."""


class BandwidthTooSmall(ValueError):
    """Sample count below the aliasing-safe minimum."""


class RangeViolation(ValueError):
    """tau outside the strip y <= |x| <= 1/2."""


@dataclass(frozen=True)
class TauPoint:
    """tau = x + i y in the upper half plane; q = exp(2 pi i tau)."""

    x: float
    y: float

    def __post_init__(self):
        if self.y <= 0:
            raise ValueError("y must be positive")

    @property
    def tau(self) -> complex:
        return complex(self.x, self.y)

    @property
    def q(self) -> complex:
        return cmath.exp(2j * math.pi * self.tau)

    @property
    def q_abs(self) -> float:
        return math.exp(-2 * math.pi * self.y)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class QuadratureSpec:
    """Circle quadrature parameters.

    ``radius_variant`` picks y = 1/(2 sqrt(3RN)) (threeR) or
    1/(2 sqrt(2RN)) (twoR); ``tail_tol`` controls both the evaluation
    cutoffs and the bandwidth rule.
    """

    N: int
    samples: int
    radius_variant: str = THREE_R
    tail_tol: float = 1e-20

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not _is_pow2(self.samples):
            raise ValueError("samples must be a positive power of two")
        if self.radius_variant not in (THREE_R, TWO_R):
            raise ValueError("radius_variant must be threeR or twoR")
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")


def circle_y(N: int, R: int, variant: str = THREE_R) -> float:
    """The circle height y for the given radius variant."""
    mult = 3.0 if variant == THREE_R else 2.0
    return 1.0 / (2.0 * math.sqrt(mult * R * N))


def min_samples(N: int, R: int, variant: str = THREE_R, tail_tol: float = 1e-20) -> int:
    """Smallest power-of-two sample count passing the bandwidth rule.

    The integrand is a polynomial in exp(2 pi i x) up to degree
    D = ceil(ln(1/tol) / (2 pi y)) within tolerance; 2 (D + N) samples keep
    the aliased frequencies harmless.
    """
    y = circle_y(N, R, variant)
    d = math.ceil(math.log(1.0 / tail_tol) / (2 * math.pi * y))
    need = 2 * (d + N)
    return 1 << (need - 1).bit_length()


# ---------------------------------------------------------------------------
# scalar evaluation
# ---------------------------------------------------------------------------

# The scalar arithmetic a formula body runs on: exp, sin, pi and the real
# and complex constructors.  Float literals in a body convert exactly in
# mpmath, so one body serves both.
_Arith = namedtuple("_Arith", "exp sin pi real cplx")


@contextmanager
def _arith(dps):
    """cmath/math floats for ``dps=None``, else mpmath at ``dps`` digits."""
    if dps is None:
        yield _Arith(cmath.exp, math.sin, math.pi, float, complex)
        return
    import mpmath as mp

    with mp.workdps(dps):
        yield _Arith(mp.exp, mp.sin, mp.pi, mp.mpf, mp.mpc)


def _theta_exponents(p: ThetaParams, cutoff: float):
    """Integer exponents a j^2 + c j + d not exceeding ``cutoff``."""
    exps = []
    j = 0
    while True:
        e = p.exponent(j)
        if e <= cutoff:
            exps.append(e)
        elif 2 * p.a * j + p.c > 0:
            break
        j += 1
    return exps


def eval_G(p: ThetaParams, tau: TauPoint, tol: float = 1e-16) -> complex:
    """sum_j q^(a j^2 + c j + d), summed until |q|^e < tol (1 - |q|)."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    qa = tau.q_abs
    cutoff = (math.log(1.0 / tol) - math.log(1.0 - qa)) / (2 * math.pi * tau.y)
    ln_q = 2j * math.pi * tau.tau
    return sum(cmath.exp(e * ln_q) for e in _theta_exponents(p, cutoff))


def eval_product_inv(
    spec: ProductSpec, tau: TauPoint, tol: float = 1e-16, dps=None
):
    """prod 1/(1 - q^(A+jB)) over parts with |q|^(A+jB) >= tol.

    With ``dps`` set, evaluates in mpmath at that many digits and returns
    an mpmath complex.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    cutoff = math.log(1.0 / tol) / (2 * math.pi * tau.y)
    parts = sorted(spec.parts(max(2, math.ceil(cutoff) + 1)))
    with _arith(dps) as num:
        ln_q = 2j * num.pi * num.cplx(tau.x, tau.y)
        acc = num.cplx(1)
        for m in parts:
            acc /= 1.0 - num.exp(m * ln_q)
        return acc


def eval_L(p: ThetaParams, R: int, S: int, tau: TauPoint, tol: float = 1e-16) -> complex:
    """G_{a,c,d}(q) / (q^S, q^(R-S); q^R)_inf at the point q."""
    return eval_G(p, tau, tol) * eval_product_inv(pair_product_spec(R, S), tau, tol)


def eval_Lprime(p: ThetaParams, R: int, S: int, tau: TauPoint, tol: float = 1e-16) -> complex:
    """G_{a,c,d}(q) / (q^S, q^(R-S), q^R; q^R)_inf at the point q."""
    return eval_G(p, tau, tol) * eval_product_inv(triple_product_spec(R, S), tau, tol)


# ---------------------------------------------------------------------------
# theta-sum saddle expansion
# ---------------------------------------------------------------------------

def F_direct(b, theta: complex, tol: float = 1e-18) -> complex:
    """F_b(theta) = sum_{n>=0} exp(-(n^2 + b n) theta), Re theta > 0."""
    theta = complex(theta)
    if not theta.real > 0:
        raise ValueError("Re theta must be positive")
    b = float(b)
    acc = 0.0 + 0.0j
    n = 0
    while True:
        t = cmath.exp(-(n * n + b * n) * theta)
        acc += t
        n += 1
        # |t| shrinks monotonically only past the vertex n = -b/2
        if abs(t) < tol and n > max(1.0, -b / 2):
            break
        if n > 10_000_000:  # pragma: no cover
            raise RuntimeError("F_direct failed to converge")
    return acc


def F_expansion(b, theta: complex, nterms: int = 4) -> complex:
    """Euler-Maclaurin form of F_b near theta = 0 in the sector |beta| <= gamma.

    exp(b^2 theta / 4) { sqrt(pi/theta)/2
                         - sum_{n<nterms} (-1)^n B_{2n+1}(b/2) theta^n
                                          / ((2n+1) n!) }
    with the principal square root.
    """
    if not 1 <= nterms <= 4:
        raise ValueError("nterms must be in 1..4")
    theta = complex(theta)
    if abs(theta.imag) > theta.real:
        raise SectorViolation(
            "theta=%r outside the sector |Im| <= Re" % (theta,)
        )
    half_b = Fraction(b) / 2 if not isinstance(b, float) else b / 2
    acc = cmath.sqrt(math.pi / theta) / 2
    for n in range(nterms):
        coeff = float(bernoulli_poly(2 * n + 1, half_b))
        acc -= (-1) ** n * coeff / ((2 * n + 1) * math.factorial(n)) * theta**n
    return cmath.exp(b * b * theta / 4) * acc


# ---------------------------------------------------------------------------
# modular transformation of the pair product
# ---------------------------------------------------------------------------

def transformed_pair_product(
    R: int,
    S: int,
    tau: TauPoint,
    corrected: bool = False,
    tol: float = 1e-16,
    dps=None,
):
    """Transformed closed form of 1/(q^S, q^(R-S); q^R)_inf.

    Main factor:  exp(pi i tau (R/6 - S + S^2/R)) exp(pi i/(6 R tau))
                  / (2 sin(S pi / R)).
    With ``corrected=True`` multiplies the convergent correction product
    prod_{j>=0} 1/[(1 - e^(2 pi i S/R) w^(j+1))(1 - e^(-2 pi i S/R) w^(j+1))]
    with w = exp(-2 pi i/(R tau)), truncated once |w|^(j+1) < tol; the
    corrected value equals the direct product evaluation exactly.
    """
    if gcd(R, S) != 1 or not 1 <= S < R:
        raise ValueError("need gcd(R,S)=1 and 1 <= S < R")
    with _arith(dps) as num:
        t = num.cplx(tau.x, tau.y)
        main = (
            num.exp(1j * num.pi * t * (num.real(R) / 6 - S + num.real(S * S) / R))
            * num.exp(1j * num.pi / (6.0 * R * t))
            / (2.0 * num.sin(num.pi * S / R))
        )
        if not corrected:
            return main
        w = num.exp(-2j * num.pi / (R * t))
        alpha = num.exp(2j * num.pi * S / R)
        corr = num.cplx(1)
        wj = w
        while abs(wj) >= tol:
            corr /= (1.0 - alpha * wj) * (1.0 - wj / alpha)
            wj *= w
        return main * corr


def mainarc_L_expansion(p: ThetaParams, R: int, S: int, tau: TauPoint) -> complex:
    """Main-arc expansion of L_{a,c,d} with the higher-order tail dropped.

    exp(pi i/(6 R tau)) / (2 sin(S pi/R)) times

        sqrt(pi/a) (-2 pi i tau)^(-1/2) / 2
      - B1(c/2a)
      - (E/2) sqrt(pi/a) (-2 pi i tau)^(1/2)
      - [E B1(c/2a) + a B3(c/2a)/3] (2 pi i tau)

    with E = d - c^2/(4a) + R/12 - S/2 + S^2/(2R).  The omitted tau^(3/2)
    and higher coefficients are not expressible without further constants,
    so agreement with eval_L is checked as ratio convergence, not absolute
    error.
    """
    if abs(tau.x) > tau.y:
        raise MainArcViolation("|x| must not exceed y on the main arc")
    t = tau.tau
    a = float(p.a)
    e = float(e_constant(p, R, S, THREE_R))
    b1 = float(bernoulli_poly(1, p.c / (2 * p.a)))
    b3 = float(bernoulli_poly(3, p.c / (2 * p.a)))
    w = -2j * math.pi * t
    pref = cmath.exp(1j * math.pi / (6.0 * R * t)) / (
        2.0 * math.sin(math.pi * S / R)
    )
    bracket = (
        0.5 * math.sqrt(math.pi / a) / cmath.sqrt(w)
        - b1
        - 0.5 * e * math.sqrt(math.pi / a) * cmath.sqrt(w)
        - (e * b1 + a * b3 / 3.0) * (2j * math.pi * t)
    )
    return pref * bracket


# ---------------------------------------------------------------------------
# circle-method quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _integrand_grid(p, R, S, N, samples, variant, which, tail_tol):
    """Values of L(q) exp(2 pi N y - 2 pi i N x) on the sample grid.

    Vectorized over the grid; the reduction order is fixed separately.
    L has real coefficients, so the value at -x is the conjugate of the
    value at x: only x = -1/2 + k/samples for k = 0..samples/2 is
    evaluated, and the upper half is the mirrored conjugate.  The grid
    is exactly symmetric (samples is a power of two) and complex exp, *
    and / commute with conjugation, so the result is bit-identical to
    evaluating every sample.  The last grid is cached and returned
    read-only, so a coefficient and its arc split share one evaluation.
    """
    if which == "B":
        spec = pair_product_spec(R, S)
    elif which == "Bprime":
        spec = triple_product_spec(R, S)
    else:
        raise ValueError("which must be 'B' or 'Bprime'")
    y = circle_y(N, R, variant)
    half = samples // 2
    x = -0.5 + np.arange(half + 1) / samples
    ln_q = (-2 * math.pi * y) + (2j * math.pi) * x

    qa = math.exp(-2 * math.pi * y)
    g_cut = (math.log(1.0 / tail_tol) - math.log(1.0 - qa)) / (2 * math.pi * y)
    g = np.zeros(half + 1, dtype=np.complex128)
    for e in _theta_exponents(p, g_cut):
        g += np.exp(e * ln_q)

    p_cut = math.log(1.0 / tail_tol) / (2 * math.pi * y)
    prod = np.ones(half + 1, dtype=np.complex128)
    for m in sorted(spec.parts(max(2, math.ceil(p_cut) + 1))):
        prod /= 1.0 - np.exp(m * ln_q)

    lower = g * prod * np.exp(-N * ln_q)
    vals = np.concatenate((lower, np.conj(lower[half - 1:0:-1])))
    vals.flags.writeable = False
    return vals


def _pairwise_reduce(values: np.ndarray) -> complex:
    """Index-ascending pairwise reduction (deterministic, power-of-two len)."""
    v = values
    while v.size > 1:
        v = v[0::2] + v[1::2]
    return complex(v[0])


def _check_bandwidth(quad: QuadratureSpec, R: int):
    need = min_samples(quad.N, R, quad.radius_variant, quad.tail_tol)
    if quad.samples < need:
        raise BandwidthTooSmall(
            "samples=%d below the aliasing-safe minimum %d" % (quad.samples, need)
        )


def wright_coefficient(
    p: ThetaParams, R: int, S: int, quad: QuadratureSpec, which: str = "B"
) -> float:
    """Coefficient of q^N in L (or L') by trapezoid quadrature on the circle.

    For desk-scale N the result rounds to the exact integer coefficient.
    """
    _check_bandwidth(quad, R)
    vals = _integrand_grid(
        p, R, S, quad.N, quad.samples, quad.radius_variant, which, quad.tail_tol
    )
    return (_pairwise_reduce(vals) / quad.samples).real


@dataclass(frozen=True)
class ArcSplit:
    """Quadrature split into the main arc |x| <= y and its complement."""

    I_main: complex
    I_error: complex
    ratio: float


def arc_split_diagnostic(
    p: ThetaParams, R: int, S: int, N: int, samples: int, tail_tol: float = 1e-20,
    variant: str = THREE_R,
) -> ArcSplit:
    """Main-arc / error-arc split of the coefficient quadrature.

    threeR splits the B (L) quadrature, twoR the B' (L') one, each on its
    own circle.
    """
    quad = QuadratureSpec(N, samples, variant, tail_tol)
    _check_bandwidth(quad, R)
    y = circle_y(N, R, variant)
    x = -0.5 + np.arange(samples) / samples
    which = "B" if variant == THREE_R else "Bprime"
    vals = _integrand_grid(p, R, S, N, samples, variant, which, tail_tol)
    mask = np.abs(x) <= y
    main = _pairwise_reduce(np.where(mask, vals, 0.0)) / samples
    err = _pairwise_reduce(np.where(mask, 0.0, vals)) / samples
    return ArcSplit(main, err, abs(err) / abs(main))


@dataclass(frozen=True)
class BoundShape:
    """|1/(q^A;q^B)| against the same product at |q| (constant dropped)."""

    lhs: float
    rhs_shape: float
    ratio: float


def bound_check_away(A: int, B: int, tau: TauPoint, tol: float = 1e-16) -> BoundShape:
    """Compare |1/(q^A; q^B)_inf| with 1/(|q|^A; |q|^B)_inf off the pole.

    The true bound carries an unknown exp(C/y) factor with C < 0; the
    reported ratio lhs/rhs_shape must therefore decay as y shrinks.
    """
    if not (B > A >= 1) or gcd(A, B) != 1:
        raise ValueError("need coprime B > A >= 1")
    if not tau.y <= abs(tau.x) <= 0.5:
        raise RangeViolation("need y <= |x| <= 1/2")
    spec = ProductSpec([(A, B)])
    lhs = abs(eval_product_inv(spec, tau, tol))
    rhs = eval_product_inv(spec, TauPoint(0.0, tau.y), tol).real
    return BoundShape(lhs, rhs, lhs / rhs)
