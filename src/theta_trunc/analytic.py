"""Complex-plane evaluation and circle-method quadrature.

Everything here works with q = exp(2 pi i tau), tau = x + i y, y > 0.
``_tail_orders`` is the one cutoff rule for every piece of L: theta-sum
exponents with |q|^e >= tol (1 - |q|), product parts with |q|^m >= tol, and
for the grid's log of the product the terms with |q|^(m j) >= eps tol.  The
scalar evaluators (eval_G, eval_product_inv, eval_L, ...) take one exp per
term or part: eval_G sums q^e in cmath, in the order ``series.theta_terms``
lists the exponents, and ``_denominator``, which runs on cmath and on
mpmath (``dps`` set) scalars, multiplies (1 - q^m) over the parts m of the
block product.  The coefficient quadrature integrates L(q) q^(-N) (threeR)
or L'(q) q^(-N) (twoR) over the circle |q| = exp(-2 pi y) of
``asymptotics.VARIANTS``, with tails cut below ``TAIL_TOL``; on that circle
the trapezoid rule is exact for band-limited integrands, which gives back
the exact integer coefficients at desk scale.
Its samples lie on a uniform grid in x, so the integrand grid evaluates the
theta sum and the log of the block denominator as polynomials in q, by one
real FFT each (``_poly_on_grid``), and divides by the exp of the log once.
Only the lower half is evaluated (the upper half is the conjugate mirror,
since L has real coefficients).  The last grid is cached, so a coefficient
and its arc split cost one grid evaluation between them.
Only the grid code uses numpy, and it imports numpy when it runs, so
importing this module (or ``cli``) does not load numpy: the first circle
grid does.

eval_product_inv and transformed_pair_product accept an optional ``dps``:
the identity they satisfy holds to exp(-2 pi / (R y)) relative, far below
double precision for small y, so verifying it needs mpmath.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .asymptotics import THREE_R, VARIANTS, bernoulli_poly, block_ladder
from .families import pair_product_spec, triple_product_spec
from .series import ProductSpec, ThetaParams, theta_terms


# Quadrature integrand tails below this are dropped; it also sets min_samples.
TAIL_TOL = 1e-20


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

    ``radius_variant`` picks the circle and the integrand: threeR is L on
    y = 1/(2 sqrt(3RN)), twoR is L' on y = 1/(2 sqrt(2RN)).
    """

    N: int
    samples: int
    radius_variant: str = THREE_R

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not _is_pow2(self.samples):
            raise ValueError("samples must be a positive power of two")
        if self.radius_variant not in VARIANTS:
            raise ValueError("radius_variant must be threeR or twoR")


def circle_y(N: int, R: int, variant: str = THREE_R) -> float:
    """The circle height y for the given radius variant."""
    return 1.0 / (2.0 * math.sqrt(VARIANTS[variant].m * R * N))


def _tail_orders(y: float, tol: float):
    """(theta_order, product_order, log_order): the orders that cut L's tails.

    The theta sum keeps the exponents e with |q|^e >= tol (1 - |q|), so its
    dropped tail is below tol; the product keeps the parts m with
    |q|^m >= tol.  The grid's log of that product keeps the terms
    q^(m j)/j with |q|^(m j) >= eps tol, which leaves the kept factors
    exact to rounding.  All three orders are exclusive bounds.
    """
    qa = math.exp(-2 * math.pi * y)
    theta_cut = (math.log(1.0 / tol) - math.log(1.0 - qa)) / (2 * math.pi * y)
    product_cut = math.log(1.0 / tol) / (2 * math.pi * y)
    log_cut = math.log(1.0 / (sys.float_info.epsilon * tol)) / (2 * math.pi * y)
    return (
        math.floor(theta_cut) + 1,
        max(2, math.ceil(product_cut) + 1),
        math.floor(log_cut) + 1,
    )


def min_samples(N: int, R: int, variant: str = THREE_R) -> int:
    """Smallest power-of-two sample count passing the bandwidth rule.

    The integrand is a polynomial in exp(2 pi i x) up to degree
    D = ceil(ln(1/TAIL_TOL) / (2 pi y)), the largest product part kept,
    within tolerance; 2 (D + N) samples keep the aliased frequencies
    harmless.
    """
    _, product_order, _ = _tail_orders(circle_y(N, R, variant), TAIL_TOL)
    need = 2 * (product_order - 1 + N)
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


# The body below takes ln q = 2 pi i tau and the exp to use, cmath or mpmath:
# it serves the scalar evaluators only.  The circle grid evaluates the log of
# the same product as a polynomial in q, by FFT (``_poly_on_grid``).

def _denominator(spec: ProductSpec, ln_q, order: int, exp):
    """prod (1 - q^m) over the parts m below ``order``, one exp per part.

    Scalar and mpmath only; the grid takes the exp of ``_log_denominator_terms``.
    """
    den = 1
    for m in spec.parts(order):
        den *= 1.0 - exp(m * ln_q)
    return den


def eval_G(p: ThetaParams, tau: TauPoint, tol: float = 1e-16) -> complex:
    """sum_j q^(a j^2 + c j + d), summed until |q|^e < tol (1 - |q|).

    One exp per term, from 0j, in the order ``series.theta_terms`` lists the
    exponents; the circle grid sums the same exponents by FFT.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    theta_order, _, _ = _tail_orders(tau.y, tol)
    ln_q = 2j * math.pi * tau.tau
    acc = 0j
    for e, _ in theta_terms(p, theta_order):
        acc += cmath.exp(e * ln_q)
    return acc


def eval_product_inv(
    spec: ProductSpec, tau: TauPoint, tol: float = 1e-16, dps=None
):
    """prod 1/(1 - q^(A+jB)) over parts with |q|^(A+jB) >= tol.

    With ``dps`` set, evaluates in mpmath at that many digits and returns
    an mpmath complex.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    _, product_order, _ = _tail_orders(tau.y, tol)
    with _arith(dps) as num:
        ln_q = 2j * num.pi * num.cplx(tau.x, tau.y)
        return num.cplx(1) / _denominator(spec, ln_q, product_order, num.exp)


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
        raise ValueError(
            "theta=%r outside the sector |Im| <= Re" % (theta,)
        )
    half_b = Fraction(b) / 2
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

    exp(pi i/(6 R tau)) sum_k coeff_k w^(power_k - 1), w = -2 pi i tau, over
    the four threeR rungs (coeff_k, power_k) of ``asymptotics.block_ladder``,
    the same rungs the Bessel main term ``mainterm_block`` is built from:

        [ sqrt(pi/a) w^(-1/2) / 2 - B1(c/2a) - (E/2) sqrt(pi/a) w^(1/2)
          + (E B1(c/2a) + a B3(c/2a)/3) w ] / (2 sin(S pi/R))

    with E = d - c^2/(4a) + R/12 - S/2 + S^2/(2R).  The later rungs are
    explicit too: the next one is sqrt(pi/a) E^2 / (8 sin(S pi/R)) w^(3/2),
    the tau^(3/2) term.  They are omitted deliberately, to keep the four
    rungs the Bessel main term uses, so agreement with eval_L is checked as
    ratio convergence, not absolute error.
    """
    if abs(tau.x) > tau.y:
        raise ValueError("|x| must not exceed y on the main arc")
    t = tau.tau
    w = -2j * math.pi * t
    ladder = block_ladder(p, R, S, THREE_R)
    rungs = sum(coeff * w ** float(power - 1) for coeff, power in ladder)
    return cmath.exp(1j * math.pi / (6.0 * R * t)) * rungs


# ---------------------------------------------------------------------------
# circle-method quadrature
# ---------------------------------------------------------------------------

def _poly_on_grid(n, c, ln_r: float, samples: int):
    """sum_n c_n q^n on the lower half grid, x_k = -1/2 + k/samples for
    k = 0..samples/2.

    ``n`` are integer exponents (repeats add), ``c`` real coefficients and
    ln_r = ln|q| = -2 pi y.  On the grid
    q_k^n = r^n (-1)^n exp(2 pi i n k/samples), so the sum is conj(rfft(a))
    with a[n mod samples] += c_n r^n (-1)^n; folding the exponents mod
    samples is exact there, since the grid is periodic.
    """
    import numpy as np

    w = np.where(n & 1, -c, c) * np.exp(n * ln_r)
    a = np.bincount(n % samples, weights=w, minlength=samples)
    return np.conj(np.fft.rfft(a))


def _log_denominator_terms(spec: ProductSpec, product_order: int, log_order: int):
    """(exponents, coefficients) of log prod (1 - q^m) over the parts m below
    ``product_order``: -q^(m j)/j for every part m and j >= 1 with m j below
    ``log_order``.
    """
    import numpy as np

    m = np.array(spec.parts(product_order), dtype=np.int64)
    reps = (log_order - 1) // m
    first = np.repeat(np.cumsum(reps) - reps, reps)
    j = np.arange(1, first.size + 1) - first
    return np.repeat(m, reps) * j, -1.0 / j


@lru_cache(maxsize=1)
def _integrand_grid(p, R, S, N, samples, variant):
    """Values of L(q) (or L'(q), by variant) exp(2 pi N y - 2 pi i N x) on
    the sample grid.

    The theta sum and the log of the block denominator are polynomials in
    q, evaluated on the grid by one real FFT each (``_poly_on_grid``); the
    theta sum is divided by the exp of the log once, and exp(-N ln q) is a
    factor of its own.

    L has real coefficients, so the value at -x is the conjugate of the
    value at x: only x = -1/2 + k/samples for k = 0..samples/2 is
    evaluated, and the upper half is the mirrored conjugate, bit for bit.
    The last grid is cached and returned read-only, so a coefficient and
    its arc split share one evaluation.
    """
    import numpy as np

    spec = VARIANTS[variant].denominator(R, S)
    y = circle_y(N, R, variant)
    half = samples // 2
    ln_r = -2 * math.pi * y
    ln_q = ln_r + (2j * math.pi) * (-0.5 + np.arange(half + 1) / samples)
    theta_order, product_order, log_order = _tail_orders(y, TAIL_TOL)
    exps = np.array([e for e, _ in theta_terms(p, theta_order)], dtype=np.int64)
    g = _poly_on_grid(exps, np.ones(exps.size), ln_r, samples)
    log_den = _poly_on_grid(
        *_log_denominator_terms(spec, product_order, log_order), ln_r, samples
    )
    lower = g * np.exp(-N * ln_q) / np.exp(log_den)
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
    need = min_samples(quad.N, R, quad.radius_variant)
    if quad.samples < need:
        raise ValueError(
            "samples=%d below the aliasing-safe minimum %d" % (quad.samples, need)
        )


def wright_coefficient(p: ThetaParams, R: int, S: int, quad: QuadratureSpec) -> float:
    """Coefficient of q^N in L (threeR) or L' (twoR) by trapezoid quadrature
    on the circle of ``quad.radius_variant``.

    For desk-scale N the result rounds to the exact integer coefficient.
    """
    _check_bandwidth(quad, R)
    vals = _integrand_grid(p, R, S, quad.N, quad.samples, quad.radius_variant)
    return (_pairwise_reduce(vals) / quad.samples).real


@dataclass(frozen=True)
class ArcSplit:
    """Quadrature split into the main arc |x| <= y and its complement."""

    I_main: complex
    I_error: complex
    ratio: float


def arc_split_diagnostic(
    p: ThetaParams, R: int, S: int, N: int, samples: int, variant: str = THREE_R
) -> ArcSplit:
    """Main-arc / error-arc split of the coefficient quadrature.

    threeR splits the B (L) quadrature, twoR the B' (L') one, each on its
    own circle.  The ratio is nan when the main arc is 0.
    """
    import numpy as np

    _check_bandwidth(QuadratureSpec(N, samples, variant), R)
    y = circle_y(N, R, variant)
    x = -0.5 + np.arange(samples) / samples
    vals = _integrand_grid(p, R, S, N, samples, variant)
    mask = np.abs(x) <= y
    main = _pairwise_reduce(np.where(mask, vals, 0.0)) / samples
    err = _pairwise_reduce(np.where(mask, 0.0, vals)) / samples
    return ArcSplit(main, err, abs(err) / abs(main) if main else math.nan)


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
        raise ValueError("need y <= |x| <= 1/2")
    spec = ProductSpec([(A, B)])
    lhs = abs(eval_product_inv(spec, tau, tol))
    rhs = eval_product_inv(spec, TauPoint(0.0, tau.y), tol).real
    return BoundShape(lhs, rhs, lhs / rhs)
