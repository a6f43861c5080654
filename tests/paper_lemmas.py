"""The paper's lemmas evaluated at a point tau, for the tests.

``theta_trunc.analytic`` holds only the circle quadrature the CLI runs.
The scalar evaluators here check the lemmas around it: the theta sum G and
the block products at q = exp(2 pi i tau) (``eval_G``, ``eval_product_inv``;
L is ``eval_G`` times the inverse pair product, L' times the inverse
triple), the saddle expansion of F_b (acceptance criterion 6), the modular
transformation of the pair product (criterion 7), the main-arc expansion of
L and the bound on the products away from the pole.  They run in
cmath/math floats and take their cutoffs from ``analytic._tail_orders``,
the rule the circle grid uses.

* ``eval_G`` sums ``exp(e ln q)``, one per exponent of
  ``series.theta_terms``, in its order, from ``0j``.  ``_denominator``
  multiplies ``(1 - exp(m ln q))`` over the parts ``m`` below the cutoff,
  one ``exp`` per part.  Against the infinite products by ``mpmath.qp`` at
  40 digits, over pair and triple products for ``R = 2 .. 7`` (every
  coprime ``S``), ``y = 0.005, 0.002`` and ``x = 0, y/2, -y, 0.1, 0.3``
  (340 points), the float product's worst relative error, truncation at
  ``tol = 1e-16`` included, is 2.0e-14 on the main arc ``|x| <= y`` and
  6.1e-14 off it.  The circle grid's log of the same product is checked
  against ``_denominator``.
* The transformation identity's main-factor gap is of order
  ``exp(-2 pi/(R y))``, far below double precision already at
  ``y = 0.02``.  So the gap is measured in mpmath (``mp_product_inv``,
  through ``mpmath.qp``, and ``mp_main_factor_gap``) at the working
  precision the caller sets.
* ``mainarc_L_expansion`` is ``exp(pi i/(6 R tau)) sum_k coeff_k w^(p_k - 1)``,
  ``w = -2 pi i tau``, over the four threeR rungs ``(coeff_k, p_k)`` of
  ``oracles.paper_block_ladder``, the same ladder the tests evaluate as the
  block's Bessel main term, so a rung added to the ladder reaches both.  It stays
  within 1e-13 of the bracket written out with its own ``E`` and Bernoulli
  values (``oracles.mainarc_bracket``).
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import mpmath as mp

from theta_trunc.analytic import _tail_orders
from theta_trunc.asymptotics import THREE_R
from theta_trunc.series import ProductSpec, ThetaParams, theta_terms

from oracles import bernoulli_poly, paper_block_ladder


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


def _denominator(spec: ProductSpec, ln_q: complex, order: int):
    """prod (1 - q^m) over the parts m below ``order``, one exp per part."""
    den = 1
    for m in spec.parts(order):
        den *= 1.0 - cmath.exp(m * ln_q)
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


def eval_product_inv(spec: ProductSpec, tau: TauPoint, tol: float = 1e-16) -> complex:
    """prod 1/(1 - q^(A+jB)) over parts with |q|^(A+jB) >= tol."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    _, product_order, _ = _tail_orders(tau.y, tol)
    return 1 / _denominator(spec, 2j * math.pi * tau.tau, product_order)


def mp_product_inv(spec: ProductSpec, tau: TauPoint):
    """prod 1/(q^A; q^B)_inf over the residue pairs of ``spec``, by
    ``mpmath.qp`` at the working precision; an mpmath complex."""
    q = mp.exp(2j * mp.pi * mp.mpc(tau.x, tau.y))
    return 1 / mp.fprod(mp.qp(q**A, q**B) for A, B in spec.residues)


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
    with the principal square root and B_1 .. B_7 from
    ``oracles.bernoulli_poly``.
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


def transformed_pair_product(
    R: int, S: int, tau: TauPoint, corrected: bool = False, tol: float = 1e-16
) -> complex:
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
    t = tau.tau
    main = (
        cmath.exp(1j * math.pi * t * (R / 6 - S + S * S / R))
        * cmath.exp(1j * math.pi / (6.0 * R * t))
        / (2.0 * math.sin(math.pi * S / R))
    )
    if not corrected:
        return main
    w = cmath.exp(-2j * math.pi / (R * t))
    alpha = cmath.exp(2j * math.pi * S / R)
    corr = 1 + 0j
    wj = w
    while abs(wj) >= tol:
        corr /= (1.0 - alpha * wj) * (1.0 - wj / alpha)
        wj *= w
    return main * corr


def mp_main_factor_gap(R: int, S: int, y: float):
    """|1/(q^S, q^(R-S); q^R)_inf / main - 1| at tau = i y, in mpmath at the
    working precision, with main the main factor of
    ``transformed_pair_product``."""
    y = mp.mpf(y)
    main = (
        mp.exp(-mp.pi * y * (mp.mpf(R) / 6 - S + mp.mpf(S * S) / R))
        * mp.exp(mp.pi / (6 * R * y))
        / (2 * mp.sin(mp.pi * S / R))
    )
    direct = mp_product_inv(ProductSpec([(S, R), (R - S, R)]), TauPoint(0.0, y))
    return abs(direct / main - 1)


def mainarc_L_expansion(p: ThetaParams, R: int, S: int, tau: TauPoint) -> complex:
    """Main-arc expansion of L_{a,c,d} with the higher-order tail dropped.

    exp(pi i/(6 R tau)) sum_k coeff_k w^(power_k - 1), w = -2 pi i tau, over
    the four threeR rungs (coeff_k, power_k) of ``oracles.paper_block_ladder``,
    the same rungs the block's Bessel main term is built from:

        [ sqrt(pi/a) w^(-1/2) / 2 - B1(c/2a) - (E/2) sqrt(pi/a) w^(1/2)
          + (E B1(c/2a) + a B3(c/2a)/3) w ] / (2 sin(S pi/R))

    with E = d - c^2/(4a) + R/12 - S/2 + S^2/(2R).  The later rungs are
    explicit too: the next one is sqrt(pi/a) E^2 / (8 sin(S pi/R)) w^(3/2),
    the tau^(3/2) term.  They are omitted deliberately, to keep the four
    rungs the Bessel main term uses, so agreement with L is checked as
    ratio convergence, not absolute error.
    """
    if abs(tau.x) > tau.y:
        raise ValueError("|x| must not exceed y on the main arc")
    t = tau.tau
    w = -2j * math.pi * t
    ladder = paper_block_ladder(p, R, S, THREE_R)
    rungs = sum(coeff * w ** float(power - 1) for coeff, power in ladder)
    return cmath.exp(1j * math.pi / (6.0 * R * t)) * rungs


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
