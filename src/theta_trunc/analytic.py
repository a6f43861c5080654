"""Circle-method quadrature of the block coefficients.

The coefficient of q^N in L = G / pair (threeR) or L' = G / triple (twoR)
is the integral of L(q) q^(-N) (or L'(q) q^(-N)) over the circle
|q| = exp(-2 pi y) of ``asymptotics.VARIANTS``, with q = exp(2 pi i tau),
tau = x + i y.  The trapezoid rule is exact on that circle for band-limited
integrands, which gives back the exact integer coefficients at desk scale.
``_tail_orders`` is the one cutoff rule for every piece of the integrand:
theta-sum exponents with |q|^e >= tol (1 - |q|), product parts with
|q|^m >= tol, and for the log of the product the terms with
|q|^(m j) >= eps tol, all at ``TAIL_TOL``.
The samples lie on a uniform grid in x, so the integrand grid evaluates the
theta sum times q^(-N) (its exponents shifted to e - N) and the log of the
block denominator as polynomials in q, by one real FFT each
(``_poly_on_grid``), and divides by the exp of the log once.  The log's
coefficients are -sigma(n)/n, sigma(n) the sum of the parts dividing n
(``_log_denominator``).
L has real coefficients, so sample samples - k is the conjugate of sample
k: the grid is the lower half, k = 0..samples/2, checked once against
``min_samples``, and the coefficient and both arcs are real sums over it.
The last grid is cached, so a coefficient and its arc split cost one grid
evaluation between them.
Only the grid code uses numpy, and it imports numpy when it runs, so
importing this module (or ``cli``) does not load numpy: the first circle
grid does.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import lru_cache

from .asymptotics import THREE_R, VARIANTS
from .families import PRODUCTS
from .series import ProductSpec, ThetaParams, theta_terms


# Quadrature integrand tails below this are dropped; it also sets min_samples.
TAIL_TOL = 1e-20


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class QuadratureSpec(namedtuple("QuadratureSpec", "N samples radius_variant")):
    """Circle quadrature parameters.

    ``radius_variant`` picks the circle and the integrand: threeR is L on
    y = 1/(2 sqrt(3RN)), twoR is L' on y = 1/(2 sqrt(2RN)).
    """

    __slots__ = ()

    def __new__(cls, N, samples, radius_variant=THREE_R):
        if not isinstance(N, int) or not isinstance(samples, int):
            raise ValueError("N and samples must be integers")
        if N < 1:
            raise ValueError("N must be >= 1")
        if not _is_pow2(samples):
            raise ValueError("samples must be a positive power of two")
        if radius_variant not in VARIANTS:
            raise ValueError("radius_variant must be threeR or twoR")
        return super().__new__(cls, N, samples, radius_variant)


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


def _poly_on_grid(n, c, ln_r: float, samples: int):
    """sum_n c_n q^n on the lower half grid, x_k = -1/2 + k/samples for
    k = 0..samples/2.

    ``n`` are integer exponents, negative ones too (repeats add), ``c``
    real coefficients and ln_r = ln|q| = -2 pi y.  On the grid
    q_k^n = r^n (-1)^n exp(2 pi i n k/samples), so the sum is conj(rfft(a))
    with a[n mod samples] += c_n r^n (-1)^n; folding the exponents mod
    samples is exact there, since the grid is periodic.
    """
    import numpy as np

    w = np.where(n & 1, -c, c) * np.exp(n * ln_r)
    a = np.bincount(n % samples, weights=w, minlength=samples)
    return np.conj(np.fft.rfft(a))


def _log_denominator(spec: ProductSpec, product_order: int, log_order: int):
    """(exponents, coefficients) of log prod (1 - q^m) over the parts m below
    ``product_order``, for the exponents 1 <= n < ``log_order``.

    log prod (1 - q^m) = -sum_{m, j >= 1} q^(m j)/j = -sum_n sigma(n) q^n / n,
    with sigma(n) the sum of those parts that divide n.
    """
    import numpy as np

    # m j with weight m for every part m and j >= 1 with m j < log_order
    m = np.array(spec.parts(product_order), dtype=np.int64)
    reps = (log_order - 1) // m
    first = np.repeat(np.cumsum(reps) - reps, reps)
    j = np.arange(1, first.size + 1) - first
    parts = np.repeat(m, reps)
    sigma = np.bincount(parts * j, weights=parts, minlength=log_order)
    n = np.arange(1, log_order)
    return n, -sigma[1:] / n


@lru_cache(maxsize=1)
def _integrand_grid(p, R, S, N, samples, variant):
    """Values of L(q) (or L'(q), by variant) exp(2 pi N y - 2 pi i N x) on
    the lower half grid, x = -1/2 + k/samples for k = 0..samples/2.

    The theta sum times q^(-N) and the log of the block denominator are
    polynomials in q, evaluated on the grid by one real FFT each
    (``_poly_on_grid``): the theta exponents enter as e - N, and the log
    comes from the divisor sums of ``_log_denominator``.  The shifted theta
    sum is divided by the exp of the log once.

    L has real coefficients, so these samples/2 + 1 values are the whole
    grid: sample k of the upper half is conj(v[samples - k]).  A
    ``samples`` below ``min_samples`` raises ValueError, the one check of
    the bandwidth rule.  The last grid is cached and returned read-only, so
    a coefficient and its arc split share one evaluation.
    """
    import numpy as np

    need = min_samples(N, R, variant)
    if samples < need:
        raise ValueError("samples=%d below the aliasing-safe minimum %d" % (samples, need))
    spec = PRODUCTS[VARIANTS[variant].quotient](R, S)
    y = circle_y(N, R, variant)
    ln_r = -2 * math.pi * y
    theta_order, product_order, log_order = _tail_orders(y, TAIL_TOL)
    # an exponent e <= N adds the integer p(N - e), however small |q|^e is
    exps = np.array([e - N for e, _ in theta_terms(p, max(theta_order, N + 1))], dtype=np.int64)
    g = _poly_on_grid(exps, np.ones(exps.size), ln_r, samples)
    log_den = _poly_on_grid(*_log_denominator(spec, product_order, log_order), ln_r, samples)
    vals = g / np.exp(log_den)
    vals.flags.writeable = False
    return vals


def _pairwise_reduce(values: np.ndarray) -> float:
    """Index-ascending pairwise reduction (deterministic, power-of-two len)."""
    v = values
    while v.size > 1:
        v = v[0::2] + v[1::2]
    return float(v[0])


def _real_lower_half(vals: np.ndarray) -> np.ndarray:
    """w_k for k < samples/2 with sum_k w_k + Re v_half = Re sum of the grid:
    w_0 = Re v_0 and w_k = 2 Re v_k, since v_(samples-k) = conj(v_k)."""
    w = 2 * vals[:-1].real
    w[0] = vals[0].real
    return w


def _main_arc_start(y: float, samples: int) -> int:
    """The first lower-half index k of the main arc |x_k| <= y.

    With x_k = -1/2 + k/samples the arc is samples/2 - k <= y samples, that
    is k >= ceil(samples/2 - y samples) = samples/2 - floor(y samples),
    exact in floats since samples is a power of two.
    """
    return samples // 2 - math.floor(y * samples)


def wright_coefficient(p: ThetaParams, R: int, S: int, quad: QuadratureSpec) -> float:
    """Coefficient of q^N in L (threeR) or L' (twoR) by trapezoid quadrature
    on the circle of ``quad.radius_variant``: the real part of the grid's
    sum, Re v_0 + Re v_half + 2 sum_{0<k<half} Re v_k over the lower half.

    For desk-scale N the result rounds to the exact integer coefficient.
    """
    vals = _integrand_grid(p, R, S, quad.N, quad.samples, quad.radius_variant)
    return (_pairwise_reduce(_real_lower_half(vals)) + vals[-1].real) / quad.samples


# Quadrature split into the main arc |x| <= y and its complement, with
# ratio |I_error|/|I_main|.  Both arcs are symmetric about x = 0, so each
# integral is real.
ArcSplit = namedtuple("ArcSplit", "I_main I_error ratio")


def arc_split_diagnostic(
    p: ThetaParams, R: int, S: int, N: int, samples: int, variant: str = THREE_R
) -> ArcSplit:
    """Main-arc / error-arc split of the coefficient quadrature.

    threeR splits the B (L) quadrature, twoR the B' (L') one, each on its
    own circle.  The main arc holds the lower-half indices from
    ``_main_arc_start`` to samples/2 and their mirrors, so each part is a
    real sum over the lower half as in ``wright_coefficient``.  The ratio
    is nan when the main arc is 0.
    """
    import numpy as np

    QuadratureSpec(N, samples, variant)  # validates N, samples and variant
    vals = _integrand_grid(p, R, S, N, samples, variant)
    w = _real_lower_half(vals)
    on_main = np.arange(w.size) >= _main_arc_start(circle_y(N, R, variant), samples)
    main = (_pairwise_reduce(np.where(on_main, w, 0.0)) + vals[-1].real) / samples
    err = _pairwise_reduce(np.where(on_main, 0.0, w)) / samples
    return ArcSplit(main, err, abs(err) / abs(main) if main else math.nan)
