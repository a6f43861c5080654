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
theta sum and the log of the block denominator as polynomials in q, by one
real FFT each (``_poly_on_grid``), and divides by the exp of the log once.
Only the lower half is evaluated (the upper half is the conjugate mirror,
since L has real coefficients).  The last grid is cached, so a coefficient
and its arc split cost one grid evaluation between them.
Only the grid code uses numpy, and it imports numpy when it runs, so
importing this module (or ``cli``) does not load numpy: the first circle
grid does.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .asymptotics import THREE_R, VARIANTS
from .series import ProductSpec, ThetaParams, theta_terms


# Quadrature integrand tails below this are dropped; it also sets min_samples.
TAIL_TOL = 1e-20


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
