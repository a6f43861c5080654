"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the package's series kernels: partition
counts come from literal enumeration, products from naive convolution, and
special functions from mpmath at high precision.
"""

import math
from fractions import Fraction

import numpy as np


def count_partitions(n, parts):
    """Number of multisets of ``parts`` summing to n, by direct recursion."""
    parts = sorted(set(p for p in parts if p <= n))

    def rec(rem, idx):
        if rem == 0:
            return 1
        if idx < 0:
            return 0
        total = rec(rem, idx - 1)
        p = parts[idx]
        if p <= rem:
            total += rec(rem - p, idx)
        return total

    return rec(n, len(parts) - 1)


def divide_by_parts(coeffs, residues):
    """coeffs / prod (q^A; q^B)_inf, one factor (1 - q^m) at a time.

    The per-part division chain, written as a plain loop: every part
    m = A + j B below len(coeffs) of every (A, B) in ``residues`` divides
    out as the prefix sum c[i] += c[i - m].
    """
    c = list(coeffs)
    order = len(c)
    for a, b in residues:
        for m in range(a, order, b):
            for i in range(m, order):
                c[i] += c[i - m]
    return c


def brute_theta_terms(a, c, d, order, n_min=None, n_max=None, alternating=False):
    """Pairs (a n^2 + c n + d, sign) with exponent below ``order``, by brute force.

    Tries every n with |n| < W = ceil((|c| + order) / a), n >= 0 ascending,
    then n < 0 descending, keeping n_min <= n <= n_max (None: no bound)
    and the sign (-1)^n if ``alternating``.  The window holds every
    solution: for |n| >= W and d >= 0, a n^2 + c n + d >= |n| (a |n| - |c|)
    >= 1 * order.
    """
    a, c = Fraction(a), Fraction(c)
    assert a > 0 and d >= 0 and order >= 1
    w = math.ceil((abs(c) + order) / a)
    out = []
    for n in list(range(w)) + list(range(-1, -w, -1)):
        if n_min is not None and n < n_min or n_max is not None and n > n_max:
            continue
        e = a * n * n + c * n + d
        if e < order:
            assert e.denominator == 1
            out.append((e.numerator, (-1) ** abs(n) if alternating else 1))
    return out


def naive_poly_mul(a, b, order):
    """Schoolbook product of coefficient lists, truncated (no kernels)."""
    out = [0] * order
    for i, ai in enumerate(a[:order]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order - i]):
            out[i + j] += ai * bj
    return out


def naive_finite_pochhammer(n, order):
    """(q; q)_n expanded factor by factor with naive convolution."""
    acc = [1] + [0] * (order - 1)
    for j in range(1, n + 1):
        factor = [0] * order
        factor[0] = 1
        if j < order:
            factor[j] = -1
        acc = naive_poly_mul(acc, factor, order)
    return acc


def poly_divide_exact(num, den, order):
    """Long division num/den over the rationals; den[0] must be nonzero."""
    num = [Fraction(c) for c in num[:order]] + [Fraction(0)] * max(0, order - len(num))
    den = [Fraction(c) for c in den[:order]]
    out = []
    for i in range(order):
        c = num[i]
        for j in range(1, min(i, len(den) - 1) + 1):
            c -= den[j] * out[i - j]
        out.append(c / den[0])
    return out


def qbinomial_by_division(L, K, order):
    """[L, K]_q via (q;q)_L / ((q;q)_K (q;q)_{L-K}), exact division."""
    if K < 0 or K > L:
        return [0] * order
    num = naive_finite_pochhammer(L, order)
    den = naive_poly_mul(
        naive_finite_pochhammer(K, order),
        naive_finite_pochhammer(L - K, order),
        order,
    )
    out = poly_divide_exact(num, den, order)
    assert all(c.denominator == 1 for c in out)
    return [c.numerator for c in out]


def full_integrand_grid(p, R, S, N, samples, variant, which, tail_tol):
    """The circle integrand evaluated at every sample, with no symmetry.

    The all-samples loop that the half-grid ``analytic._integrand_grid``
    replaces, with the same cutoffs.  It takes its own ``which`` and
    ``tail_tol`` rather than reading ``asymptotics.VARIANTS`` and
    ``analytic.TAIL_TOL``, so a wrong denominator or tolerance there fails
    a bitwise comparison against it.
    """
    from theta_trunc.analytic import circle_y
    from theta_trunc.families import pair_product_spec, triple_product_spec
    from theta_trunc.series import theta_terms

    y = circle_y(N, R, variant)
    x = -0.5 + np.arange(samples) / samples
    ln_q = (-2 * math.pi * y) + (2j * math.pi) * x

    qa = math.exp(-2 * math.pi * y)
    g_cut = (math.log(1.0 / tail_tol) - math.log(1.0 - qa)) / (2 * math.pi * y)
    g = np.zeros(samples, dtype=np.complex128)
    for e, _ in theta_terms(p, math.floor(g_cut) + 1):
        g += np.exp(e * ln_q)

    if which == "B":
        spec = pair_product_spec(R, S)
    elif which == "Bprime":
        spec = triple_product_spec(R, S)
    else:
        raise ValueError("which must be 'B' or 'Bprime'")
    p_cut = math.log(1.0 / tail_tol) / (2 * math.pi * y)
    prod = np.ones(samples, dtype=np.complex128)
    for m in sorted(spec.parts(max(2, math.ceil(p_cut) + 1))):
        prod /= 1.0 - np.exp(m * ln_q)

    return g * prod * np.exp(-N * ln_q)
