"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the package's series kernels: partition
counts come from literal enumeration, products from naive convolution, and
special functions from mpmath at high precision.
"""

from fractions import Fraction


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
