"""Pure-Python kernels for truncated integer power series.

These are the hot inner loops of the package: everything here operates on
plain lists of arbitrary-precision Python ints indexed by exponent (the
coefficients outgrow machine words).  ``series`` calls them through this
module, so a tracer can replace them here.

Sparse factors 1 + sum_plus q^e - sum_minus q^e (theta series, by the
Jacobi triple product) are applied with ``mul_sparse`` and ``div_sparse``,
exact inverses of each other that use adds only.
"""

# The only kernel implementation; benchmark results record it.
BACKEND = "python"


def conv_trunc(a, b, order):
    """Truncated Cauchy product of coefficient lists a and b.

    Returns c of length ``order`` with c[n] = sum_{i+j=n} a[i]*b[j].
    Zero entries of ``a`` are skipped, so sparse-times-dense products cost
    O(nnz(a) * order).
    """
    out = [0] * order
    la = min(len(a), order)
    lb = len(b)
    for i in range(la):
        ai = a[i]
        if ai == 0:
            continue
        jmax = min(lb, order - i)
        if ai == 1:
            for j in range(jmax):
                out[i + j] += b[j]
        else:
            for j in range(jmax):
                out[i + j] += ai * b[j]
    return out


def inv_unit(f):
    """Multiplicative inverse of f modulo q^len(f); requires f[0] in {1, -1}.

    Standard recurrence: g[0] = f[0], g[m] = -f[0] * sum_{j>=1} f[j] g[m-j].
    Only the nonzero entries of f enter the inner sum.
    """
    n = len(f)
    c0 = f[0]
    nz = [(j, fj) for j, fj in enumerate(f) if j > 0 and fj != 0]
    g = [0] * n
    g[0] = c0
    for m in range(1, n):
        acc = 0
        for j, fj in nz:
            if j > m:
                break
            acc += fj * g[m - j]
        g[m] = -c0 * acc
    return g


def mul_one_minus(c, m):
    """In place c <- c * (1 - q^m), truncated to len(c)."""
    for i in range(len(c) - 1, m - 1, -1):
        c[i] -= c[i - m]


def div_one_minus(c, m):
    """In place c <- c / (1 - q^m), truncated to len(c).

    Equivalent to multiplying by 1 + q^m + q^{2m} + ...; this is the
    partition-counting prefix sum with stride m, and the special case
    ``div_sparse(c, [], [m])``.
    """
    for i in range(m, len(c)):
        c[i] += c[i - m]


def mul_sparse(c, plus, minus):
    """In place c <- c * (1 + sum_plus q^e - sum_minus q^e), truncated.

    ``plus`` and ``minus`` are ascending exponents >= 1 (repeats count
    twice), as for ``div_sparse``, which this undoes.  Each nonzero c[i]
    of the input is added to c[i+e] for the exponents with i + e < len(c),
    so the cost is O(nnz(c) * (len(plus) + len(minus))) adds.
    """
    n = len(c)
    for i, ci in [(i, ci) for i, ci in enumerate(c) if ci]:
        room = n - i
        for e in plus:
            if e >= room:
                break
            c[i + e] += ci
        for e in minus:
            if e >= room:
                break
            c[i + e] -= ci


def div_sparse(c, plus, minus):
    """In place c <- c / (1 + sum_plus q^e - sum_minus q^e), truncated.

    ``plus`` and ``minus`` are ascending exponents >= 1 (repeats count
    twice).  With g the quotient, g[i] = c[i] + sum_minus g[i-e]
    - sum_plus g[i-e]; the range of i is cut where a new exponent becomes
    active, so each stretch runs over fixed lists and uses adds only.
    """
    n = len(c)
    cuts = sorted(set(e for e in plus + minus if e < n))
    cuts.append(n)
    start = 1
    for stop in cuts:
        if stop <= start:
            continue
        active_minus = [e for e in minus if e < stop]
        active_plus = [e for e in plus if e < stop]
        for i in range(start, stop):
            acc = c[i]
            for e in active_minus:
                acc += c[i - e]
            for e in active_plus:
                acc -= c[i - e]
            c[i] = acc
        start = stop
