"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the package's series kernels: partition
counts come from literal enumeration, products from naive convolution,
Bernoulli polynomials from their general recurrence, and special functions
from mpmath at high precision.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache

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


def scalar_div_sparse(c, plus, minus):
    """In place c <- c / (1 + sum_plus q^e - sum_minus q^e), truncated.

    The per-element loop that ``kernels.div_sparse`` replaced, kept as its
    reference: g[i] = c[i] + sum_minus g[i-e] - sum_plus g[i-e], one add
    per active term, with the range of i cut where a new exponent becomes
    active.
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


def theta_series(R, S, order):
    """Coefficients of theta_{R,S} below ``order``, from ``series.theta_exponents``."""
    from theta_trunc.series import theta_exponents

    plus, minus = theta_exponents(R, S, order)
    c = [0] * order
    c[0] = 1
    for e in plus:
        c[e] += 1
    for e in minus:
        c[e] -= 1
    return c


def dense_theta_div_pochhammer(coeffs, spec):
    """coeffs / a pair or triple product, with the pair's theta multiply dense.

    The route of ``series.ps_div_pochhammer``, except that the pair's
    theta_{3R,R} = (q^R; q^R)_inf is expanded in full (``theta_series``)
    and convolved with ``kernels.conv_trunc``; then one ``div_sparse`` by
    theta_{R,S}.
    """
    from theta_trunc import kernels
    from theta_trunc.series import theta_exponents

    (S, R), *rest = sorted(spec.residues)
    order = len(coeffs)
    c = list(coeffs)
    if len(rest) == 1:
        c = kernels.conv_trunc(theta_series(3 * R, R, order), c, order)
    kernels.div_sparse(c, *theta_exponents(R, S, order))
    return c


def family_by_division(spec, order):
    """The family series by the division route: the numerator of
    ``families._family_numerator`` summed, then divided once by
    ``family_denominator(spec)`` with ``series.ps_div_pochhammer``.  No
    cached quotient is used."""
    from theta_trunc import families
    from theta_trunc.series import ps_div_pochhammer

    blocks, ranges, alternating = families._family_numerator(spec)
    num = families._theta_sum(blocks, order, ranges, alternating)
    return ps_div_pochhammer(num, families.family_denominator(spec))


def naive_finite_pochhammer(n, order):
    """(q; q)_n expanded factor by factor with naive convolution."""
    acc = [1] + [0] * (order - 1)
    for j in range(1, n + 1):
        factor = [0] * order
        factor[0] = 1
        if j < order:
            factor[j] = -1
        acc = naive_poly_mul(factor, acc, order)  # skips the zeros of factor
    return acc


def poly_divide_exact(num, den, order):
    """Long division num/den of integer series; den[0] must be +1 or -1.

    With a unit constant term every quotient coefficient is an integer.
    """
    assert den[0] in (1, -1)
    num = list(num[:order]) + [0] * max(0, order - len(num))
    out = []
    for i in range(order):
        c = num[i]
        for j in range(1, min(i, len(den) - 1) + 1):
            c -= den[j] * out[i - j]
        out.append(c * den[0])
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
    return poly_divide_exact(num, den, order)


def naive_geometric(j, order):
    """1/(1 - q^j) = 1 + q^j + q^(2j) + ..., truncated."""
    return [1 if i % j == 0 else 0 for i in range(order)]


def dense_truncated_pentagonal_rhs(k, order):
    """Right side of the truncated pentagonal number theorem, term by term.

    1 + (-1)^(k-1) sum_{n>=1} q^((k+1)n + k(k-1)/2) [n-1, k-1]_q / (q;q)_n,
    each term a dense product of 1/(q;q)_n (a running product of geometric
    series) by the Gaussian binomial, cut to the order that survives the
    shift.
    """
    out = [1] + [0] * (order - 1)
    sign = 1 if (k - 1) % 2 == 0 else -1
    inv_pochh = [1] + [0] * (order - 1)
    n = 1
    while True:
        lead = (k + 1) * n + k * (k - 1) // 2
        if lead >= order:
            return out
        width = order - lead
        inv_pochh = naive_poly_mul(naive_geometric(n, order), inv_pochh, order)
        term = naive_poly_mul(
            qbinomial_by_division(n - 1, k - 1, width), inv_pochh, width
        )
        for i, t in enumerate(term):
            out[lead + i] += sign * t
        n += 1


def paper_blocks(spec):
    """The paper's four-block decomposition of a family, from its closed-form
    offsets, as (sign, ThetaParams) pairs.

    C (a = 2R) is T1..T4, D (a = 3R/2) H1..H4, Dprime H1, H2, H3', H4';
    Cprime has the C blocks (over the triple product).
    """
    from theta_trunc.series import ThetaParams

    R, S, k = spec.R, spec.S, spec.k
    if spec.family in ("C", "Cprime"):
        a = Fraction(2 * R)
        rows = [
            (1, (2 * k + 1) * R - 2 * S, R * k * (k + 1) // 2 - S * k),  # T1
            (-1, (2 * k + 1) * R + 2 * S, R * k * (k + 1) // 2 + S * (k + 1)),  # T2
            (-1, (2 * k + 3) * R - 2 * S, R * (k + 2) * (k + 1) // 2 - S * (k + 1)),  # T3
            (1, (2 * k + 3) * R + 2 * S, R * (k + 2) * (k + 1) // 2 + S * (k + 2)),  # T4
        ]
    else:
        a = Fraction(3 * R, 2)
        h12 = R * (3 * k + 2) * (k + 1) // 2
        rows = [
            (-1, Fraction((6 * k + 5) * R, 2) + 3 * S, h12 + S * (3 * k + 3)),  # H1
            (1, Fraction((6 * k + 5) * R, 2) - 3 * S, h12 - S * (3 * k + 2)),  # H2
        ]
        if spec.family == "D":
            h34 = R * (3 * k + 4) * (k + 1) // 2
            rows += [
                (-1, Fraction((6 * k + 7) * R, 2) - 3 * S, h34 - S * (3 * k + 3)),  # H3
                (1, Fraction((6 * k + 7) * R, 2) + 3 * S, h34 + S * (3 * k + 4)),  # H4
            ]
        else:
            h34 = R * k * (3 * k + 1) // 2
            rows += [
                (-1, Fraction((6 * k + 1) * R, 2) - 3 * S, h34 - 3 * k * S),  # H3'
                (1, Fraction((6 * k + 1) * R, 2) + 3 * S, h34 + S * (3 * k + 1)),  # H4'
            ]
    return [(sign, ThetaParams(a, Fraction(c), d)) for sign, c, d in rows]


@lru_cache(maxsize=None)
def bernoulli_number(n):
    """B_n (B_1 = -1/2) by the standard recurrence sum_{j<=n} C(n+1, j) B_j = 0."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


def bernoulli_poly(n, x):
    """B_n(x) = sum_k C(n,k) B_k x^(n-k), exact: x goes through Fraction,
    which converts a float exactly too."""
    x = Fraction(x)
    return sum(math.comb(n, k) * bernoulli_number(k) * x ** (n - k) for k in range(n + 1))


def paper_block_rationals(p, R, S, variant):
    """A block's rung rationals as the paper writes them,
    1, -B1(h), -E, E B1(h) + a B3(h)/3 with h = c/(2a) and
    E = d - c^2/(4a) + R/12 - S/2 + S^2/(2R) (R/8 in place of R/12 on the
    twoR circle), with B1 and B3 from ``bernoulli_poly``."""
    a, c = p.a, p.c
    h = c / (2 * a)
    r_term = Fraction(R, 12 if variant == "threeR" else 8)
    e = p.d - c * c / (4 * a) + r_term - Fraction(S, 2) + Fraction(S * S, 2 * R)
    b1, b3 = bernoulli_poly(1, h), bernoulli_poly(3, h)
    return (Fraction(1), -b1, -e, e * b1 + a * b3 / 3)


# Per circle, the power of a block's first rung and the odd-rung factor
# odd(R): 3R circle powers 1/2 .. 2 with odd = 1, 2R circle 1 .. 5/2 with
# odd = sqrt(R/(2 pi)).
PAPER_CIRCLES = {
    "threeR": (Fraction(1, 2), lambda R: 1.0),
    "twoR": (Fraction(1), lambda R: math.sqrt(R / (2 * math.pi))),
}


def paper_scaled_ladder(rationals, a, R, S, variant):
    """The (coefficient, power) rungs of rung rationals: rung i at power
    first + i/2 of the circle, times sqrt(pi/a) odd(R)/(4 sin0) for even i
    and odd(R)/(2 sin0) for odd i."""
    first, odd = PAPER_CIRCLES[variant]
    sin0 = math.sin(math.pi * S / R)
    scales = ((math.sqrt(math.pi / float(a)) * odd(R), 4 * sin0), (odd(R), 2 * sin0))
    return tuple(
        (float(r) * scales[i % 2][0] / scales[i % 2][1], first + Fraction(i, 2))
        for i, r in enumerate(rationals)
    )


def paper_block_ladder(p, R, S, variant):
    """The four (coefficient, power) rungs of a block's main term on the
    circle, each rung standing for coeff s^p I_{-p}(x); the main-arc
    expansion of L in ``tests/paper_lemmas.py`` reads them too."""
    return paper_scaled_ladder(paper_block_rationals(p, R, S, variant), p.a, R, S, variant)


# The paper's family main terms: each family's is the last rung of its
# blocks, w S odd(R)/(2 sin0) s^p I_{-p}(x), on its circle, at weight w.
PAPER_RUNGS = {
    "C": ("threeR", lambda k: k),
    "Cprime": ("twoR", lambda k: k),
    "D": ("threeR", lambda k: 2 * k + 1),
    "Dprime": ("threeR", lambda k: -4 * k),
}


def mp_family_mainterm(spec, N):
    """The family main term of ``PAPER_RUNGS`` at N in mpmath: circle 3R
    with odd = 1 and p = 2, or circle 2R with odd = sqrt(R/(2 pi)) and
    p = 5/2; x = 2 pi sqrt(N/(mR)), s = pi/sqrt(mRN) on circle mR."""
    import mpmath as mp

    variant, weight = PAPER_RUNGS[spec.family]
    with mp.workdps(30):
        R, S, N = spec.R, spec.S, mp.mpf(N)
        m, odd, p = (3, 1, 2) if variant == "threeR" else (2, mp.sqrt(R / (2 * mp.pi)), mp.mpf(5) / 2)
        x = 2 * mp.pi * mp.sqrt(N / (m * R))
        s = mp.pi / mp.sqrt(m * R * N)
        coeff = weight(spec.k) * S * odd / (2 * mp.sin(mp.pi * S / R))
        return coeff * s**p * mp.besseli(-p, x)


def _grid_cutoffs(R, N, variant, tail_tol):
    """y and the theta-sum, product and log-product orders of the grid."""
    from theta_trunc.analytic import circle_y

    y = circle_y(N, R, variant)
    qa = math.exp(-2 * math.pi * y)
    g_cut = (math.log(1.0 / tail_tol) - math.log(1.0 - qa)) / (2 * math.pi * y)
    p_cut = math.log(1.0 / tail_tol) / (2 * math.pi * y)
    log_cut = math.log(1.0 / (np.finfo(float).eps * tail_tol)) / (2 * math.pi * y)
    return y, math.floor(g_cut) + 1, max(2, math.ceil(p_cut) + 1), math.floor(log_cut) + 1


def _denominator_spec(R, S, which):
    from theta_trunc.families import pair_product_spec, triple_product_spec

    if which == "B":
        return pair_product_spec(R, S)
    if which == "Bprime":
        return triple_product_spec(R, S)
    raise ValueError("which must be 'B' or 'Bprime'")


def full_integrand_grid(p, R, S, N, samples, variant, which, tail_tol, ks=None):
    """The circle integrand at every sample (or at the indices ``ks``).

    The per-part loop, with no symmetry and the cutoffs of
    ``analytic._integrand_grid``: one ``np.exp`` and one division per part
    of the denominator.  It takes its own ``which`` and ``tail_tol`` rather
    than reading ``asymptotics.VARIANTS`` and ``analytic.TAIL_TOL``, so a
    wrong denominator or tolerance there fails a comparison against it.
    """
    from theta_trunc.series import theta_terms

    y, g_order, p_order, _ = _grid_cutoffs(R, N, variant, tail_tol)
    k = np.arange(samples) if ks is None else np.asarray(ks)
    x = -0.5 + k / samples
    ln_q = (-2 * math.pi * y) + (2j * math.pi) * x

    g = np.zeros(x.size, dtype=np.complex128)
    for e, _ in theta_terms(p, g_order):
        g += np.exp(e * ln_q)

    prod = np.ones(x.size, dtype=np.complex128)
    for m in sorted(_denominator_spec(R, S, which).parts(p_order)):
        prod /= 1.0 - np.exp(m * ln_q)

    return g * prod * np.exp(-N * ln_q)


def log_denominator_terms(spec, product_order, log_order):
    """(exponents, coefficients) of log prod (1 - q^m) over the parts m below
    ``product_order``: -q^(m j)/j for every part m and j >= 1 with m j below
    ``log_order``, one term per (m, j), as numpy arrays (repeated exponents
    add).  The term-by-term enumeration that ``analytic._log_denominator``
    replaces by divisor sums.
    """
    m = np.array(spec.parts(product_order), dtype=np.int64)
    reps = (log_order - 1) // m
    first = np.repeat(np.cumsum(reps) - reps, reps)
    j = np.arange(1, first.size + 1) - first
    return np.repeat(m, reps) * j, -1.0 / j


def full_fft_grid(p, R, S, N, samples, variant, which, tail_tol):
    """The circle integrand at every sample by a full complex FFT.

    The polynomials of ``analytic._integrand_grid``, built term by term:
    the theta sum times q^(-N), that is q^(e - N) per theta exponent e, and
    -q^(m j)/j of log prod (1 - q^m) per part m and j >= 1 down to
    |q|^(m j) >= eps tail_tol.  Each coefficient times |q|^n (-1)^n is
    folded to n mod samples and the polynomial is samples * ifft(folded) at
    every sample, with no symmetry.  It takes its own ``which`` and
    ``tail_tol``, as ``full_integrand_grid`` does.
    """
    from theta_trunc.series import theta_terms

    y, g_order, p_order, log_order = _grid_cutoffs(R, N, variant, tail_tol)

    def on_grid(terms):
        folded = np.zeros(samples)
        for n, c in terms:
            folded[n % samples] += c * (-1) ** n * math.exp(-2 * math.pi * y * n)
        return samples * np.fft.ifft(folded)

    g = on_grid((e - N, 1.0) for e, _ in theta_terms(p, g_order))
    log_terms = []
    for m in _denominator_spec(R, S, which).parts(p_order):
        j = 1
        while m * j < log_order:
            log_terms.append((m * j, -1.0 / j))
            j += 1
    return g / np.exp(on_grid(log_terms))


def mp_integrand_samples(p, R, S, N, samples, variant, which, tail_tol, ks):
    """The circle integrand at the sample indices ``ks``, in mpmath.

    The defining sum and product at 40 digits, with the cutoffs of
    ``full_integrand_grid``: the theta exponents by brute force, then one
    factor 1/(1 - q^m) per part.  The points are the float grid's own
    (x = -1/2 + k/samples and the float y, both exact in mpmath).  Returns
    a complex array.
    """
    import mpmath as mp

    y, g_order, p_order, _ = _grid_cutoffs(R, N, variant, tail_tol)
    exps = [e for e, _ in brute_theta_terms(p.a, p.c, p.d, g_order, n_min=0)]
    parts = _denominator_spec(R, S, which).parts(p_order)
    out = []
    with mp.workdps(40):
        for k in ks:
            ln_q = 2j * mp.pi * mp.mpc(mp.mpf(k) / samples - 0.5, y)
            acc = mp.fsum(mp.exp(e * ln_q) for e in exps)
            for m in parts:
                acc /= 1 - mp.exp(m * ln_q)
            out.append(complex(acc * mp.exp(-N * ln_q)))
    return np.array(out)


def mainarc_bracket(p, R, S, tau):
    """Main-arc expansion of L written out term by term.

    exp(pi i/(6 R tau)) / (2 sin(S pi/R)) times

        sqrt(pi/a) w^(-1/2) / 2 - B1(h) - (E/2) sqrt(pi/a) w^(1/2)
      - [E B1(h) + a B3(h)/3] (2 pi i tau)

    with w = -2 pi i tau, h = c/(2a), E = d - c^2/(4a) + R/12 - S/2 + S^2/(2R)
    and the Bernoulli polynomials B1(h) = h - 1/2, B3(h) = h^3 - 3h^2/2 + h/2
    in closed form, not from ``asymptotics``.
    """
    a, c = Fraction(p.a), Fraction(p.c)
    h = c / (2 * a)
    b1 = float(h - Fraction(1, 2))
    b3 = float(h**3 - Fraction(3, 2) * h**2 + h / 2)
    e = float(p.d - c * c / (4 * a) + Fraction(R, 12) - Fraction(S, 2) + Fraction(S * S, 2 * R))
    t = tau.tau
    w = -2j * math.pi * t
    root = math.sqrt(math.pi / float(a))
    pref = cmath.exp(1j * math.pi / (6.0 * R * t)) / (2.0 * math.sin(math.pi * S / R))
    return pref * (
        0.5 * root / cmath.sqrt(w)
        - b1
        - 0.5 * e * root * cmath.sqrt(w)
        - (e * b1 + float(a) * b3 / 3.0) * (2j * math.pi * t)
    )
