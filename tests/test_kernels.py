"""The big-integer series kernels against independent references.

The ``*_parity`` tests check ``conv_trunc``, ``inv_unit`` and
``mul_one_minus`` against the schoolbook product of ``tests/oracles.py``,
and ``div_one_minus`` as the inverse of ``mul_one_minus``; ``div_sparse`` is
checked bit for bit against the per-element loop it replaced, and against
the kernels it generalizes, and ``mul_sparse`` against the schoolbook
product and as the inverse of ``div_sparse``.
"""

import math
import random

from oracles import naive_poly_mul, scalar_div_sparse

from theta_trunc import kernels
from theta_trunc.series import theta_exponents


def _random_coeffs(rng, n, lo=-9, hi=9):
    return [rng.randrange(lo, hi + 1) for _ in range(n)]


def test_conv_trunc_parity():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randrange(1, 60)
        a = _random_coeffs(rng, rng.randrange(1, 60))
        b = _random_coeffs(rng, rng.randrange(1, 60))
        assert kernels.conv_trunc(a, b, n) == naive_poly_mul(a, b, n)


def test_inv_unit_parity():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randrange(1, 50)
        f = [rng.choice([1, -1])] + _random_coeffs(rng, n - 1, -4, 4)
        assert naive_poly_mul(f, kernels.inv_unit(f), n) == [1] + [0] * (n - 1)


def test_mul_div_parity_and_inverse():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(2, 80)
        m = rng.randrange(1, n + 4)
        base = _random_coeffs(rng, n)
        a = list(base)
        kernels.mul_one_minus(a, m)
        assert a == naive_poly_mul([1] + [0] * (m - 1) + [-1], base, n)
        kernels.div_one_minus(a, m)
        assert a == base


def test_big_integer_coefficients():
    # coefficients far beyond machine words
    a = [10**40, -(10**39), 7]
    b = [3, 10**41]
    assert kernels.conv_trunc(a, b, 4) == naive_poly_mul(a, b, 4)
    assert kernels.conv_trunc(a, b, 4)[1] == 10**81 - 3 * 10**39


def test_div_sparse_single_term_is_div_one_minus():
    rng = random.Random(4)
    for m in (1, 2, 5, 13, 40):
        base = [rng.randrange(-(10**45), 10**45) for _ in range(30)]
        a, b = list(base), list(base)
        kernels.div_one_minus(a, m)
        kernels.div_sparse(b, [], [m])
        assert a == b


def test_div_sparse_undoes_sparse_product():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(1, 70)
        exps = sorted(rng.sample(range(1, 80), rng.randrange(0, 8)))
        plus = sorted(rng.sample(exps, len(exps) // 2))
        minus = [e for e in exps if e not in plus]
        d = [0] * (max(exps, default=0) + 1)
        d[0] = 1
        for e in plus:
            d[e] += 1
        for e in minus:
            d[e] -= 1
        base = [rng.randrange(-(10**30), 10**30) for _ in range(n)]
        c = kernels.conv_trunc(d, base, n)
        kernels.div_sparse(c, plus, minus)
        assert c == base


def _sparse_factor(plus, minus):
    """Dense coefficients of 1 + sum_plus q^e - sum_minus q^e."""
    d = [0] * (max(plus + minus, default=0) + 1)
    d[0] = 1
    for e in plus:
        d[e] += 1
    for e in minus:
        d[e] -= 1
    return d


def _random_exponents(rng, n):
    """Ascending plus and minus exponents, some at or past n."""
    exps = sorted(rng.sample(range(1, n + 6), rng.randrange(0, min(n + 5, 9))))
    plus = sorted(rng.sample(exps, len(exps) // 2))
    return plus, [e for e in exps if e not in plus]


def test_mul_sparse_parity():
    rng = random.Random(6)
    for trial in range(60):
        n = rng.randrange(1, 70)
        plus, minus = _random_exponents(rng, n)
        if trial % 3 == 0:
            base = [0] * n  # all zero
        elif trial % 3 == 1:
            base = [rng.randrange(-(10**30), 10**30) if rng.random() < 0.1 else 0 for _ in range(n)]
        else:
            base = [rng.randrange(-(10**30), 10**30) for _ in range(n)]
        c = list(base)
        kernels.mul_sparse(c, plus, minus)
        assert c == naive_poly_mul(_sparse_factor(plus, minus), base, n)


def test_mul_sparse_big_integer_coefficients():
    base = [10**40, 0, -(10**39), 7, 0, 0]
    c = list(base)
    kernels.mul_sparse(c, [1, 4], [2, 6])
    assert c == naive_poly_mul([1, 1, -1, 0, 1], base, 6)
    assert c[1] == 10**40 and c[4] == 10**40 + 10**39 + 7


def test_mul_sparse_repeated_exponents():
    # theta_{2,1} = 1 - 2q + 2q^4 - 2q^9 + ...: n and -n share each exponent
    n = 50
    plus, minus = theta_exponents(2, 1, n)
    assert minus[:2] == [1, 1] and plus[:2] == [4, 4]
    rng = random.Random(7)
    base = [rng.randrange(-(10**25), 10**25) for _ in range(n)]
    c = list(base)
    kernels.mul_sparse(c, plus, minus)
    assert c == naive_poly_mul(_sparse_factor(plus, minus), base, n)


def test_div_sparse_undoes_mul_sparse():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randrange(1, 70)
        plus, minus = _random_exponents(rng, n)
        if rng.random() < 0.3:
            plus, minus = plus + plus, minus + minus  # every exponent twice
            plus.sort()
            minus.sort()
        base = [rng.randrange(-(10**30), 10**30) for _ in range(n)]
        c = list(base)
        kernels.mul_sparse(c, plus, minus)
        kernels.div_sparse(c, plus, minus)
        assert c == base


def _check_div_sparse_against_scalar(base, plus, minus):
    got, want = list(base), list(base)
    kernels.div_sparse(got, plus, minus)
    scalar_div_sparse(want, plus, minus)
    assert got == want, (len(base), plus[:4], minus[:4])


def test_div_sparse_matches_scalar_loop_on_theta_exponents():
    # every coprime 1 <= S < R <= 12 (R = 2, S = 1 lists each exponent
    # twice), at n = 1, 2, around the smallest exponent, and 2001
    rng = random.Random(9)
    for R in range(2, 13):
        for S in range(1, R):
            if math.gcd(R, S) != 1:
                continue
            low = min(S, R - S)
            for n in sorted({1, 2, low - 1, low, low + 1, 2001} - {0}):
                base = [rng.randrange(-(10**6), 10**6) for _ in range(n)]
                _check_div_sparse_against_scalar(base, *theta_exponents(R, S, n))


def test_div_sparse_edge_inputs_match_scalar_loop():
    rng = random.Random(10)
    base = [rng.randrange(-(10**20), 10**20) for _ in range(40)]
    _check_div_sparse_against_scalar(base, [], [])  # empty factor: c / 1
    # one active exponent over [3, 9) (minus) and [4, 30) (plus)
    _check_div_sparse_against_scalar(base, [], [3, 9])
    _check_div_sparse_against_scalar(base, [4, 30], [])
    _check_div_sparse_against_scalar(base, [1], [])  # h[1 - 2e] at e = 1 is h[-1]
    # 300-bit coefficients
    big = [rng.randrange(-(1 << 300), 1 << 300) for _ in range(500)]
    _check_div_sparse_against_scalar(big, *theta_exponents(3, 1, 500))
    _check_div_sparse_against_scalar(big, *theta_exponents(2, 1, 500))
    # len(c) == 0 is a no-op
    c = []
    kernels.div_sparse(c, [1, 4], [2])
    assert c == []
