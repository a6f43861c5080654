"""Exact truncated power series over arbitrary-precision integers.

A PowerSeries holds the coefficients of a formal q-expansion up to (but
excluding) a truncation order.  Everything in this module is exact integer
arithmetic; these series are the ground truth against which all floating
point asymptotics are compared.

A PowerSeries keeps only what its readers use:
  * ``PowerSeries(coeffs, order)``, which cuts ``coeffs`` at ``order`` and
    pads them with zeros to it; ``.coeffs`` is read by ``families``, the
    CLI tables and identity checks and the tests, ``.order`` by the
    operations below and perfbench's tracer.
  * ``from_terms``, for ``families._theta_sum``; perfbench's tracer wraps it.
  * ``[n]``, for the FAIL line of ``verify-identities`` and
    perfbench/make_refs.py.
  * ``==``, for the tests and make_refs.py's ``!=`` cross-check.
  * a repr, for test failure messages.

Besides the series themselves the module lists theta exponents
(``theta_terms``), builds forward q-products (``pochhammer``) over any
``ProductSpec``, and divides by exactly two q-products, the pair and the
triple product of the families, through their sparse Jacobi-triple-product
theta series (``ps_div_pochhammer``).

Conventions:
  * ``order`` is exclusive: coefficients are indexed 0 .. order-1.
  * every function returns a new series, whose coeffs its caller may
    change in place.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import kernels


class PowerSeries:
    """Integer coefficients of a q-series, truncated below ``order``."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        if order <= 0:
            raise ValueError("order must be positive")
        coeffs = list(coeffs)
        del coeffs[order:]
        coeffs.extend([0] * (order - len(coeffs)))
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def from_terms(cls, terms, order: int) -> "PowerSeries":
        """Build from (exponent, coefficient) pairs; exponents >= order drop."""
        c = [0] * order
        for e, v in terms:
            if 0 <= e < order:
                c[e] += v
            elif e < 0:
                raise ValueError("negative exponent %r" % (e,))
        return cls(c, order)

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return "PowerSeries([%s%s], order=%d)" % (head, tail, self.order)


class ThetaParams(namedtuple("ThetaParams", "a c d")):
    """Parameters (a, c, d) of the theta partial sum sum_j q^(a j^2 + c j + d).

    a and c are rationals with denominator 1 or 2; all exponents must be
    non-negative integers, which holds for every j once it holds for
    j = 1 and j = 2 (a + c and 4a + 2c integral and non-negative).
    A = 2a and C = 2c, the integers exponents are worked out on, are
    properties, outside the fields, the repr and the equality.
    """

    __slots__ = ()

    def __new__(cls, a, c, d):
        # Fraction(x) costs about 2 us even when x already is one.
        try:
            a = a if type(a) is Fraction else Fraction(a)
            c = c if type(c) is Fraction else Fraction(c)
        except TypeError:
            raise ValueError("a and c must be rationals") from None
        if a.numerator <= 0:
            raise ValueError("a must be positive")
        # a + c is (A + C)/2, and 4a + 2c = 2A + C is integral once C is.
        A, ra = divmod(2 * a.numerator, a.denominator)
        C, rc = divmod(2 * c.numerator, c.denominator)
        if ra or rc:
            raise ValueError("a and c must have denominator 1 or 2")
        if (A + C) % 2:
            raise ValueError("a*j^2 + c*j must be integral for all j")
        if A + C < 0:
            raise ValueError("a*j^2 + c*j must be non-negative for all j")
        if not isinstance(d, int) or d < 0:
            raise ValueError("d must be a non-negative integer")
        return super().__new__(cls, a, c, d)

    @property
    def A(self) -> int:
        return 2 * self.a.numerator // self.a.denominator

    @property
    def C(self) -> int:
        return 2 * self.c.numerator // self.c.denominator


class ProductSpec(namedtuple("ProductSpec", "residues")):
    """A product of factors 1/(q^A; q^B)_inf, one per (A, B) residue pair.

    Each pair contributes the parts A, A+B, A+2B, ...; we require
    1 <= A <= B (A == B is needed for plain (q^R; q^R)_inf factors).
    """

    __slots__ = ()

    def __new__(cls, residues):
        pairs = tuple((a, b) for a, b in residues)
        for a, b in pairs:
            if not isinstance(a, int) or not isinstance(b, int):
                raise ValueError("residues must be integer pairs, got %r" % ((a, b),))
            if a < 1 or b < a:
                raise ValueError("need 1 <= A <= B, got (%d, %d)" % (a, b))
        return super().__new__(cls, pairs)

    def parts(self, order: int):
        """All part sizes A + j*B below ``order``, per residue pair."""
        out = []
        for a, b in self.residues:
            out.extend(range(a, order, b))
        return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def ps_mul(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Cauchy product truncated to min(f.order, g.order)."""
    n = min(f.order, g.order)
    return PowerSeries(kernels.conv_trunc(f.coeffs, g.coeffs, n), n)


def ps_inv(f: PowerSeries) -> PowerSeries:
    """Series inverse; the constant term must be +1 or -1."""
    if not f.coeffs or f.coeffs[0] not in (1, -1):
        raise ValueError(
            "constant term must be +1 or -1, got %r" % (f.coeffs[0] if f.coeffs else None,)
        )
    return PowerSeries(kernels.inv_unit(f.coeffs), f.order)


def qbinomial(L: int, K: int, order: int) -> PowerSeries:
    """Gaussian binomial [L, K]_q via the Pascal recurrence.

    [L, K] = [L-1, K] + q^(L-K) [L-1, K-1]; zero when K < 0 or K > L.
    """
    if K < 0 or K > L:
        return PowerSeries([], order)
    # row[k] holds [l, k] as a coefficient list while l runs 0..L
    row = [[0] * order for _ in range(K + 1)]
    row[0][0] = 1
    for l in range(1, L + 1):
        for k in range(min(K, l), 0, -1):
            shift = l - k
            prev = row[k - 1]
            cur = row[k]
            for i in range(order - 1, shift - 1, -1):
                cur[i] += prev[i - shift]
    return PowerSeries(row[K], order)


def pochhammer(spec: ProductSpec, order: int) -> PowerSeries:
    """The forward product prod (1 - q^(A+jB)) over all parts below order."""
    c = [0] * order
    c[0] = 1
    for m in sorted(spec.parts(order)):
        kernels.mul_one_minus(c, m)
    return PowerSeries(c, order)


def theta_terms(p: ThetaParams, order: int, n_min=0, n_max=None, alternating=False):
    """Pairs (a n^2 + c n + d, sign) with exponent below ``order``.

    n runs over n_min <= n <= n_max, where None leaves that side unbounded:
    first n >= 0 ascending, then n < 0 descending.  The sign is (-1)^n
    when ``alternating``, else +1.

    Works on the integers A = 2a, C = 2c: 2(a n^2 + c n + d) is even for
    every n exactly when A + C is, which ``ThetaParams`` enforces.  Each
    direction stops at its bound, or at the first exponent >= order past
    which the exponents only grow: the step
    e(n + s) - e(n) = (A (2 s n + 1) + s C) / 2 increases as n moves in
    direction s, so once it is positive no later exponent drops below the
    order.
    """
    A, C, D, top = p.A, p.C, 2 * p.d, 2 * order
    terms = []
    for s, n, last in (
        (1, 0 if n_min is None else max(n_min, 0), n_max),
        (-1, -1 if n_max is None else min(n_max, -1), n_min),
    ):
        while last is None or s * n <= s * last:
            e2 = (A * n + C) * n + D
            if e2 < top:
                terms.append((e2 >> 1, -1 if alternating and n & 1 else 1))
            elif A * (2 * s * n + 1) + s * C > 0:
                break
            n += s
    return terms


def theta_rs_params(R: int, S: int) -> ThetaParams:
    """theta_{R,S} = sum_{n in Z} (-1)^n q^(R n(n-1)/2 + S n) as (a, c, d).

    Enumerate it with ``theta_terms(..., n_min=None, alternating=True)``.
    """
    return ThetaParams(Fraction(R, 2), Fraction(2 * S - R, 2), 0)


def theta_exponents(R: int, S: int, order: int):
    """Exponents of theta_{R,S} below ``order``, split by sign.

    By the Jacobi triple product, for 0 < S < R,

        theta_{R,S} = (q^S, q^(R-S), q^R; q^R)_inf
                    = sum_{n in Z} (-1)^n q^(R n(n-1)/2 + S n).

    Returns ascending lists (plus, minus) of the exponents >= 1 with
    coefficient +1 and -1; the constant term is 1 (n = 0 is the only n
    with exponent 0).  An exponent is listed twice when two n share it
    (only R = 2S, where n and -n collide).
    """
    if not 0 < S < R:
        raise ValueError("need 0 < S < R, got R=%d S=%d" % (R, S))
    terms = theta_terms(theta_rs_params(R, S), order, None, None, True)
    plus = sorted(e for e, v in terms if v > 0 and e)
    minus = sorted(e for e, v in terms if v < 0)
    return plus, minus


def ps_div_pochhammer(f: PowerSeries, spec: ProductSpec) -> PowerSeries:
    """f divided by the pair product (q^S, q^(R-S); q^R)_inf or the triple
    product (q^S, q^(R-S), q^R; q^R)_inf, truncated to f.order, without
    the dense inverse.

    ``spec`` must list exactly the residues of one of the two, in any
    order; any other spec raises ValueError.  The triple product is the
    sparse theta series theta_{R,S} (see ``theta_exponents``), and the
    pair product is theta_{R,S} / theta_{3R,R}, since
    theta_{3R,R} = (q^R; q^R)_inf.  So the triple is one ``div_sparse``,
    O(order^1.5) adds, and the pair first multiplies by theta_{3R,R} with
    ``mul_sparse``, O(nnz(f) * order^0.5) adds, O(order) for the sparse
    theta numerators of the families.  (q; q)_inf is the triple at
    (R, S) = (3, 1).
    """
    S, R = min(spec.residues, default=(0, 0))
    pair = [(S, R), (R - S, R)]
    shape = sorted(spec.residues)
    if not 0 < S < R or shape not in (pair, pair + [(R, R)]):
        raise ValueError(
            "need a pair or triple product (q^S, q^(R-S)[, q^R]; q^R)_inf, "
            "got residues %r" % (spec.residues,)
        )
    order = f.order
    c = list(f.coeffs)
    if shape == pair:
        kernels.mul_sparse(c, *theta_exponents(3 * R, R, order))
    kernels.div_sparse(c, *theta_exponents(R, S, order))
    return PowerSeries(c, order)


def theta_partial(p: ThetaParams, order: int) -> PowerSeries:
    """G_{a,c,d} = sum_{j>=0} q^(a j^2 + c j + d) truncated below ``order``."""
    c = [0] * order
    for e, _ in theta_terms(p, order):
        c[e] += 1
    return PowerSeries(c, order)
