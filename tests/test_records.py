"""records: the six immutable value types of the package.

ThetaParams, ProductSpec, FamilySpec, LogValue, QuadratureSpec and ArcSplit
are namedtuple subclasses: each prints as ``Name(field=value, ...)``,
compares and hashes by its fields, takes no attribute assignment, and
rejects a non-integer where it needs an integer, or a non-rational where it
needs a rational, with ValueError, the one type of invalid input."""

from fractions import Fraction

import pytest

from theta_trunc.analytic import ArcSplit, QuadratureSpec
from theta_trunc.asymptotics import LogValue
from theta_trunc.families import FamilySpec
from theta_trunc.series import ProductSpec, ThetaParams

# (build, repr): ``build`` makes a fresh record each call, from fresh
# field objects where a field is mutable or a Fraction.
RECORDS = [
    (lambda: FamilySpec("C", 3, 1, 1), "FamilySpec(family='C', R=3, S=1, k=1)"),
    (
        lambda: ThetaParams(Fraction(9, 2), Fraction(21, 2), 6),
        "ThetaParams(a=Fraction(9, 2), c=Fraction(21, 2), d=6)",
    ),
    (lambda: ProductSpec([(1, 3), [2, 3]]), "ProductSpec(residues=((1, 3), (2, 3)))"),
    (lambda: LogValue(-1, 2.5), "LogValue(sign=-1, lnmag=2.5)"),
    (lambda: LogValue.zero(), "LogValue(sign=0, lnmag=-inf)"),
    (
        lambda: QuadratureSpec(50, 1024),
        "QuadratureSpec(N=50, samples=1024, radius_variant='threeR')",
    ),
    (lambda: ArcSplit(1.5, -0.25, 0.5), "ArcSplit(I_main=1.5, I_error=-0.25, ratio=0.5)"),
]
IDS = ["FamilySpec", "ThetaParams", "ProductSpec", "LogValue", "LogValue-zero", "QuadratureSpec", "ArcSplit"]


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_repr(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_equal_values_compare_and_hash_equal(build, text):
    one, two = build(), build()
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert len({one, two}) == 1


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_attributes_cannot_be_assigned(build, text):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance __dict__: __slots__ = ()
    assert repr(record) == text


def test_theta_params_doubled_integers_are_not_fields():
    p = ThetaParams(Fraction(9, 2), Fraction(21, 2), 6)
    assert (p.A, p.C) == (9, 21)
    assert p._fields == ("a", "c", "d")
    assert p == ThetaParams(Fraction(9, 2), Fraction(21, 2), 6)
    assert ThetaParams(2, -1, 0).C == -2
    with pytest.raises(AttributeError):
        p.A = 10


@pytest.mark.parametrize("build, message", [
    (lambda: FamilySpec("C", 3, 1, 1.5), "R, S and k must be integers"),
    (lambda: FamilySpec("C", 3.0, 1, 1), "R, S and k must be integers"),
    (lambda: FamilySpec("D", 5, "1", 1), "R, S and k must be integers"),
    (lambda: ThetaParams(1, 0, "3"), "d must be a non-negative integer"),
    (lambda: ThetaParams(1, 0, 3.0), "d must be a non-negative integer"),
    (lambda: ThetaParams(None, 0, 0), "a and c must be rationals"),
    (lambda: ThetaParams(1, [], 0), "a and c must be rationals"),
    (lambda: QuadratureSpec(10, 1024.0), "N and samples must be integers"),
    (lambda: QuadratureSpec(1.5, 1024), "N and samples must be integers"),
    (lambda: QuadratureSpec("10", 1024, "twoR"), "N and samples must be integers"),
    (lambda: ProductSpec([(1.5, 3)]), r"residues must be integer pairs, got \(1\.5, 3\)"),
    (lambda: ProductSpec([(1, 3), (2, 3.0)]), r"residues must be integer pairs, got \(2, 3\.0\)"),
], ids=[
    "FamilySpec-k-float", "FamilySpec-R-float", "FamilySpec-S-str",
    "ThetaParams-d-str", "ThetaParams-d-float", "ThetaParams-a-None", "ThetaParams-c-list",
    "QuadratureSpec-samples-float", "QuadratureSpec-N-float", "QuadratureSpec-N-str",
    "ProductSpec-A-float", "ProductSpec-B-float",
])
def test_wrong_field_type_raises_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()
