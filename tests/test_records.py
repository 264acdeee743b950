"""Frozen records against stdlib ``dataclass(frozen=True)`` twins.

Each twin is the record's own class body (annotations, defaults,
``__post_init__`` and the methods it writes itself) decorated by dataclasses
instead, so any difference below is a difference of the decorator.
"""

import ast
import dataclasses
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from chebdyn import ARCH, DomainError, IntPoly, Place, PlaceSet, algebraic_number
from chebdyn.algebraic import AlgebraicNumber
from chebdyn.integrality import NearOrbitReport
from chebdyn.numerics import ApproxComplex, ApproxReal
from chebdyn.records import record

GENERATED = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
             "__lt__", "__le__", "__gt__", "__ge__", "__dict__", "__weakref__"}


def twin(cls, order=False):
    body = {k: v for k, v in vars(cls).items() if k not in GENERATED}
    return dataclasses.dataclass(frozen=True, order=order)(type(cls.__name__, (), body))


PlaceT = twin(Place, order=True)
PlaceSetT = twin(PlaceSet)
ApproxRealT = twin(ApproxReal)
ApproxComplexT = twin(ApproxComplex)
IntPolyT = twin(IntPoly)
AlgebraicNumberT = twin(AlgebraicNumber)
NearOrbitReportT = twin(NearOrbitReport)

REPORT = ("3", 5, 40, Fraction(1, 2), Fraction(1, 4), ((10, Fraction(1)),), (), 1, True)
ROOT2 = algebraic_number([-2, 0, 1], 1)

# (record, twin, args, kwargs): positional, keyword, mixed and default construction
CALLS = [
    (Place, PlaceT, (), {}),
    (Place, PlaceT, (None,), {}),
    (Place, PlaceT, (7,), {}),
    (Place, PlaceT, (), {"p": 11}),
    (PlaceSet, PlaceSetT, (frozenset({ARCH, Place(3)}),), {}),
    (PlaceSet, PlaceSetT, (), {"places": frozenset({ARCH})}),
    (ApproxReal, ApproxRealT, (1.5,), {}),
    (ApproxReal, ApproxRealT, (1.5, 0.25), {}),
    (ApproxReal, ApproxRealT, (1.5,), {"error_bound": 0.25}),
    (ApproxReal, ApproxRealT, (), {"error_bound": 0.25, "value": -2.0}),
    (ApproxReal, ApproxRealT, (float("nan"), 0.0), {}),
    (IntPoly, IntPolyT, ((-2, 0, 1),), {}),
    (IntPoly, IntPolyT, (), {"coeffs": ()}),
    (AlgebraicNumber, AlgebraicNumberT, (ROOT2.minpoly, 1), {}),
    (AlgebraicNumber, AlgebraicNumberT, (ROOT2.minpoly,), {"index": 1}),
    (NearOrbitReport, NearOrbitReportT, REPORT, {}),
    (NearOrbitReport, NearOrbitReportT, REPORT, {"orbit_size_constant": 2.5}),
    (NearOrbitReport, NearOrbitReportT, REPORT + (2.5,), {}),
]


def fields(x):
    return tuple(getattr(x, f.name) for f in dataclasses.fields(twin(type(x))))


@pytest.mark.parametrize("rec, tw, args, kwargs", CALLS)
def test_records_build_hash_and_print_as_their_dataclass_twins(rec, tw, args, kwargs):
    x, y, t = rec(*args, **kwargs), rec(*args, **kwargs), tw(*args, **kwargs)
    assert fields(x) == fields(t)
    assert hash(x) == hash(fields(x)) == hash(t)  # exactly: lru_cache keys, set order
    assert x == y and not x != y
    assert x != t and t != x  # a twin is another class, as for two dataclasses
    assert repr(x) == repr(t)
    assert str(x) == str(t)


def test_equality_reads_every_field_and_never_crosses_classes():
    assert ApproxReal(1.5, 0.25) != ApproxReal(1.5, 0.5)
    assert ApproxReal(1.5) != ApproxComplex(1.5)
    assert ApproxRealT(1.5) != ApproxComplexT(1.5)
    assert ApproxReal(1.5) != (1.5, 0.0)
    nan = float("nan")
    assert ApproxReal(nan) == ApproxReal(nan)  # the tuple compare checks identity first
    assert (ApproxReal(nan) == ApproxReal(float("nan"))) == (ApproxRealT(nan) == ApproxRealT(float("nan")))


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                                 # missing
    ((1.0, 0.0, 2.0), {}),                    # extra positional
    ((1.0,), {"bound": 0.0}),                 # unknown keyword
    ((1.0,), {"value": 2.0}),                 # repeated
    ((), {"error_bound": 0.0}),               # missing with a keyword given
])
def test_bad_arguments_raise_type_error(args, kwargs):
    for cls in (ApproxReal, ApproxRealT):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_records_are_frozen():
    for x in (Place(3), ApproxReal(1.0), IntPoly((1, 1)), ROOT2, NearOrbitReport(*REPORT)):
        for name in ("p", "value", "coeffs", "index", "beta", "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
            with pytest.raises(AttributeError):
                delattr(x, name)
    assert ApproxReal(1.0).value == 1.0


def test_post_init_still_validates():
    with pytest.raises(ValueError):
        ApproxReal(1.0, -1.0)
    with pytest.raises(ValueError):
        ApproxReal(value=1.0, error_bound=-1.0)
    with pytest.raises(DomainError):
        Place(4)
    with pytest.raises(DomainError):
        PlaceSet(frozenset({Place(3)}))


def test_places_sort_and_iterate_as_dataclasses():
    primes = [13, 2, 7, 3, 11, 5]
    assert [pl.p for pl in sorted(map(Place, primes))] == sorted(primes)
    assert [pl.p for pl in sorted(map(Place, primes), reverse=True)] == [pl.p for pl in sorted(map(PlaceT, primes), reverse=True)]
    assert Place(2) < Place(3) <= Place(3) and Place(5) > Place(3) >= Place(3)
    for cls in (Place, PlaceT, ApproxReal, ApproxRealT):
        with pytest.raises(TypeError):  # None against a prime; a record with no order
            cls(None) < cls(2) if cls in (Place, PlaceT) else cls(1.0) < cls(2.0)
    places = [None, *primes]
    assert [pl.p for pl in frozenset(map(Place, places))] == [pl.p for pl in frozenset(map(PlaceT, places))]
    assert str(PlaceSet.parse("13,inf,2")) == "inf,2,13"


def test_methods_written_in_the_class_body_are_kept():
    @record
    class Labelled:
        name: str
        weight: int = 1

        def __repr__(self):
            return f"<{self.name}>"

        def __str__(self):
            return self.name.upper()

    x = Labelled("a")
    assert repr(x) == "<a>" and str(x) == "A" and x == Labelled("a", 1)
    assert str(Place(None)) == "inf" and repr(Place(None)) == "Place(p=None)"
    assert str(IntPoly((-2, 0, 1))) == str(IntPolyT((-2, 0, 1)))


def test_records_key_an_lru_cache():
    calls = []

    @lru_cache(maxsize=None)
    def degree(alpha):
        calls.append(alpha)
        return alpha.degree

    again = algebraic_number([-2, 0, 1], 1)
    assert again is not ROOT2 and degree(ROOT2) == degree(again) == 2
    assert len(calls) == 1


def test_record_helper_writes_no_source_and_loads_no_introspection():
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" / "chebdyn" / "records.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    imports = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imports |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert not names & {"exec", "eval", "compile"}
    assert not imports & {"dataclasses", "inspect"}
