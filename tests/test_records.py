"""The contract of the 15 record types: what a frozen dataclass gave them.

A record's fields are its constructor's arguments.  Each type compares
and hashes by its fields, against its own type only, has the repr of its
constructor call, refuses assignment and deletion, is built positionally
or by keyword, and survives pickle, copy and deepcopy.  The expected
reprs are hard-coded: a frozen dataclass with the same fields prints
the same.  Every subclass of the base `_Record` in the package is one
of the 15, so a new record type cannot skip the contract.
"""

import copy
import importlib
import inspect
import operator
import pickle
import pkgutil

import pytest

import flagtke
from flagtke.catalog import Picard2Class, TableRow, catalog_rows, classify_picard2
from flagtke.flag import (
    CohomologyClass,
    KahlerClass,
    ParabolicData,
    SnowCheck,
    parabolic,
    snow_check,
)
from flagtke.invariants import (
    GrlbReport,
    TkeResult,
    TwistedSolution,
    VolumeBoundReport,
    grlb_report,
    tke_exists,
    tke_solve_from_kahler,
    volume_bound_report,
    volume_class,
)
from flagtke.rootsys import LieType, RootSystem, _Record, build_root_system
from flagtke.sweep import CHECKS, SweepConfig, SweepFailure, SweepResult, run_sweep


def _a2():
    return parabolic("A2", ())


def _failure(detail):
    return SweepFailure("A2/P", "snow", detail, 'flagtke flag A2 --theta ""')


# type: (field names in order, sample, an unequal sample, repr of the sample)
RECORDS = {
    LieType: (
        ("series", "rank"),
        lambda: LieType("D", 5),
        lambda: LieType("D", 6),
        "LieType(series='D', rank=5)",
    ),
    RootSystem: (
        ("lie_type",),
        lambda: build_root_system.__wrapped__("A1"),
        lambda: build_root_system.__wrapped__("A2"),
        "RootSystem(lie_type=LieType(series='A', rank=1))",
    ),
    CohomologyClass: (
        ("coords",),
        lambda: CohomologyClass((1, "-1/2")),
        lambda: CohomologyClass((1, 2)),
        "CohomologyClass(coords=(Fraction(1, 1), Fraction(-1, 2)))",
    ),
    KahlerClass: (
        ("coords",),
        lambda: KahlerClass((1, "3/2")),
        lambda: KahlerClass((1, 2)),
        "KahlerClass(coords=(Fraction(1, 1), Fraction(3, 2)))",
    ),
    ParabolicData: (
        ("rs", "theta"),
        lambda: parabolic("A1", ()),
        lambda: parabolic("A2", (1,)),
        "ParabolicData(rs=RootSystem(lie_type=LieType(series='A', rank=1)), theta=())",
    ),
    SnowCheck: (
        ("degree", "bound", "ok", "equality"),
        lambda: snow_check(parabolic("A1", ())),
        lambda: snow_check(_a2()),
        "SnowCheck(degree=2, bound=2, ok=True, equality=True)",
    ),
    TkeResult: (
        ("exists", "metric", "margins"),
        lambda: tke_exists(_a2(), (1, 3)),
        lambda: tke_exists(_a2(), (1, 1)),
        "TkeResult(exists=False, metric=None, margins={1: Fraction(1, 1), 2: Fraction(-1, 1)})",
    ),
    TwistedSolution: (
        ("omega", "beta"),
        lambda: tke_solve_from_kahler(_a2(), (1, 2)),
        lambda: tke_solve_from_kahler(_a2(), (2, 1)),
        "TwistedSolution(omega=KahlerClass(coords=(Fraction(1, 1), Fraction(2, 1))), "
        "beta=CohomologyClass(coords=(Fraction(1, 1), Fraction(0, 1))))",
    ),
    GrlbReport: (
        ("value", "argmin"),
        lambda: grlb_report(_a2(), (1, 2)),
        lambda: grlb_report(_a2(), (2, 1)),
        "GrlbReport(value=Fraction(1, 1), argmin=(2,))",
    ),
    VolumeBoundReport: (
        ("grlb", "volume", "r_pow_vol", "degree", "snow", "left_ok", "right_ok",
         "left_equality", "right_equality"),
        lambda: volume_bound_report(_a2(), (1, 2)),
        lambda: volume_bound_report(_a2(), (2, 2)),
        "VolumeBoundReport(grlb=GrlbReport(value=Fraction(1, 1), argmin=(2,)), "
        "volume=Fraction(18, 1), r_pow_vol=Fraction(18, 1), degree=48, snow=64, "
        "left_ok=True, right_ok=True, left_equality=False, right_equality=False)",
    ),
    SweepConfig: (
        ("max_rank", "samples_per_flag", "seed", "checks"),
        SweepConfig,
        lambda: SweepConfig(seed=1),
        "SweepConfig(max_rank=4, samples_per_flag=10, seed=0, "
        "checks=('snow', 'volbound', 'cross', 'cscK', 'roundtrip'))",
    ),
    SweepFailure: (
        ("flag", "check", "detail", "reproducer"),
        lambda: _failure("degree 1 > bound 0"),
        lambda: _failure("degree 2 > bound 0"),
        "SweepFailure(flag='A2/P', check='snow', detail='degree 1 > bound 0', "
        "reproducer='flagtke flag A2 --theta \"\"')",
    ),
    SweepResult: (
        ("config", "flags", "samples", "checks_run", "failures"),
        lambda: run_sweep(SweepConfig(1, 1, 0)),
        lambda: run_sweep(SweepConfig(1, 2, 0)),
        "SweepResult(config=SweepConfig(max_rank=1, samples_per_flag=1, seed=0, "
        "checks=('snow', 'volbound', 'cross', 'cscK', 'roundtrip')), flags=1, samples=1, "
        "checks_run=5, failures=())",
    ),
    Picard2Class: (
        ("heights", "summands", "family"),
        lambda: classify_picard2(_a2()),
        lambda: classify_picard2(parabolic("B2", ())),
        "Picard2Class(heights=(1, 1), summands=3, family=<Family.I: 'I'>)",
    ),
    TableRow: (
        ("family", "group", "lie_type", "complement", "params", "expected", "computed",
         "match", "heights", "summands", "family_consistent", "note"),
        lambda: catalog_rows(4)[0],
        lambda: catalog_rows(4)[1],
        "TableRow(family='I', group='SO(8)/U(1)xU(3)', lie_type=LieType(series='D', rank=4), "
        "complement=(3, 4), params=(('l', 4),), expected=(4, 4), computed=(4, 4), match=True, "
        "heights=(1, 1), summands=3, family_consistent=True, note='')",
    ),
}
ORDERED = (LieType,)
ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    names, make, make_other, text = RECORDS[cls]
    a, b, other = make(), make(), make_other()
    assert type(a) is cls and a is not b
    values = [getattr(a, name) for name in names]

    # fields, constructor (positional and by keyword) and repr
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in names
    ]
    assert cls(*values) == a == cls(**dict(zip(names, values)))
    assert repr(a) == text
    if cls is SweepConfig:
        assert a == SweepConfig(4, 10, 0, CHECKS)

    # equality and hash by the fields, within the type only
    assert a == b and not a != b and a != other and not a == other
    if cls is TkeResult:  # a dict field: compares, does not hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    if cls in (KahlerClass, CohomologyClass):  # the same coordinates, the other type
        k, c = KahlerClass((1, 2)), CohomologyClass((1, 2))
        assert k != c and c != k and k.coords == c.coords
    for other_cls, (_, make_foreign, _, _) in RECORDS.items():
        if other_cls is not cls:
            foreign = make_foreign()
            assert a != foreign
            with pytest.raises(TypeError):
                a < foreign  # noqa: B015

    # ordering as the tuple of fields, on LieType only
    for op in ORDERINGS:
        if cls in ORDERED:
            key = tuple(values)
            assert op(a, other) == op(key, tuple(getattr(other, n) for n in names))
            assert op(a, b) == op(key, key)
        else:
            with pytest.raises(TypeError):
                op(a, other)

    # immutable: no field, and no new attribute, can be set or deleted
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert [getattr(a, name) for name in names] == values

    # pickle and copies rebuild an equal record; a flag's memo starts empty
    if cls is ParabolicData:
        volume_class(a, (3,))
        assert a._memo
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is cls and clone == a and repr(clone) == text
        if cls is not TkeResult:
            assert hash(clone) == hash(a)
        if cls is ParabolicData:
            assert not clone._memo
            assert volume_class(clone, (3,)) == volume_class(a, (3,))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_are_the_constructor_arguments(cls):
    assert tuple(inspect.signature(cls).parameters) == cls._fields == RECORDS[cls][0]


def test_every_record_type_is_in_the_contract():
    for module in pkgutil.iter_modules(flagtke.__path__):
        importlib.import_module(f"flagtke.{module.name}")
    found, todo = set(), [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    assert found == set(RECORDS)


WITHOUT_DEFAULTS = [
    cls for cls in RECORDS
    if all(p.default is p.empty for p in inspect.signature(cls).parameters.values())
]


def test_only_the_sweep_config_has_defaults():
    assert set(RECORDS) - set(WITHOUT_DEFAULTS) == {SweepConfig}


@pytest.mark.parametrize("cls", WITHOUT_DEFAULTS, ids=lambda cls: cls.__name__)
def test_a_record_takes_exactly_its_fields(cls):
    names, make, _, _ = RECORDS[cls]
    values = [getattr(make(), name) for name in names]
    for args, kwargs in ((values[:-1], {}), ([*values, None], {}),
                         ((), {**dict(zip(names, values)), "extra": None})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
