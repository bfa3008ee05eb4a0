"""Value semantics of the record, value and report types.

Records (`typing.NamedTuple`) carry results; value types (slotted classes
on `picard.Frozen`) carry validated inputs and behaviour, and the four
reports are value types on `report.Report`.  All keep the constructors,
attribute names, equality, hash, repr and pickling that the frozen
dataclasses they replace had; a value type also compares unequal to a
plain tuple of its fields, and a report still answers the dataclass
protocol as its frozen dataclass did.
"""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import bigsurf
from bigsurf import (BignessVerdict, CrossCheckReport, DivisorClass, DomainError,
                     FamilyParams, Generic, LineConic, NegativeClassTable, PicardLattice,
                     RootSystemReport, SweepReport, ThreeLines, WitnessReport, ZariskiChecks,
                     ZariskiReport, blowup_p2, classify_anticanonical)
from bigsurf.picard import Frozen, PointConfiguration
from bigsurf.report import Report
from oracles import LogCanonicalResult, blowup_hirzebruch, dense_gram

D = DivisorClass([-3, 1])
VERDICT = classify_anticanonical(LineConic(2, 5))
FAMILY = FamilyParams(2, 3, [2, 3, 7])
CHECKS = ZariskiChecks(*(True,) * 6)
A1 = (((1, -1),), ((1, -1),), ((-2,),), (("A", 1),), ())

# type, positional arguments, arguments of an unequal instance, the fields
# the arguments give (in constructor order), and the parameter defaults
SPECS = [
    (DivisorClass, ([2, 4], 6), ((1, 2), 1), {"nums": (1, 2), "den": 3}, {"den": 1}),
    (PicardLattice, (((1,),), 2, D), (((1,),), 2, -D),
     {"head": ((1,),), "rank": 2, "canonical": D}, {}),
    (Generic, (3,), (4,), {"r": 3}, {}),
    (LineConic, (2, 5), (2, 5, 1), {"a": 2, "b": 5, "both": 0}, {"both": 0}),
    (ThreeLines, (1, 2, 3, True), (1, 2, 3),
     {"a1": 1, "a2": 2, "a3": 3, "p12": True, "p13": False, "p23": False},
     {"p12": False, "p13": False, "p23": False}),
    (FamilyParams, (2, 3, [2, 3, 7]), (2, 3, (2, 3, 8)), {"n": 2, "k": 3, "a": (2, 3, 7)}, {}),
    (WitnessReport, ("conic_c", True, D, D, D, D), ("conic_c", False, D, D, D, D),
     {"example": "conic_c", "holds": True, "lhs": D, "big_part": D, "effective_part": D,
      "residual": D, "n": None}, {"n": None}),
    (CrossCheckReport, (VERDICT, True, True, True, True), (VERDICT, True, False, True, True),
     {"verdict": VERDICT, "lattice_big": True, "agrees": True, "v_orthogonal": True,
      "sign_consistent": True}, {}),
    (NegativeClassTable, (1, (D,), ()), (1, (), ()),
     {"r": 1, "minus_one_classes": (D,), "minus_two_roots": ()}, {}),
    (ZariskiChecks, (True,) * 6, (True,) * 5 + (False,),
     dict.fromkeys(["p_dot_sigma_zero", "p_dot_fibers_zero", "p_dot_n_zero", "n_effective",
                    "n_support_negative_definite", "sum_is_minus_canonical"], True), {}),
    (LogCanonicalResult, (True, Fraction(0)), (True, None),
     {"log_canonical": True, "coefficient": Fraction(0)}, {}),
    (BignessVerdict, (True, "ii", Fraction(13, 10), D, Fraction(-30), True),
     (True, "ii", Fraction(13, 10), D, Fraction(-30), None),
     {"big": True, "case": "ii", "inequality_lhs": Fraction(13, 10), "v": D,
      "v_squared": Fraction(-30), "effective": True}, {}),
    (SweepReport, (3, 8, (), ()), (3, 8, ("x",), ()),
     {"line_conic_count": 3, "three_lines_count": 8, "disagreements": (),
      "flag_violations": ()}, {}),
    (RootSystemReport, A1, A1[:3] + ((("A", 2),), ()),
     dict(zip(["roots", "simple_roots", "cartan", "components", "graph"], A1)), {}),
    (ZariskiReport, (FAMILY, D, -D, Fraction(42, 43), CHECKS, Fraction(44, 43), False),
     (FAMILY, D, -D, Fraction(42, 43), CHECKS, Fraction(44, 43), True),
     {"params": FAMILY, "positive_part": D, "negative_part": -D, "p_squared": Fraction(42, 43),
      "checks": CHECKS, "lc_coefficient": Fraction(44, 43), "log_canonical": False}, {}),
]
IDS = [spec[0].__name__ for spec in SPECS]
REPORT_TYPES = {BignessVerdict, SweepReport, RootSystemReport, ZariskiReport}
VALUE_TYPES = {DivisorClass, PicardLattice, Generic, LineConic, ThreeLines,
               FamilyParams} | REPORT_TYPES
REPORT_SPECS = [spec for spec in SPECS if spec[0] in REPORT_TYPES]


@pytest.mark.parametrize("cls, args, other, fields, defaults", SPECS, ids=IDS)
def test_constructor_arguments_defaults_and_attribute_names(cls, args, other, fields, defaults):
    obj = cls(*args)
    for name, value in fields.items():
        assert getattr(obj, name) == value
        assert type(getattr(obj, name)) is type(value)
    parameters = inspect.signature(cls).parameters.values()
    assert [p.name for p in parameters] == list(fields)
    assert {p.name: p.default for p in parameters if p.default is not p.empty} == defaults
    assert cls(**dict(zip(fields, args))) == obj


@pytest.mark.parametrize("cls, args, other, fields, defaults", SPECS, ids=IDS)
def test_assignment_raises(cls, args, other, fields, defaults):
    obj = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 0
    assert {name: getattr(obj, name) for name in fields} == fields


@pytest.mark.parametrize("cls, args, other, fields, defaults", SPECS, ids=IDS)
def test_equality_and_hash_by_value(cls, args, other, fields, defaults):
    obj = cls(*args)
    same = cls(*pickle.loads(pickle.dumps(args)))  # equal arguments, distinct objects
    assert obj == same and not obj != same
    assert hash(obj) == hash(same)
    assert obj != cls(*other) and not obj == cls(*other)
    assert len({obj, same, cls(*other)}) == 2


@pytest.mark.parametrize("cls, args, other, fields, defaults",
                         [spec for spec in SPECS if spec[0] in VALUE_TYPES],
                         ids=[spec[0].__name__ for spec in SPECS if spec[0] in VALUE_TYPES])
def test_value_type_is_not_equal_to_a_tuple(cls, args, other, fields, defaults):
    obj, values = cls(*args), tuple(fields.values())
    assert obj != values and values != obj
    assert not isinstance(obj, tuple)


@pytest.mark.parametrize("cls, args, other, fields, defaults",
                         [spec for spec in SPECS if spec[0] in VALUE_TYPES],
                         ids=[spec[0].__name__ for spec in SPECS if spec[0] in VALUE_TYPES])
def test_value_type_equals_only_its_own_class(cls, args, other, fields, defaults):
    # as a frozen dataclass's: a subclass or a dataclass with the same field
    # values is a different value
    obj = cls(*args)
    subclass = type(cls.__name__, (cls,), {"__slots__": ()})
    twin = dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)
    for different in (subclass(*args), twin(*fields.values())):
        assert obj != different and different != obj
        assert not obj == different


@pytest.mark.parametrize("cls, args, other, fields, defaults", SPECS, ids=IDS)
def test_repr_lists_the_fields(cls, args, other, fields, defaults):
    expected = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(*args)) == f"{cls.__name__}({expected})"


def test_report_repr_text_is_unchanged():
    assert repr(VERDICT) == (
        "BignessVerdict(big=True, case='ii', inequality_lhs=Fraction(13, 10), "
        "v=DivisorClass(nums=(10, -5, -5, -4, -4, -4, -4, -4), den=1), "
        "v_squared=Fraction(-30, 1), effective=True)")


@pytest.mark.parametrize("cls, args, other, fields, defaults", SPECS, ids=IDS)
def test_pickle_round_trip(cls, args, other, fields, defaults):
    obj = cls(*args)
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is cls and back == obj and hash(back) == hash(obj)


def test_pickled_lattice_rebuilds_its_cache():
    # a lattice pickles as its head, rank and canonical class, and the
    # dense form is rebuilt from them
    lattice = blowup_hirzebruch(2, [(1, True)], 1)
    back = pickle.loads(pickle.dumps(lattice))
    assert back == lattice
    assert back.gram_of([[(i, 1)] for i in range(back.rank)]) == dense_gram(lattice)


@pytest.mark.parametrize("build, plain", [
    (lambda: blowup_p2(True), lambda: blowup_p2(1)),
    (lambda: blowup_hirzebruch(True, [(True, True)], True),
     lambda: blowup_hirzebruch(1, [(1, True)], 1)),
], ids=["blowup_p2", "blowup_hirzebruch"])
def test_lattice_builders_store_plain_ints(build, plain):
    # a lattice carries no model tag: its counts live in its rank
    lattice = build()
    assert type(lattice.rank) is int and lattice == plain()
    assert repr(lattice) == repr(plain())
    back = pickle.loads(pickle.dumps(lattice))
    assert back == plain() and type(back.rank) is int


INVALID = [
    (DivisorClass, ((1, 2), 0), ValueError, "den must be an int >= 1"),
    (DivisorClass, ((1, 2), True), ValueError, "den must be an int >= 1"),
    (DivisorClass, ((1, 2.0), 1), TypeError, "numerators must be ints"),
    (DivisorClass, ((Fraction(1, 2),), 1), TypeError, "numerators must be ints"),
    (DivisorClass, (5,), TypeError, None),
    (Generic, (-1,), DomainError, "r must be a non-negative integer"),
    (LineConic, (-1, 2), DomainError, "point counts must be non-negative"),
    (LineConic, (1, -2), DomainError, "point counts must be non-negative"),
    (LineConic, (1, 2, 3), DomainError, r"both must satisfy 0 <= both <= 2"),
    (LineConic, (1, 2, -1), DomainError, r"both must satisfy 0 <= both <= 2"),
    (ThreeLines, (1, -1, 2), DomainError, "point counts must be non-negative"),
    (FamilyParams, (1, 3, (2, 3, 7)), DomainError, r"n must satisfy n >= 2"),
    (FamilyParams, (2, 4, (2, 3, 7)), DomainError, r"k must satisfy 3 <= k <= n \+ 1"),
    (FamilyParams, (3, 3, (2, 3)), DomainError, "a must list exactly k multiplicities"),
    (FamilyParams, (2, 3, (0, 3, 7)), DomainError, r"every a_j must satisfy a_j >= 1"),
    (FamilyParams, (2, 3, (2, 2, 2)), DomainError, r"a must satisfy sum\(1/a_j\) < k - 2"),
    (FamilyParams, (2, 3, 7), TypeError, None),
] + [(cls, args[:-1], TypeError, None) for cls, args, _, _, defaults in SPECS if not defaults] + [
    (cls, args + (None,) * (len(fields) + 1 - len(args)), TypeError, None)
    for cls, args, _, fields, _ in SPECS]


@pytest.mark.parametrize("cls, args, exc, match", INVALID,
                         ids=[f"{cls.__name__}{args!r}" for cls, args, _, _ in INVALID])
def test_invalid_construction_raises(cls, args, exc, match):
    with pytest.raises(exc, match=match) as info:
        cls(*args)
    if exc is not DomainError:
        assert not isinstance(info.value, DomainError)


def test_unknown_keyword_raises_type_error():
    for cls, args, _, fields, _ in SPECS:
        with pytest.raises(TypeError):
            cls(*args, unknown=1)


@pytest.mark.parametrize("cls, args, other, fields, defaults", SPECS, ids=IDS)
def test_repeated_field_raises_type_error(cls, args, other, fields, defaults):
    with pytest.raises(TypeError):
        cls(*args, **{next(iter(fields)): args[0]})


@pytest.mark.parametrize("base", [Frozen, PointConfiguration, Report])
def test_a_fieldless_base_cannot_be_instantiated(base):
    for args in ((), (1,)):
        with pytest.raises(TypeError, match=f"^{base.__name__} has no fields: it is a base"):
            base(*args)


@pytest.mark.parametrize("cls, args, other, fields, defaults", REPORT_SPECS,
                         ids=[spec[0].__name__ for spec in REPORT_SPECS])
def test_report_answers_the_dataclass_protocol_as_its_frozen_dataclass(
        cls, args, other, fields, defaults):
    """replace, fields, asdict and is_dataclass give on a report what they
    give on the frozen dataclass with the same fields."""
    twin_cls = dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)
    obj, twin = cls(*args), twin_cls(*args)
    assert repr(obj) == repr(twin) and hash(obj) == hash(twin)
    assert dataclasses.is_dataclass(obj) and dataclasses.is_dataclass(cls)
    assert [f.name for f in dataclasses.fields(obj)] == list(fields)
    assert [f.name for f in dataclasses.fields(cls)] == list(fields)
    assert dataclasses.asdict(obj) == dataclasses.asdict(twin) == fields
    assert dataclasses.astuple(obj) == dataclasses.astuple(twin) == args
    changes = dict(zip(fields, other))
    rebuilt = dataclasses.replace(obj, **changes)
    assert type(rebuilt) is cls and rebuilt == cls(*other)
    assert repr(rebuilt) == repr(dataclasses.replace(twin, **changes))
    same = dataclasses.replace(obj)
    assert same == obj and same is not obj
    for value in (obj, twin):
        with pytest.raises(TypeError):
            dataclasses.replace(value, unknown=1)


def test_only_the_report_types_remain_dataclasses():
    """Exactly the four reports answer the dataclass protocol, so that
    `dataclasses.replace` still rebuilds them where the benchmark's tests
    do.  They are `Report` values, not dataclasses: their fields are built
    on first read, and the fieldless bases answer nothing."""
    found = set()
    for info in pkgutil.iter_modules(bigsurf.__path__):
        module = importlib.import_module(f"bigsurf.{info.name}")
        found.update(value for value in vars(module).values()
                     if isinstance(value, type) and dataclasses.is_dataclass(value)
                     and value.__module__ == module.__name__)
    assert found == REPORT_TYPES
    assert all(issubclass(cls, Report) and "__dataclass_params__" not in vars(cls)
               for cls in found)
    for base in (Frozen, PointConfiguration, Report):
        assert not dataclasses.is_dataclass(base)
        assert not hasattr(base, "__dataclass_fields__")


def test_traced_methods_stay_on_their_classes():
    """The benchmark's tracer rebinds these names in the class dicts."""
    assert {"__add__", "__sub__", "__mul__", "__rmul__"} <= set(vars(DivisorClass))
    assert "pair" in vars(PicardLattice)
    for cls in VALUE_TYPES:
        assert not hasattr(cls(*next(s[1] for s in SPECS if s[0] is cls)), "__dict__")


def test_records_replace_fields():
    report = CrossCheckReport(VERDICT, True, True, True, True)
    assert report._replace(agrees=False) == CrossCheckReport(VERDICT, True, False, True, True)
    assert not report._replace(v_orthogonal=False).ok
    assert ZariskiChecks(*(True,) * 6).all_pass
    assert not ZariskiChecks(*(True,) * 5, False).all_pass
