"""The frozen-record contract of every record class in richgit.

Each record class is a frozen, slotted core._Record: no instance
__dict__, no assignment, equality and hashing over its fields, copies
that go through the validating constructor, and a generated trusted
constructor, cls._trusted (which sets the fields through the slot
descriptors, skipping validation), that builds exactly what the
validated constructor builds.  analyze builds its reports with those
trusted constructors, and they are held to the same rule; no module
outside core binds a record field's slot setter.
"""

from __future__ import annotations

import ast
import copy
import importlib
import pickle
import pkgutil
import sys
from pathlib import Path

import pytest

import richgit
from richgit import (
    BoxedPartition,
    ContextMismatch,
    EmptyRichardson,
    GrassCtx,
    GrassError,
    GrassIndex,
    NotStrictlyIncreasing,
    RichardsonId,
    SingularComponent,
    analyze,
    census,
    minimal_pair,
    richardson_singular_components,
    to_partition,
    verify,
)
from richgit.core import _index, _record, _Record, _richardson
from richgit.criteria import AnalysisReport, ComponentReport
from richgit.diagrams import _partition
from richgit.oracle import ConsistencyFailure, OracleMismatch, PatternMismatch

from helpers import G49

V, W = (1, 3, 4, 6), (3, 5, 7, 9)


def record_classes():
    """Every _Record subclass defined in a richgit module, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(richgit.__path__, "richgit."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, _Record)
                and obj is not _Record
                and obj.__module__ == module.__name__
            ):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def samples():
    """One instance of every record class, built the way the library builds it."""
    v, w = GrassIndex(V, G49), GrassIndex(W, G49)
    rid = RichardsonId(v, w)
    rep = analyze(V, W, G49)
    singular = analyze((1, 3, 4, 6), (5, 7, 8, 9), G49)
    mismatch = PatternMismatch(v=v, w=w, smooth_by_components=True, smooth_by_pattern=False)
    report = verify([G49])
    return [
        G49,
        v,
        rid,
        minimal_pair(G49),
        to_partition(w),
        richardson_singular_components(rid)[0],
        singular.components[0],
        rep,
        OracleMismatch(w=w, formula=(v,), oracle=()),
        ConsistencyFailure(clause="A", index=w, holds=False),
        mismatch,
        census(G49),
        report.examples[0],
        report,
    ]


SAMPLES = samples()


def test_every_record_class_has_a_sample():
    assert set(record_classes().values()) == {type(s) for s in SAMPLES}


def test_component_report_extends_singular_component():
    assert issubclass(ComponentReport, SingularComponent)
    assert ComponentReport.__match_args__ == ("pair", "source", "has_semistable")
    assert ComponentReport.__slots__ == ("has_semistable",)


def test_analysis_report_fields():
    assert AnalysisReport.__match_args__ == (
        "pair", "nonempty", "has_semistable", "smooth_by_components",
        "smooth_by_pattern", "verdict", "dimension",
    )


def test_equal_fields_of_another_class_are_unequal():
    @_record
    class Twin(_Record):
        k: int
        n: int

    twin = Twin(4, 9)
    assert twin.__match_args__ == G49.__match_args__ and (twin.k, twin.n) == (G49.k, G49.n)
    assert twin != G49 and G49 != twin


def test_copies_read_the_same_components():
    # components is a function of pair, rebuilt on each read of any copy
    rep = analyze((1, 3, 4, 6), (5, 7, 8, 9), G49)
    clones = (
        copy.copy(rep),
        copy.deepcopy(rep),
        pickle.loads(pickle.dumps(rep)),
        rep.__replace__(),
    )
    assert rep.components
    for clone in clones:
        assert clone.components == rep.components


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
class TestFrozenSlottedRecord:
    def test_no_instance_dict(self, record):
        cls = type(record)
        assert "__slots__" in vars(cls)
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert not hasattr(record, "not_a_field")

    def test_fields_cannot_be_assigned(self, record):
        for name in type(record).__match_args__:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, object())
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value

    def test_equality_hash_and_repr_read_every_field(self, record):
        cls = type(record)
        values = tuple(getattr(record, name) for name in cls.__match_args__)
        assert hash(record) == hash(values)
        assert repr(record) == f"{cls.__qualname__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(cls.__match_args__, values)
        ) + ")"
        for changed in cls.__match_args__:
            # the record with one field swapped for a foreign object, which
            # only the trusted constructor accepts
            other = cls._trusted(
                *(object() if name == changed else value
                  for name, value in zip(cls.__match_args__, values))
            )
            assert other != record and record != other

    def test_copies_and_pickles_equal(self, record):
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record and hash(clone) == hash(record)
            assert repr(clone) == repr(record)

    def test_replace_rebuilds_an_equal_record(self, record):
        clones = [record.__replace__()]
        if sys.version_info >= (3, 13):
            clones.append(copy.replace(record))
        for clone in clones:
            assert clone == record and hash(clone) == hash(record)


def validated(record):
    """record rebuilt by its class's own constructor, field by field."""
    cls = type(record)
    return cls(**{name: getattr(record, name) for name in cls.__match_args__})


# the library's names for the generated constructors it calls
ALIASES = {GrassIndex: "core._index", RichardsonId: "core._richardson",
           BoxedPartition: "diagrams._partition"}


def trusted_and_validated():
    """(trusted result, validated result): cls._trusted on each sample's fields, and analyze."""
    cases = {}
    for record in SAMPLES:
        cls = type(record)
        module = cls.__module__.removeprefix("richgit.")
        name = ALIASES.get(cls, f"{module}.{cls.__qualname__}._trusted")
        fields = (getattr(record, f) for f in cls.__match_args__)
        cases[name] = (cls._trusted(*fields), validated(record))
    rep = analyze((1, 3, 4, 6), (5, 7, 8, 9), G49)
    empty = analyze((1, 2, 6, 7), (3, 6, 7, 9), G49)
    comp = rep.components[0]
    # analyze builds its records trusted, and components each kept component's pair
    cases["criteria.analyze-component"] = (
        comp,
        ComponentReport(RichardsonId(comp.pair.v, comp.pair.w), comp.source, comp.has_semistable),
    )
    cases["criteria.analyze"] = (rep, validated(rep))
    cases["criteria.analyze-empty-quotient"] = (empty, validated(empty))
    return cases


@pytest.mark.parametrize("name", sorted(trusted_and_validated()))
def test_trusted_constructor_matches_the_validated_one(name):
    # a slot the trusted constructor left unset raises AttributeError in ==, hash or repr
    trusted, checked = trusted_and_validated()[name]
    assert type(trusted) is type(checked)
    assert trusted == checked
    assert hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked)
    assert validated(trusted) == trusted


def slot_setters():
    """(module, owner) for each ``owner.__set__`` taken in a richgit module other than core."""
    found = []
    for path in sorted(Path(richgit.__file__).parent.glob("*.py")):
        if path.stem != "core":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr == "__set__":
                    found.append((path.stem, ast.unparse(node.value)))
    return found


def test_only_core_binds_record_slot_setters():
    # records are built by the constructors core._record generates; the
    # one setter bound elsewhere fills the minimal-pair memo, a slot of
    # core._PairMemo that is no record field
    assert slot_setters() == [("criteria", "_PairMemo._minimal")]


@pytest.mark.parametrize(
    "trusted, cls, fields, error",
    [
        (_index, GrassIndex, ((1, 3, 4, 10), G49), GrassError),
        (_richardson, RichardsonId, (GrassIndex(W, G49), GrassIndex(V, G49)), EmptyRichardson),
        (_partition, BoxedPartition, ((0, 1, 1), G49), GrassError),
    ],
    ids=["index", "richardson", "partition"],
)
def test_trusted_constructor_skips_post_init(trusted, cls, fields, error):
    # the library's unchecked constructors are the generated ones, and
    # build what __post_init__ refuses
    assert trusted is cls._trusted
    with pytest.raises(error):
        cls(*fields)
    record = trusted(*fields)
    assert type(record) is cls
    assert tuple(getattr(record, name) for name in cls.__match_args__) == fields


@pytest.mark.parametrize(
    "record, change, error",
    [
        (G49, {"k": 0}, GrassError),
        (GrassIndex(V, G49), {"entries": (3, 2, 5, 7)}, NotStrictlyIncreasing),
        (_index(V, G49), {"entries": (1, 3, 4, 10)}, GrassError),
        (
            _richardson(_index(V, G49), _index(W, G49)),
            {"v": _index(W, G49), "w": _index(V, G49)},
            EmptyRichardson,
        ),
        (
            RichardsonId(GrassIndex(V, G49), GrassIndex(W, G49)),
            {"w": GrassIndex((2, 3, 4), GrassCtx(3, 7))},
            ContextMismatch,
        ),
        (to_partition(GrassIndex(W, G49)), {"parts": (2, 1, 1, 0)}, GrassError),
        (_partition((0, 1, 1, 2), G49), {"parts": (0, 1, 1)}, GrassError),
    ],
    ids=["ctx", "index", "trusted-index", "trusted-richardson", "richardson-ctx",
         "partition", "trusted-partition"],
)
def test_replace_runs_post_init_validation(record, change, error):
    with pytest.raises(error):
        record.__replace__(**change)


@pytest.mark.parametrize(
    "record, error",
    [
        (_index((1, 3, 4, 10), G49), GrassError),
        (_richardson(_index(W, G49), _index(V, G49)), EmptyRichardson),
        (_partition((0, 1, 1), G49), GrassError),
    ],
    ids=["trusted-index", "trusted-richardson", "trusted-partition"],
)
def test_copies_run_post_init_validation(record, error):
    # a trusted record that its validated constructor refuses cannot be
    # copied or unpickled, as each copy is rebuilt by that constructor
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        with pytest.raises(error):
            clone(record)

