"""The frozen-record contract of every dataclass in richgit.

Each record class is frozen and slotted: no instance __dict__, no field
assignment, and the trusted constructors (which set fields through the
slot descriptors, skipping validation) build exactly what the validated
constructors build.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

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
from richgit.core import _index, _richardson
from richgit.criteria import AnalysisReport, ComponentReport
from richgit.diagrams import _partition
from richgit.oracle import OracleMismatch, PatternMismatch

from helpers import G49

V, W = (1, 3, 4, 6), (3, 5, 7, 9)


def record_classes():
    """Every dataclass defined in a richgit module, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(richgit.__path__, "richgit."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
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
    assert [f.name for f in dataclasses.fields(ComponentReport)] == [
        "pair", "source", "has_semistable"
    ]


def test_analysis_report_fields():
    assert [f.name for f in dataclasses.fields(AnalysisReport)] == [
        "pair", "nonempty", "has_semistable", "smooth_by_components",
        "smooth_by_pattern", "verdict", "dimension",
    ]


def test_copies_read_the_same_components():
    # components is a function of pair, rebuilt on each read of any copy
    rep = analyze((1, 3, 4, 6), (5, 7, 8, 9), G49)
    clones = (
        copy.copy(rep),
        copy.deepcopy(rep),
        pickle.loads(pickle.dumps(rep)),
        dataclasses.replace(rep),
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
        # CPython 3.10-3.13 raise TypeError, not FrozenInstanceError, for a
        # name that is not a field of a frozen slotted dataclass
        with pytest.raises((AttributeError, TypeError)):
            record.not_a_field = 1
        assert not hasattr(record, "not_a_field")

    def test_fields_cannot_be_assigned(self, record):
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, getattr(record, field.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field.name)

    def test_copies_and_pickles_equal(self, record):
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record and hash(clone) == hash(record)
            assert repr(clone) == repr(record)

    def test_replace_rebuilds_an_equal_record(self, record):
        clone = dataclasses.replace(record)
        assert clone == record and hash(clone) == hash(record)


def validated(record):
    """record rebuilt by its class's own constructor, field by field."""
    cls = type(record)
    return cls(**{f.name: getattr(record, f.name) for f in dataclasses.fields(cls)})


def trusted_and_validated():
    """(trusted result, validated result) for each trusted constructor."""
    v, w = GrassIndex(V, G49), GrassIndex(W, G49)
    rep = analyze((1, 3, 4, 6), (5, 7, 8, 9), G49)
    empty = analyze((1, 2, 6, 7), (3, 6, 7, 9), G49)
    comp = rep.components[0]
    return {
        "core._index": (_index(V, G49), GrassIndex(V, G49)),
        "core._richardson": (_richardson(v, w), RichardsonId(v, w)),
        "diagrams._partition": (_partition((0, 1, 1, 2), G49), BoxedPartition((0, 1, 1, 2), G49)),
        # components builds each kept component's pair trusted
        "criteria.analyze-component": (
            comp,
            ComponentReport(RichardsonId(comp.pair.v, comp.pair.w), comp.source, comp.has_semistable),
        ),
        "criteria.analyze": (rep, validated(rep)),
        "criteria.analyze-empty-quotient": (empty, validated(empty)),
    }


@pytest.mark.parametrize("name", sorted(trusted_and_validated()))
def test_trusted_constructor_matches_the_validated_one(name):
    # a slot the trusted constructor left unset raises AttributeError in ==, hash or repr
    trusted, checked = trusted_and_validated()[name]
    assert type(trusted) is type(checked)
    assert trusted == checked
    assert hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked)
    assert validated(trusted) == trusted


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
        dataclasses.replace(record, **change)

