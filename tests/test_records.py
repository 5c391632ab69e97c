"""The package's immutable records, and what importing the CLI pulls in."""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from configspaces.core import Configuration, NonPositiveWeight, Restriction, Valuation
from configspaces.mobius import TYPE_I, Classification, RestBound
from configspaces.poly import AlgebraicRoot, Polynomial
from configspaces.probspace import (
    ConfiguredSpace,
    RealizationReport,
    SignedWord,
    canonical_space,
)
from configspaces.structure import RightAngledReport, SymmetricCountReport, star

SRC = Path(__file__).resolve().parents[1] / "src"
H = Fraction(1, 2)
ROOT = AlgebraicRoot(Polynomial([1, -2]), H, H)
EDGE = Configuration(2, ("a", "b"), (0b11,))

# Each record's fields in their declared order, with example values.
RECORDS = {
    Configuration: {"n": 2, "labels": ("a", "b"), "nubs": (0b11,)},
    Valuation: {"weights": (Fraction(1), H)},
    Restriction: {"vertices": 0b10, "config": Configuration(1, ("b",), ()), "index_map": (1,)},
    RestBound: {"sign": "positive", "lo": Fraction(1, 3), "hi": H},
    Classification: {
        "critical_root": ROOT, "attained_at": (0,), "config_type": TYPE_I, "rest_at_t0": Fraction(0),
    },
    AlgebraicRoot: {"witness": Polynomial([1, -2]), "lo": H, "hi": H},
    SignedWord: {"positives": 0b01, "negatives": 0b10},
    ConfiguredSpace: {
        "config": EDGE, "valuation": Valuation.uniform(2), "t": Fraction(1, 4), "scale": 2,
        "masses": {0: 1, 1: 1}, "_products": (4, {0: 4, 1: 1}),
    },
    RealizationReport: {
        "marginals_ok": True, "independence_ok": True, "exclusivity_ok": True,
        "covering": False, "rest": H, "violations": [],
    },
    RightAngledReport: {
        "type_one": True, "irreducible": True, "critical_root": ROOT,
        "simple_root": True, "relative_positive": None, "monotone": True,
    },
    SymmetricCountReport: {"counts": (1, 2), "eta": (2,), "formula_ok": True, "failed_level": None},
}
# A second valid value of each field the validation hooks look at.
OTHER = {
    Valuation: {"weights": (H,)},
    AlgebraicRoot: {"witness": Polynomial([1, -3]), "lo": Fraction(0), "hi": Fraction(1)},
    SignedWord: {"positives": 0b100, "negatives": 0b1000},
}
BY_VALUE = [cls for cls in RECORDS if cls is not ConfiguredSpace]
HASHABLE = [cls for cls in BY_VALUE if cls is not RealizationReport]


def build(cls, **changes):
    return cls(**{**RECORDS[cls], **changes})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_construction_by_position_and_keyword(cls):
    fields = RECORDS[cls]
    first, *rest = fields
    for record in (
        cls(*fields.values()),
        cls(**fields),
        cls(fields[first], **{name: fields[name] for name in rest}),
    ):
        assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_wrong_fields_refused(cls):
    fields = RECORDS[cls]
    first, *rest = fields
    values = list(fields.values())
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)
    with pytest.raises(TypeError):
        cls(values[0], **{first: values[0]}, **{name: fields[name] for name in rest})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_assignment_refused(cls):
    record = build(cls)
    for name in [*RECORDS[cls], "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert {name: getattr(record, name) for name in RECORDS[cls]} == RECORDS[cls]


@pytest.mark.parametrize("cls", BY_VALUE, ids=lambda cls: cls.__name__)
def test_equality_follows_field_values(cls):
    fields = RECORDS[cls]
    assert build(cls) == build(cls)
    assert build(cls) != tuple(fields.values())
    for name in fields:
        other = OTHER.get(cls, {}).get(name, "other")
        assert build(cls) != build(cls, **{name: other}), name


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda cls: cls.__name__)
def test_hash_follows_field_values(cls):
    assert hash(build(cls)) == hash(build(cls)) == hash(tuple(RECORDS[cls].values()))
    assert len({build(cls), build(cls)}) == 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_keep_the_fields(cls):
    record = build(cls)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls
        assert {name: getattr(twin, name) for name in RECORDS[cls]} == RECORDS[cls]


def test_configurations_and_valuations_are_dict_keys():
    table = {build(Configuration): "edge", build(Valuation): "weights"}
    assert table[Configuration(2, ("a", "b"), (0b11,))] == "edge"
    assert table[Valuation((Fraction(1), H))] == "weights"
    assert Configuration(2, ("a", "b"), ()) not in table


def test_configured_space_compares_by_identity():
    space, twin = build(ConfiguredSpace), build(ConfiguredSpace)
    assert space == space and space != twin
    assert len({space, twin, space}) == 2


def test_realization_report_is_unhashable():
    with pytest.raises(TypeError):
        hash(build(RealizationReport))


@pytest.mark.parametrize(
    "cls, changes, error",
    [
        (Valuation, {"weights": (Fraction(1), Fraction(0))}, NonPositiveWeight),
        (Valuation, {"weights": (-H,)}, NonPositiveWeight),
        (AlgebraicRoot, {"lo": Fraction(1), "hi": H}, ValueError),
        (AlgebraicRoot, {"witness": Polynomial()}, ValueError),
        (SignedWord, {"positives": 0b11, "negatives": 0b10}, ValueError),
    ],
)
def test_validation_hooks(cls, changes, error):
    with pytest.raises(error):
        build(cls, **changes)


def test_cached_properties():
    config = build(Configuration)
    assert config.labels_of(0b11) == ["a", "b"]
    assert "_label_tables" in vars(config)
    assert config == build(Configuration) and hash(config) == hash(build(Configuration))
    space = canonical_space(star(4, 2), Valuation.uniform(4), Fraction(1, 8))
    assert space.atoms is space.atoms
    assert sum(space.atoms.values()) == 1


def test_only_cached_records_keep_a_dict():
    for cls in RECORDS:
        assert hasattr(build(cls), "__dict__") == (cls in (Configuration, ConfiguredSpace)), cls


def test_repr_lists_public_fields():
    assert repr(build(SignedWord)) == "SignedWord(positives=1, negatives=2)"
    assert repr(build(Valuation)) == "Valuation(weights=(Fraction(1, 1), Fraction(1, 2)))"
    assert "_products" not in repr(build(ConfiguredSpace))


def test_cli_import_skips_dataclasses():
    # Every command is a fresh process: the CLI's imports are start-up
    # cost, and dataclasses brings inspect, ast and dis with it.
    code = (
        "import json, sys; before = set(sys.modules); import configspaces.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    new = set(json.loads(run.stdout))
    assert "configspaces.cli" in new
    assert sorted(new & {"dataclasses", "inspect", "ast", "dis", "string"}) == []
