"""The result types are immutable slot records (rodrigidity._record), and
importing the command line generates no code."""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from rodrigidity import (
    CampaignReport,
    CanonicalSubgraph,
    IncidenceGeometry,
    Infeasible,
    LinearRealization,
    MinimalRigidityReport,
    PebbleVerdict,
    PrimeField,
    RationalField,
    RigidityVerdict,
)
from rodrigidity.oracle import ConcurrenceMatrix

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import rodrigidity.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


_GEOMETRY = IncidenceGeometry(3, ((0, 1), (1, 2)))
_PEBBLE = PebbleVerdict(5, ((3, 0), (3, 1)), (), ((2, 0),))
_VERDICT = RigidityVerdict(True, _PEBBLE, "agree")

# each record type with its fields as keywords, in constructor order, every
# value unlike its default
RECORDS = {
    IncidenceGeometry: {"num_points": 3, "lines": ((0, 1), (1, 2)),
                        "point_names": ("a", "b", "c")},
    PrimeField: {"p": 7},
    RationalField: {},
    Infeasible: {"reason": "rods 0 and 1 share points 0 and 1", "shared_pair": (0, 1, 0, 1)},
    LinearRealization: {"field": PrimeField(7), "slopes": (1, 2), "intercepts": (3, 4),
                        "xs": (5,), "ys": (6,)},
    ConcurrenceMatrix: {"field": PrimeField(7), "num_lines": 1, "num_points": 2,
                        "incidences": ((0, 0), (1, 0)), "slopes": (3,)},
    PebbleVerdict: {"num_vertices": 5, "accepted": ((3, 0), (3, 1)), "rejected": ((0, 1),),
                    "group_sizes": ((2, 1),)},
    RigidityVerdict: {"connected": False, "pebble": _PEBBLE, "agreement": "algebraic-skipped",
                      "algebraic": ((4, 5),), "skip_reason": "no proper realization"},
    CanonicalSubgraph: {"edges": ((3, 0),), "rejected": ((0, 1),), "line_order": (0,),
                        "subgeometry": _GEOMETRY, "source_lines": (1,)},
    MinimalRigidityReport: {"base": _VERDICT, "deletion_rigid": (False, True),
                            "deletion_checks": (("agree", None), ("agree", None))},
    CampaignReport: {"skipped": 1, "rigid": 2, "flexible": 3},
}

DEFAULTS = {
    IncidenceGeometry: {"point_names": None},
    Infeasible: {"shared_pair": None},
    RigidityVerdict: {"algebraic": None, "skip_reason": None},
    MinimalRigidityReport: {"deletion_checks": None},
}

_ids = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_keyword_and_default_construction(cls):
    fields = RECORDS[cls]
    record = cls(**fields)
    assert cls.__slots__ == tuple(fields)
    assert all(getattr(record, name) == value for name, value in fields.items())
    defaults = DEFAULTS.get(cls, {})
    required = {name: value for name, value in fields.items() if name not in defaults}
    shorter = cls(*required.values())
    assert all(getattr(shorter, name) == value for name, value in defaults.items())
    if required:
        with pytest.raises(TypeError):
            cls(*list(required.values())[:-1])
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_equality_and_hash(cls):
    fields = RECORDS[cls]
    record, twin = cls(**fields), cls(*fields.values())
    assert record is not twin
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(tuple(fields.values()))
    assert record != tuple(fields.values())
    assert record.__eq__(tuple(fields.values())) is NotImplemented
    assert all(record != other(**RECORDS[other]) for other in RECORDS if other is not cls)


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_immutable_without_dict(cls):
    record = cls(**RECORDS[cls])
    assert not hasattr(record, "__dict__")
    for name in (*RECORDS[cls], "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**RECORDS[cls])


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_repr(cls):
    fields = RECORDS[cls]
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_copy_and_pickle(cls):
    record = cls(**RECORDS[cls])
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record
