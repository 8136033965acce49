from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from rodrigidity import IncidenceGeometry
from rodrigidity.oracle import _eliminate

# The running example: a triangle of three-point rods (each side has a
# midpoint) plus a cevian from the bottom-left corner through the right
# side's midpoint.  Points: 0 apex, 1 bottom-left, 2 bottom-right,
# 3 right midpoint, 4 left midpoint, 5 bottom midpoint, 6 cevian midpoint.
FIG2_LINES = ((0, 2, 3), (0, 1, 4), (1, 2, 5), (1, 3, 6))

FIG2_COORDS = (
    (Fraction(0), Fraction(0)),
    (Fraction(-3, 2), Fraction(-3)),
    (Fraction(3, 2), Fraction(-3)),
    (Fraction(1, 2), Fraction(-1)),
    (Fraction(-1, 2), Fraction(-1)),
    (Fraction(0), Fraction(-3)),
    (Fraction(0), Fraction(-3, 2)),
)

# Five vertices, eight edges (= 2|V| - 2), but not a rigidity circuit: the
# wheel-like vertex 4 has degree two, and the dependency lives in the K4 on
# vertices 0..3.
FIG1_EDGES = [(0, 1), (1, 3), (3, 2), (2, 0), (0, 3), (0, 4), (4, 1), (1, 2)]

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.fixture
def fig2() -> IncidenceGeometry:
    return IncidenceGeometry(7, FIG2_LINES)


@pytest.fixture
def triangle_rods() -> IncidenceGeometry:
    """Three two-point rods forming a triangle."""
    return IncidenceGeometry(3, ((0, 1), (1, 2), (0, 2)))


@pytest.fixture
def hinge() -> IncidenceGeometry:
    """Two rods sharing a single pin: one internal degree of freedom."""
    return IncidenceGeometry(3, ((0, 1), (0, 2)))


@pytest.fixture
def two_point_three_lines() -> IncidenceGeometry:
    """Three distinct lines through the same two points; any realization
    forces the lines to coincide."""
    return IncidenceGeometry(2, ((0, 1), (0, 1), (0, 1)))


# The Pappus 9_3 configuration: A, B, C (0-2) on one rod, a, b, c (3-5) on
# another, X = Ab.aB (6), Y = Ac.aC (7), Z = Bc.bC (8), and the Pappus rod
# XYZ.  No two rods share two points, yet for rods of prescribed random
# slopes the incidences force distinct points together.
PAPPUS_LINES = ((0, 1, 2), (3, 4, 5), (0, 6, 4), (3, 6, 1), (0, 7, 5), (3, 7, 2),
                (1, 8, 5), (4, 8, 2), (6, 7, 8))


@pytest.fixture
def pappus() -> IncidenceGeometry:
    return IncidenceGeometry(9, PAPPUS_LINES)


def sparse_rank(rows, field) -> int:
    """Rank of dense rows, through the package's own sparse elimination."""
    return len(_eliminate((dict(enumerate(r)) for r in rows), field))


def plant_rank_shift(monkeypatch, *shifts: int) -> list[int]:
    """Plant a defect in cross-validation: the k-th sample's true rank is
    shifted by shifts[k] (the last shift repeats).  Returns the true ranks,
    one per sample ranked."""
    import rodrigidity.analysis as analysis

    real = analysis.string_config_rank
    ranks: list[int] = []

    def planted(cone, realization):
        rank, max_rank = real(cone, realization)
        shift = shifts[min(len(ranks), len(shifts) - 1)]
        ranks.append(rank)
        return rank + shift, max_rank

    monkeypatch.setattr(analysis, "string_config_rank", planted)
    return ranks


# Any value json.loads can return, infinities and NaN included (json.loads
# reads 1e400 as inf).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def with_examples(values):
    """Hypothesis @example(value) for each value."""
    def decorate(test):
        for value in values:
            test = example(value)(test)
        return test
    return decorate


_CRITERION_LINES: list[str] = []


def record_criterion(number: int, description: str, ok: bool) -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}"
    _CRITERION_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
