from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodrigidity import (
    GeometryError,
    GeometryParseError,
    IncidenceGeometry,
    geometry_from_json,
    geometry_to_json,
    is_connected,
    parse_geometry,
    remove_line,
    serialize_geometry,
    shared_rod_pair,
    support_of,
)
from rodrigidity.analysis import random_geometry

from bruteforce import bipartite_connected, shares_two_points
from conftest import FIG2_LINES

TRIANGLE_TEXT = """\
points: 3
line: 0 1
line: 1 2
line: 0 2
"""

FIG2_TEXT = """\
# triangle with midpoints plus a cevian
points: 7
point 0 apex
line: 0 2 3
line: 0 1 4
line: 1 2 5
line: 1 3 6
"""


@st.composite
def geometries(draw, max_points=6, max_lines=4):
    n_pts = draw(st.integers(2, max_points))
    n_lines = draw(st.integers(0, max_lines))
    lines = []
    for _ in range(n_lines):
        k = draw(st.integers(2, n_pts))
        pts = draw(st.permutations(range(n_pts)))
        lines.append(tuple(sorted(pts[:k])))
    return IncidenceGeometry(n_pts, tuple(lines))


class TestParsing:
    def test_triangle(self):
        g = parse_geometry(TRIANGLE_TEXT)
        assert (g.num_points, g.num_lines, g.num_incidences) == (3, 3, 6)

    def test_running_example_counts(self):
        g = parse_geometry(FIG2_TEXT)
        assert (g.num_points, g.num_lines, g.num_incidences) == (7, 4, 12)
        assert g.lines == FIG2_LINES
        assert g.name_of(0) == "apex"
        assert g.name_of(1) == "1"

    def test_dangling_reference(self):
        text = "points: 7\nline: 0 9\n"
        with pytest.raises(GeometryParseError, match="line 2.*dangling.*9"):
            parse_geometry(text)

    def test_duplicate_incidence(self):
        with pytest.raises(GeometryParseError, match="duplicate"):
            parse_geometry("points: 3\nline: 1 1\n")

    def test_short_line(self):
        with pytest.raises(GeometryParseError, match="at least 2"):
            parse_geometry("points: 3\nline: 1\n")

    def test_line_before_header(self):
        with pytest.raises(GeometryParseError, match="header"):
            parse_geometry("line: 0 1\npoints: 2\n")

    def test_unknown_statement(self):
        with pytest.raises(GeometryParseError, match="line 2"):
            parse_geometry("points: 2\nrod: 0 1\n")

    def test_constructor_validation(self):
        with pytest.raises(GeometryError):
            IncidenceGeometry(3, ((0,),))
        with pytest.raises(GeometryError):
            IncidenceGeometry(2, ((0, 2),))
        with pytest.raises(GeometryError):
            IncidenceGeometry(3, ((0, 0),))

    @settings(max_examples=60)
    @given(geometries())
    def test_text_round_trip(self, g):
        assert parse_geometry(serialize_geometry(g)) == g

    def test_round_trip_with_names(self):
        g = parse_geometry(FIG2_TEXT)
        assert parse_geometry(serialize_geometry(g)) == g

    @settings(max_examples=60)
    @given(geometries())
    def test_json_round_trip(self, g):
        assert geometry_from_json(geometry_to_json(g)) == g

    @pytest.mark.parametrize("names", [5, "ab", [1, 2], {"0": "a"}])
    def test_json_malformed_names_rejected(self, names):
        with pytest.raises(GeometryError, match="bad geometry document"):
            geometry_from_json({"points": 2, "lines": [[0, 1]], "names": names})


class TestConnectivity:
    def test_running_example_is_connected(self, fig2):
        assert is_connected(fig2)

    def test_two_disjoint_triangles(self):
        g = IncidenceGeometry(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
        assert not is_connected(g)

    def test_single_line(self):
        assert is_connected(IncidenceGeometry(2, ((0, 1),)))

    def test_degenerate_sizes(self):
        assert is_connected(IncidenceGeometry(0, ()))
        assert is_connected(IncidenceGeometry(1, ()))
        assert not is_connected(IncidenceGeometry(2, ()))

    def test_isolated_point_disconnects(self):
        g = IncidenceGeometry(3, ((0, 1),))
        assert not is_connected(g)
        assert g.isolated_points() == (2,)

    @settings(max_examples=120)
    @given(geometries(max_points=5, max_lines=3))
    def test_agrees_with_queue_oracle(self, g):
        assert is_connected(g) == bipartite_connected(g.num_points, g.lines)


class TestSupport:
    def test_full_support_of_running_example(self, fig2):
        sup = support_of(fig2, fig2.incidences())
        assert (len(sup.points), len(sup.lines), sup.size) == (7, 4, 12)

    def test_empty(self, fig2):
        sup = support_of(fig2, ())
        assert sup.points == frozenset() and sup.lines == frozenset()

    def test_single_incidence(self, fig2):
        sup = support_of(fig2, [(3, 0)])
        assert (len(sup.points), len(sup.lines)) == (1, 1)

    def test_rejects_foreign_incidence(self, fig2):
        with pytest.raises(GeometryError):
            support_of(fig2, [(6, 0)])

    @settings(max_examples=60)
    @given(geometries(), st.randoms(use_true_random=False))
    def test_monotone(self, g, rnd):
        incs = list(g.incidences())
        small = rnd.sample(incs, rnd.randint(0, len(incs)))
        extra = rnd.sample(incs, rnd.randint(0, len(incs)))
        big = set(small) | set(extra)
        s1, s2 = support_of(g, small), support_of(g, big)
        assert s1.points <= s2.points and s1.lines <= s2.lines


def test_remove_line_keeps_points(fig2):
    g = remove_line(fig2, 3)
    assert g.num_points == 7
    assert g.num_lines == 3
    assert g.isolated_points() == (6,)
    with pytest.raises(GeometryError):
        remove_line(fig2, 4)


class TestSharedRodPair:
    @staticmethod
    def check(g):
        pair = shared_rod_pair(g)
        assert (pair is not None) == shares_two_points(g)
        if pair is not None:
            l1, l2, p, q = pair
            assert l1 < l2 and p < q
            assert {p, q} <= set(g.lines[l1]) & set(g.lines[l2])
        return pair

    @pytest.mark.parametrize("lines,expected", [
        (((0, 1), (0, 1), (0, 1)), (0, 1, 0, 1)),  # three rods through one pair
        (((0, 1, 2, 3), (3, 4, 5), (5, 2, 4)), (1, 2, 4, 5)),
        (((0, 1, 2, 3), (3, 2, 4)), (0, 1, 2, 3)),
        (((0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)), None),
        (((0, 1, 2), (0, 3, 4), (0, 5), (1, 3, 5)), None),
        ((), None),
    ])
    def test_examples(self, lines, expected):
        assert self.check(IncidenceGeometry(6, lines)) == expected

    def test_running_example(self, fig2):
        assert shared_rod_pair(fig2) is None

    @settings(max_examples=200)
    @given(geometries(max_points=7, max_lines=5))
    def test_agrees_with_pairwise_intersection(self, g):
        self.check(g)

    def test_random_geometries(self):
        found = [self.check(random_geometry(random.Random(s))) is not None for s in range(400)]
        assert any(found) and not all(found)
