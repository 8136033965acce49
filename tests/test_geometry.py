from __future__ import annotations

import json
import random
import re

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
)

from bruteforce import bipartite_connected, reference_random_geometry, shares_two_points
from conftest import FIG2_LINES, JSON_VALUES, with_examples

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
        assert g.point_names == ("apex", "", "", "", "", "", "")

    def test_dangling_reference(self):
        text = "points: 7\nline: 0 9\n"
        with pytest.raises(GeometryParseError, match="line 2.*dangling.*9"):
            parse_geometry(text)

    # int() reads each of these forms, so they were once taken as 11, 10,
    # 0 and 1; the format writes only ASCII digits
    @pytest.mark.parametrize("token", ["1_0", "+1", "١"])
    @pytest.mark.parametrize("text,message", [
        ("points: {}\n", "line 1: bad point count"),
        ("points: 11\npoint {} a\nline: 0 1\n", "line 2: bad point index"),
        ("points: 11\nline: 0 {}\n", "line 2: bad point index in line"),
    ])
    def test_only_ascii_digits_are_integers(self, token, text, message):
        with pytest.raises(GeometryParseError, match=message):
            parse_geometry(text.format(token))

    def test_minus_sign_keeps_its_messages(self):
        with pytest.raises(GeometryParseError, match="line 1: negative point count"):
            parse_geometry("points: -1\n")
        with pytest.raises(GeometryParseError, match="line 2: point alias references point -1"):
            parse_geometry("points: 3\npoint -1 a\nline: 0 1\n")
        with pytest.raises(GeometryParseError, match="line 2: dangling reference: point -1 of 3"):
            parse_geometry("points: 3\nline: -1 0\n")
        assert parse_geometry("points: 3\nline: -0 2\n").lines == ((0, 2),)

    def test_duplicate_incidence(self):
        with pytest.raises(GeometryParseError, match="duplicate"):
            parse_geometry("points: 3\nline: 1 1\n")

    def test_short_line(self):
        with pytest.raises(GeometryParseError, match="at least 2"):
            parse_geometry("points: 3\nline: 1\n")

    def test_line_before_header(self):
        with pytest.raises(GeometryParseError, match="header"):
            parse_geometry("line: 0 1\npoints: 2\n")

    def test_duplicate_alias(self):
        with pytest.raises(GeometryParseError, match="line 3: duplicate alias for point 0"):
            parse_geometry("points: 2\npoint 0 a\npoint 0 b\nline: 0 1\n")

    def test_unknown_statement(self):
        with pytest.raises(GeometryParseError, match="line 2"):
            parse_geometry("points: 2\nrod: 0 1\n")

    @pytest.mark.parametrize("text,message", [
        ("points: 2\npoints: 2\n", "line 2: duplicate points: header"),
        ("point 0 a\npoints: 2\n", "line 1: point alias before points: header"),
        ("points: 2\npoint 0\n", "line 2: expected: point <idx> <name>"),
        ("# no header\n", "missing points: header"),
    ], ids=["duplicate-header", "alias-before-header", "alias-without-name", "no-header"])
    def test_header_and_alias_errors(self, text, message):
        with pytest.raises(GeometryParseError, match=f"^{re.escape(message)}$"):
            parse_geometry(text)

    def test_constructor_validation(self):
        with pytest.raises(GeometryError):
            IncidenceGeometry(3, ((0,),))
        with pytest.raises(GeometryError):
            IncidenceGeometry(2, ((0, 2),))
        with pytest.raises(GeometryError):
            IncidenceGeometry(3, ((0, 0),))

    def test_negative_count_and_names_of_the_wrong_length(self):
        with pytest.raises(GeometryError, match="^negative point count$"):
            geometry_from_json({"points": -1, "lines": []})
        with pytest.raises(GeometryError, match="^point_names length does not match num_points$"):
            IncidenceGeometry(3, [(0, 1)], ["a", "b"])

    @pytest.mark.parametrize("num_points,lines,message", [
        (3, [(True, 2), (0, 2.0)], "line 0 has point index True, not an integer"),
        (3, [(0, 2), (0, 2.0)], "line 1 has point index 2.0, not an integer"),
        (3, ["01", "12"], "line 0 has point index '0', not an integer"),
        (3, [([0], [1])], r"line 0 has point index \[0\], not an integer"),
        (3.0, [(0, 1)], "point count 3.0 is not an integer"),
        (True, [], "point count True is not an integer"),
        ("3", [(0, 1)], "point count '3' is not an integer"),
    ], ids=["bool-index", "float-index", "str-index", "list-index", "float-count",
            "bool-count", "str-count"])
    def test_indices_and_count_are_ints(self, num_points, lines, message):
        # refused, not coerced, as geometry_from_json refuses them
        with pytest.raises(GeometryError, match=f"^{message}$"):
            IncidenceGeometry(num_points, lines)

    @pytest.mark.parametrize("args,message", [
        ((3, [5]), "line 0 is 5, not a sequence"),
        ((3, 5), "lines 5 are not a sequence"),
        ((3, [(0, 1)], 5), "point names 5 are not a sequence of strings"),
        ((3, [(0, 1)], "abc"), "point names 'abc' are not a sequence of strings"),
        ((3, [(0, 1)], [1, 2, 3]), "point names [1, 2, 3] are not a sequence of strings"),
        ((3, [(0, 1)], ("a", "b", None)),
         "point names ('a', 'b', None) are not a sequence of strings"),
    ], ids=["int-line", "int-lines", "int-names", "str-names", "int-name", "none-name"])
    def test_parts_of_the_wrong_kind(self, args, message):
        # once a bare TypeError, or a geometry whose JSON its reader refuses
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
            IncidenceGeometry(*args)

    @pytest.mark.parametrize("line,message", [
        ((0, 1, 1), "line 1 repeats a point"),
        ((2, 0, 1, 1), "line 1 repeats a point"),
        ((2, 0, 3), "line 1 references point 3 but only 3 points exist"),
        ((1, 0, "2"), "line 1 has point index '2', not an integer"),
    ], ids=["ascending-repeat", "unordered-repeat", "unordered-range", "unordered-type"])
    def test_checks_hold_in_and_out_of_order(self, line, message):
        # every check holds whether or not the line is listed ascending
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}"):
            IncidenceGeometry(3, [(0, 1), line])

    def test_names_given_as_a_list(self):
        listed = IncidenceGeometry(2, [(0, 1)], ["a", "b"])
        named = IncidenceGeometry(2, ((0, 1),), ("a", "b"))
        assert listed.point_names == ("a", "b")
        assert listed == named and hash(listed) == hash(named)
        assert {listed, named} == {named}
        assert remove_line(IncidenceGeometry(2, [(0, 1), (0, 1)], ["a", "b"]), 0) == named
        assert IncidenceGeometry(2, [(0, 1)], ["", ""]).point_names is None

    @settings(max_examples=60)
    @given(geometries())
    def test_text_round_trip(self, g):
        assert parse_geometry(serialize_geometry(g)) == g

    def test_round_trip_with_names(self):
        g = parse_geometry(FIG2_TEXT)
        assert parse_geometry(serialize_geometry(g)) == g

    def test_json_of_a_named_geometry(self):
        g = parse_geometry(FIG2_TEXT)
        doc = geometry_to_json(g)
        assert doc["names"] == ["apex", "", "", "", "", "", ""]
        assert geometry_from_json(json.loads(json.dumps(doc))) == g

    def test_names_the_text_format_cannot_hold(self):
        # these once came back as four lines and the names ('a', 'b', '')
        g = geometry_from_json({"points": 3, "lines": [[0, 1], [1, 2], [0, 2]],
                                "names": ["a\nline: 0 1", "b#c", ""]})
        with pytest.raises(GeometryError, match="point 0 name"):
            serialize_geometry(g)
        for name in ("b#c", " x", "y ", "a\rb", "a\x0bb", "a\x85b", "a\u2028b"):
            with pytest.raises(GeometryError, match="point 1 name"):
                serialize_geometry(IncidenceGeometry(2, ((0, 1),), ("ok", name)))

    @settings(max_examples=300)
    @given(st.lists(st.text(), min_size=3, max_size=3))
    def test_text_names_refused_or_kept(self, names):
        g = IncidenceGeometry(3, ((0, 1), (1, 2), (0, 2)), tuple(names))
        try:
            text = serialize_geometry(g)
        except GeometryError:
            return
        assert parse_geometry(text) == g

    @settings(max_examples=60)
    @given(geometries())
    def test_json_round_trip(self, g):
        assert geometry_from_json(geometry_to_json(g)) == g

    @settings(max_examples=60)
    @given(geometries(), st.data())
    def test_rods_listed_in_any_order(self, g, data):
        # a rod is stored as its ascending point tuple: the readers give the
        # same geometry for any listing, and the writers write it ascending
        listed = [data.draw(st.permutations(line)) for line in g.lines]
        text = f"points: {g.num_points}\n" + "".join(
            "line: " + " ".join(map(str, line)) + "\n" for line in listed)
        from_text = parse_geometry(text)
        from_json = geometry_from_json({"points": g.num_points, "lines": listed})
        assert from_text == from_json == g and hash(from_text) == hash(g)
        assert from_text.lines == tuple(tuple(sorted(line)) for line in listed)
        assert serialize_geometry(from_text) == serialize_geometry(g)
        assert geometry_to_json(from_json) == geometry_to_json(g)

    @pytest.mark.parametrize("names", [5, "ab", [1, 2], {"0": "a"}])
    def test_json_malformed_names_rejected(self, names):
        with pytest.raises(GeometryError, match="bad geometry document"):
            geometry_from_json({"points": 2, "lines": [[0, 1]], "names": names})


# Each of these was once coerced into a geometry, or crashed the reader.
MISTYPED_GEOMETRIES = [
    {"points": 3, "lines": ["012"]},
    {"points": 3, "lines": [[0, 1.7]]},
    {"points": 3, "lines": [[0, True]]},
    {"points": True, "lines": []},
    {"points": 3.9, "lines": [[0, 1]]},
    json.loads('{"points": 1e400, "lines": []}'),
    json.loads('{"points": 3, "lines": [[0, 1e400]]}'),
    {"points": 3, "lines": {"0": [0, 1]}},
    {"points": 3, "lines": [{"0": 0, "1": 1}]},
]


class TestJsonReader:
    @settings(max_examples=300)
    @with_examples(MISTYPED_GEOMETRIES)
    @given(JSON_VALUES | st.fixed_dictionaries(
        {"points": st.integers(-1, 6) | JSON_VALUES,
         "lines": st.lists(st.lists(st.integers(-1, 6) | JSON_VALUES, max_size=4), max_size=4)
         | JSON_VALUES},
        optional={"names": st.lists(st.text(max_size=2), max_size=6) | JSON_VALUES},
    ))
    def test_json_reader_refuses_or_reads_exactly(self, doc):
        # A document is either refused with GeometryError or read as written:
        # the geometry's JSON says exactly what the document said, each rod's
        # points ascending.
        try:
            g = geometry_from_json(doc)
        except GeometryError:
            return
        assert isinstance(g, IncidenceGeometry)
        written = geometry_to_json(g)
        assert json.dumps([written["points"], written["lines"]]) == \
            json.dumps([doc["points"], [sorted(line) for line in doc["lines"]]])


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
        assert g.point_line_map()[2] == []

    @settings(max_examples=120)
    @given(geometries(max_points=5, max_lines=3))
    def test_agrees_with_queue_oracle(self, g):
        assert is_connected(g) == bipartite_connected(g.num_points, g.lines)


def test_remove_line_keeps_points(fig2):
    g = remove_line(fig2, 3)
    assert g.num_points == 7
    assert g.num_lines == 3
    assert [p for p, rods in enumerate(g.point_line_map()) if not rods] == [6]
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
        (((2, 3), (0, 1), (2, 3), (0, 1)), (0, 2, 2, 3)),  # rod 2 is the first to share two
    ])
    def test_examples(self, lines, expected):
        assert self.check(IncidenceGeometry(6, lines)) == expected

    def test_running_example(self, fig2):
        assert shared_rod_pair(fig2) is None

    def test_stops_at_the_first_pair(self):
        assert shared_rod_pair(IncidenceGeometry(2, ((0, 1),) * 1000)) == (0, 1, 0, 1)

    @settings(max_examples=200)
    @given(geometries(max_points=7, max_lines=5))
    def test_agrees_with_pairwise_intersection(self, g):
        self.check(g)

    def test_random_geometries(self):
        found = [self.check(reference_random_geometry(random.Random(s))) is not None for s in range(400)]
        assert any(found) and not all(found)
