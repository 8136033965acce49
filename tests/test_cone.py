from __future__ import annotations

import hashlib
import random

import pytest

from rodrigidity import (
    GeometryError,
    IncidenceGeometry,
    build_cone_graph,
    build_cone_incidence,
    cone_graph_to_dot,
    play,
)

from bruteforce import reference_random_geometry
from paper_claims import cone_graph_with_inner


def single_line(k: int) -> IncidenceGeometry:
    return IncidenceGeometry(k, (tuple(range(k)),))


class TestConeGraph:
    def test_running_example_counts(self, fig2):
        cones = build_cone_graph(fig2)
        assert len(cones) == fig2.num_lines == 4
        assert sum(map(len, cones)) == 2 * fig2.num_incidences - fig2.num_lines == 20
        assert {v for cone in cones for e in cone for v in e} == set(range(11))

    def test_single_line_two_points_is_triangle(self):
        (cone,) = build_cone_graph(single_line(2))
        assert sorted(tuple(sorted(e)) for e in cone) == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("k", range(2, 7))
    def test_cone_over_star_is_minimally_rigid(self, k):
        cones = build_cone_graph(single_line(k))
        assert len(cones[0]) == 2 * k - 1 == 2 * (k + 1) - 3
        assert play(k + 1, *cones).classification == "minimally-rigid"

    def test_counts_on_random_geometries(self):
        rng = random.Random(0)
        for _ in range(60):
            s = reference_random_geometry(rng, max_points=8, max_lines=5)
            cones = build_cone_graph(s)
            assert len(cones) == s.num_lines
            assert sum(map(len, cones)) == 2 * s.num_incidences - s.num_lines

    def test_cone_edge_bookkeeping(self, fig2):
        rng = random.Random(2)
        draws = [reference_random_geometry(rng, max_points=10, max_lines=6) for _ in range(60)]
        for s in [fig2] + draws:
            for line, cone in enumerate(build_cone_graph(s)):
                pts = sorted(s.lines[line])
                k = len(pts)
                assert len(cone) == 2 * k - 1
                assert cone[:k] == tuple((s.num_points + line, p) for p in pts)
                assert cone[k:] == tuple((pts[0], q) for q in pts[1:])


class TestReassignInnerVertex:
    """Moving one cone's inner vertex, the others kept at the lowest point."""

    @staticmethod
    def lowest(geometry):
        return [min(line) for line in geometry.lines]

    def test_counts_unchanged(self, fig2):
        g = build_cone_graph(fig2)
        assert cone_graph_with_inner(fig2, self.lowest(fig2)) == g
        inner = self.lowest(fig2)
        inner[2] = 5
        g2 = cone_graph_with_inner(fig2, inner)
        assert sum(map(len, g2)) == 20
        assert g2[2][-1][0] == 5
        assert g2[:2] == g[:2]

    def test_verdict_unchanged_for_every_choice(self, fig2):
        base = play(11, *build_cone_graph(fig2)).classification
        for line, pts in enumerate(fig2.lines):
            for p in pts:
                inner = self.lowest(fig2)
                inner[line] = p
                moved = cone_graph_with_inner(fig2, inner)
                assert play(11, *moved).classification == base

    def test_two_point_line_swap_is_isomorphic(self):
        g = build_cone_graph(single_line(2))
        swapped = cone_graph_with_inner(single_line(2), [1])
        as_sets = lambda cones: sorted(tuple(sorted(e)) for e in cones[0])
        assert as_sets(g) == as_sets(swapped)

    def test_rejects_non_incident(self, fig2):
        with pytest.raises(GeometryError):
            cone_graph_with_inner(fig2, [1, 0, 0, 0])  # point 1 is not on line 0


class TestConeIncidence:
    def test_running_example_counts(self, fig2):
        g = build_cone_incidence(fig2)
        assert g.num_points == 11
        assert g.num_lines == 4 + 12 == 16
        assert g.num_incidences == 3 * fig2.num_incidences == 36

    def test_single_line_two_points(self):
        g = build_cone_incidence(single_line(2))
        assert (g.num_points, g.num_lines, g.num_incidences) == (3, 3, 6)

    def test_two_lines_sharing_a_point(self, hinge):
        g = build_cone_incidence(hinge)
        assert (g.num_points, g.num_lines, g.num_incidences) == (5, 6, 12)

    def test_spoke_structure(self, fig2):
        # the collinear classes come first, points ascending; then line
        # L + k is (p, P + l) for the k-th incidence (line l, point p),
        # line-major with points ascending, in whatever order the base
        # lists a line's points
        rng = random.Random(4)
        unsorted = IncidenceGeometry(5, [(3, 0, 2), (4, 1), (2, 4, 0)])
        geometries = [fig2, unsorted]
        geometries += [reference_random_geometry(rng, max_points=8, max_lines=5) for _ in range(30)]
        for g in geometries:
            lines, P, L = build_cone_incidence(g).lines, g.num_points, g.num_lines
            assert lines[:L] == tuple(tuple(sorted(line)) for line in g.lines)
            assert lines[L:] == tuple((p, P + l) for l, line in enumerate(g.lines)
                                      for p in sorted(line))

    def test_counts_on_random_geometries(self):
        rng = random.Random(1)
        for _ in range(40):
            s = reference_random_geometry(rng, max_points=8, max_lines=5)
            g = build_cone_incidence(s)
            assert g.num_points == s.num_points + s.num_lines
            assert g.num_lines == s.num_lines + s.num_incidences
            assert g.num_incidences == 3 * s.num_incidences

    def test_unique_no_inner_dependence(self, fig2):
        assert build_cone_incidence(fig2) == build_cone_incidence(fig2)


def test_dot_export(fig2):
    dot = cone_graph_to_dot(fig2, build_cone_graph(fig2))
    assert dot.startswith("graph cone {")
    assert dot.count("shape=square") == 4
    assert dot.count(" -- ") == 20


def test_dot_export_golden(fig2):
    # sha256 of `rodrig dot` on the running example, fixed when the cone
    # graph kept a flat edge list with per-cone indices into it; pins the
    # cone-by-cone edge order of the file
    dot = cone_graph_to_dot(fig2, build_cone_graph(fig2))
    digest = hashlib.sha256(dot.encode()).hexdigest()
    assert digest == "0b69b147e4892691d5b2e31c191d4339094faec84acb24b4c3cb75acc5fabfdd"


def test_dot_labels_are_escaped(triangle_rods):
    named = IncidenceGeometry(3, triangle_rods.lines, ('a"b', "c\\", ""))
    dot = cone_graph_to_dot(named, build_cone_graph(named))
    assert 'v0 [label="a\\"b"];' in dot
    assert 'v1 [label="c\\\\"];' in dot
    assert 'v2 [label="p2"];' in dot
