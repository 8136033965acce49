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
        g = build_cone_graph(fig2)
        assert g.num_vertices == 11
        assert sum(map(len, g.cones)) == 2 * fig2.num_incidences - fig2.num_lines == 20

    def test_single_line_two_points_is_triangle(self):
        g = build_cone_graph(single_line(2))
        assert g.num_vertices == 3
        assert sorted(tuple(sorted(e)) for e in g.cones[0]) == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("k", range(2, 7))
    def test_cone_over_star_is_minimally_rigid(self, k):
        g = build_cone_graph(single_line(k))
        assert g.num_vertices == k + 1
        assert len(g.cones[0]) == 2 * k - 1 == 2 * (k + 1) - 3
        assert play(g.num_vertices, *g.cones).classification == "minimally-rigid"

    def test_counts_on_random_geometries(self):
        rng = random.Random(0)
        for _ in range(60):
            s = reference_random_geometry(rng, max_points=8, max_lines=5)
            g = build_cone_graph(s)
            assert g.num_vertices == s.num_points + s.num_lines
            assert sum(map(len, g.cones)) == 2 * s.num_incidences - s.num_lines

    def test_cone_edge_bookkeeping(self, fig2):
        rng = random.Random(2)
        draws = [reference_random_geometry(rng, max_points=10, max_lines=6) for _ in range(60)]
        for s in [fig2] + draws:
            g = build_cone_graph(s)
            for line, cone in enumerate(g.cones):
                pts = sorted(s.lines[line])
                k = len(pts)
                assert len(cone) == 2 * k - 1
                assert cone[:k] == tuple((g.cone_vertex(line), p) for p in pts)
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
        assert sum(map(len, g2.cones)) == 20
        assert g2.cones[2][-1][0] == 5
        assert g2.cones[:2] == g.cones[:2]

    def test_verdict_unchanged_for_every_choice(self, fig2):
        g = build_cone_graph(fig2)
        base = play(g.num_vertices, *g.cones).classification
        for line, pts in enumerate(fig2.lines):
            for p in pts:
                inner = self.lowest(fig2)
                inner[line] = p
                moved = cone_graph_with_inner(fig2, inner)
                assert play(moved.num_vertices, *moved.cones).classification == base

    def test_two_point_line_swap_is_isomorphic(self):
        g = build_cone_graph(single_line(2))
        swapped = cone_graph_with_inner(single_line(2), [1])
        as_sets = lambda graph: sorted(tuple(sorted(e)) for e in graph.cones[0])
        assert as_sets(g) == as_sets(swapped)

    def test_rejects_non_incident(self, fig2):
        with pytest.raises(GeometryError):
            cone_graph_with_inner(fig2, [1, 0, 0, 0])  # point 1 is not on line 0


class TestConeIncidence:
    def test_running_example_counts(self, fig2):
        sc = build_cone_incidence(fig2)
        g = sc.geometry
        assert g.num_points == 11
        assert g.num_lines == 4 + 12 == 16
        assert g.num_incidences == 3 * fig2.num_incidences == 36

    def test_single_line_two_points(self):
        sc = build_cone_incidence(single_line(2))
        g = sc.geometry
        assert (g.num_points, g.num_lines, g.num_incidences) == (3, 3, 6)

    def test_two_lines_sharing_a_point(self, hinge):
        g = build_cone_incidence(hinge).geometry
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
            sc = build_cone_incidence(g)
            lines, P, L = sc.geometry.lines, g.num_points, g.num_lines
            assert lines[:L] == tuple(tuple(sorted(line)) for line in g.lines)
            assert lines[L:] == tuple((p, P + l) for l, line in enumerate(g.lines)
                                      for p in sorted(line))

    def test_counts_on_random_geometries(self):
        rng = random.Random(1)
        for _ in range(40):
            s = reference_random_geometry(rng, max_points=8, max_lines=5)
            g = build_cone_incidence(s).geometry
            assert g.num_points == s.num_points + s.num_lines
            assert g.num_lines == s.num_lines + s.num_incidences
            assert g.num_incidences == 3 * s.num_incidences

    def test_unique_no_inner_dependence(self, fig2):
        assert build_cone_incidence(fig2) == build_cone_incidence(fig2)


def test_dot_export(fig2):
    dot = cone_graph_to_dot(build_cone_graph(fig2), fig2.point_names)
    assert dot.startswith("graph cone {")
    assert dot.count("shape=square") == 4
    assert dot.count(" -- ") == 20


def test_dot_export_golden(fig2):
    # sha256 of `rodrig dot` on the running example, fixed when the cone
    # graph kept a flat edge list with per-cone indices into it; pins the
    # cone-by-cone edge order of the file
    dot = cone_graph_to_dot(build_cone_graph(fig2), fig2.point_names)
    digest = hashlib.sha256(dot.encode()).hexdigest()
    assert digest == "0b69b147e4892691d5b2e31c191d4339094faec84acb24b4c3cb75acc5fabfdd"


def test_dot_labels_are_escaped(triangle_rods):
    dot = cone_graph_to_dot(build_cone_graph(triangle_rods), ('a"b', "c\\", ""))
    assert 'v0 [label="a\\"b"];' in dot
    assert 'v1 [label="c\\\\"];' in dot
    assert 'v2 [label="p2"];' in dot
