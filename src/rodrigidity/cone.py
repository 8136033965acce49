"""Cone graphs and the cone incidence geometry of a rank-two incidence geometry.

The cone graph of a geometry has one vertex per point plus one cone vertex
per line.  Each line contributes a "cone": spokes from its cone vertex to
every incident point, plus a star on the incident points rooted at a chosen
inner vertex.  Point p is vertex p; line l is vertex num_points + l.

The cone incidence geometry adds one new point per line (the cone point) and
one two-point "spoke line" per incidence; it does not depend on any inner
vertex choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Optional

from .geometry import GeometryError, IncidenceGeometry

__all__ = [
    "ConeGraph",
    "ConeIncidenceGeometry",
    "build_cone_graph",
    "build_cone_incidence",
    "cone_graph_to_dot",
]


@dataclass(frozen=True)
class ConeGraph:
    """A cone graph as the list of its cones, one per line.

    cones[l] holds the edges of line l's cone: the spokes (cone vertex,
    point) first by point index, then the star edges (inner vertex, point)
    by point index, 2k - 1 edges for a line through k points.  edges lists
    the cones in turn, 2|I| - |L| edges in all.  When two lines share two or
    more points the same unordered pair may occur in both cones; the pebble
    game treats the duplicate as dependent, so verdicts are unaffected.
    """

    num_points: int
    line_points: tuple[tuple[int, ...], ...]
    inner_vertex: tuple[int, ...]
    cones: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(chain.from_iterable(self.cones))

    @property
    def num_lines(self) -> int:
        return len(self.line_points)

    @property
    def num_vertices(self) -> int:
        return self.num_points + self.num_lines

    def cone_vertex(self, line: int) -> int:
        return self.num_points + line


def build_cone_graph(
    geometry: IncidenceGeometry,
    inner_choice: Optional[Mapping[int, int]] = None,
) -> ConeGraph:
    """Cone graph with the given inner vertices (default: lowest incident point).

    The inner vertex of each line must be incident to it.  Any choice yields
    the same rigidity verdict, so the default exists purely for determinism.
    """
    n_pts = geometry.num_points
    line_points = tuple(tuple(sorted(line)) for line in geometry.lines)
    inner: list[int] = []
    cones: list[tuple[tuple[int, int], ...]] = []
    for i, pts in enumerate(line_points):
        r = pts[0] if inner_choice is None or i not in inner_choice else inner_choice[i]
        if r not in pts:
            raise GeometryError(f"inner vertex {r} is not incident to line {i}")
        inner.append(r)
        cones.append(tuple([(n_pts + i, p) for p in pts] + [(r, q) for q in pts if q != r]))
    return ConeGraph(
        num_points=n_pts,
        line_points=line_points,
        inner_vertex=tuple(inner),
        cones=tuple(cones),
    )


@dataclass(frozen=True)
class ConeIncidenceGeometry:
    """The cone incidence geometry S^C built over a base geometry.

    Points: the base points, then one cone point per base line (cone point of
    line l is base.num_points + l).  Lines: first the |L| collinear classes
    (the point sets of the base lines, unchanged), then one spoke line
    {cone point, p} per incidence, line-major with points ascending.
    """

    base: IncidenceGeometry
    geometry: IncidenceGeometry
    spoke_of: tuple[tuple[int, int], ...]  # spoke k is line base.num_lines + k

    def cone_point(self, line: int) -> int:
        return self.base.num_points + line


def build_cone_incidence(geometry: IncidenceGeometry) -> ConeIncidenceGeometry:
    n_pts = geometry.num_points
    lines: list[tuple[int, ...]] = [tuple(sorted(line)) for line in geometry.lines]
    spoke_of: list[tuple[int, int]] = []
    for i, line in enumerate(geometry.lines):
        c = n_pts + i
        for p in sorted(line):
            lines.append((p, c))
            spoke_of.append((i, p))
    cone_geometry = IncidenceGeometry(n_pts + geometry.num_lines, tuple(lines))
    return ConeIncidenceGeometry(geometry, cone_geometry, tuple(spoke_of))


_DOT_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#17becf", "#666666", "#bcbd22",
)


def cone_graph_to_dot(graph: ConeGraph, point_names: Optional[tuple[str, ...]] = None) -> str:
    """Graphviz rendering: square cone vertices, round point vertices,
    each cone's edges in that line's color."""
    out = ["graph cone {", "  node [shape=circle];"]
    for p in range(graph.num_points):
        label = point_names[p] if point_names and point_names[p] else f"p{p}"
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'  v{p} [label="{label}"];')
    for i in range(graph.num_lines):
        color = _DOT_PALETTE[i % len(_DOT_PALETTE)]
        c = graph.cone_vertex(i)
        out.append(f'  v{c} [label="c{i}" shape=square color="{color}"];')
    for i, cone in enumerate(graph.cones):
        color = _DOT_PALETTE[i % len(_DOT_PALETTE)]
        for u, v in cone:
            out.append(f'  v{u} -- v{v} [color="{color}"];')
    out.append("}")
    return "\n".join(out) + "\n"
