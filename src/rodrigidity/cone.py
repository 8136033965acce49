"""Cone graphs and the cone incidence geometry of a rank-two incidence geometry.

The cone graph of a geometry has one vertex per point plus one cone vertex
per line.  Each line contributes a "cone": spokes from its cone vertex to
every incident point, plus a star on the incident points rooted at an inner
vertex, its lowest point, which comes first.  Point p is vertex p; line l
is vertex num_points + l.

The cone incidence geometry adds one new point per line (the cone point) and
one two-point "spoke line" per incidence; it does not depend on any inner
vertex.
"""

from __future__ import annotations

from typing import Optional

from ._record import Record, set_field
from .geometry import IncidenceGeometry

__all__ = [
    "ConeGraph",
    "ConeIncidenceGeometry",
    "build_cone_graph",
    "build_cone_incidence",
    "cone_graph_to_dot",
]


class ConeGraph(Record):
    """A cone graph as the list of its cones, one per line.

    cones[l] holds the edges of line l's cone: the spokes (cone vertex,
    point) first by point index, then the star edges (inner vertex, point)
    by point index, 2k - 1 edges for a line through k points, so 2|I| - |L|
    edges in all.  When two lines share two or more points the same
    unordered pair may occur in both cones; the pebble game treats the
    duplicate as dependent, so verdicts are unaffected.  Any inner vertex
    on the line gives the same verdict; build_cone_graph takes the first.
    """

    __slots__ = ("num_points", "cones")

    def __init__(self, num_points: int, cones: tuple[tuple[tuple[int, int], ...], ...]):
        set_field(self, "num_points", num_points)
        set_field(self, "cones", cones)

    @property
    def num_lines(self) -> int:
        return len(self.cones)

    @property
    def num_vertices(self) -> int:
        return self.num_points + self.num_lines

    def cone_vertex(self, line: int) -> int:
        return self.num_points + line


def build_cone_graph(geometry: IncidenceGeometry) -> ConeGraph:
    """Cone graph whose inner vertex on each line is its first, lowest point."""
    n_pts = geometry.num_points
    return ConeGraph(n_pts, tuple(
        tuple([(n_pts + i, p) for p in line] + [(line[0], q) for q in line[1:]])
        for i, line in enumerate(geometry.lines)))


class ConeIncidenceGeometry(Record):
    """The cone incidence geometry S^C built over a base geometry.

    Points: the base points, then one cone point per base line (cone point of
    line l is base.num_points + l).  Lines: first the |L| collinear classes
    (the base lines, points ascending), then one spoke line (p, cone point
    of l) per incidence (p, l) of base.incidences(), in that order: spoke k
    is line base.num_lines + k of geometry.
    """

    __slots__ = ("base", "geometry")

    def __init__(self, base: IncidenceGeometry, geometry: IncidenceGeometry):
        set_field(self, "base", base)
        set_field(self, "geometry", geometry)


def build_cone_incidence(geometry: IncidenceGeometry) -> ConeIncidenceGeometry:
    n_pts = geometry.num_points
    spokes = tuple((p, n_pts + l) for p, l in geometry.incidences())
    cone_geometry = IncidenceGeometry(n_pts + geometry.num_lines, geometry.lines + spokes)
    return ConeIncidenceGeometry(geometry, cone_geometry)


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
