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
    """Edge list of a cone graph, with per-line bookkeeping.

    Edges are ordered cone by cone in line order; within a cone the spokes
    (cone vertex, point) come first by point index, then the star edges
    (inner vertex, point) by point index.  The edge list has exactly
    2|I| - |L| entries.  When two lines share two or more points the same
    unordered pair may occur twice in the list (once per owning cone); the
    pebble game treats the duplicate as dependent, so verdicts are unaffected.
    """

    num_points: int
    line_points: tuple[tuple[int, ...], ...]
    inner_vertex: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    cone_edges: tuple[tuple[int, ...], ...]  # per line: indices into edges

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
    inner: list[int] = []
    for i, line in enumerate(geometry.lines):
        choice = min(line) if inner_choice is None or i not in inner_choice else inner_choice[i]
        if choice not in line:
            raise GeometryError(f"inner vertex {choice} is not incident to line {i}")
        inner.append(choice)
    edges: list[tuple[int, int]] = []
    cone_edges: list[tuple[int, ...]] = []
    for i, line in enumerate(geometry.lines):
        c = n_pts + i
        indices = []
        for p in sorted(line):
            indices.append(len(edges))
            edges.append((c, p))
        for q in sorted(line):
            if q != inner[i]:
                indices.append(len(edges))
                edges.append((inner[i], q))
        cone_edges.append(tuple(indices))
    return ConeGraph(
        num_points=n_pts,
        line_points=tuple(tuple(sorted(line)) for line in geometry.lines),
        inner_vertex=tuple(inner),
        edges=tuple(edges),
        cone_edges=tuple(cone_edges),
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
        out.append(f'  v{p} [label="{label}"];')
    for i in range(graph.num_lines):
        color = _DOT_PALETTE[i % len(_DOT_PALETTE)]
        c = graph.cone_vertex(i)
        out.append(f'  v{c} [label="c{i}" shape=square color="{color}"];')
    for i, indices in enumerate(graph.cone_edges):
        color = _DOT_PALETTE[i % len(_DOT_PALETTE)]
        for k in indices:
            u, v = graph.edges[k]
            out.append(f'  v{u} -- v{v} [color="{color}"];')
    out.append("}")
    return "\n".join(out) + "\n"
