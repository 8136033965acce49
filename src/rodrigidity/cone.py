"""Cone graphs and the cone incidence geometry of a rank-two incidence
geometry, both built over one cone vertex (cone point) per line."""

from __future__ import annotations

from .geometry import IncidenceGeometry

__all__ = [
    "build_cone_graph",
    "build_cone_incidence",
    "cone_graph_to_dot",
]


def build_cone_graph(geometry: IncidenceGeometry) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The cone graph, as its cones, one per line.

    Point p is vertex p and the cone vertex of line l is num_points + l.
    cones[l] holds the edges of line l's cone: the spokes (cone vertex,
    point) first by point index, then the star edges (inner vertex, point)
    by point index, 2k - 1 edges for a line through k points, so 2|I| - |L|
    edges in all.  The inner vertex is the line's first, lowest point; any
    inner vertex on the line gives the same verdict.  When two lines share
    two or more points the same unordered pair may occur in both cones; the
    pebble game treats the duplicate as dependent, so verdicts are
    unaffected.
    """
    n_pts = geometry.num_points
    return tuple(
        tuple([(n_pts + i, p) for p in line] + [(line[0], q) for q in line[1:]])
        for i, line in enumerate(geometry.lines))


def _spokes(geometry: IncidenceGeometry) -> list[tuple[int, int]]:
    """(point, cone point) per incidence (p, l), line-major: the spoke lines
    of the cone incidence geometry, in order."""
    n_pts = geometry.num_points
    return [(p, n_pts + l) for l, line in enumerate(geometry.lines) for p in line]


def build_cone_incidence(geometry: IncidenceGeometry) -> IncidenceGeometry:
    """The cone incidence geometry S^C of S, which depends on no inner vertex.

    Points: the points of S, then one cone point per line (that of line l is
    S.num_points + l).  Lines: the |L| lines of S, then one two-point spoke
    line (p, cone point of l) per incidence (p, l) of S.incidences(), in
    that order: spoke k is line S.num_lines + k.
    """
    return IncidenceGeometry(geometry.num_points + geometry.num_lines,
                             geometry.lines + tuple(_spokes(geometry)))


_DOT_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#17becf", "#666666", "#bcbd22",
)


def cone_graph_to_dot(geometry: IncidenceGeometry,
                      cones: tuple[tuple[tuple[int, int], ...], ...]) -> str:
    """Graphviz rendering of a geometry's cones: square cone vertices, round
    point vertices named after the geometry's points, each cone's edges in
    that line's color."""
    n_pts, names = geometry.num_points, geometry.point_names
    out = ["graph cone {", "  node [shape=circle];"]
    for p in range(n_pts):
        label = names[p] if names and names[p] else f"p{p}"
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'  v{p} [label="{label}"];')
    for i in range(len(cones)):
        color = _DOT_PALETTE[i % len(_DOT_PALETTE)]
        out.append(f'  v{n_pts + i} [label="c{i}" shape=square color="{color}"];')
    for i, cone in enumerate(cones):
        color = _DOT_PALETTE[i % len(_DOT_PALETTE)]
        for u, v in cone:
            out.append(f'  v{u} -- v{v} [color="{color}"];')
    out.append("}")
    return "\n".join(out) + "\n"
