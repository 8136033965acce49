"""Rank-two incidence geometries: the shared input type for everything else.

An incidence geometry is a triple (P, L, I) of points, lines (here: rods),
and point-line incidences.  Points and lines are dense integer indices;
optional string names exist only for display.  Instances are immutable and
hashable, so they can be shared freely across threads.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from ._record import Record, set_field

__all__ = [
    "GeometryError",
    "GeometryParseError",
    "IncidenceGeometry",
    "parse_geometry",
    "serialize_geometry",
    "geometry_from_json",
    "geometry_to_json",
    "load_geometry",
    "is_connected",
    "remove_line",
    "shared_rod_pair",
]


class GeometryError(ValueError):
    """A structurally invalid incidence geometry."""


class GeometryParseError(GeometryError):
    """Syntax or reference error in a geometry file, annotated with a position."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class IncidenceGeometry(Record):
    """Points 0..num_points-1 plus lines, each stored as the ascending tuple
    of its points, so a rod listed in another order gives an equal geometry.

    Every line must contain at least two distinct points: a rod through fewer
    than two points constrains nothing and only produces degenerate cones
    downstream, so such input is rejected outright.  Points on no line are
    legal; is_connected counts each as a component of its own.  The point
    count and every point index are ints: a bool, float or string is refused,
    never coerced, as geometry_from_json refuses it.  The names are a
    sequence of strings, not one string, stored as a tuple as the lines are,
    so any sequence of names gives an equal, hashable geometry.  An empty
    point name means no name, so names that are all empty are stored as None,
    which is how the text format (it writes no empty name) reads them back.
    """

    __slots__ = ("num_points", "lines", "point_names")

    def __init__(self, num_points: int, lines: Sequence[Sequence[int]],
                 point_names: Optional[Sequence[str]] = None):
        n = num_points
        if type(n) is not int:
            raise GeometryError(f"point count {n!r:.40} is not an integer")
        if n < 0:
            raise GeometryError("negative point count")
        try:
            lines = list(lines)
        except TypeError:
            raise GeometryError(f"lines {lines!r:.40} are not a sequence") from None
        for idx, line in enumerate(lines):
            try:
                line = tuple(line)
            except TypeError:
                raise GeometryError(f"line {idx} is {line!r:.40}, not a sequence") from None
            if len(line) < 2:
                raise GeometryError(f"line {idx} has {len(line)} point(s); need at least 2")
            for p in line:
                if type(p) is not int:
                    raise GeometryError(f"line {idx} has point index {p!r:.40}, not an integer")
                if not 0 <= p < n:
                    raise GeometryError(f"line {idx} references point {p} "
                                        f"but only {n} points exist")
            if len(set(line)) != len(line):
                raise GeometryError(f"line {idx} repeats a point (duplicate incidence)")
            lines[idx] = tuple(sorted(line))
        names = point_names
        if names is not None:
            try:
                names = tuple(point_names)
            except TypeError:
                raise GeometryError(f"point names {point_names!r:.40} are not a "
                                    "sequence of strings") from None
            if isinstance(point_names, str) or not all(isinstance(s, str) for s in names):
                raise GeometryError(f"point names {point_names!r:.40} are not a "
                                    "sequence of strings")
            if len(names) != n:
                raise GeometryError("point_names length does not match num_points")
            # an empty name is no name
            names = names if any(names) else None
        self._store(n, tuple(lines), names)

    def _store(self, num_points: int, lines: tuple[tuple[int, ...], ...],
               point_names: Optional[tuple[str, ...]]) -> None:
        """Set the fields to values that the checks of __init__ would store
        unchanged: a caller that builds such values itself, on an instance
        from IncidenceGeometry.__new__, skips the checks."""
        set_field(self, "num_points", num_points)
        set_field(self, "lines", lines)
        set_field(self, "point_names", point_names)

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    @property
    def num_incidences(self) -> int:
        return sum(len(line) for line in self.lines)

    def incidences(self) -> tuple[tuple[int, int], ...]:
        """All (point, line) pairs, line-major, each line's points ascending."""
        return tuple((p, i) for i, line in enumerate(self.lines) for p in line)

    def point_line_map(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_points)]
        for i, line in enumerate(self.lines):
            for p in line:
                out[p].append(i)
        return out


def is_connected(geometry: IncidenceGeometry) -> bool:
    """Connectivity of the bipartite point-line incidence graph.

    Empty and single-entity geometries count as connected; a point on no line
    disconnects any geometry with more than one entity.
    """
    n_pts = geometry.num_points
    n_entities = n_pts + geometry.num_lines
    if n_entities <= 1:
        return True
    adjacency: list[list[int]] = [[] for _ in range(n_entities)]
    for i, line in enumerate(geometry.lines):
        v = n_pts + i
        for p in line:
            adjacency[p].append(v)
            adjacency[v].append(p)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n_entities


def shared_rod_pair(geometry: IncidenceGeometry) -> Optional[tuple[int, int, int, int]]:
    """Two rods through the same two points, as (l1, l2, p, q) with l1 < l2
    and p < q, or None when any two rods share at most one point.

    Such a pair has no proper realization: rods of different slopes meet in
    one point, so p and q would coincide.  Rods are scanned in index order;
    for each point q of rod l2, ascending, the rods l1 < l2 through q are
    walked, and the first rod l1 met at a second point ends the scan.
    So l2 is the first rod that shares two points with an earlier one, and
    the scan takes O(sum of deg(p)^2) time at most.
    """
    rods_at = geometry.point_line_map()  # each list in ascending rod order
    for l2, line in enumerate(geometry.lines):
        first_shared: dict[int, int] = {}
        for q in line:
            for l1 in rods_at[q]:
                if l1 >= l2:
                    break
                p = first_shared.setdefault(l1, q)
                if p != q:
                    return l1, l2, p, q
    return None


def remove_line(geometry: IncidenceGeometry, line_index: int) -> IncidenceGeometry:
    """Delete one line and its incidences; all points are kept."""
    if not 0 <= line_index < geometry.num_lines:
        raise GeometryError(f"no line {line_index}")
    lines = geometry.lines[:line_index] + geometry.lines[line_index + 1 :]
    return IncidenceGeometry(geometry.num_points, lines, geometry.point_names)


# --- text format -----------------------------------------------------------
#
#   # comment
#   points: 7
#   point 0 apex          (optional display name)
#   line: 0 2 3
#
# Point references in `line:` statements are dense indices into 0..n-1.
# Counts and indices are ASCII decimal digits with an optional leading '-'.


def _decimals(tokens: list[str]) -> tuple[int, ...]:
    """The integers that tokens of ASCII digits, each after an optional '-',
    spell; ValueError for anything else, such as '1_0', '+1' or non-ASCII
    digits.  int places the sign, so one test of all the digits suffices."""
    values = tuple(map(int, tokens))
    digits = "".join(tokens).replace("-", "")
    if digits and not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer, got {' '.join(tokens)!r:.40}")
    return values


def parse_geometry(text: str) -> IncidenceGeometry:
    num_points: Optional[int] = None
    names: dict[int, str] = {}
    lines: list[tuple[int, ...]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("points:"):
            if num_points is not None:
                raise GeometryParseError("duplicate points: header", line_no)
            body = stripped[len("points:") :].strip()
            try:
                num_points = _decimals([body])[0]
            except ValueError:
                raise GeometryParseError(f"bad point count {body!r}", line_no) from None
            if num_points < 0:
                raise GeometryParseError("negative point count", line_no)
        elif stripped.startswith("point "):
            if num_points is None:
                raise GeometryParseError("point alias before points: header", line_no)
            parts = stripped.split(None, 2)
            if len(parts) != 3:
                raise GeometryParseError("expected: point <idx> <name>", line_no)
            try:
                idx = _decimals([parts[1]])[0]
            except ValueError:
                raise GeometryParseError(f"bad point index {parts[1]!r}", line_no) from None
            if not 0 <= idx < num_points:
                raise GeometryParseError(
                    f"point alias references point {idx} but only {num_points} points exist",
                    line_no,
                )
            if idx in names:
                raise GeometryParseError(f"duplicate alias for point {idx}", line_no)
            names[idx] = parts[2]
        elif stripped.startswith("line:"):
            if num_points is None:
                raise GeometryParseError("line before points: header", line_no)
            body = stripped[len("line:") :].split()
            try:
                pts = _decimals(body)
            except ValueError:
                raise GeometryParseError(f"bad point index in line: {stripped!r}", line_no) from None
            if len(pts) < 2:
                raise GeometryParseError(f"line has {len(pts)} point(s); need at least 2", line_no)
            if len(set(pts)) != len(pts):
                raise GeometryParseError("duplicate incidence: line repeats a point", line_no)
            for p in pts:
                if not 0 <= p < num_points:
                    raise GeometryParseError(
                        f"dangling reference: point {p} of {num_points}", line_no
                    )
            lines.append(pts)
        else:
            raise GeometryParseError(f"unrecognized statement {stripped!r}", line_no)
    if num_points is None:
        raise GeometryParseError("missing points: header")
    point_names = None
    if names:
        point_names = tuple(names.get(i, "") for i in range(num_points))
    return IncidenceGeometry(num_points, tuple(lines), point_names)


def serialize_geometry(geometry: IncidenceGeometry) -> str:
    """The text format of the geometry, which parse_geometry reads back as
    an equal geometry.  A name that parsing would change is refused with a
    GeometryError naming its point: surrounding whitespace is stripped, '#'
    starts a comment and a line break starts a statement."""
    out = [f"points: {geometry.num_points}"]
    if geometry.point_names is not None:
        for i, name in enumerate(geometry.point_names):
            if not name:
                continue
            if name != name.strip() or "#" in name or name.splitlines() != [name]:
                raise GeometryError(
                    f"point {i} name {name!r} cannot be written in the text format: "
                    "it has surrounding whitespace, a '#' or a line break"
                )
            out.append(f"point {i} {name}")
    for line in geometry.lines:
        out.append("line: " + " ".join(str(p) for p in line))
    return "\n".join(out) + "\n"


def geometry_to_json(geometry: IncidenceGeometry) -> dict:
    doc: dict = {
        "points": geometry.num_points,
        "lines": [list(line) for line in geometry.lines],
    }
    if geometry.point_names is not None:
        doc["names"] = list(geometry.point_names)
    return doc


def _json_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r:.40}")
    return value


def _json_list(value, length: Optional[int] = None) -> list:
    """A JSON list, of the given length if one is given."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r:.40}")
    if length is not None and len(value) != length:
        raise TypeError(f"expected {length} entries, got {value!r:.40}")
    return value


def _json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r:.40}")
    return value


def geometry_from_json(doc: dict) -> IncidenceGeometry:
    """The document must be a JSON object, its counts and point indices JSON
    integers, and the lines and each line JSON lists: a string, float or bool
    is refused, never coerced."""
    try:
        doc = _json_object(doc)
        num_points = _json_int(doc["points"])
        lines = tuple(tuple(_json_int(p) for p in _json_list(line))
                      for line in _json_list(doc["lines"]))
        names = doc.get("names")
        if names is not None and not (
            isinstance(names, list) and all(isinstance(n, str) for n in names)
        ):
            raise TypeError("names must be a list of strings")
    except (KeyError, TypeError) as exc:
        raise GeometryError(f"bad geometry document: {exc}") from None
    return IncidenceGeometry(num_points, lines, tuple(names) if names else None)


def _read_json(path: str):
    """The JSON document in a file, read as text first (UnicodeDecodeError
    if it is not UTF-8); any JSON that cannot be read is a GeometryError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise GeometryError("bad JSON: nested too deeply") from None
    except ValueError as exc:
        raise GeometryError(f"bad JSON: {exc}") from None


def load_geometry(path: str) -> IncidenceGeometry:
    """Read a geometry from a .json or text-format file."""
    if path.endswith(".json"):
        return geometry_from_json(_read_json(path))
    with open(path, "r", encoding="utf-8") as fh:
        return parse_geometry(fh.read())
