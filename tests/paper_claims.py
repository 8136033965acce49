"""The paper's exhibits, as exhaustive checks the tests run.

Sharp independence and regularity, the body-and-joint counting screen,
inner-vertex invariance, the subgeometry of an arbitrary cone subgraph with
its restricted realization, and the trivial motions written out as kernel
vectors.  Most of them scan every subset or every choice, so they are
desk-scale only and capped by a budget; none of them decides rigidity, which
is why they are not part of the package.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from typing import Iterable, Optional, Sequence

from rodrigidity import (
    RATIONALS,
    ConeGraph,
    ConeIncidenceGeometry,
    GeometryError,
    IncidenceGeometry,
    LinearRealization,
    OracleError,
    build_concurrence_matrix,
    build_cone_graph,
    play,
    rank_of,
)
from rodrigidity.analysis import _subgeometry_from_parts
from rodrigidity.oracle import Field


class BudgetExceededError(OracleError):
    """An exhaustive check was asked to cover more subsets than its budget allows."""


# --- sharp independence and regularity ---------------------------------------
#
# A set of incidences I' is sharply independent when every subset J supported
# on at least two points satisfies |J| <= |M| + 2|Q| - 3 over its support
# (Q, M).  Subsets supported on a single point are exempt: their rows carry
# distinct intercept columns and are independent in every realization, while
# the -3 bound presumes two distinct support points.


def normalized_subset(geometry: IncidenceGeometry,
                      subset: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    all_inc = set(geometry.incidences())
    incs = sorted(set((int(p), int(l)) for p, l in subset))
    for inc in incs:
        if inc not in all_inc:
            raise GeometryError(f"incidence {inc} is not part of the geometry")
    return incs


def is_sharply_independent_fast(
    geometry: IncidenceGeometry,
    subset: Iterable[tuple[int, int]],
    line_budget: int = 24,
) -> bool:
    """Equivalent check that enumerates support line-sets instead of subsets.

    For a fixed set of lines M the worst offending subset takes every
    incidence of every chosen point, so it suffices to scan all 2^|M'| line
    sets and pick points greedily: a point pays 2 and contributes its degree.
    This decides the same predicate as the brute-force scan
    (bruteforce.is_sharply_independent) in O(2^L * I).
    """
    incs = normalized_subset(geometry, subset)
    by_line: dict[int, list[int]] = {}
    for p, l in incs:
        by_line.setdefault(l, []).append(p)
    lines = sorted(by_line)
    if len(lines) > line_budget:
        raise BudgetExceededError(f"{len(lines)} support lines exceed the budget of {line_budget}")
    line_pts = [by_line[l] for l in lines]
    n = len(lines)
    for mask in range(1, 1 << n):
        degree: dict[int, int] = {}
        m_size = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            m_size += 1
            for p in line_pts[low.bit_length() - 1]:
                degree[p] = degree.get(p, 0) + 1
        if len(degree) < 2:
            continue
        chosen = sorted(degree.values(), reverse=True)
        value = sum(d - 2 for d in chosen if d >= 3)
        heavy = sum(1 for d in chosen if d >= 3)
        if heavy < 2:
            value += sum(d - 2 for d in chosen[heavy:2])
        if value - m_size > -3:
            return False
    return True


def is_regular(
    geometry: IncidenceGeometry,
    realization: LinearRealization,
    budget: int = 16,
) -> bool:
    """Every sharply independent incidence subset has independent matrix rows.

    Exhaustive over subsets, so desk-scale only; it is enough to rank-check
    the maximal sharply independent subsets, since row independence is
    inherited downward.
    """
    if not realization.satisfies(geometry):
        raise OracleError("realization does not satisfy the geometry")
    incs = geometry.incidences()
    n = len(incs)
    if n > budget:
        raise BudgetExceededError(f"{n} incidences exceed the exhaustive budget of {budget}")
    point_bit = [1 << p for p, _ in incs]
    line_bit = [1 << l for _, l in incs]
    size = 1 << n
    pts_mask = [0] * size
    lin_mask = [0] * size
    sharp = bytearray([1]) * size
    for mask in range(1, size):
        low = mask & -mask
        idx = low.bit_length() - 1
        rest = mask ^ low
        pts_mask[mask] = pts_mask[rest] | point_bit[idx]
        lin_mask[mask] = lin_mask[rest] | line_bit[idx]
        ok = True
        q = pts_mask[mask].bit_count()
        if q >= 2 and mask.bit_count() > lin_mask[mask].bit_count() + 2 * q - 3:
            ok = False
        else:
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                if not sharp[mask ^ low]:
                    ok = False
                    break
        sharp[mask] = 1 if ok else 0
    matrix = build_concurrence_matrix(geometry, realization)
    for mask in range(1, size):
        if not sharp[mask]:
            continue
        maximal = True
        for b in range(n):
            sup = mask | (1 << b)
            if sup != mask and sharp[sup]:
                maximal = False
                break
        if not maximal:
            continue
        rows = tuple(incs[i] for i in range(n) if mask >> i & 1)
        if rank_of(replace(matrix, incidences=rows)) < len(rows):
            return False
    return True


# --- counting screens and inner-vertex invariance ------------------------------


def check_body_joint_counts(geometry: IncidenceGeometry, line_budget: int = 20) -> bool:
    """Counting screen for independent body-and-joint realizability:
    2|I'| <= 3|L'| + 2|P'| - 3 globally and for every nonempty set of lines
    with its induced points.  Necessary for that model, but not for rod
    rigidity, which is exactly why the cone-graph route exists."""
    n = geometry.num_lines
    if n > line_budget:
        raise BudgetExceededError(f"{n} lines exceed the subset budget of {line_budget}")
    if 2 * geometry.num_incidences > 3 * n + 2 * geometry.num_points - 3:
        return False
    masks = [0] * n
    sizes = [len(line) for line in geometry.lines]
    for i, line in enumerate(geometry.lines):
        for p in line:
            masks[i] |= 1 << p
    for mask in range(1, 1 << n):
        inc = 0
        pts = 0
        count = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            inc += sizes[i]
            pts |= masks[i]
            count += 1
        if 2 * inc > 3 * count + 2 * pts.bit_count() - 3:
            return False
    return True


def inner_choice_classifications(geometry: IncidenceGeometry) -> set[str]:
    """Pebble classifications of the cone graph over all inner-vertex choices.

    Always a singleton: the choice of inner vertices never changes the
    verdict.  Exhaustive, so only for small geometries."""
    out = set()
    for combo in product(*[sorted(line) for line in geometry.lines]):
        graph = build_cone_graph(geometry, dict(enumerate(combo)))
        out.add(play(graph.num_vertices, graph.edges).classification)
    return out


# --- subgeometries of cone subgraphs -------------------------------------------


def derive_subgeometry(
    geometry: IncidenceGeometry,
    host: ConeGraph,
    edges: Iterable[tuple[int, int]],
) -> tuple[IncidenceGeometry, tuple[int, ...]]:
    """Subgeometry induced by an arbitrary subgraph of a cone graph.

    Star edges are credited to the lowest-index line whose inner vertex they
    touch (ownership is only ambiguous when two lines share two points).
    Raises if an edge is not part of any cone of the host graph.
    """
    n_pts = geometry.num_points
    star_members: list[set[int]] = [set() for _ in range(geometry.num_lines)]
    spokes: set[tuple[int, int]] = set()
    for u, v in edges:
        if u < v:
            u, v = v, u  # cone vertex (if any) first
        if u >= n_pts:
            line = u - n_pts
            if v not in host.line_points[line]:
                raise GeometryError(f"spoke ({u}, {v}) is not an edge of the cone graph")
            spokes.add((line, v))
            continue
        owner = None
        for l in range(geometry.num_lines):
            if host.inner_vertex[l] in (u, v) and u in host.line_points[l] and v in host.line_points[l]:
                owner = l
                break
        if owner is None:
            raise GeometryError(f"edge ({u}, {v}) is not a star edge of the cone graph")
        star_members[owner].update((u, v))
    return _subgeometry_from_parts(geometry, star_members, spokes)


def restrict_realization(
    cone: ConeIncidenceGeometry,
    realization: LinearRealization,
    subgeometry: IncidenceGeometry,
    source_lines: Sequence[int],
) -> LinearRealization:
    """Realization of a derived subgeometry, pulled from one of the cone
    incidence geometry (points are shared; lines map through source_lines)."""
    if len(source_lines) != subgeometry.num_lines:
        raise GeometryError("source_lines length does not match the subgeometry")
    restricted = LinearRealization(
        field=realization.field,
        slopes=tuple(realization.slopes[src] for src in source_lines),
        intercepts=tuple(realization.intercepts[src] for src in source_lines),
        xs=realization.xs,
        ys=realization.ys,
    )
    if not restricted.satisfies(subgeometry):
        raise GeometryError("restricted realization violates the subgeometry")
    return restricted


# --- trivial motions and the trivial realization ------------------------------


def kernel_witnesses(geometry: IncidenceGeometry,
                     realization: LinearRealization) -> list[list]:
    """The two translations and the dilation, as explicit kernel vectors."""
    zero, one, p = realization.field.zero, realization.field.one, realization.field.p
    L, P = geometry.num_lines, geometry.num_points
    tx = [-realization.slopes[l] % p if p else -realization.slopes[l] for l in range(L)]
    ty = [-one % p if p else -one for _ in range(L)]
    for _ in range(P):
        tx.extend([one, zero])
        ty.extend([zero, one])
    dilation = list(realization.intercepts)
    for j in range(P):
        dilation.extend([realization.xs[j], realization.ys[j]])
    return [tx, ty, dilation]


def trivial_realization(geometry: IncidenceGeometry, field: Optional[Field] = None) -> LinearRealization:
    """All points at (1, 1) on lines of a single shared slope."""
    field = field or RATIONALS
    one, p = field.one, field.p
    h = -(one + one) % p if p else -(one + one)  # f*x + y + h = 0 at (1,1) with f = 1
    return LinearRealization(
        field=field,
        slopes=tuple(one for _ in range(geometry.num_lines)),
        intercepts=tuple(h for _ in range(geometry.num_lines)),
        xs=tuple(one for _ in range(geometry.num_points)),
        ys=tuple(one for _ in range(geometry.num_points)),
    )
