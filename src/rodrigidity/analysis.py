"""Rigidity verdicts for rod configurations.

The combinatorial route plays the (2,3)-pebble game on a cone graph of the
input geometry: three remaining pebbles means every sufficiently generic rod
configuration realizing it is infinitesimally rigid.  The algebraic route
samples an exact proper realization, extends it to the cone incidence
geometry, and checks whether the concurrence matrix reaches its maximum rank.
Both routes must agree on regular samples; a disagreement is a defect and is
raised loudly with a reproduction bundle, never swallowed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .cone import ConeGraph, ConeIncidenceGeometry, build_cone_graph, build_cone_incidence
from .geometry import (
    GeometryError,
    IncidenceGeometry,
    geometry_to_json,
    is_connected,
    remove_line,
)
from .oracle import (
    Field,
    Infeasible,
    LinearRealization,
    is_string_config_rigid,
    realization_to_json,
    realize_cone,
    sample_realization,
)
from .pebble import (
    PebbleVerdict,
    new_state,
    play,
    remaining_without_each,
    try_edge,
    verdict_of,
)
# Not called here, but perfbench/tracing.py wraps this name in this module.
from .pebble import independent_after  # noqa: F401

__all__ = [
    "DEFAULT_SEED",
    "OracleDisagreementError",
    "RigidityVerdict",
    "CanonicalSubgraph",
    "MinimalRigidityReport",
    "CampaignError",
    "CampaignReport",
    "decide_rod_rigidity",
    "canonical_subgraph",
    "canonical_edge_order",
    "decide_minimal_rigidity",
    "random_geometry",
    "run_agreement_campaign",
    "verdict_to_json",
]

DEFAULT_SEED = 1729


class CampaignError(RuntimeError):
    """Random geometries within the given bounds cannot be drawn, or too few
    of them cross-validate; the bounds, not the oracles, are at fault."""


class OracleDisagreementError(RuntimeError):
    """Combinatorial and algebraic verdicts differ on a regular-looking sample.

    This should be impossible; the exception carries a serialized
    reproduction bundle so the offending instance is never lost."""

    def __init__(self, message: str, bundle: dict):
        super().__init__(message)
        self.bundle = bundle


@dataclass(frozen=True)
class RigidityVerdict:
    connected: bool
    pebble: Optional[PebbleVerdict]
    is_rigid: bool
    agreement: str  # "agree" | "disagree" | "algebraic-skipped"
    algebraic: Optional[tuple[bool, ...]] = None  # per-seed string-config verdicts

    @property
    def classification(self) -> str:
        if self.pebble is not None:
            return self.pebble.classification
        return "minimally-rigid" if self.is_rigid else "flexible-independent"

    @property
    def remaining_pebbles(self) -> int:
        return self.pebble.remaining_pebbles if self.pebble is not None else 3

    @property
    def degrees_of_freedom(self) -> int:
        return self.remaining_pebbles - 3


def verdict_to_json(verdict: RigidityVerdict) -> dict:
    return {
        "classification": verdict.classification,
        "remaining_pebbles": verdict.remaining_pebbles,
        "accepted_edges": [list(e) for e in verdict.pebble.accepted] if verdict.pebble else [],
        "agreement": verdict.agreement,
    }


def _spawn_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 62) for _ in range(count)]


def decide_rod_rigidity(
    geometry: IncidenceGeometry,
    mode: str = "combinatorial",
    seed: int = DEFAULT_SEED,
    *,
    field: Optional[Field] = None,
    sample_budget: int = 32,
) -> RigidityVerdict:
    """Classify the rod configurations realizing a geometry.

    Combinatorial mode plays the pebble game on the cone graph.
    Cross-validated mode additionally samples exact realizations for three
    derived seeds, extends each to the cone incidence geometry, and
    rank-checks it; agreement is "agree" only when every successfully sampled
    seed reaches the same algebraic verdict and it matches the pebble game.
    Disconnected geometries (including any with an isolated point, when more
    than one entity exists) are flexible immediately and skip the algebraic
    side, as do geometries whose sampling keeps hitting forced coincidences
    (two rods through the same two points are refused without a draw).
    """
    if mode not in ("combinatorial", "cross-validated"):
        raise ValueError(f"unknown mode {mode!r}")
    connected = is_connected(geometry)
    cone = build_cone_graph(geometry)
    if cone.num_vertices >= 2:
        pebble = play(cone.num_vertices, cone.edges)
        rigid = connected and pebble.is_rigid
    else:
        pebble = None  # zero or one entity: nothing has an internal motion
        rigid = True
    agreement = "algebraic-skipped"
    algebraic: Optional[tuple[bool, ...]] = None
    if mode == "cross-validated" and connected and pebble is not None:
        samples: list[tuple[int, LinearRealization, LinearRealization, bool]] = []
        sc: Optional[ConeIncidenceGeometry] = None
        for s in _spawn_seeds(seed, 3):
            rho = sample_realization(geometry, s, field=field, budget=sample_budget)
            if isinstance(rho, Infeasible):
                continue
            if sc is None:
                sc = build_cone_incidence(geometry)
            rho_cone = realize_cone(sc, rho, s)
            samples.append((s, rho, rho_cone, is_string_config_rigid(sc, rho_cone)))
        if samples:
            verdicts = [v for _, _, _, v in samples]
            algebraic = tuple(verdicts)
            if all(v == verdicts[0] for v in verdicts):
                if verdicts[0] == rigid:
                    agreement = "agree"
                else:
                    _raise_disagreement(geometry, seed, pebble, samples)
            elif not rigid and any(verdicts):
                # A flexible cone graph bounds the matrix rank from above, so
                # even one rigid algebraic sample is a defect.
                _raise_disagreement(geometry, seed, pebble, samples)
            # otherwise the seeds are unstable (irregular samples): stay skipped
    return RigidityVerdict(
        connected=connected,
        pebble=pebble,
        is_rigid=rigid,
        agreement=agreement,
        algebraic=algebraic,
    )


def _raise_disagreement(geometry, seed, pebble, samples) -> None:
    bundle = {
        "geometry": geometry_to_json(geometry),
        "seed": seed,
        "pebble_classification": pebble.classification,
        "remaining_pebbles": pebble.remaining_pebbles,
        "samples": [
            {
                "sample_seed": s,
                "algebraic_rigid": bool(v),
                "realization": realization_to_json(rho),
                "cone_realization": realization_to_json(rho_cone),
            }
            for s, rho, rho_cone, v in samples
        ],
    }
    raise OracleDisagreementError(
        "combinatorial and algebraic rigidity verdicts disagree "
        f"(pebble: {pebble.classification}); reproduction bundle attached",
        bundle,
    )


# --- the canonical maximally independent subgraph -----------------------------


@dataclass(frozen=True)
class CanonicalSubgraph:
    """Maximally independent subgraph of a cone graph, plus its subgeometry.

    The subgeometry keeps every vertex as a point; its lines are the star of
    each original line restricted to the accepted star edges (when at least
    two points survive) followed by one two-point line per accepted spoke.
    source_lines maps each subgeometry line to the corresponding line of the
    cone incidence geometry, so any realization of the cone incidence
    geometry restricts to one of the subgeometry.
    """

    cone_graph: ConeGraph
    edges: tuple[tuple[int, int], ...]
    rejected: tuple[tuple[int, int], ...]
    line_order: tuple[int, ...]
    subgeometry: IncidenceGeometry
    source_lines: tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return self.cone_graph.num_vertices


def _line_order(geometry: IncidenceGeometry) -> tuple[int, ...]:
    """BFS over the line-intersection graph from line 0, neighbors by index."""
    n = geometry.num_lines
    sets = [geometry.line_set(i) for i in range(n)]
    order = [0]
    seen = {0}
    head = 0
    while head < len(order):
        current = order[head]
        head += 1
        for j in range(n):
            if j not in seen and sets[current] & sets[j]:
                seen.add(j)
                order.append(j)
    if len(order) != n:
        raise GeometryError("line-intersection graph is disconnected")
    return tuple(order)


def canonical_edge_order(
    geometry: IncidenceGeometry,
) -> tuple[ConeGraph, tuple[int, ...], tuple[tuple[int, int, int, int], ...]]:
    """The cone graph and staged edge ordering of the canonical construction.

    Lines are visited in BFS order; the inner vertex of each line is its
    lowest-index already-seen point (lowest point overall for the first
    line).  Within a line: spoke to the inner vertex, spoke to the next seen
    point, spokes to fresh points, star edges to fresh points, then the
    remaining spokes and the remaining star edges, which are the two
    conditional stages.  Every edge of the host graph appears exactly once.
    Returns (host graph, line order, plan of (stage, line, u, v) entries).
    """
    if not is_connected(geometry):
        raise GeometryError("the construction requires a connected geometry")
    if geometry.num_lines == 0:
        raise GeometryError("the construction requires at least one line")
    order = _line_order(geometry)
    n_pts = geometry.num_points
    seen_points: set[int] = set()
    inner: dict[int, int] = {}
    plan: list[tuple[int, int, int, int]] = []
    for position, line in enumerate(order):
        pts = sorted(geometry.lines[line])
        c = n_pts + line
        if position == 0:
            p = pts[0]
            inner[line] = p
            for q in pts:
                plan.append((1, line, c, q))
            for q in pts[1:]:
                plan.append((1, line, p, q))
            seen_points.update(pts)
            continue
        shared = [x for x in pts if x in seen_points]
        fresh = [x for x in pts if x not in seen_points]
        p = shared[0]
        inner[line] = p
        plan.append((2, line, c, p))
        if len(shared) >= 2:
            plan.append((3, line, c, shared[1]))
        for pk in fresh:
            plan.append((4, line, c, pk))
        for pk in fresh:
            plan.append((5, line, p, pk))
        for q in shared[2:]:
            plan.append((6, line, c, q))
        for q in shared[1:]:
            plan.append((7, line, p, q))
        seen_points.update(fresh)
    host = build_cone_graph(geometry, inner)
    return host, order, tuple(plan)


def canonical_subgraph(geometry: IncidenceGeometry) -> CanonicalSubgraph:
    """Deterministic maximally independent subgraph of a cone graph.

    Edges are offered to the pebble game in the staged order of
    canonical_edge_order, each exactly once.  The unconditional stages must
    accept (each adds a fresh vertex carrying two pebbles along with at most
    two edges); an edge of the conditional stages is kept only when the game
    accepts it, and a rejection leaves the game state valid.  The accepted
    set is maximally independent in the cone graph, and the induced
    subgeometry is sharply independent.
    """
    host, order, plan = canonical_edge_order(geometry)
    state = new_state(host.num_vertices)
    n_pts = geometry.num_points
    star_members: list[set[int]] = [set() for _ in range(geometry.num_lines)]
    spokes: set[tuple[int, int]] = set()
    for stage, line, u, v in plan:
        if not try_edge(state, u, v):
            if stage < 6:
                raise AssertionError(f"unconditional construction edge ({u}, {v}) was rejected")
            continue
        if u >= n_pts:
            spokes.add((line, v))
        else:
            star_members[line].update((u, v))
    sub, sources = _subgeometry_from_parts(geometry, star_members, spokes)
    game = verdict_of(state)
    return CanonicalSubgraph(
        cone_graph=host,
        edges=game.accepted,
        rejected=game.rejected,
        line_order=order,
        subgeometry=sub,
        source_lines=sources,
    )


def _subgeometry_from_parts(
    geometry: IncidenceGeometry,
    star_members: Sequence[set[int]],
    spokes: set[tuple[int, int]],
) -> tuple[IncidenceGeometry, tuple[int, ...]]:
    """Assemble a subgeometry of the cone incidence geometry from star sets
    (per original line) and accepted spokes, with source-line indices."""
    n_pts, n_lines = geometry.num_points, geometry.num_lines
    cone = build_cone_incidence(geometry)
    lines: list[tuple[int, ...]] = []
    sources: list[int] = []
    for l in range(n_lines):
        members = star_members[l]
        if len(members) >= 2:
            lines.append(tuple(sorted(members)))
            sources.append(l)
    for k, (l, p) in enumerate(cone.spoke_of):
        if (l, p) in spokes:
            lines.append((p, n_pts + l))
            sources.append(n_lines + k)
    sub = IncidenceGeometry(n_pts + n_lines, tuple(lines))
    return sub, tuple(sources)


# --- minimal rigidity and fuzzing --------------------------------------------


@dataclass(frozen=True)
class MinimalRigidityReport:
    base: RigidityVerdict
    deletion_rigid: tuple[bool, ...]
    removable: tuple[int, ...]
    minimally_rigid: bool


def decide_minimal_rigidity(
    geometry: IncidenceGeometry,
    mode: str = "combinatorial",
    seed: int = DEFAULT_SEED,
    *,
    field: Optional[Field] = None,
) -> MinimalRigidityReport:
    """Rigid, and no single rod can be deleted without losing rigidity.

    The base verdict is decided once.  For a rigid base, one leave-one-out
    pebble game (remaining_without_each over the cones of the cone graph)
    answers every deletion: deleting rod l leaves its cone vertex isolated
    with two pebbles, so the deletion is rigid iff five pebbles remain (the
    three trivial motions plus those two).  Each deletion keeps all points,
    so a rod whose removal strands a point yields a flexible configuration:
    the stranded point is a free joint and keeps two more pebbles.
    Cross-validated mode also decides and cross-validates each deletion
    geometry on its own, over `field`, and raises if its verdict differs from
    the leave-one-out answer.  A flexible base gets no deletions: its report
    has empty deletion_rigid and removable and is not minimally rigid."""
    base = decide_rod_rigidity(geometry, mode, seed, field=field)
    deletion_rigid: tuple[bool, ...] = ()
    if base.is_rigid:
        cone = build_cone_graph(geometry)
        groups = [[cone.edges[k] for k in indices] for indices in cone.cone_edges]
        deletion_rigid = tuple(
            left == 5 for left in remaining_without_each(cone.num_vertices, groups)
        )
        if mode == "cross-validated":
            for l, rigid in enumerate(deletion_rigid):
                verdict = decide_rod_rigidity(remove_line(geometry, l), mode, seed, field=field)
                if verdict.is_rigid != rigid:
                    raise AssertionError(
                        f"deleting rod {l}: the leave-one-out game says rigid={rigid}, "
                        f"deciding the deletion says rigid={verdict.is_rigid}"
                    )
    removable = tuple(l for l, r in enumerate(deletion_rigid) if r)
    return MinimalRigidityReport(
        base=base,
        deletion_rigid=deletion_rigid,
        removable=removable,
        minimally_rigid=base.is_rigid and not removable,
    )


def minimal_report_to_json(report: MinimalRigidityReport) -> dict:
    doc = verdict_to_json(report.base)
    doc["removable_rods"] = list(report.removable)
    doc["minimally_rigid"] = report.minimally_rigid
    return doc


def random_geometry(
    rng: random.Random,
    max_points: int = 10,
    max_lines: int = 6,
) -> IncidenceGeometry:
    """Random connected test geometry: every line gets 2..4 distinct random
    points.  Test infrastructure, nothing more."""
    for _ in range(1000):
        n_pts = rng.randint(2, max_points)
        n_lines = rng.randint(1, max_lines)
        lines = []
        for _ in range(n_lines):
            k = rng.randint(2, min(n_pts, 4))
            lines.append(tuple(sorted(rng.sample(range(n_pts), k))))
        geometry = IncidenceGeometry(n_pts, tuple(lines))
        if is_connected(geometry):
            return geometry
    raise CampaignError(f"could not generate a connected geometry in 1000 draws"
                        f" (max_points={max_points}, max_lines={max_lines})")


@dataclass(frozen=True)
class CampaignReport:
    attempted: int
    validated: int
    skipped: int
    rigid: int
    flexible: int


def run_agreement_campaign(
    target: int = 200,
    seed: int = DEFAULT_SEED,
    *,
    max_points: int = 10,
    max_lines: int = 6,
    field: Optional[Field] = None,
) -> CampaignReport:
    """Generate random geometries until `target` of them cross-validate.

    Geometries whose sampling is infeasible or whose seeds are algebraically
    unstable count as skipped.  Any disagreement raises OracleDisagreementError
    with its reproduction bundle, failing the campaign immediately.  Each
    seed gets 4 sampling attempts, and the campaign gives up after
    max(50, 25 * target) geometries.
    """
    rng = random.Random(seed)
    cap = max(50, target * 25)
    attempted = validated = skipped = rigid = flexible = 0
    while validated < target:
        if attempted >= cap:
            raise CampaignError(
                f"campaign validated only {validated}/{target} geometries in {attempted} attempts"
            )
        attempted += 1
        geometry = random_geometry(rng, max_points, max_lines)
        verdict = decide_rod_rigidity(
            geometry,
            "cross-validated",
            seed=rng.randrange(1 << 62),
            field=field,
            sample_budget=4,
        )
        if verdict.agreement == "agree":
            validated += 1
            if verdict.is_rigid:
                rigid += 1
            else:
                flexible += 1
        else:
            skipped += 1
    return CampaignReport(attempted, validated, skipped, rigid, flexible)
