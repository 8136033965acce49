"""Rigidity verdicts for rod configurations.

The combinatorial route plays the (2,3)-pebble game on a cone graph of the
input geometry: three remaining pebbles means every sufficiently generic rod
configuration realizing it is infinitesimally rigid.  The algebraic route
samples an exact proper realization, extends it to the cone incidence
geometry, and ranks its concurrence matrix; every pebble beyond three is one
rank short of the maximum.  Both routes must agree on regular samples; a
disagreement is a defect and is raised loudly with a reproduction bundle,
never swallowed.
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
    shared_rod_pair,
)
from .oracle import (
    Field,
    Infeasible,
    LinearRealization,
    realization_to_json,
    realize_cone,
    sample_realization,
    string_config_rank,
)
from .pebble import PebbleState, PebbleVerdict, play, remaining_without_each, try_edge
# Not called here, but perfbench/tracing.py wraps these names in this module.
from .oracle import is_string_config_rigid  # noqa: F401
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
    agreement: str  # "agree" | "algebraic-skipped"; a disagreement raises
    algebraic: Optional[tuple[tuple[int, int], ...]] = None  # (rank, max_rank) per proper sample
    skip_reason: Optional[str] = None  # why sampling refused the geometry, when it was asked to sample

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
    doc = {
        "classification": verdict.classification,
        "remaining_pebbles": verdict.remaining_pebbles,
        "accepted_edges": [list(e) for e in verdict.pebble.accepted] if verdict.pebble else [],
        "agreement": verdict.agreement,
    }
    if verdict.algebraic is not None:
        doc["algebraic"] = [list(pair) for pair in verdict.algebraic]
    if verdict.skip_reason is not None:
        doc["skip_reason"] = verdict.skip_reason
    return doc


def _spawn_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 62) for _ in range(count)]


def decide_rod_rigidity(
    geometry: IncidenceGeometry,
    mode: str = "combinatorial",
    seed: int = DEFAULT_SEED,
    *,
    field: Optional[Field] = None,
) -> RigidityVerdict:
    """Classify the rod configurations realizing a geometry.

    Combinatorial mode plays the pebble game on the cone graph.
    Cross-validated mode also checks the game's count of degrees of freedom
    algebraically.  The game predicts the rank of a generic sample: the
    maximum rank minus (remaining pebbles - 3).  Exact realizations are
    sampled for up to three derived seeds, in order, each extended to the
    cone incidence geometry and ranked.  A sample's rank never exceeds the
    generic rank, so a sample above the prediction raises at once, and one
    that reaches it certifies the count: agreement is "agree" and no further
    seed is drawn.  A sample below it may be an unlucky draw, so the next
    seed is tried.  When every sample falls short, a rigid verdict raises
    and a flexible one stays "algebraic-skipped".  `algebraic` holds the
    (rank, max_rank) of each proper sample tried.
    Disconnected geometries (including any with an isolated point, when more
    than one entity exists) are flexible immediately and skip the algebraic
    side.  So do geometries without a proper realization: the first refusal
    (Infeasible) ends the algebraic side, because another seed would be
    refused too (two rods through the same two points are refused without a
    draw), and its reason becomes `skip_reason`.
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
    algebraic: Optional[tuple[tuple[int, int], ...]] = None
    skip_reason: Optional[str] = None
    if mode == "cross-validated" and connected and pebble is not None:
        agreement, algebraic, refusal = _cross_validate(
            geometry, pebble.remaining_pebbles, seed, field,
            f"pebble: {pebble.classification}", pebble_classification=pebble.classification,
        )
        skip_reason = refusal.reason if refusal else None
    return RigidityVerdict(
        connected=connected,
        pebble=pebble,
        is_rigid=rigid,
        agreement=agreement,
        algebraic=algebraic,
        skip_reason=skip_reason,
    )


def _cross_validate(
    geometry: IncidenceGeometry,
    remaining: int,
    seed: int,
    field: Optional[Field],
    label: str,
    **about,
) -> tuple[str, Optional[tuple[tuple[int, int], ...]], Optional[Infeasible]]:
    """Check a pebble count of a connected geometry on exact samples.

    `remaining` is the count the game left on the geometry's cone graph.
    Returns (agreement, algebraic, refusal) as decide_rod_rigidity reports
    them, refusal being the Infeasible whose reason becomes skip_reason, or
    raises OracleDisagreementError; `label` goes into its message and
    `about` into its bundle, naming the count that was checked.
    """
    deficit = remaining - 3
    agreement = "algebraic-skipped"
    refusal: Optional[Infeasible] = None
    samples: list[tuple[int, LinearRealization, LinearRealization, int, int]] = []
    sc: Optional[ConeIncidenceGeometry] = None
    for s in _spawn_seeds(seed, 3):
        rho = sample_realization(geometry, s, field=field)
        if isinstance(rho, Infeasible):
            refusal = rho
            break  # final: no seed realizes these incidences properly
        if sc is None:
            sc = build_cone_incidence(geometry)
        rho_cone = realize_cone(sc, rho, s)
        rank, max_rank = string_config_rank(sc, rho_cone)
        samples.append((s, rho, rho_cone, rank, max_rank))
        predicted = max_rank - deficit
        if rank > predicted:
            # no sample exceeds the generic rank, which the game predicts
            _raise_disagreement(geometry, seed, remaining, samples, label, about)
        if rank == predicted:
            agreement = "agree"
            break
    else:
        # every sample fell short: a rigid count must be reached by one of
        # them; a flexible count that none reached stays skipped
        if samples and deficit == 0:
            _raise_disagreement(geometry, seed, remaining, samples, label, about)
    algebraic = tuple((rank, max_rank) for *_, rank, max_rank in samples) if samples else None
    return agreement, algebraic, refusal


def _raise_disagreement(geometry, seed, remaining, samples, label, about) -> None:
    deficit = remaining - 3
    bundle = {
        "geometry": geometry_to_json(geometry),
        "seed": seed,
        **about,
        "remaining_pebbles": remaining,
        "samples": [
            {
                "sample_seed": s,
                "algebraic_rigid": rank == max_rank,
                "rank": rank,
                "max_rank": max_rank,
                "predicted_rank": max_rank - deficit,
                "realization": realization_to_json(rho),
                "cone_realization": realization_to_json(rho_cone),
            }
            for s, rho, rho_cone, rank, max_rank in samples
        ],
    }
    raise OracleDisagreementError(
        f"combinatorial and algebraic rigidity verdicts disagree ({label}); "
        "reproduction bundle attached",
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
    """BFS over the line-intersection graph from line 0, neighbors by index.

    Each point is expanded once, by the first line through it that leaves
    the queue; later lines through it would find every rod there seen.
    canonical_edge_order has refused a disconnected geometry, so every line
    is reached.
    """
    rods_at = geometry.point_line_map()
    order = [0]
    seen = {0}
    expanded: set[int] = set()
    for current in order:  # the list grows while it is walked: a queue
        fresh: set[int] = set()
        for p in geometry.lines[current]:
            if p not in expanded:
                expanded.add(p)
                fresh.update(l for l in rods_at[p] if l not in seen)
        seen |= fresh
        order.extend(sorted(fresh))
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
    state = PebbleState(host.num_vertices)
    accepted: list[tuple[int, int]] = []
    rejected: list[tuple[int, int]] = []
    n_pts = geometry.num_points
    star_members: list[set[int]] = [set() for _ in range(geometry.num_lines)]
    spokes: set[tuple[int, int]] = set()
    for stage, line, u, v in plan:
        if not try_edge(state, u, v):
            if stage < 6:
                raise AssertionError(f"unconditional construction edge ({u}, {v}) was rejected")
            rejected.append((u, v))
            continue
        accepted.append((u, v))
        if u >= n_pts:
            spokes.add((line, v))
        else:
            star_members[line].update((u, v))
    sub, sources = _subgeometry_from_parts(geometry, star_members, spokes)
    return CanonicalSubgraph(
        cone_graph=host,
        edges=tuple(accepted),
        rejected=tuple(rejected),
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
    # (agreement, skip_reason) per deletion when a rigid base was
    # cross-validated; None for a deletion that disconnects the geometry
    deletion_checks: Optional[tuple[Optional[tuple[str, Optional[str]]], ...]] = None


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
    Cross-validated mode also checks each leave-one-out count, less the two
    pebbles of the isolated cone vertex, on exact samples of the deletion
    geometry over `field`, exactly as decide_rod_rigidity checks its own
    count: same seeds, same agreement rule, and a disagreement raises
    OracleDisagreementError whose bundle names the `deleted_rod`.  A
    deletion that disconnects the geometry is flexible and is not sampled.
    Each outcome lands in deletion_checks, with a refusal's reason in the
    input's rod numbers.  A flexible base gets no deletions: its report has
    empty deletion_rigid and removable and is not minimally rigid."""
    base = decide_rod_rigidity(geometry, mode, seed, field=field)
    deletion_rigid: tuple[bool, ...] = ()
    deletion_checks = None
    if base.is_rigid:
        cone = build_cone_graph(geometry)
        lefts = remaining_without_each(cone.num_vertices, cone.cones)
        deletion_rigid = tuple(left == 5 for left in lefts)
        if mode == "cross-validated":
            checks: list[Optional[tuple[str, Optional[str]]]] = []
            for l, left in enumerate(lefts):
                deletion = remove_line(geometry, l)
                if not is_connected(deletion):
                    checks.append(None)
                    continue
                agreement, _, refusal = _cross_validate(
                    deletion, left - 2, seed, field,
                    f"deleting rod {l}: {left - 2} pebbles remain", deleted_rod=l,
                )
                checks.append((agreement, refusal.before_deleting(l).reason if refusal else None))
            deletion_checks = tuple(checks)
    removable = tuple(l for l, r in enumerate(deletion_rigid) if r)
    return MinimalRigidityReport(
        base=base,
        deletion_rigid=deletion_rigid,
        removable=removable,
        minimally_rigid=base.is_rigid and not removable,
        deletion_checks=deletion_checks,
    )


def minimal_report_to_json(report: MinimalRigidityReport) -> dict:
    doc = verdict_to_json(report.base)
    doc["removable_rods"] = list(report.removable)
    doc["minimally_rigid"] = report.minimally_rigid
    if report.deletion_checks is not None:
        doc["deletion_cross_validation"] = [
            None if check is None else {"agreement": check[0], "skip_reason": check[1]}
            for check in report.deletion_checks
        ]
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

    Geometries whose sampling is infeasible, or flexible ones whose samples
    all fall below the predicted rank, count as skipped.  A geometry with two
    rods through the same two points is skipped without playing the game:
    sampling would refuse it before drawing.  Any disagreement
    raises OracleDisagreementError with its reproduction bundle, failing the
    campaign immediately.  The campaign gives up after max(50, 25 * target)
    geometries.
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
        sample_seed = rng.randrange(1 << 62)  # drawn before the skip, so no later draw moves
        if shared_rod_pair(geometry) is not None:
            skipped += 1
            continue
        verdict = decide_rod_rigidity(geometry, "cross-validated", seed=sample_seed, field=field)
        if verdict.agreement == "agree":
            validated += 1
            if verdict.is_rigid:
                rigid += 1
            else:
                flexible += 1
        else:
            skipped += 1
    return CampaignReport(attempted, validated, skipped, rigid, flexible)
