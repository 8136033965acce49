"""Rigidity verdicts for rod configurations.

The combinatorial route plays the (2,3)-pebble game on a cone graph of the
input geometry: no pebble beyond the trivial motions means every sufficiently
generic rod configuration realizing it is infinitesimally rigid.  The
algebraic route samples an exact proper realization, extends it to the cone
incidence geometry, and ranks its concurrence matrix; every further pebble is
one rank short of the maximum.  Both routes must agree on regular samples; a
disagreement is a defect and is raised loudly with a reproduction bundle,
never swallowed.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ._record import Record, set_field
from .cone import build_cone_graph, build_cone_incidence
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
    realization_to_json,
    realize_cone,
    sample_realization,
    string_config_rank,
)
from .pebble import PebbleState, PebbleVerdict, play, remaining_without_each
# Not called here, but perfbench/tracing.py wraps these names in this module.
from .oracle import is_string_config_rigid  # noqa: F401
from .pebble import independent_after, try_edge  # noqa: F401

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
    "minimal_report_to_json",
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


class RigidityVerdict(Record):
    """The cone graph's game and the cross-validation outcome; rigidity and
    the counts follow from the game."""

    __slots__ = ("connected", "pebble", "agreement", "algebraic", "skip_reason")

    def __init__(
        self,
        connected: bool,
        pebble: PebbleVerdict,
        agreement: str,  # "agree" | "algebraic-skipped"; a disagreement raises
        # (rank, max_rank) per proper sample
        algebraic: Optional[tuple[tuple[int, int], ...]] = None,
        # why sampling refused the geometry, when it was asked to sample
        skip_reason: Optional[str] = None,
    ):
        set_field(self, "connected", connected)
        set_field(self, "pebble", pebble)
        set_field(self, "agreement", agreement)
        set_field(self, "algebraic", algebraic)
        set_field(self, "skip_reason", skip_reason)

    @property
    def is_rigid(self) -> bool:
        return self.pebble.is_rigid

    @property
    def classification(self) -> str:
        return self.pebble.classification

    @property
    def remaining_pebbles(self) -> int:
        return self.pebble.remaining_pebbles

    @property
    def degrees_of_freedom(self) -> int:
        return self.pebble.degrees_of_freedom


def verdict_to_json(verdict: RigidityVerdict) -> dict:
    doc = {
        "classification": verdict.classification,
        "remaining_pebbles": verdict.remaining_pebbles,
        "accepted_edges": [list(e) for e in verdict.pebble.accepted],
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
    maximum rank minus its degrees of freedom.  Exact realizations are
    sampled for up to three derived seeds, in order, each extended to the
    cone incidence geometry and ranked.  A sample's rank never exceeds the
    generic rank, so a sample above the prediction raises at once, and one
    that reaches it certifies the count: agreement is "agree" and no further
    seed is drawn.  A sample below it may be an unlucky draw, so the next
    seed is tried.  When every sample falls short, a rigid verdict (or a
    negative count, which predicts a rank above the maximum) raises and a
    flexible one stays "algebraic-skipped".  `algebraic` holds the (rank,
    max_rank) of each proper sample tried.
    Disconnected geometries (including any with an isolated point, when more
    than one entity exists) are flexible and are sampled too: the matrix and
    the cone graph split into one block per component, so ranks and pebbles
    add up.  For geometries without a proper realization, the first refusal
    (Infeasible) ends the algebraic side, because another seed would be
    refused too (two rods through the same two points are refused without a
    draw), and its reason becomes `skip_reason`.
    """
    if mode not in ("combinatorial", "cross-validated"):
        raise ValueError(f"unknown mode {mode!r}")
    connected = is_connected(geometry)
    pebble = play(geometry.num_points + geometry.num_lines, *build_cone_graph(geometry))
    agreement = "algebraic-skipped"
    algebraic: Optional[tuple[tuple[int, int], ...]] = None
    skip_reason: Optional[str] = None
    if mode == "cross-validated":
        agreement, algebraic, refusal = _cross_validate(
            geometry, pebble.degrees_of_freedom, seed, field, f"pebble: {pebble.classification}",
            remaining_pebbles=pebble.remaining_pebbles, pebble_classification=pebble.classification,
        )
        skip_reason = refusal.reason if refusal else None
    return RigidityVerdict(
        connected=connected,
        pebble=pebble,
        agreement=agreement,
        algebraic=algebraic,
        skip_reason=skip_reason,
    )


def _cross_validate(
    geometry: IncidenceGeometry,
    dof: int,
    seed: int,
    field: Optional[Field],
    label: str,
    **about,
) -> tuple[str, Optional[tuple[tuple[int, int], ...]], Optional[Infeasible]]:
    """Check a pebble count of a geometry on exact samples.

    `dof` is the degrees of freedom a game left on its cone graph.  Returns
    (agreement, algebraic, refusal) as decide_rod_rigidity reports them,
    refusal being the Infeasible whose reason becomes skip_reason, or raises
    OracleDisagreementError; `label` goes into its message and `about` (its
    remaining_pebbles, and what they were counted on) into its bundle.
    """
    agreement = "algebraic-skipped"
    refusal: Optional[Infeasible] = None
    samples: list[tuple[int, LinearRealization, LinearRealization, int, int]] = []
    sc: Optional[IncidenceGeometry] = None
    for s in _spawn_seeds(seed, 3):
        rho = sample_realization(geometry, s, field=field)
        if isinstance(rho, Infeasible):
            refusal = rho
            break  # final: no seed realizes these incidences properly
        if sc is None:
            sc = build_cone_incidence(geometry)
        rho_cone = realize_cone(geometry, rho, s)
        rank, max_rank = string_config_rank(sc, rho_cone)
        samples.append((s, rho, rho_cone, rank, max_rank))
        if rank >= max_rank - dof:
            break
    if not samples:
        return agreement, None, refusal
    # no sample exceeds the generic rank, which the game predicts; when every
    # sample fell short, a count of no degree of freedom or fewer must still
    # be reached, and a flexible count that none reached stays skipped
    rank, max_rank = samples[-1][3:]
    if rank == max_rank - dof:
        agreement = "agree"
    elif rank > max_rank - dof or (dof <= 0 and refusal is None):
        bundle = {
            "geometry": geometry_to_json(geometry),
            "seed": seed,
            **about,
            "samples": [
                {
                    "sample_seed": s,
                    "algebraic_rigid": rank == max_rank,
                    "rank": rank,
                    "max_rank": max_rank,
                    "predicted_rank": max_rank - dof,
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
    return agreement, tuple((rank, max_rank) for *_, rank, max_rank in samples), refusal


# --- the canonical maximally independent subgraph -----------------------------


class CanonicalSubgraph(Record):
    """Maximally independent subgraph of a cone graph, plus its subgeometry.

    The subgeometry keeps every vertex of the cone graph as a point, so its
    points count the vertices; its lines are the star of each original line
    restricted to the accepted star edges (when at least two points survive)
    followed by one two-point line per accepted spoke.
    source_lines maps each subgeometry line to the corresponding line of the
    cone incidence geometry, so any realization of the cone incidence
    geometry restricts to one of the subgeometry.
    """

    __slots__ = ("edges", "rejected", "line_order", "subgeometry", "source_lines")

    def __init__(self, edges: tuple[tuple[int, int], ...], rejected: tuple[tuple[int, int], ...],
                 line_order: tuple[int, ...], subgeometry: IncidenceGeometry,
                 source_lines: tuple[int, ...]):
        set_field(self, "edges", edges)
        set_field(self, "rejected", rejected)
        set_field(self, "line_order", line_order)
        set_field(self, "subgeometry", subgeometry)
        set_field(self, "source_lines", source_lines)

    @property
    def num_vertices(self) -> int:
        return self.subgeometry.num_points


def canonical_edge_order(
    geometry: IncidenceGeometry,
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int, int], ...]]:
    """The staged edge ordering of the canonical construction.

    Lines are visited in BFS order over the line-intersection graph from
    line 0: a line's fresh points reach the unqueued lines through them,
    which join the queue by index.  The inner vertex of each line is its
    lowest-index already-seen point (lowest point overall for the first
    line, the only one that meets no seen point).  Within a line: spoke to
    the inner vertex, spoke to the next seen point, spokes to fresh points,
    star edges to fresh points, then the remaining spokes and the remaining
    star edges, which are the two conditional stages.  The plan holds every
    edge of the cone graph with these inner vertices exactly once:
    2|I| - |L| edges in all.  The geometry is connected iff the walk queues
    every line and sees every point; otherwise it raises GeometryError.
    Returns (line order, plan of (stage, line, u, v) entries).
    """
    if geometry.num_lines == 0:
        raise GeometryError("the construction requires at least one line")
    rods_at = geometry.point_line_map()
    n_pts = geometry.num_points
    order = [0]
    queued = {0}
    seen: set[int] = set()
    plan: list[tuple[int, int, int, int]] = []
    for line in order:  # the list grows while it is walked: a queue
        pts = geometry.lines[line]
        c = n_pts + line
        shared = [x for x in pts if x in seen]
        fresh = [x for x in pts if x not in seen]
        seen.update(fresh)
        reached = {l for x in fresh for l in rods_at[x] if l not in queued}
        queued |= reached
        order.extend(sorted(reached))
        if not shared:
            p = pts[0]
            for q in pts:
                plan.append((1, line, c, q))
            for q in pts[1:]:
                plan.append((1, line, p, q))
            continue
        p = shared[0]
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
    if len(order) < geometry.num_lines or len(seen) < n_pts:
        raise GeometryError("the construction requires a connected geometry")
    return tuple(order), tuple(plan)


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
    order, plan = canonical_edge_order(geometry)
    n_pts = geometry.num_points
    offer = PebbleState(n_pts + geometry.num_lines).offer
    accepted: list[tuple[int, int]] = []
    rejected: list[tuple[int, int]] = []
    star_members: list[set[int]] = [set() for _ in range(geometry.num_lines)]
    spokes: set[tuple[int, int]] = set()
    for stage, line, u, v in plan:
        if not offer(u, v):
            if stage < 6:
                raise AssertionError(f"unconditional construction edge ({u}, {v}) was rejected")
            rejected.append((u, v))
            continue
        accepted.append((u, v))
        if u >= n_pts:
            spokes.add((line, v))
        else:
            star_members[line].update((u, v))
    del offer  # frees the game: the heap peaks while the subgeometry is built
    sub, sources = _subgeometry_from_parts(geometry, star_members, spokes)
    return CanonicalSubgraph(
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
    lines: list[tuple[int, ...]] = []
    sources: list[int] = []
    for l, members in enumerate(star_members):
        if len(members) >= 2:
            lines.append(tuple(sorted(members)))
            sources.append(l)
    # spoke k of the cone incidence geometry is incidence k of the geometry
    for k, (p, l) in enumerate(geometry.incidences()):
        if (l, p) in spokes:
            lines.append((p, n_pts + l))
            sources.append(n_lines + k)
    # every line holds two or more distinct points of the geometry, ascending
    # (a spoke's cone point follows its point), so the checks are skipped
    sub = IncidenceGeometry.__new__(IncidenceGeometry)
    sub._store(n_pts + n_lines, tuple(lines), None)
    return sub, tuple(sources)


# --- minimal rigidity and fuzzing --------------------------------------------


class MinimalRigidityReport(Record):
    """The base verdict and, for a rigid base, whether each single-rod
    deletion stays rigid; the removable rods follow from the deletions."""

    __slots__ = ("base", "deletion_rigid", "deletion_checks")

    def __init__(self, base: RigidityVerdict, deletion_rigid: tuple[bool, ...],
                 # (agreement, skip_reason) per deletion when a rigid base was cross-validated
                 deletion_checks: Optional[tuple[tuple[str, Optional[str]], ...]] = None):
        set_field(self, "base", base)
        set_field(self, "deletion_rigid", deletion_rigid)
        set_field(self, "deletion_checks", deletion_checks)

    @property
    def removable(self) -> tuple[int, ...]:
        return tuple(l for l, rigid in enumerate(self.deletion_rigid) if rigid)

    @property
    def minimally_rigid(self) -> bool:
        return self.base.is_rigid and not self.removable


def decide_minimal_rigidity(
    geometry: IncidenceGeometry,
    mode: str = "combinatorial",
    seed: int = DEFAULT_SEED,
    *,
    field: Optional[Field] = None,
) -> MinimalRigidityReport:
    """Rigid, and no single rod can be deleted without losing rigidity.

    The base verdict is decided once.  For a rigid base, one leave-one-out
    pebble game that extends the base's (remaining_without_each over its
    verdict, which played the cone graph one cone at a time) answers every
    deletion:
    deleting rod l leaves its cone vertex isolated with two pebbles, and the
    two or more entities left have three trivial motions, so when `left`
    pebbles remain the deletion has left - 5 degrees of freedom, and it is
    rigid iff it has none.  Each deletion keeps all points,
    so a rod whose removal strands a point yields a flexible configuration:
    the stranded point is a free joint and keeps two more pebbles.
    Cross-validated mode also checks each deletion's degrees of freedom on
    exact samples of the deletion geometry over `field`, exactly as
    decide_rod_rigidity checks its own count: same seeds, same agreement
    rule, and a disagreement raises OracleDisagreementError whose bundle
    names the `deleted_rod`.  A
    deletion that disconnects the geometry is sampled like any other.
    Each outcome lands in deletion_checks, with a refusal's reason in the
    input's rod numbers.  A flexible base gets no deletions: its report has
    an empty deletion_rigid, so no removable rod, and is not minimally
    rigid."""
    base = decide_rod_rigidity(geometry, mode, seed, field=field)
    deletion_rigid: tuple[bool, ...] = ()
    deletion_checks = None
    if base.is_rigid:
        counts = [(left - 2, left - 5) for left in remaining_without_each(base.pebble)]
        deletion_rigid = tuple(dof == 0 for _, dof in counts)
        if mode == "cross-validated":
            checks: list[tuple[str, Optional[str]]] = []
            for l, (remaining, dof) in enumerate(counts):
                agreement, _, refusal = _cross_validate(
                    remove_line(geometry, l), dof, seed, field,
                    f"deleting rod {l}: {remaining} pebbles remain",
                    deleted_rod=l, remaining_pebbles=remaining,
                )
                checks.append((agreement, refusal.before_deleting(l).reason if refusal else None))
            deletion_checks = tuple(checks)
    return MinimalRigidityReport(base, deletion_rigid, deletion_checks)


def minimal_report_to_json(report: MinimalRigidityReport) -> dict:
    doc = verdict_to_json(report.base)
    doc["removable_rods"] = list(report.removable)
    doc["minimally_rigid"] = report.minimally_rigid
    if report.deletion_checks is not None:
        doc["deletion_cross_validation"] = [
            {"agreement": agreement, "skip_reason": reason}
            for agreement, reason in report.deletion_checks
        ]
    return doc


def random_geometry(
    rng: random.Random,
    max_points: int = 10,
    max_lines: int = 6,
) -> IncidenceGeometry:
    """The `rodrig fuzz` generator: a random connected partial linear space,
    whose lines each pass through 2..4 distinct points and share at most one
    point pairwise, so sampling never refuses it for a shared rod pair.

    A draw takes randint(2, max_points) points and randint(1, max_lines)
    candidate lines.  Each candidate samples randint(2, min(points, 4))
    distinct points and keeps those, in sampled order, that share no kept
    line with a point it already kept; it is kept when two or more remain.
    Up to 1000 draws are made, until one is connected.  A draw of more points
    than its candidates can hold is only sampled, to keep the stream.
    """
    if max_points < 2 or max_lines < 1:
        raise ValueError(f"random_geometry needs max_points >= 2 and max_lines >= 1,"
                         f" got {max_points} and {max_lines}")
    for _ in range(1000):
        n_pts = rng.randint(2, max_points)
        candidates = rng.randint(1, max_lines)
        if n_pts > 4 * candidates:
            for _ in range(candidates):
                rng.sample(range(n_pts), rng.randint(2, min(n_pts, 4)))
            continue
        lines, masks = [], []
        met = [0] * n_pts  # met[p]: the points on a kept line with p
        for _ in range(candidates):
            line, mask, ban = [], 0, 0
            for p in rng.sample(range(n_pts), rng.randint(2, min(n_pts, 4))):
                if not ban >> p & 1:
                    line.append(p)
                    mask |= 1 << p
                    ban |= met[p]
            if len(line) >= 2:
                lines.append(line)
                masks.append(mask)
                for p in line:
                    met[p] |= mask
        if _masks_connected(n_pts, masks):
            return IncidenceGeometry(n_pts, lines)
    raise CampaignError(f"could not generate a connected geometry in 1000 draws"
                        f" (max_points={max_points}, max_lines={max_lines})")


def _masks_connected(num_points: int, masks: Sequence[int]) -> bool:
    """is_connected of the geometry whose lines have these point bitmasks,
    for one or more lines of two or more points each: grow the points
    reached from the last line until no line meets them."""
    reach = masks[-1]
    rest = masks[:-1]
    grown = True
    while grown:
        grown = False
        left = []
        for mask in rest:
            if mask & reach:
                reach |= mask
                grown = True
            else:
                left.append(mask)
        rest = left
    return reach == (1 << num_points) - 1


# attempts in a row that validate none before a campaign gives up
_DRY_ATTEMPTS = 1000


class CampaignReport(Record):
    """Geometries skipped, and those that cross-validated rigid or flexible."""

    __slots__ = ("skipped", "rigid", "flexible")

    def __init__(self, skipped: int, rigid: int, flexible: int):
        set_field(self, "skipped", skipped)
        set_field(self, "rigid", rigid)
        set_field(self, "flexible", flexible)

    @property
    def validated(self) -> int:
        return self.rigid + self.flexible

    @property
    def attempted(self) -> int:
        return self.validated + self.skipped


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
    all fall below the predicted rank, count as skipped.  Any disagreement
    raises OracleDisagreementError with its reproduction bundle, failing the
    campaign immediately.  The campaign gives up, with CampaignError, when
    _DRY_ATTEMPTS attempts in a row validate none: how many attempts a
    validation takes varies too much with the bounds for a cap in proportion
    to `target`.
    """
    rng = random.Random(seed)
    skipped = rigid = flexible = 0
    dry = 0  # attempts since the last validation
    while rigid + flexible < target:
        if dry == _DRY_ATTEMPTS:
            raise CampaignError(
                f"campaign validated only {rigid + flexible}/{target} geometries"
                f" in {rigid + flexible + skipped} attempts, none in the last {dry}"
            )
        geometry = random_geometry(rng, max_points, max_lines)
        verdict = decide_rod_rigidity(geometry, "cross-validated",
                                      seed=rng.randrange(1 << 62), field=field)
        if verdict.agreement != "agree":
            skipped += 1
            dry += 1
        elif verdict.is_rigid:
            rigid += 1
            dry = 0
        else:
            flexible += 1
            dry = 0
    return CampaignReport(skipped, rigid, flexible)
