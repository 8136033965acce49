"""Acceptance suite: one test per shipping criterion, each timed against its
budget and reported as a [criterion N] PASS/FAIL line (also echoed in the
terminal summary)."""

from __future__ import annotations

import random
import time

from rodrigidity import (
    IncidenceGeometry,
    build_cone_graph,
    build_cone_incidence,
    build_concurrence_matrix,
    canonical_subgraph,
    decide_rod_rigidity,
    parse_geometry,
    play,
    random_geometry,
    rank_of,
    realize_cone,
    run_agreement_campaign,
    sample_realization,
)

from bruteforce import henneberg_graph, laman_independent
from conftest import FIG1_EDGES, K4_EDGES, record_criterion
from paper_claims import (
    derive_subgeometry,
    inner_choice_classifications,
    is_sharply_independent_fast,
    restrict_realization,
)

FIG2_TEXT = """\
points: 7
line: 0 2 3
line: 0 1 4
line: 1 2 5
line: 1 3 6
"""


def test_criterion_1_k4_pebble_game():
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        verdict = play(4, K4_EDGES)
        best = min(best, time.perf_counter() - t0)
    ok = (
        len(verdict.accepted) == 5
        and len(verdict.rejected) == 1
        and verdict.remaining_pebbles == 3
        and verdict.classification == "rigid-redundant"
        and best < 0.001
    )
    record_criterion(1, f"K4: 5 accepted / 1 rejected / 3 pebbles, {best * 1e6:.0f}us", ok)
    assert ok


def test_criterion_2_non_circuit_regression():
    t0 = time.perf_counter()
    rng = random.Random(271)
    one_rejection_each = True
    for _ in range(120):
        edges = FIG1_EDGES[:]
        rng.shuffle(edges)
        if len(play(5, edges).rejected) != 1:
            one_rejection_each = False
            break
    some_removal_dependent = any(
        not laman_independent(FIG1_EDGES[:i] + FIG1_EDGES[i + 1 :])
        for i in range(len(FIG1_EDGES))
    )
    elapsed = time.perf_counter() - t0
    ok = one_rejection_each and some_removal_dependent and elapsed < 1.0
    record_criterion(
        2,
        "5-vertex 8-edge non-circuit: 1 rejection over 120 orderings, "
        f"a single-edge removal stays dependent, {elapsed:.2f}s",
        ok,
    )
    assert ok


def test_criterion_3_running_example_pipeline():
    t0 = time.perf_counter()
    geometry = parse_geometry(FIG2_TEXT)
    cone = build_cone_graph(geometry)
    game = play(cone.num_vertices, cone.edges)
    verdict = decide_rod_rigidity(geometry)
    canon = canonical_subgraph(geometry)
    sub = canon.subgeometry
    sharply = is_sharply_independent_fast(sub, sub.incidences())
    elapsed = time.perf_counter() - t0
    ok = (
        (geometry.num_points, geometry.num_lines) == (7, 4)
        and cone.num_vertices == 11
        and len(cone.edges) == 20
        and len(game.accepted) == 19
        and verdict.is_rigid
        and len(canon.edges) == 19
        and sub.num_incidences == sub.num_lines + 2 * sub.num_points - 3
        and sharply
        and elapsed < 5.0
    )
    record_criterion(
        3,
        "running example: 11/20 cone graph, 19 accepted, rigid, tight sharply "
        f"independent subgeometry, {elapsed:.2f}s",
        ok,
    )
    assert ok


def test_criterion_4_cross_validation_campaign():
    t0 = time.perf_counter()
    report = run_agreement_campaign(target=200, seed=424242)
    elapsed = time.perf_counter() - t0
    ok = report.validated == 200 and elapsed < 60.0
    record_criterion(
        4,
        f"campaign: {report.validated} agreements ({report.rigid} rigid / "
        f"{report.flexible} flexible), {report.skipped} skipped, 0 disagreements, "
        f"{elapsed:.1f}s",
        ok,
    )
    assert ok


def test_criterion_5_inner_vertex_invariance(fig2, hinge, triangle_rods):
    t0 = time.perf_counter()
    rng = random.Random(555)
    corpus = [fig2, hinge, triangle_rods]
    while len(corpus) < 32:
        corpus.append(random_geometry(rng, max_points=8, max_lines=4))
    ok = all(len(inner_choice_classifications(g)) == 1 for g in corpus)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    record_criterion(
        5,
        f"{len(corpus)} geometries, all inner-vertex choice vectors give one "
        f"classification, {elapsed:.1f}s",
        ok,
    )
    assert ok


def test_criterion_6_gluing_properties():
    t0 = time.perf_counter()
    rng = random.Random(66)
    ok = True
    for _ in range(100):  # one shared vertex: flexible, then one cross edge repairs it
        n1, n2 = rng.randint(3, 6), rng.randint(3, 6)
        g1 = henneberg_graph(rng, n1)
        shared = rng.randrange(n1)
        mapping = {0: shared}
        mapping.update({i: n1 + i - 1 for i in range(1, n2)})
        g2 = [(mapping[u], mapping[v]) for u, v in henneberg_graph(rng, n2)]
        union = g1 + g2
        n = n1 + n2 - 1
        flexible = play(n, union)
        v1 = rng.choice([x for x in range(n1) if x != shared])
        v2 = rng.choice([mapping[i] for i in range(1, n2)])
        repaired = play(n, union + [(v1, v2)])
        ok = ok and (
            flexible.classification == "flexible-independent"
            and len(flexible.accepted) == 2 * n - 4
            and repaired.classification == "minimally-rigid"
        )
        if len(union) <= 13:
            ok = ok and laman_independent(union)
    for _ in range(100):  # two shared vertices inside an independent union
        n1, n2 = rng.randint(3, 6), rng.randint(3, 6)
        g1 = henneberg_graph(rng, n1)
        mapping = {0: 0, 1: 1}
        mapping.update({i: n1 + i - 2 for i in range(2, n2)})
        g2 = [(mapping[u], mapping[v]) for u, v in henneberg_graph(rng, n2)]
        shared_edges = {tuple(sorted(e)) for e in g1} & {tuple(sorted(e)) for e in g2}
        union = g1 + [e for e in g2 if tuple(sorted(e)) not in shared_edges]
        ok = ok and len(shared_edges) >= 1
        ok = ok and play(n1 + n2 - 2, union).classification == "minimally-rigid"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    record_criterion(6, f"100+100 randomized gluings behave as proved, {elapsed:.1f}s", ok)
    assert ok


def test_criterion_7_collinear_counterexample(fig2):
    t0 = time.perf_counter()
    host = build_cone_graph(fig2, {0: 3, 1: 4, 2: 5, 3: 6})
    depicted = [e for e in host.edges if e != (9, 5)]  # drop the bottom line's spoke
    generically = play(host.num_vertices, depicted)
    sub, sources = derive_subgeometry(fig2, host, depicted)
    sc = build_cone_incidence(fig2)
    rho = sample_realization(fig2, seed=77)
    ext = realize_cone(sc, rho, seed=77)
    restricted = restrict_realization(sc, ext, sub, sources)
    depicted_rank = rank_of(build_concurrence_matrix(sub, restricted))
    depicted_max = sub.num_lines + 2 * sub.num_points - 3
    canon = canonical_subgraph(fig2)
    canon_restricted = restrict_realization(sc, ext, canon.subgeometry, canon.source_lines)
    canon_rank = rank_of(build_concurrence_matrix(canon.subgeometry, canon_restricted))
    canon_max = canon.subgeometry.num_lines + 2 * canon.subgeometry.num_points - 3
    elapsed = time.perf_counter() - t0
    ok = (
        generically.classification == "minimally-rigid"
        and depicted_rank < depicted_max
        and canon_rank == canon_max
        and elapsed < 5.0
    )
    record_criterion(
        7,
        "depicted subgraph: generically minimally rigid, collinear rank "
        f"{depicted_rank}/{depicted_max}; canonical subgraph reaches {canon_rank}/{canon_max}, "
        f"{elapsed:.2f}s",
        ok,
    )
    assert ok


def _chain(n_lines: int) -> IncidenceGeometry:
    return IncidenceGeometry(2 * n_lines + 1, tuple((2 * i, 2 * i + 1, 2 * i + 2) for i in range(n_lines)))


def test_criterion_8_pebble_scaling():
    t0 = time.perf_counter()
    timings = {}
    for n_lines in (200, 400):
        graph = build_cone_graph(_chain(n_lines))
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(10):
                play(graph.num_vertices, graph.edges)
            best = min(best, time.perf_counter() - start)
        timings[n_lines] = best
    ratio = timings[400] / timings[200]
    elapsed = time.perf_counter() - t0
    ok = ratio <= 4.5 and elapsed < 60.0
    record_criterion(
        8,
        f"chain cone graphs: {timings[200] * 100:.1f}ms -> {timings[400] * 100:.1f}ms "
        f"per run when doubling |L|=200 to 400 (x{ratio:.2f} <= 4.5), {elapsed:.1f}s",
        ok,
    )
    assert ok
