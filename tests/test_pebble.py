from __future__ import annotations

import gc
import hashlib
import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodrigidity import (
    GeometryError,
    IncidenceGeometry,
    build_cone_graph,
    canonical_edge_order,
    canonical_subgraph,
    decide_minimal_rigidity,
    play,
    remaining_without_each,
)
from rodrigidity import pebble
from rodrigidity.pebble import PebbleState, PebbleVerdict, independent_after, try_edge

from bruteforce import (henneberg_graph, laman_independent, laman_rank, reference_random_geometry,
                        shares_two_points)
from conftest import FIG1_EDGES, K4_EDGES, arrangement


def relabel(edges, mapping):
    return [(mapping[u], mapping[v]) for u, v in edges]


class TestPlay:
    def test_k4_is_a_circuit(self):
        v = play(4, K4_EDGES)
        assert len(v.accepted) == 5
        assert len(v.rejected) == 1
        assert v.remaining_pebbles == 3
        assert v.classification == "rigid-redundant"

    def test_triangle_minimally_rigid(self):
        v = play(3, [(0, 1), (1, 2), (0, 2)])
        assert v.classification == "minimally-rigid"
        assert v.remaining_pebbles == 3 and not v.rejected

    def test_dependent_but_not_a_circuit(self):
        # 8 = 2|V| - 2 edges, yet the dependency sits inside the K4 on 0..3:
        # exactly one edge is rejected whatever the order, and removing an
        # edge outside the K4 leaves a dependent set.
        rng = random.Random(12)
        for _ in range(120):
            edges = FIG1_EDGES[:]
            rng.shuffle(edges)
            v = play(5, edges)
            assert len(v.rejected) == 1
        removals = [FIG1_EDGES[:i] + FIG1_EDGES[i + 1 :] for i in range(len(FIG1_EDGES))]
        assert any(not laman_independent(rest) for rest in removals)
        assert any(laman_independent(rest) for rest in removals)

    def test_two_triangles_sharing_a_vertex(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        v = play(5, edges)
        assert len(v.accepted) == 6 == 2 * 5 - 4
        assert v.remaining_pebbles == 4
        assert v.classification == "flexible-independent"
        assert laman_independent(edges)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            play(3, [(1, 1)])

    def test_plays_zero_and_one_vertex(self):
        # fewer than two vertices have nothing to move against: every pebble
        # is a trivial motion
        for n in (0, 1):
            assert PebbleState(n).remaining_pebbles() == 2 * n
            v = play(n)
            assert v.remaining_pebbles == 2 * n and v.degrees_of_freedom == 0
            assert v.is_rigid and v.classification == "minimally-rigid"
            assert remaining_without_each(v) == ()
        with pytest.raises(ValueError, match="out of range"):
            play(1, [(0, 1)])
        with pytest.raises(ValueError, match="negative vertex count -1"):
            PebbleState(-1)

    def test_single_bar(self):
        assert play(2, [(0, 1)]).classification == "minimally-rigid"


def _reference_play(n, edges):
    """play without the rigid block: every edge is searched."""
    state = PebbleState(n)
    answers = [try_edge(state, u, v) for u, v in edges]
    accepted = tuple(e for e, ok in zip(edges, answers) if ok)
    rejected = tuple(e for e, ok in zip(edges, answers) if not ok)
    return accepted, rejected, state.remaining_pebbles()


def _reference_canonical(geometry):
    """canonical_subgraph's staged plan replayed with try_edge."""
    _, plan = canonical_edge_order(geometry)
    n = geometry.num_points + geometry.num_lines
    accepted, rejected, _ = _reference_play(n, [(u, v) for _, _, u, v in plan])
    return accepted, rejected


def _counting_gathers(monkeypatch):
    """Count the searches from here on: gathers[0] dry, gathers[1] not."""
    gathers = [0, 0]
    real_gather = pebble._gather

    def gather(state, u, v):
        ok = real_gather(state, u, v)
        gathers[ok] += 1
        return ok

    monkeypatch.setattr(pebble, "_gather", gather)
    return gathers


edge_lists = st.integers(2, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]), max_size=30),
    )
)


class TestRigidBlock:
    """play and canonical_subgraph accept a Henneberg step and reject an
    edge inside their rigid block without a search; they must answer exactly
    as a game that searches for every edge."""

    @settings(max_examples=300, deadline=None)
    @given(edge_lists)
    def test_play_matches_searching_every_edge(self, case):
        n, edges = case
        # a duplicate in both orientations, after the edges it copies
        edges = edges + [(v, u) for u, v in edges[::3]]
        v = play(n, edges)
        assert (v.accepted, v.rejected, v.remaining_pebbles) == _reference_play(n, edges)

    @settings(max_examples=200, deadline=None)
    @given(edge_lists, st.lists(st.integers(0, 30), max_size=6))
    def test_groups_answer_as_their_edges_in_turn(self, case, cuts):
        # cut points past the end or repeated make empty groups
        n, edges = case
        bounds = [0, *sorted(min(c, len(edges)) for c in cuts), len(edges)]
        groups = [edges[a:b] for a, b in zip(bounds, bounds[1:])]
        grouped, flat = play(n, *groups), play(n, edges)
        assert (grouped.accepted, grouped.rejected) == (flat.accepted, flat.rejected)
        state = PebbleState(n)
        answers = [try_edge(state, u, v) for u, v in edges]
        assert grouped.group_sizes == tuple(
            (sum(answers[a:b]), b - a - sum(answers[a:b])) for a, b in zip(bounds, bounds[1:]))
        assert flat.group_sizes == ((len(flat.accepted), len(flat.rejected)),)
        assert play(n).group_sizes == () and play(n).remaining_pebbles == 2 * n

    def test_cone_graphs_and_canonical_subgraphs_match(self):
        # the verdict derives its count from the accepted edges; the
        # reference game sums its pebbles
        geometries = [reference_random_geometry(random.Random(seed)) for seed in range(500)]
        geometries += [arrangement(m, 0.6, seed=m) for m in range(10, 41)]
        geometries.append(arrangement(30, 0.6, seed=2024))
        for g in geometries:
            n, cones = g.num_points + g.num_lines, build_cone_graph(g)
            v = play(n, *cones)
            assert (v.accepted, v.rejected, v.remaining_pebbles) == _reference_play(
                n, list(chain.from_iterable(cones)))
            c = canonical_subgraph(g)
            assert (c.edges, c.rejected) == _reference_canonical(g)

    def test_block_grows_by_a_reach_set(self, monkeypatch):
        # triangles 0 1 2 (the block) and 3 4 5 joined by three bars: a
        # rigid prism, yet no vertex outside the block has two edges into
        # it.  (0, 4) is searched, and its reach set, the whole prism, joins
        # the block, so (1, 3) and (2, 3) are rejected without a search.
        prism = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
        edges = prism + [(0, 4), (1, 3), (2, 3)]
        gathers = _counting_gathers(monkeypatch)
        v = play(6, edges)
        assert v.rejected == ((0, 4), (1, 3), (2, 3)) and v.remaining_pebbles == 3
        # the triangles are Henneberg steps; only the three bars, each
        # between two vertices that hold two edges, are searched
        assert gathers == [1, 3]
        assert (v.accepted, v.rejected, v.remaining_pebbles) == _reference_play(6, edges)

    def test_redundant_edge_outside_the_block_is_searched(self, monkeypatch):
        # a triangle and a K4 sharing vertex 2 with it.  The rejected copy
        # of (0, 1) starts the block on the triangle; the K4's reach set
        # meets it in one vertex and does not join it, so its sixth edge
        # and a duplicate inside it are each searched, and the bar (0, 3)
        # across the hinge is accepted
        k4 = [(3, 4), (3, 5), (4, 5), (2, 3), (2, 4), (2, 5)]
        edges = [(0, 1), (1, 2), (0, 2), (1, 0)] + k4 + [(4, 3), (0, 3)]
        gathers = _counting_gathers(monkeypatch)
        v = play(6, edges)
        assert v.rejected == ((1, 0), (2, 5), (4, 3)) and v.remaining_pebbles == 3
        # the two triangles are Henneberg steps; (2, 3), (2, 4) and (0, 3)
        # join vertices that hold two edges each, so they are searched
        assert gathers == [3, 3]
        assert (v.accepted, v.rejected, v.remaining_pebbles) == _reference_play(6, edges)

    def test_golden_arrangement_searches_three_edges(self, monkeypatch):
        g = arrangement(30, 0.6, seed=2024)
        cones = build_cone_graph(g)
        gathers = _counting_gathers(monkeypatch)
        v = play(g.num_points + g.num_lines, *cones)
        # 1014 edges: 577 of the 579 accepted are Henneberg steps, and the
        # first rejection, which starts the block, is the only search that
        # runs dry; the other 434 rejections fall inside the block
        assert len(v.accepted) == 579 and len(v.rejected) == 435
        assert gathers == [1, 2]

    def test_bad_edges_inside_the_block_still_raise(self):
        triangle = [(0, 1), (1, 2), (0, 2)]
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            play(3, triangle + [(1, 1)])
        # -1 would index vertex 2, which is in the block
        with pytest.raises(ValueError, match=r"edge \(0, -1\) out of range"):
            play(3, triangle + [(0, -1)])


class _CheckedGame(pebble.PebbleState):
    """A game that checks after every offer that its block is rigid."""

    __slots__ = ()

    def offer(self, u, v):
        answer = super().offer(u, v)
        _assert_block_rigid(self)
        return answer


def _assert_block_rigid(game):
    """No edge between two block vertices is independent of the held edges."""
    block = [x for x, inside in enumerate(game._in_block) if inside]
    for i, x in enumerate(block):
        for y in block[i + 1:]:
            assert not independent_after(game, x, y), (x, y, block)


class TestBlockInvariant:
    """Whatever the offers, inserts and undos, the held edges span every
    pair of block vertices."""

    def test_through_play(self, monkeypatch):
        monkeypatch.setattr(pebble, "PebbleState", _CheckedGame)
        rng = random.Random(28)
        started = 0
        for _ in range(150):
            n = rng.randint(2, 9)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 24))]
            v = play(n, edges)
            started += bool(v.rejected)
            assert (v.accepted, v.rejected, v.remaining_pebbles) == _reference_play(n, edges)
        assert started >= 50

    def test_through_insert_and_undo(self):
        rng = random.Random(29)
        for _ in range(80):
            n = rng.randint(3, 9)
            game = _CheckedGame(n)
            for _ in range(rng.randint(0, 8)):
                game.offer(*rng.sample(range(n), 2))
            depth = 0
            for _ in range(rng.randint(1, 12)):
                if depth and rng.random() < 0.4:
                    game.undo()
                    depth -= 1
                else:
                    batch = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 8))]
                    game.insert(batch, rng.randint(0, len(batch)))
                    depth += 1
                _assert_block_rigid(game)
            while depth:
                game.undo()
                depth -= 1
                _assert_block_rigid(game)


class TestHennebergSteps:
    """An edge with an end that holds at most one edge, not to the other
    end, is accepted without a search."""

    @pytest.mark.parametrize("copy", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("held", [(0, 1), (1, 0)])
    def test_parallel_copy_is_searched_and_rejected(self, held, copy, monkeypatch):
        # vertex 0 holds one edge, to 1, directed either way: a copy of it is
        # no Henneberg step, so it is searched and found dependent
        edges = [held, (1, 2), copy]
        gathers = _counting_gathers(monkeypatch)
        v = play(3, edges)
        assert v.rejected == (copy,) and gathers == [1, 0]
        game = pebble.PebbleState(3)
        assert game.insert(edges, 3) == 2 and gathers == [2, 0]
        assert _held(game) == [(0, 1), (1, 2)]
        assert game.degree == [1, 2, 1] == _degrees(game)

    def test_trees_grown_in_order_are_never_searched(self, monkeypatch):
        # each edge brings a new vertex; canon's plan for a chain of rods
        # does too, or closes a triangle at a vertex that holds one edge
        rng = random.Random(9)
        path = [(i, i + 1) for i in range(30)]
        tree = [(rng.randrange(i), i) for i in range(1, 40)]
        chain_of_rods = IncidenceGeometry(41, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(20)])
        gathers = _counting_gathers(monkeypatch)
        for n, edges in ((31, path), (40, tree), (40, [(v, u) for u, v in tree])):
            v = play(n, edges)
            assert v.accepted == tuple(edges) and not v.rejected
            game = pebble.PebbleState(n)
            assert game.insert(edges, len(edges)) == len(edges)
            assert _held(game) == sorted(tuple(sorted(e)) for e in edges)
            assert game.degree == _degrees(game)
        assert not canonical_subgraph(chain_of_rods).rejected
        assert gathers == [0, 0]

    def test_block_waits_for_the_first_rejection(self, monkeypatch):
        # a triangle with a path hanging off it: nothing is kept of the held
        # edges until the copy of (0, 1) is rejected.  Its dry search marks
        # a rigid reach set inside the triangle, which starts the block, and
        # the triangle's last vertex joins by a Henneberg step; the path,
        # flexible on the triangle, stays outside.
        game = pebble.PebbleState(5)
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]:
            assert game.offer(u, v)
        assert game._links is None and game._nbrs == [] and not any(game._in_block)
        assert not game.offer(1, 0)
        assert game._in_block == [True, True, True, False, False]
        assert game._links[3:] == [1, 0]  # held edges into the block, outside it
        # the next edge inside the triangle is rejected without a search
        gathers = _counting_gathers(monkeypatch)
        assert not game.offer(2, 1) and gathers == [0, 0]


class TestTryEdge:
    def test_first_edge_always_accepted(self):
        state = PebbleState(6)
        assert try_edge(state, 2, 5)
        assert state.remaining_pebbles() == 2 * 6 - 1

    def test_sixth_k4_edge_rejected(self):
        state = PebbleState(4)
        for u, v in K4_EDGES[:5]:
            assert try_edge(state, u, v)
        assert not try_edge(state, *K4_EDGES[5])

    def test_fresh_endpoint_into_saturated_blob(self):
        state = PebbleState(5)
        for u, v in K4_EDGES:
            try_edge(state, u, v)
        assert try_edge(state, 3, 4)

    def test_pebble_conservation(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 8)
            state = PebbleState(n)
            accepted = 0
            for _ in range(rng.randint(1, 16)):
                u, v = rng.sample(range(n), 2)
                accepted += try_edge(state, u, v)
                for w in range(n):
                    assert state.pebbles[w] + len(state.out[w]) == 2
                assert state.degree == _degrees(state)
            assert state.remaining_pebbles() == 2 * n - accepted


class TestIndependentAfter:
    def test_probe_sixth_k4_edge(self):
        state = PebbleState(4)
        for u, v in K4_EDGES[:5]:
            try_edge(state, u, v)
        assert not independent_after(state, *K4_EDGES[5])

    def test_probe_fresh_endpoint(self):
        state = PebbleState(5)
        for u, v in K4_EDGES:
            try_edge(state, u, v)
        assert independent_after(state, 0, 4)

    def test_probe_then_commit_matches_direct_play(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(3, 8)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(3, 18))]
            direct = play(n, edges)
            state = PebbleState(n)
            accepted = []
            for u, v in edges:
                probe = independent_after(state, u, v)
                assert try_edge(state, u, v) == probe
                if probe:
                    accepted.append((u, v))
            assert tuple(accepted) == direct.accepted


def _held(state):
    return sorted(tuple(sorted((u, w))) for u in range(state.num_vertices) for w in state.out[u])


def _degrees(state):
    """The held edges at each vertex, counted from the orientations."""
    degree = [len(heads) for heads in state.out]
    for heads in state.out:
        for w in heads:
            degree[w] += 1
    return degree


def _block(game):
    """A copy of everything the game keeps of its block."""
    links = None if game._links is None else game._links[:]
    return game._in_block[:], links, [adj[:] for adj in game._nbrs]


def _one_game_per_group(n, groups):
    return tuple(
        play(n, [e for j, group in enumerate(groups) if j != i for e in group]).remaining_pebbles
        for i in range(len(groups))
    )


def _without_each(n, groups):
    """remaining_without_each extending play over the groups in order."""
    return remaining_without_each(play(n, *groups))


def _play_bases(n, groups):
    """The edges play accepts from each group, offering the groups in order.
    Its accepted edges come in offer order, and an edge once rejected stays
    spanned, so each accepted edge belongs to the first offer equal to it."""
    accepted = list(play(n, [e for group in groups for e in group]).accepted)[::-1]
    bases = []
    for group in groups:
        bases.append([])
        for e in group:
            if accepted and accepted[-1] == e:
                bases[-1].append(accepted.pop())
    assert not accepted
    return bases


def _leave_one_out_case(case):
    if case == "golden":
        g = arrangement(30, 0.6, seed=2024)
        return g.num_points + g.num_lines, build_cone_graph(g)
    if case == "k4-sandwich":
        # (1, 0) is spanned by the K4 before it and by the K4 after it
        return 4, [K4_EDGES, [(1, 0)], K4_EDGES]
    # no path is a fan, so no range is settled from its floor; the
    # answers are (4, 3, 3, 4, 5)
    return 5, [[(0, 1), (1, 2)], [(1, 2), (2, 3)], [(2, 3), (3, 4)],
               [(3, 4), (4, 0)], [(0, 2), (2, 4)]]


class TestLeaveOneOut:
    def test_batch_undo_restores_the_state(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(3, 9)
            state = pebble.PebbleState(n)
            for _ in range(rng.randint(0, 10)):  # the block may start here or in a batch
                state.offer(*rng.sample(range(n), 2))
            before, held, degree = state.remaining_pebbles(), _held(state), state.degree[:]
            block = _block(state)
            outer = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 10))]
            inner = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 10))]
            assert state.insert(outer, len(outer)) <= len(outer)
            middle, held_middle = state.remaining_pebbles(), _held(state)
            degree_middle, block_middle = state.degree[:], _block(state)
            assert degree_middle == _degrees(state)
            # the inner batch's searches may reverse edges of the outer batch,
            # and it may stop early, once room edges are accepted
            room = rng.randint(0, len(inner))
            assert state.insert(inner, room) <= room
            state.undo()
            assert state.remaining_pebbles() == middle and _held(state) == held_middle
            assert state.degree == degree_middle and _block(state) == block_middle
            state.undo()
            for w in range(n):
                assert state.pebbles[w] + len(state.out[w]) == 2
            assert state.remaining_pebbles() == before
            assert _held(state) == held and state.degree == degree
            assert _block(state) == block and not state._log

    def test_rejected_parallel_copy_keeps_the_held_edge(self):
        game = pebble.PebbleState(3)
        game.offer(0, 1)
        assert game.insert([(1, 0), (1, 2)], 2) == 1
        assert _held(game) == [(0, 1), (1, 2)]
        # with no room the batch is not even iterated
        assert game.insert(iter(lambda: pytest.fail("iterated"), None), 0) == 0
        game.undo()
        game.undo()
        assert _held(game) == [(0, 1)] and game.remaining_pebbles() == 5
        # the rejection started the block, and the undo dropped it
        assert game._links is None and not any(game._in_block)

    @pytest.mark.parametrize("outer", [
        # the prism's first triangle, with a copy that builds the block on it
        [(0, 1), (0, 2), (1, 2), (1, 0)],
        # the same triangle, no block yet
        [(0, 1), (0, 2), (1, 2)],
    ])
    def test_undo_takes_back_the_block(self, outer):
        # the inner batch completes a prism on the triangle 0 1 2: the
        # rejection of (0, 4) merges its reach set into the block, or starts
        # the block from it when there is none, and 3, 4 and 5 join it
        inner = [(3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5), (0, 4)]
        game = pebble.PebbleState(6)
        assert game.insert(outer, len(outer)) == 3
        block = _block(game)
        assert game.insert(inner, len(inner)) == 6
        assert game._in_block == [True] * 6
        game.undo()
        assert _block(game) == block and not any(game._in_block[3:])
        # 3 and 4 hold no edge once the prism is gone: a bar between them is
        # a Henneberg step, which a block that kept them would reject
        assert game.offer(3, 4)
        assert game.offer(4, 5) and game.offer(3, 5) and not game.offer(5, 4)

    def test_matches_one_game_per_group(self):
        rng = random.Random(12)
        cases = []
        for _ in range(40):
            n = rng.randint(2, 9)
            cases.append((n, [[tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4))]
                              for _ in range(rng.randint(1, 9))]))
        # empty groups: first, last, in between, and nothing but
        cases += [(4, [[], [(0, 1), (1, 2)], [], [(0, 2), (2, 3)], [(1, 3)], []]),
                  (3, [[], []]), (2, [[]])]
        # one edge in two groups, either way round: deleting one group keeps it
        cases += [(3, [[(0, 1), (1, 2)], [(0, 2), (0, 1)]]),
                  (4, [[(0, 1)], [(1, 2), (2, 3)], [(2, 0)], [(1, 0), (1, 3)], [(0, 3)]]),
                  (4, [[(2, 3), (0, 1)], [(0, 2)], [(3, 2), (1, 2)], [(1, 3)]])]
        # cone groups of geometries with two rods through the same two points,
        # whose cones then hold the same edge
        geometries = (reference_random_geometry(rng, 12, 8) for _ in range(400))
        shared = 0
        for g in geometries:
            cones = build_cone_graph(g)
            edges = list(chain.from_iterable(cones))
            if len(set(map(frozenset, edges))) == len(edges):
                continue
            assert shares_two_points(g)
            cases.append((g.num_points + g.num_lines, cones))
            shared += 1
        assert shared >= 100
        # rods through exactly two points, whose cones are triangles
        for num_points, lines in [(3, ((0, 1), (1, 2), (0, 2))),
                                  (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
                                  (4, ((0, 1, 2), (2, 3), (0, 3), (1, 3))),
                                  (4, ((0, 1), (1, 2), (2, 3), (0, 3)))]:
            cases.append((num_points + len(lines),
                          build_cone_graph(IncidenceGeometry(num_points, lines))))
        for n, groups in cases:
            assert _without_each(n, groups) == _one_game_per_group(n, groups)
        # sparse arrangements: the ranges settled from their floors must
        # still find a flexible deletion of a rigid arrangement
        flexible_deletions = 0
        for num_rods in (12, 20, 28, 40):
            for share in (0.1, 0.2, 0.3):
                for seed in range(3):
                    try:
                        g = arrangement(num_rods, share, seed)
                    except GeometryError:  # a rod met fewer than two others
                        continue
                    n, groups = g.num_points + g.num_lines, build_cone_graph(g)
                    expected = _one_game_per_group(n, groups)
                    assert _without_each(n, groups) == expected
                    # every point lies on two rods, so a deletion frees only
                    # the cone vertex: 5 pebbles when the rest stays rigid
                    flexible_deletions += play(n, *groups).is_rigid and max(expected) > 5
        assert flexible_deletions

    def test_random_group_lists_match_one_game_per_group(self, monkeypatch):
        # every block change of a batch must go when the batch is undone:
        # fans (an edge, then vertices joined to both its ends) let ranges
        # settle and the block grow, groups that are not fans (paths, loose
        # edges) make the recursion descend, and repeated and reversed edges
        # are rejected inside the block or by a search
        real_insert = pebble.PebbleState.insert
        depth = [0]

        def insert(game, edges, room):
            depth[0] = max(depth[0], len(game._batches) + 1)
            return real_insert(game, edges, room)

        monkeypatch.setattr(pebble.PebbleState, "insert", insert)
        rng = random.Random(26)
        deep = 0
        for _ in range(600):
            n = rng.randint(3, 10)
            groups, offered = [], []
            for _ in range(rng.randint(1, 12)):
                kind = rng.randrange(3)
                if kind == 0:
                    u, v, *vs = rng.sample(range(n), rng.randint(2, min(n, 6)))
                    group = [(w, x) if rng.randrange(2) else (x, w) for w in vs for x in (u, v)]
                    rng.shuffle(group)
                    group.insert(0, (u, v))
                elif kind == 1:
                    vs = rng.sample(range(n), rng.randint(2, min(n, 5)))
                    group = list(zip(vs, vs[1:]))
                else:
                    group = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4))]
                for _ in range(rng.randint(0, 2)):
                    if offered:
                        u, v = rng.choice(offered)
                        group.insert(rng.randint(0, len(group)), rng.choice([(u, v), (v, u)]))
                offered += group
                groups.append(group)
            depth[0] = 0
            assert remaining_without_each(play(n, *groups)) == _one_game_per_group(n, groups)
            deep += depth[0] >= 3
        assert deep >= 100

    @pytest.mark.parametrize("case", ["golden", "k4-sandwich", "paths"])
    def test_recursion_offers_only_basis_edges(self, case, monkeypatch):
        # the recursion extends play's game: it is the one state created,
        # it offers only edges that play accepted (F) and raw edges of groups
        # after the first, and a leaf it reaches for group i holds only
        # edges of F_<i and of the groups after i
        n, groups = _leave_one_out_case(case)
        expected = _one_game_per_group(n, groups)
        verdict = play(n, *groups)
        forward = _play_bases(n, groups)
        states, offers, leaves = [], [], []
        real_init, real_insert = pebble.PebbleState.__init__, pebble.PebbleState.insert
        real_remaining = pebble.PebbleState.remaining_pebbles

        def init(state, num_vertices):
            real_init(state, num_vertices)
            states.append(state)

        def insert(game, edges, room):
            # every edge the batch offers: searched, a Henneberg step or
            # rejected inside the block
            def offered():
                for e in edges:
                    offers.append(e)
                    yield e
            return real_insert(game, offered(), room)

        def remaining(state):
            leaves.append({frozenset(e) for e in _held(state)})
            return real_remaining(state)

        monkeypatch.setattr(pebble.PebbleState, "__init__", init)
        monkeypatch.setattr(pebble.PebbleState, "insert", insert)
        monkeypatch.setattr(pebble.PebbleState, "remaining_pebbles", remaining)
        gathers = _counting_gathers(monkeypatch)
        assert remaining_without_each(verdict) == expected
        assert len(states) == 1
        basis = {e for b in forward for e in b}
        assert offers and set(offers) <= basis | {e for group in groups[1:] for e in group}
        # leaves come in group order; a settled range answers without one
        unanswered = iter(range(len(groups)))
        for held in leaves:
            assert any(held <= {frozenset(e) for b in forward[:i] + list(groups[i + 1:]) for e in b}
                       for i in unanswered)
        if case == "paths":
            assert len(leaves) == len(groups)
        if case == "golden":
            # of 1014 cone edges the recursion offers 915; 788 are Henneberg
            # steps and 81 fall inside the block, so it searches 46 times
            # (44 accepted, 2 run dry)
            assert len(offers) == 915
            assert gathers == [2, 44]

    def test_minimal_rigidity_plays_one_full_game(self, monkeypatch):
        # the base's game is the one full game: it searches 3 times (see
        # test_golden_arrangement_searches_three_edges), and the
        # leave-one-out recursion that extends it 46 times
        gathers = _counting_gathers(monkeypatch)
        report = decide_minimal_rigidity(arrangement(30, 0.6, seed=2024))
        assert report.base.is_rigid and len(report.removable) == 30
        assert sum(gathers) == 3 + 46

    def test_only_the_recursion_state_is_alive(self, monkeypatch):
        # play's game is dropped before the leave-one-out game starts, so
        # each leaf sees one live state: the recursion's own.  PebbleState
        # has no __weakref__ slot, so the live states are counted among the
        # objects the collector tracks.
        n, groups = _leave_one_out_case("paths")
        expected = _one_game_per_group(n, groups)
        verdict = play(n, *groups)
        real_remaining = pebble.PebbleState.remaining_pebbles
        live = []

        def remaining(state):
            live.append(sum(type(o) is PebbleState for o in gc.get_objects()) - before)
            return real_remaining(state)

        monkeypatch.setattr(pebble.PebbleState, "remaining_pebbles", remaining)
        gc.collect()
        before = sum(type(o) is PebbleState for o in gc.get_objects())
        assert remaining_without_each(verdict) == expected
        assert live == [1] * len(groups)

    def test_no_groups(self):
        # a game offered no group has no deletion to count
        assert remaining_without_each(play(2)) == ()

    def test_mismatched_verdict(self):
        # a hand-built verdict whose group sizes disagree with its edges
        groups = [[(0, 1), (1, 2)], [(0, 2), (0, 1)]]
        verdict = PebbleVerdict(3, ((0, 1), (1, 2), (0, 2)), ((0, 1),), ((2, 0), (1, 1)))
        assert play(3, *groups) == verdict
        assert remaining_without_each(verdict) == (4, 4)
        for sizes in (((2, 0), (1, 0)),  # a rejected edge in no group
                      ((2, 0), (2, 1)),  # an accepted edge too many
                      ((4, 0), (-1, 1))):  # adds up, with a negative count
            with pytest.raises(ValueError, match="group sizes do not add up"):
                remaining_without_each(PebbleVerdict(3, verdict.accepted, verdict.rejected, sizes))
        with pytest.raises(ValueError, match="group sizes do not add up"):
            remaining_without_each(PebbleVerdict(3, verdict.accepted, (), ()))

    def test_verdict_of_other_edges(self):
        # hand-built verdicts holding a self-loop or an edge out of range, which play refuses
        with pytest.raises(ValueError, match="self-loop at vertex 2"):
            remaining_without_each(PebbleVerdict(3, ((0, 1),), ((2, 2),), ((1, 0), (0, 1))))
        # -1 would index vertex 2
        for edge in ((0, -1), (0, 3)):
            with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\) out of range"):
                remaining_without_each(PebbleVerdict(3, ((0, 1),), (edge,), ((1, 1),)))


class TestMatroidProperties:
    def test_rank_is_order_invariant_and_matches_oracle(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(3, 8)
            m = rng.randint(2, min(11, n * (n - 1) // 2))
            edges = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m)
            expected = laman_rank(edges)
            for _ in range(4):
                rng.shuffle(edges)
                assert len(play(n, edges).accepted) == expected

    def test_accepted_set_is_laman_sparse(self):
        rng = random.Random(42)
        for _ in range(15):
            n = rng.randint(3, 7)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(3, 10))]
            v = play(n, edges)
            assert laman_independent(list(dict.fromkeys(v.accepted)))

    def test_rejected_edges_create_violations(self):
        rng = random.Random(43)
        for _ in range(15):
            n = rng.randint(3, 7)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(4, 10))]
            v = play(n, edges)
            for e in v.rejected:
                assert not laman_independent(list(v.accepted) + [e])


class TestGluing:
    def test_one_shared_vertex_then_cross_edge(self):
        rng = random.Random(5)
        for _ in range(25):
            n1, n2 = rng.randint(3, 6), rng.randint(3, 6)
            g1 = henneberg_graph(rng, n1)
            shared = rng.randrange(n1)
            mapping = {0: shared}
            mapping.update({i: n1 + i - 1 for i in range(1, n2)})
            g2 = relabel(henneberg_graph(rng, n2), mapping)
            union = g1 + g2
            n = n1 + n2 - 1
            v = play(n, union)
            assert v.classification == "flexible-independent"
            assert len(v.accepted) == 2 * n - 4
            v1 = rng.choice([x for x in range(n1) if x != shared])
            v2 = rng.choice([mapping[i] for i in range(1, n2)])
            assert play(n, union + [(v1, v2)]).classification == "minimally-rigid"

    def test_shared_edge_union_is_minimally_rigid(self):
        rng = random.Random(6)
        for _ in range(25):
            n1, n2 = rng.randint(3, 6), rng.randint(3, 6)
            g1 = henneberg_graph(rng, n1)
            mapping = {0: 0, 1: 1}
            mapping.update({i: n1 + i - 2 for i in range(2, n2)})
            g2 = relabel(henneberg_graph(rng, n2), mapping)
            union = g1 + [e for e in g2 if tuple(sorted(e)) != (0, 1)]
            shared_edges = {tuple(sorted(e)) for e in g1} & {tuple(sorted(e)) for e in g2}
            assert len(shared_edges) >= 1
            assert play(n1 + n2 - 2, union).classification == "minimally-rigid"

    def test_two_shared_vertices_without_shared_edge_is_dependent(self):
        rng = random.Random(8)
        for _ in range(25):
            n1, n2 = rng.randint(4, 6), rng.randint(4, 6)
            g1 = henneberg_graph(rng, n1)
            g2 = henneberg_graph(rng, n2)
            a, b = _non_adjacent_pair(g1, n1)
            c, d = _non_adjacent_pair(g2, n2)
            mapping = {c: a, d: b}
            fresh = iter(range(n1, n1 + n2))
            for i in range(n2):
                if i not in mapping:
                    mapping[i] = next(fresh)
            union = g1 + relabel(g2, mapping)
            n = max(max(u, v) for u, v in union) + 1
            assert len(play(n, union).rejected) >= 1


def _non_adjacent_pair(edges, n):
    present = {tuple(sorted(e)) for e in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present:
                return u, v
    raise AssertionError("complete graph has no non-adjacent pair")


class TestCopy:
    def test_interleaved_copies_each_match_a_fresh_game(self):
        # the original and its copy take turns; neither may see the other's
        # searches, so each ends exactly where one game over its edges ends
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(3, 9)
            shared = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 12))]
            first = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 12))]
            second = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 12))]
            state = PebbleState(n)
            for u, v in shared:
                try_edge(state, u, v)
            dup = state.copy()
            first_answers, second_answers = [], []
            for k in range(max(len(first), len(second))):
                if k < len(first):
                    first_answers.append(try_edge(state, *first[k]))
                if k < len(second):
                    second_answers.append(try_edge(dup, *second[k]))
            for game, tail, answers in ((state, first, first_answers), (dup, second, second_answers)):
                fresh = PebbleState(n)
                for u, v in shared:
                    try_edge(fresh, u, v)
                assert [try_edge(fresh, u, v) for u, v in tail] == answers
                assert (game.pebbles, game.out) == (fresh.pebbles, fresh.out)

    def test_copy_of_a_state_with_a_block(self):
        # the copy of (0, 1) starts the block on the triangle 0 1 2, and the
        # open batch joins 3 to it: the copy holds the same edges, but no
        # block and no batch, and its own block leaves the original's alone
        state = PebbleState(6)
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            assert state.offer(u, v)
        assert not state.offer(1, 0)
        before = state.remaining_pebbles(), _held(state), state.degree[:], _block(state)
        assert state.insert([(1, 3), (3, 4)], 2) == 2
        assert state._in_block[:4] == [True] * 4 and state._log == [3]
        dup = state.copy()
        assert (dup.pebbles, dup.out, dup.degree) == (state.pebbles, state.out, state.degree)
        assert dup._links is None and not any(dup._in_block)
        assert not dup._log and not dup._batches
        kept = _block(state), state._log[:], [(k[:], l[:], *rest) for k, l, *rest in state._batches]
        # a rejection inside the triangle starts the copy's block, and more
        # offers grow it
        assert not dup.offer(2, 0)
        assert dup._links is not None and any(dup._in_block)
        assert dup.offer(4, 5) and dup.offer(2, 4) and dup.offer(3, 5)
        assert not dup.offer(0, 5)
        assert dup._in_block == [True] * 6
        assert (_block(state), state._log,
                [(k, l, *rest) for k, l, *rest in state._batches]) == kept
        state.undo()
        assert (state.remaining_pebbles(), _held(state), state.degree, _block(state)) == before
        assert not state._log and not state._batches


# sha256 of repr of each answer on a 30-rod arrangement (261 points, 291 cone
# vertices, 1014 edges), fixed from the search that kept its visit marks in a
# fresh dict per search.  The arrangement is rigid and stays rigid without any
# one rod, so the leave-one-out digest pins thirty 5s; flexible deletions are
# pinned by test_golden_pebble_answers.
ARRANGEMENT_GOLDEN = {
    "canonical": "ba5c3f35920592ff21d18e86318f9fd7960ed312d9ceea54a197bc4f66f94a33",
    "leave_one_out": "8339d1ab0b044cbd2570b9a2925a58ad45bba631fc3987b49feda3bd3ca03372",
    "play": "92e2da27c3d79798ced6ffd59a7630cb36ec05b7eb464f00e732b3968ac26426",
    "state": "3cbd63e7644667f0c81db2ac8bcaa61d30e550d36d364ede661d97139cb1f5c4",
}


@pytest.mark.parametrize("question", sorted(ARRANGEMENT_GOLDEN))
def test_golden_arrangement_answers(question):
    g = arrangement(30, 0.6, seed=2024)
    n, cones = g.num_points + g.num_lines, build_cone_graph(g)
    if question == "play":
        game = play(n, *cones)
        answer = (game.accepted, game.rejected)
    elif question == "state":
        # the searches visit in a fixed order, so the orientation is pinned too
        state = PebbleState(n)
        for u, v in chain.from_iterable(cones):
            try_edge(state, u, v)
        answer = (state.pebbles, state.out)
    elif question == "leave_one_out":
        answer = remaining_without_each(play(n, *cones))
    else:
        c = canonical_subgraph(g)
        answer = (c.edges, c.rejected, c.line_order, c.subgeometry.lines, c.source_lines)
    digest = hashlib.sha256(repr(answer).encode()).hexdigest()
    assert digest == ARRANGEMENT_GOLDEN[question]
