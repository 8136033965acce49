from __future__ import annotations

import hashlib
import random

import pytest

from rodrigidity import (
    IncidenceGeometry,
    build_cone_graph,
    canonical_subgraph,
    independent_after,
    play,
    random_geometry,
    remaining_without_each,
    try_edge,
)
from rodrigidity import pebble
from rodrigidity.pebble import PebbleState, _insert_batch, _undo_batch

from bruteforce import henneberg_graph, laman_independent, laman_rank, shares_two_points
from conftest import FIG1_EDGES, K4_EDGES


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

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            PebbleState(1)

    def test_single_bar(self):
        assert play(2, [(0, 1)]).classification == "minimally-rigid"


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


def _one_game_per_group(n, groups):
    return tuple(
        play(n, [e for j, group in enumerate(groups) if j != i for e in group]).remaining_pebbles
        for i in range(len(groups))
    )


class TestLeaveOneOut:
    def test_batch_undo_restores_the_state(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(3, 9)
            state = PebbleState(n)
            for _ in range(rng.randint(0, 10)):
                try_edge(state, *rng.sample(range(n), 2))
            before, held = state.remaining_pebbles(), _held(state)
            outer = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 10))]
            inner = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 10))]
            kept_outer = _insert_batch(state, outer)
            middle, held_middle = state.remaining_pebbles(), _held(state)
            # the inner batch's searches may reverse edges of the outer batch
            _undo_batch(state, _insert_batch(state, inner))
            assert state.remaining_pebbles() == middle and _held(state) == held_middle
            _undo_batch(state, kept_outer)
            for w in range(n):
                assert state.pebbles[w] + len(state.out[w]) == 2
            assert state.remaining_pebbles() == before
            assert _held(state) == held

    def test_rejected_parallel_copy_keeps_the_held_edge(self):
        state = PebbleState(3)
        try_edge(state, 0, 1)
        kept = _insert_batch(state, [(1, 0), (1, 2)])
        assert kept == [(1, 2)]
        _undo_batch(state, kept)
        assert _held(state) == [(0, 1)] and state.remaining_pebbles() == 5

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
        geometries = (random_geometry(rng, 12, 8) for _ in range(400))
        shared = 0
        for g in geometries:
            cone = build_cone_graph(g)
            if len(set(map(frozenset, cone.edges))) == len(cone.edges):
                continue
            assert shares_two_points(g)
            cases.append((cone.num_vertices, cone.cones))
            shared += 1
        assert shared >= 100
        for n, groups in cases:
            assert remaining_without_each(n, groups) == _one_game_per_group(n, groups)

    @pytest.mark.parametrize("case", ["golden", "k4-sandwich"])
    def test_recursion_offers_only_basis_edges(self, case, monkeypatch):
        # after the forward and the backward game, the recursion offers no
        # edge that both games rejected, and leaf i holds only edges that the
        # forward game accepted before group i or the backward game after it
        if case == "golden":
            cone = build_cone_graph(_arrangement(30, 0.6, seed=2024))
            n = cone.num_vertices
            groups = cone.cones
        else:
            # (1, 0) is spanned by the K4 before it and by the K4 after it
            n, groups = 4, [K4_EDGES, [(1, 0)], K4_EDGES]
        expected = _one_game_per_group(n, groups)
        offers, leaves = [], []
        real_gather, real_remaining = pebble._gather, pebble.PebbleState.remaining_pebbles

        def gather(state, u, v):
            ok = real_gather(state, u, v)
            offers.append(((u, v), ok))
            return ok

        def remaining(state):
            leaves.append({frozenset(e) for e in _held(state)})
            return real_remaining(state)

        monkeypatch.setattr(pebble, "_gather", gather)
        monkeypatch.setattr(pebble.PebbleState, "remaining_pebbles", remaining)
        assert remaining_without_each(n, groups) == expected and len(leaves) == len(groups)
        games = iter(offers)

        def accepted_by_game(order):
            bases = []
            for group in order:
                offered = [next(games) for _ in group]
                assert [e for e, _ in offered] == list(group)
                bases.append([e for e, ok in offered if ok])
            return bases

        forward = accepted_by_game(groups)
        backward = accepted_by_game(reversed(groups))[::-1]
        recursion = [e for e, _ in games]
        accepted = {e for basis in forward + backward for e in basis}
        rejected_by_both = {e for group in groups for e in group} - accepted
        assert recursion and not rejected_by_both & set(recursion)
        assert bool(rejected_by_both) == (case == "k4-sandwich")
        for i, held in enumerate(leaves):
            basis = forward[:i] + backward[i + 1:]
            assert held <= {frozenset(e) for b in basis for e in b}

    def test_no_groups(self):
        assert remaining_without_each(1, []) == ()

    def test_bad_edge(self):
        with pytest.raises(ValueError, match="self-loop"):
            remaining_without_each(3, [[(0, 1)], [(2, 2)]])
        with pytest.raises(ValueError, match="out of range"):
            remaining_without_each(3, [[(0, 3)]])


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


def _arrangement(num_rods: int, share: float, seed: int) -> IncidenceGeometry:
    """A seeded fraction of the rod pairs, each pair meeting in its own point."""
    pairs = [(i, j) for i in range(num_rods) for j in range(i + 1, num_rods)]
    chosen = sorted(random.Random(seed).sample(pairs, round(share * len(pairs))))
    lines: list[list[int]] = [[] for _ in range(num_rods)]
    for p, (i, j) in enumerate(chosen):
        lines[i].append(p)
        lines[j].append(p)
    return IncidenceGeometry(len(chosen), tuple(tuple(l) for l in lines))


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
    g = _arrangement(30, 0.6, seed=2024)
    cone = build_cone_graph(g)
    if question == "play":
        game = play(cone.num_vertices, cone.edges)
        answer = (game.accepted, game.rejected)
    elif question == "state":
        # the searches visit in a fixed order, so the orientation is pinned too
        state = PebbleState(cone.num_vertices)
        for u, v in cone.edges:
            try_edge(state, u, v)
        answer = (state.pebbles, state.out)
    elif question == "leave_one_out":
        answer = remaining_without_each(cone.num_vertices, cone.cones)
    else:
        c = canonical_subgraph(g)
        answer = (c.edges, c.rejected, c.line_order, c.subgeometry.lines, c.source_lines)
    digest = hashlib.sha256(repr(answer).encode()).hexdigest()
    assert digest == ARRANGEMENT_GOLDEN[question]
