from __future__ import annotations

import random

import pytest

from rodrigidity import independent_after, new_state, play, remaining_without_each, try_edge
from rodrigidity.pebble import _insert_batch, _undo_batch, verdict_of

from bruteforce import henneberg_graph, laman_independent, laman_rank
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
            new_state(1)

    def test_single_bar(self):
        assert play(2, [(0, 1)]).classification == "minimally-rigid"


class TestTryEdge:
    def test_first_edge_always_accepted(self):
        state = new_state(6)
        assert try_edge(state, 2, 5)
        assert state.remaining_pebbles() == 2 * 6 - 1

    def test_sixth_k4_edge_rejected(self):
        state = new_state(4)
        for u, v in K4_EDGES[:5]:
            assert try_edge(state, u, v)
        assert not try_edge(state, *K4_EDGES[5])

    def test_fresh_endpoint_into_saturated_blob(self):
        state = new_state(5)
        for u, v in K4_EDGES:
            try_edge(state, u, v)
        assert try_edge(state, 3, 4)

    def test_pebble_conservation(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 8)
            state = new_state(n)
            for _ in range(rng.randint(1, 16)):
                u, v = rng.sample(range(n), 2)
                try_edge(state, u, v)
                for w in range(n):
                    assert state.pebbles[w] + len(state.out[w]) == 2
            assert state.remaining_pebbles() == 2 * n - len(state.accepted)


class TestIndependentAfter:
    def test_probe_sixth_k4_edge(self):
        state = new_state(4)
        for u, v in K4_EDGES[:5]:
            try_edge(state, u, v)
        assert not independent_after(state, *K4_EDGES[5])

    def test_probe_fresh_endpoint(self):
        state = new_state(5)
        for u, v in K4_EDGES:
            try_edge(state, u, v)
        assert independent_after(state, 0, 4)

    def test_probe_then_commit_matches_direct_play(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(3, 8)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(3, 18))]
            direct = play(n, edges)
            state = new_state(n)
            for u, v in edges:
                probe = independent_after(state, u, v)
                assert try_edge(state, u, v) == probe
            assert verdict_of(state).accepted == direct.accepted


def _held(state):
    return sorted(tuple(sorted((u, w))) for u in range(state.num_vertices) for w in state.out[u])


class TestLeaveOneOut:
    def test_batch_undo_restores_the_state(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(3, 9)
            state = new_state(n)
            for _ in range(rng.randint(0, 10)):
                try_edge(state, *rng.sample(range(n), 2))
            before, held, logged = state.remaining_pebbles(), _held(state), len(state.accepted)
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
            assert _held(state) == held and len(state.accepted) == logged

    def test_rejected_parallel_copy_keeps_the_held_edge(self):
        state = new_state(3)
        try_edge(state, 0, 1)
        kept = _insert_batch(state, [(1, 0), (1, 2)])
        assert kept == [(1, 2)]
        _undo_batch(state, kept)
        assert _held(state) == [(0, 1)] and state.remaining_pebbles() == 5

    def test_matches_one_game_per_group(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(2, 9)
            groups = [[tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4))]
                      for _ in range(rng.randint(1, 9))]
            expected = tuple(
                play(n, [e for j, group in enumerate(groups) if j != i for e in group]).remaining_pebbles
                for i in range(len(groups))
            )
            assert remaining_without_each(n, groups) == expected

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
