"""The (2,3)-pebble game for planar generic rigidity.

Every vertex starts with two pebbles.  An edge is accepted when four pebbles
can be gathered on its endpoints; accepting consumes one pebble and orients
the edge away from the vertex that paid.  Pebbles are retrieved by depth-first
search along directed edges, reversing the path that leads to a free pebble;
while searching from one endpoint, the other endpoint is blocked.  Accepted
edges always form a maximally independent subgraph of the edges seen so far,
so a rejected edge never needs to be retried.

A search allocates no visit set.  Each state keeps one visit mark and one
tree parent per vertex, allocated once: a search takes a new stamp, marks the
root and the blocked endpoint with it, and a vertex counts as visited when its
mark equals the stamp, so nothing is cleared between searches.

The state holds pebbles and orientations only: the accepted edges are the
out-edges, and nothing else records them.  Whoever needs the accepted and
rejected edges in offer order (play, canonical_subgraph) keeps them from
try_edge's answers.

Three pebbles always remain (the trivial planar motions).  Exactly three
remaining means the input graph is rigid; any rejection means it is dependent.

remaining_without_each answers a leave-one-out question over groups of edges
in three games.  A forward game in group order keeps a basis of every prefix
of the groups, and a backward game in reverse order a basis of every suffix.
A divide and conquer over the groups then offers only those basis edges, so
an edge that both games reject is never offered again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

__all__ = [
    "PebbleState",
    "PebbleVerdict",
    "try_edge",
    "independent_after",
    "play",
    "remaining_without_each",
]

class PebbleState:
    """Mutable game state: pebble counts plus the orientation of accepted
    edges, the only record of which edges the state holds.

    Invariant: pebbles[v] + outdegree(v) == 2 for every vertex, hence the
    total pebble count is 2|V| minus the number of held edges.  _seen,
    _parent and _stamp are the searches' reusable visit marks (see _gather).
    """

    __slots__ = ("num_vertices", "pebbles", "out", "_seen", "_parent", "_stamp")

    def __init__(self, num_vertices: int):
        if num_vertices < 2:
            raise ValueError("pebble game needs at least 2 vertices")
        self.num_vertices = num_vertices
        self.pebbles = [2] * num_vertices
        self.out: list[list[int]] = [[] for _ in range(num_vertices)]
        self._fresh_marks()

    def _fresh_marks(self) -> None:
        self._seen = [0] * self.num_vertices  # stamp of the last search to reach each vertex
        self._parent = [0] * self.num_vertices  # DFS tree parent, valid where _seen is current
        self._stamp = 0

    def copy(self) -> "PebbleState":
        dup = PebbleState.__new__(PebbleState)
        dup.num_vertices = self.num_vertices
        dup.pebbles = self.pebbles[:]
        dup.out = [adj[:] for adj in self.out]
        dup._fresh_marks()
        return dup

    def remaining_pebbles(self) -> int:
        return sum(self.pebbles)


def _check_edge(num_vertices: int, u: int, v: int) -> None:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (0 <= u < num_vertices and 0 <= v < num_vertices):
        raise ValueError(f"edge ({u}, {v}) out of range")


def _gather(state: PebbleState, u: int, v: int) -> bool:
    """Move pebbles onto u and v until they hold four; False when the
    searches run dry, i.e. when edge (u, v) is dependent.

    Each search is a DFS from an endpoint short of two pebbles (u first)
    along directed edges, with the other endpoint blocked.  It pops a vertex,
    scans its out-edges in order, and at the first vertex holding a pebble it
    reverses the tree path, which moves that pebble to the root."""
    pebbles, out, seen, parent = state.pebbles, state.out, state._seen, state._parent
    while pebbles[u] + pebbles[v] < 4:
        for root, blocked in ((u, v), (v, u)):
            if pebbles[root] >= 2:
                continue
            state._stamp += 1
            stamp = state._stamp
            seen[root] = seen[blocked] = stamp
            hit = -1
            stack = [root]
            while stack:
                x = stack.pop()
                for w in out[x]:
                    if seen[w] != stamp:
                        seen[w] = stamp
                        parent[w] = x
                        if pebbles[w]:
                            hit = w
                            break
                        stack.append(w)
                if hit >= 0:
                    break
            if hit < 0:
                continue  # this endpoint's search ran dry
            pebbles[hit] -= 1
            pebbles[root] += 1
            while hit != root:  # reverse the tree path root -> hit
                x = parent[hit]
                out[x].remove(hit)
                out[hit].append(x)
                hit = x
            break
        else:
            return False
    return True


def _orient(state: PebbleState, u: int, v: int) -> None:
    """Accept a gathered edge: the lower-index endpoint pays one pebble and
    the edge is directed away from it."""
    payer, other = (u, v) if u < v else (v, u)
    state.pebbles[payer] -= 1
    state.out[payer].append(other)


def try_edge(state: PebbleState, u: int, v: int) -> bool:
    """Offer edge (u, v); accept iff four pebbles can be gathered at u and v.

    Accepting consumes one pebble from the lower-index endpoint and directs
    the edge away from it.  A rejected edge leaves the pebble distribution
    valid (searches may have reoriented edges and moved pebbles)."""
    _check_edge(state.num_vertices, u, v)
    if not _gather(state, u, v):
        return False
    _orient(state, u, v)
    return True


def _insert_batch(state: PebbleState, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Offer every edge and return those accepted."""
    kept = []
    for edge in edges:
        u, v = edge
        if _gather(state, u, v):
            _orient(state, u, v)
            kept.append(edge)
    return kept


def _undo_batch(state: PebbleState, kept: Iterable[tuple[int, int]]) -> None:
    """Remove edges accepted by _insert_batch, each from whichever end it is
    oriented out of now, and give that end its pebble back.

    Later searches may have reversed a kept edge but never duplicated it: an
    independent set holds no two parallel edges.  Afterwards the accepted
    edges are those held before the batch, possibly reoriented, which is a
    valid state for every later offer."""
    out, pebbles = state.out, state.pebbles
    for u, v in kept:
        if v in out[u]:
            out[u].remove(v)
            pebbles[u] += 1
        else:
            out[v].remove(u)
            pebbles[v] += 1


def _group_bases(
    num_vertices: int, groups: Iterable[Sequence[tuple[int, int]]]
) -> list[list[tuple[int, int]]]:
    """One game over the groups in the given order: the edges it accepts
    from each group."""
    state = PebbleState(num_vertices)
    return [_insert_batch(state, group) for group in groups]


def remaining_without_each(
    num_vertices: int, groups: Sequence[Sequence[tuple[int, int]]]
) -> tuple[int, ...]:
    """For each edge group g, the pebbles left by a game over every edge
    outside g.

    Two games come first: a forward game over the groups in order, which
    accepts F_j from group j, and a backward game in reverse order, which
    accepts R_j.  The accepted edges of a game always span every edge it has
    seen, so F_<i (the F_j of every j < i) spans each edge of a group before
    i, and R_>i spans each edge of a group after i.  Hence F_<i and R_>i
    together span exactly the edges outside group i: both sets have the same
    rank, and the pebble count depends only on the rank of what a game holds
    (2|V| - |accepted|), not on the order or the orientation.

    Then divide and conquer over the groups: for a range [lo, hi) split at
    mid, R of the groups [mid, hi) is inserted while [lo, mid) is solved,
    then removed again, and F of the groups [lo, mid) is inserted while
    [mid, hi) is solved.  Leaf i then holds exactly F_<i and R_>i.  Each
    basis edge is offered O(log L) times for L groups, and an edge that both
    games reject is offered by the games alone."""
    for group in groups:
        for u, v in group:
            _check_edge(num_vertices, u, v)
    if not groups:
        return ()
    forward = _group_bases(num_vertices, groups)
    backward = _group_bases(num_vertices, reversed(groups))[::-1]
    state = PebbleState(num_vertices)
    remaining = [0] * len(groups)

    def solve(lo: int, hi: int) -> None:
        if hi - lo == 1:
            remaining[lo] = state.remaining_pebbles()
            return
        mid = (lo + hi) // 2
        kept = _insert_batch(state, chain.from_iterable(backward[mid:hi]))
        solve(lo, mid)
        _undo_batch(state, kept)
        kept = _insert_batch(state, chain.from_iterable(forward[lo:mid]))
        solve(mid, hi)
        _undo_batch(state, kept)

    solve(0, len(groups))
    return tuple(remaining)


def independent_after(state: PebbleState, u: int, v: int) -> bool:
    """What try_edge would report, without mutating the caller's state."""
    return try_edge(state.copy(), u, v)


@dataclass(frozen=True)
class PebbleVerdict:
    """Outcome of a full game: the maximally independent subgraph and counts."""

    num_vertices: int
    accepted: tuple[tuple[int, int], ...]
    rejected: tuple[tuple[int, int], ...]
    remaining_pebbles: int
    classification: str

    @property
    def is_rigid(self) -> bool:
        return self.remaining_pebbles == 3


def _classify(remaining: int, any_rejected: bool) -> str:
    if remaining == 3:
        return "rigid-redundant" if any_rejected else "minimally-rigid"
    return "flexible-redundant" if any_rejected else "flexible-independent"


def play(num_vertices: int, edges: Iterable[tuple[int, int]]) -> PebbleVerdict:
    """Run the game over the edges in the given order.

    The accepted set depends on the order; its size (the rank) does not."""
    state = PebbleState(num_vertices)
    accepted: list[tuple[int, int]] = []
    rejected: list[tuple[int, int]] = []
    for u, v in edges:
        (accepted if try_edge(state, u, v) else rejected).append((u, v))
    remaining = state.remaining_pebbles()
    return PebbleVerdict(
        num_vertices=num_vertices,
        accepted=tuple(accepted),
        rejected=tuple(rejected),
        remaining_pebbles=remaining,
        classification=_classify(remaining, bool(rejected)),
    )
