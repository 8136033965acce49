"""The (2,3)-pebble game for planar generic rigidity.

Every vertex starts with two pebbles.  An edge is accepted when four pebbles
can be gathered on its endpoints; accepting consumes one pebble and orients
the edge away from the vertex that paid.  Pebbles are retrieved by depth-first
search along directed edges, reversing the path that leads to a free pebble;
while searching from one endpoint, the other endpoint is blocked.  Accepted
edges always form a maximally independent subgraph of the edges seen so far,
so a rejected edge never needs to be retried.

Three pebbles always remain (the trivial planar motions).  Exactly three
remaining means the input graph is rigid; any rejection means it is dependent.

remaining_without_each answers a leave-one-out question over groups of edges
with one game: batches of groups are inserted and removed again by divide and
conquer, so each edge is offered O(log L) times instead of L - 1 times.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

__all__ = [
    "PebbleState",
    "PebbleVerdict",
    "new_state",
    "try_edge",
    "independent_after",
    "play",
    "remaining_without_each",
]

CLASSIFICATIONS = (
    "minimally-rigid",
    "rigid-redundant",
    "flexible-independent",
    "flexible-redundant",
)


class PebbleState:
    """Mutable game state: pebble counts plus the orientation of accepted edges.

    Invariant: pebbles[v] + outdegree(v) == 2 for every vertex, hence the
    total pebble count is 2|V| - |accepted|.
    """

    __slots__ = ("num_vertices", "pebbles", "out", "accepted", "rejected")

    def __init__(self, num_vertices: int):
        if num_vertices < 2:
            raise ValueError("pebble game needs at least 2 vertices")
        self.num_vertices = num_vertices
        self.pebbles = [2] * num_vertices
        self.out: list[list[int]] = [[] for _ in range(num_vertices)]
        self.accepted: list[tuple[int, int]] = []
        self.rejected: list[tuple[int, int]] = []

    def copy(self) -> "PebbleState":
        dup = PebbleState.__new__(PebbleState)
        dup.num_vertices = self.num_vertices
        dup.pebbles = self.pebbles[:]
        dup.out = [adj[:] for adj in self.out]
        dup.accepted = self.accepted[:]
        dup.rejected = self.rejected[:]
        return dup

    def remaining_pebbles(self) -> int:
        return sum(self.pebbles)


def new_state(num_vertices: int) -> PebbleState:
    return PebbleState(num_vertices)


def _find_pebble(state: PebbleState, root: int, blocked: int) -> bool:
    """DFS from `root` along directed edges for a vertex holding a free pebble.

    On success the path is reversed, one pebble moves to `root`, and True is
    returned.  The blocked vertex is neither visited nor robbed of pebbles.
    """
    out = state.out
    parent = {root: root}
    stack = [root]
    while stack:
        u = stack.pop()
        for w in out[u]:
            if w in parent or w == blocked:
                continue
            parent[w] = u
            if state.pebbles[w] > 0:
                state.pebbles[w] -= 1
                state.pebbles[root] += 1
                # Reverse the tree path root -> w.
                node = w
                while node != root:
                    prev = parent[node]
                    out[prev].remove(node)
                    out[node].append(prev)
                    node = prev
                return True
            stack.append(w)
    return False


def _check_edge(num_vertices: int, u: int, v: int) -> None:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (0 <= u < num_vertices and 0 <= v < num_vertices):
        raise ValueError(f"edge ({u}, {v}) out of range")


def _gather(state: PebbleState, u: int, v: int) -> bool:
    """Move pebbles onto u and v until they hold four; False when the
    searches run dry, i.e. when edge (u, v) is dependent."""
    pebbles = state.pebbles
    while pebbles[u] + pebbles[v] < 4:
        if pebbles[u] < 2 and _find_pebble(state, u, v):
            continue
        if pebbles[v] < 2 and _find_pebble(state, v, u):
            continue
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
        state.rejected.append((u, v))
        return False
    _orient(state, u, v)
    state.accepted.append((u, v))
    return True


def _insert_batch(state: PebbleState, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Offer every edge and return those accepted.  Nothing is logged in
    state.accepted or state.rejected, so the pebble count alone says how many
    edges the state holds."""
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


def remaining_without_each(
    num_vertices: int, groups: Sequence[Sequence[tuple[int, int]]]
) -> tuple[int, ...]:
    """For each edge group g, the pebbles left by a game over every edge
    outside g.

    Divide and conquer over the groups: for a range [lo, hi) split at mid,
    the groups of [mid, hi) are inserted while [lo, mid) is solved, then
    removed again, and the same is done the other way round.  Each leaf holds
    exactly the edges outside its group, and the pebble count depends only on
    the accepted set (2|V| - |accepted|), not on its orientation.  Every edge
    is offered O(log L) times for L groups."""
    for group in groups:
        for u, v in group:
            _check_edge(num_vertices, u, v)
    if not groups:
        return ()
    state = new_state(num_vertices)
    remaining = [0] * len(groups)

    def solve(lo: int, hi: int) -> None:
        if hi - lo == 1:
            remaining[lo] = state.remaining_pebbles()
            return
        mid = (lo + hi) // 2
        kept = _insert_batch(state, chain.from_iterable(groups[mid:hi]))
        solve(lo, mid)
        _undo_batch(state, kept)
        kept = _insert_batch(state, chain.from_iterable(groups[lo:mid]))
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

    @property
    def is_independent(self) -> bool:
        return not self.rejected

    @property
    def degrees_of_freedom(self) -> int:
        """Internal degrees of freedom left after the trivial planar motions."""
        return self.remaining_pebbles - 3


def _classify(remaining: int, any_rejected: bool) -> str:
    if remaining == 3:
        return "rigid-redundant" if any_rejected else "minimally-rigid"
    return "flexible-redundant" if any_rejected else "flexible-independent"


def play(num_vertices: int, edges: Iterable[tuple[int, int]]) -> PebbleVerdict:
    """Run the game over the edges in the given order.

    The accepted set depends on the order; its size (the rank) does not."""
    state = new_state(num_vertices)
    for u, v in edges:
        try_edge(state, u, v)
    return verdict_of(state)


def verdict_of(state: PebbleState) -> PebbleVerdict:
    remaining = state.remaining_pebbles()
    return PebbleVerdict(
        num_vertices=state.num_vertices,
        accepted=tuple(state.accepted),
        rejected=tuple(state.rejected),
        remaining_pebbles=remaining,
        classification=_classify(remaining, bool(state.rejected)),
    )
