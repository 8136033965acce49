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
the game's answers.

Both offer their edges to a game that also keeps a block: one vertex set
on which the held edges are rigid.  It starts at the first accepted edge
and grows by Henneberg type I steps, a vertex with two held edges into the
block joining it (which can let its held neighbours join in turn), and by
the reach set of a rejected edge's last dry search, which spans 2|R| - 3
held edges and so is rigid, when that set meets the block in two vertices.
An edge with both ends in the block lies in the span of the held edges,
since they already fix the distance between its ends, so it is rejected
without a search.  The accepted edges are the greedy basis of the offer
order, which is unique, so the answers are those of a game that searches
for every edge; only the orientations may differ.

Three pebbles always remain (the trivial planar motions).  Exactly three
remaining means the input graph is rigid; any rejection means it is dependent.

remaining_without_each answers a leave-one-out question over the groups of
edges that play offered, by extending play's game over them.  The verdict
counts each group's accepted and rejected edges, so it alone holds the
groups, and play's accepted edges, split by group, are a basis of every
prefix of the groups.  A divide and conquer over the
groups, the only other game, offers those basis edges for the groups before
a range and the raw edges of the groups after it.  It stops at a rank
floor: edges on s vertices have rank at most 2s - 3, so once a range's
state holds that many its insertion ends, and when every group of the
range also grows rigidly (Henneberg type I steps from its first edge,
which every cone does) and meets that rigid support in two vertices, each
deletion in the range is rigid on the vertices it touches and its count
follows without a game.
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


class _Game:
    """A game over edges offered one at a time that keeps one growing vertex
    set, the block, on which its held edges are rigid.  An edge with both
    ends in the block is dependent and is rejected without a search.

    A held edge with an end in the block counts at once toward the other
    end's links; one with both ends outside is kept in _nbrs until one of
    its ends joins."""

    __slots__ = ("state", "_started", "_in_block", "_links", "_nbrs")

    def __init__(self, num_vertices: int):
        self.state = PebbleState(num_vertices)
        self._started = False  # whether an edge was accepted, which starts the block
        self._in_block = [False] * num_vertices
        self._links = [0] * num_vertices  # held edges into the block, outside it
        self._nbrs: list[list[int]] = [[] for _ in range(num_vertices)]  # held, kept outside

    def offer(self, u: int, v: int) -> bool:
        """Offer edge (u, v); the answer is try_edge's on a state that held
        the same edges."""
        state, in_block = self.state, self._in_block
        _check_edge(state.num_vertices, u, v)
        if in_block[u] and in_block[v]:
            return False
        if not _gather(state, u, v):
            self._merge_reach(u, v)
            return False
        _orient(state, u, v)
        if in_block[u] or in_block[v]:
            outside = v if in_block[u] else u
            self._links[outside] += 1
            if self._links[outside] == 2:
                in_block[outside] = True
                self._grow([outside])
        elif self._started:
            self._nbrs[u].append(v)
            self._nbrs[v].append(u)
        else:
            self._started = in_block[u] = in_block[v] = True
        return True

    def _grow(self, joined: list[int]) -> None:
        """Henneberg steps after the vertices joined entered the block: a
        vertex with two held edges into the block joins it, and so on."""
        in_block, links, nbrs = self._in_block, self._links, self._nbrs
        while joined:
            for y in nbrs[joined.pop()]:
                if not in_block[y]:
                    links[y] += 1
                    if links[y] == 2:
                        in_block[y] = True
                        joined.append(y)

    def _merge_reach(self, u: int, v: int) -> None:
        """After a failed gather for (u, v): the last dry search marked its
        root, the blocked endpoint and everything reachable from the root
        with the current stamp.  The blocked endpoint holds two pebbles, the
        root one and every other vertex none, and only the blocked endpoint
        can have out-edges leaving the set, so its vertices R span 2|R| - 3
        held edges and are rigid.  They join a block that they meet in two
        vertices.  The walk re-marks them with -stamp, which no search
        takes."""
        out, seen, stamp = self.state.out, self.state._seen, self.state._stamp
        reach = []
        for root in (u, v):
            if seen[root] == stamp:
                seen[root] = -stamp
                reach.append(root)
        for x in reach:  # grows while it is walked
            for w in out[x]:
                if seen[w] == stamp:
                    seen[w] = -stamp
                    reach.append(w)
        in_block = self._in_block
        if sum(in_block[x] for x in reach) >= 2:
            joined = [x for x in reach if not in_block[x]]
            for x in joined:
                in_block[x] = True
            self._grow(joined)


def _insert_batch(
    state: PebbleState, edges: Iterable[tuple[int, int]], room: int
) -> list[tuple[int, int]]:
    """Offer the edges in turn until room of them are accepted, and return
    those accepted.  With no room nothing is offered, and edges is not
    iterated at all."""
    kept: list[tuple[int, int]] = []
    if room <= 0:
        return kept
    for edge in edges:
        u, v = edge
        if _gather(state, u, v):
            _orient(state, u, v)
            kept.append(edge)
            if len(kept) == room:
                break
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


def _grows_rigidly(group: Sequence[tuple[int, int]]) -> bool:
    """Whether the group grows from its first edge to every vertex it
    touches by adding, one at a time, a vertex with edges to two grown
    vertices (Henneberg type I steps), which certifies that it is rigid on
    its vertices.  A cone grows from its first spoke to its inner vertex and
    then to each other point."""
    if not group:
        return False
    nbrs: dict[int, set[int]] = {}
    for u, v in group:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    grown = set(group[0])
    links = dict.fromkeys(nbrs, 0)  # grown neighbours of each vertex not yet grown
    frontier = list(grown)
    while frontier:
        for w in nbrs[frontier.pop()]:
            if w not in grown:
                links[w] += 1
                if links[w] == 2:
                    grown.add(w)
                    frontier.append(w)
    return len(grown) == len(nbrs)


def remaining_without_each(forward: PebbleVerdict) -> tuple[int, ...]:
    """For each edge group g that play offered to forward's game, the
    pebbles left by a game over every edge outside g.  The game accepted
    F_j, the accepted slice of group j, and group j's edges are F_j followed
    by its rejected slice: the group's edges, the accepted ones first.

    The accepted edges of a game span every edge it has seen, so F_<i (the
    F_j of every j < i) spans each edge of a group before i, and F_<i with
    the groups after i spans exactly the edges outside group i.  The pebble
    count depends only on the rank of what a game holds (2|V| - |accepted|),
    not on the order or the orientation.

    Divide and conquer over the groups: for a range [lo, hi) split at mid,
    the edges of the groups [mid, hi) are inserted while [lo, mid) is
    solved, then removed again, and F of the groups [lo, mid) is inserted
    while [mid, hi) is solved.  A range's state spans every edge outside
    it, so a reached leaf i holds a basis of the edges outside group i.

    Edges on s >= 2 vertices have rank at most 2s - 3, so the state of a
    range [a, b) never holds more than 2s - 3 edges, s counting the vertices
    that the groups outside [a, b) touch (the support): its pebbles never
    fall below the rank floor 2|V| - (2s - 3).  An insertion stops at the
    floor, as every later edge of the batch would be rejected.  A state at
    its floor is rigid on its support, so it spans the groups after the
    range that the insertion did not reach.  When moreover each group of the
    range grows rigidly (_grows_rigidly) and has two vertices in the
    support, the edges outside any one of its groups are rigid on the
    vertices they touch, since a rigid body sharing two vertices with
    another joins it.  Then leaf i gets the floor of its own support, all
    touched vertices except those only group i touches, and the range is
    not split further."""
    num_vertices, accepted, rejected = forward.num_vertices, forward.accepted, forward.rejected
    forward_bases: list[tuple[tuple[int, int], ...]] = []
    groups: list[tuple[tuple[int, int], ...]] = []
    a = r = 0
    for took, left in forward.group_sizes:
        forward_bases.append(accepted[a:a + took])
        groups.append(forward_bases[-1] + rejected[r:r + left])
        a, r = a + took, r + left
    if (a, r) != (len(accepted), len(rejected)) or any(min(s) < 0 for s in forward.group_sizes):
        raise ValueError("the verdict's group sizes do not add up to its edges")
    for u, v in chain(accepted, rejected):
        # _check_edge inline: a call per edge costs about 5% of minimal
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ValueError(f"edge ({u}, {v}) out of range")
    if not groups:
        return ()
    count = len(groups)
    state = PebbleState(num_vertices)
    remaining = [0] * count
    touches = [tuple(set(chain.from_iterable(group))) for group in groups]
    first, last = [count] * num_vertices, [-1] * num_vertices  # groups touching each vertex
    for j, vertices in enumerate(touches):
        for v in vertices:
            first[v] = min(first[v], j)
            last[v] = j
    touched = num_vertices - last.count(-1)
    rigid = [_grows_rigidly(group) for group in groups]

    def full_rank(a: int, b: int) -> int:
        """The rank of all edges on the vertices that groups outside [a, b) touch."""
        inner = sum(first[v] == j and last[v] < b for j in range(a, b) for v in touches[j])
        return max(0, 2 * (touched - inner) - 3)

    def settled(a: int, b: int, held: int) -> bool:
        """Whether the leaves of [a, b) follow from their rank floors."""
        return held == full_rank(a, b) and all(
            rigid[j] and sum(first[v] < a or last[v] >= b for v in touches[j]) >= 2
            for j in range(a, b)
        )

    def solve(lo: int, hi: int, held: int) -> None:
        if hi - lo == 1:
            remaining[lo] = state.remaining_pebbles()
            return
        if settled(lo, hi, held):
            for i in range(lo, hi):
                remaining[i] = 2 * num_vertices - full_rank(i, i + 1)
            return
        mid = (lo + hi) // 2
        batch = (e for j in range(mid, hi) for e in groups[j])
        kept = _insert_batch(state, batch, full_rank(lo, mid) - held)
        solve(lo, mid, held + len(kept))
        _undo_batch(state, kept)
        batch = (e for j in range(lo, mid) for e in forward_bases[j])
        kept = _insert_batch(state, batch, full_rank(mid, hi) - held)
        solve(mid, hi, held + len(kept))
        _undo_batch(state, kept)

    solve(0, count, 0)
    return tuple(remaining)


def independent_after(state: PebbleState, u: int, v: int) -> bool:
    """What try_edge would report, without mutating the caller's state."""
    return try_edge(state.copy(), u, v)


@dataclass(frozen=True)
class PebbleVerdict:
    """Outcome of a full game: the accepted edges (the maximally independent
    subgraph) and the rejected ones, in offer order, and for each group of
    edges offered in turn, how many of its edges were accepted and how many
    rejected.  The count follows from them: each accepted edge took one of
    the 2|V| pebbles."""

    num_vertices: int
    accepted: tuple[tuple[int, int], ...]
    rejected: tuple[tuple[int, int], ...]
    group_sizes: tuple[tuple[int, int], ...]  # (accepted, rejected) per group

    @property
    def remaining_pebbles(self) -> int:
        return 2 * self.num_vertices - len(self.accepted)

    @property
    def is_rigid(self) -> bool:
        return self.remaining_pebbles == 3

    @property
    def classification(self) -> str:
        if self.is_rigid:
            return "rigid-redundant" if self.rejected else "minimally-rigid"
        return "flexible-redundant" if self.rejected else "flexible-independent"


def play(num_vertices: int, *groups: Iterable[tuple[int, int]]) -> PebbleVerdict:
    """Run the game over the groups' edges, group by group, in the given
    order; the verdict records how many edges of each group it accepted
    and rejected.

    The accepted set depends on the order; its size (the rank) does not."""
    game = _Game(num_vertices)
    accepted: list[tuple[int, int]] = []
    rejected: list[tuple[int, int]] = []
    sizes: list[tuple[int, int]] = []
    for group in groups:
        a, r = len(accepted), len(rejected)
        for u, v in group:
            (accepted if game.offer(u, v) else rejected).append((u, v))
        sizes.append((len(accepted) - a, len(rejected) - r))
    return PebbleVerdict(num_vertices, tuple(accepted), tuple(rejected), tuple(sizes))
