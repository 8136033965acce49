"""The (2,3)-pebble game for planar generic rigidity.

Every vertex starts with two pebbles.  An edge is accepted when four pebbles
can be gathered on its endpoints; accepting consumes one pebble and orients
the edge away from the vertex that paid.  Pebbles are retrieved by depth-first
search along directed edges, reversing the path that leads to a free pebble;
while searching from one endpoint, the other endpoint is blocked.  Accepted
edges always form a maximally independent subgraph of the edges seen so far,
so a rejected edge never needs to be retried.  The trivial motions always
keep their pebbles (PebbleVerdict.degrees_of_freedom): none beyond them
means the graph is rigid, and any rejection means it is dependent.

The state holds pebbles, orientations and each vertex's count of held
edges: the accepted edges are the out-edges, and nothing else records them.
A search allocates nothing: each state keeps one visit mark and one tree
parent per vertex, and a vertex counts as visited when its mark equals the
search's stamp.  try_edge searches for every edge: it is the reference.

There is one game, PebbleState.  play and canonical_subgraph offer their
edges to it and keep its answers in offer order; remaining_without_each
inserts batches of edges into it and undoes them.  offer places most edges
without a search.

Henneberg shortcut.  An edge one of whose ends w holds at most one edge,
and not one to the other end x, is accepted at once, directed w -> x and
paid by w.  w's out-degree is at most 1, so w has a pebble, and giving w
back to the held edges without it, which are independent, with at most two
edges to distinct vertices is a Henneberg type I step, which keeps them
independent.  Any orientation of an independent set in which pebbles and
out-degree add up to two at every vertex is a valid game state (Lee &
Streinu 2008), so later answers stay those of a game that searches.  A cone
offered in order is such steps from its first spoke on.

The block is one vertex set on which the held edges are rigid.  The first
rejection starts it from the reach set of its last dry search, which spans
2|R| - 3 held edges and so is rigid (see PebbleState._merge_reach).  It
grows by Henneberg type I steps over the held edges (a vertex with two held
edges into the block joins it) as edges are accepted, and by the reach set
of a later rejection when that set meets the block in two vertices.  An edge
with both ends in the block lies in the span of the held edges, so it is
rejected without a search.  The accepted edges are the greedy basis of the
offer order, which is unique, so the answers are those of a game that
searches for every edge; only the orientations may differ.

Batches are nested, so a block change made while a batch is open rests
only on edges held during it: a vertex that joined, a link counted, a held
neighbour kept, the block started.  Each is undone with the batch's edges.
Nothing is logged while no batch is open.

remaining_without_each extends play's game to every leave-one-out count
over the groups that play offered, by a divide and conquer whose batches
are play's accepted edges of the groups before a range and the raw edges of
the groups after it, and which stops at a rank floor (see there).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from ._record import Record, set_field

__all__ = [
    "PebbleState",
    "PebbleVerdict",
    "play",
    "remaining_without_each",
]

class PebbleState:
    """The game: pebble counts plus the orientation of accepted edges, the
    only record of which edges the state holds, and the rigid block.

    Invariant: pebbles[v] + outdegree(v) == 2 for every vertex, hence the
    total pebble count is 2|V| minus the number of held edges, and no
    out-list holds more than two vertices.  degree[v] counts the held edges
    at v, in either direction.  _seen, _parent and _stamp are the searches'
    reusable visit marks (see _gather).

    offer keeps the block; try_edge ignores it.  Until the first rejection
    starts the block, nothing is kept beside the pebbles; after that, a held
    edge with an end in the block counts at once toward the other end's
    links, and one with both ends outside is kept in _nbrs until one of its
    ends joins.  insert opens a batch and undo takes back the last open one.
    A copy starts with no block and no open batch.
    """

    __slots__ = ("num_vertices", "pebbles", "out", "degree", "_seen", "_parent", "_stamp",
                 "_in_block", "_links", "_nbrs", "_log", "_batches")

    def __init__(self, num_vertices: int):
        if num_vertices < 0:
            raise ValueError(f"negative vertex count {num_vertices}")
        self.num_vertices = num_vertices
        self.pebbles = [2] * num_vertices
        self.out: list[list[int]] = [[] for _ in range(num_vertices)]
        self.degree = [0] * num_vertices
        self._fresh()

    def _fresh(self) -> None:
        """Fresh search marks, no block and no open batch."""
        n = self.num_vertices
        self._seen = [0] * n  # stamp of the last search to reach each vertex
        self._parent = [0] * n  # DFS tree parent, valid where _seen is current
        self._stamp = 0
        self._in_block = [False] * n
        self._links: list[int] | None = None  # held edges into the block, outside it
        self._nbrs: list[list[int]] = []  # held neighbours, for the block's Henneberg steps
        self._log: list[int] = []  # the vertices that joined the block during open batches
        self._batches: list[tuple] = []  # the open batches, innermost last

    def copy(self) -> "PebbleState":
        dup = PebbleState.__new__(PebbleState)
        dup.num_vertices = self.num_vertices
        dup.pebbles = self.pebbles[:]
        dup.out = [adj[:] for adj in self.out]
        dup.degree = self.degree[:]
        dup._fresh()
        return dup

    def remaining_pebbles(self) -> int:
        return sum(self.pebbles)

    def offer(self, u: int, v: int) -> bool:
        """Offer edge (u, v); the answer is try_edge's on a state that held
        the same edges."""
        # the Henneberg test and try_edge's orientation inline: once searches
        # are rare, a call per edge is most of the game's cost
        in_block = self._in_block
        if in_block[u] and in_block[v]:
            return False
        out, degree = self.out, self.degree
        if degree[u] < 2 and v not in out[u] and u not in out[v]:
            payer, other = u, v
        elif degree[v] < 2 and u not in out[v] and v not in out[u]:
            payer, other = v, u
        elif _gather(self, u, v):
            payer, other = (u, v) if u < v else (v, u)
        else:
            self._merge_reach(u, v)
            return False
        self.pebbles[payer] -= 1
        out[payer].append(other)
        degree[u] += 1
        degree[v] += 1
        links = self._links
        if links is None:
            return True  # no block yet
        if in_block[u] or in_block[v]:
            outside = v if in_block[u] else u
            links[outside] += 1
            if links[outside] == 2:
                self._join([outside])
        else:
            self._nbrs[u].append(v)
            self._nbrs[v].append(u)
        return True

    def _join(self, joined: list[int]) -> None:
        """Add the vertices joined to the block, and then each vertex with
        two held edges into it (Henneberg steps).  A vertex joins when it is
        popped, and its neighbours outside the block are counted then; the
        log records it while a batch is open.  The steps reach the same
        vertices in any order."""
        in_block, links, nbrs = self._in_block, self._links, self._nbrs
        log = self._log if self._batches else None
        while joined:
            x = joined.pop()
            if in_block[x]:
                continue  # pushed again before it was popped
            in_block[x] = True
            if log is not None:
                log.append(x)
            for y in nbrs[x]:
                if not in_block[y]:
                    links[y] += 1
                    if links[y] == 2:
                        joined.append(y)

    def _merge_reach(self, u: int, v: int) -> None:
        """After a failed gather for (u, v): the last dry search marked its
        root, the blocked endpoint and everything reachable from the root
        with the current stamp.  The blocked endpoint holds two pebbles, the
        root one and every other vertex none, and only the blocked endpoint
        can have out-edges leaving the set, so its vertices R span 2|R| - 3
        held edges and are rigid.  The walk re-marks them with -stamp, which
        no search takes.  At the first rejection they start the block, with
        _nbrs holding every held edge; later they join a block that they
        meet in two vertices."""
        out, seen, stamp = self.out, self._seen, self._stamp
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
        if self._links is None:
            nbrs: list[list[int]] = [[] for _ in out]
            for x, heads in enumerate(out):
                for y in heads:
                    nbrs[x].append(y)
                    nbrs[y].append(x)
            self._nbrs, self._links = nbrs, [0] * len(out)
            self._join(reach)
        elif sum(in_block[x] for x in reach) >= 2:
            self._join([x for x in reach if not in_block[x]])

    def insert(self, edges: Iterable[tuple[int, int]], room: int) -> int:
        """Open a batch: offer the edges in turn until room of them are
        accepted, and return how many were.  With no room edges is not
        iterated.  Each accepted edge is kept with its end that it links to
        the block, or -1; offer moves the block only after it accepts."""
        kept: list[tuple[int, int]] = []
        linked: list[int] = []
        self._batches.append((kept, linked, len(self._log), self._links is None))
        if room <= 0:
            return 0
        offer, in_block = self.offer, self._in_block
        for edge in edges:
            u, v = edge
            outside = u if in_block[v] else v if in_block[u] else -1
            if offer(u, v):
                kept.append(edge)
                linked.append(outside)
                if len(kept) == room:
                    break
        return len(kept)

    def undo(self) -> None:
        """Take back the last open batch, last change first.  A joined
        vertex gives back the links it counted, to the neighbours outside
        the block then and again now, and leaves it.  Each kept edge gives
        back its link or leaves _nbrs, and leaves the state from whichever
        end it is oriented out of now, which gets its pebble back: a search
        may have reversed it, but held edges are never parallel.  A block
        started in the batch is dropped.  Any orientation of the edges held
        before is a valid state for every later offer."""
        kept, linked, mark, blockless = self._batches.pop()
        log, in_block = self._log, self._in_block
        if not blockless:
            links, nbrs = self._links, self._nbrs
            for x in reversed(log[mark:]):
                for y in nbrs[x]:
                    if not in_block[y]:
                        links[y] -= 1
                in_block[x] = False
            for (u, v), x in zip(reversed(kept), reversed(linked)):
                if x < 0:
                    nbrs[u].pop()
                    nbrs[v].pop()
                else:
                    links[x] -= 1
        elif self._links is not None:
            for x in log[mark:]:
                in_block[x] = False
            self._links, self._nbrs = None, []
        del log[mark:]
        out, pebbles, degree = self.out, self.pebbles, self.degree
        for u, v in kept:
            if v in out[u]:
                out[u].remove(v)
                pebbles[u] += 1
            else:
                out[v].remove(u)
                pebbles[v] += 1
            degree[u] -= 1
            degree[v] -= 1


def _check_edges(num_vertices: int, edges: Iterable[tuple[int, int]]) -> None:
    for u, v in edges:
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


def try_edge(state: PebbleState, u: int, v: int) -> bool:
    """Offer edge (u, v); accept iff four pebbles can be gathered at u and v.

    Accepting consumes one pebble from the lower-index endpoint and directs
    the edge away from it.  A rejected edge leaves the pebble distribution
    valid (searches may have reoriented edges and moved pebbles)."""
    _check_edges(state.num_vertices, ((u, v),))
    if not _gather(state, u, v):
        return False
    payer, other = (u, v) if u < v else (v, u)
    state.pebbles[payer] -= 1
    state.out[payer].append(other)
    state.degree[u] += 1
    state.degree[v] += 1
    return True


def _fans(
    groups: Sequence[Sequence[tuple[int, int]]], touches: Sequence[Sequence[int]]
) -> list[bool]:
    """For each group, whether every vertex it touches (touches[j] lists
    group j's vertices once each) besides the ends of its first edge has an
    edge to each end: such a fan grows from its first edge by Henneberg
    type I steps, so it is rigid on its vertices.  A cone is a fan from its
    first spoke.  u + v - w is the other end of an edge (u, v) at w."""
    fans = []
    for group, touched in zip(groups, touches):
        if not group:
            fans.append(False)
            continue
        u0, v0 = group[0]
        at_u0 = {u + v - u0 for u, v in group if u == u0 or v == u0}
        at_v0 = {u + v - v0 for u, v in group if u == v0 or v == v0}
        fans.append(len(at_u0 & at_v0) + 2 == len(touched))
    return fans


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
    range is a fan (_fans), rigid on its vertices, and has two vertices in
    the support, the edges outside any one of its groups are rigid on the
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
    _check_edges(num_vertices, chain(accepted, rejected))
    if not groups:
        return ()
    count = len(groups)
    state = PebbleState(num_vertices)
    remaining = [0] * count
    touches = [tuple(set(chain.from_iterable(group))) for group in groups]
    first, last = [count] * num_vertices, [-1] * num_vertices  # groups touching each vertex
    for j, vertices in enumerate(touches):
        for v in vertices:
            first[v] = j if last[v] < 0 else first[v]
            last[v] = j
    touched = num_vertices - last.count(-1)
    fan = _fans(groups, touches)

    def full_rank(a: int, b: int) -> int:
        """The rank of all edges on the vertices that groups outside [a, b) touch."""
        inner = sum(first[v] == j and last[v] < b for j in range(a, b) for v in touches[j])
        return max(0, 2 * (touched - inner) - 3)

    def settled(a: int, b: int, held: int) -> bool:
        """Whether the leaves of [a, b) follow from their rank floors."""
        return held == full_rank(a, b) and all(
            fan[j] and sum(first[v] < a or last[v] >= b for v in touches[j]) >= 2
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
        solve(lo, mid, held + state.insert(batch, full_rank(lo, mid) - held))
        state.undo()
        batch = (e for j in range(lo, mid) for e in forward_bases[j])
        solve(mid, hi, held + state.insert(batch, full_rank(mid, hi) - held))
        if hi < count:  # nothing follows the batches on the right spine
            state.undo()

    solve(0, count, 0)
    return tuple(remaining)


def independent_after(state: PebbleState, u: int, v: int) -> bool:
    """What try_edge would report, without mutating the caller's state."""
    return try_edge(state.copy(), u, v)


class PebbleVerdict(Record):
    """Outcome of a full game: the accepted edges (the maximally independent
    subgraph) and the rejected ones, in offer order, and for each group of
    edges offered in turn, how many of its edges were accepted and how many
    rejected.  The counts follow from them: each accepted edge took one of
    the 2|V| pebbles."""

    __slots__ = ("num_vertices", "accepted", "rejected", "group_sizes")

    def __init__(self, num_vertices: int, accepted: tuple[tuple[int, int], ...],
                 rejected: tuple[tuple[int, int], ...],
                 # (accepted, rejected) per group
                 group_sizes: tuple[tuple[int, int], ...]):
        set_field(self, "num_vertices", num_vertices)
        set_field(self, "accepted", accepted)
        set_field(self, "rejected", rejected)
        set_field(self, "group_sizes", group_sizes)

    @property
    def remaining_pebbles(self) -> int:
        return 2 * self.num_vertices - len(self.accepted)

    @property
    def degrees_of_freedom(self) -> int:
        """The pebbles beyond the trivial motions: three on two or more
        vertices, and all 2|V| on fewer, which have nothing to move against."""
        return self.remaining_pebbles - min(3, 2 * self.num_vertices)

    @property
    def is_rigid(self) -> bool:
        return self.degrees_of_freedom == 0

    @property
    def classification(self) -> str:
        if self.is_rigid:
            return "rigid-redundant" if self.rejected else "minimally-rigid"
        return "flexible-redundant" if self.rejected else "flexible-independent"


def play(num_vertices: int, *groups: Iterable[tuple[int, int]]) -> PebbleVerdict:
    """Run the game over the groups' edges, group by group, in the given
    order; the verdict records how many edges of each group it accepted
    and rejected.

    The accepted set depends on the order; its size (the rank) does not.
    Henneberg steps are accepted without a search (see PebbleState.offer)."""
    offer = PebbleState(num_vertices).offer
    accepted: list[tuple[int, int]] = []
    rejected: list[tuple[int, int]] = []
    sizes: list[tuple[int, int]] = []
    for group in groups:
        a, r = len(accepted), len(rejected)
        for u, v in group:
            # _check_edges inline: a call per edge costs more than the checks
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            (accepted if offer(u, v) else rejected).append((u, v))
        sizes.append((len(accepted) - a, len(rejected) - r))
    return PebbleVerdict(num_vertices, tuple(accepted), tuple(rejected), tuple(sizes))
