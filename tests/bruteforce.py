"""Independent brute-force oracles used to check the fast implementations.

Everything here is deliberately naive: subset enumeration for sparsity
counts and sharp independence, cofactor expansion for determinants, dense
concurrence rows with dense Gauss-Jordan elimination for rank and kernel
and for the full-kernel sampler, and queue-based traversal for
connectivity.  None of it shares code with the package under test, except
the per-deletion reference for minimal rigidity, which decides every
deletion with its own full game, the column layout of ConcurrenceMatrix,
which dense_rows and apply read, the fields, realization type and
shared-pair refusal, which the full-kernel sampler returns as the package
does, and the geometry type and CampaignError, which the reference fuzz
generator returns and raises as the package does, drawing through
random's own randint and sample.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from rodrigidity import (
    CampaignError,
    IncidenceGeometry,
    decide_rod_rigidity,
    remove_line,
    shared_rod_pair,
)
from rodrigidity.oracle import _DRAWS, ConcurrenceMatrix, Infeasible, LinearRealization

from paper_claims import BudgetExceededError, normalized_subset


def subset_count_ok(edges: list[tuple[int, int]]) -> bool:
    """|E'| <= 2|V'| - 3 for this exact edge set."""
    support = set()
    for u, v in edges:
        support.update((u, v))
    return len(edges) <= 2 * len(support) - 3


def laman_independent(edges: list[tuple[int, int]]) -> bool:
    """Every nonempty subset satisfies the planar sparsity count."""
    n = len(edges)
    for mask in range(1, 1 << n):
        subset = [edges[i] for i in range(n) if mask >> i & 1]
        if not subset_count_ok(subset):
            return False
    return True


def laman_rank(edges: list[tuple[int, int]]) -> int:
    """Rank in the generic planar rigidity matroid, by subset enumeration."""
    n = len(edges)
    indep = bytearray(1 << n)
    indep[0] = 1
    best = 0
    for mask in range(1, 1 << n):
        subset = [edges[i] for i in range(n) if mask >> i & 1]
        ok = subset_count_ok(subset)
        if ok:
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                if not indep[mask ^ low]:
                    ok = False
                    break
        indep[mask] = 1 if ok else 0
        if ok:
            best = max(best, mask.bit_count())
    return best


def cofactor_det(matrix: list[list[Fraction]]) -> Fraction:
    n = len(matrix)
    if n == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(matrix[0][j]) * cofactor_det(minor)
    return total


def minor_rank(rows: list[list[Fraction]]) -> int:
    """Largest k with a nonzero k x k minor, by cofactor expansion."""
    if not rows:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    for k in range(min(n_rows, n_cols), 0, -1):
        for ri in combinations(range(n_rows), k):
            for ci in combinations(range(n_cols), k):
                sub = [[Fraction(rows[r][c]) for c in ci] for r in ri]
                if cofactor_det(sub) != 0:
                    return k
    return 0


def dense_rref(rows: list[list], p: int | None = None) -> tuple[list[list], list[int]]:
    """Gauss-Jordan on full dense rows, column by column; p=None means over Q.

    Returns the reduced rows (zero rows at the bottom) and the pivot columns.
    """
    if p is None:
        m = [[Fraction(v) for v in row] for row in rows]
    else:
        m = [[v % p for v in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col] if p is None else pow(m[r][col], -1, p)
        m[r] = [x * inv if p is None else x * inv % p for x in m[r]]
        for i in range(len(m)):
            a = m[i][col]
            if i != r and a:
                m[i] = [x - a * y if p is None else (x - a * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def dense_rank(rows: list[list], p: int | None = None) -> int:
    return len(dense_rref(rows, p)[1])


def dense_kernel(rows: list[list], ncols: int, p: int | None = None) -> list[list]:
    """Kernel basis read off the RREF: one vector per free column, in order."""
    m, pivots = dense_rref(rows, p)
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][free] if p is None else -m[r][free] % p
        basis.append(vec)
    return basis


def dense_rows(matrix: ConcurrenceMatrix, subset: Optional[Iterable[int]] = None) -> list[list]:
    """The concurrence rows (or those indexed by subset) as full dense lists."""
    zero, one = matrix.field.zero, matrix.field.one
    ncols = matrix.num_lines + 2 * matrix.num_points
    indices = range(len(matrix.incidences)) if subset is None else subset
    rows = []
    for r in indices:
        p, l = matrix.incidences[r]
        row = [zero] * ncols
        row[l] = one
        row[matrix.num_lines + 2 * p] = matrix.slopes[l]
        row[matrix.num_lines + 2 * p + 1] = one
        rows.append(row)
    return rows


def apply(matrix: ConcurrenceMatrix, vector: Sequence) -> list:
    """Matrix-vector product, for kernel membership checks."""
    p = matrix.field.p
    out = []
    for j, l in matrix.incidences:
        x = matrix.num_lines + 2 * j  # y is the column after
        val = vector[l] + matrix.slopes[l] * vector[x] + vector[x + 1]
        out.append(val % p if p else val)
    return out


def full_kernel_sample(geometry: IncidenceGeometry, seed: int, field):
    """The sampler that sample_realization replaced: per draw of slopes, a
    random element of the kernel of the whole concurrence matrix, one random
    unit per free column in increasing column order, the pivot columns read
    off the dense RREF.  Same refusals, same draw order for the slopes."""
    pair = shared_rod_pair(geometry)
    if pair is not None:
        return Infeasible.shared(*pair)
    p = field.p or None
    rng = random.Random(seed)
    L, P = geometry.num_lines, geometry.num_points
    incidences = geometry.incidences()
    ncols = L + 2 * P
    for _ in range(_DRAWS):
        slopes = tuple(field.random_unit(rng) for _ in range(L))
        rows = dense_rows(ConcurrenceMatrix(field, L, P, incidences, slopes))
        m, pivots = dense_rref(rows, p)
        vector = [None if c in pivots else field.random_unit(rng) for c in range(ncols)]
        for r, pc in enumerate(pivots):
            s = field.zero
            for c in range(ncols):
                if c not in pivots:
                    s += m[r][c] * vector[c]
            vector[pc] = -s if p is None else -s % p
        candidate = LinearRealization(field, slopes, tuple(vector[:L]),
                                      tuple(vector[L::2]), tuple(vector[L + 1::2]))
        assert candidate.satisfies(geometry)
        if candidate.is_proper():
            return candidate
    return Infeasible(f"all {_DRAWS} sampled realizations collapsed distinct points")


def is_sharply_independent(
    geometry: IncidenceGeometry,
    subset: Iterable[tuple[int, int]],
    budget: int = 16,
) -> bool:
    """Brute-force check over all 2^|I'| incidence subsets (budget-capped):
    every subset J on at least two points has |J| <= |M| + 2|Q| - 3 over
    its support (Q, M)."""
    incs = normalized_subset(geometry, subset)
    n = len(incs)
    if n > budget:
        raise BudgetExceededError(
            f"{n} incidences exceed the exhaustive budget of {budget}; "
            "use is_sharply_independent_fast or the rank oracle"
        )
    point_bit = [1 << p for p, _ in incs]
    line_bit = [1 << l for _, l in incs]
    pts_mask = [0] * (1 << n)
    lin_mask = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        idx = low.bit_length() - 1
        rest = mask ^ low
        pts_mask[mask] = pts_mask[rest] | point_bit[idx]
        lin_mask[mask] = lin_mask[rest] | line_bit[idx]
        q = pts_mask[mask].bit_count()
        if q >= 2 and mask.bit_count() > lin_mask[mask].bit_count() + 2 * q - 3:
            return False
    return True


def bipartite_connected(num_points: int, lines: tuple[tuple[int, ...], ...]) -> bool:
    """Connectivity of the point-line graph, via a plain FIFO queue."""
    total = num_points + len(lines)
    if total <= 1:
        return True
    reached = {0}
    queue = [0]
    while queue:
        node = queue.pop(0)
        if node < num_points:
            nxt = [num_points + i for i, ln in enumerate(lines) if node in ln]
        else:
            nxt = list(lines[node - num_points])
        for other in nxt:
            if other not in reached:
                reached.add(other)
                queue.append(other)
    return len(reached) == total


def reference_draw(
    rng: random.Random, max_points: int, max_lines: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """One draw of reference_random_geometry: the number of points and the
    sorted lines, through random's own randint and sample."""
    n_pts = rng.randint(2, max_points)
    n_lines = rng.randint(1, max_lines)
    lines = []
    for _ in range(n_lines):
        k = rng.randint(2, min(n_pts, 4))
        lines.append(tuple(sorted(rng.sample(range(n_pts), k))))
    return n_pts, tuple(lines)


def reference_random_geometry(
    rng: random.Random, max_points: int = 10, max_lines: int = 6
) -> IncidenceGeometry:
    """The tests' corpus generator: a random connected geometry whose lines
    each pass through 2..4 distinct points, two of them possibly through the
    same two points.  It draws what `rodrig fuzz` drew before its generator
    kept only partial linear spaces: up to 1000 draws, until the queue
    oracle finds one connected."""
    for _ in range(1000):
        n_pts, lines = reference_draw(rng, max_points, max_lines)
        if bipartite_connected(n_pts, lines):
            return IncidenceGeometry(n_pts, lines)
    raise CampaignError(f"could not generate a connected geometry in 1000 draws"
                        f" (max_points={max_points}, max_lines={max_lines})")


def shares_two_points(geometry: IncidenceGeometry) -> bool:
    """Do two rods pass through the same two points?  Every pair of rods is
    intersected as sets."""
    sets = [set(line) for line in geometry.lines]
    return any(len(a & b) >= 2 for i, a in enumerate(sets) for b in sets[i + 1 :])


def henneberg_graph(rng: random.Random, num_vertices: int) -> list[tuple[int, int]]:
    """Minimally rigid graph: a triangle grown by degree-2 vertex additions."""
    if num_vertices < 3:
        raise ValueError("need at least 3 vertices")
    edges = [(0, 1), (1, 2), (0, 2)]
    for v in range(3, num_vertices):
        a, b = rng.sample(range(v), 2)
        edges.append((a, v))
        edges.append((b, v))
    return edges


def deletion_rigid_by_redecide(geometry: IncidenceGeometry) -> tuple[bool, ...]:
    """Is the geometry still rigid after deleting each rod?  One full pebble
    game per deletion; () for a flexible geometry."""
    if not decide_rod_rigidity(geometry).is_rigid:
        return ()
    return tuple(
        decide_rod_rigidity(remove_line(geometry, l)).is_rigid
        for l in range(geometry.num_lines)
    )
