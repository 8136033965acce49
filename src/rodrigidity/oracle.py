"""Exact-arithmetic ground truth for rod-configuration rigidity.

A linear realization assigns to each line i a slope f_i and intercept h_i
(the line is f_i*x + y + h_i = 0, so vertical lines are unrepresentable) and
to each point j coordinates (x_j, y_j), with f_i*x_j + y_j + h_i = 0 for
every incidence.  All arithmetic is exact: either arbitrary-precision
rationals or a prime field Z_p with p around 2^61; floats appear nowhere.
The certificate runs one way.  The matrix entries are integer polynomials in
the slopes, so the rank at sampled slopes never exceeds the generic rank:
full rank over Z_p proves rigidity.  A rank deficit may be an unlucky draw of
slopes (by Schwartz-Zippel a nonzero minor of degree d vanishes with
probability at most d/p), which is why cross-validation tries several seeds.

Rank, kernel and sampling share one sparse exact elimination.  Every
concurrence row has three nonzeros, so rows are kept as {column: value}
dicts and reduced one at a time against the pivot rows found so far, with
an inline `% p` over Z_p and plain Fractions over Q.

The concurrence matrix of a realization has one row per incidence over the
unknowns (h_1..h_L, x_1, y_1, .., x_P, y_P); its kernel is the space of
parallel redrawings with the same slopes.  Note that the matrix entries only
involve the slopes: for a proper realization the kernel always contains the
two translations and the dilation, so the rank is at most |L| + 2|P| - 3,
with equality exactly when every redrawing is trivial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .cone import ConeIncidenceGeometry, build_cone_incidence
from .geometry import GeometryError, IncidenceGeometry, shared_rod_pair

__all__ = [
    "OracleError",
    "VerticalLineError",
    "BudgetExceededError",
    "PrimeField",
    "RationalField",
    "MERSENNE_PRIME",
    "ALTERNATE_PRIME",
    "DEFAULT_FIELD",
    "RATIONALS",
    "Infeasible",
    "LinearRealization",
    "ConcurrenceMatrix",
    "build_concurrence_matrix",
    "rank_of",
    "matrix_rank",
    "matrix_kernel",
    "kernel_witnesses",
    "sample_realization",
    "trivial_realization",
    "realization_from_coords",
    "realize_cone",
    "string_config_rank",
    "is_string_config_rigid",
    "is_sharply_independent",
    "is_sharply_independent_fast",
    "is_regular",
    "realization_to_json",
    "realization_from_json",
    "concurrence_to_csv",
]


class OracleError(ValueError):
    pass


class VerticalLineError(OracleError):
    """A line of the realization is vertical and has no (slope, intercept) form."""


class BudgetExceededError(OracleError):
    """An exhaustive check was asked to cover more subsets than its budget allows."""


MERSENNE_PRIME = 2**61 - 1
ALTERNATE_PRIME = 2305843009213693967  # next prime above 2^61


@dataclass(frozen=True)
class PrimeField:
    p: int

    name = "zp"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        return (a * pow(b, -1, self.p)) % self.p

    def neg(self, a):
        return (-a) % self.p

    def random_unit(self, rng: random.Random):
        return rng.randrange(1, self.p)


@dataclass(frozen=True)
class RationalField:
    name = "rational"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def neg(self, a):
        return -a

    def random_unit(self, rng: random.Random):
        # modest magnitudes keep the fractions and drawings reasonable
        return Fraction(rng.randrange(1, 257), rng.randrange(1, 257))


Field = Union[PrimeField, RationalField]

DEFAULT_FIELD = PrimeField(MERSENNE_PRIME)
RATIONALS = RationalField()


@dataclass(frozen=True)
class Infeasible:
    """Sampling gave up: the incidences force a degenerate realization.

    attempts is 0 when the geometry was refused before any draw, because two
    of its rods pass through the same two points (the reason names them).
    """

    attempts: int
    reason: str


@dataclass(frozen=True)
class LinearRealization:
    field: Field
    slopes: tuple
    intercepts: tuple
    xs: tuple
    ys: tuple

    @property
    def num_lines(self) -> int:
        return len(self.slopes)

    @property
    def num_points(self) -> int:
        return len(self.xs)

    def coords(self, j: int):
        return (self.xs[j], self.ys[j])

    def residual(self, point: int, line: int):
        f = self.field
        return f.add(f.add(f.mul(self.slopes[line], self.xs[point]), self.ys[point]),
                     self.intercepts[line])

    def satisfies(self, geometry: IncidenceGeometry) -> bool:
        if geometry.num_points != self.num_points or geometry.num_lines != self.num_lines:
            return False
        zero = self.field.zero()
        return all(self.residual(p, l) == zero for p, l in geometry.incidences())

    def is_proper(self) -> bool:
        """Distinct points carry distinct coordinates."""
        return len({(x, y) for x, y in zip(self.xs, self.ys)}) == self.num_points

    def is_trivial(self) -> bool:
        return self.num_points > 0 and len({(x, y) for x, y in zip(self.xs, self.ys)}) == 1


# --- exact linear algebra ----------------------------------------------------
#
# One sparse elimination serves rank, kernel and sampling.  Rows are
# {column: value} dicts holding only nonzeros.  Each row is reduced at its
# leading (smallest) column by that column's pivot row until the leading
# column has no pivot; the row is then scaled to a leading 1 and becomes that
# column's pivot row.  Over Z_p every entry is reduced with an inline `% p`;
# over Q the same loop runs on Fractions.


def _eliminate(rows: Iterable[dict], field: Field) -> dict[int, dict]:
    """Pivot rows of a row echelon form, keyed by their leading column.

    The leading columns are those of the reduced row echelon form whatever
    the row order, so the free columns depend only on the row space.
    """
    p = field.p if isinstance(field, PrimeField) else 0
    one = field.one()
    pivots: dict[int, dict] = {}
    for row in rows:
        if p:
            row = {c: v % p for c, v in row.items() if v % p}
        else:
            row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inv = field.div(one, row[lead])
                if p:
                    pivots[lead] = {c: v * inv % p for c, v in row.items()}
                else:
                    pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            a = row[lead]
            for c, v in prow.items():
                x = row.get(c, 0) - a * v
                if p:
                    x %= p
                if x:
                    row[c] = x
                else:
                    del row[c]
    return pivots


def _back_substitute(pivots: dict[int, dict], vector: list, field: Field) -> list:
    """Fill the pivot columns of `vector` (free columns already set) so that
    it solves every pivot row; returns the vector."""
    p = field.p if isinstance(field, PrimeField) else 0
    for lead in sorted(pivots, reverse=True):
        s = field.zero()
        for c, v in pivots[lead].items():
            if c != lead:
                s += v * vector[c]
        vector[lead] = -s % p if p else -s
    return vector


def matrix_rank(rows: Sequence[Sequence], field: Field) -> int:
    return len(_eliminate((dict(enumerate(r)) for r in rows), field))


def matrix_kernel(rows: Sequence[Sequence], field: Field, ncols: int) -> list[list]:
    """Basis of the right kernel (one vector per free column)."""
    pivots = _eliminate((dict(enumerate(r)) for r in rows), field)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [field.zero()] * ncols
        vec[free] = field.one()
        basis.append(_back_substitute(pivots, vec, field))
    return basis


# --- the concurrence matrix --------------------------------------------------


@dataclass(frozen=True)
class ConcurrenceMatrix:
    """Rows indexed by incidences; columns are (h-block, then x,y per point).

    Row (p, l) has f_l in column x_p, 1 in column y_p, 1 in column h_l.
    """

    field: Field
    num_lines: int
    num_points: int
    incidences: tuple[tuple[int, int], ...]
    slopes: tuple

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.incidences), self.num_lines + 2 * self.num_points)

    def column_of_x(self, j: int) -> int:
        return self.num_lines + 2 * j

    def column_of_y(self, j: int) -> int:
        return self.num_lines + 2 * j + 1

    def dense_rows(self, subset: Optional[Iterable[int]] = None) -> list[list]:
        zero, one = self.field.zero(), self.field.one()
        ncols = self.num_lines + 2 * self.num_points
        indices = range(len(self.incidences)) if subset is None else subset
        rows = []
        for r in indices:
            p, l = self.incidences[r]
            row = [zero] * ncols
            row[l] = one
            row[self.column_of_x(p)] = self.slopes[l]
            row[self.column_of_y(p)] = one
            rows.append(row)
        return rows

    def sparse_rows(self) -> Iterator[dict]:
        """The rows as {column: value} dicts, three entries each."""
        one = self.field.one()
        for p, l in self.incidences:
            yield {l: one, self.column_of_x(p): self.slopes[l], self.column_of_y(p): one}

    def apply(self, vector: Sequence) -> list:
        """Matrix-vector product, for kernel membership checks."""
        f = self.field
        out = []
        for p, l in self.incidences:
            val = f.add(f.add(vector[l], f.mul(self.slopes[l], vector[self.column_of_x(p)])),
                        vector[self.column_of_y(p)])
            out.append(val)
        return out


def build_concurrence_matrix(geometry: IncidenceGeometry,
                             realization: LinearRealization) -> ConcurrenceMatrix:
    if realization.num_lines != geometry.num_lines or realization.num_points != geometry.num_points:
        raise OracleError("realization shape does not match the geometry")
    return ConcurrenceMatrix(
        field=realization.field,
        num_lines=geometry.num_lines,
        num_points=geometry.num_points,
        incidences=geometry.incidences(),
        slopes=realization.slopes,
    )


def rank_of(matrix: ConcurrenceMatrix) -> int:
    """Exact rank of the concurrence matrix in its field.

    The rank never exceeds the generic rank for these incidences, so full
    rank proves rigidity; a deficit may be an unlucky draw of slopes (at most
    degree/p likely over Z_p, by Schwartz-Zippel), which is why
    cross-validation tries several seeds.  Columns are eliminated from the
    last one down, so the coordinates of each point (cone points first) are
    pivoted out before the intercepts, which keeps the fill-in low.
    """
    last = matrix.shape[1] - 1
    rows = ({last - c: v for c, v in row.items()} for row in matrix.sparse_rows())
    return len(_eliminate(rows, matrix.field))


def kernel_witnesses(geometry: IncidenceGeometry,
                     realization: LinearRealization) -> list[list]:
    """The two translations and the dilation, as explicit kernel vectors."""
    f = realization.field
    L, P = geometry.num_lines, geometry.num_points
    tx = [f.neg(realization.slopes[l]) for l in range(L)]
    ty = [f.neg(f.one()) for _ in range(L)]
    for _ in range(P):
        tx.extend([f.one(), f.zero()])
        ty.extend([f.zero(), f.one()])
    dilation = list(realization.intercepts)
    for j in range(P):
        dilation.extend([realization.xs[j], realization.ys[j]])
    return [tx, ty, dilation]


# --- realization construction ------------------------------------------------


def sample_realization(
    geometry: IncidenceGeometry,
    seed: int,
    field: Optional[Field] = None,
    budget: int = 32,
) -> Union[LinearRealization, Infeasible]:
    """Random exact realization: draw slopes, then solve for the rest.

    Slopes are drawn uniformly from the field's units; the intercepts and
    point coordinates come from a random element of the kernel of the
    concurrence matrix for those slopes, which solves every incidence
    constraint at once (a point on two lines lands on their intersection, a
    point on one line gets a free abscissa, an isolated point is free).  If
    the draws keep producing non-proper realizations the incidences force a
    coincidence for generic slopes and Infeasible is returned.  Two rods
    through the same two points force one for every pair of distinct
    slopes, so such a geometry is refused before any draw.
    """
    pair = shared_rod_pair(geometry)
    if pair is not None:
        return Infeasible(attempts=0, reason="rods {} and {} share points {} and {}".format(*pair))
    field = field or DEFAULT_FIELD
    rng = random.Random(seed)
    incidences = geometry.incidences()
    ncols = geometry.num_lines + 2 * geometry.num_points
    L = geometry.num_lines
    for _ in range(budget):
        slopes = tuple(field.random_unit(rng) for _ in range(L))
        matrix = ConcurrenceMatrix(field, L, geometry.num_points, incidences, slopes)
        pivots = _eliminate(matrix.sparse_rows(), field)
        # one random unit per free column, in increasing column order
        vector = [None if c in pivots else field.random_unit(rng) for c in range(ncols)]
        _back_substitute(pivots, vector, field)
        candidate = LinearRealization(
            field=field,
            slopes=slopes,
            intercepts=tuple(vector[:L]),
            xs=tuple(vector[L + 2 * j] for j in range(geometry.num_points)),
            ys=tuple(vector[L + 2 * j + 1] for j in range(geometry.num_points)),
        )
        if not candidate.satisfies(geometry):  # kernel guarantees this; keep as a hard check
            raise AssertionError("kernel element violates an incidence")
        if candidate.is_proper():
            return candidate
    return Infeasible(attempts=budget,
                      reason=f"all {budget} sampled realizations collapsed distinct points")


def trivial_realization(geometry: IncidenceGeometry, field: Optional[Field] = None) -> LinearRealization:
    """All points at (1, 1) on lines of a single shared slope."""
    field = field or RATIONALS
    one = field.one()
    h = field.neg(field.add(one, one))  # f*x + y + h = 0 at (1,1) with f = 1
    return LinearRealization(
        field=field,
        slopes=tuple(one for _ in range(geometry.num_lines)),
        intercepts=tuple(h for _ in range(geometry.num_lines)),
        xs=tuple(one for _ in range(geometry.num_points)),
        ys=tuple(one for _ in range(geometry.num_points)),
    )


def _rotate_coords(coords, rng: random.Random):
    t = Fraction(rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 16))
    den = 1 + t * t
    cos, sin = (1 - t * t) / den, 2 * t / den
    return [(cos * x - sin * y, sin * x + cos * y) for x, y in coords]


def realization_from_coords(
    geometry: IncidenceGeometry,
    coords: Sequence[tuple],
    rotate_if_vertical: bool = False,
    seed: int = 0,
    budget: int = 32,
) -> LinearRealization:
    """Exact slope/intercept extraction from user-supplied rational coordinates.

    Raises VerticalLineError for a vertical line unless rotate_if_vertical is
    set, in which case a random rational rotation is applied to all points
    first (exactly; rotations by rational unit vectors keep coordinates
    rational).  Non-collinear coordinates for some line are a hard error, and
    so is anything that is not a sequence of (x, y) rationals.
    """
    try:
        pts = [(Fraction(x), Fraction(y)) for x, y in coords]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise OracleError(f"bad coordinates: {exc}") from None
    if len(pts) != geometry.num_points:
        raise OracleError("coordinate count does not match the geometry")
    rng = random.Random(seed)
    attempts = budget if rotate_if_vertical else 1
    for attempt in range(attempts):
        current = pts if attempt == 0 else _rotate_coords(pts, rng)
        slopes, intercepts = [], []
        vertical = False
        for i, line in enumerate(geometry.lines):
            (x0, y0), (x1, y1) = current[line[0]], current[line[1]]
            if x0 == x1:
                vertical = True
                break
            f = -(y1 - y0) / (x1 - x0)
            h = -f * x0 - y0
            for p in line:
                if f * current[p][0] + current[p][1] + h != 0:
                    raise OracleError(
                        f"point {p} does not lie on line {i}: coordinates do not realize the geometry"
                    )
            slopes.append(f)
            intercepts.append(h)
        if vertical:
            continue
        return LinearRealization(RATIONALS, tuple(slopes), tuple(intercepts),
                                 tuple(x for x, _ in current), tuple(y for _, y in current))
    raise VerticalLineError(
        "a line is vertical; pass rotate_if_vertical=True to rotate the input first"
    )


def realize_cone(
    geometry: IncidenceGeometry,
    realization: LinearRealization,
    seed: int,
    budget: int = 32,
) -> LinearRealization:
    """Extend a proper realization of S to the cone incidence geometry.

    Original points keep their coordinates.  Each cone point is placed at
    random exact coordinates off its line, away from all other points, and
    with an abscissa different from every point of the line so no spoke is
    vertical.  Spoke lines inherit the induced slope and intercept.
    """
    if not realization.satisfies(geometry):
        raise OracleError("realization does not satisfy the geometry")
    if not realization.is_proper():
        raise OracleError("cone extension requires a proper realization")
    field = realization.field
    rng = random.Random(seed)
    cone = build_cone_incidence(geometry)
    taken = {(x, y) for x, y in zip(realization.xs, realization.ys)}
    xs, ys = list(realization.xs), list(realization.ys)
    for i, line in enumerate(geometry.lines):
        f_i, h_i = realization.slopes[i], realization.intercepts[i]
        for attempt in range(budget + 1):
            if attempt == budget:
                raise OracleError(f"could not place the cone point of line {i} off the line")
            cx, cy = field.random_unit(rng), field.random_unit(rng)
            if (cx, cy) in taken:
                continue
            if field.add(field.add(field.mul(f_i, cx), cy), h_i) == field.zero():
                continue  # on the line itself
            if any(cx == xs[p] for p in line):
                continue  # would make a spoke vertical
            break
        taken.add((cx, cy))
        xs.append(cx)
        ys.append(cy)
    slopes, intercepts = list(realization.slopes), list(realization.intercepts)
    for line_idx, p in cone.spoke_of:
        c = cone.cone_point(line_idx)
        fx = field.div(field.neg(field.sub(ys[c], ys[p])), field.sub(xs[c], xs[p]))
        hx = field.sub(field.neg(field.mul(fx, xs[p])), ys[p])
        slopes.append(fx)
        intercepts.append(hx)
    extended = LinearRealization(field, tuple(slopes), tuple(intercepts), tuple(xs), tuple(ys))
    if not extended.satisfies(cone.geometry):
        raise AssertionError("cone extension violates an incidence")
    return extended


def string_config_rank(cone: ConeIncidenceGeometry,
                       realization: LinearRealization) -> tuple[int, int]:
    """(rank, maximum rank) of the concurrence matrix of the extended
    realization; the maximum is reached when only the trivial parallel
    redrawings remain."""
    if not realization.satisfies(cone.geometry):
        raise OracleError("realization does not satisfy the cone incidence geometry")
    if not realization.is_proper():
        raise OracleError("non-proper realization refused")
    g = cone.geometry
    matrix = build_concurrence_matrix(g, realization)
    return rank_of(matrix), g.num_lines + 2 * g.num_points - 3


def is_string_config_rigid(cone: ConeIncidenceGeometry, realization: LinearRealization) -> bool:
    """Rigid iff the concurrence matrix of the extended realization has the
    maximum possible rank, i.e. only trivial parallel redrawings remain."""
    rank, max_rank = string_config_rank(cone, realization)
    return rank == max_rank


# --- sharp independence and regularity ---------------------------------------
#
# A set of incidences I' is sharply independent when every subset J supported
# on at least two points satisfies |J| <= |M| + 2|Q| - 3 over its support
# (Q, M).  Subsets supported on a single point are exempt: their rows carry
# distinct intercept columns and are independent in every realization, while
# the -3 bound presumes two distinct support points.


def _normalized_subset(geometry: IncidenceGeometry,
                       subset: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    all_inc = set(geometry.incidences())
    incs = sorted(set((int(p), int(l)) for p, l in subset))
    for inc in incs:
        if inc not in all_inc:
            raise GeometryError(f"incidence {inc} is not part of the geometry")
    return incs


def is_sharply_independent(
    geometry: IncidenceGeometry,
    subset: Iterable[tuple[int, int]],
    budget: int = 16,
) -> bool:
    """Brute-force check over all 2^|I'| incidence subsets (budget-capped)."""
    incs = _normalized_subset(geometry, subset)
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


def is_sharply_independent_fast(
    geometry: IncidenceGeometry,
    subset: Iterable[tuple[int, int]],
    line_budget: int = 24,
) -> bool:
    """Equivalent check that enumerates support line-sets instead of subsets.

    For a fixed set of lines M the worst offending subset takes every
    incidence of every chosen point, so it suffices to scan all 2^|M'| line
    sets and pick points greedily: a point pays 2 and contributes its degree.
    This decides the same predicate as the brute-force scan in O(2^L * I).
    """
    incs = _normalized_subset(geometry, subset)
    by_line: dict[int, list[int]] = {}
    for p, l in incs:
        by_line.setdefault(l, []).append(p)
    lines = sorted(by_line)
    if len(lines) > line_budget:
        raise BudgetExceededError(f"{len(lines)} support lines exceed the budget of {line_budget}")
    line_pts = [by_line[l] for l in lines]
    n = len(lines)
    for mask in range(1, 1 << n):
        degree: dict[int, int] = {}
        m_size = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            m_size += 1
            for p in line_pts[low.bit_length() - 1]:
                degree[p] = degree.get(p, 0) + 1
        if len(degree) < 2:
            continue
        chosen = sorted(degree.values(), reverse=True)
        value = sum(d - 2 for d in chosen if d >= 3)
        heavy = sum(1 for d in chosen if d >= 3)
        if heavy < 2:
            value += sum(d - 2 for d in chosen[heavy:2])
        if value - m_size > -3:
            return False
    return True


def is_regular(
    geometry: IncidenceGeometry,
    realization: LinearRealization,
    budget: int = 16,
) -> bool:
    """Every sharply independent incidence subset has independent matrix rows.

    Exhaustive over subsets, so desk-scale only; it is enough to rank-check
    the maximal sharply independent subsets, since row independence is
    inherited downward.
    """
    if not realization.satisfies(geometry):
        raise OracleError("realization does not satisfy the geometry")
    incs = geometry.incidences()
    n = len(incs)
    if n > budget:
        raise BudgetExceededError(f"{n} incidences exceed the exhaustive budget of {budget}")
    point_bit = [1 << p for p, _ in incs]
    line_bit = [1 << l for _, l in incs]
    size = 1 << n
    pts_mask = [0] * size
    lin_mask = [0] * size
    sharp = bytearray([1]) * size
    for mask in range(1, size):
        low = mask & -mask
        idx = low.bit_length() - 1
        rest = mask ^ low
        pts_mask[mask] = pts_mask[rest] | point_bit[idx]
        lin_mask[mask] = lin_mask[rest] | line_bit[idx]
        ok = True
        q = pts_mask[mask].bit_count()
        if q >= 2 and mask.bit_count() > lin_mask[mask].bit_count() + 2 * q - 3:
            ok = False
        else:
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                if not sharp[mask ^ low]:
                    ok = False
                    break
        sharp[mask] = 1 if ok else 0
    matrix = build_concurrence_matrix(geometry, realization)
    for mask in range(1, size):
        if not sharp[mask]:
            continue
        maximal = True
        for b in range(n):
            sup = mask | (1 << b)
            if sup != mask and sharp[sup]:
                maximal = False
                break
        if not maximal:
            continue
        subset = [i for i in range(n) if mask >> i & 1]
        rows = matrix.dense_rows(subset)
        if matrix_rank(rows, matrix.field) < len(subset):
            return False
    return True


# --- serialization ------------------------------------------------------------


def _fraction_pair(x: Fraction) -> list[str]:
    f = Fraction(x)
    return [str(f.numerator), str(f.denominator)]


def realization_to_json(realization: LinearRealization) -> dict:
    if isinstance(realization.field, PrimeField):
        return {
            "field": "zp",
            "p": str(realization.field.p),
            "slopes": [str(v) for v in realization.slopes],
            "intercepts": [str(v) for v in realization.intercepts],
            "points": [[str(x), str(y)] for x, y in zip(realization.xs, realization.ys)],
        }
    return {
        "field": "rational",
        "slopes": [_fraction_pair(v) for v in realization.slopes],
        "intercepts": [_fraction_pair(v) for v in realization.intercepts],
        "points": [[_fraction_pair(x), _fraction_pair(y)]
                   for x, y in zip(realization.xs, realization.ys)],
    }


def realization_from_json(doc: dict) -> LinearRealization:
    try:
        kind = doc["field"]
        if kind == "zp":
            p = int(doc["p"])
            field: Field = PrimeField(p)
            slopes = tuple(int(v) % p for v in doc["slopes"])
            intercepts = tuple(int(v) % p for v in doc["intercepts"])
            xs = tuple(int(x) % p for x, _ in doc["points"])
            ys = tuple(int(y) % p for _, y in doc["points"])
        elif kind == "rational":
            field = RATIONALS
            slopes = tuple(Fraction(int(n), int(d)) for n, d in doc["slopes"])
            intercepts = tuple(Fraction(int(n), int(d)) for n, d in doc["intercepts"])
            xs = tuple(Fraction(int(x[0]), int(x[1])) for x, _ in doc["points"])
            ys = tuple(Fraction(int(y[0]), int(y[1])) for _, y in doc["points"])
        else:
            raise OracleError(f"unknown field {kind!r}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise OracleError(f"bad realization document: {exc}") from None
    if len(slopes) != len(intercepts):
        raise OracleError("bad realization document: slopes and intercepts differ in length")
    return LinearRealization(field, slopes, intercepts, xs, ys)


def concurrence_to_csv(matrix: ConcurrenceMatrix) -> str:
    header = [f"h{l}" for l in range(matrix.num_lines)]
    for j in range(matrix.num_points):
        header.extend([f"x{j}", f"y{j}"])
    lines = [",".join(header)]
    for row in matrix.dense_rows():
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
