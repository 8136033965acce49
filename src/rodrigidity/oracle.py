"""Exact-arithmetic ground truth for rod-configuration rigidity.

A linear realization assigns to each line i a slope f_i and intercept h_i
(the line is f_i*x + y + h_i = 0, so vertical lines are unrepresentable) and
to each point j coordinates (x_j, y_j), with f_i*x_j + y_j + h_i = 0 for
every incidence.  All arithmetic is exact: either arbitrary-precision
rationals or a prime field Z_p with p around 2^61; floats appear nowhere.
A field is plain data: `PrimeField(p)` or `RATIONALS` (whose `p` is 0),
carrying its `zero`, `one` and `random_unit`.  Arithmetic is written inline
on plain values and reduced with `x % p if p else x`.
The certificate runs one way.  The matrix entries are integer polynomials in
the slopes, so the rank at sampled slopes never exceeds the generic rank:
full rank over Z_p proves rigidity.  A rank deficit may be an unlucky draw of
slopes (by Schwartz-Zippel a nonzero minor of degree d vanishes with
probability at most d/p).  So cross-validation compares each sample's rank
with the generic rank the pebble game predicts: a sample that reaches it
certifies the count, one above it is a defect, and only one below it calls
for another seed.

Rank, kernel and sampling share one sparse exact elimination.  Every
concurrence row has three nonzeros, so rows are kept as {column: value}
dicts and reduced one at a time against the pivot rows found so far.

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

from .cone import ConeIncidenceGeometry
from .geometry import IncidenceGeometry, _json_list, shared_rod_pair
# Not called here, but perfbench/tracing.py wraps this name in this module.
from .cone import build_cone_incidence  # noqa: F401

__all__ = [
    "OracleError",
    "VerticalLineError",
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
    "matrix_kernel",
    "sample_realization",
    "realization_from_coords",
    "realize_cone",
    "string_config_rank",
    "is_string_config_rigid",
    "realization_to_json",
    "realization_from_json",
]


class OracleError(ValueError):
    pass


class VerticalLineError(OracleError):
    """A line of the realization is vertical and has no (slope, intercept) form."""


MERSENNE_PRIME = 2**61 - 1
ALTERNATE_PRIME = 2305843009213693967  # next prime above 2^61


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the primes up to 41 as bases, which is exact for
    every n below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """Z_p: values are ints in [0, p)."""

    p: int

    zero = 0
    one = 1

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"a prime field needs a prime p, got {self.p}")

    def random_unit(self, rng: random.Random):
        return rng.randrange(1, self.p)


@dataclass(frozen=True)
class RationalField:
    """Q: values are Fractions; p is 0 so that `x % p if p else x` leaves them."""

    p = 0
    zero = Fraction(0)
    one = Fraction(1)

    def random_unit(self, rng: random.Random):
        # modest magnitudes keep the fractions and drawings reasonable
        return Fraction(rng.randrange(1, 257), rng.randrange(1, 257))


Field = Union[PrimeField, RationalField]

DEFAULT_FIELD = PrimeField(MERSENNE_PRIME)
RATIONALS = RationalField()

# Random draws a construction makes before it gives up: slope vectors per
# sampled realization, cone-point placements per line, and rotations of
# imported coordinates.
_DRAWS = 32


@dataclass(frozen=True)
class Infeasible:
    """The geometry has no proper realization, so sampling refused it.

    The reason names two rods through the same two points, refused before
    any draw, or says that all _DRAWS sampled realizations collapsed distinct
    points.  The refusal is final, so callers do not retry with another
    seed: whether a proper realization exists depends on the incidences, and
    a draw collapses by accident with probability at most degree/p over Z_p.
    """

    reason: str
    # (l1, l2, p, q) when rods l1 and l2 both pass through points p and q
    shared_pair: Optional[tuple[int, int, int, int]] = None

    @classmethod
    def shared(cls, l1: int, l2: int, p: int, q: int) -> "Infeasible":
        return cls(f"rods {l1} and {l2} share points {p} and {q}", (l1, l2, p, q))

    def before_deleting(self, rod: int) -> "Infeasible":
        """The same refusal in the rod numbers of the geometry that rod `rod`
        was deleted from: rod r of the deletion is rod r + (r >= rod) there."""
        if self.shared_pair is None:
            return self
        l1, l2, p, q = self.shared_pair
        return Infeasible.shared(l1 + (l1 >= rod), l2 + (l2 >= rod), p, q)


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

    def satisfies(self, geometry: IncidenceGeometry) -> bool:
        if geometry.num_points != self.num_points or geometry.num_lines != self.num_lines:
            return False
        p = self.field.p
        for j, l in geometry.incidences():
            r = self.slopes[l] * self.xs[j] + self.ys[j] + self.intercepts[l]
            if (r % p if p else r) != 0:
                return False
        return True

    def is_proper(self) -> bool:
        """Distinct points carry distinct coordinates."""
        return len({(x, y) for x, y in zip(self.xs, self.ys)}) == self.num_points


# --- exact linear algebra ----------------------------------------------------
#
# One sparse elimination serves rank, kernel and sampling.  Rows are
# {column: value} dicts holding only nonzeros.  Each row is reduced at its
# leading (smallest) column by that column's pivot row until the leading
# column has no pivot; the row is then scaled to a leading 1 and becomes that
# column's pivot row.  Over Z_p every entry is reduced with an inline `% p`;
# over Q the same loop runs on Fractions.


def _inv(a, p: int):
    """1/a in Z_p, or in Q when p is 0 (a Fraction even for an int a)."""
    return pow(a, -1, p) if p else 1 / Fraction(a)


def _eliminate(rows: Iterable[dict], field: Field) -> dict[int, dict]:
    """Pivot rows of a row echelon form, keyed by their leading column.

    The leading columns are those of the reduced row echelon form whatever
    the row order, so the free columns depend only on the row space.
    """
    p = field.p
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
                inv = _inv(row[lead], p)
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
    p = field.p
    for lead in sorted(pivots, reverse=True):
        s = field.zero
        for c, v in pivots[lead].items():
            if c != lead:
                s += v * vector[c]
        vector[lead] = -s % p if p else -s
    return vector


def matrix_kernel(rows: Sequence[Sequence], field: Field, ncols: int) -> list[list]:
    """Basis of the right kernel (one vector per free column)."""
    pivots = _eliminate((dict(enumerate(r)) for r in rows), field)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
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

    def sparse_rows(self) -> Iterator[dict]:
        """The rows as {column: value} dicts, three entries each."""
        one = self.field.one
        for p, l in self.incidences:
            yield {l: one, self.column_of_x(p): self.slopes[l], self.column_of_y(p): one}


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
    degree/p likely over Z_p, by Schwartz-Zippel), so cross-validation draws
    another seed only when a sample falls below the predicted rank.  Columns
    are eliminated from the last one down, so the coordinates of each point
    (cone points first) are pivoted out before the intercepts, which keeps
    the fill-in low.
    """
    last = matrix.shape[1] - 1
    rows = ({last - c: v for c, v in row.items()} for row in matrix.sparse_rows())
    return len(_eliminate(rows, matrix.field))


# --- realization construction ------------------------------------------------


def sample_realization(
    geometry: IncidenceGeometry,
    seed: int,
    field: Optional[Field] = None,
) -> Union[LinearRealization, Infeasible]:
    """Random exact realization: draw slopes, then solve for the rest.

    Slopes are drawn uniformly from the field's units; the intercepts and
    point coordinates come from a random element of the kernel of the
    concurrence matrix for those slopes, which solves every incidence
    constraint at once (a point on two lines lands on their intersection, a
    point on one line gets a free abscissa, an isolated point is free).  At
    most _DRAWS slope vectors are drawn; if every one gives a non-proper
    realization, the incidences force a coincidence for generic slopes and
    Infeasible is returned.  Two rods through the same two points force one
    for every pair of distinct slopes, so such a geometry is refused before
    any draw.
    """
    pair = shared_rod_pair(geometry)
    if pair is not None:
        return Infeasible.shared(*pair)
    field = field or DEFAULT_FIELD
    rng = random.Random(seed)
    incidences = geometry.incidences()
    ncols = geometry.num_lines + 2 * geometry.num_points
    L = geometry.num_lines
    for _ in range(_DRAWS):
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
    return Infeasible(f"all {_DRAWS} sampled realizations collapsed distinct points")


def _rotate_coords(coords, rng: random.Random):
    t = Fraction(rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 16))
    den = 1 + t * t
    cos, sin = (1 - t * t) / den, 2 * t / den
    return [(cos * x - sin * y, sin * x + cos * y) for x, y in coords]


def realization_from_coords(
    geometry: IncidenceGeometry,
    coords: Sequence[tuple],
    rotate_if_vertical: bool = False,
) -> LinearRealization:
    """Exact slope/intercept extraction from user-supplied rational coordinates.

    Raises VerticalLineError for a vertical line unless rotate_if_vertical is
    set, in which case a random rational rotation is applied to all points
    first (exactly; rotations by rational unit vectors keep coordinates
    rational; a fixed seed makes the rotation reproducible).  A line's
    direction comes from two of its points with distinct coordinates.
    Non-collinear coordinates for some line are a hard error, and so are a
    line whose points all coincide and anything that is not a sequence of
    (x, y) rationals.
    """
    try:
        pts = [(Fraction(x), Fraction(y)) for x, y in coords]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise OracleError(f"bad coordinates: {exc}") from None
    if len(pts) != geometry.num_points:
        raise OracleError("coordinate count does not match the geometry")
    rng = random.Random(0)
    attempts = _DRAWS if rotate_if_vertical else 1
    for attempt in range(attempts):
        current = pts if attempt == 0 else _rotate_coords(pts, rng)
        slopes, intercepts = [], []
        vertical = False
        for i, line in enumerate(geometry.lines):
            x0, y0 = current[line[0]]
            other = next((current[p] for p in line if current[p] != (x0, y0)), None)
            if other is None:
                raise OracleError(f"every point of line {i} has the same coordinates, "
                                  "so they fix no direction for it")
            x1, y1 = other
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
    raise VerticalLineError(f"line {i} is vertical, so it has no slope-intercept form")


def realize_cone(
    cone: ConeIncidenceGeometry,
    realization: LinearRealization,
    seed: int,
) -> LinearRealization:
    """Extend a proper realization of S = cone.base to the cone incidence
    geometry.

    Original points keep their coordinates.  Each cone point is placed at
    random exact coordinates off its line, away from all other points, and
    with an abscissa different from every point of the line so no spoke is
    vertical.  Spoke lines inherit the induced slope and intercept.
    """
    geometry = cone.base
    if not realization.satisfies(geometry):
        raise OracleError("realization does not satisfy the geometry")
    if not realization.is_proper():
        raise OracleError("cone extension requires a proper realization")
    field = realization.field
    p = field.p
    rng = random.Random(seed)
    taken = {(x, y) for x, y in zip(realization.xs, realization.ys)}
    xs, ys = list(realization.xs), list(realization.ys)
    for i, line in enumerate(geometry.lines):
        f_i, h_i = realization.slopes[i], realization.intercepts[i]
        for attempt in range(_DRAWS + 1):
            if attempt == _DRAWS:
                raise OracleError(f"could not place the cone point of line {i} off the line")
            cx, cy = field.random_unit(rng), field.random_unit(rng)
            if (cx, cy) in taken:
                continue
            r = f_i * cx + cy + h_i
            if (r % p if p else r) == 0:
                continue  # on the line itself
            if any(cx == xs[j] for j in line):
                continue  # would make a spoke vertical
            break
        taken.add((cx, cy))
        xs.append(cx)
        ys.append(cy)
    slopes, intercepts = list(realization.slopes), list(realization.intercepts)
    for line_idx, j in cone.spoke_of:
        c = cone.cone_point(line_idx)
        fx = (ys[j] - ys[c]) * _inv(xs[c] - xs[j], p)
        hx = -fx * xs[j] - ys[j]
        slopes.append(fx % p if p else fx)
        intercepts.append(hx % p if p else hx)
    extended = LinearRealization(field, tuple(slopes), tuple(intercepts), tuple(xs), tuple(ys))
    if not extended.satisfies(cone.geometry):
        raise AssertionError("cone extension violates an incidence")
    return extended


def string_config_rank(cone: ConeIncidenceGeometry,
                       realization: LinearRealization) -> tuple[int, int]:
    """(rank, maximum rank) of the concurrence matrix of the extended
    realization; the maximum is reached when only the trivial parallel
    redrawings remain.  A geometry of one point or none has fewer than
    three trivial motions, so the maximum is clamped at 0."""
    if not realization.satisfies(cone.geometry):
        raise OracleError("realization does not satisfy the cone incidence geometry")
    if not realization.is_proper():
        raise OracleError("non-proper realization refused")
    g = cone.geometry
    matrix = build_concurrence_matrix(g, realization)
    return rank_of(matrix), max(0, g.num_lines + 2 * g.num_points - 3)


def is_string_config_rigid(cone: ConeIncidenceGeometry, realization: LinearRealization) -> bool:
    """Rigid iff the concurrence matrix of the extended realization has the
    maximum possible rank, i.e. only trivial parallel redrawings remain."""
    rank, max_rank = string_config_rank(cone, realization)
    return rank == max_rank


# --- serialization ------------------------------------------------------------


def _fraction_pair(x: Fraction) -> list[str]:
    f = Fraction(x)
    return [str(f.numerator), str(f.denominator)]


def realization_to_json(realization: LinearRealization) -> dict:
    if realization.field.p:
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


def _json_int(value) -> int:
    """A JSON integer or a string of one; a float or bool is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r:.40}")
    return int(value)


def realization_from_json(doc: dict) -> LinearRealization:
    """Values are integers (over Z_p) or [numerator, denominator] pairs
    (over Q), each point a [x, y] list; every list must be a JSON list."""
    try:
        kind = doc["field"]
        if kind == "zp":
            p = _json_int(doc["p"])
            field: Field = PrimeField(p)

            def value(v):
                return _json_int(v) % p
        elif kind == "rational":
            field = RATIONALS

            def value(v):
                n, d = _json_list(v, 2)
                return Fraction(_json_int(n), _json_int(d))
        else:
            raise OracleError(f"unknown field {kind!r}")
        slopes = tuple(value(v) for v in _json_list(doc["slopes"]))
        intercepts = tuple(value(v) for v in _json_list(doc["intercepts"]))
        points = [_json_list(pt, 2) for pt in _json_list(doc["points"])]
        xs = tuple(value(x) for x, _ in points)
        ys = tuple(value(y) for _, y in points)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise OracleError(f"bad realization document: {exc}") from None
    if len(slopes) != len(intercepts):
        raise OracleError("bad realization document: slopes and intercepts differ in length")
    return LinearRealization(field, slopes, intercepts, xs, ys)
