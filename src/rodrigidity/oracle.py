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

Rank and sampling share one sparse exact elimination (as does matrix_kernel,
a reference for the tests).  Rows are kept as {column: value} dicts and
reduced one at a time against the pivot rows found so far.  Rank and
sampling both work in intercept space: a point's coordinates occur only in
its own rows, so they are eliminated by hand and only the rows that a third
or further rod through a point puts on the intercepts are reduced (a rod
arrangement sampled with distinct slopes has none).  For a proper realization of two or more points the rank is at most
the maximum below, so its reduction stops there.  The inverses a pass needs
(one per point in sampling and rank, one per spoke in the cone extension)
are taken together with one modular inversion (`_inv_all`).

The concurrence matrix of a realization has one row per incidence over the
unknowns (h_1..h_L, x_1, y_1, .., x_P, y_P); its kernel is the space of
parallel redrawings with the same slopes.  Note that the matrix entries only
involve the slopes: for a proper realization the kernel always contains the
two translations and the dilation, so the rank is at most |L| + 2|P| - 3,
with equality exactly when every redrawing is trivial.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from ._record import Record, set_field
from .cone import _spokes
from .geometry import IncidenceGeometry, _decimals, _json_list, _json_object, shared_rod_pair
from .geometry import _json_int as _geometry_json_int
# Not called here, but perfbench/tracing.py wraps this name in this module.
from .cone import build_cone_incidence  # noqa: F401

__all__ = [
    "OracleError",
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
    "sample_realization",
    "realization_from_coords",
    "realize_cone",
    "string_config_rank",
    "realization_to_json",
    "realization_from_json",
]


class OracleError(ValueError):
    pass


MERSENNE_PRIME = 2**61 - 1
ALTERNATE_PRIME = 2305843009213693967  # next prime above 2^61


# psi_13 = 1287836182261 * 2575672364521, the least strong pseudoprime to
# every base _is_prime tries: it is exact below this bound only.
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the primes up to 41 as bases, which is exact for
    every n below _PRIME_BOUND (about 3.3e24)."""
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


class PrimeField(Record):
    """Z_p: values are ints in [0, p)."""

    __slots__ = ("p",)

    zero = 0
    one = 1

    def __init__(self, p: int):
        if type(p) is not int:
            raise ValueError(f"a prime field needs an int p, got {p!r}")
        if p >= _PRIME_BOUND:
            raise ValueError(f"a prime field needs p below {_PRIME_BOUND}, where primality"
                             f" is decided exactly; got {p}")
        if not _is_prime(p):
            raise ValueError(f"a prime field needs a prime p, got {p}")
        set_field(self, "p", p)

    def random_unit(self, rng: random.Random):
        return rng.randrange(1, self.p)


class RationalField(Record):
    """Q: values are Fractions; p is 0 so that `x % p if p else x` leaves them."""

    __slots__ = ()

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
# sampled realization and cone-point placements per line.
_DRAWS = 32


class Infeasible(Record):
    """A construction refused the geometry: sampling found no proper
    realization, or realize_cone no place for a cone point.

    The reason names two rods through the same two points, refused before
    any draw, or says that all _DRAWS slope draws gave two rods through a
    common point the same slope or that no cone point of a line fit in
    _DRAWS draws (the field has too few units for either), or that all
    _DRAWS sampled realizations collapsed distinct points.  The refusal is
    final, so callers do not retry with another seed: whether a proper
    realization exists depends on the incidences, and a draw collapses by
    accident with probability at most degree/p over Z_p.
    """

    __slots__ = ("reason", "shared_pair")

    def __init__(self, reason: str,
                 # (l1, l2, p, q) when rods l1 and l2 both pass through points p and q
                 shared_pair: Optional[tuple[int, int, int, int]] = None):
        set_field(self, "reason", reason)
        set_field(self, "shared_pair", shared_pair)

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


class LinearRealization(Record):
    __slots__ = ("field", "slopes", "intercepts", "xs", "ys")

    def __init__(self, field: Field, slopes: tuple, intercepts: tuple, xs: tuple, ys: tuple):
        set_field(self, "field", field)
        set_field(self, "slopes", slopes)
        set_field(self, "intercepts", intercepts)
        set_field(self, "xs", xs)
        set_field(self, "ys", ys)

    @property
    def num_lines(self) -> int:
        return len(self.slopes)

    @property
    def num_points(self) -> int:
        return len(self.xs)

    def satisfies(self, geometry: IncidenceGeometry) -> bool:
        """Every incidence holds: f_l*x_j + y_j + h_l = 0 for each point j on
        each line l.  Over Q the identity is tested with every denominator
        cleared, in integers."""
        if (geometry.num_points != self.num_points or len(self.ys) != self.num_points
                or geometry.num_lines != self.num_lines
                or len(self.intercepts) != self.num_lines):
            return False
        p = self.field.p
        xs, ys = self.xs, self.ys
        if p:
            for f, h, line in zip(self.slopes, self.intercepts, geometry.lines):
                for j in line:
                    if (f * xs[j] + ys[j] + h) % p:
                        return False
            return True
        # (a/b)(c/d) + e/g + u/w = 0  <=>  a*w*(c*g) + b*w*(e*d) + u*b*(d*g) = 0
        terms = [(x.numerator * y.denominator, y.numerator * x.denominator,
                  x.denominator * y.denominator) for x, y in zip(xs, ys)]
        for f, h, line in zip(self.slopes, self.intercepts, geometry.lines):
            a, b, u, w = f.numerator, f.denominator, h.numerator, h.denominator
            aw, bw, ub = a * w, b * w, u * b
            for j in line:
                cg, ed, dg = terms[j]
                if aw * cg + bw * ed + ub * dg:
                    return False
        return True

    def is_proper(self) -> bool:
        """Distinct points carry distinct coordinates."""
        p = self.field.p
        return len(set(zip(_keys(self.xs, p), _keys(self.ys, p)))) == self.num_points


def _keys(values: Sequence, p: int) -> Sequence:
    """Set keys for field elements: the values over Z_p; over Q the pairs
    (numerator, denominator), equal exactly when the normalized Fractions
    are, which hash without the modular inverse a Fraction's hash takes."""
    return values if p else [(v.numerator, v.denominator) for v in values]


# --- exact linear algebra ----------------------------------------------------
#
# One sparse elimination serves the intercept rows of rank and sampling, and
# the reference matrix_kernel.  Rows are {column: value} dicts holding only
# nonzeros.  Each row is reduced at its leading (smallest) column by that
# column's pivot row until the leading column has no pivot; the row is then
# scaled to a leading 1 and becomes that column's pivot row.  Over Z_p every
# entry is reduced with an inline `% p`; over Q the same loop runs on
# Fractions.  A row that already leads with 1 becomes a pivot row as it
# stands.  Over Z_p the inverses a pass needs are batched by Montgomery's
# trick (`_inv_all`): one modular inversion of their product, then three
# products per value.


def _inv(a, p: int):
    """1/a in Z_p, or in Q when p is 0 (a Fraction even for an int a)."""
    return pow(a, -1, p) if p else 1 / Fraction(a)


def _inv_all(values: Sequence, p: int) -> list:
    """[_inv(a, p) for a in values], with a single `_inv` call over Z_p.

    The product of all values is inverted once and the inverse is walked
    back through the prefix products.  A zero among the values makes the
    product zero, whose inversion raises as `pow(0, -1, p)` does.
    """
    if not p or len(values) < 2:
        return [_inv(a, p) for a in values]
    prefix, acc = [], 1
    for a in values:
        prefix.append(acc)
        acc = acc * a % p
    inv = _inv(acc, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * values[i] % p
    return out


def _eliminate(rows: Iterable[dict], field: Field,
               limit: Optional[int] = None) -> dict[int, dict]:
    """Pivot rows of a row echelon form, keyed by their leading column.

    The leading columns are those of the reduced row echelon form whatever
    the row order, so the free columns depend only on the row space.  Given
    a limit, no further row is read once that many pivots are held.
    """
    p = field.p
    pivots: dict[int, dict] = {}
    if limit is not None and limit <= 0:
        return pivots
    for row in rows:
        if p:
            row = {c: v % p for c, v in row.items() if v % p}
        else:  # Fractions throughout, so a row kept as it stands has their type
            row = {c: v if type(v) is Fraction else Fraction(v) for c, v in row.items() if v}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                if row[lead] != 1:
                    inv = _inv(row[lead], p)
                    if p:
                        row = {c: v * inv % p for c, v in row.items()}
                    else:
                        row = {c: v * inv for c, v in row.items()}
                pivots[lead] = row
                if len(pivots) == limit:
                    return pivots
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


class ConcurrenceMatrix(Record):
    """Rows indexed by incidences; columns are (h-block, then x,y per point).

    Row (p, l) has 1 in column h_l = l, f_l in column x_p = num_lines + 2p
    and 1 in column y_p = num_lines + 2p + 1.
    """

    __slots__ = ("field", "num_lines", "num_points", "incidences", "slopes")

    def __init__(self, field: Field, num_lines: int, num_points: int,
                 incidences: tuple[tuple[int, int], ...], slopes: tuple):
        set_field(self, "field", field)
        set_field(self, "num_lines", num_lines)
        set_field(self, "num_points", num_points)
        set_field(self, "incidences", incidences)
        set_field(self, "slopes", slopes)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.incidences), self.num_lines + 2 * self.num_points)


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


def _intercept_rows(rods_at: Sequence[Sequence[int]], slopes: Sequence,
                    field: Field) -> tuple[list[dict], list, int]:
    """The concurrence rows with every point's coordinates eliminated.

    Columns x_j and y_j occur only in the rows of point j, so they are
    eliminated by hand.  A point on no rod has no rows.  If every rod
    l0, l1, ... through point j has the slope of l0, the row of l0 pivots on
    y_j and each further rod li leaves the intercept row h_li - h_l0.
    Otherwise, with l1 the first rod of another slope, the rows of l0 and l1
    pivot on x_j and y_j, and each further rod li leaves the row
    t*h_l1 - (t+1)*h_l0 + h_li with t = (f_li - f_l0)/(f_l0 - f_l1): li
    passes through the intersection of l0 and l1.  This is an exact Schur
    complement for any slopes, so the rank of the concurrence matrix is the
    number of those coordinate pivots plus the rank of the intercept rows.
    Slopes must be reduced (over Z_p, values in [0, p)) so that equal slopes
    compare equal, and no rod may be listed twice at a point.

    Returns (rows, meets, pivots): the intercept rows, point by point; for
    each point (l1, 1/(f_l0 - f_l1)), or None if its rods share one slope;
    and the number of coordinate pivots.  The inverses are taken in one
    batch once every point's l1 is known.
    """
    p, one = field.p, field.one
    seconds = []  # each point's l1, or None if its rods (if any) share one slope
    for rods in rods_at:
        f0 = slopes[rods[0]] if rods else None
        seconds.append(next((l for l in rods if slopes[l] != f0), None))
    invs = iter(_inv_all([slopes[rods[0]] - slopes[l1]
                          for rods, l1 in zip(rods_at, seconds) if l1 is not None], p))
    rows: list[dict] = []
    meets: list = []
    pivots = 0
    for rods, l1 in zip(rods_at, seconds):
        if l1 is None:
            meets.append(None)
            if rods:
                pivots += 1
                rows += ({rods[0]: -one, li: one} for li in rods[1:])
            continue
        pivots += 2
        l0, inv = rods[0], next(invs)
        f0 = slopes[l0]
        meets.append((l1, inv))
        for li in rods[1:]:
            if li != l1:
                t = (slopes[li] - f0) * inv
                rows.append({l1: t, l0: -t - one, li: one})
    return rows, meets, pivots


def rank_of(matrix: ConcurrenceMatrix, at_most: Optional[int] = None) -> int:
    """Exact rank of the concurrence matrix in its field.

    The rank never exceeds the generic rank for these incidences, so full
    rank proves rigidity; a deficit may be an unlucky draw of slopes (at most
    degree/p likely over Z_p, by Schwartz-Zippel), so cross-validation draws
    another seed only when a sample falls below the predicted rank.  The
    point coordinates are eliminated by hand (`_intercept_rows`) and only the
    intercept rows are reduced, with the intercept columns in reverse order,
    so the spokes' intercepts (the last lines of a cone geometry) are
    pivoted before the rods'.  Given at_most, the reduction stops once the
    rank reaches it: the answer is exact whenever the rank is at most
    at_most, so pass only a proven upper bound, never a predicted rank.
    """
    p = matrix.field.p
    last = matrix.num_lines - 1
    slopes = [v % p for v in reversed(matrix.slopes)] if p else matrix.slopes[::-1]
    rods_at: list[list[int]] = [[] for _ in range(matrix.num_points)]
    for j, l in dict.fromkeys(matrix.incidences):  # a repeated row adds nothing
        rods_at[j].append(last - l)
    rows, _, rank = _intercept_rows(rods_at, slopes, matrix.field)
    limit = None if at_most is None else at_most - rank
    return rank + len(_eliminate(rows, matrix.field, limit))


# --- realization construction ------------------------------------------------


def sample_realization(
    geometry: IncidenceGeometry,
    seed: int,
    field: Field = DEFAULT_FIELD,
) -> Union[LinearRealization, Infeasible]:
    """Random exact realization: draw slopes, then intercepts, then points.

    Slopes are drawn uniformly from the field's units.  Given slopes that
    differ at every point, a point on rods l0, l1, ... is the intersection
    of l0 and l1, x = (h_l1 - h_l0)/(f_l0 - f_l1), so each further rod li
    through it is one linear row over the intercepts,
    t*h_l1 - (t+1)*h_l0 + h_li = 0 with t = (f_li - f_l0)/(f_l0 - f_l1)
    (`_intercept_rows`, which rank_of shares).
    Only those rows are eliminated (an arrangement has none, so a draw costs
    O(P)); the free intercepts are random units, and every point is then
    placed directly: at its first two rods' intersection, at a random
    abscissa on its only rod, or anywhere if it is on none.  These are
    exactly the kernel elements of the concurrence matrix for those slopes,
    so the sample is a random parallel redrawing.  At most _DRAWS slope
    vectors are drawn, one that gives two rods through a common point the
    same slope included; if none gives a proper realization, the incidences
    force a coincidence for generic slopes and Infeasible is returned.  Two
    rods through the same two points force one for every pair of distinct
    slopes, so such a geometry is refused before any draw.
    """
    pair = shared_rod_pair(geometry)
    if pair is not None:
        return Infeasible.shared(*pair)
    p = field.p
    rng = random.Random(seed)
    L = geometry.num_lines
    rods_at = geometry.point_line_map()
    placed = 0
    for _ in range(_DRAWS):
        f = tuple(field.random_unit(rng) for _ in range(L))
        keys = _keys(f, p)
        if any(len({keys[l] for l in rods}) < len(rods) for rods in rods_at):
            continue  # rods through a common point must not be parallel
        placed += 1
        rows, meets, _ = _intercept_rows(rods_at, f, field)
        pivots = _eliminate(rows, field)
        # one random unit per free intercept, in increasing column order
        h = [None if c in pivots else field.random_unit(rng) for c in range(L)]
        _back_substitute(pivots, h, field)
        xs, ys = [], []
        for j, rods in enumerate(rods_at):
            if not rods:
                xs.append(field.random_unit(rng))
                ys.append(field.random_unit(rng))
                continue
            l0 = rods[0]
            if meets[j] is None:  # on one rod
                x = field.random_unit(rng)
            else:
                l1, inv = meets[j]
                x = (h[l1] - h[l0]) * inv
            y = -f[l0] * x - h[l0]
            xs.append(x % p if p else x)
            ys.append(y % p if p else y)
        candidate = LinearRealization(field, f, tuple(h), tuple(xs), tuple(ys))
        if candidate.is_proper():
            return candidate
    if not placed:
        return Infeasible(f"all {_DRAWS} slope draws gave two rods through a common point the same slope")
    return Infeasible(f"all {_DRAWS} sampled realizations collapsed distinct points")


def _point(pt) -> tuple[Fraction, Fraction]:
    """An (x, y) list or tuple of rationals: a string or a mapping is not
    unpacked into its characters or keys, and a bool is not read as 0 or 1."""
    if not isinstance(pt, (list, tuple)):
        raise TypeError(f"a point is an (x, y) pair, not {pt!r}")
    x, y = pt
    if isinstance(x, bool) or isinstance(y, bool):
        raise TypeError(f"a coordinate is a number, not a bool: {pt!r}")
    return Fraction(x), Fraction(y)


def realization_from_coords(geometry: IncidenceGeometry,
                            coords: Sequence[tuple]) -> LinearRealization:
    """Exact slope/intercept extraction from user-supplied rational coordinates.

    A line's direction (dx, dy) comes from two of its points with distinct
    coordinates.  Non-collinear coordinates for some line are a hard error,
    as are a line whose points all coincide and anything that is not a
    sequence of (x, y) rationals (`_point`).  A vertical line has no
    slope-intercept form, so all points are turned by the exact rotation
    cos = (1 - t^2)/(1 + t^2), sin = 2t/(1 + t^2) for the least t in 0, 1,
    2, ... that leaves no line vertical.  t = 0 is the identity: coordinates
    without a vertical line are kept as given.  A line forbids t = 0 only
    when it is vertical, and otherwise at most one positive t, since the
    roots of (1 - t^2)dx = 2t dy multiply to -1; so t <= |L|.
    """
    try:
        pts = [_point(pt) for pt in coords]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise OracleError(f"bad coordinates: {exc}") from None
    if len(pts) != geometry.num_points:
        raise OracleError("coordinate count does not match the geometry")
    directions = []
    for i, line in enumerate(geometry.lines):
        x0, y0 = pts[line[0]]
        q = next((p for p in line if pts[p] != (x0, y0)), None)
        if q is None:
            raise OracleError(f"every point of line {i} has the same coordinates, "
                              "so they fix no direction for it")
        dx, dy = pts[q][0] - x0, pts[q][1] - y0
        for p in line:
            if (pts[p][0] - x0) * dy != (pts[p][1] - y0) * dx:
                raise OracleError(f"point {p} does not lie on line {i}: "
                                  "coordinates do not realize the geometry")
        directions.append((dx, dy))
    t = 0
    while any((1 - t * t) * dx == 2 * t * dy for dx, dy in directions):
        t += 1
    cos, sin = Fraction(1 - t * t, 1 + t * t), Fraction(2 * t, 1 + t * t)
    xs = tuple(cos * x - sin * y for x, y in pts)
    ys = tuple(sin * x + cos * y for x, y in pts)
    slopes = tuple(-(sin * dx + cos * dy) / (cos * dx - sin * dy) for dx, dy in directions)
    intercepts = tuple(-f * xs[line[0]] - ys[line[0]] for f, line in zip(slopes, geometry.lines))
    return LinearRealization(RATIONALS, slopes, intercepts, xs, ys)


def realize_cone(
    geometry: IncidenceGeometry,
    realization: LinearRealization,
    seed: int,
) -> Union[LinearRealization, Infeasible]:
    """Extend a proper realization of a geometry to its cone incidence
    geometry (build_cone_incidence).

    Original points keep their coordinates.  Each cone point is placed at
    random exact coordinates off its line, away from all other points, and
    with an abscissa different from every point of the line so no spoke is
    vertical; when none of _DRAWS draws fits, Infeasible is returned.
    Spoke lines inherit the induced slope and intercept.  The
    cone points are drawn from random.Random(seed ^ 0x5DEECE66D), not from
    sample_realization's stream for `seed`, so they do not replay the
    sampled slopes.
    """
    if not realization.satisfies(geometry):
        raise OracleError("realization does not satisfy the geometry")
    field = realization.field
    p = field.p
    taken = set(zip(_keys(realization.xs, p), _keys(realization.ys, p)))
    if len(taken) != realization.num_points:
        raise OracleError("cone extension requires a proper realization")
    rng = random.Random(seed ^ 0x5DEECE66D)
    xs, ys = list(realization.xs), list(realization.ys)
    for i, line in enumerate(geometry.lines):
        f_i, h_i = realization.slopes[i], realization.intercepts[i]
        for _ in range(_DRAWS):
            cx, cy = field.random_unit(rng), field.random_unit(rng)
            point = tuple(_keys((cx, cy), p))
            if point in taken:
                continue
            r = f_i * cx + cy + h_i
            if (r % p if p else r) == 0:
                continue  # on the line itself
            if any(cx == xs[j] for j in line):
                continue  # would make a spoke vertical
            break
        else:
            return Infeasible(f"could not place the cone point of line {i} off the line")
        taken.add(point)
        xs.append(cx)
        ys.append(cy)
    slopes, intercepts = list(realization.slopes), list(realization.intercepts)
    spokes = _spokes(geometry)  # (point, cone point) each
    invs = _inv_all([xs[c] - xs[j] for j, c in spokes], p)
    for (j, c), inv in zip(spokes, invs):
        fx = (ys[j] - ys[c]) * inv
        hx = -fx * xs[j] - ys[j]
        slopes.append(fx % p if p else fx)
        intercepts.append(hx % p if p else hx)
    extended = LinearRealization(field, tuple(slopes), tuple(intercepts), tuple(xs), tuple(ys))
    return extended


def string_config_rank(cone: IncidenceGeometry,
                       realization: LinearRealization) -> tuple[int, int]:
    """(rank, maximum rank) of the concurrence matrix of a realization of a
    cone incidence geometry, as realize_cone extends one; the maximum is
    reached when only the trivial parallel redrawings remain.  Those are
    the two translations and the dilation of two or more points, and every
    redrawing of one point or none, so the maximum is L + 2P - min(3, 2P)."""
    if not realization.satisfies(cone):
        raise OracleError("realization does not satisfy the cone incidence geometry")
    if not realization.is_proper():
        raise OracleError("non-proper realization refused")
    matrix = build_concurrence_matrix(cone, realization)
    max_rank = cone.num_lines + 2 * cone.num_points - min(3, 2 * cone.num_points)
    # Two or more distinct points: the translations and the dilation are
    # independent kernel vectors, so the rank cannot pass max_rank and the
    # reduction may stop there.  Fewer points carry no line, hence no row,
    # and their rank is the maximum 0.
    return rank_of(matrix, max_rank), max_rank


def is_string_config_rigid(cone: IncidenceGeometry, realization: LinearRealization) -> bool:
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
    """A JSON integer, as the geometry reader takes one, or a string that the
    text format reads as one: ASCII digits after an optional '-'.  A float,
    bool or other string is refused."""
    if isinstance(value, str):
        return _decimals([value])[0]
    return _geometry_json_int(value)


def realization_from_json(doc: dict) -> LinearRealization:
    """The document is a JSON object.  Values are integers (over Z_p) or
    [numerator, denominator] pairs (over Q), each point a [x, y] list; every
    list must be a JSON list."""
    try:
        kind = _json_object(doc)["field"]
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
