"""The sparse exact elimination and the sampler against dense references,
and pinned samples.

`_eliminate` (read as a rank), `matrix_kernel` and `rank_of` must agree
with plain dense Gauss-Jordan elimination (tests/bruteforce.py) over both
default primes, a tiny prime where cancellations are frequent, and the
rationals.  `rank_of` eliminates the point coordinates by hand, so each kind
of point is checked against the dense rank too, and stopping at the maximum
rank must never change a rank.  The intercept-space sampler must give the
cone ranks and the refusals of the full-kernel sampler it replaced, kept in
tests/bruteforce.py.
The golden digests pin `sample_realization`, `realize_cone` and that
reference exactly: any change in pivot set, free columns, random draw order
or the type of a value changes them.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodrigidity import (
    ALTERNATE_PRIME,
    DEFAULT_FIELD,
    MERSENNE_PRIME,
    IncidenceGeometry,
    PrimeField,
    RATIONALS,
    Infeasible,
    build_cone_incidence,
    decide_rod_rigidity,
    rank_of,
    realize_cone,
    sample_realization,
    string_config_rank,
)
from rodrigidity import oracle
from rodrigidity.oracle import ConcurrenceMatrix, _intercept_rows, build_concurrence_matrix, matrix_kernel

from bruteforce import (apply, dense_kernel, dense_rank, dense_rows, full_kernel_sample,
                        reference_random_geometry, shares_two_points)
from conftest import arrangement, concurrent_geometry, sparse_rank

FIELDS = [
    (DEFAULT_FIELD, MERSENNE_PRIME),
    (PrimeField(ALTERNATE_PRIME), ALTERNATE_PRIME),
    (PrimeField(7), 7),
    (RATIONALS, None),
]
FIELD_IDS = ["mersenne", "alternate", "p7", "rational"]


@st.composite
def integer_matrices(draw):
    """Small integer matrices, including empty, all-zero and repeated rows."""
    ncols = draw(st.integers(0, 7))
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return ncols, rows


def _in_field(rows, p):
    return [[Fraction(v) for v in row] for row in rows] if p is None else rows


def _dot(row, vec, p):
    total = sum(a * b for a, b in zip(row, vec))
    return total if p is None else total % p


@pytest.mark.parametrize("field,p", FIELDS, ids=FIELD_IDS)
@settings(max_examples=80, deadline=None)
@given(integer_matrices())
def test_integer_matrices_match_dense_reference(field, p, shape):
    ncols, rows = shape
    rows = _in_field(rows, p)
    rank = sparse_rank(rows, field)
    assert rank == dense_rank(rows, p)
    kernel = matrix_kernel(rows, field, ncols)
    assert kernel == dense_kernel(rows, ncols, p)
    assert len(kernel) == ncols - rank
    for vec in kernel:
        assert all(_dot(row, vec, p) == 0 for row in rows)


@pytest.mark.parametrize("field,p", FIELDS, ids=FIELD_IDS)
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_cone_concurrence_matrices_match_dense_reference(field, p, seed):
    # Small slopes, zero and repeats included, make rank deficits common.
    rng = random.Random(seed)
    cone = build_cone_incidence(reference_random_geometry(rng, 6, 4))
    slopes = tuple(Fraction(rng.randint(-2, 2)) if p is None else rng.randint(0, 4)
                   for _ in range(cone.num_lines))
    matrix = ConcurrenceMatrix(field, cone.num_lines, cone.num_points,
                               cone.incidences(), slopes)
    rows = dense_rows(matrix)
    ncols = matrix.shape[1]
    rank = dense_rank(rows, p)
    assert rank_of(matrix) == rank
    assert sparse_rank(rows, field) == rank
    kernel = matrix_kernel(rows, field, ncols)
    assert len(kernel) == ncols - rank
    zero = field.zero
    for vec in kernel:
        assert all(v == zero for v in apply(matrix, vec))


def test_intercept_rows_pivot_each_point_by_its_slopes():
    # Point 0 is on no rod, point 1 on one, point 2 on three rods of one
    # slope, and point 3 on rods of slopes 1, 1, 5, 1: l1 is the third rod,
    # and the ties with l0 leave h_li - h_l0 (t = 0).
    rods_at = [[], [0], [1, 2, 3], [4, 5, 6, 7]]
    slopes = [3, 2, 2, 2, 1, 1, 5, 1]
    for field, _ in FIELDS:
        one = field.one
        rows, meets, pivots = _intercept_rows(rods_at, [v * one for v in slopes], field)
        assert pivots == 0 + 1 + 1 + 2
        assert meets[:3] == [None, None, None] and meets[3][0] == 6
        assert [{c: v for c, v in row.items() if v} for row in rows] == [
            {1: -one, 2: one}, {1: -one, 3: one}, {4: -one, 5: one}, {4: -one, 7: one}]


# (lines, slopes) with each kind of point the rank eliminates by hand.  Over
# p = 7 the slopes 2 and 9 tie, so "tie mod 7" has l1 = rod 2 there and
# l1 = rod 1 elsewhere.
RANK_BRANCHES = {
    "point on no rod": (((0, 1), (1, 2)), (3, 5)),
    "points on one rod": (((0, 1, 2, 3),), (4,)),
    "rods of one slope": (((0, 1), (0, 2), (0, 3), (1, 2)), (2, 2, 2, 6)),
    "rods of slope zero": (((0, 1), (0, 2), (0, 3), (2, 3)), (0, 0, 0, 1)),
    "tie with l0": (((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)), (3, 1, 3, 4, 0, 3)),
    "tie mod 7": (((0, 1, 4), (0, 2, 4), (0, 3, 4), (1, 2, 3)), (2, 9, 5, 1)),
    "tie with l1": (((0, 1), (0, 2), (0, 3), (1, 2)), (1, 2, 2, 3)),
    "repeated row": (((0, 1, 1), (0, 2), (1, 2)), (1, 1, 3)),
}


@pytest.mark.parametrize("field,p", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("case", sorted(RANK_BRANCHES))
def test_rank_branches_match_dense_reference(field, p, case):
    lines, slopes = RANK_BRANCHES[case]
    num_points = 1 + max(j for line in lines for j in line)
    incidences = tuple((j, i) for i, line in enumerate(lines) for j in line)
    matrix = ConcurrenceMatrix(field, len(lines), num_points, incidences,
                               tuple(v * field.one for v in slopes))
    rank = dense_rank(dense_rows(matrix), p)
    assert rank_of(matrix) == rank_of(matrix, rank) == rank_of(matrix, rank + 1) == rank


def _chain(num_rods: int) -> IncidenceGeometry:
    return IncidenceGeometry(num_rods + 1, tuple((i, i + 1) for i in range(num_rods)))


def _proper_cone_samples(geometry, seeds, field):
    """(cone, extended realization) for each seed that samples properly."""
    cone = build_cone_incidence(geometry)
    for seed in seeds:
        rho = sample_realization(geometry, seed, field=field)
        if not isinstance(rho, Infeasible):
            yield cone, realize_cone(geometry, rho, seed)


@pytest.mark.parametrize("field", [DEFAULT_FIELD, RATIONALS], ids=["mersenne", "rational"])
def test_the_bound_never_changes_a_rank(fig2, hinge, field):
    # string_config_rank stops at the maximum rank; the unbounded rank of the
    # same matrix must be the same number, rigid or flexible.  Geometries of
    # no point and of one have no row, and their clamped maximum 0 is the bound.
    cases = [(fig2, True), (arrangement(8, 0.6, seed=1), True),
             (arrangement(12, 0.6, seed=2), True), (hinge, False), (_chain(5), False),
             (IncidenceGeometry(0, ()), True), (IncidenceGeometry(1, ()), True)]
    rng = random.Random(17)
    cases += [(reference_random_geometry(rng, 8, 6), None) for _ in range(12)]
    verdicts = set()
    for geometry, rigid in cases:
        for cone, extended in _proper_cone_samples(geometry, range(2), field):
            rank, max_rank = string_config_rank(cone, extended)
            assert rank == rank_of(build_concurrence_matrix(cone, extended))
            assert rigid is None or (rank == max_rank) == rigid
            verdicts.add(rank == max_rank)
    assert verdicts == {True, False}


def test_early_stop_leaves_intercept_rows_unread(monkeypatch):
    # On the rigid 30-rod arrangement (261 points; its cone geometry has 552
    # lines and 291 points) the reduction reaches the maximum rank before
    # its last intercept row: 632 of 984 rows are read for seed 0.
    g = arrangement(30, 0.6, seed=2024)
    cone, extended = next(_proper_cone_samples(g, [0], DEFAULT_FIELD))
    real, reads = oracle._eliminate, []

    def counting(rows, field, limit=None):
        read = [0]

        def counted():
            for row in rows:
                read[0] += 1
                yield row
        pivots = real(counted(), field, limit)
        reads.append((read[0], len(rows)))
        return pivots

    monkeypatch.setattr(oracle, "_eliminate", counting)
    rank, max_rank = string_config_rank(cone, extended)
    assert rank == max_rank
    (read, total), = reads
    assert read < total


@pytest.mark.parametrize("p", [MERSENNE_PRIME, 7], ids=["mersenne", "p7"])
@pytest.mark.parametrize("length", [0, 1, 50])
def test_batched_inverses_match_one_at_a_time(monkeypatch, p, length):
    # Unreduced and negative values too: slope differences are not reduced.
    rng = random.Random(length)
    values = [rng.randrange(1, p) + rng.choice((-p, 0, p)) for _ in range(length)]
    expected = [oracle._inv(a, p) for a in values]
    real, calls = oracle._inv, []
    monkeypatch.setattr(oracle, "_inv", lambda a, p: calls.append(a) or real(a, p))
    assert oracle._inv_all(values, p) == expected
    assert len(calls) == min(length, 1)


@pytest.mark.parametrize("p", [MERSENNE_PRIME, 7], ids=["mersenne", "p7"])
def test_batched_inverse_of_zero_raises_as_pow_does(p):
    with pytest.raises(ValueError) as single:
        pow(0, -1, p)
    for values in ([0], [3, 0, 5], [2, 3, p], [p, 4]):
        with pytest.raises(ValueError) as batched:
            oracle._inv_all(values, p)
        assert str(batched.value) == str(single.value)


def test_batched_inverses_over_rationals_are_fractions():
    values = [3, -2, Fraction(5, 7), Fraction(-1, 9), 1]
    inverses = oracle._inv_all(values, 0)
    assert inverses == [oracle._inv(a, 0) for a in values]
    assert all(type(v) is Fraction for v in inverses)
    with pytest.raises(ZeroDivisionError):
        oracle._inv_all([2, 0], 0)


@pytest.mark.parametrize("field,p", FIELDS, ids=FIELD_IDS)
def test_rows_leading_with_one_are_kept_as_pivots(field, p):
    # Over Q an int row becomes Fractions whether or not it needs scaling.
    rows = [{0: 1, 2: 4}, {1: 3, 2: 1}, {0: 1, 1: 1, 2: 1}]
    pivots = oracle._eliminate(rows, field)
    unit = Fraction(1) if p is None else 1
    third = Fraction(1, 3) if p is None else pow(3, -1, p)
    assert pivots[0] == {0: unit, 2: 4 * unit}
    assert pivots[1] == {1: unit, 2: third}
    assert pivots[2] == {2: unit}
    want = Fraction if p is None else int
    assert all(type(v) is want for row in pivots.values() for v in row.values())


def test_cross_validated_check_inverts_in_batches(monkeypatch):
    # A cross-validated check of an m=20 arrangement once made one modular
    # inversion per point, per spoke and per pivot: 721 in all.
    g = arrangement(20, 0.6, seed=7)
    real, calls = oracle._inv, []
    monkeypatch.setattr(oracle, "_inv", lambda a, p: calls.append(p) or real(a, p))
    verdict = decide_rod_rigidity(g, cross_validate=True)
    assert verdict.is_rigid and verdict.agreement == "agree"
    assert calls and set(calls) == {MERSENNE_PRIME}
    assert len(calls) <= 30


# sha256 of repr(sample_realization(geometry, seed, field)), fixed from the
# intercept-space sampler: slopes, then the free intercepts in increasing
# column order, then one abscissa per point on one rod.
GOLDEN = {
    ("fig2", "zp", 0): "0ff3adfeceb69a11d9c310c040f9a3949e761ad2e5cb6698664a755d856a3287",
    ("fig2", "zp", 1): "640293c03917558d25138b48aeca6a5dafb2224da6e2ef8530de05c4cb37bcc3",
    ("fig2", "zp", 42): "2071bf5c51730df5995e420b1731cb7ae734d0f30b8552e49d6d355adb77cbb8",
    ("fig2", "rational", 0): "557d41b5b6c7169107690e30ca4c1e43d9c0691894120722c1ef915605bde12b",
    ("fig2", "rational", 1): "db0348d2b99b74b59e1f99d5bb4625867eb70694fbc60438ec039c12ddc6735e",
    ("fig2", "rational", 42): "2c10485b6909be028e2714a0091b97e2833589e313ce44e8ca3386cfe7a5c61a",
    ("triangle_rods", "zp", 0): "5be7815654c0270553215222c148111f136f8e0d5c009aef7598b6fb45ca73ae",
    ("triangle_rods", "zp", 1): "0551cee8f95c9a2685e140e7e0827c02081cf27cbc955a66b118482ad99f0d7d",
    ("triangle_rods", "zp", 42): "14824c73ae41e71f438cc74992293deff735787bc3bd9a9b2895a9ce42f38058",
    ("triangle_rods", "rational", 0): "5897266a0331c2e86650a1254964e837837ec83dfb4feaf39427d685e43fe609",
    ("triangle_rods", "rational", 1): "281f5912ae4bb5dcae7e50644cb825a6bd7daf4885b374bf89a6ee4d5a6b311d",
    ("triangle_rods", "rational", 42): "d238762b6a19a5b2d0978d7f54ee2c1b5ee46b1e7d437f0617e04c17961ec182",
}


@pytest.mark.parametrize("geometry,field_name,seed", sorted(GOLDEN))
def test_golden_realizations(request, geometry, field_name, seed):
    field = DEFAULT_FIELD if field_name == "zp" else RATIONALS
    rho = sample_realization(request.getfixturevalue(geometry), seed, field=field)
    digest = hashlib.sha256(repr(rho).encode()).hexdigest()
    assert digest == GOLDEN[(geometry, field_name, seed)]


# sha256 of repr(realize_cone(geometry, sample_realization(geometry, seed, field),
# seed)), fixed once the cone points came from their own stream.
CONE_GOLDEN = {
    ("fig2", "zp", 0): "d2d5bc2179e6b561964eb0fd71375660fa632e87eb2b2d1c8c3aec95d1a28708",
    ("fig2", "zp", 1): "5893f86b1296832584808cdc81065069d5b854287bc5b8521e26e0c2754aeb17",
    ("fig2", "zp", 42): "9fe4c31332ddcf6b6576f35e5eebc6305a0a17e24ee1eeb6950a3665adbb65af",
    ("fig2", "rational", 0): "38d243acc56d077cf1d4d6b02d29ce42af042948624621606db78da19d8cfc4f",
    ("fig2", "rational", 1): "cad65c8b29dea8640cb2bce0982c1f92d8f8be887f8487910766f2a0c672aa06",
    ("fig2", "rational", 42): "9a8c012278a9c50d830ceb29ae15d986726ecc9cb583c3c6bcbabff7d9a1b9f8",
    ("triangle_rods", "zp", 0): "b1c985819a9d7257d822ef7fe1a170ae59d500cc3a67abc8bc56b8ad84de5b44",
    ("triangle_rods", "zp", 1): "9822c424d4c80dea5c62bbb0f30969c78b7c5e5f814b311d3e9a1e2f56a9fa7f",
    ("triangle_rods", "zp", 42): "2e69b3aa2d2394a0580a243f09e51b594c594535430932d7ad932c6e84193376",
    ("triangle_rods", "rational", 0): "e2735959dd73e77340b1fee53f776a0a0e2f536901e7eba916c93c97b97fe5d6",
    ("triangle_rods", "rational", 1): "364ef5e6a77d2f7065adf637de74bf4a65478c78c103369515509d4bd2e3829a",
    ("triangle_rods", "rational", 42): "5f319ec37e87de6fafbb9766c9b7598441a9f33b9ad8d262020a112d22af4a05",
}


@pytest.mark.parametrize("geometry,field_name,seed", sorted(CONE_GOLDEN))
def test_golden_cone_extensions(request, geometry, field_name, seed):
    field = DEFAULT_FIELD if field_name == "zp" else RATIONALS
    g = request.getfixturevalue(geometry)
    extended = realize_cone(g, sample_realization(g, seed, field=field), seed)
    digest = hashlib.sha256(repr(extended).encode()).hexdigest()
    assert digest == CONE_GOLDEN[(geometry, field_name, seed)]


@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize("field", [DEFAULT_FIELD, RATIONALS], ids=["zp", "rational"])
def test_cone_points_do_not_replay_the_slopes(fig2, field, seed):
    # drawn from the sampler's stream for `seed`, the cone point of line l
    # would be the pair of slopes (f_2l, f_2l+1)
    rho = sample_realization(fig2, seed, field=field)
    extended = realize_cone(fig2, rho, seed)
    cone_points = set(zip(extended.xs[fig2.num_points:], extended.ys[fig2.num_points:]))
    f = rho.slopes
    assert not cone_points & {(f[2 * l], f[2 * l + 1]) for l in range(len(f) // 2)}


# sha256 of repr(full_kernel_sample(geometry, seed, field)): the digests the
# full-kernel sampler gave while it was the package's sample_realization.
REFERENCE_GOLDEN = {
    ("fig2", "zp", 0): "2459059d36ffecbebeb4cbd836c13681408254633447711a109120d75f3184e9",
    ("fig2", "zp", 1): "7284b4b4e78bc9f7cd654c8bf600bf9281d6285f21a4daf5d5ca7cfe7ee8be60",
    ("fig2", "zp", 42): "1d9bcb9cfc09904cb4cf26c0568f18aaa2e3457c46496c1a288c65b091dc704c",
    ("fig2", "rational", 0): "d2c95e220c5142745f3a7ab2f1950a744cec3644a9fe563c14d0d0783c605a36",
    ("fig2", "rational", 1): "cb2dc02684ce2502d707569bb01dea52e90e44498e3f4ea83cb00dcd71ca0e04",
    ("fig2", "rational", 42): "2cd2d65f3dc9702cb19b90ea4e16718920eb2f8f360308f856c02662a08a11be",
    ("triangle_rods", "zp", 0): "041090751c66e3f9a3d0f319b5113307dbf35ed011d6b550771de9cee83581a7",
    ("triangle_rods", "zp", 1): "fba7e84f468679e960e9cd8b0c6c6b205b6fd32de87781850e3e0d5315737b0a",
    ("triangle_rods", "zp", 42): "df71357990e79996277de4ad00f4234cec6795ef54ce7aa40fc0543f157f7cda",
    ("triangle_rods", "rational", 0): "85e743bcea14e99ae67839457448d30da5325c2e3cacf1848b7c84078e926d51",
    ("triangle_rods", "rational", 1): "55f5160411ed44a4d9dfa68a9ba38541d0b925f776b39d537069b335aaf90fde",
    ("triangle_rods", "rational", 42): "26c04d3a5fdc22fdfe4b0e4d6bb704e3758a14a807f69aec3bd4a413347d0657",
}


@pytest.mark.parametrize("geometry,field_name,seed", sorted(REFERENCE_GOLDEN))
def test_full_kernel_reference_is_the_replaced_sampler(request, geometry, field_name, seed):
    field = DEFAULT_FIELD if field_name == "zp" else RATIONALS
    rho = full_kernel_sample(request.getfixturevalue(geometry), seed, field)
    digest = hashlib.sha256(repr(rho).encode()).hexdigest()
    assert digest == REFERENCE_GOLDEN[(geometry, field_name, seed)]


def _cone_rank(geometry, rho, seed):
    return string_config_rank(build_cone_incidence(geometry), realize_cone(geometry, rho, seed))


@pytest.mark.parametrize("field,count", [(DEFAULT_FIELD, 40), (RATIONALS, 10)],
                         ids=["mersenne", "rational"])
def test_intercept_sampler_matches_full_kernel_sampler(pappus, field, count):
    # Random geometries until `count` of them have no shared rod pair, as
    # many with points on three or four rods, and Pappus: the refusals must
    # be equal, and so must the cone ranks of every proper sample.
    rng = random.Random(3)
    corpus, unshared = [pappus], 0
    while unshared < count:
        g = reference_random_geometry(rng, 12, 8)
        unshared += not shares_two_points(g)
        corpus.append(g)
    corpus += [concurrent_geometry(rng, 8, 12) for _ in range(count)]
    on_three = 0
    for seed, g in enumerate(corpus):
        rho, ref = sample_realization(g, seed, field=field), full_kernel_sample(g, seed, field)
        assert isinstance(rho, Infeasible) == isinstance(ref, Infeasible)
        if isinstance(rho, Infeasible):
            assert rho == ref
            continue
        assert rho.satisfies(g) and rho.is_proper() and ref.is_proper()
        assert _cone_rank(g, rho, seed) == _cone_rank(g, ref, seed)
        on_three += any(len(rods) > 2 for rods in g.point_line_map())
    assert sample_realization(pappus, 0, field=field) == Infeasible(
        "all 32 sampled realizations collapsed distinct points")
    assert on_three > count // 2


def test_integer_rows_over_rationals_give_fraction_kernels():
    # Pivot inverses over Q are exact: 1 / 2 must be Fraction(1, 2), not 0.5.
    rows = [[2, 3, 0, 1], [0, 4, 6, 0]]
    kernel = matrix_kernel(rows, RATIONALS, 4)
    assert kernel == dense_kernel([[Fraction(v) for v in row] for row in rows], 4)
    assert all(type(v) is Fraction for vec in kernel for v in vec)
