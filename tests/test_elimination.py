"""The sparse exact elimination against a dense reference, and pinned samples.

`_eliminate` (read as a rank), `matrix_kernel` and `rank_of` must agree
with plain dense Gauss-Jordan elimination (tests/bruteforce.py) over both
default primes, a tiny prime where cancellations are frequent, and the
rationals.  The golden digests pin `sample_realization` and `realize_cone`
exactly: any change in pivot set, free columns, random draw order or the
type of a value changes them.
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
    PrimeField,
    RATIONALS,
    build_cone_incidence,
    matrix_kernel,
    rank_of,
    realize_cone,
    sample_realization,
)
from rodrigidity.analysis import random_geometry
from rodrigidity.oracle import ConcurrenceMatrix

from bruteforce import apply, dense_kernel, dense_rank, dense_rows
from conftest import sparse_rank

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
    cone = build_cone_incidence(random_geometry(rng, 6, 4)).geometry
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


# sha256 of repr(sample_realization(geometry, seed, field)), fixed from the
# dense-elimination implementation this one replaced.
GOLDEN = {
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


@pytest.mark.parametrize("geometry,field_name,seed", sorted(GOLDEN))
def test_golden_realizations(request, geometry, field_name, seed):
    field = DEFAULT_FIELD if field_name == "zp" else RATIONALS
    rho = sample_realization(request.getfixturevalue(geometry), seed, field=field)
    digest = hashlib.sha256(repr(rho).encode()).hexdigest()
    assert digest == GOLDEN[(geometry, field_name, seed)]


# sha256 of repr(realize_cone(cone, sample_realization(geometry, seed, field),
# seed)), fixed from the implementation that did its arithmetic through
# per-field methods.
CONE_GOLDEN = {
    ("fig2", "zp", 0): "2e5ffeda134ab1b9cf0452cb1fea9f480dd51ae35acc5cf996e5b10431d5c513",
    ("fig2", "zp", 1): "16f4d66ab924ad902d88f20cf53f9bcf19c512f94bdacd1bd14cde166f58cd8e",
    ("fig2", "zp", 42): "2af073724459ef032b316f31502b74114dce9720735891c14ae50c2fe3252bd9",
    ("fig2", "rational", 0): "e6a3884454518bdbbe1ec8b81c6c7f72faca75feb878ebcf8afb850c051b81b0",
    ("fig2", "rational", 1): "073c7ab0a239ac09c31f9f408a0819c32cb27854a7671eb5ef4b4a23bccc58be",
    ("fig2", "rational", 42): "c96f5d87cdc0b8ec87f98bd9896579ffc797caeddf79ffda016f2d85d14bd6f1",
    ("triangle_rods", "zp", 0): "cf8064fbd1a99f80287699d33bde00451d2a38ebdca11807bb4bf1312a7192e2",
    ("triangle_rods", "zp", 1): "0a4219078b3ade9660d49a5fb7f12f8dea06069465113d03228fe7bea69aade9",
    ("triangle_rods", "zp", 42): "beeb83b8124fd626edd8984abd053483c8c26c405a9d4270a836c4160c7094f5",
    ("triangle_rods", "rational", 0): "ddb78e386f9f628ccec1017f7e818a820d30ace4af1f31d756a036875978b871",
    ("triangle_rods", "rational", 1): "61a68c7cd61a13daf28ee5aef5cbb86760dcb09df3230c6176aae5643bee7d1b",
    ("triangle_rods", "rational", 42): "de6f734e72174244f53edaff3508eb03879d86f5065731cd13c4fbfe9cf45cfe",
}


@pytest.mark.parametrize("geometry,field_name,seed", sorted(CONE_GOLDEN))
def test_golden_cone_extensions(request, geometry, field_name, seed):
    field = DEFAULT_FIELD if field_name == "zp" else RATIONALS
    g = request.getfixturevalue(geometry)
    extended = realize_cone(build_cone_incidence(g), sample_realization(g, seed, field=field), seed)
    digest = hashlib.sha256(repr(extended).encode()).hexdigest()
    assert digest == CONE_GOLDEN[(geometry, field_name, seed)]


def test_integer_rows_over_rationals_give_fraction_kernels():
    # Pivot inverses over Q are exact: 1 / 2 must be Fraction(1, 2), not 0.5.
    rows = [[2, 3, 0, 1], [0, 4, 6, 0]]
    kernel = matrix_kernel(rows, RATIONALS, 4)
    assert kernel == dense_kernel([[Fraction(v) for v in row] for row in rows], 4)
    assert all(type(v) is Fraction for vec in kernel for v in vec)
