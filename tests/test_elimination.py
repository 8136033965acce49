"""The sparse exact elimination against a dense reference, and pinned samples.

`matrix_rank`, `matrix_kernel` and `rank_of` must agree with plain dense
Gauss-Jordan elimination (tests/bruteforce.py) over both default primes, a
tiny prime where cancellations are frequent, and the rationals.  The golden
digests pin `sample_realization` exactly: any change in pivot set, free
columns or random draw order changes them.
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
    matrix_rank,
    rank_of,
    sample_realization,
)
from rodrigidity.analysis import random_geometry
from rodrigidity.oracle import ConcurrenceMatrix

from bruteforce import apply, dense_kernel, dense_rank, dense_rows

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
    rank = matrix_rank(rows, field)
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
    assert matrix_rank(rows, field) == rank
    kernel = matrix_kernel(rows, field, ncols)
    assert len(kernel) == ncols - rank
    zero = field.zero()
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
