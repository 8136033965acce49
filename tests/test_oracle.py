from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodrigidity import (
    ALTERNATE_PRIME,
    DEFAULT_FIELD,
    IncidenceGeometry,
    Infeasible,
    LinearRealization,
    MERSENNE_PRIME,
    OracleError,
    PrimeField,
    RATIONALS,
    VerticalLineError,
    build_cone_graph,
    build_cone_incidence,
    build_concurrence_matrix,
    is_string_config_rigid,
    play,
    rank_of,
    realization_from_coords,
    realization_from_json,
    realization_to_json,
    realize_cone,
    sample_realization,
    shared_rod_pair,
)
from rodrigidity import oracle
from rodrigidity.analysis import random_geometry

from bruteforce import apply, dense_rows, is_sharply_independent, minor_rank, shares_two_points
from conftest import FIG2_COORDS, JSON_VALUES, sparse_rank, with_examples
from paper_claims import (
    BudgetExceededError,
    is_regular,
    is_sharply_independent_fast,
    kernel_witnesses,
    trivial_realization,
)


def single_line(k: int) -> IncidenceGeometry:
    return IncidenceGeometry(k, (tuple(range(k)),))


class TestRealizationFromCoords:
    def test_running_example_coordinates(self, fig2):
        rho = realization_from_coords(fig2, FIG2_COORDS)
        assert rho.satisfies(fig2)
        assert rho.is_proper()
        assert all(rho.slopes[l] * rho.xs[p] + rho.ys[p] + rho.intercepts[l] == 0
                   for p, l in fig2.incidences())

    def test_non_collinear_coordinates_rejected(self, triangle_rods):
        coords = [(0, 0), (1, 0), (0, 1)]
        bent = IncidenceGeometry(3, ((0, 1, 2),))
        with pytest.raises(OracleError, match="does not lie on"):
            realization_from_coords(bent, coords)

    def test_vertical_line_rejected_then_rotated(self):
        g = single_line(2)
        coords = [(0, 0), (0, 1)]
        with pytest.raises(VerticalLineError):
            realization_from_coords(g, coords)
        rho = realization_from_coords(g, coords, rotate_if_vertical=True)
        assert rho.satisfies(g) and rho.is_proper()
        # rotation preserves the distance between the two points
        dx = rho.xs[0] - rho.xs[1]
        dy = rho.ys[0] - rho.ys[1]
        assert dx * dx + dy * dy == 1


class TestTrivialRealization:
    def test_satisfies_but_not_proper(self, fig2):
        rho = trivial_realization(fig2)
        assert rho.satisfies(fig2)
        assert len(set(zip(rho.xs, rho.ys))) == 1
        assert not rho.is_proper()


class TestSampling:
    @pytest.mark.parametrize("field", [DEFAULT_FIELD, RATIONALS])
    def test_triangle(self, triangle_rods, field):
        rho = sample_realization(triangle_rods, seed=1, field=field)
        assert not isinstance(rho, Infeasible)
        assert rho.satisfies(triangle_rods)
        assert rho.is_proper()

    def test_running_example(self, fig2):
        rho = sample_realization(fig2, seed=2)
        assert not isinstance(rho, Infeasible)
        assert rho.is_proper()

    def test_forced_coincidence_is_infeasible(self, two_point_three_lines):
        rho = sample_realization(two_point_three_lines, seed=3)
        assert isinstance(rho, Infeasible)
        assert rho.attempts == 0
        assert rho.reason == "rods 0 and 1 share points 0 and 1"

    @pytest.mark.parametrize("field", [DEFAULT_FIELD, PrimeField(ALTERNATE_PRIME), RATIONALS],
                             ids=["mersenne", "alternate", "rational"])
    def test_shared_pair_refused_before_elimination(self, field, monkeypatch):
        def refuse(rows, field):
            raise AssertionError("eliminated a geometry with a shared rod pair")

        monkeypatch.setattr(oracle, "_eliminate", refuse)
        rng = random.Random(5)
        corpus = [IncidenceGeometry(3, ((0, 1), (1, 2), (0, 2), (1, 0)))]
        while len(corpus) < 20:
            g = random_geometry(rng)
            if shares_two_points(g):
                corpus.append(g)
        for seed, g in enumerate(corpus):
            rho = sample_realization(g, seed=seed, field=field)
            assert isinstance(rho, Infeasible) and rho.attempts == 0
            assert rho.reason == "rods {} and {} share points {} and {}".format(*shared_rod_pair(g))
        with pytest.raises(AssertionError, match="eliminated"):  # the patch does intercept
            sample_realization(IncidenceGeometry(3, ((0, 1), (1, 2), (0, 2))), seed=0, field=field)

    def test_no_lines_all_points_free(self):
        g = IncidenceGeometry(3, ())
        rho = sample_realization(g, seed=4)
        assert not isinstance(rho, Infeasible)
        assert rho.is_proper()

    def test_deterministic_in_seed(self, fig2):
        assert sample_realization(fig2, seed=9) == sample_realization(fig2, seed=9)


class TestRank:
    def test_zero_matrix(self):
        rows = [[0, 0, 0], [0, 0, 0]]
        assert sparse_rank(rows, DEFAULT_FIELD) == 0
        assert sparse_rank([[Fraction(0)] * 3] * 2, RATIONALS) == 0

    def test_triangle_reaches_max_rank(self, triangle_rods):
        rho = sample_realization(triangle_rods, seed=5, field=RATIONALS)
        m = build_concurrence_matrix(triangle_rods, rho)
        assert rank_of(m) == 6 == triangle_rods.num_lines + 2 * triangle_rods.num_points - 3
        assert minor_rank(dense_rows(m)) == 6

    def test_matrix_depends_only_on_slopes(self):
        # One line through two points: twice the same (f, 1, 1) row pattern on
        # disjoint coordinate columns, so the rank is 2 even for the trivial
        # realization (the matrix never sees the coordinates).
        g = single_line(2)
        rho = trivial_realization(g)
        m = build_concurrence_matrix(g, rho)
        assert rank_of(m) == 2 == minor_rank(dense_rows(m))

    def test_kernel_contains_translations_and_dilation(self, fig2):
        for field in (DEFAULT_FIELD, RATIONALS):
            rho = sample_realization(fig2, seed=6, field=field)
            m = build_concurrence_matrix(fig2, rho)
            zero = field.zero
            for witness in kernel_witnesses(fig2, rho):
                assert all(v == zero for v in apply(m, witness))
            assert rank_of(m) <= fig2.num_lines + 2 * fig2.num_points - 3

    def test_field_agnostic_rank(self, fig2):
        second = PrimeField(ALTERNATE_PRIME)
        rng = random.Random(10)
        for _ in range(20):
            rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(rng.randint(1, 6))]
            expected = sparse_rank([[Fraction(v) for v in row] for row in rows], RATIONALS)
            assert sparse_rank([[v % MERSENNE_PRIME for v in row] for row in rows], DEFAULT_FIELD) == expected
            assert sparse_rank([[v % ALTERNATE_PRIME for v in row] for row in rows], second) == expected
            assert minor_rank(rows) == expected

    def test_adding_rows_never_decreases_rank(self):
        rng = random.Random(11)
        for _ in range(10):
            rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(6)]
            ranks = [sparse_rank([[Fraction(v) for v in r] for r in rows[:k]], RATIONALS)
                     for k in range(1, 7)]
            assert all(a <= b for a, b in zip(ranks, ranks[1:]))


class TestRealizeCone:
    def test_running_example_extension(self, fig2):
        rho = sample_realization(fig2, seed=7)
        sc = build_cone_incidence(fig2)
        ext = realize_cone(sc, rho, seed=7)
        assert ext.satisfies(sc.geometry)
        assert ext.is_proper()
        assert ext.xs[:7] == rho.xs and ext.ys[:7] == rho.ys
        # cone points sit off their lines, and no spoke is parallel to its base line
        p = rho.field.p
        for line in range(fig2.num_lines):
            c = sc.cone_point(line)
            res = rho.slopes[line] * ext.xs[c] + ext.ys[c] + rho.intercepts[line]
            assert res % p != 0
        for k, (line, _point) in enumerate(sc.spoke_of):
            assert ext.slopes[sc.base.num_lines + k] != rho.slopes[line]

    def test_many_seeds_on_a_single_line(self):
        g = single_line(2)
        sc = build_cone_incidence(g)
        for seed in range(100):
            rho = sample_realization(g, seed=seed)
            ext = realize_cone(sc, rho, seed=seed)
            assert ext.satisfies(sc.geometry) and ext.is_proper()
            for k, (line, _point) in enumerate(sc.spoke_of):
                assert ext.slopes[sc.base.num_lines + k] != rho.slopes[line]

    def test_requires_proper_input(self, fig2):
        with pytest.raises(OracleError, match="proper"):
            realize_cone(build_cone_incidence(fig2), trivial_realization(fig2), seed=0)


class TestStringConfigRigidity:
    def test_triangle_is_rigid(self, triangle_rods):
        sc = build_cone_incidence(triangle_rods)
        rho = sample_realization(triangle_rods, seed=8)
        assert is_string_config_rigid(sc, realize_cone(sc, rho, seed=8))

    def test_single_line_three_points_is_rigid(self):
        g = single_line(3)
        sc = build_cone_incidence(g)
        rho = sample_realization(g, seed=9)
        ext = realize_cone(sc, rho, seed=9)
        assert is_string_config_rigid(sc, ext)
        m = build_concurrence_matrix(sc.geometry, ext)
        assert rank_of(m) == 4 + 8 - 3

    def test_hinge_is_flexible_with_deficit_one(self, hinge):
        sc = build_cone_incidence(hinge)
        rho = sample_realization(hinge, seed=10)
        ext = realize_cone(sc, rho, seed=10)
        assert not is_string_config_rigid(sc, ext)
        m = build_concurrence_matrix(sc.geometry, ext)
        g = sc.geometry
        assert rank_of(m) == g.num_lines + 2 * g.num_points - 4
        cone_graph = build_cone_graph(hinge)
        assert play(cone_graph.num_vertices, cone_graph.edges).remaining_pebbles == 4

    def test_refuses_non_proper(self, triangle_rods):
        sc = build_cone_incidence(triangle_rods)
        bad = trivial_realization(sc.geometry)
        with pytest.raises(OracleError, match="proper"):
            is_string_config_rigid(sc, bad)


class TestSharpIndependence:
    def test_single_line_three_points(self):
        g = single_line(3)
        assert is_sharply_independent(g, g.incidences())

    def test_two_points_three_lines_fails(self, two_point_three_lines):
        g = two_point_three_lines
        assert not is_sharply_independent(g, g.incidences())
        assert not is_sharply_independent_fast(g, g.incidences())

    def test_budget(self, fig2):
        sc = build_cone_incidence(fig2)
        with pytest.raises(BudgetExceededError):
            is_sharply_independent(sc.geometry, sc.geometry.incidences())

    def test_rejects_foreign_incidence(self, fig2):
        with pytest.raises(Exception, match="not part"):
            is_sharply_independent(fig2, [(6, 0)])

    def test_fast_matches_bruteforce(self):
        rng = random.Random(13)
        for _ in range(120):
            g = random_geometry(rng, max_points=6, max_lines=4)
            incs = list(g.incidences())
            if len(incs) > 14:
                continue
            subset = rng.sample(incs, rng.randint(1, len(incs)))
            assert is_sharply_independent(g, subset) == is_sharply_independent_fast(g, subset)


class TestRegularity:
    def test_sampled_triangle_realizations_are_regular(self, triangle_rods):
        for seed in (1, 2, 3):
            rho = sample_realization(triangle_rods, seed=seed)
            assert is_regular(triangle_rods, rho)

    def test_trivial_realization_is_irregular(self, triangle_rods):
        # With one shared slope the six rows of the full (sharply independent)
        # incidence set become dependent, so regularity fails.
        rho = trivial_realization(triangle_rods)
        assert is_sharply_independent(triangle_rods, triangle_rods.incidences())
        assert not is_regular(triangle_rods, rho)

    def test_single_line_regular_even_when_trivial(self):
        # every sharply independent subset here is a pencil through one point
        # or the full pair, whose rows are independent for any slopes
        g = single_line(2)
        assert is_regular(g, trivial_realization(g))
        assert is_regular(g, sample_realization(g, seed=14))

    def test_budget(self, fig2):
        sc = build_cone_incidence(fig2)
        rho = sample_realization(fig2, seed=15)
        ext = realize_cone(sc, rho, seed=15)
        with pytest.raises(BudgetExceededError):
            is_regular(sc.geometry, ext)


# Integers, their decimal strings, [numerator, denominator] pairs and noise.
_INTEGERS = st.integers(-9, 9) | st.integers(-9, 9).map(str)
JSON_NUMBERS = _INTEGERS | st.lists(_INTEGERS, min_size=2, max_size=2) | JSON_VALUES

# Each of these was once read: strings split into digits, a float truncated,
# true taken for 1.
MISTYPED_REALIZATIONS = [
    {"field": "zp", "p": "7", "slopes": [], "intercepts": [], "points": ["12", "34"]},
    {"field": "zp", "p": "7", "slopes": "12", "intercepts": "34", "points": []},
    {"field": "rational", "slopes": ["12"], "intercepts": ["34"],
     "points": [[["1", "2"], ["3", "4"]], [["5", "6"], ["7", "8"]]]},
    {"field": "zp", "p": 7.9, "slopes": [1.5], "intercepts": [True], "points": [[0, 1]]},
]


class TestSerialization:
    def test_json_round_trip_rational(self, fig2):
        rho = realization_from_coords(fig2, FIG2_COORDS)
        doc = json.loads(json.dumps(realization_to_json(rho)))
        assert realization_from_json(doc) == rho

    def test_json_round_trip_prime_field(self, fig2):
        rho = sample_realization(fig2, seed=16)
        doc = json.loads(json.dumps(realization_to_json(rho)))
        assert realization_from_json(doc) == rho

    def test_bad_document(self):
        with pytest.raises(OracleError):
            realization_from_json({"field": "octonion"})

    # "0" must not read as the rationals, whose p is 0; 561 is a Carmichael number.
    @pytest.mark.parametrize("p", ["-7", "0", "1", "4", 0, 561, str(MERSENNE_PRIME + 2)])
    def test_modulus_that_is_not_prime_refused(self, p):
        doc = {"field": "zp", "p": p, "slopes": ["1"], "intercepts": ["0"], "points": [["0", "0"]]}
        with pytest.raises(OracleError, match="prime"):
            realization_from_json(doc)
        with pytest.raises(ValueError, match="prime"):
            PrimeField(int(p))

    @settings(max_examples=300)
    @with_examples(MISTYPED_REALIZATIONS)
    @given(JSON_VALUES | st.fixed_dictionaries({
        "field": st.sampled_from(["zp", "rational"]) | JSON_VALUES,
        "p": st.sampled_from(["7", 7, str(MERSENNE_PRIME)]) | JSON_VALUES,
        "slopes": st.lists(JSON_NUMBERS, max_size=3) | JSON_VALUES,
        "intercepts": st.lists(JSON_NUMBERS, max_size=3) | JSON_VALUES,
        "points": st.lists(st.lists(JSON_NUMBERS, min_size=2, max_size=2) | JSON_VALUES,
                           max_size=3) | JSON_VALUES,
    }))
    def test_json_reader_refuses_or_reads_as_written(self, doc):
        # A document is either refused with OracleError or was written as the
        # format says: integers (or strings of them) over Z_p, [numerator,
        # denominator] lists over Q, and one two-element list per point.
        try:
            rho = realization_from_json(doc)
        except OracleError:
            return
        assert isinstance(rho, LinearRealization)

        def integer(v):
            return isinstance(v, (int, str)) and not isinstance(v, bool)

        def number(v):
            if doc["field"] == "zp":
                return integer(v)
            return isinstance(v, list) and len(v) == 2 and all(map(integer, v))

        assert doc["field"] == "rational" or integer(doc["p"])
        for key in ("slopes", "intercepts", "points"):
            assert isinstance(doc[key], list)
        assert all(map(number, doc["slopes"] + doc["intercepts"]))
        assert all(isinstance(pt, list) and len(pt) == 2 and all(map(number, pt))
                   for pt in doc["points"])
        assert rho.num_points == len(doc["points"])
