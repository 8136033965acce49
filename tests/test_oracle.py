from __future__ import annotations

import json
import random
import re
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
    build_cone_graph,
    build_cone_incidence,
    build_concurrence_matrix,
    decide_rod_rigidity,
    play,
    rank_of,
    realization_from_coords,
    realization_from_json,
    realization_to_json,
    realize_cone,
    sample_realization,
    serialize_geometry,
    shared_rod_pair,
    string_config_rank,
)
from rodrigidity import analysis, cli, oracle
from rodrigidity.oracle import is_string_config_rigid

from bruteforce import (apply, dense_rows, is_sharply_independent, minor_rank,
                        reference_random_geometry, shares_two_points)
from conftest import FIG2_COORDS, JSON_VALUES, concurrent_geometry, sparse_rank, with_examples
from paper_claims import (
    BudgetExceededError,
    is_regular,
    is_sharply_independent_fast,
    kernel_witnesses,
    trivial_realization,
)


def single_line(k: int) -> IncidenceGeometry:
    return IncidenceGeometry(k, (tuple(range(k)),))


def with_axis(rho: LinearRealization, axis: str, values: tuple) -> LinearRealization:
    """rho with its slopes, intercepts, xs or ys (the axis) set to values."""
    parts = {"slopes": rho.slopes, "intercepts": rho.intercepts, "xs": rho.xs, "ys": rho.ys}
    parts[axis] = values
    return LinearRealization(rho.field, **parts)


def off_by_one_intercept(rho: LinearRealization, line: int) -> LinearRealization:
    """rho with line `line` moved off every one of its points."""
    intercepts = list(rho.intercepts)
    intercepts[line] += 1
    return with_axis(rho, "intercepts", tuple(intercepts))


class TestRealizationFromCoords:
    def test_running_example_coordinates(self, fig2):
        rho = realization_from_coords(fig2, FIG2_COORDS)
        assert rho.satisfies(fig2)
        assert rho.is_proper()
        assert all(rho.slopes[l] * rho.xs[p] + rho.ys[p] + rho.intercepts[l] == 0
                   for p, l in fig2.incidences())
        # no rod is vertical, so the points are kept as given
        assert tuple(zip(rho.xs, rho.ys)) == FIG2_COORDS

    def test_non_collinear_coordinates_rejected(self, triangle_rods):
        coords = [(0, 0), (1, 0), (0, 1)]
        bent = IncidenceGeometry(3, ((0, 1, 2),))
        with pytest.raises(OracleError, match="does not lie on"):
            realization_from_coords(bent, coords)

    def test_vertical_line_turned_a_quarter(self):
        # the least rotation that turns the vertical rod away is t = 1, a
        # quarter turn: (0, 1) goes to (-1, 0)
        g = single_line(2)
        rho = realization_from_coords(g, [(0, 0), (0, 1)])
        assert (rho.xs, rho.ys, rho.slopes, rho.intercepts) == ((0, -1), (0, 0), (0,), (0,))
        assert rho.satisfies(g) and rho.is_proper()
        # rotation preserves the distance between the two points
        dx = rho.xs[0] - rho.xs[1]
        dy = rho.ys[0] - rho.ys[1]
        assert dx * dx + dy * dy == 1

    def test_least_rotation_clears_every_vertical_rod(self):
        # t = 0 keeps two rods vertical and t = 1 turns the other two
        # vertical, so the unit square turns by t = 2: cos -3/5, sin 4/5
        square = IncidenceGeometry(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        rho = realization_from_coords(square, [(0, 0), (1, 0), (1, 1), (0, 1)])
        assert rho.slopes == (Fraction(4, 3), Fraction(-3, 4), Fraction(4, 3), Fraction(-3, 4))
        assert rho.satisfies(square) and rho.is_proper()

    def test_coincident_points_in_either_order(self):
        g = single_line(3)
        first = realization_from_coords(g, [(0, 0), (0, 0), (1, 1)])
        second = realization_from_coords(g, [(0, 0), (1, 1), (0, 0)])
        assert first.slopes == second.slopes == (-1,)
        assert first.intercepts == second.intercepts == (0,)
        assert first.satisfies(g) and second.satisfies(g)

    def test_all_points_coincide_rejected(self):
        g = IncidenceGeometry(3, ((0, 1), (1, 2)))
        with pytest.raises(OracleError, match="every point of line 1 has the same coordinates"):
            realization_from_coords(g, [(0, 0), (1, 1), (1, 1)])

    def test_wrong_point_count_rejected(self, triangle_rods):
        with pytest.raises(OracleError, match="^coordinate count does not match the geometry$"):
            realization_from_coords(triangle_rods, [(0, 0), (1, 0)])


class TestTrivialRealization:
    def test_satisfies_but_not_proper(self, fig2):
        rho = trivial_realization(fig2)
        assert rho.satisfies(fig2)
        assert len(set(zip(rho.xs, rho.ys))) == 1
        assert not rho.is_proper()


class TestSatisfies:
    """`satisfies` over Q clears denominators; it must answer as the plain
    Fraction formula f_l*x_j + y_j + h_l == 0 does."""

    @staticmethod
    def plain(rho, geometry):
        return all(Fraction(rho.slopes[l]) * rho.xs[j] + rho.ys[j] + rho.intercepts[l] == 0
                   for j, l in geometry.incidences())

    @pytest.mark.parametrize("seed", range(4))
    def test_a_tiny_move_breaks_an_incidence(self, fig2, seed):
        rho = sample_realization(fig2, seed, field=RATIONALS)
        assert rho.satisfies(fig2) and self.plain(rho, fig2)
        eps = Fraction(1, 10**30)
        for axis, count in (("xs", fig2.num_points), ("ys", fig2.num_points),
                            ("slopes", fig2.num_lines), ("intercepts", fig2.num_lines)):
            for i in range(count):
                moved = list(getattr(rho, axis))
                moved[i] += eps
                other = with_axis(rho, axis, tuple(moved))
                assert not other.satisfies(fig2)
                assert not self.plain(other, fig2)

    def test_int_values_are_rationals_too(self, triangle_rods):
        # lines y = -x, y = x - 2 and y = 0 through (0, 0), (1, -1), (2, 0)
        rho = LinearRealization(RATIONALS, (1, -1, 0), (0, 2, 0), (0, 1, 2), (0, -1, 0))
        assert rho.satisfies(triangle_rods) and self.plain(rho, triangle_rods)
        mixed = LinearRealization(RATIONALS, (Fraction(1), -1, 0), (0, Fraction(2), 0),
                                  (0, Fraction(1), 2), (Fraction(0), -1, 0))
        assert mixed.satisfies(triangle_rods)
        off = LinearRealization(RATIONALS, (1, -1, 0), (0, 2, 0), (0, 1, 2), (0, -1, 1))
        assert not off.satisfies(triangle_rods) and not self.plain(off, triangle_rods)

    @pytest.mark.parametrize("field", [DEFAULT_FIELD, RATIONALS], ids=["zp", "rational"])
    def test_shape_mismatch_is_false(self, fig2, triangle_rods, field):
        rho = sample_realization(fig2, 0, field=field)
        assert rho.satisfies(fig2) and not rho.satisfies(triangle_rods)
        for axis in ("slopes", "intercepts", "xs", "ys"):
            assert not with_axis(rho, axis, getattr(rho, axis)[:-1]).satisfies(fig2)


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
        assert rho.reason == "rods 0 and 1 share points 0 and 1"

    @pytest.mark.parametrize("field", [DEFAULT_FIELD, RATIONALS], ids=["mersenne", "rational"])
    def test_pappus_collapses_every_draw(self, pappus, field):
        assert shared_rod_pair(pappus) is None
        rho = sample_realization(pappus, seed=3, field=field)
        assert rho == Infeasible("all 32 sampled realizations collapsed distinct points")

    @pytest.mark.parametrize("field", [DEFAULT_FIELD, PrimeField(ALTERNATE_PRIME), RATIONALS],
                             ids=["mersenne", "alternate", "rational"])
    def test_shared_pair_refused_before_elimination(self, field, monkeypatch):
        def refuse(rows, field):
            raise AssertionError("eliminated a geometry with a shared rod pair")

        monkeypatch.setattr(oracle, "_eliminate", refuse)
        rng = random.Random(5)
        corpus = [IncidenceGeometry(3, ((0, 1), (1, 2), (0, 2), (1, 0)))]
        while len(corpus) < 20:
            g = reference_random_geometry(rng)
            if shares_two_points(g):
                corpus.append(g)
        for seed, g in enumerate(corpus):
            rho = sample_realization(g, seed=seed, field=field)
            assert isinstance(rho, Infeasible)
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

    @pytest.mark.parametrize("name,p", [("triangle_rods", 2), ("hinge", 2), ("fig2", 2),
                                        ("pappus", 2), ("triangle_rods", 3)],
                             ids=["triangle_rods", "hinge", "fig2", "pappus", "triangle_rods-z3"])
    def test_one_slope_field_redraws_until_refused(self, request, name, p, monkeypatch):
        # Every unit of Z_2 is 1, and Z_3 has two units for the triangle's
        # three pairwise meeting rods, so rods through a common point always
        # get the same slope: all draws are redrawn, none reaches an elimination.
        eliminations = []
        real = oracle._eliminate
        monkeypatch.setattr(oracle, "_eliminate",
                            lambda rows, field: eliminations.append(field) or real(rows, field))
        rho = sample_realization(request.getfixturevalue(name), seed=11, field=PrimeField(p))
        assert rho == Infeasible(
            "all 32 slope draws gave two rods through a common point the same slope")
        assert not eliminations

    def test_four_units_place_the_triangle(self, triangle_rods):
        rho = sample_realization(triangle_rods, seed=11, field=PrimeField(5))
        assert not isinstance(rho, Infeasible) and rho.satisfies(triangle_rods) and rho.is_proper()

    @pytest.mark.parametrize("p", [7, 101])
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_small_fields_refuse_or_realize(self, p, seed, concurrent):
        # Equal slopes and cancellations are common here; a sample is still
        # a proper realization, or the geometry is refused.
        rng = random.Random(seed)
        g = concurrent_geometry(rng, 6, 8) if concurrent else reference_random_geometry(rng, 8, 6)
        rho = sample_realization(g, seed, field=PrimeField(p))
        if not isinstance(rho, Infeasible):
            assert rho.satisfies(g) and rho.is_proper()


class TestRank:
    def test_zero_matrix(self):
        rows = [[0, 0, 0], [0, 0, 0]]
        assert sparse_rank(rows, DEFAULT_FIELD) == 0
        assert sparse_rank([[Fraction(0)] * 3] * 2, RATIONALS) == 0

    def test_realization_of_another_shape_refused(self, fig2, triangle_rods):
        rho = sample_realization(triangle_rods, seed=5)
        with pytest.raises(OracleError, match="^realization shape does not match the geometry$"):
            build_concurrence_matrix(fig2, rho)

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
        ext = realize_cone(fig2, rho, seed=7)
        assert ext.satisfies(sc)
        assert ext.is_proper()
        assert ext.xs[:7] == rho.xs and ext.ys[:7] == rho.ys
        # cone points sit off their lines, and no spoke is parallel to its base line
        p, P, L = rho.field.p, fig2.num_points, fig2.num_lines
        for line in range(L):
            c = P + line
            res = rho.slopes[line] * ext.xs[c] + ext.ys[c] + rho.intercepts[line]
            assert res % p != 0
        # spoke k is line L + k, (point, cone point of its line)
        for k, (_point, c) in enumerate(sc.lines[L:]):
            assert ext.slopes[L + k] != rho.slopes[c - P]

    def test_many_seeds_on_a_single_line(self):
        g = single_line(2)
        sc = build_cone_incidence(g)
        for seed in range(100):
            rho = sample_realization(g, seed=seed)
            ext = realize_cone(g, rho, seed=seed)
            assert ext.satisfies(sc) and ext.is_proper()
            for k, (_point, c) in enumerate(sc.lines[1:]):
                assert ext.slopes[1 + k] != rho.slopes[c - g.num_points]

    def test_requires_proper_input(self, fig2):
        with pytest.raises(OracleError, match="proper"):
            realize_cone(fig2, trivial_realization(fig2), seed=0)

    def test_refuses_a_missed_incidence(self, fig2):
        rho = off_by_one_intercept(sample_realization(fig2, seed=7), 0)
        assert rho.is_proper()
        with pytest.raises(OracleError, match="^realization does not satisfy the geometry$"):
            realize_cone(fig2, rho, seed=7)

    # One rod, x + y = 0 over Z_7, through (1, 6) and (2, 5).  The cone
    # point's draws are scripted: the first pair is redrawn for the reason
    # named, and (3, 3) then fits.
    SEGMENT = IncidenceGeometry(2, [(0, 1)])
    SEGMENT_Z7 = LinearRealization(PrimeField(7), (1,), (0,), (1, 2), (6, 5))

    @pytest.mark.parametrize("draw", [(1, 6), (3, 4), (1, 2)],
                             ids=["taken-point", "on-the-line", "vertical-spoke"])
    def test_redraws_a_cone_point_that_does_not_fit(self, draw, monkeypatch):
        draws = iter([*draw, 3, 3])
        monkeypatch.setattr(PrimeField, "random_unit", lambda field, rng: next(draws))
        ext = realize_cone(self.SEGMENT, self.SEGMENT_Z7, seed=0)
        assert (ext.xs[2], ext.ys[2]) == (3, 3)
        assert next(draws, None) is None
        assert ext.satisfies(build_cone_incidence(self.SEGMENT)) and ext.is_proper()

    def test_refuses_when_no_cone_point_fits(self, monkeypatch):
        # (1, 1) would make a vertical spoke, every time
        monkeypatch.setattr(PrimeField, "random_unit", lambda field, rng: 1)
        assert realize_cone(self.SEGMENT, self.SEGMENT_Z7, seed=0) == Infeasible(
            "could not place the cone point of line 0 off the line")


class TestStringConfigRigidity:
    def test_triangle_is_rigid(self, triangle_rods):
        sc = build_cone_incidence(triangle_rods)
        rho = sample_realization(triangle_rods, seed=8)
        assert is_string_config_rigid(sc, realize_cone(triangle_rods, rho, seed=8))

    def test_single_line_three_points_is_rigid(self):
        g = single_line(3)
        sc = build_cone_incidence(g)
        rho = sample_realization(g, seed=9)
        ext = realize_cone(g, rho, seed=9)
        assert is_string_config_rigid(sc, ext)
        m = build_concurrence_matrix(sc, ext)
        assert rank_of(m) == 4 + 8 - 3

    def test_hinge_is_flexible_with_deficit_one(self, hinge):
        sc = build_cone_incidence(hinge)
        rho = sample_realization(hinge, seed=10)
        ext = realize_cone(hinge, rho, seed=10)
        assert not is_string_config_rigid(sc, ext)
        m = build_concurrence_matrix(sc, ext)
        assert rank_of(m) == sc.num_lines + 2 * sc.num_points - 4
        assert play(5, *build_cone_graph(hinge)).remaining_pebbles == 4

    def test_refuses_non_proper(self, triangle_rods):
        sc = build_cone_incidence(triangle_rods)
        bad = trivial_realization(sc)
        with pytest.raises(OracleError, match="proper"):
            is_string_config_rigid(sc, bad)

    def test_refuses_a_missed_incidence(self, fig2):
        sc = build_cone_incidence(fig2)
        ext = realize_cone(fig2, sample_realization(fig2, seed=7), seed=7)
        bad = off_by_one_intercept(ext, fig2.num_lines)  # the first spoke
        assert bad.is_proper()
        with pytest.raises(OracleError,
                           match="^realization does not satisfy the cone incidence geometry$"):
            string_config_rank(sc, bad)


class TestEachSampleCheckedOnce:
    """A sample is checked by realize_cone, which receives it, and its
    extension by string_config_rank: two `satisfies` calls per proper
    sample, none for a refused geometry."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"satisfies": 0, "proper": 0}
        satisfies = LinearRealization.satisfies

        def counted_satisfies(rho, geometry):
            counts["satisfies"] += 1
            return satisfies(rho, geometry)

        def counted_sample(*args, **kwargs):
            rho = sample_realization(*args, **kwargs)
            counts["proper"] += not isinstance(rho, Infeasible)
            return rho

        monkeypatch.setattr(LinearRealization, "satisfies", counted_satisfies)
        monkeypatch.setattr(analysis, "sample_realization", counted_sample)
        monkeypatch.setattr(cli, "sample_realization", counted_sample)
        return counts

    @pytest.mark.parametrize("name,proper", [("fig2", 1), ("hinge", 1), ("pappus", 0)])
    @pytest.mark.parametrize("field", [DEFAULT_FIELD, RATIONALS], ids=["zp", "rational"])
    def test_cross_validated_decide(self, request, counts, name, proper, field):
        verdict = decide_rod_rigidity(request.getfixturevalue(name), cross_validate=True,
                                      seed=3, field=field)
        assert counts["proper"] == len(verdict.algebraic or ()) == proper
        assert counts["satisfies"] == 2 * proper

    @pytest.mark.parametrize("field", ["zp", "rational"])
    def test_oracle_command(self, fig2, tmp_path, capsys, counts, field):
        path = tmp_path / "fig2.geo"
        path.write_text(serialize_geometry(fig2))
        assert cli.main(["oracle", str(path), "--field", field]) == 0
        assert capsys.readouterr().out.startswith("rigid")
        assert counts == {"satisfies": 2, "proper": 1}


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
            is_sharply_independent(sc, sc.incidences())

    def test_rejects_foreign_incidence(self, fig2):
        with pytest.raises(Exception, match="not part"):
            is_sharply_independent(fig2, [(6, 0)])

    def test_fast_matches_bruteforce(self):
        rng = random.Random(13)
        for _ in range(120):
            g = reference_random_geometry(rng, max_points=6, max_lines=4)
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
        ext = realize_cone(fig2, rho, seed=15)
        with pytest.raises(BudgetExceededError):
            is_regular(sc, ext)


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
    # int() reads these as 10, 3, 12 and 2**61 - 1
    {"field": "zp", "p": "7", "slopes": ["1_0"], "intercepts": ["+3"], "points": [["\u0661\u0662", "0"]]},
    {"field": "zp", "p": "2_305_843_009_213_693_951", "slopes": [], "intercepts": [], "points": []},
    {"field": "rational", "slopes": [["1_0", "1"]], "intercepts": [[" 3", "1"]], "points": []},
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

    # the text format reads none of these, and int() all but '-' and ''
    @pytest.mark.parametrize("text", ["1_0", "+3", "\u0661\u0662", " 3", "3\n", "-", "",
                                      "2_305_843_009_213_693_951"])
    def test_integer_strings_the_text_format_refuses_are_refused(self, text):
        for doc in (
            {"field": "zp", "p": "7", "slopes": [text], "intercepts": ["0"], "points": []},
            {"field": "zp", "p": text, "slopes": [], "intercepts": [], "points": []},
            {"field": "rational", "slopes": [], "intercepts": [],
             "points": [[["0", "1"], ["1", text]]]},
        ):
            with pytest.raises(OracleError, match="bad realization document"):
                realization_from_json(doc)

    def test_integer_strings_read_as_written(self):
        doc = {"field": "zp", "p": "7", "slopes": ["-3", "0012"], "intercepts": [-3, 12],
               "points": []}
        assert realization_from_json(doc).slopes == realization_from_json(doc).intercepts == (4, 5)

    # "0" must not read as the rationals, whose p is 0; 561 is a Carmichael number.
    @pytest.mark.parametrize("p", ["-7", "0", "1", "4", 0, 561, str(MERSENNE_PRIME + 2)])
    def test_modulus_that_is_not_prime_refused(self, p):
        doc = {"field": "zp", "p": p, "slopes": ["1"], "intercepts": ["0"], "points": [["0", "0"]]}
        with pytest.raises(OracleError, match="prime"):
            realization_from_json(doc)
        with pytest.raises(ValueError, match="prime"):
            PrimeField(int(p))

    # Neither has a factor among the bases, so Miller-Rabin must find the
    # witness: 2021 = 43 * 47 fails at base 2, and 3215031751 =
    # 151 * 751 * 28351, a strong pseudoprime to bases 2, 3, 5 and 7, at 11.
    @pytest.mark.parametrize("n", [2021, 3215031751])
    def test_composite_that_only_miller_rabin_finds(self, n):
        assert not oracle._is_prime(n)
        with pytest.raises(ValueError, match=f"^a prime field needs a prime p, got {n}$"):
            PrimeField(n)

    # psi_13 is composite, yet a strong pseudoprime to every base _is_prime
    # tries; 2**89 - 1 is prime, but past the bound as well
    @pytest.mark.parametrize("p", [1287836182261 * 2575672364521, 2**89 - 1],
                             ids=["psi13", "mersenne89"])
    def test_modulus_past_the_exact_primality_bound_refused(self, p):
        bound = "p below 3317044064679887385961981"
        with pytest.raises(ValueError, match=bound):
            PrimeField(p)
        doc = {"field": "zp", "p": str(p), "slopes": ["1"], "intercepts": ["0"], "points": [["0", "0"]]}
        with pytest.raises(OracleError, match=f"bad realization document: .*{bound}"):
            realization_from_json(doc)
        assert oracle._is_prime(p)

    # a float or a Fraction once built a field whose inverses pow() refused
    @pytest.mark.parametrize("p", [7.0, Fraction(7), True], ids=["float", "fraction", "bool"])
    def test_modulus_that_is_not_an_int_refused(self, p):
        with pytest.raises(ValueError, match="a prime field needs an int p"):
            PrimeField(p)

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
        # format says: integers (or strings of ASCII digits after an optional
        # '-', as the text format reads them) over Z_p, [numerator,
        # denominator] lists over Q, and one two-element list per point.
        try:
            rho = realization_from_json(doc)
        except OracleError:
            return
        assert isinstance(rho, LinearRealization)

        def integer(v):
            if isinstance(v, str):
                return re.fullmatch("-?[0-9]+", v) is not None
            return isinstance(v, int) and not isinstance(v, bool)

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
