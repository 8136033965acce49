from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest

from rodrigidity import (
    CampaignError,
    CampaignReport,
    GeometryError,
    IncidenceGeometry,
    Infeasible,
    OracleDisagreementError,
    PrimeField,
    build_cone_graph,
    build_cone_incidence,
    build_concurrence_matrix,
    canonical_edge_order,
    canonical_subgraph,
    decide_minimal_rigidity,
    decide_rod_rigidity,
    play,
    random_geometry,
    rank_of,
    realize_cone,
    remove_line,
    sample_realization,
    shared_rod_pair,
    verdict_to_json,
)
from rodrigidity.analysis import minimal_report_to_json
from rodrigidity.oracle import DEFAULT_FIELD, RATIONALS, is_string_config_rigid

from bruteforce import (
    deletion_rigid_by_redecide,
    reference_draw,
    reference_random_geometry,
    shares_two_points,
)
from conftest import arrangement, plant_dropped_spoke, plant_pebble_shift, plant_rank_shift
from paper_claims import (
    BudgetExceededError,
    check_body_joint_counts,
    cone_graph_with_inner,
    derive_subgeometry,
    inner_choice_classifications,
    is_regular,
    is_sharply_independent_fast,
    restrict_realization,
)


def single_line(k: int) -> IncidenceGeometry:
    return IncidenceGeometry(k, (tuple(range(k)),))


class TestDecideRodRigidity:
    def test_running_example_is_rigid(self, fig2):
        v = decide_rod_rigidity(fig2)
        assert v.is_rigid
        assert len(v.pebble.accepted) == 19
        assert v.remaining_pebbles == 3
        assert v.classification == "rigid-redundant"

    def test_hinge_has_one_degree_of_freedom(self, hinge):
        v = decide_rod_rigidity(hinge)
        assert not v.is_rigid
        assert v.remaining_pebbles == 4
        assert v.degrees_of_freedom == 1

    @pytest.mark.parametrize("k", range(2, 6))
    def test_a_lone_rod_is_rigid(self, k):
        assert decide_rod_rigidity(single_line(k)).is_rigid

    def test_disconnected_is_flexible(self):
        g = IncidenceGeometry(4, ((0, 1), (2, 3)))
        v = decide_rod_rigidity(g)
        assert not v.connected and not v.is_rigid

    @pytest.mark.parametrize("field", [DEFAULT_FIELD, RATIONALS], ids=["zp", "rational"])
    @pytest.mark.parametrize("points,lines,algebraic", [
        (6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)), (36, 39)),
        (4, ((0, 1), (1, 2), (0, 2)), (18, 20)),
        (3, (), (0, 3)),
        (5, ((0, 1), (0, 2), (3, 4)), (18, 22)),
        (6, ((0, 1, 2), (3, 4, 5)), (18, 21)),
    ], ids=["two-triangles", "triangle-and-point", "three-points", "hinge-and-segment",
            "two-3-point-rods"])
    def test_disconnected_is_cross_validated(self, points, lines, algebraic, field):
        # the matrix and the cone graph split into one block per component,
        # so ranks and pebbles add up: a component of two or more points has
        # 3 trivial motions, an isolated point 2
        g = IncidenceGeometry(points, lines)
        for seed in (1, 2, 1729):
            v = decide_rod_rigidity(g, cross_validate=True, seed=seed, field=field)
            assert not v.connected and not v.is_rigid
            assert v.agreement == "agree" and v.algebraic == (algebraic,)
            assert algebraic[1] - algebraic[0] == v.degrees_of_freedom

    def test_isolated_point_is_flexible(self):
        g = IncidenceGeometry(3, ((0, 1),))
        assert not decide_rod_rigidity(g).is_rigid

    def test_degenerate_single_point(self):
        # one point has nothing to move against: its two pebbles are its
        # trivial motions, and its sample ranks 0 of 0
        g = IncidenceGeometry(1, ())
        v = decide_rod_rigidity(g)
        assert v.pebble == play(1) and v.remaining_pebbles == 2
        assert v.is_rigid and v.degrees_of_freedom == 0 and v.classification == "minimally-rigid"
        v = decide_rod_rigidity(g, cross_validate=True)
        assert v.agreement == "agree" and v.algebraic == ((0, 0),) and v.is_rigid

    @pytest.mark.parametrize("name", ["fig2", "triangle_rods", "hinge"])
    def test_cross_validation_agrees(self, name, request):
        g = request.getfixturevalue(name)
        v = decide_rod_rigidity(g, cross_validate=True, seed=21)
        assert v.agreement == "agree"
        assert v.skip_reason is None and "skip_reason" not in verdict_to_json(v)
        # the last sample reached the predicted rank; any before it fell short
        *short, (rank, max_rank) = v.algebraic
        assert max_rank - rank == v.degrees_of_freedom
        assert all(r < rank for r, _ in short)

    def test_one_sample_certifies_the_running_example(self, fig2, monkeypatch):
        import rodrigidity.analysis as analysis

        seeds = []
        real = analysis.sample_realization
        monkeypatch.setattr(analysis, "sample_realization",
                            lambda g, s, **k: seeds.append(s) or real(g, s, **k))
        v = decide_rod_rigidity(fig2, cross_validate=True, seed=21)
        assert v.agreement == "agree"
        assert len(seeds) == 1 and v.algebraic == ((35, 35),)

    def test_a_short_sample_draws_the_next_seed(self, triangle_rods, monkeypatch):
        ranks = plant_rank_shift(monkeypatch, -1, 0)
        v = decide_rod_rigidity(triangle_rods, cross_validate=True, seed=21)
        assert v.agreement == "agree" and v.is_rigid
        assert len(ranks) == 2
        (first, max_rank), second = v.algebraic
        assert first == max_rank - 1 and second == (max_rank, max_rank)

    def test_above_the_prediction_raises_at_once(self, hinge, monkeypatch):
        ranks = plant_rank_shift(monkeypatch, 1)
        with pytest.raises(OracleDisagreementError) as info:
            decide_rod_rigidity(hinge, cross_validate=True, seed=21)
        assert len(ranks) == 1
        (sample,) = info.value.bundle["samples"]
        assert sample["rank"] == sample["max_rank"] == sample["predicted_rank"] + 1
        assert sample["algebraic_rigid"] is True

    def test_a_count_below_three_pebbles_raises(self, triangle_rods, monkeypatch):
        # the game claims one accepted edge too many on the rigid triangle:
        # its prediction lies above the maximum rank, which every sample
        # reaches and none can pass
        plant_pebble_shift(monkeypatch, -1)
        with pytest.raises(OracleDisagreementError) as info:
            decide_rod_rigidity(triangle_rods, cross_validate=True, seed=21)
        bundle = info.value.bundle
        assert bundle["remaining_pebbles"] == 2
        assert [(s["rank"], s["max_rank"], s["predicted_rank"]) for s in bundle["samples"]] == \
            [(18, 18, 19)] * 3

    def test_flexible_count_never_reached_is_skipped(self, hinge, monkeypatch):
        ranks = plant_rank_shift(monkeypatch, -1)
        v = decide_rod_rigidity(hinge, cross_validate=True, seed=21)
        assert v.agreement == "algebraic-skipped" and not v.is_rigid
        assert v.skip_reason is None  # sampled, not refused
        assert len(ranks) == 3 and len(v.algebraic) == 3
        assert verdict_to_json(v)["algebraic"] == [list(pair) for pair in v.algebraic]

    @staticmethod
    def count_sampling(monkeypatch) -> tuple[list, list]:
        """Record the seeds sampled and the eliminations run, in order."""
        import rodrigidity.analysis as analysis
        import rodrigidity.oracle as oracle

        seeds, eliminations = [], []
        real_sample, real_eliminate = analysis.sample_realization, oracle._eliminate
        monkeypatch.setattr(analysis, "sample_realization",
                            lambda g, s, **k: seeds.append(s) or real_sample(g, s, **k))
        monkeypatch.setattr(oracle, "_eliminate",
                            lambda rows, field: eliminations.append(field) or real_eliminate(rows, field))
        return seeds, eliminations

    def test_cross_validation_skips_infeasible(self, two_point_three_lines, monkeypatch):
        # refused before any draw, and the refusal ends the algebraic side
        seeds, eliminations = self.count_sampling(monkeypatch)
        v = decide_rod_rigidity(two_point_three_lines, cross_validate=True, seed=22)
        assert v.agreement == "algebraic-skipped"
        assert v.algebraic is None
        assert v.skip_reason == "rods 0 and 1 share points 0 and 1"
        assert len(seeds) == 1 and not eliminations

    def test_a_cone_point_without_a_place_ends_the_algebraic_side(self):
        # Z_3 has two units: the sample is proper, but no cone point of rod 0
        # fits in any of the 32 draws, and the refusal ends the check
        g = IncidenceGeometry(3, [(0, 1), (1, 2)])
        v = decide_rod_rigidity(g, cross_validate=True, seed=1, field=PrimeField(3))
        assert v.agreement == "algebraic-skipped" and v.algebraic is None
        assert v.skip_reason == "could not place the cone point of line 0 off the line"

    def test_pappus_is_sampled_once(self, pappus, monkeypatch):
        # all 32 draws of the first seed collapse; no second seed is sampled
        seeds, eliminations = self.count_sampling(monkeypatch)
        v = decide_rod_rigidity(pappus, cross_validate=True, seed=22)
        assert v.classification == "rigid-redundant"
        assert v.agreement == "algebraic-skipped"
        assert v.algebraic is None
        assert v.skip_reason == "all 32 sampled realizations collapsed distinct points"
        assert len(seeds) == 1 and len(eliminations) == 32

    @pytest.mark.parametrize("name,builds", [("fig2", 1), ("two_point_three_lines", 0)])
    def test_cone_incidence_built_only_for_a_proper_sample(self, name, builds, request, monkeypatch):
        # once however many seeds are sampled; realize_cone builds none of its own
        import rodrigidity.analysis as analysis
        import rodrigidity.oracle as oracle

        calls = []
        real = analysis.build_cone_incidence
        for module in (analysis, oracle):
            monkeypatch.setattr(module, "build_cone_incidence", lambda g: calls.append(g) or real(g))
        decide_rod_rigidity(request.getfixturevalue(name), cross_validate=True, seed=22)
        assert len(calls) == builds

    def test_mode_strings_are_refused(self, fig2):
        # cross-validation is the keyword-only flag cross_validate, so the
        # old positional mode strings fail loudly instead of passing as a seed
        for mode in ("combinatorial", "cross-validated", "vibes"):
            with pytest.raises(TypeError):
                decide_rod_rigidity(fig2, mode)
            with pytest.raises(TypeError):
                decide_minimal_rigidity(fig2, mode)

    def test_verdict_json_schema(self, fig2):
        doc = verdict_to_json(decide_rod_rigidity(fig2))
        assert set(doc) == {"classification", "remaining_pebbles", "accepted_edges", "agreement"}
        json.dumps(doc)

    def test_disagreement_raises_with_bundle(self, triangle_rods, monkeypatch):
        plant_rank_shift(monkeypatch, -1)
        with pytest.raises(OracleDisagreementError) as info:
            decide_rod_rigidity(triangle_rods, cross_validate=True, seed=23)
        bundle = info.value.bundle
        assert bundle["geometry"]["points"] == 3
        assert len(bundle["samples"]) == 3
        for sample in bundle["samples"]:
            assert sample["rank"] == sample["predicted_rank"] - 1 == sample["max_rank"] - 1
            assert sample["algebraic_rigid"] is False
        json.dumps(bundle)


class TestCanonicalSubgraph:
    def test_running_example(self, fig2):
        canon = canonical_subgraph(fig2)
        assert len(canon.edges) == 19 == 2 * canon.num_vertices - 3
        sub = canon.subgeometry
        assert sub.num_incidences == sub.num_lines + 2 * sub.num_points - 3
        assert is_sharply_independent_fast(sub, sub.incidences())

    def test_single_line_keeps_whole_cone(self):
        g = single_line(4)
        canon = canonical_subgraph(g)
        assert len(canon.edges) == 2 * 4 - 1
        assert not canon.rejected

    def test_hinge_keeps_whole_cone_but_is_loose(self, hinge):
        canon = canonical_subgraph(hinge)
        assert len(canon.edges) == 6 == 2 * canon.num_vertices - 4
        sub = canon.subgeometry
        assert sub.num_incidences == 12 < sub.num_lines + 2 * sub.num_points - 3
        assert is_sharply_independent_fast(sub, sub.incidences())
        # not minimally rigid, so the restricted realization falls one short
        # of the maximum rank yet its rows stay independent (desk-scale
        # regularity of the restriction holds too)
        sc = build_cone_incidence(hinge)
        rho = sample_realization(hinge, seed=32)
        ext = realize_cone(hinge, rho, seed=32)
        restricted = restrict_realization(ext, sub, canon.source_lines)
        assert rank_of(build_concurrence_matrix(sub, restricted)) == 12
        assert is_regular(sub, restricted)
        assert is_regular(sc, ext, budget=12)

    def test_disconnected_rejected(self):
        # two separate rods, and a rod beside an isolated point
        for g in (IncidenceGeometry(4, ((0, 1), (2, 3))), IncidenceGeometry(3, ((0, 1),))):
            with pytest.raises(GeometryError, match="requires a connected geometry"):
                canonical_subgraph(g)

    def test_incidence_edge_identity_and_rank_consistency(self):
        rng = random.Random(31)
        for _ in range(40):
            g = reference_random_geometry(rng, max_points=8, max_lines=5)
            canon = canonical_subgraph(g)
            sub = canon.subgeometry
            assert sub.num_incidences == sub.num_lines + len(canon.edges)
            game = play(g.num_points + g.num_lines, *build_cone_graph(g))
            assert len(canon.edges) == len(game.accepted)
            assert is_sharply_independent_fast(sub, sub.incidences())

    def test_offers_each_edge_once(self, fig2, monkeypatch):
        import rodrigidity.analysis as analysis
        import rodrigidity.pebble as pebble

        def forbidden(*args):
            raise AssertionError("canonical_subgraph played an edge twice")

        for module in (analysis, pebble):
            monkeypatch.setattr(module, "independent_after", forbidden)
        monkeypatch.setattr(pebble.PebbleState, "copy", forbidden)
        assert len(canonical_subgraph(fig2).edges) == 19
        rng = random.Random(31)
        for _ in range(10):
            canonical_subgraph(reference_random_geometry(rng, max_points=8, max_lines=5))

    def test_ordering_replay_matches(self, fig2):
        _, plan = canonical_edge_order(fig2)
        replay = play(fig2.num_points + fig2.num_lines, [(u, v) for _, _, u, v in plan])
        assert replay.accepted == canonical_subgraph(fig2).edges

    def test_plan_holds_each_cone_edge_once(self, fig2):
        # a star edge (u, v) of the plan starts at its line's inner vertex u;
        # the cone graph with those inner vertices holds the plan's edges,
        # line by line, each once; the draws include lines sharing two points
        rng = random.Random(43)
        draws = [reference_random_geometry(rng, max_points=8, max_lines=6) for _ in range(80)]
        assert sum(map(shares_two_points, draws)) >= 10
        for g in [fig2, arrangement(30, 0.6, seed=2024)] + draws:
            _, plan = canonical_edge_order(g)
            inner = {line: u for _, line, u, _ in plan if u < g.num_points}
            cones = cone_graph_with_inner(g, [inner[l] for l in range(g.num_lines)])
            assert Counter((line, u, v) for _, line, u, v in plan) == Counter(
                (l, u, v) for l, edges in enumerate(cones) for u, v in edges
            )

    def test_stored_point_order_does_not_matter(self):
        # a copy whose rods list their points shuffled is the same geometry:
        # equal, hashed alike, with the same plan and the same subgraph
        rng = random.Random(47)
        draws = [reference_random_geometry(rng, max_points=8, max_lines=6) for _ in range(80)]
        assert sum(map(shares_two_points, draws)) >= 10
        for g in [arrangement(30, 0.6, seed=2024)] + draws:
            lines = [list(line) for line in g.lines]
            for line in lines:
                rng.shuffle(line)
            shuffled = IncidenceGeometry(g.num_points, lines)
            assert shuffled == g and hash(shuffled) == hash(g)
            assert canonical_edge_order(shuffled) == canonical_edge_order(g)
            assert canonical_subgraph(shuffled) == canonical_subgraph(g)

    def test_canonical_subgeometry_stays_rigid_when_collinear(self, fig2):
        # the special property of this subgraph: full concurrence rank at a
        # realization where each rod's points truly sit on one line
        canon = canonical_subgraph(fig2)
        rho = sample_realization(fig2, seed=33)
        ext = realize_cone(fig2, rho, seed=33)
        restricted = restrict_realization(ext, canon.subgeometry, canon.source_lines)
        sub = canon.subgeometry
        assert rank_of(build_concurrence_matrix(sub, restricted)) == \
            sub.num_lines + 2 * sub.num_points - 3


class TestDeriveSubgeometry:
    def test_fig5_subgraph(self, fig2):
        cones = cone_graph_with_inner(fig2, [3, 4, 5, 6])
        edges = [e for cone in cones for e in cone if e != (9, 5)]
        sub, sources = derive_subgeometry(fig2, cones, edges)
        assert (sub.num_points, sub.num_lines, sub.num_incidences) == (11, 15, 34)
        assert len(sources) == sub.num_lines

    def test_rejects_foreign_edge(self, fig2):
        with pytest.raises(GeometryError):
            derive_subgeometry(fig2, build_cone_graph(fig2), [(5, 6)])


class TestMinimalRigidity:
    def test_running_example_is_minimally_rigid(self, fig2):
        report = decide_minimal_rigidity(fig2)
        assert report.minimally_rigid
        assert report.removable == ()
        assert report.deletion_rigid == (False, False, False, False)

    def test_triangle_of_rods(self, triangle_rods):
        assert decide_minimal_rigidity(triangle_rods).minimally_rigid

    def test_duplicated_line_is_removable(self, triangle_rods):
        g = IncidenceGeometry(3, triangle_rods.lines + ((0, 1),))
        report = decide_minimal_rigidity(g)
        assert not report.minimally_rigid
        assert 0 in report.removable and 3 in report.removable

    def test_builds_the_cone_graph_once(self, fig2, monkeypatch):
        # the base's verdict holds the cones that the deletions need
        import rodrigidity.analysis as analysis

        builds = []
        real_build = analysis.build_cone_graph
        monkeypatch.setattr(analysis, "build_cone_graph",
                            lambda *a: builds.append(a) or real_build(*a))
        for cross_validate in (False, True):
            assert decide_minimal_rigidity(fig2, cross_validate=cross_validate,
                                           seed=5).minimally_rigid
        assert len(builds) == 2

    def test_undefined_for_flexible_input(self, hinge):
        report = decide_minimal_rigidity(hinge)
        assert not report.base.is_rigid and report.base.degrees_of_freedom == 1
        assert report.deletion_rigid == report.removable == ()
        assert not report.minimally_rigid
        crossed = decide_minimal_rigidity(hinge, cross_validate=True, seed=21)
        assert crossed.base.agreement == "agree" and not crossed.minimally_rigid

    def test_leave_one_out_matches_redecide(self, fig2, triangle_rods):
        corpus = [
            fig2,
            triangle_rods,
            IncidenceGeometry(2, ((0, 1),)),
            IncidenceGeometry(1, ()),
            IncidenceGeometry(0, ()),
        ]
        corpus += [reference_random_geometry(random.Random(s), max_points=14, max_lines=9)
                   for s in range(300)]
        flexible_deletions = removable = rigid_with_shared_pair = 0
        for g in corpus:
            expected = deletion_rigid_by_redecide(g)
            assert decide_minimal_rigidity(g).deletion_rigid == expected
            flexible_deletions += expected.count(False)
            removable += expected.count(True)
            rigid_with_shared_pair += decide_rod_rigidity(g).is_rigid and shares_two_points(g)
        # the corpus must exercise both answers and the parallel cone edges
        # of two rods through the same two points
        assert flexible_deletions and removable and rigid_with_shared_pair

    def test_cross_validation_checks_each_deletion(self, fig2, monkeypatch):
        import rodrigidity.analysis as analysis

        report = decide_minimal_rigidity(fig2, cross_validate=True, seed=5)
        assert report.base.agreement == "agree" and report.minimally_rigid
        monkeypatch.setattr(analysis, "remaining_without_each",
                            lambda verdict: (5,) * len(verdict.group_sizes))
        with pytest.raises(OracleDisagreementError, match="deleting rod 0") as info:
            decide_minimal_rigidity(fig2, cross_validate=True, seed=5)
        # the planted count calls deleting rod 0 rigid; its samples fall short
        bundle = info.value.bundle
        assert bundle["deleted_rod"] == 0 and bundle["remaining_pebbles"] == 3
        assert bundle["geometry"]["lines"] == [list(l) for l in fig2.lines[1:]]
        assert len(bundle["samples"]) == 3
        json.dumps(bundle)

    def test_cross_validation_reports_each_deletion(self, fig2, two_point_three_lines):
        # every deletion is flexible and agrees, those that strand a point too
        report = decide_minimal_rigidity(fig2, cross_validate=True, seed=5)
        assert report.deletion_checks == (("agree", None),) * 4
        assert decide_minimal_rigidity(fig2).deletion_checks is None
        # every deletion still doubles a rod, so sampling refuses each one;
        # each reason names the two rods left, in the input's numbering
        reasons = [f"rods {a} and {b} share points 0 and 1" for a, b in ((1, 2), (0, 2), (0, 1))]
        report = decide_minimal_rigidity(two_point_three_lines, cross_validate=True)
        assert report.base.skip_reason == reasons[2] and report.removable == (0, 1, 2)
        assert report.deletion_checks == tuple(("algebraic-skipped", r) for r in reasons)
        doc = minimal_report_to_json(report)
        assert doc["deletion_cross_validation"] == [
            {"agreement": "algebraic-skipped", "skip_reason": r} for r in reasons]
        assert "deletion_cross_validation" not in minimal_report_to_json(
            decide_minimal_rigidity(two_point_three_lines))

    def test_cross_validation_draws_what_redeciding_draws(self):
        # each deletion, connected or not, is sampled with the seeds, and to
        # the same verdict, that deciding the deletion geometry on its own
        # would use; a shared pair is named by the input's rod numbers
        rng = random.Random(7)
        checked = renumbered = disconnected = 0
        for _ in range(40):
            g = reference_random_geometry(rng, max_points=8, max_lines=6)
            report = decide_minimal_rigidity(g, cross_validate=True, seed=11)
            for l, check in enumerate(report.deletion_checks or ()):
                deletion = remove_line(g, l)
                verdict = decide_rod_rigidity(deletion, cross_validate=True, seed=11)
                reason, pair = verdict.skip_reason, shared_rod_pair(deletion)
                if pair is not None:
                    rods = [r for r in range(g.num_lines) if r != l]
                    r1, r2, p, q = rods[pair[0]], rods[pair[1]], pair[2], pair[3]
                    assert {p, q} <= set(g.lines[r1]) & set(g.lines[r2])
                    reason = f"rods {r1} and {r2} share points {p} and {q}"
                    renumbered += reason != verdict.skip_reason
                assert check == (verdict.agreement, reason)
                checked += 1
                disconnected += not verdict.connected
                assert verdict.is_rigid == report.deletion_rigid[l]
        assert checked and renumbered and disconnected

    def test_report_json(self, fig2):
        doc = minimal_report_to_json(decide_minimal_rigidity(fig2))
        assert doc["removable_rods"] == []
        assert doc["minimally_rigid"] is True

    def test_deleting_the_cevian_cross_checks_flexible(self, fig2):
        # dropping the cevian strands its midpoint: combinatorially flexible,
        # and the rank oracle on a sampled realization must agree
        bare = remove_line(fig2, 3)
        assert not decide_rod_rigidity(bare).is_rigid
        rho = sample_realization(bare, seed=34)
        assert not isinstance(rho, Infeasible)
        sc = build_cone_incidence(bare)
        assert not is_string_config_rigid(sc, realize_cone(bare, rho, seed=34))


class TestBodyJointCounts:
    def test_single_line_two_points(self):
        assert check_body_joint_counts(single_line(2))

    def test_two_point_three_lines(self, two_point_three_lines):
        assert not check_body_joint_counts(two_point_three_lines)

    def test_running_example_fails_the_count_yet_is_rigid(self, fig2):
        # 2|I| = 24 exceeds 3|L| + 2|P| - 3 = 23: no independent body-and-joint
        # realization exists, although the rod configuration is rigid
        assert not check_body_joint_counts(fig2)
        assert decide_rod_rigidity(fig2).is_rigid

    def test_budget(self):
        g = IncidenceGeometry(22, tuple((2 * i % 22, (2 * i + 1) % 22) for i in range(21)))
        with pytest.raises(BudgetExceededError):
            check_body_joint_counts(g)


class TestInnerChoiceInvariance:
    def test_fixed_examples(self, fig2, hinge, triangle_rods):
        for g in (fig2, hinge, triangle_rods):
            assert len(inner_choice_classifications(g)) == 1

    def test_random_small_geometries(self):
        rng = random.Random(35)
        for _ in range(30):
            g = reference_random_geometry(rng, max_points=7, max_lines=4)
            assert len(inner_choice_classifications(g)) == 1


class TestRandomGeometry:
    def test_shape(self):
        rng = random.Random(36)
        from rodrigidity import is_connected

        for _ in range(50):
            g = random_geometry(rng)
            assert is_connected(g)
            assert all(len(line) >= 2 for line in g.lines)
            assert g.num_points <= 10 and 1 <= g.num_lines <= 6

    # (21, 5) and (22, 5) straddle the size where sample stops swapping picks
    # out of a pool; (3000, 1) exhausts its 1000 draws about half the time
    BOUNDS = [(10, 6), (2, 3), (3, 2), (21, 5), (22, 5), (14, 9), (3000, 1)]

    def test_draws_connected_partial_linear_spaces(self):
        from rodrigidity import is_connected

        for seed in range(200):
            rng = random.Random(seed)
            for max_points, max_lines in self.BOUNDS + [(2, 1000)]:
                try:
                    g = random_geometry(rng, max_points, max_lines)
                except CampaignError:
                    assert (max_points, max_lines) == (3000, 1)
                    continue
                assert is_connected(g) and shared_rod_pair(g) is None, (seed, g)
                assert all(2 <= len(line) <= 4 for line in g.lines), (seed, g)
                assert g.num_points <= max_points and g.num_lines <= max_lines, (seed, g)

    def test_line_check_matches_is_connected(self):
        from rodrigidity import is_connected
        from rodrigidity.analysis import _masks_connected

        draws = [reference_draw(rng, *bounds)
                 for bounds in self.BOUNDS
                 for rng in map(random.Random, range(100))
                 for _ in range(20)]
        draws += [(3, ((0, 1),)), (3, ((1, 2),)), (4, ((0, 1), (1, 2))), (4, ((0, 1), (2, 3))),
                  (5, ((0, 1), (1, 2), (2, 3), (3, 4))), (6, ((0, 1), (1, 2), (2, 3), (3, 4))),
                  (2, ((0, 1),)), (4, ((3, 1, 0), (2, 0))), (2, ((0, 1), (1, 0))),
                  (4, ((0, 1, 2), (3, 2, 1))), (4, ((0, 1, 2), (2, 3), (0, 3)))]
        found = Counter()
        for n, lines in draws:
            connected = is_connected(IncidenceGeometry(n, lines))
            masks = [sum(1 << p for p in line) for line in lines]
            assert _masks_connected(n, masks) == connected, (n, lines)
            found[connected] += 1
        assert min(found.values()) > 1000

    def test_a_draw_too_large_to_connect_keeps_the_stream(self):
        # no draw of 10^12 points can be connected by six candidates; each
        # still makes a reference draw's random calls, and none allocates
        # per point
        rng, ref = random.Random(5), random.Random(5)
        with pytest.raises(CampaignError, match=r"\(max_points=1000000000000, max_lines=6\)"):
            random_geometry(rng, 10**12, 6)
        for _ in range(1000):
            reference_draw(ref, 10**12, 6)
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("max_points,max_lines", [(1, 6), (0, 6), (-3, 6), (10, 0), (10, -1)])
    def test_bounds_below_the_least_raise(self, max_points, max_lines):
        class Budget(random.Random):
            calls = 0

            def getrandbits(self, k):
                self.calls += 1
                assert self.calls < 10_000, "random_geometry kept drawing"
                return super().getrandbits(k)

        with pytest.raises(ValueError, match="max_points >= 2 and max_lines >= 1"):
            random_geometry(Budget(0), max_points, max_lines)


class TestTheoremEightAgreement:
    def test_small_campaign(self):
        from rodrigidity import run_agreement_campaign

        report = run_agreement_campaign(target=30, seed=37)
        assert report.validated == 30
        assert report.rigid + report.flexible == 30

    def test_a_tiny_field_skips_what_it_cannot_extend(self):
        # cone extensions refused over Z_3 are skipped, not raised
        from rodrigidity import run_agreement_campaign

        assert run_agreement_campaign(2, field=PrimeField(3)) == CampaignReport(58, 0, 2)

    def test_campaign_decides_every_draw(self, monkeypatch):
        import rodrigidity.analysis as analysis
        from rodrigidity import run_agreement_campaign

        drawn, decided = [], []
        real_draw, real_decide = analysis.random_geometry, analysis.decide_rod_rigidity
        monkeypatch.setattr(analysis, "random_geometry",
                            lambda *a: drawn.append(real_draw(*a)) or drawn[-1])
        monkeypatch.setattr(analysis, "decide_rod_rigidity",
                            lambda g, *a, **k: decided.append(g) or real_decide(g, *a, **k))
        report = run_agreement_campaign(20, seed=37)
        assert len(drawn) == len(decided) == report.attempted
        assert decided == drawn

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("plant", [
        lambda mp: plant_pebble_shift(mp, 1),
        lambda mp: plant_pebble_shift(mp, -1),
        plant_dropped_spoke,
    ], ids=["one-extra-pebble", "one-pebble-fewer", "last-spoke-dropped"])
    def test_campaign_catches_a_planted_game_defect(self, plant, seed, monkeypatch):
        from rodrigidity import run_agreement_campaign

        plant(monkeypatch)
        with pytest.raises(OracleDisagreementError):
            run_agreement_campaign(20, seed=seed)

    def test_flexible_never_algebraically_rigid(self, hinge):
        # ten sampled realizations of flexible geometries: none reaches max rank
        flexibles = [hinge]
        rng = random.Random(39)
        while len(flexibles) < 4:
            g = reference_random_geometry(rng, max_points=8, max_lines=4)
            if not decide_rod_rigidity(g).is_rigid and not isinstance(
                sample_realization(g, seed=0), Infeasible
            ):
                flexibles.append(g)
        for g in flexibles:
            sc = build_cone_incidence(g)
            assert not decide_rod_rigidity(g).is_rigid
            for seed in range(10):
                rho = sample_realization(g, seed=seed)
                if isinstance(rho, Infeasible):
                    continue
                assert not is_string_config_rigid(sc, realize_cone(g, rho, seed=seed))

    def test_agreement_on_regular_samples(self):
        # tiny geometries where the regularity of the extended realization can
        # be certified exhaustively: whenever it holds, verdicts must match
        geometries = [
            single_line(2),
            IncidenceGeometry(3, ((0, 1), (0, 2))),
            IncidenceGeometry(4, ((0, 1), (2, 3), (1, 2))),
            IncidenceGeometry(3, ((0, 1), (1, 2), (0, 2))),
        ]
        for g in geometries:
            sc = build_cone_incidence(g)
            combinatorial = decide_rod_rigidity(g).is_rigid
            rho = sample_realization(g, seed=38)
            assert not isinstance(rho, Infeasible)
            ext = realize_cone(g, rho, seed=38)
            if is_regular(sc, ext, budget=18):
                assert is_string_config_rigid(sc, ext) == combinatorial


# sha256 of repr of the canonical subgraphs and of the deletion verdicts of
# the rigid inputs, fixed from the implementation that probed every
# conditional edge on a copy of the game state and decided `minimal` twice.
GOLDEN = {
    ("fig2", "canonical"): "7bca10f96f45f11d4f4c32c8f5e3b26f4c877044e75caabc730c7babba1f8c3c",
    ("fig2", "minimal"): "86924a83a9be8055e07d2e9765ced0e39a3054f21ee0c0c2e2c8127f7699709e",
    ("triangle_rods", "canonical"): "d7c335df90cc068069150d8414a32ffd2f75c6635a4fd4e5473440c0b552bd8b",
    ("triangle_rods", "minimal"): "435a03a2d0f3c7dee5e8609b92e1a1fd26cb005f9f2677acf2dbb4af81a6d086",
    ("random", "canonical"): "3c80c3f7bb1f17da60fe093f9aed15c600e4e7f6d219a36c216e96d67a86ca3f",
    ("random", "minimal"): "7f7ce6f020dc6445c9e8b492ceb286461c312d42e6edf95c99ce94848d72e176",
}


def _golden_corpus(name, request):
    if name == "random":
        return [reference_random_geometry(random.Random(s)) for s in range(50)]
    return [request.getfixturevalue(name)]


@pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN}))
def test_canonical_subgeometry_equals_the_checked_construction(request, name):
    # canonical_subgraph stores its subgeometry without the checks
    for g in _golden_corpus(name, request):
        sub = canonical_subgraph(g).subgeometry
        assert sub == IncidenceGeometry(sub.num_points, sub.lines, sub.point_names)


@pytest.mark.parametrize("name,question", sorted(GOLDEN))
def test_golden_pebble_answers(request, name, question):
    corpus = _golden_corpus(name, request)
    if question == "canonical":
        answers = []
        for g in corpus:
            c = canonical_subgraph(g)
            sub = c.subgeometry
            answers.append((c.edges, c.rejected, c.line_order, sub.num_points, sub.lines,
                            c.source_lines))
    else:
        answers = [decide_minimal_rigidity(g).deletion_rigid
                   for g in corpus if decide_rod_rigidity(g).is_rigid]
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == GOLDEN[(name, question)]
