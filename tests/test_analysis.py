from __future__ import annotations

import hashlib
import json
import random

import pytest

from rodrigidity import (
    GeometryError,
    IncidenceGeometry,
    Infeasible,
    OracleDisagreementError,
    build_cone_graph,
    build_cone_incidence,
    build_concurrence_matrix,
    canonical_edge_order,
    canonical_subgraph,
    check_body_joint_counts,
    decide_minimal_rigidity,
    decide_rod_rigidity,
    derive_subgeometry,
    inner_choice_classifications,
    is_regular,
    is_sharply_independent_fast,
    is_string_config_rigid,
    play,
    random_geometry,
    rank_of,
    realize_cone,
    restrict_realization,
    sample_realization,
    verdict_to_json,
)
from rodrigidity.analysis import minimal_report_to_json
from rodrigidity.oracle import BudgetExceededError

from bruteforce import deletion_rigid_by_redecide, shares_two_points



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

    def test_isolated_point_is_flexible(self):
        g = IncidenceGeometry(3, ((0, 1),))
        assert not decide_rod_rigidity(g).is_rigid

    def test_degenerate_single_point(self):
        v = decide_rod_rigidity(IncidenceGeometry(1, ()))
        assert v.is_rigid and v.pebble is None

    @pytest.mark.parametrize("name", ["fig2", "triangle_rods", "hinge"])
    def test_cross_validation_agrees(self, name, request):
        g = request.getfixturevalue(name)
        v = decide_rod_rigidity(g, "cross-validated", seed=21)
        assert v.agreement == "agree"
        assert v.algebraic is not None and all(a == v.is_rigid for a in v.algebraic)

    def test_cross_validation_skips_infeasible(self, two_point_three_lines):
        v = decide_rod_rigidity(two_point_three_lines, "cross-validated", seed=22)
        assert v.agreement == "algebraic-skipped"
        assert v.algebraic is None

    @pytest.mark.parametrize("name,builds", [("fig2", 1), ("two_point_three_lines", 0)])
    def test_cone_incidence_built_only_for_a_proper_sample(self, name, builds, request, monkeypatch):
        import rodrigidity.analysis as analysis

        calls = []
        real = analysis.build_cone_incidence
        monkeypatch.setattr(analysis, "build_cone_incidence", lambda g: calls.append(g) or real(g))
        decide_rod_rigidity(request.getfixturevalue(name), "cross-validated", seed=22)
        assert len(calls) == builds

    def test_unknown_mode(self, fig2):
        with pytest.raises(ValueError):
            decide_rod_rigidity(fig2, "vibes")

    def test_verdict_json_schema(self, fig2):
        doc = verdict_to_json(decide_rod_rigidity(fig2))
        assert set(doc) == {"classification", "remaining_pebbles", "accepted_edges", "agreement"}
        json.dumps(doc)

    def test_disagreement_raises_with_bundle(self, triangle_rods, monkeypatch):
        import rodrigidity.analysis as analysis

        monkeypatch.setattr(analysis, "is_string_config_rigid", lambda sc, rho: False)
        with pytest.raises(OracleDisagreementError) as info:
            decide_rod_rigidity(triangle_rods, "cross-validated", seed=23)
        bundle = info.value.bundle
        assert bundle["geometry"]["points"] == 3
        assert len(bundle["samples"]) == 3
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
        restricted = restrict_realization(sc, ext, sub, canon.source_lines)
        assert rank_of(build_concurrence_matrix(sub, restricted)) == 12
        assert is_regular(sub, restricted)
        assert is_regular(sc.geometry, ext, budget=12)

    def test_disconnected_rejected(self):
        with pytest.raises(GeometryError):
            canonical_subgraph(IncidenceGeometry(4, ((0, 1), (2, 3))))

    def test_incidence_edge_identity_and_rank_consistency(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_geometry(rng, max_points=8, max_lines=5)
            canon = canonical_subgraph(g)
            sub = canon.subgeometry
            assert sub.num_incidences == sub.num_lines + len(canon.edges)
            cone = build_cone_graph(g)
            assert len(canon.edges) == len(play(cone.num_vertices, cone.edges).accepted)
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
            canonical_subgraph(random_geometry(rng, max_points=8, max_lines=5))

    def test_ordering_replay_matches(self, fig2):
        host, order, plan = canonical_edge_order(fig2)
        replay = play(host.num_vertices, [(u, v) for _, _, u, v in plan])
        assert replay.accepted == canonical_subgraph(fig2).edges

    def test_canonical_subgeometry_stays_rigid_when_collinear(self, fig2):
        # the special property of this subgraph: full concurrence rank at a
        # realization where each rod's points truly sit on one line
        canon = canonical_subgraph(fig2)
        sc = build_cone_incidence(fig2)
        rho = sample_realization(fig2, seed=33)
        ext = realize_cone(fig2, rho, seed=33)
        restricted = restrict_realization(sc, ext, canon.subgeometry, canon.source_lines)
        sub = canon.subgeometry
        assert rank_of(build_concurrence_matrix(sub, restricted)) == \
            sub.num_lines + 2 * sub.num_points - 3


class TestDeriveSubgeometry:
    def test_fig5_subgraph(self, fig2):
        host = build_cone_graph(fig2, {0: 3, 1: 4, 2: 5, 3: 6})
        edges = [e for e in host.edges if e != (9, 5)]
        sub, sources = derive_subgeometry(fig2, host, edges)
        assert (sub.num_points, sub.num_lines, sub.num_incidences) == (11, 15, 34)
        assert len(sources) == sub.num_lines

    def test_rejects_foreign_edge(self, fig2):
        host = build_cone_graph(fig2)
        with pytest.raises(GeometryError):
            derive_subgeometry(fig2, host, [(5, 6)])


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

    def test_undefined_for_flexible_input(self, hinge):
        report = decide_minimal_rigidity(hinge)
        assert not report.base.is_rigid and report.base.degrees_of_freedom == 1
        assert report.deletion_rigid == report.removable == ()
        assert not report.minimally_rigid
        crossed = decide_minimal_rigidity(hinge, "cross-validated", seed=21)
        assert crossed.base.agreement == "agree" and not crossed.minimally_rigid

    def test_leave_one_out_matches_redecide(self, fig2, triangle_rods):
        corpus = [
            fig2,
            triangle_rods,
            IncidenceGeometry(2, ((0, 1),)),
            IncidenceGeometry(1, ()),
            IncidenceGeometry(0, ()),
        ]
        corpus += [random_geometry(random.Random(s), max_points=14, max_lines=9)
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

        report = decide_minimal_rigidity(fig2, "cross-validated", seed=5)
        assert report.base.agreement == "agree" and report.minimally_rigid
        monkeypatch.setattr(analysis, "remaining_without_each", lambda n, groups: (5,) * len(groups))
        with pytest.raises(AssertionError, match="deleting rod 0"):
            decide_minimal_rigidity(fig2, "cross-validated", seed=5)

    def test_report_json(self, fig2):
        doc = minimal_report_to_json(decide_minimal_rigidity(fig2))
        assert doc["removable_rods"] == []
        assert doc["minimally_rigid"] is True

    def test_deleting_the_cevian_cross_checks_flexible(self, fig2):
        # dropping the cevian strands its midpoint: combinatorially flexible,
        # and the rank oracle on a sampled realization must agree
        from rodrigidity import remove_line

        bare = remove_line(fig2, 3)
        assert not decide_rod_rigidity(bare).is_rigid
        rho = sample_realization(bare, seed=34)
        assert not isinstance(rho, Infeasible)
        ext = realize_cone(bare, rho, seed=34)
        assert not is_string_config_rigid(build_cone_incidence(bare), ext)


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
            g = random_geometry(rng, max_points=7, max_lines=4)
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


class TestTheoremEightAgreement:
    def test_small_campaign(self):
        from rodrigidity import run_agreement_campaign

        report = run_agreement_campaign(target=30, seed=37)
        assert report.validated == 30
        assert report.rigid + report.flexible == 30

    def test_flexible_never_algebraically_rigid(self, hinge):
        # ten sampled realizations of flexible geometries: none reaches max rank
        flexibles = [hinge]
        rng = random.Random(39)
        while len(flexibles) < 4:
            g = random_geometry(rng, max_points=8, max_lines=4)
            if not decide_rod_rigidity(g).is_rigid and not isinstance(
                sample_realization(g, seed=0, budget=4), Infeasible
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
            if is_regular(sc.geometry, ext, budget=18):
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
        return [random_geometry(random.Random(s)) for s in range(50)]
    return [request.getfixturevalue(name)]


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
