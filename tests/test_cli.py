from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from rodrigidity import (
    IncidenceGeometry,
    RigidityVerdict,
    analysis,
    canonical_subgraph,
    cli,
    oracle,
    play,
    remove_line,
    serialize_geometry,
)
from rodrigidity.cli import main

from conftest import (
    FIG2_COORDS,
    FIG2_LINES,
    PAPPUS_LINES,
    arrangement,
    plant_pebble_shift,
    plant_rank_shift,
)

FIG2_TEXT = """\
points: 7
line: 0 2 3
line: 0 1 4
line: 1 2 5
line: 1 3 6
"""

HINGE_TEXT = "points: 3\nline: 0 1\nline: 0 2\n"
TRIANGLE_TEXT = "points: 3\nline: 0 1\nline: 1 2\nline: 0 2\n"
DOUBLED_TEXT = "points: 2\nline: 0 1\nline: 0 1\n"
PAPPUS_TEXT = "points: 9\n" + "".join(
    "line: " + " ".join(map(str, line)) + "\n" for line in PAPPUS_LINES)
_PAIRS8 = list(combinations(range(8), 2))

GEOMETRY_TEXTS = {
    "fig2": FIG2_TEXT,
    "hinge": HINGE_TEXT,
    "triangle": TRIANGLE_TEXT,
    "doubled": DOUBLED_TEXT,
    # rod 3 doubles rod 0
    "doubled-triangle": TRIANGLE_TEXT + "line: 0 1\n",
    "pappus": PAPPUS_TEXT,
    "point": "points: 1\n",
    # eight rods, every two meeting in a point of their own
    "arrangement8": f"points: {len(_PAIRS8)}\n" + "".join(
        "line: " + " ".join(str(p) for p, pair in enumerate(_PAIRS8) if rod in pair) + "\n"
        for rod in range(8)),
    # 100 three-point rods, each meeting the next in one point: 99 degrees of freedom
    "chain100": serialize_geometry(
        IncidenceGeometry(201, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(100)])),
    # rigid, 1131 = max rank, canon keeps 579 edges on 291 vertices
    "arrangement30": serialize_geometry(arrangement(30, 0.6, seed=2024)),
    # rigid, and some rods are removable but not all
    "sparse20": serialize_geometry(arrangement(20, 0.3, seed=1)),
}


@pytest.fixture
def geo_file(tmp_path):
    """geo_file(name) writes GEOMETRY_TEXTS[name] to a file and returns its path."""
    def write(name: str) -> str:
        path = tmp_path / f"{name}.geo"
        path.write_text(GEOMETRY_TEXTS[name])
        return str(path)
    return write


@pytest.fixture
def fig2_file(geo_file):
    return geo_file("fig2")


@pytest.fixture
def hinge_file(geo_file):
    return geo_file("hinge")


class TestCheck:
    def test_rigid_exit_zero(self, fig2_file, capsys):
        assert main(["check", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "rigid (19/20 edges independent, 3 pebbles remain)" in out

    def test_flexible_exit_two(self, hinge_file, capsys):
        assert main(["check", hinge_file]) == 2
        assert "flexible (1 internal degree of freedom)" in capsys.readouterr().out

    def test_missing_file_exit_one(self, capsys):
        assert main(["check", "missing.geo"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_position(self, tmp_path, capsys):
        path = tmp_path / "bad.geo"
        for text, message in (("points: 7\nline: 0 9\n", "line 2"),
                              ("points: 3\nline: 0 1_0\n", "line 2: bad point index")):
            path.write_text(text)
            assert main(["check", str(path)]) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name,code,classification,remaining,accepted", [
        ("hinge", 2, "flexible-independent", 4, 6),
        ("chain100", 2, "flexible-independent", 102, 500),
        ("arrangement30", 0, "rigid-redundant", 3, 579),
    ], ids=["hinge", "chain100", "arrangement30"])
    def test_json_verdict(self, geo_file, capsys, name, code, classification, remaining, accepted):
        assert main(["check", geo_file(name), "--format", "json"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == classification
        assert doc["remaining_pebbles"] == remaining and len(doc["accepted_edges"]) == accepted
        assert doc["agreement"] == "algebraic-skipped" and "algebraic" not in doc

    def test_json_output_is_deterministic(self, fig2_file, capsys):
        assert main(["check", fig2_file, "--format", "json", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["check", fig2_file, "--format", "json", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["classification"] == "rigid-redundant"
        assert doc["remaining_pebbles"] == 3

    def test_cross_validate(self, fig2_file, capsys):
        assert main(["check", fig2_file, "--cross-validate"]) == 0
        assert "cross-validation: agree" in capsys.readouterr().out

    @pytest.mark.parametrize("name,field,code,algebraic", [
        ("triangle", "zp", 0, [[18, 18]]),
        ("hinge", "zp", 2, [[12, 13]]),
        ("hinge", "zp2", 2, [[12, 13]]),
        ("arrangement30", "rational", 0, [[1131, 1131]]),
    ], ids=["triangle", "hinge", "hinge-zp2", "arrangement30-rational"])
    def test_cross_validation_certifies_the_count(self, geo_file, capsys, name, field, code,
                                                  algebraic):
        path = geo_file(name)
        assert main(["check", path, "--cross-validate", "--field", field]) == code
        assert capsys.readouterr().out.endswith("; cross-validation: agree\n")
        assert main(["check", path, "--cross-validate", "--field", field, "--format", "json"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["agreement"] == "agree" and doc["algebraic"] == algebraic

    @pytest.mark.parametrize("text,verdict,reason", [
        (PAPPUS_TEXT, "rigid (33/45 edges independent, 3 pebbles remain)",
         "all 32 sampled realizations collapsed distinct points"),
        (DOUBLED_TEXT, "rigid (5/6 edges independent, 3 pebbles remain)",
         "rods 0 and 1 share points 0 and 1"),
    ], ids=["pappus", "doubled-rod"])
    def test_cross_validation_says_why_it_skipped(self, tmp_path, capsys, text, verdict, reason):
        path = tmp_path / "refused.geo"
        path.write_text(text)
        assert main(["check", str(path), "--cross-validate"]) == 0
        assert capsys.readouterr().out == f"{verdict}; cross-validation: skipped ({reason})\n"
        # minimal names the base's refusal as check does
        assert main(["minimal", str(path), "--cross-validate"]) == 0
        assert f"); cross-validation: skipped ({reason})" in capsys.readouterr().out
        assert main(["check", str(path), "--cross-validate", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["agreement"] == "algebraic-skipped" and doc["skip_reason"] == reason
        # without --cross-validate nothing was sampled, so nothing was skipped
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == f"{verdict}\n"
        assert main(["check", str(path), "--format", "json"]) == 0
        assert "skip_reason" not in json.loads(capsys.readouterr().out)

    def test_cross_validation_says_when_samples_fell_short(self, hinge_file, capsys, monkeypatch):
        # every sample of the flexible hinge falls one short of the predicted
        # rank: the verdict stands, and the text says nothing was certified
        assert main(["check", hinge_file]) == 2
        plain = capsys.readouterr().out
        assert main(["check", hinge_file, "--format", "json"]) == 2
        plain_json = capsys.readouterr().out
        plant_rank_shift(monkeypatch, -1)
        assert main(["check", hinge_file, "--cross-validate"]) == 2
        assert capsys.readouterr().out == (
            "flexible (1 internal degree of freedom); cross-validation: skipped (samples fell short)\n")
        assert main(["check", hinge_file, "--cross-validate", "--format", "json"]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "accepted_edges": [[3, 0], [3, 1], [0, 1], [4, 0], [4, 2], [0, 2]],
            "agreement": "algebraic-skipped", "algebraic": [[11, 13]] * 3,
            "classification": "flexible-independent", "remaining_pebbles": 4}
        # without --cross-validate nothing is sampled, and the output is as before
        assert main(["check", hinge_file]) == 2
        assert capsys.readouterr().out == plain == "flexible (1 internal degree of freedom)\n"
        assert main(["check", hinge_file, "--format", "json"]) == 2
        assert capsys.readouterr().out == plain_json

    def test_disagreement_exit_three(self, fig2_file, capsys, monkeypatch):
        plant_rank_shift(monkeypatch, -1)
        assert main(["check", fig2_file, "--cross-validate"]) == 3
        err = capsys.readouterr().err
        assert "DEFECT" in err
        assert "reproduction" in err

    def test_a_count_below_three_pebbles_exits_three(self, geo_file, capsys, monkeypatch):
        # a game that leaves two pebbles on the rigid triangle predicts a
        # rank above the maximum: a defect, not a skipped check
        plant_pebble_shift(monkeypatch, -1)
        assert main(["check", geo_file("triangle"), "--cross-validate"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "DEFECT" in captured.err

    def test_json_geometry_input(self, tmp_path, capsys):
        path = tmp_path / "hinge.json"
        path.write_text(json.dumps({"points": 3, "lines": [[0, 1], [0, 2]]}))
        assert main(["check", str(path)]) == 2

    def test_malformed_json_geometry_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": 3, "lines": [[0, 1], [0, 2]], "names": 5}))
        assert main(["check", str(path)]) == 1
        assert "bad geometry document" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"points": 1e400, "lines": []}',
                                      '{"points": 3, "lines": [[0, 1e400]]}'])
    def test_json_geometry_with_infinity_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == "error: bad geometry document: expected an integer, got inf\n"

    @pytest.mark.parametrize("argv,kind", [(["check", "{doc}"], "geometry"),
                                           (["svg", "{seg}", "--realization", "{doc}"],
                                            "realization")],
                             ids=["geometry", "realization"])
    @pytest.mark.parametrize("text,shown", [("[1]", "[1]"), ("null", "None"),
                                            ('"x"', "'x'"), ("5", "5")],
                             ids=["list", "null", "string", "number"])
    def test_json_document_that_is_not_an_object_exits_1(self, tmp_path, capsys, argv, kind,
                                                          text, shown):
        (tmp_path / "doc.json").write_text(text)
        (tmp_path / "seg.geo").write_text("points: 2\nline: 0 1\n")
        paths = {"doc": tmp_path / "doc.json", "seg": tmp_path / "seg.geo"}
        assert main([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr().err == (
            f"error: bad {kind} document: expected a JSON object, got {shown}\n")

    @pytest.mark.parametrize("argv", [["check", "{nested}"],
                                      ["svg", "{seg}", "--realization", "{nested}"]],
                                 ids=["geometry", "realization"])
    def test_deeply_nested_json_exits_1(self, tmp_path, capsys, argv):
        (tmp_path / "nested.json").write_text("[" * 100000)
        (tmp_path / "seg.geo").write_text("points: 2\nline: 0 1\n")
        paths = {"nested": tmp_path / "nested.json", "seg": tmp_path / "seg.geo"}
        assert main([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr().err == "error: bad JSON: nested too deeply\n"

    @pytest.mark.parametrize("argv,text", [
        (["check", "{big}"], '{{"points": {n}, "lines": []}}'),
        (["svg", "{seg}", "--realization", "{big}"],
         '{{"field": "zp", "p": {n}, "slopes": [], "intercepts": [], "points": []}}'),
    ], ids=["geometry", "realization"])
    def test_overlong_json_integer_exits_1(self, tmp_path, capsys, argv, text):
        # json refuses an integer of more than 4300 digits with a plain ValueError
        (tmp_path / "big.json").write_text(text.format(n="9" * 5000))
        (tmp_path / "seg.geo").write_text("points: 2\nline: 0 1\n")
        paths = {"big": tmp_path / "big.json", "seg": tmp_path / "seg.geo"}
        assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: bad JSON: ")
        assert "Traceback" not in captured.err and captured.err.count("\n") == 1

    def test_undecodable_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.geo"
        path.write_bytes(b"\xff\xfe")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: input is not UTF-8 text")

    @pytest.mark.parametrize("points", [0, 1])
    def test_cross_validates_below_two_points(self, tmp_path, capsys, points):
        path = tmp_path / "few.geo"
        path.write_text(f"points: {points}\n")
        assert main(["check", str(path), "--cross-validate"]) == 0
        assert capsys.readouterr().out == (
            f"rigid (0/0 edges independent, {2 * points} pebbles remain); cross-validation: agree\n")
        assert main(["check", str(path), "--cross-validate", "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            '{"accepted_edges":[],"agreement":"agree","algebraic":[[0,0]],'
            f'"classification":"minimally-rigid","remaining_pebbles":{2 * points}}}\n')

    def test_disconnected_input_is_flagged(self, tmp_path, capsys):
        path = tmp_path / "apart.geo"
        path.write_text("points: 4\nline: 0 1\nline: 2 3\n")
        assert main(["check", str(path)]) == 2
        assert "[disconnected input]" in capsys.readouterr().out
        # and cross-validated: two components of two points, 3 + 3 trivial motions
        assert main(["check", str(path), "--cross-validate"]) == 2
        assert capsys.readouterr().out == (
            "flexible (3 internal degrees of freedom) [disconnected input]; cross-validation: agree\n")
        assert main(["check", str(path), "--cross-validate", "--format", "json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["agreement"] == "agree" and doc["algebraic"] == [[12, 15]]
        assert "skip_reason" not in doc


class TestMinimal:
    def test_minimally_rigid(self, fig2_file, capsys):
        assert main(["minimal", fig2_file]) == 0
        assert "minimally rigid" in capsys.readouterr().out

    def test_not_minimal(self, tmp_path, capsys):
        path = tmp_path / "dup.geo"
        path.write_text(TRIANGLE_TEXT + "line: 0 1\n")
        assert main(["minimal", str(path)]) == 0
        assert "removable rods: 0 3" in capsys.readouterr().out

    def test_flexible_input(self, geo_file, capsys):
        for name in ("hinge", "chain100"):
            assert main(["minimal", geo_file(name)]) == 2
            assert "minimality undefined" in capsys.readouterr().out

    def test_json(self, fig2_file, capsys):
        assert main(["minimal", fig2_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["minimally_rigid"] is True and doc["removable_rods"] == []

    # one point keeps its two pebbles: it has no third trivial motion
    @pytest.mark.parametrize("name,removable,remaining,accepted", [
        ("triangle", [], 3, 9),
        ("point", [], 2, 0),
        ("doubled-triangle", [0, 3], 3, 11),
        ("arrangement30", list(range(30)), 3, 579),
    ], ids=["triangle", "point", "doubled-triangle", "arrangement30"])
    def test_json_report(self, geo_file, capsys, name, removable, remaining, accepted):
        assert main(["minimal", geo_file(name), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["removable_rods"] == removable and doc["minimally_rigid"] == (not removable)
        assert doc["remaining_pebbles"] == remaining and len(doc["accepted_edges"]) == accepted

    @pytest.mark.parametrize("points", [0, 1])
    def test_cross_validates_below_two_points(self, tmp_path, capsys, points):
        path = tmp_path / "few.geo"
        path.write_text(f"points: {points}\n")
        assert main(["minimal", str(path), "--cross-validate"]) == 0
        assert capsys.readouterr().out == (
            "minimally rigid (deleting any rod yields a flexible configuration);"
            " cross-validation: agree\n")
        assert main(["minimal", str(path), "--cross-validate", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["agreement"] == "agree" and doc["algebraic"] == [[0, 0]]
        assert doc["deletion_cross_validation"] == [] and doc["remaining_pebbles"] == 2 * points

    @pytest.mark.parametrize("name", ["fig2", "triangle", "arrangement30"])
    def test_json_cross_validates_every_deletion(self, geo_file, capsys, name):
        # fig2's deletions of rods 1-3 strand a point, and are sampled too
        path = geo_file(name)
        assert main(["minimal", path, "--format", "json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(["minimal", path, "--cross-validate", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rods = cli.load_geometry(path).num_lines
        assert doc["deletion_cross_validation"] == [{"agreement": "agree", "skip_reason": None}] * rods
        assert doc["removable_rods"] == plain["removable_rods"]

    @pytest.mark.parametrize("name", ["sparse20", "doubled-triangle"])
    def test_removable_rods_are_the_rigid_deletions(self, geo_file, tmp_path, capsys, name):
        path = geo_file(name)
        assert main(["minimal", path, "--format", "json"]) == 0
        removable = json.loads(capsys.readouterr().out)["removable_rods"]
        geometry = cli.load_geometry(path)
        rigid_deletions = []
        deletion = tmp_path / "deletion.geo"
        for l in range(geometry.num_lines):
            deletion.write_text(serialize_geometry(remove_line(geometry, l)))
            code = main(["check", str(deletion)])
            assert code in (0, 2)
            if code == 0:
                rigid_deletions.append(l)
        capsys.readouterr()
        assert removable == rigid_deletions
        assert 0 < len(removable) < geometry.num_lines

    def test_flexible_input_cross_validates(self, hinge_file, capsys):
        assert main(["minimal", hinge_file, "--cross-validate"]) == 2
        assert capsys.readouterr().out == (
            "flexible (1 internal degree of freedom); cross-validation: agree; "
            "minimality undefined\n"
        )

    @pytest.mark.parametrize("name,decides,code", [("fig2", 1, 0), ("hinge", 1, 2)])
    def test_decides_once_per_question(self, geo_file, name, decides, code, monkeypatch, capsys):
        # the base verdict once; one leave-one-out game answers every deletion
        import rodrigidity.analysis as analysis

        calls = []
        real = analysis.decide_rod_rigidity
        for module in (analysis, cli):
            monkeypatch.setattr(module, "decide_rod_rigidity",
                                lambda *a, **k: calls.append(a) or real(*a, **k))
        assert main(["minimal", geo_file(name)]) == code
        assert len(calls) == decides

    @pytest.mark.parametrize("name", ["fig2", "arrangement8", "triangle"])
    def test_cross_validation_plays_once(self, geo_file, name, monkeypatch, capsys):
        # each deletion is checked against its leave-one-out count, not
        # decided again with a game of its own
        import rodrigidity.analysis as analysis

        decides, plays = [], []
        real_decide, real_play = analysis.decide_rod_rigidity, analysis.play
        for module in (analysis, cli):
            monkeypatch.setattr(module, "decide_rod_rigidity",
                                lambda *a, **k: decides.append(a) or real_decide(*a, **k))
        monkeypatch.setattr(analysis, "play", lambda *a, **k: plays.append(a) or real_play(*a, **k))
        assert main(["minimal", geo_file(name), "--cross-validate"]) == 0
        assert "; cross-validation: agree" in capsys.readouterr().out
        assert len(decides) == len(plays) == 1

    def test_deletion_disagreement_exit_three(self, fig2_file, capsys, monkeypatch):
        import rodrigidity.analysis as analysis

        # a planted leave-one-out count calls every deletion rigid
        monkeypatch.setattr(analysis, "remaining_without_each",
                            lambda verdict: (5,) * len(verdict.group_sizes))
        assert main(["minimal", fig2_file, "--cross-validate"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        message, bundle = captured.err.splitlines()
        assert message.startswith("DEFECT: ") and "deleting rod 0" in message
        bundle = json.loads(bundle)
        assert bundle["deleted_rod"] == 0 and bundle["remaining_pebbles"] == 3

    def test_refused_deletions_are_reported(self, tmp_path, capsys):
        path = tmp_path / "tripled.geo"
        path.write_text("points: 2\nline: 0 1\nline: 0 1\nline: 0 1\n")
        # each deletion's reason names the two rods left, in the input's numbering
        reasons = [f"rods {a} and {b} share points 0 and 1" for a, b in ((1, 2), (0, 2), (0, 1))]
        assert main(["minimal", str(path), "--cross-validate"]) == 0
        assert capsys.readouterr().out == (
            f"rigid but not minimally rigid (removable rods: 0 1 2); cross-validation: "
            f"skipped ({reasons[2]})"
            + "".join(f"; deleting rod {l}: cross-validation skipped ({r})"
                      for l, r in enumerate(reasons))
            + "\n"
        )
        assert main(["minimal", str(path), "--cross-validate", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["skip_reason"] == reasons[2]
        assert doc["deletion_cross_validation"] == [
            {"agreement": "algebraic-skipped", "skip_reason": r} for r in reasons]
        # without --cross-validate nothing was sampled, so nothing is reported
        assert main(["minimal", str(path)]) == 0
        assert capsys.readouterr().out == "rigid but not minimally rigid (removable rods: 0 1 2)\n"
        assert main(["minimal", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "deletion_cross_validation" not in doc and "skip_reason" not in doc

    def test_refused_deletion_names_input_rods(self, tmp_path, capsys):
        # deleting rod 1 or 2 leaves rods 0 and 3 through points 0 and 1,
        # which are rods 0 and 2 of the deletion geometry
        path = tmp_path / "doubled-triangle.geo"
        path.write_text(TRIANGLE_TEXT + "line: 0 1\n")
        assert main(["minimal", str(path), "--cross-validate"]) == 0
        assert capsys.readouterr().out == (
            "rigid but not minimally rigid (removable rods: 0 3); cross-validation: skipped "
            "(rods 0 and 3 share points 0 and 1); deleting rods 1 2: cross-validation "
            "skipped (rods 0 and 3 share points 0 and 1)\n"
        )

    def test_short_deletion_is_reported(self, fig2_file, monkeypatch, capsys):
        # the base's sample is true; every sample of each deletion, all of
        # them flexible, falls one short of its predicted rank
        plant_rank_shift(monkeypatch, 0, -1)
        assert main(["minimal", fig2_file, "--cross-validate"]) == 0
        assert capsys.readouterr().out == (
            "minimally rigid (deleting any rod yields a flexible configuration); "
            "cross-validation: agree; deleting rods 0 1 2 3: cross-validation skipped "
            "(samples fell short)\n"
        )

    def test_field_reaches_sampling(self, fig2_file, monkeypatch, capsys):
        import rodrigidity.analysis as analysis

        fields = []
        real = analysis.sample_realization
        monkeypatch.setattr(analysis, "sample_realization",
                            lambda *a, **k: fields.append(k.get("field")) or real(*a, **k))
        assert main(["minimal", fig2_file, "--cross-validate", "--field", "rational"]) == 0
        assert "minimally rigid" in capsys.readouterr().out
        # one certifying sample for the base and one for each deletion, those
        # that strand a point included
        assert len(fields) == 5 and all(f is oracle.RATIONALS for f in fields)


class TestCanon:
    def test_text(self, fig2_file, capsys):
        assert main(["canon", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "19 edges on 11 vertices" in out
        assert "(= |L'|+2|P'|-3)" in out

    def test_json(self, fig2_file, capsys):
        assert main(["canon", fig2_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["edges"]) == 19 and doc["tight"] is True

    @pytest.mark.parametrize("name,edges,vertices,tight", [
        ("triangle", 9, 6, True),
        ("chain100", 2 * 301 - 102, 301, False),
        ("arrangement30", 579, 291, True),
    ], ids=["triangle", "chain100", "arrangement30"])
    def test_sizes(self, geo_file, capsys, name, edges, vertices, tight):
        path = geo_file(name)
        assert main(["canon", path]) == 0
        assert capsys.readouterr().out.startswith(
            f"canonical subgraph: {edges} edges on {vertices} vertices (")
        assert main(["canon", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["edges"]) == edges and doc["tight"] is tight

    def test_point_order_within_rods_does_not_matter(self, geo_file, tmp_path, capsys):
        path = geo_file("arrangement30")
        geometry = cli.load_geometry(path)
        reversed_path = tmp_path / "reversed.geo"
        reversed_path.write_text(serialize_geometry(
            IncidenceGeometry(geometry.num_points, [line[::-1] for line in geometry.lines])))
        for fmt in ("text", "json"):
            assert main(["canon", path, "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert main(["canon", str(reversed_path), "--format", fmt]) == 0
            assert capsys.readouterr().out == out

    @pytest.mark.parametrize("name", sorted(set(GEOMETRY_TEXTS) - {"point"}))
    def test_subgeometry_equals_the_checked_construction(self, geo_file, name):
        sub = canonical_subgraph(cli.load_geometry(geo_file(name))).subgeometry
        assert sub == IncidenceGeometry(sub.num_points, sub.lines, sub.point_names)

    @pytest.mark.parametrize("text", ["points: 4\nline: 0 1\nline: 2 3\n",
                                      "points: 3\nline: 0 1\n"])
    def test_disconnected_exits_1(self, tmp_path, capsys, text):
        # two separate rods, and a rod beside an isolated point
        path = tmp_path / "apart.geo"
        path.write_text(text)
        assert main(["canon", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the construction requires a connected geometry\n"


@pytest.mark.parametrize("argv", [["canon", "{path}", "--seed", "3"],
                                  ["fuzz", "--count", "1", "--format", "json"]])
def test_unread_options_are_usage_errors(fig2_file, capsys, argv):
    # canon draws nothing, and fuzz prints one text line only
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(path=fig2_file) for arg in argv])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_every_cli_option_has_a_case():
    # every subcommand, option (in one of its spellings) and choice is passed
    # by some case in this file, as a quoted literal
    source = Path(__file__).read_text(encoding="utf-8")

    def quoted(word):
        return f'"{word}"' in source or f"'{word}'" in source

    (commands,) = (action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    missing = [name for name in commands if not quoted(name)]
    for name, parser in commands.items():
        for action in parser._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                if not any(map(quoted, action.option_strings)):
                    missing.append(f"{name} {action.option_strings[-1]}")
            missing += [f"{name} {action.dest}={choice}"
                        for choice in action.choices or () if not quoted(choice)]
    assert missing == []


class TestOracleCommand:
    def test_rigid(self, fig2_file, capsys):
        assert main(["oracle", fig2_file]) == 0
        assert "rigid (concurrence rank 35 = max 35)" in capsys.readouterr().out

    def test_flexible(self, hinge_file, capsys):
        assert main(["oracle", hinge_file]) == 2
        assert "deficit 1" in capsys.readouterr().out

    def test_infeasible(self, tmp_path, capsys):
        path = tmp_path / "forced.geo"
        for text, reason in (
            ("points: 2\nline: 0 1\nline: 0 1\nline: 0 1\n", "rods 0 and 1 share points 0 and 1"),
            (DOUBLED_TEXT, "rods 0 and 1 share points 0 and 1"),
            (PAPPUS_TEXT, "all 32 sampled realizations collapsed distinct points"),
        ):
            path.write_text(text)
            assert main(["oracle", str(path)]) == 1
            assert capsys.readouterr().err == f"error: sampling infeasible: {reason}\n"

    @pytest.mark.parametrize("argv", [["oracle"], ["check", "--cross-validate"],
                                      ["minimal", "--cross-validate"], ["svg", "--cone"]],
                             ids=["oracle", "check", "minimal", "svg"])
    def test_rod_listing_order_does_not_matter(self, tmp_path, capsys, argv):
        # a rod is the set of its points: listing the doubled rod backwards
        # names the same shared pair
        runs = []
        for listing in ("0 1 2", "2 1 0"):
            path = tmp_path / "doubled3.geo"
            path.write_text(f"points: 3\nline: 0 1 2\nline: {listing}\n")
            code = main(argv + [str(path)])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert "rods 0 and 1 share points 0 and 1" in runs[0][1] + runs[0][2]

    def test_rational_field(self, hinge_file, capsys):
        assert main(["oracle", hinge_file, "--field", "rational", "--format", "json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"max_rank": 13, "rank": 12, "rigid": False}

    @pytest.mark.parametrize("name,field,code,rank,max_rank", [
        ("hinge", "zp", 2, 12, 13),
        ("hinge", "zp2", 2, 12, 13),
        ("triangle", "zp2", 0, 18, 18),
        ("triangle", "rational", 0, 18, 18),
        ("arrangement30", "zp", 0, 1131, 1131),
        ("arrangement30", "rational", 0, 1131, 1131),
    ], ids=["hinge-zp", "hinge-zp2", "triangle-zp2", "triangle-rational", "arrangement30-zp",
            "arrangement30-rational"])
    def test_json_rank(self, geo_file, capsys, name, field, code, rank, max_rank):
        assert main(["oracle", geo_file(name), "--field", field, "--format", "json"]) == code
        assert json.loads(capsys.readouterr().out) == {
            "max_rank": max_rank, "rank": rank, "rigid": rank == max_rank}

    @pytest.mark.parametrize("points", [0, 1])
    def test_agrees_with_check_below_two_points(self, tmp_path, capsys, points):
        # Fewer than three trivial motions: each of the 2|P| pebbles is one,
        # and the maximum rank is 0, not negative.
        path = tmp_path / "few.geo"
        path.write_text(f"points: {points}\n")
        assert main(["check", str(path)]) == main(["oracle", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"rigid (0/0 edges independent, {2 * points} pebbles remain)\n"
            "rigid (concurrence rank 0 = max 0)\n"
        )
        assert main(["check", str(path), "--format", "json"]) == 0
        assert main(["oracle", str(path), "--format", "json"]) == 0
        check, oracle_doc = map(json.loads, capsys.readouterr().out.splitlines())
        assert check["remaining_pebbles"] == 2 * points
        assert oracle_doc == {"max_rank": 0, "rank": 0, "rigid": True}

    def test_ranks_once(self, fig2_file, monkeypatch, capsys):
        calls = []
        real = oracle.rank_of
        for module in (oracle, cli):
            monkeypatch.setattr(module, "rank_of",
                                lambda m, *rest: calls.append(m) or real(m, *rest))
        assert main(["oracle", fig2_file, "--format", "json"]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out) == {"max_rank": 35, "rank": 35, "rigid": True}


class TestDotAndSvg:
    def test_dot(self, fig2_file, capsys):
        assert main(["dot", fig2_file]) == 0
        out = capsys.readouterr().out
        assert out.count("shape=square") == 4 and out.count(" -- ") == 20

    # sha256 of `rodrig dot`: the file is pinned byte for byte, as the svg
    # digests below pin `svg --cone`
    @pytest.mark.parametrize("name,digest", [
        ("fig2", "0b69b147e4892691d5b2e31c191d4339094faec84acb24b4c3cb75acc5fabfdd"),
        ("arrangement30", "2629a384195eb02e34a0bf833345f82a24195ed5b3dfa889191bf507018f48ba"),
    ])
    def test_dot_digest(self, geo_file, capsys, name, digest):
        assert main(["dot", geo_file(name)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_dot_escapes_a_quoted_name(self, tmp_path, capsys):
        path = tmp_path / "quoted.geo"
        path.write_text('points: 3\npoint 0 a"b\nline: 0 1\nline: 1 2\nline: 0 2\n')
        assert main(["dot", str(path)]) == 0
        assert 'label="a\\"b"' in capsys.readouterr().out

    def test_dot_to_file(self, fig2_file, tmp_path):
        target = tmp_path / "cone.dot"
        assert main(["dot", fig2_file, "-o", str(target)]) == 0
        assert target.read_text().startswith("graph cone {")

    def test_svg_sampled(self, fig2_file, capsys):
        assert main(["svg", fig2_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<svg") and out.count("<line") == 4 and out.count("<circle") == 7

    def test_svg_deterministic(self, fig2_file, capsys):
        assert main(["svg", fig2_file, "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["svg", fig2_file, "--seed", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_svg_cone_has_hollow_points(self, fig2_file, capsys):
        assert main(["svg", fig2_file, "--cone"]) == 0
        out = capsys.readouterr().out
        assert out.count("<circle") == 11
        assert out.count('fill="#ffffff"') == 4

    # Neither construction checks its own output, so these digests are what
    # catches a fault in the sampled or extended coordinates.
    @pytest.mark.parametrize("seed,flags,digest", [
        (1729, [], "e4a53715026be7ba8f0008a23c5c7d38f0c047500a9e89cbc8e553af9ba7dfbb"),
        (1729, ["--cone"], "7784a00ed58da93a2411ab66cdd8c8beef5b5ed01e71d38cf98b14aabc687670"),
        (3, [], "55a526e74461b35aa5bcaf8219e6d689185dcf1edaf72054fd94ac7df0d55bfb"),
        (3, ["--cone"], "de458fd7b5d92a5fdad144342cbadfa09d4ba00e0f44a8d90552efebbdafd98e"),
    ], ids=["1729", "1729-cone", "3", "3-cone"])
    def test_svg_digest(self, fig2_file, capsys, seed, flags, digest):
        assert main(["svg", fig2_file, "--seed", str(seed)] + flags) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_svg_from_coords_file(self, fig2_file, tmp_path, capsys):
        coords = tmp_path / "coords.json"
        coords.write_text(json.dumps(
            {"coords": [[str(x), str(y)] for x, y in FIG2_COORDS]}
        ))
        assert main(["svg", fig2_file, "--realization", str(coords)]) == 0
        assert capsys.readouterr().out.count("<line") == 4

    @pytest.mark.parametrize("doc", [
        {"coords": 5},
        {"coords": [["a", "b"], ["0", "1"]]},
        {"coords": [[0, 0], [1]]},
        5,
        {"field": "rational", "slopes": [[1, 1]], "intercepts": [[0, 1]],
         "points": [[[0, 1], [0, 1]]]},
        {"field": "rational", "slopes": [[1, 1]], "intercepts": [],
         "points": [[[0, 1], [0, 1]], [[1, 1], [-1, 1]]]},
        {"coords": ["12", "34"]},
        {"coords": [[True, False], [3, 4]]},
        {"coords": [{"1": 0, "2": 0}, [3, 4]]},
        {"field": "rational", "slopes": [["1_0", "1"]], "intercepts": [["0", "1"]],
         "points": [[["0", "1"], ["0", "1"]], [["1", "1"], ["-10", "1"]]]},
    ], ids=["coords-int", "coords-text", "coords-short-pair", "top-level-int",
            "too-few-points", "missing-intercept", "coords-string-point", "coords-bool",
            "coords-object-point", "underscore-integer"])
    def test_svg_malformed_realization_exits_1(self, tmp_path, capsys, doc):
        geo = tmp_path / "seg.geo"
        geo.write_text("points: 2\nline: 0 1\n")
        realization = tmp_path / "realization.json"
        realization.write_text(json.dumps(doc))
        assert main(["svg", str(geo), "--realization", str(realization)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_svg_realization_missing_an_incidence_exits_1(self, fig2_file, tmp_path, capsys):
        rho = oracle.sample_realization(IncidenceGeometry(7, FIG2_LINES), 3,
                                        field=oracle.RATIONALS)
        intercepts = list(rho.intercepts)
        intercepts[0] += 1
        realization = tmp_path / "realization.json"
        realization.write_text(json.dumps(
            oracle.realization_to_json(oracle.LinearRealization(
                rho.field, rho.slopes, tuple(intercepts), rho.xs, rho.ys))))
        assert main(["svg", fig2_file, "--realization", str(realization)]) == 1
        assert capsys.readouterr().err == "error: the realization does not satisfy the geometry\n"

    def test_svg_undecodable_realization_exits_1(self, tmp_path, capsys):
        geo = tmp_path / "seg.geo"
        geo.write_text("points: 2\nline: 0 1\n")
        realization = tmp_path / "realization.json"
        realization.write_bytes(b"\xff\xfe")
        assert main(["svg", str(geo), "--realization", str(realization)]) == 1
        assert capsys.readouterr().err.startswith("error: input is not UTF-8 text")

    def test_svg_infeasible(self, tmp_path, capsys):
        path = tmp_path / "forced.geo"
        path.write_text("points: 2\nline: 0 1\nline: 0 1\n")
        assert main(["svg", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: sampling infeasible: rods 0 and 1 share points 0 and 1\n"

    # sha256 of `svg --realization` on coordinates files.  The triangle has no
    # vertical rod, so it is drawn as given: its digests were taken when a
    # vertical rod still needed a flag.  The segment turns by t = 1, the unit
    # square by t = 2.
    @pytest.mark.parametrize("lines,coords,flags,digest", [
        ("line: 0 1\nline: 1 2\nline: 0 2\n", [["0", "0"], ["3", "1"], ["1/2", "2"]], [],
         "07a56114c07578b22f209195b7a8cb9339280491a8d1edef2157b60eb0ed709d"),
        ("line: 0 1\nline: 1 2\nline: 0 2\n", [["0", "0"], ["3", "1"], ["1/2", "2"]], ["--cone"],
         "483e32faca3292d4401da82285285e508a9086f9f5d9035ae1c730af29daab4e"),
        ("line: 0 1\n", [["0", "0"], ["0", "1"]], [],
         "297bd938f5249b6586d162a3079816a5bd08c2c8ffbae329857a7d0bf5dbffe4"),
        ("line: 0 1\n", [["0", "0"], ["0", "1"]], ["--cone"],
         "20519b790d240ca213ba27cf7ffff75200351eb122582a3c2a04eb1aed62391a"),
        ("line: 0 1\nline: 1 2\nline: 2 3\nline: 3 0\n",
         [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]], [],
         "0c53b214c424423d0e79222544c09be79394dda7fb47dcb12cf93ff55d21aaaf"),
        ("line: 0 1\nline: 1 2\nline: 2 3\nline: 3 0\n",
         [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]], ["--cone"],
         "484fe85d2f849b7cf53230b49c22b452baca9ca45acfd0c7279d577b3a2e390a"),
    ], ids=["triangle", "triangle-cone", "segment", "segment-cone", "square", "square-cone"])
    def test_svg_coords_digest(self, tmp_path, capsys, lines, coords, flags, digest):
        geo = tmp_path / "rods.geo"
        geo.write_text(f"points: {len(coords)}\n{lines}")
        path = tmp_path / "coords.json"
        path.write_text(json.dumps({"coords": coords}))
        assert main(["svg", str(geo), "--realization", str(path)] + flags) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("lines, coords, message", [
        # the line through points 0 and 1 is vertical, but point 2 is off it:
        # the coordinates realize no rod, however the rod is listed
        ("points: 3\nline: 0 1 2\n", [[0, 0], [0, 1], [1, 5]],
         "point 2 does not lie on line 0: coordinates do not realize the geometry"),
        ("points: 3\nline: 2 0 1\n", [[0, 0], [0, 1], [1, 5]],
         "point 2 does not lie on line 0: coordinates do not realize the geometry"),
        # line 0 is vertical, but line 1 fixes no direction at all
        ("points: 4\nline: 0 1\nline: 2 3\n", [[0, 0], [0, 1], [2, 2], [2, 2]],
         "every point of line 1 has the same coordinates, so they fix no direction for it"),
    ], ids=["bent-ascending", "bent-shuffled", "vertical-then-coincident"])
    def test_svg_off_line_point_is_not_called_vertical(self, tmp_path, capsys, lines, coords,
                                                       message):
        # every line is checked before any is tested for verticality
        geo = tmp_path / "rods.geo"
        geo.write_text(lines)
        path = tmp_path / "coords.json"
        path.write_text(json.dumps({"coords": coords}))
        assert main(["svg", str(geo), "--realization", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_svg_coincident_points(self, tmp_path, capsys):
        # a line's direction comes from two distinct points, whichever
        # point comes first
        geo = tmp_path / "rod.geo"
        geo.write_text("points: 3\nline: 0 1 2\n")
        drawings = []
        for coords in ([["0", "0"], ["0", "0"], ["1", "1"]], [["0", "0"], ["1", "1"], ["0", "0"]]):
            path = tmp_path / "coords.json"
            path.write_text(json.dumps({"coords": coords}))
            assert main(["svg", str(geo), "--realization", str(path)]) == 0
            drawings.append(capsys.readouterr().out)
        assert [d.count("<line") for d in drawings] == [1] * 2
        path.write_text(json.dumps({"coords": [["1", "2"]] * 3}))
        assert main(["svg", str(geo), "--realization", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: every point of line 0 has the same coordinates, so they fix no direction for it\n")


def test_fuzz_small(capsys):
    assert main(["fuzz", "--count", "5", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "agree=5" in out and "disagreements=0" in out


# each gave up under a cap of max(50, 25 x count) attempts, though its bounds can be met
@pytest.mark.parametrize("argv", [
    ["--count", "1", "--seed", "311"], ["--count", "2", "--seed", "19"],
    ["--count", "2", "--seed", "46"], ["--count", "2", "--seed", "179"],
    ["--count", "3", "--seed", "225"], ["--count", "5", "--max-points", "40", "--max-lines", "12"],
])
def test_fuzz_validates_where_a_fixed_cap_gave_up(capsys, argv):
    assert main(["fuzz", *argv]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"agree={argv[1]} ") and out.endswith(" disagreements=0\n")


@pytest.mark.parametrize("flag,value,least", [
    ("--count", "-1", 1), ("--count", "0", 1), ("--max-points", "1", 2), ("--max-lines", "0", 1),
])
def test_fuzz_out_of_range_bound_exits_1(capsys, flag, value, least):
    assert main(["fuzz", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be at least {least}, got {value}\n"


def test_fuzz_two_points_carry_one_rod(capsys):
    # every candidate rod after the first shares both points with it
    assert main(["fuzz", "--max-points", "2", "--max-lines", "1000", "--count", "5"]) == 0
    assert capsys.readouterr().out == (
        "agree=5 (rigid=5 flexible=0) skipped=0 attempted=5 disagreements=0\n")


# nothing-validates: no drawn geometry cross-validates, as if every sample fell short
@pytest.mark.parametrize("argv,message,validates", [
    (["--max-points", "3000", "--max-lines", "1", "--count", "1"],
     "could not generate a connected geometry in 1000 draws (max_points=3000, max_lines=1)", True),
    (["--max-points", "1000000000000", "--count", "1"],
     "could not generate a connected geometry in 1000 draws (max_points=1000000000000,"
     " max_lines=6)", True),
    (["--count", "5"],
     "campaign validated only 0/5 geometries in 1000 attempts, none in the last 1000", False),
], ids=["no-connected-draw", "no-draw-of-a-trillion-points", "nothing-validates"])
def test_fuzz_unmet_bounds_exit_1(capsys, monkeypatch, argv, message, validates):
    if not validates:
        monkeypatch.setattr(analysis, "decide_rod_rigidity",
                            lambda *a, **k: RigidityVerdict(True, play(0), "algebraic-skipped"))
    assert main(["fuzz", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_fuzz_disagreement_still_exits_3(capsys, monkeypatch):
    plant_rank_shift(monkeypatch, -1)
    assert main(["fuzz", "--count", "5"]) == 3
    assert "DEFECT" in capsys.readouterr().err


# stdout of `rodrig fuzz --count 200` once the generator drew only partial
# linear spaces and the cone points came from their own stream
FUZZ_GOLDEN = {
    1: "agree=200 (rigid=140 flexible=60) skipped=0 attempted=200 disagreements=0\n",
    2: "agree=200 (rigid=142 flexible=58) skipped=0 attempted=200 disagreements=0\n",
    3: "agree=200 (rigid=152 flexible=48) skipped=1 attempted=201 disagreements=0\n",
    77: "agree=200 (rigid=147 flexible=53) skipped=0 attempted=200 disagreements=0\n",
}


@pytest.mark.parametrize("seed", sorted(FUZZ_GOLDEN))
def test_fuzz_golden(seed, capsys):
    assert main(["fuzz", "--count", "200", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == FUZZ_GOLDEN[seed]


@pytest.mark.parametrize("name,code", [("triangle", 0), ("hinge", 2), ("missing", 1)])
def test_exit_code_through_a_process(geo_file, tmp_path, name, code):
    # the module's `sys.exit(main())`, which the installed `rodrig` script also takes
    path = str(tmp_path / "missing.geo") if name == "missing" else geo_file(name)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "rodrigidity.cli", "check", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == code
    if code == 1:
        assert done.stdout == "" and done.stderr.startswith("error: ")
