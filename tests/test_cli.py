from __future__ import annotations

import json

import pytest

from rodrigidity import cli, oracle
from rodrigidity.cli import main

from conftest import FIG2_COORDS

FIG2_TEXT = """\
points: 7
line: 0 2 3
line: 0 1 4
line: 1 2 5
line: 1 3 6
"""

HINGE_TEXT = "points: 3\nline: 0 1\nline: 0 2\n"
TRIANGLE_TEXT = "points: 3\nline: 0 1\nline: 1 2\nline: 0 2\n"


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.geo"
    path.write_text(FIG2_TEXT)
    return str(path)


@pytest.fixture
def hinge_file(tmp_path):
    path = tmp_path / "hinge.geo"
    path.write_text(HINGE_TEXT)
    return str(path)


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
        path.write_text("points: 7\nline: 0 9\n")
        assert main(["check", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

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

    def test_disagreement_exit_three(self, fig2_file, capsys, monkeypatch):
        import rodrigidity.analysis as analysis

        monkeypatch.setattr(analysis, "is_string_config_rigid", lambda sc, rho: False)
        assert main(["check", fig2_file, "--cross-validate"]) == 3
        err = capsys.readouterr().err
        assert "DEFECT" in err
        assert "reproduction" in err

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

    def test_undecodable_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.geo"
        path.write_bytes(b"\xff\xfe")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: input is not UTF-8 text")

    def test_disconnected_input_is_flagged(self, tmp_path, capsys):
        path = tmp_path / "apart.geo"
        path.write_text("points: 4\nline: 0 1\nline: 2 3\n")
        assert main(["check", str(path)]) == 2
        assert "[disconnected input]" in capsys.readouterr().out


class TestMinimal:
    def test_minimally_rigid(self, fig2_file, capsys):
        assert main(["minimal", fig2_file]) == 0
        assert "minimally rigid" in capsys.readouterr().out

    def test_not_minimal(self, tmp_path, capsys):
        path = tmp_path / "dup.geo"
        path.write_text(TRIANGLE_TEXT + "line: 0 1\n")
        assert main(["minimal", str(path)]) == 0
        assert "removable rods: 0 3" in capsys.readouterr().out

    def test_flexible_input(self, hinge_file, capsys):
        assert main(["minimal", hinge_file]) == 2
        assert "minimality undefined" in capsys.readouterr().out

    def test_json(self, fig2_file, capsys):
        assert main(["minimal", fig2_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["minimally_rigid"] is True and doc["removable_rods"] == []

    def test_flexible_input_cross_validates(self, hinge_file, capsys):
        assert main(["minimal", hinge_file, "--cross-validate"]) == 2
        assert capsys.readouterr().out == (
            "flexible (1 internal degree of freedom); cross-validation: agree; "
            "minimality undefined\n"
        )

    @pytest.mark.parametrize("name,decides,code", [("fig2", 1, 0), ("hinge", 1, 2)])
    def test_decides_once_per_question(self, request, name, decides, code, monkeypatch, capsys):
        # the base verdict once; one leave-one-out game answers every deletion
        import rodrigidity.analysis as analysis

        calls = []
        real = analysis.decide_rod_rigidity
        for module in (analysis, cli):
            monkeypatch.setattr(module, "decide_rod_rigidity",
                                lambda *a, **k: calls.append(a) or real(*a, **k))
        assert main(["minimal", request.getfixturevalue(f"{name}_file")]) == code
        assert len(calls) == decides


    def test_field_reaches_sampling(self, fig2_file, monkeypatch, capsys):
        import rodrigidity.analysis as analysis

        fields = []
        real = analysis.sample_realization
        monkeypatch.setattr(analysis, "sample_realization",
                            lambda *a, **k: fields.append(k.get("field")) or real(*a, **k))
        assert main(["minimal", fig2_file, "--cross-validate", "--field", "rational"]) == 0
        assert "minimally rigid" in capsys.readouterr().out
        # three seeds for the base and three for deleting rod 0; the other
        # deletions strand a point, so they are flexible without sampling
        assert len(fields) == 6 and all(f is oracle.RATIONALS for f in fields)


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


class TestOracleCommand:
    def test_rigid(self, fig2_file, capsys):
        assert main(["oracle", fig2_file]) == 0
        assert "rigid (concurrence rank 35 = max 35)" in capsys.readouterr().out

    def test_flexible(self, hinge_file, capsys):
        assert main(["oracle", hinge_file]) == 2
        assert "deficit 1" in capsys.readouterr().out

    def test_infeasible(self, tmp_path, capsys):
        path = tmp_path / "forced.geo"
        path.write_text("points: 2\nline: 0 1\nline: 0 1\nline: 0 1\n")
        assert main(["oracle", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: sampling infeasible: rods 0 and 1 share points 0 and 1\n"

    def test_rational_field(self, hinge_file, capsys):
        assert main(["oracle", hinge_file, "--field", "rational", "--format", "json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"max_rank": 13, "rank": 12, "rigid": False}

    @pytest.mark.parametrize("points", [0, 1])
    def test_agrees_with_check_below_two_points(self, tmp_path, capsys, points):
        # Fewer than three trivial motions: the maximum rank is 0, not negative.
        path = tmp_path / "few.geo"
        path.write_text(f"points: {points}\n")
        assert main(["check", str(path)]) == main(["oracle", str(path)]) == 0
        assert capsys.readouterr().out == (
            "rigid (degenerate geometry: nothing can move)\nrigid (concurrence rank 0 = max 0)\n"
        )
        assert main(["check", str(path), "--format", "json"]) == 0
        assert main(["oracle", str(path), "--format", "json"]) == 0
        check, oracle_doc = map(json.loads, capsys.readouterr().out.splitlines())
        assert check["remaining_pebbles"] == 3
        assert oracle_doc == {"max_rank": 0, "rank": 0, "rigid": True}

    def test_ranks_once(self, fig2_file, monkeypatch, capsys):
        calls = []
        real = oracle.rank_of
        for module in (oracle, cli):
            monkeypatch.setattr(module, "rank_of", lambda m: calls.append(m) or real(m))
        assert main(["oracle", fig2_file, "--format", "json"]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out) == {"max_rank": 35, "rank": 35, "rigid": True}


class TestDotAndSvg:
    def test_dot(self, fig2_file, capsys):
        assert main(["dot", fig2_file]) == 0
        out = capsys.readouterr().out
        assert out.count("shape=square") == 4 and out.count(" -- ") == 20

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
    ], ids=["coords-int", "coords-text", "coords-short-pair", "top-level-int",
            "too-few-points", "missing-intercept"])
    def test_svg_malformed_realization_exits_1(self, tmp_path, capsys, doc):
        geo = tmp_path / "seg.geo"
        geo.write_text("points: 2\nline: 0 1\n")
        realization = tmp_path / "realization.json"
        realization.write_text(json.dumps(doc))
        assert main(["svg", str(geo), "--realization", str(realization)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_svg_vertical_needs_rotate(self, tmp_path, capsys):
        geo = tmp_path / "seg.geo"
        geo.write_text("points: 2\nline: 0 1\n")
        coords = tmp_path / "coords.json"
        coords.write_text(json.dumps({"coords": [["0", "0"], ["0", "1"]]}))
        assert main(["svg", str(geo), "--realization", str(coords)]) == 1
        assert "vertical" in capsys.readouterr().err
        assert main(["svg", str(geo), "--realization", str(coords), "--rotate"]) == 0


def test_fuzz_small(capsys):
    assert main(["fuzz", "--count", "5", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "agree=5" in out and "disagreements=0" in out


@pytest.mark.parametrize("flag,value,least", [
    ("--count", "-1", 1), ("--count", "0", 1), ("--max-points", "1", 2), ("--max-lines", "0", 1),
])
def test_fuzz_out_of_range_bound_exits_1(capsys, flag, value, least):
    assert main(["fuzz", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be at least {least}, got {value}\n"


@pytest.mark.parametrize("argv,message", [
    (["--max-points", "3000", "--max-lines", "1", "--count", "1"],
     "could not generate a connected geometry in 1000 draws (max_points=3000, max_lines=1)"),
    (["--max-points", "2", "--max-lines", "1000", "--count", "5"],
     "campaign validated only 0/5 geometries in 125 attempts"),
], ids=["no-connected-draw", "nothing-validates"])
def test_fuzz_unmet_bounds_exit_1(capsys, argv, message):
    assert main(["fuzz", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_fuzz_disagreement_still_exits_3(capsys, monkeypatch):
    import rodrigidity.analysis as analysis

    monkeypatch.setattr(analysis, "is_string_config_rigid", lambda sc, rho: False)
    assert main(["fuzz", "--count", "5"]) == 3
    assert "DEFECT" in capsys.readouterr().err


# stdout of `rodrig fuzz --count 200` at the commit before sampling refused
# shared rod pairs up front; refusing them must not change a single byte
FUZZ_GOLDEN = {
    1: "agree=200 (rigid=135 flexible=65) skipped=1717 attempted=1917 disagreements=0\n",
    2: "agree=200 (rigid=143 flexible=57) skipped=1806 attempted=2006 disagreements=0\n",
    3: "agree=200 (rigid=133 flexible=67) skipped=1855 attempted=2055 disagreements=0\n",
    77: "agree=200 (rigid=148 flexible=52) skipped=1635 attempted=1835 disagreements=0\n",
}


@pytest.mark.parametrize("seed", sorted(FUZZ_GOLDEN))
def test_fuzz_golden(seed, capsys):
    assert main(["fuzz", "--count", "200", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == FUZZ_GOLDEN[seed]
