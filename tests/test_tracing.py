"""The benchmark's tracer wraps names in the package's modules, some of which
(the `# noqa: F401` imports in analysis, cli and oracle) nothing else uses.
Deleting one breaks every traced benchmark run, and calling a wrapped
function by another name zeroes its span, so both fail here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

FIG2_TEXT = "points: 7\nline: 0 2 3\nline: 0 1 4\nline: 1 2 5\nline: 1 3 6\n"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable(tracing):
    targets = [(mod, attr) for names in tracing.TARGETS.values() for mod, attr in names]
    assert targets
    missing = [f"{mod.__name__}.{attr}" for mod, attr in targets
               if not callable(getattr(mod, attr, None))]
    assert missing == []


# each command, with the spans live in its traced run
COMMANDS = [
    (["check", "--cross-validate"], ["geometry.load", "cone.build_graph", "pebble.play",
                                     "oracle.sample", "cone.build_incidence",
                                     "oracle.realize_cone", "oracle.build_matrix",
                                     "oracle.rank"]),
    (["oracle"], ["geometry.load", "oracle.sample", "cone.build_incidence",
                  "oracle.realize_cone", "oracle.build_matrix", "oracle.rank"]),
    (["minimal", "--cross-validate"], ["geometry.load", "cone.build_graph", "pebble.play",
                                       "oracle.sample", "oracle.realize_cone", "oracle.rank"]),
    (["canon"], ["geometry.load"]),
    (["dot"], ["geometry.load", "cone.build_graph"]),
    (["svg", "--cone"], ["geometry.load", "oracle.sample", "cone.build_incidence",
                         "oracle.realize_cone"]),
    (["fuzz", "--count", "3"], ["cone.build_graph", "pebble.play", "oracle.sample",
                                "oracle.realize_cone", "oracle.rank"]),
]


def test_a_traced_run_of_every_command_feeds_the_spans(tracing, tmp_path, capsys):
    path = tmp_path / "fig2.geo"
    path.write_text(FIG2_TEXT)
    with tracing.Tracer().installed() as tracer:
        # every command exits 0: fig2 is minimally rigid, and fuzz validates
        for (command, *flags), _ in COMMANDS:
            argv = [command] + ([] if command == "fuzz" else [str(path)]) + flags
            assert tracer.main(argv) == 0, argv
    capsys.readouterr()
    dead = [(command, span) for (command, *_), spans in COMMANDS for span in spans
            if not tracer.calls_per_command(span, command)]
    assert dead == []
