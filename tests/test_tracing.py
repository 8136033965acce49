"""The benchmark's tracer wraps names in the package's modules, some of which
(the `# noqa: F401` imports in analysis, cli and oracle) nothing else uses.
Deleting one breaks every traced benchmark run, so it fails here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(mod, attr) for names in tracing.TARGETS.values() for mod, attr in names]
    assert targets
    missing = [f"{mod.__name__}.{attr}" for mod, attr in targets
               if not callable(getattr(mod, attr, None))]
    assert missing == []
