"""The public API: each module's `__all__` declares it, and the package
republishes exactly those lists."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import rodrigidity
from rodrigidity import IncidenceGeometry, analysis, cone, geometry, oracle, pebble, serialize_geometry

from conftest import FIG2_LINES

MODULES = (geometry, cone, pebble, oracle, analysis)
UNEXPORTED = {pebble: ("try_edge", "independent_after"),
              oracle: ("matrix_kernel", "is_string_config_rigid")}
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TRACING = ROOT / "perfbench" / "tracing.py"


def test_package_all_joins_the_module_lists_in_order():
    names = rodrigidity.__all__
    assert names == [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(rodrigidity, name) is getattr(module, name), name


def test_reference_names_stay_in_their_modules_only():
    for module, names in UNEXPORTED.items():
        for name in names:
            assert callable(getattr(module, name))
            assert name not in module.__all__ and name not in rodrigidity.__all__
            assert not hasattr(rodrigidity, name), name


def test_readme_library_section_names_every_export():
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in rodrigidity.__all__ if not re.search(rf"`{name}[`(]", library)]
    assert not missing


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the first python block under "## Library", run beside a fig2.geo; its
    # closing expression is the string configuration's (rank, max_rank)
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    *body, last = ast.parse(code).body
    (tmp_path / "fig2.geo").write_text(serialize_geometry(IncidenceGeometry(7, FIG2_LINES)))
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(ast.Module(body, type_ignores=[]), "README.md", "exec"), scope)
    assert scope["verdict"].agreement == "agree"
    assert scope["verdict"].algebraic == ((35, 35),)
    assert eval(compile(ast.Expression(last.value), "README.md", "eval"), scope) == (35, 35)


def test_every_import_is_used_exported_or_traced():
    # an imported name nothing reads is dead, unless the module republishes
    # it or the benchmark's tracer wraps it there (read from its TARGETS)
    spec = importlib.util.spec_from_file_location("perfbench_tracing_targets", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {(module.__name__, attr) for targets in tracing.TARGETS.values()
              for module, attr in targets}
    dead = []
    for path in sorted(Path(rodrigidity.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        name = f"rodrigidity.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and bound not in exported and (name, bound) not in traced:
                    dead.append(f"{name}: {bound}")
    assert dead == []
