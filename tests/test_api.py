"""The public API: each module's `__all__` declares it, and the package
republishes exactly those lists."""

from __future__ import annotations

import re
from pathlib import Path

import rodrigidity
from rodrigidity import analysis, cone, geometry, oracle, pebble

MODULES = (geometry, cone, pebble, oracle, analysis)
UNEXPORTED = {pebble: ("try_edge", "independent_after"),
              oracle: ("matrix_kernel", "is_string_config_rigid")}
README = Path(__file__).resolve().parent.parent / "README.md"


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
