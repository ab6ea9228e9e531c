"""The package namespace against its modules."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import care_filter

# the console entry point, not library API
NOT_REEXPORTED = {"cli"}


def test_exports_are_the_union_of_the_modules():
    union = {}
    for info in pkgutil.iter_modules(care_filter.__path__):
        if info.name in NOT_REEXPORTED:
            continue
        module = importlib.import_module(f"care_filter.{info.name}")
        union.update((name, getattr(module, name)) for name in module.__all__)
    assert sorted(care_filter.__all__) == sorted(union)
    for name, obj in union.items():
        assert getattr(care_filter, name) is obj, name


def test_the_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency pyproject.toml declares
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    seen = set()
    for path in Path(care_filter.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            seen.update(name.split(".")[0] for name in names)
            assert seen <= allowed, (path.name, sorted(seen - allowed))
    assert "numpy" in seen


def test_no_public_name_is_declared_twice():
    # a star import lets a later module's name shadow an earlier one silently
    owners = {}
    for info in pkgutil.iter_modules(care_filter.__path__):
        if info.name in NOT_REEXPORTED:
            continue
        for name in importlib.import_module(f"care_filter.{info.name}").__all__:
            assert name not in owners, (name, owners.get(name), info.name)
            owners[name] = info.name
    assert len(care_filter.__all__) == len(set(care_filter.__all__))
