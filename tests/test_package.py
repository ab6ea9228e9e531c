"""The package namespace against its modules."""

import importlib
import pkgutil

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
