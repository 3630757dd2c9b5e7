"""The package's public surface: each name listed once, by the module that owns it."""

import importlib

import sketchycgm

LIBRARY_MODULES = (
    "errors",
    "losses",
    "memory",
    "operators",
    "probgen",
    "reference",
    "sketch",
    "solver",
    "spectral",
)


def test_each_public_name_has_one_owner():
    owner = {}
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"sketchycgm.{name}")
        assert hasattr(module, "__all__"), f"{name} has no __all__"
        for public in module.__all__:
            assert public not in owner, f"{public} is listed by {owner.get(public)} and {name}"
            owner[public] = name
            assert getattr(sketchycgm, public) is getattr(module, public)
    assert set(sketchycgm.__all__) == set(owner)
