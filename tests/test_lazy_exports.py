"""Lazy (PEP 562) re-exports of the ``repro``, ``repro.core``,
``repro.graph`` and ``repro.pattern`` packages: every public name
resolves to the object its defining module holds, star-imports work,
and unknown names fail."""

import importlib

import pytest

PACKAGES = ("repro", "repro.core", "repro.graph", "repro.pattern")


def _defining_objects(package):
    """name -> the object its defining module holds, from ``_EXPORTS``."""
    out = {}
    for module_name, names in package._EXPORTS.items():
        module = importlib.import_module(module_name)
        for name in names:
            leaf = module_name.rpartition(".")[2]
            out[name] = module if name == leaf else getattr(module, name)
    return out


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_public_name_is_the_defining_object(package_name):
    package = importlib.import_module(package_name)
    expected = _defining_objects(package)
    assert set(expected) == set(package.__all__) - {"__version__"}
    for name in package.__all__:
        if name != "__version__":
            assert getattr(package, name) is expected[name], f"{package_name}.{name}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_star_import(package_name):
    namespace: dict = {}
    exec(f"from {package_name} import *", namespace)
    package = importlib.import_module(package_name)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_dir_lists_all(package_name):
    package = importlib.import_module(package_name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("package_name", PACKAGES)
def test_unknown_attribute_names_the_module(package_name):
    package = importlib.import_module(package_name)
    with pytest.raises(AttributeError, match=rf"module '{package_name}' has no attribute 'nope'"):
        package.nope  # noqa: B018
    assert not hasattr(package, "nope")


def test_top_level_names_match_subpackage_exports():
    import repro
    import repro.core
    import repro.graph

    assert repro.MatchSession is repro.core.MatchSession
    assert repro.Graph is repro.graph.Graph
    assert repro.GraphStats is repro.graph.GraphStats
    assert repro.obs is importlib.import_module("repro.obs")
