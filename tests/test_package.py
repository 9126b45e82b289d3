"""The package namespace: core names are bound at import, the rest on first use."""

import importlib

import pytest

import pathsum

SUBMODULES = ("combinatorics", "kernel", "stats", "ensemble")


def _home(name):
    # the submodule a public name comes from; core's names are bound eagerly
    return importlib.import_module(f"pathsum.{pathsum._MODULE_OF.get(name, 'core')}")


@pytest.mark.parametrize("name", pathsum.__all__)
def test_public_name_is_its_submodules_object(name):
    assert getattr(pathsum, name) is getattr(_home(name), name)


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from pathsum import *", namespace)
    assert set(pathsum.__all__) <= set(namespace)
    assert set(pathsum.__all__) | set(SUBMODULES) <= set(dir(pathsum))


@pytest.mark.parametrize("name", ["kernel", "kernel_sum_1d", "EXACT_STEP_LIMIT"])
def test_lazy_name_resolves_and_is_cached(monkeypatch, name):
    expected = _home(name) if name in SUBMODULES else getattr(_home(name), name)
    monkeypatch.delattr(pathsum, name, raising=False)
    assert name not in vars(pathsum)
    assert getattr(pathsum, name) is expected
    assert vars(pathsum)[name] is expected  # cached: the next lookup is plain


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pathsum.no_such_name
    assert not hasattr(pathsum, "_no_such_private")


def test_enumeration_cap_lives_in_core():
    from pathsum import combinatorics, core

    assert pathsum.DEFAULT_ENUMERATION_CAP is core.DEFAULT_ENUMERATION_CAP
    assert combinatorics.DEFAULT_ENUMERATION_CAP is core.DEFAULT_ENUMERATION_CAP
