"""The catalog builds each entry once per process and shares it afterwards."""

import pytest

from mhstools import beltrami, clebsch, registry
from mhstools.reports import ConstructionError

MODULES = {**{n: beltrami for n in beltrami.CATALOG_NAMES},
           **{n: clebsch for n in clebsch.CATALOG_NAMES}}


def test_every_registry_name_has_one_catalog():
    assert sorted(MODULES) == sorted(registry.names())
    assert len(MODULES) == 9


@pytest.mark.parametrize("name", registry.names())
def test_entry_is_shared(name):
    mod = MODULES[name]
    assert mod.catalog(name) is mod.catalog(name)
    assert registry.get(name).field is registry.get(name).field
    assert registry.get(name).domain is mod.catalog(name).domain


@pytest.mark.parametrize("name", registry.names())
def test_shared_entry_equals_a_fresh_build(name):
    mod = MODULES[name]
    fresh = mod._BUILDERS[name]()
    assert fresh is not mod.catalog(name)
    assert mod.catalog(name) == fresh


@pytest.mark.parametrize("name", registry.names())
def test_shared_entry_refuses_assignment(name):
    entry = MODULES[name].catalog(name)
    with pytest.raises(AttributeError):
        entry.name = "changed"
    with pytest.raises(AttributeError):
        entry.domain.shape = "box"
    with pytest.raises(AttributeError):
        registry.get(name).field = None


def test_example3_stays_its_own_entry():
    ex3, zsq = beltrami.catalog("example3"), beltrami.catalog("zsq_x3")
    assert ex3 is not zsq
    assert (ex3.name, zsq.name) == ("example3", "zsq_x3")
    assert ex3.provenance != zsq.provenance
    assert ex3.field == zsq.field and ex3 != zsq


@pytest.mark.parametrize("get", [beltrami.catalog, clebsch.catalog, registry.get])
def test_unknown_name_raises_alike_every_time(get):
    messages = []
    for _ in range(3):
        with pytest.raises(ValueError, match="'nope'") as ei:
            get("nope")
        messages.append(str(ei.value))
    assert len(set(messages)) == 1


def test_failed_build_is_not_kept(monkeypatch):
    calls = []

    def failing():
        calls.append(1)
        raise ConstructionError("sampled check failed")

    monkeypatch.setitem(clebsch._BUILDERS, "broken", failing)
    for _ in range(2):
        with pytest.raises(ConstructionError):
            clebsch.catalog("broken")
    assert len(calls) == 2
