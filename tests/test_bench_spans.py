"""The traced benchmark's span recorder still fits the program.

``bench/spans.py`` rebinds public functions of each layer by name, in
every module that looks them up, and puts the originals back afterwards.
A refactor that drops or moves one of those names breaks ``--trace 1``;
this test makes that a test failure instead.
"""

import sys
from pathlib import Path

import pytest

from satpatch import diffgen, fstree, layerstore, package, reconstruct
from satpatch.fstree import FileTree

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    return spans


OWNERS = (fstree, diffgen, package, reconstruct, layerstore, layerstore.LayerStore)


def snapshot() -> list[dict]:
    return [dict(vars(owner)) for owner in OWNERS]


def test_install_wraps_and_restores_every_name(spans):
    before = snapshot()
    tracer = spans.Tracer()
    with spans.install(tracer):
        during = snapshot()
        old = FileTree.from_dict("a", {"f.bin": bytes(range(256)) * 64})
        new = FileTree.from_dict("a", {"f.bin": bytes(range(255, -1, -1)) * 64})
        diffgen.compare_trees(old, new)
    after = snapshot()

    wrapped = 0
    for owner, was, now in zip(OWNERS, before, during):
        for name, value in now.items():
            if value is not was.get(name):
                assert getattr(value, "__wrapped__", None) is was[name] or (
                    owner is fstree and name == "hash_content"
                ), f"{owner.__name__}.{name}"
                wrapped += 1
    assert wrapped
    assert {"diffgen.compare", "diffgen.chunk", "fstree.digest"} <= {
        name for name, *_ in tracer.spans
    }
    for owner, was, now in zip(OWNERS, before, after):
        assert now.keys() == was.keys(), owner.__name__
        for name, value in now.items():
            assert value is was[name], f"{owner.__name__}.{name} not restored"
