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
from satpatch.layerstore import FailureEvent, FailurePhase, LayerStore

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


def test_every_span_is_recorded_on_one_update(spans, tmp_path):
    """A text-plus-binary update through diff, package, apply and the
    layer store records every span ``install`` wraps, so a refactor that
    takes a wrapped name off the call path cannot zero a per-layer metric
    unnoticed."""
    wrapped = set()

    class Recording(spans.Tracer):
        def wrap(self, name, fn, count=None):
            wrapped.add(name)
            return super().wrap(name, fn, count)

    blob = bytes(range(256)) * 64
    old = FileTree.from_dict("a", {"m.py": b"a\nb\nc\n", "f.bin": blob})
    new = FileTree.from_dict("a", {"m.py": b"a\nB\nc\n", "f.bin": blob[::-1]})
    tracer = Recording()
    with spans.install(tracer):
        store = LayerStore(tmp_path / "store")
        store.commit(old, "v1")
        store.mark_stable("v1")
        pkg = package.encode_package(diffgen.compare_trees(old, new))
        updated, _ = reconstruct.apply_changeset(
            store.tree_of("v1"), package.decode_package(pkg)
        )
        store.commit(updated, "v2")
        record = store.on_failure(FailureEvent(FailurePhase.POST_UPDATE_EXECUTION, 1))
        restored = store.tree_of(record.to_tag)
    assert updated == new and restored == old
    assert {name.split(".")[0] for name in wrapped} == set(spans.LAYERS)
    recorded = {name for name, *_ in tracer.spans}
    assert wrapped - recorded == set()
