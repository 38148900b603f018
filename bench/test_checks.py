"""Each benchmark check fires on a deliberately wrong result.

    python3 -m pytest bench
"""

from __future__ import annotations

import os
from fractions import Fraction

import pytest

import checks
import gen
import run

run.import_program()

from satpatch import diffgen, package, reconstruct  # noqa: E402
from satpatch.errors import ApplyError, PackageError  # noqa: E402
from satpatch.fstree import FileTree  # noqa: E402


def _small_version() -> gen.Version:
    v = gen.Version({}, set())
    gen._add_file(v, "app/bin/start.sh", b"#!/bin/sh\n", gen.EXEC_MODE)
    gen._add_file(v, "app/lib/a.py", b"x = 1\ny = 2\n")
    gen._add_file(v, "app/data/blob.bin", bytes(range(256)))
    v.dirs.add("app/empty")
    return v


def _write(v: gen.Version, root) -> None:
    for d in v.dirs:
        (root / d).mkdir(parents=True, exist_ok=True)
    for path, content in v.files.items():
        (root / path).write_bytes(content)
        os.chmod(root / path, v.modes.get(path, gen.FILE_MODE))


@pytest.fixture
def tree_dir(tmp_path):
    v = _small_version()
    _write(v, tmp_path / "t")
    return v, tmp_path / "t"


def test_check_tree_accepts_the_same_tree(tree_dir):
    v, root = tree_dir
    checks.check_tree(root, checks.version_manifest(v.files, v.dirs), "same")


@pytest.mark.parametrize("damage", ["flip", "missing_dir", "extra_file", "file_for_dir"])
def test_check_tree_fires(tree_dir, damage):
    v, root = tree_dir
    expected = checks.version_manifest(v.files, v.dirs)
    if damage == "flip":
        data = bytearray((root / "app/lib/a.py").read_bytes())
        data[0] ^= 1
        (root / "app/lib/a.py").write_bytes(bytes(data))
    elif damage == "missing_dir":
        (root / "app/empty").rmdir()
    elif damage == "extra_file":
        (root / "app/lib/b.py").write_bytes(b"")
    else:
        (root / "app/empty").rmdir()
        (root / "app/empty").write_bytes(b"")
    with pytest.raises(checks.CheckError):
        checks.check_tree(root, expected, damage)


def test_check_active_fires_on_wrong_tag(tmp_path):
    v = _small_version()
    tree = FileTree.from_dict("v", v.mapping())
    store = run.seed_store(tmp_path / "store", tree)
    expected = checks.version_manifest(v.files, v.dirs)
    checks.check_active(store.root, "v0", expected, "seeded")
    with pytest.raises(checks.CheckError):
        checks.check_active(store.root, "v1", expected, "wrong tag")


def test_mode_check_fires(tree_dir):
    v, root = tree_dir
    assert checks.mode_mismatches(root, v.modes) == []
    os.chmod(root / "app/bin/start.sh", 0o644)
    assert checks.mode_mismatches(root, v.modes) == ["app/bin/start.sh"]


def test_edit_bound_fires():
    checks.check_edit_bound({"a.c": 5}, {"a.c": 5}, "equal")
    with pytest.raises(checks.CheckError):
        checks.check_edit_bound({"a.c": 6}, {"a.c": 5}, "over")
    with pytest.raises(checks.CheckError):
        checks.check_edit_bound({"b.c": 1}, {"a.c": 5}, "unknown file")


def test_edit_bound_holds_on_real_scripts():
    chain = gen.text_churn(3)
    for base, target, _ in gen.schedule():
        old = FileTree.from_dict("o", chain.versions[base].mapping())
        new = FileTree.from_dict("n", chain.versions[target].mapping())
        units = checks.script_units(diffgen.compare_trees(old, new).changes)
        bound = {}
        for step in range(base + 1, target + 1):
            for path, n in chain.line_edits[step].items():
                bound[path] = bound.get(path, 0) + n
        assert units
        checks.check_edit_bound(units, bound, f"update {target}")


def test_uplink_check_fires():
    checks.check_uplink(1000, Fraction(1000 * 8, 200_000))
    with pytest.raises(checks.CheckError):
        checks.check_uplink(1001, Fraction(1000 * 8, 200_000))


def _package():
    old = FileTree.from_dict("o", {"a.txt": b"one\ntwo\n", "b.bin": b"\x00" * 300})
    new = FileTree.from_dict("n", {"a.txt": b"one\nthree\n", "c.txt": b"new\n"})
    changeset = diffgen.compare_trees(old, new)
    return old, changeset, package.encode_package(changeset)


def test_wire_sizes_read_the_documented_layout():
    _, changeset, blob = _package()
    manifest, segments = checks.wire_sizes(blob)
    assert manifest == len(package._encode_manifest(changeset.changes))
    assert segments == changeset.segment_bytes()


def test_wire_sizes_fire_on_trailing_bytes():
    import gzip

    _, _, blob = _package()
    padded = gzip.compress(gzip.decompress(blob) + b"\x00", mtime=0)
    with pytest.raises(checks.CheckError):
        checks.wire_sizes(padded)


def test_corruptions_are_rejected_by_the_program():
    old, _, blob = _package()
    for what, bad in checks.corrupted(blob):
        with pytest.raises((PackageError, ApplyError)):
            reconstruct.apply_changeset(old, package.decode_package(bad))


def _life(tmp_path, workload="text-churn"):
    life = run.LifeCycle(workload, 5, tmp_path)
    life.setup()
    life.prepare_checks()
    return life


def test_corruption_check_fires_when_a_bad_package_is_accepted(tmp_path, monkeypatch):
    life = _life(tmp_path)
    _, _, blob = life.diff(0, 1)
    monkeypatch.setattr(reconstruct, "apply_changeset", lambda tree, cs: (tree, None))
    monkeypatch.setattr(package, "decode_package", lambda b: None)
    life.check_corrupt_rejected(blob)
    assert sum("was accepted" in e for e in life.errors) == 2


def test_corruption_check_fires_when_the_store_changes(tmp_path, monkeypatch):
    life = _life(tmp_path)
    _, _, blob = life.diff(0, 1)

    def damage_then_reject(b):
        (life.store.root / "trees" / "v0" / "README").write_bytes(b"changed\n")
        raise PackageError("rejected")

    monkeypatch.setattr(package, "decode_package", damage_then_reject)
    life.check_corrupt_rejected(blob)
    assert sum("store after" in e for e in life.errors) == 2


def test_round_checks_fire_on_a_wrong_apply(tmp_path, monkeypatch):
    life = _life(tmp_path)
    real = reconstruct.apply_changeset

    def apply_to_base(tree, changeset):
        new_tree, report = real(tree, changeset)
        return tree, report  # commits the old version under the new tag

    monkeypatch.setattr(reconstruct, "apply_changeset", apply_to_base)
    life.run_round()
    assert any("store after update" in e for e in life.errors)


def test_round_checks_fire_on_a_changed_package(tmp_path):
    life = _life(tmp_path)
    life.run_round()
    assert life.errors == []
    life.packages[0] = life.packages[0] + b"\x00"
    life.run_round()
    assert any("differs between rounds" in e for e in life.errors)


@pytest.mark.parametrize("workload", ["text-churn", "app-releases"])
def test_one_failed_mode_check_per_update(tmp_path, workload):
    life = _life(tmp_path, workload)
    life.run_round()
    assert life.errors == []
    assert life.updates == gen.CHAIN_UPDATES
    assert life.failed == gen.CHAIN_UPDATES
    assert life.attempted == 4 * gen.CHAIN_UPDATES


def test_generator_is_seeded():
    a, b, c = gen.app_releases(1), gen.app_releases(1), gen.app_releases(2)
    assert [v.files for v in a.versions] == [v.files for v in b.versions]
    assert a.versions[1].files != c.versions[1].files
