"""Layer stack transitions, rollback semantics, persistence, cost model."""

import random

import pytest

from satpatch.errors import (
    DuplicateTagError,
    LayerStoreError,
    NotActiveError,
    UnknownTagError,
    UnrecoverableStateError,
)
from satpatch.fstree import FileTree, tree_digest
from satpatch.layerstore import (
    FailureEvent,
    FailurePhase,
    Layer,
    LayerStack,
    LayerStore,
    RecoveryStrategy,
    commit_layer,
    mark_stable,
    on_failure,
    recovery_cost,
)

V10 = FileTree.from_dict("app", {"main.py": b"print('v1.0')\n", "lib/a.py": b"x = 1\n"})
V11 = FileTree.from_dict("app", {"main.py": b"print('v1.1')\n", "lib/a.py": b"x = 1\n"})
V12 = FileTree.from_dict("app", {"main.py": b"print('v1.2')\n", "lib/a.py": b"x = 2\n"})

FAIL_137 = FailureEvent(FailurePhase.POST_UPDATE_EXECUTION, 137)


def deployed_stack() -> LayerStack:
    stack = commit_layer(LayerStack(), V10, "V1.0")
    return mark_stable(stack, "V1.0")


class TestFailureEvent:
    def test_zero_exit_code_rejected(self):
        with pytest.raises(ValueError):
            FailureEvent(FailurePhase.UPDATE_PROCESS, 0)

    def test_phases(self):
        assert FailureEvent(FailurePhase.UPDATE_PROCESS, 1).exit_code == 1


class TestCommit:
    def test_first_commit(self):
        stack = commit_layer(LayerStack(), V10, "V1.0")
        assert len(stack.layers) == 1
        assert stack.active_layer.tag == "V1.0"
        assert not stack.active_layer.stable

    def test_second_commit_keeps_stable_marker(self):
        stack = commit_layer(deployed_stack(), V11, "V1.1")
        assert [l.tag for l in stack.layers] == ["V1.0", "V1.1"]
        assert stack.active_layer.tag == "V1.1"
        assert stack.layers[0].stable
        assert not stack.layers[1].stable

    def test_duplicate_tag(self):
        with pytest.raises(DuplicateTagError):
            commit_layer(deployed_stack(), V11, "V1.0")

    def test_same_tree_new_tag_allowed(self):
        stack = commit_layer(deployed_stack(), V10, "V1.0-rebuild")
        assert stack.active_layer.digest == tree_digest(V10)

    def test_bad_tag(self):
        with pytest.raises(LayerStoreError):
            commit_layer(LayerStack(), V10, "../evil")


class TestMarkStable:
    def test_promotes_active(self):
        stack = commit_layer(deployed_stack(), V11, "V1.1")
        stack = mark_stable(stack, "V1.1")
        assert stack.active_layer.stable

    def test_unknown_tag(self):
        with pytest.raises(UnknownTagError):
            mark_stable(deployed_stack(), "V9.9")

    def test_non_active_rejected(self):
        stack = commit_layer(deployed_stack(), V11, "V1.1")
        with pytest.raises(NotActiveError):
            mark_stable(stack, "V1.0")

    def test_idempotent(self):
        stack = deployed_stack()
        assert mark_stable(stack, "V1.0") is stack


class TestOnFailure:
    def test_rollback_to_stable(self):
        stack = commit_layer(deployed_stack(), V11, "V1.1")
        rolled, record = on_failure(stack, FAIL_137)
        assert rolled.active_layer.tag == "V1.0"
        assert record.from_tag == "V1.1"
        assert record.to_tag == "V1.0"
        assert not record.noop
        assert record.phase is FailurePhase.POST_UPDATE_EXECUTION

    def test_failed_layer_retained_and_marked(self):
        stack = commit_layer(deployed_stack(), V11, "V1.1")
        rolled, _ = on_failure(stack, FAIL_137)
        failed = rolled.layers[rolled.find("V1.1")]
        assert failed.failed
        assert failed.digest == tree_digest(V11)

    def test_noop_when_active_is_stable(self):
        stack = deployed_stack()
        same, record = on_failure(stack, FAIL_137)
        assert same is stack
        assert record.noop
        assert record.from_tag == record.to_tag == "V1.0"

    def test_skips_failed_unstable_layers(self):
        stack = commit_layer(deployed_stack(), V11, "V1.1")
        stack, _ = on_failure(stack, FAIL_137)
        stack = commit_layer(stack, V12, "V1.2")
        rolled, record = on_failure(stack, FAIL_137)
        assert rolled.active_layer.tag == "V1.0"
        assert record.from_tag == "V1.2"

    def test_unrecoverable_without_stable(self):
        stack = commit_layer(LayerStack(), V10, "V1.0")
        with pytest.raises(UnrecoverableStateError):
            on_failure(stack, FAIL_137)

    def test_unrecoverable_when_empty(self):
        with pytest.raises(UnrecoverableStateError):
            on_failure(LayerStack(), FAIL_137)

    def test_active_digest_invariant(self):
        # Active is always the newest commit or the latest stable layer.
        rng = random.Random(0)
        stack = deployed_stack()
        newest = tree_digest(V10)
        trees = [V10, V11, V12]
        for step in range(40):
            action = rng.random()
            try:
                if action < 0.5:
                    tree = rng.choice(trees)
                    stack = commit_layer(stack, tree, f"t{step}")
                    newest = tree_digest(tree)
                elif action < 0.75:
                    stack = mark_stable(stack, stack.active_layer.tag)
                else:
                    stack, _ = on_failure(stack, FAIL_137)
            except LayerStoreError:
                continue
            latest_stable = stack.latest_stable()
            allowed = {newest}
            if latest_stable is not None:
                allowed.add(stack.layers[latest_stable].digest)
            assert stack.active_layer.digest in allowed


class TestStackValidation:
    def test_duplicate_tags_rejected(self):
        with pytest.raises(LayerStoreError):
            LayerStack((Layer("x", b"1"), Layer("x", b"2")), 0)

    def test_active_range(self):
        with pytest.raises(LayerStoreError):
            LayerStack((Layer("x", b"1"),), 5)

    def test_empty_active(self):
        with pytest.raises(LayerStoreError):
            LayerStack((), 0)


class TestRecoveryCost:
    def fixture_pair(self):
        rng = random.Random(1)
        blob = rng.randbytes(40_000)
        prior = FileTree.from_dict(
            "app",
            {
                "app/main.py": b"line one\nline two\n" * 200,
                "app/model.bin": blob,
                "app/conf.json": b'{"a": 1}\n' * 50,
            },
        )
        active = FileTree.from_dict(
            "app",
            {
                "app/main.py": b"line one\nline two\n" * 199 + b"line one\npatched\n",
                "app/model.bin": blob,
                "app/conf.json": b'{"a": 1}\n' * 50,
            },
        )
        return prior, active

    def test_image_storage_is_full_tree(self):
        prior, active = self.fixture_pair()
        cost = recovery_cost(prior, active, RecoveryStrategy.IMAGE)
        assert cost.storage_bytes == prior.total_file_bytes()
        assert cost.backup_ops == len(prior)

    def test_file_storage_is_changed_files(self):
        prior, active = self.fixture_pair()
        cost = recovery_cost(prior, active, RecoveryStrategy.FILE)
        assert cost.storage_bytes == len(prior["app/main.py"].content)
        assert cost.backup_ops == 1

    def test_patch_smaller_than_file_smaller_than_image(self):
        prior, active = self.fixture_pair()
        patch = recovery_cost(prior, active, RecoveryStrategy.PATCH)
        file_ = recovery_cost(prior, active, RecoveryStrategy.FILE)
        image = recovery_cost(prior, active, RecoveryStrategy.IMAGE)
        assert patch.storage_bytes < file_.storage_bytes < image.storage_bytes

    def test_layer_is_constant_metadata(self):
        prior, active = self.fixture_pair()
        small = recovery_cost(
            FileTree.from_dict("a", {"f": b"x" * 1024}),
            FileTree.from_dict("a", {"f": b"y" * 1024}),
            RecoveryStrategy.LAYER,
        )
        big = recovery_cost(prior, active, RecoveryStrategy.LAYER)
        assert small.backup_ops == big.backup_ops == 1
        assert small.restore_ops == big.restore_ops == 1
        assert small.storage_bytes == big.storage_bytes


class TestLayerStore:
    def test_open_writes_nothing(self, tmp_path):
        store = LayerStore(tmp_path / "new")
        assert store.stack == LayerStack()
        assert not (tmp_path / "new").exists()

    def test_index_bytes(self, tmp_path):
        store = LayerStore(tmp_path / "s")
        store.commit(V10, "V1.0")
        store.mark_stable("V1.0")
        store.commit(V11, "V1.1")
        store.on_failure(FAIL_137)
        assert (tmp_path / "s" / "layers.idx").read_bytes() == (
            b"app\tapp\n"
            b"active\tV1.0\n"
            b"layer\tV1.0\t"
            b"23fa98c164c2f78f7e0a5eafc8eb7badf009af701f9d2aa56e42530a70d6be41\tS\t-\n"
            b"layer\tV1.1\t"
            b"de16f135d9f2f262534ef8d98c6fade20028c6fc98978567d66ec68d092836a5\t-\tF\n"
        )
        assert [p.name for p in (tmp_path / "s" / "trees").iterdir()] == ["V1.0"]

    def test_commit_and_reload(self, tmp_path):
        store = LayerStore(tmp_path / "store")
        store.commit(V10, "V1.0")
        store.mark_stable("V1.0")
        store.commit(V11, "V1.1")
        reopened = LayerStore(tmp_path / "store")
        assert reopened.stack == store.stack
        assert reopened.active_tree() == V11

    def test_rollback_flow(self, tmp_path):
        store = LayerStore(tmp_path / "s")
        store.commit(V10, "V1.0")
        store.mark_stable("V1.0")
        store.commit(V11, "V1.1")
        record = store.on_failure(FAIL_137)
        assert record.to_tag == "V1.0"
        assert store.active_tree() == V10
        assert store.stack.layers[store.stack.find("V1.1")].failed

    def test_retention_two_trees(self, tmp_path):
        store = LayerStore(tmp_path / "s")
        store.commit(V10, "V1.0")
        store.mark_stable("V1.0")
        store.commit(V11, "V1.1")
        store.mark_stable("V1.1")
        store.commit(V12, "V1.2")
        names = {p.name for p in (tmp_path / "s" / "trees").iterdir()}
        assert names == {"V1.1", "V1.2"}
        with pytest.raises(LayerStoreError):
            store.tree_of("V1.0")  # metadata only now
        assert store.stack.find("V1.0") == 0  # but still in history

    def test_rollback_needs_no_retransmission(self, tmp_path):
        # The rollback target tree must already be materialized locally.
        store = LayerStore(tmp_path / "s")
        store.commit(V10, "V1.0")
        store.mark_stable("V1.0")
        store.commit(V11, "V1.1")
        assert store.tree_of("V1.0") == V10
        store.on_failure(FAIL_137)
        assert store.active_tree() == V10

    @staticmethod
    def _stocked(root) -> LayerStore:
        store = LayerStore(root)
        store.commit(V10, "V1.0")
        store.mark_stable("V1.0")
        store.commit(V11, "V1.1")
        return store

    def test_commit_crash_points(self, tmp_path, crash_points):
        store = self._stocked(tmp_path / "clean")
        calls = crash_points(0, lambda: store.commit(V12, "V1.2"))
        assert store.active_tree() == V12
        for k in range(1, calls + 1):
            root = tmp_path / f"crash-{k}"
            store = self._stocked(root)
            with pytest.raises(OSError, match="injected crash"):
                crash_points(k, lambda: store.commit(V12, "V1.2"))
            # nothing of the cut commit is left under trees/
            assert sorted(p.name for p in (root / "trees").iterdir()) == ["V1.0", "V1.1"]
            reopened = LayerStore(root)
            assert reopened.stack.active_layer.tag == "V1.1"
            assert reopened.tree_of("V1.1") == V11
            reopened.commit(V12, "V1.2")
            assert sorted(p.name for p in (root / "trees").iterdir()) == ["V1.0", "V1.2"]
            assert LayerStore(root).active_tree() == V12

    @pytest.mark.parametrize(
        "step",
        [
            lambda store: store.mark_stable("V1.1"),
            lambda store: store.commit(V12, "V1.2"),
            lambda store: store.on_failure(FAIL_137),
        ],
        ids=["mark_stable", "commit", "on_failure"],
    )
    def test_step_crash_points(self, tmp_path, crash_points, step):
        # a cut step leaves the store as it was before the step or after it
        clean = self._stocked(tmp_path / "clean")
        before = clean.stack
        calls = crash_points(0, lambda: step(clean))
        after = clean.stack
        assert before != after
        for k in range(1, calls + 1):
            store = self._stocked(tmp_path / f"crash-{k}")
            with pytest.raises(OSError, match="injected crash"):
                crash_points(k, lambda: step(store))
            reopened = LayerStore(store.root)
            assert reopened.stack in (before, after)
            assert reopened.stack == store.stack
            trees = {"V1.0": V10, "V1.1": V11, "V1.2": V12}
            assert reopened.active_tree() == trees[reopened.stack.active_layer.tag]

    def test_first_commit_crash_points(self, tmp_path, crash_points):
        # a cut first commit can leave the store directory or trees/ with no index
        first = commit_layer(LayerStack(), V10, "V1.0")
        clean = LayerStore(tmp_path / "clean")
        calls = crash_points(0, lambda: clean.commit(V10, "V1.0"))
        for k in range(1, calls + 1):
            root = tmp_path / f"crash-{k}"
            store = LayerStore(root)
            with pytest.raises(OSError, match="injected crash"):
                crash_points(k, lambda: store.commit(V10, "V1.0"))
            reopened = LayerStore(root)
            assert reopened.stack in (LayerStack(), first)
            if not reopened.stack.layers:
                reopened.commit(V10, "V1.0")
            assert [p.name for p in (root / "trees").iterdir()] == ["V1.0"]
            assert LayerStore(root).stack == first
            assert LayerStore(root).active_tree() == V10

    def test_commit_clears_a_power_cut_commit(self, tmp_path):
        # what a power cut mid-commit leaves: no in-process cleanup ran
        root = tmp_path / "s"
        self._stocked(root)
        (root / "trees" / ".V1.2.satpatch-0badcafe" / "lib").mkdir(parents=True)
        (root / "trees" / "V1.2").mkdir()
        (root / "trees" / "V1.2" / "main.py").write_bytes(b"print('v1")
        store = LayerStore(root)
        assert store.active_tree() == V11
        store.commit(V12, "V1.2")
        assert sorted(p.name for p in (root / "trees").iterdir()) == ["V1.0", "V1.2"]
        assert LayerStore(root).active_tree() == V12

    def test_failed_index_write_keeps_the_stack(self, tmp_path):
        root = tmp_path / "s"
        store = self._stocked(root)
        (root / "layers.idx.tmp").mkdir()
        with pytest.raises(OSError):
            store.mark_stable("V1.1")
        assert store.stack == LayerStore(root).stack
        with pytest.raises(OSError):
            store.on_failure(FAIL_137)
        assert store.stack == LayerStore(root).stack
        assert store.stack.active_layer.tag == "V1.1"

    def test_digest_verified_on_load(self, tmp_path):
        store = LayerStore(tmp_path / "s")
        store.commit(V10, "V1.0")
        (tmp_path / "s" / "trees" / "V1.0" / "main.py").write_bytes(b"tampered")
        with pytest.raises(LayerStoreError):
            store.active_tree()

    @pytest.mark.parametrize(
        "index,match",
        [
            ("nonsense line\n", "index lines are not"),
            ("", "index lines are not"),
            ("app\tapp\n", "index lines are not"),
            (
                f"app\tapp\nlayer\tV1.0\t{tree_digest(V10).hex()}\tS\t-\nactive\tV1.0\n",
                "index lines are not",
            ),
            ("active\t-\napp\tapp\n", "index lines are not"),
            ("app\tapp\nactive\tV1\nlayer\tV1\t\tS\t-\n", "0-byte digest"),
            ("app\tapp\nactive\tV1\nlayer\tV1\tab\tyes\tno\n", "flags 'yes' 'no'"),
            # a power cut inside the last flag: "S\tF" lost its "F"
            (
                f"app\tapp\nactive\tV1.0\nlayer\tV1.0\t{tree_digest(V10).hex()}\tS\t",
                "flags 'S' ''",
            ),
            ("app\tapp\nactive\tV1\nlayer\tV1\t" + "zz" * 32 + "\tS\t-\n", "bad digest"),
            (
                f"app\tapp\nactive\tV9\nlayer\tV1.0\t{tree_digest(V10).hex()}\tS\t-\n",
                "active tag 'V9' not in index",
            ),
            ("app\tcam\nactive\t-\n", "index lines are not"),
        ],
        ids=[
            "garbage",
            "empty",
            "no-active-line",
            "active-after-layer",
            "app-not-first",
            "empty-digest",
            "word-flags",
            "cut-in-last-flag",
            "non-hex-digest",
            "active-in-no-layer",
            "other-app-line",
        ],
    )
    def test_corrupt_index(self, tmp_path, index, match):
        store_dir = tmp_path / "s"
        store_dir.mkdir()
        (store_dir / "layers.idx").write_text(index)
        with pytest.raises(LayerStoreError, match=match):
            LayerStore(store_dir)
