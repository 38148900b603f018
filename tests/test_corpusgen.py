import pytest

from satpatch.corpusgen import (
    INSERT_SHARE,
    INSERTION_KINDS,
    _deletable,
    generate_variant,
    sample_app_tree,
)
from satpatch.diffgen import compare_trees
from satpatch.errors import VariantError
from satpatch.fstree import FileTree, classify_textual, tree_digest
from satpatch.linksim import modification_ratio
from satpatch.package import decode_package, encode_package
from satpatch.reconstruct import apply_changeset


def split_keepends(content: bytes) -> list[bytes]:
    out, start = [], 0
    while (idx := content.find(b"\n", start)) >= 0:
        out.append(content[start : idx + 1])
        start = idx + 1
    if start < len(content):
        out.append(content[start:])
    return out


class TestVariantSpec:
    """A variant's recipe: the target ratio, the seed and the edit mix."""

    def test_defaults(self):
        assert INSERT_SHARE == 0.7
        assert "comments" in INSERTION_KINDS

    @pytest.mark.parametrize("ratio", [-0.1, 1.0, 1.5])
    def test_ratio_out_of_range(self, ratio):
        # refused before anything else: this tree has no text to edit
        with pytest.raises(ValueError):
            generate_variant(FileTree.from_dict("empty", {}), ratio, seed=0)

    def test_deletable_lines(self):
        # Redundant comments, imports and log lines, at any indent.
        for line in (
            b"# note\n",
            b"    import os\n",
            b"from a import b\n",
            b'  logging.info("x")\n',
            b'print("x")\n',
        ):
            assert _deletable(line), line
        for line in (b"x = 1\n", b"def f():\n", b"importer = 2\n", b"\n"):
            assert not _deletable(line), line


class TestSampleAppTree:
    def test_deterministic(self):
        assert tree_digest(sample_app_tree(3)) == tree_digest(sample_app_tree(3))
        assert tree_digest(sample_app_tree(3)) != tree_digest(sample_app_tree(4))

    def test_shape(self):
        tree = sample_app_tree(0)
        kinds = {p: classify_textual(e.content) for p, e in tree.files()}
        assert kinds["app/main.py"] is True
        assert kinds["app/assets/calib.bin"] is False
        # the runtime blob sits outside the app prefix so prefix-scoped
        # uploads have something to skip
        assert kinds["runtime/interp.bin"] is False


class TestGenerateVariant:
    def test_target_zero_is_identity(self):
        tree = sample_app_tree(0)
        assert generate_variant(tree, 0.0, seed=5) == tree

    def test_deterministic(self):
        tree = sample_app_tree(1)
        a = generate_variant(tree, 0.2, seed=9, scope_prefix="app")
        b = generate_variant(tree, 0.2, seed=9, scope_prefix="app")
        assert tree_digest(a) == tree_digest(b)
        c = generate_variant(tree, 0.2, seed=10, scope_prefix="app")
        assert tree_digest(a) != tree_digest(c)

    @pytest.mark.parametrize("target", [0.1, 0.5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_ratio_lands_in_band(self, target, seed):
        tree = sample_app_tree(0)
        var = generate_variant(tree, target, seed=seed, scope_prefix="app")
        got = float(modification_ratio(tree, var).ratio)
        assert abs(got - target) <= 0.05

    def test_no_textual_files(self):
        tree = FileTree.from_dict("bin", {"blob.bin": b"\x00" * 4096})
        with pytest.raises(VariantError):
            generate_variant(tree, 0.3, seed=0)

    def test_tiny_tree_overshoots_with_achieved_ratio(self):
        tree = FileTree.from_dict("tiny", {"a.txt": b"x\ny\n"})
        with pytest.raises(VariantError) as exc:
            generate_variant(tree, 0.3, seed=0)
        assert exc.value.achieved_ratio is not None
        assert exc.value.achieved_ratio > 0.3
        assert str(exc.value).endswith(f"(achieved {exc.value.achieved_ratio:.4f})")

    def test_scope_prefix_confines_edits(self):
        tree = sample_app_tree(2)
        var = generate_variant(tree, 0.3, seed=4, scope_prefix="app")
        for path, entry in tree.files():
            if not path.startswith("app/"):
                assert var[path].content == entry.content, path

    def test_binary_edits_preserve_length(self):
        # flips replace bytes in place, they never grow or shrink assets
        tree = sample_app_tree(0)
        var = generate_variant(tree, 0.4, seed=2, scope_prefix="app")
        for path, entry in tree.files():
            if not classify_textual(entry.content) and path.startswith("app/"):
                assert len(var[path].content) == len(entry.content)

    def test_substantive_lines_keep_relative_order(self):
        tree = sample_app_tree(1)
        var = generate_variant(tree, 0.5, seed=6, scope_prefix="app")
        for path, entry in tree.files():
            if not classify_textual(entry.content):
                continue
            orig_sub = [
                line
                for line in split_keepends(entry.content)
                if not _deletable(line)
            ]
            keep = set(orig_sub)
            var_sub = [
                line
                for line in split_keepends(var[path].content)
                if line in keep
            ]
            assert var_sub == orig_sub, path

    def test_variant_round_trips_through_pipeline(self):
        tree = sample_app_tree(0)
        var = generate_variant(tree, 0.2, seed=3, scope_prefix="app")
        blob = encode_package(compare_trees(tree, var))
        rebuilt, _ = apply_changeset(tree, decode_package(blob))
        assert rebuilt == var
        assert all(
            rebuilt[p].content == var[p].content for p, _ in var.files()
        )
