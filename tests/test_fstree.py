"""Tree model: path normalization, classification, hashing, tar round trips."""

import hashlib
import io
import os
import tarfile
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satpatch.errors import PathError, TreeError
from satpatch.fstree import (
    Entry,
    FileTree,
    classify_textual,
    hash_content,
    load_tree,
    materialize,
    normalize_path,
    tree_digest,
    under_prefix,
    write_tar,
)

# Known SHA-256 digests (FIPS 180-4 test vectors, verifiable with sha256sum).
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ABC_SHA256 = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

# How os.walk and tarfile spell the undecodable name byte b"\xff".
NON_UTF8_NAME = "bad\udcff.txt"


def load_tar_bytes(blob: bytes, directory) -> FileTree:
    """Write ``blob`` to a tar file in ``directory`` and load that path."""
    path = Path(directory) / "tree.tar"
    path.write_bytes(blob)
    return load_tree(path)


class TestNormalizePath:
    def test_plain(self):
        assert normalize_path("app/main.py") == "app/main.py"

    def test_leading_dot_slash(self):
        assert normalize_path("./app/main.py") == "app/main.py"

    def test_backslashes(self):
        # "\\" is a name character on POSIX, not a separator.
        assert normalize_path("a\\b") == "a\\b"
        assert normalize_path("app\\sub/x.cfg") == "app\\sub/x.cfg"

    def test_collapses_doubled_separators(self):
        assert normalize_path("a//b") == "a/b"

    def test_trailing_slash(self):
        assert normalize_path("a/b/") == "a/b"

    @pytest.mark.parametrize("bad", ["", "/etc/passwd", "../x", "a/../../b", "a/\x00b"])
    def test_rejects(self, bad):
        with pytest.raises(PathError):
            normalize_path(bad)

    def test_dot_only_is_rejected(self):
        with pytest.raises(PathError):
            normalize_path("./.")

    def test_rejects_non_utf8(self):
        with pytest.raises(PathError, match="not valid UTF-8"):
            normalize_path("a\udcffb")

    @given(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs",)))))
    def test_code_point_order_is_utf8_byte_order(self, paths):
        # FileTree orders paths with a plain sort because of this
        assert sorted(paths) == sorted(paths, key=lambda p: p.encode("utf-8"))


class TestUnderPrefix:
    @pytest.mark.parametrize("prefix", ["app", "app/", "./app", "app//"])
    def test_spellings_agree(self, prefix):
        inside = under_prefix(prefix)
        paths = ["app", "app/main.py", "app/sub/x", "apps", "apps/x", "doc.txt"]
        assert [p for p in paths if inside(p)] == ["app", "app/main.py", "app/sub/x"]

    @pytest.mark.parametrize("bad", ["", "../x", "/app", "."])
    def test_rejects(self, bad):
        with pytest.raises(PathError):
            under_prefix(bad)


class TestClassifyTextual:
    def test_empty_is_textual(self):
        assert classify_textual(b"") is True

    def test_ascii(self):
        assert classify_textual(b"print('hello')\n") is True

    def test_utf8_multibyte(self):
        assert classify_textual("héllo wörld".encode("utf-8")) is True

    def test_nul_byte_is_binary(self):
        assert classify_textual(b"abc\x00def") is False

    def test_elf_header_is_binary(self):
        assert classify_textual(b"\x7fELF\x02\x01\x01\x00" + b"\x00" * 8) is False

    def test_invalid_utf8_is_binary(self):
        assert classify_textual(b"\xff\xfe\xfd") is False

    def test_multibyte_split_at_scan_limit(self):
        # 8191 ASCII bytes then a 2-byte code point: the scan window cuts
        # the sequence in half, which must not count as invalid UTF-8.
        content = b"a" * 8191 + "é".encode("utf-8") + b"tail" * 100
        assert classify_textual(content) is True

    def test_nul_beyond_scan_limit_is_ignored(self):
        assert classify_textual(b"a" * 8192 + b"\x00") is True

    def test_invalid_byte_exactly_at_window_end(self):
        assert classify_textual(b"a" * 8191 + b"\xff") is False


class TestHashing:
    def test_empty(self):
        assert hash_content(b"").hex() == EMPTY_SHA256

    def test_abc(self):
        assert hash_content(b"abc").hex() == ABC_SHA256

    @given(st.binary(max_size=4096))
    def test_matches_hashlib(self, blob):
        assert hash_content(blob) == hashlib.sha256(blob).digest()

    def test_entry_derives_its_hash(self):
        entry = Entry(b"abc")
        assert entry.content_hash.hex() == ABC_SHA256
        with pytest.raises(TypeError):
            Entry(b"x", content_hash=hash_content(b"y"))

    def test_entry_without_content_is_a_directory(self):
        directory, empty = Entry(), Entry(b"")
        assert directory.is_dir and not directory.is_file
        assert directory.content_hash == b""
        assert empty.is_file and not empty.is_dir
        assert empty.content_hash.hex() == EMPTY_SHA256
        assert directory != empty
        assert FileTree.from_dict("x", {"d": None})["d"] == directory

    def test_load_hashes_each_file_once(self, tmp_path, hashed_sizes):
        tree = FileTree.from_dict("app", {"a.txt": b"x" * 10, "d/b.bin": b"\0" * 300, "e": None})
        materialize(tree, tmp_path / "app")
        hashed_sizes.clear()
        assert load_tree(tmp_path / "app") == tree
        assert sorted(hashed_sizes) == [10, 300]


class TestFileTree:
    def test_from_dict_synthesizes_parents(self):
        tree = FileTree.from_dict("app", {"a/b/c.txt": b"x"})
        assert list(tree) == ["a", "a/b", "a/b/c.txt"]
        assert tree["a"].is_dir and tree["a/b"].is_dir
        assert tree["a/b/c.txt"].content == b"x"

    def test_lexicographic_order(self):
        tree = FileTree.from_dict("app", {"b.txt": b"", "a.txt": b"", "c": None})
        assert list(tree) == ["a.txt", "b.txt", "c"]

    def test_keys_are_normalized_before_ordering(self):
        f = Entry(b"x")
        dotted = FileTree("x", {"./b": f, "a": f})
        plain = FileTree("x", {"a": f, "b": f})
        assert list(dotted) == ["a", "b"]
        assert tree_digest(dotted) == tree_digest(plain)

    def test_missing_parent_rejected(self):
        with pytest.raises(TreeError):
            FileTree("app", {"a/b.txt": Entry(b"x")})

    def test_file_used_as_directory_rejected(self):
        with pytest.raises(TreeError):
            FileTree.from_dict("app", {"a": b"file", "a/b.txt": b"x"})

    def test_equality_ignores_root_label(self):
        t1 = FileTree.from_dict("one", {"f": b"data"})
        t2 = FileTree.from_dict("two", {"f": b"data"})
        assert t1 == t2

    def test_equality_sees_content(self):
        t1 = FileTree.from_dict("app", {"f": b"data"})
        t2 = FileTree.from_dict("app", {"f": b"DATA"})
        assert t1 != t2

    def test_entry_records_hash_and_class(self):
        tree = FileTree.from_dict("app", {"f": b"abc"})
        assert tree["f"].content_hash.hex() == ABC_SHA256
        assert classify_textual(tree["f"].content) is True

    def test_total_file_bytes(self):
        tree = FileTree.from_dict("app", {"a": b"xx", "b/c": b"yyy"})
        assert tree.total_file_bytes() == 5


class TestTreeDigest:
    def test_empty_tree_digest_is_stable(self):
        t = FileTree("app", {})
        assert tree_digest(t) == tree_digest(FileTree("other", {}))

    def test_digest_independent_of_insertion_order(self):
        t1 = FileTree.from_dict("a", {"x": b"1", "y": b"2"})
        t2 = FileTree.from_dict("a", {"y": b"2", "x": b"1"})
        assert tree_digest(t1) == tree_digest(t2)

    def test_digest_sees_content(self):
        t1 = FileTree.from_dict("a", {"x": b"1"})
        t2 = FileTree.from_dict("a", {"x": b"2"})
        assert tree_digest(t1) != tree_digest(t2)

    def test_digest_sees_kind(self):
        t1 = FileTree.from_dict("a", {"x": b""})
        t2 = FileTree.from_dict("a", {"x": None})
        assert tree_digest(t1) != tree_digest(t2)

    def test_digest_sees_path(self):
        t1 = FileTree.from_dict("a", {"x": b"1"})
        t2 = FileTree.from_dict("a", {"y": b"1"})
        assert tree_digest(t1) != tree_digest(t2)


class TestRoundTrips:
    def test_directory_round_trip(self, tmp_path):
        tree = FileTree.from_dict(
            "app", {"main.py": b"print(1)\n", "data/bin.dat": b"\x00\x01", "empty": None}
        )
        dest = tmp_path / "out"
        materialize(tree, dest)
        assert load_tree(dest) == tree

    def test_materialize_refuses_existing(self, tmp_path):
        with pytest.raises(TreeError):
            materialize(FileTree("a", {}), tmp_path)
        # and leaves what is there as it was, with no staging sibling
        dest = tmp_path / "out"
        dest.mkdir()
        (dest / "keep").write_bytes(b"mine")
        with pytest.raises(TreeError, match="already exists"):
            materialize(FileTree.from_dict("a", {"f": b"x\n"}), dest)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert (dest / "keep").read_bytes() == b"mine"

    def test_materialize_never_replaces_a_dest_made_after_the_check(
        self, tmp_path, monkeypatch
    ):
        # Another writer makes an empty ``dest`` while the tree is staged.
        # POSIX rename would replace it, so the claim must come first: the
        # other writer's mkdir fails, and the tree lands whole.
        dest = tmp_path / "out"
        refused = []
        write_bytes = Path.write_bytes

        def racing_write(self, data):
            try:
                os.mkdir(dest)
            except FileExistsError:
                refused.append(self.name)
            return write_bytes(self, data)

        monkeypatch.setattr(Path, "write_bytes", racing_write)
        tree = FileTree.from_dict("a", {"f": b"x\n"})
        materialize(tree, dest)
        monkeypatch.undo()
        assert refused == ["f"]
        assert load_tree(dest) == tree

    def test_materialize_root_mode(self, tmp_path):
        # staged under a random name, but not with mkdtemp's 0700
        (tmp_path / "ref").mkdir()
        materialize(FileTree("a", {}), tmp_path / "out")
        mode = (tmp_path / "out").stat().st_mode & 0o777
        assert mode == (tmp_path / "ref").stat().st_mode & 0o777

    def test_materialize_removes_a_cut_writes_staging(self, tmp_path):
        stale = tmp_path / ".out.satpatch-deadbeef"
        (stale / "lib").mkdir(parents=True)
        (stale / "lib" / "half.bin").write_bytes(b"\x00")
        other = tmp_path / ".outer.satpatch-deadbeef"
        other.mkdir()
        tree = FileTree.from_dict("a", {"f": b"x\n"})
        materialize(tree, tmp_path / "out")
        assert load_tree(tmp_path / "out") == tree
        assert sorted(p.name for p in tmp_path.iterdir()) == [".outer.satpatch-deadbeef", "out"]

    def test_materialize_crash_points(self, tmp_path, crash_points):
        tree = FileTree.from_dict(
            "app",
            {"main.py": b"x\n", "lib/a.bin": b"\x00\x01", "lib/empty": None, "z": b""},
        )
        clean = tmp_path / "clean" / "app"
        calls = crash_points(0, lambda: materialize(tree, clean))
        assert load_tree(clean) == tree
        assert calls >= len(tree) + 3  # parent, staging, entries, rename
        for k in range(1, calls + 1):
            dest = tmp_path / f"crash-{k}" / "app"
            with pytest.raises(OSError, match="injected crash"):
                crash_points(k, lambda: materialize(tree, dest))
            assert not dest.exists() or load_tree(dest) == tree
        assert [p for p in tmp_path.rglob("*") if "satpatch" in p.name] == []

    def test_tar_round_trip(self, tmp_path):
        tree = FileTree.from_dict("app", {"a/b.txt": b"hello", "c.bin": b"\xff\x00"})
        blob = write_tar(tree)
        assert load_tar_bytes(blob, tmp_path) == tree

    def test_tar_is_deterministic(self):
        t1 = FileTree.from_dict("one", {"a": b"x", "b/c": b"y"})
        t2 = FileTree.from_dict("two", {"b/c": b"y", "a": b"x"})
        assert write_tar(t1) == write_tar(t2)

    def test_tar_subset(self, tmp_path):
        tree = FileTree.from_dict("app", {"keep": b"1", "drop": b"2"})
        blob = write_tar(tree, paths=["keep"])
        loaded = load_tar_bytes(blob, tmp_path)
        assert list(loaded) == ["keep"]

    def test_tar_without_dir_members_synthesizes_parents(self, tmp_path):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tar:
            info = tarfile.TarInfo(name="deep/nested/f.txt")
            info.size = 3
            tar.addfile(info, io.BytesIO(b"abc"))
        loaded = load_tar_bytes(buf.getvalue(), tmp_path)
        assert list(loaded) == ["deep", "deep/nested", "deep/nested/f.txt"]
        assert loaded["deep"].is_dir

    def test_tar_escape_rejected(self, tmp_path):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tar:
            info = tarfile.TarInfo(name="../evil")
            info.size = 1
            tar.addfile(info, io.BytesIO(b"x"))
        with pytest.raises(PathError):
            load_tar_bytes(buf.getvalue(), tmp_path)

    def test_non_utf8_member_rejected(self, tmp_path):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tar:
            info = tarfile.TarInfo(name=NON_UTF8_NAME)
            info.size = 1
            tar.addfile(info, io.BytesIO(b"x"))
        with pytest.raises(PathError, match="not valid UTF-8"):
            load_tar_bytes(buf.getvalue(), tmp_path)

    def test_non_utf8_file_name_rejected(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        try:
            (root / NON_UTF8_NAME).write_bytes(b"x")
        except OSError:
            pytest.skip("the file system refuses names that are not UTF-8")
        with pytest.raises(PathError, match="not valid UTF-8"):
            load_tree(root)

    def test_symlink_member_rejected(self, tmp_path):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tar:
            info = tarfile.TarInfo(name="link")
            info.type = tarfile.SYMTYPE
            info.linkname = "target"
            tar.addfile(info)
        with pytest.raises(TreeError):
            load_tar_bytes(buf.getvalue(), tmp_path)

    def test_garbage_stream_rejected(self, tmp_path):
        with pytest.raises(TreeError):
            load_tar_bytes(b"this is not a tar archive", tmp_path)

    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
                min_size=1,
                max_size=8,
            ),
            st.binary(max_size=512),
            max_size=8,
        )
    )
    def test_tar_round_trip_property(self, mapping):
        tree = FileTree.from_dict("app", mapping)
        # hypothesis runs many examples per test call, so not tmp_path
        with tempfile.TemporaryDirectory() as tmp:
            assert load_tar_bytes(write_tar(tree), tmp) == tree
