"""Wire format: round trips, determinism, typed decode failures."""

import gzip
import io
import random
import struct
import tracemalloc
import zlib

import pytest

from satpatch.cli import main
from satpatch.diffgen import compare_trees
from satpatch.errors import (
    BadMagicError,
    DeltaRunError,
    CorruptPackageError,
    ManifestError,
    PackageError,
    PackageInconsistencyError,
    TruncatedPackageError,
    UnsupportedVersionError,
)
from satpatch.fstree import FileTree, materialize
from satpatch.package import (
    PACKAGE_VERSION,
    ChangeKind,
    ChangeSet,
    EditOp,
    FileChange,
    decode_package,
    encode_package,
    gzip_bytes,
    wire_layout,
)
from satpatch.reconstruct import apply_changeset
from treegen import random_pair


def sample_trees() -> tuple[FileTree, FileTree]:
    old = FileTree.from_dict(
        "app",
        {
            "main.py": b"a\nb\nc\n",
            "lib/util.py": b"x\n",
            "assets/blob.bin": bytes(range(256)) * 40,
            "drop me.txt": b"bye\n",
        },
    )
    new = FileTree.from_dict(
        "app",
        {
            "main.py": b"a\nB\nc\n",
            "lib/util.py": b"x\n",
            "assets/blob.bin": bytes(range(256)) * 39 + b"\x00" * 77,
            "added/néw.json": b"{}\n",
        },
    )
    return old, new


def sample_changeset() -> ChangeSet:
    return compare_trees(*sample_trees())


def recompress(container: bytes) -> bytes:
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", compresslevel=9, mtime=0) as gz:
        gz.write(container)
    return buf.getvalue()


def container_of(blob: bytes) -> bytes:
    return gzip.decompress(blob)


class TestRoundTrip:
    def test_sample(self):
        cs = sample_changeset()
        assert decode_package(encode_package(cs)) == cs

    def test_empty_changeset(self):
        cs = compare_trees(FileTree("a", {}), FileTree("a", {}))
        assert decode_package(encode_package(cs)) == cs

    def test_unusual_paths(self):
        old = FileTree.from_dict("a", {})
        new = FileTree.from_dict(
            "a", {"with space/f€file.txt": b"x", "pct%25.txt": b"y"}
        )
        cs = compare_trees(old, new)
        assert decode_package(encode_package(cs)) == cs

    def test_patch_runs_count_with_insert_runs(self):
        # Records number the I and X runs of a chunk patch in op order.
        change = FileChange(
            "f.bin",
            ChangeKind.CHUNK_PATCH,
            (EditOp("X", 300), EditOp("R", 9), EditOp("D", 4), EditOp("I", 6), EditOp("X", 40)),
            (b"\x81\x01\x07", b"delta", b"\x00\x01"),
        )
        blob = encode_package(ChangeSet(bytes(32), bytes(32), (change,)))
        assert decode_package(blob).changes == (change,)
        container = container_of(blob)
        assert b"B~\tf.bin\tX300 R9 D4 I6 X40\n" in container
        assert container.endswith(
            struct.pack(">H", 5) + b"f.bin" + struct.pack(">IQ", 2, 2) + b"\x00\x01"
        )
        (row,) = wire_layout(blob)["kinds"].values()
        assert row == {"changes": 1, "segment_bytes": 10, "inserted": 6, "patched": 340}

    def test_random_pairs(self):
        rng = random.Random(42)
        for _ in range(25):
            old, new = random_pair(rng, max_files=25, max_file_size=16 * 1024)
            cs = compare_trees(old, new)
            assert decode_package(encode_package(cs)) == cs


class TestDeterminism:
    def test_identical_bytes(self):
        cs = sample_changeset()
        assert encode_package(cs) == encode_package(cs)

    def test_compression_effective(self):
        cs = sample_changeset()
        assert len(encode_package(cs)) < len(container_of(encode_package(cs)))


class TestDecodeErrors:
    def test_not_gzip(self):
        with pytest.raises(CorruptPackageError):
            decode_package(b"definitely not a package")

    def test_truncated_gzip_stream(self):
        blob = encode_package(sample_changeset())
        with pytest.raises(PackageError):
            decode_package(blob[: len(blob) // 2])

    def test_bad_magic(self):
        container = container_of(encode_package(sample_changeset()))
        with pytest.raises(BadMagicError):
            decode_package(recompress(b"XXXX" + container[4:]))

    def test_unsupported_version(self):
        container = container_of(encode_package(sample_changeset()))
        patched = container[:4] + bytes([PACKAGE_VERSION + 1]) + container[5:]
        with pytest.raises(UnsupportedVersionError):
            decode_package(recompress(patched))

    def test_version_2_refused(self):
        # Version 2 had no X runs; decode accepts version 3 only.
        container = container_of(encode_package(sample_changeset()))
        assert container[4] == PACKAGE_VERSION == 3
        with pytest.raises(UnsupportedVersionError, match="version 2"):
            decode_package(recompress(container[:4] + b"\x02" + container[5:]))

    def test_truncated_container(self):
        container = container_of(encode_package(sample_changeset()))
        for cut in (3, 5, 20, 60, 90, len(container) - 1):
            with pytest.raises(TruncatedPackageError):
                decode_package(recompress(container[:cut]))

    def test_trailing_garbage(self):
        container = container_of(encode_package(sample_changeset()))
        with pytest.raises(CorruptPackageError):
            decode_package(recompress(container + b"\x00"))

    @pytest.mark.parametrize(
        "tail", [b"\x00", gzip_bytes(b"more")], ids=["one-byte", "second-member"]
    )
    def test_data_after_the_stream(self, tail):
        blob = encode_package(sample_changeset())
        with pytest.raises(
            CorruptPackageError, match="data after the end of the compressed stream"
        ):
            decode_package(blob + tail)

    def test_empty_input(self):
        with pytest.raises(PackageError):
            decode_package(b"")

    @staticmethod
    def padded_container() -> bytes:
        # A large inserted file keeps the stream from ending within the
        # first read, so a huge length reaches the inflater.
        old = FileTree.from_dict("a", {"m.py": b"a\n"})
        new = FileTree.from_dict("a", {"m.py": b"b\n", "zz.bin": bytes(1 << 20)})
        return container_of(encode_package(compare_trees(old, new)))

    def test_huge_manifest_length(self):
        container = self.padded_container()
        head_end = 4 + 1 + 16 + 32 + 32
        patched = container[:head_end] + b"\xff" * 8 + container[head_end + 8 :]
        with pytest.raises(TruncatedPackageError):
            decode_package(recompress(patched))

    def test_huge_record_length(self):
        # The first record is claimed by the manifest, so only its length
        # stands between the header and its payload.
        container = self.padded_container()
        head_end = 4 + 1 + 16 + 32 + 32
        (manifest_len,) = struct.unpack_from(">Q", container, head_end)
        first = head_end + 8 + manifest_len + 4
        (path_len,) = struct.unpack_from(">H", container, first)
        length_at = first + 2 + path_len + 4
        patched = container[:length_at] + b"\xff" * 8 + container[length_at + 8 :]
        with pytest.raises(TruncatedPackageError):
            decode_package(recompress(patched))

    @pytest.mark.parametrize(
        "word,value",
        [(0, 32), (1, 8), (2, 64), (3, 4096), (2, 0)],
        ids=["window-32", "mask_bits-8", "min_size-64", "max_size-4096", "min_size-0"],
    )
    def test_chunk_parameters_must_match(self, word, value):
        # The header's four u32 words follow magic and version. All but the
        # last case are valid chunker settings, just not the ground's.
        container = container_of(encode_package(sample_changeset()))
        at = 5 + 4 * word
        patched = container[:at] + struct.pack(">I", value) + container[at + 4 :]
        with pytest.raises(CorruptPackageError, match="chunk parameters"):
            decode_package(recompress(patched))


def tamper_manifest(replace: bytes, with_: bytes) -> bytes:
    container = container_of(encode_package(sample_changeset()))
    assert replace in container
    return recompress(container_replace_manifest(container, replace, with_))


def container_replace_manifest(container: bytes, old: bytes, new: bytes) -> bytes:
    head_end = 4 + 1 + 16 + 32 + 32
    (manifest_len,) = struct.unpack_from(">Q", container, head_end)
    start = head_end + 8
    manifest = container[start : start + manifest_len]
    assert old in manifest
    patched = manifest.replace(old, new, 1)
    return (
        container[:head_end]
        + struct.pack(">Q", len(patched))
        + patched
        + container[start + manifest_len :]
    )


class TestManifestValidation:
    def test_unknown_change_code(self):
        with pytest.raises(ManifestError):
            decode_package(tamper_manifest(b"F-\t", b"Z!\t"))

    def test_bad_op_token(self):
        with pytest.raises(ManifestError, match="bad op count in 'Rx'"):
            decode_package(tamper_manifest(b"R1", b"Rx"))
        # X runs belong to chunk patches only, and this R1 is a text op.
        with pytest.raises(ManifestError, match="bad op token 'X1'"):
            decode_package(tamper_manifest(b"R1", b"X1"))

    def test_zero_count(self):
        with pytest.raises(ManifestError):
            decode_package(tamper_manifest(b"R1", b"R0"))

    def test_escaping_path(self):
        with pytest.raises(ManifestError):
            decode_package(tamper_manifest(b"main.py", b"%2e%2e/up"))

    def test_missing_op_field(self):
        with pytest.raises(ManifestError):
            decode_package(tamper_manifest(b"T~\tmain.py\t", b"T~\tmain.py\n"))

    def test_sizes_on_line_ops_rejected(self):
        # Version 1 size lists are no op grammar in either patch kind.
        with pytest.raises(ManifestError):
            decode_package(tamper_manifest(b"R1 ", b"R1:9 "))
        with pytest.raises(ManifestError):
            decode_package(tamper_manifest(b"D10240 ", b"D1:10240 "))

    def test_layout_reports_manifest_as_sent(self):
        # Leading zeros and another valid percent-encoding decode to the
        # same changes but are longer than their canonical re-encoding.
        canonical = wire_layout(encode_package(sample_changeset()))["manifest_bytes"]
        for old, new in ((b"R1 ", b"R001 "), (b"main.py", b"%6Dain.py")):
            blob = tamper_manifest(old, new)
            assert decode_package(blob) == sample_changeset()
            assert wire_layout(blob)["manifest_bytes"] == canonical + len(new) - len(old)

    @pytest.mark.parametrize(
        "old,new,match",
        [
            (b"main.py", b"main\xff.py", "manifest is not valid UTF-8"),
            (b"D+\tadded\n", b"D+added\n", "too few fields"),
            (b"D+\tadded\n", b"D+\tadded\tR1\n", "unexpected extra fields"),
            (b"I1 R1\n", b"I1 R1", "manifest not newline-terminated"),
        ],
        ids=["not-utf8", "too-few-fields", "extra-fields", "no-final-newline"],
    )
    def test_line_refused(self, old, new, match):
        with pytest.raises(ManifestError, match=match):
            decode_package(tamper_manifest(old, new))

    @pytest.mark.parametrize("count", ["\u00b2", "9" * 19, "9" * 5000, "-1", ""])
    def test_op_count_must_be_plain_digits(self, count):
        with pytest.raises(ManifestError):
            decode_package(tamper_manifest(b"R1 D1", f"R{count} D1".encode()))


class TestSegmentValidation:
    def craft(self, mutate):
        """Encode the sample, mutate its (path, run) -> bytes segment map,
        and rebuild the container around the same manifest, with the
        records in the map's order (as read, unless ``mutate`` reorders)."""
        cs = sample_changeset()
        container = container_of(encode_package(cs))
        head_end = 4 + 1 + 16 + 32 + 32
        (manifest_len,) = struct.unpack_from(">Q", container, head_end)
        body_end = head_end + 8 + manifest_len
        records = {}
        pos = body_end + 4
        (count,) = struct.unpack_from(">I", container, body_end)
        for _ in range(count):
            (plen,) = struct.unpack_from(">H", container, pos)
            pos += 2
            path = container[pos : pos + plen].decode()
            pos += plen
            run, seg_len = struct.unpack_from(">IQ", container, pos)
            pos += 12
            records[(path, run)] = container[pos : pos + seg_len]
            pos += seg_len
        mutate(records)
        out = io.BytesIO()
        out.write(container[:body_end])
        out.write(struct.pack(">I", len(records)))
        for (path, run), data in records.items():
            pb = path.encode()
            out.write(struct.pack(">H", len(pb)) + pb)
            out.write(struct.pack(">IQ", run, len(data)) + data)
        return recompress(out.getvalue())

    def test_missing_segment(self):
        def drop_one(records):
            records.pop(sorted(records)[0])

        with pytest.raises(PackageInconsistencyError):
            decode_package(self.craft(drop_one))

    def test_orphan_segment(self):
        def add_orphan(records):
            records[("nobody/asked.bin", 0)] = b"stray"

        with pytest.raises(PackageInconsistencyError):
            decode_package(self.craft(add_orphan))

    def test_records_out_of_order(self, tmp_path, capsys):
        # The same records, but not in the (path bytes, run) order that
        # encode writes them.
        def reverse(records):
            swapped = list(records.items())[::-1]
            records.clear()
            records.update(swapped)

        blob = self.craft(reverse)
        with pytest.raises(PackageInconsistencyError, match="is next"):
            decode_package(blob)
        materialize(sample_trees()[0], tmp_path / "old")
        (tmp_path / "up.satpkg").write_bytes(blob)
        argv = ["apply", tmp_path / "old", tmp_path / "up.satpkg", "-o", tmp_path / "new"]
        assert main([str(a) for a in argv]) == 2
        assert "bad package" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_patch_listed_twice(self):
        # Each listing claims the same records; encode never writes this.
        line = b"T~\tmain.py\tR1 D1 I1 R1\n"
        with pytest.raises(PackageInconsistencyError, match="twice"):
            decode_package(tamper_manifest(line, line + line))

    def test_chunk_segment_size_mismatch(self):
        # A delta run's size is known only once it inflates against the
        # old bytes, so decode passes it and apply refuses it.
        def grow_blob(records):
            key = ("assets/blob.bin", 0)
            records[key] = records[key] + b"!"

        changeset = decode_package(self.craft(grow_blob))
        with pytest.raises(DeltaRunError):
            apply_changeset(sample_trees()[0], changeset)

    def test_orphan_rejected_before_its_payload_inflates(self):
        # One orphan record of 256 MiB of zeros, about 255 KiB compressed.
        container = container_of(encode_package(sample_changeset()))
        head_end = 4 + 1 + 16 + 32 + 32
        (manifest_len,) = struct.unpack_from(">Q", container, head_end)
        count_at = head_end + 8 + manifest_len
        (count,) = struct.unpack_from(">I", container, count_at)
        size = 256 << 20
        coder = zlib.compressobj(9, zlib.DEFLATED, 31)
        parts = [
            coder.compress(container[:count_at]),
            coder.compress(struct.pack(">I", count + 1)),
            coder.compress(struct.pack(">H", 6) + b"orphan" + struct.pack(">IQ", 0, size)),
        ]
        zeros = bytes(1 << 20)
        parts += [coder.compress(zeros) for _ in range(size >> 20)]
        parts += [coder.compress(container[count_at + 4 :]), coder.flush()]
        blob = b"".join(parts)
        del parts, zeros
        tracemalloc.start()
        try:
            with pytest.raises(PackageInconsistencyError):
                decode_package(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_text_segment_line_count_mismatch(self):
        def split_insert(records):
            key = ("main.py", 0)
            records[key] = records[key] + b"extra\n"

        with pytest.raises(PackageInconsistencyError):
            decode_package(self.craft(split_insert))

    def test_text_run_lines_are_counted_not_split(self):
        # 1.5 M lines in about 3 KB: the line check must not build a bytes
        # object per line of a run it has not yet accepted.
        lines = 1_500_000
        change = FileChange(
            "main.py",
            ChangeKind.TEXT_PATCH,
            (EditOp("R", 1), EditOp("I", lines)),
            (b"a\n" * lines,),
        )
        blob = encode_package(ChangeSet(bytes(32), bytes(32), (change,)))
        del change
        tracemalloc.start()
        try:
            decoded = decode_package(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decoded.changes[0].ops[1] == ("I", lines)
        assert peak < 16 << 20


class TestFuzzedCorruption:
    def test_random_damage_yields_typed_errors(self):
        base = encode_package(sample_changeset())
        rng = random.Random(99)
        decoded_fine = 0
        for _ in range(60):
            blob = bytearray(base)
            for _ in range(rng.randint(1, 5)):
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            try:
                decode_package(bytes(blob))
                decoded_fine += 1  # flip landed in a gzip no-op spot
            except PackageError:
                pass
        assert decoded_fine <= 3
