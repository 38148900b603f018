"""Apply path: end-to-end round trips, typed failures, transactionality."""

import random
import tracemalloc
import zlib
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satpatch.diffgen import MAX_SIZE, chunk_diff, compare_trees, line_diff
from satpatch.errors import (
    ApplyError,
    BaseVersionMismatchError,
    DeltaRunError,
    DigestMismatchError,
    EditScriptError,
    PackageInconsistencyError,
)
from satpatch.fstree import FileTree, load_tree, materialize, tree_digest
from satpatch.package import (
    DELTA_WINDOW,
    ChangeKind,
    ChangeSet,
    EditOp,
    FileChange,
    encode_package,
)
from satpatch.reconstruct import (
    apply_changeset,
    apply_file,
    apply_package,
    replace_directory,
    restore_directory,
)
from treegen import random_pair


def round_trip(old: FileTree, new: FileTree) -> FileTree:
    cs = compare_trees(old, new)
    applied, report = apply_package(old, encode_package(cs))
    assert report.target_digest == tree_digest(new)
    return applied


#: Old content of two units for either patch kind: two lines, two bytes.
TWO_UNITS = pytest.mark.parametrize(
    "kind, old, unit",
    [(ChangeKind.TEXT_PATCH, b"a\nb\n", "line"), (ChangeKind.CHUNK_PATCH, b"ab", "byte")],
    ids=["text", "chunk"],
)


class TestApplyFile:
    def test_text(self):
        ops, segments = line_diff(b"a\nb\nc\n", b"a\nX\nc\n")
        change = FileChange("f", ChangeKind.TEXT_PATCH, ops, segments)
        assert apply_file(b"a\nb\nc\n", change) == b"a\nX\nc\n"

    def test_chunks(self):
        rng = random.Random(0)
        old = rng.randbytes(50_000)
        new = old[:20_000] + rng.randbytes(333) + old[21_000:]
        ops, segments = chunk_diff(old, new)
        change = FileChange("f", ChangeKind.CHUNK_PATCH, ops, segments)
        assert apply_file(old, change) == new
        # The runs resend mostly old bytes, which the dictionary supplies.
        inserted = sum(op.count for op in ops if op.kind == "I")
        assert sum(map(len, segments)) < 333 + inserted // 4

    def test_retained_bytes_copied_once(self):
        # A patched file's retained spans go into the new content without
        # a copy of their own: the peak is the output, not twice it.
        old = random.Random(2).randbytes(4 * 2**20)
        new = bytearray(old)
        new[1_000_000] ^= 1
        new[3_000_000] ^= 1
        change = chunk_change(old, bytes(new))
        tracemalloc.start()
        try:
            out = apply_file(old, change)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == new
        assert peak < 1.25 * len(old)

    def test_line_edges_hold_no_line_objects(self):
        # Only the line edges of the old content are kept, not a bytes
        # object per line: 131,072 lines of 25 bytes, two of them edited.
        old = b"".join(b"%024d\n" % i for i in range(131_072))
        lines = old.splitlines(keepends=True)
        lines[1_000] = b"edited one\n"
        lines[100_000] = b"edited two\n"
        new = b"".join(lines)
        del lines
        change = FileChange("f", ChangeKind.TEXT_PATCH, *line_diff(old, new))
        tracemalloc.start()
        try:
            out = apply_file(old, change)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == new
        assert peak < 3 * len(old)

    def test_wrong_old_content_caught_by_length(self):
        ops, segments = chunk_diff(b"A" * 1000, b"A" * 500)
        change = FileChange("f", ChangeKind.CHUNK_PATCH, ops, segments)
        for wrong in (b"B" * 10, b"A" * 999, b"A" * 1001):
            with pytest.raises(EditScriptError):
                apply_file(wrong, change)

    # The structure that needs no old content is checked when the change
    # is built, so a malformed patch never reaches apply_file.
    def test_segment_count_mismatch(self):
        with pytest.raises(PackageInconsistencyError):
            FileChange("f", ChangeKind.TEXT_PATCH, (EditOp("I", 1),), segments=())

    def test_insert_line_count_mismatch(self):
        with pytest.raises(PackageInconsistencyError):
            FileChange("f", ChangeKind.TEXT_PATCH, (EditOp("I", 2),), segments=(b"one\n",))

    @TWO_UNITS
    def test_script_overrun(self, kind, old, unit):
        change = FileChange("f", kind, (EditOp("R", 1), EditOp("D", 4)))
        with pytest.raises(EditScriptError, match=f"walks past {unit} 2"):
            apply_file(old, change)

    @TWO_UNITS
    def test_script_underrun(self, kind, old, unit):
        change = FileChange("f", kind, (EditOp("R", 1),))
        with pytest.raises(EditScriptError, match=f"consumed 1 of 2 {unit}s"):
            apply_file(old, change)

    @pytest.mark.parametrize(
        "change",
        [
            FileChange("f", ChangeKind.FILE_INSERT, segments=(b"x\n",)),
            FileChange("f", ChangeKind.FILE_DELETE),
            FileChange("f", ChangeKind.DIR_INSERT),
            FileChange("f", ChangeKind.DIR_DELETE),
        ],
        ids=lambda change: change.kind.name,
    )
    def test_not_a_patch(self, change):
        with pytest.raises(EditScriptError, match="not a patch"):
            apply_file(b"x\n", change)


def chunk_change(old: bytes, new: bytes) -> FileChange:
    ops, segments = chunk_diff(old, new)
    return FileChange("f", ChangeKind.CHUNK_PATCH, ops, segments)


class TestDeltaRuns:
    """Chunk insert runs travel deflated against the old bytes before them."""

    def check_round_trip(self, old: bytes, new: bytes):
        change = chunk_change(old, new)
        assert sum(op.count for op in change.ops if op.kind in "RDX") == len(old)
        assert sum(op.count for op in change.ops if op.kind in "RIX") == len(new)
        assert apply_file(old, change) == new
        return change

    def test_insert_at_offset_zero_has_empty_dictionary(self):
        # A zero run cuts into whole max-size chunks, so the old chunks
        # after it line up again and the script opens with the insert.
        old = random.Random(1).randbytes(20_000)
        change = self.check_round_trip(old, bytes(MAX_SIZE) + old)
        assert change.ops[0] == EditOp("I", MAX_SIZE)

    def test_delete_run_longer_than_window(self):
        rng = random.Random(2)
        old = rng.randbytes(120_000)
        new = old[:10_000] + rng.randbytes(700) + old[60_000:]
        change = self.check_round_trip(old, new)
        assert max(op.count for op in change.ops if op.kind == "D") > DELTA_WINDOW

    def test_incompressible_pure_insert(self):
        rng = random.Random(3)
        new = rng.randbytes(50_000)
        change = self.check_round_trip(b"", new)
        assert [op.kind for op in change.ops] == ["I"]
        # Stored deflate blocks: a few bytes of framing per 64 KiB.
        assert len(change.segments[0]) < len(new) + 64

    def test_file_shrinks_to_empty(self):
        change = self.check_round_trip(random.Random(4).randbytes(40_000), b"")
        assert [op.kind for op in change.ops] == ["D"]
        assert change.segments == ()

    def test_seeded_random_pairs(self):
        # Sizes run from empty to a few hundred chunks, and edits from one
        # byte to runs longer than the delta dictionary.
        rng = random.Random(0xD17A)
        for _ in range(60):
            old = rng.randbytes(rng.choice((0, 1, 4_800, 80_000, 640_000)))
            new = bytearray(old)
            for _ in range(rng.randint(0, 6)):
                at = rng.randint(0, len(new))
                cut = rng.choice((0, 1, 1_600, 640_000))
                new[at : at + cut] = rng.randbytes(rng.choice((0, 1, 800, 32_000)))
            self.check_round_trip(old, bytes(new))

    def test_built_against_other_old_bytes_is_rejected(self):
        rng = random.Random(5)
        old = rng.randbytes(60_000)
        new = bytearray(old)
        new[30_000] ^= 0xFF
        new[10_000:10_000] = rng.randbytes(20)
        base = FileTree.from_dict("a", {"f.bin": old})
        cs = compare_trees(base, FileTree.from_dict("a", {"f.bin": bytes(new)}))
        assert {"I", "X"} <= {op.kind for op in cs.changes[0].ops}
        # Same length, other bytes: the spans line up, the insert run
        # inflates against the wrong dictionary, the patch run patches the
        # wrong bytes, and the target digest refuses.
        other = FileTree.from_dict("a", {"f.bin": rng.randbytes(60_000)})
        with pytest.raises(DigestMismatchError):
            apply_changeset(other, replace(cs, source_digest=tree_digest(other)))

    def damaged(self, mutate) -> tuple[bytes, FileChange]:
        rng = random.Random(6)
        old = rng.randbytes(30_000)
        new = old[:15_000] + rng.randbytes(40) + old[15_000:]
        change = chunk_change(old, new)
        segments = list(change.segments)
        segments[0] = mutate(segments[0])
        return old, FileChange("f", ChangeKind.CHUNK_PATCH, change.ops, tuple(segments))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda z: z + b"!",
            lambda z: z[:-1],
            lambda z: b"\xff" + z[1:],
            lambda z: zlib.compress(b"x", 9)[2:-4],
        ],
        ids=["trailing-byte", "cut-short", "bad-block-type", "whole-but-short"],
    )
    def test_damaged_run_fails_closed(self, mutate):
        # A flip that still inflates to the span is left to the target
        # digest, as in TestApplyChangeset.
        old, change = self.damaged(mutate)
        with pytest.raises(ApplyError):
            apply_file(old, change)

    def test_run_never_inflates_past_its_span(self):
        old, change = self.damaged(lambda z: z)
        span = next(op.count for op in change.ops if op.kind == "I")
        coder = zlib.compressobj(9, zlib.DEFLATED, -15)
        long_run = coder.compress(bytes(span * 1000)) + coder.flush()
        _, change = self.damaged(lambda z: long_run)
        with pytest.raises(DeltaRunError):
            apply_file(old, change)


def reference_patch(old: bytes, segment: bytes) -> bytes | None:
    """An X run's new bytes decoded independently of the package module:
    (LEB128 gap, nonzero XOR byte) pairs, each gap counted from the end
    of the previous patched byte. None for any segment the format
    refuses."""
    out = bytearray(old)
    at = 0
    rest = list(segment)
    if not rest:
        return None
    while rest:
        digits = []
        while rest and rest[0] & 0x80:
            digits.append(rest.pop(0) & 0x7F)
        if not rest:
            return None  # cut inside the gap
        digits.append(rest.pop(0))
        if len(digits) > 1 and digits[-1] == 0:
            return None  # not minimal
        if not rest or rest[0] == 0:
            return None  # no XOR byte, or a zero one
        at += sum(d << (7 * k) for k, d in enumerate(digits))
        if at >= len(old):
            return None
        out[at] ^= rest.pop(0)
        at += 1
    return bytes(out)


def patch_change(span: int, segment: bytes, before: int = 3, after: int = 5) -> FileChange:
    """A chunk patch retaining ``before`` bytes, patching ``span`` and
    retaining ``after``."""
    ops = (EditOp("R", before), EditOp("X", span), EditOp("R", after))
    return FileChange("f", ChangeKind.CHUNK_PATCH, ops, (segment,))


@st.composite
def mixed_edits(draw):
    """A blob and an edited copy: a flipped byte in each 4 KiB block and
    same-length rewrites in its first 48 KiB, then inserts and deletes in
    the 32 KiB after that, which insert more bytes than they delete."""
    old = random.Random(draw(st.integers(0, 2**16))).randbytes(80 * 1024)
    new = bytearray(old)
    for block in range(12):
        new[block * 4096 + draw(st.integers(0, 4095))] ^= draw(st.integers(1, 255))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, 48 * 1024 - 64))
        new[at : at + 64] = draw(st.binary(min_size=64, max_size=64))
    tail = st.integers(48 * 1024, 80 * 1024)
    edits = draw(st.lists(st.tuples(tail, st.binary(min_size=1, max_size=2000)), min_size=1, max_size=3))
    edits += draw(st.lists(st.tuples(tail, st.integers(1, 2000)), max_size=3))
    # right to left, so every position is still an old offset
    for at, edit in sorted(edits, key=lambda e: e[0], reverse=True):
        if isinstance(edit, int):
            del new[at : at + edit]
        else:
            new[at:at] = edit
    # A net insert leaves some edited region with more new bytes than
    # old, which no X run can code.
    assume(len(new) > len(old))
    return old, bytes(new)


@st.composite
def near_segments(draw):
    """Segments close to the format: (gap, XOR) pairs, each of which may
    have a gap padded with a zero digit or a zero XOR byte, with gaps
    that may walk past a span, and cut at any byte half of the time."""
    out = bytearray()
    for _ in range(draw(st.integers(1, 6))):
        gap = draw(st.one_of(st.integers(0, 40), st.integers(0, 400)))
        digits = []
        while True:
            digits.append(gap & 0x7F)
            gap >>= 7
            if not gap:
                break
        if draw(st.integers(0, 7)) == 0:
            digits.append(0)  # not minimal
        out += bytes(d | 0x80 for d in digits[:-1]) + bytes(digits[-1:])
        out.append(0 if draw(st.integers(0, 7)) == 0 else draw(st.integers(1, 255)))
    if draw(st.booleans()):
        del out[draw(st.integers(0, len(out) - 1)) :]
    return bytes(out)


class TestPatchRuns:
    """Same-length changed chunks travel as their changed bytes."""

    def test_flipped_bytes_travel_as_pairs(self):
        rng = random.Random(7)
        old = rng.randbytes(100_000)
        new = bytearray(old)
        for at in (20_000, 20_001, 70_000):
            new[at] ^= 0x5A
        change = chunk_change(old, bytes(new))
        patches = [op for op in change.ops if op.kind == "X"]
        assert patches and not [op for op in change.ops if op.kind in "DI"]
        # one (gap, XOR) pair per flipped byte, a gap taking one to three bytes
        assert 6 <= sum(map(len, change.segments)) <= 12
        assert apply_file(old, change) == new

    def test_dense_rewrite_stays_an_insert_run(self):
        # 600 rewritten bytes in a same-length pair of 7,820 bytes cost
        # more as pairs than an eighth of the span, so the pair stays a
        # delete and a deflated insert run.
        rng = random.Random(8)
        old = rng.randbytes(60_000)
        new = old[:30_000] + rng.randbytes(600) + old[30_600:]
        change = chunk_change(old, new)
        assert [op.kind for op in change.ops] == ["R", "D", "I", "R"]
        assert change.ops[1].count == change.ops[2].count
        assert apply_file(old, change) == new

    @settings(max_examples=40, deadline=None)
    @given(mixed_edits())
    def test_mixed_edits_round_trip(self, pair):
        old, new = pair
        cs = compare_trees(
            FileTree.from_dict("a", {"f.bin": old}), FileTree.from_dict("a", {"f.bin": new})
        )
        (change,) = cs.changes
        kinds = {op.kind for op in change.ops}
        assert {"X", "I"} <= kinds <= set("RDIX")
        applied, _ = apply_package(FileTree.from_dict("a", {"f.bin": old}), encode_package(cs))
        assert applied.get("f.bin").content == new

    @pytest.mark.parametrize(
        "segment, match",
        [
            (b"", "is empty"),
            (b"\x80", "ends inside a gap"),
            (b"\x01\x07\x81", "ends inside a gap"),
            (b"\x80\x00\x07", "not minimal"),
            (b"\x02", "ends before a XOR byte"),
            (b"\x00\x00", "zero XOR byte"),
            (b"\x10\x07", "patches byte 16 of a 16-byte span"),
            (b"\x0e\x07\x00\x07\x00\x07", "patches byte 16 of a 16-byte span"),
        ],
        ids=[
            "empty", "cut-gap", "cut-second-gap", "non-minimal", "no-xor", "zero-xor",
            "at-span", "walks-past-span",
        ],
    )
    def test_malformed_segment_refused(self, segment, match):
        old = random.Random(9).randbytes(24)
        with pytest.raises(DeltaRunError, match=match):
            apply_file(old, patch_change(16, segment))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.binary(max_size=40), near_segments()), st.integers(1, 300))
    def test_any_segment_applies_cleanly_or_fails_typed(self, segment, span):
        old = random.Random(span).randbytes(span + 8)
        want = reference_patch(old[3 : 3 + span], segment)
        try:
            out = apply_file(old, patch_change(span, segment))
        except ApplyError:
            assert want is None
        else:
            assert out == old[:3] + want + old[3 + span :]

    def test_patch_run_in_a_line_script_refused(self):
        ops = (EditOp("X", 1),)
        with pytest.raises(EditScriptError, match="patch run in a line script"):
            apply_file(b"a\n", FileChange("f", ChangeKind.TEXT_PATCH, ops))


class TestApplyChangeset:
    def test_hashes_only_new_content(self, hashed_sizes):
        rng = random.Random(3)
        blob = rng.randbytes(20_000)
        old = FileTree.from_dict(
            "app",
            {"big.bin": blob, "same.bin": rng.randbytes(9_000), "t.txt": b"a\nb\n", "gone": b"g"},
        )
        new = FileTree.from_dict(
            "app",
            {
                "big.bin": blob[:5_000] + b"Z" + blob[5_001:],
                "same.bin": old["same.bin"].content,
                "t.txt": b"a\nc\n",
                "new/f.txt": b"fresh",
            },
        )
        cs = compare_trees(old, new)
        hashed_sizes.clear()
        applied, _ = apply_changeset(old, cs)
        assert applied == new
        assert sorted(hashed_sizes) == [4, 5, 20_000]

    def test_mixed_update(self):
        old = FileTree.from_dict(
            "app",
            {
                "main.py": b"import os\nrun()\n",
                "gone.txt": b"x\n",
                "unchanged.bin": b"\x00\x01",
                "pkg/mod.py": b"a\nb\n",
            },
        )
        new = FileTree.from_dict(
            "app",
            {
                "main.py": b"import sys\nrun()\n",
                "unchanged.bin": b"\x00\x01",
                "pkg/mod.py": b"a\nb\n",
                "pkg/new.py": b"fresh\n",
            },
        )
        applied = round_trip(old, new)
        assert applied == new
        assert old.get("gone.txt") is not None  # source tree untouched

    def test_report_counts(self):
        old = FileTree.from_dict("app", {"a.py": b"1\n", "b.txt": b"x\n"})
        new = FileTree.from_dict("app", {"a.py": b"2\n", "c/d.txt": b"y\n"})
        cs = compare_trees(old, new)
        _, report = apply_changeset(old, cs)
        assert report.files_patched == 1
        assert report.files_deleted == 1
        assert report.files_added == 1
        assert report.dirs_added == 1
        assert len(cs.changes) == 4
        assert report.bytes_received == cs.segment_bytes()

    def test_empty_to_empty(self):
        empty = FileTree.from_dict("a", {})
        assert round_trip(empty, empty) == empty

    def test_everything_deleted(self):
        old = FileTree.from_dict("a", {"x/y/z.txt": b"1", "w.bin": b"\x00"})
        new = FileTree.from_dict("a", {})
        assert round_trip(old, new) == new

    def test_kind_swaps(self):
        old = FileTree.from_dict("a", {"p": b"file content", "q/r": b"2"})
        new = FileTree.from_dict("a", {"p/s": b"3", "q": b"now a file"})
        assert round_trip(old, new) == new

    def test_base_version_mismatch(self):
        old = FileTree.from_dict("a", {"f": b"1\n"})
        new = FileTree.from_dict("a", {"f": b"2\n"})
        cs = compare_trees(old, new)
        wrong_base = FileTree.from_dict("a", {"f": b"other\n"})
        with pytest.raises(BaseVersionMismatchError):
            apply_changeset(wrong_base, cs)

    def test_compatible_base_fails_target_digest(self):
        old = FileTree.from_dict("a", {"f": b"1\n", "extra": b"e\n"})
        new_f = FileTree.from_dict("a", {"f": b"2\n", "extra": b"e\n"})
        cs = compare_trees(old, new_f)
        other = FileTree.from_dict("a", {"f": b"1\n", "extra": b"e\n", "more": b"m\n"})
        # Every script replays on ``other``; only the target digest refuses.
        with pytest.raises(DigestMismatchError):
            apply_changeset(other, replace(cs, source_digest=tree_digest(other)))

    def test_delete_missing_file(self):
        base = FileTree.from_dict("a", {})
        cs = ChangeSet(
            tree_digest(base),
            b"\x00" * 32,
            (FileChange("ghost", ChangeKind.FILE_DELETE),),
        )
        with pytest.raises(EditScriptError):
            apply_changeset(base, cs)

    def test_delete_nonempty_directory(self):
        base = FileTree.from_dict("a", {"d/f.txt": b"x"})
        cs = ChangeSet(
            tree_digest(base),
            b"\x00" * 32,
            (FileChange("d", ChangeKind.DIR_DELETE),),
        )
        with pytest.raises(EditScriptError):
            apply_changeset(base, cs)

    def test_insert_over_existing(self):
        base = FileTree.from_dict("a", {"f": b"x"})
        cs = ChangeSet(
            tree_digest(base),
            b"\x00" * 32,
            (FileChange("f", ChangeKind.FILE_INSERT, segments=(b"y",)),),
        )
        with pytest.raises(EditScriptError):
            apply_changeset(base, cs)

    def test_insert_without_parent(self):
        base = FileTree.from_dict("a", {})
        cs = ChangeSet(
            tree_digest(base),
            b"\x00" * 32,
            (FileChange("no_dir/f", ChangeKind.FILE_INSERT, segments=(b"y",)),),
        )
        with pytest.raises(EditScriptError):
            apply_changeset(base, cs)

    @pytest.mark.parametrize(
        "change,match",
        [
            (FileChange("f", ChangeKind.DIR_DELETE), "no such directory to delete"),
            (FileChange("f", ChangeKind.DIR_INSERT), "insert over existing entry"),
            (
                FileChange("ghost", ChangeKind.TEXT_PATCH, (EditOp("I", 1),), (b"y\n",)),
                "no such file to patch",
            ),
        ],
        ids=["dir-delete-of-a-file", "dir-insert-over-a-file", "patch-missing-file"],
    )
    def test_change_refused(self, change, match):
        base = FileTree.from_dict("a", {"f": b"x"})
        cs = ChangeSet(tree_digest(base), b"\x00" * 32, (change,))
        with pytest.raises(EditScriptError, match=match):
            apply_changeset(base, cs)

    def test_digest_mismatch_on_tampered_target(self):
        old = FileTree.from_dict("a", {"f": b"1\n"})
        new = FileTree.from_dict("a", {"f": b"2\n"})
        cs = compare_trees(old, new)
        tampered = ChangeSet(cs.source_digest, b"\xff" * 32, cs.changes)
        with pytest.raises(DigestMismatchError):
            apply_changeset(old, tampered)

    def test_failure_leaves_input_intact(self):
        old = FileTree.from_dict("a", {"f": b"1\n", "g": b"2\n"})
        snapshot = dict(old.items())
        cs = ChangeSet(
            tree_digest(old),
            b"\x00" * 32,
            (
                FileChange("f", ChangeKind.FILE_DELETE),
                FileChange("ghost", ChangeKind.FILE_DELETE),
            ),
        )
        with pytest.raises(ApplyError):
            apply_changeset(old, cs)
        assert dict(old.items()) == snapshot


class TestEndToEnd:
    def test_random_pairs_byte_exact(self):
        rng = random.Random(7)
        for _ in range(40):
            old, new = random_pair(rng, max_files=30, max_file_size=32 * 1024)
            assert round_trip(old, new) == new

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_seeded_pairs_property(self, seed):
        rng = random.Random(seed)
        old, new = random_pair(rng, max_files=12, max_file_size=8 * 1024)
        assert round_trip(old, new) == new

    def test_backslash_is_part_of_a_name(self, tmp_path):
        # On POSIX "a\\b" is one file name beside the directory "a", not "a/b".
        trees = {}
        for label, body in (("old", b"1\n"), ("new", b"2\n")):
            (tmp_path / label / "a").mkdir(parents=True)
            (tmp_path / label / "a" / "b").write_bytes(b"dir " + body)
            (tmp_path / label / "a\\b").write_bytes(b"name " + body)
            trees[label] = load_tree(tmp_path / label)
        assert sorted(trees["new"]) == ["a", "a/b", "a\\b"]
        materialize(round_trip(trees["old"], trees["new"]), tmp_path / "out")
        assert (tmp_path / "out" / "a" / "b").read_bytes() == b"dir 2\n"
        assert (tmp_path / "out" / "a\\b").read_bytes() == b"name 2\n"
        assert load_tree(tmp_path / "out") == trees["new"]


class TestReplaceDirectory:
    def test_swap(self, tmp_path):
        old = FileTree.from_dict("app", {"f.txt": b"old\n", "d/g.txt": b"keep\n"})
        new = FileTree.from_dict("app", {"f.txt": b"new\n", "d/g.txt": b"keep\n"})
        target = tmp_path / "app"
        from satpatch.fstree import materialize

        materialize(old, target)
        replace_directory(new, target)
        assert load_tree(target) == new
        assert [p for p in tmp_path.rglob("*") if "satpatch" in p.name] == []

    def test_crash_points(self, tmp_path, crash_points):
        old = FileTree.from_dict("app", {"f.txt": b"old\n", "d/g.txt": b"keep\n"})
        new = FileTree.from_dict("app", {"f.txt": b"new\n", "d/g.txt": b"keep\n"})
        target = tmp_path / "app"
        from satpatch.fstree import materialize

        materialize(old, tmp_path / "clean")
        calls = crash_points(0, lambda: replace_directory(new, tmp_path / "clean"))
        assert load_tree(tmp_path / "clean") == new
        materialize(old, target)
        for k in range(1, calls + 1):
            with pytest.raises(OSError, match="injected crash"):
                crash_points(k, lambda: replace_directory(new, target))
            assert load_tree(target) in (old, new)
        replace_directory(new, target)
        assert load_tree(target) == new
        assert [p for p in tmp_path.rglob("*") if "satpatch" in p.name] == []

    def test_restore_after_a_cut(self, tmp_path):
        old = FileTree.from_dict("app", {"f.txt": b"old\n"})
        target = tmp_path / "app"
        from satpatch.fstree import materialize

        materialize(old, tmp_path / "app.satpatch-old")
        restore_directory(target)
        assert load_tree(target) == old
        assert not (tmp_path / "app.satpatch-old").exists()
        # with the tree in place, a leftover sibling is not moved
        materialize(old, tmp_path / "app.satpatch-old")
        restore_directory(target)
        assert load_tree(target) == old
        assert (tmp_path / "app.satpatch-old").is_dir()

    def test_missing_target(self, tmp_path):
        from satpatch.errors import TreeError

        with pytest.raises(TreeError):
            replace_directory(FileTree("a", {}), tmp_path / "nope")
