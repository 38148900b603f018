"""Delta computation: line splitting, minimal edit scripts, chunking, tree compare.

Minimality is checked against an independent quadratic LCS DP; replay
correctness against a simple two-pointer interpreter written here, not
against the package's own apply path.
"""

import random
import tracemalloc
import zlib
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from satpatch import diffgen
from satpatch.diffgen import (
    _BLOCK,
    _LEAF_BITS,
    _ROW_HEADER_BITS,
    _split,
    chunk_diff,
    chunk_lengths,
    chunkify,
    compare_trees,
    diff_units,
    line_diff,
)
from satpatch.fstree import FileTree, tree_digest
from satpatch.linksim import retained_bytes
from satpatch.package import (
    MASK_BITS,
    MAX_SIZE,
    MIN_SIZE,
    WINDOW,
    ChangeKind,
    EditOp,
    FileChange,
    split_lines,
)


def lcs_length(a, b):
    """Quadratic DP oracle: length of the longest common subsequence."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[len(b)]


def replay_raw(a, b, raw):
    """Two-pointer interpreter for raw ('R',n)/('D',n)/('I',start,n) ops."""
    out = []
    i = j = 0
    for op in raw:
        if op[0] == "R":
            assert a[i : i + op[1]] == b[j : j + op[1]], "retained units must match"
            out.extend(a[i : i + op[1]])
            i += op[1]
            j += op[1]
        elif op[0] == "D":
            i += op[1]
        else:
            assert op[1] == j
            out.extend(b[j : j + op[2]])
            j += op[2]
    assert i == len(a) and j == len(b), "script must consume both sequences"
    return out


def edit_weight(raw):
    return sum(op[1] for op in raw if op[0] == "D") + sum(
        op[2] for op in raw if op[0] == "I"
    )


#: Lines that recur in source text, as blank lines and braces do.
STOCK_LINES = [
    b"}\n", b"\n", b"{\n", b"    return 0;\n", b"    break;\n", b"  }\n",
    b"#endif\n", b"    }\n", b"else {\n", b"        break;\n", b"/*\n",
    b" */\n", b"    i++;\n", b"\t\n",
]


def churned_lines(n, churn, seed):
    """``n`` lines, 30% drawn from STOCK_LINES and the rest unique, and a
    copy with ``churn`` of its positions replaced by new such lines."""
    rng = random.Random(seed)
    serial = iter(range(10**9))

    def line():
        if rng.random() < 0.3:
            return rng.choice(STOCK_LINES)
        return b"    value_%d = compute(%d);\n" % (next(serial), rng.randrange(1000))

    old = [line() for _ in range(n)]
    new = list(old)
    for pos in rng.sample(range(n), int(churn * n)):
        new[pos] = line()
    return old, new


def _skewed(top):
    # one symbol takes about three positions in four
    return st.integers(0, 4 * top).map(lambda x: x % top if x >= 3 * top else 0)


def _pairs(alphabet, min_size=0):
    side = st.lists(alphabet, min_size=min_size, max_size=300)
    return st.tuples(side, side)


@st.composite
def _shared_ends_only(draw):
    """Sequences that share a prefix and a suffix and nothing in between."""
    ends = st.lists(st.integers(0, 5), max_size=80)
    head, tail = draw(ends), draw(ends)
    a_mid = draw(st.lists(st.integers(6, 9), max_size=80))
    b_mid = draw(st.lists(st.integers(10, 13), max_size=80))
    return head + a_mid + tail, head + b_mid + tail


UNIT_PAIRS = st.one_of(
    _pairs(st.integers(0, 3)),
    _pairs(st.integers(0, 3), min_size=65),
    _pairs(_skewed(40), min_size=65),
    _pairs(st.integers(0, 500), min_size=65),
    st.tuples(
        st.lists(st.integers(0, 9), max_size=200),
        st.lists(st.integers(10, 19), max_size=200),
    ),
    _shared_ends_only(),
)

#: Leaf sizes (``_LEAF_BITS``): as shipped; every piece of two or more
#: new units split; small leaves. The last two run the split at sizes the
#: quadratic oracle can check.
THRESHOLDS = [_LEAF_BITS, 0, 2000]


class TestSplitLines:
    def test_empty(self):
        assert split_lines(b"") == []

    def test_terminated(self):
        assert split_lines(b"a\nbb\n") == [b"a\n", b"bb\n"]

    def test_unterminated_tail(self):
        assert split_lines(b"a\nbb") == [b"a\n", b"bb"]

    def test_blank_lines_kept(self):
        assert split_lines(b"\n\nx") == [b"\n", b"\n", b"x"]

    def test_only_newline_splits(self):
        # \r, \x0b, \x0c and friends are ordinary bytes here.
        assert split_lines(b"a\rb\n") == [b"a\rb\n"]

    @given(st.binary(max_size=2048))
    def test_concatenation_round_trips(self, blob):
        lines = split_lines(blob)
        assert b"".join(lines) == blob
        assert all(l.endswith(b"\n") for l in lines[:-1])
        assert all(b"\n" not in l[:-1] for l in lines)


class TestDiffUnits:
    def test_both_empty(self):
        assert diff_units([], []) == []

    def test_equal(self):
        assert diff_units([1, 2, 3], [1, 2, 3]) == [("R", 3)]

    def test_delete_all(self):
        assert diff_units([1, 2], []) == [("D", 2)]

    def test_insert_all(self):
        assert diff_units([], [1, 2]) == [("I", 0, 2)]

    def test_disjoint(self):
        assert diff_units([1, 2], [3, 4, 5]) == [("D", 2), ("I", 0, 3)]

    def test_single_substitution(self):
        assert diff_units([1, 2, 3], [1, 9, 3]) == [
            ("R", 1),
            ("D", 1),
            ("I", 1, 1),
            ("R", 1),
        ]

    def test_classic_seven_six(self):
        # abcabba vs cbabac: edit distance 5 (checked against the DP).
        a = list(b"abcabba")
        b = list(b"cbabac")
        raw = diff_units(a, b)
        assert replay_raw(a, b, raw) == b
        assert edit_weight(raw) == 5
        assert len(a) + len(b) - 2 * lcs_length(a, b) == 5

    def test_delete_precedes_insert(self):
        raw = diff_units([1, 2, 3, 4], [1, 7, 8, 9, 4])
        kinds = [op[0] for op in raw]
        assert kinds == ["R", "D", "I", "R"]

    def test_no_adjacent_same_kind(self):
        rng = random.Random(5)
        for _ in range(300):
            a = [rng.randrange(4) for _ in range(rng.randrange(12))]
            b = [rng.randrange(4) for _ in range(rng.randrange(12))]
            kinds = [op[0] for op in diff_units(a, b)]
            for x, y in zip(kinds, kinds[1:]):
                assert x != y
                assert (x, y) != ("I", "D")

    def test_deterministic(self):
        a = list(b"the quick brown fox")
        b = list(b"a quick red fox jumps")
        assert diff_units(a, b) == diff_units(a, b)

    @given(
        st.lists(st.integers(0, 3), max_size=14),
        st.lists(st.integers(0, 3), max_size=14),
    )
    def test_minimal_and_correct(self, a, b):
        raw = diff_units(a, b)
        assert replay_raw(a, b, raw) == b
        assert edit_weight(raw) == len(a) + len(b) - 2 * lcs_length(a, b)

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(0, 9), max_size=60),
        st.lists(st.integers(0, 9), max_size=60),
    )
    def test_minimal_on_larger_alphabets(self, a, b):
        raw = diff_units(a, b)
        assert replay_raw(a, b, raw) == b
        assert edit_weight(raw) == len(a) + len(b) - 2 * lcs_length(a, b)

    @settings(max_examples=150, deadline=None)
    @given(UNIT_PAIRS)
    def test_minimal_past_engine_thresholds(self, pair):
        # Lengths to 300, small, skewed and wide alphabets, no shared unit,
        # and a shared prefix and suffix only, at every threshold setting.
        a, b = pair
        cost = len(a) + len(b) - 2 * lcs_length(a, b)
        for leaf_bits in THRESHOLDS:
            with patch.object(diffgen, "_LEAF_BITS", leaf_bits):
                raw = diff_units(a, b)
            assert replay_raw(a, b, raw) == b
            assert edit_weight(raw) == cost

    def test_minimal_when_pieces_split(self):
        # Large enough that the shipped thresholds split the pair and
        # trace the leaves under the split.
        a, b = churned_lines(1800, 0.1, seed=11)
        shared = set(a) & set(b)
        kept_a = sum(u in shared for u in a)
        kept_b = sum(u in shared for u in b)
        assert kept_b * (kept_a + _ROW_HEADER_BITS) > _LEAF_BITS
        raw = diff_units(a, b)
        assert replay_raw(a, b, raw) == b
        assert edit_weight(raw) == len(a) + len(b) - 2 * lcs_length(a, b)

    def test_heavy_churn_memory_bound(self):
        # 20,000 lines, 30% repeated and 30% churned, where an O((N+M)·D)
        # search takes tens of seconds. The engine stays inside the memory
        # bound the other large-input tests use; no time is checked.
        a, b = churned_lines(20_000, 0.3, seed=12)
        tracemalloc.start()
        try:
            raw = diff_units(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert replay_raw(a, b, raw) == b
        assert peak < 16 * 2**20


def zeros_below(v, k):
    return k - (v & ((1 << k) - 1)).bit_count()


def split_oracle(fwd, rev, la):
    """(i, score) by recounting zero bits at every column, first maximum."""
    scores = [zeros_below(fwd, i) + zeros_below(rev, la - i) for i in range(la + 1)]
    best = max(scores)
    return scores.index(best), best


def bit_reversed(v, la):
    return int(format(v, f"0{la}b")[::-1], 2)


@st.composite
def _split_rows(draw):
    """(fwd, rev, la): random, empty, full and sparse rows, and rev rows
    that mirror fwd, whole or XORed with another row, so that columns tie."""
    la = draw(st.one_of(st.integers(1, 24), st.integers(1, 600)))
    full = (1 << la) - 1

    def row():
        return draw(
            st.one_of(
                st.integers(0, full),
                st.just(0),
                st.just(full),
                st.lists(st.integers(0, la - 1), max_size=6).map(
                    lambda xs: sum({1 << x for x in xs})
                ),
            )
        )

    fwd, other = row(), row()
    mirror = bit_reversed(fwd, la)
    rev = draw(st.sampled_from([other, mirror, mirror ^ other]))
    return fwd, rev, la


class TestSplit:
    """The Hirschberg split's column and score (:func:`diffgen._split`)."""

    @settings(max_examples=300)
    @given(_split_rows())
    def test_matches_recount(self, rows):
        assert _split(*rows) == split_oracle(*rows)

    def test_ties_take_the_first_column(self):
        # Every column scores the same when rev mirrors fwd.
        assert _split(0, 0, 9) == (0, 9)
        assert _split(0b101, 0b101, 3) == (0, 1)
        full = (1 << 13) - 1
        assert _split(full, full, 13) == (0, 0)
        # Columns 1 and 3 both score 2.
        assert _split(0b010, 0b101, 3) == (1, 2)


class TestLineDiff:
    def test_single_line_change(self):
        ops, segments = line_diff(b"a\nb\nc\n", b"a\nX\nc\n")
        assert ops == (
            EditOp("R", 1),
            EditOp("D", 1),
            EditOp("I", 1),
            EditOp("R", 1),
        )
        assert segments == (b"X\n",)

    def test_terminator_change_is_one_substitution(self):
        ops, segments = line_diff(b"a\nb", b"a\nb\n")
        assert ops == (EditOp("R", 1), EditOp("D", 1), EditOp("I", 1))
        assert segments == (b"b\n",)

    def test_identical_content(self):
        ops, segments = line_diff(b"x\ny\n", b"x\ny\n")
        assert ops == (EditOp("R", 2),)
        assert segments == ()

    def test_no_sizes_in_line_mode(self):
        # Line ops count lines, whatever the lines' byte lengths.
        ops, _ = line_diff(b"a\n", b"bbbbbbb\n")
        assert ops == (EditOp("D", 1), EditOp("I", 1))

    def test_segment_per_insert_run(self):
        ops, segments = line_diff(b"a\nz\n", b"a\np\nq\nz\n")
        assert [op.kind for op in ops] == ["R", "I", "R"]
        assert segments == (b"p\nq\n",)


class TestChunking:
    def test_empty(self):
        assert chunk_lengths(b"") == []
        assert chunkify(b"") == []

    def test_join_round_trip(self):
        blob = random.Random(0).randbytes(100_000)
        assert b"".join(chunkify(blob)) == blob

    def test_bounds(self):
        blob = random.Random(1).randbytes(200_000)
        lens = chunk_lengths(blob)
        assert all(l <= MAX_SIZE for l in lens)
        assert all(l >= MIN_SIZE for l in lens[:-1])
        assert lens[-1] >= 1

    def test_short_input_is_one_chunk(self):
        assert chunk_lengths(b"tiny") == [4]
        assert chunk_lengths(b"x" * 255) == [255]

    def test_deterministic(self):
        blob = random.Random(2).randbytes(50_000)
        assert chunk_lengths(blob) == chunk_lengths(blob)

    def test_low_entropy_hits_max_size(self):
        # Constant input never produces a boundary, so every cut is forced.
        lens = chunk_lengths(b"\x00" * 50_000)
        assert lens == [16384, 16384, 16384, 848]

    def test_prepend_shifts_only_first_chunk(self):
        blob = random.Random(3).randbytes(80_000)
        base = chunkify(blob)
        shifted = chunkify(b"\x9c" + blob)
        assert shifted[0] == b"\x9c" + base[0]
        assert shifted[1:] == base[1:]

    def test_boundaries_are_content_defined(self):
        # A window hash depends only on window content: moving the same
        # payload to a different stream offset keeps its internal cuts.
        payload = random.Random(4).randbytes(60_000)
        a = chunk_lengths(b"A" * 10_000 + payload)
        b = chunk_lengths(b"B" * 20_000 + payload)
        assert a[-3:] == b[-3:]

    def test_spec_validation(self):
        # The checks the chunker's constants must pass: the uint16 scan
        # needs MASK_BITS <= 16, and blocks that overlap by WINDOW - 1
        # bytes need the window to fit well inside one block.
        assert 1 <= WINDOW <= _BLOCK // 2
        assert 0 <= MASK_BITS <= 16
        assert 0 < MIN_SIZE <= MAX_SIZE


class TestChunkDiff:
    def test_sizes_on_every_op(self):
        # Chunk ops are byte spans. A flipped chunk is an X run: (LEB128
        # gap, XOR byte) pairs over the old bytes it consumes. Each insert
        # run is a raw deflate stream against the 32 KiB of old content
        # before the run's old offset.
        rng = random.Random(6)
        old = rng.randbytes(40_000)
        flipped = bytearray(old)
        flipped[30_000] ^= 0x81
        new = old[:10_000] + rng.randbytes(500) + bytes(flipped[10_000:])
        ops, segments = chunk_diff(old, new)
        assert {"I", "X"} <= {op.kind for op in ops}
        src = sum(op.count for op in ops if op.kind in ("R", "D", "X"))
        dst = sum(op.count for op in ops if op.kind in ("R", "I", "X"))
        assert src == len(old)
        assert dst == len(new)
        seg = iter(segments)
        rebuilt = []
        pos = 0
        for op in ops:
            if op.kind == "I":
                inflater = zlib.decompressobj(-15, zdict=old[max(0, pos - 32768) : pos])
                rebuilt.append(inflater.decompress(next(seg)))
                assert inflater.eof and len(rebuilt[-1]) == op.count
                continue
            if op.kind == "R":
                rebuilt.append(old[pos : pos + op.count])
            elif op.kind == "X":
                span = bytearray(old[pos : pos + op.count])
                data = iter(next(seg))
                at = 0
                for first in data:
                    gap, shift = first & 0x7F, 7
                    while first & 0x80:
                        first = next(data)
                        gap |= (first & 0x7F) << shift
                        shift += 7
                    at += gap
                    span[at] ^= next(data)
                    at += 1
                rebuilt.append(bytes(span))
            pos += op.count
        assert b"".join(rebuilt) == new

    def test_localized_edit_transfers_little(self):
        rng = random.Random(7)
        old = rng.randbytes(120_000)
        new = old[:50_000] + b"\xff" * 64 + old[50_064:]
        _, segments = chunk_diff(old, new)
        assert 0 < sum(len(s) for s in segments) <= 3 * MAX_SIZE

    def test_identical(self):
        blob = random.Random(8).randbytes(30_000)
        ops, segments = chunk_diff(blob, blob)
        assert segments == ()
        assert [op.kind for op in ops] == ["R"]


class TestCompareTrees:
    def test_identical_trees_empty_changeset(self):
        t = FileTree.from_dict("app", {"a/b.py": b"x = 1\n", "c.bin": b"\x00\x01"})
        cs = compare_trees(t, t)
        assert cs.changes == ()
        assert cs.source_digest == cs.target_digest == tree_digest(t)

    def test_digests_recorded(self):
        t1 = FileTree.from_dict("a", {"f": b"1"})
        t2 = FileTree.from_dict("a", {"f": b"2"})
        cs = compare_trees(t1, t2)
        assert cs.source_digest == tree_digest(t1)
        assert cs.target_digest == tree_digest(t2)

    def test_file_insert_carries_content(self):
        cs = compare_trees(
            FileTree.from_dict("a", {}), FileTree.from_dict("a", {"new.py": b"pass\n"})
        )
        (change,) = cs.changes
        assert change.kind is ChangeKind.FILE_INSERT
        assert change.segments == (b"pass\n",)

    def test_rename_is_delete_plus_insert(self):
        t1 = FileTree.from_dict("a", {"old.py": b"same\n"})
        t2 = FileTree.from_dict("a", {"new.py": b"same\n"})
        kinds = [(c.kind, c.path) for c in compare_trees(t1, t2).changes]
        assert kinds == [
            (ChangeKind.FILE_DELETE, "old.py"),
            (ChangeKind.FILE_INSERT, "new.py"),
        ]

    def test_text_files_get_line_patch(self):
        t1 = FileTree.from_dict("a", {"m.py": b"a\nb\n"})
        t2 = FileTree.from_dict("a", {"m.py": b"a\nc\n"})
        (change,) = compare_trees(t1, t2).changes
        assert change.kind is ChangeKind.TEXT_PATCH

    def test_binary_files_get_chunk_patch(self):
        t1 = FileTree.from_dict("a", {"m.bin": b"\x00" * 100})
        t2 = FileTree.from_dict("a", {"m.bin": b"\x00" * 99 + b"\x01"})
        (change,) = compare_trees(t1, t2).changes
        assert change.kind is ChangeKind.CHUNK_PATCH

    def test_text_to_binary_routes_to_chunk_patch(self):
        t1 = FileTree.from_dict("a", {"m": b"text\n"})
        t2 = FileTree.from_dict("a", {"m": b"\x00\x01\x02"})
        (change,) = compare_trees(t1, t2).changes
        assert change.kind is ChangeKind.CHUNK_PATCH

    def test_unchanged_files_skipped(self):
        t1 = FileTree.from_dict("a", {"same": b"x" * 10_000, "diff": b"1\n"})
        t2 = FileTree.from_dict("a", {"same": b"x" * 10_000, "diff": b"2\n"})
        assert [c.path for c in compare_trees(t1, t2).changes] == ["diff"]

    def test_kind_swap_order(self):
        t1 = FileTree.from_dict("a", {"p": b"was a file"})
        t2 = FileTree.from_dict("a", {"p/child.txt": b"now a dir"})
        kinds = [(c.kind, c.path) for c in compare_trees(t1, t2).changes]
        assert kinds == [
            (ChangeKind.FILE_DELETE, "p"),
            (ChangeKind.DIR_INSERT, "p"),
            (ChangeKind.FILE_INSERT, "p/child.txt"),
        ]

    def test_apply_order_groups(self):
        t1 = FileTree.from_dict("a", {"gone/deep/f.txt": b"1", "mod.py": b"a\n"})
        t2 = FileTree.from_dict("a", {"fresh/new.py": b"2", "mod.py": b"b\n"})
        kinds = [(c.kind, c.path) for c in compare_trees(t1, t2).changes]
        assert kinds == [
            (ChangeKind.FILE_DELETE, "gone/deep/f.txt"),
            (ChangeKind.DIR_DELETE, "gone/deep"),
            (ChangeKind.DIR_DELETE, "gone"),
            (ChangeKind.DIR_INSERT, "fresh"),
            (ChangeKind.FILE_INSERT, "fresh/new.py"),
            (ChangeKind.TEXT_PATCH, "mod.py"),
        ]

    def test_segment_bytes(self):
        cs = compare_trees(
            FileTree.from_dict("a", {}),
            FileTree.from_dict("a", {"f": b"12345"}),
        )
        assert cs.segment_bytes() == 5


class TestRetainedBytes:
    def test_text_patch(self):
        old = b"keep1\nchange me\nkeep2\n"
        new = b"keep1\nchanged\nkeep2\n"
        ops, segments = line_diff(old, new)
        change_kind = ChangeKind.TEXT_PATCH
        change = FileChange("f", change_kind, ops, segments)
        assert retained_bytes(change, new) == len(b"keep1\n") + len(b"keep2\n")

    def test_chunk_patch(self):
        rng = random.Random(9)
        old = rng.randbytes(30_000)
        new = bytearray(old[:20_000] + rng.randbytes(100) + old[20_000:])
        new[5_000] ^= 0x40
        ops, segments = chunk_diff(old, bytes(new))
        assert {"I", "X"} <= {op.kind for op in ops}
        change = FileChange("f", ChangeKind.CHUNK_PATCH, ops, segments)
        retained = retained_bytes(change, bytes(new))
        rebuilt = sum(op.count for op in ops if op.kind in ("I", "X"))
        assert retained + rebuilt == len(new)

    def test_full_replacement_retains_nothing(self):
        ops, segments = line_diff(b"a\n", b"zz\n")
        change = FileChange("f", ChangeKind.TEXT_PATCH, ops, segments)
        assert retained_bytes(change, b"zz\n") == 0
