"""Delta computation: line splitting, minimal edit scripts, chunking,
text/binary classification, tree compare.

Minimality is checked against an independent quadratic LCS DP; replay
correctness against a simple two-pointer interpreter written here, not
against the package's own apply path.
"""

import random
import tracemalloc
import zlib
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from operator import ne
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from satpatch import diffgen
from satpatch.diffgen import (
    MASK_BITS,
    MAX_SIZE,
    MIN_SIZE,
    WINDOW,
    _BLOCK,
    _LEAF_BITS,
    _PATCH_SHARE,
    _ROW_HEADER_BITS,
    _split,
    chunk_diff,
    chunk_lengths,
    chunkify,
    classify_textual,
    compare_trees,
    diff_units,
    line_diff,
    retained_bytes,
)
from satpatch.fstree import FileTree, tree_digest
from satpatch.linksim import modification_ratio
from satpatch.package import (
    ChangeKind,
    EditOp,
    FileChange,
    encode_package,
    split_lines,
)
from test_pinned_outputs import per_pair_chunk_diff


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


def replay_chunk_ops(old, ops, segments):
    """Replay a chunk script by the wire format's definition: an insert
    run inflates against the 32 KiB of old content before its old offset,
    and an X run applies its (LEB128 gap, XOR byte) pairs to the old bytes
    it consumes."""
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
    assert pos == len(old) and next(seg, None) is None
    return b"".join(rebuilt)


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
        assert replay_chunk_ops(old, ops, segments) == new

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


class TestPatchDecision:
    """In the unaligned middle, chunk_diff patches a same-length pair when
    at most a sixteenth of its bytes change, and sends a delete and an
    insert run otherwise."""

    def flipped(self, offsets, extra=0):
        # L // 16 + extra flips in one middle chunk of L bytes (L % 16 < 8,
        # so an eighth of L is exactly two bytes per sixteenth), placed one
        # at a time at ``offsets`` of L; a flip that would move a chunk
        # boundary is undone, so the script pairs exactly that chunk. A
        # 64-byte insert two chunks before and a 64-byte delete two chunks
        # after stop both alignments, so the pair lies in the chunked middle.
        rng = random.Random(29)
        old = rng.randbytes(60_000)
        lengths = chunk_lengths(old)
        k = next(k for k, n in enumerate(lengths[1:-1], 1) if n >= 2048 and n % 16 < 8)
        start, span = sum(lengths[:k]), lengths[k]
        want = span // 16 + extra
        new = bytearray(old)
        kept = []
        for off in offsets(span):
            if len(kept) == want:
                break
            new[start + off] ^= rng.randrange(1, 256)
            if chunk_lengths(bytes(new)) == lengths:
                kept.append(off)
            else:
                new[start + off] = old[start + off]
        assert len(kept) == want
        after = sum(lengths[: k + 2]) + 100
        del new[after : after + 64]
        before = sum(lengths[: k - 2]) + 100
        new[before:before] = rng.randbytes(64)
        ops, segments = chunk_diff(old, bytes(new))
        assert replay_chunk_ops(old, ops, segments) == new
        return span, kept, ops, segments

    @staticmethod
    def every_fourth(span):
        return range(0, span, 4)

    def test_a_sixteenth_changed_is_patched(self):
        span, _, ops, segments = self.flipped(self.every_fourth)
        assert [op.kind for op in ops] == ["R", "D", "I", "R", "X", "R", "D", "I", "R"]
        assert ops[4].count == span
        # every gap fits one LEB128 byte: two bytes per changed byte
        assert len(segments[1]) == 2 * (span // 16)

    def test_one_byte_more_is_a_delete_and_an_insert_run(self):
        span, _, ops, _ = self.flipped(self.every_fourth, extra=1)
        assert [op.kind for op in ops] == ["R", "D", "I", "R", "D", "I", "R", "D", "I", "R"]
        assert ops[4].count == ops[5].count == span

    def test_a_long_gap_does_not_change_the_decision(self):
        # A gap of 128 bytes or more takes two LEB128 bytes, so the record
        # is one byte longer than an eighth of the span; the count of
        # changed bytes alone decides, and the pair is still patched.
        def with_a_hole(span):
            return [off for off in range(0, span, 4) if not 100 < off < 300]

        span, kept, ops, segments = self.flipped(with_a_hole)
        gaps = [b - a - 1 for a, b in zip(kept, kept[1:])]
        assert sum(gap >= 128 for gap in [kept[0]] + gaps) == 1
        assert [op.kind for op in ops] == ["R", "D", "I", "R", "X", "R", "D", "I", "R"]
        assert len(segments[1]) == 2 * (span // 16) + 1 > span // 8


def sparse_bytes(rng, size, share):
    """``size`` bytes, each nonzero with probability ``share``: content in
    which a shifted compare changes few bytes."""
    return bytes(rng.randrange(1, 256) if rng.random() < share else 0 for _ in range(size))


@st.composite
def aligned_edits(draw):
    """A random or a mostly zero file and a copy with flips, runs of
    flips, inserts, deletes and dense rewrites, each placed anywhere or
    within a byte of either end or of a 1 KiB block edge counted from
    either end."""
    rng = draw(st.randoms(use_true_random=False))
    size = draw(st.sampled_from([0, 1, 7, 1023, 1024, 1025, 3000, 5 * 1024 + 3, 70_000]))
    share = draw(st.sampled_from([1, 1 / 50]))
    old = rng.randbytes(size) if share == 1 else sparse_bytes(rng, size, share)
    new = bytearray(old)
    for _ in range(draw(st.integers(1, 6))):
        n = len(new)
        edges = [0, n] + [e for k in range(1, n // 1024 + 1) for e in (k * 1024, n - k * 1024)]
        near = st.tuples(st.sampled_from(edges), st.integers(-1, 1)).map(sum)
        at = min(max(draw(st.one_of(st.integers(0, n), near)), 0), n)
        kind = draw(st.sampled_from(["flip", "flips", "insert", "delete", "rewrite"]))
        length = draw(st.one_of(st.integers(1, 8), st.integers(1, 1500)))
        if kind == "insert":
            new[at:at] = rng.randbytes(length)
        elif kind == "delete":
            del new[at : at + length]
        elif kind == "rewrite":
            new[at : at + length] = rng.randbytes(len(new[at : at + length]))
        else:
            stop = min(n, at + (length if kind == "flips" else 1))
            for p in rng.sample(range(at, stop), min(stop - at, draw(st.integers(1, 120)))):
                new[p] ^= rng.randrange(1, 256)
    return old, bytes(new)


def package_of(old, new, ops, segments):
    """The package of a one-file update coded by ``ops`` and ``segments``."""
    changeset = compare_trees(FileTree.from_dict("a", {"f": old}), FileTree.from_dict("b", {"f": new}))
    (change,) = changeset.changes
    return encode_package(replace(changeset, changes=(FileChange(change.path, change.kind, ops, segments),)))


class TestAlignFirst:
    """chunk_diff codes the aligned head and tail of a changed binary as
    one run each and chunks only the middle between them."""

    @settings(max_examples=200, deadline=None)
    @given(aligned_edits())
    def test_round_trip_and_x_run_bounds(self, pair):
        old, new = pair
        ops, segments = chunk_diff(old, new)
        assert replay_chunk_ops(old, ops, segments) == new
        kinds = "".join(op.kind for op in ops)
        assert "XRX" not in kinds and "RR" not in kinds and "XX" not in kinds
        at = new_at = 0
        for op in ops:
            if op.kind == "X":
                changed = sum(map(ne, old[at : at + op.count], new[new_at : new_at + op.count]))
                assert 0 < changed <= op.count // _PATCH_SHARE
            at += op.count * (op.kind != "I")
            new_at += op.count * (op.kind != "D")

    def test_flips_in_a_same_length_file_are_one_x_run(self):
        old = random.Random(30).randbytes(200_000)
        new = bytearray(old)
        for p in (0, 1023, 1024, 70_000, 150_000, 199_999):
            new[p] ^= 0x41
        ops, segments = chunk_diff(old, bytes(new))
        assert ops == (EditOp("X", 200_000),)
        assert replay_chunk_ops(old, ops, segments) == new

    def test_an_insert_is_found_to_the_byte(self):
        rng = random.Random(31)
        old = rng.randbytes(300_000)
        new = bytearray(old)
        for p in (0, 5000, 150_000, 299_999):
            new[p] ^= 0x41
        inserted = bytearray(new)
        inserted[100_003:100_003] = rng.randbytes(256)
        ops, segments = chunk_diff(old, bytes(inserted))
        assert ops == (EditOp("X", 100_003), EditOp("I", 256), EditOp("X", 199_997))
        assert replay_chunk_ops(old, ops, segments) == inserted
        del new[100_003:100_259]
        ops, segments = chunk_diff(old, bytes(new))
        assert ops == (EditOp("X", 100_003), EditOp("D", 256), EditOp("X", 199_741))
        assert replay_chunk_ops(old, ops, segments) == new

    def test_an_insert_or_delete_in_mostly_zero_content_is_found(self):
        # One byte in 50 is nonzero, so a compare shifted by the edit
        # changes about 4% of the bytes, fewer than a sixteenth: only the
        # compare aligned at the other end, which changes none, stops the
        # head. Then the edit is one I or D op, placed where it or an
        # equal run of zero bytes lies, and the package is smaller than
        # the chunk-first one.
        rng = random.Random(34)
        old = sparse_bytes(rng, 1 << 20, 1 / 50)
        edits = ((0, b"\x07", 0), (300_001, rng.randbytes(256), 0), (5, b"", 300), (700_000, b"", 300))
        for at, inserted, deleted in edits:
            new = old[:at] + inserted + old[at + deleted :]
            ops, segments = chunk_diff(old, new)
            middle = EditOp("I", len(inserted)) if inserted else EditOp("D", deleted)
            start = ops[0].count if ops[0].kind == "R" else 0
            assert [op.kind for op in ops] == ["R"] * (start > 0) + [middle.kind, "R"]
            assert ops[-2] == middle and at <= start < at + 200
            assert replay_chunk_ops(old, ops, segments) == new
            chunk_first = per_pair_chunk_diff(old, new)
            assert len(package_of(old, new, ops, segments)) < len(package_of(old, new, *chunk_first))

    def test_the_tail_stops_where_the_start_aligned_compare_is_better(self):
        # A dense rewrite stops the head in mostly zero content. The tail
        # runs back from the end to a 3-byte insert after it, past which
        # its shifted compare still changes under a sixteenth of each
        # window but the start-aligned compare changes fewer bytes. The
        # bytes between the rewrite and the insert are chunked, not coded
        # shifted.
        rng = random.Random(35)
        old = sparse_bytes(rng, 1 << 20, 1 / 50)
        new = old[:200_000] + rng.randbytes(2000) + old[202_000:600_000] + rng.randbytes(3) + old[600_000:]
        ops, segments = chunk_diff(old, new)
        assert "X" not in [op.kind for op in ops] and ops[-1] == EditOp("R", len(old) - 600_000)
        assert replay_chunk_ops(old, ops, segments) == new
        chunk_first = per_pair_chunk_diff(old, new)
        assert len(package_of(old, new, ops, segments)) < len(package_of(old, new, *chunk_first))

    def test_patched_pairs_in_the_middle_join_one_x_run(self):
        # One flip in each of chunks k and k + 2 makes two patched pairs in
        # a middle that a 64-byte insert two chunks before and a 64-byte
        # delete two chunks after leave unaligned; the retained chunk
        # between them joins one X run over all three.
        rng = random.Random(33)
        old = rng.randbytes(60_000)
        lengths = chunk_lengths(old)
        edges = list(accumulate(lengths, initial=0))
        k = len(lengths) // 2
        new = bytearray(old)
        for j in (k, k + 2):
            new[edges[j] + lengths[j] // 2] ^= 0x41
        assert chunk_lengths(bytes(new)) == lengths
        del new[edges[k + 4] + 100 : edges[k + 4] + 164]
        new[edges[k - 2] + 100 : edges[k - 2] + 100] = rng.randbytes(64)
        ops, segments = chunk_diff(old, bytes(new))
        assert [op.kind for op in ops] == ["R", "D", "I", "R", "X", "R", "D", "I", "R"]
        assert ops[4].count == edges[k + 3] - edges[k]
        assert replay_chunk_ops(old, ops, segments) == new

    def test_a_dense_window_stops_the_head(self):
        # 65 changed bytes in one 1 KiB window are more than a sixteenth of
        # it: the head stops before them and the tail after them, and the
        # middle between is chunked. 64 do not stop it.
        old = random.Random(32).randbytes(100_000)
        for count, kinds in ((64, ["X"]), (65, ["R", "D", "I", "R"])):
            new = bytearray(old)
            for p in range(40_960, 40_960 + 2 * count, 2):
                new[p] ^= 0x41
            ops, segments = chunk_diff(old, bytes(new))
            assert [op.kind for op in ops] == kinds
            assert replay_chunk_ops(old, ops, segments) == new


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


class TestRetainedBytes:
    def test_text_patch(self):
        old = b"keep1\nchange me\nkeep2\n"
        new = b"keep1\nchanged\nkeep2\n"
        assert retained_bytes(old, new) == len(b"keep1\n") + len(b"keep2\n")

    def test_chunk_patch(self):
        # The ratio is read off the whole-file chunk script, not off
        # chunk_diff's aligned runs: the chunk holding the flip and the
        # chunk the insert lands in are not retained, every other is.
        rng = random.Random(9)
        old = rng.randbytes(30_000)
        new = bytearray(old[:20_000] + rng.randbytes(100) + old[20_000:])
        new[5_000] ^= 0x40
        ops, _ = chunk_diff(old, bytes(new))
        assert {"I", "X"} <= {op.kind for op in ops}
        edges = list(accumulate(chunk_lengths(bytes(new)), initial=0))
        assert chunk_lengths(old)[-3:] == chunk_lengths(bytes(new))[-3:]
        hit = [
            b - a for a, b in zip(edges, edges[1:]) if a <= 5_000 < b or a < 20_100 and b > 20_000
        ]
        assert len(hit) == 2
        assert retained_bytes(old, bytes(new)) == len(new) - sum(hit)

    def test_retained_chunks_inside_an_x_run_still_count(self):
        # Five flips in four chunks of a same-length file make one X run
        # over the whole file; the ratio is the one the per-pair coding
        # gave, where each retained chunk was an R op.
        blob = random.Random(5).randbytes(200_000)
        new = bytearray(blob)
        for p in (10_000, 30_000, 50_000, 120_000, 121_000):
            new[p] ^= 0x5A
        ops, _ = chunk_diff(blob, bytes(new))
        assert [op.kind for op in ops] == ["X"]
        report = modification_ratio(
            FileTree.from_dict("a", {"m.bin": blob}),
            FileTree.from_dict("a", {"m.bin": bytes(new)}),
        )
        assert report.s_preserved_bytes == 178_473
        assert report.ratio == Fraction(21_527, 200_000)

    @settings(max_examples=200, deadline=None)
    @given(_pairs(st.sampled_from(STOCK_LINES[:6] + [b"x", b"y\n"])))
    def test_text_pairs_count_the_lines_r_ops_keep(self, pair):
        old, new = (b"".join(side) for side in pair)
        new_lines = split_lines(new)
        ops, _ = line_diff(old, new)
        kept = j = 0
        for op in ops:
            if op.kind == "R":
                kept += sum(map(len, new_lines[j : j + op.count]))
            if op.kind in "RI":
                j += op.count
        assert retained_bytes(old, new) == kept

    def test_full_replacement_retains_nothing(self):
        assert retained_bytes(b"a\n", b"zz\n") == 0
