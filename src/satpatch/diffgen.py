"""Ground-side search: the delta between two application trees.

This module holds the search only: :mod:`satpatch.package` defines the
change set it finds, with its op units and delta-run codec. A changed
file is textual when both of its versions classify as textual
(:func:`classify_textual`: no NUL byte and valid UTF-8 in the first
``TEXT_SCAN_LIMIT`` bytes), and binary otherwise; only the ground
classifies. Each kind has its own script builder: :func:`line_diff` cuts
a textual file into lines and its ops count lines, and :func:`chunk_diff`
aligns a binary file and cuts what does not align into content-defined
chunks, and its ops count bytes. Both read their script, of the lines or
of the unaligned chunks, off one exact engine, so every such script
deletes and inserts the minimal number of units (:func:`diff_units`):

1. units are interned, and units found on one side only are dropped,
   because no common subsequence can hold them;
2. the common prefix and suffix of each piece are retained as they are;
3. a bit-parallel longest common subsequence, with Python ints as bit
   vectors (Allison and Dix 1986; Hyyrö 2004), finds the matched pairs:
   a piece too large to keep its rows is split at the middle of the new
   sequence where a forward and a reverse row meet (Hirschberg 1975),
   and a small piece is traced back from its stored rows;
4. the canonical script is read straight off the matched pairs.

For N old and M new units this costs O(N·M/64) word operations (CPython
computes in 30-bit digits) in O(N + M) space, plus one N-bit mask per
repeated old unit and at most ``_LEAF_BITS`` of stored rows.

A changed binary file is aligned before anything is chunked
(:func:`chunk_diff`). Its head lines the two versions up from their
start and its tail from their end, and each runs as far as they line up
(:func:`_stretch`): their XOR is searched through uint64 views in
``_SAME_BLOCK`` windows until a window changes in more than a
1/``_PATCH_SHARE`` of its bytes, and the stretch ends at the byte that
maximizes its length less ``_PATCH_SHARE`` times its changed bytes. That
rule assumes misaligned bytes XOR densely, as high-entropy content does.
When the lengths differ, a window also stops the search if the compare
aligned at the other end changes fewer of its bytes, so a single insert
or delete in mostly zero or repetitive content is found too; edits there
that keep the length can still be coded shifted between them. A
stretch that holds a changed byte is one X run, coded by
:func:`satpatch.package.patch_encode` from the offsets and XOR bytes of
its changed bytes, and an unchanged one is an R op. So flipped bytes in
a same-length file make one X run, and an insert or a delete between
flips is found to the byte, as rsync and bsdiff look for alignment
before anything else.

Only the middle between head and tail is cut into content-defined
chunks. A chunk ends where the rolling hash of the ``WINDOW`` bytes
ending there has its low ``MASK_BITS`` bits zero (LBFS), at least
``MIN_SIZE`` and at most ``MAX_SIZE`` bytes apart; no package carries
these constants, as the receiver never chunks. The boundary scan
(:func:`_boundary_candidates`) sums each window's hash terms by doubling,
with shifted vector adds in 16-bit arithmetic over 64 KiB blocks, and
finds the same boundaries as a 64-bit rolling hash. Both versions are
cut by one helper (:func:`_chunk_pair`), which scans the old version in
full and reuses its candidates for the new one
(:func:`_derived_candidates`): the two are compared in ``_SAME_BLOCK``
blocks laid from their start and, when their lengths differ, from their
end, and a window inside a run of equal blocks is a candidate iff the
old window it equals is. That is exact, as a candidate depends only on
its window's bytes; every other window is scanned. Chunk boundaries only
steer the search: a chunk script's ops count bytes. In the middle, a
delete directly followed by an insert of the same byte length (a pair)
is patched when at most 1/``_PATCH_SHARE`` of its bytes change, counted
in the XOR of the two spans, and every other insert run is delta-coded
with :func:`satpatch.package.delta_encode` at its offset in the whole
old file. X runs that only R ops separate join one run, which spans the
retained bytes too, as bsdiff's add block spans an aligned region. No
run is coded just to compare sizes. The modification ratio is read off
the unit script of the whole files (:func:`retained_bytes`), where a
retained chunk is still one.

Only the chunk diff computes on numpy arrays: the alignment's XOR, the
boundary scan, the block compare and each pair's XOR; the line diff and
the Hirschberg split use the standard library. numpy is loaded by the
first binary diff a process runs, so neither a text-only diff nor the
onboard modules that import this one ever load it.
"""

from __future__ import annotations

import bisect
import codecs
import functools
import hashlib
from itertools import accumulate, compress
from operator import sub
from typing import Iterator, Sequence

from .fstree import FileTree, tree_digest
from .package import (
    DELETE,
    INSERT,
    PATCH,
    RETAIN,
    ChangeKind,
    ChangeSet,
    EditOp,
    FileChange,
    delta_encode,
    patch_encode,
    split_lines,
)


# Fixed design constants, as in LBFS, which uses the same 48-byte window.
# Only the ground chunks, so no package carries them.
WINDOW = 48
MASK_BITS = 11
MIN_SIZE = 256
MAX_SIZE = 16384

# Rolling-hash tables. A window's hash is sum(w64[b_j] * mult**j) mod 2**64
# over its bytes, newest first (j = 0), with 64-bit byte weights drawn from
# SHA-256 so every input byte disturbs every hash bit. A boundary needs only
# the low ``MASK_BITS <= 16`` bits of that hash to be zero, and the low 16
# bits of a uint64 sum or product depend only on the low 16 bits of its
# operands, so the chunker computes in uint16 with the weights' low 16 bits.
_HASH_MULT = 1000000007
#: Bytes hashed per pass of the chunker; consecutive blocks share
#: ``WINDOW - 1`` bytes. Its block-sized uint16 sums fit in L2 cache.
_BLOCK = 1 << 16


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """(byte weights, mult**-k mod 2**16 for k < ``_BLOCK``), read-only.

    Built, and numpy loaded, on first use: a process that never chunks
    (the onboard apply) never holds either table or numpy.
    """
    import numpy as np

    weights = np.array(
        [
            int.from_bytes(hashlib.sha256(bytes([v])).digest()[6:8], "big")
            for v in range(256)
        ],
        dtype=np.uint16,
    )
    inv_pows = np.full(_BLOCK, pow(_HASH_MULT, -1, 2**16), dtype=np.uint16)
    inv_pows[0] = 1
    np.cumprod(inv_pows, dtype=np.uint16, out=inv_pows)
    weights.flags.writeable = inv_pows.flags.writeable = False
    return weights, inv_pows


def _block_hits(block: np.ndarray) -> np.ndarray:
    """Offsets into ``block`` (uint8 bytes) where a full hash window ends
    with the masked bits zero; see :func:`_boundary_candidates`."""
    import numpy as np

    weights, inv_pows = _tables()
    run = np.take(weights, block) * inv_pows[: block.size]
    # run holds the sums of ``span`` consecutive terms, acc the sums of
    # ``covered`` terms: the set bits of WINDOW below ``span``
    acc = None
    span, covered = 1, 0
    while True:
        if WINDOW & span:
            part = run[covered:]
            acc = part if acc is None else acc[: part.size] + part
            covered += span
        if covered == WINDOW:
            break
        run = run[:-span] + run[span:]
        span *= 2
    return np.flatnonzero((acc & np.uint16((1 << MASK_BITS) - 1)) == 0) + (WINDOW - 1)


def _blocks(ends: Sequence[tuple[int, int]]) -> Iterator[list[tuple[int, int]]]:
    """The byte ranges each block of a scan hashes, at most ``_BLOCK``
    bytes a block.

    ``ends`` lists ranges [first, stop) of window ends, in order. A range
    contributes its bytes from ``first - (WINDOW - 1)`` on; a range that
    does not fit continues in the next block ``WINDOW - 1`` bytes before
    where it stopped, as consecutive blocks of one file overlap, and a
    block holds short ranges until it is full.
    """
    block: list[tuple[int, int]] = []
    room = _BLOCK
    for first, stop in ends:
        start = first - (WINDOW - 1)
        while start < stop - (WINDOW - 1):
            if room < WINDOW:
                yield block
                block, room = [], _BLOCK
            end = min(stop, start + room)
            block.append((start, end))
            room -= end - start
            start = end - (WINDOW - 1)
    if block:
        yield block


def _scan(view: np.ndarray, ends: Sequence[tuple[int, int]]) -> np.ndarray:
    """Candidates among the windows of ``view`` that end in the ranges
    ``ends`` (see :func:`_blocks`), in order.

    A block of one range is hashed in place. The ranges of a block that
    holds several are gathered into one buffer of at most ``_BLOCK``
    bytes, and only windows that lie inside one range count; so no range
    is copied whole, and memory is a block's whatever the ranges.
    """
    import numpy as np

    found = [np.empty(0, dtype=np.int64)]
    for block in _blocks(ends):
        parts = [view[start:end] for start, end in block]
        hits = _block_hits(parts[0] if len(parts) == 1 else np.concatenate(parts))
        # the range each window ends in, and the offset it ends at there
        at = np.cumsum([0] + [part.size for part in parts[:-1]])
        which = np.searchsorted(at, hits, "right") - 1
        hits -= at[which]
        inside = hits >= WINDOW - 1
        found.append(hits[inside] + np.array([start for start, _ in block])[which[inside]])
    return np.concatenate(found)


def _boundary_candidates(data: bytes) -> np.ndarray:
    """Positions where a full hash window ends with the masked bits zero.

    The window ending at ``pos`` hashes to
    H(pos) = sum(w64[data[pos-j]] * mult**j for j < WINDOW) mod 2**64, a
    pure function of window content, so candidates are stable under
    shifts of the surrounding data. Three facts let the test run on small
    blocks in 16-bit arithmetic without moving any candidate:

    1. ``MASK_BITS <= 16``, and the low 16 bits of uint64 sums and
       products depend only on the low 16 bits of the operands, so every
       step runs in uint16 with the weights' low 16 bits.
    2. With terms t(k) = w64[data[k]] * mult**-k, H(pos) = mult**pos *
       sum(t(k) for pos - WINDOW < k <= pos). ``mult`` is odd, so
       mult**pos is a unit mod 2**64 and the low ``MASK_BITS`` bits of
       H(pos) are zero iff those of the windowed sum are: no final
       multiply. The windowed sum is built by doubling, not from a
       sequential prefix sum: sums of 2, 4, 8, ... consecutive terms are
       each one shifted vector add of the previous, and the sums whose
       lengths are the set bits of ``WINDOW`` add up to the window
       (48 = 16 + 32).
    3. Terms restarted at a block start ``s``, t(k) * mult**s, scale every
       window sum inside the block by mult**s, another odd factor. Each
       block thus decides every window that lies inside it, 64 KiB blocks
       that overlap by ``WINDOW - 1`` bytes decide every window once, and
       one table of inverse powers serves every block.

    Memory is a block's temporaries, freed as each step replaces them:
    the block of intp indices that ``np.take`` casts the bytes to, at most
    three block-sized uint16 sums, a block of flags, and the result.
    """
    import numpy as np

    return _scan(np.frombuffer(data, dtype=np.uint8), [(WINDOW - 1, len(data))])


#: Bytes per block in which :func:`_derived_candidates` compares a new
#: file with the old one, and per window in which :func:`_stretch` counts
#: changed bytes; a fixed design constant. On the binary-flips chains,
#: 256 bytes to 1 KiB derive the new side in about the same time (within
#: 8%), while 2 and 4 KiB take 20% and 60% longer, as each flip then
#: leaves a larger block to scan.
_SAME_BLOCK = 1 << 10


def _equal_windows(old: np.ndarray, new: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """(firsts, stops): the ranges of window ends ``p`` of ``new`` whose
    windows lie in a run of ``_SAME_BLOCK``-byte blocks equal to the old
    bytes ``shift`` further on, so new[p - WINDOW + 1 : p + 1] ==
    old[p + shift - WINDOW + 1 : p + shift + 1].

    The blocks tile the bytes the two sides share at this shift, laid from
    its start when ``shift`` is 0 and from its end otherwise; a partial
    block is left out. ``_BLOCK`` bytes are compared at a time, so the
    flags stay small.
    """
    import numpy as np

    lo = max(0, -shift)
    hi = min(new.size, old.size - shift)
    count = (hi - lo) // _SAME_BLOCK
    at = lo if shift == 0 else hi - count * _SAME_BLOCK
    a = new[at : at + count * _SAME_BLOCK].reshape(count, _SAME_BLOCK)
    b = old[at + shift : at + shift + count * _SAME_BLOCK].reshape(count, _SAME_BLOCK)
    # equal blocks, with an unequal one before and after
    padded = np.zeros(count + 2, dtype=np.int8)
    same = padded[1:-1]
    step = _BLOCK // _SAME_BLOCK
    for k in range(0, count, step):
        same[k : k + step] = (a[k : k + step] == b[k : k + step]).all(axis=1)
    edges = np.diff(padded)
    firsts = np.flatnonzero(edges == 1) * _SAME_BLOCK + (at + WINDOW - 1)
    stops = np.flatnonzero(edges == -1) * _SAME_BLOCK + at
    return firsts, stops


def _derived_candidates(old: bytes, new: bytes, old_cands: np.ndarray) -> np.ndarray:
    """The boundary candidates of ``new``, given those of ``old``.

    A candidate depends only on the ``WINDOW`` bytes of its window, so a
    window of ``new`` whose bytes equal the old bytes at some shift is a
    candidate iff that old window is. :func:`_equal_windows` finds such
    windows at shift 0 and, when the lengths differ, at the shift that
    aligns the two ends; where both apply, the first range found wins.
    Their candidates are the old ones, shifted back, and every other
    window is scanned (:func:`_scan`), so the result is exactly
    ``_boundary_candidates(new)``.
    """
    import numpy as np

    old_view = np.frombuffer(old, dtype=np.uint8)
    new_view = np.frombuffer(new, dtype=np.uint8)
    shifts = [0] if len(old) == len(new) else [0, len(old) - len(new)]
    ranges = [_equal_windows(old_view, new_view, shift) for shift in shifts]
    firsts = np.concatenate([f for f, _ in ranges])
    stops = np.concatenate([s for _, s in ranges])
    offsets = np.concatenate([np.full(f.size, shift) for (f, _), shift in zip(ranges, shifts)])
    order = np.argsort(firsts, kind="stable")
    firsts, stops, offsets = firsts[order], stops[order], offsets[order]
    # trim each range to the window ends that no earlier range covers
    reached = np.maximum.accumulate(np.concatenate(([WINDOW - 1], stops)))
    firsts = np.maximum(firsts, reached[:-1])
    gaps = [(a, b) for a, b in zip(reached[:-1].tolist(), firsts.tolist()) if a < b]
    if reached[-1] < len(new):
        gaps.append((int(reached[-1]), len(new)))
    found = [_scan(new_view, gaps)]
    kept = firsts < stops
    firsts, stops, offsets = firsts[kept], stops[kept], offsets[kept]
    if firsts.size:
        for shift in shifts:
            # old candidates, in new offsets, inside a range of this shift
            ends = old_cands - shift
            at = np.searchsorted(firsts, ends, "right") - 1
            found.append(ends[(at >= 0) & (ends < stops[at]) & (offsets[at] == shift)])
    return np.sort(np.concatenate(found))


def chunk_lengths(data: bytes, cands: np.ndarray | None = None) -> list[int]:
    """Byte lengths of the content-defined chunks of ``data``, in order.
    ``cands`` are its boundary candidates, scanned when not given."""
    if cands is None:
        cands = _boundary_candidates(data)
    n = len(data)
    cands = cands.tolist()
    lengths = []
    start = i = 0
    while start < n:
        hi = min(start + MAX_SIZE, n) - 1
        lo = start + MIN_SIZE - 1
        end = hi
        if lo < hi:
            # lo only grows, so the previous answer bounds the search
            i = bisect.bisect_left(cands, lo, i)
            if i < len(cands) and cands[i] < hi:
                end = cands[i]
        lengths.append(end - start + 1)
        start = end + 1
    return lengths


def chunkify(data: bytes, cands: np.ndarray | None = None) -> list[bytes]:
    """Split ``data`` into content-defined chunks; b"".join(...) round-trips.
    ``cands`` are as for :func:`chunk_lengths`."""
    chunks = []
    start = 0
    for length in chunk_lengths(data, cands):
        chunks.append(data[start : start + length])
        start += length
    return chunks


def _chunk_pair(old: bytes, new: bytes) -> tuple[list[bytes], list[bytes]]:
    """The chunks of both versions of a changed binary file: ``old`` is
    scanned in full, and ``new`` reuses its candidates wherever its bytes
    are unchanged (:func:`_derived_candidates`)."""
    old_cands = _boundary_candidates(old)
    return chunkify(old, old_cands), chunkify(new, _derived_candidates(old, new, old_cands))


# -- shortest edit script ----------------------------------------------------

#: Bits of stored rows a piece may take to be traced back directly; a
#: larger piece is split first. A stored row costs its bits plus about
#: ``_ROW_HEADER_BITS`` of int header and list slot.
_LEAF_BITS = 1 << 21
_ROW_HEADER_BITS = 256


class _MatchMasks:
    """Where each unit of the old sequence occurs.

    Units are dense ids. ``pos[u]`` is the position of a unit that occurs
    once, whose one-bit mask is made when a row needs it: a mask per unit
    would hold O(N·σ) bits for σ distinct units. A repeated unit has
    ``pos[u] == -1`` and one mask over the whole sequence, forward and
    bit-reversed, from which a piece cuts its own.
    """

    __slots__ = ("n", "pos", "fwd", "rev")

    def __init__(self, units: list[int]):
        n = self.n = len(units)
        pos = self.pos = [-1] * (max(units, default=-1) + 1)
        repeated: dict[int, list[int]] = {}
        for p, u in enumerate(units):
            if u in repeated:
                repeated[u].append(p)
            elif pos[u] >= 0:
                repeated[u] = [pos[u], p]
                pos[u] = -1
            else:
                pos[u] = p
        self.fwd = {}
        self.rev = {}
        nbytes = (n + 7) // 8
        for u, ps in repeated.items():
            fwd = bytearray(nbytes)
            rev = bytearray(nbytes)
            for p in ps:
                fwd[p >> 3] |= 1 << (p & 7)
                q = n - 1 - p
                rev[q >> 3] |= 1 << (q & 7)
            self.fwd[u] = int.from_bytes(fwd, "little")
            self.rev[u] = int.from_bytes(rev, "little")


def _row(masks, a0, a1, units, reverse=False, rows=None, local=None):
    """Bit-parallel LCS row of old[a0:a1] (reversed if ``reverse``)
    against ``units`` (Allison and Dix 1986; Hyyrö 2004).

    Bit x of the row is 0 where old position x adds one to the LCS of the
    prefix through x, so zeros below x count LCS(old[:x], units). Each
    unit ``u`` updates the row as ``t = v & match[u]``,
    ``v = (v + t) | (v ^ t)``; ``v ^ t`` is ``v - t`` because ``t`` is a
    subset of ``v``. Returns the last row as ``a1 - a0`` bits, and appends
    every row, first the initial one, to ``rows`` when given. ``local``
    caches the piece's masks of repeated units.
    """
    la = a1 - a0
    full = v = (1 << la) - 1
    pos = masks.pos
    if reverse:
        glob, shift, sign, base = masks.rev, masks.n - a1, -1, a1 - 1
    else:
        glob, shift, sign, base = masks.fwd, a0, 1, a0
    if local is None:
        local = {}
    if rows is not None:
        rows.append(v)
    for u in units:
        p = pos[u]
        if p >= 0:
            q = sign * (p - base)
            t = v & (1 << q) if 0 <= q < la else 0
        else:
            m = local.get(u)
            if m is None:
                m = local[u] = glob.get(u, 0) >> shift & full
            t = v & m
        if t:
            v = (v + t) | (v ^ t)
            if v > full:
                v &= full
        if rows is not None:
            rows.append(v)
    return v


#: Maps the digits of ``format(v, "b")`` to the bits they stand for.
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _split(fwd: int, rev: int, la: int) -> tuple[int, int]:
    """(i, score) of the first old length i with the largest
    score(i) = zeros of ``fwd`` below bit i + zeros of ``rev`` below bit
    la - i, for 0 <= i <= la: the LCS lengths of the two halves of a
    Hirschberg split through old position i.

    Read ``rev`` most significant bit first, as r'; then score(i) =
    la - ones(rev) - sum(f[x] - r'[x] for x < i), so i is the first
    minimum of those prefix sums. The bits are summed by C-level calls,
    with no per-bit Python loop.
    """
    f = format(fwd, f"0{la}b").encode()[::-1].translate(_BIT_VALUES)
    r = format(rev, f"0{la}b").encode().translate(_BIT_VALUES)
    sums = list(accumulate(map(sub, f, r), initial=0))
    low = min(sums)
    return sums.index(low), la - rev.bit_count() - low


def _match(masks, a, b, a0, a1, b0, b1, hit_a, hit_b):
    """Mark one longest common subsequence of a[a0:a1] and b[b0:b1] in
    ``hit_a`` and ``hit_b``.

    A piece whose rows fit ``_LEAF_BITS`` is traced back from its stored
    rows; a larger one is split at the middle of ``b`` where a forward and
    a reverse row meet (Hirschberg 1975).
    """
    while a0 < a1 and b0 < b1 and a[a0] == b[b0]:
        hit_a[a0] = hit_b[b0] = 1
        a0 += 1
        b0 += 1
    while a1 > a0 and b1 > b0 and a[a1 - 1] == b[b1 - 1]:
        a1 -= 1
        b1 -= 1
        hit_a[a1] = hit_b[b1] = 1
    la, lb = a1 - a0, b1 - b0
    if not la or not lb:
        return
    if lb == 1 or lb * (la + _ROW_HEADER_BITS) <= _LEAF_BITS:
        _trace(masks, a, b, a0, a1, b0, b1, hit_a, hit_b)
        return
    mid = b0 + lb // 2
    fwd = _row(masks, a0, a1, b[b0:mid])
    rev = _row(masks, a0, a1, b[mid:b1][::-1], True)
    i, score = _split(fwd, rev, la)
    if score:
        _match(masks, a, b, a0, a0 + i, b0, mid, hit_a, hit_b)
        _match(masks, a, b, a0 + i, a1, mid, b1, hit_a, hit_b)


def _trace(masks, a, b, a0, a1, b0, b1, hit_a, hit_b):
    """Leaf of :func:`_match`: store every row, then walk back from the
    end. At old length i, unit b[j] extends the LCS iff its last
    occurrence p below i sees only ones in row j over [p, i), that is, no
    earlier unit already took a position there."""
    units = b[b0:b1]
    rows: list[int] = []
    local: dict[int, int] = {}
    _row(masks, a0, a1, units, rows=rows, local=local)
    pos = masks.pos
    i, j = a1 - a0, len(units)
    while i and j:
        j -= 1
        u = units[j]
        p = pos[u]
        if p >= 0:
            p -= a0
        else:
            p = (local[u] & ((1 << i) - 1)).bit_length() - 1
        if 0 <= p < i:
            ones = (1 << (i - p)) - 1
            if rows[j] >> p & ones == ones:
                hit_a[a0 + p] = hit_b[b0 + j] = 1
                i = p


def diff_units(old_units: Sequence, new_units: Sequence) -> list[tuple]:
    """Canonical minimal edit script between two unit sequences.

    Returns raw ops ('R', n) / ('D', n) / ('I', new_start, n). Canonical
    form: adjacent ops of one kind are merged and, between two retains,
    the delete precedes the insert. Reordering within such a region is
    replay-equivalent because deletes consume only old units and inserts
    only new ones.
    """
    ids: dict = {}
    a = [ids.setdefault(u, len(ids)) for u in old_units]
    old_ids = len(ids)
    b = [ids.setdefault(u, len(ids)) for u in new_units]
    del ids
    # A unit found on one side only is in no common subsequence.
    in_b = bytearray(old_ids)
    for u in b:
        if u < old_ids:
            in_b[u] = 1
    shared_a = bytes(map(in_b.__getitem__, a))
    shared_b = bytes(u < old_ids for u in b)
    sub_a = list(compress(a, shared_a))
    sub_b = list(compress(b, shared_b))
    hit_a = bytearray(len(sub_a))
    hit_b = bytearray(len(sub_b))
    _match(_MatchMasks(sub_a), sub_a, sub_b, 0, len(sub_a), 0, len(sub_b), hit_a, hit_b)
    kept_a = bytearray(len(a))
    kept_b = bytearray(len(b))
    for i in compress(compress(range(len(a)), shared_a), hit_a):
        kept_a[i] = 1
    for j in compress(compress(range(len(b)), shared_b), hit_b):
        kept_b[j] = 1
    return _script(kept_a, kept_b)


def _script(kept_a: bytearray, kept_b: bytearray) -> list[tuple]:
    """Canonical raw ops from the retained positions of both sides, which
    pair up in order."""
    n, m = len(kept_a), len(kept_b)
    out: list[tuple] = []
    i = j = 0
    while True:
        x = kept_a.find(1, i)
        y = kept_b.find(1, j)
        if x < 0:
            x, y = n, m
        if x > i:
            out.append((DELETE, x - i))
        if y > j:
            out.append((INSERT, j, y - j))
        if x == n:
            return out
        end_a = kept_a.find(0, x)
        end_b = kept_b.find(0, y)
        run = min((n if end_a < 0 else end_a) - x, (m if end_b < 0 else end_b) - y)
        out.append((RETAIN, run))
        i, j = x + run, y + run


#: At most ``count // _PATCH_SHARE`` bytes of an X run change: an aligned
#: stretch ends where more would, and a delete and an insert of the same
#: byte length (a pair) are patched only when at most ``span //
#: _PATCH_SHARE`` of its bytes change. Each changed byte costs the X run's
#: segment two bytes, or more where its gap needs more than one LEB128
#: byte, so an X run costs little more than an eighth of its span; the
#: count decides before anything is coded. A fixed design constant.
_PATCH_SHARE = 16


def line_diff(old: bytes, new: bytes) -> tuple[tuple[EditOp, ...], tuple[bytes, ...]]:
    """Minimal line-level edit script for textual content: the ops count
    lines, and each insert run's lines are its segment."""
    new_units = split_lines(new)
    ops: list[EditOp] = []
    segments: list[bytes] = []
    for op in diff_units(split_lines(old), new_units):
        if op[0] == INSERT:
            _, start, n = op
            ops.append(EditOp(INSERT, n))
            segments.append(b"".join(new_units[start : start + n]))
        else:
            ops.append(EditOp(*op))
    return tuple(ops), tuple(segments)


def _stretch(
    old: np.ndarray, new: np.ndarray, rival: Sequence[np.ndarray] | None, reverse: bool
) -> tuple[int, np.ndarray, np.ndarray]:
    """(h, offsets, xors): the aligned stretch old[:h] against new[:h] at
    the start of two uint8 views of one length, or at their end if
    ``reverse``, with the offsets of its changed bytes, counted back from
    the end if ``reverse``, and their XOR. The views are XORed forward
    and only the rows are read backward: numpy XORs reversed views four
    times as slowly.

    ``rival`` is given when the two versions differ in length: two views
    that line the same bytes of the shorter version up with the other
    end of the longer one. The XOR is read in ``_SAME_BLOCK``-byte
    windows laid from where the stretch starts, and the search stops at
    the first window in which more than ``_SAME_BLOCK // _PATCH_SHARE``
    bytes change, or in which the rival changes fewer bytes: there the
    two versions no longer line up, or line up better the other way.
    The first rule assumes that misaligned bytes XOR densely, as
    high-entropy content does; the second also stops a single insert or
    delete in content that is mostly zero or repeats itself, where a
    shifted compare changes few bytes. Nonzero uint64 words are counted
    per window, so only a window with more than an eighth as many
    changed words, or one whose rival has fewer than eight times as many,
    is counted byte by byte, and only the nonzero words of windows up to
    the stop are split into bytes; a search of the bytes themselves takes
    several times as long on a sparse XOR.

    A search that no window stops takes the whole views if at most a
    ``_PATCH_SHARE``-th of their bytes change: no bytes are left that the
    middle could code better. Otherwise, up to the end of the search, h
    is the longest length that maximizes h - ``_PATCH_SHARE`` * (bytes
    changed before h). That is at least zero, so at most
    ``h // _PATCH_SHARE`` bytes of the stretch change, and the stretch
    ends at the byte where an insert or a dense rewrite starts, as the
    next changed byte and every length past it gain less. With a rival,
    the search ends first at the switch to the rival: in the stop window
    or the one before it, the longest length that maximizes the bytes the
    rival changes before it less the bytes this alignment changes.
    """
    import numpy as np

    def windows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # XOR rows laid from where the stretch starts, zero bytes past the
        # views, and the nonzero words of each
        diff = np.zeros(-(-a.size // _SAME_BLOCK) * _SAME_BLOCK, dtype=np.uint8)
        pad = diff.size - a.size if reverse else 0
        np.bitwise_xor(a, b, out=diff[pad : pad + a.size])
        rows = diff.reshape(-1, _SAME_BLOCK)
        words = np.count_nonzero(rows.view(np.uint64), axis=1)
        return (rows[::-1, ::-1], words[::-1]) if reverse else (rows, words)

    rows, words = windows(old, new)
    dense = _SAME_BLOCK // _PATCH_SHARE
    suspect = words > dense // 8
    if rival is not None:
        rival_rows, rival_words = windows(*rival)
        suspect |= rival_words < 8 * words
    stop = None
    for w in np.flatnonzero(suspect).tolist():
        count = np.count_nonzero(rows[w])
        if count > dense or (rival is not None and np.count_nonzero(rival_rows[w]) < count):
            words, stop = words[: w + 1], min(old.size, (w + 1) * _SAME_BLOCK)
            break
    touched = np.flatnonzero(words)
    changed = rows[touched]
    nonzero = np.flatnonzero(changed.view(np.uint64))
    r, c = np.nonzero(changed.reshape(-1, 8)[nonzero])
    flat = nonzero[r] * 8 + c
    at = touched[flat // _SAME_BLOCK] * _SAME_BLOCK + flat % _SAME_BLOCK
    xor = changed.reshape(-1)[flat]
    if stop is None:
        stop = old.size
        if at.size <= stop // _PATCH_SHARE:
            return stop, at, xor
    elif rival is not None:
        # ending at the stop window or the one before it, just before byte
        # j, leads by the bytes the rival changes before j less ours
        first = max(0, w - 1)
        ours, theirs = (
            (side[first : w + 1].reshape(-1)[: stop - first * _SAME_BLOCK] != 0).view(np.int8)
            for side in (rows, rival_rows)
        )
        lead = np.cumsum(np.concatenate(([0], theirs - ours)), dtype=np.int32)
        stop = first * _SAME_BLOCK + lead.size - 1 - int(np.argmax(lead[::-1]))
        keep = int(np.searchsorted(at, stop))
        at, xor = at[:keep], xor[:keep]
    # ending just before changed byte i gains at[i] - _PATCH_SHARE * i
    gain = at - _PATCH_SHARE * np.arange(at.size)
    if stop - _PATCH_SHARE * at.size >= gain.max(initial=0):
        return stop, at, xor
    i = at.size - 1 - int(np.argmax(gain[::-1]))
    return int(at[i]), at[:i], xor[:i]


class _ChunkScript:
    """The ops and segments of a chunk patch, appended in order.

    An R op directly after an R op extends it. An X run directly after an
    X run, or after an R op that directly follows one, extends that run
    over the retained bytes, so no X R X is left: the gap carries across
    them and the retained bytes are never read. Every offset is in the
    old file, where an X run consumes as many bytes as it yields.
    """

    def __init__(self):
        self.ops: list[EditOp] = []
        self.segments: list[bytes | bytearray] = []
        self.end = 0  # one past the last changed byte of the last X run

    def retain(self, count: int) -> None:
        if self.ops and self.ops[-1].kind == RETAIN:
            count += self.ops.pop().count
        self.ops.append(EditOp(RETAIN, count))

    def stretch(self, start: int, count: int, changed: np.ndarray, xors: np.ndarray) -> None:
        """The ``count`` old bytes from ``start``, changed only at the old
        offsets ``changed`` by ``xors``: an X run, or an R op if none."""
        if not changed.size:
            if count:
                self.retain(count)
            return
        ops = self.ops
        if len(ops) > 1 and ops[-1].kind == RETAIN and ops[-2].kind == PATCH:
            count += ops.pop().count
        if ops and ops[-1].kind == PATCH:
            ops[-1] = EditOp(PATCH, ops[-1].count + count)
            self.segments[-1] += patch_encode(changed.tolist(), xors.tobytes(), self.end)
        else:
            ops.append(EditOp(PATCH, count))
            self.segments.append(bytearray(patch_encode(changed.tolist(), xors.tobytes(), start)))
        self.end = int(changed[-1]) + 1


def chunk_diff(old: bytes, new: bytes) -> tuple[tuple[EditOp, ...], tuple[bytes, ...]]:
    """Edit script for binary content, as byte spans with sparse patch
    runs and delta-coded insert runs; aligned first, chunked only where
    the two versions do not line up.

    The head aligns the two versions from their start and the tail from
    their end, at old offset ``len(old) - len(new)`` further on, with
    head and tail no longer together than the shorter version; each is
    the stretch :func:`_stretch` finds, with the other alignment of the
    same bytes as its rival when the lengths differ, and is one X run if
    a byte of it changes and an R op otherwise. Only the middle between
    them is cut into content-defined chunks (:func:`_chunk_pair`) and
    read off the minimal chunk script (:func:`diff_units`). There a pair in which at
    least one and at most ``span // _PATCH_SHARE`` bytes change is
    patched, every other insert run is delta-coded against ``old`` at
    the old offset the script has reached, and the offsets are the whole
    file's, as the delta coder's dictionary and the replay read the whole
    old file. Runs join as :class:`_ChunkScript` says, so every X run,
    joined or not, changes at least one and at most ``count //
    _PATCH_SHARE`` of its bytes.
    """
    import numpy as np

    old_view = np.frombuffer(old, dtype=np.uint8)
    new_view = np.frombuffer(new, dtype=np.uint8)
    n, m = old_view.size, new_view.size
    shorter = min(n, m)
    # the shorter version's bytes against the longer's start and its end
    starts = old_view[:shorter], new_view[:shorter]
    ends = old_view[n - shorter :], new_view[m - shorter :]
    head, head_at, head_xor = _stretch(*starts, ends if n != m else None, False)
    ends, starts = ([view[head:] for view in pair] for pair in (ends, starts))
    tail, tail_at, tail_xor = _stretch(*ends, starts if n != m else None, True)
    script = _ChunkScript()
    script.stretch(0, head, head_at, head_xor)
    if head + tail < max(n, m):
        old_units, new_units = _chunk_pair(old[head : n - tail], new[head : m - tail])
        old_at = list(accumulate(map(len, old_units), initial=head))
        new_at = list(accumulate(map(len, new_units), initial=head))
        i = 0  # old chunks the script has consumed
        for op in diff_units(old_units, new_units):
            if op[0] != INSERT:
                kind, k = op
                if kind == RETAIN:
                    script.retain(old_at[i + k] - old_at[i])
                else:
                    script.ops.append(EditOp(DELETE, old_at[i + k] - old_at[i]))
                i += k
                continue
            _, j, k = op
            at, end = new_at[j], new_at[j + k]
            pos = old_at[i]
            span = end - at
            if script.ops and script.ops[-1] == (DELETE, span):
                diff = np.bitwise_xor(old_view[pos - span : pos], new_view[at:end])
                if 0 < np.count_nonzero(diff) <= span // _PATCH_SHARE:
                    changed = np.flatnonzero(diff)
                    script.ops.pop()
                    script.stretch(pos - span, span, changed + (pos - span), diff[changed])
                    continue
            script.ops.append(EditOp(INSERT, span))
            script.segments.append(delta_encode(new[at:end], old, pos))
    script.stretch(n - tail, tail, (n - 1 - tail_at)[::-1], tail_xor[::-1])
    return tuple(script.ops), tuple(map(bytes, script.segments))


#: Bytes of a file's head that :func:`classify_textual` inspects.
TEXT_SCAN_LIMIT = 8192


def classify_textual(content: bytes) -> bool:
    """Classify content as textual (True) or binary (False).

    A file is textual iff its first ``TEXT_SCAN_LIMIT`` bytes contain no
    NUL byte and decode as valid UTF-8, allowing a multi-byte sequence
    cut off by the scan limit to be ignored. Empty content is textual.
    """
    scan = content[:TEXT_SCAN_LIMIT]
    if b"\x00" in scan:
        return False
    decoder = codecs.getincrementaldecoder("utf-8")()
    try:
        # final=True unless the scan window truncated the content, in which
        # case an incomplete trailing code point is not evidence of binary.
        decoder.decode(scan, final=len(content) <= TEXT_SCAN_LIMIT)
    except UnicodeDecodeError:
        return False
    return True


def _textual(old: bytes, new: bytes) -> bool:
    """A changed file is line-diffed when both versions classify as
    textual, and chunk-diffed otherwise."""
    return classify_textual(old) and classify_textual(new)


def retained_bytes(old: bytes, new: bytes) -> int:
    """Bytes of ``new`` that a unit script from ``old`` retains: the new
    lines, or the content-defined chunks of the whole file, that the
    minimal unit script keeps. Every new unit is retained or inserted, so
    this is ``new`` less its inserted units. A binary file's units are
    its whole-file chunks, not the aligned runs :func:`chunk_diff` codes,
    so the ratio does not depend on how a package codes the file.
    """
    if _textual(old, new):
        old_units, new_units = split_lines(old), split_lines(new)
    else:
        old_units, new_units = _chunk_pair(old, new)
    inserted = sum(
        len(unit)
        for op in diff_units(old_units, new_units)
        if op[0] == INSERT
        for unit in new_units[op[1] : op[1] + op[2]]
    )
    return len(new) - inserted


# -- tree comparison ---------------------------------------------------------


def compare_trees(old: FileTree, new: FileTree) -> ChangeSet:
    """Compute the ChangeSet turning ``old`` into ``new``.

    Files matching by content hash are skipped entirely. A changed file
    is line-diffed or chunk-diffed as :func:`_textual` says. A path whose
    kind flips becomes a delete plus an insert.
    """
    file_del: list[FileChange] = []
    dir_del: list[FileChange] = []
    dir_ins: list[FileChange] = []
    file_ins: list[FileChange] = []
    patches: list[FileChange] = []

    def delete(path, entry):
        if entry.is_dir:
            dir_del.append(FileChange(path, ChangeKind.DIR_DELETE))
        else:
            file_del.append(FileChange(path, ChangeKind.FILE_DELETE))

    def insert(path, entry):
        if entry.is_dir:
            dir_ins.append(FileChange(path, ChangeKind.DIR_INSERT))
        else:
            file_ins.append(
                FileChange(path, ChangeKind.FILE_INSERT, segments=(entry.content,))
            )

    for path in sorted(set(old) | set(new)):
        o = old.get(path)
        n = new.get(path)
        if o is None and n is not None:
            insert(path, n)
        elif o is not None and n is None:
            delete(path, o)
        elif o.is_dir is not n.is_dir:
            delete(path, o)
            insert(path, n)
        elif o.is_file and o.content_hash != n.content_hash:
            if _textual(o.content, n.content):
                kind, differ = ChangeKind.TEXT_PATCH, line_diff
            else:
                kind, differ = ChangeKind.CHUNK_PATCH, chunk_diff
            patches.append(FileChange(path, kind, *differ(o.content, n.content)))
    dir_del.reverse()  # children before parents
    changes = tuple(file_del + dir_del + dir_ins + file_ins + patches)
    return ChangeSet(tree_digest(old), tree_digest(new), changes)

