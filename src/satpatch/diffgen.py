"""Ground-side search: the delta between two application trees.

This module holds the search only: :mod:`satpatch.package` defines the
change set it finds, with its op units and delta-run codec. A changed
file is textual when both of its versions classify as textual
(:func:`classify_textual`: no NUL byte and valid UTF-8 in the first
``TEXT_SCAN_LIMIT`` bytes), and binary otherwise; only the ground
classifies. Each kind has its own script builder: :func:`line_diff` cuts
a textual file into lines and its ops count lines, and :func:`chunk_diff`
cuts a binary file into content-defined chunks and its ops count bytes.
Both read their script off one exact engine, so every script deletes and
inserts the minimal number of units (:func:`diff_units`):

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

A binary file's chunks end where the rolling hash of the ``WINDOW`` bytes
ending there has its low ``MASK_BITS`` bits zero (LBFS), at least
``MIN_SIZE`` and at most ``MAX_SIZE`` bytes apart; no package carries
these constants, as the receiver never chunks. The boundary scan
(:func:`_boundary_candidates`) sums each window's hash terms by doubling,
with shifted vector adds in 16-bit arithmetic over 64 KiB blocks, and
finds the same boundaries as a 64-bit rolling hash. Both versions of a
changed file are cut by one helper (:func:`_chunk_pair`), which scans
the old version in full and reuses its candidates for the new one
(:func:`_derived_candidates`): the two are compared in ``_SAME_BLOCK``
blocks laid from their start and, when their lengths differ, from their
end, and a window inside a run of equal blocks is a candidate iff the
old window it equals is. That is exact, as a candidate depends only on
its window's bytes; every other window is scanned, so a dense rewrite
scans every window as before. Chunk boundaries only steer the search: a
chunk script's ops count bytes. A delete directly followed by an insert
of the same byte length (a pair) is patched when at most
1/``_PATCH_SHARE`` of its bytes change, counted in the XOR of the two
spans; :func:`satpatch.package.patch_encode` codes that XOR as the
bytes that change and decides nothing. Patched pairs that only retained
chunks separate share one X run, which spans those chunks too, as
bsdiff's add block spans an aligned region; every other insert run is
delta-coded with :func:`satpatch.package.delta_encode`. No run is coded
just to compare sizes. The modification ratio is read off the unit script
(:func:`retained_bytes`), where a retained chunk is still one.

Only the chunk diff computes on numpy arrays: the boundary scan, the
block compare and each pair's XOR; the line diff and the Hirschberg
split use the standard library. numpy is loaded by the first chunk a
process runs, so neither a text-only diff nor the onboard modules that
import this one ever load it.
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
#: file with the old one; a fixed design constant. On the binary-flips
#: chains, 256 bytes to 1 KiB derive the new side in about the same time
#: (within 8%), while 2 and 4 KiB take 20% and 60% longer, as each flip
#: then leaves a larger block to scan.
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


#: A delete and an insert of the same byte length (a pair) are patched when
#: at most ``span // _PATCH_SHARE`` of its bytes change. Each changed byte
#: costs the X run's segment two bytes, or more where its gap needs more
#: than one LEB128 byte, so a patched pair costs little more than an
#: eighth of its span; the count decides before anything is coded. A fixed
#: design constant.
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


def chunk_diff(old: bytes, new: bytes) -> tuple[tuple[EditOp, ...], tuple[bytes, ...]]:
    """Minimal chunk-level edit script for binary content, as byte spans
    with delta-coded insert runs and sparse patch runs.

    A pair in which at least one and at most ``span // _PATCH_SHARE``
    bytes change is patched; this is the one place that decides. A
    patched pair that only retained chunks separate from the last X run
    extends that run over them, its first gap carrying the unchanged
    bytes between, so one X run spans each aligned stretch and the
    retained bytes are never read. Every other insert run, the insert
    of a pair too dense to patch included, is delta-coded against ``old``
    at the old offset the script has reached; such a run, a lone delete
    and the file's ends stop an X run.
    """
    import numpy as np

    old_units, new_units = _chunk_pair(old, new)
    old_view = np.frombuffer(old, dtype=np.uint8)
    new_view = np.frombuffer(new, dtype=np.uint8)
    old_at = list(accumulate(map(len, old_units), initial=0))
    new_at = list(accumulate(map(len, new_units), initial=0))
    ops: list[EditOp] = []
    segments: list[bytes | bytearray] = []
    i = 0  # old chunks the script has consumed
    tail = 0  # unchanged bytes at the end of the last X run
    for op in diff_units(old_units, new_units):
        if op[0] != INSERT:
            kind, n = op
            ops.append(EditOp(kind, old_at[i + n] - old_at[i]))
            i += n
            continue
        _, start, n = op
        at, end = new_at[start], new_at[start + n]
        pos = old_at[i]
        span = end - at
        if ops and ops[-1] == (DELETE, span):
            diff = np.bitwise_xor(old_view[pos - span : pos], new_view[at:end]).tobytes()
            if 0 < span - diff.count(0) <= span // _PATCH_SHARE:
                # ops end X R D: only retained chunks since the last X run
                if len(ops) > 2 and ops[-2].kind == RETAIN and ops[-3].kind == PATCH:
                    segment, tail = patch_encode(diff, tail + ops[-2].count)
                    span += ops[-2].count
                    del ops[-2:]
                    ops[-1] = EditOp(PATCH, ops[-1].count + span)
                    segments[-1] += segment
                else:
                    segment, tail = patch_encode(diff, 0)
                    ops[-1] = EditOp(PATCH, span)
                    segments.append(bytearray(segment))
                continue
        ops.append(EditOp(INSERT, span))
        segments.append(delta_encode(new[at:end], old, pos))
    return tuple(ops), tuple(map(bytes, segments))


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
    """Bytes of ``new`` that a patch from ``old`` retains: the new lines
    or chunks, cut as :func:`compare_trees` cuts them, that the unit
    script keeps. Every new unit is retained or inserted, so this is
    ``new`` less its inserted units. Read off the unit script, not a
    chunk patch's ops, because one X run also spans the retained chunks
    between its pairs.
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

