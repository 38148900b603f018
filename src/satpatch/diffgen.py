"""Ground-side search: the delta between two application trees.

This module holds the search only: :mod:`satpatch.package` defines the
change set it finds, with its op units and delta-run codec. Changed files
are diffed at unit granularity: textual files as lines, binary files as
content-defined chunks. Both kinds of unit sequence go through one exact
engine, so every script deletes and inserts the minimal number of units
(:func:`diff_units`):

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
finds the same boundaries as a 64-bit rolling hash. Chunk boundaries only
steer the search: a chunk script's ops count bytes. A delete directly
followed by an insert of the same byte length becomes one X run, coded
by :func:`satpatch.package.patch_encode` as the bytes that change, when
that segment is at most 1/``_PATCH_SHARE`` of the span; every other
insert run is delta-coded with :func:`satpatch.package.delta_encode`.
No run is deflated just to compare sizes.

Only the chunker computes on numpy arrays; the line diff and the
Hirschberg split use the standard library. numpy is loaded by the first
chunk a process runs, so neither a text-only diff nor the onboard modules
that import this one ever load it.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
from itertools import accumulate, compress
from operator import sub
from typing import Sequence

from .fstree import FileTree, classify_textual, tree_digest
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
#: ``WINDOW - 1`` bytes. Its three uint16 work buffers fit in L2 cache.
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

    Memory is three block-sized uint16 work buffers, a block of flags,
    the block of intp indices that ``np.take`` casts the bytes to, and the
    result.
    """
    import numpy as np

    n = len(data)
    if n < WINDOW:
        return np.empty(0, dtype=np.int64)
    weights, inv_pows = _tables()
    mask = np.uint16((1 << MASK_BITS) - 1)
    view = np.frombuffer(data, dtype=np.uint8)
    bufs = [np.empty(min(_BLOCK, n), dtype=np.uint16) for _ in range(3)]
    hits = np.empty(bufs[0].size - WINDOW + 1, dtype=bool)
    found = []
    start = 0
    while True:
        stop = min(start + _BLOCK, n)
        size = stop - start
        count = size - WINDOW + 1
        terms = bufs[0][:size]
        # byte indices are always in range; "clip" lets take write to
        # ``out`` directly instead of through a checked buffer
        np.take(weights, view[start:stop], out=terms, mode="clip")
        np.multiply(terms, inv_pows[:size], out=terms)
        # run holds the sums of ``span`` consecutive terms, acc the sums of
        # ``covered`` terms: the set bits of WINDOW below ``span``
        run, free, acc = terms, bufs[1:], None
        span, covered = 1, 0
        while True:
            if WINDOW & span:
                if covered:
                    m = size - covered - span + 1
                    np.add(acc[:m], run[covered : covered + m], out=acc[:m])
                else:
                    acc = run
                covered += span
            if covered == WINDOW:
                break
            m = size - 2 * span + 1
            out = free.pop()
            np.add(run[:m], run[span : span + m], out=out[:m])
            if run is not acc:
                free.append(run)
            run = out
            span *= 2
        np.bitwise_and(acc[:count], mask, out=acc[:count])
        np.equal(acc[:count], 0, out=hits[:count])
        found.append(np.flatnonzero(hits[:count]) + (start + WINDOW - 1))
        if stop == n:
            return np.concatenate(found)
        start = stop - (WINDOW - 1)


def chunk_lengths(data: bytes) -> list[int]:
    """Byte lengths of the content-defined chunks of ``data``, in order."""
    n = len(data)
    if n == 0:
        return []
    cands = _boundary_candidates(data).tolist()
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


def chunkify(data: bytes) -> list[bytes]:
    """Split ``data`` into content-defined chunks; b"".join(...) round-trips."""
    chunks = []
    start = 0
    for length in chunk_lengths(data):
        chunks.append(data[start : start + length])
        start += length
    return chunks


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


#: A same-length delete and insert become one X run when its segment is
#: at most ``span // _PATCH_SHARE`` bytes. A fixed design constant.
_PATCH_SHARE = 8


def _assemble(
    raw: list[tuple],
    old_units: Sequence[bytes],
    new_units: Sequence[bytes],
    old: bytes | None = None,
) -> tuple[tuple[EditOp, ...], tuple[bytes, ...]]:
    """Turn a unit script into ops and segments.

    Without ``old`` the ops count units. With it (chunk scripts) they
    count bytes; an insert right after a delete of the same byte length
    replaces that delete with an X run when its sparse segment is at most
    ``span // _PATCH_SHARE`` bytes, and every other insert run is
    delta-coded against ``old`` at the old offset the script has reached.
    """
    ops: list[EditOp] = []
    segments: list[bytes] = []
    i = j = pos = 0
    for op in raw:
        if op[0] == INSERT:
            _, b_start, n = op
            assert b_start == j, "insert runs must consume new units in order"
            run = b"".join(new_units[j : j + n])
            j += n
            if old is None:
                ops.append(EditOp(INSERT, n))
                segments.append(run)
                continue
            span = len(run)
            if ops and ops[-1] == (DELETE, span):
                patch = patch_encode(old[pos - span : pos], run, span // _PATCH_SHARE)
                if patch:
                    ops[-1] = EditOp(PATCH, span)
                    segments.append(patch)
                    continue
            ops.append(EditOp(INSERT, span))
            segments.append(delta_encode(run, old, pos))
            continue
        kind, n = op
        if old is None:
            ops.append(EditOp(kind, n))
        else:
            span = sum(map(len, old_units[i : i + n]))
            ops.append(EditOp(kind, span))
            pos += span
        i += n
        if kind == RETAIN:
            j += n
    assert i == len(old_units) and j == len(new_units)
    return tuple(ops), tuple(segments)


def line_diff(old: bytes, new: bytes) -> tuple[tuple[EditOp, ...], tuple[bytes, ...]]:
    """Minimal line-level edit script for textual content."""
    old_units = split_lines(old)
    new_units = split_lines(new)
    raw = diff_units(old_units, new_units)
    return _assemble(raw, old_units, new_units)


def chunk_diff(old: bytes, new: bytes) -> tuple[tuple[EditOp, ...], tuple[bytes, ...]]:
    """Minimal chunk-level edit script for binary content, as byte spans
    with delta-coded insert runs and sparse patch runs."""
    old_units = chunkify(old)
    new_units = chunkify(new)
    raw = diff_units(old_units, new_units)
    return _assemble(raw, old_units, new_units, old)


# -- tree comparison ---------------------------------------------------------


def compare_trees(old: FileTree, new: FileTree) -> ChangeSet:
    """Compute the ChangeSet turning ``old`` into ``new``.

    Files matching by content hash are skipped entirely. A changed file
    is line-diffed when both versions classify as textual, chunk-diffed
    otherwise. A path whose kind flips becomes a delete plus an insert.
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
            if classify_textual(o.content) and classify_textual(n.content):
                kind, differ = ChangeKind.TEXT_PATCH, line_diff
            else:
                kind, differ = ChangeKind.CHUNK_PATCH, chunk_diff
            patches.append(FileChange(path, kind, *differ(o.content, n.content)))
    dir_del.reverse()  # children before parents
    changes = tuple(file_del + dir_del + dir_ins + file_ins + patches)
    return ChangeSet(tree_digest(old), tree_digest(new), changes)

