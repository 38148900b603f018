"""Delta computation between two application trees.

Changed files are diffed at unit granularity: textual files as lines,
binary files as content-defined chunks. Unit sequences are compared with
a Myers shortest-edit-script search (linear-space middle-snake variant),
so the emitted script has the provably minimal number of deleted and
inserted units. Scripts are run-length encoded as R (retain), D (delete),
I (insert) operations; inserted bytes ride alongside as one segment per
I run.

Line-mode ops count lines. Chunk-mode ops count bytes: the chunk
boundaries only steer the search, and the receiver replays byte spans
through its local old content without re-chunking anything. A chunk
insert run travels delta-coded: a raw deflate stream whose preset
dictionary is the old content just before the run's old offset (see
:func:`delta_dictionary`), so bytes the run replaces cost back-references
instead of literals.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import EditScriptError, SegmentCountError, TreeError
from .fstree import FileTree, tree_digest

RETAIN = "R"
DELETE = "D"
INSERT = "I"


# Chunker parameters: a boundary falls where the rolling hash of the
# trailing WINDOW bytes has MASK_BITS low zero bits, and chunk lengths are
# clamped to [MIN_SIZE, MAX_SIZE]. They are fixed design constants, as in
# LBFS, which uses the same 48-byte window: only the ground chunks (the
# receiver replays byte spans), and no caller needs other values. The
# package header carries them and decode requires them.
WINDOW = 48
MASK_BITS = 11
MIN_SIZE = 256
MAX_SIZE = 16384


@dataclass(frozen=True)
class EditOp:
    """One run-length edit: retain/delete/insert ``count`` units, where a
    unit is a line in text scripts and a byte in chunk scripts."""

    kind: str
    count: int

    def __post_init__(self):
        if self.kind not in (RETAIN, DELETE, INSERT):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("op count must be positive")


class ChangeKind(Enum):
    DIR_INSERT = "D+"
    DIR_DELETE = "D-"
    FILE_INSERT = "F+"
    FILE_DELETE = "F-"
    TEXT_PATCH = "T~"
    CHUNK_PATCH = "B~"


PATCH_KINDS = frozenset({ChangeKind.TEXT_PATCH, ChangeKind.CHUNK_PATCH})
#: Kinds that leave new file content at their path.
CONTENT_KINDS = PATCH_KINDS | {ChangeKind.FILE_INSERT}


@dataclass(frozen=True)
class FileChange:
    """One manifest entry: what happened to one path.

    Patches carry an edit script plus the inserted-byte segments, in I-op
    order (delta-coded for chunk patches). A file insert is a single
    segment holding the whole content.
    """

    path: str
    kind: ChangeKind
    ops: tuple[EditOp, ...] = ()
    segments: tuple[bytes, ...] = ()


@dataclass(frozen=True)
class ChangeSet:
    """Complete delta between two tree versions, in apply order.

    Apply order is: file deletes, directory deletes (children first),
    directory inserts (parents first), file inserts, patches. Source and
    target digests pin the exact versions the delta connects.
    """

    source_digest: bytes
    target_digest: bytes
    changes: tuple[FileChange, ...]

    def segment_bytes(self) -> int:
        return sum(len(s) for c in self.changes for s in c.segments)


def insert_runs(change: FileChange) -> int:
    """How many segments ``change`` must carry."""
    if change.kind is ChangeKind.FILE_INSERT:
        return 1
    if change.kind in PATCH_KINDS:
        return sum(1 for op in change.ops if op.kind == INSERT)
    return 0


def check_segments(change: FileChange) -> None:
    """The segment checks that need no old content: one segment per insert
    run, and each text insert run exactly as many lines as its op counts.

    Chunk insert runs are checked when they inflate against the old
    content. Raises SegmentCountError or EditScriptError.
    """
    needed = insert_runs(change)
    if len(change.segments) != needed:
        raise SegmentCountError(
            f"{change.path!r}: {needed} insert runs but "
            f"{len(change.segments)} segments"
        )
    if change.kind is not ChangeKind.TEXT_PATCH:
        return
    runs = [op for op in change.ops if op.kind == INSERT]
    for run, (op, segment) in enumerate(zip(runs, change.segments)):
        lines = len(split_lines(segment))
        if lines != op.count:
            raise EditScriptError(
                f"{change.path!r}: insert run {run} splits into {lines} "
                f"lines, op covers {op.count}"
            )


# -- delta-coded chunk insert runs --------------------------------------------

#: Deflate's window: a preset dictionary longer than this is not used.
DELTA_WINDOW = 32768


def delta_dictionary(old: bytes, pos: int) -> bytes:
    """Preset dictionary of a chunk insert run at old offset ``pos``.

    ``pos`` is taken after any delete that precedes the run, so the
    dictionary holds the bytes the run replaces and the retained bytes
    before them.
    """
    return old[max(0, pos - DELTA_WINDOW) : pos]


def delta_encode(run: bytes, old: bytes, pos: int) -> bytes:
    """Raw deflate of an insert run against :func:`delta_dictionary`."""
    coder = zlib.compressobj(
        9, zlib.DEFLATED, -15, zdict=delta_dictionary(old, pos)
    )
    return coder.compress(run) + coder.flush()


# -- unit splitting ----------------------------------------------------------


def split_lines(data: bytes) -> list[bytes]:
    """Split into lines, each keeping its 0x0A terminator.

    An unterminated tail is its own line, so the concatenation of the
    result always reproduces the input exactly.
    """
    out = []
    start = 0
    while True:
        idx = data.find(b"\n", start)
        if idx < 0:
            break
        out.append(data[start : idx + 1])
        start = idx + 1
    if start < len(data):
        out.append(data[start:])
    return out


# Rolling-hash tables. A window's hash is sum(w64[b_j] * mult**j) mod 2**64
# over its bytes, newest first (j = 0), with 64-bit byte weights drawn from
# SHA-256 so every input byte disturbs every hash bit. A boundary needs only
# the low ``MASK_BITS <= 32`` bits of that hash to be zero, and the low 32
# bits of a uint64 sum or product depend only on the low 32 bits of its
# operands, so the chunker computes in uint32 with the weights' low halves.
_HASH_MULT = 1000000007
_BYTE_WEIGHTS = np.array(
    [
        int.from_bytes(hashlib.sha256(bytes([v])).digest()[4:8], "big")
        for v in range(256)
    ],
    dtype=np.uint32,
)
#: Bytes hashed per pass of the chunker; consecutive blocks share
#: ``WINDOW - 1`` bytes.
_BLOCK = 1 << 18


@functools.cache
def _inverse_powers() -> np.ndarray:
    """mult**-k mod 2**32 for k < ``_BLOCK``, read-only. Built on first
    use: a process that never chunks (the onboard apply) never holds it."""
    out = np.full(_BLOCK, pow(_HASH_MULT, -1, 2**32), dtype=np.uint32)
    out[0] = 1
    np.cumprod(out, dtype=np.uint32, out=out)
    out.flags.writeable = False
    return out


def _boundary_candidates(data: bytes) -> np.ndarray:
    """Positions where a full hash window ends with the masked bits zero.

    The window ending at ``pos`` hashes to
    H(pos) = sum(w64[data[pos-j]] * mult**j for j < WINDOW) mod 2**64, a
    pure function of window content, so candidates are stable under
    shifts of the surrounding data. Three facts let the test run on small
    blocks in 32-bit arithmetic without moving any candidate:

    1. With prefix sums C(i) = sum(w64[data[k]] * mult**-k for k <= i),
       H(pos) = mult**pos * (C(pos) - C(pos - WINDOW)). ``mult`` is odd,
       so mult**pos is a unit mod 2**64 and the low ``MASK_BITS`` bits of
       H(pos) are zero iff those of the difference are: no final multiply.
    2. ``MASK_BITS <= 32``, and the low 32 bits of uint64 sums and
       products depend only on the low 32 bits of the operands, so every
       step runs in uint32 with the weights' low 32 bits.
    3. Prefix sums restarted at a block start ``s`` are
       mult**s * (C(i) - C(s - 1)), so inside the block a window's
       difference is the global one times mult**s, another odd factor.
       Each block thus decides every window that lies inside it, blocks
       that overlap by ``WINDOW - 1`` bytes decide every window once, and
       one table of inverse powers serves every block.

    Memory is three block-sized work buffers plus the result.
    """
    n = len(data)
    if n < WINDOW:
        return np.empty(0, dtype=np.int64)
    inv_pows = _inverse_powers()
    mask = np.uint32((1 << MASK_BITS) - 1)
    view = np.frombuffer(data, dtype=np.uint8)
    sums = np.empty(min(_BLOCK, n), dtype=np.uint32)
    diffs = np.empty(sums.size - WINDOW + 1, dtype=np.uint32)
    hits = np.empty(diffs.size, dtype=bool)
    found = []
    start = 0
    while True:
        stop = min(start + _BLOCK, n)
        size = stop - start
        count = size - WINDOW + 1
        part = sums[:size]
        # byte indices are always in range; "clip" lets take write to
        # ``out`` directly instead of through a checked buffer
        np.take(_BYTE_WEIGHTS, view[start:stop], out=part, mode="clip")
        np.multiply(part, inv_pows[:size], out=part)
        np.cumsum(part, dtype=np.uint32, out=part)
        diffs[0] = part[WINDOW - 1]
        np.subtract(part[WINDOW:], part[: size - WINDOW], out=diffs[1:count])
        np.bitwise_and(diffs[:count], mask, out=diffs[:count])
        np.equal(diffs[:count], 0, out=hits[:count])
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


def _middle_snake(a: Sequence[int], b: Sequence[int], a0, a1, b0, b1):
    """Middle snake of the shortest edit path through a[a0:a1] x b[b0:b1].

    Bidirectional greedy search: forward and reverse furthest-reaching
    D-paths meet near the middle, giving the edit distance d and a snake
    (x, y) -> (u, v) in absolute indices that splits the problem in two.
    Reverse paths are tracked in reversed coordinates; the diagonal k of
    the forward space maps to delta - k in reverse space.
    """
    n = a1 - a0
    m = b1 - b0
    delta = n - m
    odd = delta & 1
    half = (n + m + 1) // 2
    off = half + 1
    vf = [0] * (2 * half + 3)
    vr = [0] * (2 * half + 3)
    for d in range(half + 1):
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and vf[off + k - 1] < vf[off + k + 1]):
                x = vf[off + k + 1]
            else:
                x = vf[off + k - 1] + 1
            y = x - k
            sx = x
            while x < n and y < m and a[a0 + x] == b[b0 + y]:
                x += 1
                y += 1
            vf[off + k] = x
            if odd and delta - (d - 1) <= k <= delta + (d - 1):
                if vf[off + k] + vr[off + delta - k] >= n:
                    return 2 * d - 1, a0 + sx, b0 + sx - k, a0 + x, b0 + y
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and vr[off + k - 1] < vr[off + k + 1]):
                x = vr[off + k + 1]
            else:
                x = vr[off + k - 1] + 1
            y = x - k
            sx, sy = x, y
            while x < n and y < m and a[a1 - 1 - x] == b[b1 - 1 - y]:
                x += 1
                y += 1
            vr[off + k] = x
            if not odd and -d <= delta - k <= d:
                if vr[off + k] + vf[off + delta - k] >= n:
                    return 2 * d, a0 + n - x, b0 + m - y, a0 + n - sx, b0 + m - sy
    raise AssertionError("edit path search failed to converge")


def _ses(a, b, a0, a1, b0, b1, out):
    """Append raw ops for a[a0:a1] -> b[b0:b1] to ``out``.

    Raw ops are ('R', n), ('D', n), or ('I', b_start, n); insert payloads
    are ranges of b so nothing is copied until final assembly.
    """
    run = 0
    while a0 < a1 and b0 < b1 and a[a0] == b[b0]:
        a0 += 1
        b0 += 1
        run += 1
    if run:
        out.append((RETAIN, run))
    tail = 0
    while a1 > a0 and b1 > b0 and a[a1 - 1] == b[b1 - 1]:
        a1 -= 1
        b1 -= 1
        tail += 1
    if a0 < a1 or b0 < b1:
        if a0 == a1:
            out.append((INSERT, b0, b1 - b0))
        elif b0 == b1:
            out.append((DELETE, a1 - a0))
        else:
            _, x, y, u, v = _middle_snake(a, b, a0, a1, b0, b1)
            _ses(a, b, a0, x, b0, y, out)
            if u > x:
                out.append((RETAIN, u - x))
            _ses(a, b, u, a1, v, b1, out)
    if tail:
        out.append((RETAIN, tail))


def diff_units(old_units: Sequence, new_units: Sequence) -> list[tuple]:
    """Canonical minimal edit script between two unit sequences.

    Returns raw ops ('R', n) / ('D', n) / ('I', new_start, n). Canonical
    form: adjacent ops of one kind are merged and, between two retains,
    the delete precedes the insert. Reordering within such a region is
    replay-equivalent because deletes consume only old units and inserts
    only new ones.
    """
    table: dict = {}
    a = [table.setdefault(u, len(table)) for u in old_units]
    start = len(table)
    b = [table.setdefault(u, len(table)) for u in new_units]
    raw: list[tuple] = []
    if not a and not b:
        return []
    if not any(u < start for u in b):
        # No unit occurs on both sides: the trivial script is minimal.
        if a:
            raw.append((DELETE, len(a)))
        if b:
            raw.append((INSERT, 0, len(b)))
    else:
        _ses(a, b, 0, len(a), 0, len(b), raw)
    return _canonicalize(raw)


def _canonicalize(raw: Iterable[tuple]) -> list[tuple]:
    out: list[tuple] = []
    retain = 0
    deleted = 0
    inserted: tuple | None = None  # (b_start, n), contiguous within a region
    def flush_edits():
        nonlocal deleted, inserted
        if deleted:
            out.append((DELETE, deleted))
            deleted = 0
        if inserted is not None:
            out.append((INSERT, inserted[0], inserted[1]))
            inserted = None
    def flush_retain():
        nonlocal retain
        if retain:
            out.append((RETAIN, retain))
            retain = 0
    for op in raw:
        if op[0] == RETAIN:
            flush_edits()
            retain += op[1]
        elif op[0] == DELETE:
            flush_retain()
            deleted += op[1]
        else:
            flush_retain()
            if inserted is None:
                inserted = (op[1], op[2])
            else:
                # I runs separated only by deletes consume adjacent new
                # units, so they concatenate into one run.
                inserted = (inserted[0], inserted[1] + op[2])
    flush_edits()
    flush_retain()
    return out


def _assemble(
    raw: list[tuple],
    old_units: Sequence[bytes],
    new_units: Sequence[bytes],
    old: bytes | None = None,
) -> tuple[tuple[EditOp, ...], tuple[bytes, ...]]:
    """Turn a unit script into ops and segments.

    Without ``old`` the ops count units. With it (chunk scripts) they
    count bytes, and each insert run is delta-coded against ``old`` at
    the old offset the script has reached.
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
            else:
                ops.append(EditOp(INSERT, len(run)))
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
    with delta-coded insert runs."""
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

    for path in sorted(
        set(old.paths()) | set(new.paths()), key=lambda p: p.encode("utf-8")
    ):
        o = old.get(path)
        n = new.get(path)
        if o is None and n is not None:
            insert(path, n)
        elif o is not None and n is None:
            delete(path, o)
        elif o.kind is not n.kind:
            delete(path, o)
            insert(path, n)
        elif o.is_file and o.content_hash != n.content_hash:
            if o.textual and n.textual:
                ops, segments = line_diff(o.content, n.content)
                patches.append(
                    FileChange(path, ChangeKind.TEXT_PATCH, ops, segments)
                )
            else:
                ops, segments = chunk_diff(o.content, n.content)
                patches.append(
                    FileChange(path, ChangeKind.CHUNK_PATCH, ops, segments)
                )
    dir_del.reverse()  # children before parents
    changes = tuple(file_del + dir_del + dir_ins + file_ins + patches)
    return ChangeSet(tree_digest(old), tree_digest(new), changes)


def retained_bytes(change: FileChange, new_content: bytes) -> int:
    """Bytes of the new file content that the script retains from the old.

    Used for modification-ratio accounting. Chunk ops count bytes; line
    ops are measured against the new content's line lengths.
    """
    if change.kind is ChangeKind.CHUNK_PATCH:
        return sum(op.count for op in change.ops if op.kind == RETAIN)
    if change.kind is not ChangeKind.TEXT_PATCH:
        raise TreeError(f"not a patch change: {change.kind}")
    lines = split_lines(new_content)
    total = 0
    j = 0
    for op in change.ops:
        if op.kind == RETAIN:
            total += sum(len(l) for l in lines[j : j + op.count])
            j += op.count
        elif op.kind == INSERT:
            j += op.count
    return total
